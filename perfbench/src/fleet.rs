//! The generated input and the environments that run it.
//!
//! The fleet seed only reaches the simulator: the program under test
//! receives the generated records and nothing else.

use crate::live::TickClock;
use nebula::prelude::{
    ClusterEnvironment, EnvConfig, FunctionRegistry, NodeId, NodeKind, Query, Record, Source,
    StreamEnvironment, Topology, WatermarkStrategy, MICROS_PER_SEC,
};
use nebulameos::{DemoContext, MeosPlugin};
use sncb::{FleetConfig, FleetSimulator, RailNetwork, WeatherField};
use std::sync::Arc;

/// Trains in the demo fleet.
pub const TRAINS: usize = 6;
/// Sensor tick of the demo fleet, ms.
pub const TICK_MS: i64 = 250;

/// The demo queries Q1–Q8 plus the keyed window query, by metric id.
pub fn queries() -> Vec<(&'static str, Query)> {
    const IDS: [&str; 8] = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"];
    let mut qs: Vec<(&'static str, Query)> = IDS
        .into_iter()
        .zip(nebulameos::all_demo_queries())
        .map(|(id, (_, q))| (id, q))
        .collect();
    qs.push(("kw", nebulameos_bench::keyed_window_query()));
    qs
}

/// One generated fleet run.
pub struct Fleet {
    net: Arc<RailNetwork>,
    weather: Arc<WeatherField>,
    /// The records, tick by tick.
    pub records: Vec<Record>,
    /// Event time to tick.
    pub clock: TickClock,
}

impl Fleet {
    /// Simulates `hours` of the demo fleet from `seed`.
    pub fn generate(seed: u64, hours: i64) -> Fleet {
        let cfg = FleetConfig {
            num_trains: TRAINS,
            tick: meos::time::TimeDelta::from_millis(TICK_MS),
            duration: meos::time::TimeDelta::from_hours(hours),
            seed,
            ..FleetConfig::demo_hour()
        };
        let sim = FleetSimulator::new(cfg);
        let net = sim.network();
        let weather = Arc::new(sim.weather().clone());
        let records = sim.into_records();
        let ts = |r: &Record| r.get(0).and_then(|v| v.as_timestamp()).unwrap_or(0);
        let clock = TickClock {
            first_ts: records.first().map_or(0, ts),
            tick_us: TICK_MS * 1_000,
            ticks: records.len() / TRAINS,
        };
        // The tick source and the latency sink rely on one record per
        // train per tick, in tick order.
        assert!(
            records.len().is_multiple_of(TRAINS)
                && records
                    .iter()
                    .enumerate()
                    .all(|(i, r)| clock.tick_of(ts(r)) == i / TRAINS),
            "fleet records are not tick-ordered"
        );
        Fleet {
            net,
            weather,
            records,
            clock,
        }
    }

    fn demo_context(&self) -> DemoContext {
        DemoContext::new(sncb::demo_zones(&self.net)).with_weather(self.weather.clone())
    }

    /// The function registry the environments load: builtins, MEOS and
    /// the demo's zone and weather functions.
    pub fn registry(&self) -> FunctionRegistry {
        let mut registry = nebulameos::meos_registry();
        registry
            .load_plugin(&self.demo_context())
            .expect("demo context loads");
        registry
    }

    /// A single-process environment reading `source` as `fleet`.
    pub fn local_env(&self, source: Box<dyn Source>, config: EnvConfig) -> StreamEnvironment {
        let mut env = StreamEnvironment::with_config(config);
        env.load_plugin(&MeosPlugin).expect("meos plugin loads");
        env.load_plugin(&self.demo_context())
            .expect("demo context loads");
        env.add_source("fleet", source, watermark());
        env
    }

    /// A one-train sensors → edge → cloud cluster reading `source` on
    /// the train's sensor node, with the MEOS wire codecs loaded.
    /// Returns the train's edge node too.
    pub fn cluster_env(&self, source: Box<dyn Source>) -> (ClusterEnvironment, NodeId) {
        let (topo, sensors) = Topology::train_fleet(1);
        let edge = topo
            .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
            .expect("train_fleet has an onboard edge");
        let mut env = ClusterEnvironment::new(topo);
        env.load_plugin(&MeosPlugin).expect("meos plugin loads");
        env.load_plugin(&self.demo_context())
            .expect("demo context loads");
        nebulameos::register_meos_codecs(env.wire_registry_mut());
        env.add_source("fleet", sensors[0], source, watermark());
        (env, edge)
    }
}

/// The demo's bounded-out-of-order watermark on `ts`.
fn watermark() -> WatermarkStrategy {
    WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: 5 * MICROS_PER_SEC,
    }
}
