//! The four workloads: what each runs, how a run is timed and checked,
//! and how runs fold into end-to-end and per-layer metrics.

use crate::fleet::{queries, Fleet, TRAINS};
use crate::live::{Digest, ResultSink, TickSource, Timeline};
use crate::stats::{median, percentile_sorted};
use crate::trace::{self_time_ns, Span, SpanCtx, SpanId, TracedSink, TracedSource, Tracer};
use nebula::analysis::Target;
use nebula::prelude::{
    ClusterMetrics, EnvConfig, FaultPlan, OperatorReport, PlacementStrategy, Query, QueryMetrics,
    QueryReport, Result, Sink, Source,
};
use serde_json::{json, Map, Value as Json};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop arrival rate of `live-edge`, events/s (the paper's Table 1
/// rate).
pub const LIVE_RATE_EPS: u64 = 20_000;
/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_eps", "events/s"),
    ("alert_latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];
/// Ticks of the paced slice the closed-loop workloads time alert
/// latency on: 15 demo minutes, 21,600 events, about 1.1 s at the live
/// rate.
const PACED_SLICE_TICKS: usize = 15 * 60 * 4;
/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Fault plan of the chaos runs: drop and duplicate probabilities, and
/// the frame count after which the train's edge node crashes.
const CHAOS_DROP: f64 = 0.05;
const CHAOS_DUP: f64 = 0.02;
const CHAOS_CRASH_AFTER_FRAMES: u64 = 100;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, Q1–Q8 and the keyed window through `run`.
    ReplayLocal,
    /// Closed loop, the same queries through `run_partitioned`.
    ReplayParallel,
    /// Closed loop, keyed window and Q1 through `run_placed` under both
    /// placements, and through `run_placed_chaos`.
    EdgeCloud,
    /// Open loop at [`LIVE_RATE_EPS`], Q1 and Q5 through `run_placed`.
    LiveEdge,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayLocal,
        Workload::ReplayParallel,
        Workload::EdgeCloud,
        Workload::LiveEdge,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayLocal => "replay-local",
            Workload::ReplayParallel => "replay-parallel",
            Workload::EdgeCloud => "edge-cloud",
            Workload::LiveEdge => "live-edge",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Demo hours of fleet data per query run.
    pub fn hours(self) -> i64 {
        match self {
            Workload::LiveEdge => 1,
            _ => 4,
        }
    }

    fn query_ids(self) -> &'static [&'static str] {
        match self {
            Workload::ReplayLocal | Workload::ReplayParallel => {
                &["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "kw"]
            }
            Workload::EdgeCloud => &["kw", "q1"],
            Workload::LiveEdge => &["q1", "q5"],
        }
    }

    /// The query runs of one repetition.
    fn runs(self, parallelism: usize) -> Vec<RunSpec> {
        let ids = self.query_ids();
        let closed = |mode: Mode| {
            ids.iter().map(move |&query| RunSpec {
                query,
                mode,
                paced: false,
                ticks: ALL_TICKS,
            })
        };
        // Every workload measures alert latency at the live rate through
        // its own executor; the closed-loop workloads on a slice.
        let paced = |query, mode, ticks| RunSpec {
            query,
            mode,
            paced: true,
            ticks,
        };
        match self {
            Workload::ReplayLocal => closed(Mode::Local)
                .chain([paced("q1", Mode::Local, PACED_SLICE_TICKS)])
                .collect(),
            Workload::ReplayParallel => closed(Mode::Partitioned(parallelism))
                .chain([paced(
                    "q1",
                    Mode::Partitioned(parallelism),
                    PACED_SLICE_TICKS,
                )])
                .collect(),
            Workload::EdgeCloud => closed(Mode::Placed(PlacementStrategy::EdgeFirst))
                .chain(closed(Mode::Placed(PlacementStrategy::CloudOnly)))
                .chain(closed(Mode::Chaos))
                .chain([paced(
                    "q1",
                    Mode::Placed(PlacementStrategy::CloudOnly),
                    PACED_SLICE_TICKS,
                )])
                .collect(),
            Workload::LiveEdge => ids
                .iter()
                .map(|&q| paced(q, Mode::Placed(PlacementStrategy::EdgeFirst), ALL_TICKS))
                .collect(),
        }
    }
}

/// How one query run executes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Local,
    Partitioned(usize),
    Placed(PlacementStrategy),
    /// `run_placed_chaos`, EdgeFirst, under the fixed fault plan.
    Chaos,
}

impl Mode {
    fn label(self) -> String {
        match self {
            Mode::Local => "run".into(),
            Mode::Partitioned(p) => format!("run_partitioned({p})"),
            Mode::Placed(s) => format!("run_placed({s:?})"),
            Mode::Chaos => "run_placed_chaos(EdgeFirst)".into(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RunSpec {
    query: &'static str,
    mode: Mode,
    /// Open loop at [`LIVE_RATE_EPS`]; closed loop otherwise.
    paced: bool,
    /// Fleet ticks fed: a prefix, or [`ALL_TICKS`].
    ticks: usize,
}

/// Every tick of the fleet.
const ALL_TICKS: usize = usize::MAX;

impl RunSpec {
    fn label(self) -> String {
        let mut label = self.mode.label();
        if self.paced {
            label.push_str(", paced");
        }
        if self.ticks != ALL_TICKS {
            label.push_str(&format!(", {} ticks", self.ticks));
        }
        label
    }
}

/// Command-line settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Fleet seed.
    pub seed: u64,
    /// Fault-plan seed (edge-cloud's chaos runs).
    pub fault_seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Whether to make the traced run.
    pub trace: bool,
    /// Workers of `run_partitioned`.
    pub parallelism: usize,
}

/// Everything one query run leaves behind.
struct Outcome {
    spec: RunSpec,
    error: Option<String>,
    records_in: u64,
    wall_s: f64,
    digest: Digest,
    latencies_ns: Vec<u64>,
    lags_ms: Vec<f64>,
    waited_ms: f64,
    buffers: u64,
    first_delivery_ms: f64,
    report: Option<QueryReport>,
    cluster: Option<ClusterMetrics>,
    /// Traced runs: the run id and the `query.run` span.
    traced: Option<(u32, Span)>,
}

impl Outcome {
    fn fault_free(&self) -> bool {
        self.spec.mode != Mode::Chaos
    }

    /// Throughput, uplink and the per-query figures count the
    /// fault-free runs over the whole fleet.
    fn counts_throughput(&self) -> bool {
        self.fault_free() && self.spec.ticks == ALL_TICKS
    }
}

/// The per-repetition figures the end-to-end metrics are medians of.
struct RepSummary {
    throughput_eps: f64,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    latency_p999_ms: f64,
    latency_max_ms: f64,
    latency_samples: f64,
    peak_rss_mb: f64,
    faulted_throughput_eps: Option<f64>,
    edge_uplink_bpe: Option<f64>,
    cloud_uplink_bpe: Option<f64>,
}

/// A workload's result.
pub struct WorkloadResult {
    /// Every query run matched its reference and none failed.
    pub correct: bool,
    /// Query runs attempted.
    pub attempted: u64,
    /// Query runs that failed or mismatched.
    pub failed: u64,
    /// The gated metrics of this mode: (name, value, unit).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// End-to-end figures reported but not gated.
    pub reported: Vec<(String, f64, &'static str)>,
    /// The full record written to the results file.
    pub detail: Map<String, Json>,
}

struct SetupTimes {
    generate_s: f64,
    build_s: f64,
    analyze_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate_s + self.build_s + self.analyze_s
    }
}

/// One workload, set up and ready to run.
pub struct Bench {
    workload: Workload,
    settings: Settings,
    fleet: Fleet,
    queries: BTreeMap<&'static str, Query>,
    setups: Vec<SetupTimes>,
    tracer: Arc<Tracer>,
}

fn live_interval() -> Duration {
    Duration::from_nanos(1_000_000_000 * TRAINS as u64 / LIVE_RATE_EPS)
}

/// How long before each due time a paced source stops sleeping and
/// spins. A sleeping thread wakes late: the kernel's timer slack, plus
/// the time the host takes to wake an idle virtual CPU, longer when the
/// host is busy. `run_partitioned` releases a tick's results at the
/// router's next poll, one tick later, so their latency is one interval
/// plus how late the source woke for that poll; sleeping all the way,
/// that wake-up (~70 µs, more on a busy host) was what moved between
/// runs. `run` delivers a tick's results within ~20 µs of its release,
/// a figure that moved by up to a third between runs when the source
/// spun, so there the source sleeps all the way and its wake-up (mostly
/// the kernel's fixed 50 µs timer slack) stays in the latency. The
/// placed modes' latencies are hundreds of ms; the wake-up does not
/// show there.
fn spin_before_due(mode: Mode) -> Duration {
    match mode {
        Mode::Partitioned(_) => Duration::from_micros(150),
        _ => Duration::ZERO,
    }
}

impl Bench {
    /// Generates the input and builds and analyzes every query's
    /// environment, [`SETUP_ROUNDS`] times.
    pub fn setup(workload: Workload, settings: Settings) -> Bench {
        let tracer = Arc::new(Tracer::default());
        let all: BTreeMap<&'static str, Query> = queries().into_iter().collect();
        let queries: BTreeMap<&'static str, Query> = workload
            .query_ids()
            .iter()
            .map(|&id| (id, all[id].clone()))
            .collect();
        let mut setups = Vec::new();
        let mut fleet = None;
        for _ in 0..SETUP_ROUNDS {
            // Each round starts from nothing: the previous round's fleet
            // is gone before the next one is generated.
            drop(fleet.take());
            let run = tracer.new_run();
            let (f, g) = tracer.time("sncb.generate", None, run, || {
                Fleet::generate(settings.seed, workload.hours())
            });
            let source = || -> Box<dyn Source> {
                Box::new(TickSource::new(
                    sncb::fleet_schema(),
                    f.records.clone(),
                    TRAINS,
                    Timeline::closed(),
                ))
            };
            let target = match workload {
                Workload::ReplayParallel => Target::Partitioned {
                    parallelism: settings.parallelism,
                },
                _ => Target::Local,
            };
            let analyze_each = |analyze: &dyn Fn(&Query) -> Result<()>| {
                for (id, q) in &queries {
                    analyze(q).unwrap_or_else(|e| panic!("{id} fails analysis: {e}"));
                }
            };
            let (build, analyze) = match workload {
                Workload::ReplayLocal | Workload::ReplayParallel => {
                    let (env, b) = tracer.time("env.build", None, run, || {
                        f.local_env(source(), EnvConfig::default())
                    });
                    let (_, a) = tracer.time("analysis.analyze", None, run, || {
                        analyze_each(&|q| {
                            env.analyze_for(q, target.clone())?
                                .into_accepted()
                                .map(drop)
                        })
                    });
                    (b, a)
                }
                Workload::EdgeCloud | Workload::LiveEdge => {
                    let ((env, _), b) =
                        tracer.time("env.build", None, run, || f.cluster_env(source()));
                    let (_, a) = tracer.time("analysis.analyze", None, run, || {
                        analyze_each(&|q| {
                            env.analyze(q, PlacementStrategy::EdgeFirst)?
                                .into_accepted()
                                .map(drop)
                        })
                    });
                    (b, a)
                }
            };
            let secs = |s: &Span| s.dur_ns() as f64 / 1e9;
            setups.push(SetupTimes {
                generate_s: secs(&g),
                build_s: secs(&build),
                analyze_s: secs(&analyze),
            });
            fleet = Some(f);
        }
        Bench {
            workload,
            settings,
            fleet: fleet.expect("at least one set-up round"),
            queries,
            setups,
            tracer,
        }
    }

    /// Events per query run.
    pub fn events(&self) -> usize {
        self.fleet.records.len()
    }

    /// Executes one query run, traced or not.
    fn execute(&self, spec: RunSpec, traced: bool) -> Outcome {
        let query = &self.queries[spec.query];
        let timeline = if spec.paced {
            Timeline::paced(live_interval(), spin_before_due(spec.mode))
        } else {
            Timeline::closed()
        };
        let n = spec
            .ticks
            .saturating_mul(TRAINS)
            .min(self.fleet.records.len());
        let records = self.fleet.records[..n].to_vec();
        let mut source: Box<dyn Source> = Box::new(TickSource::new(
            sncb::fleet_schema(),
            records,
            TRAINS,
            timeline.clone(),
        ));
        let ctx = traced.then(|| SpanCtx {
            tracer: self.tracer.clone(),
            parent: self.tracer.reserve(),
            run: self.tracer.new_run(),
        });
        if let Some(c) = &ctx {
            source = Box::new(TracedSource::new(source, c.clone()));
        }
        let mut results = ResultSink::new(timeline.clone(), self.fleet.clock);
        let mut traced_sink;
        let sink: &mut dyn Sink = match &ctx {
            Some(c) => {
                traced_sink = TracedSink::new(&mut results, c.clone());
                &mut traced_sink
            }
            None => &mut results,
        };
        type Ran = Result<(QueryMetrics, Option<QueryReport>, Option<ClusterMetrics>)>;
        let (ran, t0, start_ns, wall): (Ran, _, _, _) = match spec.mode {
            Mode::Local | Mode::Partitioned(_) => {
                let mut config = EnvConfig::default();
                if let Mode::Partitioned(p) = spec.mode {
                    config.parallelism = p;
                }
                let mut env = self.fleet.local_env(source, config);
                let (r, t0, start_ns, wall) = self.timed(|| match spec.mode {
                    Mode::Local => env.run(query, sink),
                    _ => env.run_partitioned(query, sink),
                });
                (r.map(|m| (m, env.take_report(), None)), t0, start_ns, wall)
            }
            Mode::Placed(_) | Mode::Chaos => {
                let (mut env, edge) = self.fleet.cluster_env(source);
                let plan = FaultPlan::seeded(self.settings.fault_seed)
                    .drop_frames(CHAOS_DROP)
                    .duplicate_frames(CHAOS_DUP)
                    .crash_node(edge, CHAOS_CRASH_AFTER_FRAMES);
                let (r, t0, start_ns, wall) = self.timed(|| match spec.mode {
                    Mode::Placed(s) => env.run_placed(query, s, sink),
                    _ => env.run_placed_chaos(query, PlacementStrategy::EdgeFirst, &plan, sink),
                });
                (
                    r.map(|r| (r.metrics, Some(r.telemetry), Some(r.cluster))),
                    t0,
                    start_ns,
                    wall,
                )
            }
        };
        let traced = ctx.map(|c| {
            let span = Span {
                id: c.parent,
                name: "query.run",
                start_ns,
                end_ns: start_ns + wall.as_nanos() as u64,
                parent: None,
                run: c.run,
            };
            self.tracer.record(span.clone());
            (c.run, span)
        });
        let (error, records_in, report, cluster) = match ran {
            Ok((m, report, cluster)) => (None, m.records_in, report, cluster),
            Err(e) => (Some(e.to_string()), 0, None, None),
        };
        Outcome {
            spec,
            error,
            records_in,
            wall_s: wall.as_secs_f64(),
            digest: results.digest,
            latencies_ns: results.latencies_ns,
            lags_ms: timeline.lags_ms(),
            waited_ms: timeline.waited_ms(),
            buffers: results.buffers,
            first_delivery_ms: results
                .first_delivery
                .map_or(0.0, |t| t.saturating_duration_since(t0).as_secs_f64() * 1e3),
            report,
            cluster,
            traced,
        }
    }

    /// Times `f` from outside: its start instant, its start on the
    /// tracer's clock, and its wall time.
    fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, Instant, u64, Duration) {
        let start_ns = self.tracer.now_ns();
        let t0 = Instant::now();
        let out = f();
        (out, t0, start_ns, t0.elapsed())
    }

    /// Runs the workload for the configured seconds, checks every run
    /// against the `run` reference, and folds the metrics.
    pub fn measure(&self) -> WorkloadResult {
        let specs = self.workload.runs(self.settings.parallelism);
        let budget = Duration::from_secs(self.settings.seconds);
        let mut hwm_reset = true;
        let began = Instant::now();
        let mut plain: Vec<RepSummary> = Vec::new();
        let mut layered: Vec<BTreeMap<String, f64>> = Vec::new();
        let mut traced_eps: Vec<f64> = Vec::new();
        let mut checks: Vec<(RunSpec, Option<String>, Digest)> = Vec::new();
        let mut per_query: Vec<Json> = Vec::new();
        let mut last_rep = Duration::ZERO;
        loop {
            let traced = self.settings.trace && plain.len() > layered.len();
            // Peak memory covers one repetition's query runs, not set-up
            // or another repetition. The reset starts from the current
            // resident set, which still holds what the allocator kept
            // from anything run before.
            hwm_reset &= reset_peak_rss();
            let rep_start = Instant::now();
            let outcomes: Vec<Outcome> = specs.iter().map(|&s| self.execute(s, traced)).collect();
            last_rep = last_rep.max(rep_start.elapsed());
            let peak_rss = peak_rss_mb();
            checks.extend(outcomes.iter().map(|o| (o.spec, o.error.clone(), o.digest)));
            let summary = summarize(&outcomes, peak_rss);
            if traced {
                traced_eps.push(summary.throughput_eps);
                let spans = self.tracer.spans();
                layered.push(self.layer_metrics(&outcomes, &spans));
                per_query = breakdown(&outcomes, &spans);
            } else {
                plain.push(summary);
            }
            let done_plain = !plain.is_empty();
            let done_traced = !self.settings.trace || !layered.is_empty();
            if done_plain && done_traced && began.elapsed() + last_rep > budget {
                break;
            }
        }

        let failures = self.check(&specs, &checks);
        let attempted = checks.len() as u64;
        let failed = failures.len() as u64;

        let med = |f: &dyn Fn(&RepSummary) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        let med_opt = |f: &dyn Fn(&RepSummary) -> Option<f64>| {
            let v: Vec<f64> = plain.iter().filter_map(f).collect();
            (!v.is_empty()).then(|| median(&v))
        };
        let setup_rounds: Vec<f64> = self.setups.iter().map(SetupTimes::total).collect();
        let values = [
            med(&|r| r.throughput_eps),
            med(&|r| r.latency_p50_ms),
            median(&setup_rounds),
            med(&|r| r.peak_rss_mb),
        ];
        let metrics: Vec<(String, f64, &'static str)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect();
        let diagnostics: Map<String, Json> = BTreeMap::from([
            ("repetitions".into(), json!(plain.len())),
            (
                "throughput_eps_per_repetition".into(),
                json!(plain.iter().map(|r| r.throughput_eps).collect::<Vec<_>>()),
            ),
            ("setup_s_per_round".into(), json!(setup_rounds)),
            ("peak_rss_reset_before_repetitions".into(), json!(hwm_reset)),
            ("events_per_query_run".into(), json!(self.events())),
            ("query_runs_per_repetition".into(), json!(specs.len())),
            (
                "alert_latency_p50_ms_per_repetition".into(),
                json!(plain.iter().map(|r| r.latency_p50_ms).collect::<Vec<_>>()),
            ),
            (
                "alert_latency_p99_ms_per_repetition".into(),
                json!(plain.iter().map(|r| r.latency_p99_ms).collect::<Vec<_>>()),
            ),
            ("failures".into(), json!(failures)),
        ]);
        // The rest of the end-to-end picture, reported but not gated:
        // too noisy on a shared host (p99 and beyond), absent from some
        // workloads, or 0 at this commit.
        let reported: Vec<(String, f64, &'static str)> = [
            (
                "alert_latency_p99_ms",
                Some(med(&|r| r.latency_p99_ms)),
                "ms",
            ),
            (
                "alert_latency_p999_ms",
                Some(med(&|r| r.latency_p999_ms)),
                "ms",
            ),
            (
                "alert_latency_max_ms",
                Some(med(&|r| r.latency_max_ms)),
                "ms",
            ),
            (
                "alert_latency_samples",
                Some(med(&|r| r.latency_samples)),
                "count",
            ),
            (
                "error_rate",
                Some(failed as f64 / attempted.max(1) as f64),
                "ratio",
            ),
            (
                "faulted_throughput_eps",
                med_opt(&|r| r.faulted_throughput_eps),
                "events/s",
            ),
            (
                "edge_uplink_bytes_per_event",
                med_opt(&|r| r.edge_uplink_bpe),
                "B/event",
            ),
            (
                "cloud_uplink_bytes_per_event",
                med_opt(&|r| r.cloud_uplink_bpe),
                "B/event",
            ),
        ]
        .into_iter()
        .filter_map(|(n, v, u)| Some((n.to_string(), v?, u)))
        .collect();

        let as_json = |ms: &[(String, f64, &str)]| -> Json {
            ms.iter()
                .map(|(n, v, u)| (n.clone(), json!({"value": v, "unit": u})))
                .collect::<Map<_, _>>()
                .into()
        };
        let mut detail: Map<String, Json> = BTreeMap::from([
            ("workload".into(), json!(self.workload.name())),
            ("end_to_end".into(), as_json(&metrics)),
            ("end_to_end_not_gated".into(), as_json(&reported)),
            ("diagnostics".into(), diagnostics.into()),
        ]);
        let mut out_metrics = metrics;
        if self.settings.trace {
            let untraced: Vec<f64> = plain.iter().map(|r| r.throughput_eps).collect();
            let layers = self.traced_layers(&layered, median(&traced_eps) / median(&untraced));
            out_metrics = per_layer_names()
                .into_iter()
                .map(|n| {
                    let v = layers.get(&n).copied().unwrap_or(0.0);
                    let unit = layer_unit(&n);
                    (n, v, unit)
                })
                .collect();
            detail.insert("per_layer".into(), as_json(&out_metrics));
            detail.insert("per_query".into(), Json::Array(per_query));
            detail.insert("spans".into(), self.tracer.to_json());
        }
        WorkloadResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics: out_metrics,
            reported,
            detail,
        }
    }

    /// The correctness gate, untimed: every run's digest against `run`
    /// on the same records. Returns one line per failed run.
    fn check(
        &self,
        specs: &[RunSpec],
        checks: &[(RunSpec, Option<String>, Digest)],
    ) -> Vec<String> {
        let mut reference: BTreeMap<(&str, usize), std::result::Result<Digest, String>> =
            BTreeMap::new();
        for spec in specs {
            reference
                .entry((spec.query, spec.ticks))
                .or_insert_with(|| {
                    let local = RunSpec {
                        mode: Mode::Local,
                        paced: false,
                        ..*spec
                    };
                    let o = self.execute(local, false);
                    o.error.map_or(Ok(o.digest), Err)
                });
        }
        checks
            .iter()
            .filter_map(|(spec, error, digest)| {
                let why = match (error, &reference[&(spec.query, spec.ticks)]) {
                    (Some(e), _) => format!("returned Err: {e}"),
                    (None, Err(e)) => format!("reference run failed: {e}"),
                    (None, Ok(want)) if want != digest => {
                        format!("output digest {digest:?} differs from the reference {want:?}")
                    }
                    _ => return None,
                };
                Some(format!("{} {}: {why}", spec.query, spec.label()))
            })
            .collect()
    }

    /// The per-layer metrics of a traced run: medians over the traced
    /// repetitions, the set-up parts, the probes, and the tracing
    /// overhead.
    fn traced_layers(
        &self,
        layered: &[BTreeMap<String, f64>],
        overhead: f64,
    ) -> BTreeMap<String, f64> {
        let mut layers = self.setup_layers();
        for name in per_layer_names() {
            let v: Vec<f64> = layered
                .iter()
                .filter_map(|m| m.get(&name).copied())
                .collect();
            if !v.is_empty() {
                layers.insert(name, median(&v));
            }
        }
        layers.extend(crate::probes::run_all(
            &self.tracer,
            self.tracer.new_run(),
            &sncb::fleet_schema(),
            &self.fleet.records,
            &self.fleet.registry(),
        ));
        layers.insert("tracing.overhead_ratio".into(), overhead);
        layers
    }

    /// `sncb.generate_ms`, `env.build_ms` and `analysis.analyze_us`:
    /// medians over the set-up rounds.
    fn setup_layers(&self) -> BTreeMap<String, f64> {
        let m =
            |f: &dyn Fn(&SetupTimes) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        BTreeMap::from([
            ("sncb.generate_ms".into(), m(&|s| s.generate_s) * 1e3),
            ("env.build_ms".into(), m(&|s| s.build_s) * 1e3),
            ("analysis.analyze_us".into(), m(&|s| s.analyze_s) * 1e6),
        ])
    }

    /// Per-layer metrics of one traced repetition.
    fn layer_metrics(&self, outcomes: &[Outcome], spans: &[Span]) -> BTreeMap<String, f64> {
        fn add(m: &mut BTreeMap<String, f64>, k: impl Into<String>, v: f64) {
            *m.entry(k.into()).or_default() += v;
        }
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        let mut lags: Vec<f64> = Vec::new();
        let mut first_delivery: Vec<f64> = Vec::new();
        let mut max_queue = 0u64;
        for o in outcomes {
            let Some((run, run_span)) = &o.traced else {
                continue;
            };
            let children = children_of(spans, *run, run_span.id);
            add(
                &mut m,
                "source.polls",
                count(&children, "source.poll") as f64,
            );
            let source_ms = busy_ms(&children, "source.poll") - o.waited_ms;
            add(&mut m, "source.busy_ms", source_ms);
            add(&mut m, "sink.busy_ms", busy_ms(&children, "sink.consume"));
            add(&mut m, "sink.buffers", o.buffers as f64);
            lags.extend_from_slice(&o.lags_ms);
            first_delivery.push(o.first_delivery_ms);

            let q = o.spec.query;
            let mut op_busy_ms = 0.0;
            for op in o.report.iter().flat_map(|r| &r.operators) {
                let id = op.id().replace(':', "-");
                let busy = op_busy(op);
                op_busy_ms += busy;
                add(&mut m, format!("op.{q}.{id}.busy_ms"), busy);
                if is_stateful(&id) {
                    let e = m.entry(format!("op.{q}.{id}.state_bytes")).or_default();
                    *e = e.max(op.state_bytes as f64);
                }
            }
            let self_ms = self_time_ns(run_span, &children) as f64 / 1e6 - op_busy_ms;
            add(&mut m, "runtime.self_ms", self_ms.max(0.0));

            if o.counts_throughput() {
                add(&mut m, format!("query.{q}.wall_ms"), o.wall_s * 1e3);
                add(&mut m, format!("query.{q}.records_in"), o.records_in as f64);
                m.insert(format!("query.{q}.records_out"), o.digest.count as f64);
            } else if !o.fault_free() {
                add(&mut m, "chaos.records_in", o.records_in as f64);
                add(&mut m, "chaos.wall_s", o.wall_s);
            }
            let Some(c) = &o.cluster else {
                continue;
            };
            if o.counts_throughput() {
                add(&mut m, "cluster.uplink_frames", c.uplink_frames as f64);
                add(&mut m, "cluster.sites", c.sites as f64);
                let depth = c.links.iter().map(|l| l.max_queue_depth).max();
                max_queue = max_queue.max(depth.unwrap_or(0));
                let side = match o.spec.mode {
                    Mode::Placed(PlacementStrategy::CloudOnly) => "cloud",
                    _ => "edge",
                };
                add(
                    &mut m,
                    format!("cluster.{side}_uplink_bytes"),
                    c.uplink_bytes as f64,
                );
                add(
                    &mut m,
                    format!("cluster.{side}_records_in"),
                    o.records_in as f64,
                );
                if side == "edge" {
                    add(&mut m, "preagg.uplink_records", c.uplink_records as f64);
                }
            } else if !o.fault_free() {
                let frames: u64 = c.links.iter().map(|l| l.frames).sum();
                for (k, v) in [
                    ("reliable.retransmits", c.retransmits as f64),
                    (
                        "reliable.duplicates_suppressed",
                        c.duplicates_suppressed as f64,
                    ),
                    ("reliable.corrupt_dropped", c.corrupt_dropped as f64),
                    ("reliable.ack_bytes", c.ack_bytes as f64),
                    ("reliable.envelopes", frames as f64),
                    ("chaos.faults_injected", c.faults_injected as f64),
                    ("checkpoint.taken", c.checkpoints_taken as f64),
                    ("checkpoint.recovery_ms", c.recovery_ms),
                    ("cluster.replans", f64::from(c.replans)),
                ] {
                    add(&mut m, k, v);
                }
            }
        }
        lags.sort_by(f64::total_cmp);
        m.insert("source.lag_p50_ms".into(), percentile_sorted(&lags, 50.0));
        m.insert("source.lag_p99_ms".into(), percentile_sorted(&lags, 99.0));
        m.insert("sink.first_delivery_ms".into(), median(&first_delivery));
        m.insert("cluster.max_queue_depth".into(), max_queue as f64);

        // Ratios of the sums gathered above.
        let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
        let ratio = |a: &str, b: &str, scale: f64| (get(b) > 0.0).then(|| get(a) / get(b) * scale);
        let mut derived: Vec<(String, Option<f64>)> = self
            .workload
            .query_ids()
            .iter()
            .map(|q| {
                let eps = ratio(
                    &format!("query.{q}.records_in"),
                    &format!("query.{q}.wall_ms"),
                    1e3,
                );
                (format!("query.{q}.eps"), eps)
            })
            .collect();
        derived.extend([
            (
                "chaos.throughput_eps".into(),
                ratio("chaos.records_in", "chaos.wall_s", 1.0),
            ),
            (
                "cluster.edge_uplink_bytes_per_event".into(),
                ratio("cluster.edge_uplink_bytes", "cluster.edge_records_in", 1.0),
            ),
            (
                "cluster.cloud_uplink_bytes_per_event".into(),
                ratio(
                    "cluster.cloud_uplink_bytes",
                    "cluster.cloud_records_in",
                    1.0,
                ),
            ),
        ]);
        let envelopes = get("reliable.envelopes");
        if envelopes > 0.0 {
            let useful = envelopes / (envelopes + get("reliable.retransmits"));
            derived.push(("reliable.useful_ratio".into(), Some(useful)));
        }
        m.extend(derived.into_iter().filter_map(|(k, v)| Some((k, v?))));
        m
    }
}

/// The spans a traced run's `query.run` span caused.
fn children_of(spans: &[Span], run: u32, parent: SpanId) -> Vec<&Span> {
    spans
        .iter()
        .filter(|s| s.run == run && s.parent == Some(parent))
        .collect()
}

fn count(spans: &[&Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

fn busy_ms(spans: &[&Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum::<u64>() as f64
        / 1e6
}

/// An operator's busy time from its report: mean service time × calls,
/// ms.
fn op_busy(op: &OperatorReport) -> f64 {
    op.service_us.mean().unwrap_or(0.0) * op.calls as f64 / 1e3
}

/// Window and CEP operators hold state across buffers.
fn is_stateful(op_id: &str) -> bool {
    op_id.ends_with("window") || op_id.ends_with("cep")
}

/// Folds one repetition, which peaked at `peak_rss_mb`, into its
/// end-to-end figures.
fn summarize(outcomes: &[Outcome], peak_rss_mb: f64) -> RepSummary {
    let eps = |f: &dyn Fn(&Outcome) -> bool| {
        let (n, s) = outcomes
            .iter()
            .filter(|o| f(o))
            .fold((0u64, 0f64), |(n, s), o| (n + o.records_in, s + o.wall_s));
        (s > 0.0).then(|| n as f64 / s)
    };
    let mut lat: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.spec.paced)
        .flat_map(|o| o.latencies_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    lat.sort_by(f64::total_cmp);
    let uplink = |s: PlacementStrategy| {
        let (b, n) = outcomes
            .iter()
            .filter(|o| o.counts_throughput() && o.spec.mode == Mode::Placed(s))
            .filter_map(|o| o.cluster.as_ref().map(|c| (c.uplink_bytes, o.records_in)))
            .fold((0u64, 0u64), |(b, n), (cb, cn)| (b + cb, n + cn));
        (n > 0).then(|| b as f64 / n as f64)
    };
    RepSummary {
        throughput_eps: eps(&|o| o.counts_throughput()).unwrap_or(0.0),
        latency_p50_ms: percentile_sorted(&lat, 50.0),
        latency_p99_ms: percentile_sorted(&lat, 99.0),
        latency_p999_ms: percentile_sorted(&lat, 99.9),
        latency_max_ms: lat.last().copied().unwrap_or(0.0),
        latency_samples: lat.len() as f64,
        peak_rss_mb,
        faulted_throughput_eps: eps(&|o| !o.fault_free()),
        edge_uplink_bpe: uplink(PlacementStrategy::EdgeFirst),
        cloud_uplink_bpe: uplink(PlacementStrategy::CloudOnly),
    }
}

/// Per query run of a traced repetition: wall time split into schedule
/// wait, source, sink, operators and the rest. On `run` the rest is
/// runtime self time; on the threaded executors the parts overlap and
/// the rest can be negative.
fn breakdown(outcomes: &[Outcome], spans: &[Span]) -> Vec<Json> {
    outcomes
        .iter()
        .filter_map(|o| {
            let (run, span) = o.traced.as_ref()?;
            let children = children_of(spans, *run, span.id);
            let ops_ms: f64 = o
                .report
                .iter()
                .flat_map(|r| &r.operators)
                .map(op_busy)
                .sum();
            let wall_ms = span.dur_ns() as f64 / 1e6;
            let source_ms = busy_ms(&children, "source.poll") - o.waited_ms;
            let sink_ms = busy_ms(&children, "sink.consume");
            Some(json!({
                "query": o.spec.query,
                "mode": o.spec.label(),
                "wall_ms": wall_ms,
                "source_busy_ms": source_ms,
                "source_wait_ms": o.waited_ms,
                "sink_busy_ms": sink_ms,
                "operators_busy_ms": ops_ms,
                "rest_ms": wall_ms - o.waited_ms - source_ms - sink_ms - ops_ms,
                "accounted_within_wall": o.waited_ms + source_ms + sink_ms + ops_ms <= wall_ms,
                "records_in": o.records_in,
                "records_out": o.digest.count,
                "first_delivery_ms": o.first_delivery_ms,
            }))
        })
        .collect()
}

/// Operator ids of each query's plan, as `op<index>-<name>`.
fn operator_ids() -> Vec<(&'static str, Vec<String>)> {
    let net = sncb::RailNetwork::belgium();
    let mut registry = nebulameos::meos_registry();
    registry
        .load_plugin(&nebulameos::DemoContext::new(sncb::demo_zones(&net)))
        .expect("demo context loads");
    queries()
        .into_iter()
        .map(|(id, q)| {
            let plan = nebula::query::compile(&q, sncb::fleet_schema(), &registry)
                .unwrap_or_else(|e| panic!("{id} compiles: {e}"));
            let ops = plan
                .operators
                .iter()
                .enumerate()
                .map(|(i, op)| format!("op{i}-{}", op.name()))
                .collect();
            (id, ops)
        })
        .collect()
}

/// Every per-layer metric name, in the order `BENCHMARK.json` lists them.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "sncb.generate_ms",
        "env.build_ms",
        "analysis.analyze_us",
        "source.polls",
        "source.busy_ms",
        "source.lag_p50_ms",
        "source.lag_p99_ms",
        "buffer.transpose_ns_per_record",
    ]
    .map(String::from)
    .into();
    names.extend(
        crate::probes::FUNCTIONS
            .iter()
            .map(|(f, _)| format!("expr.{f}.ns_per_call")),
    );
    for (q, ops) in operator_ids() {
        for k in ["wall_ms", "eps", "records_out"] {
            names.push(format!("query.{q}.{k}"));
        }
        for op in &ops {
            names.push(format!("op.{q}.{op}.busy_ms"));
        }
        for op in ops.iter().filter(|o| is_stateful(o)) {
            names.push(format!("op.{q}.{op}.state_bytes"));
        }
    }
    names.extend(
        [
            "runtime.self_ms",
            "sink.buffers",
            "sink.busy_ms",
            "sink.first_delivery_ms",
            "wire.encode_ns_per_record",
            "wire.decode_ns_per_record",
            "wire.bytes_per_record",
            "cluster.uplink_frames",
            "cluster.max_queue_depth",
            "cluster.sites",
            "cluster.edge_uplink_bytes_per_event",
            "cluster.cloud_uplink_bytes_per_event",
            "preagg.uplink_records",
            "reliable.retransmits",
            "reliable.duplicates_suppressed",
            "reliable.corrupt_dropped",
            "reliable.ack_bytes",
            "reliable.useful_ratio",
            "chaos.faults_injected",
            "chaos.throughput_eps",
            "checkpoint.taken",
            "checkpoint.recovery_ms",
            "cluster.replans",
            "tracing.overhead_ratio",
        ]
        .map(String::from),
    );
    names
}

/// The unit of a per-layer metric, from its name.
pub fn layer_unit(name: &str) -> &'static str {
    let suffixes: [(&str, &str); 12] = [
        ("_ns_per_record", "ns"),
        (".ns_per_call", "ns"),
        ("_bytes_per_event", "B/event"),
        ("bytes_per_record", "B/record"),
        ("_ms", "ms"),
        ("_us", "us"),
        ("_eps", "events/s"),
        (".eps", "events/s"),
        ("_ratio", "ratio"),
        ("_bytes", "B"),
        ("state_bytes", "B"),
        ("depth", "frames"),
    ];
    suffixes
        .iter()
        .find(|(s, _)| name.ends_with(s))
        .map_or("count", |(_, u)| u)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set. Returns whether the kernel accepted the reset; if not,
/// [`peak_rss_mb`] keeps counting from process start.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric listed under `key` in the
    /// repository's `BENCHMARK.json` (one metric object per line).
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let field = |line: &str, f: &str| -> String {
            let at = line.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
            line[at..].split('"').next().unwrap_or_default().to_string()
        };
        text.lines()
            .skip_while(|l| !l.contains(&format!("\"{key}\": [")))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_benchmark_emits() {
        let own = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(END_TO_END.to_vec()));
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|n| {
                let u = layer_unit(&n).to_string();
                (n, u)
            })
            .collect();
        assert_eq!(declared("per_layer"), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn metric_names_fit_the_naming_rules() {
        for n in per_layer_names()
            .iter()
            .map(String::as_str)
            .chain(END_TO_END.map(|(n, _)| n))
        {
            assert!(n.len() <= 64, "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
