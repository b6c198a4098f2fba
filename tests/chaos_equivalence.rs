//! Chaos-equivalence suite: every query shape the engine supports is
//! run through `ClusterEnvironment::run_placed_chaos` on the
//! `train_fleet` topology while a seeded [`FaultPlan`] mangles every
//! link — dropping, duplicating, reordering and bit-corrupting frames,
//! flapping links, and abruptly killing a non-source node mid-run — and
//! must still produce order-normalized results, counters and late-drop
//! totals identical to the single-threaded `StreamEnvironment::run`
//! reference. The resilient wire protocol (CRC32 envelopes, sequence
//! numbers, ack/retransmit) plus barrier checkpointing with source
//! replay are only correct if all of that is observationally invisible.

use nebula::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("train", DataType::Int),
        ("speed", DataType::Float),
        ("load", DataType::Int),
    ])
}

/// The same deterministic 600-record stream as `cluster_equivalence`.
fn records() -> Vec<Record> {
    (0..600)
        .map(|i| {
            Record::new(vec![
                Value::Timestamp(i * MICROS_PER_SEC),
                Value::Int(i % 5),
                Value::Float(((i * 7) % 80) as f64),
                Value::Int((i * 13) % 200),
            ])
        })
        .collect()
}

fn source() -> Box<dyn Source> {
    Box::new(VecSource::new(schema(), records()))
}

fn generous_watermark() -> WatermarkStrategy {
    WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: 60 * MICROS_PER_SEC,
    }
}

/// The synchronous single-process reference.
fn sync_reference(query: &Query, watermark: WatermarkStrategy) -> (Vec<Record>, QueryMetrics) {
    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 32,
        watermark_every: 2,
        ..EnvConfig::default()
    });
    env.add_source("s", source(), watermark);
    let (mut sink, got) = CollectingSink::new();
    let metrics = env.run(query, &mut sink).expect("sync run");
    let mut recs = got.records();
    normalize_records(&mut recs);
    (recs, metrics)
}

fn fleet_env(watermark: WatermarkStrategy) -> (ClusterEnvironment, NodeId) {
    let (topo, sensors) = Topology::train_fleet(3);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..ClusterConfig::default()
        },
    );
    env.add_source("s", sensors[0], source(), watermark);
    (env, sensors[0])
}

/// The edge node of train 0 — the non-source box chaos runs kill.
fn edge_node(env: &ClusterEnvironment, sensor: NodeId) -> NodeId {
    env.topology()
        .first_ancestor_of_kind(sensor, NodeKind::Edge)
        .expect("edge exists")
}

/// Seeds for the per-query equivalence sweep. `NEBULA_CHAOS_SEED`
/// overrides them so CI can soak the suite across distinct fault
/// schedules without a code change.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("NEBULA_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("NEBULA_CHAOS_SEED must be a u64")],
        Err(_) => vec![3, 41],
    }
}

/// The headline fault schedule from the issue: ≥5% drops, ≥2%
/// duplicates, plus corruption and reordering, seeded for determinism.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .drop_frames(0.08)
        .duplicate_frames(0.04)
        .reorder_frames(0.03)
        .corrupt_frames(0.03)
}

fn chaos_run(
    query: &Query,
    strategy: PlacementStrategy,
    watermark: WatermarkStrategy,
    plan: &FaultPlan,
) -> (Vec<Record>, ClusterReport) {
    let (mut env, _) = fleet_env(watermark);
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed_chaos(query, strategy, plan, &mut sink)
        .unwrap_or_else(|e| panic!("{strategy:?} chaos run (seed {}) failed: {e}", plan.seed));
    let mut recs = got.records();
    normalize_records(&mut recs);
    (recs, report)
}

/// Both strategies, seeded lossy links, and (EdgeFirst) an abrupt
/// mid-run kill of the edge box: all must match the sync reference,
/// including the late-drop total.
fn assert_chaos_equivalent(name: &str, query: &Query, watermark: &WatermarkStrategy) {
    let (reference, ref_metrics) = sync_reference(query, watermark.clone());
    for seed in chaos_seeds() {
        for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
            let mut plan = lossy_plan(seed);
            if strategy == PlacementStrategy::EdgeFirst {
                // Kill the edge box mid-stream; recovery replays from
                // the last checkpoint (or from scratch) and must be
                // invisible in the output.
                let (env, sensor) = fleet_env(watermark.clone());
                plan = plan.crash_node(edge_node(&env, sensor), 12);
            }
            let (got, report) = chaos_run(query, strategy, watermark.clone(), &plan);
            assert_eq!(
                got, reference,
                "{name}: {strategy:?}/seed {seed} diverges from sync reference under chaos"
            );
            assert_eq!(
                report.metrics.records_in, ref_metrics.records_in,
                "{name}: {strategy:?}/seed {seed} records_in"
            );
            assert_eq!(
                report.metrics.records_out, ref_metrics.records_out,
                "{name}: {strategy:?}/seed {seed} records_out"
            );
            assert_eq!(
                report.metrics.late_drops, ref_metrics.late_drops,
                "{name}: {strategy:?}/seed {seed} late_drops"
            );
            assert!(
                report.cluster.faults_injected > 0,
                "{name}: {strategy:?}/seed {seed}: the plan injected nothing"
            );
            if plan.crash.is_some() {
                assert_eq!(
                    report.cluster.replans, 1,
                    "{name}: seed {seed}: crash must force one re-planning round"
                );
                assert!(
                    report.cluster.recovery_ms > 0.0,
                    "{name}: seed {seed}: recovery must be timed"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Q1-Q8: the engine's query shapes under seeded chaos
// ---------------------------------------------------------------------------

#[test]
fn q1_filter_chaos_equivalence() {
    let q = Query::from("s").filter(col("speed").ge(lit(40.0)));
    assert_chaos_equivalent("q1/filter", &q, &WatermarkStrategy::None);
}

#[test]
fn q2_map_chaos_equivalence() {
    let q = Query::from("s").map(vec![
        ("train", col("train")),
        ("kmh", col("speed").mul(lit(3.6))),
    ]);
    assert_chaos_equivalent("q2/map", &q, &WatermarkStrategy::None);
}

#[test]
fn q3_filter_map_extend_chaos_equivalence() {
    let q = Query::from("s")
        .filter(col("load").gt(lit(50)))
        .map_extend(vec![("over", col("speed").sub(lit(40.0)))]);
    assert_chaos_equivalent("q3/map_extend", &q, &WatermarkStrategy::None);
}

fn splittable_window_query() -> Query {
    Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("sum_load", AggSpec::Sum(col("load"))),
            WindowAgg::new("min_speed", AggSpec::Min(col("speed"))),
            WindowAgg::new("max_speed", AggSpec::Max(col("speed"))),
        ],
    )
}

#[test]
fn q4_splittable_window_chaos_equivalence() {
    assert_chaos_equivalent(
        "q4/splittable",
        &splittable_window_query(),
        &generous_watermark(),
    );
}

#[test]
fn q5_sliding_window_chaos_equivalence() {
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Sliding {
            size: 60 * MICROS_PER_SEC,
            slide: 20 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    assert_chaos_equivalent("q5/sliding", &q, &generous_watermark());
}

#[test]
fn q6_keyless_window_chaos_equivalence() {
    let q = Query::from("s").window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    assert_chaos_equivalent("q6/keyless", &q, &generous_watermark());
}

#[test]
fn q7_threshold_window_chaos_equivalence() {
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Threshold {
            predicate: col("speed").gt(lit(56.0)),
            min_count: 2,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("peak", AggSpec::Max(col("speed"))),
        ],
    );
    assert_chaos_equivalent("q7/threshold", &q, &WatermarkStrategy::None);
}

#[test]
fn q8_cep_chaos_equivalence() {
    let pattern = Pattern::new(
        "speed-drop",
        vec![
            PatternStep::new("fast", col("speed").gt(lit(60.0))),
            PatternStep::new("slow", col("speed").lt(lit(10.0))),
        ],
        120 * MICROS_PER_SEC,
    )
    .keyed_by(col("train"));
    assert_chaos_equivalent(
        "q8/cep",
        &Query::from("s").cep(pattern),
        &WatermarkStrategy::None,
    );
}

// ---------------------------------------------------------------------------
// Headline invariants, fallback paths, and plan validation
// ---------------------------------------------------------------------------

/// The issue's acceptance run: lossy links plus an abrupt mid-run kill
/// of the edge box. The output is identical to the clean reference and
/// the fault-tolerance machinery demonstrably engaged.
#[test]
fn chaos_headline_counters_engage() {
    let q = splittable_window_query();
    let (reference, _) = sync_reference(&q, generous_watermark());
    let (env, sensor) = fleet_env(generous_watermark());
    let plan = lossy_plan(7).crash_node(edge_node(&env, sensor), 12);
    drop(env);
    let (got, report) = chaos_run(
        &q,
        PlacementStrategy::EdgeFirst,
        generous_watermark(),
        &plan,
    );
    assert_eq!(got, reference, "headline chaos run diverges");
    let c = &report.cluster;
    assert!(c.faults_injected > 0, "faults: {c:?}");
    assert!(c.retransmits > 0, "drops must force retransmits: {c:?}");
    assert!(c.corrupt_dropped > 0, "CRC must catch corruption: {c:?}");
    assert!(
        c.duplicates_suppressed > 0,
        "dup injection must be suppressed: {c:?}"
    );
    assert!(c.checkpoints_taken > 0, "checkpoints must seal: {c:?}");
    assert_eq!(c.replans, 1, "the kill must re-plan once");
    assert!(c.recovery_ms > 0.0, "recovery must be timed");
    assert!(
        !report
            .placements
            .iter()
            .any(|pl| pl.stages.contains(&plan.crash.expect("set").node)),
        "no stage may remain on the killed node"
    );
}

/// Link flaps and added latency stall frames without losing them.
#[test]
fn flapping_lagging_links_chaos_equivalence() {
    let q = splittable_window_query();
    let (reference, ref_metrics) = sync_reference(&q, generous_watermark());
    let plan = FaultPlan::seeded(11)
        .drop_frames(0.05)
        .duplicate_frames(0.02)
        .flap_links(16, 3)
        .add_latency(Duration::from_micros(200));
    let (got, report) = chaos_run(
        &q,
        PlacementStrategy::EdgeFirst,
        generous_watermark(),
        &plan,
    );
    assert_eq!(got, reference, "flapping links diverge");
    assert_eq!(report.metrics.records_out, ref_metrics.records_out);
}

/// A chain containing an unsnapshotable plugin operator cannot seal a
/// usable checkpoint: the crash must fall back to a full from-scratch
/// replay and still match.
#[test]
fn plugin_chain_crash_recovers_from_scratch() {
    struct DuplicateHighSpeed;
    impl OperatorFactory for DuplicateHighSpeed {
        fn name(&self) -> &str {
            "duplicate_high_speed"
        }
        fn create(
            &self,
            input: SchemaRef,
            _registry: &FunctionRegistry,
        ) -> Result<Box<dyn Operator>> {
            let speed_col = input
                .index_of("speed")
                .ok_or_else(|| NebulaError::Plan("needs 'speed'".into()))?;
            Ok(Box::new(FlatMapOp::new(
                "duplicate_high_speed",
                input,
                move |rec, out| {
                    out.push(rec.clone());
                    if rec
                        .get(speed_col)
                        .and_then(Value::as_float)
                        .is_some_and(|s| s > 70.0)
                    {
                        out.push(rec.clone());
                    }
                    Ok(())
                },
            )))
        }
    }

    let q = Query::from("s").apply(Arc::new(DuplicateHighSpeed));
    let (reference, ref_metrics) = sync_reference(&q, WatermarkStrategy::None);
    let (env, sensor) = fleet_env(WatermarkStrategy::None);
    let plan = lossy_plan(19).crash_node(edge_node(&env, sensor), 12);
    drop(env);
    let (got, report) = chaos_run(
        &q,
        PlacementStrategy::EdgeFirst,
        WatermarkStrategy::None,
        &plan,
    );
    assert_eq!(got, reference, "from-scratch replay diverges");
    assert_eq!(report.metrics.records_in, ref_metrics.records_in);
    assert_eq!(report.metrics.records_out, ref_metrics.records_out);
    assert_eq!(report.cluster.replans, 1);
}

/// Multi-source chaos: three trains each pumping their own slice while
/// one train's edge box dies mid-run. Recovery rewinds every pipeline
/// to a consistent cut.
#[test]
fn multi_source_chaos_crash_equivalence() {
    let q = splittable_window_query();
    let (reference, ref_metrics) = sync_reference(&q, generous_watermark());

    let (topo, sensors) = Topology::train_fleet(3);
    let failed = topo
        .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
        .expect("edge exists");
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..ClusterConfig::default()
        },
    );
    for (t, sensor) in sensors.iter().enumerate() {
        let slice: Vec<Record> = records()
            .into_iter()
            .filter(|r| (r.get(1).unwrap().as_int().unwrap() as usize) % sensors.len() == t)
            .collect();
        env.add_source(
            "s",
            *sensor,
            Box::new(VecSource::new(schema(), slice)),
            generous_watermark(),
        );
    }
    let plan = lossy_plan(5).crash_node(failed, 8);
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed_chaos(&q, PlacementStrategy::EdgeFirst, &plan, &mut sink)
        .expect("multi-source chaos run");
    let mut recs = got.records();
    normalize_records(&mut recs);
    assert_eq!(recs, reference, "multi-source crash diverges");
    assert_eq!(report.metrics.records_in, ref_metrics.records_in);
    assert_eq!(report.metrics.records_out, ref_metrics.records_out);
    assert_eq!(report.cluster.replans, 1);
    for pl in &report.placements {
        assert!(!pl.stages.contains(&failed), "stage still on failed node");
    }
}

/// A crash-only plan injects exactly one fault — the crash — and the
/// counters say so: no link faults, so nothing to retransmit.
#[test]
fn crash_only_plan_counts_the_crash() {
    let q = splittable_window_query();
    let (reference, _) = sync_reference(&q, generous_watermark());
    let (env, sensor) = fleet_env(generous_watermark());
    let plan = FaultPlan::seeded(1).crash_node(edge_node(&env, sensor), 3);
    drop(env);
    let (got, report) = chaos_run(
        &q,
        PlacementStrategy::EdgeFirst,
        generous_watermark(),
        &plan,
    );
    assert_eq!(got, reference, "crash-only run diverges");
    let c = &report.cluster;
    assert_eq!(c.crashes, 1, "{c:?}");
    assert_eq!(c.faults_injected, 1, "the crash is the only fault: {c:?}");
    assert_eq!(c.replans, 1, "{c:?}");
    assert_eq!(c.retransmits, 0, "clean links retransmit nothing: {c:?}");
}

/// Ineligible fault plans fail fast with every offending node named,
/// and leave the hosted sources registered for a corrected retry.
#[test]
fn ineligible_fault_plans_are_rejected_up_front() {
    let q = Query::from("s").filter(col("speed").ge(lit(0.0)));
    let (mut env, sensor) = fleet_env(WatermarkStrategy::None);
    let cloud = env.topology().cloud().expect("cloud exists");

    for (plan, needle) in [
        (FaultPlan::seeded(1).crash_node(cloud, 5), "cloud"),
        (FaultPlan::seeded(1).crash_node(sensor, 5), "source"),
        (
            FaultPlan::seeded(1).crash_node(NodeId(9999), 5),
            "does not exist",
        ),
    ] {
        let (mut sink, _) = CollectingSink::new();
        let err = env
            .run_placed_chaos(&q, PlacementStrategy::EdgeFirst, &plan, &mut sink)
            .expect_err("ineligible plan must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "error must name the offence ({needle}): {msg}"
        );
    }

    // The rejections were pre-flight: the source is still hosted.
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed_chaos(&q, PlacementStrategy::EdgeFirst, &lossy_plan(1), &mut sink)
        .expect("valid plan after rejections");
    assert_eq!(report.metrics.records_in, 600);
    assert_eq!(got.len(), 600);
}

/// Chaos metrics stay zero on the clean path (no plan, no envelopes):
/// the resilient protocol is strictly opt-in, so legacy byte accounting
/// is untouched.
#[test]
fn clean_runs_report_no_chaos_metrics() {
    let q = splittable_window_query();
    let (mut env, _) = fleet_env(generous_watermark());
    let (mut sink, _) = CollectingSink::new();
    let report = env
        .run_placed(&q, PlacementStrategy::EdgeFirst, &mut sink)
        .expect("clean run");
    let c = &report.cluster;
    assert_eq!(c.retransmits, 0);
    assert_eq!(c.corrupt_dropped, 0);
    assert_eq!(c.duplicates_suppressed, 0);
    assert_eq!(c.checkpoints_taken, 0);
    assert_eq!(c.faults_injected, 0);
    assert_eq!(c.crashes, 0);
    assert_eq!(c.recovery_ms, 0.0);
}
