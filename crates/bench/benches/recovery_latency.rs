//! Crash-recovery benchmark for the chaos-hardened cluster runtime:
//! wall-clock cost of a placed run under seeded faults, with and
//! without an abrupt mid-run edge-node kill, next to the clean-run
//! reference — plus a post-bench sweep writing `BENCH_7.json` at the
//! workspace root: `recovery_ms` versus checkpoint interval, and the
//! measured ack/heartbeat share of the cellular uplink (the resilience
//! tax, which must stay under 5%).
//!
//! ```text
//! cargo bench -p nebulameos-bench --bench recovery_latency
//! ```
//!
//! Set `NEBULA_BENCH_QUICK=1` (CI) for a reduced sweep.

use criterion::{criterion_group, Criterion};
use nebula::prelude::*;
use nebulameos_bench::{keyed_window_query, Workload};

/// Crash the edge box after it has handled this many frames — late
/// enough that checkpoints exist at every swept interval, early enough
/// that meaningful work remains to replay.
const CRASH_AFTER_FRAMES: u64 = 12;

/// A cluster environment tuned for chaos runs: small batches so the
/// run has enough of them to checkpoint, crash and recover within.
fn chaos_env(workload: &Workload, checkpoint_every: u64) -> (ClusterEnvironment, NodeId) {
    let mut env = workload.cluster_environment();
    let cfg = env.config_mut();
    cfg.buffer_size = 64;
    cfg.watermark_every = 2;
    cfg.checkpoint_every = checkpoint_every;
    let edge = env
        .topology()
        .nodes()
        .iter()
        .find(|n| n.kind == NodeKind::Edge)
        .map(|n| n.id)
        .expect("fleet topology has an edge node");
    (env, edge)
}

/// The headline fault schedule: the issue's ≥5% drops and ≥2%
/// duplicates, seeded for determinism.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .drop_frames(0.05)
        .duplicate_frames(0.02)
}

fn chaos_run(workload: &Workload, checkpoint_every: u64, plan: &FaultPlan) -> ClusterReport {
    let (mut env, _) = chaos_env(workload, checkpoint_every);
    let (mut sink, _) = CountingSink::new();
    env.run_placed_chaos(
        &keyed_window_query(),
        PlacementStrategy::EdgeFirst,
        plan,
        &mut sink,
    )
    .expect("chaos run completes")
}

fn bench_recovery_latency(c: &mut Criterion) {
    let workload = Workload::small();
    let query = keyed_window_query();

    let mut group = c.benchmark_group("recovery_latency");
    group.sample_size(10);

    // The clean reference: same placed plan, plain channels.
    group.bench_function("clean_run_placed", |b| {
        b.iter(|| {
            let (mut env, _) = chaos_env(&workload, 4);
            let (mut sink, _) = CountingSink::new();
            env.run_placed(&query, PlacementStrategy::EdgeFirst, &mut sink)
                .expect("clean run")
                .metrics
                .records_out
        })
    });

    // Lossy links, no crash: the cost of CRC + acks + retransmission.
    group.bench_function("chaos_lossy_links", |b| {
        b.iter(|| {
            let report = chaos_run(&workload, 4, &lossy_plan(11));
            assert_eq!(report.cluster.replans, 0);
            report.cluster.retransmits
        })
    });

    // Lossy links plus an abrupt edge kill mid-run: detection,
    // re-planning, checkpoint restore and source replay included.
    group.bench_function("chaos_crash_recover", |b| {
        b.iter(|| {
            let (env, _) = chaos_env(&workload, 4);
            let edge = env
                .topology()
                .nodes()
                .iter()
                .find(|n| n.kind == NodeKind::Edge)
                .map(|n| n.id)
                .unwrap();
            drop(env);
            let plan = lossy_plan(11).crash_node(edge, CRASH_AFTER_FRAMES);
            let report = chaos_run(&workload, 4, &plan);
            assert_eq!(report.cluster.replans, 1, "crash must trigger one re-plan");
            report.cluster.recovery_ms
        })
    });

    group.finish();
}

/// The machine-readable companion: recovery latency as a function of
/// the checkpoint interval, and the resilience tax on the uplink.
fn write_bench7() {
    let quick = std::env::var_os("NEBULA_BENCH_QUICK").is_some();
    let workload = Workload::small();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Sweep: shorter intervals checkpoint more often, so less work
    // replays after the crash and recovery_ms shrinks.
    let intervals: &[u64] = if quick { &[2, 8] } else { &[1, 2, 4, 8, 16] };
    let mut sweep = Vec::new();
    for &every in intervals {
        let (env, edge) = chaos_env(&workload, every);
        drop(env);
        let plan = lossy_plan(11).crash_node(edge, CRASH_AFTER_FRAMES);
        let started = std::time::Instant::now();
        let report = chaos_run(&workload, every, &plan);
        let run_ms = started.elapsed().as_secs_f64() * 1e3;
        let m = &report.cluster;
        assert_eq!(m.replans, 1, "crash at interval {every} must re-plan once");
        assert!(m.recovery_ms > 0.0, "crash must record a recovery latency");
        sweep.push(serde_json::json!({
            "checkpoint_every": every,
            "recovery_ms": m.recovery_ms,
            "run_ms": run_ms,
            "checkpoints_taken": m.checkpoints_taken,
            "retransmits": m.retransmits,
            "duplicates_suppressed": m.duplicates_suppressed,
            "records_out": report.metrics.records_out,
        }));
        eprintln!(
            "checkpoint_every={every}: recovery {:.3} ms, run {run_ms:.1} ms, \
             {} checkpoints, {} retransmits",
            m.recovery_ms, m.checkpoints_taken, m.retransmits
        );
    }

    // Resilience tax: a fault-free plan still runs the full resilient
    // protocol (envelopes, acks, heartbeats). Two views of what the
    // reverse-channel traffic costs:
    //  - CloudOnly ships every record over the uplink, so ack/heartbeat
    //    bytes versus uplink payload is a direct uplink-overhead ratio
    //    (conservative: ack_bytes also counts the sensor→edge hop);
    //  - EdgeFirst pre-aggregates the uplink down to partials, so the
    //    fair denominator is total forward wire traffic across links.
    let overhead_of = |strategy: PlacementStrategy| {
        let (mut env, _) = chaos_env(&workload, 4);
        let (mut sink, _) = CountingSink::new();
        let report = env
            .run_placed_chaos(
                &keyed_window_query(),
                strategy,
                &FaultPlan::seeded(11),
                &mut sink,
            )
            .expect("fault-free resilient run");
        let m = report.cluster;
        let forward: u64 = m.links.iter().map(|l| l.bytes).sum();
        let reverse = m.ack_bytes + m.heartbeats * ENVELOPE_OVERHEAD as u64;
        (m, forward, reverse)
    };
    let (cloud, _, cloud_rev) = overhead_of(PlacementStrategy::CloudOnly);
    let cloud_ratio = cloud_rev as f64 / cloud.uplink_bytes.max(1) as f64;
    let (edge, edge_fwd, edge_rev) = overhead_of(PlacementStrategy::EdgeFirst);
    let edge_ratio = edge_rev as f64 / edge_fwd.max(1) as f64;
    assert!(
        cloud_ratio < 0.05 && edge_ratio < 0.05,
        "ack/heartbeat overhead must stay under 5%: uplink {:.2}%, wire {:.2}%",
        cloud_ratio * 100.0,
        edge_ratio * 100.0
    );
    eprintln!(
        "overhead: CloudOnly {} B reverse / {} B uplink = {:.3}%; \
         EdgeFirst {} B reverse / {} B forward = {:.3}%",
        cloud_rev,
        cloud.uplink_bytes,
        cloud_ratio * 100.0,
        edge_rev,
        edge_fwd,
        edge_ratio * 100.0
    );

    let json = serde_json::json!({
        "issue": 7,
        "hardware": { "cores": cores },
        "workload_events": workload.records.len(),
        "query": "keyed_window_query",
        "fault_schedule": {
            "drop_frames": 0.05,
            "duplicate_frames": 0.02,
            "crash_node": "first edge node",
            "crash_after_frames": CRASH_AFTER_FRAMES,
            "seed": 11,
        },
        "recovery_vs_checkpoint_interval": sweep,
        "uplink_overhead": {
            "cloud_only": {
                "uplink_bytes": cloud.uplink_bytes,
                "ack_bytes": cloud.ack_bytes,
                "heartbeats": cloud.heartbeats,
                "overhead_ratio": cloud_ratio,
            },
            "edge_first": {
                "forward_wire_bytes": edge_fwd,
                "uplink_bytes": edge.uplink_bytes,
                "ack_bytes": edge.ack_bytes,
                "heartbeats": edge.heartbeats,
                "overhead_ratio": edge_ratio,
            },
            "under_5_percent": cloud_ratio < 0.05 && edge_ratio < 0.05,
        },
        "note": "recovery_ms spans dead-node detection through checkpoint restore and \
                 source rewind; run_ms is the whole placed run including the replayed \
                 batches, so longer checkpoint intervals pay more replay. Overhead \
                 ratios count reverse-channel ack/nack bytes plus heartbeat envelopes \
                 from a fault-free resilient run against the payload uplink \
                 (CloudOnly, which ships every record over it) and against total \
                 forward wire traffic (EdgeFirst, whose pre-aggregated uplink is \
                 deliberately tiny).",
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
    std::fs::write(path, serde_json::to_string_pretty(&json).unwrap()).expect("write BENCH_7.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, bench_recovery_latency);

fn main() {
    benches();
    // `--test` is cargo's smoke-run of bench targets; keep it fast.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    write_bench7();
}
