//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay-local|replay-parallel|edge-cloud|live-edge|all> \
//!     --seed <n> --seconds <n> --trace <0|1> [--fault-seed <n>]
//! ```
//!
//! Each workload sets up (fleet generation, environment construction,
//! pre-flight analysis) five times, runs its queries repeatedly for the
//! given seconds, checks every run's output against the single-threaded
//! `StreamEnvironment::run` reference, and prints a report followed, as
//! the last line, by one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. The full record —
//! run metadata, diagnostics, the per-query breakdown and, when traced,
//! every span — goes to `.bench_out/<workload>-seed<n>-trace<t>.json`.
//! The command exits non-zero when any run failed or mismatched.

mod fleet;
mod live;
mod probes;
mod stats;
mod trace;
mod workloads;

use serde_json::{json, Value as Json};
use std::process::ExitCode;
use workloads::{Bench, Settings, Workload, WorkloadResult, LIVE_RATE_EPS};

struct Args {
    workloads: Vec<Workload>,
    settings: Settings,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut fault_seed) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            "--fault-seed" => fault_seed = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match workload.as_str() {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?],
    };
    let seed = seed.ok_or("--seed is required")?;
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workloads,
        settings: Settings {
            seed,
            fault_seed: fault_seed.unwrap_or(seed),
            seconds,
            trace,
            parallelism: nproc(),
        },
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn metadata(w: Workload, s: &Settings, events: usize) -> Json {
    let env = nebula::prelude::EnvConfig::default();
    json!({
        "workload": w.name(),
        "seed": s.seed,
        "fault_seed": s.fault_seed,
        "seconds": s.seconds,
        "trace": s.trace,
        "nproc": nproc(),
        "git_revision": git_revision(),
        "buffer_size": env.buffer_size,
        "parallelism": s.parallelism,
        "live_rate_eps": LIVE_RATE_EPS,
        "events_per_query_run": events,
        "demo_hours": w.hours(),
        "telemetry_enabled": env.telemetry.enabled,
    })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })
    .to_string()
}

fn metrics_json(r: &WorkloadResult, prefix: &str) -> serde_json::Map<String, Json> {
    r.metrics
        .iter()
        .map(|(n, v, u)| (format!("{prefix}{n}"), json!({"value": v, "unit": u})))
        .collect()
}

fn report(w: Workload, r: &WorkloadResult) {
    println!("== {} ==", w.name());
    for (n, v, u) in &r.metrics {
        println!("  {n:<44} {v:>16.4} {u}");
    }
    for (n, v, u) in &r.reported {
        println!("  {n:<44} {v:>16.4} {u} (not gated)");
    }
    let d = r.detail.get("diagnostics").and_then(Json::as_object);
    for (k, v) in d.into_iter().flatten() {
        match v.as_array() {
            Some(failures) if k == "failures" => failures
                .iter()
                .for_each(|f| println!("  FAILED: {}", f.as_str().unwrap_or_default())),
            _ => println!("  [{k}] {v}"),
        }
    }
    let per_query = r.detail.get("per_query").and_then(Json::as_array);
    for q in per_query.into_iter().flatten() {
        println!(
            "  breakdown {:<3} {:<30} wall {:>9.2} ms = schedule wait {:>8.2} + source {:>8.2} + sink {:>8.2} + ops {:>8.2} + rest {:>8.2}",
            q["query"].as_str().unwrap_or_default(),
            q["mode"].as_str().unwrap_or_default(),
            q["wall_ms"].as_f64().unwrap_or_default(),
            q["source_wait_ms"].as_f64().unwrap_or_default(),
            q["source_busy_ms"].as_f64().unwrap_or_default(),
            q["sink_busy_ms"].as_f64().unwrap_or_default(),
            q["operators_busy_ms"].as_f64().unwrap_or_default(),
            q["rest_ms"].as_f64().unwrap_or_default(),
        );
    }
}

/// With both replay workloads traced in one invocation, prints each
/// query's `run_partitioned` ÷ `run` throughput: the executor overhead
/// per query.
fn parallel_ratios(results: &[(Workload, WorkloadResult)]) {
    let eps = |w: Workload| -> Option<Vec<(String, f64)>> {
        let (_, r) = results.iter().find(|(x, _)| *x == w)?;
        Some(
            r.metrics
                .iter()
                .filter(|(n, _, _)| n.starts_with("query.") && n.ends_with(".eps"))
                .map(|(n, v, _)| (n.clone(), *v))
                .collect(),
        )
    };
    let (Some(local), Some(parallel)) = (eps(Workload::ReplayLocal), eps(Workload::ReplayParallel))
    else {
        return;
    };
    for ((name, l), (_, p)) in local.iter().zip(&parallel) {
        if *l > 0.0 {
            println!("  {name} replay-parallel / replay-local {:>8.3}", p / l);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let s = args.settings;
    let out_dir = std::path::Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let mut results = Vec::new();
    for &w in &args.workloads {
        let bench = Bench::setup(w, s);
        let meta = metadata(w, &s, bench.events());
        println!("# meta {meta}");
        let mut r = bench.measure();
        report(w, &r);
        r.detail.insert("meta".into(), meta);
        let path = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            w.name(),
            s.seed,
            u8::from(s.trace)
        ));
        if let Err(e) = std::fs::write(&path, Json::from(r.detail.clone()).to_string()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        results.push((w, r));
    }
    parallel_ratios(&results);
    let correct = results.iter().all(|(_, r)| r.correct);
    let attempted = results.iter().map(|(_, r)| r.attempted).sum();
    let failed = results.iter().map(|(_, r)| r.failed).sum();
    let metrics = match results.as_slice() {
        [(_, r)] => metrics_json(r, ""),
        many => {
            for (w, r) in many {
                let line =
                    result_line(r.correct, r.attempted, r.failed, metrics_json(r, "").into());
                println!("# result {} {line}", w.name());
            }
            many.iter()
                .flat_map(|(w, r)| metrics_json(r, &format!("{}.", w.name())))
                .collect()
        }
    };
    println!(
        "{}",
        result_line(correct, attempted, failed, metrics.into())
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
