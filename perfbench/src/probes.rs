//! Per-call costs of single layers, timed on the workload's own records:
//! the columnar transpose, the MEOS-backed demo functions and the wire
//! codec. Each probe loop is one span; per-call costs are its duration
//! over the calls it made.

use crate::trace::Tracer;
use nebula::prelude::{
    decode_frame, encode_frame, BufferMeta, FunctionRegistry, Record, SchemaRef, TupleBuffer, Value,
};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Records per probed batch (the runtime's default buffer size).
const BATCH: usize = 1024;
/// Batches per transpose and codec probe.
const BATCHES: usize = 64;
/// Calls per function probe.
const CALLS: usize = 20_000;

/// The demo functions the queries call, with the fleet columns they take
/// (`pos`, and `ts` for the weather lookup).
pub const FUNCTIONS: [(&str, &[usize]); 7] = [
    ("in_maintenance", &[2]),
    ("in_noise_zone", &[2]),
    ("risk_speed_limit", &[2]),
    ("weather_speed_factor", &[2, 0]),
    ("nearest_workshop_m", &[2]),
    ("in_station_area", &[2]),
    ("in_workshop", &[2]),
];

/// Runs every probe, filing spans under `run`, and returns the metrics.
pub fn run_all(
    tracer: &Tracer,
    run: u32,
    schema: &SchemaRef,
    records: &[Record],
    registry: &FunctionRegistry,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let batches: Vec<&[Record]> = records.chunks(BATCH).take(BATCHES).collect();
    let n: usize = batches.iter().map(|b| b.len()).sum();

    let (_, span) = tracer.time("buffer.from_records", None, run, || {
        for b in &batches {
            black_box(TupleBuffer::from_records(
                schema.clone(),
                black_box(b),
                BufferMeta::default(),
            ));
        }
    });
    out.insert(
        "buffer.transpose_ns_per_record".into(),
        span.dur_ns() as f64 / n as f64,
    );

    for (name, cols) in FUNCTIONS {
        let f = registry
            .get(name)
            .unwrap_or_else(|| panic!("demo function {name} is registered"));
        let args: Vec<Vec<Value>> = records
            .iter()
            .take(CALLS)
            .map(|r| cols.iter().map(|&c| r.values()[c].clone()).collect())
            .collect();
        let (_, span) = tracer.time("expr.invoke", None, run, || {
            for a in &args {
                black_box(f.invoke(black_box(a)).expect("demo function evaluates"));
            }
        });
        out.insert(
            format!("expr.{name}.ns_per_call"),
            span.dur_ns() as f64 / args.len() as f64,
        );
    }

    let wire = nebulameos::meos_wire_registry();
    let frames: Vec<nebula::wire::Frame> = batches
        .iter()
        .map(|b| nebula::wire::Frame::Data(b.to_vec()))
        .collect();
    let (encoded, span) = tracer.time("wire.encode_frame", None, run, || {
        frames
            .iter()
            .map(|f| encode_frame(black_box(f), schema, &wire).expect("fleet frames encode"))
            .collect::<Vec<_>>()
    });
    out.insert(
        "wire.encode_ns_per_record".into(),
        span.dur_ns() as f64 / n as f64,
    );
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    out.insert("wire.bytes_per_record".into(), bytes as f64 / n as f64);
    let (_, span) = tracer.time("wire.decode_frame", None, run, || {
        for e in &encoded {
            black_box(decode_frame(black_box(e), schema, &wire).expect("fleet frames decode"));
        }
    });
    out.insert(
        "wire.decode_ns_per_record".into(),
        span.dur_ns() as f64 / n as f64,
    );
    out
}
