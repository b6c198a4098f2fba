//! Input release and result arrival: the tick source that feeds every
//! query run, and the sink that checks and times its results.
//!
//! The fleet produces one record per train per sensor tick. A
//! [`TickSource`] hands those ticks to the program either as fast as it
//! polls (closed loop) or on a fixed schedule (open loop). On a paced
//! run the shared [`Timeline`] knows when each tick was due, so the
//! [`ResultSink`] can time every result from the due time of the event
//! whose `ts` it carries.

use nebula::prelude::{
    record_sort_key, Record, RecordBuffer, Result, SchemaRef, Sink, Source, SourceBatch,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// When each tick of one run was due.
///
/// Paced (open loop): tick `k` is due `k × interval` after the first
/// poll, whether or not the source keeps up, so a stall is charged to
/// every later event. Closed loop: ticks have no due time and results
/// are not timed.
pub struct Timeline {
    origin: OnceLock<Instant>,
    interval: Option<Duration>,
    /// Paced: how long before each due time the source stops sleeping
    /// and spins; zero sleeps all the way.
    spin: Duration,
    /// Paced: per released tick, how late reading ran, ns.
    lags_ns: Mutex<Vec<u64>>,
    /// Paced: time polls spent waiting for the schedule, ns.
    waited_ns: AtomicU64,
}

impl Timeline {
    /// A timeline releasing one tick every `interval`. The source
    /// sleeps until `spin` before each due time and spins the rest, so
    /// a wake-up up to `spin` late does not make it release late.
    pub fn paced(interval: Duration, spin: Duration) -> Arc<Timeline> {
        Arc::new(Timeline::new(Some(interval), spin))
    }

    /// A timeline releasing ticks as fast as they are polled.
    pub fn closed() -> Arc<Timeline> {
        Arc::new(Timeline::new(None, Duration::ZERO))
    }

    fn new(interval: Option<Duration>, spin: Duration) -> Timeline {
        Timeline {
            origin: OnceLock::new(),
            interval,
            spin,
            lags_ns: Mutex::new(Vec::new()),
            waited_ns: AtomicU64::new(0),
        }
    }

    /// The schedule origin: fixed at the first poll.
    pub fn origin(&self) -> Instant {
        *self.origin.get_or_init(Instant::now)
    }

    /// Paced: due time of tick `k` in ns since the origin.
    fn due_ns(&self, k: usize) -> Option<u64> {
        self.interval.map(|iv| iv.as_nanos() as u64 * k as u64)
    }

    /// Time the paced source spent waiting for due times, ms: part of
    /// every `Source::poll` call, but the schedule's and not the
    /// program's.
    pub fn waited_ms(&self) -> f64 {
        self.waited_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Paced: how late reading ran behind due time, one sample per
    /// tick, ms.
    pub fn lags_ms(&self) -> Vec<f64> {
        self.lags_ns
            .lock()
            .expect("timeline poisoned")
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect()
    }
}

/// Releases pre-generated fleet records tick by tick.
pub struct TickSource {
    schema: SchemaRef,
    pending: VecDeque<Record>,
    per_tick: usize,
    released: usize,
    timeline: Arc<Timeline>,
}

impl TickSource {
    /// A source over `records`, `per_tick` records per sensor tick.
    pub fn new(
        schema: SchemaRef,
        records: Vec<Record>,
        per_tick: usize,
        timeline: Arc<Timeline>,
    ) -> Self {
        TickSource {
            schema,
            pending: records.into(),
            per_tick,
            released: 0,
            timeline,
        }
    }

    /// Hands out `n` records; paced, also records how late each newly
    /// released tick ran behind its due time.
    fn release(&mut self, n: usize) -> Vec<Record> {
        if self.timeline.interval.is_some() {
            let now_ns = self.timeline.origin().elapsed().as_nanos() as u64;
            // A tick split across polls counts from its first part.
            let first = self.released.div_ceil(self.per_tick);
            let last = (self.released + n - 1) / self.per_tick;
            let mut lags = self.timeline.lags_ns.lock().expect("timeline poisoned");
            for k in first..=last {
                let due = self.timeline.due_ns(k).unwrap_or(0);
                lags.push(now_ns.saturating_sub(due));
            }
        }
        self.released += n;
        self.pending.drain(..n).collect()
    }
}

impl Source for TickSource {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    /// Closed loop: the next `max` records at once. Paced: blocks until
    /// the next tick is due, then releases every whole tick due by now
    /// (at most `max` records, at least one tick). Never `Idle`, so an
    /// idle limit cannot end a paced run early.
    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        if self.pending.is_empty() {
            return Ok(SourceBatch::Exhausted);
        }
        let n = match self.timeline.interval {
            None => max.max(1),
            Some(iv) => {
                let origin = self.timeline.origin();
                let next = self.released / self.per_tick;
                let due = origin + iv * next as u32;
                let now = Instant::now();
                if now < due {
                    if let Some(nap) = (due - now).checked_sub(self.timeline.spin) {
                        std::thread::sleep(nap);
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let waited = now.elapsed().as_nanos() as u64;
                    self.timeline.waited_ns.fetch_add(waited, Ordering::Relaxed);
                }
                let elapsed = origin.elapsed().as_nanos() / iv.as_nanos().max(1);
                let due_ticks = (elapsed as usize + 1).saturating_sub(next).max(1);
                due_ticks.min((max / self.per_tick).max(1)) * self.per_tick
            }
        };
        let n = n.min(self.pending.len());
        Ok(SourceBatch::Data(self.release(n)))
    }
}

/// An order-independent content digest of a multiset of records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Records seen.
    pub count: u64,
    /// Wrapping sum of per-record hashes.
    pub sum: u64,
}

impl Digest {
    /// Adds one record.
    pub fn add(&mut self, rec: &Record) {
        // FNV-1a over the canonical encoding, then a SplitMix64 finish so
        // the wrapping sum mixes well.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in record_sort_key(rec) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
    }
}

/// Maps event times to sensor ticks.
#[derive(Debug, Clone, Copy)]
pub struct TickClock {
    /// `ts` of tick 0, µs.
    pub first_ts: i64,
    /// Tick length in event time, µs.
    pub tick_us: i64,
    /// Number of ticks.
    pub ticks: usize,
}

impl TickClock {
    /// The tick an event time falls in, clamped to the stream.
    pub fn tick_of(&self, ts: i64) -> usize {
        let k = (ts - self.first_ts).div_euclid(self.tick_us).max(0) as usize;
        k.min(self.ticks.saturating_sub(1))
    }
}

/// Which column of a result carries the event time it reports.
#[derive(Debug, Clone, Copy)]
enum Carried {
    /// Row-preserving queries and CEP matches keep the event's `ts`.
    Ts(usize),
    /// Windows report `window_end`; the last tick inside is one µs
    /// earlier.
    WindowEnd(usize),
    /// No event time (never the case for the demo queries).
    Unknown,
}

/// Consumes a run's results: digests them for the correctness check and
/// times each one from the due time of the event it carries.
pub struct ResultSink {
    timeline: Arc<Timeline>,
    clock: TickClock,
    carried: Option<Carried>,
    /// Digest of everything consumed.
    pub digest: Digest,
    /// Arrival minus due time, per result, ns.
    pub latencies_ns: Vec<u64>,
    /// Result buffers consumed.
    pub buffers: u64,
    /// When the first result buffer arrived.
    pub first_delivery: Option<Instant>,
}

impl ResultSink {
    /// A sink timing results against `timeline`.
    pub fn new(timeline: Arc<Timeline>, clock: TickClock) -> Self {
        ResultSink {
            timeline,
            clock,
            carried: None,
            digest: Digest::default(),
            latencies_ns: Vec::new(),
            buffers: 0,
            first_delivery: None,
        }
    }

    fn carried(&mut self, buf: &RecordBuffer) -> Carried {
        *self.carried.get_or_insert_with(|| {
            let schema = buf.schema();
            match (schema.index_of("ts"), schema.index_of("window_end")) {
                (Some(i), _) => Carried::Ts(i),
                (None, Some(i)) => Carried::WindowEnd(i),
                _ => Carried::Unknown,
            }
        })
    }
}

impl Sink for ResultSink {
    /// Digests every result; paced, also times each one from the due
    /// time of the event it carries. Closed-loop results are not timed.
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        let now = Instant::now();
        self.first_delivery.get_or_insert(now);
        self.buffers += 1;
        buf.records().iter().for_each(|rec| self.digest.add(rec));
        if self.timeline.interval.is_none() {
            return Ok(());
        }
        let carried = self.carried(buf);
        let now_ns = now
            .saturating_duration_since(self.timeline.origin())
            .as_nanos() as u64;
        for rec in buf.records() {
            let ts = match carried {
                Carried::Ts(i) => rec.get(i).and_then(|v| v.as_timestamp()),
                Carried::WindowEnd(i) => rec.get(i).and_then(|v| v.as_timestamp()).map(|t| t - 1),
                Carried::Unknown => None,
            };
            let due = ts.and_then(|t| self.timeline.due_ns(self.clock.tick_of(t)));
            if let Some(due) = due {
                self.latencies_ns.push(now_ns.saturating_sub(due));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula::prelude::{DataType, Schema, Value};

    const TICK_US: i64 = 250_000;
    const PER_TICK: usize = 2;

    fn schema() -> SchemaRef {
        Schema::of(&[("ts", DataType::Timestamp), ("train", DataType::Int)])
    }

    fn ticks(n: usize) -> Vec<Record> {
        (0..n * PER_TICK)
            .map(|i| {
                let k = (i / PER_TICK) as i64;
                Record::new(vec![
                    Value::Timestamp(k * TICK_US),
                    Value::Int((i % PER_TICK) as i64),
                ])
            })
            .collect()
    }

    fn clock(n: usize) -> TickClock {
        TickClock {
            first_ts: 0,
            tick_us: TICK_US,
            ticks: n,
        }
    }

    fn drain(src: &mut TickSource) -> Vec<Record> {
        match src.poll(1024).unwrap() {
            SourceBatch::Data(r) => r,
            other => panic!("expected data, got {}", matches!(other, SourceBatch::Idle)),
        }
    }

    #[test]
    fn paced_source_keeps_the_schedule() {
        let iv = Duration::from_millis(3);
        let n = 12;
        // Sleeping all the way, and spinning the last millisecond.
        for spin in [Duration::ZERO, Duration::from_millis(1)] {
            let tl = Timeline::paced(iv, spin);
            let mut src = TickSource::new(schema(), ticks(n), PER_TICK, tl.clone());
            let mut seen = 0;
            while seen < n * PER_TICK {
                let recs = drain(&mut src);
                let since = tl.origin().elapsed();
                let last_tick =
                    recs.last().unwrap().get(0).unwrap().as_timestamp().unwrap() / TICK_US;
                // No tick is released before it is due.
                assert!(since >= iv * last_tick as u32, "tick {last_tick} early");
                seen += recs.len();
            }
            assert!(matches!(src.poll(1024).unwrap(), SourceBatch::Exhausted));
            assert!(tl.origin().elapsed() >= iv * (n as u32 - 1));
            let lags = tl.lags_ms();
            assert_eq!(lags.len(), n);
            assert!(lags.iter().all(|&l| l >= 0.0));
        }
    }

    #[test]
    fn stall_raises_latency_of_later_events() {
        let iv = Duration::from_millis(2);
        let n = 10;
        let tl = Timeline::paced(iv, Duration::ZERO);
        let mut src = TickSource::new(schema(), ticks(n), PER_TICK, tl.clone());
        let mut sink = ResultSink::new(tl.clone(), clock(n));
        let sch = schema();
        for _ in 0..2 {
            let recs = drain(&mut src);
            sink.consume(&RecordBuffer::new(sch.clone(), recs)).unwrap();
        }
        let before = sink.latencies_ns.clone();
        // The consumer stalls; the schedule does not wait for it.
        let stall = Duration::from_millis(60);
        std::thread::sleep(stall);
        let mut after = Vec::new();
        while let SourceBatch::Data(recs) = src.poll(1024).unwrap() {
            let from = sink.latencies_ns.len();
            sink.consume(&RecordBuffer::new(sch.clone(), recs)).unwrap();
            after.extend_from_slice(&sink.latencies_ns[from..]);
        }
        assert_eq!(before.len() + after.len(), n * PER_TICK);
        let worst_before = before.iter().max().unwrap();
        let best_after = after.iter().min().unwrap();
        assert!(
            best_after > worst_before,
            "later events must carry the stall: {best_after} <= {worst_before}"
        );
        // Every event after the stall waited at least until the stall
        // ended, counted from its own due time.
        let stall_end = (iv + stall).as_nanos() as u64;
        let lags = tl.lags_ms();
        for (k, lag) in lags.iter().enumerate().skip(2) {
            let due = (iv * k as u32).as_nanos() as u64;
            assert!(lag * 1e6 + 1.0 >= stall_end.saturating_sub(due) as f64);
        }
    }

    #[test]
    fn latency_sink_maps_ts_to_due_time() {
        let iv = Duration::from_millis(10);
        let tl = Timeline::paced(iv, Duration::ZERO);
        tl.origin
            .set(Instant::now() - Duration::from_millis(100))
            .unwrap();
        let mut sink = ResultSink::new(tl, clock(8));
        sink.consume(&RecordBuffer::new(schema(), ticks(4)))
            .unwrap();
        let ms: Vec<f64> = sink
            .latencies_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        // Tick k was due at 10k ms; the buffer arrived at ≥ 100 ms.
        for (i, l) in ms.iter().enumerate() {
            let k = (i / PER_TICK) as f64;
            assert!(*l >= 100.0 - 10.0 * k, "tick {k}: {l}");
            assert!(*l < 100.0 - 10.0 * k + 50.0, "tick {k}: {l}");
        }
        // Windows carry their exclusive end: the last tick inside.
        let wschema = Schema::of(&[
            ("window_start", DataType::Timestamp),
            ("window_end", DataType::Timestamp),
        ]);
        let rec = Record::new(vec![Value::Timestamp(0), Value::Timestamp(3 * TICK_US)]);
        let before = sink.latencies_ns.len();
        let mut wsink = ResultSink::new(sink.timeline.clone(), clock(8));
        wsink
            .consume(&RecordBuffer::new(wschema, vec![rec]))
            .unwrap();
        let w = wsink.latencies_ns[0] as f64 / 1e6;
        assert!((80.0..130.0).contains(&w), "window latency {w}");
        assert_eq!(before, 8);
    }

    #[test]
    fn digest_ignores_order() {
        let recs = ticks(5);
        let mut a = Digest::default();
        let mut b = Digest::default();
        recs.iter().for_each(|r| a.add(r));
        recs.iter().rev().for_each(|r| b.add(r));
        assert_eq!(a, b);
        let mut c = Digest::default();
        recs[1..].iter().for_each(|r| c.add(r));
        assert_ne!(a, c);
    }
}
