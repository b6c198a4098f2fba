//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans are recorded only by the benchmark's own wrappers — around
//! `Source::poll`, `Sink::consume`, each `run*` call, the analyzer and
//! the probe loops — never from inside the program. They stay in memory
//! and are written out once the benchmark ends.

use nebula::prelude::{RecordBuffer, Result, SchemaRef, Sink, Source, SourceBatch, TupleBuffer};
use serde_json::{json, Value as Json};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies a span within one [`Tracer`].
pub type SpanId = u32;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer.
    pub id: SpanId,
    /// Layer call, e.g. `source.poll`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The query run (or set-up round) the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    next_run: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            next_run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// ns since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh run id.
    pub fn new_run(&self) -> u32 {
        self.next_run.fetch_add(1, Ordering::Relaxed)
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span is closed.
    pub fn reserve(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking wrapper")
            .push(span);
    }

    /// Times `f` as one span and returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Span) {
        let id = self.reserve();
        let start_ns = self.now_ns();
        let out = f();
        let span = Span {
            id,
            name,
            start_ns,
            end_ns: self.now_ns(),
            parent,
            run,
        };
        self.record(span.clone());
        (out, span)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking wrapper")
            .clone()
    }

    /// The span log as JSON.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans()
                .iter()
                .map(|s| {
                    json!({
                        "id": s.id,
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "parent": s.parent,
                        "run": s.run,
                    })
                })
                .collect(),
        )
    }
}

/// Self time of `parent`: its duration minus the part of its interval
/// that the spans in `children` cover. Overlapping children count once
/// and children reaching outside the parent count only inside it, so
/// the result is never negative.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.dur_ns() - covered
}

/// Where a wrapper files its spans: the tracer, the enclosing run span
/// and the run id.
#[derive(Clone)]
pub struct SpanCtx {
    /// The recorder.
    pub tracer: Arc<Tracer>,
    /// The enclosing `run*` span.
    pub parent: SpanId,
    /// The run id.
    pub run: u32,
}

/// A source that records one `source.poll` span per call.
pub struct TracedSource {
    inner: Box<dyn Source>,
    ctx: SpanCtx,
}

impl TracedSource {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Source>, ctx: SpanCtx) -> Self {
        TracedSource { inner, ctx }
    }
}

impl Source for TracedSource {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        let ctx = &self.ctx;
        let inner = &mut self.inner;
        ctx.tracer
            .time("source.poll", Some(ctx.parent), ctx.run, || inner.poll(max))
            .0
    }

    fn rewind(&mut self, to_batch: usize) -> bool {
        self.inner.rewind(to_batch)
    }
}

/// A sink that records one `sink.consume` span per call.
pub struct TracedSink<'a> {
    inner: &'a mut dyn Sink,
    ctx: SpanCtx,
}

impl<'a> TracedSink<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Sink, ctx: SpanCtx) -> Self {
        TracedSink { inner, ctx }
    }
}

impl Sink for TracedSink<'_> {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        let ctx = &self.ctx;
        let inner = &mut self.inner;
        ctx.tracer
            .time("sink.consume", Some(ctx.parent), ctx.run, || {
                inner.consume(buf)
            })
            .0
    }

    fn consume_columnar(&mut self, buf: &TupleBuffer) -> Result<()> {
        let ctx = &self.ctx;
        let inner = &mut self.inner;
        ctx.tracer
            .time("sink.consume", Some(ctx.parent), ctx.run, || {
                inner.consume_columnar(buf)
            })
            .0
    }

    fn finish(&mut self) -> Result<()> {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent: None,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_part() {
        let p = span(0, 100, 200);
        let a = span(1, 110, 130);
        let b = span(2, 150, 160);
        assert_eq!(self_time_ns(&p, &[&a, &b]), 70);
        assert_eq!(self_time_ns(&p, &[]), 100);
    }

    #[test]
    fn self_time_never_negative() {
        let p = span(0, 100, 200);
        // Overlapping children (concurrent threads) and children that
        // spill outside the parent.
        let kids = [
            span(1, 50, 150),
            span(2, 120, 180),
            span(3, 130, 170),
            span(4, 190, 400),
            span(5, 0, 1_000),
        ];
        let refs: Vec<&Span> = kids.iter().collect();
        assert_eq!(self_time_ns(&p, &refs), 0);
        let kids = [span(1, 90, 120), span(2, 110, 140), span(3, 300, 400)];
        let refs: Vec<&Span> = kids.iter().collect();
        assert_eq!(self_time_ns(&p, &refs), 60);
    }

    #[test]
    fn time_records_parent_and_run() {
        let t = Tracer::default();
        let run = t.new_run();
        let parent = t.reserve();
        let (v, s) = t.time("x", Some(parent), run, || 7);
        assert_eq!(v, 7);
        assert_eq!(s.parent, Some(parent));
        assert!(s.end_ns >= s.start_ns);
        assert_eq!(t.spans().len(), 1);
    }
}
