//! In-memory spans around the calls into each layer, written once at the
//! end of a traced run through the `trace` crate's Chrome-trace writer.

use std::time::Instant;
use trace::{ChromeTrace, TraceEvent};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `ipu-sim.run`.
    pub name: &'static str,
    /// The operation (solve, or serve phase) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin; `u64::MAX` while open.
    pub end_ns: u64,
}

/// Span handle; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The handle an untraced operation carries.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// Collects spans in memory. Off, `begin` and `end` only return and
/// compare a handle.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under `parent` when `on`; returns [`SpanId::NONE`]
    /// otherwise.
    pub fn begin(&mut self, on: bool, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !on {
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            op,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.now_ns();
            self.spans[id.0].end_ns = now;
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// All spans recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in seconds of the closed spans called `name`, and
    /// how many there were.
    pub fn mean_s(&self, name: &str) -> (f64, usize) {
        let durs: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != u64::MAX)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        if durs.is_empty() {
            return (0.0, 0);
        }
        let total: u64 = durs.iter().sum();
        (total as f64 * 1e-9 / durs.len() as f64, durs.len())
    }

    /// The spans as one Chrome trace: one lane, parents before their
    /// children, each event carrying its op id and parent name.
    pub fn chrome_trace(&self, process: &str) -> ChromeTrace {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| {
            (
                self.spans[i].start_ns,
                std::cmp::Reverse(self.spans[i].end_ns),
            )
        });
        let mut trace = ChromeTrace::new();
        trace.push(TraceEvent::process_name(1, process));
        for i in order {
            let s = &self.spans[i];
            let end = if s.end_ns == u64::MAX {
                s.start_ns
            } else {
                s.end_ns
            };
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            trace.push(
                TraceEvent::complete(
                    s.name,
                    "perfbench",
                    s.start_ns as f64 / 1e3,
                    (end - s.start_ns) as f64 / 1e3,
                    1,
                    0,
                )
                .arg("op", s.op)
                .arg("parent", parent),
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_a_valid_trace() {
        let mut tr = Tracer::default();
        let op = tr.begin(true, "op", 7, SpanId::NONE);
        let child = tr.begin(true, "ipu-sim.run", 7, op);
        tr.end(child);
        tr.end(op);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.mean_s("ipu-sim.run").1, 1);
        let json = tr.chrome_trace("perfbench").to_json();
        let summary = ChromeTrace::validate_json(&json).unwrap();
        assert_eq!(summary.complete_events, 2);
    }

    #[test]
    fn an_untraced_operation_records_nothing() {
        let mut tr = Tracer::default();
        let op = tr.begin(false, "op", 0, SpanId::NONE);
        assert_eq!(op, SpanId::NONE);
        tr.end(op);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.mean_s("op"), (0.0, 0));
    }
}
