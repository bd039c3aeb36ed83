//! In-memory spans for the traced run. The benchmark opens a span around
//! each public call it makes into a layer; nothing inside the program is
//! instrumented. Spans are written out as JSONL when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Samples;

/// One timed call: `name` over `[start_ns, end_ns)` relative to the
/// tracer's origin, caused by span `parent`, for tick or batch `id`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `policy.process_tick`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The tick or batch the call worked on.
    pub id: u64,
}

/// A growing list of spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index, for [`Tracer::close`] and as a
    /// parent of nested spans.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes span `index`.
    pub fn close(&mut self, index: usize) {
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
    }

    /// Records a span the caller timed itself.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            id,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// The durations of every span called `name`, in µs, in the order
    /// they were opened.
    #[must_use]
    pub fn durations_in_order_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// The durations of every span called `name`, in µs.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Samples {
        Samples::new(self.durations_in_order_us(name))
    }

    /// Every span as one JSON object per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new();
        let root = t.open("frame", 7, None);
        let v = t.time("decode", 7, Some(root), || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.durations_us("decode").len(), 1);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"name\":\"decode\"") && lines[1].contains("\"parent\":0"));
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"id\":7"));
    }
}
