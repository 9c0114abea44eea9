//! Spans recorded around the calls the traced run makes into each layer.
//!
//! The program itself carries no instrumentation: a span opens just
//! before the benchmark calls a layer's public function and closes just
//! after it returns. Spans stay in memory and are written as NDJSON when
//! the run ends. A layer's self time is its span minus its child spans.

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op (request, batch, decomposition) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name totals of a finished trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: usize,
    pub total: Duration,
    pub self_time: Duration,
}

impl Totals {
    /// Mean self time per call, in ms (0 when the layer never ran).
    pub fn self_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            crate::stats::ms(self.self_time) / self.calls as f64
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let now = self.origin.elapsed();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end = now;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a finished child of span `parent` whose length a layer
    /// reported itself (the static pipeline's counting phase, which runs
    /// inside `cd::coarse_decompose` and is timed by its `Metrics`). It is
    /// placed at the start of the parent.
    pub fn record_child(&mut self, parent: usize, name: &'static str, length: Duration) {
        let p = &self.spans[parent];
        let start = p.start;
        let op = p.op;
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start,
            end: start + length,
        });
    }

    /// Calls, inclusive time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total += span.duration();
            t.self_time += span.duration().saturating_sub(children);
        }
        out
    }

    /// Durations of every span named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| crate::stats::ms(s.duration()))
            .collect()
    }

    /// Share of the time of the spans named `root` that their descendant
    /// spans account for: 1 minus the roots' own self time over their
    /// total.
    pub fn coverage(&self, root: &str) -> f64 {
        let t = self.totals().get(root).copied().unwrap_or_default();
        if t.total.is_zero() {
            return 0.0;
        }
        1.0 - t.self_time.as_secs_f64() / t.total.as_secs_f64()
    }

    /// One JSON object per span: `id`, `name`, `op`, `parent`, and
    /// `start_us` / `end_us` from the trace origin.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut span = Map::new();
            span.insert("id", Value::from(id as u64));
            span.insert("name", Value::from(s.name));
            span.insert("op", Value::from(s.op));
            span.insert(
                "parent",
                s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
            );
            span.insert("start_us", Value::from(s.start.as_secs_f64() * 1e6));
            span.insert("end_us", Value::from(s.end.as_secs_f64() * 1e6));
            writeln!(w, "{}", Value::Object(span))?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let op = t.enter("op", 0);
        let a = t.enter("a", 0);
        std::thread::sleep(Duration::from_millis(4));
        t.exit(a);
        t.record_child(a, "b", Duration::from_millis(1));
        t.exit(op);
        let totals = t.totals();
        assert_eq!(totals["op"].calls, 1);
        assert_eq!(
            totals["op"].total - totals["op"].self_time,
            totals["a"].total
        );
        assert_eq!(
            totals["a"].total - totals["a"].self_time,
            Duration::from_millis(1)
        );
        assert_eq!(totals["b"].self_time, Duration::from_millis(1));
        assert!(t.coverage("op") > 0.5);
    }
}
