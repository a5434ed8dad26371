//! In-memory span recorder for the traced replays.
//!
//! A span is a layer boundary the benchmark's replay code crosses: name,
//! start, end, parent span and op id. Spans stay in memory and are written
//! out once, when the run ends. A span's *self time* is its duration minus
//! the durations of its direct children; per-layer times are self times
//! summed per op, so nested layers are never counted twice.
//!
//! Most spans wrap a call as it happens ([`Tracer::span`]). A few layers can
//! only be timed by replaying the same input one level deeper (the serving
//! depths, the `.mat` decode pass): those replays are recorded with
//! [`Tracer::record`] as children of the span they explain, so the parent's
//! self time becomes the difference between the two depths.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span each traced op opens; it belongs to no layer.
pub const OP: &str = "op";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// `(op, counter)` → count, for layers whose work is a number of calls.
    counts: BTreeMap<(u64, &'static str), u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` as one traced op under a root [`OP`] span.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        self.span(OP, f)
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Id of the most recently opened span named `name` — the parent to hang
    /// a deeper replay under.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Record an already-timed span under `parent` (`None` opens a new op
    /// whose root is this span). Returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if parent.is_none() {
            self.op += 1;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: self.ns(end).max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Add to the current op's call counter.
    pub fn count(&mut self, counter: &'static str, n: u64) {
        *self.counts.entry((self.op, counter)).or_default() += n;
    }

    /// Number of traced ops.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Self time of every span: duration minus its direct children's.
    fn self_times(&self) -> Vec<f64> {
        let mut self_s: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_s[parent] -= span.duration_s();
            }
        }
        self_s
    }

    fn per_op(&self, total: f64) -> f64 {
        total / self.op.max(1) as f64
    }

    /// Mean per-op self time of spans named `name`, in seconds.
    pub fn self_per_op(&self, name: &str) -> f64 {
        let self_s = self.self_times();
        let total = self
            .spans
            .iter()
            .zip(&self_s)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum();
        self.per_op(total)
    }

    /// Self time of spans named `name` in each traced op, in seconds.
    pub fn self_by_op(&self, name: &str) -> Vec<f64> {
        let self_s = self.self_times();
        let mut by_op = vec![0.0; self.op as usize];
        for (span, t) in self.spans.iter().zip(&self_s) {
            if span.name != name {
                continue;
            }
            // Op ids start at 1; a span outside every op belongs to none.
            if let Some(slot) = (span.op as usize)
                .checked_sub(1)
                .and_then(|i| by_op.get_mut(i))
            {
                *slot += t;
            }
        }
        by_op
    }

    /// Mean per-op inclusive time of spans named `name`, in seconds.
    pub fn inclusive_per_op(&self, name: &str) -> f64 {
        let total = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum();
        self.per_op(total)
    }

    /// Mean per-op value of a counter.
    pub fn count_per_op(&self, counter: &str) -> f64 {
        let total: u64 = self
            .counts
            .iter()
            .filter(|((_, c), _)| *c == counter)
            .map(|(_, n)| n)
            .sum();
        self.per_op(total as f64)
    }

    /// Mean wall time of the root spans (the traced ops), in seconds.
    pub fn op_wall(&self) -> f64 {
        let total = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_s)
            .sum();
        self.per_op(total)
    }

    /// Σ layer self time ÷ op wall: how much of each traced op the layer
    /// spans account for (the benchmark's glue between calls is the rest).
    pub fn coverage(&self) -> f64 {
        self.shares().iter().map(|(_, share)| share).sum()
    }

    /// Per-layer self-time shares of the op wall, largest first.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let self_s = self.self_times();
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(&self_s) {
            if span.parent.is_some() {
                *by_name.entry(span.name).or_default() += t;
            }
        }
        let wall = self.op_wall() * self.op.max(1) as f64;
        let mut shares: Vec<_> = by_name
            .into_iter()
            .map(|(name, t)| (name, if wall > 0.0 { t / wall } else { 0.0 }))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }

    /// Write every span as a tab-separated line:
    /// `op id parent name start_ns end_ns` (parent `-` for roots).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns").map_err(io)?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )
            .map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.op(|t| {
            t.span("outer", |t| {
                t.span("inner", |t| {
                    t.span("leaf", |_| std::thread::sleep(Duration::from_millis(2)))
                });
            })
        });
        assert!(t.self_per_op("leaf") >= 0.002);
        assert!(t.inclusive_per_op("outer") >= t.self_per_op("leaf"));
        let layers = t.self_per_op("outer") + t.self_per_op("inner") + t.self_per_op("leaf");
        assert!((layers / t.op_wall() - t.coverage()).abs() < 1e-9);
        assert!(t.coverage() > 0.9 && t.coverage() <= 1.0 + 1e-9);
    }

    #[test]
    fn recorded_replays_attribute_the_difference_to_the_parent() {
        let mut t = Tracer::new();
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        let root = t.record(OP, None, at(0), at(100));
        let http = t.record("http", Some(root), at(0), at(90));
        t.record("batch", Some(http), at(200), at(260));
        assert_eq!(t.ops(), 1);
        assert!((t.self_per_op("http") - 30e-6).abs() < 1e-9);
        assert!((t.self_per_op("batch") - 60e-6).abs() < 1e-9);
        assert!((t.coverage() - 0.9).abs() < 1e-9);
        let root = t.record(OP, None, at(300), at(400));
        t.record("http", Some(root), at(300), at(350));
        let by_op = t.self_by_op("http");
        assert_eq!(by_op.len(), 2);
        assert!((by_op[0] - 30e-6).abs() < 1e-9 && (by_op[1] - 50e-6).abs() < 1e-9);
    }
}
