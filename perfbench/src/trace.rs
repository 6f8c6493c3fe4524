//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span (name, start, end, parent, operation id). Spans stay in
//! memory while the run measures and are written out as JSON lines when
//! it ends. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation the span belongs to; `None` during set-up.
    pub op: Option<u64>,
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    /// Marks the start of operation `op`: spans opened from now on carry
    /// its id.
    pub fn set_op(&mut self, op: u64) {
        self.op = Some(op);
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Opens a span that stays open until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.iter().rev().nth(1).copied(),
            op: self.op,
        });
    }

    /// Closes the innermost span opened by [`Tracer::enter`].
    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time per span name: `(calls, total self nanoseconds)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(*child);
        }
        out
    }

    /// Durations (not self times) of every span named `name`, in
    /// nanoseconds, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let json = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                json(s.parent.map(|p| p.to_string())),
                json(s.op.map(|o| o.to_string())),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("op");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let st = t.self_times();
        let op_total = t.durations("op")[0];
        let child_total = t.durations("child")[0];
        assert_eq!(st["op"], (1, op_total - child_total));
        assert_eq!(st["child"], (1, child_total));
        assert!(t.to_jsonl().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        t.enter("op");
        t.exit();
        assert!(t.self_times().is_empty());
    }
}
