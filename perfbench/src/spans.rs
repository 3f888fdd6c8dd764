//! Host-time spans recorded around each call into a layer.
//!
//! The benchmark's own code opens a span before it calls into a layer of
//! the simulator and closes it when the call returns. Spans stay in
//! memory for the whole run and are written out once, at the end. A
//! layer's self time is its span's duration minus the part covered by
//! its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, such as `kernel.boot`.
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. When disabled, [`open`](Self::open) and
/// [`close`](Self::close) do nothing, so untraced runs pay one branch
/// per boundary.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open: an unbalanced close is a bug in the
    /// benchmark.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.stack.pop().expect("close without a matching open");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the next span to be opened; pass it to
    /// [`self_times`](Self::self_times) to fold only later spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in seconds per span name over the spans opened since
    /// `mark`: each span's duration minus its direct children's.
    pub fn self_times(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[mark..];
        let mut self_ns: Vec<i128> = spans.iter().map(|s| s.dur_ns() as i128).collect();
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                self_ns[p - mark] -= s.dur_ns() as i128;
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in spans.iter().zip(self_ns) {
            *out.entry(s.name).or_insert(0.0) += ns.max(0) as f64 * 1e-9;
        }
        out
    }

    /// All spans as JSON lines, each tagged with `run_id`.
    pub fn to_jsonl(&self, run_id: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{run_id}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        r.open("outer");
        r.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        r.close();
        let st = r.self_times(0);
        let outer = r.spans()[0].dur_ns() as f64 * 1e-9;
        let inner = r.spans()[1].dur_ns() as f64 * 1e-9;
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(inner >= 0.005);
        assert!((st["outer"] - (outer - inner)).abs() < 1e-9);
        assert!((st["inner"] - inner).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.span("x", || ());
        assert!(r.spans().is_empty());
    }
}
