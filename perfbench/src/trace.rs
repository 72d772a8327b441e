//! In-memory spans recorded by the benchmark around each call into a layer,
//! and the self-time arithmetic that turns them into per-layer numbers.
//!
//! A span holds its name, start and end (ns since the tracer was created),
//! its parent span and the op it belongs to. Spans are kept in a `Vec` and
//! written out once, when the run ends. A disabled tracer records nothing,
//! so the untraced closed loop pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The root span of every timed op; its self time is the op's
/// unattributed wall time.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.emit`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (probes carry the op they follow).
    pub op: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans into memory while enabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

/// A handle returned by [`Tracer::begin`], passed back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only while [`Tracer::set_enabled`] is on.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on the spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent's
/// interval and their overlaps with each other are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids))
        .collect()
}

/// Length of the union of intervals.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        cur = match cur {
            Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    if let Some((lo, hi)) = cur {
        total += hi - lo;
    }
    total
}

/// Per op, the summed self time (seconds) of each span name.
pub fn self_seconds_by_op(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.op).or_default().entry(s.name).or_default() += self_ns as f64 * 1e-9;
    }
    out
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(OP, 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("b.inner", 45, 65, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn self_time_clips_children_and_merges_overlaps() {
        let spans = vec![
            span(OP, 10, 100, None),
            // Starts before the parent (clock skew): only 10..20 counts.
            span("a", 5, 20, Some(0)),
            // Overlapping siblings: 50..90 is covered once.
            span("b", 50, 80, Some(0)),
            span("c", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 90 - 10 - 40);
    }

    #[test]
    fn self_and_child_times_add_up_to_the_op() {
        let spans = vec![
            span(OP, 0, 1_000, None),
            span("x", 100, 400, Some(0)),
            span("x", 500, 600, Some(0)),
            span("y", 700, 900, Some(0)),
        ];
        let by_op = self_seconds_by_op(&spans);
        let layers = &by_op[&0];
        let total: f64 = layers.values().sum();
        assert!((total - 1e-6).abs() < 1e-15);
        assert!((layers["x"] - 400e-9).abs() < 1e-15);
        assert!((layers[OP] - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_stays_silent_when_disabled() {
        let mut t = Tracer::new();
        t.span("ignored", || ());
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.set_op(7);
        let op = t.begin(OP);
        t.span("inner", || std::hint::black_box(3));
        t.end(op);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
