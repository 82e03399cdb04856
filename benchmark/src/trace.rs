//! In-memory spans around every call into a layer.
//!
//! The benchmark records spans from its *own* files, around the calls it
//! makes into each crate — spans inside the crates are a later change. A span
//! is `(name, start, end, parent, round)`; names are the crate/module the
//! call lands in (`kvs.cluster.drain`, `kvs.checker.lin`, `wars.simulate`…).
//! Everything stays in memory until the workload ends; then [`Tracer`]
//! produces a self-time table (a span's duration minus the part its children
//! cover) and a Chrome-trace JSON for `chrome://tracing` / Perfetto.
//!
//! In `perf-record` the tracer is disabled and [`Tracer::begin`] /
//! [`Tracer::end`] are a branch each — no clock read, no push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the tracer was built.
    pub start_ns: u64,
    /// End, ns since the tracer was built.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The workload round (window / cycle) the span belongs to.
    pub round: u32,
}

impl Span {
    /// Duration (ns).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open(Option<u32>);

/// Per-name aggregate of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration (ns).
    pub total_ns: u64,
    /// Σ (duration − time covered by direct children) (ns).
    pub self_ns: u64,
}

/// Count and total duration of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSum {
    /// Spans counted.
    pub count: u64,
    /// Σ duration (ns).
    pub total_ns: u64,
}

impl SpanSum {
    /// Mean duration per span (ns); 0 with no spans.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Round tag of spans recorded during set-up (before any measured round).
pub const SETUP_ROUND: u32 = u32::MAX;

/// Stop recording raw spans beyond this many (aggregates would be wrong
/// past it, so [`Tracer::dropped`] is checked by the harness).
const MAX_SPANS: usize = 4_000_000;

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    active: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records (`perf-trace`) or is inert (`perf-record`).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            active: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: SETUP_ROUND,
            dropped: 0,
        }
    }

    /// Whether this tracer can record at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether spans opened now are recorded.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Pause or resume recording (bare rounds of the overhead measurement).
    /// Spans already open stay open and close normally; spans opened while
    /// paused are simply not recorded.
    pub fn set_active(&mut self, active: bool) {
        self.active = self.enabled && active;
    }

    /// Tag subsequent spans with workload round `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Spans lost to the raw-span cap (must stay 0).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.active {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost-first");
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The self-time table, by span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Aggregate> {
        let own = self.self_times();
        let mut table: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += s.dur_ns();
            row.self_ns += self_ns;
        }
        table
    }

    fn sum_where(&self, name: &str, keep: impl Fn(&Span) -> bool) -> SpanSum {
        let mut a = SpanSum::default();
        for s in self.spans.iter().filter(|s| s.name == name && keep(s)) {
            a.count += 1;
            a.total_ns += s.dur_ns();
        }
        a
    }

    /// Count and total duration of every span named `name` (zeros when it
    /// never ran).
    pub fn of(&self, name: &str) -> SpanSum {
        self.sum_where(name, |_| true)
    }

    /// Like [`of`](Self::of), over measured rounds only — set-up spans
    /// (tagged [`SETUP_ROUND`]) are left out.
    pub fn of_measured(&self, name: &str) -> SpanSum {
        self.sum_where(name, |s| s.round != SETUP_ROUND)
    }

    /// The self-time table as text, widest self time first.
    pub fn self_time_table(&self) -> String {
        let table = self.aggregate();
        let total: u64 = table.values().map(|a| a.self_ns).sum();
        let mut rows: Vec<_> = table.into_iter().collect();
        rows.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_ns));
        let mut out = String::new();
        writeln!(
            out,
            "{:<34} {:>9} {:>12} {:>12} {:>7} {:>12}",
            "span", "count", "total_ms", "self_ms", "self%", "mean_us"
        )
        .unwrap();
        for (name, a) in rows {
            writeln!(
                out,
                "{:<34} {:>9} {:>12.3} {:>12.3} {:>6.2}% {:>12.3}",
                name,
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6,
                100.0 * a.self_ns as f64 / total.max(1) as f64,
                a.total_ns as f64 / a.count as f64 / 1e3,
            )
            .unwrap();
        }
        out
    }

    /// Chrome-trace ("Trace Event Format") JSON: one complete (`X`) event
    /// per span, timestamps in µs, the round in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"round\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.round
            )
            .unwrap();
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("x");
        t.end(a);
        t.set_active(true);
        assert!(!t.active(), "a disabled tracer cannot be activated");
        assert_eq!(t.span("y", || 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.set_round(4);
        let root = t.begin("root");
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.round == 4));
        let agg = t.aggregate();
        assert_eq!(agg["a"].count, 2);
        assert_eq!(
            agg["a"].self_ns, agg["a"].total_ns,
            "leaves own all their time"
        );
        assert_eq!(
            agg["root"].self_ns,
            agg["root"].total_ns - agg["a"].total_ns
        );
        assert!(t.chrome_trace_json().contains("\"name\":\"root\""));
        assert!(t.self_time_table().lines().count() == 3);
        assert_eq!(t.of("a").count, 2);
        assert_eq!(t.of("a").total_ns, agg["a"].total_ns);
        assert_eq!(t.of_measured("a").count, 2, "round 4 is a measured round");
        assert_eq!(t.of("never").count, 0);
    }

    #[test]
    fn setup_spans_are_excluded_from_measured_sums() {
        let mut t = Tracer::new(true);
        t.span("x", || ());
        t.set_round(0);
        t.span("x", || ());
        assert_eq!(t.of("x").count, 2);
        assert_eq!(t.of_measured("x").count, 1);
    }

    #[test]
    fn paused_rounds_leave_no_spans() {
        let mut t = Tracer::new(true);
        t.set_active(false);
        t.span("bare", || ());
        t.set_active(true);
        t.span("traced", || ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].name, "traced");
    }
}
