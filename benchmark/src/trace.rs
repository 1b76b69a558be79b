//! Spans recorded by the benchmark's own code around calls into the
//! system under test. Kept in memory; written out once, at exit.
//!
//! A span is `(name, start, end, parent, id)`: `name` is
//! `<layer>.<operation>` with the layer being the module the call enters,
//! `parent` the span that was open on the same thread when it began, `id`
//! the rep or epoch it belongs to. A disabled tracer records nothing, so
//! the untraced runs that produce the end-to-end figures pay one branch
//! per call site.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

/// Per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer::with_origin(enabled, Instant::now())
    }

    /// A second thread's tracer shares the first one's origin so that the
    /// merged file has one clock.
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Tracer { enabled, origin, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whatever span is open now.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span (and any span opened under it that is still open).
    pub fn exit(&mut self, open: Open) {
        let Open(Some(idx)) = open else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Close a span under another name than it was opened with, for calls
    /// whose kind is only known once they return (a `send` that had to wait
    /// for an ack was a window stall).
    pub fn exit_as(&mut self, open: Open, name: &'static str) {
        if let Open(Some(idx)) = open {
            self.spans[idx].name = name;
        }
        self.exit(open);
    }

    /// Record sub-stages the callee timed itself (`last_close_timings()`)
    /// as consecutive child spans laid from the start of the open span
    /// `under`. Their order is the callee's execution order; gaps between
    /// stages stay in the parent's self time.
    pub fn stages(&mut self, under: Open, id: u64, stages: &[(&'static str, u64)]) {
        let Open(Some(parent)) = under else { return };
        let mut at = self.spans[parent].start_ns;
        for &(name, ns) in stages {
            self.spans.push(Span { name, start_ns: at, end_ns: at + ns, parent: Some(parent), id });
            at += ns;
        }
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Summed duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |sum, d| sum + d)
    }

    /// Per-name `(count, total_ns, self_ns)`; self time is a span's
    /// duration minus the part of it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                child_ns[p] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Share of the spans called `root` that none of their direct
    /// children account for: `(root − Σ children) ÷ root`.
    pub fn unaccounted_share(&self, root: &str) -> f64 {
        match self.self_times().get(root) {
            Some(&(_, total, own)) if total > 0 => own as f64 / total as f64,
            _ => f64::NAN,
        }
    }

    /// The trace file: every span, plus the per-name self-time table.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::Str(s.name.into())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                    ("id", Value::Num(s.id as f64)),
                ])
            })
            .collect();
        let layers = self
            .self_times()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Value::obj([
                        ("count", Value::Num(count as f64)),
                        ("total_ns", Value::Num(total as f64)),
                        ("self_ns", Value::Num(own as f64)),
                    ]),
                )
            })
            .collect();
        Value::obj([
            ("workload", Value::Str(workload.into())),
            ("self_times", Value::Obj(layers)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, id: 0 }
    }

    fn tracer_of(spans: Vec<Span>) -> Tracer {
        Tracer { enabled: true, origin: Instant::now(), spans, stack: Vec::new() }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = tracer_of(vec![
            span("rep", 0, 1_000, None),
            span("close", 100, 700, Some(0)),
            span("advance", 100, 400, Some(1)),
            span("recheck", 400, 600, Some(1)),
            span("sync", 800, 900, Some(0)),
        ]);
        let st = t.self_times();
        assert_eq!(st["rep"], (1, 1_000, 300)); // 1000 − 600 − 100
        assert_eq!(st["close"], (1, 600, 100)); // 600 − 300 − 200
        assert_eq!(st["advance"], (1, 300, 300));
        assert_eq!(t.unaccounted_share("rep"), 0.3);
        assert!(t.unaccounted_share("absent").is_nan());
    }

    #[test]
    fn a_child_that_outlives_its_parent_counts_only_the_overlap() {
        let t = tracer_of(vec![span("p", 0, 100, None), span("c", 50, 400, Some(0))]);
        assert_eq!(t.self_times()["p"], (1, 100, 50));
    }

    #[test]
    fn enter_exit_nest_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::new(true);
        let rep = t.enter("rep", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        t.stages(rep, 7, &[("a", 10), ("b", 5)]);
        t.exit(rep);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(0));
        assert_eq!(t.spans()[3].start_ns, t.spans()[0].start_ns + 10);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let o = off.enter("rep", 0);
        off.stages(o, 0, &[("a", 1)]);
        off.exit(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = tracer_of(vec![span("rep", 0, 10, None)]);
        let b = tracer_of(vec![span("queries", 0, 10, None), span("query", 1, 2, Some(0))]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let file = a.to_json("wire-mixed");
        assert_eq!(file.get("spans").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
        assert!(crate::json::parse(&file.render_pretty()).is_ok());
    }
}
