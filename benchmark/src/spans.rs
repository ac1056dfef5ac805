//! The benchmark's own spans: one around every call into a layer,
//! recorded in memory and written out when the run ends.
//!
//! A span is `(name, start, end, parent, batch)`. Spans nest by call
//! order — the parent of a new span is the innermost one still open — so
//! a layer's *self time* is its duration minus the time its children
//! cover, and the self times under a root sum to the root exactly.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call the span wraps (`"serve"`, `"submit"`, …).
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Batch the span belongs to: the identifier spans of one batch share.
    pub batch: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Spans::begin`].
#[must_use = "an open span must be closed with Spans::end"]
pub struct Open(Option<usize>);

/// In-memory span recorder. A disabled recorder (end-to-end runs, which
/// measure with tracing off) records nothing and costs one branch.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, batch: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Close a span. Spans close innermost-first.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn within<R>(&mut self, name: &'static str, batch: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, batch);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut selfs: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                selfs[p] = selfs[p].saturating_sub(s.duration_ns());
            }
        }
        selfs
    }

    /// For every root span named `root`: the share of its wall time its
    /// direct children cover. The median over roots is the coverage the
    /// acceptance criterion asks about.
    pub fn child_coverage(&self, root: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == root && s.duration_ns() > 0)
            .map(|(s, &c)| c as f64 / s.duration_ns() as f64)
            .collect()
    }

    /// Total self time per span name, descending — the "where did the
    /// time go" table of a traced run.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += self_ns,
                None => totals.push((s.name, self_ns)),
            }
        }
        totals.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        totals
    }

    /// The spans in Chrome trace format (`chrome://tracing`, Perfetto):
    /// complete (`"X"`) events in microseconds, batch id and self time in
    /// `args`.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("batch", Json::Num(s.batch as f64)),
                            ("self_us", Json::Num(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans (times in ns).
    fn fixture() -> Spans {
        let mut s = Spans::new(true);
        let span = |name, start_ns, end_ns, parent, batch| Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch,
        };
        s.spans = vec![
            span("batch", 0, 1000, None, 7),
            span("submit", 10, 110, Some(0), 7),
            span("serve", 110, 990, Some(0), 7),
            span("run_spmd", 200, 900, Some(2), 7),
            span("batch", 1000, 1500, None, 8),
            span("serve", 1000, 1500, Some(4), 8),
        ];
        s
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = fixture();
        // batch 7: 1000 - (100 + 880); serve: 880 - 700; leaves keep all.
        assert_eq!(s.self_times_ns(), vec![20, 100, 180, 700, 0, 500]);
    }

    #[test]
    fn self_times_under_a_root_sum_to_the_root() {
        let s = fixture();
        let selfs = s.self_times_ns();
        assert_eq!(selfs[..4].iter().sum::<u64>(), s.all()[0].duration_ns());
        assert_eq!(selfs[4..].iter().sum::<u64>(), s.all()[4].duration_ns());
    }

    #[test]
    fn coverage_is_children_over_root() {
        let s = fixture();
        assert_eq!(s.child_coverage("batch"), vec![0.98, 1.0]);
        assert!(s.child_coverage("absent").is_empty());
    }

    #[test]
    fn self_time_by_name_aggregates_and_sorts() {
        let s = fixture();
        assert_eq!(
            s.self_time_by_name(),
            vec![
                ("run_spmd", 700),
                ("serve", 680),
                ("submit", 100),
                ("batch", 20)
            ]
        );
    }

    #[test]
    fn live_recording_nests_by_call_order() {
        let mut s = Spans::new(true);
        let outer = s.begin("batch", 1);
        s.within("serve", 1, || std::hint::black_box(3 + 4));
        s.end(outer);
        assert_eq!(s.all().len(), 2);
        assert_eq!(s.all()[0].parent, None);
        assert_eq!(s.all()[1].parent, Some(0));
        assert!(s.all()[0].duration_ns() >= s.all()[1].duration_ns());
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let o = s.begin("batch", 1);
        assert_eq!(s.within("serve", 1, || 5), 5);
        s.end(o);
        assert!(s.all().is_empty());
    }
}
