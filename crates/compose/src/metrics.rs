//! A small metrics registry with Prometheus-style text exposition.
//!
//! [`PlanService`](crate::PlanService) keeps one [`Metrics`] instance and
//! feeds it at admission and serve time; [`metrics_text`](crate::PlanService::metrics_text)
//! renders the whole registry in the Prometheus text exposition format
//! (`# HELP` / `# TYPE` headers, one `name{labels} value` sample per
//! line) so any scraper — or a test with a line parser — can consume it.
//!
//! The registry is deliberately tiny and dependency-free:
//!
//! * **Counters** are monotone `u64`s.
//! * **Gauges** are last-write-wins `f64`s.
//! * **Histograms** have fixed upper bounds declared once via
//!   [`Metrics::describe_histogram`] and render cumulative `_bucket`
//!   series plus `_sum`/`_count`.
//! * **Summaries** carry precomputed quantiles (the service's latency
//!   [`Digest`](archetype_pipeline::apps::Digest)s already know their
//!   p50/p99) plus cumulative `_sum`/`_count`.
//!
//! Series are keyed by `(name, sorted label pairs)` in `BTreeMap`s, so
//! the rendered text is deterministic — same history, same bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One labeled time series: metric name plus sorted `(key, value)` label
/// pairs.
type Series = (&'static str, Vec<(&'static str, String)>);

/// Fixed-bound histogram state.
#[derive(Clone, Debug)]
struct Histogram {
    /// Upper bounds of the buckets, ascending; an implicit `+Inf` bucket
    /// follows.
    bounds: Vec<f64>,
    /// Per-bound observation counts (non-cumulative; rendering
    /// accumulates).
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

/// Summary state: externally computed quantiles plus running totals.
#[derive(Clone, Debug, Default)]
struct Summary {
    /// `(quantile, value)` pairs, e.g. `(0.5, 1.25e-3)`; last write wins.
    quantiles: Vec<(f64, f64)>,
    sum: f64,
    count: u64,
}

/// What a metric name is declared as; governs the `# TYPE` header and
/// which storage the samples live in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Last-write-wins gauge.
    Gauge,
    /// Fixed-bound histogram (declare via
    /// [`Metrics::describe_histogram`]).
    Histogram,
    /// Quantile summary.
    Summary,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Summary => "summary",
        }
    }
}

/// The registry. See the module docs; construct with [`Metrics::new`],
/// declare names with the `describe*` methods, then feed samples.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// `name -> (kind, help)`, in declaration order via BTreeMap key
    /// order.
    descs: BTreeMap<&'static str, (MetricKind, &'static str)>,
    /// Histogram bucket bounds per declared histogram name.
    bounds: BTreeMap<&'static str, Vec<f64>>,
    counters: BTreeMap<Series, u64>,
    gauges: BTreeMap<Series, f64>,
    histograms: BTreeMap<Series, Histogram>,
    summaries: BTreeMap<Series, Summary>,
}

/// Normalize a label set: owned values, sorted by key for a canonical
/// series identity.
fn series(name: &'static str, labels: &[(&'static str, &str)]) -> Series {
    let mut ls: Vec<(&'static str, String)> =
        labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
    ls.sort_by_key(|&(k, _)| k);
    (name, ls)
}

/// Escape a label value per the exposition format: backslash, quote,
/// newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a float the way Prometheus expects (`+Inf`, integral values
/// without an exponent, shortest round-trip otherwise).
fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Format `name{k="v",...}` with an optional extra label appended (used
/// for `le` / `quantile`).
fn fmt_series(
    name: &str,
    labels: &[(&'static str, String)],
    extra: Option<(&str, &str)>,
) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", parts.join(","))
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Declare a counter, gauge, or summary name with its help text.
    /// Idempotent; histograms use [`Metrics::describe_histogram`].
    pub fn describe(&mut self, name: &'static str, kind: MetricKind, help: &'static str) {
        assert!(
            kind != MetricKind::Histogram,
            "histograms need bounds; use describe_histogram"
        );
        self.descs.insert(name, (kind, help));
    }

    /// Declare a histogram with its bucket upper bounds (ascending; an
    /// implicit `+Inf` bucket is always appended at render time).
    pub fn describe_histogram(&mut self, name: &'static str, help: &'static str, bounds: &[f64]) {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "ascending bounds");
        self.descs.insert(name, (MetricKind::Histogram, help));
        self.bounds.insert(name, bounds.to_vec());
    }

    /// Add `by` to a counter series (created at zero on first touch).
    pub fn inc(&mut self, name: &'static str, labels: &[(&'static str, &str)], by: u64) {
        *self.counters.entry(series(name, labels)).or_insert(0) += by;
    }

    /// Set a gauge series.
    pub fn set(&mut self, name: &'static str, labels: &[(&'static str, &str)], value: f64) {
        self.gauges.insert(series(name, labels), value);
    }

    /// Record one observation into a histogram series. The name must
    /// have been declared with [`Metrics::describe_histogram`].
    pub fn observe(&mut self, name: &'static str, labels: &[(&'static str, &str)], value: f64) {
        let bounds = self
            .bounds
            .get(name)
            .unwrap_or_else(|| panic!("histogram {name} was never described"))
            .clone();
        let h = self
            .histograms
            .entry(series(name, labels))
            .or_insert_with(|| Histogram {
                counts: vec![0; bounds.len()],
                bounds,
                sum: 0.0,
                count: 0,
            });
        if let Some(i) = h.bounds.iter().position(|&b| value <= b) {
            h.counts[i] += 1;
        }
        h.sum += value;
        h.count += 1;
    }

    /// Fold a pre-aggregated batch into a summary series: add
    /// `sum`/`count` to the running totals and replace the published
    /// quantiles.
    pub fn observe_summary(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        sum: f64,
        count: u64,
        quantiles: &[(f64, f64)],
    ) {
        let s = self.summaries.entry(series(name, labels)).or_default();
        s.sum += sum;
        s.count += count;
        s.quantiles = quantiles.to_vec();
    }

    /// Overwrite a counter series with an absolute cumulative value —
    /// for mirroring counters owned elsewhere (e.g. the plan service's
    /// [`CacheStats`](crate::CacheStats), which are already monotone).
    pub fn sync_counter(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        value: u64,
    ) {
        self.counters.insert(series(name, labels), value);
    }

    /// The current value of a counter series (0 if never touched); test
    /// and introspection helper.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        self.counters
            .get(&series(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// The current value of a gauge series, if set.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Option<f64> {
        self.gauges.get(&series(name, labels)).copied()
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format. Deterministic: same history, same bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (&name, &(kind, help)) in &self.descs {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
            match kind {
                MetricKind::Counter => {
                    for ((n, labels), v) in &self.counters {
                        if *n == name {
                            let _ = writeln!(out, "{} {v}", fmt_series(name, labels, None));
                        }
                    }
                }
                MetricKind::Gauge => {
                    for ((n, labels), v) in &self.gauges {
                        if *n == name {
                            let _ = writeln!(
                                out,
                                "{} {}",
                                fmt_series(name, labels, None),
                                fmt_value(*v)
                            );
                        }
                    }
                }
                MetricKind::Histogram => {
                    for ((n, labels), h) in &self.histograms {
                        if *n != name {
                            continue;
                        }
                        let mut cum = 0u64;
                        for (b, c) in h.bounds.iter().zip(&h.counts) {
                            cum += c;
                            let le = fmt_value(*b);
                            let series =
                                fmt_series(&format!("{name}_bucket"), labels, Some(("le", &le)));
                            let _ = writeln!(out, "{series} {cum}");
                        }
                        let inf =
                            fmt_series(&format!("{name}_bucket"), labels, Some(("le", "+Inf")));
                        let _ = writeln!(out, "{inf} {}", h.count);
                        let _ = writeln!(
                            out,
                            "{} {}",
                            fmt_series(&format!("{name}_sum"), labels, None),
                            fmt_value(h.sum)
                        );
                        let _ = writeln!(
                            out,
                            "{} {}",
                            fmt_series(&format!("{name}_count"), labels, None),
                            h.count
                        );
                    }
                }
                MetricKind::Summary => {
                    for ((n, labels), s) in &self.summaries {
                        if *n != name {
                            continue;
                        }
                        for &(q, v) in &s.quantiles {
                            let qs = fmt_value(q);
                            let series = fmt_series(name, labels, Some(("quantile", &qs)));
                            let _ = writeln!(out, "{series} {}", fmt_value(v));
                        }
                        let _ = writeln!(
                            out,
                            "{} {}",
                            fmt_series(&format!("{name}_sum"), labels, None),
                            fmt_value(s.sum)
                        );
                        let _ = writeln!(
                            out,
                            "{} {}",
                            fmt_series(&format!("{name}_count"), labels, None),
                            s.count
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = Metrics::new();
        m.describe("req_total", MetricKind::Counter, "requests");
        m.inc("req_total", &[("code", "200")], 2);
        m.inc("req_total", &[("code", "200")], 1);
        m.inc("req_total", &[("code", "500")], 1);
        assert_eq!(m.counter("req_total", &[("code", "200")]), 3);
        assert_eq!(m.counter("req_total", &[("code", "500")]), 1);
        assert_eq!(m.counter("req_total", &[("code", "404")]), 0);
        let text = m.render();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{code=\"200\"} 3"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets_and_inf() {
        let mut m = Metrics::new();
        m.describe_histogram("lat", "latency", &[0.1, 1.0]);
        for v in [0.05, 0.5, 0.5, 5.0] {
            m.observe("lat", &[], v);
        }
        let text = m.render();
        assert!(text.contains("lat_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("lat_bucket{le=\"1\"} 3"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("lat_count 4"));
        assert!(text.contains("lat_sum 6.05"));
    }

    #[test]
    fn summary_folds_batches_and_replaces_quantiles() {
        let mut m = Metrics::new();
        m.describe("t_lat", MetricKind::Summary, "tenant latency");
        m.observe_summary("t_lat", &[("tenant", "7")], 3.0, 2, &[(0.5, 1.5)]);
        m.observe_summary("t_lat", &[("tenant", "7")], 1.0, 1, &[(0.5, 1.0)]);
        let text = m.render();
        assert!(text.contains("t_lat{tenant=\"7\",quantile=\"0.5\"} 1"));
        assert!(text.contains("t_lat_sum{tenant=\"7\"} 4"));
        assert!(text.contains("t_lat_count{tenant=\"7\"} 3"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut m = Metrics::new();
        m.describe("g", MetricKind::Gauge, "a gauge");
        m.set("g", &[("path", "a\"b\\c\nd")], 1.0);
        assert!(m.render().contains(r#"g{path="a\"b\\c\nd"} 1"#));
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let build = |order_flip: bool| {
            let mut m = Metrics::new();
            m.describe("z_total", MetricKind::Counter, "z");
            m.describe("a_gauge", MetricKind::Gauge, "a");
            if order_flip {
                m.set("a_gauge", &[], 2.0);
                m.inc("z_total", &[("t", "1")], 1);
            } else {
                m.inc("z_total", &[("t", "1")], 1);
                m.set("a_gauge", &[], 2.0);
            }
            m.render()
        };
        let text = build(false);
        assert_eq!(text, build(true));
        let a = text.find("a_gauge").unwrap();
        let z = text.find("z_total").unwrap();
        assert!(a < z, "names render in sorted order");
    }
}
