//! A Prometheus-style metrics registry with deterministic text exposition.
//!
//! The serving stack's aggregate stats (`ServerStats`, `MemoryStats`,
//! `BackendStats`) publish into a [`MetricsRegistry`]; the registry renders
//! the standard text exposition format (`# HELP` / `# TYPE` headers,
//! `name{labels} value` samples, cumulative `_bucket`/`_sum`/`_count`
//! histogram series).  Histograms are [`specasr_metrics::Histogram`] — the
//! same fixed log-spaced buckets the stats layer reads its percentiles from,
//! so a bucket's `le` bound depends only on the bucket and stays put from one
//! scrape to the next.
//!
//! Rendering is deterministic: families sort by name, samples by label set,
//! and values print through the shared JSON float formatter.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use specasr_metrics::Histogram;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum MetricValue {
    Scalar(f64),
    Distribution(Histogram),
}

#[derive(Debug, Clone)]
struct MetricFamily {
    kind: MetricKind,
    help: String,
    /// Keyed by the rendered label set (`""` or `key="value",...`) so
    /// iteration — and therefore exposition — is deterministic.
    samples: BTreeMap<String, MetricValue>,
}

/// Renders a label set as it appears inside `{...}`.
fn label_set(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (index, (key, value)) in labels.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{value}\"");
    }
    out
}

/// Formats a sample value the way the workspace formats floats in JSON:
/// integral values print without a fraction, everything else shortest
/// round-trip.
fn format_value(value: f64) -> String {
    if value.is_finite() && value.fract() == 0.0 && value.abs() < 9_007_199_254_740_992.0 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// A counter/gauge/histogram registry with Prometheus text exposition.
///
/// Publishers use the `set_*` methods to write snapshot values (the
/// registry is a *snapshot* of end-of-run stats, not a live atomically
/// updated store).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, MetricFamily>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Number of metric families registered.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn set(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        value: MetricValue,
    ) {
        let family = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| MetricFamily {
                kind,
                help: help.to_string(),
                samples: BTreeMap::new(),
            });
        assert!(
            family.kind == kind,
            "metric {name} registered as {} and {}",
            family.kind.label(),
            kind.label()
        );
        family.samples.insert(label_set(labels), value);
    }

    /// Publishes a counter sample (a monotonically accumulated total).
    ///
    /// # Panics
    ///
    /// Panics when `name` was already registered with a different kind.
    pub fn set_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.set(
            name,
            help,
            labels,
            MetricKind::Counter,
            MetricValue::Scalar(value),
        );
    }

    /// Publishes a gauge sample (a point-in-time level).
    ///
    /// # Panics
    ///
    /// Panics when `name` was already registered with a different kind.
    pub fn set_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.set(
            name,
            help,
            labels,
            MetricKind::Gauge,
            MetricValue::Scalar(value),
        );
    }

    /// Publishes a histogram sample (a copy of `histogram`).
    ///
    /// # Panics
    ///
    /// Panics when `name` was already registered with a different kind.
    pub fn set_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        histogram: &Histogram,
    ) {
        self.set(
            name,
            help,
            labels,
            MetricKind::Histogram,
            MetricValue::Distribution(histogram.clone()),
        );
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Families appear in name order with `# HELP` / `# TYPE` headers;
    /// histograms expand into cumulative `_bucket{le="..."}` series (one per
    /// non-empty bucket plus `+Inf`), `_sum`, and `_count`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.label());
            for (labels, value) in &family.samples {
                match value {
                    MetricValue::Scalar(scalar) => {
                        let braces = if labels.is_empty() {
                            String::new()
                        } else {
                            format!("{{{labels}}}")
                        };
                        let _ = writeln!(out, "{name}{braces} {}", format_value(*scalar));
                    }
                    MetricValue::Distribution(histogram) => {
                        render_histogram(&mut out, name, labels, histogram);
                    }
                }
            }
        }
        out
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, histogram: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    // Keep the exposition compact: only buckets that change the cumulative
    // count get a line (plus the mandatory +Inf terminator).
    for (upper, count) in histogram.buckets() {
        cumulative += count;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{upper}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        histogram.count()
    );
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{braces} {}", format_value(histogram.sum()));
    let _ = writeln!(out, "{name}_count{braces} {}", histogram.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_families_in_name_order_with_headers() {
        let mut registry = MetricsRegistry::new();
        registry.set_gauge("b_gauge", "a level", &[], 2.5);
        registry.set_counter("a_total", "a total", &[], 3.0);
        let text = registry.render();
        let a = text.find("# TYPE a_total counter").expect("counter header");
        let b = text.find("# TYPE b_gauge gauge").expect("gauge header");
        assert!(a < b, "families sort by name:\n{text}");
        assert!(text.contains("a_total 3\n"));
        assert!(text.contains("b_gauge 2.5\n"));
    }

    #[test]
    fn labelled_samples_sort_within_family() {
        let mut registry = MetricsRegistry::new();
        registry.set_counter("req_total", "requests", &[("class", "batch")], 1.0);
        registry.set_counter("req_total", "requests", &[("class", "agent")], 2.0);
        let text = registry.render();
        let agent = text.find("req_total{class=\"agent\"} 2").expect("agent");
        let batch = text.find("req_total{class=\"batch\"} 1").expect("batch");
        assert!(agent < batch);
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let mut histogram = Histogram::new();
        for value in [0.0, 1.0, 1.0, 100.0] {
            histogram.record(value);
        }
        let mut registry = MetricsRegistry::new();
        registry.set_histogram("lat_ms", "latency", &[], &histogram);
        let text = registry.render();
        assert!(text.contains("# TYPE lat_ms histogram"), "{text}");
        assert!(text.contains("lat_ms_bucket{le=\"0\"} 1\n"), "{text}");
        assert!(text.contains("lat_ms_bucket{le=\"1\"} 3\n"), "{text}");
        // 100 ms lands in the bucket just above it: 1.01^463 ≈ 100.18.
        assert!(text.contains("lat_ms_bucket{le=\"100.18"), "{text}");
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 4\n"), "{text}");
        assert_eq!(text.matches("lat_ms_bucket").count(), 4, "{text}");
        assert!(text.contains("lat_ms_count 4\n"), "{text}");
        assert!(text.contains("lat_ms_sum 102\n"), "{text}");
    }

    #[test]
    fn merge_is_deterministic_regardless_of_publish_order() {
        let mut a = MetricsRegistry::new();
        a.set_counter("x_total", "x", &[("w", "0")], 1.0);
        a.set_counter("x_total", "x", &[("w", "1")], 2.0);
        let mut b = MetricsRegistry::new();
        b.set_counter("x_total", "x", &[("w", "1")], 2.0);
        b.set_counter("x_total", "x", &[("w", "0")], 1.0);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    #[should_panic(expected = "registered as counter and gauge")]
    fn kind_conflicts_panic() {
        let mut registry = MetricsRegistry::new();
        registry.set_counter("x", "x", &[], 1.0);
        registry.set_gauge("x", "x", &[], 1.0);
    }
}
