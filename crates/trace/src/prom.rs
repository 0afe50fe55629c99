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
//! A registry is kept and published into again and again: every `set_*`
//! overwrites its sample in place, and rendering writes into one buffer.
//! Once every family, sample and bucket has been seen, publishing and
//! rendering allocate nothing but the returned text.
//!
//! Rendering is deterministic: families sort by name, samples by label set,
//! and values print through the shared JSON float formatter.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use specasr_metrics::{BoundTexts, Histogram};

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

impl MetricValue {
    /// Overwrites the value with `published`, copying a histogram into the
    /// buckets this value already holds.
    fn assign(&mut self, published: Published<'_>) {
        match (self, published) {
            (MetricValue::Distribution(kept), Published::Histogram(histogram)) => {
                kept.clone_from(histogram);
            }
            (slot, Published::Histogram(histogram)) => {
                *slot = MetricValue::Distribution(histogram.clone());
            }
            (slot, Published::Scalar(value)) => *slot = MetricValue::Scalar(value),
        }
    }
}

/// A value a `set_*` call publishes.
#[derive(Clone, Copy)]
enum Published<'a> {
    Scalar(f64),
    Histogram(&'a Histogram),
}

#[derive(Debug, Clone)]
struct MetricFamily {
    kind: MetricKind,
    help: String,
    /// Keyed by the rendered label set (`""` or `key="value",...`) so
    /// iteration — and therefore exposition — is deterministic.
    samples: BTreeMap<String, MetricValue>,
}

/// Writes a label set into `out` as it appears inside `{...}`, replacing
/// what `out` held.
fn write_label_set(out: &mut String, labels: &[(&str, &str)]) {
    out.clear();
    for (index, (key, value)) in labels.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(value);
        out.push('"');
    }
}

/// Appends `value` in decimal.
fn push_u64(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&digit| char::from(digit)));
}

/// Appends a sample value the way the workspace formats floats in JSON:
/// integral values print without a fraction, everything else shortest
/// round-trip.
fn push_value(out: &mut String, value: f64) {
    if value.is_finite() && value.fract() == 0.0 && value.abs() < 9_007_199_254_740_992.0 {
        let integral = value as i64;
        if integral < 0 {
            out.push('-');
        }
        push_u64(out, integral.unsigned_abs());
    } else {
        let _ = write!(out, "{value}");
    }
}

/// Appends `{labels}`, or nothing for an empty label set.
fn push_braced(out: &mut String, labels: &str) {
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
}

/// A counter/gauge/histogram registry with Prometheus text exposition.
///
/// Publishers use the `set_*` methods to write the current value of each
/// sample.  A registry can be kept and published into again: a `set_*` call
/// finds its family and sample by the borrowed name and labels and
/// overwrites the value in place, copying a histogram into the buckets the
/// sample already holds.  A sample stays until the registry is dropped, so
/// a kept registry renders what a fresh one given the same samples renders.
///
/// `render` remembers the length of the text it returned, to size the next
/// one, in a `Cell`: a registry is `Send` but not `Sync`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, MetricFamily>,
    /// The label set of the sample being published, rendered for lookup.
    labels: String,
    /// The `le` text of every bucket a published histogram has spanned.
    bounds: BoundTexts,
    /// Length of the last text [`MetricsRegistry::render`] returned.
    rendered_len: Cell<usize>,
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
        value: Published<'_>,
    ) {
        let family = match self.families.get_mut(name) {
            Some(family) => family,
            None => self
                .families
                .entry(name.to_owned())
                .or_insert_with(|| MetricFamily {
                    kind,
                    help: help.to_owned(),
                    samples: BTreeMap::new(),
                }),
        };
        assert!(
            family.kind == kind,
            "metric {name} registered as {} and {}",
            family.kind.label(),
            kind.label()
        );
        write_label_set(&mut self.labels, labels);
        let sample = match family.samples.get_mut(self.labels.as_str()) {
            Some(sample) => sample,
            None => family
                .samples
                .entry(self.labels.clone())
                .or_insert(MetricValue::Scalar(0.0)),
        };
        sample.assign(value);
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
            Published::Scalar(value),
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
            Published::Scalar(value),
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
        self.bounds.cover(histogram);
        self.set(
            name,
            help,
            labels,
            MetricKind::Histogram,
            Published::Histogram(histogram),
        );
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Families appear in name order with `# HELP` / `# TYPE` headers;
    /// histograms expand into cumulative `_bucket{le="..."}` series (one per
    /// non-empty bucket plus `+Inf`), `_sum`, and `_count`.  The text is
    /// sized from the previous render, so rendering a kept registry
    /// allocates only the returned `String`.
    pub fn render(&self) -> String {
        let previous = self.rendered_len.get();
        let mut out = String::with_capacity(previous + previous / 8);
        self.render_into(&mut out);
        self.rendered_len.set(out.len());
        out
    }

    /// [`MetricsRegistry::render`] appended to `out`: allocates nothing
    /// while `out` has room.
    fn render_into(&self, out: &mut String) {
        for (name, family) in &self.families {
            for (header, text) in [
                ("# HELP ", family.help.as_str()),
                ("# TYPE ", family.kind.label()),
            ] {
                out.push_str(header);
                out.push_str(name);
                out.push(' ');
                out.push_str(text);
                out.push('\n');
            }
            for (labels, value) in &family.samples {
                match value {
                    MetricValue::Scalar(scalar) => {
                        out.push_str(name);
                        push_braced(out, labels);
                        out.push(' ');
                        push_value(out, *scalar);
                        out.push('\n');
                    }
                    MetricValue::Distribution(histogram) => {
                        self.render_histogram(out, name, labels, histogram);
                    }
                }
            }
        }
    }

    fn render_histogram(&self, out: &mut String, name: &str, labels: &str, histogram: &Histogram) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut bucket_line = |le: &str, cumulative: u64| {
            out.push_str(name);
            out.push_str("_bucket{");
            out.push_str(labels);
            out.push_str(sep);
            out.push_str("le=\"");
            out.push_str(le);
            out.push_str("\"} ");
            push_u64(out, cumulative);
            out.push('\n');
        };
        let mut cumulative = 0u64;
        // Keep the exposition compact: only buckets that change the cumulative
        // count get a line (plus the mandatory +Inf terminator).
        for (le, count) in self.bounds.buckets(histogram) {
            cumulative += count;
            bucket_line(le, cumulative);
        }
        bucket_line("+Inf", histogram.count());
        out.push_str(name);
        out.push_str("_sum");
        push_braced(out, labels);
        out.push(' ');
        push_value(out, histogram.sum());
        out.push('\n');
        out.push_str(name);
        out.push_str("_count");
        push_braced(out, labels);
        out.push(' ');
        push_u64(out, histogram.count());
        out.push('\n');
    }
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

    #[test]
    fn values_print_like_the_json_float_formatter() {
        let values = [
            (-3.0, "-3"),
            (-0.0, "0"),
            (0.5, "0.5"),
            (-2.25, "-2.25"),
            (123_456_789.0, "123456789"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (1e20, "100000000000000000000"),
            (f64::INFINITY, "inf"),
            (f64::NAN, "NaN"),
        ];
        let mut registry = MetricsRegistry::new();
        for (index, (value, _)) in values.iter().enumerate() {
            let label = index.to_string();
            registry.set_gauge("v", "values", &[("i", &label)], *value);
        }
        let text = registry.render();
        for (index, (value, printed)) in values.iter().enumerate() {
            let line = format!("v{{i=\"{index}\"}} {printed}\n");
            assert!(text.contains(&line), "{value} as `{line}`:\n{text}");
        }
    }

    #[test]
    fn republishing_a_kept_registry_overwrites_in_place() {
        let mut wide = Histogram::new();
        for value in [0.0, 0.002, 3.0, 40_000.0] {
            wide.record(value);
        }
        let mut narrow = Histogram::new();
        narrow.record(7.0);
        let mut kept = MetricsRegistry::new();
        kept.set_counter("req_total", "requests", &[("class", "a")], 1.0);
        kept.set_histogram("lat_ms", "latency", &[], &wide);
        kept.set_histogram("lat_ms", "latency", &[], &narrow);
        kept.set_counter("req_total", "requests", &[("class", "a")], 2.0);
        let mut fresh = MetricsRegistry::new();
        fresh.set_histogram("lat_ms", "latency", &[], &narrow);
        fresh.set_counter("req_total", "requests", &[("class", "a")], 2.0);
        assert_eq!(kept.render(), fresh.render());
        assert_eq!(kept.len(), 2);
        // The kept texts of the wide range's buckets serve a later copy.
        kept.set_histogram("lat_ms", "latency", &[], &wide);
        fresh.set_histogram("lat_ms", "latency", &[], &wide);
        assert_eq!(kept.render(), fresh.render());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One family of each kind, and a second counter.
    const FAMILIES: [(&str, MetricKind); 4] = [
        ("a_total", MetricKind::Counter),
        ("b_level", MetricKind::Gauge),
        ("c_latency_ms", MetricKind::Histogram),
        ("d_total", MetricKind::Counter),
    ];

    /// Label sets, listed in an order their rendered texts do not sort in.
    const LABELS: [&[(&str, &str)]; 4] = [
        &[("w", "1")],
        &[],
        &[("w", "0"), ("x", "y")],
        &[("class", "best-effort")],
    ];

    /// A well-mixed draw from `seed` and `salt` (splitmix64's finaliser).
    fn mix(seed: u64, salt: u64) -> u64 {
        let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Publishes sample `(family, labels)` with a value drawn from `seed`:
    /// an integral counter, a signed fractional gauge, or a histogram of up
    /// to five latencies between 10⁻³ and 10⁵ ms (one in five exactly 0),
    /// so bucket ranges move both ways from round to round.
    fn publish(registry: &mut MetricsRegistry, (family, labels): (usize, usize), seed: u64) {
        let draw = mix(seed, (family * LABELS.len() + labels) as u64);
        let (name, kind) = FAMILIES[family];
        let labels = LABELS[labels];
        let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
        match kind {
            MetricKind::Counter => {
                registry.set_counter(name, "a total", labels, (draw % 100_000) as f64)
            }
            MetricKind::Gauge => {
                registry.set_gauge(name, "a level", labels, (unit(draw) - 0.5) * 1e3)
            }
            MetricKind::Histogram => {
                let mut histogram = Histogram::new();
                for k in 0..draw % 6 {
                    let bits = mix(draw, k);
                    histogram.record(if bits.is_multiple_of(5) {
                        0.0
                    } else {
                        10f64.powf(8.0 * unit(bits) - 3.0)
                    });
                }
                registry.set_histogram(name, "a latency", labels, &histogram);
            }
        }
    }

    proptest! {
        /// Rounds of publishing into one kept registry: each round re-sets
        /// every earlier sample with a new value, adds new samples, and
        /// publishes in a random order.  After every round the kept
        /// registry renders what a fresh registry given only that round
        /// renders.
        #[test]
        fn a_kept_registry_renders_like_a_fresh_one_given_the_last_round(
            rounds in proptest::collection::vec(
                (proptest::collection::vec((0usize..4, 0usize..4), 0..6), any::<u64>()),
                1..6,
            ),
        ) {
            let mut kept = MetricsRegistry::new();
            let mut samples: Vec<(usize, usize)> = Vec::new();
            for (added, seed) in rounds {
                for sample in added {
                    if !samples.contains(&sample) {
                        samples.push(sample);
                    }
                }
                samples.sort_by_key(|&(family, labels)| mix(!seed, (family * 8 + labels) as u64));
                let mut fresh = MetricsRegistry::new();
                for &sample in &samples {
                    publish(&mut kept, sample, seed);
                }
                for &sample in samples.iter().rev() {
                    publish(&mut fresh, sample, seed);
                }
                prop_assert_eq!(kept.render(), fresh.render());
            }
        }
    }
}
