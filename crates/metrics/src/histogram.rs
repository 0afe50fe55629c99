//! The one latency histogram: fixed log-spaced buckets, merged by adding
//! counts.

use std::fmt::Write as _;

/// Ratio between consecutive bucket bounds: every bucket spans at most 1%
/// relative width.
const GAMMA: f64 = 1.01;

/// `GAMMA.ln()` (`f64::ln` is not `const`).
const LN_GAMMA: f64 = 0.009_950_330_853_168_092;

/// A latency histogram with fixed, log-spaced buckets.
///
/// Bucket `i` holds the values in `(GAMMA^(i-1), GAMMA^i]` with
/// `GAMMA = 1.01`, and one more bucket holds every value `≤ 0` (a queue wait
/// of exactly 0 is common).  The bounds are a fixed function of the value, as
/// in DDSketch and HdrHistogram, so:
///
/// * [`Histogram::record`] is O(1) and [`Histogram::merge`] adds counts bucket
///   by bucket — merging is exact, associative and order-independent;
/// * storage spans the buckets between the smallest and the largest value
///   seen (about 231 buckets per decade of range), whatever the count;
/// * [`Histogram::percentile`] reads within [`Histogram::RELATIVE_ERROR`]
///   (0.4975%) of the exact nearest-rank percentile of the recorded values.
///
/// # Example
///
/// ```
/// use specasr_metrics::Histogram;
///
/// let mut fast = Histogram::new();
/// let mut slow = Histogram::new();
/// for v in [10.0, 20.0, 30.0] {
///     fast.record(v);
/// }
/// slow.record(500.0);
/// fast.merge(&slow);
/// assert_eq!(fast.count(), 4);
/// assert_eq!(fast.sum(), 560.0);
/// let p50 = fast.percentile(0.50);
/// assert!((p50 - 20.0).abs() <= 20.0 * Histogram::RELATIVE_ERROR);
/// ```
#[derive(Debug, Default, PartialEq)]
pub struct Histogram {
    /// Count of values `≤ 0`.
    zero: u64,
    /// Bucket index of `counts[0]`.
    offset: i32,
    /// Counts of buckets `offset..offset + counts.len()`; empty until a
    /// positive value arrives.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// Largest relative error of [`Histogram::percentile`] against the exact
    /// nearest-rank percentile, for positive values: `(GAMMA - 1) /
    /// (GAMMA + 1)`.  Values `≤ 0` read as exactly 0.
    pub const RELATIVE_ERROR: f64 = (GAMMA - 1.0) / (GAMMA + 1.0);

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Empties the histogram, keeping its bucket buffer for the values to
    /// come: refilled over the same range, it allocates nothing.
    pub fn reset(&mut self) {
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        *self = Histogram {
            counts,
            ..Histogram::default()
        };
    }

    /// Records one observation.  NaN counts as `≤ 0`; `+∞` lands in the
    /// bucket of `f64::MAX`.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        self.sum += value;
        if value > 0.0 {
            let index = (value.min(f64::MAX).ln() / LN_GAMMA).ceil() as i32;
            self.cover(index, index);
            self.counts[(index - self.offset) as usize] += 1;
        } else {
            self.zero += 1;
        }
    }

    /// Adds `other`'s counts into this histogram, bucket by bucket.  The
    /// counts, and so every percentile, do not depend on the order of the
    /// merges: they equal those of one histogram that recorded every value.
    /// Only [`Histogram::sum`] is a float sum, exact up to rounding.
    ///
    /// # Example
    ///
    /// ```
    /// use specasr_metrics::Histogram;
    ///
    /// let mut pooled = Histogram::new();
    /// let mut worker = Histogram::new();
    /// for v in [10.0, 20.0, 500.0] {
    ///     pooled.record(v);
    /// }
    /// worker.record(500.0);
    /// let mut fleet = Histogram::new();
    /// fleet.record(20.0);
    /// fleet.record(10.0);
    /// fleet.merge(&worker);
    /// assert_eq!(fleet, pooled);
    /// ```
    pub fn merge(&mut self, other: &Histogram) {
        self.zero += other.zero;
        self.total += other.total;
        self.sum += other.sum;
        if let Some(last) = other.last_index() {
            self.cover(other.offset, last);
            let start = (other.offset - self.offset) as usize;
            for (count, add) in self.counts[start..].iter_mut().zip(&other.counts) {
                *count += add;
            }
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of the recorded observations (0 if none), for the `_sum` series
    /// of a Prometheus histogram.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The non-empty buckets in ascending order, as `(upper bound, count)`:
    /// the `≤ 0` bucket first (bound 0), then each log-spaced bucket.  A
    /// bucket's bound depends only on its index.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.indexed_buckets()
            .map(|(index, count)| (index.map_or(0.0, upper_bound), count))
    }

    /// [`Histogram::buckets`] by bucket index: `None` is the `≤ 0` bucket.
    fn indexed_buckets(&self) -> impl Iterator<Item = (Option<i32>, u64)> + '_ {
        let zero = (self.zero > 0).then_some((None, self.zero));
        let positive = (self.offset..)
            .zip(&self.counts)
            .filter(|&(_, &count)| count > 0)
            .map(|(index, &count)| (Some(index), count));
        zero.into_iter().chain(positive)
    }

    /// The `quantile` (in `[0, 1]`) of the recorded values: the estimate of
    /// the nearest-rank value, the `⌈quantile · count⌉`-th smallest (at least
    /// the first), within [`Histogram::RELATIVE_ERROR`] of it.  0 when
    /// nothing was recorded.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]`.
    pub fn percentile(&self, quantile: f64) -> f64 {
        Histogram::percentile_of([self], quantile)
    }

    /// [`Histogram::percentile`] of `parts` merged, read in place: equal, bit
    /// for bit, to merging them into one histogram first.
    ///
    /// # Example
    ///
    /// ```
    /// use specasr_metrics::Histogram;
    ///
    /// let mut a = Histogram::new();
    /// let mut b = Histogram::new();
    /// a.record(10.0);
    /// b.record(20.0);
    /// b.record(500.0);
    /// let p99 = Histogram::percentile_of([&a, &b], 0.99);
    /// a.merge(&b);
    /// assert_eq!(p99.to_bits(), a.percentile(0.99).to_bits());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]`.
    pub fn percentile_of<'a, I>(parts: I, quantile: f64) -> f64
    where
        I: IntoIterator<Item = &'a Histogram>,
        I::IntoIter: Clone,
    {
        assert!(
            (0.0..=1.0).contains(&quantile),
            "quantile must lie in [0, 1]"
        );
        let parts = parts.into_iter();
        let total: u64 = parts.clone().map(|part| part.total).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((quantile * total as f64).ceil() as u64).max(1);
        let mut cumulative: u64 = parts.clone().map(|part| part.zero).sum();
        if cumulative >= rank {
            return 0.0;
        }
        let first = parts.clone().filter_map(Histogram::first_index).min();
        let last = parts.clone().filter_map(Histogram::last_index).max();
        let (Some(first), Some(last)) = (first, last) else {
            return 0.0;
        };
        for index in first..=last {
            cumulative += parts.clone().map(|part| part.count_at(index)).sum::<u64>();
            if cumulative >= rank {
                return estimate(index);
            }
        }
        estimate(last)
    }

    fn first_index(&self) -> Option<i32> {
        (!self.counts.is_empty()).then_some(self.offset)
    }

    fn last_index(&self) -> Option<i32> {
        (!self.counts.is_empty()).then(|| self.offset + self.counts.len() as i32 - 1)
    }

    fn count_at(&self, index: i32) -> u64 {
        usize::try_from(index - self.offset)
            .ok()
            .and_then(|slot| self.counts.get(slot))
            .map_or(0, |&count| count)
    }

    /// Grows the store to span buckets `first..=last` too.
    fn cover(&mut self, first: i32, last: i32) {
        let Some(own_last) = self.last_index() else {
            self.offset = first;
            self.counts.resize((last - first + 1) as usize, 0);
            return;
        };
        if last > own_last {
            self.counts.resize((last - self.offset + 1) as usize, 0);
        }
        if first < self.offset {
            let grow = (self.offset - first) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.offset = first;
        }
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram {
            counts: self.counts.clone(),
            ..*self
        }
    }

    /// Copies `source` into this histogram, reusing the bucket buffer: once
    /// the buffer spans as many buckets, the copy allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.counts.clone_from(&source.counts);
        self.zero = source.zero;
        self.offset = source.offset;
        self.total = source.total;
        self.sum = source.sum;
    }
}

/// The bound texts of the buckets histograms span, each formatted once.
///
/// A bucket's upper bound depends only on its index, so an exposition
/// rendered again and again (a Prometheus `le` label per bucket) can copy
/// each bound's text instead of formatting the float on every line.
/// [`BoundTexts::cover`] formats the texts a histogram needs that are not
/// there yet; [`BoundTexts::buckets`] then reads its buckets with them.
#[derive(Debug, Clone, Default)]
pub struct BoundTexts {
    /// Bucket index of `spans[0]`.
    first: i32,
    /// Where each bucket's text sits in `text`, from bucket `first` on.
    spans: Vec<(usize, usize)>,
    text: String,
}

impl BoundTexts {
    /// Formats the texts of the buckets `histogram` spans that are not
    /// there yet.
    pub fn cover(&mut self, histogram: &Histogram) {
        let (Some(first), Some(last)) = (histogram.first_index(), histogram.last_index()) else {
            return;
        };
        if self.spans.is_empty() {
            self.first = first;
        }
        let own_last = self.first + self.spans.len() as i32 - 1;
        if last > own_last {
            let added = (own_last + 1..=last).map(|index| push_bound(&mut self.text, index));
            self.spans.extend(added);
        }
        if first < self.first {
            let added = (first..self.first).map(|index| push_bound(&mut self.text, index));
            self.spans.splice(0..0, added);
            self.first = first;
        }
    }

    /// What [`Histogram::buckets`] yields, with each bound as its text
    /// (`{}` of the `f64`).  Panics on a bucket that
    /// [`BoundTexts::cover`] has not covered.
    pub fn buckets<'a>(
        &'a self,
        histogram: &'a Histogram,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        histogram.indexed_buckets().map(|(index, count)| {
            let text = index.map_or("0", |index| {
                let (start, end) = self.spans[(index - self.first) as usize];
                &self.text[start..end]
            });
            (text, count)
        })
    }
}

/// Appends the text of bucket `index`'s bound to `text`, returning where
/// it sits.
fn push_bound(text: &mut String, index: i32) -> (usize, usize) {
    let start = text.len();
    let _ = write!(text, "{}", upper_bound(index));
    (start, text.len())
}

/// The upper bound of bucket `index`: `GAMMA^index`.
fn upper_bound(index: i32) -> f64 {
    (f64::from(index) * LN_GAMMA).exp()
}

/// The value bucket `index` reads as: the point of `(GAMMA^(index-1),
/// GAMMA^index]` with the least worst-case relative error, which is
/// [`Histogram::RELATIVE_ERROR`].
fn estimate(index: i32) -> f64 {
    upper_bound(index) * (2.0 / (GAMMA + 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Histogram {
        let mut histogram = Histogram::new();
        for &value in values {
            histogram.record(value);
        }
        histogram
    }

    /// `read` is within the documented bound of `exact`.
    fn close(read: f64, exact: f64) -> bool {
        (read - exact).abs() <= exact * Histogram::RELATIVE_ERROR
    }

    #[test]
    fn values_land_in_the_right_bins() {
        for value in [1e-6, 0.37, 1.0, 1.005, 17.5, 999.25, 61_234.5] {
            let h = of(&[value]);
            let (upper, count) = h.buckets().next().expect("one bucket");
            assert_eq!(count, 1);
            assert!(value <= upper * (1.0 + 1e-12), "{value} above {upper}");
            assert!(
                value > upper / GAMMA * (1.0 - 1e-12),
                "{value} below {upper}"
            );
        }
        // Zeros and negatives share the one bucket below every other.
        let h = of(&[0.0, -3.0, 0.0, 40.0]);
        let buckets: Vec<(f64, u64)> = h.buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (0.0, 3));
        assert!(buckets[1].0 >= 40.0 && buckets[1].0 <= 40.0 * GAMMA);
    }

    #[test]
    fn out_of_range_values_are_clamped() {
        let h = of(&[f64::INFINITY, f64::NAN, -1e300, 5e-324]);
        assert_eq!(h.count(), 4);
        // NaN and the negative read as 0; the subnormal and +∞ land in the
        // buckets of the smallest and the largest positive `f64`.
        assert_eq!(h.percentile(0.5), 0.0);
        assert!(h.percentile(0.75) < 1e-320);
        assert!(h.percentile(1.0) > 1e307);
        assert!(h.counts.len() < 150_000);
    }

    #[test]
    fn fractions_sum_to_one_when_nonempty() {
        let h = of(&[1.0, 5.0, 9.0, 13.0, 20.0, 23.9, 0.0]);
        let total: f64 = h
            .buckets()
            .map(|(_, count)| count as f64 / h.count() as f64)
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn bin_ranges_partition_the_interval() {
        assert!((LN_GAMMA - GAMMA.ln()).abs() <= f64::EPSILON * LN_GAMMA);
        assert_eq!(upper_bound(0), 1.0);
        // Each bucket starts where the one below ends and is 1% wide.
        for index in [-700, -1, 0, 1, 463, 1388] {
            let ratio = upper_bound(index) / upper_bound(index - 1);
            assert!((ratio - GAMMA).abs() < 1e-12, "bucket {index}: {ratio}");
        }
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let h = of(&samples);
        assert!(close(h.percentile(0.50), 50.0));
        assert!(close(h.percentile(0.90), 90.0));
        assert!(close(h.percentile(0.99), 99.0));
        assert!(close(h.percentile(0.0), 1.0));
        assert!(close(h.percentile(1.0), 100.0));
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::new().percentile(0.5), 0.0);
        assert_eq!(Histogram::percentile_of([], 0.99), 0.0);
    }

    #[test]
    fn skewed_tails_separate_p50_from_p99() {
        // 99 fast requests and one straggler: P50 stays at the fast mode
        // while P99.5 reaches the tail.
        let mut samples = vec![10.0; 99];
        samples.push(1000.0);
        let h = of(&samples);
        assert!(close(h.percentile(0.50), 10.0));
        assert!(close(h.percentile(0.995), 1000.0));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        Histogram::new().percentile(1.5);
    }

    #[test]
    fn merging_two_empty_histograms_stays_empty() {
        let mut merged = Histogram::new();
        merged.merge(&Histogram::new());
        assert_eq!(merged, Histogram::new());
        assert_eq!(merged.percentile(0.99), 0.0);
    }

    #[test]
    fn merging_with_an_empty_histogram_preserves_the_distribution() {
        let a = of(&[10.0, 50.0, 90.0]);
        let mut left = a.clone();
        left.merge(&Histogram::new());
        let mut right = Histogram::new();
        right.merge(&a);
        assert_eq!(left, a);
        assert_eq!(right, a);
    }

    #[test]
    fn single_sample_merge_lands_in_the_right_bin() {
        let mut merged = of(&[95.0]);
        merged.merge(&of(&[5.0]));
        assert_eq!(merged, of(&[5.0, 95.0]));
        assert_eq!(merged.buckets().count(), 2);
    }

    #[test]
    fn mismatched_ranges_merge_over_the_union() {
        // Per-worker latency histograms: one fast worker, one straggler.
        let fast = of(&[10.0, 12.0, 14.0]);
        let slow = of(&[900.0, 1000.0]);
        let mut merged = fast.clone();
        merged.merge(&slow);
        assert_eq!(merged, of(&[10.0, 12.0, 14.0, 900.0, 1000.0]));
        assert_eq!(merged.offset, fast.offset);
        assert_eq!(
            merged.last_index(),
            slow.last_index(),
            "the store spans both sources"
        );
        assert!(close(merged.percentile(0.50), 14.0));
        assert!(close(merged.percentile(0.99), 1000.0));
    }

    #[test]
    fn reset_and_clone_from_keep_the_bucket_buffer() {
        let wide = of(&[0.0, 0.5, 20.0, 9_000.0]);
        let mut kept = wide.clone();
        let capacity = kept.counts.capacity();
        kept.reset();
        assert_eq!(kept, Histogram::new());
        assert_eq!(kept.counts.capacity(), capacity);
        // Refilled by a merge or a copy over no wider a range, the buffer
        // stays the one it was.
        let narrow = of(&[3.0, 40.0]);
        kept.merge(&narrow);
        assert_eq!(kept, narrow);
        kept.clone_from(&wide);
        assert_eq!(kept, wide);
        assert_eq!(kept.counts.capacity(), capacity);
    }

    #[test]
    fn bound_texts_read_like_the_formatted_bounds() {
        let formatted = |h: &Histogram| -> Vec<(String, u64)> {
            h.buckets()
                .map(|(bound, count)| (format!("{bound}"), count))
                .collect()
        };
        let mut texts = BoundTexts::default();
        // Ranges that extend the covered one above, then below, then both.
        for values in [
            &[0.0, 1.0, 1.0, 100.0][..],
            &[250.0, 4_000.0],
            &[0.003, 0.2],
            &[0.0, 1e-5, 3.0, 9e6],
        ] {
            let h = of(values);
            texts.cover(&h);
            let read: Vec<(String, u64)> = texts
                .buckets(&h)
                .map(|(text, count)| (text.to_owned(), count))
                .collect();
            assert_eq!(read, formatted(&h), "{values:?}");
        }
        // Every covered bucket keeps its text.
        let all = of(&[1e-5, 0.003, 0.2, 1.0, 100.0, 250.0, 4_000.0, 9e6]);
        let read: Vec<(String, u64)> = texts
            .buckets(&all)
            .map(|(text, count)| (text.to_owned(), count))
            .collect();
        assert_eq!(read, formatted(&all));
    }

    #[test]
    fn merge_is_commutative_in_count_and_mean() {
        let a = of(&[1.0, 2.0, 3.0, 0.0]);
        let b = of(&[100.0, 200.0]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Values spanning six decades, `[10⁻², 10⁴)`, one in eight exactly 0.
    fn samples(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0u32..8, -2.0f64..4.0), len).prop_map(|draws| {
            draws
                .into_iter()
                .map(|(zero, exponent)| if zero == 0 { 0.0 } else { 10f64.powf(exponent) })
                .collect()
        })
    }

    fn of(values: &[f64]) -> Histogram {
        let mut histogram = Histogram::new();
        for &value in values {
            histogram.record(value);
        }
        histogram
    }

    proptest! {
        #[test]
        fn every_observation_is_counted(values in proptest::collection::vec(-2.0f64..3.0, 0..200)) {
            let h = of(&values);
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.buckets().map(|(_, count)| count).sum::<u64>(), values.len() as u64);
        }

        #[test]
        fn percentiles_read_within_half_a_percent_of_nearest_rank(values in samples(1..400)) {
            let histogram = of(&values);
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for quantile in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((quantile * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1];
                let read = histogram.percentile(quantile);
                prop_assert!(
                    (read - exact).abs() <= 0.005 * exact,
                    "q{quantile}: read {read}, nearest rank {exact}"
                );
            }
            prop_assert!(Histogram::RELATIVE_ERROR <= 0.005);
        }

        #[test]
        fn merging_any_partition_in_any_order_equals_recording_it_all(
            values in samples(0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
            rotate in 0usize..7,
        ) {
            let whole = of(&values);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|cut| cut.min(values.len())).collect();
            cuts.sort_unstable();
            let mut parts: Vec<Histogram> = std::iter::once(0)
                .chain(cuts.iter().copied())
                .zip(cuts.iter().copied().chain(std::iter::once(values.len())))
                .map(|(start, end)| of(&values[start..end]))
                .collect();
            let shift = rotate % parts.len();
            parts.rotate_left(shift);
            let mut merged = Histogram::new();
            for part in parts.iter().rev() {
                merged.merge(part);
            }
            prop_assert_eq!(merged.count(), whole.count());
            prop_assert_eq!(merged.zero, whole.zero);
            prop_assert_eq!(merged.offset, whole.offset);
            prop_assert_eq!(&merged.counts, &whole.counts);
            for quantile in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let bits = whole.percentile(quantile).to_bits();
                prop_assert_eq!(merged.percentile(quantile).to_bits(), bits);
                prop_assert_eq!(Histogram::percentile_of(&parts, quantile).to_bits(), bits);
            }
        }
    }

    #[test]
    fn storage_depends_on_the_range_not_the_count() {
        let mut rng = proptest::test_runner::TestRng::for_test("storage");
        let storage = |count: usize, rng: &mut proptest::test_runner::TestRng| {
            // Both runs see the range's ends first, then `count` draws inside.
            let mut histogram = of(&[0.5, 20_000.0]);
            for _ in 0..count {
                histogram.record(0.5 + rng.unit_f64() * 19_999.5);
            }
            assert_eq!(histogram.count(), count as u64 + 2);
            (histogram.counts.len(), histogram.counts.capacity())
        };
        let small = storage(1_000, &mut rng);
        let large = storage(1_000_000, &mut rng);
        assert_eq!(small, large);
        assert!(small.0 < 1_100, "{} buckets over 4.6 decades", small.0);
    }
}
