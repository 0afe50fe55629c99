//! Fixed-bin histograms for acceptance-ratio and rank distributions.

use serde::{Deserialize, Serialize};

/// A histogram over `[lo, hi]` with equally sized bins.
///
/// Values outside the range are clamped into the first/last bin, so the
/// histogram always accounts for every observation (acceptance ratios of
/// exactly 1.0 land in the last bin).
///
/// # Example
///
/// ```
/// use specasr_metrics::Histogram;
///
/// let mut h = Histogram::new(0.0, 1.0, 4);
/// for v in [0.1, 0.3, 0.9, 1.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.bin_counts()[3], 2);
/// assert!((h.mean() - 0.575).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "at least one bin is required");
        assert!(hi > lo, "the histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        let bins = self.counts.len();
        let span = self.hi - self.lo;
        let normalised = ((value - self.lo) / span).clamp(0.0, 1.0);
        let mut bin = (normalised * bins as f64).floor() as usize;
        if bin >= bins {
            bin = bins - 1;
        }
        self.counts[bin] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Records many observations.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw per-bin counts.
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bin fractions of the total (all zeros if nothing was recorded).
    pub fn bin_fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// The `(lower, upper)` bounds of bin `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bin_range(&self, index: usize) -> (f64, f64) {
        assert!(index < self.counts.len(), "bin index out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (
            self.lo + width * index as f64,
            self.lo + width * (index + 1) as f64,
        )
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of the recorded observations (0 if none).
    ///
    /// Kept alongside the bin counts so exports that need `sum`/`count`
    /// pairs (e.g. Prometheus histogram exposition) do not round-trip
    /// through the mean.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the recorded observations (0 if none).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Builds a histogram sized to cover `samples` exactly and records them
    /// all.  The range spans `[0, max]` (padded slightly so the maximum does
    /// not sit on the clamping edge), which is the shape latency samples
    /// need.  The one-slice case of [`Histogram::of_sample_sets`].
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn of_samples(bins: usize, samples: &[f64]) -> Self {
        Histogram::of_sample_sets(bins, [samples])
    }

    /// Builds the histogram [`Histogram::of_samples`] would build over the
    /// concatenation of `sets`, without concatenating them: one pass finds
    /// the maximum, a second records every sample.
    ///
    /// Neither the range nor the bin counts depend on the order of the
    /// samples, so [`Histogram::percentile`] reads the same as over the
    /// pooled samples, bit for bit.  (The sum is added in `sets` order.)
    ///
    /// # Example
    ///
    /// ```
    /// use specasr_metrics::Histogram;
    ///
    /// let pooled = Histogram::of_samples(64, &[10.0, 20.0, 500.0]);
    /// let sets = Histogram::of_sample_sets(64, [&[500.0][..], &[10.0, 20.0]]);
    /// assert_eq!(sets.bin_counts(), pooled.bin_counts());
    /// assert_eq!(sets.percentile(0.99), pooled.percentile(0.99));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn of_sample_sets<'a, I>(bins: usize, sets: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: Clone,
    {
        let sets = sets.into_iter();
        let max = sets.clone().flatten().copied().fold(0.0f64, f64::max);
        let hi = if max > 0.0 { max * 1.0001 } else { 1.0 };
        let mut histogram = Histogram::new(0.0, hi, bins);
        histogram.record_all(sets.flatten().copied());
        histogram
    }

    /// Merges two histograms into one covering the union of their ranges.
    ///
    /// The result spans `[min(lo), max(hi)]` with the larger of the two bin
    /// counts; each source bin's observations are re-recorded at the source
    /// bin's centre.  The total count and sum (hence [`Histogram::mean`]) are
    /// preserved exactly; bin placement is approximate to within one source
    /// bin width, which is the usual trade of mergeable fixed-bin histograms.
    /// Merging with an empty histogram widens the range but adds no counts,
    /// and works for mismatched ranges (per-worker latency histograms whose
    /// maxima differ are the motivating case).
    ///
    /// # Example
    ///
    /// ```
    /// use specasr_metrics::Histogram;
    ///
    /// let a = Histogram::of_samples(64, &[10.0, 20.0]);
    /// let b = Histogram::of_samples(128, &[500.0]);
    /// let merged = a.merge(&b);
    /// assert_eq!(merged.count(), 3);
    /// assert!((merged.mean() - 530.0 / 3.0).abs() < 1e-9);
    /// ```
    pub fn merge(&self, other: &Histogram) -> Histogram {
        let lo = self.lo.min(other.lo);
        let hi = self.hi.max(other.hi);
        let bins = self.bins().max(other.bins());
        let mut merged = Histogram::new(lo, hi, bins);
        for source in [self, other] {
            for (index, &count) in source.counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let (bin_lo, bin_hi) = source.bin_range(index);
                let centre = 0.5 * (bin_lo + bin_hi);
                let normalised = ((centre - merged.lo) / (merged.hi - merged.lo)).clamp(0.0, 1.0);
                let target = ((normalised * bins as f64).floor() as usize).min(bins - 1);
                merged.counts[target] += count;
                merged.total += count;
            }
        }
        // Bin placement used bin centres; carry the exact sum over so the
        // merged mean matches the pooled observations.
        merged.sum = self.sum + other.sum;
        merged
    }

    /// The `quantile` (in `[0, 1]`) of the recorded distribution, estimated
    /// by linear interpolation inside the containing bin (0 if nothing was
    /// recorded).
    ///
    /// Serving reports read P50/P99 latency through this method.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]`.
    pub fn percentile(&self, quantile: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&quantile),
            "quantile must lie in [0, 1]"
        );
        if self.total == 0 {
            return 0.0;
        }
        let target = quantile * self.total as f64;
        let mut cumulative = 0.0f64;
        for (index, &count) in self.counts.iter().enumerate() {
            let next = cumulative + count as f64;
            if next >= target && count > 0 {
                let (lower, upper) = self.bin_range(index);
                let within = ((target - cumulative) / count as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * within;
            }
            cumulative = next;
        }
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_land_in_the_right_bins() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.record(0.05);
        h.record(0.55);
        h.record(0.95);
        assert_eq!(h.bin_counts()[0], 1);
        assert_eq!(h.bin_counts()[5], 1);
        assert_eq!(h.bin_counts()[9], 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn out_of_range_values_are_clamped() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-3.0);
        h.record(7.0);
        h.record(1.0);
        assert_eq!(h.bin_counts()[0], 1);
        assert_eq!(h.bin_counts()[3], 2);
    }

    #[test]
    fn fractions_sum_to_one_when_nonempty() {
        let mut h = Histogram::new(0.0, 24.0, 6);
        h.record_all([1.0, 5.0, 9.0, 13.0, 20.0, 23.9]);
        let total: f64 = h.bin_fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.bin_fractions().iter().all(|&f| f == 0.0));
    }

    #[test]
    fn bin_ranges_partition_the_interval() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.bin_range(0), (0.0, 0.25));
        assert_eq!(h.bin_range(3), (0.75, 1.0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_panics() {
        Histogram::new(1.0, 0.0, 3);
    }

    #[test]
    #[should_panic(expected = "bin index out of range")]
    fn bad_bin_index_panics() {
        Histogram::new(0.0, 1.0, 3).bin_range(3);
    }

    #[test]
    fn percentiles_bracket_the_distribution() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let h = Histogram::of_samples(200, &samples);
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        let p99 = h.percentile(0.99);
        assert!((p50 - 50.0).abs() < 2.0, "p50 ≈ 50, got {p50}");
        assert!((p90 - 90.0).abs() < 2.0, "p90 ≈ 90, got {p90}");
        assert!((p99 - 99.0).abs() < 2.0, "p99 ≈ 99, got {p99}");
        assert!(p50 <= p90 && p90 <= p99);
        // Quantile 0 lands at the lower edge of the minimum's bin; quantile 1
        // at the upper edge of the maximum's.
        assert!(h.percentile(0.0) <= 1.0);
        assert!(h.percentile(1.0) >= 100.0);
    }

    #[test]
    fn sample_sets_bin_like_their_pooled_samples_in_any_order() {
        let a = [3.0, 250.0, 17.5];
        let b = [0.0, 999.25];
        let c = [42.0, 42.0, 610.0, 1.0];
        let pooled: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let reference = Histogram::of_samples(512, &pooled);
        let orders: [[&[f64]; 4]; 3] = [[&a, &b, &c, &[]], [&c, &[], &a, &b], [&[], &b, &c, &a]];
        for sets in orders {
            let binned = Histogram::of_sample_sets(512, sets);
            assert_eq!(binned.bin_counts(), reference.bin_counts());
            assert_eq!(binned.bin_range(511), reference.bin_range(511));
            for quantile in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(
                    binned.percentile(quantile).to_bits(),
                    reference.percentile(quantile).to_bits()
                );
            }
        }
        let empty = Histogram::of_sample_sets(8, [&[][..], &[]]);
        assert_eq!(empty, Histogram::of_samples(8, &[]));
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn skewed_tails_separate_p50_from_p99() {
        // 99 fast requests and one straggler: P50 stays near the fast mode
        // while P99 reaches into the tail.
        let mut samples = vec![10.0; 99];
        samples.push(1000.0);
        let h = Histogram::of_samples(500, &samples);
        assert!(h.percentile(0.50) < 20.0);
        assert!(h.percentile(0.995) > 500.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        Histogram::new(0.0, 1.0, 4).percentile(1.5);
    }

    #[test]
    fn merging_two_empty_histograms_stays_empty() {
        let a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 2.0, 8);
        let merged = a.merge(&b);
        assert_eq!(merged.count(), 0);
        assert_eq!(merged.mean(), 0.0);
        assert_eq!(merged.bins(), 8);
        assert_eq!(merged.percentile(0.99), 0.0);
    }

    #[test]
    fn merging_with_an_empty_histogram_preserves_the_distribution() {
        let mut a = Histogram::new(0.0, 100.0, 10);
        a.record_all([10.0, 50.0, 90.0]);
        let empty = Histogram::new(0.0, 100.0, 10);
        for merged in [a.merge(&empty), empty.merge(&a)] {
            assert_eq!(merged.count(), 3);
            assert!((merged.mean() - 50.0).abs() < 1e-12);
            assert_eq!(merged.bin_counts(), a.bin_counts());
        }
    }

    #[test]
    fn single_sample_merge_lands_in_the_right_bin() {
        let mut a = Histogram::new(0.0, 100.0, 10);
        a.record(95.0);
        let mut b = Histogram::new(0.0, 100.0, 10);
        b.record(5.0);
        let merged = a.merge(&b);
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.bin_counts()[0], 1);
        assert_eq!(merged.bin_counts()[9], 1);
        assert!((merged.mean() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_ranges_merge_over_the_union() {
        // Per-worker latency histograms: one fast worker, one straggler.
        let fast = Histogram::of_samples(64, &[10.0, 12.0, 14.0]);
        let slow = Histogram::of_samples(64, &[900.0, 1000.0]);
        let merged = fast.merge(&slow);
        assert_eq!(merged.count(), 5);
        assert!((merged.mean() - (10.0 + 12.0 + 14.0 + 900.0 + 1000.0) / 5.0).abs() < 1e-9);
        // The fast samples stay in the low tail, the stragglers in the high
        // tail, so the percentiles separate.
        assert!(merged.percentile(0.50) < 100.0);
        assert!(merged.percentile(0.99) > 800.0);
        // Union range covers both sources.
        assert_eq!(merged.bin_range(0).0, 0.0);
        assert!(merged.bin_range(merged.bins() - 1).1 >= 1000.0);
    }

    #[test]
    fn merge_is_commutative_in_count_and_mean() {
        let a = Histogram::of_samples(32, &[1.0, 2.0, 3.0]);
        let b = Histogram::of_samples(16, &[100.0, 200.0]);
        let ab = a.merge(&b);
        let ba = b.merge(&a);
        assert_eq!(ab.count(), ba.count());
        assert!((ab.mean() - ba.mean()).abs() < 1e-12);
        assert_eq!(ab.bins(), ba.bins());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn every_observation_is_counted(values in proptest::collection::vec(-2.0f64..3.0, 0..200)) {
            let mut h = Histogram::new(0.0, 1.0, 8);
            h.record_all(values.iter().copied());
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.bin_counts().iter().sum::<u64>(), values.len() as u64);
        }
    }
}
