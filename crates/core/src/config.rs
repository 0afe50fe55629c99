//! Configuration types for the decoding policies.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Configuration of the baseline speculative decoder.
///
/// The paper's baselines are `(prediction_length, beams)` pairs of
/// `(8, 1)`, `(16, 1)`, and `(8, 2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpeculativeConfig {
    /// Number of tokens the draft model speculates per round.
    pub prediction_length: usize,
    /// Number of draft beams (candidate branches kept per round).
    pub beams: usize,
}

impl SpeculativeConfig {
    /// Creates a configuration; see also the named baselines below.
    ///
    /// # Panics
    ///
    /// Panics if `prediction_length` or `beams` is zero.
    pub fn new(prediction_length: usize, beams: usize) -> Self {
        assert!(prediction_length > 0, "prediction length must be positive");
        assert!(beams > 0, "at least one beam is required");
        SpeculativeConfig {
            prediction_length,
            beams,
        }
    }

    /// The `(8, 1)` baseline.
    pub fn short_single() -> Self {
        SpeculativeConfig::new(8, 1)
    }

    /// The `(16, 1)` baseline.
    pub fn long_single() -> Self {
        SpeculativeConfig::new(16, 1)
    }

    /// The `(8, 2)` baseline.
    pub fn short_double_beam() -> Self {
        SpeculativeConfig::new(8, 2)
    }

    /// Short label used in figures, e.g. `"(8, 1)"`.
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for SpeculativeConfig {
    /// Writes [`SpeculativeConfig::label`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.prediction_length, self.beams)
    }
}

impl Default for SpeculativeConfig {
    fn default() -> Self {
        SpeculativeConfig::short_single()
    }
}

/// Configuration of SpecASR's adaptive single-sequence prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Maximum draft length per round (the paper extends this to 24).
    pub max_prediction_length: usize,
    /// Normalised-logit threshold below which drafting is truncated early
    /// (the paper finds 0.4 optimal).
    pub truncation_threshold: f64,
    /// Whether rejected draft suffixes are recycled into the next round.
    pub recycling: bool,
    /// Maximum positional offset at which a regenerated token may merge with
    /// a retained (recycled) token: the paper merges at "corresponding or
    /// adjacent positions", i.e. offset 1.
    pub merge_offset: usize,
}

impl AdaptiveConfig {
    /// The paper's configuration: length 24, threshold 0.4, recycling on.
    pub fn paper() -> Self {
        AdaptiveConfig {
            max_prediction_length: 24,
            truncation_threshold: 0.4,
            recycling: true,
            merge_offset: 1,
        }
    }

    /// Adaptive prediction without recycling (the first ablation row of
    /// Tab. II).
    pub fn without_recycling() -> Self {
        AdaptiveConfig {
            recycling: false,
            ..AdaptiveConfig::paper()
        }
    }

    /// Returns this configuration with a different truncation threshold
    /// (Fig. 13a sweeps it).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.truncation_threshold = threshold;
        self
    }

    /// Returns this configuration with a different maximum prediction length.
    pub fn with_max_length(mut self, length: usize) -> Self {
        self.max_prediction_length = length;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the maximum length is zero or the threshold is outside
    /// `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.max_prediction_length > 0,
            "prediction length must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.truncation_threshold),
            "truncation threshold must lie in [0, 1]"
        );
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig::paper()
    }
}

/// Configuration of SpecASR's two-pass sparse-tree prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparseTreeConfig {
    /// Maximum trunk length per round.
    pub max_prediction_length: usize,
    /// Normalised-logit threshold below which a position is marked uncertain.
    pub uncertainty_threshold: f64,
    /// How many candidate tokens are kept at an uncertain position (the paper
    /// finds the top-2, i.e. one extra branch, optimal).
    pub branch_top_k: usize,
    /// Maximum number of uncertain positions expanded into branches per round.
    pub max_branches: usize,
    /// Maximum number of tokens a side branch is extended by before it must
    /// merge or stop.
    pub branch_extension: usize,
    /// Maximum positional offset for recycling merges between a branch and
    /// the trunk.
    pub merge_offset: usize,
    /// Whether rejected trunk suffixes are recycled into the next round.
    pub recycling: bool,
}

impl SparseTreeConfig {
    /// The paper's configuration: trunk 24, threshold 0.4, top-2 expansion.
    pub fn paper() -> Self {
        SparseTreeConfig {
            max_prediction_length: 24,
            uncertainty_threshold: 0.4,
            branch_top_k: 2,
            max_branches: 3,
            branch_extension: 4,
            merge_offset: 1,
            recycling: true,
        }
    }

    /// Returns this configuration with a different top-k expansion width
    /// (the ablation sweeps 2–4).
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.branch_top_k = top_k;
        self
    }

    /// Returns this configuration with a different uncertainty threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.uncertainty_threshold = threshold;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero (except `max_branches`, which may be zero
    /// to degenerate into single-sequence prediction) or the threshold is
    /// outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.max_prediction_length > 0,
            "prediction length must be positive"
        );
        assert!(self.branch_top_k >= 1, "branch top-k must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.uncertainty_threshold),
            "uncertainty threshold must lie in [0, 1]"
        );
    }
}

impl Default for SparseTreeConfig {
    fn default() -> Self {
        SparseTreeConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_baselines_match_the_paper() {
        assert_eq!(SpeculativeConfig::short_single().label(), "(8, 1)");
        assert_eq!(SpeculativeConfig::long_single().label(), "(16, 1)");
        assert_eq!(SpeculativeConfig::short_double_beam().label(), "(8, 2)");
    }

    #[test]
    fn paper_adaptive_config_has_the_published_constants() {
        let config = AdaptiveConfig::paper();
        assert_eq!(config.max_prediction_length, 24);
        assert!((config.truncation_threshold - 0.4).abs() < 1e-12);
        assert!(config.recycling);
        config.validate();
        assert!(!AdaptiveConfig::without_recycling().recycling);
    }

    #[test]
    fn paper_sparse_tree_config_uses_top2() {
        let config = SparseTreeConfig::paper();
        assert_eq!(config.branch_top_k, 2);
        config.validate();
        assert_eq!(config.with_top_k(3).branch_top_k, 3);
        assert!((config.with_threshold(0.6).uncertainty_threshold - 0.6).abs() < 1e-12);
    }

    #[test]
    fn builder_style_updates_do_not_touch_other_fields() {
        let config = AdaptiveConfig::paper()
            .with_threshold(0.7)
            .with_max_length(12);
        assert_eq!(config.max_prediction_length, 12);
        assert!((config.truncation_threshold - 0.7).abs() < 1e-12);
        assert!(config.recycling);
    }

    #[test]
    #[should_panic(expected = "prediction length must be positive")]
    fn zero_prediction_length_panics() {
        SpeculativeConfig::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one beam")]
    fn zero_beams_panics() {
        SpeculativeConfig::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "truncation threshold")]
    fn invalid_threshold_fails_validation() {
        AdaptiveConfig::paper().with_threshold(1.5).validate();
    }
}
