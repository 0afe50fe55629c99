//! Analytic forward-pass latency model and the simulated decode clock.
//!
//! The paper measures wall-clock latency on an NVIDIA RTX A6000.  This
//! reproduction replaces the GPU with an analytic cost model: a forward pass
//! that processes `n` tokens in parallel (one autoregressive step has `n = 1`,
//! a verification pass over a token tree has `n =` tree size) costs
//!
//! ```text
//! forward_pass_ms(n) = base_ms + per_token_ms · n
//! ```
//!
//! and prefilling a prompt/audio context of `n` tokens costs
//! `prefill_per_token_ms · n` on top of one base overhead.  Speedup ratios —
//! the quantity every figure reports — depend only on how many draft steps and
//! how many (and how wide) target verification passes each policy issues,
//! which this model preserves.  Calibration constants live in
//! [`crate::profiles`] and are chosen so the Whisper-pair ablation magnitudes
//! match Table II of the paper.

use serde::{Deserialize, Serialize};

/// Cost model of a single model's forward passes, in simulated milliseconds.
///
/// # Example
///
/// ```
/// use specasr_models::LatencyModel;
///
/// let model = LatencyModel::new(20.0, 0.3, 0.1);
/// assert_eq!(model.forward_pass_ms(1), 20.3);
/// assert!(model.forward_pass_ms(16) > model.forward_pass_ms(1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    base_ms: f64,
    per_token_ms: f64,
    prefill_per_token_ms: f64,
}

impl LatencyModel {
    /// Creates a latency model.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is negative.
    pub fn new(base_ms: f64, per_token_ms: f64, prefill_per_token_ms: f64) -> Self {
        assert!(
            base_ms >= 0.0 && per_token_ms >= 0.0 && prefill_per_token_ms >= 0.0,
            "latency coefficients must be non-negative"
        );
        LatencyModel {
            base_ms,
            per_token_ms,
            prefill_per_token_ms,
        }
    }

    /// Fixed per-forward-pass overhead (kernel launches, attention over the
    /// cached context).
    pub fn base_ms(&self) -> f64 {
        self.base_ms
    }

    /// Marginal cost of each token processed in parallel within one pass.
    pub fn per_token_ms(&self) -> f64 {
        self.per_token_ms
    }

    /// Cost of one forward pass processing `tokens` new tokens in parallel.
    ///
    /// `tokens = 0` still pays the base cost (a pass was issued).
    pub fn forward_pass_ms(&self, tokens: usize) -> f64 {
        self.base_ms + self.per_token_ms * tokens as f64
    }

    /// Cost of prefilling a context of `tokens` tokens (audio embeddings plus
    /// text prompt) before decoding starts.
    pub fn prefill_ms(&self, tokens: usize) -> f64 {
        self.base_ms + self.prefill_per_token_ms * tokens as f64
    }
}

/// Which component of the pipeline a cost is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LatencyComponent {
    /// The audio encoder.
    Encoder,
    /// The draft model (prediction passes).
    Draft,
    /// The target model (verification passes).
    Target,
}

/// A breakdown of accumulated simulated time by component.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Simulated encoder milliseconds.
    pub encoder_ms: f64,
    /// Simulated draft-model milliseconds.
    pub draft_ms: f64,
    /// Simulated target-model milliseconds.
    pub target_ms: f64,
}

impl LatencyBreakdown {
    /// Total simulated milliseconds across all components.
    pub fn total_ms(&self) -> f64 {
        self.encoder_ms + self.draft_ms + self.target_ms
    }

    /// Decoder-only milliseconds (draft + target), the quantity the paper's
    /// speedup figures are computed over.
    pub fn decode_ms(&self) -> f64 {
        self.draft_ms + self.target_ms
    }

    /// Adds another breakdown component-wise.
    pub fn accumulate(&mut self, other: &LatencyBreakdown) {
        self.encoder_ms += other.encoder_ms;
        self.draft_ms += other.draft_ms;
        self.target_ms += other.target_ms;
    }

    /// Scales the breakdown by a constant (used for per-10 s normalisation).
    pub fn scaled(&self, factor: f64) -> LatencyBreakdown {
        LatencyBreakdown {
            encoder_ms: self.encoder_ms * factor,
            draft_ms: self.draft_ms * factor,
            target_ms: self.target_ms * factor,
        }
    }
}

/// Accumulates simulated milliseconds and pass counts during a decode.
///
/// Policies charge the clock every time they issue a model pass; reports read
/// the clock at the end.  The clock also counts the number of passes per
/// component, which Fig. 12a ("number of rounds") is built from.
///
/// # Example
///
/// ```
/// use specasr_models::{DecodeClock, LatencyModel};
///
/// let mut clock = DecodeClock::new();
/// let draft = LatencyModel::new(2.5, 0.05, 0.01);
/// clock.charge_draft(&draft, 1);
/// clock.charge_draft(&draft, 1);
/// assert_eq!(clock.draft_passes(), 2);
/// assert!(clock.breakdown().draft_ms > 5.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DecodeClock {
    breakdown: LatencyBreakdown,
    encoder_passes: u64,
    draft_passes: u64,
    target_passes: u64,
    draft_tokens_processed: u64,
    target_tokens_processed: u64,
}

impl DecodeClock {
    /// Creates a clock at zero.
    pub fn new() -> Self {
        DecodeClock::default()
    }

    /// Charges one encoder invocation of `audio_seconds` of audio with a
    /// fixed cost expressed in milliseconds.
    pub fn charge_encoder_ms(&mut self, ms: f64) {
        self.breakdown.encoder_ms += ms.max(0.0);
        self.encoder_passes += 1;
    }

    /// Charges one draft-model forward pass that processes `tokens` tokens.
    pub fn charge_draft(&mut self, model: &LatencyModel, tokens: usize) {
        self.breakdown.draft_ms += model.forward_pass_ms(tokens);
        self.draft_passes += 1;
        self.draft_tokens_processed += tokens as u64;
    }

    /// Charges one draft-model prefill over `tokens` context tokens.
    pub fn charge_draft_prefill(&mut self, model: &LatencyModel, tokens: usize) {
        self.breakdown.draft_ms += model.prefill_ms(tokens);
        self.draft_passes += 1;
        self.draft_tokens_processed += tokens as u64;
    }

    /// Charges one target-model forward (verification) pass over `tokens`
    /// tokens.
    pub fn charge_target(&mut self, model: &LatencyModel, tokens: usize) {
        self.breakdown.target_ms += model.forward_pass_ms(tokens);
        self.target_passes += 1;
        self.target_tokens_processed += tokens as u64;
    }

    /// Charges one target-model prefill over `tokens` context tokens.
    pub fn charge_target_prefill(&mut self, model: &LatencyModel, tokens: usize) {
        self.breakdown.target_ms += model.prefill_ms(tokens);
        self.target_passes += 1;
        self.target_tokens_processed += tokens as u64;
    }

    /// The accumulated latency breakdown.
    pub fn breakdown(&self) -> LatencyBreakdown {
        self.breakdown
    }

    /// Number of encoder invocations charged so far.
    pub fn encoder_passes(&self) -> u64 {
        self.encoder_passes
    }

    /// Number of draft forward passes charged so far.
    pub fn draft_passes(&self) -> u64 {
        self.draft_passes
    }

    /// Number of target forward passes charged so far.
    pub fn target_passes(&self) -> u64 {
        self.target_passes
    }

    /// Total tokens processed by draft passes.
    pub fn draft_tokens_processed(&self) -> u64 {
        self.draft_tokens_processed
    }

    /// Total tokens processed by target passes.
    pub fn target_tokens_processed(&self) -> u64 {
        self.target_tokens_processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_pass_cost_is_affine_in_tokens() {
        let model = LatencyModel::new(10.0, 0.5, 0.1);
        assert!((model.forward_pass_ms(0) - 10.0).abs() < 1e-12);
        assert!((model.forward_pass_ms(4) - 12.0).abs() < 1e-12);
        let delta = model.forward_pass_ms(9) - model.forward_pass_ms(8);
        assert!((delta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefill_uses_the_prefill_coefficient() {
        let model = LatencyModel::new(10.0, 0.5, 0.1);
        assert!((model.prefill_ms(100) - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_coefficients_panic() {
        LatencyModel::new(-1.0, 0.1, 0.1);
    }

    #[test]
    fn clock_accumulates_per_component() {
        let mut clock = DecodeClock::new();
        let draft = LatencyModel::new(2.0, 0.1, 0.05);
        let target = LatencyModel::new(20.0, 0.3, 0.1);
        clock.charge_encoder_ms(5.0);
        clock.charge_draft(&draft, 1);
        clock.charge_draft(&draft, 1);
        clock.charge_target(&target, 8);
        let b = clock.breakdown();
        assert!((b.encoder_ms - 5.0).abs() < 1e-12);
        assert!((b.draft_ms - 4.2).abs() < 1e-12);
        assert!((b.target_ms - 22.4).abs() < 1e-12);
        assert!((b.total_ms() - 31.6).abs() < 1e-12);
        assert!((b.decode_ms() - 26.6).abs() < 1e-12);
        assert_eq!(clock.draft_passes(), 2);
        assert_eq!(clock.target_passes(), 1);
        assert_eq!(clock.target_tokens_processed(), 8);
    }

    #[test]
    fn breakdown_scaling_is_componentwise() {
        let b = LatencyBreakdown {
            encoder_ms: 1.0,
            draft_ms: 2.0,
            target_ms: 3.0,
        };
        let s = b.scaled(2.0);
        assert!((s.encoder_ms - 2.0).abs() < 1e-12);
        assert!((s.draft_ms - 4.0).abs() < 1e-12);
        assert!((s.target_ms - 6.0).abs() < 1e-12);
    }

    #[test]
    fn negative_encoder_charge_is_clamped() {
        let mut clock = DecodeClock::new();
        clock.charge_encoder_ms(-4.0);
        assert_eq!(clock.breakdown().encoder_ms, 0.0);
        assert_eq!(clock.encoder_passes(), 1);
    }
}
