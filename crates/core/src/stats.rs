//! Per-decode statistics: rounds, draft steps, predicted/accepted tokens.
//!
//! Fig. 12 of the paper compares speculative methods by (a) the number of
//! draft-prediction and target-verification rounds and (b) the average number
//! of draft decoding steps, predicted tokens per round, and accepted tokens
//! per round.  [`DecodeStats`] collects exactly those quantities while a
//! policy runs, as totals: it keeps counters, not a log of every round, so
//! it is `Copy` and a decode of any length holds it in the same few words.
//! A caller that wants one round's numbers steps the
//! [`crate::DecodeSession`] itself and takes the difference of the
//! counters across the round.

use serde::{Deserialize, Serialize};

/// Statistics of a single draft-predict / target-verify round: what
/// [`DecodeStats::record_round`] adds to the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundRecord {
    /// Draft tokens submitted for verification this round.
    pub predicted: usize,
    /// Draft tokens accepted by the target this round (corrections excluded).
    pub accepted: usize,
    /// Draft forward passes issued this round.
    pub draft_steps: usize,
    /// Tokens adopted through recycling merges this round (no draft pass was
    /// spent on them).
    pub recycled: usize,
    /// Whether drafting was truncated early by the logit threshold.
    pub truncated: bool,
}

/// Aggregated statistics of one decode.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DecodeStats {
    /// Number of draft-predict / target-verify rounds (1 round per target
    /// verification pass; autoregressive decoding has one "round" per token).
    pub rounds: usize,
    /// Total draft forward passes.
    pub draft_steps: usize,
    /// Total draft tokens submitted for verification.
    pub predicted_tokens: usize,
    /// Total draft tokens accepted by the target.
    pub accepted_tokens: usize,
    /// Tokens contributed directly by the target (corrections and bonus
    /// tokens).
    pub correction_tokens: usize,
    /// Tokens adopted through recycling merges.
    pub recycled_tokens: usize,
    /// Rounds that were truncated early by the logit threshold.
    pub truncations: usize,
}

impl DecodeStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        DecodeStats::default()
    }

    /// Records one completed round.
    pub fn record_round(&mut self, round: RoundRecord) {
        self.rounds += 1;
        self.draft_steps += round.draft_steps;
        self.predicted_tokens += round.predicted;
        self.accepted_tokens += round.accepted;
        self.recycled_tokens += round.recycled;
        if round.truncated {
            self.truncations += 1;
        }
    }

    /// Records a token contributed directly by the target model.
    pub fn record_correction(&mut self) {
        self.correction_tokens += 1;
    }

    /// Average draft tokens predicted per round (0 when no rounds ran).
    pub fn predicted_per_round(&self) -> f64 {
        ratio(self.predicted_tokens, self.rounds)
    }

    /// Average draft tokens accepted per round.
    pub fn accepted_per_round(&self) -> f64 {
        ratio(self.accepted_tokens, self.rounds)
    }

    /// Average draft forward passes per round.
    pub fn draft_steps_per_round(&self) -> f64 {
        ratio(self.draft_steps, self.rounds)
    }

    /// The decoding-acceptance ratio: accepted / predicted tokens (the paper
    /// reports 94.4 % for adaptive single-sequence prediction).
    pub fn acceptance_ratio(&self) -> f64 {
        ratio(self.accepted_tokens, self.predicted_tokens)
    }

    /// Merges the statistics of another decode (used for split-level totals).
    pub fn merge(&mut self, other: &DecodeStats) {
        self.rounds += other.rounds;
        self.draft_steps += other.draft_steps;
        self.predicted_tokens += other.predicted_tokens;
        self.accepted_tokens += other.accepted_tokens;
        self.correction_tokens += other.correction_tokens;
        self.recycled_tokens += other.recycled_tokens;
        self.truncations += other.truncations;
    }
}

fn ratio(numerator: usize, denominator: usize) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(predicted: usize, accepted: usize, steps: usize) -> RoundRecord {
        RoundRecord {
            predicted,
            accepted,
            draft_steps: steps,
            recycled: 0,
            truncated: false,
        }
    }

    #[test]
    fn recording_rounds_accumulates_totals() {
        let mut stats = DecodeStats::new();
        stats.record_round(round(8, 6, 8));
        stats.record_round(round(8, 8, 8));
        stats.record_correction();
        stats.record_correction();
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.predicted_tokens, 16);
        assert_eq!(stats.accepted_tokens, 14);
        assert_eq!(stats.correction_tokens, 2);
        assert!((stats.predicted_per_round() - 8.0).abs() < 1e-12);
        assert!((stats.accepted_per_round() - 7.0).abs() < 1e-12);
        assert!((stats.acceptance_ratio() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn truncations_and_recycling_are_counted() {
        let mut stats = DecodeStats::new();
        stats.record_round(RoundRecord {
            predicted: 12,
            accepted: 10,
            draft_steps: 7,
            recycled: 5,
            truncated: true,
        });
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.draft_steps, 7);
        assert_eq!(stats.truncations, 1);
        assert_eq!(stats.recycled_tokens, 5);
    }

    #[test]
    fn empty_stats_report_zero_ratios() {
        let stats = DecodeStats::new();
        assert_eq!(stats.acceptance_ratio(), 0.0);
        assert_eq!(stats.predicted_per_round(), 0.0);
        assert_eq!(stats.draft_steps_per_round(), 0.0);
    }

    #[test]
    fn merge_pools_all_counters() {
        let mut a = DecodeStats::new();
        a.record_round(round(8, 6, 8));
        let mut b = DecodeStats::new();
        b.record_round(round(4, 4, 4));
        b.record_correction();
        a.merge(&b);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.predicted_tokens, 12);
        assert_eq!(a.accepted_tokens, 10);
        assert_eq!(a.correction_tokens, 1);
    }
}
