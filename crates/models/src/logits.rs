//! Sparse top-k next-token distributions with normalised logits.
//!
//! The adaptive single-sequence prediction and two-pass sparse-tree policies
//! only ever look at the top few candidates of the draft model's output and
//! at the *normalised logit* (softmax probability) of the top-1 token, so the
//! simulated models return exactly that sparse view.

use serde::{Deserialize, Serialize};
use specasr_tokenizer::TokenId;

/// A candidate token with its normalised probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The candidate token.
    pub token: TokenId,
    /// Normalised probability (softmax output) of the candidate.
    pub probability: f64,
}

/// Sparse top-k distribution over the next token.
///
/// Candidates are stored in descending probability order; probabilities are
/// positive and sum to at most 1.
///
/// # Example
///
/// ```
/// use specasr_models::TokenLogits;
/// use specasr_tokenizer::TokenId;
///
/// let logits = TokenLogits::from_candidates(vec![
///     (TokenId::new(10), 0.8),
///     (TokenId::new(11), 0.15),
/// ]);
/// assert_eq!(logits.top1().unwrap().token, TokenId::new(10));
/// assert_eq!(logits.rank_of(TokenId::new(11)), Some(2));
/// assert!((logits.top1_probability() - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenLogits {
    // Crate-visible so the wire decoder can rebuild a distribution bit for
    // bit, without re-sorting or filtering it.
    pub(crate) candidates: Vec<Candidate>,
}

impl TokenLogits {
    /// Builds a distribution from `(token, probability)` pairs.
    ///
    /// Pairs are sorted by descending probability; non-positive probabilities
    /// are dropped; duplicate tokens keep their highest probability.
    ///
    /// # Panics
    ///
    /// Panics if the retained probabilities sum to more than `1.0 + 1e-6`.
    pub fn from_candidates(mut pairs: Vec<(TokenId, f64)>) -> Self {
        // Filter and dedup in place: the first `kept` pairs are the retained
        // ones, in first-seen order, so `pairs` is the only allocation (the
        // final `collect` reuses it too).
        let mut kept = 0;
        for read in 0..pairs.len() {
            let (token, probability) = pairs[read];
            if probability <= 0.0 {
                continue;
            }
            match pairs[..kept].iter_mut().find(|(t, _)| *t == token) {
                Some((_, existing)) => *existing = existing.max(probability),
                None => {
                    pairs[kept] = (token, probability);
                    kept += 1;
                }
            }
        }
        pairs.truncate(kept);
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("probabilities are finite"));
        let total: f64 = pairs.iter().map(|(_, p)| p).sum();
        assert!(
            total <= 1.0 + 1e-6,
            "candidate probabilities sum to {total}, which exceeds 1"
        );
        TokenLogits {
            candidates: pairs
                .into_iter()
                .map(|(token, probability)| Candidate { token, probability })
                .collect(),
        }
    }

    /// A degenerate distribution that puts probability `p` on one token.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn certain(token: TokenId, p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "probability must be in (0, 1]");
        TokenLogits {
            candidates: vec![Candidate {
                token,
                probability: p,
            }],
        }
    }

    /// The number of retained candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Returns `true` if no candidate was retained.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The highest-probability candidate.
    pub fn top1(&self) -> Option<Candidate> {
        self.candidates.first().copied()
    }

    /// The greedy (top-1) token, or `fallback` when no candidate was
    /// retained.  [`crate::AsrDecoderModel::greedy_token`] is this with EOS
    /// as the fallback.
    pub fn greedy_or(&self, fallback: TokenId) -> TokenId {
        self.top1().map_or(fallback, |c| c.token)
    }

    /// Normalised probability of the top-1 candidate (0 if empty).
    ///
    /// This is the quantity the paper thresholds at 0.4 to detect uncertain
    /// predictions.
    pub fn top1_probability(&self) -> f64 {
        self.candidates
            .first()
            .map(|c| c.probability)
            .unwrap_or(0.0)
    }

    /// The candidate at `rank` (1-based), if any.
    pub fn at_rank(&self, rank: usize) -> Option<Candidate> {
        if rank == 0 {
            return None;
        }
        self.candidates.get(rank - 1).copied()
    }

    /// The 1-based rank of `token`, if it appears among the candidates.
    pub fn rank_of(&self, token: TokenId) -> Option<usize> {
        self.candidates
            .iter()
            .position(|c| c.token == token)
            .map(|i| i + 1)
    }

    /// Iterates over candidates in descending probability order.
    pub fn iter(&self) -> impl Iterator<Item = &Candidate> {
        self.candidates.iter()
    }

    /// The top-k candidate tokens (at most `k`), in descending probability
    /// order.
    pub fn top_k_tokens(&self, k: usize) -> Vec<TokenId> {
        self.candidates.iter().take(k).map(|c| c.token).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(raw: u32) -> TokenId {
        TokenId::new(raw)
    }

    #[test]
    fn candidates_are_sorted_descending() {
        let logits = TokenLogits::from_candidates(vec![(t(1), 0.1), (t(2), 0.6), (t(3), 0.3)]);
        let order: Vec<u32> = logits.iter().map(|c| c.token.value()).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn non_positive_probabilities_are_dropped() {
        let logits = TokenLogits::from_candidates(vec![(t(1), 0.5), (t(2), 0.0), (t(3), -0.1)]);
        assert_eq!(logits.len(), 1);
        assert_eq!(logits.top1().map(|c| c.token), Some(t(1)));
    }

    #[test]
    fn duplicate_tokens_keep_the_highest_probability() {
        let logits = TokenLogits::from_candidates(vec![(t(5), 0.2), (t(5), 0.4)]);
        assert_eq!(logits.len(), 1);
        assert!((logits.top1_probability() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rank_lookup_is_one_based() {
        let logits = TokenLogits::from_candidates(vec![(t(1), 0.5), (t(2), 0.3), (t(3), 0.1)]);
        assert_eq!(logits.rank_of(t(1)), Some(1));
        assert_eq!(logits.rank_of(t(3)), Some(3));
        assert_eq!(logits.rank_of(t(9)), None);
        assert_eq!(logits.at_rank(0), None);
        assert_eq!(logits.at_rank(2).map(|c| c.token), Some(t(2)));
        assert_eq!(logits.at_rank(4), None);
    }

    #[test]
    fn top_k_tokens_truncates() {
        let logits = TokenLogits::from_candidates(vec![(t(1), 0.5), (t(2), 0.3), (t(3), 0.1)]);
        assert_eq!(logits.top_k_tokens(2), vec![t(1), t(2)]);
        assert_eq!(logits.top_k_tokens(10).len(), 3);
    }

    #[test]
    fn empty_distribution_behaves() {
        let logits = TokenLogits::from_candidates(vec![]);
        assert!(logits.is_empty());
        assert_eq!(logits.top1(), None);
        assert_eq!(logits.top1_probability(), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds 1")]
    fn oversubscribed_probabilities_panic() {
        TokenLogits::from_candidates(vec![(t(1), 0.8), (t(2), 0.5)]);
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn certain_with_invalid_probability_panics() {
        TokenLogits::certain(t(1), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The construction rule spelled out plainly: drop non-positive
    /// probabilities, keep each token's highest probability at its first
    /// position, then sort by descending probability, ties in that order.
    fn reference(pairs: &[(TokenId, f64)]) -> Vec<Candidate> {
        let mut kept: Vec<Candidate> = Vec::new();
        for &(token, probability) in pairs.iter().filter(|(_, p)| *p > 0.0) {
            match kept.iter_mut().find(|c| c.token == token) {
                Some(existing) => existing.probability = existing.probability.max(probability),
                None => kept.push(Candidate { token, probability }),
            }
        }
        kept.sort_by(|a, b| b.probability.partial_cmp(&a.probability).expect("finite"));
        kept
    }

    proptest! {
        #[test]
        fn construction_preserves_order_and_bounds(
            raw in proptest::collection::vec((0u32..500, 0.0f64..0.099), 0..10),
            // Few tokens and a coarse grid: duplicate tokens, tied
            // probabilities, zeros and negatives all come up often.
            grid in proptest::collection::vec((0u32..6, 0u32..12), 0..12),
        ) {
            let drawn = raw.into_iter().map(|(t, p)| (TokenId::new(t), p));
            let gridded = grid
                .into_iter()
                .map(|(t, step)| (TokenId::new(t), (f64::from(step) - 2.0) * 0.01));
            for pairs in [drawn.collect::<Vec<_>>(), gridded.collect()] {
                let logits = TokenLogits::from_candidates(pairs.clone());
                prop_assert_eq!(&logits.candidates, &reference(&pairs));
                let probs: Vec<f64> = logits.iter().map(|c| c.probability).collect();
                for pair in probs.windows(2) {
                    prop_assert!(pair[0] >= pair[1]);
                }
                prop_assert!(probs.iter().sum::<f64>() <= 1.0 + 1e-6);
                for candidate in logits.iter() {
                    prop_assert!(candidate.probability > 0.0);
                }
            }
        }
    }
}
