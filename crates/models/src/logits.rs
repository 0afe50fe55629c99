//! Sparse top-k next-token distributions with normalised logits.
//!
//! The adaptive single-sequence prediction and two-pass sparse-tree policies
//! only ever look at the top few candidates of the draft model's output and
//! at the *normalised logit* (softmax probability) of the top-1 token, so the
//! simulated models return exactly that sparse view.
//!
//! A verify pass scores one distribution per probe, 16 or more for a sparse
//! tree, so a distribution keeps its first [`INLINE_CANDIDATES`] candidates
//! in place and only a longer one moves to the heap.  The simulated models
//! emit at most three, so building, scoring and draining a distribution
//! allocates nothing.

use specasr_tokenizer::TokenId;

/// Candidates a [`TokenLogits`] holds without a heap allocation.
pub const INLINE_CANDIDATES: usize = 4;

/// A candidate token with its normalised probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate token.
    pub token: TokenId,
    /// Normalised probability (softmax output) of the candidate.
    pub probability: f64,
}

impl Candidate {
    /// Fills the unused inline slots.
    const UNUSED: Candidate = Candidate {
        token: TokenId::new(0),
        probability: 0.0,
    };
}

/// The candidate storage of one distribution: in place up to
/// [`INLINE_CANDIDATES`], on the heap past that.
#[derive(Clone)]
pub(crate) enum Candidates {
    /// The first `len` slots hold the candidates.
    Inline {
        len: u8,
        slots: [Candidate; INLINE_CANDIDATES],
    },
    /// More candidates than fit in place.
    Spilled(Vec<Candidate>),
}

impl Candidates {
    const EMPTY: Candidates = Candidates::Inline {
        len: 0,
        slots: [Candidate::UNUSED; INLINE_CANDIDATES],
    };

    fn as_slice(&self) -> &[Candidate] {
        match self {
            Candidates::Inline { len, slots } => &slots[..usize::from(*len)],
            Candidates::Spilled(candidates) => candidates,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Candidate] {
        match self {
            Candidates::Inline { len, slots } => &mut slots[..usize::from(*len)],
            Candidates::Spilled(candidates) => candidates,
        }
    }

    /// Appends `candidate` as is, moving to the heap once the inline slots
    /// are full.  The wire decoder rebuilds a distribution bit for bit
    /// through this, without re-sorting or filtering it.
    pub(crate) fn push(&mut self, candidate: Candidate) {
        match self {
            Candidates::Inline { len, slots } if usize::from(*len) < INLINE_CANDIDATES => {
                slots[usize::from(*len)] = candidate;
                *len += 1;
            }
            Candidates::Inline { slots, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_CANDIDATES);
                spilled.extend_from_slice(slots);
                spilled.push(candidate);
                *self = Candidates::Spilled(spilled);
            }
            Candidates::Spilled(candidates) => candidates.push(candidate),
        }
    }
}

impl PartialEq for Candidates {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Candidates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Lets the construction proptest compare against its reference rule,
/// which builds a `Vec`.
#[cfg(test)]
impl PartialEq<Vec<Candidate>> for Candidates {
    fn eq(&self, other: &Vec<Candidate>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Sparse top-k distribution over the next token.
///
/// Candidates are stored in descending probability order; probabilities are
/// positive and sum to at most 1.  Up to [`INLINE_CANDIDATES`] of them live
/// in the value itself.
///
/// # Example
///
/// ```
/// use specasr_models::TokenLogits;
/// use specasr_tokenizer::TokenId;
///
/// let logits = TokenLogits::from_candidates([
///     (TokenId::new(10), 0.8),
///     (TokenId::new(11), 0.15),
/// ]);
/// assert_eq!(logits.top1().unwrap().token, TokenId::new(10));
/// assert_eq!(logits.rank_of(TokenId::new(11)), Some(2));
/// assert!((logits.top1_probability() - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TokenLogits {
    // Crate-visible so the wire decoder can rebuild a distribution bit for
    // bit, without re-sorting or filtering it.
    pub(crate) candidates: Candidates,
}

impl Default for TokenLogits {
    /// The empty distribution.
    fn default() -> Self {
        TokenLogits {
            candidates: Candidates::EMPTY,
        }
    }
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
    pub fn from_candidates(pairs: impl AsRef<[(TokenId, f64)]>) -> Self {
        // Filter and dedup straight into the storage: the retained pairs in
        // first-seen order, each token at its highest probability.
        let mut logits = TokenLogits::default();
        for &(token, probability) in pairs.as_ref() {
            if probability <= 0.0 {
                continue;
            }
            let kept = logits.candidates.as_mut_slice();
            match kept.iter_mut().find(|kept| kept.token == token) {
                Some(existing) => existing.probability = existing.probability.max(probability),
                None => logits.candidates.push(Candidate { token, probability }),
            }
        }
        let kept = logits.candidates.as_mut_slice();
        kept.sort_by(|a, b| {
            b.probability
                .partial_cmp(&a.probability)
                .expect("probabilities are finite")
        });
        let total: f64 = kept.iter().map(|c| c.probability).sum();
        assert!(
            total <= 1.0 + 1e-6,
            "candidate probabilities sum to {total}, which exceeds 1"
        );
        logits
    }

    /// A degenerate distribution that puts probability `p` on one token.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn certain(token: TokenId, p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "probability must be in (0, 1]");
        let mut logits = TokenLogits::default();
        logits.candidates.push(Candidate {
            token,
            probability: p,
        });
        logits
    }

    /// The number of retained candidates.
    pub fn len(&self) -> usize {
        self.candidates.as_slice().len()
    }

    /// Returns `true` if no candidate was retained.
    pub fn is_empty(&self) -> bool {
        self.candidates.as_slice().is_empty()
    }

    /// The highest-probability candidate.
    pub fn top1(&self) -> Option<Candidate> {
        self.candidates.as_slice().first().copied()
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
        self.top1().map_or(0.0, |c| c.probability)
    }

    /// The candidate at `rank` (1-based), if any.
    pub fn at_rank(&self, rank: usize) -> Option<Candidate> {
        if rank == 0 {
            return None;
        }
        self.candidates.as_slice().get(rank - 1).copied()
    }

    /// The 1-based rank of `token`, if it appears among the candidates.
    pub fn rank_of(&self, token: TokenId) -> Option<usize> {
        self.iter().position(|c| c.token == token).map(|i| i + 1)
    }

    /// Iterates over candidates in descending probability order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Candidate> {
        self.candidates.as_slice().iter()
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
    fn distributions_past_the_inline_capacity_spill_to_the_heap() {
        let pairs: Vec<(TokenId, f64)> = (1..=6).map(|i| (t(i), 0.02 * f64::from(i))).collect();
        let logits = TokenLogits::from_candidates(&pairs);
        assert_eq!(logits.len(), 6);
        assert!(matches!(logits.candidates, Candidates::Spilled(_)));
        let order: Vec<u32> = logits.iter().map(|c| c.token.value()).collect();
        assert_eq!(order, vec![6, 5, 4, 3, 2, 1]);
        assert_eq!(logits.rank_of(t(1)), Some(6));
        assert_eq!(logits.clone(), logits);
        // Equality reads the candidates, whichever storage holds them.
        let mut inline = TokenLogits::from_candidates(&pairs[..INLINE_CANDIDATES]);
        assert!(matches!(inline.candidates, Candidates::Inline { .. }));
        assert_ne!(inline, logits);
        inline.candidates = Candidates::Spilled(inline.iter().copied().collect());
        assert_eq!(
            inline,
            TokenLogits::from_candidates(&pairs[..INLINE_CANDIDATES])
        );
    }

    #[test]
    fn a_distribution_stays_small() {
        assert!(std::mem::size_of::<TokenLogits>() <= 72);
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
