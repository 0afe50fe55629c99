//! Draft/target trajectory alignment measurements (Fig. 6b and Observation 2).
//!
//! The paper's draft-sequence-recycling technique rests on the observation
//! that a draft suffix which *failed* verification is nevertheless highly
//! aligned with the target's verified continuation — typically at the same
//! position or shifted by one (an insertion/substitution early in the suffix).
//! The helpers here quantify that alignment for arbitrary token sequences.

use serde::{Deserialize, Serialize};
use specasr_tokenizer::TokenId;

/// Result of aligning a rejected draft suffix against the target continuation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AlignmentStats {
    /// Number of draft tokens that reappear in the target continuation at the
    /// same or an allowed nearby position.
    pub matched: usize,
    /// Number of draft tokens considered.
    pub total: usize,
}

impl AlignmentStats {
    /// Fraction of draft tokens that re-align (0 when `total` is 0).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.matched as f64 / self.total as f64
        }
    }

    /// Merges two measurements.
    pub fn accumulate(&mut self, other: &AlignmentStats) {
        self.matched += other.matched;
        self.total += other.total;
    }
}

/// Measures how many tokens of `draft_suffix` reappear in
/// `target_continuation` at the same position or within `max_offset`
/// positions of it.
///
/// Both sequences are understood to start at the same output position (the
/// first unverified position).  `max_offset = 1` corresponds to the paper's
/// "corresponding or adjacent positions" merge rule.
///
/// # Example
///
/// ```
/// use specasr_models::alignment::suffix_alignment;
/// use specasr_tokenizer::TokenId;
///
/// let draft: Vec<TokenId> = [5u32, 6, 7, 8].into_iter().map(TokenId::new).collect();
/// let target: Vec<TokenId> = [9u32, 6, 7, 8].into_iter().map(TokenId::new).collect();
/// let stats = suffix_alignment(&draft, &target, 1);
/// assert_eq!(stats.matched, 3);
/// assert!((stats.rate() - 0.75).abs() < 1e-12);
/// ```
pub fn suffix_alignment(
    draft_suffix: &[TokenId],
    target_continuation: &[TokenId],
    max_offset: usize,
) -> AlignmentStats {
    let mut matched = 0usize;
    for (i, &token) in draft_suffix.iter().enumerate() {
        let lo = i.saturating_sub(max_offset);
        let hi = (i + max_offset).min(target_continuation.len().saturating_sub(1));
        if target_continuation.is_empty() {
            continue;
        }
        if (lo..=hi).any(|j| target_continuation.get(j) == Some(&token)) {
            matched += 1;
        }
    }
    AlignmentStats {
        matched,
        total: draft_suffix.len(),
    }
}

/// Position-wise agreement rate between two trajectories (compared up to the
/// shorter length; 0 if either is empty).
///
/// # Example
///
/// ```
/// use specasr_models::alignment::trajectory_agreement;
/// use specasr_tokenizer::TokenId;
///
/// let a: Vec<TokenId> = [1u32, 2, 3].into_iter().map(TokenId::new).collect();
/// let b: Vec<TokenId> = [1u32, 9, 3, 4].into_iter().map(TokenId::new).collect();
/// assert!((trajectory_agreement(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn trajectory_agreement(a: &[TokenId], b: &[TokenId]) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let matches = a.iter().zip(b.iter()).filter(|(x, y)| x == y).count();
    matches as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(raw: &[u32]) -> Vec<TokenId> {
        raw.iter().copied().map(TokenId::new).collect()
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let a = toks(&[1, 2, 3, 4]);
        let stats = suffix_alignment(&a, &a, 0);
        assert_eq!(stats.matched, 4);
        assert!((stats.rate() - 1.0).abs() < 1e-12);
        assert!((trajectory_agreement(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_substitution_keeps_the_rest_aligned_at_offset_zero() {
        let draft = toks(&[1, 2, 3, 4]);
        let target = toks(&[9, 2, 3, 4]);
        let stats = suffix_alignment(&draft, &target, 0);
        assert_eq!(stats.matched, 3);
    }

    #[test]
    fn insertion_requires_offset_one() {
        // Target has one extra token at the front, shifting everything by one.
        let draft = toks(&[2, 3, 4, 5]);
        let target = toks(&[1, 2, 3, 4, 5]);
        assert_eq!(suffix_alignment(&draft, &target, 0).matched, 0);
        assert_eq!(suffix_alignment(&draft, &target, 1).matched, 4);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let empty: Vec<TokenId> = vec![];
        let some = toks(&[1, 2]);
        assert_eq!(suffix_alignment(&empty, &some, 1).total, 0);
        assert_eq!(suffix_alignment(&empty, &some, 1).rate(), 0.0);
        assert_eq!(suffix_alignment(&some, &empty, 1).matched, 0);
        assert_eq!(trajectory_agreement(&empty, &some), 0.0);
    }

    #[test]
    fn alignment_by_offset_is_monotone() {
        let draft = toks(&[2, 3, 4, 5, 9]);
        let target = toks(&[1, 2, 3, 4, 5]);
        let profile: Vec<f64> = (0..=3)
            .map(|offset| suffix_alignment(&draft, &target, offset).rate())
            .collect();
        for pair in profile.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut total = AlignmentStats::default();
        total.accumulate(&AlignmentStats {
            matched: 2,
            total: 4,
        });
        total.accumulate(&AlignmentStats {
            matched: 3,
            total: 3,
        });
        assert_eq!(total.matched, 5);
        assert_eq!(total.total, 7);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn token_vec() -> impl Strategy<Value = Vec<TokenId>> {
        proptest::collection::vec((4u32..60).prop_map(TokenId::new), 0..30)
    }

    proptest! {
        #[test]
        fn alignment_rate_is_bounded_and_monotone_in_offset(
            draft in token_vec(),
            target in token_vec(),
        ) {
            let mut previous = 0.0f64;
            for offset in 0..4usize {
                let stats = suffix_alignment(&draft, &target, offset);
                prop_assert!(stats.matched <= stats.total);
                let rate = stats.rate();
                prop_assert!((0.0..=1.0).contains(&rate));
                prop_assert!(rate + 1e-12 >= previous);
                previous = rate;
            }
        }
    }
}
