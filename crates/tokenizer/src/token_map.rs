//! Precomputed n-gram token-map index for model-free draft generation.
//!
//! Ho et al. (*Model-free Speculative Decoding with Token Map Drafting*)
//! replace the draft model with a table: over a domain corpus, record which
//! token most often follows each short token context, then at decode time
//! walk the table from the committed prefix to produce draft tokens — zero
//! forward passes, zero draft KV cache.  Drafting simply stops ("falls
//! off-map") when the current context was never seen or its continuation is
//! ambiguous, which yields shorter drafts on out-of-domain audio instead of
//! wrong ones.
//!
//! [`TokenMapIndex`] is that table: for every context window up to a
//! configurable order, the answer decided once at build time — the token
//! that followed it more often than all others together, or "ambiguous" —
//! queried with longest-suffix backoff.  A context and its length pack into
//! one `u128` key, so the index is a single hash table of keys and answers:
//! one allocation however many contexts it holds, and one probe per suffix
//! tried.  The build sorts each order's (context, next token) windows, so
//! each context's continuations lie side by side and its majority is read
//! off in one pass, with no per-context map.  Construction is fully
//! deterministic, so the same corpus always yields the same index — the
//! reproducibility bar every other component of this workspace meets.
//!
//! The index is pure token-sequence machinery, which is why it lives in
//! `specasr-tokenizer`; the drafter that walks it during decoding is
//! `specasr::TokenMapDrafter` in the core crate.

use std::collections::HashMap;

use crate::vocab::TokenId;

/// Default maximum context length (n-gram order minus one).
const DEFAULT_MAX_CONTEXT: usize = 3;

/// Longest context a key holds: three 32-bit token ids beside the length.
const MAX_CONTEXT_LIMIT: usize = 3;

/// Packs `tokens` into the low `32 * tokens.len()` bits, the oldest token
/// highest.
fn pack(tokens: &[TokenId]) -> u128 {
    tokens.iter().fold(0, |packed, token| {
        (packed << 32) | u128::from(token.value())
    })
}

/// The index key of a context of `len` tokens (at most
/// [`MAX_CONTEXT_LIMIT`]) packed by [`pack`]: the length in the top 32
/// bits, the tokens below.
fn key(len: usize, packed: u128) -> u128 {
    ((len as u128) << 96) | packed
}

/// A precomputed n-gram/trie index over a domain token corpus, mapping short
/// contexts to their dominant continuation.
///
/// # Example
///
/// ```
/// use specasr_tokenizer::{TokenId, TokenMapIndex};
///
/// let t = |raw: u32| TokenId::new(raw);
/// // A tiny "domain corpus" where 5 always follows [3, 4].
/// let sequences = [vec![t(3), t(4), t(5), t(6)], vec![t(2), t(3), t(4), t(5)]];
/// let index = TokenMapIndex::build(sequences.iter().map(Vec::as_slice), 2);
///
/// assert_eq!(index.predict(&[t(3), t(4)]), Some(t(5)));
/// assert_eq!(index.predict(&[t(99)]), None); // off-map
/// ```
#[derive(Debug, Clone)]
pub struct TokenMapIndex {
    max_context: usize,
    /// Every recorded context by its [`key`], with the token that followed it
    /// more often than all others together, or `None` when no token did.
    answers: HashMap<u128, Option<TokenId>>,
}

impl TokenMapIndex {
    /// Builds the index from domain token sequences, recording every context
    /// window of length `1..=max_context` with its majority continuation.
    ///
    /// Sequences should be terminated the way decoding terminates (i.e.
    /// include the EOS token) if the index is meant to predict end-of-
    /// transcript; the builder itself is agnostic.
    ///
    /// # Panics
    ///
    /// Panics if `max_context` is zero or above 3, the longest context a
    /// key packs.
    pub fn build<'a, I>(sequences: I, max_context: usize) -> Self
    where
        I: IntoIterator<Item = &'a [TokenId]>,
    {
        assert!(max_context > 0, "context length must be positive");
        assert!(
            max_context <= MAX_CONTEXT_LIMIT,
            "context length must be at most {MAX_CONTEXT_LIMIT}"
        );
        let sequences: Vec<&[TokenId]> = sequences.into_iter().collect();
        let mut answers: HashMap<u128, Option<TokenId>> = HashMap::new();
        // One row per window of `order + 1` tokens: the context in the high
        // bits, the token that followed it in the low 32.  Sorted, each
        // context's rows are adjacent, and so are equal continuations.
        let mut rows: Vec<u128> = Vec::new();
        for order in 1..=max_context {
            rows.clear();
            for sequence in &sequences {
                rows.extend(sequence.windows(order + 1).map(pack));
            }
            rows.sort_unstable();
            for continuations in rows.chunk_by(|a, b| a >> 32 == b >> 32) {
                let context = continuations[0] >> 32;
                answers.insert(key(order, context), majority(continuations));
            }
        }
        TokenMapIndex {
            max_context,
            answers,
        }
    }

    /// Builds the index with the default context length (3, i.e. 4-grams).
    pub fn build_default<'a, I>(sequences: I) -> Self
    where
        I: IntoIterator<Item = &'a [TokenId]>,
    {
        Self::build(sequences, DEFAULT_MAX_CONTEXT)
    }

    /// Predicts the continuation of `context` with longest-suffix backoff:
    /// the longest recorded suffix (up to the index's context length)
    /// decides.  Returns `None` when no suffix was recorded, or when the
    /// longest recorded one is ambiguous — the signal to stop drafting.
    pub fn predict(&self, context: &[TokenId]) -> Option<TokenId> {
        let suffix = &context[context.len().saturating_sub(self.max_context)..];
        // An ambiguous long context is not rescued by a shorter one: the
        // longer window is strictly better informed, so backing off would
        // trade signal for noise.
        (0..suffix.len())
            .find_map(|skip| {
                let context = &suffix[skip..];
                self.answers.get(&key(context.len(), pack(context)))
            })
            .copied()
            .flatten()
    }

    /// Maximum context length the index was built with.
    pub fn max_context(&self) -> usize {
        self.max_context
    }

    /// Number of distinct contexts recorded, ambiguous ones included.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Returns `true` if the index recorded no contexts at all.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }
}

/// The continuation that accounts for more than half of one context's
/// sorted `rows`, if any.
fn majority(rows: &[u128]) -> Option<TokenId> {
    let top = rows.chunk_by(|a, b| a == b).max_by_key(|run| run.len())?;
    (top.len() * 2 > rows.len()).then(|| TokenId::new(top[0] as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(raw: u32) -> TokenId {
        TokenId::new(raw)
    }

    fn seq(raw: &[u32]) -> Vec<TokenId> {
        raw.iter().copied().map(TokenId::new).collect()
    }

    #[test]
    fn predicts_the_dominant_continuation() {
        let sequences = [seq(&[1, 2, 3]), seq(&[1, 2, 3]), seq(&[1, 2, 4])];
        let index = TokenMapIndex::build(sequences.iter().map(Vec::as_slice), 2);
        assert_eq!(index.predict(&[t(1), t(2)]), Some(t(3)));
        assert_eq!(index.predict(&[t(1)]), Some(t(2)));
    }

    #[test]
    fn ambiguous_contexts_are_off_map() {
        // After [1], tokens 2 and 3 each appear half the time: no majority.
        let sequences = [seq(&[1, 2]), seq(&[1, 3])];
        let index = TokenMapIndex::build(sequences.iter().map(Vec::as_slice), 2);
        assert_eq!(index.predict(&[t(1)]), None);
    }

    #[test]
    fn unseen_contexts_back_off_to_shorter_suffixes() {
        let sequences = [seq(&[5, 6, 7])];
        let index = TokenMapIndex::build(sequences.iter().map(Vec::as_slice), 2);
        // [9, 6] was never recorded, but the suffix [6] was.
        assert_eq!(index.predict(&[t(9), t(6)]), Some(t(7)));
        assert_eq!(index.predict(&[t(42)]), None);
    }

    #[test]
    fn longer_contexts_override_shorter_ones() {
        // After [2], token 9 dominates globally, but after [1, 2] it is
        // always 3 — the longer window must win.
        let sequences = [seq(&[1, 2, 3]), seq(&[4, 2, 9]), seq(&[5, 2, 9])];
        let index = TokenMapIndex::build(sequences.iter().map(Vec::as_slice), 2);
        assert_eq!(index.predict(&[t(1), t(2)]), Some(t(3)));
        assert_eq!(index.predict(&[t(4), t(2)]), Some(t(9)));
        assert_eq!(index.predict(&[t(2)]), Some(t(9)));
    }

    #[test]
    fn construction_is_deterministic() {
        let sequences = [seq(&[1, 2, 3, 4, 5]), seq(&[2, 3, 4, 6])];
        let a = TokenMapIndex::build(sequences.iter().map(Vec::as_slice), 3);
        let b = TokenMapIndex::build(sequences.iter().map(Vec::as_slice), 3);
        assert_eq!(a.len(), b.len());
        for context in [&[t(2), t(3)][..], &[t(3)][..], &[t(2), t(3), t(4)][..]] {
            assert_eq!(a.predict(context), b.predict(context));
        }
    }

    #[test]
    fn empty_corpus_yields_an_empty_index() {
        let index = TokenMapIndex::build(std::iter::empty(), 3);
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        assert_eq!(index.predict(&[t(1)]), None);
        assert_eq!(index.predict(&[]), None);
    }

    #[test]
    fn default_order_is_four_grams() {
        let index = TokenMapIndex::build_default(std::iter::empty());
        assert_eq!(index.max_context(), 3);
    }

    #[test]
    #[should_panic(expected = "context length must be positive")]
    fn zero_context_panics() {
        let _ = TokenMapIndex::build(std::iter::empty(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// How often each token followed one context.
    #[derive(Debug, Default)]
    struct ContinuationCounts {
        total: usize,
        counts: HashMap<TokenId, usize>,
    }

    impl ContinuationCounts {
        fn record(&mut self, token: TokenId) {
            self.total += 1;
            *self.counts.entry(token).or_insert(0) += 1;
        }

        fn majority(&self) -> Option<TokenId> {
            let (&token, &count) = self
                .counts
                .iter()
                .max_by(|(ta, ca), (tb, cb)| ca.cmp(cb).then(tb.cmp(ta)))?;
            (count * 2 > self.total).then_some(token)
        }
    }

    /// The index before each context's answer was decided at build time:
    /// every context keyed by its own `Vec`, with a map of continuation
    /// counts whose majority each prediction recomputes.  The packed index
    /// must answer every query as it does.
    struct ReferenceIndex {
        max_context: usize,
        map: HashMap<Vec<TokenId>, ContinuationCounts>,
    }

    impl ReferenceIndex {
        fn build(sequences: &[Vec<TokenId>], max_context: usize) -> Self {
            let mut map: HashMap<Vec<TokenId>, ContinuationCounts> = HashMap::new();
            for sequence in sequences {
                for end in 1..sequence.len() {
                    let next = sequence[end];
                    for order in 1..=end.min(max_context) {
                        let context = sequence[end - order..end].to_vec();
                        map.entry(context).or_default().record(next);
                    }
                }
            }
            ReferenceIndex { max_context, map }
        }

        fn predict(&self, context: &[TokenId]) -> Option<TokenId> {
            let longest = context.len().min(self.max_context);
            for order in (1..=longest).rev() {
                if let Some(counts) = self.map.get(&context[context.len() - order..]) {
                    return counts.majority();
                }
            }
            None
        }
    }

    /// Few tokens, so contexts repeat and some turn ambiguous, with the
    /// extremes of the id range, so every bit of a packed key is exercised.
    const TOKENS: [u32; 4] = [0, 1, 7, u32::MAX];

    fn sequences_strategy() -> impl Strategy<Value = Vec<Vec<TokenId>>> {
        let token = prop::sample::select(TOKENS.to_vec()).prop_map(TokenId::new);
        proptest::collection::vec(proptest::collection::vec(token, 0..24), 0..8)
    }

    /// Every context over [`TOKENS`] of each length in `0..=max_len`.
    fn every_context(max_len: usize) -> Vec<Vec<TokenId>> {
        let mut contexts = vec![Vec::new()];
        let mut last = vec![Vec::new()];
        for _ in 0..max_len {
            last = last
                .iter()
                .flat_map(|context: &Vec<TokenId>| {
                    TOKENS.iter().map(move |&raw| {
                        let mut longer = context.clone();
                        longer.push(TokenId::new(raw));
                        longer
                    })
                })
                .collect();
            contexts.extend(last.iter().cloned());
        }
        contexts
    }

    proptest! {
        /// For every context length up to two past the index's, and every
        /// context length the key packs, the index answers every context
        /// as the reference does and counts as many contexts.
        #[test]
        fn packed_index_matches_the_reference(sequences in sequences_strategy()) {
            for max_context in 1..=MAX_CONTEXT_LIMIT {
                let index = TokenMapIndex::build(sequences.iter().map(Vec::as_slice), max_context);
                let reference = ReferenceIndex::build(&sequences, max_context);
                prop_assert_eq!(index.len(), reference.map.len());
                for context in every_context(max_context + 2) {
                    prop_assert_eq!(
                        index.predict(&context),
                        reference.predict(&context),
                        "context {:?}, max_context {}", context, max_context
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "context length must be at most 3")]
    fn contexts_longer_than_a_key_holds_panic() {
        let _ = TokenMapIndex::build(std::iter::empty(), MAX_CONTEXT_LIMIT + 1);
    }
}
