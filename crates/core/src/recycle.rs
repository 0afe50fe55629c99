//! Draft sequence recycling: reuse of rejected draft suffixes.
//!
//! When a draft sequence fails verification at position `k`, the tokens after
//! `k` are not discarded ([`RecycleBuffer`] retains them).  In the next round
//! the draft model regenerates from the corrected prefix while the retained
//! suffix is kept as a parallel branch of a masked token tree; as soon as a
//! regenerated token matches a retained token at the corresponding (or an
//! adjacent) position, the two branches are merged and the rest of the
//! retained suffix is adopted without spending any further draft passes.
//!
//! [`run_draft_phase`] implements the draft side of one round for both the
//! adaptive single-sequence policy and the trunk of the two-pass sparse-tree
//! policy: greedy drafting with optional threshold truncation, optional
//! retained-suffix merging, and full latency accounting.

use serde::{Deserialize, Serialize};
use specasr_models::{AsrDecoderModel, DecodeClock, UtteranceTokens};
use specasr_tokenizer::TokenId;

/// The rejected suffix of the previous round's draft, retained for reuse.
///
/// # Example
///
/// ```
/// use specasr::RecycleBuffer;
/// use specasr_tokenizer::TokenId;
///
/// let draft: Vec<TokenId> = [10u32, 11, 12, 13, 14].into_iter().map(TokenId::new).collect();
/// // Verification accepted the first two tokens and rejected the third.
/// let buffer = RecycleBuffer::from_rejected(&draft, 2);
/// assert_eq!(buffer.tokens(), &[TokenId::new(13), TokenId::new(14)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecycleBuffer {
    tokens: Vec<TokenId>,
}

impl RecycleBuffer {
    /// Creates an empty buffer (nothing to recycle).
    pub fn new() -> Self {
        RecycleBuffer::default()
    }

    /// Retains the suffix of `draft_tokens` that follows the rejected token.
    ///
    /// `accepted_len` is the number of accepted tokens; the token at
    /// `accepted_len` itself was rejected (and replaced by the target's
    /// correction), so the retained suffix starts at `accepted_len + 1`.
    pub fn from_rejected(draft_tokens: &[TokenId], accepted_len: usize) -> Self {
        let mut buffer = RecycleBuffer::new();
        buffer.retain_rejected(draft_tokens, accepted_len);
        buffer
    }

    /// Replaces the retained tokens with the suffix
    /// [`RecycleBuffer::from_rejected`] would keep, refilling the buffer in
    /// place: once it has held the longest suffix, a round's commit
    /// allocates nothing for it.
    pub(crate) fn retain_rejected(&mut self, draft_tokens: &[TokenId], accepted_len: usize) {
        let start = (accepted_len + 1).min(draft_tokens.len());
        self.tokens.clear();
        self.tokens.extend_from_slice(&draft_tokens[start..]);
    }

    /// The retained tokens.
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Returns `true` if there is nothing to recycle.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Number of retained tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }
}

/// One token produced by the draft phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DraftToken {
    /// The drafted token.
    pub token: TokenId,
    /// The draft model's normalised top-1 probability (1.0 for recycled
    /// tokens, whose probability was paid for in an earlier round).
    pub probability: f64,
    /// The rank-2 candidate and its probability, recorded for sparse-tree
    /// branch expansion.
    pub runner_up: Option<(TokenId, f64)>,
    /// `true` if the token was adopted from the retained suffix rather than
    /// regenerated.
    pub recycled: bool,
}

/// The outcome of one draft phase.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct DraftPhase {
    /// Drafted tokens in order.
    pub tokens: Vec<DraftToken>,
    /// Draft forward passes issued.
    pub steps: usize,
    /// Tokens adopted through a recycling merge.
    pub recycled: usize,
    /// Whether drafting stopped early because of the logit threshold.
    pub truncated: bool,
}

impl DraftPhase {
    /// The plain token sequence of this draft.
    pub fn token_ids(&self) -> Vec<TokenId> {
        self.tokens.iter().map(|t| t.token).collect()
    }
}

/// Runs the draft side of one speculative round.
///
/// * `retained` — the recycled suffix from the previous round (empty slice if
///   recycling is disabled or nothing was rejected);
/// * `max_len` — maximum draft length;
/// * `threshold` / `truncate_on_threshold` — the adaptive truncation rule
///   (the sparse-tree trunk records uncertainty but keeps drafting);
/// * `merge_offset` — how far apart a regenerated and a retained token may be
///   and still merge ("corresponding or adjacent positions" = 1).
///
/// Latency: each regeneration step charges one draft forward pass; while a
/// retained suffix is being tracked the pass processes two tokens (the masked
/// parallel decode of the paper), otherwise one.  Tokens adopted via a merge
/// charge nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_draft_phase<M>(
    draft: &M,
    audio: &UtteranceTokens,
    prefix: &[TokenId],
    retained: &[TokenId],
    max_len: usize,
    threshold: f64,
    truncate_on_threshold: bool,
    merge_offset: usize,
    clock: &mut DecodeClock,
) -> DraftPhase
where
    M: AsrDecoderModel + ?Sized,
{
    let mut phase = DraftPhase {
        tokens: Vec::with_capacity(max_len),
        ..DraftPhase::default()
    };
    let mut context = draft_context(prefix, max_len);
    let parallel_width = if retained.is_empty() { 1 } else { 2 };

    while phase.tokens.len() < max_len {
        let logits = draft.next_logits(audio, &context);
        clock.charge_draft(draft.profile().latency(), parallel_width);
        phase.steps += 1;

        let Some(top1) = logits.top1() else {
            break;
        };
        let runner_up = logits.at_rank(2).map(|c| (c.token, c.probability));
        phase.tokens.push(DraftToken {
            token: top1.token,
            probability: top1.probability,
            runner_up,
            recycled: false,
        });
        context.push(top1.token);

        if top1.token == audio.eos() {
            break;
        }

        // Recycling merge: if the regenerated token matches a retained token
        // at the corresponding or an adjacent position, adopt the rest of the
        // retained suffix for free.
        let position = phase.tokens.len() - 1;
        if !retained.is_empty() {
            if let Some(matched) = merge_position(retained, position, top1.token, merge_offset) {
                for &token in retained.iter().skip(matched + 1) {
                    if phase.tokens.len() >= max_len || token == audio.eos() {
                        break;
                    }
                    phase.tokens.push(DraftToken {
                        token,
                        probability: 1.0,
                        runner_up: None,
                        recycled: true,
                    });
                    context.push(token);
                    phase.recycled += 1;
                }
                break;
            }
        }

        if truncate_on_threshold && top1.probability < threshold {
            // Truncate *before* the uncertain token: it is more likely than
            // not to fail verification, so the round is sent for verification
            // without it and the target's correction resolves the position.
            phase.tokens.pop();
            context.pop();
            phase.truncated = true;
            break;
        }
    }
    phase
}

/// A draft-query context: `prefix`, with room for the `room` tokens a draft
/// round may append to it.
pub(crate) fn draft_context(prefix: &[TokenId], room: usize) -> Vec<TokenId> {
    let mut context = Vec::with_capacity(prefix.len() + room);
    context.extend_from_slice(prefix);
    context
}

/// Finds the index of `retained` that `token` (drafted at `position`) may
/// merge with: the corresponding position first, then nearer offsets up to
/// `merge_offset`, the earlier index first at equal distance.  Recycling
/// merges onto the retained suffix, and sparse-tree branches onto the trunk.
pub(crate) fn merge_position(
    retained: &[TokenId],
    position: usize,
    token: TokenId,
    merge_offset: usize,
) -> Option<usize> {
    let last = retained.len().checked_sub(1)?;
    (0..=merge_offset).find_map(|distance| {
        let earlier = position.checked_sub(distance);
        let later = (distance > 0).then_some(position + distance);
        [earlier, later]
            .into_iter()
            .flatten()
            .find(|&index| index <= last && retained[index] == token)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};

    fn t(raw: u32) -> TokenId {
        TokenId::new(raw)
    }

    #[test]
    fn buffer_retains_the_post_rejection_suffix() {
        let draft: Vec<TokenId> = [1u32, 2, 3, 4, 5].into_iter().map(TokenId::new).collect();
        assert_eq!(
            RecycleBuffer::from_rejected(&draft, 0).tokens(),
            &draft[1..]
        );
        assert_eq!(
            RecycleBuffer::from_rejected(&draft, 3).tokens(),
            &draft[4..]
        );
        assert!(RecycleBuffer::from_rejected(&draft, 4).is_empty());
        assert!(RecycleBuffer::from_rejected(&draft, 99).is_empty());
        assert_eq!(RecycleBuffer::from_rejected(&draft, 1).len(), 3);
        assert!(RecycleBuffer::new().is_empty());
    }

    #[test]
    fn merge_position_prefers_the_corresponding_slot() {
        let retained: Vec<TokenId> = [7u32, 8, 7].into_iter().map(TokenId::new).collect();
        assert_eq!(merge_position(&retained, 0, t(7), 1), Some(0));
        assert_eq!(merge_position(&retained, 2, t(7), 1), Some(2));
        assert_eq!(merge_position(&retained, 1, t(7), 1), Some(0));
        assert_eq!(merge_position(&retained, 1, t(9), 1), None);
        assert_eq!(merge_position(&[], 0, t(9), 1), None);
        // Offset 0 only matches the exact position.
        assert_eq!(merge_position(&retained, 1, t(7), 0), None);
    }

    /// The merge rule written as a sort, the reference `merge_position`
    /// must match: the candidate window ordered by distance from `position`,
    /// earlier indices first at equal distance.
    fn merge_position_by_sorting(
        retained: &[TokenId],
        position: usize,
        token: TokenId,
        merge_offset: usize,
    ) -> Option<usize> {
        if retained.is_empty() {
            return None;
        }
        let lo = position.saturating_sub(merge_offset);
        let hi = (position + merge_offset).min(retained.len() - 1);
        let mut candidates: Vec<usize> = (lo..=hi).collect();
        candidates.sort_by_key(|&j| j.abs_diff(position));
        candidates.into_iter().find(|&j| retained[j] == token)
    }

    #[test]
    fn merge_position_searches_the_window_in_sorted_order() {
        let tokens: Vec<TokenId> = [7u32, 8, 7, 9, 8, 7]
            .into_iter()
            .map(TokenId::new)
            .collect();
        for len in 0..=tokens.len() {
            let retained = &tokens[..len];
            for position in 0..len + 4 {
                for merge_offset in 0..4 {
                    for token in [7, 8, 9, 10].map(t) {
                        assert_eq!(
                            merge_position(retained, position, token, merge_offset),
                            merge_position_by_sorting(retained, position, token, merge_offset),
                            "{retained:?} at {position}, offset {merge_offset}, {token:?}"
                        );
                    }
                }
            }
        }
    }

    fn setup() -> (SimulatedAsrModel, SimulatedAsrModel, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(23, 6);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(Split::TestOther));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target, audio)
    }

    #[test]
    fn draft_phase_respects_the_length_cap() {
        let (draft, _, audio) = setup();
        let mut clock = DecodeClock::new();
        let phase = run_draft_phase(&draft, &audio[0], &[], &[], 5, 0.0, false, 1, &mut clock);
        assert!(phase.tokens.len() <= 5);
        assert_eq!(phase.steps as u64, clock.draft_passes());
        assert_eq!(phase.recycled, 0);
    }

    #[test]
    fn threshold_truncation_stops_early_on_uncertain_tokens() {
        let (draft, _, audio) = setup();
        // With an extreme threshold every round truncates immediately and the
        // uncertain token itself is withheld from verification.
        let mut clock = DecodeClock::new();
        let phase = run_draft_phase(&draft, &audio[0], &[], &[], 24, 1.0, true, 1, &mut clock);
        assert!(phase.truncated);
        assert!(phase.tokens.is_empty());
        assert_eq!(
            phase.steps, 1,
            "the pass that produced the withheld token is still paid for"
        );
        // With threshold 0 no truncation ever happens.
        let mut clock2 = DecodeClock::new();
        let phase2 = run_draft_phase(&draft, &audio[0], &[], &[], 24, 0.0, true, 1, &mut clock2);
        assert!(!phase2.truncated);
    }

    #[test]
    fn recycling_merge_adopts_the_retained_suffix_without_extra_passes() {
        let (draft, target, audio) = setup();
        let utt = &audio[0];
        // Retain the target's own continuation from position 1: the draft's
        // regenerated token at position 0 or 1 will match it quickly.
        let trajectory = target.greedy_transcript(utt);
        let retained: Vec<TokenId> = trajectory.iter().copied().skip(1).take(8).collect();
        let mut clock = DecodeClock::new();
        let phase = run_draft_phase(
            &draft,
            utt,
            &trajectory[..1],
            &retained,
            24,
            0.0,
            false,
            1,
            &mut clock,
        );
        if phase.recycled > 0 {
            // Adopted tokens must not have cost draft passes.
            assert!(phase.steps < phase.tokens.len());
            assert!(phase.tokens.iter().any(|t| t.recycled));
        }
        // Every recycled token appears in the retained suffix.
        for token in phase.tokens.iter().filter(|t| t.recycled) {
            assert!(retained.contains(&token.token));
        }
    }

    #[test]
    fn retained_suffix_widens_the_draft_pass() {
        let (draft, _, audio) = setup();
        let retained = vec![t(999); 4];
        let mut clock = DecodeClock::new();
        run_draft_phase(
            &draft,
            &audio[0],
            &[],
            &retained,
            4,
            0.0,
            false,
            1,
            &mut clock,
        );
        // Each pass processed two tokens (regeneration + retained tracking).
        assert_eq!(clock.draft_tokens_processed(), 2 * clock.draft_passes());
    }

    #[test]
    fn eos_stops_drafting() {
        let (draft, target, audio) = setup();
        let utt = &audio[1];
        let trajectory = target.greedy_transcript(utt);
        // Starting right at the end of the reference, the first drafted token
        // is EOS and drafting stops immediately.
        let mut clock = DecodeClock::new();
        let phase = run_draft_phase(&draft, utt, &trajectory, &[], 24, 0.0, false, 1, &mut clock);
        assert_eq!(phase.tokens.len(), 1);
        assert_eq!(phase.tokens[0].token, utt.eos());
    }
}
