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
//! A stream recycles across chunks the same way: the first round after a new
//! chunk retains the unstable tail of the stream's last partial, the target's
//! own output for the shorter view.  That tail is *open-ended*: it stopped at
//! the old audio horizon, not at a drafting decision, so a phase that adopts
//! it to its end keeps drafting past it.  A rejected suffix is *closed*, and
//! adopting it ends the phase.
//!
//! [`run_draft_phase`] implements the draft side of one round for both the
//! adaptive single-sequence policy and the trunk of the two-pass sparse-tree
//! policy: greedy drafting with optional threshold truncation, optional
//! retained-suffix merging, and full latency accounting.  It writes the
//! drafted tokens straight into the round's token buffer, and each token's
//! draft-side detail and the query context into the round's working space,
//! all emptied and refilled in place, so a warm phase allocates nothing.

use serde::{Deserialize, Serialize};
use specasr_models::{AsrDecoderModel, DecodeClock, UtteranceTokens};
use specasr_tokenizer::TokenId;

/// The tokens the next round's draft phase may recycle: the rejected suffix
/// of the previous round's draft, or, for a stream's first round after a
/// new chunk, its last partial's unstable tail.  A rejected suffix is
/// closed: adopting it ends the draft phase.  A tail is open-ended, since it
/// stopped at the old audio horizon: once adopted whole, drafting goes on
/// past it.
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
    /// Whether the tokens ended at an audio horizon rather than where a
    /// round stopped drafting (always `false` while the buffer is empty).
    open_ended: bool,
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
        self.open_ended = false;
    }

    /// Replaces the retained tokens with `tail`, open-ended, in place: a
    /// stream's last unstable tail for the first round of its next chunk,
    /// or nothing (an empty, closed buffer).
    pub(crate) fn seed(&mut self, tail: &[TokenId]) {
        self.tokens.clear();
        self.tokens.extend_from_slice(tail);
        self.open_ended = !tail.is_empty();
    }

    /// Makes room for `len` tokens, so seeding a tail that long allocates
    /// nothing.
    pub(crate) fn reserve(&mut self, len: usize) {
        self.tokens.reserve(len.saturating_sub(self.tokens.len()));
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

/// The draft side of one token a draft phase produced.  The token itself
/// sits at the same index of the phase's token buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DraftToken {
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

/// The counters of one draft phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct DraftPhase {
    /// Draft forward passes issued.
    pub steps: usize,
    /// Tokens adopted through a recycling merge.
    pub recycled: usize,
    /// Whether drafting stopped early because of the logit threshold.
    pub truncated: bool,
}

/// How one draft phase drafts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PhaseRule {
    /// Maximum draft length.
    pub max_len: usize,
    /// The normalised top-1 probability below which a token is uncertain.
    pub threshold: f64,
    /// Whether an uncertain token ends the phase (the adaptive rule), or is
    /// only recorded (the sparse-tree trunk keeps drafting).
    pub truncate_on_threshold: bool,
    /// How far apart a regenerated and a retained token may be and still
    /// merge ("corresponding or adjacent positions" = 1).
    pub merge_offset: usize,
}

/// Runs the draft side of one speculative round.
///
/// * `recycle` — the tokens this round may recycle (`None` if the policy
///   does not recycle);
/// * `tokens` — emptied, then filled with the drafted tokens;
/// * `detail` — emptied, then filled with each drafted token's
///   [`DraftToken`], index-aligned with `tokens`;
/// * `context` — the draft-model query context, rebuilt as `prefix` plus
///   the tokens drafted so far.
///
/// A merge adopts the rest of the retained tokens and ends the phase, unless
/// they are open-ended and were adopted to their end (not cut by `max_len`
/// or EOS): drafting then goes on past them under the same rule.
///
/// Latency: each regeneration step charges one draft forward pass; while
/// retained tokens are being tracked the pass processes two tokens (the
/// masked parallel decode of the paper), otherwise one.  Tokens adopted via a
/// merge charge nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_draft_phase<M>(
    draft: &M,
    audio: &UtteranceTokens,
    prefix: &[TokenId],
    recycle: Option<&RecycleBuffer>,
    rule: PhaseRule,
    clock: &mut DecodeClock,
    tokens: &mut Vec<TokenId>,
    detail: &mut Vec<DraftToken>,
    context: &mut Vec<TokenId>,
) -> DraftPhase
where
    M: AsrDecoderModel + ?Sized,
{
    let mut phase = DraftPhase::default();
    // Room for a full-length draft: one allocation per buffer when the
    // buffers are new, nothing once they have held as much.
    tokens.clear();
    tokens.reserve(rule.max_len);
    detail.clear();
    detail.reserve(rule.max_len);
    context.clear();
    context.reserve(prefix.len() + rule.max_len);
    context.extend_from_slice(prefix);
    let (mut retained, open_ended) = recycle.map_or((&[][..], false), |buffer| {
        (buffer.tokens(), buffer.open_ended)
    });

    while tokens.len() < rule.max_len {
        let logits = draft.next_logits(audio, context);
        let parallel_width = if retained.is_empty() { 1 } else { 2 };
        clock.charge_draft(draft.profile().latency(), parallel_width);
        phase.steps += 1;

        let Some(top1) = logits.top1() else {
            break;
        };
        let runner_up = logits.at_rank(2).map(|c| (c.token, c.probability));
        tokens.push(top1.token);
        detail.push(DraftToken {
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
        // retained tokens for free.
        let position = tokens.len() - 1;
        if let Some(matched) = merge_position(retained, position, top1.token, rule.merge_offset) {
            let rest = &retained[matched + 1..];
            let mut adopted = 0;
            for &token in rest {
                if tokens.len() >= rule.max_len || token == audio.eos() {
                    break;
                }
                tokens.push(token);
                detail.push(DraftToken {
                    probability: 1.0,
                    runner_up: None,
                    recycled: true,
                });
                context.push(token);
                adopted += 1;
            }
            phase.recycled += adopted;
            if !open_ended || adopted < rest.len() {
                break;
            }
            // An open-ended tail adopted whole: draft on past it, alone.
            retained = &[];
            continue;
        }

        if rule.truncate_on_threshold && top1.probability < rule.threshold {
            // Truncate *before* the uncertain token: it is more likely than
            // not to fail verification, so the round is sent for verification
            // without it and the target's correction resolves the position.
            tokens.pop();
            detail.pop();
            context.pop();
            phase.truncated = true;
            break;
        }
    }
    phase
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

    /// A phase's drafted tokens, their detail and its counters.
    type Phase = (Vec<TokenId>, Vec<DraftToken>, DraftPhase);

    /// Runs one draft phase into fresh buffers.
    fn phase(
        draft: &SimulatedAsrModel,
        audio: &UtteranceTokens,
        prefix: &[TokenId],
        recycle: &RecycleBuffer,
        rule: PhaseRule,
        clock: &mut DecodeClock,
    ) -> Phase {
        let (mut tokens, mut detail, mut context) = (Vec::new(), Vec::new(), Vec::new());
        let counters = run_draft_phase(
            draft,
            audio,
            prefix,
            Some(recycle),
            rule,
            clock,
            &mut tokens,
            &mut detail,
            &mut context,
        );
        assert_eq!(tokens.len(), detail.len(), "one detail per drafted token");
        (tokens, detail, counters)
    }

    /// `tokens` retained as a rejected suffix: closed.
    fn closed(tokens: &[TokenId]) -> RecycleBuffer {
        RecycleBuffer {
            tokens: tokens.to_vec(),
            open_ended: false,
        }
    }

    /// `tokens` seeded as a stream's last tail: open-ended.
    fn open(tokens: &[TokenId]) -> RecycleBuffer {
        let mut buffer = RecycleBuffer::new();
        buffer.seed(tokens);
        buffer
    }

    /// A rule drafting up to `max_len` tokens with merge offset 1.
    fn rule(max_len: usize, threshold: f64, truncate_on_threshold: bool) -> PhaseRule {
        PhaseRule {
            max_len,
            threshold,
            truncate_on_threshold,
            merge_offset: 1,
        }
    }

    #[test]
    fn draft_phase_respects_the_length_cap() {
        let (draft, _, audio) = setup();
        let mut clock = DecodeClock::new();
        let (tokens, _, counters) = phase(
            &draft,
            &audio[0],
            &[],
            &RecycleBuffer::new(),
            rule(5, 0.0, false),
            &mut clock,
        );
        assert!(tokens.len() <= 5);
        assert_eq!(counters.steps as u64, clock.draft_passes());
        assert_eq!(counters.recycled, 0);
    }

    #[test]
    fn threshold_truncation_stops_early_on_uncertain_tokens() {
        let (draft, _, audio) = setup();
        // With an extreme threshold every round truncates immediately and the
        // uncertain token itself is withheld from verification.
        let mut clock = DecodeClock::new();
        let (tokens, _, counters) = phase(
            &draft,
            &audio[0],
            &[],
            &RecycleBuffer::new(),
            rule(24, 1.0, true),
            &mut clock,
        );
        assert!(counters.truncated);
        assert!(tokens.is_empty());
        assert_eq!(
            counters.steps, 1,
            "the pass that produced the withheld token is still paid for"
        );
        // With threshold 0 no truncation ever happens.
        let mut clock2 = DecodeClock::new();
        let (_, _, counters2) = phase(
            &draft,
            &audio[0],
            &[],
            &RecycleBuffer::new(),
            rule(24, 0.0, true),
            &mut clock2,
        );
        assert!(!counters2.truncated);
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
        let (tokens, detail, counters) = phase(
            &draft,
            utt,
            &trajectory[..1],
            &closed(&retained),
            rule(24, 0.0, false),
            &mut clock,
        );
        if counters.recycled > 0 {
            // Adopted tokens must not have cost draft passes.
            assert!(counters.steps < tokens.len());
            assert!(detail.iter().any(|d| d.recycled));
        }
        // Every recycled token appears in the retained suffix.
        for (token, _) in tokens.iter().zip(&detail).filter(|(_, d)| d.recycled) {
            assert!(retained.contains(token));
        }
    }

    #[test]
    fn retained_suffix_widens_the_draft_pass() {
        let (draft, _, audio) = setup();
        let retained = vec![t(999); 4];
        let mut clock = DecodeClock::new();
        phase(
            &draft,
            &audio[0],
            &[],
            &closed(&retained),
            rule(4, 0.0, false),
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
        let (tokens, _, _) = phase(
            &draft,
            utt,
            &trajectory,
            &RecycleBuffer::new(),
            rule(24, 0.0, false),
            &mut clock,
        );
        assert_eq!(tokens, vec![utt.eos()]);
    }

    #[test]
    fn a_phase_refills_its_buffers_whatever_they_held() {
        let (draft, target, audio) = setup();
        let trajectory = target.greedy_transcript(&audio[0]);
        let retained: Vec<TokenId> = trajectory.iter().copied().skip(1).take(8).collect();
        let (mut tokens, mut detail, mut context) = (vec![t(5); 30], Vec::new(), vec![t(6); 40]);
        detail.resize(
            30,
            DraftToken {
                probability: 0.5,
                runner_up: None,
                recycled: true,
            },
        );
        let mut clock = DecodeClock::new();
        let counters = run_draft_phase(
            &draft,
            &audio[0],
            &trajectory[..1],
            Some(&closed(&retained)),
            rule(24, 0.4, true),
            &mut clock,
            &mut tokens,
            &mut detail,
            &mut context,
        );
        let mut fresh_clock = DecodeClock::new();
        let fresh = phase(
            &draft,
            &audio[0],
            &trajectory[..1],
            &closed(&retained),
            rule(24, 0.4, true),
            &mut fresh_clock,
        );
        assert_eq!((tokens, detail, counters), fresh);
        assert_eq!(clock, fresh_clock);
    }

    /// A prefix of the target's transcript of `audio[0]` whose next token
    /// the draft regenerates, with the transcript: a tail of the transcript
    /// after that prefix merges on the first pass.
    fn merging_prefix(
        draft: &SimulatedAsrModel,
        target: &SimulatedAsrModel,
        audio: &UtteranceTokens,
    ) -> (usize, Vec<TokenId>) {
        let trajectory = target.greedy_transcript(audio);
        let at = (1..trajectory.len() - 8)
            .find(|&at| draft.greedy_token(audio, &trajectory[..at]) == trajectory[at])
            .expect("the paired draft agrees with the target somewhere");
        (at, trajectory)
    }

    #[test]
    fn an_open_tail_adopted_whole_keeps_drafting_under_the_rule() {
        let (draft, target, audio) = setup();
        let (at, trajectory) = merging_prefix(&draft, &target, &audio[0]);
        let tail = &trajectory[at..at + 4];
        for rule in [rule(24, 0.0, false), rule(24, 0.4, true)] {
            let mut clock = DecodeClock::new();
            let (tokens, detail, counters) = phase(
                &draft,
                &audio[0],
                &trajectory[..at],
                &open(tail),
                rule,
                &mut clock,
            );
            // The first pass regenerates the tail's first token and merges;
            // the rest of the tail is adopted for free.
            assert_eq!(&tokens[..4], tail);
            assert_eq!(counters.recycled, 3);
            assert!(detail[1..4].iter().all(|d| d.recycled));
            // Drafting then goes on past the tail exactly as a phase from
            // the extended prefix would, with the tail's room taken.
            let mut rest_clock = DecodeClock::new();
            let rest = phase(
                &draft,
                &audio[0],
                &trajectory[..at + 4],
                &RecycleBuffer::new(),
                PhaseRule {
                    max_len: rule.max_len - 4,
                    ..rule
                },
                &mut rest_clock,
            );
            assert_eq!(tokens[4..], rest.0[..]);
            assert_eq!(detail[4..], rest.1[..]);
            assert_eq!(counters.steps, 1 + rest.2.steps);
            assert_eq!(counters.truncated, rest.2.truncated);
            // Only the merging pass tracked the tail.
            assert_eq!(
                clock.draft_tokens_processed(),
                2 + rest_clock.draft_tokens_processed()
            );
        }
        // Without truncation the phase fills its length.
        let mut clock = DecodeClock::new();
        let (tokens, _, _) = phase(
            &draft,
            &audio[0],
            &trajectory[..at],
            &open(tail),
            rule(24, 0.0, false),
            &mut clock,
        );
        assert!(tokens.len() > tail.len());
    }

    #[test]
    fn a_closed_suffix_still_stops_after_adoption() {
        let (draft, target, audio) = setup();
        let (at, trajectory) = merging_prefix(&draft, &target, &audio[0]);
        let suffix = &trajectory[at..at + 4];
        let mut clock = DecodeClock::new();
        let (tokens, _, counters) = phase(
            &draft,
            &audio[0],
            &trajectory[..at],
            &closed(suffix),
            rule(24, 0.0, false),
            &mut clock,
        );
        assert_eq!(tokens, suffix);
        assert_eq!((counters.steps, counters.recycled), (1, 3));
        assert_eq!(clock.draft_tokens_processed(), 2);
    }

    #[test]
    fn an_open_tail_cut_by_the_length_cap_or_eos_stops() {
        let (draft, target, audio) = setup();
        let (at, trajectory) = merging_prefix(&draft, &target, &audio[0]);
        let tail = &trajectory[at..at + 6];
        // Cut by the cap: three tokens fit.
        let mut clock = DecodeClock::new();
        let (tokens, _, counters) = phase(
            &draft,
            &audio[0],
            &trajectory[..at],
            &open(tail),
            rule(3, 0.0, false),
            &mut clock,
        );
        assert_eq!(tokens, &tail[..3]);
        assert_eq!((counters.steps, counters.recycled), (1, 2));
        // Cut by EOS: adoption stops before it, and so does the phase.
        let mut with_eos = tail.to_vec();
        with_eos[3] = audio[0].eos();
        let mut clock = DecodeClock::new();
        let (tokens, _, counters) = phase(
            &draft,
            &audio[0],
            &trajectory[..at],
            &open(&with_eos),
            rule(24, 0.0, false),
            &mut clock,
        );
        assert_eq!(tokens, &tail[..3]);
        assert_eq!((counters.steps, counters.recycled), (1, 2));
    }

    #[test]
    fn a_tail_beyond_the_reach_of_a_round_changes_nothing() {
        let (draft, target, audio) = setup();
        let (at, trajectory) = merging_prefix(&draft, &target, &audio[0]);
        let tail = &trajectory[at..at + 8];
        // Merging at once, or only a position later.
        for prefix in [&trajectory[..at], &trajectory[..at - 1]] {
            for max_len in 1..8 {
                let rule = rule(max_len, 0.0, false);
                let reach = max_len + rule.merge_offset;
                let (mut whole_clock, mut cut_clock) = (DecodeClock::new(), DecodeClock::new());
                let whole = phase(
                    &draft,
                    &audio[0],
                    prefix,
                    &open(tail),
                    rule,
                    &mut whole_clock,
                );
                let cut = phase(
                    &draft,
                    &audio[0],
                    prefix,
                    &open(&tail[..reach]),
                    rule,
                    &mut cut_clock,
                );
                assert_eq!(whole, cut, "max_len {max_len}");
                assert_eq!(whole_clock, cut_clock);
            }
        }
    }

    #[test]
    fn seeding_marks_only_a_non_empty_tail_open() {
        let tail = [t(4), t(5)];
        let mut buffer = RecycleBuffer::from_rejected(&[t(1), t(2), t(3)], 0);
        buffer.seed(&tail);
        assert_eq!(buffer, open(&tail));
        assert!(buffer.open_ended);
        buffer.retain_rejected(&[t(1), t(2), t(3)], 0);
        assert_eq!(buffer, closed(&[t(2), t(3)]));
        buffer.seed(&[]);
        assert_eq!(buffer, RecycleBuffer::new());
    }
}
