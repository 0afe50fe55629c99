//! The audio-conditioned simulated ASR model.
//!
//! The simulation reproduces the statistical properties of the paper's
//! Whisper/Llama decoding trajectories that the SpecASR techniques rely on
//! (DESIGN.md §2):
//!
//! 1. **Scale-dependent accuracy** — larger models substitute fewer reference
//!    tokens, and substitution probability grows with per-token acoustic
//!    difficulty (Fig. 5a).
//! 2. **Audio-conditioned alignment** — a model's emission at output position
//!    `p` depends only on the audio and `p`, *not* on the particular prefix
//!    decoded so far, so draft and target re-align immediately after a local
//!    mismatch (Fig. 6b).  The [`crate::text_task::TextTaskModel`] variant
//!    switches this property off for the ASR-vs-text comparison (Fig. 5b).
//! 3. **Confidence-acceptance correlation** — the draft model's normalised
//!    top-1 logit is stochastically larger when the token will be accepted by
//!    the target, which is what makes threshold truncation work (Fig. 13a).
//! 4. **Runner-up concentration** — when the draft's top-1 token is rejected,
//!    the target's token sits at rank 2 of the draft distribution about two
//!    thirds of the time (Fig. 13b).

use serde::{Deserialize, Serialize};
use specasr_tokenizer::TokenId;

use crate::binding::UtteranceTokens;
use crate::hashing::{uniform, Purpose};
use crate::logits::TokenLogits;
use crate::profiles::{AccuracyProfile, ModelProfile, ModelRole};
use crate::traits::AsrDecoderModel;

/// Parameters of the anchor trajectory a draft model aligns itself to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct AnchorParams {
    seed: u64,
    accuracy: AccuracyProfile,
}

/// A simulated, audio-conditioned ASR decoder model.
///
/// # Example
///
/// ```
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::{AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding};
///
/// let corpus = Corpus::librispeech_like(5, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = binding.bind(&corpus.split(Split::TestClean)[0]);
///
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 11);
/// let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 12, &target);
///
/// // The two transcripts are highly (but not perfectly) aligned.
/// let t = target.greedy_transcript(&audio);
/// let d = draft.greedy_transcript(&audio);
/// assert!(!t.is_empty() && !d.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulatedAsrModel {
    profile: ModelProfile,
    role: ModelRole,
    seed: u64,
    audio_conditioned: bool,
    anchor: Option<AnchorParams>,
}

impl SimulatedAsrModel {
    /// Creates a target-role model: its emissions are the reference transcript
    /// with scale-dependent substitutions.
    pub fn target(profile: ModelProfile, seed: u64) -> Self {
        SimulatedAsrModel {
            profile,
            role: ModelRole::Target,
            seed,
            audio_conditioned: true,
            anchor: None,
        }
    }

    /// Creates a draft-role model anchored directly to the reference
    /// transcript (used when no explicit target pairing is needed, e.g. the
    /// WER-scaling analysis of Fig. 5a).
    pub fn draft(profile: ModelProfile, seed: u64) -> Self {
        SimulatedAsrModel {
            profile,
            role: ModelRole::Draft,
            seed,
            audio_conditioned: true,
            anchor: None,
        }
    }

    /// Creates a draft-role model paired with `target`: the draft's agreement
    /// statistics are measured against the target's own emissions, exactly as
    /// speculative decoding observes them.
    pub fn draft_paired(profile: ModelProfile, seed: u64, target: &SimulatedAsrModel) -> Self {
        SimulatedAsrModel {
            profile,
            role: ModelRole::Draft,
            seed,
            audio_conditioned: true,
            anchor: Some(AnchorParams {
                seed: target.seed,
                accuracy: *target.profile.accuracy(),
            }),
        }
    }

    /// Returns a copy of this model with audio conditioning disabled, so the
    /// emission at a position also depends on the decoded prefix.  Used by the
    /// text-task comparison.
    pub(crate) fn without_audio_conditioning(mut self) -> Self {
        self.audio_conditioned = false;
        self
    }

    /// The role this model plays.
    pub fn role(&self) -> ModelRole {
        self.role
    }

    /// The seed of this model's error streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this model is audio conditioned (re-aligns after mismatches).
    pub fn is_audio_conditioned(&self) -> bool {
        self.audio_conditioned
    }

    /// The anchor token the model gravitates towards at output position
    /// `position`: for target-role models (and unpaired drafts) this is the
    /// model's own emission; for paired drafts it is the paired target's
    /// emission.
    fn anchor_token(&self, audio: &UtteranceTokens, position: usize, context: u64) -> TokenId {
        match &self.anchor {
            Some(anchor) => emission(anchor.seed, &anchor.accuracy, audio, position, context),
            None => emission(self.seed, self.profile.accuracy(), audio, position, context),
        }
    }

    /// A fingerprint of the prefix used to break audio conditioning in the
    /// text-task variant: the last four tokens are folded into the hash, so
    /// any divergence in recent context changes all downstream draws.
    fn context_fingerprint(&self, prefix: &[TokenId]) -> u64 {
        if self.audio_conditioned {
            return 0;
        }
        let mut fingerprint = 0xfeed_face_cafe_beefu64;
        for token in prefix.iter().rev().take(4) {
            fingerprint = fingerprint.rotate_left(13).wrapping_mul(0x0100_0000_01b3)
                ^ u64::from(token.value());
        }
        fingerprint
    }

    /// Picks a deterministic "wrong" token distinct from `avoid`.
    fn wrong_token(
        &self,
        audio: &UtteranceTokens,
        position: usize,
        context: u64,
        avoid: TokenId,
        purpose: Purpose,
    ) -> TokenId {
        wrong_token_from_stream(self.seed, audio, position, context, avoid, purpose)
    }
}

/// The emission of a model defined by `(seed, accuracy)` at output position
/// `position`: the reference token, or a substitution on difficult audio.
///
/// Crate-visible so the draft-free [`crate::CtcDrafter`] can reconstruct the
/// target decoder's audio-conditioned trajectory without holding the model.
pub(crate) fn emission(
    seed: u64,
    accuracy: &AccuracyProfile,
    audio: &UtteranceTokens,
    position: usize,
    context: u64,
) -> TokenId {
    if position >= audio.len() {
        return audio.eos();
    }
    let reference = audio.reference_at(position);
    let difficulty = audio.difficulty_at(position);
    let draw = uniform(
        seed,
        audio.id().value(),
        position as u64,
        context,
        Purpose::Substitution,
    );
    if draw < accuracy.error_probability(difficulty) {
        wrong_token_from_stream(
            seed,
            audio,
            position,
            context,
            reference,
            Purpose::SubstitutionChoice,
        )
    } else {
        reference
    }
}

/// Deterministically picks a non-special token distinct from `avoid`.
pub(crate) fn wrong_token_from_stream(
    seed: u64,
    audio: &UtteranceTokens,
    position: usize,
    context: u64,
    avoid: TokenId,
    purpose: Purpose,
) -> TokenId {
    let specials = 4u32;
    let span = audio.vocab_size().saturating_sub(specials).max(2);
    let draw = uniform(seed, audio.id().value(), position as u64, context, purpose);
    let mut candidate = specials + (draw * span as f64) as u32 % span;
    if TokenId::new(candidate) == avoid {
        candidate = specials + (candidate - specials + 1) % span;
    }
    TokenId::new(candidate)
}

impl AsrDecoderModel for SimulatedAsrModel {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
        let position = prefix.len();
        let context = self.context_fingerprint(prefix);
        let utterance = audio.id().value();
        let difficulty = audio.difficulty_at(position);
        let anchor = self.anchor_token(audio, position, context);

        // Target-role models (and unpaired drafts acting as standalone ASR
        // models) emit their anchor with high confidence.
        if self.role == ModelRole::Target || self.anchor.is_none() {
            let confidence_draw = uniform(
                self.seed,
                utterance,
                position as u64,
                context,
                Purpose::Confidence,
            );
            let confidence = 0.82 + 0.17 * confidence_draw;
            let runner_up = self.wrong_token(audio, position, context, anchor, Purpose::Filler);
            return TokenLogits::from_candidates([
                (anchor, confidence),
                (runner_up, (1.0 - confidence) * 0.6),
            ]);
        }

        // Paired draft: agree with the anchor (the target's emission) with a
        // difficulty-dependent probability.
        let accuracy = self.profile.accuracy();
        let agreement_draw = uniform(
            self.seed,
            utterance,
            position as u64,
            context,
            Purpose::Agreement,
        );
        let agrees =
            position >= audio.len() || agreement_draw < accuracy.agreement_probability(difficulty);

        let confidence_draw = uniform(
            self.seed,
            utterance,
            position as u64,
            context,
            Purpose::Confidence,
        );

        if agrees {
            // Will be accepted: confidence is high but overlaps the threshold
            // region so aggressive truncation has a real cost (Fig. 13a).
            let confidence = 0.30 + 0.69 * confidence_draw.powf(0.6);
            let runner_up = self.wrong_token(audio, position, context, anchor, Purpose::Filler);
            TokenLogits::from_candidates([
                (anchor, confidence),
                (runner_up, (1.0 - confidence) * 0.5),
            ])
        } else {
            // Will be rejected: the draft's own (wrong) token leads with low
            // confidence; the target's token usually sits at rank 2.
            let top1 = self.wrong_token(
                audio,
                position,
                context,
                anchor,
                Purpose::DisagreementChoice,
            );
            let confidence = 0.05 + 0.50 * confidence_draw;
            let runner_up_draw = uniform(
                self.seed,
                utterance,
                position as u64,
                context,
                Purpose::RunnerUpRank,
            );
            // Secondary candidates are scaled off the top-1 probability so the
            // draft's own (wrong) choice always stays at rank 1 — otherwise a
            // nominally-rejected position would silently turn into an
            // agreement and dilute the rank statistics of Fig. 13b.
            let rank2 = confidence * 0.55;
            let rank3 = confidence * 0.20;
            if runner_up_draw < accuracy.runner_up_probability {
                // Anchor at rank 2.
                let filler = self.wrong_token(audio, position, context, top1, Purpose::Filler);
                TokenLogits::from_candidates([(top1, confidence), (anchor, rank2), (filler, rank3)])
            } else if runner_up_draw < accuracy.runner_up_probability + 0.18 {
                // Anchor at rank 3.
                let filler = self.wrong_token(audio, position, context, top1, Purpose::Filler);
                TokenLogits::from_candidates([(top1, confidence), (filler, rank2), (anchor, rank3)])
            } else {
                // Anchor absent from the top-k entirely.
                let filler = self.wrong_token(audio, position, context, top1, Purpose::Filler);
                let filler2 =
                    self.wrong_token(audio, position, context, filler, Purpose::RunnerUpRank);
                TokenLogits::from_candidates([
                    (top1, confidence),
                    (filler, rank2),
                    (filler2, rank3),
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::TokenizerBinding;
    use specasr_audio::{Corpus, Split};

    fn test_audio() -> Vec<UtteranceTokens> {
        let corpus = Corpus::librispeech_like(41, 12);
        let binding = TokenizerBinding::for_corpus(&corpus);
        binding.bind_all(corpus.split(Split::TestClean))
    }

    fn noisy_audio() -> Vec<UtteranceTokens> {
        let corpus = Corpus::librispeech_like(41, 12);
        let binding = TokenizerBinding::for_corpus(&corpus);
        binding.bind_all(corpus.split(Split::TestOther))
    }

    #[test]
    fn logits_are_deterministic() {
        let audio = test_audio();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 3);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 4, &target);
        let prefix = [TokenId::new(10), TokenId::new(20)];
        assert_eq!(
            draft.next_logits(&audio[0], &prefix),
            draft.next_logits(&audio[0], &prefix)
        );
        assert_eq!(
            target.greedy_transcript(&audio[0]),
            target.greedy_transcript(&audio[0])
        );
    }

    #[test]
    fn target_transcript_terminates_and_tracks_reference_length() {
        let audio = test_audio();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 3);
        for utt in &audio {
            let transcript = target.greedy_transcript(utt);
            assert_eq!(
                transcript.len(),
                utt.len(),
                "audio-conditioned target emits one token per reference position"
            );
        }
    }

    #[test]
    fn larger_models_make_fewer_substitutions() {
        let audio = noisy_audio();
        let tiny = SimulatedAsrModel::draft(ModelProfile::whisper_tiny_en(), 5);
        let medium = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 5);
        let mut tiny_errors = 0usize;
        let mut medium_errors = 0usize;
        let mut total = 0usize;
        for utt in &audio {
            let reference = utt.reference_tokens();
            let t = tiny.greedy_transcript(utt);
            let m = medium.greedy_transcript(utt);
            total += reference.len();
            tiny_errors += t.iter().zip(reference).filter(|(a, b)| a != b).count();
            medium_errors += m.iter().zip(reference).filter(|(a, b)| a != b).count();
        }
        assert!(total > 0);
        assert!(
            tiny_errors > medium_errors,
            "tiny ({tiny_errors}) should err more than medium ({medium_errors})"
        );
    }

    #[test]
    fn paired_draft_agrees_with_target_most_of_the_time() {
        let audio = test_audio();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let mut agree = 0usize;
        let mut total = 0usize;
        for utt in &audio {
            let t = target.greedy_transcript(utt);
            for (p, &target_token) in t.iter().enumerate() {
                let draft_top1 = draft.greedy_token(utt, &t[..p]);
                total += 1;
                if draft_top1 == target_token {
                    agree += 1;
                }
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(
            (0.80..=0.99).contains(&rate),
            "agreement rate {rate} outside the expected high-alignment band"
        );
    }

    #[test]
    fn agreement_is_lower_on_noisy_audio() {
        let clean = test_audio();
        let noisy = noisy_audio();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let rate = |utts: &[UtteranceTokens]| {
            let mut agree = 0usize;
            let mut total = 0usize;
            for utt in utts {
                let t = target.greedy_transcript(utt);
                for (p, &tok) in t.iter().enumerate() {
                    total += 1;
                    if draft.greedy_token(utt, &t[..p]) == tok {
                        agree += 1;
                    }
                }
            }
            agree as f64 / total.max(1) as f64
        };
        assert!(rate(&clean) > rate(&noisy));
    }

    #[test]
    fn confidence_correlates_with_agreement() {
        let audio = noisy_audio();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let mut accepted_conf = Vec::new();
        let mut rejected_conf = Vec::new();
        for utt in &audio {
            let t = target.greedy_transcript(utt);
            for (p, &tok) in t.iter().enumerate() {
                let logits = draft.next_logits(utt, &t[..p]);
                let top1 = logits.top1().expect("non-empty");
                if top1.token == tok {
                    accepted_conf.push(logits.top1_probability());
                } else {
                    rejected_conf.push(logits.top1_probability());
                }
            }
        }
        assert!(!accepted_conf.is_empty() && !rejected_conf.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&accepted_conf) > mean(&rejected_conf) + 0.15,
            "accepted mean {} should clearly exceed rejected mean {}",
            mean(&accepted_conf),
            mean(&rejected_conf)
        );
    }

    #[test]
    fn rejected_top1_has_target_at_rank2_about_two_thirds_of_the_time() {
        let audio = noisy_audio();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let mut rank2 = 0usize;
        let mut rejected = 0usize;
        for utt in &audio {
            let t = target.greedy_transcript(utt);
            for (p, &tok) in t.iter().enumerate() {
                let logits = draft.next_logits(utt, &t[..p]);
                if logits.top1().map(|c| c.token) != Some(tok) {
                    rejected += 1;
                    if logits.rank_of(tok) == Some(2) {
                        rank2 += 1;
                    }
                }
            }
        }
        assert!(
            rejected > 10,
            "need enough rejections to measure ({rejected})"
        );
        let fraction = rank2 as f64 / rejected as f64;
        assert!(
            (0.45..=0.85).contains(&fraction),
            "rank-2 fraction {fraction} outside the expected band around 2/3"
        );
    }

    #[test]
    fn audio_conditioning_makes_emissions_prefix_independent() {
        let audio = test_audio();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let utt = &audio[0];
        let t = target.greedy_transcript(utt);
        // Corrupt one token of the prefix: the audio-conditioned draft still
        // produces the same continuation at the next position.
        if t.len() >= 3 {
            let clean_prefix = &t[..2];
            let mut corrupted = clean_prefix.to_vec();
            corrupted[1] = TokenId::new(corrupted[1].value() + 1);
            assert_eq!(
                draft.greedy_token(utt, clean_prefix),
                draft.greedy_token(utt, &corrupted)
            );
        }
    }

    #[test]
    fn eos_is_emitted_past_the_reference_end() {
        let audio = test_audio();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let utt = &audio[0];
        let long_prefix: Vec<TokenId> = utt.reference_tokens().to_vec();
        assert_eq!(target.greedy_token(utt, &long_prefix), utt.eos());
        assert_eq!(draft.greedy_token(utt, &long_prefix), utt.eos());
    }

    #[test]
    fn wrong_tokens_avoid_the_anchor_and_specials() {
        let audio = test_audio();
        let utt = &audio[0];
        let model = SimulatedAsrModel::draft(ModelProfile::whisper_tiny_en(), 9);
        for p in 0..utt.len() {
            let anchor = utt.reference_at(p);
            let wrong = model.wrong_token(utt, p, 0, anchor, Purpose::SubstitutionChoice);
            assert_ne!(wrong, anchor);
            assert!(
                wrong.value() >= 4,
                "wrong tokens must not be special tokens"
            );
            assert!(wrong.value() < utt.vocab_size());
        }
    }
}
