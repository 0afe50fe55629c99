//! Draft-free CTC-encoder drafting (simulated).
//!
//! Saon et al. (*Self-Speculative Decoding for LLM-based ASR with CTC Encoder
//! Drafts*) observe that an ASR system already contains a second transcription
//! hypothesis for free: a lightweight CTC head over the **encoder output**.
//! Greedily collapsing the CTC posterior (merge repeats, drop blanks) yields a
//! token sequence that agrees with the LLM decoder's greedy output at most
//! positions — good enough to serve as speculative draft tokens without
//! running any draft model at all.  The decoder-side consequences are what
//! make this attractive for serving: no draft forward passes, no draft KV
//! cache, no draft lane on the backend timeline.
//!
//! [`CtcDrafter`] simulates the *collapsed* output of such a head, one token
//! per decoder output position, with the statistical properties the technique
//! relies on:
//!
//! 1. **Target-anchored agreement** — the collapse reproduces the paired
//!    target's own emission (via the same deterministic
//!    [`crate::SimulatedAsrModel`] trajectory machinery) with a
//!    difficulty-dependent probability below the paired draft *model*'s
//!    agreement: an encoder-only head has no language-model context, so it is
//!    cheaper but also slightly worse than a real draft decoder.
//! 2. **Per-frame confidence gating** — each position carries a posterior
//!    peakiness score; drafting stops at the first frame whose score falls
//!    below the gate, so drafts end where the CTC head is unsure (noisy or
//!    ambiguous audio) instead of feeding the verifier junk.
//! 3. **EOS at the audio boundary** — past the last encoder frame the
//!    collapse emits EOS, mirroring the audio-conditioned decoder models.
//!
//! The drafter is paired with a target model purely through the target's
//! `(seed, accuracy)` trajectory parameters; it holds no model reference and
//! issues no forward passes, which is exactly the point.

use serde::{Deserialize, Serialize};
use specasr_tokenizer::TokenId;

use crate::binding::UtteranceTokens;
use crate::hashing::{uniform, Purpose};
use crate::profiles::AccuracyProfile;
use crate::simulated::{emission, wrong_token_from_stream};
use crate::traits::AsrDecoderModel;
use crate::SimulatedAsrModel;

/// Agreement probability of the collapsed CTC output with the target decoder
/// on perfectly easy audio.
const CTC_AGREEMENT_BASE: f64 = 0.93;
/// Reduction in agreement probability per unit acoustic difficulty.
const CTC_AGREEMENT_SLOPE: f64 = 0.40;
/// Floor of the agreement probability.
const CTC_AGREEMENT_FLOOR: f64 = 0.05;

/// A draft-free drafter that greedily collapses a simulated CTC posterior
/// over the encoder output into draft tokens.
///
/// # Example
///
/// ```
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::{AsrDecoderModel, CtcDrafter, ModelProfile, SimulatedAsrModel, TokenizerBinding};
///
/// let corpus = Corpus::librispeech_like(5, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = binding.bind(&corpus.split(Split::TestClean)[0]);
///
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 11);
/// let ctc = CtcDrafter::paired(&target);
///
/// // The collapse proposes a prefix-independent continuation from position 0.
/// let mut draft = Vec::new();
/// ctc.collapse(&audio, 0, 16, &mut draft);
/// let transcript = target.greedy_transcript(&audio);
/// let agree = draft.iter().zip(&transcript).filter(|(a, b)| a == b).count();
/// assert!(!draft.is_empty() && agree * 2 > draft.len()); // mostly aligned
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CtcDrafter {
    /// Seed of the CTC head's own error/confidence streams.
    seed: u64,
    /// Seed of the paired target's trajectory.
    target_seed: u64,
    /// Accuracy parameters of the paired target's trajectory.
    target_accuracy: AccuracyProfile,
    /// Posterior-peakiness threshold below which drafting stops.
    confidence_gate: f64,
    /// Hard cap on draft length per round, independent of the policy budget.
    max_draft_len: usize,
}

impl CtcDrafter {
    /// Pairs a CTC drafter with `target`: the collapse is anchored to the
    /// target's own audio-conditioned trajectory, exactly as
    /// [`SimulatedAsrModel::draft_paired`] anchors a draft model.
    ///
    /// Defaults: confidence gate 0.5, per-round draft cap 24 (matching the
    /// adaptive policy's maximum prediction length).
    pub fn paired(target: &SimulatedAsrModel) -> Self {
        CtcDrafter {
            // Decorrelate the CTC streams from the target's without needing a
            // second user-supplied seed.
            seed: target.seed().rotate_left(17) ^ 0x00c7_c0de_0000_d4a7,
            target_seed: target.seed(),
            target_accuracy: *target.profile().accuracy(),
            confidence_gate: 0.5,
            max_draft_len: 24,
        }
    }

    /// Returns this drafter with a different confidence gate in `[0, 1]`:
    /// higher gates yield shorter, higher-acceptance drafts.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is outside `[0, 1]`.
    pub fn with_confidence_gate(mut self, gate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gate),
            "confidence gate must lie in [0, 1]"
        );
        self.confidence_gate = gate;
        self
    }

    /// Returns this drafter with a different per-round draft cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_draft_len` is zero.
    pub fn with_max_draft_len(mut self, max_draft_len: usize) -> Self {
        assert!(max_draft_len > 0, "draft cap must be positive");
        self.max_draft_len = max_draft_len;
        self
    }

    /// The per-round draft cap.
    pub fn max_draft_len(&self) -> usize {
        self.max_draft_len
    }

    /// Peakiness of the simulated CTC posterior at output position
    /// `position`: high on clean, easy frames; low where the audio is
    /// difficult.  Deterministic per `(utterance, position)`.
    pub fn frame_confidence(&self, audio: &UtteranceTokens, position: usize) -> f64 {
        if position >= audio.len() {
            // Past the last frame the posterior is all blank/EOS: certain.
            return 1.0;
        }
        let draw = uniform(
            self.seed,
            audio.id().value(),
            position as u64,
            0,
            Purpose::CtcConfidence,
        );
        let difficulty = audio.difficulty_at(position);
        (0.45 + 0.55 * draw - 0.40 * difficulty).clamp(0.0, 1.0)
    }

    /// Greedily collapses the CTC posterior from output position `from` into
    /// at most `budget` draft tokens (further capped by
    /// [`CtcDrafter::max_draft_len`]), appended to `draft`.  A caller that
    /// empties and refills one buffer every round allocates nothing once
    /// the buffer has held its longest draft.
    ///
    /// The walk stops at the first frame whose [`CtcDrafter::frame_confidence`]
    /// falls below the gate, and always stops after emitting EOS (which the
    /// collapse produces past the end of the audio).  Like every simulated
    /// model stream the result is a pure function of `(utterance, position)`,
    /// so the same audio always collapses to the same draft.
    pub fn collapse(
        &self,
        audio: &UtteranceTokens,
        from: usize,
        budget: usize,
        draft: &mut Vec<TokenId>,
    ) {
        let cap = budget.min(self.max_draft_len);
        for position in from..from + cap {
            if self.frame_confidence(audio, position) < self.confidence_gate {
                break;
            }
            let token = self.frame_token(audio, position);
            draft.push(token);
            if token == audio.eos() {
                break;
            }
        }
    }

    /// The collapsed CTC label at output position `position`: the paired
    /// target's emission with a difficulty-dependent probability, a wrong
    /// token otherwise, EOS past the audio end.
    fn frame_token(&self, audio: &UtteranceTokens, position: usize) -> TokenId {
        if position >= audio.len() {
            return audio.eos();
        }
        let anchor = emission(self.target_seed, &self.target_accuracy, audio, position, 0);
        let difficulty = audio.difficulty_at(position);
        let agree_probability =
            (CTC_AGREEMENT_BASE - CTC_AGREEMENT_SLOPE * difficulty).clamp(CTC_AGREEMENT_FLOOR, 1.0);
        let draw = uniform(
            self.seed,
            audio.id().value(),
            position as u64,
            0,
            Purpose::CtcAgreement,
        );
        if draw < agree_probability {
            anchor
        } else {
            wrong_token_from_stream(self.seed, audio, position, 0, anchor, Purpose::CtcChoice)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::TokenizerBinding;
    use crate::profiles::ModelProfile;
    use crate::traits::AsrDecoderModel;
    use specasr_audio::{Corpus, Split};

    fn setup() -> (SimulatedAsrModel, CtcDrafter, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(41, 12);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(Split::TestClean));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let ctc = CtcDrafter::paired(&target);
        (target, ctc, audio)
    }

    /// The collapse of `audio` from `from`, as a fresh draft.
    fn collapsed(
        ctc: &CtcDrafter,
        audio: &UtteranceTokens,
        from: usize,
        budget: usize,
    ) -> Vec<TokenId> {
        let mut draft = Vec::new();
        ctc.collapse(audio, from, budget, &mut draft);
        draft
    }

    #[test]
    fn collapse_is_deterministic_and_bounded() {
        let (_, ctc, audio) = setup();
        let a = collapsed(&ctc, &audio[0], 0, 16);
        let b = collapsed(&ctc, &audio[0], 0, 16);
        assert_eq!(a, b);
        assert!(a.len() <= 16);
        assert!(collapsed(&ctc, &audio[0], 0, 100).len() <= ctc.max_draft_len());
    }

    #[test]
    fn collapse_appends_after_what_the_buffer_holds() {
        let (_, ctc, audio) = setup();
        let mut draft = vec![audio[0].eos()];
        ctc.collapse(&audio[0], 0, 16, &mut draft);
        assert_eq!(draft[0], audio[0].eos());
        assert_eq!(draft[1..], collapsed(&ctc, &audio[0], 0, 16));
    }

    #[test]
    fn collapse_mostly_agrees_with_the_target_trajectory() {
        let (target, ctc, audio) = setup();
        let mut agree = 0usize;
        let mut total = 0usize;
        for utt in &audio {
            let transcript = target.greedy_transcript(utt);
            let mut position = 0usize;
            while position < transcript.len() {
                let draft = collapsed(&ctc, utt, position, 24);
                if draft.is_empty() {
                    position += 1;
                    continue;
                }
                for (offset, token) in draft.iter().enumerate() {
                    if let Some(&target_token) = transcript.get(position + offset) {
                        total += 1;
                        if *token == target_token {
                            agree += 1;
                        }
                    }
                }
                position += draft.len();
            }
        }
        assert!(total > 100, "need enough positions to measure ({total})");
        let rate = agree as f64 / total as f64;
        assert!(
            (0.70..=0.99).contains(&rate),
            "CTC agreement rate {rate} outside the expected band"
        );
    }

    #[test]
    fn ctc_agrees_less_often_than_a_paired_draft_model() {
        let (target, ctc, audio) = setup();
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let mut ctc_agree = 0usize;
        let mut model_agree = 0usize;
        let mut total = 0usize;
        for utt in &audio {
            let transcript = target.greedy_transcript(utt);
            for (p, &target_token) in transcript.iter().enumerate() {
                total += 1;
                if ctc.frame_token(utt, p) == target_token {
                    ctc_agree += 1;
                }
                if draft.greedy_token(utt, &transcript[..p]) == target_token {
                    model_agree += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            ctc_agree < model_agree,
            "encoder-only drafts ({ctc_agree}/{total}) should agree less than \
             the paired draft model ({model_agree}/{total})"
        );
    }

    #[test]
    fn confidence_gating_shortens_drafts() {
        let (_, ctc, audio) = setup();
        let strict = ctc.clone().with_confidence_gate(0.95);
        let lenient = ctc.clone().with_confidence_gate(0.0);
        let mut strict_total = 0usize;
        let mut lenient_total = 0usize;
        for utt in &audio {
            strict_total += collapsed(&strict, utt, 0, 24).len();
            lenient_total += collapsed(&lenient, utt, 0, 24).len();
        }
        assert!(strict_total < lenient_total);
    }

    #[test]
    fn collapse_emits_eos_past_the_audio_end() {
        let (_, ctc, audio) = setup();
        let utt = &audio[0];
        let draft = collapsed(&ctc, utt, utt.len(), 8);
        assert_eq!(draft, vec![utt.eos()]);
        assert_eq!(ctc.frame_confidence(utt, utt.len() + 3), 1.0);
    }

    #[test]
    fn gate_and_cap_validate() {
        let (target, _, _) = setup();
        let ctc = CtcDrafter::paired(&target)
            .with_confidence_gate(0.25)
            .with_max_draft_len(8);
        assert_eq!(ctc.max_draft_len(), 8);
    }

    #[test]
    #[should_panic(expected = "confidence gate")]
    fn out_of_range_gate_panics() {
        let (target, _, _) = setup();
        let _ = CtcDrafter::paired(&target).with_confidence_gate(1.5);
    }
}
