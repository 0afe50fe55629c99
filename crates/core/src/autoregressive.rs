//! Plain autoregressive decoding with the target model (the paper's first
//! baseline and the reference output every speculative policy must match).
//!
//! The policy is [`crate::Policy::Autoregressive`]: one target forward pass
//! (of one token) per emitted token, including the final pass that emits
//! EOS, and no draft model at all.  Prefill is tracked in the KV cache but
//! not charged to the clock, so that policy comparisons isolate the decoding
//! cost exactly as the paper's figures do.

#[cfg(test)]
mod tests {
    use crate::outcome::DecodeOutcome;
    use crate::policy::Policy;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{
        AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding, UtteranceTokens,
    };

    fn setup() -> (SimulatedAsrModel, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(19, 4);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(Split::TestClean));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        (target, audio)
    }

    /// The autoregressive policy never queries the draft model, so the
    /// target doubles as the (unused) draft argument.
    fn decode(target: &SimulatedAsrModel, audio: &UtteranceTokens) -> DecodeOutcome {
        Policy::Autoregressive.decode(target, target, audio)
    }

    #[test]
    fn output_matches_the_target_greedy_transcript() {
        let (target, audio) = setup();
        for utt in &audio {
            let outcome = decode(&target, utt);
            assert_eq!(outcome.tokens, target.greedy_transcript(utt));
        }
    }

    #[test]
    fn one_target_pass_per_token_plus_eos() {
        let (target, audio) = setup();
        let outcome = decode(&target, &audio[0]);
        assert_eq!(
            outcome.clock.target_passes() as usize,
            outcome.tokens.len() + 1
        );
        assert_eq!(outcome.clock.draft_passes(), 0);
        assert_eq!(outcome.stats.rounds, outcome.tokens.len() + 1);
        assert_eq!(outcome.stats.correction_tokens, outcome.tokens.len() + 1);
    }

    #[test]
    fn latency_is_linear_in_output_length() {
        let (target, audio) = setup();
        let per_pass = target.profile().latency().forward_pass_ms(1);
        let outcome = decode(&target, &audio[1]);
        let expected = per_pass * (outcome.tokens.len() + 1) as f64;
        assert!((outcome.clock.breakdown().target_ms - expected).abs() < 1e-9);
        assert_eq!(outcome.clock.breakdown().draft_ms, 0.0);
    }

    #[test]
    fn kv_cache_tracks_prefill_and_generation() {
        let (target, audio) = setup();
        let outcome = decode(&target, &audio[2]);
        assert_eq!(
            outcome.target_cache.prefill_len(),
            audio[2].prefill_tokens()
        );
        assert_eq!(
            outcome.target_cache.generated_len(),
            outcome.tokens.len() + 1
        );
        assert!(outcome.draft_cache.is_empty());
    }
}
