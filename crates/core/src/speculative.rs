//! Baseline speculative decoding with a fixed prediction length and optional
//! beams — the `(8, 1)`, `(16, 1)`, and `(8, 2)` configurations the paper
//! compares against.
//!
//! Classic draft-then-verify speculative decoding: with one beam the draft
//! speculates `prediction_length` tokens greedily and the target verifies
//! them in one pass.  With `beams > 1` the draft keeps the top-`beams`
//! candidates of its *first* step and extends each greedily, producing a
//! fixed token tree that the target verifies with a 2-D attention mask (the
//! SpecInfer-style baseline).
//!
//! All three run under [`crate::Policy::Speculative`]; the round mechanics,
//! beam-tree construction included, live in [`crate::DecodeSession`].

#[cfg(test)]
mod tests {
    use crate::config::SpeculativeConfig;
    use crate::policy::Policy;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{
        AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding, UtteranceTokens,
    };

    fn setup() -> (SimulatedAsrModel, SimulatedAsrModel, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(29, 6);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(Split::TestClean));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target, audio)
    }

    #[test]
    fn all_baseline_configs_are_lossless() {
        let (draft, target, audio) = setup();
        for config in [
            SpeculativeConfig::short_single(),
            SpeculativeConfig::long_single(),
            SpeculativeConfig::short_double_beam(),
        ] {
            let policy = Policy::Speculative(config);
            for utt in &audio {
                let reference = target.greedy_transcript(utt);
                let outcome = policy.decode(&draft, &target, utt);
                assert_eq!(outcome.tokens, reference, "config {:?}", config);
            }
        }
    }

    #[test]
    fn speculative_decoding_is_faster_than_autoregressive() {
        let (draft, target, audio) = setup();
        let spec = Policy::Speculative(SpeculativeConfig::short_single());
        let mut spec_ms = 0.0;
        let mut ar_ms = 0.0;
        for utt in &audio {
            spec_ms += spec.decode(&draft, &target, utt).decode_ms();
            ar_ms += Policy::Autoregressive
                .decode(&target, &target, utt)
                .decode_ms();
        }
        assert!(
            spec_ms < ar_ms,
            "speculative ({spec_ms:.1} ms) should beat autoregressive ({ar_ms:.1} ms)"
        );
    }

    #[test]
    fn rounds_and_passes_are_consistent() {
        let (draft, target, audio) = setup();
        let outcome = Policy::Speculative(SpeculativeConfig::short_single())
            .decode(&draft, &target, &audio[0]);
        assert_eq!(outcome.stats.rounds as u64, outcome.clock.target_passes());
        assert_eq!(
            outcome.stats.draft_steps as u64,
            outcome.clock.draft_passes()
        );
        assert!(outcome.stats.accepted_tokens <= outcome.stats.predicted_tokens);
        assert!(outcome.stats.acceptance_ratio() <= 1.0);
    }

    #[test]
    fn longer_prediction_length_means_fewer_rounds() {
        let (draft, target, audio) = setup();
        let mut short_rounds = 0usize;
        let mut long_rounds = 0usize;
        for utt in &audio {
            short_rounds += Policy::Speculative(SpeculativeConfig::new(4, 1))
                .decode(&draft, &target, utt)
                .stats
                .rounds;
            long_rounds += Policy::Speculative(SpeculativeConfig::new(16, 1))
                .decode(&draft, &target, utt)
                .stats
                .rounds;
        }
        assert!(long_rounds < short_rounds);
    }

    #[test]
    fn beam_trees_are_larger_than_single_sequences() {
        let (draft, target, audio) = setup();
        let single =
            Policy::Speculative(SpeculativeConfig::new(8, 1)).decode(&draft, &target, &audio[0]);
        let double =
            Policy::Speculative(SpeculativeConfig::new(8, 2)).decode(&draft, &target, &audio[0]);
        // A round verifies every drafted token: its tree size is what it
        // predicted.
        assert!(double.stats.predicted_per_round() > single.stats.predicted_per_round());
        // The beam configuration is still lossless.
        assert_eq!(double.tokens, target.greedy_transcript(&audio[0]));
    }

    #[test]
    fn kv_caches_end_at_the_committed_length() {
        let (draft, target, audio) = setup();
        let session = Policy::Speculative(SpeculativeConfig::short_single())
            .decoded_session(&draft, &target, &audio[2]);
        let (draft_cache, target_cache) = session.kv_positions();
        let outcome = session.into_outcome();
        let committed = audio[2].prefill_tokens() + outcome.tokens.len();
        assert!(target_cache.len() <= committed + 1);
        assert_eq!(target_cache.prefill_len(), audio[2].prefill_tokens());
        assert_eq!(draft_cache.prefill_len(), audio[2].prefill_tokens());
        // Speculative positions that were appended but not committed must have
        // been discarded by rollbacks: a round appends every token it
        // predicted.
        assert_eq!(
            target_cache.positions_discarded(),
            outcome.stats.predicted_tokens - target_cache.generated_len()
        );
    }
}
