//! Two-pass sparse-tree prediction (TSP) — the third SpecASR technique.
//!
//! Pass 1 drafts a long greedy "main trunk" while recording the positions
//! whose normalised top-1 logit falls below the uncertainty threshold,
//! together with the runner-up (top-2) candidate at each of them.  Pass 2
//! expands *only* those uncertain positions into sparse side branches,
//! stopping a branch early whenever it can be merged back onto the trunk (the
//! recycling rule), so the tree stays narrow while covering the most likely
//! verification failures.  The whole tree is then verified by the target in a
//! single forward pass using the SpecInfer 2-D attention mask.
//!
//! The policy is [`crate::Policy::TwoPassSparseTree`]; the trunk/branch
//! drafting and the grouped tree verification live in
//! [`crate::DecodeSession`].

#[cfg(test)]
mod tests {
    use crate::config::{AdaptiveConfig, SparseTreeConfig};
    use crate::policy::Policy;
    use crate::recycle::merge_position;
    use crate::stats::DecodeStats;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{
        AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding, UtteranceTokens,
    };
    use specasr_tokenizer::TokenId;

    fn setup(
        target_profile: ModelProfile,
        split: Split,
    ) -> (SimulatedAsrModel, SimulatedAsrModel, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(37, 8);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(split));
        let target = SimulatedAsrModel::target(target_profile, 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target, audio)
    }

    #[test]
    fn sparse_tree_decoding_is_lossless() {
        let (draft, target, audio) = setup(ModelProfile::whisper_medium_en(), Split::TestOther);
        let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
        for utt in &audio {
            assert_eq!(
                policy.decode(&draft, &target, utt).tokens,
                target.greedy_transcript(utt)
            );
        }
    }

    #[test]
    fn trees_contain_branches_on_noisy_audio() {
        let (draft, target, audio) = setup(ModelProfile::whisper_medium_en(), Split::TestOther);
        let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
        let mut total_tree = 0usize;
        let mut total_predicted = 0usize;
        for utt in &audio {
            let outcome = policy.decode(&draft, &target, utt);
            total_tree += outcome
                .stats
                .rounds_detail
                .iter()
                .map(|r| r.tree_size)
                .sum::<usize>();
            total_predicted += outcome.stats.predicted_tokens;
        }
        assert_eq!(total_tree, total_predicted);
        assert!(total_tree > 0);
    }

    #[test]
    fn sparse_tree_beats_adaptive_for_large_targets() {
        // Observation 3: with a large target model the verification pass is
        // the bottleneck, and the sparse tree's higher accepted length per
        // round pays off.
        let (draft, target, audio) = setup(ModelProfile::vicuna_13b(), Split::TestClean);
        let adaptive = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let sparse = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
        let mut adaptive_target_ms = 0.0;
        let mut sparse_target_ms = 0.0;
        for utt in &audio {
            adaptive_target_ms += adaptive.decode(&draft, &target, utt).latency().target_ms;
            sparse_target_ms += sparse.decode(&draft, &target, utt).latency().target_ms;
        }
        assert!(
            sparse_target_ms <= adaptive_target_ms * 1.05,
            "sparse-tree target time ({sparse_target_ms:.1} ms) should not exceed adaptive ({adaptive_target_ms:.1} ms)"
        );
    }

    #[test]
    fn accepted_length_per_round_exceeds_the_baseline() {
        use crate::config::SpeculativeConfig;
        let (draft, target, audio) = setup(ModelProfile::whisper_medium_en(), Split::TestClean);
        let baseline = Policy::Speculative(SpeculativeConfig::short_single());
        let sparse = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
        let mut baseline_stats = DecodeStats::new();
        let mut sparse_stats = DecodeStats::new();
        for utt in &audio {
            baseline_stats.merge(&baseline.decode(&draft, &target, utt).stats);
            sparse_stats.merge(&sparse.decode(&draft, &target, utt).stats);
        }
        assert!(
            sparse_stats.accepted_per_round() > baseline_stats.accepted_per_round(),
            "sparse-tree accepted/round ({:.2}) should exceed baseline ({:.2})",
            sparse_stats.accepted_per_round(),
            baseline_stats.accepted_per_round()
        );
    }

    #[test]
    fn zero_branches_degenerates_to_single_sequence_trees() {
        let (draft, target, audio) = setup(ModelProfile::whisper_medium_en(), Split::TestClean);
        let config = SparseTreeConfig {
            max_branches: 0,
            ..SparseTreeConfig::paper()
        };
        let outcome = Policy::TwoPassSparseTree(config).decode(&draft, &target, &audio[0]);
        for round in &outcome.stats.rounds_detail {
            assert_eq!(round.tree_size, round.predicted);
        }
        assert_eq!(outcome.tokens, target.greedy_transcript(&audio[0]));
    }

    /// A branch merges back onto its trunk through the recycling rule: the
    /// nearest trunk slot holding the token within the merge offset.
    #[test]
    fn merge_slot_prefers_the_nearest_match() {
        let trunk: Vec<TokenId> = [5u32, 6, 7, 6].into_iter().map(TokenId::new).collect();
        assert_eq!(merge_position(&trunk, 1, TokenId::new(6), 1), Some(1));
        assert_eq!(merge_position(&trunk, 2, TokenId::new(6), 1), Some(1));
        assert_eq!(merge_position(&trunk, 0, TokenId::new(9), 1), None);
        assert_eq!(merge_position(&[], 0, TokenId::new(9), 1), None);
    }
}
