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
    use crate::drafter::DrafterKind;
    use crate::policy::Policy;
    use crate::recycle::merge_position;
    use crate::session::{DecodeSession, DraftedRound};
    use crate::stats::DecodeStats;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{
        AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding, UtteranceTokens,
    };
    use specasr_runtime::KvPool;
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

    /// Decodes `audio` under `config` round by round and counts the drafted
    /// trees that branch and those that are chains: a chain's probe paths,
    /// in node order, each extend the one before by a token.  Returns
    /// `(branched, chains, transcript)`.
    fn tree_shapes(
        config: SparseTreeConfig,
        draft: &SimulatedAsrModel,
        target: &SimulatedAsrModel,
        audio: &UtteranceTokens,
    ) -> (usize, usize, Vec<TokenId>) {
        let policy = Policy::TwoPassSparseTree(config);
        let mut pool = KvPool::unbounded(16);
        let mut session = DecodeSession::new(
            policy,
            DrafterKind::ModelDraft,
            audio.clone(),
            &[],
            &mut pool,
        )
        .expect("an unbounded pool always admits");
        let mut round = DraftedRound::new();
        let (mut branched, mut chains) = (0, 0);
        while !session.is_finished() {
            session.draft_round(draft, &mut round);
            let probes = round.probe_extensions();
            let chain = (1..probes.len())
                .all(|i| probes.get(i).len() == i && probes.get(i).starts_with(probes.get(i - 1)));
            if chain {
                chains += 1;
            } else {
                branched += 1;
            }
            session
                .verify_round(&mut pool, target, &round)
                .expect("an unbounded pool never exhausts");
        }
        (branched, chains, session.into_outcome().tokens)
    }

    #[test]
    fn trees_contain_branches_on_noisy_audio() {
        let (draft, target, audio) = setup(ModelProfile::whisper_medium_en(), Split::TestOther);
        let mut branched = 0;
        for utt in &audio {
            branched += tree_shapes(SparseTreeConfig::paper(), &draft, &target, utt).0;
        }
        assert!(branched > 0);
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
        let (draft, target, audio) = setup(ModelProfile::whisper_medium_en(), Split::TestOther);
        let config = SparseTreeConfig {
            max_branches: 0,
            ..SparseTreeConfig::paper()
        };
        for utt in &audio {
            let (branched, chains, tokens) = tree_shapes(config, &draft, &target, utt);
            assert_eq!(branched, 0);
            assert!(chains > 0);
            assert_eq!(tokens, target.greedy_transcript(utt));
        }
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
