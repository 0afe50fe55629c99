//! Target-model verification of draft sequences and draft token trees.
//!
//! Verification follows the standard lossless speculative-decoding rule: walk
//! the draft tokens in order and accept each one that equals the target
//! model's own greedy choice at that position; the target's choice at the
//! first mismatch (or the position after a fully accepted draft) is appended
//! as the *correction* token, which comes for free from the same verification
//! pass.  Tree verification applies the same rule to every root-to-leaf branch
//! of a draft token tree — evaluated in a single target pass thanks to the
//! 2-D tree attention mask — and keeps the branch with the longest accepted
//! prefix.
//!
//! Verification is indifferent to where the draft tokens came from: a draft
//! model, a CTC-encoder collapse, or a token-map lookup (see
//! [`crate::Drafter`]) all produce candidate sequences that are checked
//! against the same target greedy choices, which is why draft-free
//! speculation is lossless by construction rather than by tuning.
//!
//! [`verify_sequence`] and [`verify_tree`] are the reference statement of
//! the rule: they query the model branch by branch.  A
//! [`crate::DecodeSession`] reaches the same decisions with one walk over its
//! round's probe layout by index, and the tests hold it to these functions.

use specasr_models::{AsrDecoderModel, UtteranceTokens};
use specasr_runtime::{TokenTree, TreeAttentionMask};
use specasr_tokenizer::TokenId;

/// Result of verifying a single draft sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceVerification {
    /// The accepted prefix of the draft sequence.
    pub accepted: Vec<TokenId>,
    /// The target's token at the first mismatch, or the bonus token following
    /// a fully accepted draft.
    pub correction: TokenId,
    /// `true` if every draft token was accepted.
    pub all_accepted: bool,
}

impl SequenceVerification {
    /// Number of accepted draft tokens.
    pub fn accepted_len(&self) -> usize {
        self.accepted.len()
    }
}

/// Verifies `draft_tokens` as a continuation of `prefix`.
///
/// The caller is responsible for charging one target forward pass of
/// `draft_tokens.len()` tokens to its [`specasr_models::DecodeClock`]; this
/// function only computes the acceptance decision.
///
/// # Example
///
/// ```
/// use specasr::verify_sequence;
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::{AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding};
///
/// let corpus = Corpus::librispeech_like(1, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = binding.bind(&corpus.split(Split::TestClean)[0]);
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
///
/// // Verifying the target's own transcript accepts everything.
/// let transcript = target.greedy_transcript(&audio);
/// let verification = verify_sequence(&target, &audio, &[], &transcript);
/// assert!(verification.all_accepted);
/// assert_eq!(verification.correction, audio.eos());
/// ```
pub fn verify_sequence<M: AsrDecoderModel + ?Sized>(
    target: &M,
    audio: &UtteranceTokens,
    prefix: &[TokenId],
    draft_tokens: &[TokenId],
) -> SequenceVerification {
    let mut context: Vec<TokenId> = prefix.to_vec();
    let mut accepted = Vec::with_capacity(draft_tokens.len());
    for &draft_token in draft_tokens {
        let target_token = target.greedy_token(audio, &context);
        if target_token == draft_token {
            accepted.push(draft_token);
            context.push(draft_token);
        } else {
            return SequenceVerification {
                accepted,
                correction: target_token,
                all_accepted: false,
            };
        }
    }
    let bonus = target.greedy_token(audio, &context);
    SequenceVerification {
        accepted,
        correction: bonus,
        all_accepted: true,
    }
}

/// Result of verifying a draft token tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeVerification {
    /// The accepted tokens along the best branch.
    pub accepted: Vec<TokenId>,
    /// The target's correction (or bonus) token after the accepted prefix.
    pub correction: TokenId,
    /// Number of tree nodes processed by the verification pass (the token
    /// count the target pass must be charged with).
    pub nodes_processed: usize,
    /// `true` if the best branch was accepted in full to one of its leaves.
    pub best_branch_fully_accepted: bool,
}

impl TreeVerification {
    /// Number of accepted draft tokens.
    pub fn accepted_len(&self) -> usize {
        self.accepted.len()
    }
}

/// Verifies every branch of `tree` as a continuation of `prefix` and returns
/// the best (longest-accepted) branch outcome.
///
/// The whole tree is conceptually processed in one target forward pass using
/// the SpecInfer 2-D attention mask; the caller charges one target pass of
/// [`TreeVerification::nodes_processed`] tokens.
///
/// # Panics
///
/// Panics (in debug builds) if the tree's attention mask is inconsistent with
/// its structure — this would indicate a bug in tree construction.
pub fn verify_tree<M: AsrDecoderModel + ?Sized>(
    target: &M,
    audio: &UtteranceTokens,
    prefix: &[TokenId],
    tree: &TokenTree,
) -> TreeVerification {
    debug_assert!(
        TreeAttentionMask::from_tree(tree).is_consistent_with(tree),
        "tree attention mask must match tree ancestry"
    );
    if tree.is_empty() {
        let correction = target.greedy_token(audio, prefix);
        return TreeVerification {
            accepted: Vec::new(),
            correction,
            nodes_processed: 0,
            best_branch_fully_accepted: false,
        };
    }

    let mut best: Option<(Vec<TokenId>, TokenId, bool)> = None;
    for leaf in tree.leaves() {
        let branch = tree.path_tokens(leaf);
        let verification = verify_sequence(target, audio, prefix, &branch);
        let candidate = (
            verification.accepted,
            verification.correction,
            verification.all_accepted,
        );
        let better = match &best {
            None => true,
            Some((best_accepted, _, _)) => candidate.0.len() > best_accepted.len(),
        };
        if better {
            best = Some(candidate);
        }
    }
    let (accepted, correction, fully_accepted) =
        best.expect("a non-empty tree has at least one leaf");
    TreeVerification {
        accepted,
        correction,
        nodes_processed: tree.len(),
        best_branch_fully_accepted: fully_accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr_audio::UtteranceId;
    use specasr_models::{ModelProfile, TokenLogits};
    use specasr_runtime::NodeOrigin;

    /// A deterministic toy target that always emits the reference token.
    struct OracleTarget {
        profile: ModelProfile,
    }

    impl AsrDecoderModel for OracleTarget {
        fn profile(&self) -> &ModelProfile {
            &self.profile
        }

        fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
            TokenLogits::certain(audio.reference_at(prefix.len()), 0.9)
        }
    }

    fn oracle() -> OracleTarget {
        OracleTarget {
            profile: ModelProfile::whisper_medium_en(),
        }
    }

    fn toy_audio() -> UtteranceTokens {
        UtteranceTokens::new(
            UtteranceId::new(9),
            vec![
                TokenId::new(10),
                TokenId::new(11),
                TokenId::new(12),
                TokenId::new(13),
            ],
            vec![0.1; 4],
            TokenId::new(1),
            TokenId::new(0),
            64,
            2.0,
        )
    }

    #[test]
    fn fully_matching_draft_is_fully_accepted() {
        let audio = toy_audio();
        let v = verify_sequence(
            &oracle(),
            &audio,
            &[],
            &[TokenId::new(10), TokenId::new(11)],
        );
        assert!(v.all_accepted);
        assert_eq!(v.accepted_len(), 2);
        assert_eq!(v.correction, TokenId::new(12));
    }

    #[test]
    fn first_mismatch_stops_acceptance_and_yields_the_correction() {
        let audio = toy_audio();
        let draft = [TokenId::new(10), TokenId::new(99), TokenId::new(12)];
        let v = verify_sequence(&oracle(), &audio, &[], &draft);
        assert!(!v.all_accepted);
        assert_eq!(v.accepted, vec![TokenId::new(10)]);
        assert_eq!(v.correction, TokenId::new(11));
    }

    #[test]
    fn verification_respects_the_committed_prefix() {
        let audio = toy_audio();
        let prefix = [TokenId::new(10), TokenId::new(11)];
        let v = verify_sequence(&oracle(), &audio, &prefix, &[TokenId::new(12)]);
        assert!(v.all_accepted);
        assert_eq!(v.correction, TokenId::new(13));
    }

    #[test]
    fn empty_draft_returns_only_the_correction() {
        let audio = toy_audio();
        let v = verify_sequence(&oracle(), &audio, &[], &[]);
        assert!(v.all_accepted);
        assert!(v.accepted.is_empty());
        assert_eq!(v.correction, TokenId::new(10));
    }

    #[test]
    fn tree_verification_picks_the_longest_branch() {
        let audio = toy_audio();
        // Branch A: 10 -> 99 (mismatch at depth 2).
        // Branch B: 10 -> 11 -> 12 (fully accepted).
        let mut tree = TokenTree::new();
        let root = tree.push_root(TokenId::new(10), 0.9, NodeOrigin::Trunk);
        tree.push_child(root, TokenId::new(99), 0.2, NodeOrigin::Branch);
        let b1 = tree.push_child(root, TokenId::new(11), 0.8, NodeOrigin::Trunk);
        tree.push_child(b1, TokenId::new(12), 0.7, NodeOrigin::Trunk);

        let v = verify_tree(&oracle(), &audio, &[], &tree);
        assert_eq!(
            v.accepted,
            vec![TokenId::new(10), TokenId::new(11), TokenId::new(12)]
        );
        assert_eq!(v.correction, TokenId::new(13));
        assert_eq!(v.nodes_processed, 4);
        assert!(v.best_branch_fully_accepted);
    }

    #[test]
    fn tree_verification_of_all_wrong_branches_accepts_nothing() {
        let audio = toy_audio();
        let mut tree = TokenTree::new();
        tree.push_root(TokenId::new(50), 0.5, NodeOrigin::Trunk);
        tree.push_root(TokenId::new(51), 0.5, NodeOrigin::Branch);
        let v = verify_tree(&oracle(), &audio, &[], &tree);
        assert!(v.accepted.is_empty());
        assert_eq!(v.correction, TokenId::new(10));
        assert_eq!(v.nodes_processed, 2);
        assert!(!v.best_branch_fully_accepted);
    }

    #[test]
    fn empty_tree_verification_returns_the_next_target_token() {
        let audio = toy_audio();
        let v = verify_tree(&oracle(), &audio, &[TokenId::new(10)], &TokenTree::new());
        assert_eq!(v.correction, TokenId::new(11));
        assert_eq!(v.nodes_processed, 0);
    }
}
