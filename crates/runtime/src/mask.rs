//! The SpecInfer-style 2-D tree attention mask.
//!
//! When a token tree is flattened into one verification batch, each node must
//! attend only to the committed prefix and to its own ancestors — *not* to
//! nodes on sibling branches that happen to sit earlier in the flattened
//! order.  The 2-D mask encodes exactly that: `mask[i][j]` is `true` iff node
//! `j` is node `i` or one of its ancestors.

use serde::{Deserialize, Serialize};

use crate::tree::{NodeId, TokenTree};

/// A dense boolean ancestor mask over the flattened nodes of a token tree.
///
/// # Example
///
/// ```
/// use specasr_runtime::{NodeOrigin, TokenTree, TreeAttentionMask};
/// use specasr_tokenizer::TokenId;
///
/// let mut tree = TokenTree::new();
/// let a = tree.push_root(TokenId::new(1), 0.9, NodeOrigin::Trunk);
/// let b = tree.push_child(a, TokenId::new(2), 0.8, NodeOrigin::Trunk);
/// let c = tree.push_child(a, TokenId::new(3), 0.1, NodeOrigin::Branch);
/// let mask = TreeAttentionMask::from_tree(&tree);
/// assert!(mask.row(b)[a.index()]);
/// assert!(!mask.row(b)[c.index()]); // sibling branches do not see each other
/// assert!(mask.row(c)[c.index()]); // every node attends to itself
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeAttentionMask {
    size: usize,
    // Row-major: rows index the attending node, columns the attended node.
    rows: Vec<Vec<bool>>,
}

impl TreeAttentionMask {
    /// Builds the ancestor mask of `tree`.
    pub fn from_tree(tree: &TokenTree) -> Self {
        let size = tree.len();
        let mut rows = vec![vec![false; size]; size];
        for (id, node) in tree.iter() {
            let i = id.index();
            rows[i][i] = true;
            // Copy the parent's row: ancestors of the parent are ancestors of
            // the child.  Insertion order guarantees the parent row is final.
            if let Some(parent) = node.parent {
                let (head, tail) = rows.split_at_mut(i);
                let parent_row = &head[parent.index()];
                for (dst, &src) in tail[0].iter_mut().zip(parent_row.iter()) {
                    *dst |= src;
                }
            }
        }
        TreeAttentionMask { size, rows }
    }

    /// Number of nodes covered by the mask.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The full attention row of a node (which flattened positions it sees).
    pub fn row(&self, from: NodeId) -> &[bool] {
        &self.rows[from.index()]
    }

    /// Checks the structural invariants of an ancestor mask: reflexivity,
    /// lower-triangularity (in topological order), and transitive closure.
    /// Intended for tests and debug assertions.
    pub fn is_consistent_with(&self, tree: &TokenTree) -> bool {
        if self.size != tree.len() {
            return false;
        }
        for (id, _) in tree.iter() {
            let i = id.index();
            if !self.rows[i][i] {
                return false;
            }
            for j in 0..self.size {
                let expected = tree.is_ancestor(NodeId::from_index(j), id);
                if self.rows[i][j] != expected {
                    return false;
                }
                if j > i && self.rows[i][j] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeOrigin;
    use specasr_tokenizer::TokenId;

    fn t(raw: u32) -> TokenId {
        TokenId::new(raw)
    }

    /// Whether `from` attends to `to`: entry `to` of `from`'s row.
    fn attends(mask: &TreeAttentionMask, from: NodeId, to: NodeId) -> bool {
        mask.row(from)[to.index()]
    }

    /// The `true` entries of the mask, its attention volume.
    pub(super) fn active_entries(mask: &TreeAttentionMask) -> usize {
        (0..mask.size())
            .map(|row| {
                let row = mask.row(NodeId::from_index(row));
                row.iter().filter(|&&sees| sees).count()
            })
            .sum()
    }

    fn sample_tree() -> (TokenTree, Vec<NodeId>) {
        let mut tree = TokenTree::new();
        let n1 = tree.push_root(t(1), 0.9, NodeOrigin::Trunk);
        let n2 = tree.push_child(n1, t(2), 0.8, NodeOrigin::Trunk);
        let n3 = tree.push_child(n2, t(3), 0.7, NodeOrigin::Trunk);
        let n4 = tree.push_child(n1, t(4), 0.2, NodeOrigin::Branch);
        let n5 = tree.push_child(n4, t(5), 0.6, NodeOrigin::Recycled);
        (tree, vec![n1, n2, n3, n4, n5])
    }

    #[test]
    fn mask_matches_ancestry() {
        let (tree, n) = sample_tree();
        let mask = TreeAttentionMask::from_tree(&tree);
        assert_eq!(mask.size(), 5);
        assert!(attends(&mask, n[2], n[0]));
        assert!(attends(&mask, n[2], n[1]));
        assert!(attends(&mask, n[2], n[2]));
        assert!(!attends(&mask, n[2], n[3]));
        assert!(!attends(&mask, n[2], n[4]));
        assert!(attends(&mask, n[4], n[3]));
        assert!(attends(&mask, n[4], n[0]));
        assert!(!attends(&mask, n[4], n[1]));
        assert!(mask.is_consistent_with(&tree));
    }

    #[test]
    fn active_entries_counts_paths() {
        let (tree, _) = sample_tree();
        let mask = TreeAttentionMask::from_tree(&tree);
        // Sum over nodes of their depth: 1 + 2 + 3 + 2 + 3 = 11.
        assert_eq!(active_entries(&mask), 11);
    }

    #[test]
    fn empty_tree_yields_empty_mask() {
        let tree = TokenTree::new();
        let mask = TreeAttentionMask::from_tree(&tree);
        assert_eq!(mask.size(), 0);
        assert_eq!(active_entries(&mask), 0);
        assert!(mask.is_consistent_with(&tree));
    }

    #[test]
    fn linear_chain_gives_causal_mask() {
        let tree = TokenTree::from_sequence((0..6u32).map(|i| (t(i + 10), 0.9)), NodeOrigin::Trunk);
        let mask = TreeAttentionMask::from_tree(&tree);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(
                    attends(&mask, NodeId::from_index(i), NodeId::from_index(j)),
                    j <= i,
                    "causal mask mismatch at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn inconsistent_size_is_detected() {
        let (tree, _) = sample_tree();
        let other = TokenTree::from_sequence([(t(1), 0.5)], NodeOrigin::Trunk);
        let mask = TreeAttentionMask::from_tree(&other);
        assert!(!mask.is_consistent_with(&tree));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::tree::NodeOrigin;
    use proptest::prelude::*;
    use specasr_tokenizer::TokenId;

    proptest! {
        /// Masks of randomly grown trees always satisfy the ancestor-mask
        /// invariants (reflexive, lower-triangular, matches tree ancestry).
        #[test]
        fn random_tree_masks_are_consistent(
            choices in proptest::collection::vec((any::<u16>(), 0u32..100), 1..50)
        ) {
            let mut tree = TokenTree::new();
            for (parent_choice, token) in choices {
                if tree.is_empty() || parent_choice % 7 == 0 {
                    tree.push_root(TokenId::new(token), 0.5, NodeOrigin::Trunk);
                } else {
                    let parent = NodeId::from_index((parent_choice as usize) % tree.len());
                    tree.push_child(parent, TokenId::new(token), 0.5, NodeOrigin::Branch);
                }
            }
            let mask = TreeAttentionMask::from_tree(&tree);
            prop_assert!(mask.is_consistent_with(&tree));
            // The number of active entries equals the sum of node depths.
            let depth_sum: usize = tree.iter().map(|(_, n)| n.depth).sum();
            prop_assert_eq!(super::tests::active_entries(&mask), depth_sum);
        }
    }
}
