//! The draft token tree.
//!
//! A token tree represents every candidate continuation the draft model has
//! proposed for the current decoding position.  The root of the tree is the
//! (implicit) committed prefix; each node holds one draft token, a link to its
//! parent, the draft model's normalised probability for that token, and an
//! origin tag recording *why* the node exists (main trunk, sparse side branch,
//! or recycled from a previously rejected draft).  Origin tags are what the
//! draft-sequence-recycling statistics in Fig. 12 are computed from.

use serde::{Deserialize, Serialize};
use specasr_tokenizer::TokenId;

/// Index of a node within a [`TokenTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index of the node in insertion order.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Builds a node id from a flattened insertion index.
    ///
    /// Ids are only meaningful for the tree they were flattened from; all
    /// accessors validate the range at use time.
    pub const fn from_index(index: usize) -> Self {
        NodeId(index)
    }
}

/// Why a node was added to the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeOrigin {
    /// Part of the single-sequence "main trunk" produced by greedy drafting.
    Trunk,
    /// A sparse side branch opened at an uncertain position (top-k expansion).
    Branch,
    /// Reused from a previously generated draft sequence (recycling).
    Recycled,
}

/// One node of the draft token tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeNode {
    /// The draft token at this node.
    pub token: TokenId,
    /// The parent node; `None` for nodes attached directly to the committed
    /// prefix.
    pub parent: Option<NodeId>,
    /// Normalised draft probability of this token.
    pub probability: f64,
    /// Why this node exists.
    pub origin: NodeOrigin,
    /// Depth of the node: 1 for roots, parent depth + 1 otherwise.
    pub depth: usize,
}

/// A draft token tree rooted at the committed prefix.
///
/// Nodes are stored in insertion order, which is also a valid topological
/// order (parents always precede children); the verification batch and the
/// attention mask rely on this property.
///
/// # Example
///
/// ```
/// use specasr_runtime::{NodeOrigin, TokenTree};
/// use specasr_tokenizer::TokenId;
///
/// let mut tree = TokenTree::new();
/// let root = tree.push_root(TokenId::new(7), 0.9, NodeOrigin::Trunk);
/// let child = tree.push_child(root, TokenId::new(8), 0.7, NodeOrigin::Trunk);
/// assert_eq!(tree.depth(child), 2);
/// assert_eq!(tree.leaves(), vec![child]);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TokenTree {
    nodes: Vec<TreeNode>,
}

impl TokenTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        TokenTree::default()
    }

    /// Builds a linear (single-sequence) tree from a token/probability list.
    pub fn from_sequence<I>(tokens: I, origin: NodeOrigin) -> Self
    where
        I: IntoIterator<Item = (TokenId, f64)>,
    {
        let mut tree = TokenTree::new();
        let mut parent: Option<NodeId> = None;
        for (token, probability) in tokens {
            let id = match parent {
                None => tree.push_root(token, probability, origin),
                Some(p) => tree.push_child(p, token, probability, origin),
            };
            parent = Some(id);
        }
        tree
    }

    /// Removes every node, keeping the node buffer's capacity, so a tree
    /// refilled round after round stops allocating once it has held its
    /// largest round.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Adds a node attached directly to the committed prefix.
    pub fn push_root(&mut self, token: TokenId, probability: f64, origin: NodeOrigin) -> NodeId {
        self.push_node(None, token, probability, origin)
    }

    /// Adds a child of `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of this tree.
    pub fn push_child(
        &mut self,
        parent: NodeId,
        token: TokenId,
        probability: f64,
        origin: NodeOrigin,
    ) -> NodeId {
        assert!(
            parent.index() < self.nodes.len(),
            "parent node does not exist"
        );
        self.push_node(Some(parent), token, probability, origin)
    }

    fn push_node(
        &mut self,
        parent: Option<NodeId>,
        token: TokenId,
        probability: f64,
        origin: NodeOrigin,
    ) -> NodeId {
        let depth = match parent {
            None => 1,
            Some(p) => self.nodes[p.index()].depth + 1,
        };
        let id = NodeId(self.nodes.len());
        self.nodes.push(TreeNode {
            token,
            parent,
            probability,
            origin,
            depth,
        });
        id
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn node(&self, id: NodeId) -> &TreeNode {
        &self.nodes[id.index()]
    }

    /// The node with id `id`, if it exists.
    pub fn get(&self, id: NodeId) -> Option<&TreeNode> {
        self.nodes.get(id.index())
    }

    /// Iterates over `(id, node)` pairs in insertion (topological) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &TreeNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Depth of node `id` (1 for roots).
    pub fn depth(&self, id: NodeId) -> usize {
        self.node(id).depth
    }

    /// The children of `id` in insertion order.
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.parent == Some(id))
            .map(|(i, _)| i)
            .collect()
    }

    /// The ids of nodes with no children.
    pub fn leaves(&self) -> Vec<NodeId> {
        let mut has_child = vec![false; self.nodes.len()];
        for node in &self.nodes {
            if let Some(parent) = node.parent {
                has_child[parent.index()] = true;
            }
        }
        (0..self.nodes.len())
            .filter(|&i| !has_child[i])
            .map(NodeId)
            .collect()
    }

    /// The node ids on the path from the root to `id`, inclusive, in root→leaf
    /// order.
    pub fn path(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.node(id).depth);
        let mut current = Some(id);
        while let Some(node_id) = current {
            path.push(node_id);
            current = self.node(node_id).parent;
        }
        path.reverse();
        path
    }

    /// The draft tokens on the path from the root to `id`, inclusive.
    pub fn path_tokens(&self, id: NodeId) -> Vec<TokenId> {
        self.path(id)
            .into_iter()
            .map(|n| self.node(n).token)
            .collect()
    }

    /// Returns `true` if `ancestor` lies on the path from the root to
    /// `descendant` (a node is its own ancestor).
    pub fn is_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        let mut current = Some(descendant);
        while let Some(node_id) = current {
            if node_id == ancestor {
                return true;
            }
            current = self.node(node_id).parent;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(raw: u32) -> TokenId {
        TokenId::new(raw)
    }

    fn sample_tree() -> (TokenTree, Vec<NodeId>) {
        // prefix -> 1 -> 2 -> 3
        //                \-> 4 -> 5
        let mut tree = TokenTree::new();
        let n1 = tree.push_root(t(1), 0.9, NodeOrigin::Trunk);
        let n2 = tree.push_child(n1, t(2), 0.8, NodeOrigin::Trunk);
        let n3 = tree.push_child(n2, t(3), 0.7, NodeOrigin::Trunk);
        let n4 = tree.push_child(n1, t(4), 0.2, NodeOrigin::Branch);
        let n5 = tree.push_child(n4, t(5), 0.6, NodeOrigin::Recycled);
        (tree, vec![n1, n2, n3, n4, n5])
    }

    #[test]
    fn paths_and_depths_are_consistent() {
        let (tree, n) = sample_tree();
        assert_eq!(tree.path_tokens(n[2]), vec![t(1), t(2), t(3)]);
        assert_eq!(tree.path_tokens(n[4]), vec![t(1), t(4), t(5)]);
        assert_eq!(tree.depth(n[0]), 1);
        assert_eq!(tree.depth(n[2]), 3);
        for (id, _) in tree.iter() {
            assert_eq!(tree.path(id).len(), tree.depth(id));
        }
    }

    #[test]
    fn children_and_leaves() {
        let (tree, n) = sample_tree();
        assert_eq!(tree.children(n[0]), vec![n[1], n[3]]);
        assert_eq!(tree.children(n[2]), Vec::<NodeId>::new());
        assert_eq!(tree.leaves(), vec![n[2], n[4]]);
    }

    #[test]
    fn ancestry_is_reflexive_and_follows_parents() {
        let (tree, n) = sample_tree();
        assert!(tree.is_ancestor(n[0], n[4]));
        assert!(tree.is_ancestor(n[4], n[4]));
        assert!(!tree.is_ancestor(n[1], n[4]));
        assert!(!tree.is_ancestor(n[2], n[0]));
    }

    #[test]
    fn origin_counts() {
        let (tree, _) = sample_tree();
        let origins: Vec<NodeOrigin> = tree.iter().map(|(_, node)| node.origin).collect();
        assert_eq!(
            origins,
            [
                NodeOrigin::Trunk,
                NodeOrigin::Trunk,
                NodeOrigin::Trunk,
                NodeOrigin::Branch,
                NodeOrigin::Recycled,
            ]
        );
    }

    #[test]
    fn from_sequence_builds_a_chain() {
        let tree =
            TokenTree::from_sequence([(t(5), 0.9), (t(6), 0.8), (t(7), 0.7)], NodeOrigin::Trunk);
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.leaves().len(), 1);
        let leaf = tree.leaves()[0];
        assert_eq!(tree.path_tokens(leaf), vec![t(5), t(6), t(7)]);
    }

    #[test]
    fn insertion_order_is_topological() {
        let (tree, _) = sample_tree();
        for (id, node) in tree.iter() {
            if let Some(parent) = node.parent {
                assert!(parent.index() < id.index());
            }
        }
    }

    #[test]
    fn empty_tree_behaves() {
        let tree = TokenTree::new();
        assert!(tree.is_empty());
        assert!(tree.leaves().is_empty());
        assert_eq!(tree.get(NodeId(0)), None);
    }

    #[test]
    fn a_cleared_tree_is_empty_and_refills_like_a_new_one() {
        let (mut tree, _) = sample_tree();
        tree.clear();
        assert_eq!(tree, TokenTree::new());
        let root = tree.push_root(t(9), 0.5, NodeOrigin::Branch);
        assert_eq!(root, NodeId(0));
        assert_eq!(tree.depth(root), 1);
    }

    #[test]
    #[should_panic(expected = "parent node does not exist")]
    fn pushing_to_missing_parent_panics() {
        let mut tree = TokenTree::new();
        tree.push_child(NodeId(3), t(1), 0.5, NodeOrigin::Trunk);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Randomly grown trees maintain the structural invariants: parents
        /// precede children, depths increase by exactly one along edges, and
        /// every path's length equals the node depth.
        #[test]
        fn random_trees_keep_invariants(choices in proptest::collection::vec((any::<u16>(), 0u32..100), 1..60)) {
            let mut tree = TokenTree::new();
            for (parent_choice, token) in choices {
                if tree.is_empty() || parent_choice % 5 == 0 {
                    tree.push_root(TokenId::new(token), 0.5, NodeOrigin::Trunk);
                } else {
                    let parent = NodeId((parent_choice as usize) % tree.len());
                    tree.push_child(parent, TokenId::new(token), 0.5, NodeOrigin::Branch);
                }
            }
            for (id, node) in tree.iter() {
                if let Some(parent) = node.parent {
                    prop_assert!(parent.index() < id.index());
                    prop_assert_eq!(node.depth, tree.node(parent).depth + 1);
                } else {
                    prop_assert_eq!(node.depth, 1);
                }
                prop_assert_eq!(tree.path(id).len(), node.depth);
                prop_assert_eq!(tree.path_tokens(id).len(), node.depth);
            }
            // Leaves plus internal nodes partition the tree.
            let leaves = tree.leaves().len();
            prop_assert!(leaves >= 1);
            prop_assert!(leaves <= tree.len());
        }
    }
}
