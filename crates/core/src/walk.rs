//! One round's probe layout, and the acceptance walk over it.
//!
//! A drafted round is verified by one target pass that scores a set of
//! *probes*: token extensions of the committed prefix, each asking for the
//! target's next-token distribution after it.  [`ProbeLayout::lay_out`] is
//! the one function that decides that set.  The request a scheduler submits
//! carries it as is, and the walk that commits from the completion reads the
//! answers back by probe index, so the two cannot disagree.  A layout is
//! re-laid in place every round, so once its buffers have held a round's
//! largest probe set it allocates nothing.
//!
//! The layout is built as a trie keyed by (parent probe, token): probe 0 is
//! the empty probe, and every later probe is an earlier one plus one token.
//! Drafted material goes in first — sequence prefixes by length, or tree
//! nodes in insertion order, with nodes that spell the same path sharing one
//! probe — and the sparse-tree trunk's prefixes last, of which only those
//! the tree does not already spell add probes.
//!
//! [`ProbeLayout::walk`] applies the lossless acceptance rule of
//! [`crate::verify_sequence`] and [`crate::verify_tree`] to that trie.  From
//! the empty probe it asks for the target's greedy choice and steps to the
//! drafted probe that extends the current one by that token, until no
//! drafted probe does.  The probe it stops at spells the accepted tokens,
//! and the choice that stopped it is the correction (or bonus) token.  Every
//! accepted node of a tree extends an accepted node by the target's own
//! choice, so all accepted paths are prefixes of one greedy path, and the
//! longest accepted branch ends at the probe the walk reaches.

use specasr_models::Probes;
use specasr_tokenizer::TokenId;

use crate::session::{RoundKind, RoundPlan};

/// The probe set of one round's verification pass, with the trie that
/// places each drafted position in it.
///
/// [`ProbeLayout::default`] lays out nothing, not even the empty probe.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ProbeLayout {
    probes: Probes,
    /// The probe one token shorter than each probe (probe 0 names itself).
    parents: Vec<usize>,
    /// Probes `1..=drafted` spell drafted positions; later probes are trunk
    /// prefixes the drafted tree does not contain.
    drafted: usize,
    /// The probe of each tree node, in insertion order (empty unless the
    /// round drafted a tree).
    node_probes: Vec<usize>,
}

/// Where one round's acceptance walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Walk {
    /// The probe spelling the accepted draft tokens.
    pub accepted_probe: usize,
    /// The target's token after the accepted ones: the correction at the
    /// first mismatch, or the bonus token after a fully accepted branch.
    pub correction: TokenId,
    /// Trunk tokens the target accepts, for the recycle buffer (0 when the
    /// round has no trunk).
    pub trunk_accepted: usize,
}

impl ProbeLayout {
    /// Re-lays this layout as `plan`'s verification pass: the empty probe,
    /// every distinct drafted path in first-seen order, then the trunk
    /// prefixes the tree does not spell.  Every buffer is emptied and
    /// refilled, so nothing of the previous round survives.
    pub(crate) fn lay_out(&mut self, plan: &RoundPlan) {
        // Room for the drafted probes and their tokens: one allocation per
        // buffer when the layout is new, nothing once it has held as much.
        let (drafted, path_tokens) = match plan.kind {
            RoundKind::Autoregressive => (0, 0),
            RoundKind::Sequence | RoundKind::External => {
                let n = plan.tokens.len();
                (n, n * (n + 1) / 2)
            }
            RoundKind::BeamTree | RoundKind::SparseTree => (
                plan.tree.len(),
                plan.tree.iter().map(|(_, node)| node.depth).sum(),
            ),
        };
        self.probes.clear();
        self.probes.reserve(drafted + 1, path_tokens);
        self.probes.push(&[]);
        self.parents.clear();
        self.parents.reserve(drafted + 1);
        self.parents.push(0);
        self.node_probes.clear();
        match plan.kind {
            RoundKind::Autoregressive => {}
            RoundKind::Sequence | RoundKind::External => self.push_chain(&plan.tokens),
            RoundKind::BeamTree | RoundKind::SparseTree => {
                // Insertion order is topological, so a node's parent
                // already has its probe.
                self.node_probes.reserve(plan.tree.len());
                for (_, node) in plan.tree.iter() {
                    let parent = node
                        .parent
                        .map_or(0, |parent| self.node_probes[parent.index()]);
                    let probe = self.extend(parent, node.token);
                    self.node_probes.push(probe);
                }
            }
        }
        self.drafted = self.probes.len() - 1;
        if let Some(trunk) = plan.trunk() {
            self.push_chain(trunk);
        }
    }

    /// The probe set, in probe-index order.
    pub(crate) fn probes(&self) -> &Probes {
        &self.probes
    }

    /// Adds the prefixes of `tokens`, longest last.
    fn push_chain(&mut self, tokens: &[TokenId]) {
        let mut probe = 0;
        for &token in tokens {
            probe = self.extend(probe, token);
        }
    }

    /// The probe spelling `parent` plus `token`: found in the trie, or
    /// appended to it.
    fn extend(&mut self, parent: usize, token: TokenId) -> usize {
        if let Some(probe) = self.child(parent, token, self.probes.len()) {
            return probe;
        }
        self.parents.push(parent);
        self.probes.push_extension(parent, token)
    }

    /// The probe below `end` that extends `parent` by `token`, if any.
    /// Children always come after their parent.
    fn child(&self, parent: usize, token: TokenId, end: usize) -> Option<usize> {
        (parent + 1..end).find(|&probe| {
            self.parents[probe] == parent && self.probes.get(probe).last() == Some(&token)
        })
    }

    /// Walks the target's greedy path through the drafted probes, and along
    /// `trunk` when the round has one.  `greedy(i)` is the target's greedy
    /// token after the committed prefix plus probe `i`; it is asked only for
    /// probes on the walk.
    pub(crate) fn walk(
        &self,
        trunk: Option<&[TokenId]>,
        mut greedy: impl FnMut(usize) -> TokenId,
    ) -> Walk {
        let (accepted_probe, correction) = self.descend(&mut greedy, |probe, choice| {
            self.child(probe, choice, self.drafted + 1)
        });
        // The trunk's own accepted length decides what is recycled.  Its
        // prefixes are probes too, so the same descent measures it.
        let trunk_accepted = trunk.map_or(0, |trunk| {
            let (end, _) = self.descend(&mut greedy, |probe, choice| {
                let depth = self.probes.get(probe).len();
                (trunk.get(depth) == Some(&choice))
                    .then(|| self.child(probe, choice, self.probes.len()))
                    .flatten()
            });
            self.probes.get(end).len()
        });
        Walk {
            accepted_probe,
            correction,
            trunk_accepted,
        }
    }

    /// From the empty probe, steps to the probe `next` names for the
    /// target's choice until it names none.  Returns the last probe reached
    /// and the choice that ended the descent.
    fn descend(
        &self,
        greedy: &mut impl FnMut(usize) -> TokenId,
        next: impl Fn(usize, TokenId) -> Option<usize>,
    ) -> (usize, TokenId) {
        let mut probe = 0;
        loop {
            let choice = greedy(probe);
            match next(probe, choice) {
                Some(child) => probe = child,
                None => return (probe, choice),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr_runtime::{NodeOrigin, TokenTree};

    fn t(raw: u32) -> TokenId {
        TokenId::new(raw)
    }

    /// `plan`'s layout, laid out into a fresh buffer.
    fn laid_out(plan: &RoundPlan) -> ProbeLayout {
        let mut layout = ProbeLayout::default();
        layout.lay_out(plan);
        layout
    }

    /// A plan of `kind` over `tokens` and `tree`.
    fn plan(kind: RoundKind, tokens: &[TokenId], tree: TokenTree) -> RoundPlan {
        RoundPlan {
            kind,
            tokens: tokens.to_vec(),
            tree,
            ..RoundPlan::default()
        }
    }

    fn probes_of(layout: &ProbeLayout) -> Vec<Vec<TokenId>> {
        layout.probes().iter().map(<[TokenId]>::to_vec).collect()
    }

    /// A greedy oracle that continues `path`: after probe `i` it answers the
    /// next token of `path` when the probe is a prefix of it, and `off`
    /// otherwise.
    fn oracle<'a>(
        layout: &'a ProbeLayout,
        path: &'a [TokenId],
        off: TokenId,
        asked: &'a mut Vec<usize>,
    ) -> impl FnMut(usize) -> TokenId + 'a {
        move |probe| {
            asked.push(probe);
            let tokens = layout.probes().get(probe);
            match path.get(tokens.len()) {
                Some(&next) if path.starts_with(tokens) => next,
                _ => off,
            }
        }
    }

    #[test]
    fn sequences_lay_out_every_prefix_and_accept_the_matching_one() {
        let plan = plan(RoundKind::External, &[t(1), t(2), t(9)], TokenTree::new());
        let layout = laid_out(&plan);
        assert_eq!(
            probes_of(&layout),
            vec![vec![], vec![t(1)], vec![t(1), t(2)], vec![t(1), t(2), t(9)]]
        );
        let mut asked = Vec::new();
        let path = [t(1), t(2), t(3), t(4)];
        let walk = layout.walk(None, oracle(&layout, &path, t(0), &mut asked));
        assert_eq!(layout.probes().get(walk.accepted_probe), &[t(1), t(2)]);
        assert_eq!(walk.correction, t(3));
        assert_eq!(asked, vec![0, 1, 2], "scored lazily, along the walk only");
    }

    #[test]
    fn duplicate_tree_paths_share_a_probe_and_trunk_only_prefixes_come_last() {
        // prefix -> 1 -> 2        (trunk, first chain)
        //        -> 1 -> 5 -> 6   (a second `1` root, spelling the same path)
        let mut tree = TokenTree::new();
        let a = tree.push_root(t(1), 0.9, NodeOrigin::Trunk);
        tree.push_child(a, t(2), 0.8, NodeOrigin::Trunk);
        let b = tree.push_root(t(1), 0.5, NodeOrigin::Branch);
        let c = tree.push_child(b, t(5), 0.5, NodeOrigin::Branch);
        tree.push_child(c, t(6), 0.5, NodeOrigin::Branch);
        let trunk = [t(1), t(2), t(3)];
        let plan = plan(RoundKind::SparseTree, &trunk, tree);
        let layout = laid_out(&plan);
        assert_eq!(
            probes_of(&layout),
            vec![
                vec![],
                vec![t(1)],
                vec![t(1), t(2)],
                vec![t(1), t(5)],
                vec![t(1), t(5), t(6)],
                vec![t(1), t(2), t(3)],
            ]
        );
        assert_eq!(layout.drafted, 4);

        // The target follows the second branch: the walk crosses from the
        // first `1` root's probe into the second root's child.
        let path = [t(1), t(5), t(6), t(7)];
        let mut asked = Vec::new();
        let walk = layout.walk(Some(&trunk), oracle(&layout, &path, t(0), &mut asked));
        assert_eq!(
            layout.probes().get(walk.accepted_probe),
            &[t(1), t(5), t(6)]
        );
        assert_eq!(walk.correction, t(7));
        assert_eq!(walk.trunk_accepted, 1);

        // A trunk the tree stops short of is walked past the drafted probes.
        let path = [t(1), t(2), t(3), t(4)];
        let mut asked = Vec::new();
        let walk = layout.walk(Some(&trunk), oracle(&layout, &path, t(0), &mut asked));
        assert_eq!(layout.probes().get(walk.accepted_probe), &[t(1), t(2)]);
        assert_eq!(walk.correction, t(3));
        assert_eq!(walk.trunk_accepted, 3);
    }

    #[test]
    fn autoregressive_and_empty_rounds_score_only_the_empty_probe() {
        for kind in [RoundKind::Autoregressive, RoundKind::BeamTree] {
            let layout = laid_out(&plan(kind, &[], TokenTree::new()));
            assert_eq!(probes_of(&layout), vec![Vec::<TokenId>::new()]);
            let mut asked = Vec::new();
            let walk = layout.walk(None, oracle(&layout, &[t(4)], t(0), &mut asked));
            assert_eq!(walk.accepted_probe, 0);
            assert_eq!(walk.correction, t(4));
            assert_eq!(asked, vec![0]);
        }
    }

    #[test]
    fn a_re_laid_layout_equals_a_fresh_one() {
        let mut tree = TokenTree::new();
        let a = tree.push_root(t(1), 0.9, NodeOrigin::Trunk);
        tree.push_child(a, t(2), 0.8, NodeOrigin::Trunk);
        tree.push_root(t(1), 0.5, NodeOrigin::Branch);
        let plans = [
            plan(RoundKind::SparseTree, &[t(1), t(2), t(3)], tree.clone()),
            plan(RoundKind::Sequence, &[t(4)], TokenTree::new()),
            plan(RoundKind::BeamTree, &[], tree),
            plan(RoundKind::Autoregressive, &[], TokenTree::new()),
            plan(RoundKind::External, &[t(5), t(6)], TokenTree::new()),
        ];
        let mut reused = ProbeLayout::default();
        for plan in plans.iter().chain(plans.iter().rev()) {
            reused.lay_out(plan);
            assert_eq!(reused, laid_out(plan));
        }
    }
}
