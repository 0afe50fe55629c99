//! One round's probe layout, and the acceptance walk over it.
//!
//! A drafted round is verified by one target pass that scores a set of
//! *probes*: token extensions of the committed prefix, each asking for the
//! target's next-token distribution after it.  [`ProbeLayout::of`] is the
//! one function that decides that set.  The request a scheduler submits
//! carries it as is, and the walk that commits from the completion reads the
//! answers back by probe index, so the two cannot disagree.
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

use crate::session::RoundPlan;

/// The probe set of one round's verification pass, with the trie that
/// places each drafted position in it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProbeLayout {
    probes: Probes,
    /// The probe one token shorter than each probe (probe 0 names itself).
    parents: Vec<usize>,
    /// Probes `1..=drafted` spell drafted positions; later probes are trunk
    /// prefixes the drafted tree does not contain.
    drafted: usize,
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
    /// The layout of `plan`'s verification pass: the empty probe, every
    /// distinct drafted path in first-seen order, then the trunk prefixes
    /// the tree does not spell.
    pub(crate) fn of(plan: &RoundPlan) -> Self {
        let mut layout = match plan {
            RoundPlan::Autoregressive => ProbeLayout::with_capacity(0, 0),
            RoundPlan::Sequence { tokens, .. } | RoundPlan::ExternalSequence { tokens } => {
                let n = tokens.len();
                let mut layout = ProbeLayout::with_capacity(n, n * (n + 1) / 2);
                layout.push_chain(tokens);
                layout
            }
            RoundPlan::Tree { tree, .. } => {
                let path_tokens = tree.iter().map(|(_, node)| node.depth).sum();
                let mut layout = ProbeLayout::with_capacity(tree.len(), path_tokens);
                // Insertion order is topological, so a node's parent
                // already has its probe.
                let mut node_probes = Vec::with_capacity(tree.len());
                for (_, node) in tree.iter() {
                    let parent = node.parent.map_or(0, |parent| node_probes[parent.index()]);
                    node_probes.push(layout.extend(parent, node.token));
                }
                layout
            }
        };
        layout.drafted = layout.probes.len() - 1;
        if let RoundPlan::Tree {
            trunk_tokens: Some(trunk),
            ..
        } = plan
        {
            layout.push_chain(trunk);
        }
        layout
    }

    fn with_capacity(drafted: usize, tokens: usize) -> Self {
        let mut probes = Probes::with_capacity(drafted + 1, tokens);
        probes.push(&[]);
        let mut parents = Vec::with_capacity(drafted + 1);
        parents.push(0);
        ProbeLayout {
            probes,
            parents,
            drafted: 0,
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
        let plan = RoundPlan::ExternalSequence {
            tokens: vec![t(1), t(2), t(9)],
        };
        let layout = ProbeLayout::of(&plan);
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
        let plan = RoundPlan::Tree {
            tree,
            trunk_tokens: Some(trunk.to_vec()),
            steps: 3,
            recycled: 0,
        };
        let layout = ProbeLayout::of(&plan);
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
        let empty_tree = RoundPlan::Tree {
            tree: TokenTree::new(),
            trunk_tokens: None,
            steps: 0,
            recycled: 0,
        };
        for plan in [RoundPlan::Autoregressive, empty_tree] {
            let layout = ProbeLayout::of(&plan);
            assert_eq!(probes_of(&layout), vec![Vec::<TokenId>::new()]);
            let mut asked = Vec::new();
            let walk = layout.walk(None, oracle(&layout, &[t(4)], t(0), &mut asked));
            assert_eq!(walk.accepted_probe, 0);
            assert_eq!(walk.correction, t(4));
            assert_eq!(asked, vec![0]);
        }
    }
}
