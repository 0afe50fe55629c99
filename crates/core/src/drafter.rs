//! The [`Drafter`] abstraction: where draft tokens come from.
//!
//! Every speculative policy needs draft material, but nothing about
//! verification cares *how* it was produced — the lossless rule accepts
//! exactly the tokens that match the target's own greedy choices, whatever
//! their source.  This module decouples the two:
//!
//! * [`ModelDrafter`] — the classic draft *model*: a small
//!   [`AsrDecoderModel`] queried token by token (or tree by tree), charging
//!   draft forward passes and holding a draft KV cache.  This is the paper's
//!   own configuration, refitted behind the trait.
//! * [`specasr_models::CtcDrafter`] — **draft-free**: greedy collapse of a
//!   simulated CTC posterior over the encoder output (Saon et al.).  No
//!   forward passes, no draft KV.
//! * [`TokenMapDrafter`] — **draft-free**: a walk over a precomputed
//!   n-gram [`TokenMapIndex`] built from the domain vocabulary (Ho et al.),
//!   falling back to shorter drafts off-map.  No forward passes, no draft KV.
//!
//! The serving consequences of draft-free drafting are what matter at scale:
//! a draft-free [`crate::DecodeSession`] never prefills or appends the draft
//! KV sub-pool ([`crate::KvDemand::draft_blocks`] is 0 every round) and never
//! queries a draft model, so a scheduler admitting draft-free sessions sees
//! roughly double the effective pool capacity and no draft-lane traffic.
//! Model-draft sessions query the draft model in place, through
//! [`crate::DecodeSession::draft_round`], whether they decode offline or are
//! served.
//!
//! [`DrafterKind`] names the three sources so sessions, scheduler queues, and
//! bench rows can carry the choice as plain data; the trait objects
//! themselves are installed once per worker.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use specasr_models::{AsrDecoderModel, CtcDrafter, DecodeClock, UtteranceTokens};
use specasr_runtime::{NodeId, NodeOrigin, TokenTree};
use specasr_tokenizer::{TokenId, TokenMapIndex};

use crate::config::{SparseTreeConfig, SpeculativeConfig};
use crate::policy::Policy;
use crate::recycle::{merge_position, run_draft_phase, DraftToken, PhaseRule, RecycleBuffer};
use crate::session::{DraftedRound, RoundKind, RoundPlan};

/// Names a draft-token source, carried per session through queues, bench
/// rows, and serialized records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DrafterKind {
    /// A small draft model queried through forward passes (the paper's
    /// configuration); holds a draft KV cache.
    #[default]
    ModelDraft,
    /// Greedy collapse of the encoder's CTC posterior; draft-free.
    CtcEncoder,
    /// A precomputed n-gram token-map walk; draft-free.
    TokenMap,
}

impl DrafterKind {
    /// All kinds, in presentation order (model draft first).
    pub const ALL: [DrafterKind; 3] = [
        DrafterKind::ModelDraft,
        DrafterKind::CtcEncoder,
        DrafterKind::TokenMap,
    ];

    /// Short stable label used in bench rows and CLI cell names.
    pub fn label(self) -> &'static str {
        match self {
            DrafterKind::ModelDraft => "model",
            DrafterKind::CtcEncoder => "ctc",
            DrafterKind::TokenMap => "token-map",
        }
    }

    /// Parses a [`DrafterKind::label`] back into the kind.
    pub fn from_label(label: &str) -> Option<Self> {
        DrafterKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Whether sessions drafting from this source hold a draft KV cache.
    /// Draft-free sources demand zero draft sub-pool blocks every round.
    pub fn uses_draft_kv(self) -> bool {
        matches!(self, DrafterKind::ModelDraft)
    }
}

/// Everything one draft phase may read (and the clock it may charge):
/// the audio view, the committed prefix, the session's policy and recycle
/// buffer.  Borrowed from the [`crate::DecodeSession`] for the duration of
/// [`Drafter::propose`].
pub struct DraftRequest<'a> {
    /// The bound utterance being decoded.
    pub audio: &'a UtteranceTokens,
    /// The committed transcript so far — drafting continues from its end.
    pub committed: &'a [TokenId],
    /// The session's decoding policy (supplies per-round draft budgets).
    pub policy: &'a Policy,
    /// The tokens retained for recycling: the previous round's rejected
    /// suffix, or a stream's last unstable tail (model-draft recycling;
    /// draft-free sources may ignore it).
    pub recycle: &'a RecycleBuffer,
    /// The session's latency clock; model-backed drafters charge their
    /// forward passes here, draft-free drafters charge nothing.
    pub clock: &'a mut DecodeClock,
}

/// A source of draft tokens for one speculative round.
///
/// Implementations must be pure with respect to the request: proposing from
/// the same `(audio, committed, policy, recycle)` state twice refills the
/// round with the same plan, which is what makes preemption/restore and
/// resumed streaming sessions deterministic.  The refilled round depends
/// only on the request, never on what the buffer held: a round that served
/// another session, policy or drafter before must come out equal to one
/// drafted into [`DraftedRound::new`].
///
/// The KV-demand hook [`Drafter::uses_draft_kv`] tells sessions whether to
/// prefill (and appends-per-round size) a draft KV table at all; the
/// scheduler's admission and preemption logic reads the resulting
/// [`crate::KvDemand`] — draft-free drafters report zero draft blocks.
pub trait Drafter: fmt::Debug {
    /// Which named source this drafter implements.
    fn kind(&self) -> DrafterKind;

    /// Refills `round` with this round's draft material, drafted from the
    /// committed prefix and the audio view.  External implementations fill
    /// it through [`DraftedRound::refill_external`] or
    /// [`DraftedRound::refill_autoregressive`].
    fn propose(&self, request: DraftRequest<'_>, round: &mut DraftedRound);

    /// KV-demand hook: whether sessions using this drafter hold a draft KV
    /// cache.  Defaults to the kind's static answer.
    fn uses_draft_kv(&self) -> bool {
        self.kind().uses_draft_kv()
    }
}

/// The drafters' working space, kept in a [`DraftedRound`] so every round
/// reuses it.  Each loop empties what it uses before writing to it, so no
/// round reads what an earlier one left here.
#[derive(Debug, Clone, Default)]
pub(crate) struct DraftScratch {
    /// The draft-model query context: the committed prefix, then the draft
    /// path being extended.
    context: Vec<TokenId>,
    /// The draft-side detail of each token of an adaptive draft or a
    /// sparse-tree trunk.
    detail: Vec<DraftToken>,
    /// The sparse tree's trunk chain, one node per trunk token.
    trunk_nodes: Vec<NodeId>,
    /// The branch tokens opened at one uncertain trunk position.
    alternatives: Vec<(TokenId, f64)>,
    /// Each beam's tip node, and whether the beam is done.
    tips: Vec<(NodeId, bool)>,
}

/// The draft budget a policy grants one round (how many tokens the draft
/// source may propose before verification).
fn policy_draft_budget(policy: &Policy) -> usize {
    match policy {
        Policy::Autoregressive => 0,
        Policy::Speculative(config) => config.prediction_length,
        Policy::AdaptiveSingleSequence(config) => config.max_prediction_length,
        Policy::TwoPassSparseTree(config) => config.max_prediction_length,
    }
}

/// The classic model-backed drafter: wraps a small [`AsrDecoderModel`] and
/// reproduces the paper's per-policy draft phases (greedy sequence, beam
/// tree, adaptive truncation with recycling, two-pass sparse tree).
///
/// [`crate::DecodeSession::draft_round`] constructs one of these around the
/// model it is given, so the historical API is this drafter's first caller.
pub struct ModelDrafter<'a, D: ?Sized> {
    model: &'a D,
}

impl<'a, D> ModelDrafter<'a, D>
where
    D: AsrDecoderModel + ?Sized,
{
    /// Wraps `model` as the draft source.
    pub fn new(model: &'a D) -> Self {
        ModelDrafter { model }
    }
}

impl<D: ?Sized> fmt::Debug for ModelDrafter<'_, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelDrafter").finish_non_exhaustive()
    }
}

impl<D> Drafter for ModelDrafter<'_, D>
where
    D: AsrDecoderModel + ?Sized,
{
    fn kind(&self) -> DrafterKind {
        DrafterKind::ModelDraft
    }

    fn propose(&self, request: DraftRequest<'_>, round: &mut DraftedRound) {
        let DraftRequest {
            audio,
            committed,
            policy,
            recycle,
            clock,
        } = request;
        let draft = self.model;
        match *policy {
            Policy::Autoregressive => round.refill_autoregressive(),
            Policy::Speculative(config) if config.beams <= 1 => {
                round.refill(RoundKind::Sequence, |plan, scratch| {
                    let context = &mut scratch.context;
                    context.clear();
                    context.extend_from_slice(committed);
                    while plan.tokens.len() < config.prediction_length {
                        let next = draft.greedy_token(audio, context);
                        clock.charge_draft(draft.profile().latency(), 1);
                        plan.steps += 1;
                        plan.tokens.push(next);
                        context.push(next);
                        if next == audio.eos() {
                            break;
                        }
                    }
                });
            }
            Policy::Speculative(config) => round.refill(RoundKind::BeamTree, |plan, scratch| {
                plan.steps = draft_beam_tree(
                    &config,
                    draft,
                    audio,
                    committed,
                    clock,
                    &mut plan.tree,
                    scratch,
                );
            }),
            Policy::AdaptiveSingleSequence(config) => {
                round.refill(RoundKind::Sequence, |plan, scratch| {
                    let phase = run_draft_phase(
                        draft,
                        audio,
                        committed,
                        config.recycling.then_some(recycle),
                        PhaseRule {
                            max_len: config.max_prediction_length,
                            threshold: config.truncation_threshold,
                            truncate_on_threshold: true,
                            merge_offset: config.merge_offset,
                        },
                        clock,
                        &mut plan.tokens,
                        &mut scratch.detail,
                        &mut scratch.context,
                    );
                    plan.steps = phase.steps;
                    plan.recycled = phase.recycled;
                    plan.truncated = phase.truncated;
                });
            }
            Policy::TwoPassSparseTree(config) => {
                round.refill(RoundKind::SparseTree, |plan, scratch| {
                    // Pass 1: greedy trunk, straight into the plan's tokens,
                    // recording uncertainty but never truncating.
                    let trunk = run_draft_phase(
                        draft,
                        audio,
                        committed,
                        config.recycling.then_some(recycle),
                        PhaseRule {
                            max_len: config.max_prediction_length,
                            threshold: config.uncertainty_threshold,
                            truncate_on_threshold: false,
                            merge_offset: config.merge_offset,
                        },
                        clock,
                        &mut plan.tokens,
                        &mut scratch.detail,
                        &mut scratch.context,
                    );
                    // Pass 2: sparse branch expansion at the uncertain
                    // positions.
                    let (branch_steps, branch_recycled) =
                        grow_sparse_tree(&config, draft, audio, committed, clock, plan, scratch);
                    plan.steps = trunk.steps + branch_steps;
                    plan.recycled = trunk.recycled + branch_recycled;
                });
            }
        }
    }
}

/// The model-free token-map drafter: walks a precomputed
/// [`TokenMapIndex`] from the committed prefix, proposing the dominant
/// domain continuation until the walk falls off-map, hits EOS, or exhausts
/// the policy's draft budget.
///
/// Off-map contexts simply end the draft early — a shorter (possibly empty)
/// draft degrades one round toward autoregressive cost but can never break
/// losslessness, since verification accepts only target-matching tokens.
#[derive(Debug, Clone)]
pub struct TokenMapDrafter {
    index: Arc<TokenMapIndex>,
    max_draft_len: usize,
}

impl TokenMapDrafter {
    /// Wraps a prebuilt domain index.  The per-round draft cap defaults to
    /// 24, matching the adaptive policy's maximum prediction length.
    pub fn new(index: Arc<TokenMapIndex>) -> Self {
        TokenMapDrafter {
            index,
            max_draft_len: 24,
        }
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

    /// The wrapped index.
    pub fn index(&self) -> &TokenMapIndex {
        &self.index
    }

    /// Walks the index from `committed`, appending up to `budget` tokens to
    /// `draft`.  The walk's context starts as the last
    /// [`TokenMapIndex::max_context`] committed tokens, all a prediction
    /// reads, in the reused `context` buffer.
    fn walk(
        &self,
        audio: &UtteranceTokens,
        committed: &[TokenId],
        budget: usize,
        context: &mut Vec<TokenId>,
        draft: &mut Vec<TokenId>,
    ) {
        let cap = budget.min(self.max_draft_len);
        let tail = committed.len().saturating_sub(self.index.max_context());
        context.clear();
        context.extend_from_slice(&committed[tail..]);
        for _ in 0..cap {
            let Some(next) = self.index.predict(context) else {
                break;
            };
            draft.push(next);
            if next == audio.eos() {
                break;
            }
            context.push(next);
        }
    }
}

impl Drafter for TokenMapDrafter {
    fn kind(&self) -> DrafterKind {
        DrafterKind::TokenMap
    }

    fn propose(&self, request: DraftRequest<'_>, round: &mut DraftedRound) {
        match request.policy {
            Policy::Autoregressive => round.refill_autoregressive(),
            policy => {
                let budget = policy_draft_budget(policy);
                round.refill(RoundKind::External, |plan, scratch| {
                    self.walk(
                        request.audio,
                        request.committed,
                        budget,
                        &mut scratch.context,
                        &mut plan.tokens,
                    );
                });
            }
        }
    }
}

impl Drafter for CtcDrafter {
    fn kind(&self) -> DrafterKind {
        DrafterKind::CtcEncoder
    }

    fn propose(&self, request: DraftRequest<'_>, round: &mut DraftedRound) {
        match request.policy {
            Policy::Autoregressive => round.refill_autoregressive(),
            policy => {
                let budget = policy_draft_budget(policy);
                round.refill_external(|draft| {
                    self.collapse(request.audio, request.committed.len(), budget, draft);
                });
            }
        }
    }
}

/// The SpecInfer-style beam baseline draft: top-`beams` first-step
/// candidates extended greedily in parallel into `tree` (emptied by the
/// caller).  Returns the draft steps taken.
fn draft_beam_tree<D>(
    config: &SpeculativeConfig,
    draft: &D,
    audio: &UtteranceTokens,
    committed: &[TokenId],
    clock: &mut DecodeClock,
    tree: &mut TokenTree,
    scratch: &mut DraftScratch,
) -> usize
where
    D: AsrDecoderModel + ?Sized,
{
    let SpeculativeConfig {
        prediction_length,
        beams,
    } = *config;
    let DraftScratch { context, tips, .. } = scratch;
    let mut steps = 0usize;

    // First step: the top-`beams` candidates become branch roots.
    let first_logits = draft.next_logits(audio, committed);
    clock.charge_draft(draft.profile().latency(), beams);
    steps += 1;
    tips.clear();
    for candidate in first_logits.iter().take(beams) {
        let origin = if tips.is_empty() {
            NodeOrigin::Trunk
        } else {
            NodeOrigin::Branch
        };
        let node = tree.push_root(candidate.token, candidate.probability, origin);
        tips.push((node, candidate.token == audio.eos()));
    }

    // Subsequent steps: extend every live branch greedily in parallel, each
    // query's context rebuilt in one buffer as the prefix plus the branch.
    context.clear();
    context.extend_from_slice(committed);
    for _ in 1..prediction_length {
        let live = tips.iter().filter(|(_, done)| !done).count();
        if live == 0 {
            break;
        }
        clock.charge_draft(draft.profile().latency(), live);
        steps += 1;
        for (branch, (tip, done)) in tips.iter_mut().enumerate() {
            if *done {
                continue;
            }
            set_branch_path(context, committed.len(), tree, *tip);
            let logits = draft.next_logits(audio, context);
            let Some(top1) = logits.top1() else {
                *done = true;
                continue;
            };
            let origin = if branch == 0 {
                NodeOrigin::Trunk
            } else {
                NodeOrigin::Branch
            };
            *tip = tree.push_child(*tip, top1.token, top1.probability, origin);
            *done = top1.token == audio.eos();
        }
    }
    steps
}

/// Replaces everything in `context` after its first `base` tokens with the
/// tokens on `tree`'s path from the root to `tip`.
fn set_branch_path(context: &mut Vec<TokenId>, base: usize, tree: &TokenTree, tip: NodeId) {
    context.truncate(base);
    let mut node = Some(tip);
    while let Some(id) = node {
        let step = tree.node(id);
        context.push(step.token);
        node = step.parent;
    }
    context[base..].reverse();
}

/// Builds the sparse token tree into `plan.tree` from the trunk draft in
/// `plan.tokens` (with its detail in `scratch`): the trunk chain plus one
/// side branch per uncertain position (up to `max_branches`).
///
/// Returns `(branch_draft_steps, branch_recycled_tokens)`.
fn grow_sparse_tree<D>(
    config: &SparseTreeConfig,
    draft: &D,
    audio: &UtteranceTokens,
    prefix: &[TokenId],
    clock: &mut DecodeClock,
    plan: &mut RoundPlan,
    scratch: &mut DraftScratch,
) -> (usize, usize)
where
    D: AsrDecoderModel + ?Sized,
{
    let RoundPlan {
        tokens: trunk_tokens,
        tree,
        ..
    } = plan;
    let DraftScratch {
        context,
        detail: trunk,
        trunk_nodes,
        alternatives,
        ..
    } = scratch;

    // Trunk chain.
    trunk_nodes.clear();
    let mut previous: Option<NodeId> = None;
    for (&token, drafted) in trunk_tokens.iter().zip(trunk.iter()) {
        let origin = if drafted.recycled {
            NodeOrigin::Recycled
        } else {
            NodeOrigin::Trunk
        };
        let node = match previous {
            None => tree.push_root(token, drafted.probability, origin),
            Some(parent) => tree.push_child(parent, token, drafted.probability, origin),
        };
        trunk_nodes.push(node);
        previous = Some(node);
    }

    // Uncertain positions: low-confidence, freshly generated, non-EOS trunk
    // tokens with a recorded runner-up candidate.
    let uncertain = trunk_tokens
        .iter()
        .zip(trunk.iter())
        .enumerate()
        .filter(|(_, (&token, d))| {
            !d.recycled && d.probability < config.uncertainty_threshold && token != audio.eos()
        })
        .filter_map(|(i, (_, d))| d.runner_up.map(|(alt, p)| (i, alt, p)))
        .take(config.max_branches);

    let mut branch_steps = 0usize;
    let mut branch_recycled = 0usize;
    let branch_width = config.branch_top_k.saturating_sub(1).max(1);
    // One query context per round: the prefix, the trunk up to the branch
    // point, then the branch drafted so far.
    context.clear();
    context.extend_from_slice(prefix);

    for (position, alt_token, alt_probability) in uncertain {
        context.truncate(prefix.len());
        context.extend_from_slice(&trunk_tokens[..position]);
        let branch_start = context.len();
        // Open `branch_top_k - 1` alternative branches at this position; the
        // paper finds a single (top-2) branch optimal, so additional widths
        // reuse lower-ranked candidates from a fresh draft query only when
        // configured.
        alternatives.clear();
        alternatives.push((alt_token, alt_probability));
        if branch_width > 1 {
            let logits = draft.next_logits(audio, context);
            clock.charge_draft(draft.profile().latency(), 1);
            branch_steps += 1;
            for candidate in logits.iter().skip(2).take(branch_width - 1) {
                alternatives.push((candidate.token, candidate.probability));
            }
        }

        for &(token, probability) in alternatives.iter() {
            let parent = if position == 0 {
                None
            } else {
                Some(trunk_nodes[position - 1])
            };
            let mut tip = match parent {
                None => tree.push_root(token, probability, NodeOrigin::Branch),
                Some(p) => tree.push_child(p, token, probability, NodeOrigin::Branch),
            };
            context.truncate(branch_start);
            context.push(token);

            // Extend the branch greedily, merging back onto the trunk as soon
            // as a generated token matches it at the corresponding or an
            // adjacent position.
            for _ in 0..config.branch_extension {
                let logits = draft.next_logits(audio, context);
                clock.charge_draft(draft.profile().latency(), 1);
                branch_steps += 1;
                let Some(top1) = logits.top1() else { break };

                // Merge check against the trunk.
                let trunk_slot = position + (context.len() - branch_start);
                if let Some(merge_at) =
                    merge_position(trunk_tokens, trunk_slot, top1.token, config.merge_offset)
                {
                    tip = tree.push_child(tip, top1.token, top1.probability, NodeOrigin::Branch);
                    // Adopt the trunk continuation after the merge point.
                    // Adoption is capped so side branches stay sparse and the
                    // verification tree does not balloon.
                    let adoption_cap = 2 * config.branch_extension;
                    for &recycled_token in trunk_tokens.iter().skip(merge_at + 1).take(adoption_cap)
                    {
                        if recycled_token == audio.eos() {
                            break;
                        }
                        tip = tree.push_child(tip, recycled_token, 1.0, NodeOrigin::Recycled);
                        branch_recycled += 1;
                    }
                    break;
                }

                tip = tree.push_child(tip, top1.token, top1.probability, NodeOrigin::Branch);
                context.push(top1.token);
                if top1.token == audio.eos() {
                    break;
                }
            }
        }
    }

    (branch_steps, branch_recycled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaptiveConfig;
    use crate::session::DecodeSession;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
    use specasr_runtime::KvPool;

    fn setup() -> (SimulatedAsrModel, SimulatedAsrModel, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(61, 6);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(Split::TestClean));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target, audio)
    }

    fn token_map_for(audio: &[UtteranceTokens]) -> TokenMapDrafter {
        let sequences: Vec<Vec<TokenId>> = audio
            .iter()
            .map(|utt| {
                let mut seq = utt.reference_tokens().to_vec();
                seq.push(utt.eos());
                seq
            })
            .collect();
        let index = TokenMapIndex::build_default(sequences.iter().map(Vec::as_slice));
        TokenMapDrafter::new(Arc::new(index))
    }

    /// Starts a fresh session drafting from `kind` on `pool`.
    fn start(
        policy: Policy,
        kind: DrafterKind,
        audio: &UtteranceTokens,
        pool: &mut KvPool,
    ) -> DecodeSession {
        DecodeSession::new(policy, kind, audio.clone(), &[], pool).expect("unbounded")
    }

    /// Drives a session to completion drafting from `drafter`.
    fn decode_with<Dr: Drafter>(
        policy: Policy,
        drafter: &Dr,
        target: &SimulatedAsrModel,
        audio: &UtteranceTokens,
    ) -> DecodeSession {
        let mut pool = KvPool::unbounded(16);
        let mut session = start(policy, drafter.kind(), audio, &mut pool);
        let mut round = DraftedRound::new();
        while !session.is_finished() {
            session.draft_round_with(drafter, &mut round);
            session
                .verify_round(&mut pool, target, &round)
                .expect("unbounded");
        }
        session
    }

    /// The token-map walk from `committed`, as a fresh draft.
    fn walked(
        map: &TokenMapDrafter,
        audio: &UtteranceTokens,
        committed: &[TokenId],
        budget: usize,
    ) -> Vec<TokenId> {
        let mut draft = Vec::new();
        map.walk(audio, committed, budget, &mut Vec::new(), &mut draft);
        draft
    }

    fn all_policies() -> Vec<Policy> {
        vec![
            Policy::Autoregressive,
            Policy::Speculative(SpeculativeConfig::short_single()),
            Policy::Speculative(SpeculativeConfig::short_double_beam()),
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            Policy::TwoPassSparseTree(crate::config::SparseTreeConfig::paper()),
        ]
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in DrafterKind::ALL {
            assert_eq!(DrafterKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(DrafterKind::from_label("nope"), None);
        assert_eq!(DrafterKind::default(), DrafterKind::ModelDraft);
        assert!(DrafterKind::ModelDraft.uses_draft_kv());
        assert!(!DrafterKind::CtcEncoder.uses_draft_kv());
        assert!(!DrafterKind::TokenMap.uses_draft_kv());
    }

    #[test]
    fn model_drafter_matches_the_session_draft_loop() {
        let (draft, _, audio) = setup();
        let mut pool = KvPool::unbounded(16);
        for policy in all_policies() {
            let mut a = start(policy, DrafterKind::ModelDraft, &audio[0], &mut pool);
            let mut b = start(policy, DrafterKind::ModelDraft, &audio[0], &mut pool);
            let (mut via_session, mut via_drafter) = (DraftedRound::new(), DraftedRound::new());
            a.draft_round(&draft, &mut via_session);
            b.draft_round_with(&ModelDrafter::new(&draft), &mut via_drafter);
            assert_eq!(
                via_session,
                via_drafter,
                "draft_round must delegate to ModelDrafter under {}",
                policy.name()
            );
        }
    }

    #[test]
    fn ctc_sessions_decode_losslessly_under_every_policy() {
        let (draft, target, audio) = setup();
        for policy in all_policies() {
            for utt in audio.iter().take(3) {
                let ctc = CtcDrafter::paired(&target);
                let session = decode_with(policy, &ctc, &target, utt);
                let offline = policy.decode(&draft, &target, utt).tokens;
                assert_eq!(
                    session.tokens(),
                    &offline[..],
                    "CTC-draft transcript diverged under {}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn token_map_sessions_decode_losslessly_under_every_policy() {
        let (draft, target, audio) = setup();
        let map = token_map_for(&audio);
        for policy in all_policies() {
            for utt in audio.iter().take(3) {
                let session = decode_with(policy, &map, &target, utt);
                let offline = policy.decode(&draft, &target, utt).tokens;
                assert_eq!(
                    session.tokens(),
                    &offline[..],
                    "token-map transcript diverged under {}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn draft_free_drafters_charge_no_draft_latency() {
        let (_, target, audio) = setup();
        let ctc = CtcDrafter::paired(&target);
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let session = decode_with(policy, &ctc, &target, &audio[0]);
        assert_eq!(session.clock().draft_passes(), 0);
        assert_eq!(session.clock().breakdown().draft_ms, 0.0);
    }

    #[test]
    fn token_map_walk_reproduces_in_domain_continuations() {
        let (_, _, audio) = setup();
        let map = token_map_for(&audio);
        let utt = &audio[0];
        let reference = utt.reference_tokens();
        // Walking from a mid-transcript prefix should reproduce a chunk of
        // the reference, since the domain corpus contains this utterance.
        let start = reference.len() / 2;
        let drafted = walked(&map, utt, &reference[..start], 8);
        assert!(
            !drafted.is_empty(),
            "in-domain contexts should stay on-map at least one step"
        );
        for (offset, token) in drafted.iter().enumerate() {
            let slot = start + offset;
            if slot < reference.len() {
                assert_eq!(
                    *token, reference[slot],
                    "in-domain walk diverged from the reference at {slot}"
                );
            }
        }
    }

    #[test]
    fn off_map_contexts_fall_back_to_short_or_empty_drafts() {
        let (_, _, audio) = setup();
        let map = token_map_for(&audio);
        let utt = &audio[0];
        // A garbage context no domain sequence contains.
        let garbage: Vec<TokenId> = (9000..9004).map(TokenId::new).collect();
        let drafted = walked(&map, utt, &garbage, 8);
        assert!(drafted.len() <= 1, "off-map walks must stop immediately");
    }

    #[test]
    fn the_token_map_walk_matches_predicting_over_the_whole_prefix() {
        let (_, _, audio) = setup();
        let map = token_map_for(&audio);
        for utt in &audio {
            let reference = utt.reference_tokens();
            for end in 0..=reference.len() {
                // The walk as the index defines it: every prediction over
                // the whole committed prefix plus the tokens walked so far.
                let mut context = reference[..end].to_vec();
                let mut expected = Vec::new();
                while expected.len() < 24 {
                    let Some(next) = map.index().predict(&context) else {
                        break;
                    };
                    expected.push(next);
                    if next == utt.eos() {
                        break;
                    }
                    context.push(next);
                }
                assert_eq!(
                    walked(&map, utt, &reference[..end], 24),
                    expected,
                    "prefix of {end} tokens"
                );
            }
        }
    }

    #[test]
    fn autoregressive_policy_drafts_nothing_under_any_drafter() {
        let (_, target, audio) = setup();
        let ctc = CtcDrafter::paired(&target);
        let map = token_map_for(&audio);
        let mut pool = KvPool::unbounded(16);
        let mut session = start(
            Policy::Autoregressive,
            DrafterKind::CtcEncoder,
            &audio[0],
            &mut pool,
        );
        let mut drafted = DraftedRound::new();
        session.draft_round_with(&ctc, &mut drafted);
        assert_eq!(drafted.predicted_tokens(), 0);
        assert_eq!(drafted.verify_tokens(), 1);
        let mut session = start(
            Policy::Autoregressive,
            DrafterKind::TokenMap,
            &audio[0],
            &mut pool,
        );
        session.draft_round_with(&map, &mut drafted);
        assert_eq!(drafted.predicted_tokens(), 0);
        assert_eq!(drafted, DraftedRound::autoregressive());
    }
}
