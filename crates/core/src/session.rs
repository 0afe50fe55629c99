//! Round-level decoding sessions: the steppable core of every policy.
//!
//! [`DecodeSession`] splits one utterance's decode into explicit *rounds*, so
//! a serving scheduler can interleave work across utterances:
//!
//! 1. [`DecodeSession::draft_round_with`] — the session's draft source
//!    speculates this round's material (a token sequence or a sparse token
//!    tree, depending on the policy) and the session records the draft-side
//!    latency.  The source is any [`crate::Drafter`]: the classic draft
//!    *model* ([`crate::ModelDrafter`], or [`DecodeSession::draft_round`] for
//!    short), or a draft-free source (CTC collapse, token-map walk);
//! 2. [`DecodeSession::verify_round`] (scoring by querying the target model)
//!    or [`DecodeSession::verify_round_from`] (scoring from a backend
//!    completion) — the drafted material is verified, the accepted prefix
//!    plus correction token are committed, and KV caches, statistics, and
//!    the recycle buffer are updated.
//!
//! [`DecodeSession::new`] is the one way to start a session, fresh or resumed
//! after a committed prefix, and every session allocates its KV blocks from
//! a caller-owned [`KvPool`]: the serving scheduler's bounded pool, or the
//! unbounded pool [`Policy::decode`] creates per utterance.  Blocking and
//! scheduled decodes therefore run one code path, and a scheduler that
//! interleaves rounds across many sessions produces byte-identical
//! transcripts to sequential decoding (the lossless invariant serving relies
//! on).
//!
//! The drafted material is returned as an opaque [`DraftedRound`]; its
//! [`DraftedRound::verify_tokens`] exposes how many tokens the target pass
//! must process, which is what a continuous-batching scheduler needs to cost
//! a grouped verification step before running it.  A drafted round also
//! lays out, once, the flat probe set its verification pass scores
//! ([`DraftedRound::probe_extensions`]).  Both verify calls run one
//! acceptance walk over that layout by probe index — reading a completion's
//! distributions in place, or querying the target for just the probes the
//! walk visits — and then one commit.  The reference verifiers in
//! [`crate::verify_sequence`] and [`crate::verify_tree`] define the rule the
//! walk reproduces.

use std::sync::Arc;

use specasr_models::{
    AsrDecoderModel, DecodeClock, ForwardRequest, ForwardResult, LatencyModel, ModelProfile,
    Probes, UtteranceTokens,
};
use specasr_runtime::{BlockTable, KvPool, PoolError, TokenTree};
use specasr_tokenizer::TokenId;

use crate::drafter::{DraftRequest, Drafter, DrafterKind, ModelDrafter};
use crate::outcome::DecodeOutcome;
use crate::policy::Policy;
use crate::recycle::RecycleBuffer;
use crate::round::commit_round;
use crate::stats::{DecodeStats, RoundRecord};
use crate::walk::{ProbeLayout, Walk};

/// The material one draft phase produced, waiting to be verified, with the
/// probe layout its verification pass scores.
///
/// Opaque by design: schedulers only need the verification width; the
/// policy-specific payload goes straight back into
/// [`DecodeSession::verify_round`].
#[derive(Debug, Clone, PartialEq)]
pub struct DraftedRound {
    plan: RoundPlan,
    layout: ProbeLayout,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RoundPlan {
    /// Autoregressive decoding drafts nothing; verification emits one token.
    Autoregressive,
    /// A single draft sequence (speculative baseline or adaptive prediction).
    Sequence {
        tokens: Vec<TokenId>,
        steps: usize,
        recycled: usize,
        truncated: bool,
    },
    /// A single draft sequence produced *without* the draft model (CTC
    /// collapse, token-map walk): verified exactly like
    /// [`RoundPlan::Sequence`] but appending zero draft-KV positions and
    /// charging zero draft forward passes.
    ExternalSequence { tokens: Vec<TokenId> },
    /// A draft token tree (beam baseline or two-pass sparse tree).  For the
    /// sparse tree the trunk is kept for the recycle-buffer update.
    Tree {
        tree: TokenTree,
        trunk_tokens: Option<Vec<TokenId>>,
        steps: usize,
        recycled: usize,
    },
}

impl DraftedRound {
    /// Wraps `plan`, laying out its probes once.
    pub(crate) fn new(plan: RoundPlan) -> Self {
        let layout = ProbeLayout::of(&plan);
        DraftedRound { plan, layout }
    }

    /// An autoregressive round: draft nothing, verify one token.  The plan
    /// every [`crate::Drafter`] must return under
    /// [`Policy::Autoregressive`].
    pub fn autoregressive() -> Self {
        DraftedRound::new(RoundPlan::Autoregressive)
    }

    /// A draft-free sequence round: `tokens` were produced outside the draft
    /// model (e.g. CTC collapse or a token-map walk), so verification prices
    /// a target pass over them but appends zero draft-KV positions and
    /// charges zero draft latency.  An empty draft is valid and degrades the
    /// round to a single correction token — losslessness is unaffected
    /// either way, since verification only commits target-matching tokens.
    ///
    /// This is the constructor external [`crate::Drafter`] implementations
    /// build their rounds with.
    pub fn external(tokens: Vec<TokenId>) -> Self {
        DraftedRound::new(RoundPlan::ExternalSequence { tokens })
    }

    /// Number of tokens the target model will process when verifying this
    /// round (the width of the verification forward pass).
    pub fn verify_tokens(&self) -> usize {
        match &self.plan {
            RoundPlan::Autoregressive => 1,
            RoundPlan::Sequence { tokens, .. } | RoundPlan::ExternalSequence { tokens } => {
                tokens.len().max(1)
            }
            RoundPlan::Tree { tree, .. } => tree.len().max(1),
        }
    }

    /// Number of draft tokens submitted for verification (0 for
    /// autoregressive rounds, which draft nothing).
    pub fn predicted_tokens(&self) -> usize {
        match &self.plan {
            RoundPlan::Autoregressive => 0,
            RoundPlan::Sequence { tokens, .. } | RoundPlan::ExternalSequence { tokens } => {
                tokens.len()
            }
            RoundPlan::Tree { tree, .. } => tree.len(),
        }
    }

    /// The probe extensions one verification forward pass over this round
    /// scores (relative to the committed prefix), as one flat set laid out
    /// when the round was drafted: the empty probe (the correction/bonus
    /// position), then each distinct draft path in first-seen order — each
    /// prefix of a drafted sequence, or each root-to-node path of a drafted
    /// token tree, in node insertion order — then the prefixes of a
    /// sparse-tree trunk that the tree does not spell (the recycle-buffer
    /// update reads the trunk's target outputs off the same pass).
    ///
    /// [`DecodeSession::verify_request`] submits exactly this set, and
    /// [`DecodeSession::verify_round_from`] reads the completion's
    /// distributions back by index into it.
    pub fn probe_extensions(&self) -> &Probes {
        self.layout.probes()
    }

    /// Runs the acceptance walk of this round; `greedy(i)` is the target's
    /// greedy token after the committed prefix plus probe `i`.
    fn walk(&self, greedy: impl FnMut(usize) -> TokenId) -> Walk {
        let trunk = match &self.plan {
            RoundPlan::Tree {
                trunk_tokens: Some(trunk),
                ..
            } => Some(trunk.as_slice()),
            _ => None,
        };
        self.layout.walk(trunk, greedy)
    }

    /// KV positions this round appends to the (draft, target) caches before
    /// the post-commit rollback — the widths the paged pool must have room
    /// for.
    fn kv_widths(&self) -> (usize, usize) {
        match &self.plan {
            RoundPlan::Autoregressive => (0, 1),
            RoundPlan::Sequence { tokens, .. } => (tokens.len(), tokens.len()),
            // Draft-free material never entered a draft model, so no draft
            // KV positions exist to append — only the target cache grows.
            RoundPlan::ExternalSequence { tokens } => (0, tokens.len()),
            RoundPlan::Tree {
                tree,
                trunk_tokens,
                steps,
                ..
            } => {
                // The beam baseline counted its draft appends as
                // max(tree, steps); the sparse tree appends the tree size.
                let draft = if trunk_tokens.is_some() {
                    tree.len()
                } else {
                    tree.len().max(*steps)
                };
                (draft, tree.len())
            }
        }
    }
}

/// Fresh (draft, target) block demand of one drafted round against a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvDemand {
    /// Fresh draft sub-pool blocks the round's appends would consume.
    pub draft_blocks: usize,
    /// Fresh target sub-pool blocks the round's appends would consume.
    pub target_blocks: usize,
}

/// One utterance's in-flight decode under a policy, steppable round by round.
///
/// A session's two block tables name blocks in a [`KvPool`] the session does
/// not own: every call that allocates or frees takes that pool, and the
/// caller releases the blocks with [`DecodeSession::release_kv`] when it is
/// done (or drops the pool with the session, as [`Policy::decode`] does).
///
/// # Example
///
/// ```
/// use specasr::{AdaptiveConfig, DecodeSession, DrafterKind, Policy};
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::{AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding};
/// use specasr_runtime::KvPool;
///
/// let corpus = Corpus::librispeech_like(1, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = binding.bind(&corpus.split(Split::TestClean)[0]);
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
/// let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
///
/// let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
/// let mut pool = KvPool::bounded(256, 16);
/// let mut session =
///     DecodeSession::new(policy, DrafterKind::ModelDraft, audio.clone(), &[], &mut pool)?;
/// while !session.is_finished() {
///     let drafted = session.draft_round(&draft);
///     session.verify_round(&mut pool, &target, drafted)?;
/// }
/// session.release_kv(&mut pool);
/// assert_eq!(pool.used_blocks(), 0);
/// assert_eq!(session.into_outcome().tokens, target.greedy_transcript(&audio)); // lossless
/// # Ok::<(), specasr_runtime::PoolError>(())
/// ```
#[derive(Debug)]
pub struct DecodeSession {
    policy: Policy,
    drafter: DrafterKind,
    /// Shared so backend `ForwardRequest`s reference it without copying.
    audio: Arc<UtteranceTokens>,
    tokens: Vec<TokenId>,
    stats: DecodeStats,
    clock: DecodeClock,
    draft_kv: BlockTable,
    target_kv: BlockTable,
    recycle: RecycleBuffer,
    finished: bool,
    cap: usize,
}

impl DecodeSession {
    /// Starts a session for `audio` under `policy`, drafting from `drafter`,
    /// with its KV blocks allocated from `pool`.  A caller that keeps the
    /// audio context behind an `Arc` shares it instead of copying it.
    ///
    /// An empty `committed` starts a fresh decode.  A non-empty one resumes
    /// after those transcript tokens (a streaming re-decode, or a restore
    /// after preemption): the transcript and both KV tables are seeded as if
    /// the tokens had just been committed, and the next round drafts from the
    /// end of the prefix.  Committed tokens of any lossless decode are the
    /// target's greedy choices, and every policy's continuation is a
    /// deterministic function of `(audio, committed prefix)`, so a resumed
    /// session commits exactly the tokens the original session would have.
    /// (The recycle buffer starts empty, which can change round boundaries
    /// but never the committed transcript.)
    ///
    /// Prefill blocks are shared with resident sessions holding an identical
    /// prompt+audio prefix (see [`UtteranceTokens::prefix_key`]).  Sessions
    /// that never query a draft model — the autoregressive policy, and
    /// draft-free [`DrafterKind`]s — prefill and grow only the target
    /// sub-pool, so their whole KV footprint is target-side.  On
    /// [`PoolError::OutOfBlocks`] nothing stays allocated; an unbounded pool
    /// never fails.
    ///
    /// # Panics
    ///
    /// Panics if the policy carries an invalid configuration (policies are
    /// server-side configuration, not request payload).
    pub fn new(
        policy: Policy,
        drafter: DrafterKind,
        audio: impl Into<Arc<UtteranceTokens>>,
        committed: &[TokenId],
        pool: &mut KvPool,
    ) -> Result<Self, PoolError> {
        let audio = audio.into();
        match &policy {
            Policy::AdaptiveSingleSequence(config) => config.validate(),
            Policy::TwoPassSparseTree(config) => config.validate(),
            Policy::Autoregressive | Policy::Speculative(_) => {}
        }
        let holds_draft_kv = !matches!(policy, Policy::Autoregressive) && drafter.uses_draft_kv();
        let key = Some(audio.prefix_key());
        let mut draft_kv = BlockTable::new();
        let mut target_kv = BlockTable::new();
        if holds_draft_kv {
            pool.draft_mut()
                .prefill(&mut draft_kv, audio.prefill_tokens(), key)?;
        }
        if let Err(error) = pool
            .target_mut()
            .prefill(&mut target_kv, audio.prefill_tokens(), key)
        {
            pool.draft_mut().release(&mut draft_kv);
            return Err(error);
        }
        let mut session = DecodeSession {
            policy,
            drafter,
            cap: audio.len() * 2 + 16,
            tokens: Vec::with_capacity(audio.len() + 1),
            audio,
            stats: DecodeStats::new(),
            clock: DecodeClock::new(),
            draft_kv,
            target_kv,
            recycle: RecycleBuffer::new(),
            finished: false,
        };
        let draft_width = if holds_draft_kv { committed.len() } else { 0 };
        if let Err(error) = session.kv_append(pool, draft_width, committed.len()) {
            session.release_kv(pool);
            return Err(error);
        }
        session.tokens.extend_from_slice(committed);
        Ok(session)
    }

    /// The policy this session decodes under.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The draft source this session was configured for.  Schedulers
    /// dispatch the draft phase on this: model-draft sessions query the
    /// draft model through [`DecodeSession::draft_round`], draft-free
    /// sessions go to the installed [`Drafter`].
    pub fn drafter(&self) -> DrafterKind {
        self.drafter
    }

    /// The bound utterance being decoded, shared.
    pub fn audio(&self) -> &Arc<UtteranceTokens> {
        &self.audio
    }

    /// The committed transcript so far.
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// The latency clock accumulated so far.
    pub fn clock(&self) -> &DecodeClock {
        &self.clock
    }

    /// `true` once EOS was reached (or the safety cap hit).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Runs the draft phase of the next round against a draft *model* —
    /// equivalent to [`DecodeSession::draft_round_with`] over
    /// [`ModelDrafter::new`]`(draft)`.
    ///
    /// # Panics
    ///
    /// Panics if the session is already finished, or if it was configured
    /// for a draft-free source (step those with
    /// [`DecodeSession::draft_round_with`]).
    pub fn draft_round<D>(&mut self, draft: &D) -> DraftedRound
    where
        D: AsrDecoderModel + ?Sized,
    {
        self.draft_round_with(&ModelDrafter::new(draft))
    }

    /// Runs the draft phase of the next round against any [`Drafter`].
    ///
    /// The drafter's kind must match the kind the session was constructed
    /// with: the draft-KV prefill, per-round append widths, and scheduler
    /// admission accounting were all sized at construction, so swapping
    /// draft sources mid-session would corrupt the KV bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if the session is already finished, or if `drafter.kind()`
    /// differs from [`DecodeSession::drafter`].
    pub fn draft_round_with<Dr>(&mut self, drafter: &Dr) -> DraftedRound
    where
        Dr: Drafter + ?Sized,
    {
        assert!(!self.finished, "draft_round called on a finished session");
        assert_eq!(
            drafter.kind(),
            self.drafter,
            "a session must be drafted by the drafter kind it was built for"
        );
        drafter.propose(DraftRequest {
            audio: &self.audio,
            committed: &self.tokens,
            policy: &self.policy,
            recycle: &self.recycle,
            clock: &mut self.clock,
        })
    }

    /// Verifies and commits one drafted round by querying `target`,
    /// returning `true` when the session finished.
    ///
    /// The acceptance walk asks the model only for the probes it visits,
    /// building each query context (committed prefix plus probe) in one
    /// reused buffer.
    ///
    /// KV appends allocate from `pool`, and an exhausted pool surfaces as
    /// [`PoolError::OutOfBlocks`] *before* any state was mutated — the
    /// caller can preempt another session to free blocks and retry, or
    /// release this one (schedulers re-queue and restore by re-prefilling,
    /// which is deterministic).
    pub fn verify_round<T>(
        &mut self,
        pool: &mut KvPool,
        target: &T,
        drafted: DraftedRound,
    ) -> Result<bool, PoolError>
    where
        T: AsrDecoderModel + ?Sized,
    {
        // KV bookkeeping first: this round's append widths are fixed by the
        // drafted plan, and verification itself never reads the caches, so
        // appending up front leaves every counter (totals, peaks, discards)
        // byte-identical to the historical order while making exhaustion
        // visible before any transcript state changes.
        let (draft_width, target_width) = drafted.kv_widths();
        self.kv_append(pool, draft_width, target_width)?;
        let probes = drafted.probe_extensions();
        let mut context = Vec::with_capacity(self.tokens.len() + drafted.predicted_tokens());
        let walk = drafted.walk(|probe| {
            context.clear();
            context.extend_from_slice(&self.tokens);
            context.extend_from_slice(probes.get(probe));
            target.greedy_token(&self.audio, &context)
        });
        Ok(self.commit(pool, target.profile().latency(), drafted, walk))
    }

    /// Builds the verification [`ForwardRequest`] for `drafted`: one target
    /// forward pass scoring the probe set of
    /// [`DraftedRound::probe_extensions`] after the committed prefix, priced
    /// at [`DraftedRound::verify_tokens`] parallel tokens.
    ///
    /// A scheduler collects these across all in-flight sessions into one
    /// cross-session [`specasr_models::BackendBatch`], submits it, and
    /// commits each session from its completion via
    /// [`DecodeSession::verify_round_from`].
    pub fn verify_request(&self, drafted: &DraftedRound) -> ForwardRequest {
        ForwardRequest::verify(
            Arc::clone(&self.audio),
            self.tokens.clone(),
            drafted.probe_extensions().clone(),
            drafted.verify_tokens(),
        )
    }

    /// Verifies and commits one drafted round from a backend completion
    /// instead of querying a target model: `result` must answer the request
    /// built by [`DecodeSession::verify_request`] for the same `drafted`
    /// round, and `target_profile` is the profile of the model the backend
    /// fronts (verification latency is charged against it, exactly as
    /// [`DecodeSession::verify_round`] charges the target model).
    ///
    /// The acceptance walk reads `result.logits[i]` in place for each probe
    /// `i` it visits — the same walk and the same commit as
    /// [`DecodeSession::verify_round`], pool contract included, and the
    /// models are pure, so the two calls cannot decide differently.
    ///
    /// # Panics
    ///
    /// Panics if `result` does not carry one scored distribution per probe
    /// of `drafted`.
    pub fn verify_round_from(
        &mut self,
        pool: &mut KvPool,
        target_profile: &ModelProfile,
        result: &ForwardResult,
        drafted: DraftedRound,
    ) -> Result<bool, PoolError> {
        assert_eq!(
            drafted.probe_extensions().len(),
            result.logits.len(),
            "one scored distribution per verification probe"
        );
        let (draft_width, target_width) = drafted.kv_widths();
        self.kv_append(pool, draft_width, target_width)?;
        let eos = self.audio.eos();
        let walk = drafted.walk(|probe| result.logits[probe].greedy_or(eos));
        Ok(self.commit(pool, target_profile.latency(), drafted, walk))
    }

    /// Commits a walked round: charges the target pass, updates the recycle
    /// buffer, appends the accepted tokens and the correction, rolls the KV
    /// caches back to the committed length and records the round.  Returns
    /// `true` when the session finished.
    fn commit(
        &mut self,
        pool: &mut KvPool,
        latency: &LatencyModel,
        drafted: DraftedRound,
        walk: Walk,
    ) -> bool {
        // One target pass over the whole draft: the sequence or every tree
        // node (the sparse-tree trunk's outputs come from the same pass).
        self.clock.charge_target(latency, drafted.verify_tokens());
        let predicted = drafted.predicted_tokens();
        let DraftedRound { plan, layout } = drafted;
        let eos = self.audio.eos();
        let (draft_steps, recycled, truncated) = match &plan {
            RoundPlan::Sequence {
                steps,
                recycled,
                truncated,
                ..
            } => (*steps, *recycled, *truncated),
            RoundPlan::Tree {
                steps, recycled, ..
            } => (*steps, *recycled, false),
            // Draft-free material ran no draft forward passes.
            RoundPlan::Autoregressive | RoundPlan::ExternalSequence { .. } => (0, 0, false),
        };
        let accepted = layout.probes().get(walk.accepted_probe);
        match &plan {
            RoundPlan::Autoregressive => {
                // One target token per round; the length cap applies before
                // it is appended, and nothing was appended to roll back.
                self.stats.record_round(RoundRecord {
                    predicted: 0,
                    accepted: 0,
                    draft_steps: 0,
                    tree_size: 1,
                    recycled: 0,
                    truncated: false,
                });
                self.stats.record_correction();
                if walk.correction == eos || self.tokens.len() >= self.cap {
                    self.finished = true;
                } else {
                    self.tokens.push(walk.correction);
                }
            }
            plan => {
                // Retain the rejected suffix of the sequence, or of the
                // sparse tree's trunk, for the next round (only the adaptive
                // and sparse-tree policies read it back); the beam tree
                // leaves the buffer as it is.
                match plan {
                    RoundPlan::Sequence { tokens, .. } | RoundPlan::ExternalSequence { tokens } => {
                        self.recycle = RecycleBuffer::from_rejected(tokens, accepted.len());
                    }
                    RoundPlan::Tree {
                        trunk_tokens: Some(trunk),
                        ..
                    } => self.recycle = RecycleBuffer::from_rejected(trunk, walk.trunk_accepted),
                    RoundPlan::Tree { .. } | RoundPlan::Autoregressive => {}
                }
                // Commit, then roll the caches back to the committed length
                // (the appends were sized by `DraftedRound::kv_widths`).
                self.finished = commit_round(
                    &mut self.tokens,
                    accepted,
                    walk.correction,
                    eos,
                    self.cap,
                    &mut self.stats,
                );
                self.kv_rollback_to_committed(pool);
                self.stats.record_round(RoundRecord {
                    predicted,
                    accepted: accepted.len(),
                    draft_steps,
                    tree_size: predicted,
                    recycled,
                    truncated,
                });
            }
        }
        // Safety cap on speculative rounds (autoregressive decoding caps on
        // the committed length above, one round per token).
        if !matches!(self.policy, Policy::Autoregressive) && self.stats.rounds >= self.cap {
            self.finished = true;
        }
        self.finished
    }

    /// One complete round: draft from `draft`, then verify against `target`.
    /// Returns `Ok(true)` when the session finished.
    pub fn step<D, T>(
        &mut self,
        pool: &mut KvPool,
        draft: &D,
        target: &T,
    ) -> Result<bool, PoolError>
    where
        D: AsrDecoderModel + ?Sized,
        T: AsrDecoderModel + ?Sized,
    {
        let drafted = self.draft_round(draft);
        self.verify_round(pool, target, drafted)
    }

    /// Consumes the session into a [`DecodeOutcome`].
    ///
    /// Normally called once [`DecodeSession::is_finished`] is `true`; calling
    /// it earlier yields the partial transcript decoded so far.  The
    /// reported KV caches are the position summaries of the block tables
    /// (byte-identical to the pre-paged per-session bookkeeping).  Blocks
    /// still held stay allocated in the pool: release them first with
    /// [`DecodeSession::release_kv`] unless the pool dies with the session.
    pub fn into_outcome(self) -> DecodeOutcome {
        DecodeOutcome {
            tokens: self.tokens,
            stats: self.stats,
            clock: self.clock,
            draft_cache: *self.draft_kv.positions(),
            target_cache: *self.target_kv.positions(),
        }
    }

    /// Fresh block demand of verifying `drafted` against `pool` right now —
    /// what a memory-aware scheduler checks (and preempts against) before
    /// calling [`DecodeSession::verify_round_from`].
    pub fn round_kv_demand(&self, pool: &KvPool, drafted: &DraftedRound) -> KvDemand {
        let (draft_width, target_width) = drafted.kv_widths();
        KvDemand {
            draft_blocks: pool
                .draft()
                .blocks_needed_for_append(&self.draft_kv, draft_width),
            target_blocks: pool
                .target()
                .blocks_needed_for_append(&self.target_kv, target_width),
        }
    }

    /// Blocks this session currently holds across both sub-pools (the
    /// preemption-victim size signal).
    pub fn kv_blocks_held(&self) -> usize {
        self.draft_kv.block_count() + self.target_kv.block_count()
    }

    /// Releases every block the session holds back to `pool` (on finish,
    /// preemption, or memory rejection).  The position bookkeeping stays, so
    /// [`DecodeSession::into_outcome`] still reports it.  Idempotent.
    pub fn release_kv(&mut self, pool: &mut KvPool) {
        pool.draft_mut().release(&mut self.draft_kv);
        pool.target_mut().release(&mut self.target_kv);
    }

    /// Moves the session's KV blocks from `source` to `dest` without
    /// re-prefill — the same-machine block-table hand-off fast path of a
    /// live migration between two workers' pools (see
    /// [`KvPool::hand_off`]).  After a successful move the session must be
    /// stepped against `dest`.
    ///
    /// All-or-nothing: on [`PoolError::OutOfBlocks`] (the destination pool
    /// cannot hold the session) nothing moved and the session still
    /// allocates from `source` — the caller falls back to the
    /// preempt/restore slow path ([`DecodeSession::release_kv`] plus a
    /// deterministic re-prefill + re-decode on the destination).
    ///
    /// # Panics
    ///
    /// Panics when the pools page at different block sizes.
    pub fn migrate_kv(&mut self, source: &mut KvPool, dest: &mut KvPool) -> Result<(), PoolError> {
        source.hand_off(dest, &mut self.draft_kv, &mut self.target_kv)
    }

    /// Appends this round's positions to both block tables.
    ///
    /// The two sub-pool demands are checked up front so the operation is
    /// atomic: on [`PoolError::OutOfBlocks`] neither table changed.
    fn kv_append(
        &mut self,
        pool: &mut KvPool,
        draft_width: usize,
        target_width: usize,
    ) -> Result<(), PoolError> {
        let demand = [
            (pool.draft(), &self.draft_kv, draft_width),
            (pool.target(), &self.target_kv, target_width),
        ];
        for (sub, table, width) in demand {
            let need = sub.blocks_needed_for_append(table, width);
            if need > sub.free_blocks() {
                return Err(PoolError::OutOfBlocks {
                    requested: need,
                    available: sub.free_blocks(),
                    capacity: sub.capacity().unwrap_or(usize::MAX),
                });
            }
        }
        pool.draft_mut()
            .append(&mut self.draft_kv, draft_width)
            .expect("draft demand was checked");
        pool.target_mut()
            .append(&mut self.target_kv, target_width)
            .expect("target demand was checked");
        Ok(())
    }

    /// Rolls both KV tables back to the committed transcript length.
    fn kv_rollback_to_committed(&mut self, pool: &mut KvPool) {
        let committed = self.audio.prefill_tokens() + self.tokens.len();
        let draft_len = committed.min(self.draft_kv.len());
        let target_len = committed.min(self.target_kv.len());
        pool.draft_mut().rollback(&mut self.draft_kv, draft_len);
        pool.target_mut().rollback(&mut self.target_kv, target_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptiveConfig, SparseTreeConfig, SpeculativeConfig};
    use crate::verify::{verify_sequence, verify_tree};
    use specasr_audio::{Corpus, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
    use specasr_runtime::{NodeId, NodeOrigin};

    fn setup(split: Split) -> (SimulatedAsrModel, SimulatedAsrModel, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(61, 6);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(split));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target, audio)
    }

    fn all_policies() -> Vec<Policy> {
        vec![
            Policy::Autoregressive,
            Policy::Speculative(SpeculativeConfig::short_single()),
            Policy::Speculative(SpeculativeConfig::short_double_beam()),
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        ]
    }

    /// Starts a fresh model-draft session on `pool`.
    fn start(policy: Policy, audio: &UtteranceTokens, pool: &mut KvPool) -> DecodeSession {
        DecodeSession::new(policy, DrafterKind::ModelDraft, audio.clone(), &[], pool)
            .expect("pool has room")
    }

    #[test]
    fn stepping_matches_blocking_decode_exactly() {
        let (draft, target, audio) = setup(Split::TestOther);
        for policy in all_policies() {
            for utt in &audio {
                let blocking = policy.decode(&draft, &target, utt);
                let mut pool = KvPool::unbounded(16);
                let mut session = start(policy, utt, &mut pool);
                while !session.step(&mut pool, &draft, &target).expect("unbounded") {}
                let stepped = session.into_outcome();
                assert_eq!(stepped, blocking, "policy {}", policy.name());
            }
        }
    }

    #[test]
    fn interleaving_sessions_does_not_change_outcomes() {
        // Drive several sessions round-robin over one shared pool — the
        // scheduler's access pattern — and compare with sequential decoding.
        let (draft, target, audio) = setup(Split::TestClean);
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let mut pool = KvPool::unbounded(16);
        let mut sessions: Vec<DecodeSession> = audio
            .iter()
            .map(|utt| start(policy, utt, &mut pool))
            .collect();
        while sessions.iter().any(|s| !s.is_finished()) {
            for session in sessions.iter_mut().filter(|s| !s.is_finished()) {
                let drafted = session.draft_round(&draft);
                session
                    .verify_round(&mut pool, &target, drafted)
                    .expect("unbounded");
            }
        }
        for (session, utt) in sessions.into_iter().zip(audio.iter()) {
            let sequential = policy.decode(&draft, &target, utt);
            assert_eq!(session.into_outcome(), sequential);
        }
    }

    #[test]
    fn drafted_round_reports_verification_width() {
        let (draft, _target, audio) = setup(Split::DevClean);
        let mut pool = KvPool::unbounded(16);
        let mut ar = start(Policy::Autoregressive, &audio[0], &mut pool);
        assert_eq!(ar.draft_round(&draft).verify_tokens(), 1);
        let mut spec = start(
            Policy::Speculative(SpeculativeConfig::short_single()),
            &audio[0],
            &mut pool,
        );
        let drafted = spec.draft_round(&draft);
        assert_eq!(drafted.verify_tokens(), drafted.predicted_tokens().max(1));
        assert!(drafted.predicted_tokens() <= 8);
    }

    #[test]
    fn partial_outcome_is_a_prefix_of_the_full_transcript() {
        let (draft, target, audio) = setup(Split::TestClean);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let reference = target.greedy_transcript(&audio[0]);
        let mut pool = KvPool::unbounded(16);
        let mut session = start(policy, &audio[0], &mut pool);
        session.step(&mut pool, &draft, &target).expect("unbounded");
        let partial = session.into_outcome();
        assert!(partial.tokens.len() <= reference.len());
        assert_eq!(partial.tokens[..], reference[..partial.tokens.len()]);
    }

    #[test]
    fn pooled_sessions_match_private_sessions_exactly() {
        // A bounded pool shared by every session against the blocking path's
        // private unbounded pool.
        let (draft, target, audio) = setup(Split::TestClean);
        let mut pool = KvPool::bounded(2048, 16);
        for policy in all_policies() {
            for utt in &audio {
                let private = policy.decode(&draft, &target, utt);
                let mut session = start(policy, utt, &mut pool);
                while !session.is_finished() {
                    let drafted = session.draft_round(&draft);
                    session
                        .verify_round(&mut pool, &target, drafted)
                        .expect("pool has room");
                }
                session.release_kv(&mut pool);
                assert_eq!(session.into_outcome(), private, "policy {}", policy.name());
            }
        }
        assert_eq!(pool.used_blocks(), 0, "released sessions leave no blocks");
    }

    #[test]
    fn pooled_sessions_share_prefix_blocks_for_identical_audio() {
        let (_draft, _target, audio) = setup(Split::DevClean);
        let mut pool = KvPool::bounded(256, 16);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut first = start(policy, &audio[0], &mut pool);
        let used_by_one = pool.used_blocks();
        let mut second = start(policy, &audio[0], &mut pool);
        // The second session re-uses the first one's prefill blocks wholesale.
        assert_eq!(pool.used_blocks(), used_by_one);
        assert!(pool.counters().shared_hits > 0);
        let mut third = start(policy, &audio[1], &mut pool);
        assert!(
            pool.used_blocks() > used_by_one,
            "different audio: no share"
        );
        for session in [&mut first, &mut second, &mut third] {
            session.release_kv(&mut pool);
        }
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn exhausted_pools_reject_admission_without_leaking() {
        let (_draft, _target, audio) = setup(Split::DevOther);
        let mut pool = KvPool::bounded(1, 16);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let error = DecodeSession::new(
            policy,
            DrafterKind::ModelDraft,
            audio[0].clone(),
            &[],
            &mut pool,
        )
        .expect_err("one block cannot hold a prefill");
        assert!(matches!(
            error,
            specasr_runtime::PoolError::OutOfBlocks { .. }
        ));
        assert_eq!(pool.used_blocks(), 0, "failed admission must not leak");
    }

    #[test]
    fn round_demand_predicts_the_blocks_a_round_consumes() {
        let (draft, target, audio) = setup(Split::TestOther);
        let mut pool = KvPool::bounded(512, 16);
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let mut session = start(policy, &audio[0], &mut pool);
        let drafted = session.draft_round(&draft);
        let demand = session.round_kv_demand(&pool, &drafted);
        let before = pool.used_blocks();
        session
            .verify_round(&mut pool, &target, drafted)
            .expect("room");
        // The round's net growth is bounded by the predicted demand (the
        // post-commit rollback may return some of it).
        assert!(pool.used_blocks() <= before + demand.draft_blocks + demand.target_blocks);
        assert!(session.kv_blocks_held() > 0);
        session.release_kv(&mut pool);
        session.release_kv(&mut pool); // idempotent
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn resumed_sessions_complete_the_offline_transcript_for_all_policies() {
        let (draft, target, audio) = setup(Split::TestOther);
        for policy in all_policies() {
            for utt in audio.iter().take(3) {
                let reference = policy.decode(&draft, &target, utt);
                for cut in [0, 1, reference.tokens.len() / 2, reference.tokens.len()] {
                    let committed = &reference.tokens[..cut];
                    let mut pool = KvPool::unbounded(16);
                    let mut session = DecodeSession::new(
                        policy,
                        DrafterKind::ModelDraft,
                        utt.clone(),
                        committed,
                        &mut pool,
                    )
                    .expect("unbounded");
                    assert_eq!(session.tokens(), committed);
                    while !session.step(&mut pool, &draft, &target).expect("unbounded") {}
                    assert_eq!(
                        session.into_outcome().tokens,
                        reference.tokens,
                        "policy {} cut {cut}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_resume_matches_private_resume_and_releases_cleanly() {
        let (draft, target, audio) = setup(Split::TestClean);
        let mut pool = KvPool::bounded(2048, 16);
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let reference = policy.decode(&draft, &target, &audio[0]);
        let committed = &reference.tokens[..reference.tokens.len() / 2];
        let mut session = DecodeSession::new(
            policy,
            DrafterKind::ModelDraft,
            audio[0].clone(),
            committed,
            &mut pool,
        )
        .expect("pool has room");
        while !session.is_finished() {
            let drafted = session.draft_round(&draft);
            session
                .verify_round(&mut pool, &target, drafted)
                .expect("pool has room");
        }
        session.release_kv(&mut pool);
        assert_eq!(session.into_outcome().tokens, reference.tokens);
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn pooled_resume_on_an_exhausted_pool_leaks_nothing() {
        let (draft, target, audio) = setup(Split::DevOther);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let reference = policy.decode(&draft, &target, &audio[0]);
        // Enough blocks for the prefill but not for the committed appends.
        let prefill_blocks = {
            let probe = KvPool::bounded(4096, 16);
            probe.target().blocks_for(audio[0].prefill_tokens())
        };
        let tail_slack = prefill_blocks * 16 - audio[0].prefill_tokens();
        assert!(
            reference.tokens.len() > tail_slack,
            "precondition: the committed prefix must overflow the prefill tail"
        );
        let mut pool = KvPool::bounded(prefill_blocks, 16);
        let error = DecodeSession::new(
            policy,
            DrafterKind::ModelDraft,
            audio[0].clone(),
            &reference.tokens,
            &mut pool,
        )
        .expect_err("the committed appends cannot fit");
        assert!(matches!(error, PoolError::OutOfBlocks { .. }));
        assert_eq!(pool.used_blocks(), 0, "failed resume must not leak");
    }

    #[test]
    fn backend_stepping_matches_blocking_decode_exactly() {
        use specasr_models::{AsrBackend, BackendBatch, InFlightSimBackend};
        let (draft, target, audio) = setup(Split::TestClean);
        let mut target_backend = InFlightSimBackend::new(&target).with_lanes(0);
        let mut pool = KvPool::bounded(2048, 16);
        for policy in all_policies() {
            for utt in &audio {
                let blocking = policy.decode(&draft, &target, utt);
                let mut session = start(policy, utt, &mut pool);
                let mut now = 0.0;
                while !session.is_finished() {
                    let drafted = session.draft_round(&draft);
                    let request = session.verify_request(&drafted);
                    let tickets = target_backend.submit(BackendBatch::of(request), now);
                    let result = target_backend
                        .complete(tickets[0])
                        .expect("computed at submit");
                    now = result.completed_ms;
                    session
                        .verify_round_from(&mut pool, target.profile(), &result, drafted)
                        .expect("pool has room");
                }
                session.release_kv(&mut pool);
                assert_eq!(session.into_outcome(), blocking, "policy {}", policy.name());
            }
        }
        assert_eq!(pool.used_blocks(), 0, "released sessions leave no blocks");
        assert!(target_backend.counters().verify_requests > 0);
    }

    #[test]
    fn probe_extensions_cover_every_verification_query() {
        // The probe set must contain the empty probe and one entry per
        // draft position (sequences) or per distinct node path (trees).
        let (draft, _target, audio) = setup(Split::DevClean);
        let mut pool = KvPool::unbounded(16);
        let mut ar = start(Policy::Autoregressive, &audio[0], &mut pool);
        let drafted = ar.draft_round(&draft);
        assert_eq!(drafted.probe_extensions(), &Probes::empty_probe());

        let mut spec = start(
            Policy::Speculative(SpeculativeConfig::short_single()),
            &audio[0],
            &mut pool,
        );
        let drafted = spec.draft_round(&draft);
        let probes = drafted.probe_extensions();
        assert_eq!(probes.len(), drafted.predicted_tokens() + 1);
        assert_eq!(probes.get(0), &[]);
        for index in 1..probes.len() {
            let (shorter, longer) = (probes.get(index - 1), probes.get(index));
            assert_eq!(longer.len(), shorter.len() + 1, "sequence prefixes grow");
            assert!(longer.starts_with(shorter));
        }

        let mut tree = start(
            Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
            &audio[0],
            &mut pool,
        );
        let drafted = tree.draft_round(&draft);
        let probes = drafted.probe_extensions();
        assert!(probes.len() > 1);
        let mut seen: Vec<&[TokenId]> = probes.iter().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), probes.len(), "probes are unique");
    }

    /// A hand-built sparse-tree round: node `i` is `nodes[i].1`, under node
    /// `nodes[i].0` (a root when `None`).
    fn tree_round(nodes: &[(Option<usize>, TokenId)], trunk: Option<Vec<TokenId>>) -> DraftedRound {
        let mut tree = TokenTree::new();
        for &(parent, token) in nodes {
            match parent {
                None => tree.push_root(token, 0.5, NodeOrigin::Branch),
                Some(parent) => {
                    tree.push_child(NodeId::from_index(parent), token, 0.5, NodeOrigin::Branch)
                }
            };
        }
        DraftedRound::new(RoundPlan::Tree {
            tree,
            trunk_tokens: trunk,
            steps: 3,
            recycled: 1,
        })
    }

    #[test]
    fn hand_built_trees_verify_alike_from_the_model_and_from_a_completion() {
        use specasr_models::{AsrBackend, BackendBatch, InFlightSimBackend};
        let (_draft, target, audio) = setup(Split::TestClean);
        let utt = audio
            .iter()
            .find(|utt| target.greedy_transcript(utt).len() >= 8)
            .expect("a long enough utterance");
        let greedy = target.greedy_transcript(utt);
        let g = |i: usize| greedy[i];
        let committed = &greedy[..2];
        // A real vocabulary token the target does not choose next.
        let wrong = (1..)
            .map(TokenId::new)
            .find(|token| !greedy[..8].contains(token) && *token != utt.eos())
            .expect("an unused token");
        let rounds = [
            // Two sibling roots spell the same path; the target follows the
            // second one's subtree, past the first root's wrong child.
            tree_round(
                &[
                    (None, g(2)),
                    (Some(0), wrong),
                    (None, g(2)),
                    (Some(2), g(3)),
                    (Some(3), g(4)),
                ],
                Some(vec![g(2), wrong, g(4)]),
            ),
            // The trunk is the tree's second chain, and runs past the tree.
            tree_round(
                &[
                    (None, wrong),
                    (Some(0), g(3)),
                    (None, g(2)),
                    (Some(2), g(3)),
                ],
                Some(vec![g(2), g(3), g(4), g(5), wrong]),
            ),
            // A trunk that is no chain of the tree at all.
            tree_round(&[(None, g(2)), (Some(0), wrong)], Some(vec![g(2), g(3)])),
            // Empty trees, with and without a trunk.
            tree_round(&[], None),
            tree_round(&[], Some(vec![g(2), g(3), wrong])),
        ];
        let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
        let mut backend = InFlightSimBackend::new(&target).with_lanes(0);
        for drafted in rounds {
            let RoundPlan::Tree {
                tree, trunk_tokens, ..
            } = &drafted.plan
            else {
                unreachable!("built as a tree")
            };
            // Each distinct path once, in first-seen order: the node paths
            // in insertion order, then the trunk's prefixes.
            let trunk = trunk_tokens.as_deref().unwrap_or_default();
            let mut expected: Vec<Vec<TokenId>> = vec![Vec::new()];
            let node_paths = tree.node_ids().into_iter().map(|id| tree.path_tokens(id));
            let trunk_prefixes = (1..=trunk.len()).map(|end| trunk[..end].to_vec());
            for path in node_paths.chain(trunk_prefixes) {
                if !expected.contains(&path) {
                    expected.push(path);
                }
            }
            let probes = drafted.probe_extensions();
            assert!(probes.iter().eq(expected.iter().map(Vec::as_slice)));

            let mut pool = KvPool::unbounded(16);
            let mut resume = || {
                DecodeSession::new(
                    policy,
                    DrafterKind::ModelDraft,
                    utt.clone(),
                    committed,
                    &mut pool,
                )
                .expect("unbounded")
            };
            let (mut by_model, mut by_result) = (resume(), resume());
            by_model
                .verify_round(&mut pool, &target, drafted.clone())
                .expect("unbounded");
            let tickets = backend.submit(BackendBatch::of(by_result.verify_request(&drafted)), 0.0);
            let result = backend.complete(tickets[0]).expect("computed at submit");
            by_result
                .verify_round_from(&mut pool, target.profile(), &result, drafted.clone())
                .expect("unbounded");
            assert_eq!(by_model.tokens(), by_result.tokens());
            assert_eq!(by_model.stats(), by_result.stats());
            assert_eq!(by_model.clock(), by_result.clock());
            assert_eq!(by_model.recycle, by_result.recycle);

            // The reference verifiers decide the same round.
            let reference = verify_tree(&target, utt, committed, tree);
            let mut after = committed.to_vec();
            after.extend_from_slice(&reference.accepted);
            after.push(reference.correction);
            assert_eq!(by_model.tokens(), after.as_slice());
            assert_eq!(by_model.stats().accepted_tokens, reference.accepted_len());
            if !trunk.is_empty() {
                let trunk_reference = verify_sequence(&target, utt, committed, trunk);
                let recycle = RecycleBuffer::from_rejected(trunk, trunk_reference.accepted_len());
                assert_eq!(by_model.recycle, recycle);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one scored distribution per verification probe")]
    fn mismatched_verify_results_panic() {
        use specasr_models::{ForwardResult, Ticket};
        let (draft, target, audio) = setup(Split::DevOther);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut pool = KvPool::unbounded(16);
        let mut session = start(policy, &audio[0], &mut pool);
        let drafted = session.draft_round(&draft);
        let bogus = ForwardResult {
            ticket: Ticket::new(0),
            logits: Vec::new(),
            submitted_ms: 0.0,
            started_ms: 0.0,
            completed_ms: 0.0,
            batch_requests: 1,
        };
        let _ = session.verify_round_from(&mut pool, target.profile(), &bogus, drafted);
    }

    #[test]
    #[should_panic(expected = "finished session")]
    fn drafting_after_finish_panics() {
        let (draft, target, audio) = setup(Split::DevOther);
        let mut pool = KvPool::unbounded(16);
        let mut session = start(Policy::Autoregressive, &audio[0], &mut pool);
        while !session.step(&mut pool, &draft, &target).expect("unbounded") {}
        let _ = session.draft_round(&draft);
    }
}
