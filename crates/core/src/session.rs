//! Round-level decoding sessions: the steppable core of every policy.
//!
//! [`DecodeSession`] splits one utterance's decode into explicit *rounds*, so
//! a serving scheduler can interleave work across utterances:
//!
//! 1. [`DecodeSession::draft_round_with`] — the session's draft source
//!    speculates this round's material (a token sequence or a sparse token
//!    tree, depending on the policy) into a caller-kept [`DraftedRound`],
//!    and the session records the draft-side latency.  The source is any
//!    [`crate::Drafter`]: the classic draft *model*
//!    ([`crate::ModelDrafter`], or [`DecodeSession::draft_round`] for
//!    short), or a draft-free source (CTC collapse, token-map walk);
//! 2. [`DecodeSession::verify_round`] (scoring by querying the target model)
//!    or [`DecodeSession::verify_round_from`] (scoring from a backend
//!    completion) — the drafted material is verified, the accepted prefix
//!    plus correction token are committed, and KV caches, statistics, and
//!    the recycle buffer are updated.
//!
//! Every session starts, fresh or resumed after a committed prefix, through
//! one start routine: [`DecodeSession::new`] runs it on a new session, and
//! [`DecodeSession::restart`] runs it again in the buffers of a released
//! one, building exactly what `new` builds, plus, for a stream, the last
//! partial's unstable tail in the recycle buffer.  Every session allocates
//! its KV blocks from a caller-owned [`KvPool`]: the serving scheduler's
//! bounded pool, or the unbounded pool [`Policy::decode`] creates per
//! utterance.
//! Blocking and scheduled decodes therefore run one code path, and a
//! scheduler that interleaves rounds across many sessions produces
//! byte-identical transcripts to sequential decoding (the lossless invariant
//! serving relies on).
//!
//! The caller owns the [`DraftedRound`] the material lands in: a drafter
//! empties and refills it in place, both verify calls borrow it, and the
//! caller keeps it for the next round — one per batch slot in a serving
//! scheduler, one per blocking decode — so once warm, a round's draft phase
//! allocates nothing.  The round is opaque: its
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
    AsrDecoderModel, BackendBatch, DecodeClock, ForwardRequest, LatencyModel, Probes, TokenLogits,
    UtteranceTokens,
};
use specasr_runtime::{BlockTable, KvPool, PoolError, TokenTree};
use specasr_tokenizer::TokenId;

use crate::drafter::{DraftRequest, DraftScratch, Drafter, DrafterKind, ModelDrafter};
use crate::outcome::DecodeOutcome;
use crate::policy::Policy;
use crate::recycle::RecycleBuffer;
use crate::round::commit_round;
use crate::stats::{DecodeStats, RoundRecord};
use crate::walk::{ProbeLayout, Walk};

/// One round's draft material, waiting to be verified, with the probe layout
/// its verification pass scores.
///
/// The caller keeps the round: a drafter empties and refills it in place
/// ([`DecodeSession::draft_round_with`]), and both verify calls borrow it.
/// A round therefore lives as long as its caller wants — one per batch slot
/// in a serving scheduler, one per blocking decode — and once its buffers
/// have held their largest round, drafting and laying out the next one
/// allocates nothing.  The buffers hold a token sequence (a draft, or a
/// sparse tree's trunk), a token tree, the probe layout and the drafters'
/// working space; whatever the previous round was, a refill leaves nothing
/// of it behind.
///
/// Opaque by design: schedulers only need the verification width, and the
/// policy-specific plan goes straight back into
/// [`DecodeSession::verify_round`] or [`DecodeSession::verify_round_from`].
/// Two rounds are equal when their plans and probe layouts are; the
/// drafters' working space never counts.
#[derive(Debug, Clone, Default)]
pub struct DraftedRound {
    plan: RoundPlan,
    layout: ProbeLayout,
    scratch: DraftScratch,
}

impl PartialEq for DraftedRound {
    fn eq(&self, other: &Self) -> bool {
        self.plan == other.plan && self.layout == other.layout
    }
}

/// What a round drafted, which decides how it is verified and committed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum RoundKind {
    /// Autoregressive decoding drafts nothing; verification emits one token.
    #[default]
    Autoregressive,
    /// A draft-model sequence (speculative baseline or adaptive prediction).
    Sequence,
    /// A sequence produced *without* the draft model (CTC collapse,
    /// token-map walk): verified exactly like [`RoundKind::Sequence`] but
    /// appending zero draft-KV positions and charging zero draft forward
    /// passes.
    External,
    /// The beam baseline's token tree.
    BeamTree,
    /// The two-pass sparse tree, with its trunk kept for the recycle-buffer
    /// update.
    SparseTree,
}

/// The plan of one round: its kind and what it drafted.  The two buffers
/// stay allocated whatever the kind, so a slot that served a tree round and
/// then a sequence round reuses both.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RoundPlan {
    /// What the round drafted.
    pub kind: RoundKind,
    /// The drafted sequence, or the sparse tree's trunk (empty otherwise).
    pub tokens: Vec<TokenId>,
    /// The drafted token tree (empty unless the round drafted a tree).
    pub tree: TokenTree,
    /// Draft forward passes issued.
    pub steps: usize,
    /// Tokens adopted through recycling merges.
    pub recycled: usize,
    /// Whether the adaptive threshold truncated the draft.
    pub truncated: bool,
}

impl RoundPlan {
    /// Empties the plan for a new round of `kind`, keeping its buffers.
    fn reset(&mut self, kind: RoundKind) {
        self.kind = kind;
        self.tokens.clear();
        self.tree.clear();
        self.steps = 0;
        self.recycled = 0;
        self.truncated = false;
    }

    /// The sparse tree's trunk, the one plan whose rejected suffix is read
    /// off a chain other than the accepted path.
    pub(crate) fn trunk(&self) -> Option<&[TokenId]> {
        (self.kind == RoundKind::SparseTree).then_some(self.tokens.as_slice())
    }
}

impl DraftedRound {
    /// An empty round, holding no plan until a drafter fills it.  Verifying
    /// a round that was never filled panics.
    pub fn new() -> Self {
        DraftedRound::default()
    }

    /// A new autoregressive round: draft nothing, verify one token.  The
    /// plan every [`crate::Drafter`] must fill under
    /// [`Policy::Autoregressive`] (see [`DraftedRound::refill_autoregressive`]).
    pub fn autoregressive() -> Self {
        let mut round = DraftedRound::new();
        round.refill_autoregressive();
        round
    }

    /// Refills this round as an autoregressive one.
    pub fn refill_autoregressive(&mut self) {
        self.refill(RoundKind::Autoregressive, |_, _| {});
    }

    /// Refills this round as a draft-free sequence: `draft` appends the
    /// tokens, produced outside the draft model (e.g. CTC collapse or a
    /// token-map walk), to the round's emptied token buffer.  Verification
    /// prices a target pass over them but appends zero draft-KV positions
    /// and charges zero draft latency.  An empty draft is valid and degrades
    /// the round to a single correction token — losslessness is unaffected
    /// either way, since verification only commits target-matching tokens.
    ///
    /// This is the fill external [`crate::Drafter`] implementations refill
    /// their rounds with.
    pub fn refill_external(&mut self, draft: impl FnOnce(&mut Vec<TokenId>)) {
        self.refill(RoundKind::External, |plan, _| draft(&mut plan.tokens));
    }

    /// Empties the plan for a round of `kind`, lets `fill` draft it (with the
    /// drafters' working space at hand), and lays out its probes.
    pub(crate) fn refill(
        &mut self,
        kind: RoundKind,
        fill: impl FnOnce(&mut RoundPlan, &mut DraftScratch),
    ) {
        self.plan.reset(kind);
        fill(&mut self.plan, &mut self.scratch);
        self.layout.lay_out(&self.plan);
    }

    /// Number of tokens the target model will process when verifying this
    /// round (the width of the verification forward pass).
    pub fn verify_tokens(&self) -> usize {
        self.predicted_tokens().max(1)
    }

    /// Number of draft tokens submitted for verification (0 for
    /// autoregressive rounds, which draft nothing).
    pub fn predicted_tokens(&self) -> usize {
        match self.plan.kind {
            RoundKind::Autoregressive => 0,
            RoundKind::Sequence | RoundKind::External => self.plan.tokens.len(),
            RoundKind::BeamTree | RoundKind::SparseTree => self.plan.tree.len(),
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
    ///
    /// # Panics
    ///
    /// Panics if no drafter has filled the round.
    fn walk(&self, greedy: impl FnMut(usize) -> TokenId) -> Walk {
        assert!(
            !self.layout.probes().is_empty(),
            "a round must be drafted before it is verified"
        );
        self.layout.walk(self.plan.trunk(), greedy)
    }

    /// KV positions this round appends to the (draft, target) caches before
    /// the post-commit rollback — the widths the paged pool must have room
    /// for.
    fn kv_widths(&self) -> (usize, usize) {
        let plan = &self.plan;
        match plan.kind {
            RoundKind::Autoregressive => (0, 1),
            RoundKind::Sequence => (plan.tokens.len(), plan.tokens.len()),
            // Draft-free material never entered a draft model, so no draft
            // KV positions exist to append — only the target cache grows.
            RoundKind::External => (0, plan.tokens.len()),
            // The beam baseline counted its draft appends as
            // max(tree, steps); the sparse tree appends the tree size.
            RoundKind::BeamTree => (plan.tree.len().max(plan.steps), plan.tree.len()),
            RoundKind::SparseTree => (plan.tree.len(), plan.tree.len()),
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
/// use specasr::{AdaptiveConfig, DecodeSession, DraftedRound, DrafterKind, Policy};
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
/// let mut round = DraftedRound::new(); // refilled every round
/// while !session.is_finished() {
///     session.draft_round(&draft, &mut round);
///     session.verify_round(&mut pool, &target, &round)?;
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
    /// Shared so backend batches reference it without copying.
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
    /// audio context behind an `Arc` shares it instead of copying it.  This
    /// is [`DecodeSession::idle`] followed by the start routine
    /// [`DecodeSession::restart`] runs.
    ///
    /// An empty `committed` starts a fresh decode.  A non-empty one resumes
    /// after those transcript tokens (a restore after preemption): the
    /// transcript and both KV tables are seeded as if the tokens had just
    /// been committed, and the next round drafts from the end of the prefix.
    /// Committed tokens of any lossless decode are the target's greedy
    /// choices, and every policy's continuation is a deterministic function
    /// of `(audio, committed prefix)`, so a resumed session commits exactly
    /// the tokens the original session would have.  The recycle buffer
    /// starts empty; a stream's re-decode, which recycles its last partial's
    /// tail, starts through [`DecodeSession::restart`].
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
        let mut session = DecodeSession::idle(policy, drafter, audio);
        session.start(committed, &[], pool)?;
        Ok(session)
    }

    /// A session for `audio` that holds no KV blocks and has decoded
    /// nothing; [`DecodeSession::restart`] starts it.  Its buffers stay
    /// empty until then, so a server builds one per request at submit and
    /// the request carries it through the queue.
    ///
    /// # Panics
    ///
    /// Panics if the policy carries an invalid configuration.
    pub fn idle(
        policy: Policy,
        drafter: DrafterKind,
        audio: impl Into<Arc<UtteranceTokens>>,
    ) -> Self {
        validate(&policy);
        DecodeSession {
            policy,
            drafter,
            audio: audio.into(),
            tokens: Vec::new(),
            stats: DecodeStats::new(),
            clock: DecodeClock::new(),
            draft_kv: BlockTable::new(),
            target_kv: BlockTable::new(),
            recycle: RecycleBuffer::new(),
            finished: false,
            cap: 0,
        }
    }

    /// Hands this released session to a new request: `policy` and `drafter`
    /// replace its own, and every buffer it has grown is kept, its audio
    /// context's included.  Refill that context for the new request through
    /// [`DecodeSession::audio_mut`]; [`DecodeSession::restart`] then starts
    /// the new decode in the kept buffers, with nothing left of the one
    /// before.
    ///
    /// # Panics
    ///
    /// Panics if the policy carries an invalid configuration.
    pub fn reassign(&mut self, policy: Policy, drafter: DrafterKind) {
        validate(&policy);
        self.policy = policy;
        self.drafter = drafter;
    }

    /// Starts this released session again, on `audio` after `committed`,
    /// with `tail` to recycle, building in its kept buffers exactly what
    /// [`DecodeSession::new`] builds: the same transcript, KV positions and
    /// blocks, zeroed statistics and a zeroed clock.  Every buffer keeps its
    /// capacity, so a restart allocates only where the new decode needs more
    /// room than earlier ones left ([`DecodeSession::reserve`] sizes them up
    /// front).
    ///
    /// `tail` is empty for an offline request, and for a stream the
    /// unstable tail of its last partial: the target's own continuation of
    /// `committed` on a shorter view of `audio`, which a new chunk mostly
    /// confirms.  The first round recycles it as it recycles a rejected
    /// suffix, and once it is adopted whole keeps drafting past it, since
    /// the tail stopped at the old audio horizon rather than at a drafting
    /// decision.  Only as much of it as one round can read is kept: the
    /// draft length plus the merge offset, and nothing under a policy that
    /// does not recycle.  Verification commits only the target's greedy
    /// tokens, so the tail moves round boundaries, never the transcript.
    ///
    /// On [`PoolError::OutOfBlocks`] nothing stays allocated, the session
    /// keeps `audio`, and a later restart can try again.
    ///
    /// # Panics
    ///
    /// Panics if the session still holds KV blocks: release them first
    /// ([`DecodeSession::release_kv`]).
    pub fn restart(
        &mut self,
        audio: impl Into<Arc<UtteranceTokens>>,
        committed: &[TokenId],
        tail: &[TokenId],
        pool: &mut KvPool,
    ) -> Result<(), PoolError> {
        self.audio = audio.into();
        self.start(committed, tail, pool)
    }

    /// The start routine of [`DecodeSession::new`] and
    /// [`DecodeSession::restart`]: empties every buffer, prefills both KV
    /// tables, seeds them and the transcript with `committed` and the
    /// recycle buffer with `tail`.
    fn start(
        &mut self,
        committed: &[TokenId],
        tail: &[TokenId],
        pool: &mut KvPool,
    ) -> Result<(), PoolError> {
        self.draft_kv.reset();
        self.target_kv.reset();
        self.tokens.clear();
        self.tokens.reserve(self.audio.len() + 1);
        self.stats = DecodeStats::new();
        self.clock = DecodeClock::new();
        // Nothing of the previous decode's rejected tokens is kept: only
        // the tail, which continues this decode's own prefix, and only as
        // much of it as a round can read.
        let reach = tail.len().min(self.policy.recycle_reach());
        self.recycle.seed(&tail[..reach]);
        self.finished = false;
        self.cap = self.audio.len() * 2 + 16;
        let holds_draft_kv = self.holds_draft_kv();
        let key = Some(self.audio.prefix_key());
        let prefill = self.audio.prefill_tokens();
        if holds_draft_kv {
            pool.draft_mut().prefill(&mut self.draft_kv, prefill, key)?;
        }
        if let Err(error) = pool.target_mut().prefill(&mut self.target_kv, prefill, key) {
            pool.draft_mut().release(&mut self.draft_kv);
            return Err(error);
        }
        let draft_width = if holds_draft_kv { committed.len() } else { 0 };
        if let Err(error) = self.kv_append(pool, draft_width, committed.len()) {
            self.release_kv(pool);
            return Err(error);
        }
        self.tokens.extend_from_slice(committed);
        Ok(())
    }

    /// Whether the session prefills and grows the draft sub-pool: only a
    /// draft-model session of a speculative policy queries a draft model.
    fn holds_draft_kv(&self) -> bool {
        !matches!(self.policy, Policy::Autoregressive) && self.drafter.uses_draft_kv()
    }

    /// Sizes the transcript buffer and both block tables for a whole decode
    /// of the session's audio on `pool`, so restarting on that audio, or on
    /// any shorter view of it, regrows neither, and the recycle buffer for
    /// the most a round can read, so no tail or rejected suffix regrows it.
    /// A stream calls this once, over its full utterance, before its first
    /// chunk.
    pub fn reserve(&mut self, pool: &KvPool) {
        let transcript = self.audio.len() + 1;
        self.tokens
            .reserve(transcript.saturating_sub(self.tokens.len()));
        self.recycle.reserve(self.policy.recycle_reach());
        // Prefill plus transcript, rounded up as a prefill sizes its table,
        // which leaves room for a round's draft positions.
        let blocks = pool
            .target()
            .blocks_for(self.audio.prefill_tokens() + transcript)
            .next_power_of_two();
        if self.holds_draft_kv() {
            self.draft_kv.reserve(blocks);
        }
        self.target_kv.reserve(blocks);
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

    /// The bound utterance, to replace or to refill in place (through
    /// `Arc::get_mut`) before the next [`DecodeSession::restart`]: a parked
    /// stream refills its next view here.
    ///
    /// # Panics
    ///
    /// Panics if the session holds KV blocks, whose prefill the audio
    /// decided.
    pub fn audio_mut(&mut self) -> &mut Arc<UtteranceTokens> {
        assert_eq!(
            self.kv_blocks_held(),
            0,
            "a session's audio changes only while it holds no blocks"
        );
        &mut self.audio
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

    /// Runs the draft phase of the next round against a draft *model*, into
    /// `round` — equivalent to [`DecodeSession::draft_round_with`] over
    /// [`ModelDrafter::new`]`(draft)`.
    ///
    /// # Panics
    ///
    /// Panics if the session is already finished, or if it was configured
    /// for a draft-free source (step those with
    /// [`DecodeSession::draft_round_with`]).
    pub fn draft_round<D>(&mut self, draft: &D, round: &mut DraftedRound)
    where
        D: AsrDecoderModel + ?Sized,
    {
        self.draft_round_with(&ModelDrafter::new(draft), round);
    }

    /// Runs the draft phase of the next round against any [`Drafter`],
    /// refilling `round` in place: whatever the round held before, it now
    /// holds this session's next round and nothing else.
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
    pub fn draft_round_with<Dr>(&mut self, drafter: &Dr, round: &mut DraftedRound)
    where
        Dr: Drafter + ?Sized,
    {
        assert!(!self.finished, "draft_round called on a finished session");
        assert_eq!(
            drafter.kind(),
            self.drafter,
            "a session must be drafted by the drafter kind it was built for"
        );
        drafter.propose(
            DraftRequest {
                audio: &self.audio,
                committed: &self.tokens,
                policy: &self.policy,
                recycle: &self.recycle,
                clock: &mut self.clock,
            },
            round,
        );
    }

    /// Verifies and commits one drafted round by querying `target`,
    /// returning `true` when the session finished.
    ///
    /// The acceptance walk asks the model only for the probes it visits.
    /// Each query context (committed prefix plus probe) is spelled on the
    /// end of the session's own transcript buffer and cut back after the
    /// query, so the walk copies no prefix.
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
        drafted: &DraftedRound,
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
        let committed = self.tokens.len();
        let walk = drafted.walk(|probe| {
            self.tokens.truncate(committed);
            self.tokens.extend_from_slice(probes.get(probe));
            target.greedy_token(&self.audio, &self.tokens)
        });
        self.tokens.truncate(committed);
        Ok(self.commit(pool, target.profile().latency(), drafted, walk))
    }

    /// Appends the verification request for `drafted` to `batch`: one
    /// target forward pass scoring the probe set of
    /// [`DraftedRound::probe_extensions`] after the committed prefix, priced
    /// at [`DraftedRound::verify_tokens`] parallel tokens.
    ///
    /// The prefix and the probes are copied into the batch's flat buffers,
    /// so a scheduler that clears and refills one cross-session batch every
    /// tick stops allocating once the batch has held its largest tick.  It
    /// submits the batch and commits each session from its completion via
    /// [`DecodeSession::verify_round_from`].
    pub fn verify_request(&self, drafted: &DraftedRound, batch: &mut BackendBatch) {
        batch.push(ForwardRequest {
            audio: &self.audio,
            prefix: &self.tokens,
            probes: drafted.probe_extensions().as_slice(),
            charge_tokens: drafted.verify_tokens(),
        });
    }

    /// Verifies and commits one drafted round from a backend completion
    /// instead of querying a target model: `logits` must be the completion
    /// of the request [`DecodeSession::verify_request`] appended for the
    /// same `drafted` round, and `target` is the latency model of the model
    /// the backend fronts (verification is charged against it, exactly as
    /// [`DecodeSession::verify_round`] charges the target model).
    ///
    /// The acceptance walk reads `logits[i]` in place for each probe `i` it
    /// visits — the same walk and the same commit as
    /// [`DecodeSession::verify_round`], pool contract included, and the
    /// models are pure, so the two calls cannot decide differently.
    ///
    /// # Panics
    ///
    /// Panics if `logits` does not hold one scored distribution per probe
    /// of `drafted`.
    pub fn verify_round_from(
        &mut self,
        pool: &mut KvPool,
        target: &LatencyModel,
        logits: &[TokenLogits],
        drafted: &DraftedRound,
    ) -> Result<bool, PoolError> {
        assert_eq!(
            drafted.probe_extensions().len(),
            logits.len(),
            "one scored distribution per verification probe"
        );
        let (draft_width, target_width) = drafted.kv_widths();
        self.kv_append(pool, draft_width, target_width)?;
        let eos = self.audio.eos();
        let walk = drafted.walk(|probe| logits[probe].greedy_or(eos));
        Ok(self.commit(pool, target, drafted, walk))
    }

    /// Commits a walked round: charges the target pass, updates the recycle
    /// buffer, appends the accepted tokens and the correction, rolls the KV
    /// caches back to the committed length and records the round.  Returns
    /// `true` when the session finished.
    fn commit(
        &mut self,
        pool: &mut KvPool,
        latency: &LatencyModel,
        drafted: &DraftedRound,
        walk: Walk,
    ) -> bool {
        // One target pass over the whole draft: the sequence or every tree
        // node (the sparse-tree trunk's outputs come from the same pass).
        self.clock.charge_target(latency, drafted.verify_tokens());
        let predicted = drafted.predicted_tokens();
        let plan = &drafted.plan;
        let eos = self.audio.eos();
        let accepted = drafted.probe_extensions().get(walk.accepted_probe);
        if plan.kind == RoundKind::Autoregressive {
            // One target token per round; the length cap applies before it
            // is appended, and nothing was appended to roll back.
            self.stats.record_round(RoundRecord {
                predicted: 0,
                accepted: 0,
                draft_steps: 0,
                recycled: 0,
                truncated: false,
            });
            self.stats.record_correction();
            if walk.correction == eos || self.tokens.len() >= self.cap {
                self.finished = true;
            } else {
                self.tokens.push(walk.correction);
            }
        } else {
            // Retain the rejected suffix of the sequence, or of the sparse
            // tree's trunk, for the next round (only the adaptive and
            // sparse-tree policies read it back); the beam tree leaves the
            // buffer as it is.
            match plan.kind {
                RoundKind::Sequence | RoundKind::External => {
                    self.recycle.retain_rejected(&plan.tokens, accepted.len());
                }
                RoundKind::SparseTree => {
                    self.recycle
                        .retain_rejected(&plan.tokens, walk.trunk_accepted);
                }
                RoundKind::BeamTree | RoundKind::Autoregressive => {}
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
            // Draft-free material ran no draft forward passes, and only an
            // adaptive sequence truncates: the plan's counters say so.
            self.stats.record_round(RoundRecord {
                predicted,
                accepted: accepted.len(),
                draft_steps: plan.steps,
                recycled: plan.recycled,
                truncated: plan.truncated,
            });
        }
        // Safety cap on speculative rounds (autoregressive decoding caps on
        // the committed length above, one round per token).
        if !matches!(self.policy, Policy::Autoregressive) && self.stats.rounds >= self.cap {
            self.finished = true;
        }
        self.finished
    }

    /// One complete round: draft from `draft` into `round`, then verify
    /// against `target`.  Returns `Ok(true)` when the session finished.  A
    /// caller that passes the same `round` every time drafts a whole decode
    /// in one round buffer.
    pub fn step<D, T>(
        &mut self,
        pool: &mut KvPool,
        draft: &D,
        target: &T,
        round: &mut DraftedRound,
    ) -> Result<bool, PoolError>
    where
        D: AsrDecoderModel + ?Sized,
        T: AsrDecoderModel + ?Sized,
    {
        self.draft_round(draft, round);
        self.verify_round(pool, target, round)
    }

    /// Consumes the session into a [`DecodeOutcome`].
    ///
    /// Normally called once [`DecodeSession::is_finished`] is `true`; calling
    /// it earlier yields the partial transcript decoded so far.  Blocks
    /// still held stay allocated in the pool: release them first with
    /// [`DecodeSession::release_kv`] unless the pool dies with the session.
    pub fn into_outcome(self) -> DecodeOutcome {
        DecodeOutcome {
            tokens: self.tokens,
            stats: self.stats,
            clock: self.clock,
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
    /// preemption, or memory rejection).  The position bookkeeping stays
    /// until the next start.  Idempotent.
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

/// Checks a policy's configuration before a session decodes under it.
fn validate(policy: &Policy) {
    match policy {
        Policy::AdaptiveSingleSequence(config) => config.validate(),
        Policy::TwoPassSparseTree(config) => config.validate(),
        Policy::Autoregressive | Policy::Speculative(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptiveConfig, SparseTreeConfig, SpeculativeConfig};
    use crate::verify::{verify_sequence, verify_tree};
    use specasr_audio::{Corpus, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
    use specasr_runtime::{KvCache, NodeId, NodeOrigin};

    impl DecodeSession {
        /// The position bookkeeping of both KV tables: the draft's, then
        /// the target's.
        pub(crate) fn kv_positions(&self) -> (KvCache, KvCache) {
            (*self.draft_kv.positions(), *self.target_kv.positions())
        }
    }

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

    /// `session`'s next round, drafted by `draft` into a fresh round.
    fn drafted(session: &mut DecodeSession, draft: &SimulatedAsrModel) -> DraftedRound {
        let mut round = DraftedRound::new();
        session.draft_round(draft, &mut round);
        round
    }

    /// Steps `session` to its end on `pool`, every round drafted into one
    /// buffer.
    fn finish(
        session: &mut DecodeSession,
        pool: &mut KvPool,
        draft: &SimulatedAsrModel,
        target: &SimulatedAsrModel,
    ) {
        let mut round = DraftedRound::new();
        while !session
            .step(pool, draft, target, &mut round)
            .expect("pool has room")
        {}
    }

    #[test]
    fn stepping_matches_blocking_decode_exactly() {
        let (draft, target, audio) = setup(Split::TestOther);
        for policy in all_policies() {
            for utt in &audio {
                let blocking = policy.decode(&draft, &target, utt);
                let mut pool = KvPool::unbounded(16);
                let mut session = start(policy, utt, &mut pool);
                finish(&mut session, &mut pool, &draft, &target);
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
        // One round buffer serves every session in turn, as a scheduler's
        // batch slot does.
        let mut round = DraftedRound::new();
        while sessions.iter().any(|s| !s.is_finished()) {
            for session in sessions.iter_mut().filter(|s| !s.is_finished()) {
                session.draft_round(&draft, &mut round);
                session
                    .verify_round(&mut pool, &target, &round)
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
        assert_eq!(drafted(&mut ar, &draft).verify_tokens(), 1);
        let mut spec = start(
            Policy::Speculative(SpeculativeConfig::short_single()),
            &audio[0],
            &mut pool,
        );
        let round = drafted(&mut spec, &draft);
        assert_eq!(round.verify_tokens(), round.predicted_tokens().max(1));
        assert!(round.predicted_tokens() <= 8);
    }

    #[test]
    fn partial_outcome_is_a_prefix_of_the_full_transcript() {
        let (draft, target, audio) = setup(Split::TestClean);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let reference = target.greedy_transcript(&audio[0]);
        let mut pool = KvPool::unbounded(16);
        let mut session = start(policy, &audio[0], &mut pool);
        session
            .step(&mut pool, &draft, &target, &mut DraftedRound::new())
            .expect("unbounded");
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
                finish(&mut session, &mut pool, &draft, &target);
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
        let round = drafted(&mut session, &draft);
        let demand = session.round_kv_demand(&pool, &round);
        let before = pool.used_blocks();
        session
            .verify_round(&mut pool, &target, &round)
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
                    finish(&mut session, &mut pool, &draft, &target);
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
        finish(&mut session, &mut pool, &draft, &target);
        session.release_kv(&mut pool);
        assert_eq!(session.into_outcome().tokens, reference.tokens);
        assert_eq!(pool.used_blocks(), 0);
    }

    /// A restart with a tail to recycle commits the blocking transcript
    /// under every policy, and keeps only as much of the tail as one round
    /// can read: the draft length plus the merge offset for a recycling
    /// policy, nothing for one that does not recycle.
    #[test]
    fn a_restart_keeps_only_the_tail_a_round_can_read() {
        let (draft, target, _) = setup(Split::TestClean);
        let corpus = Corpus::librispeech_like(61, 24);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(Split::TestOther));
        let longest = audio
            .iter()
            .max_by_key(|audio| audio.len())
            .expect("a split");
        let mut policies = all_policies();
        policies.push(Policy::AdaptiveSingleSequence(
            AdaptiveConfig::without_recycling(),
        ));
        for policy in policies {
            let reach = match policy {
                Policy::AdaptiveSingleSequence(config) if config.recycling => 25,
                Policy::TwoPassSparseTree(_) => 25,
                _ => 0,
            };
            assert_eq!(policy.recycle_reach(), reach, "{policy}");
            let reference = policy.decode(&draft, &target, longest);
            let (committed, tail) = reference.tokens.split_at(4);
            assert!(tail.len() > reach, "{} tail tokens", tail.len());
            let mut pool = KvPool::unbounded(16);
            let mut session =
                DecodeSession::idle(policy, DrafterKind::ModelDraft, UtteranceTokens::default());
            session
                .restart(longest.clone(), committed, tail, &mut pool)
                .expect("unbounded");
            assert_eq!(session.recycle.tokens(), &tail[..reach], "{policy}");
            finish(&mut session, &mut pool, &draft, &target);
            assert_eq!(session.into_outcome().tokens, reference.tokens, "{policy}");
        }
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
        use specasr_models::{AsrBackend, Completions, InFlightSimBackend};
        let (draft, target, audio) = setup(Split::TestClean);
        let mut target_backend = InFlightSimBackend::new(&target).with_lanes(0);
        let mut pool = KvPool::bounded(2048, 16);
        let mut batch = BackendBatch::new();
        let mut completions = Completions::new();
        let mut round = DraftedRound::new();
        for policy in all_policies() {
            for utt in &audio {
                let blocking = policy.decode(&draft, &target, utt);
                let mut session = start(policy, utt, &mut pool);
                let mut now = 0.0;
                while !session.is_finished() {
                    session.draft_round(&draft, &mut round);
                    batch.clear();
                    session.verify_request(&round, &mut batch);
                    target_backend.submit(&batch, now);
                    target_backend.poll(&mut completions);
                    let (result, logits) = completions.iter().next().expect("computed at submit");
                    now = result.completed_ms;
                    session
                        .verify_round_from(&mut pool, target.profile().latency(), logits, &round)
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
        let round = drafted(&mut ar, &draft);
        assert_eq!(round.probe_extensions(), &Probes::empty_probe());

        let mut spec = start(
            Policy::Speculative(SpeculativeConfig::short_single()),
            &audio[0],
            &mut pool,
        );
        let round = drafted(&mut spec, &draft);
        let probes = round.probe_extensions();
        assert_eq!(probes.len(), round.predicted_tokens() + 1);
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
        let round = drafted(&mut tree, &draft);
        let probes = round.probe_extensions();
        assert!(probes.len() > 1);
        let mut seen: Vec<&[TokenId]> = probes.iter().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), probes.len(), "probes are unique");
    }

    /// A hand-built tree round: node `i` is `nodes[i].1`, under node
    /// `nodes[i].0` (a root when `None`); a sparse tree over `trunk` when
    /// there is one, a beam tree otherwise.
    fn tree_round(nodes: &[(Option<usize>, TokenId)], trunk: Option<Vec<TokenId>>) -> DraftedRound {
        let kind = match trunk {
            Some(_) => RoundKind::SparseTree,
            None => RoundKind::BeamTree,
        };
        let mut round = DraftedRound::new();
        round.refill(kind, |plan, _| {
            for &(parent, token) in nodes {
                match parent {
                    None => plan.tree.push_root(token, 0.5, NodeOrigin::Branch),
                    Some(parent) => plan.tree.push_child(
                        NodeId::from_index(parent),
                        token,
                        0.5,
                        NodeOrigin::Branch,
                    ),
                };
            }
            plan.tokens = trunk.unwrap_or_default();
            plan.steps = 3;
            plan.recycled = 1;
        });
        round
    }

    #[test]
    fn hand_built_trees_verify_alike_from_the_model_and_from_a_completion() {
        use specasr_models::{AsrBackend, Completions, InFlightSimBackend};
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
        let mut batch = BackendBatch::new();
        let mut completions = Completions::new();
        for drafted in rounds {
            let tree = &drafted.plan.tree;
            // Each distinct path once, in first-seen order: the node paths
            // in insertion order, then the trunk's prefixes.
            let trunk = drafted.plan.trunk().unwrap_or_default();
            let mut expected: Vec<Vec<TokenId>> = vec![Vec::new()];
            let node_paths = tree.iter().map(|(id, _)| tree.path_tokens(id));
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
                .verify_round(&mut pool, &target, &drafted)
                .expect("unbounded");
            batch.clear();
            by_result.verify_request(&drafted, &mut batch);
            backend.submit(&batch, 0.0);
            backend.poll(&mut completions);
            let (_, logits) = completions.iter().next().expect("computed at submit");
            by_result
                .verify_round_from(&mut pool, target.profile().latency(), logits, &drafted)
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
        let (draft, target, audio) = setup(Split::DevOther);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut pool = KvPool::unbounded(16);
        let mut session = start(policy, &audio[0], &mut pool);
        let round = drafted(&mut session, &draft);
        let _ = session.verify_round_from(&mut pool, target.profile().latency(), &[], &round);
    }

    #[test]
    #[should_panic(expected = "finished session")]
    fn drafting_after_finish_panics() {
        let (draft, target, audio) = setup(Split::DevOther);
        let mut pool = KvPool::unbounded(16);
        let mut session = start(Policy::Autoregressive, &audio[0], &mut pool);
        finish(&mut session, &mut pool, &draft, &target);
        let _ = drafted(&mut session, &draft);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use std::sync::Arc;

    use crate::config::{AdaptiveConfig, SparseTreeConfig, SpeculativeConfig};
    use crate::drafter::TokenMapDrafter;
    use proptest::prelude::*;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{
        AsrBackend, Completions, CtcDrafter, InFlightSimBackend, ModelProfile, SimulatedAsrModel,
        TokenizerBinding,
    };
    use specasr_tokenizer::TokenMapIndex;

    /// A draft-free drafter that always proposes nothing.
    #[derive(Debug)]
    struct Silent;

    impl Drafter for Silent {
        fn kind(&self) -> DrafterKind {
            DrafterKind::TokenMap
        }

        fn propose(&self, _: DraftRequest<'_>, round: &mut DraftedRound) {
            round.refill_external(|_| {});
        }
    }

    struct Fixture {
        draft: SimulatedAsrModel,
        target: SimulatedAsrModel,
        audio: Vec<UtteranceTokens>,
        token_map: TokenMapDrafter,
        ctc: CtcDrafter,
    }

    fn fixture() -> Fixture {
        let corpus = Corpus::librispeech_like(61, 6);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(Split::TestOther));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let sequences: Vec<Vec<TokenId>> = audio
            .iter()
            .map(|utt| {
                let mut sequence = utt.reference_tokens().to_vec();
                sequence.push(utt.eos());
                sequence
            })
            .collect();
        let index = TokenMapIndex::build_default(sequences.iter().map(Vec::as_slice));
        Fixture {
            token_map: TokenMapDrafter::new(Arc::new(index)),
            ctc: CtcDrafter::paired(&target),
            draft,
            target,
            audio,
        }
    }

    /// The rounds the property mixes: TSP with recycling, ASP, the beam
    /// baseline and autoregressive decoding from the draft model, then
    /// token-map, CTC and zero-length draft-free rounds under ASP.
    const CASES: usize = 7;

    fn case_policy(case: usize) -> (Policy, DrafterKind) {
        let adaptive = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        match case {
            0 => (
                Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
                DrafterKind::ModelDraft,
            ),
            1 => (adaptive, DrafterKind::ModelDraft),
            2 => (
                Policy::Speculative(SpeculativeConfig::short_double_beam()),
                DrafterKind::ModelDraft,
            ),
            3 => (Policy::Autoregressive, DrafterKind::ModelDraft),
            4 | 6 => (adaptive, DrafterKind::TokenMap),
            _ => (adaptive, DrafterKind::CtcEncoder),
        }
    }

    /// Drafts `session`'s next round of `case` into `round`.
    fn draft(
        fixture: &Fixture,
        case: usize,
        session: &mut DecodeSession,
        round: &mut DraftedRound,
    ) {
        match case {
            0..=3 => session.draft_round(&fixture.draft, round),
            4 => session.draft_round_with(&fixture.token_map, round),
            5 => session.draft_round_with(&fixture.ctc, round),
            _ => session.draft_round_with(&Silent, round),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Drafting into a round that served other sessions, policies and
        /// drafters before gives the round drafting into a new buffer gives:
        /// the same plan and probes, and through either verify call the
        /// same committed tokens, statistics, clock and recycle buffer.
        #[test]
        fn a_reused_round_equals_a_fresh_one(
            steps in proptest::collection::vec((0usize..CASES, 0usize..6, 0usize..4), 1..12)
        ) {
            let fixture = fixture();
            let mut backend = InFlightSimBackend::new(&fixture.target).with_lanes(0);
            let mut batch = BackendBatch::new();
            let mut completions = Completions::new();
            // One kept round per verify call, each carrying whatever the
            // previous step left in it.
            let (mut kept_by_model, mut kept_by_result) = (DraftedRound::new(), DraftedRound::new());
            for (case, utterance, warm) in steps {
                let (policy, kind) = case_policy(case);
                let mut pool = KvPool::unbounded(16);
                // Four sessions in one state, `warm` rounds in, so the
                // recycle buffer holds what those rounds rejected.
                let mut sessions: Vec<DecodeSession> = (0..4)
                    .map(|_| {
                        let audio = fixture.audio[utterance].clone();
                        DecodeSession::new(policy, kind, audio, &[], &mut pool).expect("unbounded")
                    })
                    .collect();
                for _ in 0..warm {
                    for session in sessions.iter_mut().filter(|s| !s.is_finished()) {
                        let mut round = DraftedRound::new();
                        draft(&fixture, case, session, &mut round);
                        session.verify_round(&mut pool, &fixture.target, &round).expect("unbounded");
                    }
                }
                if sessions[0].is_finished() {
                    continue;
                }
                let (mut fresh_by_model, mut fresh_by_result) = (DraftedRound::new(), DraftedRound::new());
                let latency = fixture.target.profile().latency();
                for (session, round, by_model) in [
                    (0, &mut kept_by_model, true),
                    (1, &mut fresh_by_model, true),
                    (2, &mut kept_by_result, false),
                    (3, &mut fresh_by_result, false),
                ] {
                    let session = &mut sessions[session];
                    draft(&fixture, case, session, round);
                    if by_model {
                        session.verify_round(&mut pool, &fixture.target, round).expect("unbounded");
                    } else {
                        batch.clear();
                        session.verify_request(round, &mut batch);
                        backend.submit(&batch, 0.0);
                        backend.poll(&mut completions);
                        let (_, logits) = completions.iter().next().expect("scored at submit");
                        session.verify_round_from(&mut pool, latency, logits, round).expect("unbounded");
                    }
                }
                for (kept, fresh) in [(&kept_by_model, &fresh_by_model), (&kept_by_result, &fresh_by_result)] {
                    prop_assert_eq!(kept, fresh, "case {}", case);
                    prop_assert_eq!(kept.probe_extensions(), fresh.probe_extensions());
                }
                if case == 6 {
                    let mut empty = DraftedRound::new();
                    empty.refill_external(|_| {});
                    prop_assert_eq!(&fresh_by_model, &empty);
                }
                for other in &sessions[1..] {
                    prop_assert_eq!(sessions[0].tokens(), other.tokens(), "case {}", case);
                    prop_assert_eq!(sessions[0].stats(), other.stats());
                    prop_assert_eq!(sessions[0].clock(), other.clock());
                    prop_assert_eq!(&sessions[0].recycle, &other.recycle);
                }
            }
        }

        /// A session that decoded one view, was released, and restarts on
        /// another decodes exactly what a new session decodes, on a pool
        /// with the same history: the same tokens, statistics, clock,
        /// recycle buffer, KV positions, block ids and pool counters, right
        /// after the start and at the end.  The views are of another
        /// utterance or of the same one, shorter or longer, and the
        /// committed prefix is a random cut of the second view's
        /// transcript.  A recycled session, reassigned to another case's
        /// policy and drafter and refilled in its own audio context, does
        /// too.  A restart on a pool too small for it first fails and
        /// leaves nothing allocated.
        #[test]
        fn a_restarted_session_decodes_what_a_new_one_decodes(
            case in 0usize..CASES,
            recycled in (0usize..2, 0usize..CASES),
            first in (0usize..6, 0u32..1_200),
            second in (0usize..6, 0u32..1_200),
            cut in 0usize..1_001,
            tight in 1usize..64,
        ) {
            let fixture = fixture();
            let (policy, kind) = case_policy(case);
            let next = if recycled.0 == 1 { recycled.1 } else { case };
            let (next_policy, next_kind) = case_policy(next);
            let view = |(utterance, permille): (usize, u32)| {
                let audio = &fixture.audio[utterance];
                let seconds = audio.duration_seconds() * f64::from(permille) / 1_000.0;
                audio.prefix_view(seconds, 2, 0.3).unwrap_or_else(|| audio.clone())
            };
            let (first, second) = (view(first), view(second));
            let greedy = fixture.target.greedy_transcript(&second);
            let committed = &greedy[..greedy.len() * cut / 1_000];
            let decode = |session: &mut DecodeSession, pool: &mut KvPool, case: usize| {
                let mut round = DraftedRound::new();
                while !session.is_finished() {
                    draft(&fixture, case, session, &mut round);
                    session.verify_round(pool, &fixture.target, &round).expect("room");
                }
            };

            // Both pools run the first decode, so their histories match.
            let (mut kept_pool, mut fresh_pool) =
                (KvPool::bounded(4_096, 16), KvPool::bounded(4_096, 16));
            let mut kept = DecodeSession::new(policy, kind, first.clone(), &[], &mut kept_pool)
                .expect("room");
            let mut other = DecodeSession::new(policy, kind, first, &[], &mut fresh_pool)
                .expect("room");
            decode(&mut kept, &mut kept_pool, case);
            decode(&mut other, &mut fresh_pool, case);
            kept.release_kv(&mut kept_pool);
            other.release_kv(&mut fresh_pool);

            // A recycled session keeps its context and refills it in place.
            let audio = if recycled.0 == 1 {
                kept.reassign(next_policy, next_kind);
                Arc::get_mut(kept.audio_mut())
                    .expect("the session holds its context alone")
                    .clone_from(&second);
                Arc::clone(kept.audio())
            } else {
                Arc::new(second.clone())
            };
            let needed = KvPool::unbounded(16).target().blocks_for(
                second.prefill_tokens() + committed.len(),
            );
            if tight < needed {
                let mut full = KvPool::bounded(tight, 16);
                let failed = kept.restart(Arc::clone(&audio), committed, &[], &mut full);
                prop_assert!(
                    matches!(failed, Err(PoolError::OutOfBlocks { .. })),
                    "{} blocks for {}", tight, needed
                );
                prop_assert_eq!(full.used_blocks(), 0);
                prop_assert_eq!(kept.kv_blocks_held(), 0);
            }
            kept.restart(audio, committed, &[], &mut kept_pool).expect("room");
            let mut fresh =
                DecodeSession::new(next_policy, next_kind, second, committed, &mut fresh_pool)
                    .expect("room");
            prop_assert_eq!(kept.policy(), fresh.policy());
            prop_assert_eq!(kept.drafter(), fresh.drafter());
            for finished in [false, true] {
                if finished {
                    decode(&mut kept, &mut kept_pool, next);
                    decode(&mut fresh, &mut fresh_pool, next);
                }
                prop_assert_eq!(kept.tokens(), fresh.tokens(), "case {}", case);
                prop_assert_eq!(kept.stats(), fresh.stats());
                prop_assert_eq!(kept.clock(), fresh.clock());
                prop_assert_eq!(&kept.recycle, &fresh.recycle);
                for (table, other) in [
                    (&kept.draft_kv, &fresh.draft_kv),
                    (&kept.target_kv, &fresh.target_kv),
                ] {
                    prop_assert_eq!(table.positions(), other.positions());
                    prop_assert_eq!(table.block_ids(), other.block_ids());
                }
                prop_assert_eq!(kept_pool.counters(), fresh_pool.counters());
                prop_assert_eq!(kept_pool.used_blocks(), fresh_pool.used_blocks());
            }
            prop_assert_eq!(kept.cap, fresh.cap);
            prop_assert_eq!(kept.finished, fresh.finished);
        }
    }
}
