//! Heap allocations of the serving path: its rounds, its ticks and its
//! admissions.
//!
//! A round is what the scheduler runs for every session in every tick: a
//! drafter refills the `DraftedRound` the caller keeps for the session's
//! batch slot, `DecodeSession::verify_request` appends the round's request
//! to a batch, the backend's `submit` scores it, `poll` drains the
//! completion into a buffer the caller keeps, and
//! `DecodeSession::verify_round_from` commits from it.  The caller reuses one
//! round, one batch, one `Completions` and one backend, every buffer on the
//! way is emptied and refilled in place, and a distribution keeps its few
//! candidates inline, so a warm round allocates nothing from draft to
//! commit.  What still allocates now and then is doubling growth: a
//! session's transcript, KV block tables and recycle buffer, and the shared
//! buffers while the committed prefix lengthens.  A counting global
//! allocator checks that the median round allocates nothing and that no
//! round exceeds a small constant, whatever the draft's width: for the draft
//! model's adaptive and sparse-tree rounds, for the token-map and CTC
//! drafters, and for short and long external sequences over a corpus split.
//! A scheduler tick that admits and retires nothing is the same rounds over
//! its batch, so the median such tick allocates nothing too.  The allocator
//! counts per thread, so tests running in parallel do not see each other's
//! allocations.
//!
//! Drafting queries the draft model step after step.  The draft loops write
//! into the buffers the round kept from earlier rounds, so between two
//! consecutive draft-model queries they typically allocate nothing.
//!
//! Admission and retirement allocate what they keep: a KV prefill allocates
//! at most the block table it fills, and decoding a transcript allocates its
//! text once.  The token-map index the drafter walks is one table of packed
//! contexts, so it holds a fixed handful of allocations however many
//! contexts its corpus records.
//!
//! A stream keeps its decode session between chunks, and its view and
//! transcript buffers are sized from the full utterance at submit.  Each
//! chunk refills the view in place, admission restarts the session in its
//! kept buffers, and absorbing the re-decode refills the hypothesis in
//! place.  So once every stream has been admitted and parked once, the
//! median step that cycles a stream allocates nothing, and the run
//! allocates less than once per partial.
//!
//! An offline submit is built in a retired request's decode session: its
//! bound audio context, transcript, KV block tables and recycle buffer are
//! refilled in place, and retirement copies the transcript out.  So once
//! warm, a scheduler or a router serving offline requests allocates only
//! each outcome's tokens and text and the list it returns, in process and,
//! on the serving thread, over the RPC boundary, where a retired context is
//! released on the backend first.  A worker keeps at most `max_batch` such
//! spare sessions.  Over RPC a parked stream's view is released before each
//! chunk too, so the stream test holds there as well.
//!
//! A metrics scrape refreshes the exposition the router keeps in place, so
//! a scrape with nothing new to show allocates only the text it returns,
//! and so does the median scrape of an open-loop run.
//!
//! The allocator also tracks this thread's live bytes, live allocations and
//! bytes allocated.
//! A scheduler keeps a few latency samples per request it has served, and
//! no per-round history; a served request's outcome holds only its
//! transcript tokens, its text and its partial spans; an idle
//! fleet-controller evaluation allocates the same whatever the fleet has
//! served.  A verify-wave plan allocates the same whatever its wave cap, and
//! nothing when a kept plan is planned again over as many sessions or
//! fewer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use specasr::{
    AdaptiveConfig, DecodeSession, DraftedRound, DrafterKind, Policy, SparseTreeConfig,
    SpeculativeConfig, TokenMapDrafter,
};
use specasr_audio::{EncoderProfile, Split, Utterance};
use specasr_fleet::{FleetConfig, FleetController};
use specasr_models::{
    AsrBackend, AsrDecoderModel, BackendBatch, Completions, CtcDrafter, InFlightSimBackend,
    ModelProfile, SimulatedAsrModel, TokenLogits, UtteranceTokens,
};
use specasr_runtime::{BlockTable, KvPool};
use specasr_server::{
    plan_verify_waves, LoadGen, PartialSpan, RequestOutcome, RequestSpec, Router, RouterConfig,
    Scheduler, ServerConfig, SloClass, StreamConfig, VerifyPlan, WorkerProfile,
};
use specasr_suite::StandardSetup;
use specasr_tokenizer::{TokenId, TokenMapIndex};

/// Most heap allocations one warm round may make.  The shared buffers are
/// warm, so only a session's own buffers can still grow, each by doubling
/// and at most once in a round: its draft and target KV block tables, and
/// its recycle buffer.
const ROUND_BUDGET: u64 = 3;

/// Sessions allocate their KV blocks from a bounded pool, as when serving.
fn serving_pool() -> KvPool {
    KvPool::bounded(4096, 16)
}

/// This thread's allocation tally.
#[derive(Clone, Copy)]
struct Tally {
    /// Allocations and reallocations made.
    allocations: u64,
    /// Bytes requested by those calls (a reallocation requests its new
    /// size).
    allocated_bytes: u64,
    /// Bytes allocated minus bytes freed, by layout size.  Memory another
    /// thread allocated and this one freed counts negative.
    live_bytes: i64,
    /// Allocations made minus allocations freed (a reallocation keeps its
    /// one).
    live_allocations: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            allocations: 0,
            allocated_bytes: 0,
            live_bytes: 0,
            live_allocations: 0,
        })
    };
}

/// Counts one call that requests `requested` bytes (zero for a free) and
/// changes this thread's live bytes by `live_delta` and its live
/// allocations by `held_delta`.
fn count(requested: usize, live_delta: i64, held_delta: i64) {
    // A thread being torn down may have no tally left; nothing to count.
    let _ = TALLY.try_with(|tally| {
        let mut next = tally.get();
        if requested > 0 {
            next.allocations += 1;
            next.allocated_bytes += requested as u64;
        }
        next.live_bytes += live_delta;
        next.live_allocations += held_delta;
        tally.set(next);
    });
}

/// The system allocator, tallying allocations per thread.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const-
// initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64, 1);
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64, 1);
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64), -1);
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64, 0);
        // SAFETY: `ptr` came from this allocator with `layout`, and
        // `new_size` is non-zero and does not overflow, as the caller
        // guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// This thread's allocations so far.
fn allocations() -> u64 {
    TALLY.with(Cell::get).allocations
}

/// Bytes this thread has requested so far.
fn allocated_bytes() -> u64 {
    TALLY.with(Cell::get).allocated_bytes
}

/// Bytes this thread holds now (allocated minus freed).
fn live_bytes() -> i64 {
    TALLY.with(Cell::get).live_bytes
}

/// Allocations this thread holds now (made minus freed).
fn live_allocations() -> i64 {
    TALLY.with(Cell::get).live_allocations
}

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let result = f();
    (result, allocations() - before)
}

/// What one caller keeps from round to round: the target's backend, one
/// round, one batch and one completions buffer.
struct RoundLoop<'a> {
    target: &'a SimulatedAsrModel,
    backend: InFlightSimBackend<&'a SimulatedAsrModel>,
    round: DraftedRound,
    batch: BackendBatch,
    completions: Completions,
}

/// What one round allocated: its draft call, and its verify calls
/// (`verify_request`, `submit`, `poll` and `verify_round_from`) together.
#[derive(Debug, Clone, Copy)]
struct RoundCost {
    draft: u64,
    verify: u64,
}

impl<'a> RoundLoop<'a> {
    fn new(target: &'a SimulatedAsrModel) -> Self {
        RoundLoop {
            target,
            backend: InFlightSimBackend::new(target).with_lanes(0),
            round: DraftedRound::new(),
            batch: BackendBatch::new(),
            completions: Completions::new(),
        }
    }

    /// Drives `session` to completion, `draft` refilling the kept round
    /// each round, and returns what each round allocated.
    fn run(
        &mut self,
        session: &mut DecodeSession,
        pool: &mut KvPool,
        mut draft: impl FnMut(&mut DecodeSession, &mut DraftedRound),
    ) -> Vec<RoundCost> {
        let mut rounds = Vec::new();
        while !session.is_finished() {
            let ((), drafting) = counted(|| draft(session, &mut self.round));
            let ((), verifying) = counted(|| {
                self.batch.clear();
                session.verify_request(&self.round, &mut self.batch);
                self.backend.submit(&self.batch, 0.0);
                self.backend.poll(&mut self.completions);
                let (_, logits) = self.completions.iter().next().expect("scored at submit");
                let latency = self.target.profile().latency();
                session
                    .verify_round_from(pool, latency, logits, &self.round)
                    .expect("the pool has room");
            });
            rounds.push(RoundCost {
                draft: drafting,
                verify: verifying,
            });
        }
        rounds
    }
}

/// Refills `round` with a draft continuing `greedy` from where `session`
/// stands, `len` tokens long, with every seventh position wrong, so rounds
/// both accept and recycle.
fn external_draft(
    session: &DecodeSession,
    greedy: &[TokenId],
    eos: TokenId,
    len: usize,
    round: &mut DraftedRound,
) {
    let at = session.tokens().len();
    round.refill_external(|draft| {
        draft.extend((at..at + len).map(|i| {
            let right = greedy.get(i).copied().unwrap_or(eos);
            if i % 7 == 6 {
                TokenId::new(right.value() + 1)
            } else {
                right
            }
        }));
    });
}

/// The corpus' reference transcripts, EOS-terminated: what a deployment
/// mines its token map from.
fn reference_sequences(setup: &StandardSetup) -> Vec<Vec<TokenId>> {
    Split::ALL
        .iter()
        .flat_map(|&split| setup.binding.bind_all(setup.corpus.split(split)))
        .map(|audio| {
            let mut sequence = audio.reference_tokens().to_vec();
            sequence.push(audio.eos());
            sequence
        })
        .collect()
}

/// The token-map drafter over the corpus' reference transcripts, the way a
/// deployment builds it.
fn token_map_for(setup: &StandardSetup) -> TokenMapDrafter {
    let sequences = reference_sequences(setup);
    TokenMapDrafter::new(Arc::new(TokenMapIndex::build_default(
        sequences.iter().map(Vec::as_slice),
    )))
}

/// Which draft a round case verifies.
#[derive(Debug, Clone, Copy)]
enum Drafted {
    /// The session's policy, drafted by the draft model.
    Model(Policy),
    /// A draft-free sequence of this many tokens, under the adaptive
    /// policy.
    External(usize),
    /// The token-map drafter, under the adaptive policy.
    TokenMap,
    /// The CTC drafter, under the adaptive policy.
    Ctc,
}

/// The warm rounds of `case` over a corpus split, and the widest round's
/// verify width.
///
/// One loop serves every session.  A first pass over the split warms it:
/// the round, the batch, the completions and the backend's pending buffers
/// grow to the widest round and the longest prefix the split holds.  The
/// second pass replays the same sessions afresh and returns what each of
/// its rounds allocated, so all that can still allocate is a session's own
/// buffers growing.
fn warm_rounds(setup: &StandardSetup, case: Drafted) -> (Vec<RoundCost>, usize) {
    let split = setup.corpus.split(Split::TestOther);
    let adaptive = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let (policy, drafter) = match case {
        Drafted::Model(policy) => (policy, DrafterKind::ModelDraft),
        Drafted::External(_) | Drafted::TokenMap => (adaptive, DrafterKind::TokenMap),
        Drafted::Ctc => (adaptive, DrafterKind::CtcEncoder),
    };
    let token_map = token_map_for(setup);
    let ctc = CtcDrafter::paired(&setup.target);
    let mut rounds = RoundLoop::new(&setup.target);
    let mut costs = Vec::new();
    let mut widest = 0;
    for (pass, utterance) in split.iter().chain(split).enumerate() {
        let audio = setup.binding.bind(utterance);
        let greedy = setup.target.greedy_transcript(&audio);
        let eos = audio.eos();
        let mut pool = serving_pool();
        let mut session =
            DecodeSession::new(policy, drafter, audio, &[], &mut pool).expect("the pool has room");
        let session_rounds = rounds.run(&mut session, &mut pool, |session, round| {
            match case {
                Drafted::Model(_) => session.draft_round(&setup.draft, round),
                Drafted::External(len) => external_draft(session, &greedy, eos, len, round),
                Drafted::TokenMap => session.draft_round_with(&token_map, round),
                Drafted::Ctc => session.draft_round_with(&ctc, round),
            }
            widest = widest.max(round.verify_tokens());
        });
        if pass >= split.len() {
            costs.extend(session_rounds);
        }
    }
    (costs, widest)
}

/// The verify half of each round.
fn verify_costs(costs: &[RoundCost]) -> Vec<u64> {
    costs.iter().map(|cost| cost.verify).collect()
}

#[test]
fn external_rounds_allocate_the_same_for_2_and_24_draft_tokens() {
    let setup = StandardSetup::new(31, 6);
    for draft_len in [2, 24] {
        let (costs, _) = warm_rounds(&setup, Drafted::External(draft_len));
        let costs = verify_costs(&costs);
        let worst = costs.iter().max().copied().unwrap_or(0);
        assert!(
            worst <= ROUND_BUDGET,
            "{draft_len}-token drafts: a round allocated {worst} times ({costs:?})"
        );
        assert!(
            costs.len() > 6,
            "{draft_len}-token drafts ran {} rounds",
            costs.len()
        );
    }
}

#[test]
fn sparse_tree_rounds_allocate_the_same_whatever_the_tree() {
    let setup = StandardSetup::new(31, 6);
    let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
    let (costs, widest) = warm_rounds(&setup, Drafted::Model(policy));
    let costs = verify_costs(&costs);
    let worst = costs.iter().max().copied().unwrap_or(0);
    assert!(
        worst <= ROUND_BUDGET,
        "a tree round allocated {worst} times ({costs:?})"
    );
    assert!(
        widest >= 16,
        "the split drafts wide trees (widest {widest})"
    );
}

/// Asserts that the median of `costs`, over more than 20 samples, is 0,
/// and returns the worst.
fn assert_median_zero(label: &str, mut costs: Vec<u64>) -> u64 {
    assert!(costs.len() > 20, "{label}: {} samples", costs.len());
    costs.sort_unstable();
    let median = costs[costs.len() / 2];
    assert_eq!(
        median,
        0,
        "{label}: the median allocated {median} times (quartiles {} and {})",
        costs[costs.len() / 4],
        costs[costs.len() * 3 / 4]
    );
    costs[costs.len() - 1]
}

/// Once the shared buffers are warm, the median verify round allocates
/// nothing, for adaptive and sparse-tree rounds and for long draft-free
/// sequences; what allocates at all is a session's KV block tables or
/// recycle buffer doubling.
#[test]
fn a_warm_verify_round_allocates_nothing() {
    let setup = StandardSetup::new(31, 6);
    for case in [
        Drafted::Model(Policy::AdaptiveSingleSequence(AdaptiveConfig::paper())),
        Drafted::Model(Policy::TwoPassSparseTree(SparseTreeConfig::paper())),
        Drafted::External(24),
    ] {
        let (costs, _) = warm_rounds(&setup, case);
        let worst = assert_median_zero(&format!("{case:?}"), verify_costs(&costs));
        assert!(
            worst <= ROUND_BUDGET,
            "{case:?}: the worst round allocated {worst} times"
        );
    }
}

/// The draft call counts too: a drafter refills the kept round in place,
/// so once it is warm the median round allocates nothing from draft to
/// commit, for the draft model's adaptive and sparse-tree rounds and for
/// the token-map and CTC drafters.
#[test]
fn a_warm_round_allocates_nothing_from_draft_to_commit() {
    let setup = StandardSetup::new(31, 6);
    for case in [
        Drafted::Model(Policy::AdaptiveSingleSequence(AdaptiveConfig::paper())),
        Drafted::Model(Policy::TwoPassSparseTree(SparseTreeConfig::paper())),
        Drafted::TokenMap,
        Drafted::Ctc,
    ] {
        let (costs, _) = warm_rounds(&setup, case);
        let whole = costs.iter().map(|cost| cost.draft + cost.verify).collect();
        let worst = assert_median_zero(&format!("{case:?}"), whole);
        assert!(
            worst <= ROUND_BUDGET,
            "{case:?}: the worst round allocated {worst} times"
        );
    }
}

/// A draft model that stamps this thread's allocation count on entry to and
/// exit from every query, into a buffer reserved up front.
#[derive(Debug)]
struct StampingDraft {
    model: SimulatedAsrModel,
    stamps: Mutex<Vec<(u64, u64)>>,
}

impl AsrDecoderModel for StampingDraft {
    fn profile(&self) -> &ModelProfile {
        self.model.profile()
    }

    fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
        let entry = allocations();
        let logits = self.model.next_logits(audio, prefix);
        let exit = allocations();
        let mut stamps = self.stamps.lock().expect("no query panicked");
        assert!(
            stamps.len() < stamps.capacity(),
            "the stamp buffer must not grow while it is being read"
        );
        stamps.push((entry, exit));
        logits
    }
}

#[test]
fn draft_loops_allocate_nothing_between_most_draft_queries() {
    let setup = StandardSetup::new(31, 6);
    for policy in [
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        Policy::Speculative(SpeculativeConfig::short_double_beam()),
    ] {
        let draft = StampingDraft {
            model: setup.draft.clone(),
            stamps: Mutex::new(Vec::with_capacity(1 << 16)),
        };
        let mut scheduler = Scheduler::new(
            draft,
            setup.target.clone(),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            ServerConfig::default().with_max_batch(4),
        );
        for utterance in setup.corpus.split(Split::TestOther) {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        scheduler.run_until_idle();
        let stamps = scheduler
            .draft_model()
            .stamps
            .lock()
            .expect("no query panicked");
        let mut gaps: Vec<u64> = stamps
            .windows(2)
            .map(|pair| pair[1].0 - pair[0].1)
            .collect();
        assert!(gaps.len() > 100, "{}: {} gaps", policy.name(), gaps.len());
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        assert!(
            median <= 1,
            "{}: median {median} allocations between draft queries (quartiles {} and {})",
            policy.name(),
            gaps[gaps.len() / 4],
            gaps[gaps.len() * 3 / 4]
        );
    }
}

/// A scheduler tick that admits and retires nothing runs one round for each
/// session in flight over the tick's kept scratch, one kept round per batch
/// slot.  Once a first batch has warmed the scheduler, the median such tick
/// allocates nothing, and the worst stays within a round's budget per
/// session: adaptive and sparse-tree sessions of the draft model batched
/// with token-map and CTC sessions, four at a time.
#[test]
fn a_warm_tick_without_admission_or_retirement_allocates_nothing() {
    let setup = StandardSetup::new(31, 12);
    let mix = [
        (
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            DrafterKind::ModelDraft,
        ),
        (
            Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
            DrafterKind::ModelDraft,
        ),
        (
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            DrafterKind::TokenMap,
        ),
        (
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            DrafterKind::CtcEncoder,
        ),
    ];
    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default().with_max_batch(mix.len()),
    );
    scheduler.install_drafter(Arc::new(token_map_for(&setup)));
    scheduler.install_drafter(Arc::new(CtcDrafter::paired(&setup.target)));
    let mut steady = Vec::new();
    for (batch, group) in corpus_pool(&setup).chunks(mix.len()).enumerate() {
        for (&(policy, drafter), utterance) in mix.iter().zip(group) {
            scheduler
                .submit(
                    RequestSpec {
                        drafter,
                        ..policy.into()
                    },
                    utterance,
                )
                .expect("queue has room");
        }
        while !scheduler.is_idle() {
            let queued = scheduler.queued();
            let in_flight = scheduler.in_flight();
            let mut outcomes = Vec::new();
            let ((), allocated) = counted(|| scheduler.tick(&mut outcomes));
            // The first batch only warms the scheduler.
            if batch > 0 && queued == 0 && scheduler.in_flight() == in_flight && outcomes.is_empty()
            {
                assert!(
                    allocated <= ROUND_BUDGET * in_flight as u64,
                    "a tick over {in_flight} sessions allocated {allocated} times"
                );
                steady.push(allocated);
            }
        }
    }
    assert_median_zero("steady ticks", steady);
}

/// One step of a stream drive: the wall-clock span `advance_to` covered,
/// what it allocated, and whether the scheduler took in a released stream.
struct StreamStep {
    start_ms: f64,
    end_ms: f64,
    allocated: u64,
    released: bool,
}

/// A scheduler over the standard setup's models, its target in process or
/// behind the RPC boundary.
fn scheduler_for(
    setup: &StandardSetup,
    config: ServerConfig,
    rpc: bool,
) -> Scheduler<SimulatedAsrModel, SimulatedAsrModel> {
    let (draft, target, binding) = (
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
    );
    let encoder = EncoderProfile::whisper_medium_encoder();
    if rpc {
        Scheduler::with_rpc_target(draft, target, binding, encoder, config)
    } else {
        Scheduler::new(draft, target, binding, encoder, config)
    }
}

/// A stream's chunk cycle (release → admit → decode → absorb → park) keeps
/// the stream's decode session, its view and its transcript buffers, so
/// once every stream has been admitted and parked once, the median step
/// that releases, re-admits, decodes or parks a stream allocates nothing.
/// The rest of the run, retirements included, allocates less than once per
/// partial, and each partial answers at least one delivered chunk.  What
/// still allocates is doubling growth of a stream's recycle buffer, and one
/// transcript text per retirement.
#[test]
fn a_warm_stream_chunk_allocates_nothing() {
    warm_stream_chunks_allocate_nothing(false);
}

/// [`a_warm_stream_chunk_allocates_nothing`] with the target behind the
/// RPC boundary, counted on the serving thread: the scheduler releases a
/// parked stream's view on the backend before each chunk, so the view
/// refills in place there too, and the wire's buffers are kept.
#[test]
fn a_warm_stream_chunk_allocates_nothing_over_rpc() {
    warm_stream_chunks_allocate_nothing(true);
}

fn warm_stream_chunks_allocate_nothing(rpc: bool) {
    let setup = StandardSetup::new(31, 12);
    let mut scheduler = scheduler_for(&setup, ServerConfig::default().with_max_batch(16), rpc);
    let policies = [
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ];
    // The longest utterances stream the most chunks.
    let mut utterances = corpus_pool(&setup);
    utterances.sort_by(|a, b| b.duration_seconds().total_cmp(&a.duration_seconds()));
    utterances.truncate(12);
    const STEP_MS: f64 = 20.0;
    let mut steps = Vec::new();
    let mut outcomes: Vec<RequestOutcome> = Vec::new();
    // A first wave of streams warms the scheduler's own buffers (its tick
    // scratch, its batch slots, its statistics); the second is measured.
    for wave in 0..2 {
        for (index, utterance) in utterances.iter().enumerate() {
            let policy = policies[(index + wave) % policies.len()];
            scheduler
                .submit_streaming(policy, utterance, StreamConfig::default())
                .expect("queue has room");
        }
        while !scheduler.is_idle() {
            let start_ms = scheduler.wall_ms();
            let holding = scheduler.queued() + scheduler.in_flight();
            let (done, allocated) = counted(|| scheduler.advance_to(start_ms + STEP_MS));
            if wave == 1 {
                steps.push(StreamStep {
                    start_ms,
                    end_ms: scheduler.wall_ms(),
                    allocated,
                    released: scheduler.queued() + scheduler.in_flight() + done.len() > holding,
                });
                outcomes.extend(done);
            }
        }
    }
    assert_eq!(outcomes.len(), utterances.len());

    // Warm once every stream has parked: each emitted its first partial.
    let warm_ms = outcomes
        .iter()
        .map(|outcome| outcome.partials[0].emitted_ms)
        .fold(0.0, f64::max);
    let partials = || outcomes.iter().flat_map(|outcome| &outcome.partials);
    let within = |step: &StreamStep, ms: f64| step.start_ms < ms && ms <= step.end_ms;
    let window: Vec<&StreamStep> = steps.iter().filter(|s| s.start_ms >= warm_ms).collect();
    let cycling: Vec<u64> = window
        .iter()
        .filter(|step| {
            let parks = partials().any(|p| !p.is_final && within(step, p.emitted_ms));
            let retires = partials().any(|p| p.is_final && within(step, p.emitted_ms));
            (parks || step.released) && !retires
        })
        .map(|step| step.allocated)
        .collect();
    assert_median_zero("warm steps that cycle a stream", cycling);

    let allocated: u64 = window.iter().map(|step| step.allocated).sum();
    let emitted = partials().filter(|p| p.emitted_ms > warm_ms).count();
    assert!(emitted > 100, "{emitted} partials after warm-up");
    assert!(
        allocated <= emitted as u64,
        "{allocated} allocations for {emitted} partials after warm-up"
    );
}

/// The offline request mix of the refill tests: ASP and TSP requests of the
/// draft model, and ASP requests of the token-map and CTC drafters.
fn offline_mix() -> [(Policy, DrafterKind); 4] {
    let asp = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let tsp = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
    [
        (asp, DrafterKind::ModelDraft),
        (tsp, DrafterKind::ModelDraft),
        (asp, DrafterKind::TokenMap),
        (asp, DrafterKind::CtcEncoder),
    ]
}

/// What serving `requests` more offline requests may allocate once warm:
/// each outcome's token `Vec` and text `String`, and the list they are
/// returned in, grown push by push.
fn offline_budget(requests: usize) -> u64 {
    let ((), list) = counted(|| {
        let mut list: Vec<std::mem::MaybeUninit<RequestOutcome>> = Vec::new();
        for _ in 0..requests {
            list.push(std::mem::MaybeUninit::uninit());
        }
    });
    2 * requests as u64 + list
}

/// The warm rounds of a run: its last quarter, which serves every utterance
/// of the corpus pool twice over, after six passes over it have grown every
/// kept buffer to the longest utterance and every histogram to the range
/// the requests land in.
fn warm(costs: &[u64]) -> &[u64] {
    &costs[costs.len() * 3 / 4..]
}

/// Serves 96 rounds of `per_round` offline requests of the mix on
/// `server`, cycling through the corpus: each round submits its requests,
/// then runs until idle.  Returns what each round allocated.
fn offline_rounds<S>(
    setup: &StandardSetup,
    server: &mut S,
    per_round: usize,
    submit: impl Fn(&mut S, Policy, DrafterKind, &Utterance),
    run_until_idle: impl Fn(&mut S) -> Vec<RequestOutcome>,
) -> Vec<u64> {
    let pool = corpus_pool(setup);
    let mix = offline_mix();
    (0..96)
        .map(|round| {
            let (outcomes, allocated) = counted(|| {
                for index in 0..per_round {
                    let (policy, drafter) = mix[index % mix.len()];
                    let utterance = pool[(round * per_round + index) % pool.len()];
                    submit(server, policy, drafter, utterance);
                }
                run_until_idle(server)
            });
            assert_eq!(outcomes.len(), per_round);
            allocated
        })
        .collect()
}

/// Once warm, an offline request allocates only its outcome: each submit
/// binds the utterance into a retired request's decode session, whose
/// transcript, KV block tables, recycle buffer and audio context keep what
/// they grew, and retirement copies the transcript out instead of taking
/// the session.  So a round of as many requests as the scheduler keeps
/// spares allocates only their tokens, their texts and the returned list,
/// in process and, on the serving thread, over the RPC boundary: there the
/// scheduler releases each retired context on the backend, so its buffers
/// are the session's alone again.
#[test]
fn a_warm_offline_request_allocates_only_its_outcome() {
    let setup = StandardSetup::new(31, 12);
    for rpc in [false, true] {
        let config = ServerConfig::default().with_max_batch(4);
        let mut scheduler = scheduler_for(&setup, config, rpc);
        scheduler.install_drafter(Arc::new(token_map_for(&setup)));
        scheduler.install_drafter(Arc::new(CtcDrafter::paired(&setup.target)));
        let costs = offline_rounds(
            &setup,
            &mut scheduler,
            config.max_batch,
            |scheduler, policy, drafter, utterance| {
                scheduler
                    .submit(
                        RequestSpec {
                            drafter,
                            ..policy.into()
                        },
                        utterance,
                    )
                    .expect("queue has room");
            },
            Scheduler::run_until_idle,
        );
        let budget = offline_budget(config.max_batch);
        assert!(
            warm(&costs).iter().all(|&cost| cost <= budget),
            "rpc {rpc}: rounds of {} requests allocated {costs:?}, budget {budget}",
            config.max_batch
        );
    }
}

/// [`a_warm_offline_request_allocates_only_its_outcome`] through a
/// two-worker router: a submit takes a spare session from any worker, so a
/// round of as many requests as one worker keeps spares allocates only
/// their outcomes, however placement splits the round.
#[test]
fn a_warm_routed_offline_request_allocates_only_its_outcome() {
    let setup = StandardSetup::new(31, 12);
    for rpc in [false, true] {
        let worker = ServerConfig::default().with_max_batch(4);
        let mut router = Router::new(
            RouterConfig::default()
                .with_workers(2)
                .with_rpc_backend(rpc)
                .with_worker_config(worker),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            |_| (setup.draft.clone(), setup.target.clone()),
        );
        router.install_drafter(Arc::new(token_map_for(&setup)));
        router.install_drafter(Arc::new(CtcDrafter::paired(&setup.target)));
        let costs = offline_rounds(
            &setup,
            &mut router,
            worker.max_batch,
            |router, policy, drafter, utterance| {
                router
                    .submit(
                        RequestSpec {
                            drafter,
                            ..policy.into()
                        },
                        utterance,
                    )
                    .expect("queues have room");
            },
            Router::run_until_idle,
        );
        let budget = offline_budget(worker.max_batch);
        assert!(
            warm(&costs).iter().all(|&cost| cost <= budget),
            "rpc {rpc}: rounds of {} requests allocated {costs:?}, budget {budget}",
            worker.max_batch
        );
    }
}

/// A worker keeps at most `max_batch` spare sessions, however many
/// requests it retires between submits: a burst through a three-worker
/// router, a drain that migrates sessions, and a scheduler on its own.
#[test]
fn a_worker_keeps_at_most_max_batch_spare_sessions() {
    let setup = StandardSetup::new(31, 6);
    let pool = corpus_pool(&setup);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let worker = ServerConfig::default().with_max_batch(3);
    let mut router = Router::new(
        RouterConfig::default()
            .with_workers(3)
            .with_worker_config(worker),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| (setup.draft.clone(), setup.target.clone()),
    );
    for utterance in pool.iter().cycle().take(48) {
        router.submit(policy, utterance).expect("queues have room");
    }
    let mut served = router.advance_to(1_000.0).len();
    let draining = router.workers()[2].id();
    assert!(
        router.drain_worker(draining) > 0,
        "the drain migrates sessions"
    );
    served += router.run_until_idle().len();
    assert_eq!(served, 48);
    let spares: Vec<usize> = router
        .workers()
        .iter()
        .map(|w| w.spare_sessions())
        .collect();
    assert!(
        spares.iter().all(|&held| held <= worker.max_batch) && spares.iter().sum::<usize>() > 0,
        "spare sessions per worker: {spares:?}"
    );

    let mut scheduler = scheduler_for(&setup, worker, false);
    for utterance in pool.iter().take(24) {
        scheduler.submit(policy, utterance).expect("queue has room");
    }
    assert_eq!(scheduler.run_until_idle().len(), 24);
    assert_eq!(scheduler.spare_sessions(), worker.max_batch);
}

/// A KV prefill plans its blocks without a buffer: on a warm pool it
/// allocates at most the block table it fills, shared prefix or not.
#[test]
fn a_prefill_allocates_at_most_its_table() {
    let mut pool = KvPool::bounded(256, 16);
    let target = pool.target_mut();
    let tokens = 40 * 16 + 3;
    // Warm the pool's block states, free list and prefix index.
    let mut warm = BlockTable::new();
    target.prefill(&mut warm, tokens, Some(1)).expect("room");
    target.release(&mut warm);
    for key in [Some(2), Some(2), None] {
        let mut table = BlockTable::new();
        let (result, allocated) = counted(|| target.prefill(&mut table, tokens, key));
        result.expect("room");
        assert!(
            allocated <= 1,
            "a {key:?} prefill allocated {allocated} times"
        );
        assert_eq!(table.block_count(), target.blocks_for(tokens));
    }
    assert!(
        target.counters().shared_hits > 0,
        "the second key-2 prefill shared"
    );
}

/// Decoding a transcript sizes its text before filling it: one allocation,
/// however long the transcript.
/// The token-map index is one table of packed contexts and the answers
/// decided for them at build time, so building it over the benchmark's
/// corpus (1,000 utterances, about 25,700 contexts) leaves a fixed handful
/// of live allocations, not a key and a continuation map per context.
#[test]
fn a_token_map_index_holds_a_fixed_handful_of_allocations() {
    let setup = StandardSetup::new(2025_0610, 250);
    let sequences = reference_sequences(&setup);
    let before = live_allocations();
    let index = TokenMapIndex::build_default(sequences.iter().map(Vec::as_slice));
    let held = live_allocations() - before;
    assert!(index.len() > 20_000, "{} contexts", index.len());
    assert!(
        held <= 4,
        "an index of {} contexts holds {held} allocations",
        index.len()
    );
}

#[test]
fn decoding_a_transcript_allocates_once() {
    let setup = StandardSetup::new(31, 6);
    let tokenizer = setup.binding.tokenizer();
    let longest = setup
        .binding
        .bind_all(setup.corpus.split(Split::TestOther))
        .into_iter()
        .map(|audio| setup.target.greedy_transcript(&audio))
        .max_by_key(Vec::len)
        .expect("a non-empty split");
    assert!(longest.len() > 30, "{} tokens", longest.len());
    let (text, allocated) = counted(|| tokenizer.decode(&longest).expect("known ids"));
    assert_eq!(allocated, 1, "decoding {} bytes", text.len());
    assert_eq!(text.capacity(), text.len(), "sized exactly");
}

/// Every split of the corpus, in order: the request mix the serving tests
/// cycle through.
fn corpus_pool(setup: &StandardSetup) -> Vec<&Utterance> {
    Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect()
}

/// Most bytes a scheduler may keep per extra request served.  Nothing is
/// kept per request: a latency histogram grows only when a latency lands
/// outside the range it has already seen.
const RETAINED_BYTES_PER_REQUEST: f64 = 8.0;

#[test]
fn a_scheduler_retains_no_per_round_history() {
    let setup = StandardSetup::new(31, 6);
    let pool = corpus_pool(&setup);
    for policy in [
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ] {
        let mut scheduler = Scheduler::new(
            setup.draft.clone(),
            setup.target.clone(),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            ServerConfig::default(),
        );
        let mut served = 0;
        let mut held = Vec::new();
        for milestone in [256, 1024] {
            while served < milestone {
                for index in served..served + 16 {
                    scheduler
                        .submit(policy, pool[index % pool.len()])
                        .expect("queue has room");
                }
                let outcomes = scheduler.run_until_idle();
                assert_eq!(outcomes.len(), 16);
                served += 16;
            }
            held.push(live_bytes());
        }
        let rounds = scheduler
            .stats()
            .speculation_groups()
            .values()
            .map(|group| group.rounds())
            .sum::<usize>();
        assert!(
            rounds > 2 * 1024,
            "{}: {rounds} rounds over 1024 requests",
            policy.name()
        );
        let per_request = (held[1] - held[0]) as f64 / (1024 - 256) as f64;
        assert!(
            per_request <= RETAINED_BYTES_PER_REQUEST,
            "{}: the scheduler kept {per_request:.1} bytes per extra request served",
            policy.name()
        );
    }
}

/// A served request's outcome holds its transcript tokens, its text and, for
/// a stream, its partial spans, and nothing else: dropping the outcomes of
/// a scheduler that served streams and offline requests frees exactly
/// those buffers and the list that held them.
#[test]
fn a_held_outcome_holds_only_its_tokens_text_and_partials() {
    let setup = StandardSetup::new(31, 6);
    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default(),
    );
    let asp = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let tsp = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
    for (index, utterance) in corpus_pool(&setup).into_iter().take(24).enumerate() {
        if index % 2 == 0 {
            scheduler.submit_streaming(asp, utterance, StreamConfig::default())
        } else {
            scheduler.submit(tsp, utterance)
        }
        .expect("queue has room");
    }
    let outcomes = scheduler.run_until_idle();
    assert_eq!(outcomes.len(), 24);
    assert_eq!(outcomes.iter().filter(|o| o.is_streaming()).count(), 12);
    let held = outcomes.capacity() * size_of::<RequestOutcome>()
        + outcomes
            .iter()
            .map(|outcome| {
                outcome.outcome.tokens.capacity() * size_of::<TokenId>()
                    + outcome.text.capacity()
                    + outcome.partials.capacity() * size_of::<PartialSpan>()
            })
            .sum::<usize>();
    let before = live_bytes();
    drop(outcomes);
    let freed = before - live_bytes();
    assert_eq!(freed, held as i64, "bytes freed by dropping the outcomes");
}

#[test]
fn idle_controller_evaluations_allocate_the_same_at_any_history_length() {
    let setup = StandardSetup::new(31, 6);
    let pool = corpus_pool(&setup);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let make = |_| (setup.draft.clone(), setup.target.clone());
    let router = Router::new(
        RouterConfig::default().with_workers(1),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        make,
    );
    let config = FleetConfig::default()
        .with_worker_bounds(1, 1)
        .with_e2e_p99_target_ms(Some(1_000.0));
    let every_ms = config.evaluate_every_ms;
    let mut fleet = FleetController::new(router, config, make);
    let mut submitted = 0;
    let mut completed = 0;
    let mut per_evaluation = Vec::new();
    for milestone in [64, 512] {
        while completed < milestone {
            for _ in 0..8 {
                let budget = if submitted % 2 == 0 { 500.0 } else { 2_000.0 };
                fleet
                    .submit(
                        RequestSpec {
                            ttft_budget_ms: Some(budget),
                            ..policy.into()
                        },
                        pool[submitted % pool.len()],
                    )
                    .expect("queue has room");
                submitted += 1;
            }
            completed += fleet.run_until_idle().len();
        }
        let stats = fleet.router().fleet_stats();
        for class in [SloClass::Interactive, SloClass::Standard] {
            assert!(stats.slo_class(class).completed() > 0, "{class} served");
        }
        let evaluations = fleet.counters().evaluations;
        let start_ms = fleet.router().now_ms();
        let before = allocated_bytes();
        let outcomes = fleet.advance_to(start_ms + 20.0 * every_ms);
        let bytes = allocated_bytes() - before;
        assert!(outcomes.is_empty());
        assert_eq!(fleet.counters().evaluations - evaluations, 20);
        per_evaluation.push(bytes / 20);
    }
    assert_eq!(
        per_evaluation[0], per_evaluation[1],
        "bytes per idle evaluation after 64 and after 512 requests"
    );
    assert!(
        per_evaluation[0] <= 16 * 1024,
        "an idle evaluation allocated {} bytes",
        per_evaluation[0]
    );
}

/// The wave planner keeps its dynamic-programming tables flat: one plan
/// over a batch allocates the same whatever the wave cap, so a deeper
/// in-flight window costs the tick no extra allocations.
#[test]
fn a_wave_plan_allocates_the_same_for_every_wave_cap() {
    let target = ModelProfile::whisper_medium_en().latency().clone();
    // Staggered drafts behind a long device backlog: the planner weighs
    // every split, and every cap keeps the one grouped batch.
    let done: Vec<f64> = (0..12).map(|i| 3.0 * i as f64).collect();
    let widths: Vec<usize> = (0..12).map(|i| 4 + i % 5).collect();
    let costs: Vec<u64> = (1..=8)
        .map(|max_waves| {
            let mut plan = VerifyPlan::new();
            let ((), allocated) = counted(|| {
                plan_verify_waves(&mut plan, &done, &widths, &target, 0.5, max_waves, 10_000.0)
            });
            assert_eq!(
                plan.wave_count(),
                1,
                "the backlog leaves nothing to overlap"
            );
            allocated
        })
        .collect();
    assert!(
        costs.iter().all(|&cost| cost == costs[0]),
        "allocations per plan, wave caps 1 to 8: {costs:?}"
    );
}

/// A plan the caller keeps holds the planner's tables: planned again over
/// as many sessions or fewer, at the same wave cap or a lower one, it
/// allocates nothing.
#[test]
fn re_planning_a_kept_plan_allocates_nothing() {
    let target = ModelProfile::whisper_medium_en().latency().clone();
    // Wide rounds whose drafts land far enough apart that the planner
    // splits them into several waves when the device is free.
    let done: Vec<f64> = (0..12).map(|i| 40.0 * i as f64).collect();
    let widths: Vec<usize> = (0..12).map(|i| 120 + i % 5).collect();
    let mut plan = VerifyPlan::new();
    plan_verify_waves(&mut plan, &done, &widths, &target, 0.5, 8, 0.0);
    assert!(plan.wave_count() > 1, "the staggered drafts earn waves");
    let mut waves_seen = Vec::new();
    for sessions in [12, 7, 1, 0] {
        for max_waves in 1..=8 {
            for backlog in [0.0, 10_000.0] {
                let ((), allocated) = counted(|| {
                    plan_verify_waves(
                        &mut plan,
                        &done[..sessions],
                        &widths[..sessions],
                        &target,
                        0.5,
                        max_waves,
                        backlog,
                    )
                });
                assert_eq!(
                    allocated, 0,
                    "{sessions} sessions, cap {max_waves}, backlog {backlog}"
                );
                waves_seen.push(plan.wave_count());
            }
        }
    }
    assert!(waves_seen.iter().any(|&waves| waves > 2), "{waves_seen:?}");
}

/// Scrapes `router` as a metrics endpoint does, returning what the scrape
/// allocated.
fn scrape_allocations<D: AsrDecoderModel, T: AsrDecoderModel>(router: &Router<D, T>) -> u64 {
    let (len, allocated) = counted(|| router.fleet_metrics().render().len());
    assert!(len > 0);
    allocated
}

/// The policies the scrape tests alternate: two `(policy, drafter)` groups.
fn scrape_policies() -> [Policy; 2] {
    [
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ]
}

/// A scrape repeated with no traffic in between allocates only its text,
/// whatever the fleet has served and however its membership changed: the
/// kept aggregate and registry already hold every bucket, group and sample.
#[test]
fn a_repeated_scrape_allocates_only_its_text() {
    let setup = StandardSetup::new(31, 6);
    let pool = corpus_pool(&setup);
    let policies = scrape_policies();
    let make = |_| (setup.draft.clone(), setup.target.clone());
    let mut router = Router::new(
        RouterConfig::default().with_workers(2),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        make,
    );
    let mut repeated = Vec::new();
    let mut served = 0;
    for milestone in [64, 512] {
        while served < milestone {
            for index in served..served + 16 {
                router
                    .submit(policies[index % 2], pool[index % pool.len()])
                    .expect("queues have room");
            }
            assert_eq!(router.run_until_idle().len(), 16);
            served += 16;
        }
        scrape_allocations(&router);
        repeated.push((
            format!("after {milestone} requests"),
            scrape_allocations(&router),
        ));
    }

    let newest = router.workers()[1].id();
    router.drain_worker(newest);
    router.run_until_idle();
    assert_eq!(router.reap_drained(), [newest]);
    scrape_allocations(&router);
    repeated.push(("after a drain and reap".into(), scrape_allocations(&router)));

    router.add_worker(WorkerProfile::default(), make);
    scrape_allocations(&router);
    repeated.push(("after a worker joined".into(), scrape_allocations(&router)));

    for (point, allocated) in repeated {
        assert!(
            allocated <= 1,
            "a repeated scrape {point} allocated {allocated} times"
        );
    }
}

/// Scraped once per modeled second through an open-loop run, the median
/// scrape allocates only its text: new buckets, and a text longer than the
/// last one had room for, allocate now and then.
#[test]
fn the_median_open_loop_scrape_allocates_only_its_text() {
    let setup = StandardSetup::new(31, 6);
    let pool = corpus_pool(&setup);
    let policies = scrape_policies();
    let mut router = Router::new(
        RouterConfig::default().with_workers(2),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| (setup.draft.clone(), setup.target.clone()),
    );
    let mut load = LoadGen::new(7, 20.0);
    let mut per_scrape = Vec::new();
    let mut next_scrape_ms = 1_000.0;
    for index in 0..2_000 {
        let due_ms = load.next_arrival_ms();
        router.advance_to(due_ms);
        if due_ms >= next_scrape_ms {
            per_scrape.push(scrape_allocations(&router));
            next_scrape_ms = (due_ms / 1_000.0).floor() * 1_000.0 + 1_000.0;
        }
        router
            .submit(policies[index % 2], pool[index % pool.len()])
            .expect("queues have room");
    }
    router.run_until_idle();
    assert_eq!(router.fleet_stats().completed(), 2_000);
    per_scrape.sort_unstable();
    let median = per_scrape[per_scrape.len() / 2];
    assert!(
        per_scrape.len() >= 90 && median <= 1,
        "median {median} allocations over {} scrapes: {per_scrape:?}",
        per_scrape.len()
    );
}
