//! Heap allocations of the serving path's draft and verify rounds.
//!
//! A verify round is what the scheduler runs for every session in every
//! round: `DecodeSession::verify_request` appends the round's request to a
//! batch, the backend's `submit` scores it, `poll` drains the completion into
//! a buffer the caller keeps, and `DecodeSession::verify_round_from` commits
//! from it.  The caller reuses one batch, one `Completions` and one backend,
//! every buffer on the way is refilled in place, and a distribution keeps
//! its few candidates inline, so a warm verify round allocates nothing.
//! What still allocates now and then is doubling growth: a session's round
//! log and KV block tables, and the shared buffers while the committed
//! prefix lengthens.  A counting global allocator checks that the median
//! round allocates nothing and that no round exceeds a small constant,
//! whatever the draft's width, for adaptive and sparse-tree rounds and for
//! short and long draft-free sequences over a corpus split.  It counts per
//! thread, so tests running in parallel do not see each other's
//! allocations.
//!
//! Drafting queries the draft model step after step.  A scheduler's draft
//! loop sizes its buffers once per round, so between two consecutive
//! draft-model queries it typically allocates nothing.
//!
//! The allocator also tracks this thread's live bytes and bytes allocated.
//! A scheduler keeps a few latency samples per request it has served, and
//! no per-round history; an idle fleet-controller evaluation allocates the
//! same whatever the fleet has served.  A verify-wave plan allocates the same
//! whatever its wave cap, and nothing when a kept plan is planned again over
//! as many sessions or fewer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use specasr::{
    AdaptiveConfig, DecodeSession, DraftedRound, DrafterKind, Policy, SparseTreeConfig,
    SpeculativeConfig,
};
use specasr_audio::{EncoderProfile, Split, Utterance};
use specasr_fleet::{FleetConfig, FleetController};
use specasr_models::{
    AsrBackend, AsrDecoderModel, BackendBatch, Completions, InFlightSimBackend, ModelProfile,
    SimulatedAsrModel, TokenLogits, UtteranceTokens,
};
use specasr_runtime::KvPool;
use specasr_server::{
    plan_verify_waves, Router, RouterConfig, Scheduler, ServerConfig, SloClass, VerifyPlan,
};
use specasr_suite::StandardSetup;
use specasr_tokenizer::TokenId;

/// Most heap allocations one warm verify round may make.  The shared
/// buffers are warm, so only a session's own buffers can still grow, each
/// by doubling and at most once in a round: its round log, its draft and
/// target KV block tables, and its recycle buffer.
const ROUND_BUDGET: u64 = 4;

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
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            allocations: 0,
            allocated_bytes: 0,
            live_bytes: 0,
        })
    };
}

/// Counts one call that requests `requested` bytes (zero for a free) and
/// changes this thread's live bytes by `live_delta`.
fn count(requested: usize, live_delta: i64) {
    // A thread being torn down may have no tally left; nothing to count.
    let _ = TALLY.try_with(|tally| {
        let mut next = tally.get();
        if requested > 0 {
            next.allocations += 1;
            next.allocated_bytes += requested as u64;
        }
        next.live_bytes += live_delta;
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
        count(layout.size(), layout.size() as i64);
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
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

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let result = f();
    (result, allocations() - before)
}

/// What one caller keeps from round to round: the target's backend, one
/// batch and one completions buffer.
struct VerifyLoop<'a> {
    target: &'a SimulatedAsrModel,
    backend: InFlightSimBackend<&'a SimulatedAsrModel>,
    batch: BackendBatch,
    completions: Completions,
}

impl<'a> VerifyLoop<'a> {
    fn new(target: &'a SimulatedAsrModel) -> Self {
        VerifyLoop {
            target,
            backend: InFlightSimBackend::new(target).with_lanes(0),
            batch: BackendBatch::new(),
            completions: Completions::new(),
        }
    }

    /// Drives `session` to completion, drafting each round with `draft`,
    /// and returns what `verify_request`, `submit`, `poll` and
    /// `verify_round_from` allocated together in each round.
    fn run(
        &mut self,
        session: &mut DecodeSession,
        pool: &mut KvPool,
        mut draft: impl FnMut(&mut DecodeSession) -> DraftedRound,
    ) -> Vec<u64> {
        let mut rounds = Vec::new();
        while !session.is_finished() {
            let drafted = draft(session);
            let ((), allocated) = counted(|| {
                self.batch.clear();
                session.verify_request(&drafted, &mut self.batch);
                self.backend.submit(&self.batch, 0.0);
                self.backend.poll(&mut self.completions);
                let (_, logits) = self.completions.iter().next().expect("scored at submit");
                let latency = self.target.profile().latency();
                session
                    .verify_round_from(pool, latency, logits, drafted)
                    .expect("the pool has room");
            });
            rounds.push(allocated);
        }
        rounds
    }
}

/// A draft continuing `greedy` from where `session` stands, `len` tokens
/// long, with every seventh position wrong, so rounds both accept and
/// recycle.
fn external_draft(
    session: &DecodeSession,
    greedy: &[TokenId],
    eos: TokenId,
    len: usize,
) -> DraftedRound {
    let at = session.tokens().len();
    DraftedRound::external(
        (at..at + len)
            .map(|i| {
                let right = greedy.get(i).copied().unwrap_or(eos);
                if i % 7 == 6 {
                    TokenId::new(right.value() + 1)
                } else {
                    right
                }
            })
            .collect(),
    )
}

/// Which draft a verify-round case verifies.
#[derive(Debug, Clone, Copy)]
enum Drafted {
    /// The session's policy, drafted by the draft model.
    Model(Policy),
    /// A draft-free sequence of this many tokens, under the adaptive
    /// policy.
    External(usize),
}

/// The warm verify rounds of `case` over a corpus split, and the widest
/// round's verify width.
///
/// One loop serves every session.  A first pass over the split warms it:
/// the batch, the completions and the backend's pending buffers grow to the
/// widest round and the longest prefix the split holds.  The second pass
/// replays the same sessions afresh and returns what each of its rounds
/// allocated, so all that can still allocate is a session's own buffers
/// growing.
fn warm_rounds(setup: &StandardSetup, case: Drafted) -> (Vec<u64>, usize) {
    let split = setup.corpus.split(Split::TestOther);
    let (policy, drafter) = match case {
        Drafted::Model(policy) => (policy, DrafterKind::ModelDraft),
        Drafted::External(_) => (
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            DrafterKind::TokenMap,
        ),
    };
    let mut verify = VerifyLoop::new(&setup.target);
    let mut costs = Vec::new();
    let mut widest = 0;
    for (pass, utterance) in split.iter().chain(split).enumerate() {
        let audio = setup.binding.bind(utterance);
        let greedy = setup.target.greedy_transcript(&audio);
        let eos = audio.eos();
        let mut pool = serving_pool();
        let mut session =
            DecodeSession::new(policy, drafter, audio, &[], &mut pool).expect("the pool has room");
        let rounds = verify.run(&mut session, &mut pool, |session| {
            let drafted = match case {
                Drafted::Model(_) => session.draft_round(&setup.draft),
                Drafted::External(len) => external_draft(session, &greedy, eos, len),
            };
            widest = widest.max(drafted.verify_tokens());
            drafted
        });
        if pass >= split.len() {
            costs.extend(rounds);
        }
    }
    (costs, widest)
}

#[test]
fn external_rounds_allocate_the_same_for_2_and_24_draft_tokens() {
    let setup = StandardSetup::new(31, 6);
    for draft_len in [2, 24] {
        let (costs, _) = warm_rounds(&setup, Drafted::External(draft_len));
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

/// Once the shared buffers are warm, the median verify round allocates
/// nothing, for adaptive and sparse-tree rounds and for long draft-free
/// sequences; what allocates at all is a session's round log, KV block
/// tables or recycle buffer doubling.
#[test]
fn a_warm_verify_round_allocates_nothing() {
    let setup = StandardSetup::new(31, 6);
    for case in [
        Drafted::Model(Policy::AdaptiveSingleSequence(AdaptiveConfig::paper())),
        Drafted::Model(Policy::TwoPassSparseTree(SparseTreeConfig::paper())),
        Drafted::External(24),
    ] {
        let (mut costs, _) = warm_rounds(&setup, case);
        assert!(costs.len() > 20, "{case:?}: {} rounds", costs.len());
        costs.sort_unstable();
        let median = costs[costs.len() / 2];
        assert_eq!(
            median,
            0,
            "{case:?}: the median round allocated {median} times (quartiles {} and {})",
            costs[costs.len() / 4],
            costs[costs.len() * 3 / 4]
        );
        let worst = costs[costs.len() - 1];
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

/// Every split of the corpus, in order: the request mix the serving tests
/// cycle through.
fn corpus_pool(setup: &StandardSetup) -> Vec<&Utterance> {
    Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect()
}

/// Most bytes a scheduler may keep per extra request served: five `f64`
/// latency samples and the slack of the vectors holding them.
const RETAINED_BYTES_PER_REQUEST: f64 = 64.0;

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
                    .submit_with_budget(policy, pool[submitted % pool.len()], Some(budget))
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
