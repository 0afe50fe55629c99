//! Heap allocations of the serving path's draft and verify rounds.
//!
//! `DecodeSession::verify_request` plus `DecodeSession::verify_round_from` is
//! what the scheduler runs for every session in every round.  Their
//! allocations must not grow with the draft: the probe set is laid out once,
//! when the round is drafted, the request copies it as two flat buffers, and
//! the commit reads the completion's distributions in place.  A counting
//! global allocator checks that the two calls stay under one small constant
//! per round, for short and long draft-free sequences and for every
//! sparse-tree round over a corpus split.  It counts per thread, so tests
//! running in parallel do not see each other's allocations.
//!
//! Drafting queries the draft model step after step.  A scheduler's draft
//! loop sizes its buffers once per round, so between two consecutive
//! draft-model queries it typically allocates nothing.
//!
//! The allocator also tracks this thread's live bytes and bytes allocated.
//! A scheduler keeps a few latency samples per request it has served, and
//! no per-round history; an idle fleet-controller evaluation allocates the
//! same whatever the fleet has served.  A verify-wave plan allocates the same
//! whatever its wave cap.

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
    AsrBackend, AsrDecoderModel, BackendBatch, InFlightSimBackend, ModelProfile, SimulatedAsrModel,
    TokenLogits, UtteranceTokens,
};
use specasr_runtime::KvPool;
use specasr_server::{plan_verify_waves, Router, RouterConfig, Scheduler, ServerConfig, SloClass};
use specasr_suite::StandardSetup;
use specasr_tokenizer::TokenId;

/// Most heap allocations `verify_request` and `verify_round_from` may make
/// together in one round: the committed-prefix copy and the two probe
/// buffers of the request, the retained suffix of a rejected draft, and the
/// occasional growth of a transcript, round log or KV block table (all of
/// which first grow in a session's first round).
const ROUND_BUDGET: u64 = 6;

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

/// Drives `session` to completion through a backend, drafting each round
/// with `draft`, and returns what `verify_request` plus `verify_round_from`
/// allocated in each round.
fn verify_allocations(
    session: &mut DecodeSession,
    pool: &mut KvPool,
    target: &SimulatedAsrModel,
    mut draft: impl FnMut(&mut DecodeSession) -> DraftedRound,
) -> Vec<u64> {
    let mut backend = InFlightSimBackend::new(target).with_lanes(0);
    let mut rounds = Vec::new();
    while !session.is_finished() {
        let drafted = draft(session);
        let (request, requested) = counted(|| session.verify_request(&drafted));
        let tickets = backend.submit(BackendBatch::of(request), 0.0);
        let result = backend.complete(tickets[0]).expect("computed at submit");
        let (verified, committed) =
            counted(|| session.verify_round_from(pool, target.profile(), &result, drafted));
        verified.expect("the pool has room");
        rounds.push(requested + committed);
    }
    rounds
}

#[test]
fn external_rounds_allocate_the_same_for_2_and_24_draft_tokens() {
    let setup = StandardSetup::new(31, 6);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    for draft_len in [2, 24] {
        let mut rounds = 0;
        for utterance in setup.corpus.split(Split::TestOther) {
            let audio = setup.binding.bind(utterance);
            let greedy = setup.target.greedy_transcript(&audio);
            let eos = audio.eos();
            let mut pool = serving_pool();
            let mut session =
                DecodeSession::new(policy, DrafterKind::TokenMap, audio, &[], &mut pool)
                    .expect("the pool has room");
            // The draft continues the target's transcript with every
            // seventh position wrong, so rounds both accept and recycle.
            let costs = verify_allocations(&mut session, &mut pool, &setup.target, |session| {
                let at = session.tokens().len();
                DraftedRound::external(
                    (at..at + draft_len)
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
            });
            rounds += costs.len();
            let worst = costs.iter().max().copied().unwrap_or(0);
            assert!(
                worst <= ROUND_BUDGET,
                "{draft_len}-token drafts: a round allocated {worst} times ({costs:?})"
            );
        }
        assert!(rounds > 6, "{draft_len}-token drafts ran {rounds} rounds");
    }
}

#[test]
fn sparse_tree_rounds_allocate_the_same_whatever_the_tree() {
    let setup = StandardSetup::new(31, 6);
    let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
    let mut widest = 0;
    for utterance in setup.corpus.split(Split::TestOther) {
        let audio = setup.binding.bind(utterance);
        let mut pool = serving_pool();
        let mut session =
            DecodeSession::new(policy, DrafterKind::ModelDraft, audio, &[], &mut pool)
                .expect("the pool has room");
        let costs = verify_allocations(&mut session, &mut pool, &setup.target, |session| {
            let drafted = session.draft_round(&setup.draft);
            widest = widest.max(drafted.verify_tokens());
            drafted
        });
        let worst = costs.iter().max().copied().unwrap_or(0);
        assert!(
            worst <= ROUND_BUDGET,
            "a tree round allocated {worst} times ({costs:?})"
        );
    }
    assert!(
        widest >= 16,
        "the split drafts wide trees (widest {widest})"
    );
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
            let (plan, allocated) =
                counted(|| plan_verify_waves(&done, &widths, &target, 0.5, max_waves, 10_000.0));
            assert_eq!(plan.waves.len(), 1, "the backlog leaves nothing to overlap");
            allocated
        })
        .collect();
    assert!(
        costs.iter().all(|&cost| cost == costs[0]),
        "allocations per plan, wave caps 1 to 8: {costs:?}"
    );
}
