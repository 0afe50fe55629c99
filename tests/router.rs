//! Sharded-router integration tests: placement across N workers must be
//! lossless (byte-identical transcripts to a single scheduler, every request
//! completing exactly once), placement must keep model-draft and draft-free
//! requests apart while a batch slot allows and place one class exactly by
//! load, and open-loop load generation must stay deterministic and expose
//! queueing behaviour the closed loop cannot.

use std::sync::Arc;

use proptest::prelude::*;
use specasr::{
    AdaptiveConfig, DrafterKind, Policy, SparseTreeConfig, SpeculativeConfig, TokenMapDrafter,
};
use specasr_audio::{EncoderProfile, Split, Utterance};
use specasr_models::{CtcDrafter, SimulatedAsrModel};
use specasr_server::{
    run_open_loop, FlightRecording, LoadGen, RequestOutcome, RequestSpec, Router, RouterConfig,
    Scheduler, ServerConfig, TraceConfig, TraceEvent, WorkerId, WorkerProfile,
};
use specasr_suite::StandardSetup;
use specasr_tokenizer::TokenMapIndex;
use specasr_trace::analyze_lanes;

fn serving_policies() -> Vec<Policy> {
    vec![
        Policy::Autoregressive,
        Policy::Speculative(SpeculativeConfig::short_single()),
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ]
}

fn router_for(
    setup: &StandardSetup,
    config: RouterConfig,
) -> Router<SimulatedAsrModel, SimulatedAsrModel> {
    Router::new(
        config,
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| (setup.draft.clone(), setup.target.clone()),
    )
}

/// Installs `kind` fleet-wide when it is draft-free: the token map mined
/// from the corpus reference transcripts, or the CTC drafter paired with the
/// target.
fn install(
    router: &mut Router<SimulatedAsrModel, SimulatedAsrModel>,
    setup: &StandardSetup,
    kind: DrafterKind,
) {
    match kind {
        DrafterKind::ModelDraft => {}
        DrafterKind::CtcEncoder => {
            router.install_drafter(Arc::new(CtcDrafter::paired(&setup.target)))
        }
        DrafterKind::TokenMap => {
            let sequences: Vec<Vec<_>> = setup
                .binding
                .bind_all(setup.corpus.iter())
                .iter()
                .map(|utterance| {
                    let mut sequence = utterance.reference_tokens().to_vec();
                    sequence.push(utterance.eos());
                    sequence
                })
                .collect();
            let index = TokenMapIndex::build_default(sequences.iter().map(Vec::as_slice));
            router.install_drafter(Arc::new(TokenMapDrafter::new(Arc::new(index))));
        }
    }
}

/// What every worker holds, queued plus in flight.
fn holdings(router: &Router<SimulatedAsrModel, SimulatedAsrModel>) -> Vec<usize> {
    router
        .workers()
        .iter()
        .map(|worker| worker.queue_depth() + worker.in_flight())
        .collect()
}

/// The one worker whose holdings grew between two snapshots.
fn grown(before: &[usize], after: &[usize]) -> usize {
    let grown: Vec<usize> = (0..before.len())
        .filter(|&slot| after[slot] > before[slot])
        .collect();
    assert_eq!(grown.len(), 1, "one worker took the request");
    grown[0]
}

/// Submits `workload` to both a fleet of `workers` and a single scheduler,
/// returning `(router outcomes, scheduler outcomes)` keyed by submission
/// index (ids are assigned in submission order on both sides).
fn serve_both_ways(
    setup: &StandardSetup,
    workers: usize,
    steal_threshold: usize,
    workload: &[(Policy, &Utterance)],
) -> (Vec<RequestOutcome>, Vec<RequestOutcome>) {
    let worker_config = ServerConfig::default()
        .with_max_batch(4)
        .with_queue_depth(workload.len().max(1));
    let mut router = router_for(
        setup,
        RouterConfig::default()
            .with_workers(workers)
            .with_steal_threshold(steal_threshold)
            .with_worker_config(worker_config),
    );
    let mut solo = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        worker_config.with_queue_depth(workload.len().max(1)),
    );
    for &(policy, utterance) in workload {
        router.submit(policy, utterance).expect("fleet has room");
        solo.submit(policy, utterance).expect("queue has room");
    }
    let mut sharded = router.run_until_idle();
    let mut sequential = solo.run_until_idle();
    sharded.sort_by_key(|o| o.id);
    sequential.sort_by_key(|o| o.id);
    (sharded, sequential)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Placement is lossless: whatever the fleet size, steal threshold, and
    /// policy mix, a sharded router produces byte-identical transcripts to a
    /// single scheduler serving the same submission sequence.
    #[test]
    fn router_transcripts_match_a_single_scheduler(
        seed in 0u64..300,
        workers in 1usize..6,
        steal_threshold in 1usize..5,
        requests in 1usize..20,
        policy_salt in 0u64..1_000,
    ) {
        let setup = StandardSetup::new(seed, 5);
        let policies = serving_policies();
        let pool: Vec<&Utterance> = Split::ALL
            .iter()
            .flat_map(|&split| setup.corpus.split(split))
            .collect();
        let workload: Vec<(Policy, &Utterance)> = (0..requests)
            .map(|index| {
                let policy = policies[(policy_salt as usize + index) % policies.len()];
                (policy, pool[(index * 7 + policy_salt as usize) % pool.len()])
            })
            .collect();

        let (sharded, sequential) = serve_both_ways(&setup, workers, steal_threshold, &workload);
        prop_assert_eq!(sharded.len(), workload.len(), "every request completes exactly once");
        prop_assert_eq!(sharded.len(), sequential.len());
        for (fleet, solo) in sharded.iter().zip(&sequential) {
            prop_assert_eq!(fleet.id, solo.id);
            prop_assert_eq!(&fleet.text, &solo.text, "request {} diverged", fleet.id);
            prop_assert_eq!(&fleet.outcome.tokens, &solo.outcome.tokens);
            prop_assert_eq!(fleet.utterance_id, solo.utterance_id);
        }
    }

    /// With one draft class in the fleet, placement is least-loaded
    /// placement: every submit joins the lowest slot of minimal load
    /// (requests held, queued plus in flight, per unit of speed), whatever
    /// the policy, the drafter kind and the speeds.
    #[test]
    fn single_class_traffic_places_on_the_least_loaded_worker(
        seed in 0u64..300,
        speeds in proptest::collection::vec(0usize..4, 1..5),
        kind in 0usize..3,
        policy in 0usize..4,
        requests in 8usize..24,
    ) {
        const SPEEDS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];
        let setup = StandardSetup::new(seed, 5);
        let kind = DrafterKind::ALL[kind];
        let spec = RequestSpec {
            drafter: kind,
            ..serving_policies()[policy].into()
        };
        let profiles: Vec<WorkerProfile> = speeds
            .iter()
            .map(|&speed| WorkerProfile::default().with_speed(SPEEDS[speed]))
            .collect();
        let mut router = Router::with_profiles(
            RouterConfig::default()
                .with_workers(profiles.len())
                .with_worker_config(ServerConfig::default().with_max_batch(2).with_queue_depth(64)),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            &profiles,
            |_| (setup.draft.clone(), setup.target.clone()),
        );
        install(&mut router, &setup, kind);
        let pool: Vec<&Utterance> = Split::ALL
            .iter()
            .flat_map(|&split| setup.corpus.split(split))
            .collect();
        let mut loadgen = LoadGen::new(seed, 40.0);
        let mut completed = 0;
        for index in 0..requests {
            // Serving between arrivals admits and retires requests, so the
            // loads compared mix queue and batch.
            completed += router.advance_to(loadgen.next_arrival_ms()).len();
            let before = holdings(&router);
            let loads: Vec<f64> = router
                .workers()
                .iter()
                .zip(&before)
                .map(|(worker, &held)| held as f64 / worker.profile().speed)
                .collect();
            let least = loads.iter().copied().fold(f64::INFINITY, f64::min);
            let expected = loads.iter().position(|&load| load == least).expect("a worker");
            router
                .submit(spec, pool[(index * 7 + seed as usize) % pool.len()])
                .expect("queues have room");
            prop_assert_eq!(grown(&before, &holdings(&router)), expected);
        }
        completed += router.run_until_idle().len();
        prop_assert_eq!(completed, requests);
    }
}

/// Below `max_batch`, model-draft and draft-free requests never share a
/// worker: a verify wave waits for the slowest draft of its tick, so a
/// draft-free request kept apart never waits for a model draft.
#[test]
fn draft_classes_keep_to_separate_workers_below_max_batch() {
    const MAX_BATCH: usize = 8;
    let setup = StandardSetup::new(909, 8);
    let mut router = router_for(
        &setup,
        RouterConfig::default()
            .with_workers(2)
            .with_steal_threshold(1_000)
            .with_worker_config(ServerConfig::default().with_max_batch(MAX_BATCH)),
    );
    install(&mut router, &setup, DrafterKind::TokenMap);
    let asp = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool: Vec<&Utterance> = Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect();
    let mut loadgen = LoadGen::new(909, 10.0);
    // Per worker, the requests it holds and whether each drafts with the
    // draft model.
    let mut held: Vec<Vec<(u64, bool)>> = vec![Vec::new(); 2];
    let mut both_busy = 0;
    let mut completed = 0;
    for (index, utterance) in pool.iter().enumerate() {
        let model_draft = index % 2 == 0;
        for outcome in router.advance_to(loadgen.next_arrival_ms()) {
            for worker in &mut held {
                worker.retain(|&(id, _)| id != outcome.id.value());
            }
            completed += 1;
        }
        let before = holdings(&router);
        let spec = RequestSpec {
            drafter: if model_draft {
                DrafterKind::ModelDraft
            } else {
                DrafterKind::TokenMap
            },
            ..asp.into()
        };
        let id = router.submit(spec, utterance).expect("queues have room");
        let after = holdings(&router);
        held[grown(&before, &after)].push((id.value(), model_draft));
        for (slot, requests) in held.iter().enumerate() {
            assert_eq!(requests.len(), after[slot], "nothing moves between workers");
            assert!(
                requests.len() < MAX_BATCH,
                "the load stays below max_batch, so every placement keeps the classes apart"
            );
            assert!(
                requests.iter().all(|&(_, class)| class == requests[0].1),
                "worker {slot} holds both draft classes: {requests:?}"
            );
        }
        if after.iter().all(|&count| count > 0) {
            both_busy += 1;
        }
    }
    assert!(both_busy > 0, "both workers served at once");
    completed += router.run_until_idle().len();
    assert_eq!(completed, pool.len());
}

/// Keeping the classes apart never queues a request another worker could
/// admit: once the model-draft worker's batch is full, the next model-draft
/// request joins the least-loaded worker, draft-free requests and all.
#[test]
fn a_full_class_worker_sends_the_next_request_to_the_least_loaded_worker() {
    const MAX_BATCH: usize = 2;
    let setup = StandardSetup::new(908, 8);
    let mut router = router_for(
        &setup,
        RouterConfig::default()
            .with_workers(2)
            .with_steal_threshold(1_000)
            .with_worker_config(ServerConfig::default().with_max_batch(MAX_BATCH)),
    );
    install(&mut router, &setup, DrafterKind::TokenMap);
    let asp = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let token_map = RequestSpec {
        drafter: DrafterKind::TokenMap,
        ..asp.into()
    };
    let utterances = setup.corpus.split(Split::TestClean);
    let mut placed = Vec::new();
    for (spec, utterance) in [
        (token_map, &utterances[0]),
        (asp.into(), &utterances[1]),
        (asp.into(), &utterances[2]),
        (asp.into(), &utterances[3]),
    ] {
        let before = holdings(&router);
        router.submit(spec, utterance).expect("queues have room");
        placed.push(grown(&before, &holdings(&router)));
    }
    // The token-map request takes worker 0, the model drafts keep to worker
    // 1 until its batch is full, and the third joins worker 0, the lighter.
    assert_eq!(placed, [0, 1, 1, 0]);
    // Every busy worker ticks once: the earliest tick ends past 1 µs.
    let mut outcomes = router.advance_to(0.001);
    let depths: Vec<usize> = router.workers().iter().map(|w| w.queue_depth()).collect();
    assert_eq!(depths, [0, 0], "a request waits behind a full batch");
    outcomes.extend(router.run_until_idle());
    assert_eq!(outcomes.len(), 4);
}

#[test]
fn fleet_memory_stats_aggregate_constrained_workers() {
    // Constrained per-worker pools under a fleet: preemptions and occupancy
    // merge across workers, transcripts still match a single unconstrained
    // scheduler, and rejection classes stay separate.
    let setup = StandardSetup::new(907, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool: Vec<&Utterance> = Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect();
    let workload: Vec<(Policy, &Utterance)> = pool.iter().map(|&u| (policy, u)).collect();

    let worker_config = ServerConfig::default()
        .with_max_batch(6)
        .with_kv_blocks(30)
        .with_queue_depth(workload.len());
    let mut router = router_for(
        &setup,
        RouterConfig::default()
            .with_workers(2)
            .with_worker_config(worker_config),
    );
    let mut solo = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        worker_config.with_kv_blocks(4096),
    );
    for &(policy, utterance) in &workload {
        router.submit(policy, utterance).expect("fleet has room");
        solo.submit(policy, utterance).expect("queue has room");
    }
    let mut sharded = router.run_until_idle();
    let mut sequential = solo.run_until_idle();
    sharded.sort_by_key(|o| o.id);
    sequential.sort_by_key(|o| o.id);
    assert_eq!(sharded.len(), sequential.len());
    for (fleet, single) in sharded.iter().zip(&sequential) {
        assert_eq!(fleet.id, single.id);
        assert_eq!(fleet.text, single.text, "request {} diverged", fleet.id);
    }

    let fleet = router.fleet_stats();
    let per_worker_preemptions: usize = router
        .workers()
        .iter()
        .map(|w| w.stats().memory().preemptions())
        .sum();
    assert!(
        per_worker_preemptions > 0,
        "30-block worker pools must preempt under this burst"
    );
    assert_eq!(fleet.memory().preemptions(), per_worker_preemptions);
    assert_eq!(fleet.memory().kv_capacity_blocks(), 2 * 2 * 30);
    let peak_sum: usize = router
        .workers()
        .iter()
        .map(|w| w.stats().memory().peak_kv_blocks())
        .sum();
    assert_eq!(fleet.memory().peak_kv_blocks(), peak_sum);
    assert!(fleet.memory().avg_kv_blocks() > 0.0);
    assert_eq!(fleet.rejected_memory(), 0);
    for worker in router.workers() {
        assert_eq!(worker.kv_pool().used_blocks(), 0, "drained pools are empty");
    }
}

#[test]
fn open_loop_reruns_are_bit_identical() {
    let setup = StandardSetup::new(905, 10);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool = setup.corpus.split(Split::TestClean);
    let mut fingerprints = Vec::new();
    for _ in 0..2 {
        let mut router = router_for(&setup, RouterConfig::default().with_workers(3));
        let mut loadgen = LoadGen::new(2025, 30.0);
        let report = run_open_loop(
            &mut router,
            &mut loadgen,
            (0..30).map(|i| (policy, &pool[i % pool.len()])),
        );
        assert_eq!(report.outcomes.len(), 30);
        fingerprints.push(
            report
                .outcomes
                .iter()
                .map(|o| (o.id, o.text.clone(), o.e2e_ms()))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "seeded open-loop serving must be reproducible bit for bit"
    );
}

#[test]
fn open_loop_latency_knee_appears_as_offered_load_crosses_capacity() {
    let setup = StandardSetup::new(906, 12);
    let policy = Policy::Speculative(SpeculativeConfig::short_single());
    let pool = setup.corpus.split(Split::TestOther);
    let mut p99_by_qps = Vec::new();
    for qps in [5.0, 1_000.0] {
        let mut router = router_for(
            &setup,
            RouterConfig::default()
                .with_workers(2)
                .with_worker_config(ServerConfig::default().with_queue_depth(256)),
        );
        let mut loadgen = LoadGen::new(7, qps);
        let report = run_open_loop(
            &mut router,
            &mut loadgen,
            (0..96).map(|i| (policy, &pool[i % pool.len()])),
        );
        assert_eq!(report.outcomes.len(), 96);
        p99_by_qps.push(router.fleet_stats().e2e_p99_ms());
    }
    assert!(
        p99_by_qps[1] > 2.0 * p99_by_qps[0],
        "P99 above the knee ({:.0} ms) must clearly exceed P99 below it ({:.0} ms)",
        p99_by_qps[1],
        p99_by_qps[0]
    );
}

/// Least-loaded placement splits a simultaneous burst evenly: an idle
/// two-worker fleet given two full batches admits every request on the
/// first tick of each worker, and none waits in a queue.
#[test]
fn an_idle_fleet_admits_two_full_batches_at_once() {
    const MAX_BATCH: usize = 4;
    let setup = StandardSetup::new(908, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let mut router = router_for(
        &setup,
        RouterConfig::default()
            .with_workers(2)
            .with_worker_config(ServerConfig::default().with_max_batch(MAX_BATCH)),
    );
    for utterance in &setup.corpus.split(Split::TestClean)[..2 * MAX_BATCH] {
        router.submit(policy, utterance).expect("queues have room");
    }
    // Every busy worker ticks once: the earliest tick ends past 1 µs.
    let mut outcomes = router.advance_to(0.001);
    let depths: Vec<usize> = router.workers().iter().map(|w| w.queue_depth()).collect();
    assert_eq!(depths, [0, 0], "a request waits behind a full batch");
    outcomes.extend(router.run_until_idle());
    assert_eq!(outcomes.len(), 2 * MAX_BATCH);
}

/// A drain re-routes the queued requests of the worker it drains.  One that
/// was never admitted keeps its whole span on its destination lane: the
/// destination records its submission at the original arrival, so the
/// fleet's lanes attribute it exactly, like a request served where it
/// arrived, and the draining lane holds only a hand-off.
#[test]
fn a_drained_workers_queued_requests_arrive_on_their_destination_lane() {
    let setup = StandardSetup::new(907, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let mut router = router_for(
        &setup,
        RouterConfig::default()
            .with_workers(2)
            .with_steal_threshold(1_000)
            .with_worker_config(ServerConfig::default().with_max_batch(1)),
    );
    router.set_trace(TraceConfig::enabled().with_capacity(1 << 20));
    // The idle fleet moves to 40 ms first, so every arrival is stamped at
    // 40 ms, and nothing is admitted before the drain.
    assert!(router.advance_to(40.0).is_empty());
    let draining = WorkerId::new(1);
    // The requests the drained worker holds: those whose submit deepened
    // its queue.
    let mut moved = Vec::new();
    for utterance in setup.corpus.split(Split::TestClean) {
        let before = router.workers()[1].queue_depth();
        let id = router.submit(policy, utterance).expect("queues have room");
        if router.workers()[1].queue_depth() > before {
            moved.push(id.value());
        }
    }
    assert!(moved.len() >= 2, "the drained worker holds queued requests");
    assert_eq!(router.drain_worker(draining), 0, "nothing was in flight");
    let outcomes = router.run_until_idle();
    assert_eq!(outcomes.len(), setup.corpus.split(Split::TestClean).len());
    router.reap_drained();

    let recordings = router.take_recordings();
    let destination = WorkerId::new(0).to_string();
    let lane = &recordings
        .iter()
        .find(|(name, _)| *name == destination)
        .expect("the destination lane is recorded")
        .1;
    for &request in &moved {
        let arrivals: Vec<f64> = lane
            .events()
            .filter_map(|event| match event {
                TraceEvent::RequestSubmitted {
                    ts_ms, request: r, ..
                } if *r == request => Some(*ts_ms),
                _ => None,
            })
            .collect();
        assert_eq!(arrivals, [40.0], "request {request} arrives once, at 40 ms");
    }

    let lanes: Vec<(&str, &FlightRecording)> = recordings
        .iter()
        .map(|(name, recording)| (name.as_str(), recording))
        .collect();
    let analysis = analyze_lanes(&lanes);
    analysis
        .reconcile()
        .unwrap_or_else(|err| panic!("the drained fleet reconciles: {err}"));
    assert_eq!(analysis.handed_off_requests, moved.len() as u64);
    assert_eq!(analysis.requests.len(), outcomes.len());
    for outcome in &outcomes {
        let attribution = analysis
            .attribution_for(outcome.id.value())
            .expect("every outcome is attributed");
        assert_eq!(
            attribution.e2e_ms.to_bits(),
            outcome.latency.e2e_ms().to_bits(),
            "request {} attributes a different e2e",
            outcome.id.value()
        );
        assert_eq!(
            attribution.attributed_ms().to_bits(),
            attribution.e2e_ms.to_bits()
        );
    }
}
