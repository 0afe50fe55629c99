//! Elastic-fleet integration tests: membership changes must preserve every
//! request (nothing lost or duplicated), live
//! migration must be lossless on both the block-table hand-off and the
//! preempt/restore path, late-joining workers must merge clean latency
//! spans, and the capacity-aware placement / deadline-aware ordering wins
//! the `serve_elastic` baselines gate must hold as properties too.

use std::sync::Arc;

use proptest::prelude::*;
use specasr::{AdaptiveConfig, DrafterKind, Policy, SparseTreeConfig, SpeculativeConfig};
use specasr_audio::{EncoderProfile, Split, Utterance};
use specasr_fleet::{FleetConfig, FleetController};
use specasr_models::{CtcDrafter, SimulatedAsrModel};
use specasr_server::{
    run_open_loop, AdmissionOrdering, AdmissionPolicy, LoadGen, MetricsRegistry, RequestOutcome,
    RequestSpec, Router, RouterConfig, ServerConfig, SloClass, WorkerId, WorkerProfile,
};
use specasr_suite::StandardSetup;
use specasr_tokenizer::{TokenId, TokenMapIndex};

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

/// Installs both draft-free drafters fleet-wide, the token map built from
/// the corpus reference transcripts (EOS-terminated) as a deployment would.
fn install_drafters(
    setup: &StandardSetup,
    router: &mut Router<SimulatedAsrModel, SimulatedAsrModel>,
) {
    router.install_drafter(Arc::new(CtcDrafter::paired(&setup.target)));
    let sequences: Vec<Vec<TokenId>> = Split::ALL
        .iter()
        .flat_map(|&split| setup.binding.bind_all(setup.corpus.split(split)))
        .map(|utt| {
            let mut seq = utt.reference_tokens().to_vec();
            seq.push(utt.eos());
            seq
        })
        .collect();
    let index = TokenMapIndex::build_default(sequences.iter().map(Vec::as_slice));
    router.install_drafter(Arc::new(specasr::TokenMapDrafter::new(Arc::new(index))));
}

fn corpus_pool(setup: &StandardSetup) -> Vec<&Utterance> {
    Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect()
}

fn sorted_by_id(mut outcomes: Vec<RequestOutcome>) -> Vec<RequestOutcome> {
    outcomes.sort_by_key(|o| o.id);
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever the membership churn mid-run — a worker joining, another
    /// draining with queued and in-flight work — every submitted request
    /// completes exactly once.
    #[test]
    fn no_request_is_lost_or_duplicated_across_membership_changes(
        seed in 0u64..120,
        requests in 8usize..24,
        policy_salt in 0u64..1_000,
        add_at in 2usize..8,
        drain_at in 4usize..12,
    ) {
        let setup = StandardSetup::new(seed, 4);
        let policies = serving_policies();
        let pool = corpus_pool(&setup);
        let mut router = router_for(
            &setup,
            RouterConfig::default()
                .with_workers(2)
                .with_worker_config(ServerConfig::default().with_queue_depth(256)),
        );
        let mut loadgen = LoadGen::new(seed, 150.0);
        let mut completed = Vec::new();
        for index in 0..requests {
            completed.extend(router.advance_to(loadgen.next_arrival_ms()));
            if index == add_at {
                router.add_worker(WorkerProfile::default(), |_| {
                    (setup.draft.clone(), setup.target.clone())
                });
            }
            if index == drain_at {
                let newest = router
                    .workers()
                    .iter()
                    .filter(|w| !w.is_draining())
                    .map(|w| w.id())
                    .max()
                    .expect("fleet has active workers");
                router.drain_worker(newest);
            }
            let policy = policies[(policy_salt as usize + index) % policies.len()];
            router
                .submit(policy, pool[(index * 5 + policy_salt as usize) % pool.len()])
                .expect("queues are deep");
        }
        completed.extend(router.run_until_idle());
        router.reap_drained();

        prop_assert_eq!(completed.len(), requests, "every request completes");
        let mut ids: Vec<u64> = completed.iter().map(|o| o.id.value()).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..requests as u64).collect();
        prop_assert_eq!(ids, expected, "exactly once, no duplicates");
    }

    /// A run with a forced mid-flight drain (sessions migrating by hand-off
    /// or preempt/restore, depending on destination headroom) produces
    /// byte-identical transcripts to the same fleet left static — across
    /// policies, draft sources, and pipeline depths.
    #[test]
    fn migration_is_lossless_across_policies_drafters_and_depths(
        seed in 0u64..80,
        policy_salt in 0u64..1_000,
        drafter_salt in 0u64..1_000,
        depth in 1usize..5,
        requests in 6usize..16,
        drain_ms in 100.0f64..2_500.0,
        tight_destination in 0usize..2,
    ) {
        let setup = StandardSetup::new(seed, 4);
        let policies = serving_policies();
        let drafters = [
            DrafterKind::ModelDraft,
            DrafterKind::CtcEncoder,
            DrafterKind::TokenMap,
        ];
        let pool = corpus_pool(&setup);
        let workload: Vec<(Policy, DrafterKind, &Utterance)> = (0..requests)
            .map(|index| {
                (
                    policies[(policy_salt as usize + index) % policies.len()],
                    drafters[(drafter_salt as usize + index) % drafters.len()],
                    pool[(index * 3 + seed as usize) % pool.len()],
                )
            })
            .collect();
        // A tight destination pool forces the preempt/restore slow path;
        // an ample one lets the block-table hand-off fast path run.
        let profiles = [
            WorkerProfile::default(),
            if tight_destination == 1 {
                WorkerProfile::default().with_kv_blocks(48)
            } else {
                WorkerProfile::default()
            },
        ];
        let build = |setup: &StandardSetup| {
            let mut router = Router::with_profiles(
                RouterConfig::default()
                    .with_workers(2)
                    .with_worker_config(
                        ServerConfig::default()
                            .with_queue_depth(256)
                            .with_max_in_flight_waves(depth),
                    ),
                setup.binding.clone(),
                EncoderProfile::whisper_medium_encoder(),
                &profiles,
                |_| (setup.draft.clone(), setup.target.clone()),
            );
            install_drafters(setup, &mut router);
            router
        };

        let mut migrated = build(&setup);
        for &(policy, drafter, utterance) in &workload {
            migrated
                .submit(RequestSpec { drafter, ..policy.into() }, utterance)
                .expect("queues are deep");
        }
        let mut churned = migrated.advance_to(drain_ms);
        migrated.drain_worker(WorkerId::new(0));
        churned.extend(migrated.run_until_idle());
        migrated.reap_drained();

        let mut staticrun = build(&setup);
        for &(policy, drafter, utterance) in &workload {
            staticrun
                .submit(RequestSpec { drafter, ..policy.into() }, utterance)
                .expect("queues are deep");
        }
        let still = staticrun.run_until_idle();

        let churned = sorted_by_id(churned);
        let still = sorted_by_id(still);
        prop_assert_eq!(churned.len(), workload.len());
        prop_assert_eq!(churned.len(), still.len());
        for (moved, fixed) in churned.iter().zip(&still) {
            prop_assert_eq!(moved.id, fixed.id);
            prop_assert_eq!(&moved.text, &fixed.text, "request {} diverged", moved.id);
            prop_assert_eq!(&moved.outcome.tokens, &fixed.outcome.tokens);
        }
    }
}

/// The block-table hand-off fast path: draining onto a destination with KV
/// and batch headroom moves sessions without re-prefill, and the
/// transcripts still match a static fleet byte for byte.
#[test]
fn handoff_fast_path_migrates_without_reprefill_and_stays_lossless() {
    let setup = StandardSetup::new(402, 6);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool = corpus_pool(&setup);
    let config = RouterConfig::default()
        .with_workers(2)
        .with_worker_config(ServerConfig::default().with_queue_depth(256));

    let mut migrated = router_for(&setup, config);
    for (index, utterance) in pool.iter().enumerate().take(16) {
        let _ = index;
        migrated.submit(policy, utterance).expect("queues are deep");
    }
    let mut outcomes = migrated.advance_to(400.0);
    assert!(
        migrated.workers()[0].in_flight() > 0,
        "the drained worker must have live sessions for the test to bite"
    );
    migrated.drain_worker(WorkerId::new(0));
    outcomes.extend(migrated.run_until_idle());
    let stats = migrated.fleet_stats();
    assert!(
        stats.migrated_in_handoff() > 0,
        "an ample destination must take the hand-off fast path, got {} handoff / {} restore",
        stats.migrated_in_handoff(),
        stats.migrated_in_restore()
    );

    let mut staticrun = router_for(&setup, config);
    for utterance in pool.iter().take(16) {
        staticrun
            .submit(policy, utterance)
            .expect("queues are deep");
    }
    let still = sorted_by_id(staticrun.run_until_idle());
    let outcomes = sorted_by_id(outcomes);
    assert_eq!(outcomes.len(), still.len());
    for (moved, fixed) in outcomes.iter().zip(&still) {
        assert_eq!(moved.text, fixed.text, "request {} diverged", moved.id);
    }
}

/// The preempt/restore slow path: when the destination pool is too tight to
/// adopt block tables, sessions migrate by preemption and deterministic
/// re-prefill — counted separately, still byte-identical.
#[test]
fn restore_slow_path_migrates_under_memory_pressure_and_stays_lossless() {
    let setup = StandardSetup::new(403, 6);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool = corpus_pool(&setup);
    // Destination worker 1 gets a pool that admits any single request but
    // has no headroom to adopt a second session's blocks mid-flight.
    let profiles = [
        WorkerProfile::default(),
        WorkerProfile::default().with_kv_blocks(30),
    ];
    let build = |setup: &StandardSetup| {
        Router::with_profiles(
            RouterConfig::default()
                .with_workers(2)
                .with_worker_config(ServerConfig::default().with_queue_depth(256)),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            &profiles,
            |_| (setup.draft.clone(), setup.target.clone()),
        )
    };

    let mut migrated = build(&setup);
    for utterance in pool.iter().take(20) {
        migrated.submit(policy, utterance).expect("queues are deep");
    }
    let mut outcomes = migrated.advance_to(400.0);
    assert!(migrated.workers()[0].in_flight() > 0);
    migrated.drain_worker(WorkerId::new(0));
    outcomes.extend(migrated.run_until_idle());
    let stats = migrated.fleet_stats();
    assert!(
        stats.migrated_in_restore() > 0,
        "a tight destination must fall back to preempt/restore, got {} handoff / {} restore",
        stats.migrated_in_handoff(),
        stats.migrated_in_restore()
    );

    let mut staticrun = build(&setup);
    for utterance in pool.iter().take(20) {
        staticrun
            .submit(policy, utterance)
            .expect("queues are deep");
    }
    let still = sorted_by_id(staticrun.run_until_idle());
    let outcomes = sorted_by_id(outcomes);
    assert_eq!(outcomes.len(), still.len());
    for (moved, fixed) in outcomes.iter().zip(&still) {
        assert_eq!(moved.text, fixed.text, "request {} diverged", moved.id);
    }
}

/// Satellite regression: a worker that joins at a non-zero fleet clock must
/// behave identically to one that existed from the start — its scheduler
/// clock is synced to the join instant, so no span is ever measured from
/// time zero (inflated queue waits) or clamped negative.
#[test]
fn late_joining_worker_merges_clean_latency_spans() {
    let setup = StandardSetup::new(404, 6);
    let policy = Policy::Speculative(SpeculativeConfig::short_single());
    let pool = corpus_pool(&setup);
    let config = RouterConfig::default()
        .with_workers(1)
        .with_worker_config(ServerConfig::default().with_queue_depth(256));

    // Fleet A: one worker from the start, a second joining at t = 5 s.
    let mut elastic = router_for(&setup, config);
    elastic.advance_to(5_000.0);
    elastic.add_worker(WorkerProfile::default(), |_| {
        (setup.draft.clone(), setup.target.clone())
    });

    // Fleet B: both workers from the start, idling until t = 5 s.  Worker
    // ids, slots and loads match fleet A exactly.
    let mut fixed = router_for(&setup, config.with_workers(2));
    fixed.advance_to(5_000.0);

    for utterance in pool.iter().take(16) {
        elastic.submit(policy, utterance).expect("queues are deep");
        fixed.submit(policy, utterance).expect("queues are deep");
    }
    let elastic_outcomes = sorted_by_id(elastic.run_until_idle());
    let fixed_outcomes = sorted_by_id(fixed.run_until_idle());

    assert_eq!(elastic_outcomes.len(), fixed_outcomes.len());
    for (late, from_start) in elastic_outcomes.iter().zip(&fixed_outcomes) {
        assert_eq!(late.id, from_start.id);
        assert_eq!(late.text, from_start.text);
        let l = &late.latency;
        assert!(
            l.queue_ms >= 0.0 && l.queue_ms < 5_000.0,
            "request {} queue span {:.1} ms measured against the wrong epoch",
            late.id,
            l.queue_ms
        );
        assert!(l.time_to_first_token_ms >= 0.0 && l.e2e_ms() >= 0.0);
        assert_eq!(
            l.e2e_ms(),
            from_start.latency.e2e_ms(),
            "request {}: a late joiner must report the same spans as a \
             worker that idled from the start",
            late.id
        );
    }
    // The merged fleet histograms carry exactly the completed requests —
    // no clamping artifacts inflating or dropping samples.
    assert_eq!(
        elastic.fleet_stats().e2e_histogram().count(),
        elastic_outcomes.len() as u64
    );
}

/// Capacity-aware placement: declaring the big worker's speed normalizes
/// its load, so placement sends it more of the traffic, and the same
/// heterogeneous fleet completes the same overload faster than with
/// capacity hints withheld.
#[test]
fn weighted_heterogeneous_fleet_beats_unweighted_placement() {
    let setup = StandardSetup::new(405, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool = corpus_pool(&setup);
    let run = |weighted: bool| {
        let fast_speed = if weighted { 4.0 } else { 1.0 };
        let profiles = [
            WorkerProfile::default()
                .with_speed(fast_speed)
                .with_max_batch(16),
            WorkerProfile::default(),
            WorkerProfile::default(),
            WorkerProfile::default(),
        ];
        let mut router = Router::with_profiles(
            RouterConfig::default()
                .with_workers(4)
                // A prohibitive steal threshold isolates placement:
                // the win must come from routing, not from stealing
                // patching bad placement after the fact.
                .with_steal_threshold(10_000)
                .with_worker_config(
                    ServerConfig::default()
                        .with_max_batch(2)
                        .with_queue_depth(512),
                ),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            &profiles,
            |_| (setup.draft.clone(), setup.target.clone()),
        );
        let mut loadgen = LoadGen::new(55, 120.0);
        let report = run_open_loop(
            &mut router,
            &mut loadgen,
            (0..96).map(|i| (policy, pool[i % pool.len()])),
        );
        assert_eq!(report.outcomes.len(), 96);
        report.completed_qps()
    };
    let weighted = run(true);
    let unweighted = run(false);
    assert!(
        weighted > unweighted,
        "speed-normalized load toward the big-batch worker must raise \
         throughput: weighted {weighted:.2} vs unweighted {unweighted:.2} utt/s"
    );
}

/// Deadline-aware ordering: under overload with mixed TTFT budgets, EDF
/// admission serves urgent work first and completes more requests within
/// budget than FIFO arrival order.
#[test]
fn edf_ordering_beats_fifo_on_goodput_under_overload() {
    let setup = StandardSetup::new(406, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool = corpus_pool(&setup);
    const BUDGETS: [f64; 3] = [500.0, 2_000.0, 8_000.0];
    let budget_of = |slo: SloClass| match slo {
        SloClass::Interactive => 500.0,
        SloClass::Standard => 2_000.0,
        SloClass::Relaxed => 8_000.0,
        SloClass::BestEffort => f64::INFINITY,
    };
    // A queue deep enough that a FIFO wait can outlive the 500 ms budget:
    // the orderings then differ in what they shed by deadline, not in how
    // many arrivals a full queue turns away.
    let run = |ordering: AdmissionOrdering| {
        let mut router = router_for(
            &setup,
            RouterConfig::default().with_workers(1).with_worker_config(
                ServerConfig::default()
                    .with_admission(AdmissionPolicy::Fifo)
                    .with_ordering(ordering)
                    .with_queue_depth(32),
            ),
        );
        let mut loadgen = LoadGen::new(77, 60.0);
        let report = run_open_loop(
            &mut router,
            &mut loadgen,
            (0..96).map(|i| {
                let spec = RequestSpec {
                    ttft_budget_ms: Some(BUDGETS[i % BUDGETS.len()]),
                    ..policy.into()
                };
                (spec, pool[i % pool.len()])
            }),
        );
        let in_budget = report
            .outcomes
            .iter()
            .filter(|o| o.latency.time_to_first_token_ms <= budget_of(o.slo))
            .count();
        (in_budget, router.fleet_stats().rejected_deadline())
    };
    let (edf, _) = run(AdmissionOrdering::EarliestDeadlineFirst);
    let (fifo, fifo_shed) = run(AdmissionOrdering::Queue);
    assert!(
        fifo_shed > 0,
        "FIFO must shed requests whose queue wait outlived their budget"
    );
    assert!(
        edf > fifo,
        "EDF must finish more requests within budget than FIFO under \
         overload: edf {edf} vs fifo {fifo}"
    );
}

/// Satellite: the `specasr_fleet_*` metrics published through the registry
/// reconcile exactly with the controller's decision counters, including the
/// per-path migration totals, after a run with real scale-downs mid-flight.
#[test]
fn fleet_metrics_reconcile_exactly_with_controller_counters() {
    let setup = StandardSetup::new(407, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool = corpus_pool(&setup);
    // Aggressive scale-down with a generous queue target: the controller
    // sees headroom while sessions are still in flight, so its drains force
    // real migrations.
    let config = FleetConfig::default()
        .with_worker_bounds(1, 4)
        .with_evaluate_every_ms(25.0)
        .with_hysteresis(1_000, 1)
        .with_queue_target(64.0);
    let router = Router::new(
        RouterConfig::default()
            .with_workers(4)
            .with_worker_config(ServerConfig::default().with_queue_depth(512)),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| (setup.draft.clone(), setup.target.clone()),
    );
    let mut fleet = FleetController::new(router, config, |_| {
        (setup.draft.clone(), setup.target.clone())
    });
    for index in 0..40 {
        fleet
            .submit(policy, pool[index % pool.len()])
            .expect("queues are deep");
    }
    let outcomes = fleet.run_until_idle();
    assert_eq!(outcomes.len(), 40);
    let counters = fleet.counters();
    assert!(counters.scale_downs > 0, "headroom must drain workers");
    assert!(
        counters.sessions_migrated > 0,
        "draining busy workers must migrate sessions, got {counters:?}"
    );

    let mut registry = MetricsRegistry::new();
    fleet.publish_metrics(&mut registry);
    let rendered = registry.render();
    let value = |needle: &str| -> f64 {
        rendered
            .lines()
            .find(|line| line.starts_with(needle))
            .unwrap_or_else(|| panic!("metric {needle} missing from:\n{rendered}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(
        value("specasr_fleet_evaluations_total"),
        counters.evaluations as f64
    );
    assert_eq!(
        value("specasr_fleet_breached_evaluations_total"),
        counters.breached_evaluations as f64
    );
    assert_eq!(
        value("specasr_fleet_scale_ups_total"),
        counters.scale_ups as f64
    );
    assert_eq!(
        value("specasr_fleet_scale_downs_total"),
        counters.scale_downs as f64
    );
    assert_eq!(
        value("specasr_fleet_workers_removed_total"),
        counters.workers_removed as f64
    );
    assert_eq!(
        value("specasr_fleet_workers{state=\"active\"}"),
        fleet.router().active_workers() as f64
    );
    assert_eq!(
        value("specasr_fleet_workers{state=\"draining\"}"),
        fleet.router().draining_workers() as f64
    );
    assert_eq!(
        value("specasr_migrations_total{path=\"handoff\"}")
            + value("specasr_migrations_total{path=\"restore\"}"),
        counters.sessions_migrated as f64,
        "router migration stats and controller counters must agree"
    );
    assert_eq!(
        fleet.router().fleet_stats().migrations(),
        counters.sessions_migrated
    );
}

/// The fleet controller reads each SLO class's P99 in place, through
/// `Router::slo_e2e_p99_ms`, instead of merging the fleet's statistics.  The
/// read must equal the merged statistics' P99 bit for bit for every class,
/// while the fleet scales up, drains, and after it reaps a worker whose
/// samples now live in the router's retired aggregate.
#[test]
fn in_place_slo_p99_equals_the_merged_fleet_stats_bit_for_bit() {
    fn assert_p99s_match(router: &Router<SimulatedAsrModel, SimulatedAsrModel>) {
        let merged = router.fleet_stats();
        for class in SloClass::ALL {
            assert_eq!(
                router.slo_e2e_p99_ms(class).to_bits(),
                merged.slo_class(class).e2e_p99_ms().to_bits(),
                "{class} P99 at {:.0} ms",
                router.now_ms()
            );
        }
    }

    let setup = StandardSetup::new(408, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool = corpus_pool(&setup);
    const BUDGETS: [Option<f64>; 4] = [Some(500.0), Some(2_000.0), Some(8_000.0), None];
    let config = FleetConfig::default()
        .with_worker_bounds(1, 3)
        .with_evaluate_every_ms(50.0)
        .with_hysteresis(1, 2)
        .with_queue_target(2.0)
        .with_e2e_p99_target_ms(Some(1_000.0));
    let router = router_for(
        &setup,
        RouterConfig::default()
            .with_workers(1)
            .with_worker_config(ServerConfig::default().with_queue_depth(256)),
    );
    let mut fleet = FleetController::new(router, config, |_| {
        (setup.draft.clone(), setup.target.clone())
    });
    for index in 0..48 {
        fleet
            .submit(
                RequestSpec {
                    ttft_budget_ms: BUDGETS[index % 4],
                    ..policy.into()
                },
                pool[index % pool.len()],
            )
            .expect("queues are deep");
    }
    let mut now_ms = fleet.router().now_ms();
    while !fleet.router().is_idle() {
        now_ms += 100.0;
        fleet.advance_to(now_ms);
        assert_p99s_match(fleet.router());
    }
    // A quiet tail: sustained headroom drains the added workers, and the
    // next evaluations reap them.
    fleet.advance_to(now_ms + 2_000.0);
    assert_p99s_match(fleet.router());

    let counters = fleet.counters();
    assert!(
        counters.scale_ups > 0,
        "the burst must scale up: {counters:?}"
    );
    assert!(
        counters.workers_removed > 0,
        "the tail must reap a worker: {counters:?}"
    );
    let merged = fleet.router().fleet_stats();
    let live: usize = fleet
        .router()
        .workers()
        .iter()
        .map(|worker| worker.stats().completed())
        .sum();
    assert!(
        live < merged.completed(),
        "reaped workers served requests: {live} of {}",
        merged.completed()
    );
    let served_classes = SloClass::ALL
        .iter()
        .filter(|&&class| merged.slo_class(class).completed() > 0)
        .count();
    assert!(served_classes >= 3, "{served_classes} classes served");
}
