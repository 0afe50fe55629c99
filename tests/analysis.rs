//! Trace-analysis reconciliation tests: the critical-path attribution must
//! decompose every request's end-to-end latency *exactly* (bitwise, against
//! the scheduler's own latency breakdown), the device-time ledger must fold
//! exactly to busy + idle, and an `--rpc` run must produce a
//! digit-for-digit identical recording — and therefore identical analysis —
//! to an in-process run of the same workload.

use std::sync::Arc;

use proptest::prelude::*;
use specasr::{
    AdaptiveConfig, DrafterKind, Policy, SparseTreeConfig, SpeculativeConfig, TokenMapDrafter,
};
use specasr_audio::{EncoderProfile, Split};
use specasr_models::{CtcDrafter, UtteranceTokens};
use specasr_server::{
    FlightRecording, RequestOutcome, RequestSpec, Router, RouterConfig, Scheduler, ServerConfig,
    TraceConfig,
};
use specasr_suite::StandardSetup;
use specasr_tokenizer::{TokenId, TokenMapIndex};
use specasr_trace::{analyze, analyze_lanes, jsonl_with_lanes, parse_jsonl, TraceAnalysis};

fn policies() -> Vec<Policy> {
    vec![
        Policy::Autoregressive,
        Policy::Speculative(SpeculativeConfig::short_single()),
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ]
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

/// Runs one traced cell and returns the recording plus its outcomes.
fn traced_cell(
    setup: &StandardSetup,
    policy: Policy,
    drafter: DrafterKind,
    depth: usize,
    rpc: bool,
) -> (FlightRecording, Vec<RequestOutcome>) {
    let config = ServerConfig::default()
        .with_max_batch(8)
        .with_max_in_flight_waves(depth);
    let mut scheduler = if rpc {
        Scheduler::with_rpc_target(
            setup.draft.clone(),
            setup.target.clone(),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            config,
        )
    } else {
        Scheduler::new(
            setup.draft.clone(),
            setup.target.clone(),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            config,
        )
    };
    let utterances = setup.corpus.split(Split::TestClean);
    match drafter {
        DrafterKind::ModelDraft => {}
        DrafterKind::CtcEncoder => {
            scheduler.install_drafter(Arc::new(CtcDrafter::paired(&setup.target)));
        }
        DrafterKind::TokenMap => {
            let audio: Vec<UtteranceTokens> = utterances
                .iter()
                .map(|utt| setup.binding.bind(utt))
                .collect();
            scheduler.install_drafter(Arc::new(token_map_for(&audio)));
        }
    }
    scheduler.set_trace(TraceConfig::enabled().with_capacity(1 << 20));
    for utterance in utterances {
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
    let outcomes = scheduler.run_until_idle();
    let recording = scheduler
        .take_trace_recording()
        .expect("tracing was enabled");
    (recording, outcomes)
}

/// Asserts both exactness contracts over one cell's analysis.
fn assert_reconciles(analysis: &TraceAnalysis, outcomes: &[RequestOutcome], label: &str) {
    analysis
        .reconcile()
        .unwrap_or_else(|err| panic!("{label}: {err}"));
    assert_eq!(
        analysis.requests.len(),
        outcomes.len(),
        "{label}: every outcome is attributed"
    );
    for outcome in outcomes {
        let attribution = analysis
            .attribution_for(outcome.id.value())
            .expect("every outcome has an attribution");
        // The attribution decomposes the *recorded* latency, bitwise: its
        // e2e is the scheduler's own number, and the component fold lands
        // on it exactly.
        assert_eq!(
            attribution.e2e_ms.to_bits(),
            outcome.latency.e2e_ms().to_bits(),
            "{label}: request {} attributes a different e2e",
            outcome.id.value()
        );
        assert_eq!(
            attribution.attributed_ms().to_bits(),
            attribution.e2e_ms.to_bits(),
            "{label}: request {} components do not fold to its e2e",
            outcome.id.value()
        );
    }
    assert_eq!(
        analysis.ledger.accounted_ms().to_bits(),
        analysis.ledger.total_ms().to_bits(),
        "{label}: ledger does not fold to busy+idle"
    );
}

#[test]
fn attribution_reconciles_exactly_for_every_policy() {
    let setup = StandardSetup::new(900, 8);
    for policy in policies() {
        let (recording, outcomes) = traced_cell(&setup, policy, DrafterKind::ModelDraft, 1, false);
        let analysis = analyze(&recording);
        assert_reconciles(&analysis, &outcomes, &policy.name());
        // Speculative cells report a policy-labelled efficiency group.
        if policy != Policy::Autoregressive {
            let group = analysis
                .group(&policy.name(), "model")
                .expect("speculative cells form an efficiency group");
            assert!(group.drafted_tokens > 0, "{}: drafted", policy.name());
            assert!(group.acceptance() > 0.0, "{}: accepted", policy.name());
        }
    }
}

#[test]
fn attribution_reconciles_under_pipelining_and_draft_free_drafters() {
    let setup = StandardSetup::new(901, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    for drafter in [
        DrafterKind::ModelDraft,
        DrafterKind::CtcEncoder,
        DrafterKind::TokenMap,
    ] {
        for depth in [1, 4] {
            let (recording, outcomes) = traced_cell(&setup, policy, drafter, depth, false);
            let analysis = analyze(&recording);
            let label = format!("{} depth {depth}", drafter.label());
            assert_reconciles(&analysis, &outcomes, &label);
            let group = analysis
                .group(&policy.name(), drafter.label())
                .expect("the cell's (policy, drafter) group exists");
            assert!(group.rounds > 0, "{label}: rounds observed");
            assert!(
                !group.by_depth.is_empty(),
                "{label}: by-depth acceptance populated"
            );
        }
    }
}

#[test]
fn rpc_trace_is_digit_for_digit_identical_to_in_process() {
    let setup = StandardSetup::new(902, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    for depth in [1, 4] {
        let (local, local_outcomes) =
            traced_cell(&setup, policy, DrafterKind::ModelDraft, depth, false);
        let (remote, remote_outcomes) =
            traced_cell(&setup, policy, DrafterKind::ModelDraft, depth, true);
        // The full recordings — device batches included — are textually
        // identical, so every downstream product (attribution, ledger,
        // report) is identical by construction.
        assert_eq!(
            local.to_jsonl(),
            remote.to_jsonl(),
            "depth {depth}: rpc recording diverged from in-process"
        );
        assert_eq!(local_outcomes.len(), remote_outcomes.len());
        let local_analysis = analyze(&local);
        let remote_analysis = analyze(&remote);
        assert_eq!(local_analysis, remote_analysis);
        assert_reconciles(&remote_analysis, &remote_outcomes, "rpc");
        assert_eq!(
            local_analysis.render_report(),
            remote_analysis.render_report()
        );
    }
}

#[test]
fn a_stealing_fleet_reconciles_with_hand_offs_counted() {
    // Two workers with a depth-1 steal threshold: hash placement of the
    // whole corpus guarantees imbalance, so some requests are enqueued on
    // one worker and served (and attributed) on the other.  Per-lane
    // analysis must classify the orphan submissions as hand-offs and still
    // reconcile the merged fleet exactly.
    let setup = StandardSetup::new(904, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let mut router = Router::new(
        RouterConfig::default()
            .with_workers(2)
            .with_steal_threshold(1)
            .with_worker_config(ServerConfig::default().with_max_batch(2)),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| (setup.draft.clone(), setup.target.clone()),
    );
    router.set_trace(TraceConfig::enabled().with_capacity(1 << 20));
    for split in Split::ALL {
        for utterance in setup.corpus.split(split) {
            router.submit(policy, utterance).expect("queue has room");
        }
    }
    let outcomes = router.run_until_idle();
    assert!(router.stolen() > 0, "the skewed fleet steals");
    let recordings = router.take_recordings();
    let lanes: Vec<(&str, &FlightRecording)> = recordings
        .iter()
        .map(|(name, recording)| (name.as_str(), recording))
        .collect();
    let analysis = analyze_lanes(&lanes);
    assert!(
        analysis.handed_off_requests > 0,
        "stolen requests leave orphan submissions behind"
    );
    assert_reconciles(&analysis, &outcomes, "stealing fleet");
}

#[test]
fn jsonl_dump_reanalyzes_to_the_identical_attribution() {
    let setup = StandardSetup::new(903, 8);
    let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
    let (recording, _) = traced_cell(&setup, policy, DrafterKind::ModelDraft, 4, false);
    let direct = analyze_lanes(&[("main", &recording)]);
    let dump = jsonl_with_lanes(&[("main", &recording)]);
    let lanes = parse_jsonl(&dump).expect("dump parses");
    let mut reparsed = TraceAnalysis::default();
    for (_, events) in &lanes {
        reparsed.merge(&specasr_trace::analyze_events(events));
    }
    // Bit-exact float formatting makes the detour through disk lossless.
    assert_eq!(direct, reparsed);
    reparsed.reconcile().expect("reparsed analysis reconciles");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random workloads — any policy, any drafter, random pipeline depths,
    /// both backends — always reconcile exactly: attribution folds land
    /// bitwise on each recorded e2e and the ledger folds bitwise to
    /// busy + idle.
    #[test]
    fn random_cells_always_reconcile_exactly(
        seed in 0u64..100,
        policy_salt in 0usize..4,
        drafter_salt in 0usize..3,
        depth in 1usize..4,
        rpc in any::<bool>(),
    ) {
        let setup = StandardSetup::new(1000 + seed, 6);
        let policy = policies()[policy_salt];
        let drafter = [
            DrafterKind::ModelDraft,
            DrafterKind::CtcEncoder,
            DrafterKind::TokenMap,
        ][drafter_salt];
        let (recording, outcomes) = traced_cell(&setup, policy, drafter, depth, rpc);
        let analysis = analyze(&recording);
        prop_assert!(analysis.reconcile().is_ok(), "{:?}", analysis.reconcile());
        prop_assert_eq!(analysis.requests.len(), outcomes.len());
        for outcome in &outcomes {
            let attribution = analysis
                .attribution_for(outcome.id.value())
                .expect("attributed");
            prop_assert_eq!(
                attribution.attributed_ms().to_bits(),
                outcome.latency.e2e_ms().to_bits()
            );
        }
        prop_assert_eq!(
            analysis.ledger.accounted_ms().to_bits(),
            analysis.ledger.total_ms().to_bits()
        );
    }
}
