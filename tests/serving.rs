//! Serving-subsystem integration tests: the continuous-batching scheduler
//! must preserve the lossless invariant (batched transcripts byte-identical
//! to sequential pipeline transcription for every policy, even when a
//! constrained KV pool forces preemption), respect FIFO admission, and
//! actually sustain concurrent in-flight sessions.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use specasr::{AdaptiveConfig, AsrPipeline, Policy, SparseTreeConfig, SpeculativeConfig};
use specasr_audio::{EncoderProfile, Split};
use specasr_models::{
    AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenLogits, UtteranceTokens,
};
use specasr_server::{AdmissionPolicy, PreemptPolicy, Scheduler, ServerConfig};
use specasr_suite::StandardSetup;
use specasr_tokenizer::TokenId;

fn serving_policies() -> Vec<Policy> {
    vec![
        Policy::Autoregressive,
        Policy::Speculative(SpeculativeConfig::short_single()),
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ]
}

fn scheduler_for(
    setup: &StandardSetup,
    config: ServerConfig,
) -> Scheduler<specasr_models::SimulatedAsrModel, specasr_models::SimulatedAsrModel> {
    Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        config,
    )
}

#[test]
fn batched_scheduling_is_lossless_for_every_policy() {
    let setup = StandardSetup::new(900, 10);
    for policy in serving_policies() {
        let pipeline = AsrPipeline::new(
            setup.draft.clone(),
            setup.target.clone(),
            EncoderProfile::whisper_medium_encoder(),
            policy,
        );
        let mut scheduler = scheduler_for(&setup, ServerConfig::default().with_max_batch(4));
        let split = setup.corpus.split(Split::TestOther);
        let mut ids = Vec::new();
        for utterance in split {
            ids.push(scheduler.submit(policy, utterance).expect("queue has room"));
        }
        let outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), split.len(), "policy {}", policy.name());
        // Compare per-request against sequential transcription of the same
        // utterance, matching on request id (completion order may differ).
        for (utterance, id) in split.iter().zip(ids) {
            let sequential = pipeline.transcribe(&setup.binding, utterance);
            let served = outcomes
                .iter()
                .find(|o| o.id == id)
                .expect("every submitted request completes");
            assert_eq!(
                served.text,
                sequential.text,
                "policy {} diverged under batched scheduling on {}",
                policy.name(),
                utterance.id()
            );
            assert_eq!(served.outcome.tokens, sequential.outcome.tokens);
            assert_eq!(served.utterance_id, utterance.id());
        }
    }
}

#[test]
fn mixed_policy_batches_stay_lossless() {
    let setup = StandardSetup::new(901, 8);
    let policies = serving_policies();
    let mut scheduler = scheduler_for(&setup, ServerConfig::default().with_max_batch(8));
    let split = setup.corpus.split(Split::DevOther);
    let mut expectations = Vec::new();
    for (index, utterance) in split.iter().enumerate() {
        let policy = policies[index % policies.len()];
        let id = scheduler.submit(policy, utterance).expect("queue has room");
        let reference = policy.decode(&setup.draft, &setup.target, &setup.binding.bind(utterance));
        expectations.push((id, reference.tokens));
    }
    let outcomes = scheduler.run_until_idle();
    for (id, reference_tokens) in expectations {
        let served = outcomes.iter().find(|o| o.id == id).expect("completed");
        assert_eq!(served.outcome.tokens, reference_tokens);
    }
}

#[test]
fn fifo_admission_is_respected() {
    let setup = StandardSetup::new(902, 12);
    let mut scheduler = scheduler_for(
        &setup,
        ServerConfig::default()
            .with_max_batch(3)
            .with_admission(AdmissionPolicy::Fifo),
    );
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let split = setup.corpus.split(Split::TestClean);
    let mut submitted = Vec::new();
    for utterance in split {
        submitted.push(scheduler.submit(policy, utterance).expect("queue has room"));
    }
    // Admission (not completion) must follow arrival order: a request may
    // only ever be admitted when every earlier request has already been
    // admitted, so queueing delay is monotonically non-decreasing in
    // submission order for same-arrival-time requests.
    let outcomes = scheduler.run_until_idle();
    let mut admit_ms: Vec<(u64, f64)> = outcomes
        .iter()
        .map(|o| (o.id.value(), o.latency.queue_ms))
        .collect();
    admit_ms.sort_by_key(|(id, _)| *id);
    for pair in admit_ms.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1 - 1e-9,
            "request {} was admitted before earlier request {} under FIFO",
            pair[1].0,
            pair[0].0
        );
    }
    assert_eq!(admit_ms.len(), submitted.len());
}

#[test]
fn scheduler_sustains_at_least_eight_concurrent_sessions() {
    let setup = StandardSetup::new(903, 12);
    let mut scheduler = scheduler_for(&setup, ServerConfig::default().with_max_batch(8));
    let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
    for utterance in setup.corpus.split(Split::TestClean) {
        scheduler.submit(policy, utterance).expect("queue has room");
    }
    // After the first tick the batch must be full.
    scheduler.tick(&mut Vec::new());
    assert!(
        scheduler.in_flight() >= 8 || scheduler.stats().peak_in_flight() >= 8,
        "batch should fill to 8 concurrent sessions"
    );
    scheduler.run_until_idle();
    assert_eq!(scheduler.stats().peak_in_flight(), 8);
    assert_eq!(scheduler.stats().completed(), 12);
    assert!(scheduler.stats().batching_speedup() > 1.0);
}

#[test]
fn constrained_pool_preemption_is_invisible_in_the_transcripts() {
    // A KV pool too small for a full batch of prefills forces admission
    // gating and mid-decode preemption; restores are deterministic
    // re-decodes, so against the sequential pipeline nothing may diverge.
    let setup = StandardSetup::new(905, 12);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pipeline = AsrPipeline::new(
        setup.draft.clone(),
        setup.target.clone(),
        EncoderProfile::whisper_medium_encoder(),
        policy,
    );
    let mut scheduler = scheduler_for(
        &setup,
        ServerConfig::default().with_max_batch(8).with_kv_blocks(28),
    );
    let split = setup.corpus.split(Split::TestClean);
    let mut ids = Vec::new();
    for utterance in split {
        ids.push(scheduler.submit(policy, utterance).expect("queue has room"));
    }
    let outcomes = scheduler.run_until_idle();
    assert_eq!(outcomes.len(), split.len());
    assert!(
        scheduler.stats().memory().preemptions() > 0,
        "a 28-block pool must preempt under a batch of 8"
    );
    assert_eq!(scheduler.stats().rejected_memory(), 0);
    for (utterance, id) in split.iter().zip(ids) {
        let sequential = pipeline.transcribe(&setup.binding, utterance);
        let served = outcomes
            .iter()
            .find(|o| o.id == id)
            .expect("every submitted request completes");
        assert_eq!(
            served.text,
            sequential.text,
            "preemption diverged the transcript of {}",
            utterance.id()
        );
        assert_eq!(served.outcome.tokens, sequential.outcome.tokens);
    }
    assert_eq!(
        scheduler.kv_pool().used_blocks(),
        0,
        "a drained scheduler must leave the pool empty"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random session lifecycles — random pool budgets (hitting admit,
    /// preempt, restore, and finish paths), both preemption policies, both
    /// admission policies, and mixed decode policies — never leak blocks
    /// (the drained pool ends at zero use) and never diverge from
    /// unconstrained serving of the same workload.
    #[test]
    fn random_lifecycles_never_leak_blocks_or_diverge(
        seed in 0u64..200,
        kv_blocks in 20usize..120,
        requests in 1usize..16,
        newest_first in any::<bool>(),
        saf in any::<bool>(),
        policy_salt in 0u64..1_000,
    ) {
        let setup = StandardSetup::new(seed, 4);
        let policies = serving_policies();
        let pool: Vec<&specasr_audio::Utterance> = Split::ALL
            .iter()
            .flat_map(|&split| setup.corpus.split(split))
            .collect();
        let config = ServerConfig::default()
            .with_max_batch(4)
            .with_queue_depth(requests.max(1))
            .with_kv_blocks(kv_blocks)
            .with_preempt_policy(if newest_first {
                PreemptPolicy::NewestAdmitted
            } else {
                PreemptPolicy::LargestKv
            })
            .with_admission(if saf {
                AdmissionPolicy::ShortestAudioFirst
            } else {
                AdmissionPolicy::Fifo
            });
        let mut constrained = scheduler_for(&setup, config);
        let mut unconstrained = scheduler_for(&setup, config.with_kv_blocks(4096));
        for index in 0..requests {
            let policy = policies[(policy_salt as usize + index) % policies.len()];
            let utterance = pool[(index * 5 + policy_salt as usize) % pool.len()];
            constrained.submit(policy, utterance).expect("queue has room");
            unconstrained.submit(policy, utterance).expect("queue has room");
        }
        let mut served = constrained.run_until_idle();
        let mut reference = unconstrained.run_until_idle();
        served.sort_by_key(|o| o.id);
        reference.sort_by_key(|o| o.id);

        // No block leaked or double-freed, whatever the lifecycle mix.
        prop_assert_eq!(constrained.kv_pool().used_blocks(), 0);
        prop_assert!(constrained.is_idle());
        // Small pools may shed requests that can never fit; everything that
        // completed must match unconstrained serving byte for byte.
        let shed = constrained.stats().rejected_memory();
        prop_assert_eq!(served.len() + shed, reference.len());
        let mut reference_by_id = reference.iter();
        for outcome in &served {
            let matching = reference_by_id
                .find(|o| o.id == outcome.id)
                .expect("completed requests exist in the reference run");
            prop_assert_eq!(&outcome.text, &matching.text);
            prop_assert_eq!(&outcome.outcome.tokens, &matching.outcome.tokens);
        }
    }
}

#[test]
fn serving_throughput_beats_one_at_a_time_serving() {
    let setup = StandardSetup::new(904, 16);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let mut results = Vec::new();
    for max_batch in [1usize, 8] {
        let mut scheduler =
            scheduler_for(&setup, ServerConfig::default().with_max_batch(max_batch));
        for utterance in setup.corpus.split(Split::TestClean) {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        scheduler.run_until_idle();
        results.push(scheduler.stats().utterances_per_second());
    }
    assert!(
        results[1] > results[0],
        "batch-8 throughput ({:.2} utt/s) must beat batch-1 ({:.2} utt/s)",
        results[1],
        results[0]
    );
}

/// Builds the token-map drafter the way a deployment would: from the
/// corpus reference transcripts, EOS-terminated.
fn token_map_for(audio: &[specasr_models::UtteranceTokens]) -> specasr::TokenMapDrafter {
    let sequences: Vec<Vec<specasr_tokenizer::TokenId>> = audio
        .iter()
        .map(|utt| {
            let mut seq = utt.reference_tokens().to_vec();
            seq.push(utt.eos());
            seq
        })
        .collect();
    let index =
        specasr_tokenizer::TokenMapIndex::build_default(sequences.iter().map(Vec::as_slice));
    specasr::TokenMapDrafter::new(std::sync::Arc::new(index))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pipelined N-wave scheduling is pure reordering of device time.
    /// Whatever the in-flight window depth (which shuffles when each wave's
    /// completions are stamped), the modeled draft budget, the
    /// policy × drafter mix, and the pool pressure (preempting sessions
    /// whose speculative submissions are then cancelled before commit),
    /// transcripts and shed sets are byte-identical to a one-wave window,
    /// which drains every tick in one grouped batch, the latency breakdowns
    /// reconcile, and the pipelined clock never loses.
    #[test]
    fn pipelined_scheduling_matches_drain_per_tick(
        seed in 0u64..100,
        kv_blocks in 24usize..96,
        requests in 2usize..14,
        depth in 2usize..7,
        draft_lanes in 0usize..3,
        salt in 0u64..1_000,
    ) {
        let setup = StandardSetup::new(seed, 4);
        let policies = serving_policies();
        let kinds = [
            specasr::DrafterKind::ModelDraft,
            specasr::DrafterKind::ModelDraft,
            specasr::DrafterKind::CtcEncoder,
            specasr::DrafterKind::TokenMap,
        ];
        let pool: Vec<&specasr_audio::Utterance> = Split::ALL
            .iter()
            .flat_map(|&split| setup.corpus.split(split))
            .collect();
        let audio: Vec<specasr_models::UtteranceTokens> =
            pool.iter().map(|utterance| setup.binding.bind(utterance)).collect();
        let base = ServerConfig::default()
            .with_max_batch(4)
            .with_queue_depth(requests)
            .with_kv_blocks(kv_blocks);
        let run = |config: ServerConfig| {
            let mut scheduler = scheduler_for(&setup, config);
            scheduler.install_drafter(std::sync::Arc::new(
                specasr_models::CtcDrafter::paired(&setup.target),
            ));
            scheduler.install_drafter(std::sync::Arc::new(token_map_for(&audio)));
            for index in 0..requests {
                let policy = policies[(salt as usize + index) % policies.len()];
                let kind = kinds[(salt as usize / 7 + index) % kinds.len()];
                let utterance = pool[(index * 3 + salt as usize) % pool.len()];
                scheduler
                    .submit_with_drafter(policy, kind, utterance)
                    .expect("queue has room");
            }
            let mut outcomes = scheduler.run_until_idle();
            outcomes.sort_by_key(|outcome| outcome.id);
            let shed = scheduler.stats().rejected_memory();
            let preempted = scheduler.stats().memory().preemptions();
            let leaked = scheduler.kv_pool().used_blocks();
            (outcomes, shed, preempted, leaked, scheduler.wall_ms())
        };
        // Both runs share the draft-lane budget so the only difference is
        // the in-flight window: one wave (depth 1) vs pipelined.
        let (reference, reference_shed, _, reference_leak, reference_wall) =
            run(base.with_max_in_flight_waves(1).with_draft_lanes(draft_lanes));
        let (served, shed, _preempted, leaked, wall) = run(
            base.with_max_in_flight_waves(depth)
                .with_draft_lanes(draft_lanes),
        );

        prop_assert_eq!(leaked, 0);
        prop_assert_eq!(reference_leak, 0);
        prop_assert_eq!(shed, reference_shed, "shed sets must not depend on the window");
        prop_assert_eq!(served.len(), reference.len());
        for (outcome, matching) in served.iter().zip(&reference) {
            prop_assert_eq!(outcome.id, matching.id);
            prop_assert_eq!(&outcome.text, &matching.text);
            prop_assert_eq!(&outcome.outcome.tokens, &matching.outcome.tokens);
            // The latency breakdown reconciles on its own clock: first
            // tokens commit no later than the final one, and end-to-end is
            // exactly its parts.
            let latency = &outcome.latency;
            prop_assert!(latency.time_to_first_token_ms <= latency.e2e_ms() + 1e-6);
            prop_assert!(latency.queue_ms >= 0.0 && latency.decode_wall_ms >= 0.0);
        }
        prop_assert!(
            wall <= reference_wall + 1e-6,
            "pipelining lost to a one-wave window: {} vs {}",
            wall,
            reference_wall
        );
    }
}

/// A one-wave window verifies every tick in exactly one grouped batch,
/// while the default window splits ticks whose drafts straggle.
#[test]
fn a_one_wave_window_submits_one_verify_batch_per_tick() {
    let setup = StandardSetup::new(31, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let serve = |config: ServerConfig| {
        let mut scheduler = scheduler_for(&setup, config);
        scheduler.install_drafter(std::sync::Arc::new(specasr_models::CtcDrafter::paired(
            &setup.target,
        )));
        for (index, utterance) in setup.corpus.split(Split::TestClean).iter().enumerate() {
            let drafter = if index % 2 == 0 {
                specasr::DrafterKind::ModelDraft
            } else {
                specasr::DrafterKind::CtcEncoder
            };
            scheduler
                .submit_with_drafter(policy, drafter, utterance)
                .expect("queue has room");
        }
        scheduler.run_until_idle();
        let stats = scheduler.stats();
        (stats.backend().verify_batches(), stats.ticks())
    };
    let (batches, ticks) = serve(ServerConfig::default().with_max_in_flight_waves(1));
    assert!(ticks > 1, "the workload spans several ticks");
    assert_eq!(batches, ticks, "one verify batch per tick at depth 1");
    let (batches, ticks) = serve(ServerConfig::default());
    assert!(
        batches > ticks,
        "the default window splits straggling ticks: {batches} batches in {ticks} ticks"
    );
}

/// A draft model that counts every query made of it.
#[derive(Debug)]
struct CountingDraft {
    model: SimulatedAsrModel,
    queries: AtomicUsize,
}

impl AsrDecoderModel for CountingDraft {
    fn profile(&self) -> &ModelProfile {
        self.model.profile()
    }

    fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.model.next_logits(audio, prefix)
    }
}

/// The draft lane counts each draft-model query as one single-probe
/// draft-step batch: the published backend counters carry exactly the
/// queries the draft model answered, for sequences, sparse trees and beam
/// trees alike.
#[test]
fn draft_lane_counters_count_every_draft_model_query() {
    let setup = StandardSetup::new(31, 6);
    for policy in [
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        Policy::Speculative(SpeculativeConfig::short_double_beam()),
    ] {
        let draft = CountingDraft {
            model: setup.draft.clone(),
            queries: AtomicUsize::new(0),
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
        let queries = scheduler.draft_model().queries.load(Ordering::Relaxed);
        let backend = scheduler.stats().backend();
        assert!(queries > 0, "{} drafts from the model", policy.name());
        assert_eq!(backend.draft_requests(), queries, "{}", policy.name());
        assert_eq!(
            backend.requests() - backend.verify_requests(),
            queries,
            "{}",
            policy.name()
        );
        assert_eq!(
            backend.batches() - backend.verify_batches(),
            queries,
            "{}",
            policy.name()
        );
    }
}
