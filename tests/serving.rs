//! Serving-subsystem integration tests: the continuous-batching scheduler
//! must preserve the lossless invariant (batched transcripts byte-identical
//! to sequential pipeline transcription for every policy, even when a
//! constrained KV pool forces preemption), respect FIFO admission, and
//! actually sustain concurrent in-flight sessions.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use specasr::{
    AdaptiveConfig, AsrPipeline, DrafterKind, Policy, SparseTreeConfig, SpeculativeConfig,
};
use specasr_audio::{EncoderProfile, Split};
use specasr_models::{
    AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenLogits, UtteranceTokens,
};
use specasr_server::{
    AdmissionOrdering, AdmissionPolicy, FlightRecording, PreemptPolicy, RequestOutcome,
    RequestSpec, Scheduler, ServerConfig, StreamConfig, TraceConfig, TraceEvent,
};
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

/// A served request hands back the decode record a blocking decode of the
/// same utterance returns, less its device-time clock: with no preemption,
/// its tokens and round statistics equal `AsrPipeline::transcribe`'s under
/// every policy.
#[test]
fn a_served_request_hands_back_the_blocking_tokens_and_statistics() {
    let setup = StandardSetup::new(900, 10);
    let split = setup.corpus.split(Split::TestOther);
    for policy in serving_policies() {
        let name = policy.name();
        let pipeline = AsrPipeline::new(
            setup.draft.clone(),
            setup.target.clone(),
            EncoderProfile::whisper_medium_encoder(),
            policy,
        );
        let mut scheduler = scheduler_for(&setup, ServerConfig::default().with_max_batch(4));
        for utterance in split {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        let outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), split.len(), "{name}");
        for served in &outcomes {
            assert_eq!(served.preemptions, 0, "{name}");
            let utterance = split
                .iter()
                .find(|u| u.id() == served.utterance_id)
                .expect("every outcome is a submitted utterance");
            let blocking = pipeline.transcribe(&setup.binding, utterance).outcome;
            assert_eq!(served.outcome.tokens, blocking.tokens, "{name}");
            assert_eq!(served.outcome.stats, blocking.stats, "{name}");
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

/// Checks the causal lifecycle invariants of one traced serve: arrival ≤
/// every admission ≤ first token ≤ completion, every partial no earlier
/// than its chunk's arrival, every stream admission no earlier than its
/// newest chunk and its last partial, every restore no earlier than its
/// eviction, and never more than `max_batch` requests admitted and not yet
/// left the batch at any instant.
fn check_causal_lifecycles(
    events: &[TraceEvent],
    outcomes: &[RequestOutcome],
    max_batch: usize,
) -> Result<(), TestCaseError> {
    let mut arrived = HashMap::new();
    let mut heard = HashMap::new();
    let mut emitted = HashMap::new();
    let mut evicted = HashMap::new();
    let mut admitted = HashMap::new();
    let mut completed = HashMap::new();
    // (instant, +1 joins the batch / -1 leaves it)
    let mut occupancy: Vec<(f64, i32)> = Vec::new();
    let mut held = HashSet::new();
    for event in events {
        let left = match *event {
            TraceEvent::RequestSubmitted { ts_ms, request, .. } => {
                arrived.entry(request).or_insert(ts_ms);
                None
            }
            TraceEvent::ChunkArrived { ts_ms, request, .. } => {
                heard.insert(request, ts_ms);
                None
            }
            TraceEvent::RequestAdmitted {
                ts_ms,
                request,
                restored,
                ..
            } => {
                prop_assert!(
                    ts_ms >= arrived[&request],
                    "{request} admitted before it arrived"
                );
                prop_assert!(
                    ts_ms >= heard.get(&request).copied().unwrap_or(0.0),
                    "{request} admitted before its chunk arrived"
                );
                prop_assert!(
                    ts_ms >= emitted.get(&request).copied().unwrap_or(0.0),
                    "{request} admitted before its last partial"
                );
                if restored {
                    prop_assert!(
                        ts_ms >= evicted[&request],
                        "{request} restored before its eviction"
                    );
                }
                admitted.entry(request).or_insert_with(Vec::new).push(ts_ms);
                held.insert(request);
                occupancy.push((ts_ms, 1));
                None
            }
            TraceEvent::PartialEmitted { ts_ms, request, .. } => {
                emitted.insert(request, ts_ms);
                Some((request, ts_ms))
            }
            TraceEvent::KvPreempt { ts_ms, request, .. } => {
                evicted.insert(request, ts_ms);
                Some((request, ts_ms))
            }
            TraceEvent::RequestShed {
                ts_ms,
                request: Some(request),
                ..
            } => Some((request, ts_ms)),
            TraceEvent::RequestCompleted { ts_ms, request, .. } => {
                completed.insert(request, ts_ms);
                Some((request, ts_ms))
            }
            _ => None,
        };
        // A request leaves the batch at the first of these after its
        // admission: a partial, an eviction, a shed or its completion.
        if let Some((request, at)) = left {
            if held.remove(&request) {
                occupancy.push((at, -1));
            }
        }
    }
    prop_assert!(held.is_empty(), "requests left in the batch: {held:?}");
    // A slot handed over at one instant is left before it is taken.
    occupancy.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut in_batch = 0;
    for (at, change) in occupancy {
        in_batch += change;
        prop_assert!(
            in_batch <= max_batch as i32,
            "{in_batch} requests in a batch of {max_batch} at {at} ms"
        );
    }
    for outcome in outcomes {
        let request = outcome.id.value();
        let admissions = &admitted[&request];
        // Latency spans anchor on a stream's first admission and on an
        // offline request's last (a preempted one restarts).
        let anchor = if outcome.is_streaming() {
            admissions[0]
        } else {
            *admissions.last().expect("a served request was admitted")
        };
        let first_token = match outcome.partials.first() {
            Some(partial) => partial.emitted_ms,
            None => {
                arrived[&request] + outcome.latency.time_to_first_token_ms
                    - outcome.latency.encoder_ms
            }
        };
        prop_assert!(
            anchor <= first_token + 1e-9,
            "{request}: first token before admission"
        );
        prop_assert!(
            first_token <= completed[&request] + 1e-9,
            "{request}: first token after completion"
        );
        for (index, partial) in outcome.partials.iter().enumerate() {
            prop_assert!(
                partial.emitted_ms >= partial.chunk_arrival_ms,
                "{request}: partial {index} before its chunk"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random session lifecycles — random pool budgets (hitting admit,
    /// preempt, restore, and finish paths), both preemption policies, all
    /// three admission orders over mixed TTFT budgets, mixed decode
    /// policies and drafters (each drafter with and without a budget),
    /// in-flight windows of one to six waves, streams of every drafter
    /// among offline requests, and staggered arrivals — never leak blocks
    /// (the drained pool ends at zero use), never lose a request, never
    /// diverge from a blocking decode, and keep every admission and
    /// retirement causal (see `check_causal_lifecycles`).
    #[test]
    fn random_lifecycles_never_leak_blocks_or_diverge(
        seed in 0u64..200,
        kv_blocks in 16usize..80,
        requests in 1usize..16,
        newest_first in any::<bool>(),
        order in 0usize..3,
        depth in 1usize..7,
        stream_every in 0usize..4,
        gap_ms in 0u64..200,
        salt in 0u64..1_000,
    ) {
        let setup = StandardSetup::new(seed, 4);
        let policies = serving_policies();
        let kinds = [
            DrafterKind::ModelDraft,
            DrafterKind::ModelDraft,
            DrafterKind::CtcEncoder,
            DrafterKind::TokenMap,
        ];
        let budgets = [None, Some(300.0), Some(2_000.0), None];
        let pool: Vec<&specasr_audio::Utterance> = Split::ALL
            .iter()
            .flat_map(|&split| setup.corpus.split(split))
            .collect();
        let audio: Vec<UtteranceTokens> =
            pool.iter().map(|utterance| setup.binding.bind(utterance)).collect();
        let config = ServerConfig::default()
            .with_max_batch(4)
            .with_queue_depth(requests.max(1))
            .with_kv_blocks(kv_blocks)
            .with_max_in_flight_waves(depth)
            .with_preempt_policy(if newest_first {
                PreemptPolicy::NewestAdmitted
            } else {
                PreemptPolicy::LargestKv
            })
            .with_admission(if order == 1 {
                AdmissionPolicy::ShortestAudioFirst
            } else {
                AdmissionPolicy::Fifo
            })
            .with_ordering(if order == 2 {
                AdmissionOrdering::EarliestDeadlineFirst
            } else {
                AdmissionOrdering::Queue
            });
        let mut scheduler = scheduler_for(&setup, config);
        scheduler.install_drafter(std::sync::Arc::new(
            specasr_models::CtcDrafter::paired(&setup.target),
        ));
        scheduler.install_drafter(std::sync::Arc::new(token_map_for(&audio)));
        scheduler.set_trace(TraceConfig::enabled());
        let mut served = Vec::new();
        let mut expected = HashMap::new();
        for index in 0..requests {
            served.extend(scheduler.advance_to((index as u64 * gap_ms) as f64));
            let policy = policies[(salt as usize + index) % policies.len()];
            let at = (index * 5 + salt as usize) % pool.len();
            // Drafter, budget and stream kind are drawn independently, so
            // draft-free budgeted requests and draft-free streams occur.
            let spec = RequestSpec {
                drafter: kinds[(salt as usize / 7 + index) % kinds.len()],
                ttft_budget_ms: budgets[(salt as usize / 3 + index) % budgets.len()],
                ..policy.into()
            };
            let id = if stream_every > 0 && index % stream_every == 0 {
                scheduler.submit_streaming(spec, pool[at], StreamConfig::default())
            } else {
                scheduler.submit(spec, pool[at])
            }
            .expect("queue has room");
            expected.insert(id, policy.decode(&setup.draft, &setup.target, &audio[at]).tokens);
        }
        served.extend(scheduler.run_until_idle());

        // No block leaked or double-freed, whatever the lifecycle mix.
        prop_assert_eq!(scheduler.kv_pool().used_blocks(), 0);
        prop_assert!(scheduler.is_idle());
        // Small pools may shed requests that can never fit, and budgets
        // shed requests that waited too long; everything else completes,
        // byte for byte what a blocking decode produces.
        let stats = scheduler.stats();
        prop_assert_eq!(
            served.len() + stats.rejected_memory() + stats.rejected_deadline(),
            requests
        );
        for outcome in &served {
            prop_assert_eq!(&outcome.outcome.tokens, &expected[&outcome.id]);
        }
        let events: Vec<TraceEvent> = scheduler
            .take_trace_recording()
            .expect("tracing is on")
            .events()
            .cloned()
            .collect();
        check_causal_lifecycles(&events, &served, config.max_batch)?;
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
                    .submit(RequestSpec { drafter: kind, ..policy.into() }, utterance)
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

/// A one-wave window verifies every tick in exactly one grouped batch.  At
/// the default window a straggler's round is verified in a later tick than
/// the one that drafted it, and every round is still drafted exactly once:
/// the draft model answers as many queries as at depth 1.
#[test]
fn a_one_wave_window_submits_one_verify_batch_per_tick() {
    let setup = StandardSetup::new(31, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let serve = |config: ServerConfig| {
        let mut scheduler = scheduler_for(&setup, config);
        scheduler.set_trace(TraceConfig::enabled().with_capacity(1 << 20));
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
                .submit(
                    RequestSpec {
                        drafter,
                        ..policy.into()
                    },
                    utterance,
                )
                .expect("queue has room");
        }
        scheduler.run_until_idle();
        let recording = scheduler
            .take_trace_recording()
            .expect("tracing was enabled");
        let carried = carried_rounds(recording.events());
        let stats = scheduler.stats();
        let backend = stats.backend();
        (
            backend.verify_batches(),
            stats.ticks(),
            carried,
            backend.draft_requests(),
        )
    };
    let (batches, ticks, carried, queries) =
        serve(ServerConfig::default().with_max_in_flight_waves(1));
    assert!(ticks > 1, "the workload spans several ticks");
    assert_eq!(batches, ticks, "one verify batch per tick at depth 1");
    assert_eq!(
        carried, 0,
        "a one-wave window verifies every round it drafts"
    );
    let (_, _, pipelined_carried, pipelined_queries) = serve(ServerConfig::default());
    assert!(
        pipelined_carried > 0,
        "the default window carries a straggler's round to a later tick"
    );
    assert_eq!(
        pipelined_queries, queries,
        "a carried round is never drafted again"
    );
}

/// How many rounds of a serve without preemption were verified in a later
/// tick than the one that drafted them: each request drafts and verifies
/// its rounds once each, in order.
fn carried_rounds<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> usize {
    let mut drafted_in: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut verified_in: HashMap<u64, Vec<u64>> = HashMap::new();
    for event in events {
        match *event {
            TraceEvent::DraftPhase { tick, request, .. } => {
                drafted_in.entry(request).or_default().push(tick);
            }
            TraceEvent::VerifyOutcome { tick, request, .. } => {
                verified_in.entry(request).or_default().push(tick);
            }
            _ => {}
        }
    }
    let mut carried = 0;
    for (request, drafts) in &drafted_in {
        let verifies = &verified_in[request];
        assert_eq!(drafts.len(), verifies.len(), "request {request}");
        for (drafted, verified) in drafts.iter().zip(verifies) {
            assert!(verified >= drafted, "request {request}");
            carried += usize::from(verified > drafted);
        }
    }
    carried
}

/// The policy × drafter mix of the deferral tests: ASP and TSP, each over
/// the draft model, CTC and the token map.
fn mixed_specs() -> Vec<RequestSpec> {
    let asp = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let tsp = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
    [
        DrafterKind::ModelDraft,
        DrafterKind::CtcEncoder,
        DrafterKind::TokenMap,
    ]
    .into_iter()
    .flat_map(|drafter| {
        [asp, tsp].map(|policy| RequestSpec {
            drafter,
            ..policy.into()
        })
    })
    .collect()
}

/// Serves `requests` utterances cycling [`mixed_specs`] at `config`, with
/// the CTC and token-map drafters installed and the recorder on, and
/// returns the outcomes by request id, the recording and the scheduler.
fn serve_mixed(
    setup: &StandardSetup,
    config: ServerConfig,
    requests: usize,
) -> (
    Vec<RequestOutcome>,
    FlightRecording,
    Scheduler<SimulatedAsrModel, SimulatedAsrModel>,
) {
    let pool: Vec<&specasr_audio::Utterance> = Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect();
    let audio: Vec<UtteranceTokens> = pool
        .iter()
        .map(|utterance| setup.binding.bind(utterance))
        .collect();
    let mut scheduler = scheduler_for(setup, config.with_queue_depth(requests));
    scheduler.set_trace(TraceConfig::enabled().with_capacity(1 << 20));
    scheduler.install_drafter(std::sync::Arc::new(specasr_models::CtcDrafter::paired(
        &setup.target,
    )));
    scheduler.install_drafter(std::sync::Arc::new(token_map_for(&audio)));
    let specs = mixed_specs();
    for index in 0..requests {
        scheduler
            .submit(specs[index % specs.len()], pool[index % pool.len()])
            .expect("queue has room");
    }
    let mut outcomes = scheduler.run_until_idle();
    assert_eq!(outcomes.len(), requests);
    outcomes.sort_by_key(|outcome| outcome.id);
    let recording = scheduler
        .take_trace_recording()
        .expect("tracing was enabled");
    (outcomes, recording, scheduler)
}

/// A tick that leaves later cohorts' rounds for the next tick moves only
/// when rounds run: for a batch mixing ASP and TSP over model, CTC and
/// token-map drafting, each request's tokens and statistics at the default
/// window equal those at a one-wave window, which defers nothing.
#[test]
fn deferred_rounds_leave_every_requests_tokens_and_statistics_unchanged() {
    let setup = StandardSetup::new(31, 8);
    let config = ServerConfig::default().with_max_batch(8);
    let (reference, one_wave, _) = serve_mixed(&setup, config.with_max_in_flight_waves(1), 24);
    let (deferred, recording, _) = serve_mixed(&setup, config, 24);
    assert_eq!(carried_rounds(one_wave.events()), 0);
    assert!(
        carried_rounds(recording.events()) > 0,
        "the default window carries rounds to later ticks"
    );
    for (served, matching) in deferred.iter().zip(&reference) {
        assert_eq!(served.id, matching.id);
        assert_eq!(served.outcome, matching.outcome, "request {}", served.id);
    }
}

/// How many sessions were evicted while they kept a drafted round that no
/// wave had submitted: a round deferred to a later tick.
fn deferred_evictions<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> usize {
    let mut unsubmitted = HashSet::new();
    let mut evicted = 0;
    for event in events {
        match event {
            TraceEvent::DraftPhase { request, .. } => {
                unsubmitted.insert(*request);
            }
            TraceEvent::VerifyWaveSubmitted { requests, .. } => {
                for request in requests {
                    unsubmitted.remove(request);
                }
            }
            TraceEvent::KvPreempt { request, .. } => {
                evicted += usize::from(unsubmitted.remove(request));
            }
            _ => {}
        }
    }
    evicted
}

/// A session evicted while it keeps a round for the next tick drops the
/// round: its restore re-drafts from the committed prefix, and its tokens
/// and statistics are those of a one-wave window on a pool that never
/// preempts.
#[test]
fn a_preempted_session_holding_a_deferred_round_restores_losslessly() {
    let setup = StandardSetup::new(31, 8);
    let config = ServerConfig::default().with_max_batch(8);
    let (outcomes, recording, scheduler) = serve_mixed(&setup, config.with_kv_blocks(24), 24);
    assert!(
        deferred_evictions(recording.events()) > 0,
        "a 24-block pool evicts a session that keeps a deferred round"
    );
    assert_eq!(scheduler.stats().rejected_memory(), 0);
    assert_eq!(scheduler.kv_pool().used_blocks(), 0);
    let (reference, _, reference_scheduler) =
        serve_mixed(&setup, config.with_max_in_flight_waves(1), 24);
    assert_eq!(reference_scheduler.stats().memory().preemptions(), 0);
    for (served, matching) in outcomes.iter().zip(&reference) {
        assert_eq!(served.id, matching.id);
        assert_eq!(served.outcome, matching.outcome, "request {}", served.id);
    }
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
