//! Streaming-subsystem integration tests: chunked audio must flow through
//! the scheduler alongside offline traffic, partials must never retract a
//! committed token, and the final streamed transcript must stay
//! byte-identical to sequential pipeline transcription for every policy —
//! including under a constrained KV pool that forces preemptions of
//! streaming sessions mid-utterance.

use std::sync::Arc;

use proptest::prelude::*;
use specasr::{
    AdaptiveConfig, AsrPipeline, DrafterKind, Policy, SparseTreeConfig, SpeculativeConfig,
    TokenMapDrafter,
};
use specasr_audio::{EncoderProfile, Split, Utterance};
use specasr_models::CtcDrafter;
use specasr_server::{RequestOutcome, RequestSpec, Scheduler, ServerConfig, StreamConfig};
use specasr_suite::StandardSetup;
use specasr_tokenizer::TokenMapIndex;

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

fn pipeline_for(
    setup: &StandardSetup,
    policy: Policy,
) -> AsrPipeline<specasr_models::SimulatedAsrModel, specasr_models::SimulatedAsrModel> {
    AsrPipeline::new(
        setup.draft.clone(),
        setup.target.clone(),
        EncoderProfile::whisper_medium_encoder(),
        policy,
    )
}

/// The mixed workload of the acceptance tests below: the TestOther split,
/// every second utterance streamed in 0.4 s chunks, the policies in turn, on
/// a 12-block pool at max batch 8.  Returns each submission's id, policy,
/// utterance and whether it streamed.
fn submit_mixed_workload<'a>(
    setup: &'a StandardSetup,
    scheduler: &mut Scheduler<specasr_models::SimulatedAsrModel, specasr_models::SimulatedAsrModel>,
) -> Vec<(specasr_server::RequestId, Policy, &'a Utterance, bool)> {
    let policies = serving_policies();
    let mut expectations = Vec::new();
    for (index, utterance) in setup.corpus.split(Split::TestOther).iter().enumerate() {
        let policy = policies[index % policies.len()];
        let streamed = index % 2 == 0;
        let id = if streamed {
            scheduler
                .submit_streaming(
                    policy,
                    utterance,
                    StreamConfig::default().with_chunk_seconds(0.4),
                )
                .expect("queue has room")
        } else {
            scheduler.submit(policy, utterance).expect("queue has room")
        };
        expectations.push((id, policy, utterance, streamed));
    }
    expectations
}

/// Asserts that a stream's last partial is its final one: it commits the
/// whole transcript.
fn assert_last_partial_is_final(outcome: &RequestOutcome) {
    let last = outcome.partials.last().expect("streams emit partials");
    assert_eq!(last.committed_tokens, last.hypothesis_tokens);
    assert_eq!(last.committed_tokens as usize, outcome.token_count());
}

fn mixed_workload_config() -> ServerConfig {
    ServerConfig::default().with_max_batch(8).with_kv_blocks(12)
}

/// The headline acceptance test: mixed streaming + offline traffic on a
/// constrained pool.  Preemptions must occur, streaming partials must only
/// ever extend, and every final transcript — streamed or offline — must be
/// byte-identical to sequential pipeline transcription.
#[test]
fn mixed_streaming_and_offline_traffic_is_lossless_under_preemption() {
    let setup = StandardSetup::new(411, 8);
    let split = setup.corpus.split(Split::TestOther);

    let mut scheduler = scheduler_for(&setup, mixed_workload_config());
    let expectations = submit_mixed_workload(&setup, &mut scheduler);

    let outcomes = scheduler.run_until_idle();
    assert_eq!(outcomes.len(), split.len());
    assert!(
        scheduler.stats().memory().preemptions() > 0,
        "a 12-block pool must preempt under mixed max-batch-8 traffic"
    );
    assert_eq!(scheduler.stats().rejected_memory(), 0);
    assert_eq!(scheduler.kv_pool().used_blocks(), 0);
    assert_eq!(
        scheduler.stats().streaming_completed(),
        split.len().div_ceil(2)
    );

    for (id, policy, utterance, streamed) in expectations {
        let outcome = outcomes
            .iter()
            .find(|outcome| outcome.id == id)
            .expect("every submission completes");
        let reference = pipeline_for(&setup, policy).transcribe(&setup.binding, utterance);
        assert_eq!(
            outcome.outcome.tokens,
            reference.outcome.tokens,
            "policy {} streamed={streamed}",
            policy.name()
        );
        assert_eq!(outcome.text, reference.text);
        assert_eq!(outcome.is_streaming(), streamed);
        if streamed {
            // Partials only ever extend the committed transcript, and the
            // final partial commits exactly the offline transcript.
            for pair in outcome.partials.windows(2) {
                assert!(pair[1].committed_tokens >= pair[0].committed_tokens);
            }
            assert_last_partial_is_final(outcome);
            // Each chunk's encoder time is charged to exactly one partial.
            let charged: f64 = outcome.partials.iter().map(|span| span.encoder_ms).sum();
            let offline = EncoderProfile::whisper_medium_encoder()
                .latency_ms_for_audio(outcome.audio_seconds);
            assert!(
                (charged - offline).abs() <= 1e-9 * offline,
                "partials charged {charged} ms of encoder time for {offline} ms"
            );
        }
    }
}

/// A stream drafts from its spec's draft source, like an offline request.
/// Streams drafted by the CTC encoder or by a token map end with the
/// blocking transcript, and the draft lane serves none of their drafts.
#[test]
fn draft_free_streams_are_lossless_and_never_query_the_draft_model() {
    let setup = StandardSetup::new(42, 6);
    let split = setup.corpus.split(Split::TestOther);
    let policies = serving_policies();
    for drafter in [DrafterKind::CtcEncoder, DrafterKind::TokenMap] {
        let mut scheduler = scheduler_for(&setup, ServerConfig::default().with_max_batch(8));
        if drafter == DrafterKind::CtcEncoder {
            scheduler.install_drafter(Arc::new(CtcDrafter::paired(&setup.target)));
        } else {
            let sequences: Vec<_> = split
                .iter()
                .map(|utterance| {
                    let audio = setup.binding.bind(utterance);
                    let mut sequence = audio.reference_tokens().to_vec();
                    sequence.push(audio.eos());
                    sequence
                })
                .collect();
            let index = TokenMapIndex::build_default(sequences.iter().map(Vec::as_slice));
            scheduler.install_drafter(Arc::new(TokenMapDrafter::new(Arc::new(index))));
        }
        let mut expected = Vec::new();
        for (index, utterance) in split.iter().enumerate() {
            let policy = policies[index % policies.len()];
            let spec = RequestSpec {
                drafter,
                ..policy.into()
            };
            let id = scheduler
                .submit_streaming(
                    spec,
                    utterance,
                    StreamConfig::default().with_chunk_seconds(0.4),
                )
                .expect("queue has room");
            let reference = pipeline_for(&setup, policy).transcribe(&setup.binding, utterance);
            expected.push((id, policy, reference));
        }
        let outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), split.len(), "{}", drafter.label());
        for (id, policy, reference) in expected {
            let outcome = outcomes
                .iter()
                .find(|outcome| outcome.id == id)
                .expect("every stream completes");
            assert!(outcome.is_streaming());
            assert_last_partial_is_final(outcome);
            assert_eq!(
                outcome.outcome.tokens,
                reference.outcome.tokens,
                "{} stream under {}",
                drafter.label(),
                policy.name()
            );
            assert_eq!(outcome.text, reference.text);
        }
        assert_eq!(
            scheduler.stats().backend().draft_requests(),
            0,
            "{} streams query no draft model",
            drafter.label()
        );
    }
}

/// The same workload with the target behind the RPC wire: the client's
/// encoder keeps each context it registered, so a stream's view must never
/// change under it, and a parked stream that still shares its view builds
/// the next one in a new `Arc`.  Every outcome — text, tokens, partial
/// spans, latencies — equals the in-process run's bit for bit.
#[test]
fn mixed_traffic_over_rpc_equals_the_in_process_run() {
    let setup = StandardSetup::new(411, 8);
    let mut in_process = scheduler_for(&setup, mixed_workload_config());
    let mut rpc = Scheduler::with_rpc_target(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        mixed_workload_config(),
    );
    let submitted = submit_mixed_workload(&setup, &mut in_process);
    assert_eq!(submit_mixed_workload(&setup, &mut rpc), submitted);

    let expected = in_process.run_until_idle();
    let outcomes = rpc.run_until_idle();
    assert!(
        rpc.stats().memory().preemptions() > 0,
        "the 12-block pool must preempt over RPC too"
    );
    assert_eq!(
        rpc.stats().memory().preemptions(),
        in_process.stats().memory().preemptions()
    );
    assert!(outcomes.iter().any(|outcome| outcome.partials.len() > 2));
    assert_eq!(outcomes.len(), expected.len());
    for (outcome, expected) in outcomes.iter().zip(&expected) {
        assert_eq!(outcome.text, expected.text);
        assert_eq!(outcome.outcome.tokens, expected.outcome.tokens);
        assert_eq!(
            outcome.partials, expected.partials,
            "request {:?}",
            outcome.id
        );
        assert_eq!(outcome.latency, expected.latency);
        assert_eq!(outcome, expected);
    }
}

/// Streaming TTFT: on every utterance, the first partial must arrive before
/// the audio has even finished being spoken — the latency property that
/// justifies the subsystem.
#[test]
fn first_partials_arrive_before_the_speaker_finishes() {
    let setup = StandardSetup::new(77, 6);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let mut scheduler = scheduler_for(&setup, ServerConfig::default());
    let split = setup.corpus.split(Split::TestClean);
    for utterance in split {
        scheduler
            .submit_streaming(
                policy,
                utterance,
                StreamConfig::default().with_chunk_seconds(0.3),
            )
            .expect("queue has room");
    }
    let outcomes = scheduler.run_until_idle();
    assert_eq!(outcomes.len(), split.len());
    for outcome in &outcomes {
        assert!(
            outcome.latency.time_to_first_token_ms < outcome.audio_seconds * 1_000.0,
            "first partial at {:.0} ms must precede the end of {:.1} s of audio",
            outcome.latency.time_to_first_token_ms,
            outcome.audio_seconds
        );
    }
}

/// Streams whose chunk arithmetic rounds at the end still finish, with one
/// partial at most per chunk: 129 × 0.03 s evaluates one ulp short of 3.87 s,
/// and 4.9 / 0.7 evaluates to 7.000000000000001.
#[test]
fn streams_finish_when_the_chunk_arithmetic_rounds() {
    let setup = StandardSetup::new(411, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let base = &setup.corpus.split(Split::TestClean)[0];
    for (duration, chunk_seconds, chunks) in [(3.87, 0.03, 129), (4.9, 0.7, 7)] {
        let utterance = Utterance::new(
            base.id(),
            base.split(),
            base.transcript().to_string(),
            base.word_difficulties().to_vec(),
            duration,
        );
        let mut scheduler = scheduler_for(&setup, ServerConfig::default());
        scheduler
            .submit_streaming(
                policy,
                &utterance,
                StreamConfig::default()
                    .with_chunk_seconds(chunk_seconds)
                    .with_arrival_jitter(0.0),
            )
            .expect("queue has room");
        let mut outcomes = Vec::new();
        for _ in 0..20 * chunks {
            if scheduler.is_idle() {
                break;
            }
            scheduler.tick(&mut outcomes);
        }
        assert!(scheduler.is_idle(), "{duration} s stream never finished");
        assert_eq!(outcomes.len(), 1);
        assert_last_partial_is_final(&outcomes[0]);
        let partials = &outcomes[0].partials;
        assert!(
            partials.len() <= chunks,
            "{} partials for {chunks} chunks",
            partials.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random corpora, chunk cadences, pool budgets, and policy mixes: the
    /// scheduler's streamed transcripts always equal offline pipeline
    /// transcription, and committed partial counts never decrease.
    #[test]
    fn random_streaming_workloads_stay_lossless(
        seed in 1u64..2_000,
        chunk_ms in 200u64..1_500,
        kv_blocks in 1usize..5,
        max_batch in 1usize..6,
    ) {
        let setup = StandardSetup::new(seed, 3);
        let policies = serving_policies();
        // Budgets from generously constrained down to "every stream view
        // must wait its turn" (scaled so single requests always fit).
        let kv_blocks = kv_blocks * 16;
        let mut scheduler = scheduler_for(
            &setup,
            ServerConfig::default()
                .with_max_batch(max_batch)
                .with_kv_blocks(kv_blocks),
        );
        let split = setup.corpus.split(Split::DevOther);
        let mut submissions = Vec::new();
        for (index, utterance) in split.iter().enumerate() {
            let policy = policies[(index + seed as usize) % policies.len()];
            let id = scheduler
                .submit_streaming(
                    policy,
                    utterance,
                    StreamConfig::default()
                        .with_chunk_seconds(chunk_ms as f64 / 1_000.0)
                        .with_seed(seed),
                )
                .expect("queue has room");
            submissions.push((id, policy, utterance));
        }
        let outcomes = scheduler.run_until_idle();
        // Tight pools may shed a stream whose committed prefix outgrows the
        // budget mid-utterance; everything that completed must be lossless.
        prop_assert_eq!(
            outcomes.len() + scheduler.stats().rejected_memory(),
            split.len()
        );
        prop_assert_eq!(scheduler.kv_pool().used_blocks(), 0);
        for (id, policy, utterance) in submissions {
            let Some(outcome) = outcomes.iter().find(|o| o.id == id) else {
                continue; // shed on the tight pool
            };
            let reference = pipeline_for(&setup, policy).transcribe(&setup.binding, utterance);
            prop_assert_eq!(&outcome.outcome.tokens, &reference.outcome.tokens);
            for pair in outcome.partials.windows(2) {
                prop_assert!(pair[1].committed_tokens >= pair[0].committed_tokens);
            }
        }
    }
}
