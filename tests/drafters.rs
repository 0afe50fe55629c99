//! Draft-free speculation tests: CTC-encoder and token-map drafters must be
//! byte-identical to offline pipeline decoding under the same lossless
//! verification — for every policy, fresh or resumed after a committed
//! prefix, over unbounded and bounded pools alike — while allocating *zero*
//! draft sub-pool blocks and dispatching zero draft-lane backend work.

use std::sync::Arc;

use proptest::prelude::*;
use specasr::{
    AdaptiveConfig, DecodeSession, DraftedRound, Drafter, DrafterKind, Policy, SparseTreeConfig,
    SpeculativeConfig, TokenMapDrafter,
};
use specasr_audio::{EncoderProfile, Split};
use specasr_models::{AsrDecoderModel, CtcDrafter, UtteranceTokens};
use specasr_runtime::KvPool;
use specasr_server::{RequestSpec, Scheduler, ServerConfig};
use specasr_suite::StandardSetup;
use specasr_tokenizer::{TokenId, TokenMapIndex};

fn all_policies() -> Vec<Policy> {
    vec![
        Policy::Autoregressive,
        Policy::Speculative(SpeculativeConfig::short_single()),
        Policy::Speculative(SpeculativeConfig::short_double_beam()),
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ]
}

/// Builds the token-map index the way a deployment would: from the corpus
/// reference transcripts, EOS-terminated.
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

fn drafters_for(setup: &StandardSetup, audio: &[UtteranceTokens]) -> Vec<Box<dyn Drafter>> {
    vec![
        Box::new(CtcDrafter::paired(&setup.target)),
        Box::new(token_map_for(audio)),
    ]
}

/// Decodes one utterance with a draft-free drafter against `pool`, resuming
/// after `committed` (empty for a fresh decode), asserting after construction
/// and at every round that no draft sub-pool blocks are demanded or held.
fn decode_pooled(
    setup: &StandardSetup,
    policy: Policy,
    drafter: &dyn Drafter,
    audio: &UtteranceTokens,
    committed: &[TokenId],
    pool: &mut KvPool,
) -> Vec<TokenId> {
    let mut session = DecodeSession::new(policy, drafter.kind(), audio.clone(), committed, pool)
        .expect("the test pool admits a single session");
    assert_eq!(session.tokens(), committed);
    assert_eq!(
        pool.sub_pool_used_blocks().0,
        0,
        "a draft-free session must not prefill the draft sub-pool"
    );
    let mut drafted = DraftedRound::new();
    loop {
        session.draft_round_with(drafter, &mut drafted);
        assert_eq!(
            session.round_kv_demand(pool, &drafted).draft_blocks,
            0,
            "a draft-free round must demand no draft sub-pool blocks"
        );
        let finished = session
            .verify_round(pool, &setup.target, &drafted)
            .expect("the test pool covers the whole decode");
        assert_eq!(pool.sub_pool_used_blocks().0, 0);
        if finished {
            break;
        }
    }
    let tokens = session.tokens().to_vec();
    session.release_kv(pool);
    assert_eq!(pool.sub_pool_used_blocks(), (0, 0), "no leaked blocks");
    tokens
}

#[test]
fn draft_free_drafters_are_lossless_for_every_policy() {
    let setup = StandardSetup::new(301, 3);
    let audio = setup.binding.bind_all(setup.corpus.split(Split::TestOther));
    for drafter in drafters_for(&setup, &audio) {
        for policy in all_policies() {
            for utt in &audio {
                let reference = policy.decode(&setup.draft, &setup.target, utt).tokens;
                let mut pool = KvPool::unbounded(16);
                let got = decode_pooled(&setup, policy, drafter.as_ref(), utt, &[], &mut pool);
                assert_eq!(
                    got,
                    reference,
                    "{:?} diverged from the model-draft pipeline under {}",
                    drafter.kind(),
                    policy.name()
                );
            }
        }
    }
}

/// Draft-free sessions hold zero draft sub-pool blocks and end on the offline
/// transcript, fresh or resumed after a committed prefix (the streaming and
/// restore path, which serving only reaches with model drafts).
#[test]
fn draft_free_sessions_hold_zero_draft_sub_pool_blocks() {
    let setup = StandardSetup::new(302, 3);
    let audio = setup.binding.bind_all(setup.corpus.split(Split::DevOther));
    for drafter in drafters_for(&setup, &audio) {
        for policy in all_policies() {
            let mut pool = KvPool::bounded(256, 16);
            for utt in &audio {
                let reference = policy.decode(&setup.draft, &setup.target, utt).tokens;
                for cut in [0, 1, reference.len() / 2, reference.len()] {
                    let committed = &reference[..cut];
                    let got =
                        decode_pooled(&setup, policy, drafter.as_ref(), utt, committed, &mut pool);
                    assert_eq!(
                        got,
                        reference,
                        "{:?} under {} resumed at {cut}",
                        drafter.kind(),
                        policy.name()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random corpus/model seeds: both draft-free drafters stay
    /// byte-identical to offline pipeline decoding across every policy, over
    /// bounded and unbounded pools alike.
    #[test]
    fn draft_free_losslessness_holds_for_random_seeds(
        seed in 0u64..10_000,
        pooled in any::<bool>(),
        policy_index in 0usize..5,
    ) {
        let setup = StandardSetup::new(seed, 2);
        let audio = setup.binding.bind_all(setup.corpus.split(Split::TestClean));
        let policy = all_policies()[policy_index];
        for drafter in drafters_for(&setup, &audio) {
            for utt in &audio {
                let reference = policy.decode(&setup.draft, &setup.target, utt).tokens;
                let mut pool = if pooled {
                    KvPool::bounded(512, 16)
                } else {
                    KvPool::unbounded(16)
                };
                let got = decode_pooled(&setup, policy, drafter.as_ref(), utt, &[], &mut pool);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{:?} diverged under {}",
                    drafter.kind(),
                    policy.name()
                );
            }
        }
    }
}

/// A scheduler serving a mixed workload — the same utterances submitted under
/// all three drafter kinds — commits identical transcripts for all three and
/// dispatches draft-lane backend work only for the model-draft requests.
#[test]
fn scheduler_serves_mixed_drafter_workloads_losslessly() {
    let setup = StandardSetup::new(303, 4);
    let split = setup.corpus.split(Split::TestClean);
    let audio = setup.binding.bind_all(split);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());

    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default()
            .with_max_batch(6)
            .with_queue_depth(64),
    );
    scheduler.install_drafter(Arc::new(CtcDrafter::paired(&setup.target)));
    scheduler.install_drafter(Arc::new(token_map_for(&audio)));

    let mut expected = Vec::new();
    for utterance in split {
        let reference = setup
            .target
            .greedy_transcript(&setup.binding.bind(utterance));
        for kind in DrafterKind::ALL {
            let id = scheduler
                .submit(
                    RequestSpec {
                        drafter: kind,
                        ..policy.into()
                    },
                    utterance,
                )
                .expect("queue has room");
            expected.push((id, reference.clone()));
        }
    }
    let outcomes = scheduler.run_until_idle();
    assert_eq!(outcomes.len(), expected.len());
    for (id, reference) in expected {
        let served = outcomes.iter().find(|o| o.id == id).expect("completed");
        assert_eq!(served.outcome.tokens, reference);
    }
}

/// An all-draft-free workload drives the draft lane of the backend to exactly
/// zero requests — the capacity the scheduler wins back for verification.
#[test]
fn draft_free_workloads_dispatch_no_draft_lane_batches() {
    let setup = StandardSetup::new(304, 4);
    let split = setup.corpus.split(Split::DevClean);
    let audio = setup.binding.bind_all(split);
    let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());

    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default()
            .with_max_batch(4)
            .with_queue_depth(64),
    );
    scheduler.install_drafter(Arc::new(token_map_for(&audio)));
    for utterance in split {
        scheduler
            .submit(
                RequestSpec {
                    drafter: DrafterKind::TokenMap,
                    ..policy.into()
                },
                utterance,
            )
            .expect("queue has room");
    }
    let outcomes = scheduler.run_until_idle();
    assert_eq!(outcomes.len(), split.len());
    assert_eq!(
        scheduler.stats().backend().draft_requests(),
        0,
        "draft-free sessions must never touch the draft lane"
    );
    assert!(scheduler.stats().backend().verify_requests() > 0);
}
