//! Backend-API equivalence tests: decoding through the batched
//! submit/poll [`AsrBackend`] path — with cross-session batches,
//! arbitrary interleavings, and out-of-order completion draining — must
//! produce byte-identical outcomes to direct [`AsrDecoderModel`] decoding.
//!
//! This is the contract the serving scheduler relies on: the models are
//! pure, every verification probe is pre-scored by one forward pass, and the
//! acceptance walk reads the same distributions whichever way they were
//! computed — so batching shape, submission order, and completion order must
//! all be unobservable in the transcript.

use proptest::prelude::*;
use specasr::{
    AdaptiveConfig, DecodeSession, DraftedRound, DrafterKind, Policy, SparseTreeConfig,
    SpeculativeConfig,
};
use specasr_audio::Split;
use specasr_models::{
    splitmix64, AsrBackend, AsrDecoderModel, BackendBatch, Completions, ForwardResult,
    InFlightSimBackend, Ticket, TokenLogits, UtteranceTokens,
};
use specasr_runtime::KvPool;
use specasr_suite::StandardSetup;

fn policies() -> Vec<Policy> {
    vec![
        Policy::Autoregressive,
        Policy::Speculative(SpeculativeConfig::short_single()),
        Policy::Speculative(SpeculativeConfig::short_double_beam()),
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ]
}

/// Deterministic in-place shuffle driven by splitmix64.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Starts a model-draft session whose blocks live in the shared `pool`.
fn start(policy: Policy, audio: UtteranceTokens, pool: &mut KvPool) -> DecodeSession {
    DecodeSession::new(policy, DrafterKind::ModelDraft, audio, &[], pool).expect("pool has room")
}

/// Drives every session to completion through a shared target backend:
/// drafts from the draft model in a rotated per-round order, verification
/// submitted as cross-session batches of `group_size` through one reused
/// batch, completions drained with `poll` into one reused buffer and
/// committed in a shuffled order.  Finished sessions release their blocks
/// into `pool`.  Returns the transcripts by session index.
fn decode_all_via_backend(
    setup: &StandardSetup,
    sessions: &mut Vec<(usize, DecodeSession)>,
    pool: &mut KvPool,
    group_size: usize,
    order_seed: u64,
) -> Vec<(usize, Vec<specasr_tokenizer::TokenId>)> {
    let mut target_backend = InFlightSimBackend::new(setup.target.clone()).with_lanes(0);
    let target_latency = setup.target.profile().latency().clone();
    let mut batch = BackendBatch::new();
    let mut completions = Completions::new();
    let mut transcripts = Vec::new();
    // One round buffer per position, kept across rounds: the rotation hands
    // each position to a different session from round to round.
    let mut drafted: Vec<DraftedRound> = Vec::new();
    let mut round = 0u64;
    while !sessions.is_empty() {
        // Draft phase in a per-round rotated order.
        let rotation = (splitmix64(order_seed ^ round) % sessions.len() as u64) as usize;
        sessions.rotate_left(rotation);
        if drafted.len() < sessions.len() {
            drafted.resize_with(sessions.len(), DraftedRound::new);
        }
        for ((_, session), slot) in sessions.iter_mut().zip(drafted.iter_mut()) {
            session.draft_round(&setup.draft, slot);
        }

        // Verification: cross-session batches of `group_size`, submitted in
        // order, drained in one poll, committed in a shuffled order.
        let mut tickets: Vec<Ticket> = Vec::with_capacity(sessions.len());
        for chunk_start in (0..sessions.len()).step_by(group_size) {
            batch.clear();
            for index in chunk_start..(chunk_start + group_size).min(sessions.len()) {
                sessions[index]
                    .1
                    .verify_request(&drafted[index], &mut batch);
            }
            tickets.extend(target_backend.submit(&batch, round as f64).iter());
        }
        target_backend.poll(&mut completions);
        let mut results: Vec<(&ForwardResult, &[TokenLogits])> = completions.iter().collect();
        shuffle(&mut results, splitmix64(order_seed) ^ round);
        let mut commit_order: Vec<usize> = (0..sessions.len()).collect();
        shuffle(&mut commit_order, order_seed ^ (round << 7));
        let mut scored: Vec<Option<&[TokenLogits]>> = vec![None; sessions.len()];
        for (result, logits) in results {
            let position = tickets
                .iter()
                .position(|&t| t == result.ticket)
                .expect("every completion answers a submitted ticket");
            scored[position] = Some(logits);
        }
        for index in commit_order {
            let logits = scored[index].take().expect("scored above");
            let (_, session) = &mut sessions[index];
            session
                .verify_round_from(pool, &target_latency, logits, &drafted[index])
                .expect("pool has room");
        }
        let mut index = 0;
        while index < sessions.len() {
            if sessions[index].1.is_finished() {
                let (id, mut session) = sessions.remove(index);
                session.release_kv(pool);
                transcripts.push((id, session.into_outcome().tokens));
            } else {
                index += 1;
            }
        }
        round += 1;
    }
    transcripts
}

/// The deterministic smoke version: all policies, one batch per round.
#[test]
fn backend_batched_decoding_matches_direct_decoding_for_all_policies() {
    let setup = StandardSetup::new(99, 4);
    let split = setup.corpus.split(Split::TestClean);
    let mut pool = KvPool::bounded(4096, 16);
    let mut sessions = Vec::new();
    let mut references = Vec::new();
    for (index, utterance) in split.iter().enumerate() {
        let policy = policies()[index % policies().len()];
        let audio = setup.binding.bind(utterance);
        references.push(policy.decode(&setup.draft, &setup.target, &audio).tokens);
        sessions.push((index, start(policy, audio, &mut pool)));
    }
    let transcripts = decode_all_via_backend(&setup, &mut sessions, &mut pool, usize::MAX, 7);
    for (index, tokens) in transcripts {
        assert_eq!(tokens, references[index], "session {index}");
    }
    assert_eq!(pool.used_blocks(), 0, "finished sessions leave no blocks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random corpora, random per-session policies, random cross-session
    /// batch groupings, and shuffled completion/commit orders: transcripts
    /// through the backend path are always byte-identical to direct
    /// decoding.
    #[test]
    fn adapter_wrapped_models_decode_byte_identically(
        seed in 1u64..2_000,
        policy_offset in 0usize..5,
        group_size in 1usize..7,
        order_seed in 0u64..1_000_000,
    ) {
        let setup = StandardSetup::new(seed, 3);
        let split = setup.corpus.split(Split::DevClean);
        let menu = policies();
        let mut pool = KvPool::bounded(4096, 16);
        let mut sessions = Vec::new();
        let mut references = Vec::new();
        for (index, utterance) in split.iter().enumerate() {
            let policy = menu[(index + policy_offset) % menu.len()];
            let audio = setup.binding.bind(utterance);
            references.push(policy.decode(&setup.draft, &setup.target, &audio).tokens);
            sessions.push((index, start(policy, audio, &mut pool)));
        }
        let transcripts =
            decode_all_via_backend(&setup, &mut sessions, &mut pool, group_size, order_seed);
        prop_assert_eq!(transcripts.len(), references.len());
        for (index, tokens) in transcripts {
            prop_assert_eq!(&tokens, &references[index], "session {}", index);
        }
        prop_assert_eq!(pool.used_blocks(), 0);
    }
}
