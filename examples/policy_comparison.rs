//! Policy anatomy: decode the same noisy utterance with every policy and dump
//! the per-round statistics (predicted / accepted / recycled tokens, tree
//! sizes, truncations), making the mechanics behind the speedups visible.
//!
//! Run with: `cargo run --release --example policy_comparison`

use specasr::{
    AdaptiveConfig, DecodeSession, DraftedRound, DrafterKind, Policy, RoundRecord,
    SparseTreeConfig, SpeculativeConfig,
};
use specasr_audio::Split;
use specasr_runtime::KvPool;
use specasr_suite::StandardSetup;

fn main() {
    let setup = StandardSetup::new(13, 6);
    // Pick the noisiest utterance of test-other so that rejections, recycling,
    // and branching all actually happen.
    let utterance = setup
        .corpus
        .split(Split::TestOther)
        .iter()
        .max_by(|a, b| {
            a.mean_difficulty()
                .partial_cmp(&b.mean_difficulty())
                .expect("difficulties are finite")
        })
        .expect("split is non-empty");
    let audio = setup.binding.bind(utterance);
    println!(
        "utterance {} ({:.1} s, mean difficulty {:.2})\n",
        utterance.id(),
        utterance.duration_seconds(),
        utterance.mean_difficulty()
    );

    let policies = [
        Policy::Speculative(SpeculativeConfig::short_single()),
        Policy::Speculative(SpeculativeConfig::long_single()),
        Policy::Speculative(SpeculativeConfig::short_double_beam()),
        Policy::AdaptiveSingleSequence(AdaptiveConfig::without_recycling()),
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ];

    let mut round = DraftedRound::new();
    for policy in policies {
        // The loop `Policy::decode` runs, stepped here so each round's
        // numbers are the session's counters taken across it.
        let mut pool = KvPool::unbounded(16);
        let mut session = DecodeSession::new(
            policy,
            DrafterKind::ModelDraft,
            audio.clone(),
            &[],
            &mut pool,
        )
        .expect("an unbounded pool always admits");
        let mut rounds = Vec::new();
        while !session.is_finished() {
            let before = *session.stats();
            session
                .step(&mut pool, &setup.draft, &setup.target, &mut round)
                .expect("an unbounded pool never exhausts");
            let after = session.stats();
            rounds.push(RoundRecord {
                predicted: after.predicted_tokens - before.predicted_tokens,
                accepted: after.accepted_tokens - before.accepted_tokens,
                draft_steps: after.draft_steps - before.draft_steps,
                recycled: after.recycled_tokens - before.recycled_tokens,
                truncated: after.truncations > before.truncations,
            });
        }
        let outcome = session.into_outcome();
        let stats = &outcome.stats;
        println!(
            "{:<26} rounds {:>2}  draft-steps {:>3}  predicted/round {:>5.1}  accepted/round {:>5.1}  acceptance {:>5.1} %  recycled {:>2}  draft {:>6.1} ms  target {:>6.1} ms",
            policy.name(),
            stats.rounds,
            stats.draft_steps,
            stats.predicted_per_round(),
            stats.accepted_per_round(),
            stats.acceptance_ratio() * 100.0,
            stats.recycled_tokens,
            outcome.latency().draft_ms,
            outcome.latency().target_ms,
        );
        // A speculative round verifies a tree of every token it predicted.
        for (i, round) in rounds.iter().enumerate() {
            println!(
                "    round {:>2}: predicted {:>2}  accepted {:>2}  tree {:>2}  recycled {:>2}{}",
                i + 1,
                round.predicted,
                round.accepted,
                round.predicted,
                round.recycled,
                if round.truncated { "  (truncated)" } else { "" }
            );
        }
        println!();
    }
}
