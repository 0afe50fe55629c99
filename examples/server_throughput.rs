//! Serving demo: the same request stream served one-at-a-time versus with
//! continuous batching, showing the throughput and latency trade-off and one
//! request's full lifecycle breakdown.
//!
//! Run with: `cargo run --release --example server_throughput`

use specasr::{AdaptiveConfig, Policy, SparseTreeConfig};
use specasr_audio::{EncoderProfile, Split};
use specasr_suite::prelude::{Scheduler, ServerConfig};
use specasr_suite::StandardSetup;

fn main() {
    let setup = StandardSetup::new(7, 16);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());

    println!(
        "serving {} test-clean utterances under {}\n",
        16,
        policy.name()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "batch", "utt/s", "tokens/s", "p50 ms", "p99 ms", "batch speedup"
    );

    for max_batch in [1usize, 2, 4, 8, 16] {
        let mut scheduler = Scheduler::new(
            setup.draft.clone(),
            setup.target.clone(),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            ServerConfig::default().with_max_batch(max_batch),
        );
        for utterance in setup.corpus.split(Split::TestClean) {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        scheduler.run_until_idle();
        let stats = scheduler.stats();
        let e2e = stats.e2e_histogram();
        println!(
            "{:<12} {:>12.2} {:>12.1} {:>12.1} {:>12.1} {:>13.2}x",
            max_batch,
            stats.utterances_per_second(),
            stats.tokens_per_second(),
            e2e.percentile(0.50),
            e2e.percentile(0.99),
            stats.batching_speedup(),
        );
    }

    // One request's lifecycle under a mixed-policy batch.
    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default(),
    );
    let split = setup.corpus.split(Split::TestOther);
    let mut submitted = Vec::new();
    for (index, utterance) in split.iter().enumerate() {
        let policy = if index % 2 == 0 {
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper())
        } else {
            Policy::TwoPassSparseTree(SparseTreeConfig::paper())
        };
        let id = scheduler.submit(policy, utterance).expect("queue has room");
        submitted.push((id, policy));
    }
    let outcomes = scheduler.run_until_idle();
    let sample = &outcomes[outcomes.len() / 2];
    let (_, policy) = submitted
        .iter()
        .find(|(id, _)| *id == sample.id)
        .expect("the sample was submitted above");
    println!(
        "\nsample request lifecycle ({} under {}):",
        sample.id,
        policy.name()
    );
    println!("  queued       {:>8.1} ms", sample.latency.queue_ms);
    println!("  encoder      {:>8.1} ms", sample.latency.encoder_ms);
    println!("  decode wall  {:>8.1} ms", sample.latency.decode_wall_ms);
    println!(
        "  first token  {:>8.1} ms after arrival",
        sample.latency.time_to_first_token_ms
    );
    println!("  end to end   {:>8.1} ms", sample.e2e_ms());
    println!(
        "  transcript   {:?} ({} tokens, {:.1} s of audio)",
        sample.text,
        sample.token_count(),
        sample.audio_seconds
    );
}
