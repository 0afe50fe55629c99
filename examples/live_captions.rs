//! Live captioning demo: one utterance streamed chunk by chunk through the
//! serving scheduler, printing every partial transcript as it is emitted —
//! committed (stable) text plus the still-unstable hypothesis tail — and
//! showing that the final transcript is byte-identical to offline decoding.
//!
//! Run with: `cargo run --release --example live_captions`

use specasr::{AdaptiveConfig, AsrPipeline, Policy};
use specasr_audio::{EncoderProfile, Split};
use specasr_server::{Scheduler, ServerConfig, StreamConfig};
use specasr_suite::StandardSetup;

fn main() {
    let setup = StandardSetup::new(33, 8);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let utterance = setup
        .corpus
        .split(Split::TestClean)
        .iter()
        .max_by(|a, b| {
            a.duration_seconds()
                .partial_cmp(&b.duration_seconds())
                .expect("durations are finite")
        })
        .expect("split is non-empty");

    println!(
        "streaming {:.1} s of audio in 0.4 s chunks under {}\n",
        utterance.duration_seconds(),
        policy.name()
    );

    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default(),
    );
    scheduler
        .submit_streaming(
            policy,
            utterance,
            StreamConfig::default().with_chunk_seconds(0.4),
        )
        .expect("queue has room");

    let outcome = scheduler
        .run_until_idle()
        .pop()
        .expect("the stream completes");

    println!(
        "{:>8} {:>10} {:>10} {:>10}  partial transcript (committed | unstable)",
        "wall ms", "chunk ms", "span ms", "stable"
    );
    // A span's position is its partial index, and the last is final.
    let last = outcome.partials.len() - 1;
    for (index, partial) in outcome.partials.iter().enumerate() {
        let tokens = &outcome.outcome.tokens;
        let committed = setup
            .binding
            .tokenizer()
            .decode(&tokens[..(partial.committed_tokens as usize).min(tokens.len())])
            .expect("transcript tokens decode");
        let marker = if index == last { " (final)" } else { "" };
        println!(
            "{:>8.0} {:>10.0} {:>10.0} {:>7}/{:<3}  {}{}",
            partial.emitted_ms,
            partial.chunk_arrival_ms,
            partial.span_ms(),
            partial.committed_tokens,
            partial.hypothesis_tokens,
            committed,
            marker
        );
    }

    let offline = AsrPipeline::new(
        setup.draft.clone(),
        setup.target.clone(),
        EncoderProfile::whisper_medium_encoder(),
        policy,
    )
    .transcribe(&setup.binding, utterance);
    assert_eq!(outcome.text, offline.text, "streaming is lossless");

    println!("\nfinal transcript: {}", outcome.text);
    println!(
        "first partial after {:.0} ms; final transcript after {:.0} ms \
         ({:.1} s of audio); retractions: {} of {} shown tokens; \
         byte-identical to the offline decode: yes",
        outcome.latency.time_to_first_token_ms,
        outcome.e2e_ms(),
        outcome.audio_seconds,
        outcome
            .partials
            .iter()
            .map(|p| p.retracted_tokens)
            .sum::<u32>(),
        outcome
            .partials
            .iter()
            .map(|p| p.hypothesis_tokens - p.committed_tokens)
            .sum::<u32>(),
    );
}
