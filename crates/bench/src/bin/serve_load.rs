//! `serve_load` — closed-loop load generator for the continuous-batching
//! serving scheduler.
//!
//! Sweeps concurrency (batch size) × decoding policy over a fixed request
//! set, reporting for every cell: throughput (utterances/s and tokens/s on
//! the simulated wall clock), mean draft-acceptance ratio, the device-time
//! speedup realised by grouped verification, and end-to-end latency
//! percentiles (P50/P99) plus median time-to-first-token.
//!
//! A second block of cells re-serves every policy with the two draft-free
//! drafters (CTC-encoder collapse and the token-map index) at a fixed
//! concurrency, so the record directly compares acceptance and throughput of
//! model-draft vs `+ctc` vs `+token-map` speculation per policy. Draft-free
//! sessions hold no draft KV sub-pool blocks and dispatch no draft-lane
//! backend batches, which is visible in the occupancy/throughput columns.
//!
//! Every cell serves under a depth-4 in-flight window
//! (`max_in_flight_waves`), so verify waves and next-round drafts overlap
//! across tick boundaries; a final `specasr-asp+rpc@c8` cell re-serves the
//! adaptive operating point with the target model behind the `RpcBackend`
//! process boundary and must match the in-process row digit for digit.
//!
//! The whole simulation is deterministic, so the emitted record doubles as a
//! perf baseline: the run is always written to `target/experiments/` (like
//! every figure binary), and additionally to the committed
//! `BENCH_serve.json` baseline when the `SPECASR_WRITE_BASELINE` environment
//! variable is set — the CI bench-regression gate (`bench_check`) compares
//! the fresh record against the committed file, so regenerating the
//! baseline is an explicit act, never a side effect of running the sweep.
//!
//! Run with: `cargo run -p specasr-bench --release --bin serve_load`
//!
//! Pass `--trace-out <path>` to record one cell (default `specasr-asp@c8`,
//! override with `--trace-cell <label>`) in the flight recorder and write
//! its Chrome/Perfetto trace JSON.

use std::sync::Arc;

use specasr::{
    AdaptiveConfig, DrafterKind, Policy, SparseTreeConfig, SpeculativeConfig, TokenMapDrafter,
};
use specasr_audio::{EncoderProfile, Split};
use specasr_bench::regression::write_baseline;
use specasr_bench::{emit, ExperimentContext, TraceArgs};
use specasr_metrics::{ExperimentRecord, ReportRow};
use specasr_models::CtcDrafter;
use specasr_server::{FlightRecording, RequestSpec, Scheduler, ServerConfig, ServerStats};
use specasr_tokenizer::TokenMapIndex;

/// Utterances per split in the serving corpus (all four splits are served,
/// mixing clean and noisy audio as production traffic would).
const UTTERANCES_PER_SPLIT: usize = 12;

/// Concurrency levels swept (scheduler `max_batch`).
const CONCURRENCY_LEVELS: [usize; 4] = [1, 4, 8, 16];

fn policies() -> Vec<(&'static str, Policy)> {
    vec![
        (
            "spec-8-1",
            Policy::Speculative(SpeculativeConfig::short_single()),
        ),
        (
            "specasr-asp",
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        ),
        (
            "specasr-tsp",
            Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        ),
    ]
}

/// Concurrency at which the drafter-comparison cells run: high enough for the
/// freed draft sub-pool to matter, low enough to keep the sweep cheap.
const DRAFTER_CONCURRENCY: usize = 8;

/// In-flight window every cell serves under (`max_in_flight_waves`): deep
/// enough that the next round's drafts and verify waves submit while the
/// previous tick's waves drain, which is where the c≥8 throughput comes
/// from.  Transcripts are byte-identical to a one-wave window at any depth.
const PIPELINE_DEPTH: usize = 4;

/// Draft-free drafter kinds compared against the model-draft baseline.
const DRAFT_FREE_KINDS: [DrafterKind; 2] = [DrafterKind::CtcEncoder, DrafterKind::TokenMap];

#[allow(clippy::too_many_arguments)]
fn run_cell(
    context: &ExperimentContext,
    policy: Policy,
    drafter: DrafterKind,
    token_map: &Arc<TokenMapIndex>,
    concurrency: usize,
    rpc: bool,
    trace: &TraceArgs,
    label: &str,
) -> (ServerStats, Option<FlightRecording>) {
    let (draft, target) = context.whisper_pair();
    let ctc = CtcDrafter::paired(&target);
    let config = ServerConfig::default()
        .with_max_batch(concurrency)
        .with_max_in_flight_waves(PIPELINE_DEPTH)
        .with_queue_depth(4 * Split::ALL.len() * UTTERANCES_PER_SPLIT);
    let mut scheduler = if rpc {
        Scheduler::with_rpc_target(
            draft,
            target,
            context.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            config,
        )
    } else {
        Scheduler::new(
            draft,
            target,
            context.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            config,
        )
    };
    match drafter {
        DrafterKind::ModelDraft => {}
        DrafterKind::CtcEncoder => scheduler.install_drafter(Arc::new(ctc)),
        DrafterKind::TokenMap => {
            scheduler.install_drafter(Arc::new(TokenMapDrafter::new(Arc::clone(token_map))));
        }
    }
    if trace.wants(label) {
        scheduler.set_trace(trace.config());
    }
    for split in Split::ALL {
        for utterance in context.corpus.split(split) {
            scheduler
                .submit(
                    RequestSpec {
                        drafter,
                        ..policy.into()
                    },
                    utterance,
                )
                .expect("queue depth covers the whole request set");
        }
    }
    scheduler.run_until_idle();
    let recording = scheduler.take_trace_recording();
    (scheduler.stats().clone(), recording)
}

fn main() {
    let trace = TraceArgs::parse("specasr-asp@c8");
    let context = ExperimentContext::with_size(UTTERANCES_PER_SPLIT);
    let total_requests = Split::ALL.len() * UTTERANCES_PER_SPLIT;
    let mut record = ExperimentRecord::new(
        "serve_load",
        format!(
            "Serving throughput/latency, {total_requests} requests, concurrency × policy sweep"
        ),
    );

    let token_map = context.token_map_index();
    let run_one = |record: &mut ExperimentRecord,
                   policy: Policy,
                   drafter: DrafterKind,
                   concurrency: usize,
                   rpc: bool,
                   label: String| {
        let (stats, recording) = run_cell(
            &context,
            policy,
            drafter,
            &token_map,
            concurrency,
            rpc,
            &trace,
            &label,
        );
        if let Some(recording) = &recording {
            trace.write(&[("worker-0", recording)]);
        }
        assert_eq!(stats.completed(), total_requests);
        let e2e = stats.e2e_histogram();
        let ttft = stats.ttft_histogram();
        record.push_row(
            ReportRow::new(label)
                .with("concurrency", concurrency as f64)
                .with("drafter", drafter as u8 as f64)
                .with("throughput_utps", stats.utterances_per_second())
                .with("tokens_per_s", stats.tokens_per_second())
                .with("acceptance", stats.mean_acceptance())
                .with("rejected_draft_device_ms", stats.rejected_draft_device_ms())
                .with("batch_speedup", stats.batching_speedup())
                .with("e2e_p50_ms", e2e.percentile(0.50))
                .with("e2e_p99_ms", e2e.percentile(0.99))
                .with("ttft_p50_ms", ttft.percentile(0.50))
                .with(
                    "backend_batch_occupancy",
                    stats.backend().verify_batch_occupancy(),
                )
                .with("in_flight_depth", stats.backend().peak_in_flight() as f64)
                .with("wall_ms", stats.wall_ms()),
        );
    };

    for (name, policy) in policies() {
        for concurrency in CONCURRENCY_LEVELS {
            let label = format!("{name}@c{concurrency}");
            run_one(
                &mut record,
                policy,
                DrafterKind::ModelDraft,
                concurrency,
                false,
                label,
            );
        }
    }

    // Drafter comparison: the same policies re-served with draft-free
    // speculation at one fixed concurrency. The model-draft rows above
    // (`<policy>@c8`) are the baseline these compare against.
    for (name, policy) in policies() {
        for kind in DRAFT_FREE_KINDS {
            let label = format!("{name}+{}@c{DRAFTER_CONCURRENCY}", kind.label());
            run_one(&mut record, policy, kind, DRAFTER_CONCURRENCY, false, label);
        }
    }

    // Process-boundary comparison: the adaptive c=8 operating point with
    // the target model behind the RPC worker thread instead of in-process.
    // The wire mirrors the in-process backend's modeled timing exactly, so
    // against `specasr-asp@c8` every column must match to the digit — the
    // row exists to prove the boundary costs nothing it shouldn't.
    run_one(
        &mut record,
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        DrafterKind::ModelDraft,
        DRAFTER_CONCURRENCY,
        true,
        format!("specasr-asp+rpc@c{DRAFTER_CONCURRENCY}"),
    );

    emit(&record);
    if std::env::var_os("SPECASR_WRITE_BASELINE").is_some() {
        write_baseline("BENCH_serve.json", &record);
    }
    println!(
        "shape check: throughput rises with concurrency while P99 latency trades \
         off; adaptive drafting wins at low concurrency, while at high concurrency \
         its longer draft phases become the batched-tick bottleneck — the scheduling \
         headroom the ROADMAP's async-backend item targets."
    );
}
