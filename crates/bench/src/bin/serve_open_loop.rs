//! `serve_open_loop` — open-loop load generation against the sharded router.
//!
//! Sweeps fleet size (1/2/4/8 workers) × admission policy (FIFO /
//! aged shortest-audio-first) × offered QPS, with arrivals drawn from a
//! seeded Poisson process ([`specasr_server::LoadGen`]).  Unlike the
//! closed-loop `serve_load` sweep, the offered rate is independent of how far
//! behind the fleet falls, so each fleet size traces the queueing-theory
//! curve the closed loop hides: P99 latency stays near the no-load service
//! time while the offered rate is below the fleet's saturation QPS, then
//! grows by an order of magnitude once arrivals outpace service.
//!
//! Five companion studies ride along: a KV-budget sweep, a shallow-queue
//! shedding study, a drafter comparison (`w2-fifo+ctc@q50` /
//! `w2-fifo+token-map@q50`) that re-serves the 2-worker FIFO operating point
//! with draft-free speculation via [`specasr_server::Router::install_drafter`]
//! (and `w2-fifo+mixed@q35`, which serves `open-fleet`'s mix of model-draft
//! and draft-free requests on it),
//! a process-boundary comparison (`w2-fifo+rpc@q50`, also reachable with
//! the `--rpc` flag) that re-serves it with every worker's target model
//! behind the `RpcBackend` worker thread, and an admission-ordering study
//! (`w1-{fifo,saf,edf}-b@q*-depth64`) that re-serves one worker under
//! overload with mixed TTFT budgets under FIFO, aged shortest-audio-first,
//! and earliest-deadline-first order, recording the in-budget goodput each
//! achieves.  All cells run under a depth-4 in-flight window
//! (`max_in_flight_waves`).
//!
//! The run is deterministic (seeded arrivals over a seeded corpus and model
//! pair), so the emitted record doubles as a perf baseline: it is always
//! written to `target/experiments/serve_open_loop.json`, and additionally to
//! the committed `BENCH_serve_open.json` baseline when the
//! `SPECASR_WRITE_BASELINE` environment variable is set (the CI
//! bench-regression gate compares the fresh record against the committed
//! one, so regenerating the baseline is an explicit act).
//!
//! Run with: `cargo run -p specasr-bench --release --bin serve_open_loop`
//!
//! Pass `--trace-out <path>` to record one cell (default `w2-fifo@q50`,
//! override with `--trace-cell <label>`) in the flight recorder and write
//! its Chrome/Perfetto trace JSON (one lane per worker).  `--smoke` runs
//! only the default trace cell and skips record emission — the CI trace
//! smoke step.

use std::sync::Arc;

use specasr::{AdaptiveConfig, DrafterKind, Policy, SparseTreeConfig, TokenMapDrafter};
use specasr_audio::{EncoderProfile, Split, Utterance};
use specasr_bench::regression::write_baseline;
use specasr_bench::{emit, ExperimentContext, TraceArgs, EXPERIMENT_SEED};
use specasr_metrics::{ExperimentRecord, ReportRow};
use specasr_models::{AsrDecoderModel, CtcDrafter};
use specasr_server::{
    run_open_loop, AdmissionOrdering, AdmissionPolicy, LoadGen, RequestSpec, Router, RouterConfig,
    ServerConfig, SloClass,
};
use specasr_tokenizer::TokenMapIndex;

/// Utterances per split in the serving corpus.
const UTTERANCES_PER_SPLIT: usize = 12;

/// Open-loop requests offered per cell (the corpus pool is cycled).
const REQUESTS_PER_CELL: usize = 160;

/// Fleet sizes swept.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Offered request rates swept (requests per second).  One worker saturates
/// in the low tens of QPS, eight workers near two hundred, so every fleet
/// size crosses its knee inside this grid.
const QPS_LEVELS: [f64; 5] = [10.0, 25.0, 50.0, 100.0, 200.0];

/// Per-worker KV-pool budgets swept by the memory study (2 workers, FIFO,
/// 50 QPS): ample (effectively unconstrained, the default), constrained
/// (prefix sharing and occasional preemption), and tight (sustained
/// preemption pressure).  Every budget still admits any single request, so
/// the cell completes all 160 requests and the comparison is apples to
/// apples.
const KV_BLOCK_LEVELS: [usize; 3] = [4096, 96, 48];

/// Queue depth of the shedding companion study: production-depth queues (≤ 4
/// waiting requests per worker) trade the deep-queue P99 blow-up for
/// rejections, so the interesting numbers become the rejection rate and the
/// goodput under overload.
const SHALLOW_QUEUE_DEPTH: usize = 4;

/// Offered rates of the shedding study (1 worker saturates in the low tens
/// of QPS; both cells sit at or past the knee where shedding engages).
const SHED_QPS_LEVELS: [f64; 3] = [25.0, 50.0, 200.0];

/// TTFT budgets cycled by request index in the ordering study: one
/// Interactive, one Standard, one Relaxed request per cycle, so every
/// overload cell carries a deadline mix the admission order can exploit.
const TTFT_BUDGETS_MS: [f64; 3] = [500.0, 2_000.0, 8_000.0];

/// Queue depth of the ordering study: deep enough that requests wait past
/// their budgets and FIFO sheds them by deadline, which is what
/// deadline-aware admission exists to avoid.  (A depth-4 queue refuses the
/// overflow before any budget expires, and leaves the orders nothing to
/// differ on.)
const ORDERING_QUEUE_DEPTH: usize = 64;

/// Offered rates of the ordering study: every cell overloads the worker
/// far enough that FIFO sheds by deadline.
const ORDERING_QPS_LEVELS: [f64; 3] = [50.0, 100.0, 200.0];

/// The budget a completed request was submitted with, recovered from its
/// SLO class (the classes are keyed exactly on the budget boundaries the
/// cycle uses).
fn budget_of(slo: SloClass) -> f64 {
    match slo {
        SloClass::Interactive => 500.0,
        SloClass::Standard => 2_000.0,
        SloClass::Relaxed => 8_000.0,
        SloClass::BestEffort => f64::INFINITY,
    }
}

/// In-flight window every cell serves under (`max_in_flight_waves`):
/// submit-ahead/complete-behind across tick boundaries, byte-identical
/// transcripts to a one-wave window.
const PIPELINE_DEPTH: usize = 4;

fn admissions() -> Vec<(&'static str, AdmissionPolicy)> {
    vec![
        ("fifo", AdmissionPolicy::Fifo),
        ("saf", AdmissionPolicy::ShortestAudioFirst),
    ]
}

/// Writes the flight recordings of a traced cell (nothing when the cell
/// ran untraced).
fn write_recordings<D, T>(router: &mut Router<D, T>, trace: &TraceArgs)
where
    D: AsrDecoderModel,
    T: AsrDecoderModel,
{
    let recordings = router.take_recordings();
    if !recordings.is_empty() {
        let lanes: Vec<(&str, &specasr_server::FlightRecording)> = recordings
            .iter()
            .map(|(name, recording)| (name.as_str(), recording))
            .collect();
        trace.write(&lanes);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    context: &ExperimentContext,
    pool: &[&Utterance],
    admission: AdmissionPolicy,
    workers: usize,
    qps: f64,
    kv_blocks: usize,
    rpc: bool,
    trace: &TraceArgs,
) -> ReportRow {
    let default_kv = ServerConfig::default().kv_blocks;
    let kv_suffix = if kv_blocks == default_kv {
        String::new()
    } else {
        format!("-kv{kv_blocks}")
    };
    let label = format!(
        "w{workers}-{}{}@q{qps:.0}{kv_suffix}",
        match admission {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::ShortestAudioFirst => "saf",
        },
        if rpc { "+rpc" } else { "" }
    );
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let mut router = Router::new(
        RouterConfig::default()
            .with_workers(workers)
            .with_rpc_backend(rpc)
            .with_worker_config(
                ServerConfig::default()
                    .with_admission(admission)
                    .with_kv_blocks(kv_blocks)
                    .with_max_in_flight_waves(PIPELINE_DEPTH)
                    // Deep queues: this sweep measures the latency knee, not
                    // queue-depth shedding, so nothing may be rejected.
                    .with_queue_depth(4 * REQUESTS_PER_CELL),
            ),
        context.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| context.whisper_pair(),
    );
    if trace.wants(&label) {
        router.set_trace(trace.config());
    }
    let mut loadgen = LoadGen::new(EXPERIMENT_SEED, qps);
    let workload = (0..REQUESTS_PER_CELL).map(|index| (policy, pool[index % pool.len()]));
    let report = run_open_loop(&mut router, &mut loadgen, workload);
    assert_eq!(report.outcomes.len(), REQUESTS_PER_CELL);
    assert_eq!(report.rejected, 0, "deep queues must never shed");
    write_recordings(&mut router, trace);

    let fleet = router.fleet_stats();
    assert_eq!(
        fleet.rejected_memory(),
        0,
        "every pool admits every request"
    );
    let memory = fleet.memory();
    ReportRow::new(label)
        .with("workers", workers as f64)
        .with("target_qps", qps)
        .with("offered_qps", report.offered_qps())
        .with("throughput_utps", report.completed_qps())
        .with("e2e_p50_ms", fleet.e2e_p50_ms())
        .with("e2e_p99_ms", fleet.e2e_p99_ms())
        .with("ttft_p50_ms", fleet.ttft_p50_ms())
        .with("acceptance", fleet.mean_acceptance())
        .with("rejected_draft_device_ms", fleet.rejected_draft_device_ms())
        .with("stolen", router.stolen() as f64)
        .with("wall_ms", fleet.wall_ms())
        .with("kv_blocks", kv_blocks as f64)
        .with("peak_kv_blocks", memory.peak_kv_blocks() as f64)
        .with("avg_kv_blocks", memory.avg_kv_blocks())
        .with("preemptions", memory.preemptions() as f64)
        .with("prefix_hit_rate", memory.shared_prefix_hit_rate())
        .with(
            "backend_batch_occupancy",
            fleet.backend().verify_batch_occupancy(),
        )
        .with("in_flight_depth", fleet.backend().peak_in_flight() as f64)
}

/// One drafter-comparison cell: the 2-worker FIFO fleet re-served with
/// requests cycling through `mix`, every draft-free drafter it names
/// installed fleet-wide.  The single-drafter cells (`w2-fifo+ctc@q50`,
/// `w2-fifo+token-map@q50`) compare against the grid's `w2-fifo@q50`
/// model-draft row: the lossless verifier commits byte-identical
/// transcripts, so any movement is pure serving economics — zero
/// draft-lane backend batches and zero draft KV sub-pool demand.  The
/// mixed cell (`w2-fifo+mixed@q35`) serves model-draft and draft-free
/// requests side by side, the traffic draft-class-aware placement acts on.
fn run_drafter_cell(
    context: &ExperimentContext,
    pool: &[&Utterance],
    label: &str,
    mix: &[RequestSpec],
    token_map: &Arc<TokenMapIndex>,
    qps: f64,
    trace: &TraceArgs,
) -> ReportRow {
    let mut router = Router::new(
        RouterConfig::default().with_workers(2).with_worker_config(
            ServerConfig::default()
                .with_admission(AdmissionPolicy::Fifo)
                .with_max_in_flight_waves(PIPELINE_DEPTH)
                .with_queue_depth(4 * REQUESTS_PER_CELL),
        ),
        context.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| context.whisper_pair(),
    );
    let serves = |kind: DrafterKind| mix.iter().any(|spec| spec.drafter == kind);
    if serves(DrafterKind::CtcEncoder) {
        let (_, target) = context.whisper_pair();
        router.install_drafter(Arc::new(CtcDrafter::paired(&target)));
    }
    if serves(DrafterKind::TokenMap) {
        router.install_drafter(Arc::new(TokenMapDrafter::new(Arc::clone(token_map))));
    }
    if trace.wants(label) {
        router.set_trace(trace.config());
    }
    let mut loadgen = LoadGen::new(EXPERIMENT_SEED, qps);
    let workload =
        (0..REQUESTS_PER_CELL).map(|index| (mix[index % mix.len()], pool[index % pool.len()]));
    let report = run_open_loop(&mut router, &mut loadgen, workload);
    assert_eq!(report.outcomes.len(), REQUESTS_PER_CELL);
    assert_eq!(report.rejected, 0, "deep queues must never shed");
    write_recordings(&mut router, trace);

    let fleet = router.fleet_stats();
    let memory = fleet.memory();
    ReportRow::new(label)
        .with("workers", 2.0)
        .with("target_qps", qps)
        .with("offered_qps", report.offered_qps())
        .with("throughput_utps", report.completed_qps())
        .with("e2e_p50_ms", fleet.e2e_p50_ms())
        .with("e2e_p99_ms", fleet.e2e_p99_ms())
        .with("ttft_p50_ms", fleet.ttft_p50_ms())
        .with("acceptance", fleet.mean_acceptance())
        .with("rejected_draft_device_ms", fleet.rejected_draft_device_ms())
        .with("wall_ms", fleet.wall_ms())
        .with("peak_kv_blocks", memory.peak_kv_blocks() as f64)
        .with("preemptions", memory.preemptions() as f64)
        .with(
            "backend_batch_occupancy",
            fleet.backend().verify_batch_occupancy(),
        )
}

/// One shedding cell: a single FIFO worker with a production-depth queue
/// under overload.  Unlike [`run_cell`], rejections are the point — the row
/// reports the realised rejection rate and the goodput (completions per
/// second over the full drain window).
fn run_shed_cell(context: &ExperimentContext, pool: &[&Utterance], qps: f64) -> ReportRow {
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let mut router = Router::new(
        RouterConfig::default().with_workers(1).with_worker_config(
            ServerConfig::default()
                .with_admission(AdmissionPolicy::Fifo)
                .with_max_in_flight_waves(PIPELINE_DEPTH)
                .with_queue_depth(SHALLOW_QUEUE_DEPTH),
        ),
        context.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| context.whisper_pair(),
    );
    let mut loadgen = LoadGen::new(EXPERIMENT_SEED, qps);
    let workload = (0..REQUESTS_PER_CELL).map(|index| (policy, pool[index % pool.len()]));
    let report = run_open_loop(&mut router, &mut loadgen, workload);
    assert_eq!(
        report.outcomes.len() + report.rejected,
        REQUESTS_PER_CELL,
        "every request either completes or is shed"
    );

    let fleet = router.fleet_stats();
    let offered = report.submitted + report.rejected;
    ReportRow::new(format!("w1-fifo@q{qps:.0}-shallow{SHALLOW_QUEUE_DEPTH}"))
        .with("target_qps", qps)
        .with("offered_qps", report.offered_qps())
        .with("queue_depth", SHALLOW_QUEUE_DEPTH as f64)
        .with("rejection_rate", report.rejected as f64 / offered as f64)
        .with("goodput_utps", report.completed_qps())
        .with("throughput_utps", report.completed_qps())
        .with("e2e_p50_ms", fleet.e2e_p50_ms())
        .with("e2e_p99_ms", fleet.e2e_p99_ms())
        .with(
            "backend_batch_occupancy",
            fleet.backend().verify_batch_occupancy(),
        )
        .with("completed", report.outcomes.len() as f64)
        .with("rejected", report.rejected as f64)
}

/// One ordering cell: a single worker with a depth-64 queue under
/// overload, serving mixed TTFT budgets under one admission order (FIFO
/// arrival, aged shortest-audio-first, or earliest-deadline-first).  The
/// row's product metric is `goodput_utps` — completions that arrived
/// *within their budget*, per second of the drain window — next to the
/// deadline sheds and the raw rejection rate; EDF trades a little raw
/// throughput for serving urgent work while its deadline is still alive.
fn run_ordering_cell(
    context: &ExperimentContext,
    pool: &[&Utterance],
    name: &str,
    admission: AdmissionPolicy,
    ordering: AdmissionOrdering,
    qps: f64,
) -> ReportRow {
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let mut router = Router::new(
        RouterConfig::default().with_workers(1).with_worker_config(
            ServerConfig::default()
                .with_admission(admission)
                .with_ordering(ordering)
                .with_max_in_flight_waves(PIPELINE_DEPTH)
                .with_queue_depth(ORDERING_QUEUE_DEPTH),
        ),
        context.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| context.whisper_pair(),
    );
    let mut loadgen = LoadGen::new(EXPERIMENT_SEED, qps);
    let workload = (0..REQUESTS_PER_CELL).map(|index| {
        let spec = RequestSpec {
            ttft_budget_ms: Some(TTFT_BUDGETS_MS[index % TTFT_BUDGETS_MS.len()]),
            ..policy.into()
        };
        (spec, pool[index % pool.len()])
    });
    let report = run_open_loop(&mut router, &mut loadgen, workload);
    let fleet = router.fleet_stats();
    let offered = report.submitted + report.rejected;
    let in_budget = report
        .outcomes
        .iter()
        .filter(|outcome| outcome.latency.time_to_first_token_ms <= budget_of(outcome.slo))
        .count();
    let goodput_utps = if report.drained_ms > 0.0 {
        in_budget as f64 * 1_000.0 / report.drained_ms
    } else {
        0.0
    };
    ReportRow::new(ordering_label(name, qps))
        .with("target_qps", qps)
        .with("offered_qps", report.offered_qps())
        .with("queue_depth", ORDERING_QUEUE_DEPTH as f64)
        .with("rejection_rate", report.rejected as f64 / offered as f64)
        .with("goodput_utps", goodput_utps)
        .with("throughput_utps", report.completed_qps())
        .with("e2e_p50_ms", fleet.e2e_p50_ms())
        .with("e2e_p99_ms", fleet.e2e_p99_ms())
        .with("completed", report.outcomes.len() as f64)
        .with("in_budget", in_budget as f64)
        .with("rejected", report.rejected as f64)
        .with(
            "rejected_deadline",
            SloClass::ALL
                .iter()
                .map(|&class| fleet.slo_class(class).rejected_deadline())
                .sum::<usize>() as f64,
        )
}

/// The row label of one ordering cell.
fn ordering_label(name: &str, qps: f64) -> String {
    format!("w1-{name}-b@q{qps:.0}-depth{ORDERING_QUEUE_DEPTH}")
}

fn main() {
    // `--rpc` moves every worker's target model behind the RpcBackend
    // process boundary; the CI smoke job runs both ways.
    let rpc = std::env::args().skip(1).any(|arg| arg == "--rpc");
    let trace = TraceArgs::parse(if rpc {
        "w2-fifo+rpc@q50"
    } else {
        "w2-fifo@q50"
    });
    let context = ExperimentContext::with_size(UTTERANCES_PER_SPLIT);
    let pool: Vec<&Utterance> = Split::ALL
        .iter()
        .flat_map(|&split| context.corpus.split(split))
        .collect();
    let default_kv = specasr_server::ServerConfig::default().kv_blocks;
    if trace.smoke {
        // CI smoke: run only the default trace cell and dump its trace —
        // no record emission, no baseline comparison.
        let row = run_cell(
            &context,
            &pool,
            AdmissionPolicy::Fifo,
            2,
            50.0,
            default_kv,
            rpc,
            &trace,
        );
        println!(
            "smoke cell `{}` OK: {:.2} utt/s",
            row.label,
            row.value("throughput_utps").unwrap_or(0.0)
        );
        return;
    }
    let mut record = ExperimentRecord::new(
        "serve_open_loop",
        format!(
            "Open-loop Poisson serving, {REQUESTS_PER_CELL} requests/cell, \
             workers × admission × QPS sweep"
        ),
    );

    for (_, admission) in admissions() {
        for workers in WORKER_COUNTS {
            for qps in QPS_LEVELS {
                record.push_row(run_cell(
                    &context, &pool, admission, workers, qps, default_kv, false, &trace,
                ));
            }
        }
    }
    // Memory study: shrink the per-worker KV pool at a fixed operating point
    // and watch occupancy flatten against the budget while preemptions rise.
    for kv_blocks in KV_BLOCK_LEVELS {
        if kv_blocks == default_kv {
            continue; // the grid above already measured the ample pool
        }
        record.push_row(run_cell(
            &context,
            &pool,
            AdmissionPolicy::Fifo,
            2,
            50.0,
            kv_blocks,
            false,
            &trace,
        ));
    }
    // Drafter study: the same operating point served draft-free. Acceptance
    // moves with the draft source while transcripts stay byte-identical;
    // draft-lane batches and draft sub-pool demand drop to zero.
    let token_map = context.token_map_index();
    let asp = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    for kind in [DrafterKind::CtcEncoder, DrafterKind::TokenMap] {
        let spec = RequestSpec {
            drafter: kind,
            ..asp.into()
        };
        let label = format!("w2-fifo+{}@q50", kind.label());
        let row = run_drafter_cell(&context, &pool, &label, &[spec], &token_map, 50.0, &trace);
        record.push_row(row.with("drafter", kind as u8 as f64));
    }
    // Mixed draft classes: the `open-fleet` request mix, where a draft-free
    // request's round waits for model drafts whenever the two share a
    // worker's tick.
    let tsp = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
    let mixed = [
        (asp, DrafterKind::ModelDraft),
        (tsp, DrafterKind::ModelDraft),
        (asp, DrafterKind::TokenMap),
        (asp, DrafterKind::CtcEncoder),
    ]
    .map(|(policy, drafter)| RequestSpec {
        drafter,
        ..policy.into()
    });
    record.push_row(run_drafter_cell(
        &context,
        &pool,
        "w2-fifo+mixed@q35",
        &mixed,
        &token_map,
        35.0,
        &trace,
    ));
    // Process-boundary study: the `w2-fifo@q50` operating point with every
    // worker's target behind the RPC worker thread.  The wire mirrors the
    // in-process backend's modeled timing exactly, so every column must
    // match the in-process row digit for digit.
    record.push_row(run_cell(
        &context,
        &pool,
        AdmissionPolicy::Fifo,
        2,
        50.0,
        default_kv,
        true,
        &trace,
    ));
    // Shedding study: production-depth queues under overload — P99 stays
    // bounded while the overflow turns into rejections, and goodput tracks
    // the worker's service capacity rather than collapsing.
    for qps in SHED_QPS_LEVELS {
        record.push_row(run_shed_cell(&context, &pool, qps));
    }
    // Ordering study: one overloaded worker with mixed TTFT budgets under
    // three admission orders.  FIFO serves arrival order, aged SAF the
    // shortest audio, EDF the most urgent deadline — goodput (in-budget
    // completions per second) is what moves.
    for (name, admission, ordering) in [
        ("fifo", AdmissionPolicy::Fifo, AdmissionOrdering::Queue),
        (
            "saf",
            AdmissionPolicy::ShortestAudioFirst,
            AdmissionOrdering::Queue,
        ),
        (
            "edf",
            AdmissionPolicy::Fifo,
            AdmissionOrdering::EarliestDeadlineFirst,
        ),
    ] {
        for qps in ORDERING_QPS_LEVELS {
            record.push_row(run_ordering_cell(
                &context, &pool, name, admission, ordering, qps,
            ));
        }
    }
    // The ordering study's headline claim is structural, not a tolerance
    // band: at every overload level FIFO must shed by deadline, and
    // deadline-aware admission must then serve more requests within budget
    // and more goodput, or the sweep stopped measuring what it exists to
    // show.
    for qps in ORDERING_QPS_LEVELS {
        let value = |name: &str, column: &str| {
            record
                .row(&ordering_label(name, qps))
                .and_then(|row| row.value(column))
                .expect("ordering rows carry every column")
        };
        assert!(
            value("fifo", "rejected_deadline") > 0.0,
            "FIFO must shed by deadline at {qps} QPS"
        );
        assert!(
            value("edf", "in_budget") > value("fifo", "in_budget"),
            "EDF must serve more requests within budget than FIFO at {qps} QPS"
        );
        assert!(
            value("edf", "goodput_utps") > value("fifo", "goodput_utps"),
            "EDF must beat FIFO on in-budget goodput at {qps} QPS"
        );
    }

    emit(&record);
    if std::env::var_os("SPECASR_WRITE_BASELINE").is_some() {
        write_baseline("BENCH_serve_open.json", &record);
    }
    println!(
        "shape check: for each fleet size, P99 latency sits near the no-load service \
         time below the saturation QPS and explodes past it, and the knee moves right \
         as workers are added; aged shortest-audio-first trades a lower P50 for the \
         same knee position.  In the kv sweep, shrinking the pool caps peak occupancy \
         at the budget and turns the shortfall into preemptions (throughput dips, P99 \
         grows) while the prefix hit rate stays put — sharing depends on the workload, \
         not the budget.  In the shallow-queue shedding rows, overload converts the \
         deep-queue P99 blow-up into a rising rejection rate while goodput plateaus \
         at the worker's service capacity.  In the ordering study, FIFO sheds by \
         deadline at every overload level and EDF serves more requests within \
         budget and more in-budget goodput: serving the most urgent deadline \
         first converts the same completions into more within-budget ones."
    );
}
