//! `serve_elastic` — the elastic-fleet serving benchmark.
//!
//! Four cells exercise the `specasr-fleet` control loop end to end:
//!
//! * **`static-w1@q120`** — the degenerate baseline: one worker, no
//!   controller, the same 120 QPS burst.  Everything completes (deep
//!   queues), but the queue grows without bound during the burst.
//! * **`elastic-burst@q120`** — the same burst through a
//!   [`FleetController`] bounded at 1–4 workers.  Queue pressure breaches
//!   the target and the fleet grows in one step to the size the queue asks
//!   for (1 → 4 workers at 200 ms), so the burst drains faster; once
//!   traffic quiets and one worker can carry what is left, the fleet drains
//!   straight back to it — migrating any still-live sessions — and reaps
//!   the drained workers.  The row records the workers added and drained
//!   and the migrations next to the serving metrics.
//! * **`hetero-weighted@q120` / `hetero-unweighted@q120`** — a fixed
//!   heterogeneous fleet (one big-batch worker declared 4× speed + three
//!   standard workers) with its declared speed normalizing placement load,
//!   and with it withheld.  Stealing is disabled (prohibitive threshold),
//!   so the difference is pure placement; speed-normalized load must win
//!   on throughput.
//! * **`drain-migrate@q60`** — a four-worker fleet that loses one worker
//!   mid-burst via [`Router::drain_worker`]: its queue re-routes and its
//!   live sessions migrate (block-table hand-off where the destination has
//!   headroom, preempt/restore otherwise).  The row records both migration
//!   paths; every request still completes.
//!
//! The run is deterministic, so the record doubles as a perf baseline
//! (`BENCH_serve_elastic.json`, regenerated with `SPECASR_WRITE_BASELINE=1`)
//! gated by `bench_check` — the `migrations` and `goodput_utps` columns are
//! gated metrics, so a silent change in migration behaviour fails CI even
//! when throughput holds.
//!
//! Run with: `cargo run -p specasr-bench --release --bin serve_elastic`
//!
//! Pass `--trace-out <path>` to record the elastic cell (scale-ups, drains,
//! and migrations all land in the fleet lane as `worker_added` /
//! `worker_draining` / `worker_removed` / `session_migrated` instants) and
//! write its Chrome/Perfetto trace; `--smoke` runs only that cell — the CI
//! trace smoke step, which asserts the run contains at least one scale-up
//! *and* one drain.

use std::collections::HashMap;

use specasr::{AdaptiveConfig, Policy};
use specasr_audio::{EncoderProfile, Split, Utterance};
use specasr_bench::regression::write_baseline;
use specasr_bench::{emit, ExperimentContext, TraceArgs, EXPERIMENT_SEED};
use specasr_fleet::{FleetConfig, FleetController};
use specasr_metrics::{ExperimentRecord, ReportRow};
use specasr_server::{
    run_open_loop, LoadGen, Router, RouterConfig, ServerConfig, WorkerId, WorkerProfile,
};

/// Utterances per split in the serving corpus.
const UTTERANCES_PER_SPLIT: usize = 12;

/// Requests offered per cell (the corpus pool is cycled).
const REQUESTS_PER_CELL: usize = 160;

/// Offered rate of the burst cells — well past one worker's knee, inside
/// four workers' capacity.
const BURST_QPS: f64 = 120.0;

/// The elastic policy every cell's controller runs under.
fn fleet_config() -> FleetConfig {
    FleetConfig::default()
        .with_worker_bounds(1, 4)
        .with_evaluate_every_ms(100.0)
        .with_hysteresis(2, 6)
        .with_queue_target(4.0)
}

fn decode_policy() -> Policy {
    Policy::AdaptiveSingleSequence(AdaptiveConfig::paper())
}

fn worker_config() -> ServerConfig {
    ServerConfig::default().with_queue_depth(4 * REQUESTS_PER_CELL)
}

/// Serving columns shared by every cell.
fn base_row(
    label: String,
    completed: usize,
    goodput_utps: f64,
    fleet: &specasr_server::ServerStats,
) -> ReportRow {
    ReportRow::new(label)
        .with("completed", completed as f64)
        .with("throughput_utps", goodput_utps)
        .with("goodput_utps", goodput_utps)
        .with("e2e_p50_ms", fleet.e2e_p50_ms())
        .with("e2e_p99_ms", fleet.e2e_p99_ms())
        .with("ttft_p50_ms", fleet.ttft_p50_ms())
        .with("wall_ms", fleet.wall_ms())
        .with("migrations", fleet.migrations() as f64)
        .with("migrations_handoff", fleet.migrated_in_handoff() as f64)
        .with("migrations_restore", fleet.migrated_in_restore() as f64)
        .with(
            "backend_batch_occupancy",
            fleet.backend().verify_batch_occupancy(),
        )
}

/// The static one-worker baseline the elastic cell is read against.
fn run_static_cell(context: &ExperimentContext, pool: &[&Utterance]) -> ReportRow {
    let mut router = Router::new(
        RouterConfig::default()
            .with_workers(1)
            .with_worker_config(worker_config()),
        context.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| context.whisper_pair(),
    );
    let mut loadgen = LoadGen::new(EXPERIMENT_SEED, BURST_QPS);
    let report = run_open_loop(
        &mut router,
        &mut loadgen,
        (0..REQUESTS_PER_CELL).map(|i| (decode_policy(), pool[i % pool.len()])),
    );
    assert_eq!(report.outcomes.len(), REQUESTS_PER_CELL);
    let fleet = router.fleet_stats();
    base_row(
        format!("static-w1@q{BURST_QPS:.0}"),
        report.outcomes.len(),
        report.completed_qps(),
        &fleet,
    )
    .with("workers_peak", 1.0)
    .with("workers_final", 1.0)
}

/// The elastic burst: scale up under pressure, drain back down after, reap.
/// Returns the row plus whether the run saw at least one scale-up and one
/// scale-down (the smoke gate).
fn run_elastic_cell(
    context: &ExperimentContext,
    pool: &[&Utterance],
    trace: &TraceArgs,
) -> (ReportRow, bool) {
    let label = format!("elastic-burst@q{BURST_QPS:.0}");
    let router = Router::new(
        RouterConfig::default()
            .with_workers(1)
            .with_worker_config(worker_config()),
        context.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| context.whisper_pair(),
    );
    let mut fleet = FleetController::new(router, fleet_config(), |_| context.whisper_pair());
    if trace.wants(&label) {
        fleet.router_mut().set_trace(trace.config());
    }
    let mut loadgen = LoadGen::new(EXPERIMENT_SEED, BURST_QPS);
    let mut outcomes = Vec::new();
    let mut arrivals = HashMap::new();
    let mut workers_peak = 1;
    for index in 0..REQUESTS_PER_CELL {
        outcomes.extend(fleet.advance_to(loadgen.next_arrival_ms()));
        // The router stamps a request's arrival with its clock at submit.
        let arrival_ms = fleet.router().now_ms();
        let id = fleet
            .submit(decode_policy(), pool[index % pool.len()])
            .expect("queues are deep");
        arrivals.insert(id, arrival_ms);
        workers_peak = workers_peak.max(fleet.router().active_workers());
    }
    outcomes.extend(fleet.run_until_idle());
    // The controller goes idle on an evaluation boundary, which can fall
    // before the last completion (a worker ticks past its deadline), so the
    // serving window ends at the latest completion: arrival plus e2e.
    let drained_ms = outcomes
        .iter()
        .map(|outcome| arrivals[&outcome.id] + outcome.e2e_ms())
        .fold(0.0, f64::max);
    // Quiet tail: give the controller enough idle evaluations to drain all
    // the way back to the minimum and reap, so the trace shows the full
    // worker lifecycle in one run.
    fleet.advance_to(fleet.router().now_ms() + 5_000.0);
    assert_eq!(outcomes.len(), REQUESTS_PER_CELL);
    let counters = fleet.counters();
    let stats = fleet.router().fleet_stats();
    let goodput = outcomes.len() as f64 * 1_000.0 / drained_ms;

    let recordings = fleet.router_mut().take_recordings();
    if !recordings.is_empty() {
        let lanes: Vec<(&str, &specasr_server::FlightRecording)> = recordings
            .iter()
            .map(|(name, recording)| (name.as_str(), recording))
            .collect();
        trace.write(&lanes);
    }

    let row = base_row(label, outcomes.len(), goodput, &stats)
        .with("workers_peak", workers_peak as f64)
        .with("workers_final", fleet.router().active_workers() as f64)
        .with("scale_ups", counters.scale_ups as f64)
        .with("scale_downs", counters.scale_downs as f64)
        .with("workers_removed", counters.workers_removed as f64)
        .with("evaluations", counters.evaluations as f64);
    (row, counters.scale_ups > 0 && counters.scale_downs > 0)
}

/// One heterogeneous cell: a 1×fast (big-batch, declared 4× speed) + 3×slow
/// fleet, with the capacity hints normalizing placement load (`weighted`)
/// or withheld (`unweighted`).  Stealing is disabled so placement alone
/// decides.
fn run_hetero_cell(context: &ExperimentContext, pool: &[&Utterance], weighted: bool) -> ReportRow {
    let fast_speed = if weighted { 4.0 } else { 1.0 };
    let profiles = [
        WorkerProfile::default()
            .with_speed(fast_speed)
            .with_max_batch(16),
        WorkerProfile::default(),
        WorkerProfile::default(),
        WorkerProfile::default(),
    ];
    let mut router = Router::with_profiles(
        RouterConfig::default()
            .with_workers(4)
            .with_steal_threshold(10_000)
            .with_worker_config(worker_config().with_max_batch(2)),
        context.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        &profiles,
        |_| context.whisper_pair(),
    );
    let mut loadgen = LoadGen::new(EXPERIMENT_SEED, BURST_QPS);
    let report = run_open_loop(
        &mut router,
        &mut loadgen,
        (0..REQUESTS_PER_CELL).map(|i| (decode_policy(), pool[i % pool.len()])),
    );
    assert_eq!(report.outcomes.len(), REQUESTS_PER_CELL);
    let fleet = router.fleet_stats();
    base_row(
        format!(
            "hetero-{}@q{BURST_QPS:.0}",
            if weighted { "weighted" } else { "unweighted" }
        ),
        report.outcomes.len(),
        report.completed_qps(),
        &fleet,
    )
    .with("fast_worker_speed", fast_speed)
    .with("workers_peak", 4.0)
    .with("workers_final", 4.0)
}

/// The forced-drain cell: a four-worker fleet loses one worker mid-burst;
/// its queue re-routes and its live sessions migrate, and every request
/// still completes.
fn run_drain_cell(context: &ExperimentContext, pool: &[&Utterance]) -> ReportRow {
    const DRAIN_QPS: f64 = 60.0;
    let mut router = Router::new(
        RouterConfig::default()
            .with_workers(4)
            .with_worker_config(worker_config()),
        context.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| context.whisper_pair(),
    );
    let mut loadgen = LoadGen::new(EXPERIMENT_SEED, DRAIN_QPS);
    let policy = decode_policy();
    let mut outcomes = Vec::new();
    let mut drained = false;
    for index in 0..REQUESTS_PER_CELL {
        outcomes.extend(router.advance_to(loadgen.next_arrival_ms()));
        if index == REQUESTS_PER_CELL / 2 {
            // Halfway through the burst, with queues and batches loaded,
            // worker 3 leaves the fleet.
            router.drain_worker(WorkerId::new(3));
            drained = true;
        }
        router
            .submit(policy, pool[index % pool.len()])
            .expect("queues are deep");
    }
    outcomes.extend(router.run_until_idle());
    // Idle, the serving clock stands at the last completion.
    let drained_ms = router.now_ms();
    router.reap_drained();
    assert!(drained);
    assert_eq!(outcomes.len(), REQUESTS_PER_CELL, "drains never drop work");
    let fleet = router.fleet_stats();
    assert!(
        fleet.migrations() > 0,
        "a mid-burst drain must migrate live sessions"
    );
    let goodput = outcomes.len() as f64 * 1_000.0 / drained_ms;
    base_row(
        format!("drain-migrate@q{DRAIN_QPS:.0}"),
        outcomes.len(),
        goodput,
        &fleet,
    )
    .with("workers_peak", 4.0)
    .with("workers_final", 3.0)
}

fn main() {
    let trace = TraceArgs::parse(&format!("elastic-burst@q{BURST_QPS:.0}"));
    let context = ExperimentContext::with_size(UTTERANCES_PER_SPLIT);
    let pool: Vec<&Utterance> = Split::ALL
        .iter()
        .flat_map(|&split| context.corpus.split(split))
        .collect();

    if trace.smoke {
        // CI smoke: only the elastic cell, which must contain a scale-up
        // and a drain in one traced run.
        let (row, scaled_both_ways) = run_elastic_cell(&context, &pool, &trace);
        assert!(
            scaled_both_ways,
            "the smoke run must scale up under the burst and drain after it"
        );
        println!(
            "smoke cell `{}` OK: {:.2} utt/s, {} workers added, {} drained, {} migrations",
            row.label,
            row.value("goodput_utps").unwrap_or(0.0),
            row.value("scale_ups").unwrap_or(0.0),
            row.value("scale_downs").unwrap_or(0.0),
            row.value("migrations").unwrap_or(0.0),
        );
        return;
    }

    let mut record = ExperimentRecord::new(
        "serve_elastic",
        format!(
            "Elastic fleet control, {REQUESTS_PER_CELL} requests/cell: autoscaling burst, \
             capacity-aware heterogeneous placement, live drain + migration"
        ),
    );
    record.push_row(run_static_cell(&context, &pool));
    let (elastic, scaled_both_ways) = run_elastic_cell(&context, &pool, &trace);
    assert!(
        scaled_both_ways,
        "the burst must scale the fleet up and quiet traffic must drain it"
    );
    record.push_row(elastic);
    record.push_row(run_hetero_cell(&context, &pool, true));
    record.push_row(run_hetero_cell(&context, &pool, false));
    record.push_row(run_drain_cell(&context, &pool));

    // Structural claims the sweep exists to demonstrate — asserted, not
    // just recorded, so the bench fails loudly if a change erodes them.
    let throughput = |label: &str| {
        record
            .row(label)
            .and_then(|row| row.value("throughput_utps"))
            .expect("cells record throughput")
    };
    assert!(
        throughput(&format!("elastic-burst@q{BURST_QPS:.0}"))
            > throughput(&format!("static-w1@q{BURST_QPS:.0}")),
        "scaling up under the burst must beat the static single worker"
    );
    assert!(
        throughput(&format!("hetero-weighted@q{BURST_QPS:.0}"))
            > throughput(&format!("hetero-unweighted@q{BURST_QPS:.0}")),
        "speed-normalized load must beat unweighted placement"
    );

    emit(&record);
    if std::env::var_os("SPECASR_WRITE_BASELINE").is_some() {
        write_baseline("BENCH_serve_elastic.json", &record);
    }
    println!(
        "shape check: the elastic fleet absorbs the burst the static worker drowns \
         under (higher throughput, bounded P99) and returns to one worker once \
         traffic quiets; normalizing placement load by the declared-fast \
         big-batch worker's speed beats the unweighted placement; and the \
         mid-burst drain migrates \
         every live session (hand-off where the destination has headroom, \
         preempt/restore otherwise) without losing a single request."
    );
}
