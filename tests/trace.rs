//! Flight-recorder integration tests: traces must be byte-deterministic per
//! seed, reassembled per-request spans must agree *exactly* with the latency
//! breakdown the scheduler reports, and both exporters (Chrome/Perfetto
//! trace JSON, Prometheus-style metrics text) must be schema-valid and
//! deterministic.

use std::collections::HashMap;

use specasr::{AdaptiveConfig, Policy, SparseTreeConfig, SpeculativeConfig};
use specasr_audio::{EncoderProfile, Split, Utterance};
use specasr_models::SimulatedAsrModel;
use specasr_server::{
    assemble_spans, chrome_trace, validate_chrome_trace, FlightRecording, MetricsRegistry,
    RequestOutcome, Router, RouterConfig, Scheduler, ServerConfig, TraceConfig, TraceEvent,
    WorkerProfile,
};
use specasr_suite::StandardSetup;

fn policies() -> Vec<Policy> {
    vec![
        Policy::Autoregressive,
        Policy::Speculative(SpeculativeConfig::short_single()),
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ]
}

/// Runs one traced closed-loop cell and returns its recording + outcomes.
fn traced_run(
    setup: &StandardSetup,
    policy: Policy,
    max_batch: usize,
) -> (FlightRecording, Vec<RequestOutcome>) {
    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default().with_max_batch(max_batch),
    );
    // A deep enough ring that nothing wraps: span reconciliation needs the
    // full history.
    scheduler.set_trace(TraceConfig::enabled().with_capacity(1 << 20));
    for utterance in setup.corpus.split(Split::TestOther) {
        scheduler.submit(policy, utterance).expect("queue has room");
    }
    let outcomes = scheduler.run_until_idle();
    let recording = scheduler
        .take_trace_recording()
        .expect("tracing was enabled");
    (recording, outcomes)
}

#[test]
fn same_seed_yields_byte_identical_event_streams_for_every_policy() {
    let setup = StandardSetup::new(900, 6);
    for policy in policies() {
        let (first, _) = traced_run(&setup, policy, 4);
        let (second, _) = traced_run(&setup, policy, 4);
        assert_eq!(
            first.to_jsonl(),
            second.to_jsonl(),
            "policy {} trace diverged across identical runs",
            policy.name()
        );
        assert!(
            !first.is_empty(),
            "policy {} recorded nothing",
            policy.name()
        );
    }
}

#[test]
fn spans_reconcile_exactly_with_reported_latency_breakdowns() {
    let setup = StandardSetup::new(900, 12);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let (recording, outcomes) = traced_run(&setup, policy, 8);
    let spans = assemble_spans(recording.events());
    assert_eq!(spans.len(), outcomes.len());
    for outcome in &outcomes {
        let span = spans
            .iter()
            .find(|span| span.request == outcome.id.value())
            .expect("every outcome has a span");
        // Exact equality, not approximate: the recorder stamps the same
        // simulated clock the latency breakdown is computed from.
        assert_eq!(span.queue_ms(), Some(outcome.latency.queue_ms));
        assert_eq!(span.encoder_ms, outcome.latency.encoder_ms);
        assert_eq!(span.decode_wall_ms(), Some(outcome.latency.decode_wall_ms));
        assert_eq!(span.e2e_ms(), Some(outcome.latency.e2e_ms()));
        assert!(!span.rounds.is_empty(), "decoded requests ran rounds");
    }
}

#[test]
fn a_verify_wave_overlaps_a_straggler_draft_phase_on_the_device_timeline() {
    let setup = StandardSetup::new(900, 12);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let (recording, _) = traced_run(&setup, policy, 8);
    let mut drafts: Vec<(u64, u64, f64, f64)> = Vec::new(); // (tick, request, start, end)
    let mut waves: Vec<(u64, Vec<u64>, f64, f64)> = Vec::new(); // (tick, requests, started, completed)
    for event in recording.events() {
        match event {
            TraceEvent::DraftPhase {
                tick,
                request,
                start_ms,
                end_ms,
            } => drafts.push((*tick, *request, *start_ms, *end_ms)),
            TraceEvent::VerifyWaveCompleted {
                tick,
                requests,
                started_ms,
                completed_ms,
                ..
            } => waves.push((*tick, requests.clone(), *started_ms, *completed_ms)),
            _ => {}
        }
    }
    // Early waves dispatch as soon as their members finish drafting, so the
    // device executes a verify wave while stragglers of the same tick are
    // still in their draft phase.
    let overlapping = waves.iter().any(|(tick, members, started, completed)| {
        drafts.iter().any(|(draft_tick, request, start, end)| {
            draft_tick == tick
                && !members.contains(request)
                && start.max(*started) < end.min(*completed)
        })
    });
    assert!(
        overlapping,
        "no verify wave overlapped a non-member draft phase at c=8"
    );
}

/// Runs one traced pipelined cell (in-flight window `depth`, `lanes` modeled
/// draft lanes) over the TestClean split at c=8 and returns its recording.
fn traced_pipelined_run(setup: &StandardSetup, depth: usize, lanes: usize) -> FlightRecording {
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default()
            .with_max_batch(8)
            .with_max_in_flight_waves(depth)
            .with_draft_lanes(lanes),
    );
    scheduler.set_trace(TraceConfig::enabled().with_capacity(1 << 20));
    for utterance in setup.corpus.split(Split::TestClean) {
        scheduler.submit(policy, utterance).expect("queue has room");
    }
    scheduler.run_until_idle();
    scheduler
        .take_trace_recording()
        .expect("tracing was enabled")
}

#[test]
fn a_single_draft_lane_never_overlaps_draft_phases() {
    let setup = StandardSetup::new(900, 12);
    let recording = traced_pipelined_run(&setup, 4, 1);
    let mut spans: Vec<(f64, f64)> = recording
        .events()
        .filter_map(|event| match event {
            TraceEvent::DraftPhase {
                start_ms, end_ms, ..
            } if end_ms > start_ms => Some((*start_ms, *end_ms)),
            _ => None,
        })
        .collect();
    assert!(spans.len() > 1, "the cell ran real draft phases");
    spans.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
    for pair in spans.windows(2) {
        assert!(
            pair[1].0 >= pair[0].1 - 1e-9,
            "draft spans [{:.3}, {:.3}] and [{:.3}, {:.3}] overlap on a single modeled lane",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }
}

#[test]
fn pipelining_starts_draft_work_before_the_tick_boundary_and_shrinks_device_idle() {
    let setup = StandardSetup::new(900, 12);
    let drained = traced_pipelined_run(&setup, 1, 0);
    let pipelined = traced_pipelined_run(&setup, 4, 0);

    // Cross-tick overlap witness: some session's draft phase ends after its
    // own tick ended.  The tick verified an earlier cohort and ended when
    // that wave landed; the straggler's round waits for the next tick,
    // whose sessions draft on beside it.
    let tick_ends: HashMap<u64, f64> = pipelined
        .events()
        .filter_map(|event| match event {
            TraceEvent::TickEnd { tick, ts_ms, .. } => Some((*tick, *ts_ms)),
            _ => None,
        })
        .collect();
    let head_start = pipelined.events().any(|event| match event {
        TraceEvent::DraftPhase { tick, end_ms, .. } => *end_ms > tick_ends[tick] + 1e-9,
        _ => false,
    });
    assert!(
        head_start,
        "no draft phase outlasted its tick under a depth-4 window"
    );

    // The whole point of the pipeline: the target device's between-span
    // gaps shrink (same busy time, earlier submissions).
    let final_idle = |recording: &FlightRecording| {
        recording
            .events()
            .filter_map(|event| match event {
                TraceEvent::DeviceUtilization { target_idle_ms, .. } => Some(*target_idle_ms),
                _ => None,
            })
            .last()
            .expect("every tick samples device utilization")
    };
    let drained_idle = final_idle(&drained);
    let pipelined_idle = final_idle(&pipelined);
    assert!(
        pipelined_idle < drained_idle,
        "pipelining must shrink target idle time ({pipelined_idle:.3} vs {drained_idle:.3})"
    );
}

#[test]
fn perfetto_export_is_schema_valid_and_deterministic() {
    let setup = StandardSetup::new(900, 6);
    let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
    let (first, _) = traced_run(&setup, policy, 4);
    let (second, _) = traced_run(&setup, policy, 4);
    let json = chrome_trace(&[("worker-0", &first)]);
    let summary = validate_chrome_trace(&json).expect("exporter emits schema-valid traces");
    assert!(summary.duration_slices > 0, "ticks and waves export slices");
    assert!(summary.counter_samples > 0, "KV occupancy exports counters");
    assert_eq!(json, chrome_trace(&[("worker-0", &second)]));
}

#[test]
fn streaming_trace_carries_partials_and_reconciles_spans() {
    let setup = StandardSetup::new(901, 6);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let run = || {
        let mut scheduler = Scheduler::new(
            setup.draft.clone(),
            setup.target.clone(),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            ServerConfig::default().with_max_batch(4),
        );
        scheduler.set_trace(TraceConfig::enabled().with_capacity(1 << 20));
        let stream = specasr_server::StreamConfig::default().with_chunk_seconds(0.6);
        for utterance in setup.corpus.split(Split::TestClean) {
            scheduler
                .submit_streaming(policy, utterance, stream)
                .expect("queue has room");
        }
        let outcomes = scheduler.run_until_idle();
        let recording = scheduler
            .take_trace_recording()
            .expect("tracing was enabled");
        (recording, outcomes)
    };
    let (recording, outcomes) = run();
    let (second, _) = run();
    assert_eq!(recording.to_jsonl(), second.to_jsonl());

    let partials = recording
        .events()
        .filter(|event| matches!(event, TraceEvent::PartialEmitted { .. }))
        .count();
    let emitted: usize = outcomes.iter().map(|outcome| outcome.partials.len()).sum();
    assert_eq!(partials, emitted, "every partial span has a trace event");
    let chunks = recording
        .events()
        .filter(|event| matches!(event, TraceEvent::ChunkArrived { .. }))
        .count();
    assert!(chunks > 0, "chunk arrivals are recorded");

    let spans = assemble_spans(recording.events());
    for outcome in &outcomes {
        let span = spans
            .iter()
            .find(|span| span.request == outcome.id.value())
            .expect("every outcome has a span");
        assert!(span.streaming);
        assert_eq!(span.queue_ms(), Some(outcome.latency.queue_ms));
        assert_eq!(span.decode_wall_ms(), Some(outcome.latency.decode_wall_ms));
        assert_eq!(span.e2e_ms(), Some(outcome.latency.e2e_ms()));
    }
}

#[test]
fn fleet_metrics_exposition_is_deterministic_and_complete() {
    let setup = StandardSetup::new(902, 8);
    let policy = Policy::Speculative(SpeculativeConfig::short_single());
    let run = || {
        let mut router = Router::new(
            RouterConfig::default().with_workers(2),
            setup.binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            |_| (setup.draft.clone(), setup.target.clone()),
        );
        router.set_trace(TraceConfig::enabled());
        for utterance in setup.corpus.split(Split::DevClean) {
            router.submit(policy, utterance).expect("queues have room");
        }
        router.run_until_idle();
        router
    };
    let mut first = run();
    let mut second = run();
    let text = first.fleet_metrics().render();
    assert_eq!(text, second.fleet_metrics().render());
    for family in [
        "# TYPE specasr_requests_completed_total counter",
        "# TYPE specasr_e2e_latency_ms histogram",
        "# TYPE specasr_kv_peak_blocks gauge",
        "# TYPE specasr_backend_verify_batches_total counter",
        "specasr_slo_completed_total{class=\"best-effort\"}",
        "specasr_requests_rejected_total{reason=\"memory\"} 0",
    ] {
        assert!(
            text.contains(family),
            "exposition missing `{family}`:\n{text}"
        );
    }
    // Per-worker recordings come back labelled with the worker lanes, and
    // the combined Perfetto export validates.
    let recordings = first.take_recordings();
    assert_eq!(recordings.len(), 2);
    assert_eq!(recordings[0].0, "worker-0");
    assert_eq!(recordings[1].0, "worker-1");
    let lanes: Vec<(&str, &FlightRecording)> = recordings
        .iter()
        .map(|(name, recording)| (name.as_str(), recording))
        .collect();
    let json = chrome_trace(&lanes);
    let lane_summary = validate_chrome_trace(&json).expect("fleet trace validates");
    assert!(lane_summary.events > 0);
    let _ = second.take_recordings();
}

/// A latency bucket's `le` bound is a constant of the bucket: a later scrape
/// shows every bucket an earlier scrape did, with a cumulative count at
/// least as large, however far the latency maximum moved in between.
#[test]
fn exposition_buckets_keep_their_bounds_across_scrapes() {
    fn e2e_buckets(router: &Router<SimulatedAsrModel, SimulatedAsrModel>) -> Vec<(String, u64)> {
        router
            .fleet_metrics()
            .render()
            .lines()
            .filter_map(|line| line.strip_prefix("specasr_e2e_latency_ms_bucket{le=\""))
            .map(|rest| {
                let (le, count) = rest.split_once("\"} ").expect("a bucket sample");
                (le.to_string(), count.parse().expect("an integral count"))
            })
            .collect()
    }

    let setup = StandardSetup::new(903, 8);
    let policy = Policy::Speculative(SpeculativeConfig::short_single());
    let mut router = Router::new(
        RouterConfig::default().with_workers(2),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| (setup.draft.clone(), setup.target.clone()),
    );
    // The first half arrives one request at a time and never queues; the
    // second half arrives at once, longest audio included, and raises the
    // latency maximum.
    let mut pool: Vec<&Utterance> = Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect();
    pool.sort_by(|a, b| a.duration_seconds().total_cmp(&b.duration_seconds()));
    let (first_half, second_half) = pool.split_at(pool.len() / 2);

    for utterance in first_half {
        router.submit(policy, utterance).expect("queues have room");
        router.run_until_idle();
    }
    let early = e2e_buckets(&router);
    let early_max = router.fleet_stats().e2e_histogram().percentile(1.0);
    for utterance in second_half {
        router.submit(policy, utterance).expect("queues have room");
    }
    router.run_until_idle();
    let late = e2e_buckets(&router);
    assert!(
        router.fleet_stats().e2e_histogram().percentile(1.0) > early_max,
        "the second half must raise the maximum"
    );

    assert!(early.len() > 2, "{early:?}");
    assert_eq!(early.last().map(|(le, _)| le.as_str()), Some("+Inf"));
    for (le, count) in &early {
        let later = late
            .iter()
            .find(|(bound, _)| bound == le)
            .unwrap_or_else(|| panic!("bucket le=\"{le}\" of the first scrape is gone: {late:?}"));
        assert!(
            later.1 >= *count,
            "bucket le=\"{le}\" counted {count}, then {}",
            later.1
        );
    }
}

/// The exposition a scrape refreshes in place renders, byte for byte, what
/// the reference path renders — the fleet aggregate merged afresh and
/// published into a fresh registry — through every change a kept
/// exposition must follow: the first scrape, a new `(policy, drafter)`
/// group, latencies below and above the range seen so far, a worker
/// drained and reaped, and a worker joining.
#[test]
fn a_scrape_refreshed_in_place_renders_the_reference_exposition() {
    type Fleet = Router<SimulatedAsrModel, SimulatedAsrModel>;
    fn reference(router: &Fleet) -> String {
        let mut registry = MetricsRegistry::new();
        router.fleet_stats().publish_metrics(&mut registry);
        registry.render()
    }
    fn check(router: &Fleet, phase: &str) {
        assert_eq!(
            router.fleet_metrics().render(),
            reference(router),
            "{phase}"
        );
    }

    let setup = StandardSetup::new(904, 8);
    let first = Policy::Speculative(SpeculativeConfig::short_single());
    let second = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let make = |_| (setup.draft.clone(), setup.target.clone());
    let mut router = Router::new(
        RouterConfig::default().with_workers(2),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        make,
    );
    let mut pool: Vec<&Utterance> = Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect();
    pool.sort_by(|a, b| a.duration_seconds().total_cmp(&b.duration_seconds()));
    let middle = &pool[pool.len() / 4..pool.len() * 3 / 4];

    for utterance in &middle[..8] {
        router.submit(first, utterance).expect("queues have room");
        router.run_until_idle();
    }
    check(&router, "the first scrape");

    for utterance in &middle[8..12] {
        router.submit(second, utterance).expect("queues have room");
        router.run_until_idle();
    }
    assert_eq!(router.fleet_stats().speculation_groups().len(), 2);
    check(&router, "a new (policy, drafter) group");

    // The lowest and the highest non-empty e2e bucket bound.
    let e2e_range = |router: &Fleet| {
        let stats = router.fleet_stats();
        let mut bounds = stats.e2e_histogram().buckets().map(|(bound, _)| bound);
        let low = bounds.next().expect("latencies recorded");
        (low, bounds.last().unwrap_or(low))
    };
    let (low, high) = e2e_range(&router);
    router.submit(first, pool[0]).expect("queues have room");
    router.run_until_idle();
    for utterance in &pool[pool.len() - 16..] {
        router.submit(second, utterance).expect("queues have room");
    }
    router.run_until_idle();
    let (new_low, new_high) = e2e_range(&router);
    assert!(
        new_low < low && new_high > high,
        "{low}..={high} to {new_low}..={new_high}"
    );
    check(&router, "latencies below and above the range seen");

    let newest = router.workers()[1].id();
    router.drain_worker(newest);
    router.run_until_idle();
    assert_eq!(router.reap_drained(), [newest]);
    check(&router, "a worker drained and reaped");

    router.add_worker(WorkerProfile::default(), make);
    check(&router, "a worker joined");
    for utterance in &middle[12..] {
        router.submit(first, utterance).expect("queues have room");
    }
    router.run_until_idle();
    check(&router, "the joined worker served");

    // A result still held leaves the kept registry borrowed: a second
    // scrape lends the same registry, which nothing could have changed.
    let held = router.fleet_metrics();
    let again = router.fleet_metrics();
    let mut published = MetricsRegistry::new();
    router.publish_metrics(&mut published);
    assert_eq!(held.render(), again.render());
    assert_eq!(held.render(), published.render());
    assert_eq!(held.render(), reference(&router));
}

#[test]
fn disabled_tracing_records_nothing() {
    let setup = StandardSetup::new(900, 4);
    let policy = Policy::Speculative(SpeculativeConfig::short_single());
    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default().with_max_batch(4),
    );
    for utterance in setup.corpus.split(Split::DevOther) {
        scheduler.submit(policy, utterance).expect("queue has room");
    }
    scheduler.run_until_idle();
    assert!(scheduler.take_trace_recording().is_none());
}
