//! Metrics computed from the returned `RequestOutcome`s, the plan's due
//! times and the benchmark's own clocks — never from `ServerStats`
//! aggregates, so a rework of the server's statistics cannot move them.

use specasr_trace::{TraceAnalysis, ATTRIBUTION_COMPONENTS, LEDGER_PARTS};

use crate::spans::Span;
use crate::workloads::{is_tsp, References, Replay, Request, Workload};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Exact nearest-rank percentile of an ascending-sorted sample.
pub fn nearest_rank(sorted: &[f64], percentile: f64) -> f64 {
    let rank = (percentile / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the P99 nearest rank.
pub fn beyond_p99(samples: usize) -> usize {
    samples - (0.99 * samples as f64).ceil() as usize
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values.to_vec());
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, count), value| {
            (sum + value, count + 1)
        });
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// What the correctness gate needs to know about one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub completed: usize,
    /// Completed transcripts that differ from their blocking reference.
    pub mismatched: usize,
    /// Accepted requests that neither completed nor were shed with a
    /// counted reason, plus outcomes for ids never accepted or seen twice.
    pub lost: usize,
    /// Requests refused at submit, shed at admission, never completed or
    /// answered wrongly: the numerator of `failed_share`.
    pub failed: usize,
}

/// The modeled end-to-end metrics of one replay (bit-identical for a given
/// seed), plus the tally the correctness gate checks.
pub fn modeled(
    workload: Workload,
    plan: &[Request],
    replay: &Replay,
    references: &References,
) -> (Vec<Metric>, Tally) {
    let completed = replay.served.len();
    let shed = replay.stats.rejected_deadline() + replay.stats.rejected_memory();
    let mismatched = replay
        .served
        .iter()
        .filter(|served| {
            let request = &plan[served.request];
            let key = (is_tsp(&request.policy), served.outcome.utterance_id);
            references.get(&key) != Some(&served.outcome.text)
        })
        .count();
    let tally = Tally {
        completed,
        mismatched,
        lost: (replay.accepted - completed).abs_diff(shed) + replay.unexpected,
        failed: replay.attempted - completed + mismatched,
    };

    let mut e2e = Vec::with_capacity(completed);
    let mut ttft = Vec::with_capacity(completed);
    let mut within = 0;
    let mut last_completion_ms = f64::NEG_INFINITY;
    for served in &replay.served {
        let request = &plan[served.request];
        let late_ms = served.submit_ms - request.due_ms;
        let e2e_ms = late_ms + served.outcome.e2e_ms();
        let ttft_ms = late_ms + served.outcome.latency.time_to_first_token_ms;
        last_completion_ms = last_completion_ms.max(request.due_ms + e2e_ms);
        if workload.within_limit(request, e2e_ms, ttft_ms) {
            within += 1;
        }
        e2e.push(e2e_ms);
        ttft.push(ttft_ms);
    }
    let e2e = sorted(e2e);
    let ttft = sorted(ttft);
    let window_s = (last_completion_ms - plan[0].due_ms) / 1_000.0;
    let attempted = replay.attempted;
    let metrics = vec![
        Metric::new(
            "throughput_utps",
            "utt/s",
            completed as f64 / window_s,
            completed,
        ),
        Metric::new("goodput_utps", "utt/s", within as f64 / window_s, within),
        Metric::new("e2e_p50_ms", "ms", nearest_rank(&e2e, 50.0), completed),
        Metric::new("e2e_p99_ms", "ms", nearest_rank(&e2e, 99.0), completed),
        Metric::new("ttft_p99_ms", "ms", nearest_rank(&ttft, 99.0), completed),
        Metric::new(
            "worker_s_per_request",
            "s",
            replay.worker_ms / 1_000.0 / completed as f64,
            completed,
        ),
        Metric::new(
            "failed_share",
            "ratio",
            tally.failed as f64 / attempted as f64,
            attempted,
        ),
        Metric::new(
            "mismatch_share",
            "ratio",
            mismatched as f64 / completed as f64,
            completed,
        ),
        Metric::new("lateness_max_ms", "ms", replay.lateness_max_ms, attempted),
        Metric::new(
            "lateness_mean_ms",
            "ms",
            replay.lateness_sum_ms / attempted as f64,
            attempted,
        ),
    ];
    (metrics, tally)
}

/// `capacity_qps` rung test: e2e P99 (from due) within the limit, and no
/// queue growth between the half-way and the last arrival.  Single queue
/// readings jitter by a request or two even on a stable fleet, so each end
/// is the mean over a tenth of the arrivals, and one request of slack is
/// allowed.
pub fn rung_holds(plan: &[Request], replay: &Replay) -> bool {
    let e2e = sorted(
        replay
            .served
            .iter()
            .map(|served| served.submit_ms - plan[served.request].due_ms + served.outcome.e2e_ms())
            .collect(),
    );
    let depths = &replay.queue_depths;
    let tenth = (depths.len() / 10).max(1);
    let half = depths.len() / 2;
    let mean_depth = |window: &[usize]| mean(window.iter().map(|&depth| depth as f64));
    let at_half = mean_depth(&depths[half + 1 - tenth..=half]);
    let at_last = mean_depth(&depths[depths.len() - tenth..]);
    nearest_rank(&e2e, 99.0) <= 1_000.0 && at_last <= at_half + 1.0
}

/// Host wall µs per request of one replay's timed serving phase.
pub fn host_us_per_request(replay: &Replay) -> f64 {
    replay.wall_ns as f64 / 1_000.0 / replay.attempted as f64
}

pub fn allocs_per_request(replay: &Replay) -> f64 {
    replay.allocs.count as f64 / replay.attempted as f64
}

/// The spans of calls that advance the server's clock.
const ADVANCE: [&str; 2] = ["advance_to", "run_until_idle"];

/// `field` summed over every span with one of `names`.
fn span_sum(replay: &Replay, names: &[&str], field: impl Fn(&Span) -> u64) -> u64 {
    names
        .iter()
        .flat_map(|name| replay.spans.named(name))
        .map(field)
        .sum()
}

/// Host-clock durations (µs) of every span called `name`, sorted.
fn span_us(replay: &Replay, name: &str) -> Vec<f64> {
    sorted(
        replay
            .spans
            .named(name)
            .map(|span| span.duration_us())
            .collect(),
    )
}

/// Per-layer metrics of one traced replay.  Host timings come from the
/// benchmark's spans; modeled counts from public accessors after the run.
pub struct LayerInputs<'a> {
    pub traced: &'a Replay,
    pub analysis: &'a TraceAnalysis,
    /// Completed requests the attribution did not reconcile bitwise.
    pub unreconciled: usize,
    pub analyze_us: f64,
    pub ref_decode_us: [Vec<f64>; 2],
    /// Median host µs per request of the untraced and of the traced
    /// replays, and (on `open-fleet-rpc` only) that of one in-process
    /// replay of the same plan.
    pub untraced_host_us: f64,
    pub traced_host_us: f64,
    pub in_process_host_us: Option<f64>,
}

pub fn per_layer(inputs: &LayerInputs<'_>) -> Vec<Metric> {
    let replay = inputs.traced;
    let attempted = replay.attempted as f64;
    let completed = replay.served.len();
    let stats = &replay.stats;
    let per_request = |value: f64| value / attempted;
    let mut metrics = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64, samples: usize| {
        metrics.push(Metric::new(name, unit, value, samples));
    };

    // server
    // The whole untraced serving phase per request, median of the run.  Wall
    // time on a shared host drifts far beyond any usable bound from one
    // minute to the next, so this end-to-end host cost is reported here,
    // unbounded, rather than gated.
    push(
        "server.host_us_per_request",
        "us",
        inputs.untraced_host_us,
        replay.attempted,
    );
    let submit = span_us(replay, "submit");
    push(
        "server.submit_us_p50",
        "us",
        nearest_rank(&submit, 50.0),
        submit.len(),
    );
    push(
        "server.submit_us_p99",
        "us",
        nearest_rank(&submit, 99.0),
        submit.len(),
    );
    let advance: Vec<f64> = ADVANCE
        .iter()
        .flat_map(|name| span_us(replay, name))
        .collect();
    push(
        "server.advance_us_per_request",
        "us",
        per_request(advance.iter().sum()),
        advance.len(),
    );
    push(
        "server.allocs_submit",
        "count",
        per_request(span_sum(replay, &["submit"], |span| span.allocs) as f64),
        submit.len(),
    );
    push(
        "server.allocs_advance",
        "count",
        per_request(span_sum(replay, &ADVANCE, |span| span.allocs) as f64),
        advance.len(),
    );
    push(
        "server.ticks_per_request",
        "count",
        per_request(stats.ticks() as f64),
        replay.attempted,
    );
    let queue_wait = sorted(
        replay
            .served
            .iter()
            .map(|served| served.outcome.latency.queue_ms)
            .collect(),
    );
    push(
        "server.queue_wait_p50_ms",
        "ms",
        nearest_rank(&queue_wait, 50.0),
        completed,
    );
    push(
        "server.queue_wait_p99_ms",
        "ms",
        nearest_rank(&queue_wait, 99.0),
        completed,
    );
    push("server.stolen", "count", replay.stolen as f64, 1);
    push("server.rejected_queue", "count", replay.refused as f64, 1);
    push(
        "server.rejected_deadline",
        "count",
        stats.rejected_deadline() as f64,
        1,
    );
    push(
        "server.rejected_memory",
        "count",
        stats.rejected_memory() as f64,
        1,
    );
    // Only the open-fleet workloads scrape; the others read 0.
    let scrapes: Vec<f64> = replay
        .spans
        .named("scrape")
        .map(|span| span.duration_us())
        .collect();
    let (scrape_p50, scrape_growth) = if scrapes.is_empty() {
        (0.0, 0.0)
    } else {
        let tenth = (scrapes.len() / 10).max(1);
        (
            nearest_rank(&sorted(scrapes.clone()), 50.0),
            mean(scrapes[scrapes.len() - tenth..].iter().copied())
                / mean(scrapes[..tenth].iter().copied()),
        )
    };
    push("server.scrape_us_p50", "us", scrape_p50, scrapes.len());
    push(
        "server.scrape_growth",
        "ratio",
        scrape_growth,
        scrapes.len(),
    );

    // core
    let (predicted, accepted, tokens, rounds) =
        replay
            .served
            .iter()
            .fold((0, 0, 0, 0), |(p, a, t, r), served| {
                let decode = &served.outcome.outcome;
                (
                    p + decode.stats.predicted_tokens,
                    a + decode.stats.accepted_tokens,
                    t + decode.tokens.len(),
                    r + decode.stats.rounds,
                )
            });
    push(
        "core.acceptance",
        "ratio",
        accepted as f64 / predicted as f64,
        completed,
    );
    push(
        "core.tokens_per_round",
        "count",
        tokens as f64 / rounds as f64,
        rounds,
    );
    for (name, decodes) in [
        ("core.ref_decode_us.asp", &inputs.ref_decode_us[0]),
        ("core.ref_decode_us.tsp", &inputs.ref_decode_us[1]),
    ] {
        let value = if decodes.is_empty() {
            0.0
        } else {
            nearest_rank(&sorted(decodes.clone()), 50.0)
        };
        push(name, "us", value, decodes.len());
    }

    // models
    let backend = stats.backend();
    push(
        "models.verify_batch_occupancy",
        "ratio",
        backend.verify_batch_occupancy(),
        backend.verify_batches(),
    );
    push(
        "models.peak_in_flight",
        "count",
        backend.peak_in_flight() as f64,
        1,
    );
    let device_ms = backend.device_busy_ms() + backend.device_idle_ms();
    push(
        "models.device_busy_share",
        "ratio",
        backend.device_busy_ms() / device_ms,
        1,
    );
    push(
        "models.rejected_draft_ms_per_request",
        "ms",
        stats.rejected_draft_device_ms() / completed as f64,
        completed,
    );
    push(
        "models.rpc_host_ratio",
        "ratio",
        inputs
            .in_process_host_us
            .map_or(0.0, |in_process| inputs.untraced_host_us / in_process),
        1,
    );

    // runtime
    let memory = stats.memory();
    push(
        "runtime.peak_kv_blocks",
        "blocks",
        memory.peak_kv_blocks() as f64,
        1,
    );
    push("runtime.avg_kv_blocks", "blocks", memory.avg_kv_blocks(), 1);
    push(
        "runtime.preemptions",
        "count",
        memory.preemptions() as f64,
        1,
    );
    push(
        "runtime.prefix_hit_rate",
        "ratio",
        memory.shared_prefix_hit_rate(),
        memory.prefix_lookups(),
    );
    push("runtime.cow_copies", "count", memory.cow_copies() as f64, 1);

    // stream
    let streams: Vec<_> = replay
        .served
        .iter()
        .filter(|served| served.outcome.is_streaming())
        .collect();
    let partials: usize = streams
        .iter()
        .map(|served| served.outcome.partials.len())
        .sum();
    push(
        "stream.partials_per_utt",
        "count",
        if streams.is_empty() {
            0.0
        } else {
            partials as f64 / streams.len() as f64
        },
        streams.len(),
    );
    push(
        "stream.retraction_rate",
        "ratio",
        stats.retraction_rate(),
        partials,
    );
    let spans_ms = sorted(
        streams
            .iter()
            .flat_map(|served| served.outcome.partials.iter().map(|p| p.span_ms()))
            .collect(),
    );
    push(
        "stream.partial_span_p99_ms",
        "ms",
        if spans_ms.is_empty() {
            0.0
        } else {
            nearest_rank(&spans_ms, 99.0)
        },
        spans_ms.len(),
    );

    // fleet
    let fleet = replay.fleet.as_ref();
    let counters = fleet.map(|f| f.counters).unwrap_or_default();
    push("fleet.evaluations", "count", counters.evaluations as f64, 1);
    push(
        "fleet.breached_share",
        "ratio",
        if counters.evaluations == 0 {
            0.0
        } else {
            counters.breached_evaluations as f64 / counters.evaluations as f64
        },
        counters.evaluations,
    );
    push("fleet.scale_ups", "count", counters.scale_ups as f64, 1);
    push("fleet.scale_downs", "count", counters.scale_downs as f64, 1);
    push(
        "fleet.workers_peak",
        "count",
        fleet.map_or(0, |f| f.workers_peak) as f64,
        1,
    );
    push(
        "fleet.workers_final",
        "count",
        fleet.map_or(0, |f| f.workers_final) as f64,
        1,
    );
    push(
        "fleet.migrations_handoff",
        "count",
        stats.migrated_in_handoff() as f64,
        1,
    );
    push(
        "fleet.migrations_restore",
        "count",
        stats.migrated_in_restore() as f64,
        1,
    );
    // Every call of `elastic-burst` goes through the controller.
    let through_fleet = fleet.is_some();
    push(
        "fleet.advance_us_per_request",
        "us",
        if through_fleet {
            per_request(advance.iter().sum())
        } else {
            0.0
        },
        advance.len(),
    );
    let fleet_bytes = if through_fleet {
        span_sum(
            replay,
            &["submit", "advance_to", "run_until_idle"],
            |span| span.alloc_bytes,
        )
    } else {
        0
    };
    push(
        "fleet.alloc_bytes_per_request",
        "bytes",
        per_request(fleet_bytes as f64),
        replay.attempted,
    );

    // trace
    let analysis = inputs.analysis;
    let attributed = analysis.requests.len();
    for (index, component) in ATTRIBUTION_COMPONENTS.iter().enumerate() {
        push(
            &format!("trace.attr.{component}"),
            "ms",
            mean(
                analysis
                    .requests
                    .iter()
                    .map(|request| request.components()[index].1),
            ),
            attributed,
        );
    }
    let total_ms = analysis.ledger.total_ms();
    for (index, part) in LEDGER_PARTS.iter().enumerate() {
        push(
            &format!("trace.ledger.{}_share", part.trim_end_matches("_ms")),
            "ratio",
            analysis.ledger.parts()[index].1 / total_ms,
            1,
        );
    }
    push(
        "trace.overhead_share",
        "ratio",
        inputs.traced_host_us / inputs.untraced_host_us - 1.0,
        1,
    );
    let events: usize = replay
        .recordings
        .iter()
        .map(|(_, recording)| recording.len())
        .sum();
    push(
        "trace.events_per_request",
        "count",
        events as f64 / attempted,
        events,
    );
    push(
        "trace.dropped_events",
        "count",
        analysis.dropped_events as f64,
        1,
    );
    push(
        "trace.unreconciled_requests",
        "count",
        inputs.unreconciled as f64,
        completed,
    );
    push("trace.analyze_us", "us", inputs.analyze_us, 1);
    metrics
}
