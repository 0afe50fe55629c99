//! `specbench` — one command that runs one named serving workload against
//! the public APIs of `specasr-server`, `specasr-fleet` and `specasr`, checks
//! every transcript, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path specbench/Cargo.toml -- \
//!     --workload open-fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (modeled clock and host clock);
//! `--trace 1` is a separate traced run that prints the per-layer metrics.
//! The last line of standard output is one JSON object; the lines before it
//! are a readable report.  Any failed check exits non-zero.  See
//! `specbench/README.md` for the workloads and how to read the numbers.

mod alloc;
mod metrics;
mod spans;
mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use specasr_trace::TraceAnalysis;

use metrics::{median, Metric};
use spans::Spans;
use workloads::{References, Replay, Request, Setup, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run at the least; `setup_s` is their median.  One set-up
/// precedes every replay, so the samples spread over the whole run rather
/// than one burst of the machine's load.
const MIN_SETUPS: usize = 15;

/// Untraced replays per `--trace 0` run at the least, whatever `--seconds`
/// says: the same-seed determinism check needs two, and the host-time
/// median a few samples.
const MIN_REPLAYS: usize = 3;

/// The modeled end-to-end metrics of `--trace 0`'s JSON line; the other
/// modeled numbers (`failed_share`, `mismatch_share`, lateness,
/// `capacity_qps`) are reported above it.
const END_TO_END: [&str; 6] = [
    "throughput_utps",
    "goodput_utps",
    "e2e_p50_ms",
    "e2e_p99_ms",
    "ttft_p99_ms",
    "worker_s_per_request",
];

const USAGE: &str = "usage: specbench --workload <open-fleet|open-fleet-rpc|stream-captions|\
                     elastic-burst> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => traced = Some(false),
                "1" => traced = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
            },
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// The correctness gate: checks every replay against the blocking
/// references and against the first replay's modeled metrics, and collects
/// what failed.
struct Gate<'a> {
    workload: Workload,
    plan: &'a [Request],
    references: &'a References,
    first: Option<Vec<Metric>>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Gate<'_> {
    fn check(&mut self, label: &str, replay: &Replay) {
        let (modeled, tally) = metrics::modeled(self.workload, self.plan, replay, self.references);
        self.attempted += replay.attempted;
        self.failed += tally.failed;
        if tally.mismatched > 0 {
            self.failures.push(format!(
                "{label}: {} transcripts differ from the blocking reference",
                tally.mismatched
            ));
        }
        if tally.lost > 0 {
            self.failures.push(format!(
                "{label}: {} requests neither completed exactly once nor were declined",
                tally.lost
            ));
        }
        if metrics::beyond_p99(tally.completed) < 10 {
            self.failures.push(format!(
                "{label}: {} completions leave fewer than ten samples beyond P99",
                tally.completed
            ));
        }
        let first = self.first.get_or_insert_with(|| modeled.clone());
        for (a, b) in first.iter().zip(&modeled) {
            if a.value.to_bits() != b.value.to_bits() {
                self.failures.push(format!(
                    "{label}: modeled {} is {} but the first replay gave {}",
                    a.name, b.value, a.value
                ));
            }
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1_024.0)
}

/// Builds the set-up, fleet included; returns it and the seconds it took.
fn timed_setup(workload: Workload, seed: u64) -> (Setup, f64) {
    let start = Instant::now();
    let setup = Setup::new(workload, seed);
    std::hint::black_box(setup.server(workload == Workload::OpenFleetRpc));
    (setup, start.elapsed().as_secs_f64())
}

/// Checks the flight-recorder attribution against the completed requests
/// and returns how many of them it did not reconcile bitwise.
///
/// `TraceAnalysis::reconcile` is strict: one fold that lands an ulp off its
/// recorded e2e, or one request the analysis skipped, fails it.  Both occur
/// in these workloads (streaming folds, and sessions that moved between
/// workers on a drain, whose lifecycle is split across lanes), so they are
/// counted in `trace.unreconciled_requests` and the reconcile verdict is
/// printed in the report.  A fold off by more than rounding, a completed
/// request the analysis neither attributed nor counted as skipped, dropped
/// events, or a ledger that does not fold exactly fail the run.
fn check_attribution(
    traced: &Replay,
    analysis: &TraceAnalysis,
    report: &mut String,
    failures: &mut Vec<String>,
) -> usize {
    let verdict = analysis
        .reconcile()
        .err()
        .unwrap_or_else(|| "ok".to_owned());
    let _ = writeln!(report, "trace reconcile: {verdict}");
    if analysis.dropped_events > 0 {
        failures.push(format!(
            "the recorder dropped {} events",
            analysis.dropped_events
        ));
    }
    let ledger = &analysis.ledger;
    if ledger.accounted_ms().to_bits() != ledger.total_ms().to_bits() {
        failures.push("the device ledger does not fold to busy + idle".to_owned());
    }
    let attributed: HashMap<u64, _> = analysis.requests.iter().map(|a| (a.request, a)).collect();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
    let mut inexact = 0;
    let mut missing = 0;
    for served in &traced.served {
        let id = served.outcome.id.value();
        let Some(attribution) = attributed.get(&id) else {
            missing += 1;
            continue;
        };
        let folded = attribution.attributed_ms();
        let recorded = served.outcome.e2e_ms();
        if !close(folded, attribution.e2e_ms) || !close(attribution.e2e_ms, recorded) {
            failures.push(format!(
                "request {id}: attribution folds to {folded}, trace e2e {}, outcome e2e \
                 {recorded}",
                attribution.e2e_ms
            ));
        }
        if folded.to_bits() != attribution.e2e_ms.to_bits() {
            inexact += 1;
        }
    }
    if missing as u64 > analysis.skipped_requests {
        failures.push(format!(
            "{missing} completed requests have no attribution but the analysis skipped only {}",
            analysis.skipped_requests
        ));
    }
    inexact + missing
}

/// What one run measured, for the report and the JSON line.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    report: String,
    failures: Vec<String>,
}

fn run(args: &Args) -> Outcome {
    let workload = args.workload;
    let rpc = workload == Workload::OpenFleetRpc;
    let mut report = String::new();
    let (setup, first_setup_s) = timed_setup(workload, args.seed);
    let mut setup_s = vec![first_setup_s];
    let pool_len = setup.pool().len();
    let plan = workloads::plan(workload, args.seed, pool_len);
    let mut reference_spans = Spans::new(args.traced);
    let references = workloads::references(&setup, &plan, &mut reference_spans);
    let mut gate = Gate {
        workload,
        plan: &plan,
        references: &references,
        first: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    // The measured phase: untraced replays (and, with `--trace 1`, a traced
    // replay after each) until `--seconds` have passed.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut host_us = Vec::new();
    let mut traced_host_us = Vec::new();
    let mut allocs = Vec::new();
    let mut last_traced = None;
    // A traced run compares a traced replay with an untraced one, and
    // `open-fleet-rpc` adds an in-process replay of the same plan below, so
    // both need fewer untraced replays for the determinism check.
    let min_replays = match (args.traced, rpc) {
        (true, _) => 1,
        (false, true) => MIN_REPLAYS - 1,
        (false, false) => MIN_REPLAYS,
    };
    while host_us.len() < min_replays || start.elapsed() < budget {
        setup_s.push(timed_setup(workload, args.seed).1);
        let replay = workloads::replay(&setup, &plan, rpc, false);
        gate.check("untraced replay", &replay);
        host_us.push(metrics::host_us_per_request(&replay));
        allocs.push(metrics::allocs_per_request(&replay));
        if args.traced {
            let replay = workloads::replay(&setup, &plan, rpc, true);
            gate.check("traced replay", &replay);
            traced_host_us.push(metrics::host_us_per_request(&replay));
            last_traced = Some(replay);
        }
    }
    let replays = host_us.len();
    while setup_s.len() < MIN_SETUPS {
        setup_s.push(timed_setup(workload, args.seed).1);
    }
    let measured_s = start.elapsed().as_secs_f64();

    // `open-fleet-rpc` must match the in-process fleet digit for digit.
    let in_process_host_us = rpc.then(|| {
        let replay = workloads::replay(&setup, &plan, false, false);
        gate.check("in-process replay", &replay);
        metrics::host_us_per_request(&replay)
    });

    let modeled = gate.first.clone().expect("at least one replay");
    let mut metrics = Vec::new();
    let mut extra = Vec::new();
    if let Some(traced) = last_traced {
        let lanes: Vec<(&str, &specasr_trace::FlightRecording)> = traced
            .recordings
            .iter()
            .map(|(name, recording)| (name.as_str(), recording))
            .collect();
        let mut analysis_spans = Spans::new(true);
        let analysis = analysis_spans.time("trace.analyze", None, None, || {
            specasr_trace::analyze_lanes(&lanes)
        });
        let unreconciled = check_attribution(&traced, &analysis, &mut report, &mut gate.failures);
        let span_us = |log: &Spans, name: &str| -> Vec<f64> {
            log.named(name).map(spans::Span::duration_us).collect()
        };
        metrics = metrics::per_layer(&metrics::LayerInputs {
            traced: &traced,
            analysis: &analysis,
            unreconciled,
            analyze_us: span_us(&analysis_spans, "trace.analyze").iter().sum(),
            ref_decode_us: [
                span_us(&reference_spans, "core.ref_decode.asp"),
                span_us(&reference_spans, "core.ref_decode.tsp"),
            ],
            untraced_host_us: median(&host_us),
            traced_host_us: median(&traced_host_us),
            in_process_host_us,
        });
        write_spans(
            args,
            &[&reference_spans, &traced.spans, &analysis_spans],
            &mut report,
        );
        let _ = writeln!(report, "span summary (count, total us, self us):");
        for (name, (count, total, own)) in traced.spans.summary() {
            let _ = writeln!(report, "  {name:<24} {count:>8} {total:>14.1} {own:>14.1}");
        }
    } else {
        for metric in modeled {
            if END_TO_END.contains(&metric.name.as_str()) {
                metrics.push(metric);
            } else {
                extra.push(metric);
            }
        }
        // Reported, not gated: see `server.host_us_per_request`.
        extra.push(Metric::new(
            "host_us_per_request",
            "us",
            median(&host_us),
            replays,
        ));
        metrics.push(Metric::new(
            "allocs_per_request",
            "count",
            median(&allocs),
            replays,
        ));
        metrics.push(Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1));
        metrics.push(Metric::new("setup_s", "s", median(&setup_s), setup_s.len()));
        if workload == Workload::OpenFleet {
            let capacity = workloads::CAPACITY_LADDER_QPS
                .into_iter()
                .filter(|&qps| {
                    let rung = workloads::plan_open(args.seed, qps, pool_len);
                    metrics::rung_holds(&rung, &workloads::replay(&setup, &rung, false, false))
                })
                .fold(0.0, f64::max);
            extra.push(Metric::new(
                "capacity_qps",
                "req/s",
                capacity,
                workloads::CAPACITY_LADDER_QPS.len(),
            ));
        }
    }

    let _ = writeln!(
        report,
        "workload {} seed {}: {replays} replays of {} requests in {measured_s:.1} s",
        workload.name(),
        args.seed,
        plan.len(),
    );
    for metric in metrics.iter().chain(&extra) {
        let _ = writeln!(
            report,
            "  {:<36} {:>16.6} {:<8} (n={})",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    for metric in &metrics {
        if !metric.value.is_finite() {
            gate.failures.push(format!("{} is not finite", metric.name));
        }
    }
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        report,
        failures: gate.failures,
    }
}

/// Writes every span of the traced run as JSON lines under the build
/// directory (`$CARGO_TARGET_DIR`, else `target`).
fn write_spans(args: &Args, logs: &[&Spans], report: &mut String) {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("specbench");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut body = String::new();
    let mut first_id = 0;
    for log in logs {
        body.push_str(&log.to_jsonl(first_id));
        first_id += log.len();
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => {
            let _ = writeln!(report, "spans written to {}", path.display());
        }
        Err(error) => eprintln!("warning: could not write {}: {error}", path.display()),
    }
}

fn json_line(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let correct = outcome.failures.is_empty();
    print!("{}", outcome.report);
    for failure in outcome.failures.iter().take(20) {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", json_line(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
