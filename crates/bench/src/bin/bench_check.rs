//! `bench_check` — the bench-regression gate.
//!
//! Compares freshly generated serving records under `target/experiments/`
//! against the committed `BENCH_*.json` baselines, failing (exit code 1)
//! when any gated metric (see [`GATED_METRICS`]: throughput, P99 latency,
//! KV-pool peaks/preemptions, streaming first-partial P99 and retraction
//! rate, decoder-backend verification batch occupancy, live-migration
//! counts and in-budget goodput) drifts outside the tolerance band in
//! either direction.
//!
//! ```text
//! # default pairs (serve_load + serve_open_loop + serve_streaming +
//! # serve_elastic), exact up to a 1e-9 relative tolerance:
//! cargo run -p specasr-bench --release --bin bench_check
//!
//! # explicit pairs and tolerance:
//! cargo run -p specasr-bench --release --bin bench_check -- \
//!     --tolerance 0.10 BENCH_serve.json target/experiments/serve_load.json
//! ```
//!
//! To intentionally move a baseline, rerun the sweep with
//! `SPECASR_WRITE_BASELINE=1` and commit the updated `BENCH_*.json`.
//!
//! Pass `--attribution <dump.jsonl>` (repeatable) with a flight-recorder
//! dump from a traced cell (`--trace-out` writes one next to the Perfetto
//! trace) and a gate breach arrives with *where the time went*: the
//! critical-path attribution, device-time ledger, and speculation-efficiency
//! report for that dump is printed under the breach tables, so a drifted
//! `e2e_p99_ms` or `rejected_draft_device_ms` can be read against the
//! per-component decomposition instead of re-running the sweep by hand.

use std::process::ExitCode;

use specasr_bench::experiments_dir;
use specasr_bench::regression::{
    band, breach_table, compare_records, Violation, DEFAULT_TOLERANCE, GATED_METRICS,
};
use specasr_metrics::ExperimentRecord;
use specasr_trace::{analyze_events, parse_jsonl, TraceAnalysis};

fn load(path: &str) -> Result<ExperimentRecord, String> {
    let content =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    serde_json::from_str(&content).map_err(|error| format!("cannot parse {path}: {error}"))
}

fn default_pairs() -> Vec<(String, String)> {
    let experiments = experiments_dir();
    [
        "serve_load",
        "serve_open_loop",
        "serve_streaming",
        "serve_elastic",
    ]
    .into_iter()
    .map(|id| {
        let baseline = match id {
            "serve_load" => "BENCH_serve.json",
            "serve_streaming" => "BENCH_stream.json",
            "serve_elastic" => "BENCH_serve_elastic.json",
            _ => "BENCH_serve_open.json",
        };
        (
            baseline.to_owned(),
            experiments.join(format!("{id}.json")).display().to_string(),
        )
    })
    .collect()
}

struct Args {
    tolerance: f64,
    pairs: Vec<(String, String)>,
    attributions: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut paths = Vec::new();
    let mut attributions = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => {
                let value = args
                    .next()
                    .ok_or_else(|| "--tolerance needs a value".to_owned())?;
                tolerance = value
                    .parse::<f64>()
                    .map_err(|_| format!("invalid tolerance `{value}`"))?;
                if !tolerance.is_finite() || tolerance < 0.0 {
                    return Err(format!("tolerance must be non-negative, got {value}"));
                }
            }
            "--attribution" => {
                attributions.push(
                    args.next()
                        .ok_or_else(|| "--attribution needs a path".to_owned())?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: bench_check [--tolerance 1e-9] [--attribution <dump.jsonl>]... \
                     [<baseline.json> <fresh.json>]..."
                        .to_owned(),
                )
            }
            path => paths.push(path.to_owned()),
        }
    }
    if paths.len() % 2 != 0 {
        return Err("paths must come in <baseline.json> <fresh.json> pairs".to_owned());
    }
    let pairs = if paths.is_empty() {
        default_pairs()
    } else {
        paths
            .chunks(2)
            .map(|pair| (pair[0].clone(), pair[1].clone()))
            .collect()
    };
    Ok(Args {
        tolerance,
        pairs,
        attributions,
    })
}

/// Prints the attribution report for one flight-recorder dump, indented
/// under the breach output, so a gate failure carries the per-component
/// "where the time went" decomposition of the traced cell.
fn print_attribution(path: &str) {
    let dump = match std::fs::read_to_string(path) {
        Ok(dump) => dump,
        Err(error) => {
            eprintln!("       (attribution dump {path} unreadable: {error})");
            return;
        }
    };
    let lanes = match parse_jsonl(&dump) {
        Ok(lanes) => lanes,
        Err(error) => {
            eprintln!("       (attribution dump {path} unparsable: {error})");
            return;
        }
    };
    let mut analysis = TraceAnalysis::default();
    for (_, events) in &lanes {
        analysis.merge(&analyze_events(events));
    }
    eprintln!("       where the time went ({path}):");
    for line in analysis.render_report().lines() {
        eprintln!("         {line}");
    }
    if let Err(message) = analysis.reconcile() {
        eprintln!("       (attribution dump {path} does not reconcile: {message})");
    }
}

fn main() -> ExitCode {
    let Args {
        tolerance,
        pairs,
        attributions,
    } = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_check: gating {:?} at {}",
        GATED_METRICS,
        band(tolerance)
    );

    let mut failed = false;
    for (baseline_path, fresh_path) in pairs {
        let (baseline, fresh) = match (load(&baseline_path), load(&fresh_path)) {
            (Ok(baseline), Ok(fresh)) => (baseline, fresh),
            (baseline, fresh) => {
                for result in [baseline.map(|_| ()), fresh.map(|_| ())] {
                    if let Err(message) = result {
                        eprintln!("bench_check: {message}");
                    }
                }
                failed = true;
                continue;
            }
        };
        let violations = compare_records(&baseline, &fresh, tolerance);
        if violations.is_empty() {
            println!(
                "  OK   {fresh_path} vs {baseline_path} ({} rows gated)",
                baseline.rows.len()
            );
        } else {
            failed = true;
            eprintln!("  FAIL {fresh_path} vs {baseline_path}:");
            // One full diagnostic table per breached row (not just the
            // tripped metrics), so the whole row's health is visible.
            let mut reported: Vec<&str> = Vec::new();
            for violation in &violations {
                let label = match violation {
                    Violation::MissingRow { label: _ } => {
                        eprintln!("       {violation}");
                        continue;
                    }
                    Violation::MissingMetric { label, .. } | Violation::Drift { label, .. } => {
                        label.as_str()
                    }
                };
                if reported.contains(&label) {
                    continue;
                }
                reported.push(label);
                let base_row = baseline
                    .row(label)
                    .expect("violation labels come from baseline rows");
                eprintln!("       row `{label}`:");
                for line in breach_table(base_row, fresh.row(label), tolerance).lines() {
                    eprintln!("         {line}");
                }
            }
        }
    }

    if failed {
        // A breach arrives with the traced cells' attribution so the drift
        // can be read against where the time actually went.
        for path in &attributions {
            print_attribution(path);
        }
        eprintln!(
            "bench_check: regression gate FAILED — if the change is intentional, regenerate \
             baselines with SPECASR_WRITE_BASELINE=1 and commit them"
        );
        ExitCode::FAILURE
    } else {
        println!("bench_check: all baselines within tolerance");
        ExitCode::SUCCESS
    }
}
