//! Bench-regression comparison: fresh experiment records vs committed
//! baselines.
//!
//! The serving sweeps (`serve_load`, `serve_open_loop`, `serve_streaming`,
//! `serve_elastic`) are deterministic, so their committed `BENCH_*.json`
//! records are exact perf baselines.  The `bench_check` binary re-reads a
//! freshly generated record from `target/experiments/` and fails CI when any
//! gated metric drifts outside the tolerance band — throughput regressions
//! and P99 latency blow-ups alike, in either direction (an unexplained 40%
//! "improvement" usually means the benchmark stopped measuring what it used
//! to).  Regenerating a baseline goes through [`write_baseline`], which
//! prints what moved before it overwrites the committed file.

use specasr_metrics::{ExperimentRecord, ReportRow};

/// Metrics gated by the regression check, when present in a row.
///
/// The memory metrics (`peak_kv_blocks`, `preemptions`) gate the paged
/// KV-pool behaviour: a silent growth in peak occupancy is a memory
/// regression even when throughput holds, and a baseline of zero
/// preemptions must stay at zero (any fresh preemption blows the relative
/// band wide open by construction).
///
/// The streaming metrics (`first_partial_p99_ms`, `retraction_rate`) gate
/// the `serve_streaming` sweep: first-partial latency is the product metric
/// streaming exists for, and the retraction rate is the partial-stability
/// contract — a commit-rule change that silently makes partials flickier is
/// a regression even when throughput holds.
///
/// `backend_batch_occupancy` gates the decoder-backend batching behaviour:
/// the mean verification requests per cross-session `BackendBatch`.  A drop
/// toward 1.0 means the scheduler quietly stopped grouping verification
/// across sessions — the throughput benefit may survive in a given sweep
/// (the cost model is affine), but the backend is no longer being driven in
/// the batched shape real accelerators need, and that is a regression in
/// its own right.
///
/// `in_flight_depth` gates the pipelined scheduler's submit-ahead window:
/// the peak number of forward requests simultaneously outstanding on the
/// target backend (by modeled timestamp overlap).  A collapse back toward
/// the batch width means waves stopped overlapping across tick boundaries —
/// the scheduler silently fell back to one wave in flight and the device
/// timeline has idle gaps again.
///
/// `rejected_draft_device_ms` gates speculation efficiency: the device
/// milliseconds spent verifying draft tokens the target then rejected,
/// summed across every (policy, drafter) group.  Throughput can hold while
/// a drafter change quietly burns more device time on rejected drafts —
/// the waste only surfaces once the fleet saturates, so the ledger itself
/// is gated.
///
/// `migrations` gates the elastic-fleet drain path (`serve_elastic`): the
/// sessions moved off draining workers.  A drop to zero means drains
/// quietly stopped finding live sessions to migrate (the cell lost its
/// bite); growth means scale decisions or placement changed shape.  Either
/// way the behaviour the subsystem exists for moved, even if throughput
/// held.
///
/// `goodput_utps` gates what overload serving is *for*: completions that
/// still matter — within their TTFT budget in the ordering cells, per
/// second of the drain window in the elastic cells.  Raw throughput can
/// hold while an ordering or scaling change silently converts in-budget
/// completions into late ones; goodput is the metric that catches it.
pub const GATED_METRICS: [&str; 11] = [
    "throughput_utps",
    "e2e_p99_ms",
    "peak_kv_blocks",
    "preemptions",
    "first_partial_p99_ms",
    "retraction_rate",
    "backend_batch_occupancy",
    "in_flight_depth",
    "rejected_draft_device_ms",
    "migrations",
    "goodput_utps",
];

/// Default relative tolerance: exact, up to floating-point noise.
///
/// Every gated metric is a modeled number and the sweeps regenerate bit for
/// bit, so any drift is a behaviour change.  The `1e-9` band only absorbs
/// last-digit libm differences between hosts.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// Renders a relative tolerance as a band: `±15.0%`, or `±1e-9` when the
/// band is too narrow to read at one decimal of a percent.
pub fn band(tolerance: f64) -> String {
    if tolerance >= 5e-4 {
        format!("\u{b1}{:.1}%", tolerance * 100.0)
    } else {
        format!("\u{b1}{tolerance:.0e}")
    }
}

/// Renders a relative change as a signed percentage (`-20.0%`), or in
/// scientific notation when it is too small to read at one decimal.
fn signed_percent(relative: f64) -> String {
    if relative.abs() >= 5e-4 {
        format!("{:+.1}%", relative * 100.0)
    } else {
        format!("{relative:+.1e}")
    }
}

/// One gated metric that drifted outside the tolerance band, or a row that
/// disappeared from the fresh record.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The baseline row has no counterpart in the fresh record.
    MissingRow {
        /// The baseline row label.
        label: String,
    },
    /// The baseline row carries a gated metric the fresh row dropped.
    MissingMetric {
        /// The row label.
        label: String,
        /// The gated metric name.
        metric: String,
    },
    /// A gated metric moved outside the tolerance band.
    Drift {
        /// The row label.
        label: String,
        /// The gated metric name.
        metric: String,
        /// The committed baseline value.
        baseline: f64,
        /// The freshly measured value.
        fresh: f64,
        /// `(fresh - baseline) / baseline`.
        relative: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MissingRow { label } => {
                write!(f, "row `{label}` is missing from the fresh record")
            }
            Violation::MissingMetric { label, metric } => {
                write!(f, "row `{label}` lost gated metric `{metric}`")
            }
            Violation::Drift {
                label,
                metric,
                baseline,
                fresh,
                relative,
            } => write!(
                f,
                "row `{label}` metric `{metric}` drifted {} (baseline {baseline}, fresh {fresh})",
                signed_percent(*relative)
            ),
        }
    }
}

/// Compares a fresh record against its committed baseline.
///
/// Every baseline row must still exist, keep its gated metrics, and keep
/// each gated value within `tolerance` (relative) of the baseline.  Rows or
/// metrics that only exist in the fresh record are fine — adding coverage is
/// not a regression.
///
/// # Example
///
/// ```
/// use specasr_bench::regression::{compare_records, DEFAULT_TOLERANCE};
/// use specasr_metrics::{ExperimentRecord, ReportRow};
///
/// let baseline = ExperimentRecord::new("x", "t")
///     .with_row(ReportRow::new("a").with("throughput_utps", 10.0));
/// let fresh = ExperimentRecord::new("x", "t")
///     .with_row(ReportRow::new("a").with("throughput_utps", 10.5));
/// // A 5% drift passes a ±10% band, but not the exact default.
/// assert!(compare_records(&baseline, &fresh, 0.10).is_empty());
/// assert_eq!(compare_records(&baseline, &fresh, DEFAULT_TOLERANCE).len(), 1);
/// ```
///
/// # Panics
///
/// Panics if `tolerance` is not finite and non-negative.
pub fn compare_records(
    baseline: &ExperimentRecord,
    fresh: &ExperimentRecord,
    tolerance: f64,
) -> Vec<Violation> {
    assert!(
        tolerance.is_finite() && tolerance >= 0.0,
        "tolerance must be finite and non-negative"
    );
    let mut violations = Vec::new();
    for base_row in &baseline.rows {
        let Some(fresh_row) = fresh.row(&base_row.label) else {
            violations.push(Violation::MissingRow {
                label: base_row.label.clone(),
            });
            continue;
        };
        for metric in GATED_METRICS {
            let Some(base_value) = base_row.value(metric) else {
                continue;
            };
            let Some(fresh_value) = fresh_row.value(metric) else {
                violations.push(Violation::MissingMetric {
                    label: base_row.label.clone(),
                    metric: metric.to_owned(),
                });
                continue;
            };
            let scale = base_value.abs().max(f64::EPSILON);
            let relative = (fresh_value - base_value) / scale;
            if relative.abs() > tolerance {
                violations.push(Violation::Drift {
                    label: base_row.label.clone(),
                    metric: metric.to_owned(),
                    baseline: base_value,
                    fresh: fresh_value,
                    relative,
                });
            }
        }
    }
    violations
}

/// Formats the full gated-metric diagnostic table of one breached row:
/// every gated metric the baseline row carries, with its baseline value,
/// current value, relative delta, the allowed band, and a per-metric
/// verdict (`ok` / `DRIFT` / `MISSING`).
///
/// `bench_check` prints this for each row with at least one violation, so a
/// gate breach shows the whole row's health at a glance instead of only the
/// first metric that tripped.  `fresh_row` is `None` when the row vanished
/// from the fresh record entirely.
pub fn breach_table(base_row: &ReportRow, fresh_row: Option<&ReportRow>, tolerance: f64) -> String {
    let allowed = band(tolerance);
    let mut lines = vec![format!(
        "{:<26} {:>20} {:>20} {:>9} {:>9}  status",
        "metric", "baseline", "current", "delta", "allowed"
    )];
    for metric in GATED_METRICS {
        let Some(base_value) = base_row.value(metric) else {
            continue;
        };
        match fresh_row.and_then(|row| row.value(metric)) {
            None => lines.push(format!(
                "{metric:<26} {base_value:>20} {:>20} {:>9} {allowed:>9}  MISSING",
                "-", "-"
            )),
            Some(fresh_value) => {
                let scale = base_value.abs().max(f64::EPSILON);
                let relative = (fresh_value - base_value) / scale;
                let status = if relative.abs() > tolerance {
                    "DRIFT"
                } else {
                    "ok"
                };
                lines.push(format!(
                    "{metric:<26} {base_value:>20} {fresh_value:>20} {:>9} {allowed:>9}  {status}",
                    signed_percent(relative)
                ));
            }
        }
    }
    lines.join("\n")
}

/// Reads an experiment record from the JSON file at `path`.
pub fn load(path: &str) -> Result<ExperimentRecord, String> {
    let content =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    serde_json::from_str(&content).map_err(|error| format!("cannot parse {path}: {error}"))
}

/// Renders `violations` of `fresh` against `baseline`: one
/// [`breach_table`] per row with a violation, in the order the rows first
/// breach, under a ``row `label`:`` line; a row missing from `fresh` is its
/// violation's line alone.
pub fn breach_report(
    baseline: &ExperimentRecord,
    fresh: &ExperimentRecord,
    violations: &[Violation],
    tolerance: f64,
) -> String {
    let mut lines = Vec::new();
    let mut reported: Vec<&str> = Vec::new();
    for violation in violations {
        let label = match violation {
            Violation::MissingRow { .. } => {
                lines.push(violation.to_string());
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
        lines.push(format!("row `{label}`:"));
        for line in breach_table(base_row, fresh.row(label), tolerance).lines() {
            lines.push(format!("  {line}"));
        }
    }
    lines.join("\n")
}

/// What replacing the baseline `previous` with `fresh` changes, at the
/// exact [`DEFAULT_TOLERANCE`]: the [`breach_report`] of every row that
/// moved or vanished, a line per row that is new, or one line saying that
/// every row is unchanged.
pub fn baseline_changes(previous: &ExperimentRecord, fresh: &ExperimentRecord) -> String {
    let violations = compare_records(previous, fresh, DEFAULT_TOLERANCE);
    let mut lines = Vec::new();
    if !violations.is_empty() {
        lines.push(breach_report(
            previous,
            fresh,
            &violations,
            DEFAULT_TOLERANCE,
        ));
    }
    for row in &fresh.rows {
        if previous.row(&row.label).is_none() {
            lines.push(format!("row `{}` is new", row.label));
        }
    }
    if lines.is_empty() {
        return format!(
            "all {} rows unchanged at {}",
            fresh.rows.len(),
            band(DEFAULT_TOLERANCE)
        );
    }
    lines.join("\n")
}

/// Regenerates the committed baseline at `path` from `record`.  Before it
/// overwrites the file, it prints [`baseline_changes`] against the record
/// the file holds, so a regeneration says what it moved.
pub fn write_baseline(path: &str, record: &ExperimentRecord) {
    match load(path) {
        Ok(previous) => {
            println!("{path}:");
            for line in baseline_changes(&previous, record).lines() {
                println!("  {line}");
            }
        }
        Err(error) => println!("{path}: no previous baseline to compare ({error})"),
    }
    match std::fs::write(path, record.to_json()) {
        Ok(()) => println!("(baseline record written to {path})"),
        Err(error) => eprintln!("warning: could not write {path}: {error}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ±15% band: the within-band cases below drift by up to 14%.
    const BAND: f64 = 0.15;

    fn record(throughput: f64, p99: f64) -> ExperimentRecord {
        ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("w1@q10")
                .with("throughput_utps", throughput)
                .with("e2e_p99_ms", p99)
                .with("ungated_metric", 1.0e9),
        )
    }

    #[test]
    fn identical_records_pass() {
        let base = record(20.0, 900.0);
        assert!(compare_records(&base, &base.clone(), DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn drift_within_tolerance_passes_and_ungated_metrics_are_ignored() {
        let base = record(20.0, 900.0);
        let mut fresh = record(20.0 * 1.14, 900.0 * 0.86);
        fresh.rows[0].values.insert("ungated_metric".into(), 0.0);
        assert!(compare_records(&base, &fresh, BAND).is_empty());
    }

    #[test]
    fn drift_beyond_tolerance_fails_in_both_directions() {
        let base = record(20.0, 900.0);
        let slow = record(20.0 * 0.8, 900.0);
        let violations = compare_records(&base, &slow, BAND);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("throughput_utps"));
        assert!(violations[0].to_string().contains("-20.0%"));

        let spiky = record(20.0, 900.0 * 1.3);
        let violations = compare_records(&base, &spiky, BAND);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("e2e_p99_ms"));
    }

    #[test]
    fn missing_rows_and_metrics_are_violations() {
        let base = record(20.0, 900.0);
        let empty = ExperimentRecord::new("serve", "t");
        assert_eq!(
            compare_records(&base, &empty, DEFAULT_TOLERANCE),
            vec![Violation::MissingRow {
                label: "w1@q10".into()
            }]
        );

        let mut gutted = record(20.0, 900.0);
        gutted.rows[0].values.remove("e2e_p99_ms");
        let violations = compare_records(&base, &gutted, DEFAULT_TOLERANCE);
        assert_eq!(
            violations,
            vec![Violation::MissingMetric {
                label: "w1@q10".into(),
                metric: "e2e_p99_ms".into()
            }]
        );
    }

    #[test]
    fn breach_table_reports_every_gated_metric_with_verdicts() {
        let base = record(20.0, 900.0);
        let fresh = record(20.0 * 0.8, 900.0 * 1.05);
        let table = breach_table(&base.rows[0], fresh.row("w1@q10"), BAND);
        let lines: Vec<&str> = table.lines().collect();
        // Header + the two gated metrics the row carries; the ungated
        // metric never appears.
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("baseline") && lines[0].contains("allowed"));
        assert!(lines[1].contains("throughput_utps"));
        assert!(lines[1].contains("-20.0%"));
        assert!(lines[1].ends_with("DRIFT"));
        assert!(lines[2].contains("e2e_p99_ms"));
        assert!(lines[2].contains("+5.0%"));
        assert!(lines[2].ends_with("ok"));
        assert!(!table.contains("ungated_metric"));
    }

    #[test]
    fn breach_table_marks_missing_metrics_and_rows() {
        let base = record(20.0, 900.0);
        let mut gutted = record(20.0, 900.0);
        gutted.rows[0].values.remove("e2e_p99_ms");
        let table = breach_table(&base.rows[0], gutted.row("w1@q10"), DEFAULT_TOLERANCE);
        assert!(table
            .lines()
            .any(|l| l.contains("e2e_p99_ms") && l.ends_with("MISSING")));

        let vanished = breach_table(&base.rows[0], None, DEFAULT_TOLERANCE);
        assert!(vanished
            .lines()
            .skip(1)
            .all(|line| line.ends_with("MISSING")));
    }

    #[test]
    fn memory_metrics_are_gated_when_present() {
        let base = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("w2@q50-kv64")
                .with("peak_kv_blocks", 120.0)
                .with("preemptions", 0.0),
        );
        // Within band on occupancy, still zero preemptions: pass.
        let fresh = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("w2@q50-kv64")
                .with("peak_kv_blocks", 130.0)
                .with("preemptions", 0.0),
        );
        assert!(compare_records(&base, &fresh, BAND).is_empty());

        // Peak occupancy drift beyond the band fails.
        let bloated = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("w2@q50-kv64")
                .with("peak_kv_blocks", 160.0)
                .with("preemptions", 0.0),
        );
        let violations = compare_records(&base, &bloated, BAND);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("peak_kv_blocks"));

        // A zero-preemption baseline must stay at zero: one fresh
        // preemption is an unbounded relative drift.
        let preempting = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("w2@q50-kv64")
                .with("peak_kv_blocks", 120.0)
                .with("preemptions", 1.0),
        );
        let violations = compare_records(&base, &preempting, BAND);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("preemptions"));
    }

    #[test]
    fn streaming_metrics_are_gated_when_present() {
        let base = ExperimentRecord::new("serve_streaming", "t").with_row(
            ReportRow::new("adaptive-c300ms-b8")
                .with("first_partial_p99_ms", 400.0)
                .with("retraction_rate", 0.10),
        );
        let fresh_ok = ExperimentRecord::new("serve_streaming", "t").with_row(
            ReportRow::new("adaptive-c300ms-b8")
                .with("first_partial_p99_ms", 430.0)
                .with("retraction_rate", 0.11),
        );
        assert!(compare_records(&base, &fresh_ok, BAND).is_empty());

        // A commit rule that makes partials flickier fails the gate even
        // when latency holds.
        let flicky = ExperimentRecord::new("serve_streaming", "t").with_row(
            ReportRow::new("adaptive-c300ms-b8")
                .with("first_partial_p99_ms", 400.0)
                .with("retraction_rate", 0.20),
        );
        let violations = compare_records(&base, &flicky, BAND);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("retraction_rate"));

        let slow = ExperimentRecord::new("serve_streaming", "t").with_row(
            ReportRow::new("adaptive-c300ms-b8")
                .with("first_partial_p99_ms", 600.0)
                .with("retraction_rate", 0.10),
        );
        let violations = compare_records(&base, &slow, BAND);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("first_partial_p99_ms"));
    }

    #[test]
    fn backend_occupancy_is_gated_when_present() {
        let base = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("specasr-asp@c8")
                .with("throughput_utps", 25.0)
                .with("backend_batch_occupancy", 8.0),
        );
        let fresh_ok = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("specasr-asp@c8")
                .with("throughput_utps", 25.0)
                .with("backend_batch_occupancy", 7.5),
        );
        assert!(compare_records(&base, &fresh_ok, BAND).is_empty());

        // A scheduler that quietly stops batching verification across
        // sessions fails the gate even when throughput holds.
        let unbatched = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("specasr-asp@c8")
                .with("throughput_utps", 25.0)
                .with("backend_batch_occupancy", 1.0),
        );
        let violations = compare_records(&base, &unbatched, BAND);
        assert_eq!(violations.len(), 1);
        assert!(violations[0]
            .to_string()
            .contains("backend_batch_occupancy"));
    }

    #[test]
    fn rejected_draft_waste_is_gated_when_present() {
        let base = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("specasr-asp@c8")
                .with("throughput_utps", 25.0)
                .with("rejected_draft_device_ms", 40.0),
        );
        let fresh_ok = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("specasr-asp@c8")
                .with("throughput_utps", 25.0)
                .with("rejected_draft_device_ms", 43.0),
        );
        assert!(compare_records(&base, &fresh_ok, BAND).is_empty());

        // A drafter change that burns more device time on rejected drafts
        // fails the gate even when throughput holds.
        let wasteful = ExperimentRecord::new("serve", "t").with_row(
            ReportRow::new("specasr-asp@c8")
                .with("throughput_utps", 25.0)
                .with("rejected_draft_device_ms", 60.0),
        );
        let violations = compare_records(&base, &wasteful, BAND);
        assert_eq!(violations.len(), 1);
        assert!(violations[0]
            .to_string()
            .contains("rejected_draft_device_ms"));
    }

    #[test]
    fn migrations_and_goodput_are_gated_when_present() {
        let base = ExperimentRecord::new("serve_elastic", "t").with_row(
            ReportRow::new("drain-migrate@q60")
                .with("throughput_utps", 55.0)
                .with("migrations", 8.0)
                .with("goodput_utps", 55.0),
        );
        let fresh_ok = ExperimentRecord::new("serve_elastic", "t").with_row(
            ReportRow::new("drain-migrate@q60")
                .with("throughput_utps", 55.0)
                .with("migrations", 8.0)
                .with("goodput_utps", 54.0),
        );
        assert!(compare_records(&base, &fresh_ok, BAND).is_empty());

        // A drain that silently stops migrating live sessions fails the
        // gate even when throughput holds, and so does a scaling change
        // that converts in-budget completions into late ones.
        let degraded = ExperimentRecord::new("serve_elastic", "t").with_row(
            ReportRow::new("drain-migrate@q60")
                .with("throughput_utps", 55.0)
                .with("migrations", 0.0)
                .with("goodput_utps", 30.0),
        );
        let violations = compare_records(&base, &degraded, BAND);
        assert_eq!(violations.len(), 2);
        let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        assert!(rendered.iter().any(|line| line.contains("migrations")));
        assert!(rendered.iter().any(|line| line.contains("goodput_utps")));
    }

    #[test]
    fn the_default_tolerance_is_exact_up_to_float_noise() {
        let base = record(20.0, 900.0);
        let noisy = record(20.0 * (1.0 + 1e-12), 900.0);
        assert!(compare_records(&base, &noisy, DEFAULT_TOLERANCE).is_empty());
        let moved = record(20.0 * (1.0 + 1e-6), 900.0);
        let violations = compare_records(&base, &moved, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("+1.0e-6"));
        let table = breach_table(&base.rows[0], moved.row("w1@q10"), DEFAULT_TOLERANCE);
        let line = table.lines().nth(1).expect("a throughput line");
        assert!(line.contains("+1.0e-6") && line.contains("\u{b1}1e-9") && line.ends_with("DRIFT"));
        assert_eq!(band(0.15), "\u{b1}15.0%");
    }

    #[test]
    fn breach_reports_table_each_breached_row_once() {
        let base =
            record(20.0, 900.0).with_row(ReportRow::new("gone").with("throughput_utps", 1.0));
        let fresh = record(20.0 * 0.8, 900.0 * 1.3);
        let violations = compare_records(&base, &fresh, BAND);
        assert_eq!(violations.len(), 3);
        let report = breach_report(&base, &fresh, &violations, BAND);
        let lines: Vec<&str> = report.lines().collect();
        // One table for `w1@q10` (header plus its two gated metrics), then
        // the vanished row's violation.
        assert_eq!(lines.len(), 5, "{report}");
        assert_eq!(lines[0], "row `w1@q10`:");
        assert!(lines[1].starts_with("  metric"));
        assert!(lines[2].contains("throughput_utps") && lines[2].ends_with("DRIFT"));
        assert!(lines[3].contains("e2e_p99_ms") && lines[3].ends_with("DRIFT"));
        assert_eq!(lines[4], "row `gone` is missing from the fresh record");
    }

    #[test]
    fn an_unchanged_baseline_says_so_in_one_line() {
        let base =
            record(20.0, 900.0).with_row(ReportRow::new("w2@q10").with("throughput_utps", 30.0));
        let fresh = record(20.0 * (1.0 + 1e-12), 900.0)
            .with_row(ReportRow::new("w2@q10").with("throughput_utps", 30.0));
        assert_eq!(
            baseline_changes(&base, &fresh),
            "all 2 rows unchanged at \u{b1}1e-9"
        );
    }

    #[test]
    fn a_moved_baseline_tables_every_moved_row() {
        let base =
            record(20.0, 900.0).with_row(ReportRow::new("w2@q10").with("throughput_utps", 30.0));
        let fresh = record(20.0, 900.0 * (1.0 + 1e-6))
            .with_row(ReportRow::new("w2@q10").with("throughput_utps", 30.0))
            .with_row(ReportRow::new("w3@q10").with("throughput_utps", 45.0));
        let changes = baseline_changes(&base, &fresh);
        let lines: Vec<&str> = changes.lines().collect();
        // The moved row's table, then the new row; the unchanged row is
        // not mentioned.
        assert_eq!(lines.len(), 5, "{changes}");
        assert_eq!(lines[0], "row `w1@q10`:");
        assert!(lines[2].contains("throughput_utps") && lines[2].ends_with("ok"));
        assert!(lines[3].contains("e2e_p99_ms") && lines[3].contains("+1.0e-6"));
        assert!(lines[3].ends_with("DRIFT"));
        assert_eq!(lines[4], "row `w3@q10` is new");
        assert!(!changes.contains("w2@q10"));
    }

    #[test]
    fn extra_fresh_rows_are_not_violations() {
        let base = record(20.0, 900.0);
        let fresh = record(20.0, 900.0)
            .with_row(ReportRow::new("brand-new-cell").with("throughput_utps", 1.0));
        assert!(compare_records(&base, &fresh, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn negative_tolerance_panics() {
        compare_records(&record(1.0, 1.0), &record(1.0, 1.0), -0.1);
    }
}
