//! Critical-path attribution and speculation-efficiency analytics over a
//! flight recording.
//!
//! Aggregate stats say *how fast* the server was; this module says *why*.
//! It folds a [`FlightRecording`] into three deterministic products:
//!
//! * **Per-request attribution** ([`RequestAttribution`]): each request's
//!   end-to-end latency decomposed *exactly* — the flat left-fold of the
//!   eight components in [`ATTRIBUTION_COMPONENTS`] order is bitwise equal
//!   to the `RequestLatency::e2e_ms` the scheduler reported (the span
//!   assembly reconciles with the stats layer, and the residual component
//!   closes the fold to the span's own e2e).
//! * **Device-time ledger** ([`DeviceLedger`]): the target device's busy
//!   milliseconds split into work on accepted tokens, probe/bonus overhead,
//!   and compute wasted on rejected drafts, plus idle — the accepted-length
//!   efficiency axis the paper compares speculation policies on.  The fold
//!   of the four parts is bitwise equal to `busy + idle`.
//! * **Speculation efficiency per policy × drafter**
//!   ([`SpeculationEfficiency`]): acceptance ratio (overall and by round
//!   depth) and the device-ms split attributed to each `(policy, drafter)`
//!   group, with wasted milliseconds per rejected draft token.
//!
//! Exactness is by construction, not by accident: component lists end in a
//! *residual* entry that closes the running left-fold to the recorded total
//! (the `close_residual` fix-up), so reconciliation holds bitwise for every f64
//! rounding mode the intermediate sums hit.  The analysis is pure — same
//! recording, same output — and works identically on a live
//! [`FlightRecording`] or a re-parsed JSONL dump (the shared JSON shim
//! formats floats shortest-round-trip, so a dump loses no bits).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::event::TraceEvent;
use crate::prom::MetricsRegistry;
use crate::recorder::FlightRecording;
use crate::span::assemble_spans;

/// Names of the eight attribution components, in canonical fold order.
pub const ATTRIBUTION_COMPONENTS: [&str; 8] = [
    "queue_wait_ms",
    "preemption_penalty_ms",
    "encoder_ms",
    "draft_ms",
    "draft_lane_wait_ms",
    "device_backlog_ms",
    "device_service_ms",
    "pipeline_bubble_ms",
];

/// Names of the four device-ledger parts, in canonical fold order.
pub const LEDGER_PARTS: [&str; 4] = [
    "accepted_work_ms",
    "probe_overhead_ms",
    "rejected_draft_ms",
    "idle_ms",
];

/// Round depths deeper than this bucket together in the by-depth acceptance
/// split (the paper's interesting regime is the first few rounds).
pub const MAX_DEPTH_BUCKET: u64 = 8;

/// Adjusts the final element of `parts` so the flat left-fold of the whole
/// slice is bitwise equal to `total`.
///
/// A single `total - partial_sum` correction is almost always exact, but the
/// final addition can re-round; the bounded fix-up loop nudges the residual
/// until the fold lands on `total` exactly.
///
/// When the head's sum sits exactly half a step of the residual's grid off
/// `total`, every candidate sum is a tie, which rounds half to even: an odd
/// `total` is then out of reach whatever the residual.  The largest head
/// part is then nudged up by one ulp, which soon moves the head's sum off
/// the tie, and the residual is closed again.
fn close_residual(total: f64, parts: &mut [f64]) {
    let Some((last, head)) = parts.split_last_mut() else {
        return;
    };
    for _ in 0..64 {
        if close_last(total, fold(head), last) {
            return;
        }
        match head.iter_mut().max_by(|a, b| a.abs().total_cmp(&b.abs())) {
            Some(largest) => *largest = largest.next_up(),
            None => return,
        }
    }
}

/// Sets `last` so `base + last` is bitwise `total`, if the bounded fix-up
/// loop finds such a value; returns whether it did.
fn close_last(total: f64, base: f64, last: &mut f64) -> bool {
    *last = total - base;
    for _ in 0..64 {
        let sum = base + *last;
        if sum == total {
            return true;
        }
        *last += total - sum;
    }
    false
}

/// Flat left-fold of a component list — *the* reconciliation sum.
fn fold(parts: &[f64]) -> f64 {
    parts.iter().fold(0.0_f64, |acc, part| acc + part)
}

/// Exact critical-path decomposition of one request's end-to-end latency.
///
/// The components, in fold order, are:
///
/// 1. `queue_wait_ms` — arrival to *first* admission.
/// 2. `preemption_penalty_ms` — the rest of the recorded queue time: decode
///    work thrown away by preemptions (offline requests restart from their
///    last admission, so everything between first and last admission is
///    penalty).  Residual-closed against the span's `queue_ms`.
/// 3. `encoder_ms` — the charged encoder latency (timeline-independent).
/// 4. `draft_ms` — time inside draft phases.
/// 5. `draft_lane_wait_ms` — gaps between a round becoming ready and its
///    draft phase starting (queueing behind the modeled draft-lane budget).
///    A round is ready from the later of its tick's start and the
///    session's latest admission.
/// 6. `device_backlog_ms` — verify waves waiting for the device to start
///    them (submitted → started).
/// 7. `device_service_ms` — verify waves executing (started → completed).
/// 8. `pipeline_bubble_ms` — everything else on the decode wall: tick
///    barriers (a stream parked awaiting its next chunk included) and
///    wave-batching gaps.  Residual-closed so the full fold is bitwise
///    equal to [`RequestAttribution::e2e_ms`].
#[derive(Debug, Clone, PartialEq)]
pub struct RequestAttribution {
    /// Request id.
    pub request: u64,
    /// Decode-policy label of the request.
    pub policy: String,
    /// Drafter label of the request.
    pub drafter: String,
    /// Whether the request was streaming.
    pub streaming: bool,
    /// The recorded end-to-end latency being decomposed.
    pub e2e_ms: f64,
    /// Draft/verify rounds observed on the timeline.
    pub rounds: u64,
    /// Arrival → first admission.
    pub queue_wait_ms: f64,
    /// Queue time beyond the first admission (preemption restarts).
    pub preemption_penalty_ms: f64,
    /// Charged encoder latency.
    pub encoder_ms: f64,
    /// Time inside draft phases.
    pub draft_ms: f64,
    /// Ready → draft start gaps (draft-lane queueing).
    pub draft_lane_wait_ms: f64,
    /// Verify submitted → started (device queue).
    pub device_backlog_ms: f64,
    /// Verify started → completed (device execution).
    pub device_service_ms: f64,
    /// Residual decode wall time (tick barriers, wave-batching gaps).
    pub pipeline_bubble_ms: f64,
}

impl RequestAttribution {
    /// The components in canonical fold order, paired with their names.
    pub fn components(&self) -> [(&'static str, f64); 8] {
        [
            (ATTRIBUTION_COMPONENTS[0], self.queue_wait_ms),
            (ATTRIBUTION_COMPONENTS[1], self.preemption_penalty_ms),
            (ATTRIBUTION_COMPONENTS[2], self.encoder_ms),
            (ATTRIBUTION_COMPONENTS[3], self.draft_ms),
            (ATTRIBUTION_COMPONENTS[4], self.draft_lane_wait_ms),
            (ATTRIBUTION_COMPONENTS[5], self.device_backlog_ms),
            (ATTRIBUTION_COMPONENTS[6], self.device_service_ms),
            (ATTRIBUTION_COMPONENTS[7], self.pipeline_bubble_ms),
        ]
    }

    /// The report's columns: `e2e_ms`, then the components in fold order.
    fn report_columns(&self) -> [f64; 9] {
        let parts = self.components().map(|(_, part)| part);
        std::array::from_fn(|column| match column {
            0 => self.e2e_ms,
            _ => parts[column - 1],
        })
    }

    /// Flat left-fold of the components — bitwise equal to
    /// [`RequestAttribution::e2e_ms`] by construction.
    pub fn attributed_ms(&self) -> f64 {
        self.components()
            .iter()
            .fold(0.0_f64, |acc, (_, part)| acc + part)
    }
}

/// The fleet-level device-time ledger of the target device.
///
/// `accepted_work_ms + probe_overhead_ms + rejected_draft_ms` folds bitwise
/// to `busy_ms`, and appending `idle_ms_part` folds bitwise to
/// [`DeviceLedger::total_ms`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceLedger {
    /// Recorded device busy milliseconds (summed span lengths).
    pub busy_ms: f64,
    /// Recorded device idle milliseconds (gaps on used lanes).
    pub idle_ms: f64,
    /// Busy time spent producing tokens that were accepted.
    pub accepted_work_ms: f64,
    /// Busy time spent on probe/bonus positions beyond the drafted tokens.
    pub probe_overhead_ms: f64,
    /// Busy time wasted on rejected draft tokens (residual-closed to
    /// `busy_ms`; includes waves whose sessions were preempted before
    /// commit).
    pub rejected_draft_ms: f64,
    /// The idle part of the fold (residual-closed to
    /// [`DeviceLedger::total_ms`]; equals `idle_ms` up to the closing
    /// correction).
    pub idle_ms_part: f64,
    /// Draft tokens proposed across all observed outcomes.
    pub drafted_tokens: u64,
    /// Draft tokens accepted across all observed outcomes.
    pub accepted_tokens: u64,
    /// Token width billed across all observed outcomes.
    pub charged_tokens: u64,
    /// Verify waves whose device batch could not be matched for its billed
    /// width (`0` on a complete recording).
    pub unmatched_waves: u64,
}

impl DeviceLedger {
    /// The ledger's reconciliation target: `busy_ms + idle_ms`.
    pub fn total_ms(&self) -> f64 {
        self.busy_ms + self.idle_ms
    }

    /// The four parts in canonical fold order, paired with their names.
    pub fn parts(&self) -> [(&'static str, f64); 4] {
        [
            (LEDGER_PARTS[0], self.accepted_work_ms),
            (LEDGER_PARTS[1], self.probe_overhead_ms),
            (LEDGER_PARTS[2], self.rejected_draft_ms),
            (LEDGER_PARTS[3], self.idle_ms_part),
        ]
    }

    /// Flat left-fold of the parts — bitwise equal to
    /// [`DeviceLedger::total_ms`] by construction.
    pub fn accounted_ms(&self) -> f64 {
        let values: Vec<f64> = self.parts().iter().map(|(_, v)| *v).collect();
        fold(&values)
    }

    /// Rejected draft tokens (drafted minus accepted).
    pub fn rejected_tokens(&self) -> u64 {
        self.drafted_tokens.saturating_sub(self.accepted_tokens)
    }

    /// Wasted device milliseconds per rejected draft token.
    pub fn wasted_ms_per_rejected_token(&self) -> f64 {
        let rejected = self.rejected_tokens();
        if rejected == 0 {
            0.0
        } else {
            self.rejected_draft_ms / rejected as f64
        }
    }

    /// Re-closes the residual parts: `rejected_draft_ms` to `busy_ms`, then
    /// `idle_ms_part` to [`DeviceLedger::total_ms`].
    fn close(&mut self) {
        let mut busy_parts = [
            self.accepted_work_ms,
            self.probe_overhead_ms,
            self.rejected_draft_ms,
        ];
        close_residual(self.busy_ms, &mut busy_parts);
        // A tie may have nudged a head part: keep every part closed.
        [
            self.accepted_work_ms,
            self.probe_overhead_ms,
            self.rejected_draft_ms,
        ] = busy_parts;
        // The three parts fold to `busy_ms`, so `idle_ms` closes the total
        // exactly and the head is never nudged here.
        let mut all_parts = [
            self.accepted_work_ms,
            self.probe_overhead_ms,
            self.rejected_draft_ms,
            self.idle_ms_part,
        ];
        close_residual(self.total_ms(), &mut all_parts);
        self.idle_ms_part = all_parts[3];
    }
}

/// Speculation efficiency of one `(policy, drafter)` group.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationEfficiency {
    /// Decode-policy label.
    pub policy: String,
    /// Drafter label.
    pub drafter: String,
    /// Requests attributed to the group.
    pub requests: u64,
    /// Verify outcomes (rounds) observed.
    pub rounds: u64,
    /// Draft tokens proposed.
    pub drafted_tokens: u64,
    /// Draft tokens accepted.
    pub accepted_tokens: u64,
    /// Token width billed on the device.
    pub charged_tokens: u64,
    /// Device busy ms on accepted tokens (the group's share).
    pub accepted_work_ms: f64,
    /// Device busy ms on probe/bonus positions.
    pub probe_overhead_ms: f64,
    /// Device busy ms wasted on rejected draft tokens.
    pub rejected_draft_ms: f64,
    /// `(depth, drafted, accepted)` per round depth, depth-ordered; depths
    /// past [`MAX_DEPTH_BUCKET`] pool into the last bucket.
    pub by_depth: Vec<(u64, u64, u64)>,
}

impl SpeculationEfficiency {
    /// Overall acceptance ratio (accepted / drafted).
    pub fn acceptance(&self) -> f64 {
        if self.drafted_tokens == 0 {
            0.0
        } else {
            self.accepted_tokens as f64 / self.drafted_tokens as f64
        }
    }

    /// Wasted device milliseconds per rejected draft token in this group.
    pub fn wasted_ms_per_rejected_token(&self) -> f64 {
        let rejected = self.drafted_tokens.saturating_sub(self.accepted_tokens);
        if rejected == 0 {
            0.0
        } else {
            self.rejected_draft_ms / rejected as f64
        }
    }
}

/// The full analysis of one recording (or a merged fleet of them).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceAnalysis {
    /// Per-request attributions, ordered by request id.
    pub requests: Vec<RequestAttribution>,
    /// The target-device time ledger.
    pub ledger: DeviceLedger,
    /// Draft-lane busy ms (reported, not part of the ledger closure).
    pub draft_busy_ms: f64,
    /// Draft-lane idle ms.
    pub draft_idle_ms: f64,
    /// Per `(policy, drafter)` efficiency groups, label-ordered.
    pub groups: Vec<SpeculationEfficiency>,
    /// Requests skipped because their span was incomplete: some lifecycle
    /// was recorded in this lane but pieces are missing (a truncated
    /// window), which voids the exactness claim.
    pub skipped_requests: u64,
    /// Submission-only spans: the request was enqueued in this lane and
    /// then left it before admission — moved to another worker by stealing
    /// or shed from the queue.  Its lifecycle is attributed in the lane
    /// that served it (stolen requests keep their original arrival stamp),
    /// so hand-offs do not void reconciliation.
    pub handed_off_requests: u64,
    /// Events the recorder dropped (ring wraparound) across analyzed lanes.
    pub dropped_events: u64,
}

impl TraceAnalysis {
    /// Looks up one request's attribution.
    pub fn attribution_for(&self, request: u64) -> Option<&RequestAttribution> {
        self.requests.iter().find(|a| a.request == request)
    }

    /// Looks up one `(policy, drafter)` efficiency group.
    pub fn group(&self, policy: &str, drafter: &str) -> Option<&SpeculationEfficiency> {
        self.groups
            .iter()
            .find(|g| g.policy == policy && g.drafter == drafter)
    }

    /// Verifies both exactness contracts and the recording's completeness.
    ///
    /// # Errors
    ///
    /// Returns the first failed identity: a request whose component fold is
    /// not bitwise equal to its recorded e2e, a ledger fold that is not
    /// bitwise equal to busy+idle, or a lossy recording (dropped events /
    /// skipped requests), which voids the exactness claim.
    pub fn reconcile(&self) -> Result<(), String> {
        if self.dropped_events > 0 {
            return Err(format!(
                "{} events were dropped by the recorder ring; attribution is not exact over \
                 a partial window",
                self.dropped_events
            ));
        }
        if self.skipped_requests > 0 {
            return Err(format!(
                "{} requests had incomplete spans and were skipped",
                self.skipped_requests
            ));
        }
        for attribution in &self.requests {
            let folded = attribution.attributed_ms();
            if folded.to_bits() != attribution.e2e_ms.to_bits() {
                return Err(format!(
                    "request {} attribution folds to {folded} but its recorded e2e is {}",
                    attribution.request, attribution.e2e_ms
                ));
            }
        }
        let folded = self.ledger.accounted_ms();
        let total = self.ledger.total_ms();
        if folded.to_bits() != total.to_bits() {
            return Err(format!(
                "device ledger folds to {folded} but busy+idle is {total}"
            ));
        }
        Ok(())
    }

    /// Merges another analysis (fleet semantics: requests interleave by id,
    /// ledgers and groups sum, residuals re-close).
    pub fn merge(&mut self, other: &TraceAnalysis) {
        self.requests.extend(other.requests.iter().cloned());
        self.requests.sort_by_key(|a| a.request);
        self.ledger.busy_ms += other.ledger.busy_ms;
        self.ledger.idle_ms += other.ledger.idle_ms;
        self.ledger.accepted_work_ms += other.ledger.accepted_work_ms;
        self.ledger.probe_overhead_ms += other.ledger.probe_overhead_ms;
        self.ledger.rejected_draft_ms += other.ledger.rejected_draft_ms;
        self.ledger.idle_ms_part += other.ledger.idle_ms_part;
        self.ledger.drafted_tokens += other.ledger.drafted_tokens;
        self.ledger.accepted_tokens += other.ledger.accepted_tokens;
        self.ledger.charged_tokens += other.ledger.charged_tokens;
        self.ledger.unmatched_waves += other.ledger.unmatched_waves;
        self.ledger.close();
        self.draft_busy_ms += other.draft_busy_ms;
        self.draft_idle_ms += other.draft_idle_ms;
        for group in &other.groups {
            match self
                .groups
                .iter_mut()
                .find(|g| g.policy == group.policy && g.drafter == group.drafter)
            {
                Some(mine) => {
                    mine.requests += group.requests;
                    mine.rounds += group.rounds;
                    mine.drafted_tokens += group.drafted_tokens;
                    mine.accepted_tokens += group.accepted_tokens;
                    mine.charged_tokens += group.charged_tokens;
                    mine.accepted_work_ms += group.accepted_work_ms;
                    mine.probe_overhead_ms += group.probe_overhead_ms;
                    mine.rejected_draft_ms += group.rejected_draft_ms;
                    for (depth, drafted, accepted) in &group.by_depth {
                        match mine.by_depth.iter_mut().find(|(d, _, _)| d == depth) {
                            Some((_, md, ma)) => {
                                *md += drafted;
                                *ma += accepted;
                            }
                            None => mine.by_depth.push((*depth, *drafted, *accepted)),
                        }
                    }
                    mine.by_depth.sort_by_key(|(d, _, _)| *d);
                }
                None => self.groups.push(group.clone()),
            }
        }
        self.groups
            .sort_by(|a, b| (&a.policy, &a.drafter).cmp(&(&b.policy, &b.drafter)));
        self.skipped_requests += other.skipped_requests;
        self.handed_off_requests += other.handed_off_requests;
        self.dropped_events += other.dropped_events;
    }

    /// Publishes attribution sums, the ledger, and per-group efficiency into
    /// a metrics registry.
    pub fn publish_metrics(&self, registry: &mut MetricsRegistry) {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for attribution in &self.requests {
            for (name, value) in attribution.components() {
                *sums.entry(name).or_insert(0.0) += value;
            }
        }
        for (component, value) in sums {
            registry.set_counter(
                "specasr_attribution_ms_total",
                "Critical-path attribution totals across completed requests",
                &[("component", component)],
                value,
            );
        }
        for (part, value) in self.ledger.parts() {
            registry.set_counter(
                "specasr_device_ledger_ms_total",
                "Target-device busy/idle time split by speculation outcome",
                &[("part", part)],
                value,
            );
        }
        registry.set_gauge(
            "specasr_wasted_ms_per_rejected_token",
            "Device milliseconds wasted per rejected draft token",
            &[],
            self.ledger.wasted_ms_per_rejected_token(),
        );
        for group in &self.groups {
            let labels = [
                ("policy", group.policy.as_str()),
                ("drafter", group.drafter.as_str()),
            ];
            registry.set_gauge(
                "specasr_speculation_acceptance",
                "Acceptance ratio per policy and drafter",
                &labels,
                group.acceptance(),
            );
            registry.set_counter(
                "specasr_speculation_rejected_draft_ms_total",
                "Device ms wasted on rejected drafts per policy and drafter",
                &labels,
                group.rejected_draft_ms,
            );
            for (depth, drafted, accepted) in &group.by_depth {
                let depth_label = if *depth >= MAX_DEPTH_BUCKET {
                    format!("{MAX_DEPTH_BUCKET}+")
                } else {
                    format!("{depth}")
                };
                let acceptance = if *drafted == 0 {
                    0.0
                } else {
                    *accepted as f64 / *drafted as f64
                };
                registry.set_gauge(
                    "specasr_speculation_acceptance_by_depth",
                    "Acceptance ratio per round depth, policy, and drafter",
                    &[
                        ("policy", group.policy.as_str()),
                        ("drafter", group.drafter.as_str()),
                        ("depth", depth_label.as_str()),
                    ],
                    acceptance,
                );
            }
        }
    }

    /// Each `(policy, drafter)` group's request count and the mean of each
    /// report column over its requests, label-ordered.
    fn group_means(&self) -> Vec<(&str, &str, usize, [f64; 9])> {
        let mut sums: BTreeMap<(&str, &str), (usize, [f64; 9])> = BTreeMap::new();
        for a in &self.requests {
            let (count, sum) = sums
                .entry((a.policy.as_str(), a.drafter.as_str()))
                .or_default();
            *count += 1;
            for (total, value) in sum.iter_mut().zip(a.report_columns()) {
                *total += value;
            }
        }
        sums.into_iter()
            .map(|((policy, drafter), (count, sum))| {
                (
                    policy,
                    drafter,
                    count,
                    sum.map(|total| total / count as f64),
                )
            })
            .collect()
    }

    /// Renders the human-readable attribution report.  The attribution
    /// section lists every request, then one mean row per
    /// `(policy, drafter)` group.
    pub fn render_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== critical-path attribution (ms per request) ==");
        let _ = writeln!(
            out,
            "{:>7}  {:<22} {:<9} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "request",
            "policy",
            "drafter",
            "e2e",
            "queue",
            "preempt",
            "encoder",
            "draft",
            "lane",
            "backlog",
            "service",
            "bubble",
        );
        for a in &self.requests {
            write_attribution_row(
                &mut out,
                &a.request,
                &a.policy,
                &a.drafter,
                a.report_columns(),
            );
        }
        let means = self.group_means();
        if !means.is_empty() {
            let _ = writeln!(out, "-- mean per (policy, drafter), over n requests --");
        }
        for (policy, drafter, count, columns) in means {
            write_attribution_row(&mut out, &format!("n={count}"), policy, drafter, columns);
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "== device-time ledger (target device, ms) ==");
        let _ = writeln!(
            out,
            "busy {:.3}  idle {:.3}  (draft lane: busy {:.3}  idle {:.3})",
            self.ledger.busy_ms, self.ledger.idle_ms, self.draft_busy_ms, self.draft_idle_ms,
        );
        for (part, value) in self.ledger.parts() {
            let share = if self.ledger.total_ms() > 0.0 {
                value / self.ledger.total_ms() * 100.0
            } else {
                0.0
            };
            let _ = writeln!(out, "{part:<22} {value:>12.3}  ({share:>5.1}%)");
        }
        let _ = writeln!(
            out,
            "rejected tokens {}  wasted ms/rejected token {:.4}",
            self.ledger.rejected_tokens(),
            self.ledger.wasted_ms_per_rejected_token(),
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "== speculation efficiency (policy x drafter) ==");
        let _ = writeln!(
            out,
            "{:<22} {:<9} {:>6} {:>8} {:>8} {:>7} {:>12} {:>10}",
            "policy", "drafter", "rounds", "drafted", "accept", "ratio", "rejected_ms", "ms/rej",
        );
        for group in &self.groups {
            let _ = writeln!(
                out,
                "{:<22} {:<9} {:>6} {:>8} {:>8} {:>7.3} {:>12.3} {:>10.4}",
                group.policy,
                group.drafter,
                group.rounds,
                group.drafted_tokens,
                group.accepted_tokens,
                group.acceptance(),
                group.rejected_draft_ms,
                group.wasted_ms_per_rejected_token(),
            );
            let depths: Vec<String> = group
                .by_depth
                .iter()
                .map(|(depth, drafted, accepted)| {
                    let label = if *depth >= MAX_DEPTH_BUCKET {
                        format!("{MAX_DEPTH_BUCKET}+")
                    } else {
                        format!("{depth}")
                    };
                    let ratio = if *drafted == 0 {
                        0.0
                    } else {
                        *accepted as f64 / *drafted as f64
                    };
                    format!("d{label}:{ratio:.3}")
                })
                .collect();
            if !depths.is_empty() {
                let _ = writeln!(out, "  acceptance by depth: {}", depths.join("  "));
            }
        }
        if self.handed_off_requests > 0 {
            let _ = writeln!(
                out,
                "\n({} submissions were handed off to another lane before admission)",
                self.handed_off_requests,
            );
        }
        if self.skipped_requests > 0 || self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "\n(warning: {} skipped requests, {} dropped events — window is partial)",
                self.skipped_requests, self.dropped_events,
            );
        }
        out
    }
}

/// Writes one row of the report's attribution section: `first` (a request
/// id, or a group's count), the labels, then `columns` (see
/// [`RequestAttribution::report_columns`]).
fn write_attribution_row(
    out: &mut String,
    first: &dyn std::fmt::Display,
    policy: &str,
    drafter: &str,
    columns: [f64; 9],
) {
    use std::fmt::Write as _;
    let [e2e, queue, preempt, encoder, draft, lane, backlog, service, bubble] = columns;
    let _ = writeln!(
        out,
        "{first:>7}  {policy:<22} {drafter:<9} {e2e:>10.3} {queue:>10.3} {preempt:>9.3} \
         {encoder:>9.3} {draft:>9.3} {lane:>9.3} {backlog:>9.3} {service:>9.3} {bubble:>9.3}",
    );
}

/// Analyzes one recording.
pub fn analyze(recording: &FlightRecording) -> TraceAnalysis {
    let mut analysis = analyze_events(recording.events());
    analysis.dropped_events = recording.dropped_events();
    analysis
}

/// Analyzes a labelled fleet of recordings and merges the result.
pub fn analyze_lanes(lanes: &[(&str, &FlightRecording)]) -> TraceAnalysis {
    let mut merged = TraceAnalysis::default();
    for (_, recording) in lanes {
        merged.merge(&analyze(recording));
    }
    merged
}

/// Analyzes a raw event stream (e.g. one lane of a parsed JSONL dump).
pub fn analyze_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> TraceAnalysis {
    let events: Vec<&TraceEvent> = events.into_iter().collect();
    let spans = assemble_spans(events.iter().copied());

    // Tick start times anchor the barrier/lane split of pre-draft gaps.
    let mut tick_starts: BTreeMap<u64, f64> = BTreeMap::new();
    // Wave service spans and billed widths, keyed by (tick, wave).
    let mut wave_service: BTreeMap<(u64, u64), (f64, f64, f64)> = BTreeMap::new();
    let mut batch_charges: BTreeMap<(u64, u64, u64), (u64, u64)> = BTreeMap::new();
    // Verify outcomes in stream order, with per-request depth counters.
    let mut outcomes: Vec<(u64, u64, u64, u64, u64, u64)> = Vec::new();
    let mut device = (0.0_f64, 0.0_f64, 0.0_f64, 0.0_f64);
    for event in &events {
        match event {
            TraceEvent::TickStart { ts_ms, tick, .. } => {
                tick_starts.insert(*tick, *ts_ms);
            }
            TraceEvent::VerifyWaveCompleted {
                tick,
                wave,
                submitted_ms,
                started_ms,
                completed_ms,
                ..
            } => {
                wave_service.insert((*tick, *wave), (*submitted_ms, *started_ms, *completed_ms));
            }
            TraceEvent::DeviceBatch {
                ts_ms,
                started_ms,
                completed_ms,
                charge_tokens,
                requests,
                ..
            } => {
                batch_charges.insert(
                    (
                        ts_ms.to_bits(),
                        started_ms.to_bits(),
                        completed_ms.to_bits(),
                    ),
                    (*charge_tokens, *requests),
                );
            }
            TraceEvent::VerifyOutcome {
                tick,
                wave,
                request,
                drafted,
                accepted,
                charged,
                ..
            } => {
                outcomes.push((*tick, *wave, *request, *drafted, *accepted, *charged));
            }
            TraceEvent::DeviceUtilization {
                draft_busy_ms,
                draft_idle_ms,
                target_busy_ms,
                target_idle_ms,
                ..
            } => {
                // Cumulative samples: the last one wins.
                device = (
                    *draft_busy_ms,
                    *draft_idle_ms,
                    *target_busy_ms,
                    *target_idle_ms,
                );
            }
            _ => {}
        }
    }

    // --- Per-request attribution ------------------------------------------
    let mut requests = Vec::new();
    let mut skipped = 0_u64;
    let mut handed_off = 0_u64;
    let mut span_meta: BTreeMap<u64, (String, String)> = BTreeMap::new();
    for span in &spans {
        span_meta.insert(span.request, (span.policy.clone(), span.drafter.clone()));
        let (Some(submitted), Some(anchor), Some(completed), Some(queue_ms)) = (
            span.submitted_ms,
            span.anchor_admitted_ms(),
            span.completed_ms,
            span.queue_ms(),
        ) else {
            // A span with *only* a submission left this lane before
            // admission — work stealing moved it to another worker (where
            // its full lifecycle is recorded) or the queue shed it.  Any
            // other partial shape is a truncated window and voids
            // exactness.
            if span.admissions.is_empty() && span.completed_ms.is_none() && span.rounds.is_empty() {
                handed_off += 1;
            } else {
                skipped += 1;
            }
            continue;
        };
        let e2e = span.e2e_ms().expect("all inputs present");

        // Queue group: first-admission wait, preemption penalty closes the
        // group to the span's (clamped) queue time.
        let first_admission = span.admissions.first().copied().unwrap_or(anchor);
        let queue_wait = (first_admission - submitted).max(0.0).min(queue_ms);
        let mut queue_parts = [queue_wait, 0.0];
        close_residual(queue_ms, &mut queue_parts);

        // Decode-window walk: advance a cursor from the anchor admission
        // through each round's segments, clipped to [anchor, completed].
        let clip = |t: f64| t.clamp(anchor, completed);
        let mut cursor = anchor;
        let mut draft_ms = 0.0;
        let mut lane_wait_ms = 0.0;
        let mut backlog_ms = 0.0;
        let mut service_ms = 0.0;
        let mut bubble_ms = 0.0;
        let mut rounds = 0_u64;
        // Admissions and rounds both run in time order, so one pass over
        // the admissions finds each round's latest admission.
        let mut admissions = span.admissions.iter().copied().peekable();
        let mut admitted = f64::NEG_INFINITY;
        for round in &span.rounds {
            let draft_start = clip(round.draft_start_ms);
            let draft_end = clip(round.draft_end_ms);
            while let Some(at) = admissions.next_if(|&at| at <= round.draft_start_ms) {
                admitted = at;
            }
            if draft_end <= anchor && round.verify_completed_ms.is_none() {
                continue; // pre-preemption round, fully inside the penalty
            }
            rounds += 1;
            // The gap before the draft starts splits at the later of the
            // round's tick start and the session's latest admission: up to
            // it is a barrier (bubble: the tick's, or a stream's park
            // awaiting its chunk), after it is draft-lane queueing.  A round
            // that drafts before its tick starts (pipelined from its own
            // readiness, or admitted mid-tick) waits on no tick barrier,
            // only on its admission.
            if let Some(&tick_start) = tick_starts.get(&round.tick) {
                let barrier = clip(if tick_start <= round.draft_start_ms {
                    tick_start.max(admitted)
                } else {
                    admitted
                });
                if barrier > cursor && barrier <= draft_start {
                    bubble_ms += barrier - cursor;
                    cursor = barrier;
                }
            }
            if draft_start > cursor {
                lane_wait_ms += draft_start - cursor;
                cursor = draft_start;
            }
            if draft_end > cursor {
                draft_ms += draft_end - cursor;
                cursor = draft_end;
            }
            if let (Some(sub), Some(started), Some(done)) = (
                round.verify_submitted_ms,
                round.verify_started_ms,
                round.verify_completed_ms,
            ) {
                let sub = clip(sub);
                let started = clip(started);
                let done = clip(done);
                if sub > cursor {
                    bubble_ms += sub - cursor; // wave-batching gap
                    cursor = sub;
                }
                if started > cursor {
                    backlog_ms += started - cursor;
                    cursor = started;
                }
                if done > cursor {
                    service_ms += done - cursor;
                    cursor = done;
                }
            }
        }
        if completed > cursor {
            bubble_ms += completed - cursor; // a retire tail, if one is left
        }

        let mut components = [
            queue_parts[0],
            queue_parts[1],
            span.encoder_ms,
            draft_ms,
            lane_wait_ms,
            backlog_ms,
            service_ms,
            bubble_ms,
        ];
        close_residual(e2e, &mut components);
        requests.push(RequestAttribution {
            request: span.request,
            policy: span.policy.clone(),
            drafter: span.drafter.clone(),
            streaming: span.streaming,
            e2e_ms: e2e,
            rounds,
            queue_wait_ms: components[0],
            preemption_penalty_ms: components[1],
            encoder_ms: components[2],
            draft_ms: components[3],
            draft_lane_wait_ms: components[4],
            device_backlog_ms: components[5],
            device_service_ms: components[6],
            pipeline_bubble_ms: components[7],
        });
    }

    // --- Device-time ledger and efficiency groups -------------------------
    let mut ledger = DeviceLedger {
        busy_ms: device.2,
        idle_ms: device.3,
        ..DeviceLedger::default()
    };
    let mut groups: BTreeMap<(String, String), SpeculationEfficiency> = BTreeMap::new();
    let mut depth_seen: BTreeMap<u64, u64> = BTreeMap::new();
    for (tick, wave, request, drafted, accepted, charged) in outcomes {
        let Some(&(sub, started, done)) = wave_service.get(&(tick, wave)) else {
            ledger.unmatched_waves += 1;
            continue;
        };
        let charge_key = (sub.to_bits(), started.to_bits(), done.to_bits());
        let wave_charge = match batch_charges.get(&charge_key) {
            Some(&(charge_tokens, _)) if charge_tokens > 0 => charge_tokens,
            _ => {
                ledger.unmatched_waves += 1;
                charged.max(1)
            }
        };
        let wave_ms = (done - started).max(0.0);
        let per_token = wave_ms / wave_charge as f64;
        let accepted_ms = per_token * accepted as f64;
        let rejected_ms = per_token * drafted.saturating_sub(accepted) as f64;
        let probe_ms = per_token * charged.saturating_sub(drafted) as f64;
        ledger.drafted_tokens += drafted;
        ledger.accepted_tokens += accepted;
        ledger.charged_tokens += charged;
        ledger.accepted_work_ms += accepted_ms;
        ledger.probe_overhead_ms += probe_ms;

        let (policy, drafter) = span_meta
            .get(&request)
            .cloned()
            .unwrap_or_else(|| ("unknown".to_string(), "unknown".to_string()));
        let depth = depth_seen.entry(request).or_insert(0);
        *depth += 1;
        let depth_bucket = (*depth).min(MAX_DEPTH_BUCKET);
        let group = groups
            .entry((policy.clone(), drafter.clone()))
            .or_insert_with(|| SpeculationEfficiency {
                policy,
                drafter,
                requests: 0,
                rounds: 0,
                drafted_tokens: 0,
                accepted_tokens: 0,
                charged_tokens: 0,
                accepted_work_ms: 0.0,
                probe_overhead_ms: 0.0,
                rejected_draft_ms: 0.0,
                by_depth: Vec::new(),
            });
        group.rounds += 1;
        group.drafted_tokens += drafted;
        group.accepted_tokens += accepted;
        group.charged_tokens += charged;
        group.accepted_work_ms += accepted_ms;
        group.probe_overhead_ms += probe_ms;
        group.rejected_draft_ms += rejected_ms;
        match group
            .by_depth
            .iter_mut()
            .find(|(d, _, _)| *d == depth_bucket)
        {
            Some((_, d, a)) => {
                *d += drafted;
                *a += accepted;
            }
            None => group.by_depth.push((depth_bucket, drafted, accepted)),
        }
    }
    for group in groups.values_mut() {
        group.by_depth.sort_by_key(|(d, _, _)| *d);
        group.requests = depth_seen
            .iter()
            .filter(|(request, _)| {
                span_meta
                    .get(request)
                    .map(|(p, d)| (p.as_str(), d.as_str()))
                    == Some((group.policy.as_str(), group.drafter.as_str()))
            })
            .count() as u64;
    }
    // The residual parts absorb the remainder: rejected-draft waste closes
    // the busy fold (covering preempted sessions' waves, whose outcomes
    // never committed), idle closes the total.
    ledger.close();

    TraceAnalysis {
        requests,
        ledger,
        draft_busy_ms: device.0,
        draft_idle_ms: device.1,
        groups: groups.into_values().collect(),
        skipped_requests: skipped,
        handed_off_requests: handed_off,
        dropped_events: 0,
    }
}

/// Serializes labelled recording lanes as JSON lines, each event object
/// prefixed with a `lane` field.  The inverse of [`parse_jsonl`], and
/// bit-exact: the shared JSON shim prints floats shortest-round-trip, so
/// `parse_jsonl(jsonl_with_lanes(..))` reproduces every timestamp bitwise.
pub fn jsonl_with_lanes(lanes: &[(&str, &FlightRecording)]) -> String {
    let mut out = String::new();
    for (lane, recording) in lanes {
        for event in recording.events() {
            let Value::Object(fields) = event.to_value() else {
                unreachable!("trace events serialize as objects");
            };
            let mut tagged = vec![("lane".to_string(), Value::String((*lane).to_string()))];
            tagged.extend(fields);
            out.push_str(&serde_json::to_string(&Value::Object(tagged)).expect("values serialize"));
            out.push('\n');
        }
    }
    out
}

/// Parses a lane-tagged JSONL dump back into per-lane event streams, lanes
/// in first-appearance order.  Lines without a `lane` field land on the
/// `"main"` lane.
///
/// # Errors
///
/// Returns the first malformed line's parse or decode error.
pub fn parse_jsonl(dump: &str) -> Result<Vec<(String, Vec<TraceEvent>)>, serde::Error> {
    let mut lanes: Vec<(String, Vec<TraceEvent>)> = Vec::new();
    for line in dump.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| serde::Error::custom(format!("malformed trace line: {e}")))?;
        let lane = match value.field("lane") {
            Ok(v) => String::from_value(v)?,
            Err(_) => "main".to_string(),
        };
        let event = TraceEvent::from_value(&value)?;
        match lanes.iter_mut().find(|(name, _)| *name == lane) {
            Some((_, events)) => events.push(event),
            None => lanes.push((lane, vec![event])),
        }
    }
    Ok(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offline_stream() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RequestSubmitted {
                ts_ms: 0.0,
                request: 1,
                encoder_ms: 40.0,
                audio_seconds: 4.0,
                streaming: false,
                policy: "specasr-asp".to_string(),
                drafter: "model".to_string(),
            },
            TraceEvent::TickStart {
                ts_ms: 10.0,
                tick: 1,
                active: 1,
                queued: 0,
            },
            TraceEvent::RequestAdmitted {
                ts_ms: 10.0,
                request: 1,
                kv_blocks: 4,
                restored: false,
            },
            TraceEvent::DraftPhase {
                start_ms: 12.0,
                end_ms: 15.0,
                tick: 1,
                request: 1,
            },
            TraceEvent::VerifyWaveSubmitted {
                ts_ms: 16.0,
                tick: 1,
                wave: 0,
                tickets: vec![3],
                requests: vec![1],
            },
            TraceEvent::DeviceBatch {
                ts_ms: 16.0,
                seq: 0,
                started_ms: 17.0,
                completed_ms: 25.0,
                requests: 1,
                charge_tokens: 5,
            },
            TraceEvent::VerifyWaveCompleted {
                tick: 1,
                wave: 0,
                submitted_ms: 16.0,
                started_ms: 17.0,
                completed_ms: 25.0,
                tickets: vec![3],
                requests: vec![1],
            },
            TraceEvent::VerifyOutcome {
                ts_ms: 25.0,
                tick: 1,
                wave: 0,
                request: 1,
                drafted: 4,
                accepted: 3,
                charged: 5,
            },
            TraceEvent::DeviceUtilization {
                ts_ms: 26.0,
                draft_busy_ms: 3.0,
                draft_idle_ms: 0.0,
                target_busy_ms: 8.0,
                target_idle_ms: 2.0,
            },
            TraceEvent::RequestCompleted {
                ts_ms: 26.0,
                request: 1,
                tokens: 12,
            },
        ]
    }

    #[test]
    fn attribution_folds_exactly_to_e2e() {
        let events = offline_stream();
        let analysis = analyze_events(&events);
        assert_eq!(analysis.requests.len(), 1);
        let a = &analysis.requests[0];
        // queue 10, encoder 40, decode wall 16 → e2e 66.
        assert_eq!(a.e2e_ms, 66.0);
        assert_eq!(a.queue_wait_ms, 10.0);
        assert_eq!(a.preemption_penalty_ms, 0.0);
        assert_eq!(a.encoder_ms, 40.0);
        assert_eq!(a.draft_ms, 3.0);
        assert_eq!(a.draft_lane_wait_ms, 2.0);
        // draft end 15 → submit 16 is a batching gap (bubble), submit 16 →
        // start 17 backlog, 17 → 25 service, 25 → 26 retire tail (bubble).
        assert_eq!(a.device_backlog_ms, 1.0);
        assert_eq!(a.device_service_ms, 8.0);
        assert_eq!(a.pipeline_bubble_ms, 2.0);
        assert_eq!(a.attributed_ms().to_bits(), a.e2e_ms.to_bits());
        analysis.reconcile().expect("reconciles");
    }

    /// A round drafted in tick 1 that the tick deferred: tick 2 verifies
    /// it without drafting it again.
    #[test]
    fn a_deferred_round_waits_in_the_bubble_and_counts_once() {
        let mut events = offline_stream();
        // Tick 1 ends at 16 with another session's wave; tick 2 starts
        // there and submits the kept round at 20.
        let at = events
            .iter()
            .position(|event| matches!(event, TraceEvent::VerifyWaveSubmitted { .. }))
            .expect("the stream submits a wave");
        events.insert(
            at,
            TraceEvent::TickStart {
                ts_ms: 16.0,
                tick: 2,
                active: 1,
                queued: 0,
            },
        );
        for event in &mut events {
            match event {
                TraceEvent::VerifyWaveSubmitted { ts_ms, tick, .. } => {
                    *ts_ms = 20.0;
                    *tick = 2;
                }
                TraceEvent::DeviceBatch {
                    ts_ms, started_ms, ..
                } => {
                    *ts_ms = 20.0;
                    *started_ms = 20.5;
                }
                TraceEvent::VerifyWaveCompleted {
                    tick,
                    submitted_ms,
                    started_ms,
                    ..
                } => {
                    *tick = 2;
                    *submitted_ms = 20.0;
                    *started_ms = 20.5;
                }
                TraceEvent::VerifyOutcome { tick, .. } => *tick = 2,
                _ => {}
            }
        }
        let spans = assemble_spans(&events);
        assert_eq!(spans[0].rounds.len(), 1, "one round, drafted in tick 1");
        assert_eq!(spans[0].rounds[0].tick, 1);
        assert_eq!(spans[0].rounds[0].verify_submitted_ms, Some(20.0));
        let analysis = analyze_events(&events);
        let a = &analysis.requests[0];
        assert_eq!(a.rounds, 1);
        assert_eq!(a.draft_ms, 3.0);
        // Draft end 15 → submit 20 waits for the next tick's wave (bubble),
        // 20 → 20.5 backlog, 20.5 → 25 service, 25 → 26 retire tail.
        assert_eq!(a.device_backlog_ms, 0.5);
        assert_eq!(a.device_service_ms, 4.5);
        assert_eq!(a.pipeline_bubble_ms, 6.0);
        assert_eq!(a.attributed_ms().to_bits(), a.e2e_ms.to_bits());
        analysis.reconcile().expect("reconciles");
    }

    /// A stream that emits a partial, parks, and is re-admitted at its
    /// next chunk's arrival, before the tick that drafts it starts.
    fn readmitted_stream() -> Vec<TraceEvent> {
        let wave = |tick: u64, submitted_ms: f64, completed_ms: f64| {
            [
                TraceEvent::VerifyWaveSubmitted {
                    ts_ms: submitted_ms,
                    tick,
                    wave: 0,
                    tickets: vec![tick],
                    requests: vec![4],
                },
                TraceEvent::VerifyWaveCompleted {
                    tick,
                    wave: 0,
                    submitted_ms,
                    started_ms: submitted_ms,
                    completed_ms,
                    tickets: vec![tick],
                    requests: vec![4],
                },
            ]
        };
        let mut events = vec![
            TraceEvent::RequestSubmitted {
                ts_ms: 0.0,
                request: 4,
                encoder_ms: 40.0,
                audio_seconds: 4.0,
                streaming: true,
                policy: "specasr-asp".to_string(),
                drafter: "model".to_string(),
            },
            TraceEvent::TickStart {
                ts_ms: 10.0,
                tick: 1,
                active: 1,
                queued: 0,
            },
            TraceEvent::RequestAdmitted {
                ts_ms: 10.0,
                request: 4,
                kv_blocks: 4,
                restored: false,
            },
            TraceEvent::DraftPhase {
                start_ms: 10.0,
                end_ms: 12.0,
                tick: 1,
                request: 4,
            },
        ];
        events.extend(wave(1, 12.0, 20.0));
        events.extend([
            // Parked from its partial at 20 until its chunk arrives at 50;
            // the worker's next tick starts at 60.
            TraceEvent::TickStart {
                ts_ms: 60.0,
                tick: 2,
                active: 1,
                queued: 0,
            },
            TraceEvent::RequestAdmitted {
                ts_ms: 50.0,
                request: 4,
                kv_blocks: 4,
                restored: false,
            },
            TraceEvent::DraftPhase {
                start_ms: 50.0,
                end_ms: 53.0,
                tick: 2,
                request: 4,
            },
        ]);
        events.extend(wave(2, 61.0, 70.0));
        events.push(TraceEvent::RequestCompleted {
            ts_ms: 70.0,
            request: 4,
            tokens: 6,
        });
        events
    }

    #[test]
    fn a_stream_readmitted_before_its_tick_waits_in_the_bubble_not_the_lane() {
        let analysis = analyze_events(&readmitted_stream());
        let a = &analysis.requests[0];
        // queue 10, encoder 40, decode wall 60 → e2e 110.
        assert_eq!(a.e2e_ms, 110.0);
        assert_eq!(a.queue_wait_ms, 10.0);
        assert_eq!(a.draft_ms, 5.0);
        assert_eq!(
            a.draft_lane_wait_ms, 0.0,
            "the park from the partial at 20 to the admission at 50 is no lane wait"
        );
        assert_eq!(a.device_service_ms, 17.0);
        // 20 → 50 parked, 53 → 61 a wave-batching gap.
        assert_eq!(a.pipeline_bubble_ms, 38.0);
        assert_eq!(a.attributed_ms().to_bits(), a.e2e_ms.to_bits());
    }

    #[test]
    fn ledger_folds_exactly_to_busy_plus_idle() {
        let events = offline_stream();
        let analysis = analyze_events(&events);
        let ledger = &analysis.ledger;
        assert_eq!(ledger.busy_ms, 8.0);
        assert_eq!(ledger.idle_ms, 2.0);
        // Wave: 8 ms over 5 charged tokens → 1.6 ms/token.  3 accepted →
        // 4.8; 1 probe/bonus → 1.6; 1 rejected → 1.6 (residual-closed).
        assert!((ledger.accepted_work_ms - 4.8).abs() < 1e-12);
        assert!((ledger.probe_overhead_ms - 1.6).abs() < 1e-12);
        assert!((ledger.rejected_draft_ms - 1.6).abs() < 1e-12);
        assert_eq!(ledger.accounted_ms().to_bits(), ledger.total_ms().to_bits());
        assert_eq!(ledger.rejected_tokens(), 1);
        assert!((ledger.wasted_ms_per_rejected_token() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn groups_split_by_policy_and_drafter_with_depth_buckets() {
        let mut events = offline_stream();
        // A second round for the same request lands in depth bucket 2.
        events.push(TraceEvent::VerifyWaveCompleted {
            tick: 2,
            wave: 0,
            submitted_ms: 26.0,
            started_ms: 26.0,
            completed_ms: 30.0,
            tickets: vec![4],
            requests: vec![1],
        });
        events.push(TraceEvent::VerifyOutcome {
            ts_ms: 30.0,
            tick: 2,
            wave: 0,
            request: 1,
            drafted: 4,
            accepted: 1,
            charged: 5,
        });
        let analysis = analyze_events(&events);
        let group = analysis
            .group("specasr-asp", "model")
            .expect("group exists");
        assert_eq!(group.rounds, 2);
        assert_eq!(group.requests, 1);
        assert_eq!(group.drafted_tokens, 8);
        assert_eq!(group.accepted_tokens, 4);
        assert_eq!(group.acceptance(), 0.5);
        // Per depth: (depth, drafted, accepted), so 3/4 at depth 1 and 1/4
        // at depth 2.
        assert_eq!(group.by_depth, [(1, 4, 3), (2, 4, 1)]);
    }

    #[test]
    fn merge_preserves_both_exactness_contracts() {
        let events = offline_stream();
        let one = analyze_events(&events);
        let mut merged = TraceAnalysis::default();
        merged.merge(&one);
        merged.merge(&one);
        assert_eq!(merged.requests.len(), 2);
        assert_eq!(merged.ledger.busy_ms, 16.0);
        assert_eq!(
            merged.ledger.accounted_ms().to_bits(),
            merged.ledger.total_ms().to_bits()
        );
        for a in &merged.requests {
            assert_eq!(a.attributed_ms().to_bits(), a.e2e_ms.to_bits());
        }
        let group = merged.group("specasr-asp", "model").expect("merged group");
        assert_eq!(group.rounds, 2);
    }

    #[test]
    fn jsonl_lanes_round_trip_bitwise() {
        let events = offline_stream();
        let mut recording = FlightRecording::new(1024);
        for event in &events {
            recording.push(event.clone());
        }
        let dump = jsonl_with_lanes(&[("worker-0", &recording)]);
        let lanes = parse_jsonl(&dump).expect("parses");
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].0, "worker-0");
        assert_eq!(lanes[0].1, events);
        let reparsed = analyze_events(&lanes[0].1);
        let direct = analyze_events(&events);
        assert_eq!(reparsed, direct);
    }

    #[test]
    fn reconcile_rejects_partial_windows() {
        let analysis = TraceAnalysis {
            dropped_events: 3,
            ..TraceAnalysis::default()
        };
        assert!(analysis.reconcile().is_err());
        let skipped = TraceAnalysis {
            skipped_requests: 1,
            ..TraceAnalysis::default()
        };
        assert!(skipped.reconcile().is_err());
    }

    #[test]
    fn a_submission_only_span_is_a_hand_off_not_a_truncation() {
        // A request enqueued in this lane and stolen by another worker
        // leaves only its submission behind; the lane that served it owns
        // the full lifecycle, so the orphan must not void reconciliation.
        let events = vec![TraceEvent::RequestSubmitted {
            ts_ms: 0.0,
            request: 7,
            encoder_ms: 40.0,
            audio_seconds: 4.0,
            streaming: false,
            policy: "specasr-asp".to_string(),
            drafter: "model".to_string(),
        }];
        let analysis = analyze_events(&events);
        assert_eq!(analysis.handed_off_requests, 1);
        assert_eq!(analysis.skipped_requests, 0);
        assert!(analysis.requests.is_empty());
        analysis
            .reconcile()
            .expect("hand-offs do not void exactness");
        assert!(analysis.render_report().contains("handed off"));
    }

    #[test]
    fn close_residual_lands_exactly_on_awkward_totals() {
        let total = 0.1 + 0.2 + 0.3 + 1e-9;
        let mut parts = [0.1, 0.2, 0.3, 0.0];
        close_residual(total, &mut parts);
        assert_eq!(fold(&parts).to_bits(), total.to_bits());
        let mut empty: [f64; 0] = [];
        close_residual(1.0, &mut empty); // must not panic
    }

    #[test]
    fn close_residual_breaks_a_half_ulp_tie() {
        // The head sums to half an ulp of the residual's grid near 1, so
        // `2^-53 + last` is a tie for every `last` in [1, 2), and ties
        // round to an even mantissa: the odd total 1 + 2^-52 is out of
        // reach until the head moves.
        let total = 1.0 + f64::EPSILON;
        let head = [2f64.powi(-53), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let base = fold(&head);
        for last in [1.0, 1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON] {
            assert_ne!((base + last).to_bits(), total.to_bits(), "{last} closes it");
        }
        let mut parts = [head[0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        close_residual(total, &mut parts);
        assert_eq!(fold(&parts).to_bits(), total.to_bits());
        assert_eq!(
            parts[0],
            head[0].next_up(),
            "one ulp on the largest head part"
        );
        assert_eq!(&parts[1..7], &head[1..]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2_000))]

        /// Seven head parts of any magnitudes close on any total at or
        /// above their sum, as an attribution's do: the fold of the closed
        /// parts is bitwise the total, and a head part moves by at most a
        /// few ulps.  The total is the head's sum plus a residual, moved a
        /// few ulps more, so it is not always a sum the head can reach.
        #[test]
        fn close_residual_lands_on_every_total(
            head in proptest::collection::vec((0u64..1 << 52, -12i32..12), 7..8),
            residual in (0u64..1 << 52, -12i32..14),
            ulps in 0u32..4,
        ) {
            let value = |(mantissa, exponent): (u64, i32)| {
                (1.0 + mantissa as f64 / (1u64 << 52) as f64) * 2f64.powi(exponent)
            };
            let head: Vec<f64> = head.into_iter().map(value).collect();
            let total = (0..ulps).fold(fold(&head) + value(residual), |total, _| total.next_up());
            let mut parts: Vec<f64> = head.iter().copied().chain([0.0]).collect();
            close_residual(total, &mut parts);
            proptest::prop_assert_eq!(fold(&parts).to_bits(), total.to_bits());
            for (closed, part) in parts.iter().zip(&head) {
                proptest::prop_assert!(closed.to_bits() - part.to_bits() < 64);
            }
        }
    }

    #[test]
    fn each_report_mean_row_is_the_mean_of_its_groups_request_rows() {
        let row = |request: u64, policy: &str, drafter: &str, base: f64| {
            let mut attribution = RequestAttribution {
                request,
                policy: policy.to_string(),
                drafter: drafter.to_string(),
                streaming: false,
                e2e_ms: 0.0,
                rounds: 3,
                queue_wait_ms: base,
                preemption_penalty_ms: base / 2.0,
                encoder_ms: 40.0,
                draft_ms: 3.0 * base,
                draft_lane_wait_ms: 0.5,
                device_backlog_ms: base + 1.0,
                device_service_ms: 20.0 + base,
                pipeline_bubble_ms: 0.25 * base,
            };
            attribution.e2e_ms = attribution.attributed_ms();
            attribution
        };
        let analysis = TraceAnalysis {
            requests: vec![
                row(1, "specasr-asp", "model", 1.0),
                row(2, "specasr-asp", "ctc", 2.5),
                row(3, "specasr-asp", "model", 4.0),
                row(4, "specasr-tsp", "model", 7.0),
                row(5, "specasr-asp", "ctc", 0.5),
                row(6, "specasr-asp", "model", 9.5),
            ],
            ..TraceAnalysis::default()
        };
        let report = analysis.render_report();
        let means = analysis.group_means();
        let groups: Vec<(&str, &str, usize)> = means
            .iter()
            .map(|&(policy, drafter, count, _)| (policy, drafter, count))
            .collect();
        assert_eq!(
            groups,
            [
                ("specasr-asp", "ctc", 2),
                ("specasr-asp", "model", 3),
                ("specasr-tsp", "model", 1)
            ]
        );
        for (policy, drafter, count, columns) in means {
            let rows: Vec<[f64; 9]> = analysis
                .requests
                .iter()
                .filter(|a| a.policy == policy && a.drafter == drafter)
                .map(RequestAttribution::report_columns)
                .collect();
            for (column, mean) in columns.iter().enumerate() {
                let expected = rows.iter().map(|row| row[column]).sum::<f64>() / count as f64;
                assert!(
                    (mean - expected).abs() <= 1e-12 * expected.abs().max(1.0),
                    "{policy} x {drafter} column {column}: {mean} against {expected}"
                );
            }
            let mut line = String::new();
            write_attribution_row(&mut line, &format!("n={count}"), policy, drafter, columns);
            assert!(report.contains(&line), "the report shows {line}");
        }
    }

    #[test]
    fn report_renders_every_section() {
        let analysis = analyze_events(&offline_stream());
        let report = analysis.render_report();
        assert!(report.contains("critical-path attribution"));
        assert!(report.contains("device-time ledger"));
        assert!(report.contains("speculation efficiency"));
        assert!(report.contains("specasr-asp"));
        assert!(!report.contains("warning"));
        let mut registry = MetricsRegistry::new();
        analysis.publish_metrics(&mut registry);
        let text = registry.render();
        assert!(text.contains("specasr_attribution_ms_total"));
        assert!(text.contains("specasr_device_ledger_ms_total"));
        assert!(text.contains("specasr_speculation_acceptance"));
        assert!(text.contains("drafter=\"model\""));
    }
}
