//! `specasr-trace`: a deterministic flight recorder for the serving stack.
//!
//! End-of-run aggregates ([`ServerStats`]-style counters and percentiles)
//! answer *how much*; they cannot answer *why* — why a P99 outlier queued for
//! three ticks, whether a verify wave actually hid under the straggler draft
//! phase it was planned to overlap, or which preemption evicted a session
//! right before its final round.  This crate records the event-level truth:
//!
//! * [`Tracer`] / [`FlightRecording`] — a bounded ring buffer of typed
//!   [`TraceEvent`]s stamped on the *simulated* clock.  Recording is
//!   byte-deterministic per seed (no wall-clock reads, no map iteration
//!   order) and zero-cost when disabled: the no-op sink behind
//!   [`TraceConfig::disabled`] rejects events before their payloads are even
//!   built.
//! * [`assemble_spans`] — folds an event stream back into per-request span
//!   timelines (queue → encoder → per-round draft/verify → commit) whose
//!   components reconcile exactly with the `RequestLatency` breakdown the
//!   scheduler reports.
//! * [`analysis`] — the query/attribution engine: per-request critical-path
//!   decomposition whose components fold bitwise to the recorded e2e, a
//!   device-time ledger splitting busy ms into accepted work / probe
//!   overhead / rejected-draft waste, and per-policy × per-drafter
//!   speculation-efficiency groups, all reconstructible digit-for-digit
//!   from a JSONL dump ([`parse_jsonl`]).
//! * [`chrome_trace`] — a Chrome/Perfetto trace-event JSON exporter: one
//!   process lane per worker with tick, draft, and device-timeline tracks
//!   plus a per-sub-pool KV occupancy counter track.  Load the output in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
//! * [`MetricsRegistry`] — a Prometheus-style counter/gauge/histogram
//!   registry with a deterministic text exposition.  Its histograms are
//!   [`specasr_metrics::Histogram`]s, whose fixed log-spaced buckets keep
//!   every `le` bound constant across scrapes.
//!
//! [`ServerStats`]: ../specasr_server/struct.ServerStats.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod event;
mod perfetto;
mod prom;
mod recorder;
mod span;

pub use analysis::{
    analyze, analyze_events, analyze_lanes, jsonl_with_lanes, parse_jsonl, DeviceLedger,
    RequestAttribution, SpeculationEfficiency, TraceAnalysis, ATTRIBUTION_COMPONENTS, LEDGER_PARTS,
};
pub use event::{ShedReason, TraceEvent};
pub use perfetto::{chrome_trace, validate_chrome_trace, TraceSummary};
pub use prom::MetricsRegistry;
pub use recorder::{FlightRecording, TraceConfig, Tracer, DEFAULT_TRACE_CAPACITY};
pub use span::{assemble_spans, RequestSpans, RoundSpan};
