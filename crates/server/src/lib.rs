//! `specasr-server`: a continuous-batching serving subsystem for speculative
//! ASR decoding.
//!
//! The decoding policies in `specasr` accelerate *one* utterance; production
//! ASR serves *many* concurrently.  This crate adds the missing layer: a
//! [`Scheduler`] that owns a draft/target model pair and admits concurrent
//! transcription requests, keeping one round-steppable
//! [`specasr::DecodeSession`] per in-flight utterance.
//!
//! # Request lifecycle
//!
//! Every submit takes a [`RequestSpec`] — the decode policy, the draft
//! source and an optional time-to-first-token budget — or a bare
//! [`specasr::Policy`], which converts to a model-drafted request with no
//! budget.  Each layer has one: [`Scheduler::submit`] (with
//! [`Scheduler::submit_streaming`] for chunked audio) and [`Router::submit`].
//!
//! ```text
//! submit ─► wait queue ─► admission (FIFO / shortest-audio-first)
//!                              │ iteration-level: a slot frees as soon as
//!                              ▼ its session finishes — no batch drain
//!                        in-flight session
//!                              │  every tick:
//!                              │    1. draft phase per session (parallel)
//!                              │    2. grouped verification waves
//!                              │    3. commit + retire finished sessions
//!                              ▼
//!                        RequestOutcome (text + latency breakdown + stats)
//! ```
//!
//! # What batching buys
//!
//! A verification forward pass costs `base + per_token · n`.  Verifying each
//! session alone pays `base` once per session and tick; a grouped wave pays
//! it once for every session in the wave.  [`ServerStats::batching_speedup`] reports the
//! realised gain, and the `serve_load` binary in `specasr-bench` sweeps it
//! across concurrency levels and policies.
//!
//! # Scaling out: the sharded router
//!
//! One scheduler models one accelerator.  The [`Router`] scales past that:
//! it owns N [`Worker`]s (independent schedulers with their own model
//! pairs), places each request on the least-loaded active worker, steals
//! work across queues when they go imbalanced, and aggregates per-worker
//! [`ServerStats`] into fleet-wide throughput and latency percentiles.
//!
//! [`LoadGen`] complements the router with an *open-loop* seeded Poisson
//! arrival process ([`run_open_loop`] over `(spec, utterance)` requests;
//! [`run_open_loop_streaming`] plays streams against one scheduler): unlike
//! the closed-loop `serve_load`
//! sweep, arrivals keep coming at the offered rate no matter how far behind
//! the fleet falls, which is what exposes the queueing knee — latency is
//! flat below the fleet's saturation QPS and grows without bound above it.
//! The `serve_open_loop` binary in `specasr-bench` captures that curve.
//!
//! # Memory model: the paged KV pool
//!
//! Every scheduler owns a [`KvPool`] — draft and target block budgets
//! (`ServerConfig::{kv_blocks, block_size}`) carved into fixed-size,
//! ref-counted blocks.  Sessions allocate their caches from it through
//! per-session block tables:
//!
//! * **Memory-aware admission** — a request is only admitted when its
//!   prefill blocks fit the pool; requests that could never fit are shed
//!   with a distinct `rejected_memory` count.
//! * **Prefix sharing** — prefills are keyed on a content hash of the
//!   prompt+audio prefix, so concurrent requests for identical audio share
//!   physical blocks (copy-on-write protects divergent suffixes).
//! * **Preemption** — when a verification round cannot get blocks, the
//!   configured [`PreemptPolicy`] evicts an in-flight session: its blocks
//!   are released and the request re-queues; restore is a deterministic
//!   re-prefill + re-decode, so transcripts never diverge.
//!
//! [`MemoryStats`] (inside [`ServerStats`], fleet-mergeable) reports peak
//! and average block occupancy, preemptions, and the shared-prefix hit rate.
//!
//! # Losslessness
//!
//! Scheduling only interleaves rounds; each session runs exactly the code
//! path `Policy::decode` runs, and a preempted session restores by decoding
//! again from scratch against the same deterministic models.  Transcripts
//! under concurrent batched serving — constrained pool or not — are
//! therefore byte-identical to sequential [`specasr::AsrPipeline`]
//! transcription — the workspace-level `serving.rs` integration tests assert
//! this for every policy, including mixed-policy batches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod config;
mod loadgen;
mod request;
mod router;
mod scheduler;
mod session;
mod stats;
mod worker;

pub use batch::{grouped_verify_ms, plan_verify_waves, TickCost, VerifyPlan};
pub use config::{
    AdmissionOrdering, AdmissionPolicy, PreemptPolicy, RouterConfig, ServerConfig, WorkerProfile,
};
pub use loadgen::{run_open_loop, run_open_loop_streaming, LoadGen, OpenLoopReport};
pub use request::{
    PartialSpan, RequestId, RequestLatency, RequestOutcome, RequestSpec, SloClass, SubmitError,
};
pub use router::Router;
pub use scheduler::Scheduler;
pub use stats::{BackendStats, MemoryStats, ServerStats, SloClassStats};
pub use worker::{Worker, WorkerId, WorkerState};

// Serving code configures and inspects the paged KV pool directly; re-export
// its runtime types so downstream users don't need the runtime crate.
pub use specasr_runtime::{KvPool, PoolCounters, PoolError};

// Streaming requests are configured with the stream crate's types; re-export
// them so callers can submit streams without a direct dependency.
pub use specasr_stream::{PartialTranscript, StreamConfig, StreamingSession};

// Observability rides on the trace crate: the scheduler records into its
// flight recorder and the stats publish into its metrics registry.
// Re-export the surface so serving callers enable tracing, export traces,
// and render metrics without a direct dependency.
pub use specasr_trace::{
    assemble_spans, chrome_trace, validate_chrome_trace, FlightRecording, MetricsRegistry,
    RequestSpans, RoundSpan, ShedReason, TraceConfig, TraceEvent, TraceSummary, Tracer,
};

// `ServerStats` records every latency into the metrics crate's `Histogram`
// (fixed log-spaced buckets), and the registry's exposition renders those
// buckets; re-export it so callers read either without a direct metrics
// dependency.
pub use specasr_metrics::Histogram;
