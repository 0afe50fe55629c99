//! The typed event taxonomy recorded by the flight recorder.
//!
//! Every event is stamped on the *simulated* clock (milliseconds since the
//! scheduler was created), which is what makes recordings byte-deterministic
//! per seed: two runs with the same seed produce the same clock and therefore
//! the same event stream.

use serde::{Deserialize, Error, Serialize, Value};

/// Why a request was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The wait queue was at `ServerConfig::queue_depth`.
    QueueFull,
    /// Admission-time deadline check: the TTFT budget could no longer be met.
    Deadline,
    /// The paged KV pool could never fit the request's prefill.
    Memory,
}

impl ShedReason {
    /// Stable lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Deadline => "deadline",
            ShedReason::Memory => "memory",
        }
    }

    /// Inverse of [`ShedReason::label`].
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown label.
    pub fn from_label(label: &str) -> Result<Self, Error> {
        match label {
            "queue_full" => Ok(ShedReason::QueueFull),
            "deadline" => Ok(ShedReason::Deadline),
            "memory" => Ok(ShedReason::Memory),
            other => Err(Error::custom(format!("unknown shed reason `{other}`"))),
        }
    }
}

/// One flight-recorder event.
///
/// Timestamps are simulated milliseconds.  Request ids are the raw `u64`
/// behind `RequestId`, ticket ids the raw `u64` behind the backend `Ticket`;
/// the trace crate stays dependency-light so every layer of the stack can
/// record into it without cycles.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request entered the scheduler (wait queue or streaming parking lot).
    RequestSubmitted {
        /// Arrival time.
        ts_ms: f64,
        /// Request id.
        request: u64,
        /// Encoder latency charged to the request (timeline-independent).
        encoder_ms: f64,
        /// Seconds of audio carried by the request.
        audio_seconds: f64,
        /// Whether the request is a streaming session.
        streaming: bool,
        /// Stable decode-policy label (`Policy::name()`).
        policy: String,
        /// Stable drafter label (`DrafterKind::label()`).
        drafter: String,
    },
    /// A request was admitted into the in-flight batch.
    RequestAdmitted {
        /// Admission time.
        ts_ms: f64,
        /// Request id.
        request: u64,
        /// KV blocks held right after prefill allocation.
        kv_blocks: u64,
        /// True when this admission restores a previously preempted request.
        restored: bool,
    },
    /// A request was shed (queue-full, deadline, or memory).
    RequestShed {
        /// Shed time.
        ts_ms: f64,
        /// Request id, when one had already been assigned.
        request: Option<u64>,
        /// Why the request was shed.
        reason: ShedReason,
    },
    /// A request retired with a final transcript.
    RequestCompleted {
        /// Completion time (end of the retiring tick).
        ts_ms: f64,
        /// Request id.
        request: u64,
        /// Tokens in the final transcript.
        tokens: u64,
    },
    /// A scheduler tick began (draft phases start here).
    TickStart {
        /// Tick start time.
        ts_ms: f64,
        /// Monotonic tick sequence number (1-based).
        tick: u64,
        /// Sessions in flight this tick.
        active: u64,
        /// Requests still waiting in the queue.
        queued: u64,
    },
    /// A scheduler tick finished (all verify waves completed, commits done).
    TickEnd {
        /// Tick end time.
        ts_ms: f64,
        /// Tick sequence number matching the `TickStart`.
        tick: u64,
        /// Requests retired by this tick.
        completed: u64,
    },
    /// One session's draft phase within a tick.
    DraftPhase {
        /// Draft start: the session's own readiness (its previous wave's
        /// completion, possibly before the tick start), queued behind the
        /// modeled draft-lane budget.
        start_ms: f64,
        /// Draft end.
        end_ms: f64,
        /// Tick sequence number.
        tick: u64,
        /// Request id.
        request: u64,
    },
    /// A verification wave was submitted to the target backend.
    VerifyWaveSubmitted {
        /// Submission time (tick start + wave offset).
        ts_ms: f64,
        /// Tick sequence number.
        tick: u64,
        /// Wave index within the tick (0-based).
        wave: u64,
        /// Backend ticket ids of the wave's forward requests.
        tickets: Vec<u64>,
        /// Request ids verified by the wave.
        requests: Vec<u64>,
    },
    /// A verification wave completed on the target backend.
    VerifyWaveCompleted {
        /// Tick sequence number.
        tick: u64,
        /// Wave index within the tick (0-based).
        wave: u64,
        /// When the wave was submitted.
        submitted_ms: f64,
        /// When the device actually started executing it.
        started_ms: f64,
        /// When it completed.
        completed_ms: f64,
        /// Backend ticket ids of the completed forward requests.
        tickets: Vec<u64>,
        /// Request ids verified by the wave.
        requests: Vec<u64>,
    },
    /// One request's verification outcome within a wave: how many tokens the
    /// drafter proposed, how many the target accepted, and the token width
    /// the verify pass was billed at on the device.
    VerifyOutcome {
        /// Commit time (the wave's completion, clamped to the tick start
        /// under pipelined scheduling).
        ts_ms: f64,
        /// Tick sequence number.
        tick: u64,
        /// Wave index within the tick (0-based).
        wave: u64,
        /// Request id.
        request: u64,
        /// Draft tokens proposed this round.
        drafted: u64,
        /// Draft tokens the target accepted this round.
        accepted: u64,
        /// Token width the request's verify pass was billed at (probe/tree
        /// width plus the bonus position — never less than `drafted`'s
        /// accounting share of the wave).
        charged: u64,
    },
    /// One batch executed on the target device, as logged *by the device
    /// side* (`DeviceEvent` in `specasr-models`) and drained into the client
    /// recording — across the RPC wire for `+rpc` runs, so both backends
    /// stitch an identical device timeline.
    DeviceBatch {
        /// Submission time (the device-side log's own stamp).
        ts_ms: f64,
        /// Device-side batch sequence number (0-based, in submit order).
        seq: u64,
        /// When the device started executing the batch.
        started_ms: f64,
        /// When the batch completed.
        completed_ms: f64,
        /// Forward requests in the batch.
        requests: u64,
        /// Token width the batch was priced at.
        charge_tokens: u64,
    },
    /// KV blocks were allocated for a request's prefill.
    KvAlloc {
        /// Allocation time.
        ts_ms: f64,
        /// Request id.
        request: u64,
        /// Blocks held after the allocation.
        blocks: u64,
    },
    /// A request's KV blocks were released.
    KvFree {
        /// Release time.
        ts_ms: f64,
        /// Request id.
        request: u64,
        /// Blocks released.
        blocks: u64,
    },
    /// A session was preempted and its blocks reclaimed.
    KvPreempt {
        /// Preemption time.
        ts_ms: f64,
        /// Request id of the victim.
        request: u64,
        /// Blocks reclaimed.
        blocks: u64,
    },
    /// A previously preempted request was re-admitted (deterministic
    /// re-prefill + re-decode).
    KvRestore {
        /// Restore time.
        ts_ms: f64,
        /// Request id.
        request: u64,
    },
    /// Copy-on-write block copies performed since the last sample.
    CowCopy {
        /// Sample time (end of the tick that performed the copies).
        ts_ms: f64,
        /// Number of block copies.
        copies: u64,
    },
    /// Per-sub-pool block occupancy sample (one per tick).
    KvOccupancy {
        /// Sample time.
        ts_ms: f64,
        /// Blocks in use in the draft sub-pool.
        draft_blocks: u64,
        /// Blocks in use in the target sub-pool.
        target_blocks: u64,
    },
    /// Cumulative modeled device utilization, sampled once per tick: busy
    /// time is summed span lengths, idle time the gaps between consecutive
    /// spans on a used lane — the number the pipelined scheduler drives
    /// toward zero.
    DeviceUtilization {
        /// Sample time (end of the tick).
        ts_ms: f64,
        /// Draft-lane device busy time so far.
        draft_busy_ms: f64,
        /// Draft-lane gaps between consecutive spans so far.
        draft_idle_ms: f64,
        /// Target device busy time so far.
        target_busy_ms: f64,
        /// Target device gaps between consecutive spans so far.
        target_idle_ms: f64,
    },
    /// A streaming chunk crossed its arrival time and was delivered.
    ChunkArrived {
        /// Chunk arrival time.
        ts_ms: f64,
        /// Request id.
        request: u64,
        /// Chunk index (0-based).
        chunk: u64,
    },
    /// A partial transcript was served for a streaming request.
    PartialEmitted {
        /// Emission time.
        ts_ms: f64,
        /// Request id.
        request: u64,
        /// Partial index (0-based).
        partial: u64,
        /// Committed (stable) tokens in the partial.
        committed: u64,
        /// Hypothesis tokens shown beyond the committed prefix.
        hypothesis: u64,
        /// Whether this partial is the final transcript.
        is_final: bool,
    },
    /// Previously shown hypothesis tokens were retracted by a partial.
    Retraction {
        /// Retraction time.
        ts_ms: f64,
        /// Request id.
        request: u64,
        /// Tokens retracted.
        tokens: u64,
    },
    /// A worker joined the fleet (elastic scale-up); its Perfetto lane
    /// starts here.
    WorkerAdded {
        /// Join time on the fleet timeline.
        ts_ms: f64,
        /// The worker's fleet id.
        worker: u64,
    },
    /// A worker entered `Draining`: it stopped admitting, and its queue
    /// and migratable sessions moved to active workers through the
    /// router's placement choice.
    WorkerDraining {
        /// Drain time.
        ts_ms: f64,
        /// The worker's fleet id.
        worker: u64,
    },
    /// A drained worker went idle and left the fleet; its Perfetto lane
    /// ends here.
    WorkerRemoved {
        /// Removal time.
        ts_ms: f64,
        /// The worker's fleet id.
        worker: u64,
    },
    /// An in-flight session moved between workers during a drain.
    SessionMigrated {
        /// Migration time.
        ts_ms: f64,
        /// Request id of the migrated session.
        request: u64,
        /// Source worker id.
        from_worker: u64,
        /// Destination worker id.
        to_worker: u64,
        /// `true` for the same-machine block-table hand-off fast path,
        /// `false` for the preempt/restore slow path.
        handoff: bool,
    },
}

impl TraceEvent {
    /// Stable snake_case name of the event type.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::RequestSubmitted { .. } => "request_submitted",
            TraceEvent::RequestAdmitted { .. } => "request_admitted",
            TraceEvent::RequestShed { .. } => "request_shed",
            TraceEvent::RequestCompleted { .. } => "request_completed",
            TraceEvent::TickStart { .. } => "tick_start",
            TraceEvent::TickEnd { .. } => "tick_end",
            TraceEvent::DraftPhase { .. } => "draft_phase",
            TraceEvent::VerifyWaveSubmitted { .. } => "verify_wave_submitted",
            TraceEvent::VerifyWaveCompleted { .. } => "verify_wave_completed",
            TraceEvent::VerifyOutcome { .. } => "verify_outcome",
            TraceEvent::DeviceBatch { .. } => "device_batch",
            TraceEvent::KvAlloc { .. } => "kv_alloc",
            TraceEvent::KvFree { .. } => "kv_free",
            TraceEvent::KvPreempt { .. } => "kv_preempt",
            TraceEvent::KvRestore { .. } => "kv_restore",
            TraceEvent::CowCopy { .. } => "cow_copy",
            TraceEvent::KvOccupancy { .. } => "kv_occupancy",
            TraceEvent::DeviceUtilization { .. } => "device_utilization",
            TraceEvent::ChunkArrived { .. } => "chunk_arrived",
            TraceEvent::PartialEmitted { .. } => "partial_emitted",
            TraceEvent::Retraction { .. } => "retraction",
            TraceEvent::WorkerAdded { .. } => "worker_added",
            TraceEvent::WorkerDraining { .. } => "worker_draining",
            TraceEvent::WorkerRemoved { .. } => "worker_removed",
            TraceEvent::SessionMigrated { .. } => "session_migrated",
        }
    }

    /// The event's primary timestamp: when it happened (for spans, when the
    /// span *ended* — `DraftPhase` reports its start, the anchor drafts are
    /// scheduled from).
    pub fn ts_ms(&self) -> f64 {
        match self {
            TraceEvent::RequestSubmitted { ts_ms, .. }
            | TraceEvent::RequestAdmitted { ts_ms, .. }
            | TraceEvent::RequestShed { ts_ms, .. }
            | TraceEvent::RequestCompleted { ts_ms, .. }
            | TraceEvent::TickStart { ts_ms, .. }
            | TraceEvent::TickEnd { ts_ms, .. }
            | TraceEvent::VerifyWaveSubmitted { ts_ms, .. }
            | TraceEvent::VerifyOutcome { ts_ms, .. }
            | TraceEvent::DeviceBatch { ts_ms, .. }
            | TraceEvent::KvAlloc { ts_ms, .. }
            | TraceEvent::KvFree { ts_ms, .. }
            | TraceEvent::KvPreempt { ts_ms, .. }
            | TraceEvent::KvRestore { ts_ms, .. }
            | TraceEvent::CowCopy { ts_ms, .. }
            | TraceEvent::KvOccupancy { ts_ms, .. }
            | TraceEvent::DeviceUtilization { ts_ms, .. }
            | TraceEvent::ChunkArrived { ts_ms, .. }
            | TraceEvent::PartialEmitted { ts_ms, .. }
            | TraceEvent::Retraction { ts_ms, .. }
            | TraceEvent::WorkerAdded { ts_ms, .. }
            | TraceEvent::WorkerDraining { ts_ms, .. }
            | TraceEvent::WorkerRemoved { ts_ms, .. }
            | TraceEvent::SessionMigrated { ts_ms, .. } => *ts_ms,
            TraceEvent::DraftPhase { start_ms, .. } => *start_ms,
            TraceEvent::VerifyWaveCompleted { completed_ms, .. } => *completed_ms,
        }
    }
}

fn ids(values: &[u64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Number(v as f64)).collect())
}

fn num(value: u64) -> Value {
    Value::Number(value as f64)
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("type".to_string(), Value::String(self.name().to_string()))];
        let mut push = |key: &str, value: Value| fields.push((key.to_string(), value));
        match self {
            TraceEvent::RequestSubmitted {
                ts_ms,
                request,
                encoder_ms,
                audio_seconds,
                streaming,
                policy,
                drafter,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("request", num(*request));
                push("encoder_ms", Value::Number(*encoder_ms));
                push("audio_seconds", Value::Number(*audio_seconds));
                push("streaming", Value::Bool(*streaming));
                push("policy", Value::String(policy.clone()));
                push("drafter", Value::String(drafter.clone()));
            }
            TraceEvent::RequestAdmitted {
                ts_ms,
                request,
                kv_blocks,
                restored,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("request", num(*request));
                push("kv_blocks", num(*kv_blocks));
                push("restored", Value::Bool(*restored));
            }
            TraceEvent::RequestShed {
                ts_ms,
                request,
                reason,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push(
                    "request",
                    match request {
                        Some(id) => num(*id),
                        None => Value::Null,
                    },
                );
                push("reason", Value::String(reason.label().to_string()));
            }
            TraceEvent::RequestCompleted {
                ts_ms,
                request,
                tokens,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("request", num(*request));
                push("tokens", num(*tokens));
            }
            TraceEvent::TickStart {
                ts_ms,
                tick,
                active,
                queued,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("tick", num(*tick));
                push("active", num(*active));
                push("queued", num(*queued));
            }
            TraceEvent::TickEnd {
                ts_ms,
                tick,
                completed,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("tick", num(*tick));
                push("completed", num(*completed));
            }
            TraceEvent::DraftPhase {
                start_ms,
                end_ms,
                tick,
                request,
            } => {
                push("start_ms", Value::Number(*start_ms));
                push("end_ms", Value::Number(*end_ms));
                push("tick", num(*tick));
                push("request", num(*request));
            }
            TraceEvent::VerifyWaveSubmitted {
                ts_ms,
                tick,
                wave,
                tickets,
                requests,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("tick", num(*tick));
                push("wave", num(*wave));
                push("tickets", ids(tickets));
                push("requests", ids(requests));
            }
            TraceEvent::VerifyWaveCompleted {
                tick,
                wave,
                submitted_ms,
                started_ms,
                completed_ms,
                tickets,
                requests,
            } => {
                push("tick", num(*tick));
                push("wave", num(*wave));
                push("submitted_ms", Value::Number(*submitted_ms));
                push("started_ms", Value::Number(*started_ms));
                push("completed_ms", Value::Number(*completed_ms));
                push("tickets", ids(tickets));
                push("requests", ids(requests));
            }
            TraceEvent::VerifyOutcome {
                ts_ms,
                tick,
                wave,
                request,
                drafted,
                accepted,
                charged,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("tick", num(*tick));
                push("wave", num(*wave));
                push("request", num(*request));
                push("drafted", num(*drafted));
                push("accepted", num(*accepted));
                push("charged", num(*charged));
            }
            TraceEvent::DeviceBatch {
                ts_ms,
                seq,
                started_ms,
                completed_ms,
                requests,
                charge_tokens,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("seq", num(*seq));
                push("started_ms", Value::Number(*started_ms));
                push("completed_ms", Value::Number(*completed_ms));
                push("requests", num(*requests));
                push("charge_tokens", num(*charge_tokens));
            }
            TraceEvent::KvAlloc {
                ts_ms,
                request,
                blocks,
            }
            | TraceEvent::KvFree {
                ts_ms,
                request,
                blocks,
            }
            | TraceEvent::KvPreempt {
                ts_ms,
                request,
                blocks,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("request", num(*request));
                push("blocks", num(*blocks));
            }
            TraceEvent::KvRestore { ts_ms, request } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("request", num(*request));
            }
            TraceEvent::CowCopy { ts_ms, copies } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("copies", num(*copies));
            }
            TraceEvent::KvOccupancy {
                ts_ms,
                draft_blocks,
                target_blocks,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("draft_blocks", num(*draft_blocks));
                push("target_blocks", num(*target_blocks));
            }
            TraceEvent::DeviceUtilization {
                ts_ms,
                draft_busy_ms,
                draft_idle_ms,
                target_busy_ms,
                target_idle_ms,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("draft_busy_ms", Value::Number(*draft_busy_ms));
                push("draft_idle_ms", Value::Number(*draft_idle_ms));
                push("target_busy_ms", Value::Number(*target_busy_ms));
                push("target_idle_ms", Value::Number(*target_idle_ms));
            }
            TraceEvent::ChunkArrived {
                ts_ms,
                request,
                chunk,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("request", num(*request));
                push("chunk", num(*chunk));
            }
            TraceEvent::PartialEmitted {
                ts_ms,
                request,
                partial,
                committed,
                hypothesis,
                is_final,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("request", num(*request));
                push("partial", num(*partial));
                push("committed", num(*committed));
                push("hypothesis", num(*hypothesis));
                push("is_final", Value::Bool(*is_final));
            }
            TraceEvent::Retraction {
                ts_ms,
                request,
                tokens,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("request", num(*request));
                push("tokens", num(*tokens));
            }
            TraceEvent::WorkerAdded { ts_ms, worker }
            | TraceEvent::WorkerDraining { ts_ms, worker }
            | TraceEvent::WorkerRemoved { ts_ms, worker } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("worker", num(*worker));
            }
            TraceEvent::SessionMigrated {
                ts_ms,
                request,
                from_worker,
                to_worker,
                handoff,
            } => {
                push("ts_ms", Value::Number(*ts_ms));
                push("request", num(*request));
                push("from_worker", num(*from_worker));
                push("to_worker", num(*to_worker));
                push("handoff", Value::Bool(*handoff));
            }
        }
        Value::Object(fields)
    }
}

impl Deserialize for TraceEvent {
    /// Inverse of the [`Serialize`] impl: rebuilds the event from its tagged
    /// object form.  Unknown fields are ignored (a dump may carry extra
    /// annotations, e.g. the lane tag of a JSONL export); unknown type tags
    /// are an error — the analysis layer refuses to silently skip events it
    /// does not understand.
    fn from_value(value: &Value) -> Result<Self, Error> {
        let f = |name: &str| value.field(name).and_then(f64::from_value);
        let n = |name: &str| value.field(name).and_then(u64::from_value);
        let b = |name: &str| value.field(name).and_then(bool::from_value);
        let s = |name: &str| value.field(name).and_then(String::from_value);
        let v = |name: &str| value.field(name).and_then(Vec::<u64>::from_value);
        let tag = s("type")?;
        match tag.as_str() {
            "request_submitted" => Ok(TraceEvent::RequestSubmitted {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                encoder_ms: f("encoder_ms")?,
                audio_seconds: f("audio_seconds")?,
                streaming: b("streaming")?,
                policy: s("policy")?,
                drafter: s("drafter")?,
            }),
            "request_admitted" => Ok(TraceEvent::RequestAdmitted {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                kv_blocks: n("kv_blocks")?,
                restored: b("restored")?,
            }),
            "request_shed" => Ok(TraceEvent::RequestShed {
                ts_ms: f("ts_ms")?,
                request: value.field("request").and_then(Option::<u64>::from_value)?,
                reason: ShedReason::from_label(&s("reason")?)?,
            }),
            "request_completed" => Ok(TraceEvent::RequestCompleted {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                tokens: n("tokens")?,
            }),
            "tick_start" => Ok(TraceEvent::TickStart {
                ts_ms: f("ts_ms")?,
                tick: n("tick")?,
                active: n("active")?,
                queued: n("queued")?,
            }),
            "tick_end" => Ok(TraceEvent::TickEnd {
                ts_ms: f("ts_ms")?,
                tick: n("tick")?,
                completed: n("completed")?,
            }),
            "draft_phase" => Ok(TraceEvent::DraftPhase {
                start_ms: f("start_ms")?,
                end_ms: f("end_ms")?,
                tick: n("tick")?,
                request: n("request")?,
            }),
            "verify_wave_submitted" => Ok(TraceEvent::VerifyWaveSubmitted {
                ts_ms: f("ts_ms")?,
                tick: n("tick")?,
                wave: n("wave")?,
                tickets: v("tickets")?,
                requests: v("requests")?,
            }),
            "verify_wave_completed" => Ok(TraceEvent::VerifyWaveCompleted {
                tick: n("tick")?,
                wave: n("wave")?,
                submitted_ms: f("submitted_ms")?,
                started_ms: f("started_ms")?,
                completed_ms: f("completed_ms")?,
                tickets: v("tickets")?,
                requests: v("requests")?,
            }),
            "verify_outcome" => Ok(TraceEvent::VerifyOutcome {
                ts_ms: f("ts_ms")?,
                tick: n("tick")?,
                wave: n("wave")?,
                request: n("request")?,
                drafted: n("drafted")?,
                accepted: n("accepted")?,
                charged: n("charged")?,
            }),
            "device_batch" => Ok(TraceEvent::DeviceBatch {
                ts_ms: f("ts_ms")?,
                seq: n("seq")?,
                started_ms: f("started_ms")?,
                completed_ms: f("completed_ms")?,
                requests: n("requests")?,
                charge_tokens: n("charge_tokens")?,
            }),
            "kv_alloc" => Ok(TraceEvent::KvAlloc {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                blocks: n("blocks")?,
            }),
            "kv_free" => Ok(TraceEvent::KvFree {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                blocks: n("blocks")?,
            }),
            "kv_preempt" => Ok(TraceEvent::KvPreempt {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                blocks: n("blocks")?,
            }),
            "kv_restore" => Ok(TraceEvent::KvRestore {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
            }),
            "cow_copy" => Ok(TraceEvent::CowCopy {
                ts_ms: f("ts_ms")?,
                copies: n("copies")?,
            }),
            "kv_occupancy" => Ok(TraceEvent::KvOccupancy {
                ts_ms: f("ts_ms")?,
                draft_blocks: n("draft_blocks")?,
                target_blocks: n("target_blocks")?,
            }),
            "device_utilization" => Ok(TraceEvent::DeviceUtilization {
                ts_ms: f("ts_ms")?,
                draft_busy_ms: f("draft_busy_ms")?,
                draft_idle_ms: f("draft_idle_ms")?,
                target_busy_ms: f("target_busy_ms")?,
                target_idle_ms: f("target_idle_ms")?,
            }),
            "chunk_arrived" => Ok(TraceEvent::ChunkArrived {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                chunk: n("chunk")?,
            }),
            "partial_emitted" => Ok(TraceEvent::PartialEmitted {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                partial: n("partial")?,
                committed: n("committed")?,
                hypothesis: n("hypothesis")?,
                is_final: b("is_final")?,
            }),
            "retraction" => Ok(TraceEvent::Retraction {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                tokens: n("tokens")?,
            }),
            "worker_added" => Ok(TraceEvent::WorkerAdded {
                ts_ms: f("ts_ms")?,
                worker: n("worker")?,
            }),
            "worker_draining" => Ok(TraceEvent::WorkerDraining {
                ts_ms: f("ts_ms")?,
                worker: n("worker")?,
            }),
            "worker_removed" => Ok(TraceEvent::WorkerRemoved {
                ts_ms: f("ts_ms")?,
                worker: n("worker")?,
            }),
            "session_migrated" => Ok(TraceEvent::SessionMigrated {
                ts_ms: f("ts_ms")?,
                request: n("request")?,
                from_worker: n("from_worker")?,
                to_worker: n("to_worker")?,
                handoff: b("handoff")?,
            }),
            other => Err(Error::custom(format!("unknown trace event `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_type_tag_first() {
        let event = TraceEvent::RequestAdmitted {
            ts_ms: 12.5,
            request: 3,
            kv_blocks: 8,
            restored: false,
        };
        let json = serde_json::to_string(&event).expect("serializes");
        assert!(
            json.starts_with("{\"type\":\"request_admitted\""),
            "tag leads: {json}"
        );
        assert!(json.contains("\"kv_blocks\":8"));
    }

    #[test]
    fn shed_without_id_serializes_null_request() {
        let event = TraceEvent::RequestShed {
            ts_ms: 1.0,
            request: None,
            reason: ShedReason::QueueFull,
        };
        let json = serde_json::to_string(&event).expect("serializes");
        assert!(json.contains("\"request\":null"), "{json}");
        assert!(json.contains("\"reason\":\"queue_full\""), "{json}");
    }

    #[test]
    fn every_event_round_trips_through_json() {
        let events = vec![
            TraceEvent::RequestSubmitted {
                ts_ms: 0.5,
                request: 1,
                encoder_ms: 80.25,
                audio_seconds: 4.5,
                streaming: false,
                policy: "specasr-asp".to_string(),
                drafter: "ctc".to_string(),
            },
            TraceEvent::RequestAdmitted {
                ts_ms: 1.0,
                request: 1,
                kv_blocks: 8,
                restored: true,
            },
            TraceEvent::RequestShed {
                ts_ms: 2.0,
                request: None,
                reason: ShedReason::Deadline,
            },
            TraceEvent::RequestShed {
                ts_ms: 2.5,
                request: Some(9),
                reason: ShedReason::Memory,
            },
            TraceEvent::RequestCompleted {
                ts_ms: 3.0,
                request: 1,
                tokens: 42,
            },
            TraceEvent::TickStart {
                ts_ms: 4.0,
                tick: 1,
                active: 3,
                queued: 2,
            },
            TraceEvent::TickEnd {
                ts_ms: 5.0,
                tick: 1,
                completed: 1,
            },
            TraceEvent::DraftPhase {
                start_ms: 4.0,
                end_ms: 4.5,
                tick: 1,
                request: 1,
            },
            TraceEvent::VerifyWaveSubmitted {
                ts_ms: 4.5,
                tick: 1,
                wave: 0,
                tickets: vec![7, 8],
                requests: vec![1, 2],
            },
            TraceEvent::VerifyWaveCompleted {
                tick: 1,
                wave: 0,
                submitted_ms: 4.5,
                started_ms: 4.75,
                completed_ms: 6.125,
                tickets: vec![7, 8],
                requests: vec![1, 2],
            },
            TraceEvent::VerifyOutcome {
                ts_ms: 6.125,
                tick: 1,
                wave: 0,
                request: 1,
                drafted: 4,
                accepted: 3,
                charged: 5,
            },
            TraceEvent::DeviceBatch {
                ts_ms: 4.5,
                seq: 0,
                started_ms: 4.75,
                completed_ms: 6.125,
                requests: 2,
                charge_tokens: 10,
            },
            TraceEvent::KvAlloc {
                ts_ms: 1.0,
                request: 1,
                blocks: 4,
            },
            TraceEvent::KvFree {
                ts_ms: 3.0,
                request: 1,
                blocks: 4,
            },
            TraceEvent::KvPreempt {
                ts_ms: 2.0,
                request: 2,
                blocks: 6,
            },
            TraceEvent::KvRestore {
                ts_ms: 2.5,
                request: 2,
            },
            TraceEvent::CowCopy {
                ts_ms: 5.0,
                copies: 3,
            },
            TraceEvent::KvOccupancy {
                ts_ms: 5.0,
                draft_blocks: 10,
                target_blocks: 20,
            },
            TraceEvent::DeviceUtilization {
                ts_ms: 5.0,
                draft_busy_ms: 1.5,
                draft_idle_ms: 0.25,
                target_busy_ms: 3.75,
                target_idle_ms: 0.125,
            },
            TraceEvent::ChunkArrived {
                ts_ms: 6.0,
                request: 3,
                chunk: 1,
            },
            TraceEvent::PartialEmitted {
                ts_ms: 6.5,
                request: 3,
                partial: 0,
                committed: 5,
                hypothesis: 2,
                is_final: false,
            },
            TraceEvent::Retraction {
                ts_ms: 7.0,
                request: 3,
                tokens: 1,
            },
            TraceEvent::WorkerAdded {
                ts_ms: 8.0,
                worker: 2,
            },
            TraceEvent::WorkerDraining {
                ts_ms: 9.0,
                worker: 2,
            },
            TraceEvent::WorkerRemoved {
                ts_ms: 10.0,
                worker: 2,
            },
            TraceEvent::SessionMigrated {
                ts_ms: 9.5,
                request: 3,
                from_worker: 2,
                to_worker: 0,
                handoff: true,
            },
        ];
        for event in events {
            let json = serde_json::to_string(&event).expect("serializes");
            let back: TraceEvent = serde_json::from_str(&json).expect("deserializes");
            assert_eq!(back, event, "round trip of {json}");
        }
    }

    #[test]
    fn decoding_ignores_unknown_fields_and_rejects_unknown_tags() {
        let annotated = "{\"type\":\"cow_copy\",\"lane\":\"worker-0\",\"ts_ms\":5,\"copies\":3}";
        let event: TraceEvent = serde_json::from_str(annotated).expect("extra fields are fine");
        assert_eq!(
            event,
            TraceEvent::CowCopy {
                ts_ms: 5.0,
                copies: 3
            }
        );
        let unknown = "{\"type\":\"warp_drive\",\"ts_ms\":1}";
        assert!(serde_json::from_str::<TraceEvent>(unknown).is_err());
        assert!(ShedReason::from_label("warp").is_err());
    }

    #[test]
    fn primary_timestamps_pick_span_anchors() {
        let draft = TraceEvent::DraftPhase {
            start_ms: 5.0,
            end_ms: 9.0,
            tick: 1,
            request: 0,
        };
        assert_eq!(draft.ts_ms(), 5.0);
        let wave = TraceEvent::VerifyWaveCompleted {
            tick: 1,
            wave: 0,
            submitted_ms: 9.0,
            started_ms: 9.5,
            completed_ms: 20.0,
            tickets: vec![1],
            requests: vec![0],
        };
        assert_eq!(wave.ts_ms(), 20.0);
    }
}
