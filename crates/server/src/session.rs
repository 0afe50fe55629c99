//! Per-request serving state: the queued form before admission and the
//! in-flight form wrapping a core [`DecodeSession`].

use specasr::{DecodeSession, DrafterKind, Policy};
use specasr_audio::{StreamChunk, UtteranceId};
use specasr_models::UtteranceTokens;
use specasr_runtime::{KvPool, PoolError};
use specasr_stream::StreamingSession;
use specasr_trace::{TraceEvent, Tracer};

use crate::request::{PartialSpan, RequestId};

/// Serving-side state of one streaming request: the stream session (horizon,
/// committed tokens, commit rule) plus the chunk timetable and the partial
/// spans already emitted.
#[derive(Debug, Clone)]
pub(crate) struct StreamState {
    /// The streaming decode session (commit rule, committed prefix, stats).
    pub session: StreamingSession,
    /// The timed chunk plan (offsets relative to `submitted_ms`).
    pub chunks: Vec<StreamChunk>,
    /// Per-chunk incremental encoder latency (fixed overhead on chunk 0).
    pub chunk_encoder_ms: Vec<f64>,
    /// Wall time the stream was submitted (chunk offsets anchor here).
    pub submitted_ms: f64,
    /// Chunks already delivered into the session.
    pub delivered: usize,
    /// Wall arrival of the newest delivered chunk.
    pub newest_chunk_arrival_ms: f64,
    /// Incremental encoder ms of the chunks delivered since the last partial
    /// (charged into the next partial's span).
    pub pending_encoder_ms: f64,
    /// Wall time of the stream's first admission into the batch.
    pub first_admitted_ms: Option<f64>,
    /// Partials emitted so far, in order.
    pub partials: Vec<PartialSpan>,
}

impl StreamState {
    /// Wall time the next undelivered chunk arrives, if any chunk is left.
    pub fn next_arrival_ms(&self) -> Option<f64> {
        self.chunks
            .get(self.delivered)
            .map(|chunk| self.submitted_ms + chunk.arrival_offset_ms)
    }

    /// Delivers every chunk that has arrived by `wall_ms` into the stream
    /// session (extending the audio horizon) and returns whether anything
    /// was delivered.  Each delivery is recorded as a `ChunkArrived` event
    /// on `request`'s behalf, stamped at the chunk's true arrival time.
    pub fn deliver_due(&mut self, wall_ms: f64, request: RequestId, tracer: &mut Tracer) -> bool {
        let mut delivered_any = false;
        while let Some(chunk) = self.chunks.get(self.delivered) {
            let arrival = self.submitted_ms + chunk.arrival_offset_ms;
            if arrival > wall_ms {
                break;
            }
            self.session.push_audio(chunk.end_seconds);
            self.newest_chunk_arrival_ms = arrival;
            self.pending_encoder_ms += self.chunk_encoder_ms[self.delivered];
            let chunk_index = self.delivered as u64;
            tracer.record_with(|| TraceEvent::ChunkArrived {
                ts_ms: arrival,
                request: request.value(),
                chunk: chunk_index,
            });
            self.delivered += 1;
            delivered_any = true;
        }
        delivered_any
    }
}

/// A request waiting in the admission queue (fresh, re-queued after a
/// preemption, or a streaming request re-entering with a new chunk).
#[derive(Debug, Clone)]
pub(crate) struct QueuedRequest {
    pub id: RequestId,
    pub policy: Policy,
    /// Which draft source the decode session will speculate from.
    /// Draft-free kinds admit with a target-only KV footprint.
    pub drafter: DrafterKind,
    /// The decode context: the full utterance for offline requests, the
    /// current audio-horizon view for streaming requests (rebuilt once per
    /// chunk delivery, when the stream re-enters the queue).
    pub audio: UtteranceTokens,
    pub utterance_id: UtteranceId,
    pub audio_seconds: f64,
    pub encoder_ms: f64,
    pub arrival_ms: f64,
    /// Times this request was evicted mid-decode to free KV blocks.
    pub preemptions: usize,
    /// Optional time-to-first-token budget: requests whose queue wait has
    /// already exceeded it are shed at admission time (per-class
    /// `rejected_deadline` accounting).
    pub ttft_budget_ms: Option<f64>,
    /// Whether this request produced output before (re-)queueing: a partial
    /// for streams, a committed first token for preempted offline requests.
    /// Deadline shedding never applies once this is set — the TTFT the
    /// budget governs has already been achieved.
    pub first_output_emitted: bool,
    /// Streaming state, `None` for offline requests.
    pub stream: Option<Box<StreamState>>,
}

impl QueuedRequest {
    /// `true` once this request has delivered its first partial (or first
    /// token); deadline shedding only applies before that.
    pub fn first_output_emitted(&self) -> bool {
        self.first_output_emitted
            || self
                .stream
                .as_ref()
                .is_some_and(|stream| !stream.partials.is_empty())
    }

    /// Admits this request at wall time `admitted_ms`, starting (or, for
    /// streaming requests, resuming from the committed prefix) its decode
    /// session against `pool` (prefix blocks shared where possible).
    ///
    /// On allocation failure the request is handed back untouched so the
    /// caller can re-queue or reject it — a memory-starved admission must
    /// not lose the request or leak blocks.  (Boxed so the common `Ok` path
    /// does not carry the full request across the stack.)
    pub fn try_admit(
        mut self,
        admitted_ms: f64,
        pool: &mut KvPool,
    ) -> Result<ServerSession, Box<(QueuedRequest, PoolError)>> {
        let committed = match &self.stream {
            Some(stream) => stream.session.committed(),
            None => &[],
        };
        let started = DecodeSession::new(
            self.policy,
            self.drafter,
            self.audio.clone(),
            committed,
            pool,
        );
        match started {
            Ok(decode) => {
                if let Some(stream) = self.stream.as_mut() {
                    stream.first_admitted_ms.get_or_insert(admitted_ms);
                }
                Ok(ServerSession {
                    id: self.id,
                    policy: self.policy,
                    drafter: self.drafter,
                    utterance_id: self.utterance_id,
                    audio_seconds: self.audio_seconds,
                    encoder_ms: self.encoder_ms,
                    arrival_ms: self.arrival_ms,
                    admitted_ms,
                    ready_ms: admitted_ms,
                    first_token_ms: None,
                    preemptions: self.preemptions,
                    ttft_budget_ms: self.ttft_budget_ms,
                    first_output_emitted: self.first_output_emitted,
                    stream: self.stream,
                    decode,
                })
            }
            Err(error) => Err(Box::new((self, error))),
        }
    }
}

/// A request admitted into the batch, decoding round by round against the
/// scheduler's shared KV pool.
///
/// Not `Clone`: the decode session's block tables name blocks in that pool,
/// and a copy released alongside the original would free them twice.
#[derive(Debug)]
pub(crate) struct ServerSession {
    pub id: RequestId,
    pub policy: Policy,
    /// The draft source the decode session speculates from (mirrors
    /// [`DecodeSession::drafter`]; kept here for re-queueing).
    pub drafter: DrafterKind,
    pub utterance_id: UtteranceId,
    pub audio_seconds: f64,
    pub encoder_ms: f64,
    pub arrival_ms: f64,
    pub admitted_ms: f64,
    /// Wall time this session's next round may start: its own verification
    /// wave's completion under pipelined scheduling (which can precede the
    /// tick's end — that head start is the cross-tick overlap), the tick end
    /// under drain-per-tick scheduling.  Reset to the admission time on
    /// every (re-)admission.
    pub ready_ms: f64,
    /// Wall time at which the first transcript token was committed.
    pub first_token_ms: Option<f64>,
    pub preemptions: usize,
    pub ttft_budget_ms: Option<f64>,
    /// Whether the request had produced output before this admission.
    pub first_output_emitted: bool,
    /// Streaming state, `None` for offline requests.
    pub stream: Option<Box<StreamState>>,
    pub decode: DecodeSession,
}

impl ServerSession {
    /// Converts this session back into its queued form — after a preemption
    /// (`preempted`, counted; the decode progress of the current pass is
    /// discarded and restore is a deterministic re-prefill + re-decode, for
    /// streaming requests a resume from the committed prefix) or when a
    /// streaming view finished and the stream parks for its next chunk.
    /// The original arrival timestamp is kept so aging credit keeps
    /// accumulating, and output already produced (a committed first token,
    /// an emitted partial) keeps the request exempt from deadline shedding.
    ///
    /// The caller must have released the session's KV blocks already.
    pub fn into_requeued(self, preempted: bool) -> QueuedRequest {
        QueuedRequest {
            id: self.id,
            policy: self.policy,
            drafter: self.drafter,
            audio: self.decode.audio().clone(),
            utterance_id: self.utterance_id,
            audio_seconds: self.audio_seconds,
            encoder_ms: self.encoder_ms,
            arrival_ms: self.arrival_ms,
            preemptions: self.preemptions + usize::from(preempted),
            ttft_budget_ms: self.ttft_budget_ms,
            first_output_emitted: self.first_output_emitted
                || self.first_token_ms.is_some()
                || self
                    .stream
                    .as_ref()
                    .is_some_and(|stream| !stream.partials.is_empty()),
            stream: self.stream,
        }
    }
}
