//! Per-request serving state: the queued form before admission and the
//! in-flight form wrapping a core [`DecodeSession`].

use std::sync::Arc;

use specasr::DecodeSession;
use specasr_audio::{chunk_schedule, EncoderProfile, StreamChunk, UtteranceId};
use specasr_runtime::{KvPool, PoolError};
use specasr_stream::StreamingSession;
use specasr_trace::{TraceEvent, Tracer};

use crate::request::{PartialSpan, RequestId};

/// Serving-side state of one streaming request: the stream session (horizon,
/// committed tokens, commit rule) plus the chunk timetable and the partial
/// spans already emitted.
///
/// A retired stream's state is kept, and the next stream is built in its
/// buffers ([`StreamState::restart`]).
#[derive(Debug)]
pub(crate) struct StreamState {
    /// The streaming decode session (commit rule, committed prefix, stats).
    pub session: StreamingSession,
    /// The timed chunk plan (offsets relative to `submitted_ms`).
    pub chunks: Vec<StreamChunk>,
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
    /// A state around `session`, just opened on its stream's utterance:
    /// [`StreamState::restart`] starts the stream.
    pub(crate) fn new(session: StreamingSession) -> Self {
        StreamState {
            session,
            chunks: Vec::new(),
            submitted_ms: 0.0,
            delivered: 0,
            newest_chunk_arrival_ms: 0.0,
            pending_encoder_ms: 0.0,
            first_admitted_ms: None,
            partials: Vec::new(),
        }
    }

    /// Starts the stream whose session was just opened or restarted on its
    /// utterance ([`StreamingSession::restart`]), submitted at
    /// `submitted_ms`: plans its chunk timetable under the session's chunk
    /// configuration in the buffer earlier streams grew, and sizes its
    /// partial spans.  The spans leave with each stream's outcome, so they
    /// are the one buffer a stream allocates here.
    pub(crate) fn restart(&mut self, submitted_ms: f64) {
        let duration_seconds = self.session.audio().duration_seconds();
        chunk_schedule(
            duration_seconds,
            &self.session.config().chunk,
            &mut self.chunks,
        );
        // Each partial answers at least one new chunk.
        self.partials.clear();
        self.partials.reserve(self.chunks.len());
        self.submitted_ms = submitted_ms;
        self.delivered = 0;
        self.newest_chunk_arrival_ms = submitted_ms;
        self.pending_encoder_ms = 0.0;
        self.first_admitted_ms = None;
    }

    /// Wall time the next undelivered chunk arrives, if any chunk is left.
    pub fn next_arrival_ms(&self) -> Option<f64> {
        self.chunks
            .get(self.delivered)
            .map(|chunk| self.submitted_ms + chunk.arrival_offset_ms)
    }

    /// Delivers every chunk that has arrived by `wall_ms` into the stream
    /// session (extending the audio horizon), charges each one's
    /// incremental latency on `encoder` (the fixed overhead on chunk 0) to
    /// the next partial, and returns whether anything was delivered.  Each
    /// delivery is recorded as a `ChunkArrived` event on `request`'s
    /// behalf, stamped at the chunk's true arrival time.
    pub fn deliver_due(
        &mut self,
        wall_ms: f64,
        encoder: &EncoderProfile,
        request: RequestId,
        tracer: &mut Tracer,
    ) -> bool {
        let mut delivered_any = false;
        while let Some(chunk) = self.chunks.get(self.delivered) {
            let arrival = self.submitted_ms + chunk.arrival_offset_ms;
            if arrival > wall_ms {
                break;
            }
            self.session.push_audio(chunk.end_seconds);
            self.newest_chunk_arrival_ms = arrival;
            self.pending_encoder_ms +=
                encoder.incremental_latency_ms(chunk.duration_seconds(), chunk.index == 0);
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
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    pub id: RequestId,
    /// The request's decode session, holding no KV blocks while queued:
    /// idle until the first admission, then released and kept across
    /// preemptions and, for a stream, across chunks.  Admission restarts it
    /// in place.  Its audio is the decode context: the full utterance for
    /// offline requests, the current audio-horizon view for streams
    /// (refilled once per chunk delivery, when the stream re-enters the
    /// queue).  Its drafter decides the KV footprint: draft-free kinds admit
    /// with a target-only one.
    pub decode: DecodeSession,
    pub utterance_id: UtteranceId,
    pub audio_seconds: f64,
    pub encoder_ms: f64,
    pub arrival_ms: f64,
    /// The earliest instant this request could be admitted on its worker:
    /// its arrival for a fresh submit, the later of the newest chunk's
    /// arrival and the previous partial for a stream, the eviction for a
    /// preempted request, and the destination's clock at the move for a
    /// stolen or migrated one.  Admission never stamps a request before it.
    pub queued_ms: f64,
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

    /// Refills a parked stream's decode context with the view of the audio
    /// received so far and returns `true`, or returns `false`, building
    /// nothing, while no token is audible yet.  A refilled view is queued
    /// from its newest chunk's arrival at the earliest.
    ///
    /// The view is refilled in place: once the scheduler has released it
    /// on the backend ([`specasr_models::AsrBackend::release_context`]), no
    /// RPC encoder holds it, and the session's handle is the only one.  Any
    /// other holder must never see it change, so a view still shared is
    /// copied first (`Arc::make_mut`) and the copy is refilled.
    pub fn refill_stream_view(&mut self) -> bool {
        let stream = self
            .stream
            .as_ref()
            .expect("only streaming requests refill a view");
        if !stream
            .session
            .fill_view(Arc::make_mut(self.decode.audio_mut()))
        {
            return false;
        }
        self.queued_ms = self.queued_ms.max(stream.newest_chunk_arrival_ms);
        true
    }

    /// Restarts this request's decode session against `pool`, with prefix
    /// blocks shared where possible: for a stream, from the committed prefix
    /// with the last partial's unstable tail to recycle (a restore after
    /// preemption starts the view's decode over the same way); from the
    /// start otherwise.
    ///
    /// On allocation failure nothing stays allocated and the request is
    /// left as it was, so the caller can re-queue or reject it: a
    /// memory-starved admission must not lose the request or leak blocks.
    pub fn restart(&mut self, pool: &mut KvPool) -> Result<(), PoolError> {
        let (committed, tail) = match &self.stream {
            Some(stream) => {
                let committed = stream.session.committed();
                (committed, &stream.session.hypothesis()[committed.len()..])
            }
            None => (&[][..], &[][..]),
        };
        let audio = Arc::clone(self.decode.audio());
        self.decode.restart(audio, committed, tail, pool)
    }

    /// Admits this request at wall time `admitted_ms`; its decode session
    /// was just restarted ([`QueuedRequest::restart`]).
    pub fn into_session(mut self, admitted_ms: f64) -> ServerSession {
        if let Some(stream) = self.stream.as_mut() {
            stream.first_admitted_ms.get_or_insert(admitted_ms);
        }
        ServerSession {
            id: self.id,
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
            deferred: false,
            stream: self.stream,
            decode: self.decode,
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
    pub utterance_id: UtteranceId,
    pub audio_seconds: f64,
    pub encoder_ms: f64,
    pub arrival_ms: f64,
    pub admitted_ms: f64,
    /// Wall time this session's next round may start: its own verification
    /// wave's completion, which can precede the tick's end — that head start
    /// is the cross-tick overlap.  Reset to the admission time on every
    /// (re-)admission.  Once the session finishes, this commit stamp is when
    /// it leaves the batch: its completion, or its partial for a stream.
    pub ready_ms: f64,
    /// Wall time at which the first transcript token was committed.
    pub first_token_ms: Option<f64>,
    pub preemptions: usize,
    pub ttft_budget_ms: Option<f64>,
    /// Whether the request had produced output before this admission.
    pub first_output_emitted: bool,
    /// Whether this session's next round is already drafted: a tick's
    /// wave plan put it in a cohort the tick did not submit, and the round,
    /// its draft end and its draft-lane ms wait in the session's tick-scratch
    /// slot.  The next tick verifies that round without drafting it again.
    /// Cleared on every (re-)admission and migration.
    pub deferred: bool,
    /// Streaming state, `None` for offline requests.
    pub stream: Option<Box<StreamState>>,
    pub decode: DecodeSession,
}

impl ServerSession {
    /// Whether this session's request carries a time-to-first-token budget
    /// and has not produced its first output yet: no token committed for an
    /// offline request, no partial emitted for a stream.  The tick verifies
    /// such a round in the tick that drafted it.
    pub(crate) fn awaits_budgeted_output(&self) -> bool {
        self.ttft_budget_ms.is_some()
            && !self.first_output_emitted
            && match &self.stream {
                Some(stream) => stream.partials.is_empty(),
                None => self.first_token_ms.is_none(),
            }
    }

    /// Converts this session back into its queued form — after a preemption
    /// (`preempted`, counted; the decode progress of the current pass is
    /// discarded and restore is a deterministic re-prefill + re-decode, for
    /// streaming requests a resume from the committed prefix) or when a
    /// streaming view finished and the stream parks for its next chunk.
    /// The decode session goes along, to be restarted in place.  The
    /// original arrival timestamp is kept so aging credit keeps
    /// accumulating, and output already produced (a committed first token,
    /// an emitted partial) keeps the request exempt from deadline shedding.
    /// The request is queued from `queued_ms` (see
    /// [`QueuedRequest::queued_ms`]).
    ///
    /// The caller must have released the session's KV blocks already.
    pub fn into_requeued(self, preempted: bool, queued_ms: f64) -> QueuedRequest {
        QueuedRequest {
            id: self.id,
            decode: self.decode,
            utterance_id: self.utterance_id,
            audio_seconds: self.audio_seconds,
            encoder_ms: self.encoder_ms,
            arrival_ms: self.arrival_ms,
            queued_ms,
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
