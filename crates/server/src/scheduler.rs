//! The continuous-batching scheduler: iteration-level memory-aware admission,
//! per-session draft phases, one grouped verification pass per tick, and
//! KV-pool preemption when memory runs out.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use specasr::{DecodeOutcome, DecodeSession, DraftedRound, Drafter, DrafterKind};
use specasr_audio::{chunk_schedule, EncoderProfile, Utterance};
use specasr_models::{
    splitmix64, AsrBackend, AsrDecoderModel, BackendBatch, BackendCounters, Completions,
    DeviceTimeline, InFlightSimBackend, ModelProfile, RpcBackend, Ticket, TicketRange, TokenLogits,
    TokenizerBinding, UtteranceTokens,
};
use specasr_runtime::KvPool;
use specasr_stream::{StreamConfig, StreamingSession};
use specasr_tokenizer::TokenId;
use specasr_trace::{FlightRecording, ShedReason, TraceConfig, TraceEvent, Tracer};

use crate::batch::{plan_verify_waves, TickCost, VerifyPlan};
use crate::config::{AdmissionOrdering, AdmissionPolicy, PreemptPolicy, ServerConfig};
use crate::request::{
    PartialSpan, RequestId, RequestLatency, RequestOutcome, RequestSpec, SloClass, SubmitError,
};
use crate::session::{QueuedRequest, ServerSession, StreamState};
use crate::stats::ServerStats;

/// The scheduler's verification backend: the in-process simulated device, or
/// the same device behind a process boundary.
///
/// The two variants are observably identical — same timing, same tickets,
/// same counters — because the RPC worker prices batches with the same
/// [`InFlightSimBackend`] timeline.  The enum exists so the choice threads
/// through [`Scheduler`]/[`crate::Router`]/bench bins as configuration
/// rather than as a type parameter every caller must name.
#[derive(Debug)]
enum VerifyBackend<T> {
    /// The in-process simulated device.
    Sim(InFlightSimBackend<T>),
    /// A worker thread behind the serialized wire protocol.
    Rpc(RpcBackend),
}

impl<T: AsrDecoderModel> VerifyBackend<T> {
    /// The backend behind either variant.
    fn backend(&self) -> &dyn AsrBackend {
        match self {
            VerifyBackend::Sim(backend) => backend,
            VerifyBackend::Rpc(backend) => backend,
        }
    }

    /// The backend behind either variant, mutably.
    fn backend_mut(&mut self) -> &mut dyn AsrBackend {
        match self {
            VerifyBackend::Sim(backend) => backend,
            VerifyBackend::Rpc(backend) => backend,
        }
    }
}

/// The scheduler's draft model for one draft round, counting the queries the
/// round makes.
struct CountedDraft<'a, D> {
    model: &'a D,
    queries: AtomicUsize,
}

impl<D> CountedDraft<'_, D> {
    /// Adds the round's queries to the draft lane's counters, each as the
    /// single-probe draft-step batch it stands for.
    fn count_into(self, counters: &mut BackendCounters) {
        let steps = self.queries.into_inner();
        counters.batches += steps;
        counters.requests += steps;
        counters.draft_requests += steps;
        counters.probes_scored += steps;
    }
}

impl<D: AsrDecoderModel> AsrDecoderModel for CountedDraft<'_, D> {
    fn profile(&self) -> &ModelProfile {
        self.model.profile()
    }

    fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
        // A statistic the drafting thread reads back: no ordering needed.
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.model.next_logits(audio, prefix)
    }
}

/// How one in-flight session leaves (or stays in) the batch at tick end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Removal {
    /// Still decoding (or finished and heading for retirement).
    Keep,
    /// Evicted to free KV blocks; re-queued for a deterministic restore.
    Preempted,
    /// Its KV demand can never be met; dropped with a memory rejection.
    Rejected,
}

/// The buffers one tick fills, kept from tick to tick so a warm tick
/// allocates nothing: every buffer is cleared and refilled in place.
///
/// Grouped by the tick phase that fills each buffer; the per-session
/// buffers are indexed by position in the active batch.
#[derive(Debug, Default)]
struct TickScratch {
    // Draft.
    /// Session indices in draft-readiness order.
    order: Vec<usize>,
    /// One round per batch slot, refilled by whichever session holds the
    /// slot this tick.  Grown on demand and never shrunk.
    drafted: Vec<DraftedRound>,
    /// Draft-lane milliseconds each round spent.
    spent_ms: Vec<f64>,
    /// When each round's draft phase finished.
    draft_done: Vec<f64>,
    verify_widths: Vec<usize>,
    // Plan and submit.
    plan: VerifyPlan,
    /// One wave's verify requests at a time.
    batch: BackendBatch,
    /// Each wave's tickets, in wave order.
    wave_tickets: Vec<TicketRange>,
    // Drain.
    completions: Completions,
    /// Where each session's result sits in `completions`.
    results: Vec<Option<usize>>,
    /// The wave each session verified in.
    wave_of: Vec<usize>,
    /// When each wave completed.
    wave_completed: Vec<f64>,
    // Commit.
    /// Billed token width of each wave.
    wave_charges: Vec<u64>,
    removal: Vec<Removal>,
    // Retire.
    /// The active sessions, while retirement sorts them into kept, retired
    /// and requeued ones.
    retiring: Vec<ServerSession>,
    requeued: Vec<QueuedRequest>,
    // Admit.
    /// When each free batch slot became free, at most `max_batch` of them:
    /// the tick's start for a slot idle all tick, the commit stamp of the
    /// session that left it otherwise.  Admission fills slots in this order
    /// and uses each stamp once.
    free_slots: Vec<f64>,
}

/// The buffers a worker grows serving requests and leaves behind when the
/// router reaps it, for the next worker that joins: its tick scratch and its
/// spare decode sessions.
#[derive(Debug)]
pub(crate) struct GrownBuffers {
    scratch: TickScratch,
    spares: Vec<DecodeSession>,
}

/// Empties `buffer` and fills it with `len` copies of `value`, keeping its
/// capacity.
fn refill<T: Clone>(buffer: &mut Vec<T>, len: usize, value: T) {
    buffer.clear();
    buffer.resize(len, value);
}

/// When `request` became admissible on a worker whose clock reads `now_ms`:
/// its queued instant, clamped to the clock (a router can stamp an arrival
/// on the fleet timeline ahead of a lagging worker).
fn queued_by(request: &QueuedRequest, now_ms: f64) -> f64 {
    request.queued_ms.min(now_ms)
}

/// Whether admitting `request` at `at_ms` would blow its time-to-first-token
/// budget.  Only applies before the first output: a stream that already
/// emitted a partial is never shed mid-utterance.
fn past_budget(request: &QueuedRequest, at_ms: f64) -> bool {
    request.ttft_budget_ms.is_some_and(|budget| {
        !request.first_output_emitted() && at_ms - request.arrival_ms > budget
    })
}

/// A continuous-batching serving scheduler over a draft/target model pair.
///
/// Requests are [`Scheduler::submit`]ted with their own [`RequestSpec`]
/// (different policies and drafters batch together) and decoded round by
/// round: every
/// [`Scheduler::tick`] admits queued requests into free batch slots
/// (iteration-level scheduling — finished sessions free their slots without
/// waiting for the batch to drain), runs each active session's draft phase,
/// verifies the drafted material in grouped target passes — up to
/// [`ServerConfig::max_in_flight_waves`] cross-session waves, planned by
/// [`crate::plan_verify_waves`] — and retires the sessions that reached EOS.
///
/// Time is simulated: the scheduler advances a wall clock to the modeled
/// completion of each tick's last wave on the target backend's device
/// timeline, which makes every throughput/latency number deterministic and
/// reproducible.  The audio
/// encoder is modelled as a concurrent pool: its latency counts toward each
/// request's end-to-end and first-token latency but does not serialise the
/// decoder timeline.
///
/// # Example
///
/// ```
/// use specasr::{AdaptiveConfig, Policy};
/// use specasr_audio::{Corpus, EncoderProfile, Split};
/// use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
/// use specasr_server::{Scheduler, ServerConfig};
///
/// let corpus = Corpus::librispeech_like(5, 4);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
/// let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
///
/// let mut scheduler = Scheduler::new(
///     draft,
///     target,
///     binding,
///     EncoderProfile::whisper_medium_encoder(),
///     ServerConfig::default(),
/// );
/// let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
/// for utterance in corpus.split(Split::TestClean) {
///     scheduler.submit(policy, utterance).expect("queue has room");
/// }
/// let outcomes = scheduler.run_until_idle();
/// assert_eq!(outcomes.len(), 4);
/// assert!(scheduler.stats().utterances_per_second() > 0.0);
/// ```
#[derive(Debug)]
pub struct Scheduler<D, T> {
    /// The draft model.  Model-draft sessions query it in place, through
    /// the same `draft_round` call a blocking decode makes; the lane's
    /// device time is modeled by `draft_timeline`.
    draft: D,
    /// The draft lane's counters: every draft-model query counts as one
    /// single-probe draft-step batch.
    draft_counters: BackendCounters,
    /// The target backend: cross-session verification batches run through
    /// it.  One serialised device timeline, so verification waves submitted
    /// while straggler draft phases still run genuinely overlap them.
    target: VerifyBackend<T>,
    /// The modeled draft-device budget: when `config.draft_lanes > 0`,
    /// every model-draft session's round reserves a timed span here, so
    /// draft rounds contend for lanes like real hardware (0 lanes =
    /// unconstrained, the historical pool-of-accelerators model).
    draft_timeline: DeviceTimeline,
    /// Completion times of verification waves submitted but possibly not
    /// yet drained past, oldest first — the scheduler-owned in-flight
    /// window.  A new wave may not be submitted while
    /// `config.max_in_flight_waves` waves are still outstanding.
    outstanding_waves: VecDeque<f64>,
    binding: TokenizerBinding,
    encoder: EncoderProfile,
    config: ServerConfig,
    /// Installed draft-free draft sources, one per [`DrafterKind`].
    /// Model-draft sessions query `draft` instead; draft-free sessions
    /// dispatch their draft phase to the matching entry here (and never
    /// touch the draft model, the draft lane or the draft KV sub-pool).
    drafters: Vec<(DrafterKind, Arc<dyn Drafter + Send + Sync>)>,
    queue: VecDeque<QueuedRequest>,
    /// Streaming requests parked between chunks: their current view is fully
    /// decoded (or not yet audible) and the next chunk has not arrived.
    waiting: Vec<QueuedRequest>,
    active: Vec<ServerSession>,
    kv: KvPool,
    wall_ms: f64,
    next_id: u64,
    stats: ServerStats,
    /// Flight recorder; the no-op sink unless [`Scheduler::set_trace`]
    /// enabled it.
    tracer: Tracer,
    /// Ticks executed so far (the flight recorder's tick sequence).
    ticks_seen: u64,
    /// Copy-on-write copies already reported to the recorder.
    cow_reported: u64,
    /// The committing session's policy name, one buffer reused every round
    /// so the speculation ledger is fed without allocating.
    policy_name: String,
    /// The tick's working buffers, kept across ticks.
    scratch: TickScratch,
    /// Blocks the draft and target sub-pools had freed, in total, when the
    /// last decode tick started.  What they freed since then is subtracted
    /// from the free blocks admission sees, a lower bound on what was free
    /// at every instant since.
    freed_at_tick: (usize, usize),
    /// Decode sessions of retired offline requests, at most `max_batch`,
    /// each with its grown buffers and its audio context: the next offline
    /// submits are built in them.
    spares: Vec<DecodeSession>,
    /// The marked-word buffer every submit binds its utterance through.
    bind_scratch: String,
}

impl<D, T> Scheduler<D, T>
where
    D: AsrDecoderModel,
    T: AsrDecoderModel,
{
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`ServerConfig::validate`]).
    pub fn new(
        draft: D,
        target: T,
        binding: TokenizerBinding,
        encoder: EncoderProfile,
        config: ServerConfig,
    ) -> Self {
        Self::with_target_backend(
            draft,
            VerifyBackend::Sim(InFlightSimBackend::new(target)),
            binding,
            encoder,
            config,
        )
    }

    /// Like [`Scheduler::new`], but the target model runs behind a
    /// process-boundary [`RpcBackend`]: a worker thread owns the device and
    /// every verification batch crosses the serialized wire protocol.
    /// Timing, tickets, and transcripts are identical to the in-process
    /// backend — this constructor exists to prove it (and to smoke the wire
    /// path in benches and CI).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`ServerConfig::validate`]).
    pub fn with_rpc_target(
        draft: D,
        target: T,
        binding: TokenizerBinding,
        encoder: EncoderProfile,
        config: ServerConfig,
    ) -> Self
    where
        T: Send + 'static,
    {
        Self::with_target_backend(
            draft,
            VerifyBackend::Rpc(RpcBackend::spawn(target)),
            binding,
            encoder,
            config,
        )
    }

    fn with_target_backend(
        draft: D,
        target: VerifyBackend<T>,
        binding: TokenizerBinding,
        encoder: EncoderProfile,
        config: ServerConfig,
    ) -> Self {
        config.validate();
        let mut stats = ServerStats::new();
        stats.set_kv_capacity(2 * config.kv_blocks);
        Scheduler {
            draft,
            draft_counters: BackendCounters::default(),
            target,
            draft_timeline: DeviceTimeline::new(config.draft_lanes),
            outstanding_waves: VecDeque::new(),
            binding,
            encoder,
            config,
            drafters: Vec::new(),
            queue: VecDeque::new(),
            waiting: Vec::new(),
            active: Vec::with_capacity(config.max_batch),
            kv: KvPool::bounded(config.kv_blocks, config.block_size),
            wall_ms: 0.0,
            next_id: 0,
            stats,
            tracer: Tracer::disabled(),
            ticks_seen: 0,
            cow_reported: 0,
            policy_name: String::new(),
            scratch: TickScratch::default(),
            freed_at_tick: (0, 0),
            spares: Vec::new(),
            bind_scratch: String::new(),
        }
    }

    /// Enables (or re-arms) the flight recorder.  Tracing is purely
    /// observational: it reads the same simulated clock the scheduler
    /// advances, so enabling it changes no decision, latency, or transcript.
    pub fn set_trace(&mut self, config: TraceConfig) {
        self.target.backend_mut().set_device_tracing(config.enabled);
        self.tracer = Tracer::new(config);
    }

    /// Installs (or replaces) a draft-free draft source.  Sessions submitted
    /// with the matching [`DrafterKind`] dispatch their draft phases to it;
    /// they make no draft-model queries and demand zero draft
    /// sub-pool blocks, so admission and preemption see roughly double the
    /// effective pool capacity for them.
    ///
    /// # Panics
    ///
    /// Panics if the drafter reports [`DrafterKind::ModelDraft`] — model
    /// drafting queries the scheduler's own draft model, not an installed
    /// drafter.
    pub fn install_drafter(&mut self, drafter: Arc<dyn Drafter + Send + Sync>) {
        let kind = drafter.kind();
        assert!(
            kind != DrafterKind::ModelDraft,
            "model drafting queries the scheduler's draft model; install draft-free drafters only"
        );
        if let Some(slot) = self.drafters.iter_mut().find(|(k, _)| *k == kind) {
            slot.1 = drafter;
        } else {
            self.drafters.push((kind, drafter));
        }
    }

    /// The installed draft source for `kind`, if any.
    fn drafter_for(&self, kind: DrafterKind) -> Option<&Arc<dyn Drafter + Send + Sync>> {
        self.drafters
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, drafter)| drafter)
    }

    /// Takes the recording out, leaving the recorder armed with a fresh
    /// empty ring.  `None` when tracing is disabled.
    pub fn take_trace_recording(&mut self) -> Option<FlightRecording> {
        self.tracer.take_recording()
    }

    /// The paged KV pool this scheduler allocates session caches from.
    pub fn kv_pool(&self) -> &KvPool {
        &self.kv
    }

    /// The draft model.
    pub fn draft_model(&self) -> &D {
        &self.draft
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Aggregate statistics accumulated so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Current simulated wall-clock time in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ms
    }

    /// Number of requests waiting for admission.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Number of sessions decoding right now.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// `true` when no request is queued, in flight, or awaiting a chunk.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_empty() && self.waiting.is_empty()
    }

    /// Decode sessions of retired offline requests kept for the next
    /// submits, at most [`ServerConfig::max_batch`].
    pub fn spare_sessions(&self) -> usize {
        self.spares.len()
    }

    /// Submits one utterance for offline transcription under `spec` (a bare
    /// [`Policy`](specasr::Policy) is a model-drafted request with no
    /// budget; see [`RequestSpec`]).  Different policies and drafters batch
    /// together.
    ///
    /// The request is timestamped at the current wall time and queued;
    /// admission happens on the next [`Scheduler::tick`].  Returns the
    /// request id, or [`SubmitError::QueueFull`] once `queue_depth` requests
    /// are already waiting (backpressure — the caller decides whether to
    /// retry, shed, or block).
    ///
    /// # Panics
    ///
    /// Panics if the spec names a draft-free kind without a matching
    /// [`Scheduler::install_drafter`] call — drafter installation is server
    /// configuration, not request payload, exactly like policy validation.
    pub fn submit(
        &mut self,
        spec: impl Into<RequestSpec>,
        utterance: &Utterance,
    ) -> Result<RequestId, SubmitError> {
        let spec = spec.into();
        self.assert_installed(spec.drafter);
        // Reject before tokenizing: under overload, rejected submissions are
        // the common case and must not pay for work that gets dropped.
        if self.queue.len() >= self.config.queue_depth {
            return Err(self.reject());
        }
        let id = RequestId::new(self.next_id);
        self.next_id += 1;
        let spare = self.take_spare();
        self.enqueue_offline(id, self.wall_ms, spare, spec, utterance);
        Ok(id)
    }

    /// Panics unless `drafter` drafts with the draft model or is installed.
    fn assert_installed(&self, drafter: DrafterKind) {
        assert!(
            drafter == DrafterKind::ModelDraft || self.drafter_for(drafter).is_some(),
            "no {} drafter installed; call install_drafter first",
            drafter.label()
        );
    }

    /// Builds an offline request and queues it: the one construction behind
    /// [`Scheduler::submit`] and [`crate::Router::submit`], each of which
    /// assigns the id and the arrival time and checked the queue depth.
    ///
    /// The request is built in `spare`, a retired request's decode session,
    /// or in a new, empty one: the session is reassigned, the utterance is
    /// bound into its audio context, and every buffer it grew serving
    /// earlier requests is kept.  A context some other holder still shares
    /// is replaced, never changed.
    pub(crate) fn enqueue_offline(
        &mut self,
        id: RequestId,
        arrival_ms: f64,
        spare: Option<DecodeSession>,
        spec: RequestSpec,
        utterance: &Utterance,
    ) {
        let RequestSpec {
            policy,
            drafter,
            ttft_budget_ms,
        } = spec;
        let mut decode = spare
            .unwrap_or_else(|| DecodeSession::idle(policy, drafter, UtteranceTokens::default()));
        decode.reassign(policy, drafter);
        // Copied first if something else still shares it (`make_mut`).
        let audio = Arc::make_mut(decode.audio_mut());
        self.binding
            .bind_into(utterance, &mut self.bind_scratch, audio);
        self.enqueue(id, arrival_ms, decode, utterance, ttft_budget_ms, None);
    }

    /// Queues a new request, offline or streaming: the one constructor of a
    /// submitted request, and where its arrival is recorded.  An offline
    /// request waits for admission; a stream parks until its first chunk.
    fn enqueue(
        &mut self,
        id: RequestId,
        arrival_ms: f64,
        decode: DecodeSession,
        utterance: &Utterance,
        ttft_budget_ms: Option<f64>,
        stream: Option<Box<StreamState>>,
    ) {
        let audio_seconds = utterance.duration_seconds();
        let request = QueuedRequest {
            id,
            decode,
            utterance_id: utterance.id(),
            audio_seconds,
            encoder_ms: self.encoder.latency_ms_for_audio(audio_seconds),
            arrival_ms,
            queued_ms: arrival_ms,
            preemptions: 0,
            ttft_budget_ms,
            first_output_emitted: false,
            stream,
        };
        self.record_submitted(&request);
        if request.stream.is_some() {
            self.waiting.push(request);
        } else {
            self.queue.push_back(request);
        }
    }

    /// Records `request`'s arrival on this worker's lane.
    fn record_submitted(&mut self, request: &QueuedRequest) {
        self.tracer.record_with(|| TraceEvent::RequestSubmitted {
            ts_ms: request.arrival_ms,
            request: request.id.value(),
            encoder_ms: request.encoder_ms,
            audio_seconds: request.audio_seconds,
            streaming: request.stream.is_some(),
            policy: request.decode.policy().name(),
            drafter: request.decode.drafter().label().to_string(),
        });
    }

    /// One of this worker's spare decode sessions, if it keeps any.
    pub(crate) fn take_spare(&mut self) -> Option<DecodeSession> {
        self.spares.pop()
    }

    /// Takes the tick scratch and spare sessions of this worker, which
    /// serves nothing more (the router reaps it).
    pub(crate) fn take_buffers(&mut self) -> GrownBuffers {
        GrownBuffers {
            scratch: std::mem::take(&mut self.scratch),
            spares: std::mem::take(&mut self.spares),
        }
    }

    /// Serves from `buffers`, which a reaped worker grew, instead of
    /// regrowing them from empty.  Its free-slot stamps read another
    /// worker's clock and are dropped, and it keeps at most `max_batch`
    /// spares.
    pub(crate) fn adopt_buffers(&mut self, buffers: GrownBuffers) {
        let GrownBuffers {
            mut scratch,
            mut spares,
        } = buffers;
        scratch.free_slots.clear();
        spares.truncate(self.config.max_batch);
        self.scratch = scratch;
        self.spares = spares;
    }

    /// Takes back the decode session of a request that left — retired, or
    /// shed — holding no KV blocks.  Its context is released on the
    /// backend, and an offline request's session is kept as a spare while
    /// this worker keeps fewer than `max_batch`; a stream's is dropped.
    fn recycle(&mut self, decode: DecodeSession, offline: bool) {
        self.target.backend_mut().release_context(decode.audio());
        if offline && self.spares.len() < self.config.max_batch {
            self.spares.push(decode);
        }
    }

    /// Submits one utterance as a *streaming* request under `spec`: its
    /// audio arrives in chunks on the timed schedule derived from
    /// `stream.chunk` (jitter seeded per utterance), each chunk triggers a
    /// re-decode of the audio heard so far from the committed prefix, and
    /// partial transcripts are emitted under the stream's commit rule.  The
    /// request re-enters the admission queue for every chunk and competes
    /// with offline requests under the configured admission policy; the
    /// final transcript is byte-identical to an offline decode of the full
    /// utterance.  The stream drafts from the spec's draft source, like an
    /// offline request, and its budget covers its first partial only.
    ///
    /// The stream keeps one decode session for its whole life.  Between
    /// chunks it is parked: its KV blocks are released, and it keeps its
    /// buffers and its audio context, the last view.  A chunk refills that
    /// view in place and admission restarts the session in its buffers.
    /// The session, the view and the stream's transcript buffers are sized
    /// here, once, from the full utterance, so a warm chunk allocates
    /// nothing.
    ///
    /// Backpressure counts parked streams against the queue depth, so an
    /// accepted stream is never shed by *queue* pressure mid-utterance.  A
    /// KV pool too small for the stream's grown footprint (the committed
    /// prefix is re-appended on every per-chunk resume) can still drop it
    /// mid-utterance with a `rejected_memory` count — in that case no final
    /// outcome is produced and already-emitted partials stay with the
    /// caller; size `ServerConfig::kv_blocks` so a full utterance fits.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is invalid, or if the spec names a draft-free kind
    /// that is not installed (see [`Scheduler::submit`]).
    pub fn submit_streaming(
        &mut self,
        spec: impl Into<RequestSpec>,
        utterance: &Utterance,
        stream: StreamConfig,
    ) -> Result<RequestId, SubmitError> {
        let spec = spec.into();
        self.assert_installed(spec.drafter);
        stream.validate();
        if self.queue.len() + self.waiting.len() >= self.config.queue_depth {
            return Err(self.reject());
        }
        let id = RequestId::new(self.next_id);
        self.next_id += 1;
        let audio = self.binding.bind(utterance);
        // The stream's decode session lives as long as the stream.  Its
        // context starts as a copy of the full utterance: every view is a
        // prefix of it, so refilling views never regrows the copy, and the
        // session's buffers are sized from it once.
        let mut decode = DecodeSession::idle(spec.policy, spec.drafter, audio.clone());
        decode.reserve(&self.kv);
        // Per-utterance jitter: the same utterance streams identically for a
        // given seed, and distinct requests decorrelate through their id.
        let seeded = stream.with_seed(splitmix64(
            stream.chunk.seed ^ utterance.id().value() ^ (id.value() << 17),
        ));
        let chunks = chunk_schedule(utterance.duration_seconds(), &seeded.chunk);
        let state = StreamState {
            session: StreamingSession::new(spec.policy, audio, seeded),
            // Each partial answers at least one new chunk.
            partials: Vec::with_capacity(chunks.len()),
            chunks,
            submitted_ms: self.wall_ms,
            delivered: 0,
            newest_chunk_arrival_ms: self.wall_ms,
            pending_encoder_ms: 0.0,
            first_admitted_ms: None,
        };
        self.enqueue(
            id,
            self.wall_ms,
            decode,
            utterance,
            spec.ttft_budget_ms,
            Some(Box::new(state)),
        );
        Ok(id)
    }

    /// Records a queue-full rejection on this worker's statistics and builds
    /// the error (the router's cheap pre-bind backpressure path).
    pub(crate) fn reject(&mut self) -> SubmitError {
        self.stats.record_rejection();
        let wall_ms = self.wall_ms;
        self.tracer.record_with(|| TraceEvent::RequestShed {
            ts_ms: wall_ms,
            request: None,
            reason: ShedReason::QueueFull,
        });
        SubmitError::QueueFull {
            queue_depth: self.config.queue_depth,
        }
    }

    /// Removes up to `max` requests from the *back* of the wait queue, for
    /// work stealing: the most recently arrived requests move, so the
    /// victims' oldest (most aged) requests keep their position.  They are
    /// yielded in queue order, which preserves arrival order among them.
    pub(crate) fn steal_back(&mut self, max: usize) -> impl Iterator<Item = QueuedRequest> + '_ {
        let keep = self.queue.len().saturating_sub(max);
        self.queue.drain(keep..)
    }

    /// Advances the wall clock to at least `ms` without doing work — the
    /// router fast-forwards idle workers through global time this way (a
    /// scheduler's clock only moves while it ticks).
    pub(crate) fn sync_wall_to(&mut self, ms: f64) {
        self.wall_ms = self.wall_ms.max(ms);
    }

    /// Drains every waiting request out of the admission queue — a worker
    /// entering `Draining` stops admitting, and the router re-routes its
    /// queue to the least-loaded workers.  Parked streams (in `waiting`)
    /// stay: their chunk timetable and committed prefix live on this worker
    /// until the stream finishes.
    pub(crate) fn drain_queue(&mut self) -> Vec<QueuedRequest> {
        self.queue.drain(..).collect()
    }

    /// Extracts the in-flight sessions a draining worker can migrate:
    /// offline sessions between ticks.  Streaming sessions stay and finish
    /// on the draining worker (their per-chunk state does not move).
    pub(crate) fn extract_migratable(&mut self) -> Vec<ServerSession> {
        let mut migrated = Vec::new();
        let mut index = 0;
        while index < self.active.len() {
            if self.active[index].stream.is_none() {
                migrated.push(self.active.remove(index));
            } else {
                index += 1;
            }
        }
        migrated
    }

    /// Admits a migrated session whose KV blocks already live in this
    /// worker's pool (the hand-off fast path; see
    /// [`specasr::DecodeSession::migrate_kv`]).  The caller checked
    /// [`Scheduler::has_batch_room`] and moved the blocks first.
    pub(crate) fn adopt_session(&mut self, mut session: ServerSession) {
        debug_assert!(self.active.len() < self.config.max_batch);
        // The migrated session resumes on this worker's clock: its next
        // round starts no earlier than now (clocks never run backwards) and
        // no earlier than its own outstanding wave's completion.
        session.ready_ms = session.ready_ms.max(self.wall_ms);
        self.active.push(session);
    }

    /// Queues a request another worker held: stolen from its queue,
    /// re-routed off a draining worker, or a migrating session that could
    /// not be handed off.  The move bypasses the queue-depth check: a steal
    /// is capped to this queue's free room, and a drain must never drop a
    /// request, so a destination under backpressure absorbs the transient
    /// overflow.  An idle worker wakes at the request's arrival, and the
    /// request is queued from this worker's clock at the latest: it was not
    /// here before.
    ///
    /// A request never admitted has its arrival recorded on this lane, so
    /// the lane holds its whole span.  One admitted before has rounds on
    /// the lane it left, and its span stays split between the two.
    pub(crate) fn enqueue_moved(&mut self, mut request: QueuedRequest) {
        if self.is_idle() {
            self.sync_wall_to(request.arrival_ms);
        }
        request.queued_ms = request.queued_ms.max(self.wall_ms);
        if request.preemptions == 0 {
            self.record_submitted(&request);
        }
        self.queue.push_back(request);
    }

    /// Whether the batch has room for one more in-flight session.
    pub(crate) fn has_batch_room(&self) -> bool {
        self.active.len() < self.config.max_batch
    }

    /// The paged KV pool, mutably — the router moves block tables between
    /// two workers' pools during a hand-off migration.
    pub(crate) fn kv_pool_mut(&mut self) -> &mut KvPool {
        &mut self.kv
    }

    /// Records a migrated-in session on this worker's statistics (the
    /// destination side counts, so fleet-merged totals count each migration
    /// exactly once).
    pub(crate) fn record_migration_in(&mut self, handoff: bool) {
        self.stats.record_migration(handoff);
    }

    /// Runs one scheduler iteration: deliver due stream chunks → admit →
    /// draft → grouped verify (with KV-pool preemption when memory runs
    /// out) → retire / emit partials.
    ///
    /// Appends the requests that finished this tick to `outcomes`, in
    /// retirement order, so a caller that ticks many times fills one list.
    pub fn tick(&mut self, outcomes: &mut Vec<RequestOutcome>) {
        self.release_due_streams();
        // With nothing decodable but streams parked between chunks, the only
        // next event is a chunk arrival: fast-forward the wall clock to it
        // (a real server would sleep here).
        if self.active.is_empty() && self.queue.is_empty() && !self.waiting.is_empty() {
            if let Some(next) = self.next_chunk_arrival_ms() {
                self.wall_ms = self.wall_ms.max(next);
                self.release_due_streams();
            }
        }
        self.admit();
        if self.active.is_empty() {
            return;
        }
        // The scratch leaves `self` for the rest of the tick, so the tick
        // can fill it while preemption borrows the whole scheduler.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.decode_tick(&mut scratch, outcomes);
        self.scratch = scratch;
    }

    /// The decode half of a tick over the admitted batch: draft, plan and
    /// submit the verify waves, drain them, commit, sync the gauges and
    /// retire into `outcomes`.  Every per-session and per-wave buffer comes
    /// from `scratch`, cleared and refilled in place.
    fn decode_tick(&mut self, scratch: &mut TickScratch, outcomes: &mut Vec<RequestOutcome>) {
        let TickScratch {
            order,
            drafted,
            spent_ms,
            draft_done,
            verify_widths,
            plan,
            batch,
            wave_tickets,
            completions,
            results,
            wave_of,
            wave_completed,
            wave_charges,
            removal,
            retiring,
            requeued,
            free_slots,
        } = scratch;

        // Draft phase: every active session speculates its next round.
        // Model-draft sessions query the draft model in place, each query
        // counted as one draft step on the draft lane.  The per-session
        // draft device time is read off the session clock delta; sessions
        // draft in parallel on the accelerator.
        let tick_start = self.wall_ms;
        self.ticks_seen += 1;
        let tick = self.ticks_seen;
        // The slots nobody holds this tick are free from its start, and the
        // blocks freed from here on are what admission cannot count on.
        refill(
            free_slots,
            self.config.max_batch.saturating_sub(self.active.len()),
            tick_start,
        );
        self.freed_at_tick = (
            self.kv.draft().counters().freed,
            self.kv.target().counters().freed,
        );
        {
            let active = self.active.len() as u64;
            let queued = self.queue.len() as u64;
            self.tracer.record_with(|| TraceEvent::TickStart {
                ts_ms: tick_start,
                tick,
                active,
                queued,
            });
        }
        // Each session's draft phase starts at its *own* readiness — the
        // completion of its previous verification wave, which can precede
        // this tick's start.  That head start is the cross-tick overlap: the
        // next round's draft work runs while the previous tick's later waves
        // are still draining on the device.
        let pipeline_depth = self.config.max_in_flight_waves;
        let sessions = self.active.len();
        // Draft rounds reserve modeled draft-device time in readiness order
        // (ties by batch index), so lane contention under a bounded
        // `draft_lanes` budget is deterministic.  The index makes the order
        // total, so an unstable sort, which never allocates, gives it.
        order.clear();
        order.extend(0..sessions);
        order.sort_unstable_by(|&a, &b| {
            self.active[a]
                .ready_ms
                .partial_cmp(&self.active[b].ready_ms)
                .expect("wall clocks are finite")
                .then(a.cmp(&b))
        });
        if drafted.len() < sessions {
            drafted.resize_with(sessions, DraftedRound::new);
        }
        refill(spent_ms, sessions, 0.0);
        refill(draft_done, sessions, 0.0);
        refill(verify_widths, sessions, 0);
        for &index in order.iter() {
            let session = &mut self.active[index];
            let ready = session.ready_ms;
            let before = session.decode.clock().breakdown().draft_ms;
            // Model-draft sessions query the draft model; draft-free sessions
            // dispatch to the installed drafter (no draft-lane queries, no
            // draft latency charged — their `spent` stays 0.0 and the verify
            // planner sorts them first).
            let round = &mut drafted[index];
            match session.decode.drafter() {
                DrafterKind::ModelDraft => {
                    let draft = CountedDraft {
                        model: &self.draft,
                        queries: AtomicUsize::new(0),
                    };
                    session.decode.draft_round(&draft, round);
                    draft.count_into(&mut self.draft_counters);
                }
                kind => {
                    let drafter = self
                        .drafters
                        .iter()
                        .find(|(k, _)| *k == kind)
                        .map(|(_, drafter)| drafter)
                        .expect("draft-free sessions are only admitted with an installed drafter");
                    session.decode.draft_round_with(drafter.as_ref(), round);
                }
            }
            let spent = session.decode.clock().breakdown().draft_ms - before;
            // Draft rounds occupy the modeled draft device; with bounded
            // lanes a round queues behind earlier rounds, pushing its
            // verify submission later exactly like contended hardware.
            let (draft_start, done) = if spent > 0.0 {
                self.draft_timeline.occupy(ready, spent)
            } else {
                (ready, ready)
            };
            let request = session.id.value();
            self.tracer.record_with(|| TraceEvent::DraftPhase {
                start_ms: draft_start,
                end_ms: done,
                tick,
                request,
            });
            spent_ms[index] = spent;
            draft_done[index] = done;
            verify_widths[index] = round.verify_tokens();
        }

        // Verification schedule: collect every session's verify request into
        // cross-session `BackendBatch` waves.  Each cohort's wave goes out
        // the moment its own slowest draft finishes, executing in flight
        // while later cohorts still draft, and queues behind whatever the
        // device is already running from earlier ticks.  The plan keeps the
        // single grouped batch whenever overlap cannot win, so the tick
        // never costs more than waiting for every draft and then verifying
        // everyone at once.
        let target_latency = self.target.backend().profile().latency().clone();
        plan_verify_waves(
            plan,
            draft_done,
            verify_widths,
            &target_latency,
            self.target.backend().dispatch_overhead_ms(),
            pipeline_depth,
            self.target.backend().device_free_ms(),
        );
        refill(wave_of, sessions, 0);
        wave_tickets.clear();
        for (wave_index, (wave, &offset)) in plan.waves().zip(plan.submit_offsets_ms()).enumerate()
        {
            for &index in wave {
                self.active[index]
                    .decode
                    .verify_request(&drafted[index], batch);
                wave_of[index] = wave_index;
            }
            // The in-flight window: with `max_in_flight_waves` batches
            // already outstanding, the next submission stalls until the
            // oldest one completes — bounded speculation ahead of the
            // device, not an unbounded queue.
            let mut submit_at = offset;
            while self.outstanding_waves.len() >= pipeline_depth {
                let oldest = self
                    .outstanding_waves
                    .pop_front()
                    .expect("the window length was just checked");
                submit_at = submit_at.max(oldest);
            }
            let target = self.target.backend_mut();
            let tickets = target.submit(batch, submit_at);
            // The backend copied what it scores; the next wave refills the
            // batch, and no audio context outlives its wave in it.
            batch.clear();
            self.outstanding_waves.push_back(target.device_free_ms());
            wave_tickets.push(tickets);
            if self.tracer.is_enabled() {
                let ts_ms = submit_at;
                let ticket_ids: Vec<u64> = tickets.iter().map(Ticket::value).collect();
                let requests: Vec<u64> = wave
                    .iter()
                    .map(|&index| self.active[index].id.value())
                    .collect();
                self.tracer.record_with(|| TraceEvent::VerifyWaveSubmitted {
                    ts_ms,
                    tick,
                    wave: wave_index as u64,
                    tickets: ticket_ids,
                    requests,
                });
            }
        }
        self.target.backend_mut().poll(completions);
        refill(results, sessions, None);
        refill(wave_completed, plan.wave_count(), tick_start);
        let mut tick_end = tick_start;
        // Per-wave device spans for the recorder: every request of a wave
        // shares its batch's (submitted, started, completed) triple.
        let mut wave_spans: Vec<Option<(f64, f64, f64)>> = if self.tracer.is_enabled() {
            vec![None; plan.wave_count()]
        } else {
            Vec::new()
        };
        for (at, result) in completions.results().iter().enumerate() {
            tick_end = tick_end.max(result.completed_ms);
            // A wave's tickets are consecutive in wave order, so the wave
            // whose range holds the ticket, and the ticket's place in that
            // range, name the session the completion answers.
            let (wave_index, position) = wave_tickets
                .iter()
                .enumerate()
                .find_map(|(wave, tickets)| Some((wave, tickets.position(result.ticket)?)))
                .expect("every completion answers a ticket submitted this tick");
            let owner = plan.wave(wave_index)[position];
            wave_completed[wave_index] = wave_completed[wave_index].max(result.completed_ms);
            if let Some(span) = wave_spans.get_mut(wave_index) {
                *span = Some((result.submitted_ms, result.started_ms, result.completed_ms));
            }
            results[owner] = Some(at);
        }
        if self.tracer.is_enabled() {
            for (wave_index, wave) in plan.waves().enumerate() {
                let Some((submitted_ms, started_ms, completed_ms)) = wave_spans[wave_index] else {
                    continue;
                };
                let ticket_ids: Vec<u64> =
                    wave_tickets[wave_index].iter().map(Ticket::value).collect();
                let requests: Vec<u64> = wave
                    .iter()
                    .map(|&owner| self.active[owner].id.value())
                    .collect();
                self.tracer.record_with(|| TraceEvent::VerifyWaveCompleted {
                    tick,
                    wave: wave_index as u64,
                    submitted_ms,
                    started_ms,
                    completed_ms,
                    tickets: ticket_ids,
                    requests,
                });
            }
        }

        // Advance the shared wall clock to the measured completion of the
        // last verification wave (drafting in parallel, verification
        // overlapping the stragglers).  (A session preempted below still
        // paid for its draft and its share of the verification pass —
        // evicted speculation is wasted device time, exactly as on real
        // hardware.)
        let analytic = TickCost::of_round(spent_ms, verify_widths, &target_latency);
        let cost = TickCost {
            wall_ms: (tick_end - tick_start).max(0.0),
            sequential_ms: analytic.sequential_ms,
        };
        self.wall_ms = self.wall_ms.max(tick_end);
        self.stats.record_tick(cost, self.active.len());

        // Commit per session from its pre-scored verification completion
        // (acceptance decisions are independent, and the models are pure, so
        // committing from the backend results is byte-identical to querying
        // the target inline).  Before each session's commit its round's
        // block demand is checked against the pool; on exhaustion the
        // preemption policy evicts sessions until the round fits — or, when
        // nothing is left to evict, the triggering request itself is dropped
        // with a memory rejection.
        refill(removal, sessions, Removal::Keep);
        // Billed width of each wave (= its backend batch's `charge_tokens`):
        // the denominator of the per-token device-time share that both the
        // serving stats and the trace-analysis ledger charge speculation
        // outcomes at, so the two layers agree digit for digit.
        wave_charges.clear();
        wave_charges.extend(
            plan.waves()
                .map(|wave| wave.iter().map(|&i| verify_widths[i] as u64).sum::<u64>()),
        );
        for (index, round) in drafted[..sessions].iter().enumerate() {
            if removal[index] != Removal::Keep {
                continue; // evicted by an earlier session's memory pressure
            }
            self.ensure_round_headroom(index, round, removal);
            if removal[index] != Removal::Keep {
                continue;
            }
            let result = &completions.results()
                [results[index].expect("every drafted session was scored by a verification wave")];
            // Commit stamps: each session's round lands the moment its own
            // wave completes (first tokens and KV frees carry per-wave
            // timestamps).
            let commit_ms = wave_completed[wave_of[index]].max(tick_start);
            let wave_service_ms = (result.completed_ms - result.started_ms).max(0.0);
            let session = &mut self.active[index];
            let before = *session.decode.stats();
            session
                .decode
                .verify_round_from(
                    &mut self.kv,
                    &target_latency,
                    completions.logits(result),
                    round,
                )
                .expect("headroom was ensured before verification");
            // Speculation accounting: the round's drafted/accepted counts
            // (what the verify pass just added to the session's counters)
            // and its share of the wave's device service time, priced per
            // billed token.
            let after = session.decode.stats();
            let round_drafted = after.predicted_tokens - before.predicted_tokens;
            let round_accepted = after.accepted_tokens - before.accepted_tokens;
            let wave_index = wave_of[index];
            let per_token_ms = wave_service_ms / wave_charges[wave_index].max(1) as f64;
            let policy_name = &mut self.policy_name;
            policy_name.clear();
            write!(policy_name, "{}", session.decode.policy())
                .expect("writing to a String cannot fail");
            let drafter_label = session.decode.drafter().label();
            self.stats.record_verify_outcome(
                policy_name,
                drafter_label,
                round_drafted,
                round_accepted,
                verify_widths[index],
                per_token_ms,
            );
            let request = session.id.value();
            let charged = verify_widths[index] as u64;
            self.tracer.record_with(|| TraceEvent::VerifyOutcome {
                ts_ms: commit_ms,
                tick,
                wave: wave_index as u64,
                request,
                drafted: round_drafted as u64,
                accepted: round_accepted as u64,
                charged,
            });
            session.ready_ms = commit_ms;
            if session.first_token_ms.is_none() && !session.decode.tokens().is_empty() {
                session.first_token_ms = Some(commit_ms);
            }
            if session.decode.is_finished() {
                // A finished session keeps only its position bookkeeping;
                // releasing its blocks eagerly gives later sessions in this
                // same tick the headroom first.
                let request = session.id.value();
                let blocks = session.decode.kv_blocks_held() as u64;
                session.decode.release_kv(&mut self.kv);
                self.tracer.record_with(|| TraceEvent::KvFree {
                    ts_ms: commit_ms,
                    request,
                    blocks,
                });
            }
        }
        // Draft-lane device time lives in the scheduler's modeled timeline,
        // so fold it into the draft counters before publishing the gauges.
        let mut draft_counters = self.draft_counters;
        draft_counters.device_busy_ms = self.draft_timeline.busy_ms();
        draft_counters.device_idle_ms = self.draft_timeline.idle_ms();
        let target_counters = self.target.backend().counters();
        self.stats
            .sync_backend_gauges(&draft_counters, &target_counters);
        self.tracer.record_with(|| TraceEvent::DeviceUtilization {
            ts_ms: tick_end,
            draft_busy_ms: draft_counters.device_busy_ms,
            draft_idle_ms: draft_counters.device_idle_ms,
            target_busy_ms: target_counters.device_busy_ms,
            target_idle_ms: target_counters.device_idle_ms,
        });
        // Stitch the device-side batch log into the recording.  Both backend
        // variants produce the same log (the RPC worker ships it over the
        // wire verbatim), so an `--rpc` trace carries digit-for-digit the
        // same device timeline as an in-process one.
        if self.tracer.is_enabled() {
            for event in self.target.backend_mut().take_device_events() {
                self.tracer.record_with(|| TraceEvent::DeviceBatch {
                    ts_ms: event.submitted_ms,
                    seq: event.seq,
                    started_ms: event.started_ms,
                    completed_ms: event.completed_ms,
                    requests: event.requests,
                    charge_tokens: event.charge_tokens,
                });
            }
        }

        // Mirror the allocator's exact gauges into the statistics: the
        // per-sub-pool high-water marks catch intra-tick peaks (before
        // rollbacks and finishing sessions released), the per-tick sample
        // feeds the steady-state average.
        self.stats.record_kv_occupancy(self.kv.used_blocks());
        let counters = self.kv.counters();
        self.stats.sync_pool_gauges(
            self.kv.draft().peak_used_blocks() + self.kv.target().peak_used_blocks(),
            counters.prefix_lookups,
            counters.shared_hits,
            counters.cow_copies,
        );
        if self.tracer.is_enabled() {
            let (draft_blocks, target_blocks) = self.kv.sub_pool_used_blocks();
            self.tracer.record_with(|| TraceEvent::KvOccupancy {
                ts_ms: tick_end,
                draft_blocks: draft_blocks as u64,
                target_blocks: target_blocks as u64,
            });
            let cow_copies = counters.cow_copies as u64;
            let fresh_copies = cow_copies - self.cow_reported;
            if fresh_copies > 0 {
                self.tracer.record_with(|| TraceEvent::CowCopy {
                    ts_ms: tick_end,
                    copies: fresh_copies,
                });
            }
            self.cow_reported = cow_copies;
        }

        // Retire finished sessions at their own commit stamps (streaming
        // sessions whose *view* finished emit a partial and either retire or
        // park for their next chunk) and re-queue preempted ones at the
        // front, preserving admission order among them.  Each leaver's slot
        // is free from the instant it left: a finished session's commit, an
        // evicted one's eviction now.  The active sessions trade places with
        // the empty `retiring` buffer, and the ones that stay move back in
        // order.
        std::mem::swap(&mut self.active, retiring);
        // The tick's completions land in `outcomes` in one reservation,
        // not grown one push at a time: a stream completes with its final
        // view, once its whole audio has arrived.
        let completing = retiring
            .iter()
            .zip(removal.iter())
            .filter(|&(session, &removal)| {
                removal == Removal::Keep
                    && session.decode.is_finished()
                    && session
                        .stream
                        .as_ref()
                        .is_none_or(|stream| stream.session.is_complete())
            })
            .count();
        outcomes.reserve(completing);
        let before = outcomes.len();
        let evicted_ms = self.wall_ms;
        for (session, removal) in retiring.drain(..).zip(removal.drain(..)) {
            match removal {
                Removal::Keep if session.decode.is_finished() => {
                    free_slots.push(session.ready_ms);
                    if session.stream.is_some() {
                        outcomes.extend(self.finish_stream_view(session));
                    } else {
                        outcomes.push(self.retire(session));
                    }
                }
                Removal::Keep => self.active.push(session),
                Removal::Preempted => {
                    free_slots.push(evicted_ms);
                    requeued.push(session.into_requeued(true, evicted_ms));
                }
                Removal::Rejected => {
                    free_slots.push(evicted_ms);
                    self.recycle(session.decode, session.stream.is_none());
                }
            }
        }
        for request in requeued.drain(..).rev() {
            self.queue.push_front(request);
        }
        let completed = (outcomes.len() - before) as u64;
        self.tracer.record_with(|| TraceEvent::TickEnd {
            ts_ms: tick_end,
            tick,
            completed,
        });
    }

    /// Delivers every due chunk into the parked streams and moves the ones
    /// that gained decodable audio back into the admission queue, in one
    /// pass that keeps both lists in order.  Each released stream carries
    /// the new audio-horizon view as its decode context, refilled once here
    /// in the buffer of its last view: chunks reach parked streams only, so
    /// the view cannot change before the request is admitted, and admission
    /// and preemption share it instead of copying it.
    fn release_due_streams(&mut self) {
        let wall = self.wall_ms;
        let encoder = &self.encoder;
        let tracer = &mut self.tracer;
        let target = self.target.backend_mut();
        let released = self.waiting.extract_if(.., |request| {
            let stream = request
                .stream
                .as_mut()
                .expect("only streaming requests park between chunks");
            if !stream.deliver_due(wall, encoder, request.id, tracer) {
                return false;
            }
            // The backend lets go of the last view first, so the view is
            // the session's alone and refills in place.
            target.release_context(request.decode.audio());
            request.refill_stream_view()
        });
        self.queue.extend(released);
    }

    /// Wall time of the earliest undelivered chunk across parked streams.
    fn next_chunk_arrival_ms(&self) -> Option<f64> {
        self.waiting
            .iter()
            .filter_map(|request| {
                request
                    .stream
                    .as_ref()
                    .and_then(|stream| stream.next_arrival_ms())
            })
            .min_by(|a, b| a.partial_cmp(b).expect("wall clocks are finite"))
    }

    /// Absorbs a streaming session whose current-view decode completed:
    /// applies the commit rule, records the partial span at the view's
    /// commit stamp, and either retires the request (final partial) or
    /// parks it for the next chunk.
    fn finish_stream_view(&mut self, mut session: ServerSession) -> Option<RequestOutcome> {
        let mut stream = session.stream.take().expect("caller checked the stream");
        let partial = stream.session.absorb(&session.decode);
        let emitted_ms = session.ready_ms;
        let span = PartialSpan {
            partial_index: partial.partial_index,
            chunk_index: stream.delivered.saturating_sub(1),
            chunk_arrival_ms: stream.newest_chunk_arrival_ms,
            emitted_ms,
            encoder_ms: stream.pending_encoder_ms,
            committed_tokens: partial.committed_tokens,
            newly_committed: partial.newly_committed,
            hypothesis_tokens: partial.hypothesis_tokens,
            retracted_tokens: partial.retracted_tokens,
            is_final: partial.is_final,
        };
        stream.pending_encoder_ms = 0.0;
        if self.tracer.is_enabled() {
            let ts_ms = emitted_ms;
            let request = session.id.value();
            let partial_index = span.partial_index as u64;
            let committed = span.committed_tokens as u64;
            let hypothesis = span.hypothesis_tokens as u64;
            let retracted = span.retracted_tokens as u64;
            let is_final = span.is_final;
            self.tracer.record_with(|| TraceEvent::PartialEmitted {
                ts_ms,
                request,
                partial: partial_index,
                committed,
                hypothesis,
                is_final,
            });
            if retracted > 0 {
                self.tracer.record_with(|| TraceEvent::Retraction {
                    ts_ms,
                    request,
                    tokens: retracted,
                });
            }
        }
        stream.partials.push(span);
        if partial.is_final {
            return Some(self.retire_stream(session, *stream));
        }
        // Park for the next chunk, which re-queues the stream no earlier
        // than this partial; the original arrival keeps accumulating aging
        // credit across re-entries, and the emitted partial keeps the
        // request exempt from deadline shedding.
        session.stream = Some(stream);
        self.waiting.push(session.into_requeued(false, emitted_ms));
        None
    }

    /// Builds the final outcome of a completed stream, complete at its
    /// final view's commit stamp: the committed transcript (byte-identical
    /// to the offline decode), the decode statistics pooled across every
    /// per-chunk re-decode, and the full partial-span history.
    /// Time-to-first-token is the first partial's arrival-to-emission
    /// latency, and the reported KV caches are the final view's.
    fn retire_stream(&mut self, session: ServerSession, stream: StreamState) -> RequestOutcome {
        let arrival_ms = session.arrival_ms;
        let completed_ms = session.ready_ms;
        let first_admitted = stream.first_admitted_ms.unwrap_or(arrival_ms);
        let first_partial = stream
            .partials
            .first()
            .expect("a finished stream emitted at least one partial");
        let latency = RequestLatency {
            queue_ms: (first_admitted - arrival_ms).max(0.0),
            encoder_ms: session.encoder_ms,
            decode_wall_ms: completed_ms - first_admitted,
            time_to_first_token_ms: (first_partial.emitted_ms - arrival_ms).max(0.0)
                + first_partial.encoder_ms,
        };
        let policy = *session.decode.policy();
        self.target
            .backend_mut()
            .release_context(session.decode.audio());
        let last_view = session.decode.into_outcome();
        let (tokens, stats, clock) = stream.session.into_transcript();
        let outcome = DecodeOutcome {
            tokens,
            stats,
            clock,
            draft_cache: last_view.draft_cache,
            target_cache: last_view.target_cache,
        };
        let text = self
            .binding
            .tokenizer()
            .decode(&outcome.tokens)
            .expect("decoded tokens always come from the shared vocabulary");
        let outcome = RequestOutcome {
            id: session.id,
            policy,
            utterance_id: session.utterance_id,
            text,
            outcome,
            latency,
            audio_seconds: session.audio_seconds,
            preemptions: session.preemptions,
            slo: SloClass::of_budget(session.ttft_budget_ms),
            partials: stream.partials,
        };
        self.stats.record_completion(&outcome);
        let request = outcome.id.value();
        let tokens = outcome.token_count() as u64;
        self.tracer.record_with(|| TraceEvent::RequestCompleted {
            ts_ms: completed_ms,
            request,
            tokens,
        });
        outcome
    }

    /// Advances the scheduler to wall time `ms`, ticking while there is work
    /// (the open-loop driver: submit at arrival timestamps, advance between
    /// them).  Never fast-forwards a chunk arrival later than `ms`.
    pub fn advance_to(&mut self, ms: f64) -> Vec<RequestOutcome> {
        let mut outcomes = Vec::new();
        while !self.is_idle() && self.wall_ms < ms {
            if self.active.is_empty() && self.queue.is_empty() {
                // Only a chunk arrival can create work; don't jump past
                // `ms` to reach one.
                match self.next_chunk_arrival_ms() {
                    Some(next) if next <= ms => {}
                    _ => break,
                }
            }
            self.tick(&mut outcomes);
        }
        self.sync_wall_to(ms);
        outcomes
    }

    /// Frees enough pool blocks for `round`'s verification at `index`,
    /// evicting victims under the configured preemption policy.  Marks the
    /// evictions (including, possibly, `index` itself) in `removal`.
    fn ensure_round_headroom(
        &mut self,
        index: usize,
        round: &DraftedRound,
        removal: &mut [Removal],
    ) {
        loop {
            let demand = self.active[index].decode.round_kv_demand(&self.kv, round);
            if demand.draft_blocks <= self.kv.draft().free_blocks()
                && demand.target_blocks <= self.kv.target().free_blocks()
            {
                return;
            }
            let victim = self.pick_victim(removal);
            // Evicting the triggering session only helps if some *other*
            // session still holds blocks that later rounds can use: a
            // restored session re-decodes deterministically to this exact
            // state, so with the pool otherwise empty the same exhaustion
            // would repeat forever (admit → decode → self-evict livelock).
            // In that case the session's footprint simply exceeds the pool:
            // shed it.
            let other_holds_blocks = self.active.iter().enumerate().any(|(other, session)| {
                other != index
                    && removal[other] == Removal::Keep
                    && session.decode.kv_blocks_held() > 0
            });
            match victim {
                Some(victim) if victim != index || other_holds_blocks => {
                    let request = self.active[victim].id.value();
                    let blocks = self.active[victim].decode.kv_blocks_held() as u64;
                    self.active[victim].decode.release_kv(&mut self.kv);
                    removal[victim] = Removal::Preempted;
                    self.stats.record_preemption();
                    let ts_ms = self.wall_ms;
                    self.tracer.record_with(|| TraceEvent::KvPreempt {
                        ts_ms,
                        request,
                        blocks,
                    });
                    if victim == index {
                        return; // the triggering session evicted itself
                    }
                }
                _ => {
                    // Nothing (useful) left to evict: this round can never
                    // fit, now or after any deterministic restore.
                    let request = self.active[index].id.value();
                    let blocks = self.active[index].decode.kv_blocks_held() as u64;
                    self.active[index].decode.release_kv(&mut self.kv);
                    removal[index] = Removal::Rejected;
                    self.stats.record_memory_rejection();
                    let ts_ms = self.wall_ms;
                    self.tracer.record_with(|| TraceEvent::KvFree {
                        ts_ms,
                        request,
                        blocks,
                    });
                    self.tracer.record_with(|| TraceEvent::RequestShed {
                        ts_ms,
                        request: Some(request),
                        reason: ShedReason::Memory,
                    });
                    return;
                }
            }
        }
    }

    /// The session the preemption policy evicts next: among live,
    /// unfinished, block-holding sessions, the newest admission
    /// ([`PreemptPolicy::NewestAdmitted`]) or the largest block holder
    /// ([`PreemptPolicy::LargestKv`]), with deterministic tie-breaks on
    /// admission time and request id.
    fn pick_victim(&self, removal: &[Removal]) -> Option<usize> {
        self.active
            .iter()
            .enumerate()
            .filter(|(index, session)| {
                removal[*index] == Removal::Keep
                    && !session.decode.is_finished()
                    && session.decode.kv_blocks_held() > 0
            })
            .max_by(|(_, a), (_, b)| {
                let key = |session: &ServerSession| match self.config.preempt_policy {
                    PreemptPolicy::NewestAdmitted => {
                        (0usize, session.admitted_ms, session.id.value())
                    }
                    PreemptPolicy::LargestKv => (
                        session.decode.kv_blocks_held(),
                        session.admitted_ms,
                        session.id.value(),
                    ),
                };
                let (ka, kb) = (key(a), key(b));
                ka.0.cmp(&kb.0)
                    .then(ka.1.partial_cmp(&kb.1).expect("wall clocks are finite"))
                    .then(ka.2.cmp(&kb.2))
            })
            .map(|(index, _)| index)
    }

    /// Ticks until every queued and in-flight request has completed, and
    /// returns all outcomes in completion order.
    pub fn run_until_idle(&mut self) -> Vec<RequestOutcome> {
        let mut outcomes = Vec::new();
        while !self.is_idle() {
            self.tick(&mut outcomes);
        }
        outcomes
    }

    /// Fills free batch slots from the wait queue (iteration-level,
    /// memory-aware admission), in the order the slots became free.
    ///
    /// A slot freed during the last tick is free from the commit stamp of
    /// the session that left it, or from the tick's start if it sat idle all
    /// tick.  It goes to the best request under the configured ordering
    /// that was queued ([`QueuedRequest::queued_ms`]) by then, or to the
    /// earliest-queued one if none was, and admits it at the later of the
    /// two instants: its first draft starts there, before this tick's start,
    /// and enters the next wave plan already drafted.  Each stamp serves
    /// one admission; past them (a fresh worker, an adopted session) a slot
    /// is free from now.
    ///
    /// Under shortest-audio-first, a request's effective priority is its
    /// audio length minus an aging credit (`age × aging_rate`, aged to the
    /// slot's instant), so long utterances cannot be starved by a sustained
    /// stream of short arrivals: their credit grows while fresh arrivals
    /// start from zero.
    ///
    /// Admission is additionally gated on KV-pool headroom: a request is
    /// only admitted if its prefill blocks (after prefix sharing with
    /// resident sessions) fit the pool right now.  It moves before now only
    /// if they also fit without the blocks freed since the last tick
    /// started, a lower bound on what was free at every instant since;
    /// otherwise it is admitted now.  When the chosen request does not fit,
    /// admission stops until blocks free up — unless the request could
    /// never fit even an empty pool, in which case it is dropped with a
    /// memory rejection instead of deadlocking the queue.
    fn admit(&mut self) {
        let now = self.wall_ms;
        let freed_since_tick = (
            self.kv.draft().counters().freed - self.freed_at_tick.0,
            self.kv.target().counters().freed - self.freed_at_tick.1,
        );
        self.scratch.free_slots.sort_unstable_by(f64::total_cmp);
        let mut slots_used = 0;
        while self.active.len() < self.config.max_batch && !self.queue.is_empty() {
            let slot_ms = self
                .scratch
                .free_slots
                .get(slots_used)
                .copied()
                .unwrap_or(now);
            let index = self.pick(slot_ms);
            let mut request = self.queue.remove(index).expect("index is in range");
            let early_ms = slot_ms.max(queued_by(&request, now));
            // Latency-SLO shedding: a request whose queue wait blew its
            // TTFT budget by its admission instant is served uselessly late
            // — drop it (per-class `rejected_deadline` accounting) and offer
            // the slot to the next one.
            if past_budget(&request, early_ms) {
                self.shed_late(request, early_ms);
                continue;
            }
            let free = (
                self.kv.draft().free_blocks(),
                self.kv.target().free_blocks(),
            );
            let restored = request.preemptions > 0;
            if request.restart(&mut self.kv).is_err() {
                if self.prefill_can_ever_fit(&request) {
                    // Not enough headroom right now: put the request back
                    // where it was and wait for blocks to free up.
                    self.queue.insert(index.min(self.queue.len()), request);
                } else {
                    self.stats.record_memory_rejection();
                    let shed = request.id.value();
                    self.tracer.record_with(|| TraceEvent::RequestShed {
                        ts_ms: now,
                        request: Some(shed),
                        reason: ShedReason::Memory,
                    });
                    self.recycle(request.decode, request.stream.is_none());
                }
                break;
            }
            // The blocks freed since the last tick started may be the ones
            // this prefill just took: an admission moves before now only if
            // it fits without them.
            let taken = (
                free.0 - self.kv.draft().free_blocks(),
                free.1 - self.kv.target().free_blocks(),
            );
            let fit_all_tick =
                taken.0 + freed_since_tick.0 <= free.0 && taken.1 + freed_since_tick.1 <= free.1;
            let admitted_ms = if fit_all_tick { early_ms } else { now };
            if past_budget(&request, admitted_ms) {
                request.decode.release_kv(&mut self.kv);
                self.shed_late(request, admitted_ms);
                continue;
            }
            slots_used += 1;
            let session = request.into_session(admitted_ms);
            if self.tracer.is_enabled() {
                let admitted = session.id.value();
                let kv_blocks = session.decode.kv_blocks_held() as u64;
                self.tracer.record_with(|| TraceEvent::RequestAdmitted {
                    ts_ms: admitted_ms,
                    request: admitted,
                    kv_blocks,
                    restored,
                });
                if restored {
                    self.tracer.record_with(|| TraceEvent::KvRestore {
                        ts_ms: admitted_ms,
                        request: admitted,
                    });
                }
                self.tracer.record_with(|| TraceEvent::KvAlloc {
                    ts_ms: admitted_ms,
                    request: admitted,
                    blocks: kv_blocks,
                });
            }
            self.active.push(session);
        }
        // Each stamp serves one admission.
        let stamped = slots_used.min(self.scratch.free_slots.len());
        self.scratch.free_slots.drain(..stamped);
    }

    /// The queue index of the request a slot free from `slot_ms` goes to:
    /// the best under the configured ordering among the requests queued by
    /// then, or the earliest-queued one if none was.
    fn pick(&self, slot_ms: f64) -> usize {
        let now = self.wall_ms;
        let waiting = || {
            self.queue
                .iter()
                .enumerate()
                .filter(move |(_, request)| queued_by(request, now) <= slot_ms)
        };
        let best = match self.config.ordering {
            // Budget-aware ordering overrides the queue discipline: admit
            // the request closest to its absolute deadline, so urgent
            // requests stop expiring behind patient ones (deadline shedding
            // then fires far less often — that gap is the goodput gain
            // under overload).
            AdmissionOrdering::EarliestDeadlineFirst => waiting().min_by(|(_, a), (_, b)| {
                let deadline = |request: &QueuedRequest| {
                    request
                        .ttft_budget_ms
                        .map_or(f64::INFINITY, |budget| request.arrival_ms + budget)
                };
                deadline(a)
                    .partial_cmp(&deadline(b))
                    .expect("deadlines are finite or +inf")
                    .then(
                        a.arrival_ms
                            .partial_cmp(&b.arrival_ms)
                            .expect("arrivals are finite"),
                    )
                    .then(a.id.value().cmp(&b.id.value()))
            }),
            AdmissionOrdering::Queue => match self.config.admission {
                AdmissionPolicy::Fifo => waiting().next(),
                AdmissionPolicy::ShortestAudioFirst => {
                    let aging_rate = self.config.aging_rate;
                    waiting().min_by(|(_, a), (_, b)| {
                        let priority = |request: &QueuedRequest| {
                            let age_ms = (slot_ms - request.arrival_ms).max(0.0);
                            request.audio_seconds - age_ms * aging_rate
                        };
                        priority(a)
                            .partial_cmp(&priority(b))
                            .expect("durations and ages are finite")
                    })
                }
            },
        };
        best.or_else(|| {
            self.queue.iter().enumerate().min_by(|(_, a), (_, b)| {
                queued_by(a, now)
                    .partial_cmp(&queued_by(b, now))
                    .expect("wall clocks are finite")
            })
        })
        .map(|(index, _)| index)
        .expect("queue is non-empty")
    }

    /// Sheds `request` for a queue wait that blew its TTFT budget at
    /// `at_ms`, with per-class `rejected_deadline` accounting.
    fn shed_late(&mut self, request: QueuedRequest, at_ms: f64) {
        self.stats
            .record_deadline_rejection(SloClass::of_budget(request.ttft_budget_ms));
        let shed = request.id.value();
        self.tracer.record_with(|| TraceEvent::RequestShed {
            ts_ms: at_ms,
            request: Some(shed),
            reason: ShedReason::Deadline,
        });
        self.recycle(request.decode, request.stream.is_none());
    }

    /// Whether the request's admission footprint could fit an otherwise
    /// empty pool (with one block of generation headroom; draft and target
    /// sub-pools carry the same budget).  Requests failing this can never be
    /// admitted and must be shed rather than parked — for a streaming
    /// request the footprint includes the committed prefix it re-appends on
    /// resume, which grows chunk by chunk, so a stream can become
    /// unfittable mid-utterance on a pool that admitted its first chunks.
    fn prefill_can_ever_fit(&self, request: &QueuedRequest) -> bool {
        let mut admission_tokens = request.decode.audio().prefill_tokens();
        if let Some(stream) = &request.stream {
            admission_tokens += stream.session.committed().len();
        }
        let admission_blocks = self.kv.target().blocks_for(admission_tokens);
        admission_blocks < self.config.kv_blocks
    }

    /// Converts a finished session into its outcome and records statistics.
    /// The request completes at its commit stamp, the completion of the
    /// wave that verified its last round.  The outcome copies the
    /// transcript out; the session itself, with its buffers, is recycled
    /// for the next submit.
    ///
    /// Time-to-first-token falls back to completion time for transcripts that
    /// turned out empty (EOS on the very first verification).
    ///
    /// Queueing and first-token spans are clamped at zero: a router can stamp
    /// an arrival on the fleet timeline slightly ahead of a lagging worker's
    /// clock (submits interleaved with `Router::advance_to`), and a request
    /// admitted "before" it arrived must report zero queue delay, not a
    /// negative sample that corrupts the latency histograms.
    fn retire(&mut self, mut session: ServerSession) -> RequestOutcome {
        session.decode.release_kv(&mut self.kv);
        let completed_ms = session.ready_ms;
        let first_token_ms = session.first_token_ms.unwrap_or(completed_ms);
        let latency = RequestLatency {
            queue_ms: (session.admitted_ms - session.arrival_ms).max(0.0),
            encoder_ms: session.encoder_ms,
            decode_wall_ms: completed_ms - session.admitted_ms,
            time_to_first_token_ms: (first_token_ms - session.arrival_ms).max(0.0)
                + session.encoder_ms,
        };
        let policy = *session.decode.policy();
        let outcome = session.decode.outcome();
        self.recycle(session.decode, true);
        let text = self
            .binding
            .tokenizer()
            .decode(&outcome.tokens)
            .expect("decoded tokens always come from the shared vocabulary");
        let outcome = RequestOutcome {
            id: session.id,
            policy,
            utterance_id: session.utterance_id,
            text,
            outcome,
            latency,
            audio_seconds: session.audio_seconds,
            preemptions: session.preemptions,
            slo: SloClass::of_budget(session.ttft_budget_ms),
            partials: Vec::new(),
        };
        self.stats.record_completion(&outcome);
        let request = outcome.id.value();
        let tokens = outcome.token_count() as u64;
        self.tracer.record_with(|| TraceEvent::RequestCompleted {
            ts_ms: completed_ms,
            request,
            tokens,
        });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr::{AdaptiveConfig, Policy, SparseTreeConfig, SpeculativeConfig};
    use specasr_audio::Corpus;
    use specasr_audio::Split;
    use specasr_models::{CtcDrafter, ModelProfile, SimulatedAsrModel};

    impl<D, T> Scheduler<D, T> {
        /// Draft rounds the tick scratch holds, one per batch slot ever
        /// used.
        pub(crate) fn scratch_rounds(&self) -> usize {
            self.scratch.drafted.len()
        }
    }

    /// The draft/target pair every test scheduler serves with.
    fn models() -> (SimulatedAsrModel, SimulatedAsrModel) {
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target)
    }

    fn scheduler(
        config: ServerConfig,
    ) -> (Scheduler<SimulatedAsrModel, SimulatedAsrModel>, Corpus) {
        let corpus = Corpus::librispeech_like(88, 12);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let (draft, target) = models();
        (
            Scheduler::new(
                draft,
                target,
                binding,
                EncoderProfile::whisper_medium_encoder(),
                config,
            ),
            corpus,
        )
    }

    #[test]
    fn iteration_level_admission_refills_freed_slots() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(4));
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        for utterance in corpus.split(Split::TestClean) {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        assert_eq!(scheduler.queued(), 12);
        let mut first = Vec::new();
        scheduler.tick(&mut first);
        assert!(
            first.is_empty() || first.len() < 4,
            "nothing should drain the whole batch at once"
        );
        assert_eq!(scheduler.in_flight() + first.len(), 4);
        // Keep ticking: as soon as any session retires, the next tick admits
        // replacements without waiting for the others.
        let mut completed = first.len();
        let mut refilled = false;
        while !scheduler.is_idle() {
            let before_queue = scheduler.queued();
            let mut outcomes = Vec::new();
            scheduler.tick(&mut outcomes);
            completed += outcomes.len();
            if !outcomes.is_empty() && before_queue > 0 {
                refilled = true;
            }
        }
        assert_eq!(completed, 12);
        assert!(
            refilled,
            "freed slots should be refilled while requests are queued"
        );
        assert_eq!(scheduler.stats().peak_in_flight(), 4);
    }

    #[test]
    fn fifo_admission_preserves_arrival_order() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(1));
        let policy = Policy::Autoregressive;
        let mut submitted = Vec::new();
        for utterance in corpus.split(Split::DevClean).iter().take(5) {
            submitted.push(scheduler.submit(policy, utterance).expect("queue has room"));
        }
        let outcomes = scheduler.run_until_idle();
        let finished: Vec<RequestId> = outcomes.iter().map(|o| o.id).collect();
        assert_eq!(
            finished, submitted,
            "batch of 1 under FIFO must complete in arrival order"
        );
    }

    #[test]
    fn shortest_audio_first_prefers_short_utterances() {
        let (mut scheduler, corpus) = scheduler(
            ServerConfig::default()
                .with_max_batch(1)
                .with_admission(AdmissionPolicy::ShortestAudioFirst),
        );
        let policy = Policy::Autoregressive;
        for utterance in corpus.split(Split::DevClean).iter().take(6) {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        // The first admitted (hence first completed) request must be the
        // shortest of the queued six.
        let shortest = corpus.split(Split::DevClean)[..6]
            .iter()
            .map(|u| u.duration_seconds())
            .fold(f64::INFINITY, f64::min);
        let outcomes = scheduler.run_until_idle();
        assert!((outcomes[0].audio_seconds - shortest).abs() < 1e-12);
    }

    /// Drives a batch-1 shortest-audio-first scheduler under sustained
    /// short-utterance pressure: one long utterance is queued up front, and a
    /// fresh short arrival replaces every completed request so the queue
    /// always holds a shorter competitor.  Returns how many ticks the long
    /// utterance needed to complete, or `None` if it starved for `budget`
    /// ticks.
    fn ticks_until_long_completes(aging_rate: f64, budget: usize) -> Option<usize> {
        let (mut scheduler, corpus) = scheduler(
            ServerConfig::default()
                .with_max_batch(1)
                .with_admission(AdmissionPolicy::ShortestAudioFirst)
                .with_aging_rate(aging_rate),
        );
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let pool = corpus.split(Split::TestClean);
        let long = pool
            .iter()
            .max_by(|a, b| {
                a.duration_seconds()
                    .partial_cmp(&b.duration_seconds())
                    .expect("durations are finite")
            })
            .expect("split is non-empty");
        let short = pool
            .iter()
            .min_by(|a, b| {
                a.duration_seconds()
                    .partial_cmp(&b.duration_seconds())
                    .expect("durations are finite")
            })
            .expect("split is non-empty");
        assert!(long.duration_seconds() > 2.0 * short.duration_seconds());

        let long_id = scheduler.submit(policy, long).expect("queue has room");
        for _ in 0..4 {
            scheduler.submit(policy, short).expect("queue has room");
        }
        for tick in 0..budget {
            let mut outcomes = Vec::new();
            scheduler.tick(&mut outcomes);
            if outcomes.iter().any(|o| o.id == long_id) {
                return Some(tick + 1);
            }
            // Sustained load: replace every completion with a new short.
            for _ in 0..outcomes.len() {
                let _ = scheduler.submit(policy, short);
            }
        }
        None
    }

    #[test]
    fn aging_admits_long_utterances_under_sustained_short_load() {
        let admitted_after = ticks_until_long_completes(ServerConfig::default().aging_rate, 400);
        assert!(
            admitted_after.is_some(),
            "with aging, the long utterance must complete despite sustained short arrivals"
        );
    }

    #[test]
    fn zero_aging_rate_starves_long_utterances() {
        assert_eq!(
            ticks_until_long_completes(0.0, 400),
            None,
            "pure shortest-audio-first must starve the long utterance while shorts keep arriving"
        );
    }

    #[test]
    fn queue_depth_applies_backpressure() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_queue_depth(2));
        let policy = Policy::Autoregressive;
        let split = corpus.split(Split::TestOther);
        assert!(scheduler.submit(policy, &split[0]).is_ok());
        assert!(scheduler.submit(policy, &split[1]).is_ok());
        let rejected = scheduler.submit(policy, &split[2]);
        assert_eq!(rejected, Err(SubmitError::QueueFull { queue_depth: 2 }));
        assert_eq!(scheduler.stats().rejected(), 1);
        // Draining the queue frees room again.
        scheduler.run_until_idle();
        assert!(scheduler.submit(policy, &split[2]).is_ok());
    }

    #[test]
    fn latency_breakdown_is_consistent() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(2));
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        for utterance in corpus.split(Split::TestClean).iter().take(6) {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        let outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), 6);
        for outcome in &outcomes {
            let latency = outcome.latency;
            assert!(latency.queue_ms >= 0.0);
            assert!(latency.encoder_ms > 0.0);
            assert!(latency.decode_wall_ms > 0.0);
            assert!(latency.time_to_first_token_ms > 0.0);
            assert!(latency.time_to_first_token_ms <= latency.e2e_ms() + 1e-9);
            assert!((outcome.e2e_ms() - latency.e2e_ms()).abs() < 1e-12);
        }
        // Later-admitted requests queued strictly longer under a batch of 2.
        assert!(outcomes.iter().any(|o| o.latency.queue_ms > 0.0));
    }

    #[test]
    fn batching_amortises_verification_cost() {
        let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
        let (mut batched, corpus) = scheduler(ServerConfig::default().with_max_batch(8));
        for utterance in corpus.split(Split::TestClean) {
            batched.submit(policy, utterance).expect("queue has room");
        }
        batched.run_until_idle();

        let (mut solo, corpus) = scheduler(ServerConfig::default().with_max_batch(1));
        for utterance in corpus.split(Split::TestClean) {
            solo.submit(policy, utterance).expect("queue has room");
        }
        solo.run_until_idle();

        assert!(batched.stats().batching_speedup() > 1.2);
        assert!((solo.stats().batching_speedup() - 1.0).abs() < 1e-9);
        assert!(
            batched.stats().wall_ms() < solo.stats().wall_ms(),
            "batched wall time ({:.0} ms) must undercut solo serving ({:.0} ms)",
            batched.stats().wall_ms(),
            solo.stats().wall_ms()
        );
        assert!(batched.stats().utterances_per_second() > solo.stats().utterances_per_second());
    }

    #[test]
    fn constrained_pool_preempts_without_changing_transcripts() {
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        // Reference: the same workload on an effectively unconstrained pool.
        let (mut unconstrained, corpus) = scheduler(ServerConfig::default().with_max_batch(8));
        for utterance in corpus.split(Split::TestClean) {
            unconstrained
                .submit(policy, utterance)
                .expect("queue has room");
        }
        let mut reference = unconstrained.run_until_idle();
        assert_eq!(unconstrained.stats().memory().preemptions(), 0);

        // Constrained: a pool too small for a full batch of prefills.
        let (mut constrained, corpus) =
            scheduler(ServerConfig::default().with_max_batch(8).with_kv_blocks(28));
        for utterance in corpus.split(Split::TestClean) {
            constrained
                .submit(policy, utterance)
                .expect("queue has room");
        }
        let mut outcomes = constrained.run_until_idle();
        let memory = constrained.stats().memory();
        assert!(
            memory.preemptions() > 0,
            "a 28-block pool must preempt under a batch of 8"
        );
        assert_eq!(constrained.stats().rejected_memory(), 0);
        assert_eq!(outcomes.len(), reference.len());
        assert!(outcomes.iter().any(|o| o.preemptions > 0));

        // Zero transcript divergence after deterministic restore.
        reference.sort_by_key(|o| o.id);
        outcomes.sort_by_key(|o| o.id);
        for (constrained, unconstrained) in outcomes.iter().zip(&reference) {
            assert_eq!(constrained.id, unconstrained.id);
            assert_eq!(constrained.text, unconstrained.text);
            assert_eq!(constrained.outcome.tokens, unconstrained.outcome.tokens);
        }
        // The drained pool leaks nothing.
        assert_eq!(constrained.kv_pool().used_blocks(), 0);
        assert!(memory.peak_kv_blocks() <= memory.kv_capacity_blocks());
        assert!(memory.avg_kv_blocks() > 0.0);
    }

    #[test]
    fn both_preempt_policies_drain_a_tight_pool_losslessly() {
        for preempt in [PreemptPolicy::NewestAdmitted, PreemptPolicy::LargestKv] {
            let policy = Policy::Speculative(SpeculativeConfig::short_single());
            let (mut scheduler, corpus) = scheduler(
                ServerConfig::default()
                    .with_max_batch(6)
                    .with_kv_blocks(24)
                    .with_preempt_policy(preempt),
            );
            let split = corpus.split(Split::TestOther);
            for utterance in split {
                scheduler.submit(policy, utterance).expect("queue has room");
            }
            let outcomes = scheduler.run_until_idle();
            assert_eq!(outcomes.len(), split.len(), "policy {preempt:?}");
            assert_eq!(scheduler.kv_pool().used_blocks(), 0);
            assert!(scheduler.is_idle());
        }
    }

    #[test]
    fn unfittable_requests_are_shed_with_a_memory_rejection() {
        // 2 blocks × 16 positions per sub-pool cannot hold any real prefill
        // (the shortest utterance needs well over 32 positions).
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_kv_blocks(2));
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let utterance = &corpus.split(Split::DevClean)[0];
        scheduler.submit(policy, utterance).expect("queue has room");
        let outcomes = scheduler.run_until_idle();
        assert!(outcomes.is_empty(), "the request can never fit");
        assert_eq!(scheduler.stats().rejected_memory(), 1);
        assert_eq!(scheduler.stats().rejected(), 0, "not a queue rejection");
        assert!(scheduler.is_idle(), "shedding must not deadlock the queue");
        assert_eq!(scheduler.kv_pool().used_blocks(), 0);
    }

    #[test]
    fn oversized_decode_footprints_are_shed_instead_of_livelocking() {
        // The prefill fits the pool but the transcript's block demand never
        // will: the scheduler must shed the request (self-eviction would
        // deterministically re-create the same exhaustion forever).
        let (reference, corpus) = scheduler(ServerConfig::default());
        // The longest transcript in the corpus overflows the single spare
        // block (16 positions) plus the prefill tail slack by a wide margin.
        let utterance = Split::ALL
            .iter()
            .flat_map(|&split| corpus.split(split))
            .max_by_key(|u| reference.binding.bind(u).len())
            .expect("corpus is non-empty");
        let bound = reference.binding.bind(utterance);
        assert!(
            bound.len() > 40,
            "precondition: transcript must overflow the spare capacity"
        );
        let prefill_blocks = reference
            .kv_pool()
            .target()
            .blocks_for(bound.prefill_tokens());

        let (mut tight, _) = scheduler(ServerConfig::default().with_kv_blocks(prefill_blocks + 1));
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        tight.submit(policy, utterance).expect("queue has room");
        let outcomes = tight.run_until_idle();
        assert!(outcomes.is_empty(), "the footprint can never fit");
        assert_eq!(tight.stats().rejected_memory(), 1);
        assert!(tight.is_idle(), "shedding must terminate the run");
        assert_eq!(tight.kv_pool().used_blocks(), 0);
    }

    #[test]
    fn identical_audio_shares_prefix_blocks_across_sessions() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(8));
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let utterance = &corpus.split(Split::TestClean)[0];
        for _ in 0..8 {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        scheduler.tick(&mut Vec::new());
        let memory = scheduler.stats().memory();
        assert!(
            memory.prefix_hits() > 0,
            "eight copies of one utterance must share prefill blocks"
        );
        assert!(memory.shared_prefix_hit_rate() > 0.5);
        scheduler.run_until_idle();
        assert_eq!(scheduler.stats().completed(), 8);
        assert_eq!(scheduler.kv_pool().used_blocks(), 0);
    }

    #[test]
    fn streaming_requests_complete_losslessly_alongside_offline_traffic() {
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(4));
        let split = corpus.split(Split::TestClean);
        let stream_config = StreamConfig::default();
        let mut streaming_ids = Vec::new();
        for (index, utterance) in split.iter().take(8).enumerate() {
            if index % 2 == 0 {
                streaming_ids.push(
                    scheduler
                        .submit_streaming(policy, utterance, stream_config)
                        .expect("queue has room"),
                );
            } else {
                scheduler.submit(policy, utterance).expect("queue has room");
            }
        }
        let outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), 8);
        assert!(scheduler.is_idle());
        assert_eq!(scheduler.kv_pool().used_blocks(), 0);
        assert_eq!(scheduler.stats().streaming_completed(), 4);
        assert!(scheduler.stats().partials_emitted() >= 4);
        assert!(scheduler.stats().first_partial_p99_ms() > 0.0);

        // Losslessness: every transcript (streamed or not) is byte-identical
        // to the offline decode of its utterance.
        let (draft, target) = models();
        for outcome in &outcomes {
            let utterance = split
                .iter()
                .find(|u| u.id() == outcome.utterance_id)
                .expect("known utterance");
            let audio = scheduler.binding.bind(utterance);
            let offline = policy.decode(&draft, &target, &audio);
            assert_eq!(outcome.outcome.tokens, offline.tokens);
            let streamed = streaming_ids.contains(&outcome.id);
            assert_eq!(outcome.is_streaming(), streamed);
            if streamed {
                // Commits only ever grow, and the last partial is final.
                for pair in outcome.partials.windows(2) {
                    assert!(pair[1].committed_tokens >= pair[0].committed_tokens);
                    assert!(pair[1].emitted_ms >= pair[0].emitted_ms);
                }
                let last = outcome.partials.last().expect("non-empty");
                assert!(last.is_final);
                assert_eq!(last.committed_tokens, outcome.outcome.tokens.len());
                // The first partial lands before the final transcript does.
                assert!(
                    outcome.latency.time_to_first_token_ms <= outcome.e2e_ms() + 1e-9,
                    "first partial cannot come after completion"
                );
                assert!(outcome.partials[0].span_ms() >= 0.0);
            }
        }
    }

    #[test]
    fn streaming_first_partial_beats_offline_first_token_on_long_audio() {
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let (mut offline, corpus) = scheduler(ServerConfig::default());
        let utterance = corpus
            .split(Split::TestClean)
            .iter()
            .max_by(|a, b| {
                a.duration_seconds()
                    .partial_cmp(&b.duration_seconds())
                    .expect("finite")
            })
            .expect("non-empty");
        offline.submit(policy, utterance).expect("queue has room");
        let offline_outcome = &offline.run_until_idle()[0];

        let (mut streaming, _) = scheduler(ServerConfig::default());
        streaming
            .submit_streaming(
                policy,
                utterance,
                StreamConfig::default().with_chunk_seconds(0.4),
            )
            .expect("queue has room");
        let streamed_outcome = &streaming.run_until_idle()[0];
        assert_eq!(
            streamed_outcome.outcome.tokens,
            offline_outcome.outcome.tokens
        );
        // The whole point of streaming: the first partial arrives long
        // before the offline pipeline has even finished hearing the audio.
        assert!(
            streamed_outcome.latency.time_to_first_token_ms
                < utterance.duration_seconds() * 1_000.0,
            "first partial ({:.0} ms) must precede the end of the {:.1} s utterance",
            streamed_outcome.latency.time_to_first_token_ms,
            utterance.duration_seconds()
        );
    }

    #[test]
    fn streaming_sessions_survive_constrained_pools_with_preemptions() {
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let (mut reference, corpus) = scheduler(ServerConfig::default().with_max_batch(8));
        let split = corpus.split(Split::TestOther);
        for utterance in split {
            reference
                .submit_streaming(policy, utterance, StreamConfig::default())
                .expect("queue has room");
        }
        let mut unconstrained = reference.run_until_idle();
        assert_eq!(reference.stats().memory().preemptions(), 0);

        let (mut constrained, _) =
            scheduler(ServerConfig::default().with_max_batch(8).with_kv_blocks(12));
        for utterance in split {
            constrained
                .submit_streaming(policy, utterance, StreamConfig::default())
                .expect("queue has room");
        }
        let mut outcomes = constrained.run_until_idle();
        assert!(
            constrained.stats().memory().preemptions() > 0,
            "a 12-block pool must preempt streaming sessions"
        );
        assert_eq!(constrained.stats().rejected_memory(), 0);
        assert_eq!(outcomes.len(), unconstrained.len());
        unconstrained.sort_by_key(|o| o.id);
        outcomes.sort_by_key(|o| o.id);
        for (constrained, unconstrained) in outcomes.iter().zip(&unconstrained) {
            assert_eq!(constrained.outcome.tokens, unconstrained.outcome.tokens);
            assert_eq!(constrained.text, unconstrained.text);
        }
        assert_eq!(constrained.kv_pool().used_blocks(), 0);
    }

    #[test]
    fn a_stream_drafts_from_its_spec() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default());
        let (_, target) = models();
        scheduler.install_drafter(Arc::new(CtcDrafter::paired(&target)));
        scheduler.set_trace(TraceConfig::enabled());
        let spec = RequestSpec {
            drafter: DrafterKind::CtcEncoder,
            ttft_budget_ms: Some(2_000.0),
            ..Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()).into()
        };
        let id = scheduler
            .submit_streaming(
                spec,
                &corpus.split(Split::DevClean)[0],
                StreamConfig::default(),
            )
            .expect("queue has room");
        assert_eq!(
            scheduler.waiting[0].decode.drafter(),
            DrafterKind::CtcEncoder
        );
        assert_eq!(scheduler.waiting[0].ttft_budget_ms, Some(2_000.0));
        let submitted = events(&scheduler)
            .into_iter()
            .find_map(|event| match event {
                TraceEvent::RequestSubmitted {
                    request,
                    streaming,
                    drafter,
                    ..
                } if request == id.value() => Some((streaming, drafter)),
                _ => None,
            });
        assert_eq!(submitted, Some((true, "ctc".to_string())));
    }

    #[test]
    #[should_panic(expected = "no token-map drafter installed")]
    fn a_stream_naming_an_uninstalled_drafter_panics() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default());
        let spec = RequestSpec {
            drafter: DrafterKind::TokenMap,
            ..Policy::Autoregressive.into()
        };
        let _ = scheduler.submit_streaming(
            spec,
            &corpus.split(Split::DevClean)[0],
            StreamConfig::default(),
        );
    }

    #[test]
    fn streaming_backpressure_counts_parked_streams() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_queue_depth(2));
        let policy = Policy::Autoregressive;
        let split = corpus.split(Split::DevClean);
        assert!(scheduler
            .submit_streaming(policy, &split[0], StreamConfig::default())
            .is_ok());
        assert!(scheduler
            .submit_streaming(policy, &split[1], StreamConfig::default())
            .is_ok());
        assert_eq!(scheduler.waiting.len(), 2);
        assert!(scheduler
            .submit_streaming(policy, &split[2], StreamConfig::default())
            .is_err());
        assert_eq!(scheduler.stats().rejected(), 1);
        scheduler.run_until_idle();
        assert_eq!(scheduler.stats().streaming_completed(), 2);
    }

    #[test]
    fn deadline_budgets_shed_requests_that_queued_too_long() {
        // A batch of 1 forces later submissions to queue behind a slow
        // autoregressive decode; a tight TTFT budget sheds them at admission.
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(1));
        let policy = Policy::Autoregressive;
        let split = corpus.split(Split::TestOther);
        scheduler.submit(policy, &split[0]).expect("queue has room");
        scheduler
            .submit(
                RequestSpec {
                    ttft_budget_ms: Some(1e9),
                    ..policy.into()
                },
                &split[1],
            )
            .expect("generous budget");
        scheduler
            .submit(
                RequestSpec {
                    ttft_budget_ms: Some(0.001),
                    ..policy.into()
                },
                &split[2],
            )
            .expect("tight budget");
        let outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), 2, "the blown-deadline request is shed");
        assert_eq!(scheduler.stats().rejected_deadline(), 1);
        assert_eq!(scheduler.stats().rejected(), 0);
        assert!(scheduler.is_idle());
    }

    #[test]
    fn advance_to_never_jumps_past_the_target_time() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default());
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        scheduler
            .submit_streaming(
                policy,
                &corpus.split(Split::DevClean)[0],
                StreamConfig::default(),
            )
            .expect("queue has room");
        // The first chunk arrives hundreds of ms in; a short advance must
        // stop at the target, not leap to the chunk.
        let outcomes = scheduler.advance_to(1.0);
        assert!(outcomes.is_empty());
        assert!((scheduler.wall_ms() - 1.0).abs() < 1e-9);
        // Advancing far enough drains the stream completely.
        scheduler.advance_to(1e12);
        assert!(scheduler.is_idle());
        assert_eq!(scheduler.stats().streaming_completed(), 1);
    }

    #[test]
    fn preempted_requests_with_committed_output_stay_exempt_from_deadline_shedding() {
        let (scheduler, corpus) = scheduler(ServerConfig::default());
        let utterance = &corpus.split(Split::DevClean)[0];
        let mut request = crate::session::QueuedRequest {
            id: RequestId::new(0),
            decode: DecodeSession::idle(
                Policy::Autoregressive,
                DrafterKind::ModelDraft,
                scheduler.binding.bind(utterance),
            ),
            utterance_id: utterance.id(),
            audio_seconds: utterance.duration_seconds(),
            encoder_ms: 1.0,
            arrival_ms: 0.0,
            queued_ms: 0.0,
            preemptions: 0,
            ttft_budget_ms: Some(5.0),
            first_output_emitted: false,
            stream: None,
        };
        assert!(!request.first_output_emitted());
        let mut pool = KvPool::bounded(4096, 16);
        request.restart(&mut pool).expect("pool has room");
        let mut session = request.into_session(1.0);
        session.first_token_ms = Some(2.0); // the first token was committed
        session.decode.release_kv(&mut pool);
        let mut requeued = session.into_requeued(true, 2.0);
        assert_eq!(requeued.preemptions, 1);
        assert!(
            requeued.first_output_emitted(),
            "a preempted request that already committed output must never be deadline-shed"
        );
        // The exemption survives further admission / park cycles.
        requeued.restart(&mut pool).expect("pool has room");
        let mut session = requeued.into_session(3.0);
        assert!(session.first_output_emitted);
        session.decode.release_kv(&mut pool);
        let parked = session.into_requeued(false, 3.0);
        assert_eq!(parked.preemptions, 1, "parking counts no preemption");
        assert!(parked.first_output_emitted());
    }

    #[test]
    fn verification_batches_across_sessions_through_the_backend() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(8));
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        for utterance in corpus.split(Split::TestClean) {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        scheduler.run_until_idle();
        let backend = scheduler.stats().backend();
        assert!(
            backend.verify_batch_occupancy() > 1.0,
            "verification must batch across sessions, got occupancy {:.2}",
            backend.verify_batch_occupancy()
        );
        assert!(
            backend.peak_in_flight() >= 2,
            "waves carry multiple requests"
        );
        assert!(
            backend.draft_requests() > 0,
            "draft-model queries count on the draft lane"
        );
        assert!(backend.verify_requests() >= scheduler.stats().completed());
        assert!(
            backend.verify_batches() <= scheduler.stats().ticks() * 2,
            "at most two verification waves per tick"
        );
    }

    #[test]
    fn solo_serving_submits_one_verification_request_per_batch() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(1));
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        for utterance in corpus.split(Split::DevClean).iter().take(3) {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        scheduler.run_until_idle();
        let backend = scheduler.stats().backend();
        assert!((backend.verify_batch_occupancy() - 1.0).abs() < 1e-12);
        assert_eq!(backend.verify_batches(), scheduler.stats().ticks());
    }

    #[test]
    fn completions_and_deadline_shedding_are_recorded_per_slo_class() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(1));
        let policy = Policy::Autoregressive;
        let split = corpus.split(Split::TestOther);
        scheduler.submit(policy, &split[0]).expect("queue has room");
        scheduler
            .submit(
                RequestSpec {
                    ttft_budget_ms: Some(1e9),
                    ..policy.into()
                },
                &split[1],
            )
            .expect("generous budget: relaxed class");
        scheduler
            .submit(
                RequestSpec {
                    ttft_budget_ms: Some(0.001),
                    ..policy.into()
                },
                &split[2],
            )
            .expect("tight budget: interactive class, will be shed");
        let outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), 2);
        let stats = scheduler.stats();
        let interactive = stats.slo_class(SloClass::Interactive);
        assert_eq!(interactive.rejected_deadline(), 1);
        assert_eq!(interactive.completed(), 0);
        let best_effort = stats.slo_class(SloClass::BestEffort);
        assert_eq!(best_effort.completed(), 1);
        assert!(best_effort.e2e_p99_ms() > 0.0);
        let relaxed = stats.slo_class(SloClass::Relaxed);
        assert_eq!(relaxed.completed(), 1);
        assert_eq!(relaxed.rejected_deadline(), 0);
        // The per-class counters reconcile with the aggregate gauges.
        let class_completed: usize = SloClass::ALL
            .iter()
            .map(|&class| stats.slo_class(class).completed())
            .sum();
        assert_eq!(class_completed, stats.completed());
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| o.slo == SloClass::Relaxed)
                .count(),
            1
        );
    }

    #[test]
    fn mixed_policy_batches_complete() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default());
        let policies = [
            Policy::Autoregressive,
            Policy::Speculative(SpeculativeConfig::short_single()),
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        ];
        for (index, utterance) in corpus.split(Split::TestOther).iter().enumerate() {
            scheduler
                .submit(policies[index % policies.len()], utterance)
                .expect("queue has room");
        }
        let outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), 12);
        assert_eq!(scheduler.stats().completed(), 12);
        let acceptance = scheduler.stats().mean_acceptance();
        assert!(
            (0.0..=1.0).contains(&acceptance) && acceptance > 0.2,
            "pooled acceptance should be meaningful, got {acceptance:.3}"
        );
        assert!(scheduler.stats().e2e_p99_ms() >= scheduler.stats().e2e_p50_ms());
    }

    /// Serves a mixed-policy, mixed-drafter workload under `config` and
    /// returns the transcripts in request-id order plus the final wall
    /// clock.
    fn transcripts_under(config: ServerConfig) -> (Vec<String>, f64) {
        let (mut scheduler, corpus) = scheduler(config);
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        scheduler.install_drafter(Arc::new(CtcDrafter::paired(&target)));
        let policies = [
            Policy::Autoregressive,
            Policy::Speculative(SpeculativeConfig::short_single()),
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        ];
        for split in [Split::TestClean, Split::TestOther] {
            for (index, utterance) in corpus.split(split).iter().enumerate() {
                let drafter = if index % 3 == 0 {
                    DrafterKind::CtcEncoder
                } else {
                    DrafterKind::ModelDraft
                };
                scheduler
                    .submit(
                        RequestSpec {
                            drafter,
                            ..policies[index % policies.len()].into()
                        },
                        utterance,
                    )
                    .expect("queue has room");
            }
        }
        let mut outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), 24);
        outcomes.sort_by_key(|outcome| outcome.id.value());
        let texts = outcomes.into_iter().map(|outcome| outcome.text).collect();
        (texts, scheduler.wall_ms())
    }

    #[test]
    fn pipelined_waves_keep_transcripts_byte_identical() {
        let base = ServerConfig::default().with_max_batch(8);
        let (reference, one_wave_wall) = transcripts_under(base.with_max_in_flight_waves(1));
        for depth in [2, 4, 8] {
            let (texts, wall) = transcripts_under(base.with_max_in_flight_waves(depth));
            assert_eq!(
                texts, reference,
                "an in-flight window of {depth} changed a transcript"
            );
            assert!(
                wall <= one_wave_wall + 1e-6,
                "pipelining at depth {depth} must never lose to a one-wave window \
                 ({wall:.3} vs {one_wave_wall:.3})"
            );
        }
    }

    #[test]
    fn pipelining_overlaps_waves_and_finishes_sooner() {
        let run = |depth: usize| {
            let (mut scheduler, corpus) = scheduler(
                ServerConfig::default()
                    .with_max_batch(8)
                    .with_max_in_flight_waves(depth),
            );
            let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
            for utterance in corpus.split(Split::TestClean) {
                scheduler.submit(policy, utterance).expect("queue has room");
            }
            scheduler.run_until_idle();
            (
                scheduler.wall_ms(),
                scheduler.stats().backend().peak_in_flight(),
            )
        };
        let (one_wave_wall, one_wave_depth) = run(1);
        let (pipelined_wall, pipelined_depth) = run(4);
        assert!(
            pipelined_wall < one_wave_wall,
            "overlapping waves must shorten the serve ({pipelined_wall:.3} vs {one_wave_wall:.3})"
        );
        assert!(
            pipelined_depth >= one_wave_depth,
            "the in-flight depth cannot shrink under pipelining \
             ({pipelined_depth} vs {one_wave_depth})"
        );
    }

    #[test]
    fn a_bounded_draft_budget_only_slows_the_clock() {
        let run = |lanes: usize| {
            let (mut scheduler, corpus) = scheduler(
                ServerConfig::default()
                    .with_max_batch(8)
                    .with_max_in_flight_waves(4)
                    .with_draft_lanes(lanes),
            );
            let policy = Policy::Speculative(SpeculativeConfig::short_single());
            for utterance in corpus.split(Split::TestOther) {
                scheduler.submit(policy, utterance).expect("queue has room");
            }
            let outcomes = scheduler.run_until_idle();
            let texts: Vec<String> = outcomes.into_iter().map(|o| o.text).collect();
            (texts, scheduler.wall_ms())
        };
        let (unbounded_texts, unbounded_wall) = run(0);
        let (serialized_texts, serialized_wall) = run(1);
        assert_eq!(
            serialized_texts, unbounded_texts,
            "a draft budget reorders time, never tokens"
        );
        assert!(
            serialized_wall >= unbounded_wall,
            "a single draft lane cannot beat an unbounded pool \
             ({serialized_wall:.3} vs {unbounded_wall:.3})"
        );
    }

    /// The recorded events of a traced scheduler.
    fn events(scheduler: &Scheduler<SimulatedAsrModel, SimulatedAsrModel>) -> Vec<TraceEvent> {
        scheduler
            .tracer
            .recording()
            .expect("tracing is on")
            .events()
            .cloned()
            .collect()
    }

    /// When each request was admitted, in order.
    fn admissions(events: &[TraceEvent]) -> Vec<(u64, f64)> {
        events
            .iter()
            .filter_map(|event| match event {
                TraceEvent::RequestAdmitted { ts_ms, request, .. } => Some((*request, *ts_ms)),
                _ => None,
            })
            .collect()
    }

    /// How many admissions were stamped before the start of the tick that
    /// followed them (an admission's tick records its start after it).
    fn admissions_before_their_tick(events: &[TraceEvent]) -> usize {
        let mut pending = Vec::new();
        let mut early = 0;
        for event in events {
            match event {
                TraceEvent::RequestAdmitted { ts_ms, .. } => pending.push(*ts_ms),
                TraceEvent::TickStart { ts_ms, .. } => {
                    early += pending.iter().filter(|&&at| at < *ts_ms).count();
                    pending.clear();
                }
                _ => {}
            }
        }
        early
    }

    #[test]
    fn a_session_finishing_in_an_early_wave_completes_at_that_wave() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(8));
        scheduler.set_trace(TraceConfig::enabled());
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        scheduler.install_drafter(Arc::new(CtcDrafter::paired(&target)));
        // Draft-free sessions finish drafting at once, so the wave planner
        // sends them first while the model-drafted ones still draft.
        let mut draft_free = Vec::new();
        for (index, utterance) in corpus.split(Split::TestClean).iter().enumerate() {
            let (policy, drafter) = if index % 2 == 0 {
                (
                    Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
                    DrafterKind::CtcEncoder,
                )
            } else {
                (
                    Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
                    DrafterKind::ModelDraft,
                )
            };
            let id = scheduler
                .submit(
                    RequestSpec {
                        drafter,
                        ..policy.into()
                    },
                    utterance,
                )
                .expect("queue has room");
            if drafter == DrafterKind::CtcEncoder {
                draft_free.push(id.value());
            }
        }
        scheduler.run_until_idle();
        let events = events(&scheduler);
        let mut tick_end = std::collections::HashMap::new();
        let mut waves = std::collections::HashMap::new();
        let mut wave_done = std::collections::HashMap::new();
        let mut last_round = std::collections::HashMap::new();
        let mut completed = std::collections::HashMap::new();
        for event in &events {
            match *event {
                TraceEvent::TickEnd { ts_ms, tick, .. } => {
                    tick_end.insert(tick, ts_ms);
                }
                TraceEvent::VerifyWaveCompleted {
                    tick,
                    wave,
                    completed_ms,
                    ..
                } => {
                    *waves.entry(tick).or_insert(0) += 1;
                    wave_done.insert((tick, wave), completed_ms);
                }
                TraceEvent::VerifyOutcome {
                    tick,
                    wave,
                    request,
                    ..
                } => {
                    last_round.insert(request, (tick, wave));
                }
                TraceEvent::RequestCompleted { ts_ms, request, .. } => {
                    completed.insert(request, ts_ms);
                }
                _ => {}
            }
        }
        let mut before_tick_end = 0;
        for request in draft_free {
            let (tick, wave) = last_round[&request];
            let done = wave_done[&(tick, wave)];
            assert_eq!(
                completed[&request], done,
                "request {request} completes when its last wave lands"
            );
            if wave + 1 < waves[&tick] {
                assert!(done < tick_end[&tick]);
                before_tick_end += 1;
            }
        }
        assert!(
            before_tick_end > 0,
            "some draft-free session finished in an early wave of a split tick"
        );
    }

    #[test]
    fn a_request_arriving_while_a_slot_idles_is_admitted_on_arrival() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(2));
        scheduler.set_trace(TraceConfig::enabled());
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let split = corpus.split(Split::TestClean);
        scheduler.submit(policy, &split[0]).expect("queue has room");
        let mut outcomes = Vec::new();
        scheduler.tick(&mut outcomes);
        assert!(outcomes.is_empty() && scheduler.in_flight() == 1);
        // The second slot idled all tick.  A request stamped mid-tick (as a
        // router stamps an arrival behind a worker that ran ahead) takes it
        // from its arrival.
        let arrival_ms = scheduler.wall_ms() / 2.0;
        let id = RequestId::new(1);
        scheduler.enqueue_offline(id, arrival_ms, None, policy.into(), &split[1]);
        outcomes.extend(scheduler.run_until_idle());
        let events = events(&scheduler);
        assert!(admissions(&events).contains(&(1, arrival_ms)));
        let first_draft = events.iter().find_map(|event| match event {
            TraceEvent::DraftPhase {
                start_ms,
                request: 1,
                ..
            } => Some(*start_ms),
            _ => None,
        });
        assert_eq!(first_draft, Some(arrival_ms));
        let outcome = outcomes.iter().find(|o| o.id == id).expect("served");
        assert_eq!(outcome.latency.queue_ms, 0.0);
    }

    /// Serves one autoregressive request on a pool of `kv_blocks` until it
    /// finishes, then a second one stamped in the middle of that last tick.
    /// Returns the second's admission instant and its arrival.
    fn admission_after_a_release(kv_blocks: usize) -> (f64, f64) {
        let (mut scheduler, corpus) = scheduler(
            ServerConfig::default()
                .with_max_batch(2)
                .with_kv_blocks(kv_blocks),
        );
        scheduler.set_trace(TraceConfig::enabled());
        let policy = Policy::Autoregressive;
        let utterance = &corpus.split(Split::TestClean)[0];
        scheduler.submit(policy, utterance).expect("queue has room");
        let mut outcomes = Vec::new();
        let mut tick_start = 0.0;
        while outcomes.is_empty() {
            assert!(!scheduler.is_idle(), "the first request completes");
            tick_start = scheduler.wall_ms();
            scheduler.tick(&mut outcomes);
        }
        let arrival_ms = (tick_start + scheduler.wall_ms()) / 2.0;
        scheduler.enqueue_offline(
            RequestId::new(1),
            arrival_ms,
            None,
            policy.into(),
            utterance,
        );
        scheduler.run_until_idle();
        let admitted = admissions(&events(&scheduler))
            .into_iter()
            .find_map(|(request, at)| (request == 1).then_some(at))
            .expect("the second request was admitted");
        (admitted, arrival_ms)
    }

    #[test]
    fn an_admission_moves_early_only_into_blocks_free_all_tick() {
        let (reference, corpus) = scheduler(ServerConfig::default());
        let utterance = &corpus.split(Split::TestClean)[0];
        let prefill = reference
            .kv_pool()
            .target()
            .blocks_for(reference.binding.bind(utterance).prefill_tokens());
        // The first request's whole footprint, all of it released in the
        // tick the second request arrives in.
        let (mut solo, _) = scheduler(ServerConfig::default());
        solo.submit(Policy::Autoregressive, utterance)
            .expect("queue has room");
        solo.run_until_idle();
        let footprint = solo.stats().memory().peak_kv_blocks();
        // Free now, less what was released during the tick, holds the
        // prefill exactly: the admission moves back to the arrival.
        let (admitted, arrival) = admission_after_a_release(footprint + prefill);
        assert_eq!(admitted, arrival);
        // One block short: the blocks may have been taken mid-tick, so the
        // request is admitted now, after its arrival.
        let (admitted, arrival) = admission_after_a_release(footprint + prefill - 1);
        assert!(admitted > arrival, "{admitted} must follow {arrival}");
    }

    #[test]
    fn stream_chunks_are_admitted_no_earlier_than_their_audio_and_last_partial() {
        let (mut scheduler, corpus) = scheduler(ServerConfig::default().with_max_batch(2));
        scheduler.set_trace(TraceConfig::enabled());
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        for utterance in corpus.split(Split::TestClean).iter().take(6) {
            scheduler
                .submit_streaming(policy, utterance, StreamConfig::default())
                .expect("queue has room");
        }
        assert_eq!(scheduler.run_until_idle().len(), 6);
        let events = events(&scheduler);
        let mut heard = std::collections::HashMap::new();
        let mut emitted = std::collections::HashMap::new();
        for event in &events {
            match *event {
                TraceEvent::ChunkArrived { ts_ms, request, .. } => {
                    heard.insert(request, ts_ms);
                }
                TraceEvent::PartialEmitted { ts_ms, request, .. } => {
                    emitted.insert(request, ts_ms);
                }
                TraceEvent::RequestAdmitted { ts_ms, request, .. } => {
                    assert!(ts_ms >= heard[&request], "admitted before its chunk");
                    let partial = emitted.get(&request).copied().unwrap_or(0.0);
                    assert!(ts_ms >= partial, "admitted before its last partial");
                }
                _ => {}
            }
        }
        assert!(
            admissions_before_their_tick(&events) > 0,
            "some chunk was admitted between ticks, on its arrival"
        );
    }

    #[test]
    fn a_preempted_request_is_never_readmitted_before_its_eviction() {
        let (mut scheduler, corpus) =
            scheduler(ServerConfig::default().with_max_batch(8).with_kv_blocks(28));
        scheduler.set_trace(TraceConfig::enabled());
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        for utterance in corpus.split(Split::TestClean) {
            scheduler.submit(policy, utterance).expect("queue has room");
        }
        scheduler.run_until_idle();
        let events = events(&scheduler);
        let mut evicted = std::collections::HashMap::new();
        let mut restores = 0;
        for event in &events {
            match *event {
                TraceEvent::KvPreempt { ts_ms, request, .. } => {
                    evicted.insert(request, ts_ms);
                }
                TraceEvent::RequestAdmitted {
                    ts_ms,
                    request,
                    restored: true,
                    ..
                } => {
                    assert!(ts_ms >= evicted[&request], "restored before its eviction");
                    restores += 1;
                }
                _ => {}
            }
        }
        assert!(
            restores > 0,
            "a 28-block pool must preempt under a batch of 8"
        );
    }

    #[test]
    fn an_rpc_target_serves_byte_identical_transcripts() {
        let corpus = Corpus::librispeech_like(88, 12);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let make = || {
            let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
            let draft =
                SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
            (draft, target)
        };
        let config = ServerConfig::default()
            .with_max_batch(4)
            .with_max_in_flight_waves(4);
        let (draft, target) = make();
        let mut local = Scheduler::new(
            draft,
            target,
            binding.clone(),
            EncoderProfile::whisper_medium_encoder(),
            config,
        );
        let (draft, target) = make();
        let mut remote = Scheduler::with_rpc_target(
            draft,
            target,
            binding,
            EncoderProfile::whisper_medium_encoder(),
            config,
        );
        let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
        for utterance in corpus.split(Split::DevClean) {
            local.submit(policy, utterance).expect("queue has room");
            remote.submit(policy, utterance).expect("queue has room");
        }
        let local_outcomes = local.run_until_idle();
        let remote_outcomes = remote.run_until_idle();
        assert_eq!(local_outcomes.len(), remote_outcomes.len());
        for (ours, theirs) in local_outcomes.iter().zip(&remote_outcomes) {
            assert_eq!(ours.id, theirs.id);
            assert_eq!(
                ours.text, theirs.text,
                "the process boundary must be invisible in the transcript"
            );
        }
        assert!(
            (local.wall_ms() - remote.wall_ms()).abs() < 1e-9,
            "the wire mirrors the in-process timing exactly"
        );
        assert_eq!(
            local.stats().backend().peak_in_flight(),
            remote.stats().backend().peak_in_flight()
        );
    }
}
