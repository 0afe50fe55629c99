//! The continuous-batching scheduler: iteration-level memory-aware admission,
//! per-session draft phases, one grouped verification pass per tick, and
//! KV-pool preemption when memory runs out.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use specasr::{DecodeOutcome, DraftedRound, Drafter, DrafterKind, Policy};
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
    PartialSpan, RequestId, RequestLatency, RequestOutcome, SloClass, SubmitError,
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
    drafted: Vec<Option<DraftedRound>>,
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
}

/// Empties `buffer` and fills it with `len` copies of `value`, keeping its
/// capacity.
fn refill<T: Clone>(buffer: &mut Vec<T>, len: usize, value: T) {
    buffer.clear();
    buffer.resize(len, value);
}

/// A continuous-batching serving scheduler over a draft/target model pair.
///
/// Requests are [`Scheduler::submit`]ted with their own [`Policy`] (different
/// policies batch together) and decoded round by round: every
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

    /// The flight recording so far, when tracing is enabled.
    pub fn trace_recording(&self) -> Option<&FlightRecording> {
        self.tracer.recording()
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

    /// The target model (behind its in-flight backend).
    ///
    /// # Panics
    ///
    /// Panics when the target runs behind the RPC boundary — the worker
    /// thread owns the model, and nothing in-process can reference it
    /// (which is the point of the boundary).
    pub fn target_model(&self) -> &T {
        match &self.target {
            VerifyBackend::Sim(backend) => backend.model(),
            VerifyBackend::Rpc(_) => {
                panic!("the RPC worker owns the target model; only its profile crosses the wire")
            }
        }
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

    /// Number of streaming requests parked between chunks.
    pub fn waiting_streams(&self) -> usize {
        self.waiting.len()
    }

    /// Number of sessions decoding right now.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// `true` when no request is queued, in flight, or awaiting a chunk.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_empty() && self.waiting.is_empty()
    }

    /// Submits one utterance for transcription under `policy`.
    ///
    /// The request is timestamped at the current wall time and queued;
    /// admission happens on the next [`Scheduler::tick`].  Returns the
    /// request id, or [`SubmitError::QueueFull`] once `queue_depth` requests
    /// are already waiting (backpressure — the caller decides whether to
    /// retry, shed, or block).
    pub fn submit(
        &mut self,
        policy: Policy,
        utterance: &Utterance,
    ) -> Result<RequestId, SubmitError> {
        self.submit_with_budget(policy, utterance, None)
    }

    /// Like [`Scheduler::submit`], with an optional time-to-first-token
    /// budget: if the request is still unadmitted once its queue wait
    /// exceeds the budget, it is shed with a `rejected_deadline` count
    /// instead of being served uselessly late (latency-SLO admission
    /// groundwork; the admission ordering itself stays policy-driven).
    pub fn submit_with_budget(
        &mut self,
        policy: Policy,
        utterance: &Utterance,
        ttft_budget_ms: Option<f64>,
    ) -> Result<RequestId, SubmitError> {
        self.submit_request(policy, DrafterKind::ModelDraft, utterance, ttft_budget_ms)
    }

    /// Like [`Scheduler::submit`], with an explicit draft source for this
    /// request (per-request drafter selection — different drafters batch
    /// together just like different policies do).
    ///
    /// # Panics
    ///
    /// Panics if `drafter` names a draft-free kind without a matching
    /// [`Scheduler::install_drafter`] call — drafter installation is server
    /// configuration, not request payload, exactly like policy validation.
    pub fn submit_with_drafter(
        &mut self,
        policy: Policy,
        drafter: DrafterKind,
        utterance: &Utterance,
    ) -> Result<RequestId, SubmitError> {
        self.submit_request(policy, drafter, utterance, None)
    }

    fn submit_request(
        &mut self,
        policy: Policy,
        drafter: DrafterKind,
        utterance: &Utterance,
        ttft_budget_ms: Option<f64>,
    ) -> Result<RequestId, SubmitError> {
        assert!(
            drafter == DrafterKind::ModelDraft || self.drafter_for(drafter).is_some(),
            "no {} drafter installed; call install_drafter first",
            drafter.label()
        );
        // Reject before tokenizing: under overload, rejected submissions are
        // the common case and must not pay for work that gets dropped.
        if self.queue.len() >= self.config.queue_depth {
            return Err(self.reject());
        }
        let id = RequestId::new(self.next_id);
        let audio = Arc::new(self.binding.bind(utterance));
        self.enqueue(QueuedRequest {
            id,
            policy,
            drafter,
            audio,
            utterance_id: utterance.id(),
            audio_seconds: utterance.duration_seconds(),
            encoder_ms: self
                .encoder
                .latency_ms_for_audio(utterance.duration_seconds()),
            arrival_ms: self.wall_ms,
            preemptions: 0,
            ttft_budget_ms,
            first_output_emitted: false,
            stream: None,
        })?;
        self.next_id += 1;
        Ok(id)
    }

    /// Submits one utterance as a *streaming* request: its audio arrives in
    /// chunks on the timed schedule derived from `stream.chunk` (jitter
    /// seeded per utterance), each chunk triggers a re-decode of the audio
    /// heard so far from the committed prefix, and partial transcripts are
    /// emitted under the stream's commit rule.  The request re-enters the
    /// admission queue for every chunk and competes with offline requests
    /// under the configured admission policy; the final transcript is
    /// byte-identical to an offline decode of the full utterance.
    ///
    /// Backpressure counts parked streams against the queue depth, so an
    /// accepted stream is never shed by *queue* pressure mid-utterance.  A
    /// KV pool too small for the stream's grown footprint (the committed
    /// prefix is re-appended on every per-chunk resume) can still drop it
    /// mid-utterance with a `rejected_memory` count — in that case no final
    /// outcome is produced and already-emitted partials stay with the
    /// caller; size `ServerConfig::kv_blocks` so a full utterance fits.
    pub fn submit_streaming(
        &mut self,
        policy: Policy,
        utterance: &Utterance,
        stream: StreamConfig,
    ) -> Result<RequestId, SubmitError> {
        self.submit_streaming_with_budget(policy, utterance, stream, None)
    }

    /// [`Scheduler::submit_streaming`] with a first-partial deadline budget
    /// (see [`Scheduler::submit_with_budget`]; the budget only applies until
    /// the first partial is emitted).
    pub fn submit_streaming_with_budget(
        &mut self,
        policy: Policy,
        utterance: &Utterance,
        stream: StreamConfig,
        ttft_budget_ms: Option<f64>,
    ) -> Result<RequestId, SubmitError> {
        stream.validate();
        if self.queue.len() + self.waiting.len() >= self.config.queue_depth {
            return Err(self.reject());
        }
        let id = RequestId::new(self.next_id);
        let audio = self.binding.bind(utterance);
        // Per-utterance jitter: the same utterance streams identically for a
        // given seed, and distinct requests decorrelate through their id.
        let seeded = stream.with_seed(splitmix64(
            stream.chunk.seed ^ utterance.id().value() ^ (id.value() << 17),
        ));
        let chunks = chunk_schedule(utterance.duration_seconds(), &seeded.chunk);
        let chunk_encoder_ms = chunks
            .iter()
            .map(|chunk| {
                self.encoder
                    .incremental_latency_ms(chunk.duration_seconds(), chunk.index == 0)
            })
            .collect();
        let state = StreamState {
            session: StreamingSession::new(policy, audio.clone(), seeded),
            chunks,
            chunk_encoder_ms,
            submitted_ms: self.wall_ms,
            delivered: 0,
            newest_chunk_arrival_ms: self.wall_ms,
            pending_encoder_ms: 0.0,
            first_admitted_ms: None,
            partials: Vec::new(),
        };
        let encoder_ms = self
            .encoder
            .latency_ms_for_audio(utterance.duration_seconds());
        let arrival_ms = self.wall_ms;
        let audio_seconds = utterance.duration_seconds();
        self.tracer.record_with(|| TraceEvent::RequestSubmitted {
            ts_ms: arrival_ms,
            request: id.value(),
            encoder_ms,
            audio_seconds,
            streaming: true,
            policy: policy.name(),
            drafter: DrafterKind::ModelDraft.label().to_string(),
        });
        self.waiting.push(QueuedRequest {
            id,
            policy,
            drafter: DrafterKind::ModelDraft,
            audio: Arc::new(audio),
            utterance_id: utterance.id(),
            audio_seconds,
            encoder_ms,
            arrival_ms,
            preemptions: 0,
            ttft_budget_ms,
            first_output_emitted: false,
            stream: Some(Box::new(state)),
        });
        self.next_id += 1;
        Ok(id)
    }

    /// Enqueues an externally built request (the router path: the
    /// [`crate::Router`] assigns fleet-unique ids and arrival timestamps
    /// itself).  Applies the same queue-depth backpressure as
    /// [`Scheduler::submit`].
    pub(crate) fn enqueue(&mut self, request: QueuedRequest) -> Result<(), SubmitError> {
        if self.queue.len() >= self.config.queue_depth {
            return Err(self.reject());
        }
        self.tracer.record_with(|| TraceEvent::RequestSubmitted {
            ts_ms: request.arrival_ms,
            request: request.id.value(),
            encoder_ms: request.encoder_ms,
            audio_seconds: request.audio_seconds,
            streaming: request.stream.is_some(),
            policy: request.policy.name(),
            drafter: request.drafter.label().to_string(),
        });
        self.queue.push_back(request);
        Ok(())
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
    /// victims' oldest (most aged) requests keep their position.
    pub(crate) fn steal_back(&mut self, max: usize) -> Vec<QueuedRequest> {
        let take = max.min(self.queue.len());
        let mut stolen: Vec<QueuedRequest> =
            (0..take).filter_map(|_| self.queue.pop_back()).collect();
        // Preserve arrival order among the moved requests.
        stolen.reverse();
        stolen
    }

    /// Advances the wall clock to at least `ms` without doing work — the
    /// router fast-forwards idle workers through global time this way (a
    /// scheduler's clock only moves while it ticks).
    pub(crate) fn sync_wall_to(&mut self, ms: f64) {
        self.wall_ms = self.wall_ms.max(ms);
    }

    /// Drains every waiting request out of the admission queue — a worker
    /// entering `Draining` stops admitting, and the router re-routes its
    /// queue through the ring.  Parked streams (in `waiting`) stay: their
    /// chunk timetable and committed prefix live on this worker until the
    /// stream finishes.
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

    /// Enqueues a request displaced by a drain, bypassing the queue-depth
    /// check: a migration must never drop a request, so a destination under
    /// backpressure absorbs the transient overflow instead of shedding it.
    /// No submission event is recorded — the request already was submitted
    /// once, on the worker it is leaving.
    pub(crate) fn enqueue_migrated(&mut self, request: QueuedRequest) {
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
    /// Returns the requests that finished this tick, in retirement order.
    pub fn tick(&mut self) -> Vec<RequestOutcome> {
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
            return Vec::new();
        }
        // The scratch leaves `self` for the rest of the tick, so the tick
        // can fill it while preemption borrows the whole scheduler.
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcomes = self.decode_tick(&mut scratch);
        self.scratch = scratch;
        outcomes
    }

    /// The decode half of a tick over the admitted batch: draft, plan and
    /// submit the verify waves, drain them, commit, sync the gauges and
    /// retire.  Every per-session and per-wave buffer comes from `scratch`,
    /// cleared and refilled in place.
    fn decode_tick(&mut self, scratch: &mut TickScratch) -> Vec<RequestOutcome> {
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
        } = scratch;

        // Draft phase: every active session speculates its next round.
        // Model-draft sessions query the draft model in place, each query
        // counted as one draft step on the draft lane.  The per-session
        // draft device time is read off the session clock delta; sessions
        // draft in parallel on the accelerator.
        let tick_start = self.wall_ms;
        self.ticks_seen += 1;
        let tick = self.ticks_seen;
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
        refill(drafted, sessions, None);
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
            let round = match session.decode.drafter() {
                DrafterKind::ModelDraft => {
                    let draft = CountedDraft {
                        model: &self.draft,
                        queries: AtomicUsize::new(0),
                    };
                    let round = session.decode.draft_round(&draft);
                    draft.count_into(&mut self.draft_counters);
                    round
                }
                kind => {
                    let drafter = self
                        .drafters
                        .iter()
                        .find(|(k, _)| *k == kind)
                        .map(|(_, drafter)| drafter)
                        .expect("draft-free sessions are only admitted with an installed drafter");
                    session.decode.draft_round_with(drafter.as_ref())
                }
            };
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
            drafted[index] = Some(round);
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
                let round = drafted[index]
                    .as_ref()
                    .expect("every planned session drafted this tick");
                self.active[index].decode.verify_request(round, batch);
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
        for index in 0..sessions {
            let round = drafted[index]
                .take()
                .expect("every active session drafted this tick");
            if removal[index] != Removal::Keep {
                continue; // evicted by an earlier session's memory pressure
            }
            self.ensure_round_headroom(index, &round, removal);
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
            let rounds_before = session.decode.stats().rounds_detail.len();
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
            // (everything the verify pass just recorded) and its share of
            // the wave's device service time, priced per billed token.
            let (round_drafted, round_accepted) = session.decode.stats().rounds_detail
                [rounds_before..]
                .iter()
                .fold((0usize, 0usize), |(d, a), r| {
                    (d + r.predicted, a + r.accepted)
                });
            let wave_index = wave_of[index];
            let per_token_ms = wave_service_ms / wave_charges[wave_index].max(1) as f64;
            let policy_name = &mut self.policy_name;
            policy_name.clear();
            write!(policy_name, "{}", session.policy).expect("writing to a String cannot fail");
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

        // Retire finished sessions (their batch slots refill next tick;
        // streaming sessions whose *view* finished emit a partial and either
        // retire or park for their next chunk) and re-queue preempted ones
        // at the front, preserving admission order among them.  The active
        // sessions trade places with the empty `retiring` buffer, and the
        // ones that stay move back in order.
        std::mem::swap(&mut self.active, retiring);
        let mut outcomes = Vec::new();
        for (session, removal) in retiring.drain(..).zip(removal.drain(..)) {
            match removal {
                Removal::Keep if session.decode.is_finished() => {
                    if session.stream.is_some() {
                        outcomes.extend(self.finish_stream_view(session));
                    } else {
                        outcomes.push(self.retire(session));
                    }
                }
                Removal::Keep => self.active.push(session),
                Removal::Preempted => requeued.push(session.into_requeued(true)),
                Removal::Rejected => {}
            }
        }
        for request in requeued.drain(..).rev() {
            self.queue.push_front(request);
        }
        let completed = outcomes.len() as u64;
        self.tracer.record_with(|| TraceEvent::TickEnd {
            ts_ms: tick_end,
            tick,
            completed,
        });
        outcomes
    }

    /// Delivers every due chunk into the parked streams and moves the ones
    /// that gained decodable audio back into the admission queue, carrying
    /// the new audio-horizon view as their decode context.  The view is
    /// built and wrapped once here: chunks reach parked streams only, so it
    /// cannot change before the request is admitted, and admission and
    /// preemption share it instead of copying it.
    fn release_due_streams(&mut self) {
        let wall = self.wall_ms;
        let mut index = 0;
        while index < self.waiting.len() {
            let request = &mut self.waiting[index];
            let id = request.id;
            let stream = request
                .stream
                .as_mut()
                .expect("only streaming requests park between chunks");
            let view = if stream.deliver_due(wall, id, &mut self.tracer) {
                stream.session.view()
            } else {
                None
            };
            match view {
                Some(view) => {
                    let mut request = self.waiting.remove(index);
                    request.audio = Arc::new(view);
                    self.queue.push_back(request);
                }
                None => index += 1,
            }
        }
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
    /// applies the commit rule, records the partial span, and either retires
    /// the request (final partial) or parks it for the next chunk.
    fn finish_stream_view(&mut self, mut session: ServerSession) -> Option<RequestOutcome> {
        let mut stream = session.stream.take().expect("caller checked the stream");
        let partial = stream.session.absorb(&session.decode);
        let span = PartialSpan {
            partial_index: partial.partial_index,
            chunk_index: stream.delivered.saturating_sub(1),
            chunk_arrival_ms: stream.newest_chunk_arrival_ms,
            emitted_ms: self.wall_ms,
            encoder_ms: stream.pending_encoder_ms,
            committed_tokens: partial.committed_tokens,
            newly_committed: partial.newly_committed,
            hypothesis_tokens: partial.hypothesis_tokens,
            retracted_tokens: partial.retracted_tokens,
            is_final: partial.is_final,
        };
        stream.pending_encoder_ms = 0.0;
        if self.tracer.is_enabled() {
            let ts_ms = self.wall_ms;
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
        // Park for the next chunk; the original arrival keeps accumulating
        // aging credit across re-entries, and the emitted partial keeps the
        // request exempt from deadline shedding.
        session.stream = Some(stream);
        self.waiting.push(session.into_requeued(false));
        None
    }

    /// Builds the final outcome of a completed stream: the committed
    /// transcript (byte-identical to the offline decode), the decode
    /// statistics pooled across every per-chunk re-decode, and the full
    /// partial-span history.  Time-to-first-token is the first partial's
    /// arrival-to-emission latency, and the reported KV caches are the final
    /// view's.
    fn retire_stream(&mut self, session: ServerSession, stream: StreamState) -> RequestOutcome {
        let arrival_ms = session.arrival_ms;
        let first_admitted = stream.first_admitted_ms.unwrap_or(arrival_ms);
        let first_partial = stream
            .partials
            .first()
            .expect("a finished stream emitted at least one partial");
        let latency = RequestLatency {
            queue_ms: (first_admitted - arrival_ms).max(0.0),
            encoder_ms: session.encoder_ms,
            decode_wall_ms: self.wall_ms - first_admitted,
            time_to_first_token_ms: (first_partial.emitted_ms - arrival_ms).max(0.0)
                + first_partial.encoder_ms,
        };
        let last_view = session.decode.into_outcome();
        let outcome = DecodeOutcome {
            tokens: stream.session.final_tokens().to_vec(),
            stats: stream.session.decode_stats().clone(),
            clock: stream.session.clock().clone(),
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
            policy: session.policy,
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
        let ts_ms = self.wall_ms;
        let request = outcome.id.value();
        let tokens = outcome.token_count() as u64;
        self.tracer.record_with(|| TraceEvent::RequestCompleted {
            ts_ms,
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
            outcomes.extend(self.tick());
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
            outcomes.extend(self.tick());
        }
        outcomes
    }

    /// Fills free batch slots from the wait queue (iteration-level,
    /// memory-aware admission).
    ///
    /// Under shortest-audio-first, a request's effective priority is its
    /// audio length minus an aging credit (`age × aging_rate`), so long
    /// utterances cannot be starved by a sustained stream of short arrivals:
    /// their credit grows while fresh arrivals start from zero.
    ///
    /// Admission is additionally gated on KV-pool headroom: a request is
    /// only admitted if its prefill blocks (after prefix sharing with
    /// resident sessions) fit the pool right now.  When the head request
    /// does not fit, admission stops until blocks free up — unless the
    /// request could never fit even an empty pool, in which case it is
    /// dropped with a memory rejection instead of deadlocking the queue.
    fn admit(&mut self) {
        while self.active.len() < self.config.max_batch && !self.queue.is_empty() {
            let index = match self.config.ordering {
                // Budget-aware ordering overrides the queue discipline:
                // admit the request closest to its absolute deadline, so
                // urgent requests stop expiring behind patient ones (the
                // deadline *shedding* in the loop below then fires far less
                // often — that gap is the goodput gain under overload).
                AdmissionOrdering::EarliestDeadlineFirst => self
                    .queue
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
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
                    })
                    .map(|(index, _)| index)
                    .expect("queue is non-empty"),
                AdmissionOrdering::Queue => match self.config.admission {
                    AdmissionPolicy::Fifo => 0,
                    AdmissionPolicy::ShortestAudioFirst => {
                        let wall_ms = self.wall_ms;
                        let aging_rate = self.config.aging_rate;
                        self.queue
                            .iter()
                            .enumerate()
                            .min_by(|(_, a), (_, b)| {
                                let priority = |request: &QueuedRequest| {
                                    let age_ms = (wall_ms - request.arrival_ms).max(0.0);
                                    request.audio_seconds - age_ms * aging_rate
                                };
                                priority(a)
                                    .partial_cmp(&priority(b))
                                    .expect("durations and ages are finite")
                            })
                            .map(|(index, _)| index)
                            .expect("queue is non-empty")
                    }
                },
            };
            let request = self.queue.remove(index).expect("index is in range");
            // Latency-SLO shedding: a request whose queue wait already blew
            // its TTFT budget is served uselessly late — drop it (per-class
            // `rejected_deadline` accounting) and admit the next one.  Only
            // applies before the first output; a stream that already emitted
            // a partial is never shed mid-utterance.
            if let Some(budget) = request.ttft_budget_ms {
                if !request.first_output_emitted() && self.wall_ms - request.arrival_ms > budget {
                    self.stats
                        .record_deadline_rejection(SloClass::of_budget(request.ttft_budget_ms));
                    let ts_ms = self.wall_ms;
                    let shed = request.id.value();
                    self.tracer.record_with(|| TraceEvent::RequestShed {
                        ts_ms,
                        request: Some(shed),
                        reason: ShedReason::Deadline,
                    });
                    continue;
                }
            }
            let restored = request.preemptions > 0;
            match request.try_admit(self.wall_ms, &mut self.kv) {
                Ok(session) => {
                    if self.tracer.is_enabled() {
                        let ts_ms = self.wall_ms;
                        let admitted = session.id.value();
                        let kv_blocks = session.decode.kv_blocks_held() as u64;
                        self.tracer.record_with(|| TraceEvent::RequestAdmitted {
                            ts_ms,
                            request: admitted,
                            kv_blocks,
                            restored,
                        });
                        if restored {
                            self.tracer.record_with(|| TraceEvent::KvRestore {
                                ts_ms,
                                request: admitted,
                            });
                        }
                        self.tracer.record_with(|| TraceEvent::KvAlloc {
                            ts_ms,
                            request: admitted,
                            blocks: kv_blocks,
                        });
                    }
                    self.active.push(session);
                }
                Err(returned) => {
                    let (request, _error) = *returned;
                    if self.prefill_can_ever_fit(&request) {
                        // Not enough headroom right now: put the request
                        // back where it was and wait for blocks to free up.
                        self.queue.insert(index.min(self.queue.len()), request);
                    } else {
                        self.stats.record_memory_rejection();
                        let ts_ms = self.wall_ms;
                        let shed = request.id.value();
                        self.tracer.record_with(|| TraceEvent::RequestShed {
                            ts_ms,
                            request: Some(shed),
                            reason: ShedReason::Memory,
                        });
                    }
                    break;
                }
            }
        }
    }

    /// Whether the request's admission footprint could fit an otherwise
    /// empty pool (with one block of generation headroom; draft and target
    /// sub-pools carry the same budget).  Requests failing this can never be
    /// admitted and must be shed rather than parked — for a streaming
    /// request the footprint includes the committed prefix it re-appends on
    /// resume, which grows chunk by chunk, so a stream can become
    /// unfittable mid-utterance on a pool that admitted its first chunks.
    fn prefill_can_ever_fit(&self, request: &QueuedRequest) -> bool {
        let mut admission_tokens = request.audio.prefill_tokens();
        if let Some(stream) = &request.stream {
            admission_tokens += stream.session.committed().len();
        }
        let admission_blocks = self.kv.target().blocks_for(admission_tokens);
        admission_blocks < self.config.kv_blocks
    }

    /// Converts a finished session into its outcome and records statistics.
    ///
    /// Time-to-first-token falls back to completion time for transcripts that
    /// turned out empty (EOS on the very first verification).
    ///
    /// Queueing and first-token spans are clamped at zero: a router can stamp
    /// an arrival on the fleet timeline slightly ahead of a lagging worker's
    /// clock (interleaved `Router::submit`/`Router::tick`), and a request
    /// admitted "before" it arrived must report zero queue delay, not a
    /// negative sample that corrupts the latency histograms.
    fn retire(&mut self, mut session: ServerSession) -> RequestOutcome {
        session.decode.release_kv(&mut self.kv);
        let first_token_ms = session.first_token_ms.unwrap_or(self.wall_ms);
        let latency = RequestLatency {
            queue_ms: (session.admitted_ms - session.arrival_ms).max(0.0),
            encoder_ms: session.encoder_ms,
            decode_wall_ms: self.wall_ms - session.admitted_ms,
            time_to_first_token_ms: (first_token_ms - session.arrival_ms).max(0.0)
                + session.encoder_ms,
        };
        let outcome = session.decode.into_outcome();
        let text = self
            .binding
            .tokenizer()
            .decode(&outcome.tokens)
            .expect("decoded tokens always come from the shared vocabulary");
        let outcome = RequestOutcome {
            id: session.id,
            policy: session.policy,
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
        let ts_ms = self.wall_ms;
        let request = outcome.id.value();
        let tokens = outcome.token_count() as u64;
        self.tracer.record_with(|| TraceEvent::RequestCompleted {
            ts_ms,
            request,
            tokens,
        });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr::{AdaptiveConfig, SparseTreeConfig, SpeculativeConfig};
    use specasr_audio::Corpus;
    use specasr_audio::Split;
    use specasr_models::{CtcDrafter, ModelProfile, SimulatedAsrModel};

    fn scheduler(
        config: ServerConfig,
    ) -> (Scheduler<SimulatedAsrModel, SimulatedAsrModel>, Corpus) {
        let corpus = Corpus::librispeech_like(88, 12);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
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
        let first = scheduler.tick();
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
            let outcomes = scheduler.tick();
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
            let outcomes = scheduler.tick();
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
        scheduler.tick();
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
        for outcome in &outcomes {
            let utterance = split
                .iter()
                .find(|u| u.id() == outcome.utterance_id)
                .expect("known utterance");
            let audio = scheduler.binding.bind(utterance);
            let offline = policy.decode(scheduler.draft_model(), scheduler.target_model(), &audio);
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
                assert!(outcome.first_partial_span_ms().expect("streamed") >= 0.0);
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
        assert_eq!(scheduler.waiting_streams(), 2);
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
        scheduler
            .submit_with_budget(policy, &split[0], None)
            .expect("queue has room");
        scheduler
            .submit_with_budget(policy, &split[1], Some(1e9))
            .expect("generous budget");
        scheduler
            .submit_with_budget(policy, &split[2], Some(0.001))
            .expect("tight budget");
        let outcomes = scheduler.run_until_idle();
        assert_eq!(outcomes.len(), 2, "the blown-deadline request is shed");
        assert_eq!(scheduler.stats().rejected_deadline(), 1);
        assert_eq!(scheduler.stats().rejected(), 0);
        assert_eq!(
            scheduler.stats().rejected_total(),
            1,
            "deadline shedding counts toward total rejections"
        );
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
        let request = crate::session::QueuedRequest {
            id: RequestId::new(0),
            policy: Policy::Autoregressive,
            drafter: DrafterKind::ModelDraft,
            audio: Arc::new(scheduler.binding.bind(utterance)),
            utterance_id: utterance.id(),
            audio_seconds: utterance.duration_seconds(),
            encoder_ms: 1.0,
            arrival_ms: 0.0,
            preemptions: 0,
            ttft_budget_ms: Some(5.0),
            first_output_emitted: false,
            stream: None,
        };
        assert!(!request.first_output_emitted());
        let mut pool = KvPool::bounded(4096, 16);
        let mut session = request.try_admit(1.0, &mut pool).expect("pool has room");
        session.first_token_ms = Some(2.0); // the first token was committed
        session.decode.release_kv(&mut pool);
        let requeued = session.into_requeued(true);
        assert_eq!(requeued.preemptions, 1);
        assert!(
            requeued.first_output_emitted(),
            "a preempted request that already committed output must never be deadline-shed"
        );
        // The exemption survives further admission / park cycles.
        let mut session = requeued.try_admit(3.0, &mut pool).expect("pool has room");
        assert!(session.first_output_emitted);
        session.decode.release_kv(&mut pool);
        let parked = session.into_requeued(false);
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
        scheduler
            .submit_with_budget(policy, &split[0], None)
            .expect("queue has room");
        scheduler
            .submit_with_budget(policy, &split[1], Some(1e9))
            .expect("generous budget: relaxed class");
        scheduler
            .submit_with_budget(policy, &split[2], Some(0.001))
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
        assert!(relaxed.ttft_p99_ms() > 0.0);
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
                    .submit_with_drafter(policies[index % policies.len()], drafter, utterance)
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
