//! The batched submit/poll decoder-backend API.
//!
//! [`crate::AsrDecoderModel::next_logits`] is a synchronous, one-token,
//! one-sequence call — the wrong shape for a serving scheduler that wants to
//! score an entire draft in one target forward pass and batch verification
//! across sessions, and impossible to overlap when the backend is genuinely
//! I/O-bound (GPU RPC, remote inference).  [`AsrBackend`] is the batched,
//! completion-queue redesign of that boundary:
//!
//! 1. callers fill a [`BackendBatch`] with verification passes — each one an
//!    audio context, a shared generated prefix, and the *probe extensions*
//!    whose next-token distributions the pass must score (every distinct
//!    draft position of a drafted sequence or token tree, scored in the same
//!    pass, which is exactly how speculative verification runs on real
//!    hardware; the caller reads each position's distribution back by its
//!    probe index).  The batch is one set of flat buffers, and
//!    [`ForwardRequest`] is a borrowed view of one request in it;
//! 2. [`AsrBackend::submit`] borrows the batch, enqueues it at a
//!    caller-supplied wall time and returns its [`TicketRange`]: one ticket
//!    per request, consecutive, in request order;
//! 3. [`AsrBackend::poll`] drains the completion queue into a
//!    [`Completions`] buffer: each [`ForwardResult`] names its range of one
//!    flat list of scored [`TokenLogits`], plus the modeled in-flight span
//!    (submit → completion) of its batch.
//!
//! The caller owns the batch and the completions and reuses them from one
//! round to the next: [`BackendBatch::clear`] and a poll keep their capacity,
//! the simulated backend scores into pending buffers that keep theirs, and a
//! distribution keeps its few candidates in place.  Once every buffer has
//! held the largest round, a verify round allocates nothing.
//!
//! The design is deliberately futures-free — no executor, no `tokio` — so it
//! works with the offline shims while mapping directly onto an asynchronous
//! GPU-RPC backend later (tickets become RPC handles, `poll` becomes a
//! completion-queue read).
//!
//! [`InFlightSimBackend`] is the simulated backend: it lifts any
//! [`AsrDecoderModel`] into this API on a *device timeline* — batches
//! execute on a pool of lanes (one by default, so a batch submitted while
//! another is executing queues behind it), and every batch pays a dispatch
//! overhead.  Submitting work early therefore overlaps its service time with
//! whatever the caller does next, which is how scheduler-level draft/verify
//! overlap becomes visible in measured wall-clock.  With
//! [`InFlightSimBackend::with_lanes`]`(0)` the pool is unbounded and every
//! batch completes one grouped-pass interval after submission.
//!
//! Only verification goes through a backend.  Draft loops are inherently
//! sequential (each step depends on the previous token, so there is nothing
//! to batch within a session): the serving scheduler queries its draft model
//! directly, models the draft lane's device time on a timeline of its own,
//! and counts every draft-model query as one single-probe draft request in
//! the draft lane's [`BackendCounters`].  Sessions drafted by a draft-free
//! drafter (CTC-encoder collapse or token-map lookup — see the core crate's
//! `Drafter` trait) make *no* draft-model queries at all, and their rounds
//! appear on the verify lane only.  The per-lane request counters on the
//! backend stats exist precisely so that capacity shift is measurable.

use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use specasr_tokenizer::TokenId;

use crate::binding::UtteranceTokens;
use crate::logits::TokenLogits;
use crate::probes::ProbeSlice;
use crate::profiles::ModelProfile;
use crate::traits::AsrDecoderModel;

/// One verification pass a backend must run: the audio context, the shared
/// generated prefix, and the probe extensions to score — a borrowed view,
/// which [`BackendBatch::push`] copies in and [`BackendBatch::requests`]
/// hands back out.
///
/// Each probe is a token extension of `prefix`; the backend returns the
/// next-token distribution *after* `prefix + probe`, one [`TokenLogits`] per
/// probe, in probe order, so result `i` answers probe `i`.  The empty probe
/// scores the position directly after the prefix.  `charge_tokens` is the
/// token width the pass occupies on the accelerator (what latency pricing is
/// based on) — the drafted-token count the verification processes, not the
/// probe count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardRequest<'a> {
    /// The audio context the model is conditioned on (shared — many requests
    /// of one session reference the same context without copying it).
    pub audio: &'a Arc<UtteranceTokens>,
    /// The committed generated prefix shared by every probe.
    pub prefix: &'a [TokenId],
    /// Token extensions of `prefix` to score, in order: a verify request's
    /// set is laid out once per drafted round, and the completion's
    /// distributions are read back by probe index.
    pub probes: ProbeSlice<'a>,
    /// Token width the pass is priced at (parallel tokens processed).
    pub charge_tokens: usize,
}

/// Handle of one submitted request, named by its [`ForwardResult`] when
/// [`AsrBackend::poll`] drains it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// Builds a ticket from its raw value (tickets are normally issued by
    /// [`AsrBackend::submit`]; constructing one directly is only useful for
    /// tests and custom backend implementations).
    pub const fn new(raw: u64) -> Self {
        Ticket(raw)
    }

    /// The raw ticket value (monotonically increasing in submission order).
    pub const fn value(self) -> u64 {
        self.0
    }
}

/// The tickets of one submitted batch: consecutive, one per request, in
/// request order.
///
/// Every empty range is the same value, whatever ticket would have come
/// next, so an empty batch gets the same answer in process and across the
/// wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TicketRange {
    first: u64,
    len: usize,
}

impl TicketRange {
    /// The `len` tickets from `first` on.
    pub fn new(first: Ticket, len: usize) -> Self {
        match len {
            0 => TicketRange::default(),
            len => TicketRange {
                first: first.value(),
                len,
            },
        }
    }

    /// Number of tickets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the range holds no ticket.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The request index `ticket` was issued to, if it is in the range.
    pub fn position(&self, ticket: Ticket) -> Option<usize> {
        let offset = ticket.value().checked_sub(self.first)?;
        usize::try_from(offset)
            .ok()
            .filter(|&index| index < self.len)
    }

    /// The tickets in request order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Ticket> {
        let first = self.first;
        (0..self.len).map(move |index| Ticket(first + index as u64))
    }
}

/// A group of verification passes submitted together: the backend runs
/// them as one grouped pass (base cost paid once), which is where
/// cross-session verification batching comes from.
///
/// The requests live in flat buffers, so a batch the caller clears and
/// refills round after round stops allocating once it has held its largest
/// round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendBatch {
    pub(crate) requests: Vec<RequestSlot>,
    /// Each request's prefix, then its probes' tokens, request after
    /// request.
    pub(crate) tokens: Vec<TokenId>,
    /// Where each probe ends, counted from its request's first probe token;
    /// request after request.
    pub(crate) probe_ends: Vec<usize>,
}

/// Where one request of a [`BackendBatch`] sits in the batch's buffers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RequestSlot {
    pub(crate) audio: Arc<UtteranceTokens>,
    /// The prefix, in `tokens`; the request's probe tokens follow it up to
    /// `tokens_end`.
    pub(crate) prefix: Range<usize>,
    pub(crate) tokens_end: usize,
    /// The request's probes, in `probe_ends`.
    pub(crate) probes: Range<usize>,
    pub(crate) charge_tokens: usize,
}

impl BackendBatch {
    /// An empty batch.
    pub fn new() -> Self {
        BackendBatch::default()
    }

    /// Removes every request, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.requests.clear();
        self.tokens.clear();
        self.probe_ends.clear();
    }

    /// Copies `request` into the batch, after the requests already in it.
    pub fn push(&mut self, request: ForwardRequest<'_>) {
        let start = self.tokens.len();
        self.tokens.extend_from_slice(request.prefix);
        let prefix = start..self.tokens.len();
        self.tokens.extend_from_slice(request.probes.tokens());
        let ends_at = self.probe_ends.len();
        self.probe_ends.extend_from_slice(request.probes.ends());
        self.requests.push(RequestSlot {
            audio: Arc::clone(request.audio),
            prefix,
            tokens_end: self.tokens.len(),
            probes: ends_at..self.probe_ends.len(),
            charge_tokens: request.charge_tokens,
        });
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests in submission order.
    pub fn requests(&self) -> impl ExactSizeIterator<Item = ForwardRequest<'_>> {
        self.requests.iter().map(|slot| self.view(slot))
    }

    /// Total priced token width across the batch.
    pub fn charge_tokens(&self) -> usize {
        self.requests.iter().map(|slot| slot.charge_tokens).sum()
    }

    fn view<'a>(&'a self, slot: &'a RequestSlot) -> ForwardRequest<'a> {
        ForwardRequest {
            audio: &slot.audio,
            prefix: &self.tokens[slot.prefix.clone()],
            probes: ProbeSlice::new(
                &self.tokens[slot.prefix.end..slot.tokens_end],
                &self.probe_ends[slot.probes.clone()],
            ),
            charge_tokens: slot.charge_tokens,
        }
    }
}

/// One completed request: where its scored distributions sit in its
/// [`Completions`], plus the modeled in-flight span of the batch that served
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardResult {
    /// The ticket of the request this result answers.
    pub ticket: Ticket,
    /// One distribution per probe, in probe order: a range of the
    /// [`Completions`]' flat list, read through [`Completions::logits`].
    pub logits: Range<usize>,
    /// Wall time the batch was submitted.
    pub submitted_ms: f64,
    /// Wall time the device actually started executing the batch (equals
    /// `submitted_ms` for overlapping backends; later when dispatch overhead
    /// or an earlier batch held the device).
    pub started_ms: f64,
    /// Wall time the batch completed (dispatch + queueing + service).
    pub completed_ms: f64,
    /// Number of requests in the batch that served this request.
    pub batch_requests: usize,
}

impl ForwardResult {
    /// The modeled submit-to-completion latency of this request.
    pub fn latency_ms(&self) -> f64 {
        (self.completed_ms - self.submitted_ms).max(0.0)
    }

    /// The modeled device execution time (start-to-completion).
    pub fn service_ms(&self) -> f64 {
        (self.completed_ms - self.started_ms).max(0.0)
    }
}

/// The results one [`AsrBackend::poll`] drained, in a buffer the caller owns
/// and passes to every poll: the results in completion order, and every
/// result's distributions back to back in one flat list.
///
/// A poll clears and refills it, keeping the capacity, so a caller that
/// polls into the same buffer stops allocating once it has held its largest
/// round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Completions {
    pub(crate) results: Vec<ForwardResult>,
    pub(crate) logits: Vec<TokenLogits>,
}

impl Completions {
    /// An empty buffer.
    pub fn new() -> Self {
        Completions::default()
    }

    /// Removes every result, keeping the capacity.
    pub fn clear(&mut self) {
        self.results.clear();
        self.logits.clear();
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` when the buffer holds no result.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The results in completion order (ties by ticket).
    pub fn results(&self) -> &[ForwardResult] {
        &self.results
    }

    /// The scored distributions of `result`, one per probe of its request.
    ///
    /// # Panics
    ///
    /// Panics if `result` did not come from this buffer.
    pub fn logits(&self, result: &ForwardResult) -> &[TokenLogits] {
        &self.logits[result.logits.clone()]
    }

    /// Every result with its distributions, in completion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&ForwardResult, &[TokenLogits])> {
        self.results
            .iter()
            .map(|result| (result, self.logits(result)))
    }
}

/// Cumulative counters of one backend's lifetime, for occupancy and
/// in-flight-depth reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BackendCounters {
    /// Batches submitted.
    pub batches: usize,
    /// Requests submitted across all batches.
    pub requests: usize,
    /// Single-probe draft-model queries (the scheduler's draft lane).
    pub draft_requests: usize,
    /// Verification requests.
    pub verify_requests: usize,
    /// Verification batches.
    pub verify_batches: usize,
    /// Probe positions scored across all requests.
    pub probes_scored: usize,
    /// Largest number of requests that were in flight (submitted, not yet
    /// completed on the modeled timeline) at any submission instant.
    pub peak_in_flight: usize,
    /// Modeled milliseconds the device (all lanes) spent executing batches.
    pub device_busy_ms: f64,
    /// Modeled milliseconds a lane sat idle between consecutive device
    /// spans — the gap a pipelined scheduler exists to close.  Zero for
    /// backends without a serialised timeline.
    pub device_idle_ms: f64,
}

impl BackendCounters {
    /// Mean verify requests per verify batch — the cross-session batching
    /// gauge (1.0 means every verification ran alone; 0.0 when nothing was
    /// verified yet).
    pub fn verify_batch_occupancy(&self) -> f64 {
        if self.verify_batches == 0 {
            0.0
        } else {
            self.verify_requests as f64 / self.verify_batches as f64
        }
    }

    /// Folds another backend's counters in with parallel-composition
    /// semantics: everything sums, including the in-flight peaks (the
    /// backends run concurrently, so their depths coexist).
    pub fn absorb(&mut self, other: &BackendCounters) {
        self.batches += other.batches;
        self.requests += other.requests;
        self.draft_requests += other.draft_requests;
        self.verify_requests += other.verify_requests;
        self.verify_batches += other.verify_batches;
        self.probes_scored += other.probes_scored;
        self.peak_in_flight += other.peak_in_flight;
        self.device_busy_ms += other.device_busy_ms;
        self.device_idle_ms += other.device_idle_ms;
    }
}

/// The batched, completion-queue decoder-backend abstraction.
///
/// `submit` never blocks: it prices and enqueues the batch at `now_ms` and
/// hands back its tickets.  `poll` drains every completion into the caller's
/// buffer.  The simulated backends compute results eagerly, so a poll right
/// after a submit returns its results; an RPC-backed implementation would
/// return only what the wire has answered — callers that want overlap (the
/// serving scheduler) submit everything first and drain afterwards.
pub trait AsrBackend {
    /// The profile of the model this backend fronts.
    fn profile(&self) -> &ModelProfile;

    /// Submits a batch at wall time `now_ms`, returning its tickets: one
    /// per request, consecutive, in request order.  The backend copies what
    /// it needs, so the caller may clear and refill the batch at once.
    fn submit(&mut self, batch: &BackendBatch, now_ms: f64) -> TicketRange;

    /// Drains every completed result into `into`, replacing its contents,
    /// ordered by completion time (ties by ticket).
    fn poll(&mut self, into: &mut Completions);

    /// Cumulative lifetime counters.
    fn counters(&self) -> BackendCounters;

    /// The per-batch dispatch overhead of the device timeline.
    fn dispatch_overhead_ms(&self) -> f64;

    /// The wall time the device backlog drains: a batch submitted now cannot
    /// start executing earlier than this (the wave planner's cross-tick
    /// carry).
    fn device_free_ms(&self) -> f64;

    /// Enables or disables the device-side batch log.  Disabling also
    /// clears any buffered events; the sequence counter keeps running so a
    /// re-enabled log stays in submit order.
    fn set_device_tracing(&mut self, enabled: bool);

    /// Drains the device-side batch log recorded since the last drain.
    fn take_device_events(&mut self) -> Vec<DeviceEvent>;
}

/// Bookkeeping of the simulated backend: ticket allocation, the completion
/// queue, and the in-flight gauge.
#[derive(Debug, Clone, Default)]
struct BackendState {
    next_ticket: u64,
    /// Scored results not polled yet, in ticket order.  Kept across polls,
    /// so scoring stops allocating once the buffer has held its largest
    /// round.
    pending: Completions,
    /// `(completed_ms, requests)` of batches still in flight on the modeled
    /// timeline, pruned on every submit.
    in_flight: Vec<(f64, usize)>,
    counters: BackendCounters,
    /// `prefix + probe` of the probe being scored, one buffer kept across
    /// submits.
    context: Vec<TokenId>,
}

impl BackendState {
    /// Scores a batch against `model`, starting device execution at
    /// `started_ms` and completing at `completed_ms`.
    fn score_batch<M: AsrDecoderModel + ?Sized>(
        &mut self,
        model: &M,
        batch: &BackendBatch,
        now_ms: f64,
        started_ms: f64,
        completed_ms: f64,
    ) -> TicketRange {
        let batch_requests = batch.len();
        self.counters.batches += 1;
        self.counters.requests += batch_requests;
        self.counters.verify_batches += 1;
        self.counters.verify_requests += batch_requests;
        self.in_flight.retain(|&(done, _)| done > now_ms);
        self.in_flight.push((completed_ms, batch_requests));
        let in_flight: usize = self.in_flight.iter().map(|&(_, n)| n).sum();
        self.counters.peak_in_flight = self.counters.peak_in_flight.max(in_flight);

        let tickets = TicketRange::new(Ticket(self.next_ticket), batch_requests);
        let context = &mut self.context;
        let pending = &mut self.pending;
        for request in batch.requests() {
            self.counters.probes_scored += request.probes.len();
            let start = pending.logits.len();
            for probe in request.probes.iter() {
                context.clear();
                context.extend_from_slice(request.prefix);
                context.extend_from_slice(probe);
                pending
                    .logits
                    .push(model.next_logits(request.audio, context));
            }
            pending.results.push(ForwardResult {
                ticket: Ticket(self.next_ticket),
                logits: start..pending.logits.len(),
                submitted_ms: now_ms,
                started_ms,
                completed_ms,
                batch_requests,
            });
            self.next_ticket += 1;
        }
        tickets
    }

    /// Moves every pending result into `into`, in completion order, each
    /// result's distributions laid out in that order too.
    fn poll(&mut self, into: &mut Completions) {
        into.clear();
        let Completions { results, logits } = &mut self.pending;
        // Tickets are unique, so the order is total and an unstable sort
        // (which never allocates) gives the one order a stable sort would.
        results.sort_unstable_by(|a, b| {
            a.completed_ms
                .partial_cmp(&b.completed_ms)
                .expect("completion times are finite")
                .then(a.ticket.cmp(&b.ticket))
        });
        for result in results.iter() {
            let start = into.logits.len();
            into.logits
                .extend(logits[result.logits.clone()].iter_mut().map(std::mem::take));
            into.results.push(ForwardResult {
                logits: start..into.logits.len(),
                ..result.clone()
            });
        }
        self.pending.clear();
    }
}

/// Grouped-pass price of a batch: the base cost once, the per-token cost for
/// every priced token in the batch.
fn batch_service_ms(profile: &ModelProfile, batch: &BackendBatch) -> f64 {
    profile.latency().forward_pass_ms(batch.charge_tokens())
}

/// A modeled pool of execution lanes with per-batch dispatch overhead and
/// busy/idle accounting.
///
/// Each `occupy` call reserves one timed device span: the earliest-free lane
/// takes the batch, which starts at `max(now + dispatch_overhead_ms,
/// lane_free)` and holds the lane for `service_ms`.  With one lane (the
/// default) this is exactly the serialized timeline of
/// [`InFlightSimBackend`]; with `lanes = 0` the pool is unbounded and every
/// span starts after dispatch overhead alone (the model for a pool of
/// identical accelerators).  The gap between a lane's previous span and its
/// next start accrues as `idle_ms` — the quantity a pipelined scheduler
/// exists to drive toward zero.
#[derive(Debug, Clone)]
pub struct DeviceTimeline {
    dispatch_overhead_ms: f64,
    /// `(free_at_ms, ever_used)` per lane; empty means unbounded lanes.
    lanes: Vec<(f64, bool)>,
    busy_ms: f64,
    idle_ms: f64,
}

impl DeviceTimeline {
    /// A timeline with `lanes` execution lanes (0 = unbounded) and no
    /// dispatch overhead.
    pub fn new(lanes: usize) -> Self {
        DeviceTimeline {
            dispatch_overhead_ms: 0.0,
            lanes: vec![(0.0, false); lanes],
            busy_ms: 0.0,
            idle_ms: 0.0,
        }
    }

    /// Sets the per-span dispatch overhead (kernel launch / RPC cost paid
    /// before execution starts).
    ///
    /// # Panics
    ///
    /// Panics if the overhead is negative or non-finite.
    pub fn with_dispatch_overhead_ms(mut self, overhead_ms: f64) -> Self {
        assert!(
            overhead_ms.is_finite() && overhead_ms >= 0.0,
            "dispatch overhead must be finite and non-negative"
        );
        self.dispatch_overhead_ms = overhead_ms;
        self
    }

    /// The configured per-span dispatch overhead.
    pub fn dispatch_overhead_ms(&self) -> f64 {
        self.dispatch_overhead_ms
    }

    /// Reserves a device span of `service_ms` submitted at `now_ms`,
    /// returning `(started_ms, completed_ms)`.  The earliest-free lane wins
    /// (ties to the lowest index, so replays are deterministic).
    pub fn occupy(&mut self, now_ms: f64, service_ms: f64) -> (f64, f64) {
        let earliest = now_ms + self.dispatch_overhead_ms;
        let started = match self
            .lanes
            .iter_mut()
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("lane times are finite"))
        {
            None => earliest, // unbounded: a fresh lane is always free
            Some(lane) => {
                let started = earliest.max(lane.0);
                if lane.1 {
                    self.idle_ms += started - lane.0;
                }
                *lane = (started + service_ms, true);
                started
            }
        };
        self.busy_ms += service_ms;
        (started, started + service_ms)
    }

    /// The earliest wall time a newly submitted span could start executing
    /// (ignoring dispatch overhead): the free time of the earliest-free
    /// lane, or 0 for an unbounded pool.  For a one-lane timeline this is
    /// the classic `device_free_ms` backlog.
    pub fn free_ms(&self) -> f64 {
        self.lanes
            .iter()
            .map(|&(free, _)| free)
            .min_by(|a, b| a.partial_cmp(b).expect("lane times are finite"))
            .unwrap_or(0.0)
    }

    /// Total modeled execution milliseconds reserved so far.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Total modeled lane-idle milliseconds (gaps between consecutive spans
    /// on the same lane).
    pub fn idle_ms(&self) -> f64 {
        self.idle_ms
    }
}

/// One batch executed on the modeled device, as logged *by the device side*
/// when device tracing is enabled.
///
/// This is the worker-side truth a trace consumer stitches into its flight
/// recording: [`InFlightSimBackend`] records one `DeviceEvent` per submit,
/// and the RPC backend ships the log across the wire verbatim, so an
/// `--rpc` run stitches a digit-for-digit identical device timeline to an
/// in-process run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceEvent {
    /// Batch sequence number (0-based, in submit order).
    pub seq: u64,
    /// When the batch was submitted.
    pub submitted_ms: f64,
    /// When the device started executing it (after dispatch overhead and
    /// backlog).
    pub started_ms: f64,
    /// When it completed.
    pub completed_ms: f64,
    /// Forward requests in the batch.
    pub requests: u64,
    /// Token width the batch was priced at.
    pub charge_tokens: u64,
}

/// A simulated backend with *in-flight* semantics: one device timeline,
/// per-batch dispatch overhead, and queueing behind whatever is already
/// executing.  It lifts any [`AsrDecoderModel`] into the backend API.
///
/// A batch submitted at `now` starts at `max(now + dispatch_overhead_ms,
/// device_free)` and runs for one grouped-pass service interval; the next
/// batch queues behind it.  Work submitted *early* — before the caller
/// actually needs the results — therefore overlaps its service time with the
/// caller's other work, which is how a scheduler's draft/verify overlap
/// shows up in measured wall-clock instead of in an analytic cost model.
/// [`InFlightSimBackend::with_lanes`]`(0)` removes the queueing: every batch
/// then starts after its dispatch overhead and completes one grouped pass
/// later, whatever else is in flight.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::{
///     AsrBackend, BackendBatch, Completions, ForwardRequest, InFlightSimBackend, ModelProfile,
///     Probes, SimulatedAsrModel, TokenizerBinding,
/// };
///
/// let corpus = Corpus::librispeech_like(1, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = Arc::new(binding.bind(&corpus.split(Split::TestClean)[0]));
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
///
/// let mut backend = InFlightSimBackend::new(target);
/// let probes = Probes::empty_probe();
/// let mut batch = BackendBatch::new();
/// batch.push(ForwardRequest {
///     audio: &audio,
///     prefix: &[],
///     probes: probes.as_slice(),
///     charge_tokens: 4,
/// });
/// backend.submit(&batch, 0.0);
/// backend.submit(&batch, 0.0); // queues behind the first
/// let mut completions = Completions::new();
/// backend.poll(&mut completions);
/// let results = completions.results();
/// assert!(results[1].completed_ms > results[0].completed_ms);
/// assert_eq!(completions.logits(&results[0]).len(), 1);
/// assert_eq!(backend.counters().peak_in_flight, 2);
/// ```
#[derive(Debug, Clone)]
pub struct InFlightSimBackend<M> {
    model: M,
    timeline: DeviceTimeline,
    state: BackendState,
    device_tracing: bool,
    device_log: Vec<DeviceEvent>,
    device_seq: u64,
}

impl<M: AsrDecoderModel> InFlightSimBackend<M> {
    /// Wraps `model` with one execution lane and no dispatch overhead.
    pub fn new(model: M) -> Self {
        InFlightSimBackend {
            model,
            timeline: DeviceTimeline::new(1),
            state: BackendState::default(),
            device_tracing: false,
            device_log: Vec::new(),
            device_seq: 0,
        }
    }

    /// Sets the per-batch dispatch overhead (kernel launch / RPC cost paid
    /// before execution starts).
    ///
    /// # Panics
    ///
    /// Panics if the overhead is negative or non-finite.
    pub fn with_dispatch_overhead_ms(mut self, overhead_ms: f64) -> Self {
        self.timeline = self.timeline.with_dispatch_overhead_ms(overhead_ms);
        self
    }

    /// Sets the lane count of the modeled device pool (0 = unbounded).
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        let overhead = self.timeline.dispatch_overhead_ms();
        self.timeline = DeviceTimeline::new(lanes).with_dispatch_overhead_ms(overhead);
        self
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Unwraps the backend back into its model.
    pub fn into_model(self) -> M {
        self.model
    }
}

impl<M: AsrDecoderModel> AsrBackend for InFlightSimBackend<M> {
    fn profile(&self) -> &ModelProfile {
        self.model.profile()
    }

    fn submit(&mut self, batch: &BackendBatch, now_ms: f64) -> TicketRange {
        let service_ms = batch_service_ms(self.model.profile(), batch);
        let (start_ms, completed_ms) = self.timeline.occupy(now_ms, service_ms);
        if self.device_tracing {
            self.device_log.push(DeviceEvent {
                seq: self.device_seq,
                submitted_ms: now_ms,
                started_ms: start_ms,
                completed_ms,
                requests: batch.len() as u64,
                charge_tokens: batch.charge_tokens() as u64,
            });
        }
        self.device_seq += 1;
        self.state
            .score_batch(&self.model, batch, now_ms, start_ms, completed_ms)
    }

    fn poll(&mut self, into: &mut Completions) {
        self.state.poll(into);
    }

    fn counters(&self) -> BackendCounters {
        let mut counters = self.state.counters;
        counters.device_busy_ms = self.timeline.busy_ms();
        counters.device_idle_ms = self.timeline.idle_ms();
        counters
    }

    fn dispatch_overhead_ms(&self) -> f64 {
        self.timeline.dispatch_overhead_ms()
    }

    fn device_free_ms(&self) -> f64 {
        self.timeline.free_ms()
    }

    fn set_device_tracing(&mut self, enabled: bool) {
        self.device_tracing = enabled;
        if !enabled {
            self.device_log.clear();
        }
    }

    fn take_device_events(&mut self) -> Vec<DeviceEvent> {
        std::mem::take(&mut self.device_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::TokenizerBinding;
    use crate::probes::Probes;
    use crate::simulated::SimulatedAsrModel;
    use specasr_audio::{Corpus, Split};

    fn setup() -> (SimulatedAsrModel, Vec<Arc<UtteranceTokens>>) {
        let corpus = Corpus::librispeech_like(17, 3);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding
            .bind_all(corpus.split(Split::TestClean))
            .into_iter()
            .map(Arc::new)
            .collect();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        (target, audio)
    }

    /// A batch of empty-probe requests, one per `(context, charge width)`.
    fn batch_of(requests: &[(&Arc<UtteranceTokens>, usize)]) -> BackendBatch {
        let probes = Probes::empty_probe();
        let mut batch = BackendBatch::new();
        for &(audio, charge_tokens) in requests {
            batch.push(ForwardRequest {
                audio,
                prefix: &[],
                probes: probes.as_slice(),
                charge_tokens,
            });
        }
        batch
    }

    fn polled(backend: &mut impl AsrBackend) -> Completions {
        let mut completions = Completions::new();
        backend.poll(&mut completions);
        completions
    }

    #[test]
    fn probe_results_match_direct_model_queries() {
        let (target, audio) = setup();
        let transcript = target.greedy_transcript(&audio[0]);
        let probes: Probes = (0..=transcript.len().min(4))
            .map(|i| &transcript[..i])
            .collect();
        let mut batch = BackendBatch::new();
        batch.push(ForwardRequest {
            audio: &audio[0],
            prefix: &[],
            probes: probes.as_slice(),
            charge_tokens: 4,
        });
        let mut backend = InFlightSimBackend::new(&target).with_lanes(0);
        let tickets = backend.submit(&batch, 10.0);
        let completions = polled(&mut backend);
        let (result, logits) = completions.iter().next().expect("computed at submit");
        assert_eq!(Some(result.ticket), tickets.iter().next());
        assert_eq!(logits.len(), probes.len());
        for (probe, logits) in probes.iter().zip(logits) {
            assert_eq!(logits, &target.next_logits(&audio[0], probe));
        }
        assert!((result.submitted_ms - 10.0).abs() < 1e-12);
    }

    #[test]
    fn a_batch_reads_back_its_requests_and_clears_in_place() {
        let (_, audio) = setup();
        let prefix = [TokenId::new(4), TokenId::new(5)];
        let probes: Probes = [
            &[][..],
            &[TokenId::new(9)],
            &[TokenId::new(9), TokenId::new(2)],
        ]
        .into_iter()
        .collect();
        let mut batch = batch_of(&[(&audio[1], 1)]);
        batch.push(ForwardRequest {
            audio: &audio[0],
            prefix: &prefix,
            probes: probes.as_slice(),
            charge_tokens: 6,
        });
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.charge_tokens(), 7);
        let second = batch.requests().nth(1).expect("two requests");
        assert!(Arc::ptr_eq(second.audio, &audio[0]));
        assert_eq!(second.prefix, prefix);
        assert_eq!(second.probes, probes.as_slice());
        let first = batch.requests().next().expect("two requests");
        assert_eq!(first.probes, Probes::empty_probe().as_slice());
        assert!(batch.requests().map(|r| r.charge_tokens).eq([1, 6]));
        let capacity = (batch.tokens.capacity(), batch.probe_ends.capacity());
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(
            (batch.tokens.capacity(), batch.probe_ends.capacity()),
            capacity
        );
    }

    #[test]
    fn ticket_ranges_name_each_request_once() {
        let tickets = TicketRange::new(Ticket::new(7), 3);
        assert!(tickets.iter().map(Ticket::value).eq([7, 8, 9]));
        assert_eq!(tickets.position(Ticket::new(8)), Some(1));
        assert_eq!(tickets.position(Ticket::new(6)), None);
        assert_eq!(tickets.position(Ticket::new(10)), None);
        // Every empty range is the same value.
        assert_eq!(TicketRange::new(Ticket::new(7), 0), TicketRange::default());
        assert!(TicketRange::default().is_empty());
    }

    #[test]
    fn batches_are_priced_as_one_grouped_pass() {
        let (target, audio) = setup();
        let latency = target.profile().latency().clone();
        let batch = batch_of(&[(&audio[0], 3), (&audio[0], 5), (&audio[0], 1)]);
        let mut backend = InFlightSimBackend::new(&target).with_lanes(0);
        let tickets = backend.submit(&batch, 100.0);
        assert_eq!(tickets.len(), 3);
        let completions = polled(&mut backend);
        assert_eq!(completions.len(), 3);
        // All three complete at the same instant: one grouped pass.
        for (result, ticket) in completions.results().iter().zip(tickets.iter()) {
            assert_eq!(result.ticket, ticket);
            assert!((result.completed_ms - (100.0 + latency.forward_pass_ms(9))).abs() < 1e-9);
            assert_eq!(result.batch_requests, 3);
        }
    }

    #[test]
    fn in_flight_backend_serialises_its_device_timeline() {
        let (target, audio) = setup();
        let latency = target.profile().latency().clone();
        let mut backend = InFlightSimBackend::new(&target).with_dispatch_overhead_ms(2.0);
        backend.submit(&batch_of(&[(&audio[0], 8)]), 0.0);
        backend.submit(&batch_of(&[(&audio[1], 4)]), 1.0); // queues behind the first
        let completions = polled(&mut backend);
        let results = completions.results();
        let first_done = 2.0 + latency.forward_pass_ms(8);
        assert!((results[0].completed_ms - first_done).abs() < 1e-9);
        assert!((results[1].completed_ms - (first_done + latency.forward_pass_ms(4))).abs() < 1e-9);
        // Submitting after the device drained starts immediately again.
        backend.submit(&batch_of(&[(&audio[0], 1)]), 1e6);
        let result = polled(&mut backend).results()[0].clone();
        assert!((result.completed_ms - (1e6 + 2.0 + latency.forward_pass_ms(1))).abs() < 1e-6);
        assert_eq!(backend.counters().verify_batches, 3);
        assert_eq!(backend.counters().verify_requests, 3);
        assert!((backend.counters().verify_batch_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poll_orders_by_completion_time() {
        let (target, audio) = setup();
        let mut backend = InFlightSimBackend::new(&target);
        let late = backend.submit(&batch_of(&[(&audio[0], 16)]), 0.0);
        let early = backend.submit(&batch_of(&[(&audio[1], 1)]), 0.0);
        let mut completions = polled(&mut backend);
        let results = completions.results();
        assert_eq!(Some(results[0].ticket), late.iter().next(), "device order");
        assert_eq!(Some(results[1].ticket), early.iter().next());
        backend.poll(&mut completions);
        assert!(completions.is_empty(), "poll drains the queue");
    }

    #[test]
    fn occupancy_counts_only_verify_batches() {
        let (target, audio) = setup();
        let mut backend = InFlightSimBackend::new(&target);
        backend.submit(&batch_of(&[(&audio[0], 1)]), 0.0);
        backend.submit(&batch_of(&[(&audio[0], 2); 4]), 0.0);
        let counters = backend.counters();
        assert_eq!(counters.batches, 2);
        assert_eq!(counters.verify_batches, 2);
        assert_eq!(counters.verify_requests, 5);
        assert_eq!(
            counters.draft_requests, 0,
            "draft queries never reach a backend"
        );
        assert!((counters.verify_batch_occupancy() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_dispatch_overhead_panics() {
        let (target, _) = setup();
        let _ = InFlightSimBackend::new(&target).with_dispatch_overhead_ms(-1.0);
    }

    #[test]
    fn the_timeline_accrues_idle_only_between_spans() {
        let mut timeline = DeviceTimeline::new(1).with_dispatch_overhead_ms(2.0);
        let (s0, c0) = timeline.occupy(0.0, 10.0);
        assert!((s0 - 2.0).abs() < 1e-12 && (c0 - 12.0).abs() < 1e-12);
        assert!(timeline.idle_ms().abs() < 1e-12, "lead-in is not idle");
        // Back-to-back: queues behind the first span, no gap.
        let (s1, c1) = timeline.occupy(3.0, 4.0);
        assert!((s1 - 12.0).abs() < 1e-12 && (c1 - 16.0).abs() < 1e-12);
        assert!(timeline.idle_ms().abs() < 1e-12);
        // A late submit leaves the device dark for 100 - 16 + 2 ms.
        let (s2, _) = timeline.occupy(100.0, 1.0);
        assert!((s2 - 102.0).abs() < 1e-12);
        assert!((timeline.idle_ms() - 86.0).abs() < 1e-12);
        assert!((timeline.busy_ms() - 15.0).abs() < 1e-12);
        assert!((timeline.free_ms() - 103.0).abs() < 1e-12);
    }

    #[test]
    fn extra_lanes_run_spans_side_by_side() {
        let mut timeline = DeviceTimeline::new(2);
        let (a_start, a_done) = timeline.occupy(0.0, 10.0);
        let (b_start, b_done) = timeline.occupy(0.0, 10.0);
        assert!((a_start - b_start).abs() < 1e-12, "second lane is free");
        assert!((a_done - b_done).abs() < 1e-12);
        // Third span queues behind the earlier-free lane (index 0).
        let (c_start, _) = timeline.occupy(0.0, 3.0);
        assert!((c_start - 10.0).abs() < 1e-12);
        assert!(timeline.idle_ms().abs() < 1e-12);
        assert!((timeline.busy_ms() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn an_unbounded_timeline_never_queues() {
        let mut timeline = DeviceTimeline::new(0).with_dispatch_overhead_ms(1.0);
        let (a, _) = timeline.occupy(0.0, 50.0);
        let (b, _) = timeline.occupy(0.0, 50.0);
        assert!((a - 1.0).abs() < 1e-12 && (b - 1.0).abs() < 1e-12);
        assert!(timeline.free_ms().abs() < 1e-12);
        assert!(timeline.idle_ms().abs() < 1e-12);
    }

    #[test]
    fn backend_counters_expose_the_device_busy_and_idle_time() {
        let (target, audio) = setup();
        let latency = target.profile().latency().clone();
        let mut backend = InFlightSimBackend::new(&target);
        let service = latency.forward_pass_ms(8);
        backend.submit(&batch_of(&[(&audio[0], 8)]), 0.0);
        backend.submit(&batch_of(&[(&audio[1], 8)]), service + 25.0);
        let counters = backend.counters();
        assert!((counters.device_busy_ms - 2.0 * service).abs() < 1e-9);
        assert!((counters.device_idle_ms - 25.0).abs() < 1e-9);
        let mut absorbed = BackendCounters::default();
        absorbed.absorb(&counters);
        absorbed.absorb(&counters);
        assert!((absorbed.device_idle_ms - 50.0).abs() < 1e-9);
    }
}
