//! The sharded serving front end: least-loaded placement over N
//! independent scheduler workers, with work stealing on queue imbalance.
//!
//! One [`crate::Scheduler`] owns one draft/target model pair — one
//! accelerator's worth of serving capacity.  A [`Router`] scales past that by
//! owning a fleet of [`Worker`]s and placing every incoming request:
//!
//! 1. **Least-loaded placement** — a request joins the active worker that
//!    holds the fewest requests (queued plus in flight) per unit of
//!    [`WorkerProfile::speed`], ties going to the lowest slot, so placement
//!    is deterministic and follows the load the fleet holds at the instant
//!    of arrival.  A drain re-routes through the same choice.
//! 2. **Work stealing** — whenever one worker's queue is deeper than the
//!    shallowest queue by more than the configured threshold, the router
//!    moves the newest-arrived excess requests over, repairing skew that
//!    builds up after placement (one worker's batch drains faster than
//!    another's).
//!
//! Workers run on simulated clocks that only advance while they tick.  The
//! router keeps those clocks coherent on a single global timeline: it always
//! ticks the busy worker furthest *behind* in wall time, and fast-forwards
//! idle workers when time passes them by ([`Router::advance_to`], the
//! open-loop load-generation entry point).

use std::cell::{Ref, RefCell};
use std::sync::Arc;

use specasr::{Drafter, DrafterKind, Policy};
use specasr_audio::{EncoderProfile, Utterance};
use specasr_metrics::Histogram;
use specasr_models::{AsrDecoderModel, TokenizerBinding};

use crate::config::{RouterConfig, WorkerProfile};
use crate::request::{RequestId, RequestOutcome, RequestSpec, SloClass, SubmitError};
use crate::scheduler::{GrownBuffers, Scheduler};
use crate::stats::ServerStats;
use crate::worker::{Worker, WorkerId};
use specasr_trace::{FlightRecording, MetricsRegistry, TraceConfig, TraceEvent, Tracer};

/// A multi-worker sharded serving router.
///
/// # Example
///
/// ```
/// use specasr::{AdaptiveConfig, Policy};
/// use specasr_audio::{Corpus, EncoderProfile, Split};
/// use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
/// use specasr_server::{Router, RouterConfig};
///
/// let corpus = Corpus::librispeech_like(5, 4);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
/// let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
///
/// let mut router = Router::new(
///     RouterConfig::default().with_workers(2),
///     binding,
///     EncoderProfile::whisper_medium_encoder(),
///     |_worker| (draft.clone(), target.clone()),
/// );
/// let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
/// for utterance in corpus.split(Split::TestClean) {
///     router.submit(policy, utterance).expect("queues have room");
/// }
/// let outcomes = router.run_until_idle();
/// assert_eq!(outcomes.len(), 4);
/// assert!(router.fleet_stats().utterances_per_second() > 0.0);
/// ```
#[derive(Debug)]
pub struct Router<D, T> {
    config: RouterConfig,
    binding: TokenizerBinding,
    encoder: EncoderProfile,
    workers: Vec<Worker<D, T>>,
    /// Drafters installed fleet-wide (submission-time validation, and
    /// replayed onto workers that join later).
    installed: Vec<Arc<dyn Drafter + Send + Sync>>,
    next_id: u64,
    /// Next worker ordinal: ids are never reused, even after removal.
    next_ordinal: usize,
    now_ms: f64,
    /// The trace configuration applied fleet-wide (late joiners inherit it).
    trace: TraceConfig,
    /// Fleet-lifecycle lane: membership and migration events that belong to
    /// the router, not to any single worker.
    fleet_tracer: Tracer,
    /// Merged statistics of workers that drained and left the fleet.
    retired_stats: ServerStats,
    /// Flight recordings of removed workers, kept until taken.
    retired_recordings: Vec<(String, FlightRecording)>,
    retired_stolen_in: usize,
    retired_stolen_out: usize,
    /// Buffers of reaped workers, one set per worker reaped and not yet
    /// replaced: the next joiner serves from them.
    grown: Vec<GrownBuffers>,
    /// The fleet aggregate a scrape refills in place (a scrape takes
    /// `&self`).  Borrowed only inside [`Router::publish_metrics`].
    fleet_aggregate: RefCell<ServerStats>,
    /// The registry [`Router::fleet_metrics`] refreshes and lends out.
    exposition: RefCell<MetricsRegistry>,
}

/// Mutably borrows two distinct workers at once (the migration fast path
/// moves KV blocks from one worker's pool straight into another's).
fn two_mut<D, T>(
    workers: &mut [Worker<D, T>],
    a: usize,
    b: usize,
) -> (&mut Worker<D, T>, &mut Worker<D, T>) {
    assert_ne!(a, b, "cannot borrow one worker twice");
    if a < b {
        let (left, right) = workers.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = workers.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}

impl<D, T> Router<D, T>
where
    D: AsrDecoderModel,
    T: AsrDecoderModel,
{
    /// Creates a router with `config.workers` schedulers, asking
    /// `make_models` for each worker's draft/target pair (workers model
    /// independent accelerators, so each gets its own pair).  With
    /// [`RouterConfig::rpc_backend`] set, every worker's target model moves
    /// behind an [`RpcBackend`](specasr_models::RpcBackend) process boundary
    /// (a worker thread speaking the serialized wire format) instead of the
    /// in-process simulator — transcripts are identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`RouterConfig::validate`]).
    pub fn new(
        config: RouterConfig,
        binding: TokenizerBinding,
        encoder: EncoderProfile,
        make_models: impl FnMut(WorkerId) -> (D, T),
    ) -> Self
    where
        T: Send + 'static,
    {
        let profiles = vec![WorkerProfile::default(); config.workers];
        Router::with_profiles(config, binding, encoder, &profiles, make_models)
    }

    /// [`Router::new`] for a heterogeneous fleet: one [`WorkerProfile`] per
    /// worker.  A profile's `speed` normalizes the worker's load in the
    /// placement choice and its queue depth in the steal comparison; its
    /// overrides reshape that worker's scheduler configuration.
    /// All-default profiles reproduce [`Router::new`] exactly — placement,
    /// stealing, and transcripts are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `config` or any profile is invalid, or if the profile count
    /// does not match `config.workers`.
    pub fn with_profiles(
        config: RouterConfig,
        binding: TokenizerBinding,
        encoder: EncoderProfile,
        profiles: &[WorkerProfile],
        mut make_models: impl FnMut(WorkerId) -> (D, T),
    ) -> Self
    where
        T: Send + 'static,
    {
        config.validate();
        assert_eq!(
            profiles.len(),
            config.workers,
            "heterogeneous fleets need exactly one profile per worker"
        );
        let workers: Vec<Worker<D, T>> = profiles
            .iter()
            .enumerate()
            .map(|(index, profile)| {
                profile.validate();
                let id = WorkerId::new(index);
                let (draft, target) = make_models(id);
                let worker_config = profile.apply(config.worker);
                worker_config.validate();
                let scheduler = if config.rpc_backend {
                    Scheduler::with_rpc_target(
                        draft,
                        target,
                        binding.clone(),
                        encoder.clone(),
                        worker_config,
                    )
                } else {
                    Scheduler::new(
                        draft,
                        target,
                        binding.clone(),
                        encoder.clone(),
                        worker_config,
                    )
                };
                Worker::new(id, *profile, scheduler)
            })
            .collect();
        Router {
            config,
            binding,
            encoder,
            workers,
            installed: Vec::new(),
            next_id: 0,
            next_ordinal: config.workers,
            now_ms: 0.0,
            trace: TraceConfig::disabled(),
            fleet_tracer: Tracer::disabled(),
            retired_stats: ServerStats::new(),
            retired_recordings: Vec::new(),
            retired_stolen_in: 0,
            retired_stolen_out: 0,
            grown: Vec::new(),
            fleet_aggregate: RefCell::default(),
            exposition: RefCell::default(),
        }
    }

    /// The router configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The fleet's workers, for per-worker inspection.
    pub fn workers(&self) -> &[Worker<D, T>] {
        &self.workers
    }

    /// The global timeline position in milliseconds: the latest deadline
    /// passed to [`Router::advance_to`] or [`Router::advance_into`], or the
    /// latest clock a worker reached in a [`Router::run_until_idle`] tick,
    /// whichever is later.  A submit stamps its arrival with it.
    /// `advance_into` folds in only its deadline, and a worker it ticked
    /// past that deadline runs ahead of this clock, so a completion can land
    /// after it (an outcome completes at its arrival plus
    /// [`RequestOutcome::e2e_ms`]).
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Requests waiting in any worker's queue.
    pub fn queued(&self) -> usize {
        self.workers.iter().map(Worker::queue_depth).sum()
    }

    /// Sessions decoding right now across the fleet.
    pub fn in_flight(&self) -> usize {
        self.workers.iter().map(Worker::in_flight).sum()
    }

    /// `true` when no worker has anything queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.workers.iter().all(Worker::is_idle)
    }

    /// Total requests moved between workers by stealing (including by
    /// workers that have since left the fleet).
    pub fn stolen(&self) -> usize {
        self.workers.iter().map(Worker::stolen_in).sum::<usize>() + self.retired_stolen_in
    }

    /// Submits one utterance under `spec`, arriving now on the global
    /// timeline (a bare [`Policy`] is a model-drafted request with no
    /// budget; see [`RequestSpec`]).
    ///
    /// The request is placed on the least-loaded active worker; if that
    /// worker's queue is full the request spills to the shallowest queue
    /// instead, and only when that is also full is the request rejected
    /// (fleet-wide backpressure).
    ///
    /// # Panics
    ///
    /// Panics if the spec names a draft-free kind that was not installed
    /// fleet-wide with [`Router::install_drafter`].
    pub fn submit(
        &mut self,
        spec: impl Into<RequestSpec>,
        utterance: &Utterance,
    ) -> Result<RequestId, SubmitError> {
        let spec = spec.into();
        assert!(
            spec.drafter == DrafterKind::ModelDraft
                || self.installed.iter().any(|d| d.kind() == spec.drafter),
            "no {} drafter installed; call install_drafter first",
            spec.drafter.label()
        );
        let id = RequestId::new(self.next_id);
        let primary = self.lightest_active(Worker::load);
        let candidate = if self.workers[primary].queue_depth() < self.config.worker.queue_depth {
            primary
        } else {
            self.lightest_active(|worker| worker.queue_depth() as f64)
        };
        if self.workers[candidate].queue_depth() >= self.config.worker.queue_depth {
            // Every queue is full: reject before tokenizing (the rejection
            // lands on the least-loaded worker, the one placement chose).
            return Err(self.workers[primary].scheduler.reject());
        }
        self.next_id += 1;
        // A spare session from any worker before a new one: the worker that
        // retires a request is often not the one its next arrival lands on.
        let spare = self.workers[candidate].scheduler.take_spare().or_else(|| {
            self.workers
                .iter_mut()
                .find_map(|worker| worker.scheduler.take_spare())
        });
        let worker = &mut self.workers[candidate];
        if worker.is_idle() {
            // An idle worker's clock lags the timeline; wake it at the
            // arrival instant so its queueing delay starts from zero.
            worker.scheduler.sync_wall_to(self.now_ms);
        }
        worker
            .scheduler
            .enqueue_offline(id, self.now_ms, spare, spec, utterance);
        Ok(id)
    }

    /// Submits a request drafted by `drafter`, with no budget: a single
    /// call to [`Router::submit`] with `RequestSpec { drafter,
    /// ..policy.into() }`.  The benchmark (`specbench/`) calls it by name.
    pub fn submit_with_drafter(
        &mut self,
        policy: Policy,
        drafter: DrafterKind,
        utterance: &Utterance,
    ) -> Result<RequestId, SubmitError> {
        self.submit(
            RequestSpec {
                drafter,
                ..policy.into()
            },
            utterance,
        )
    }

    /// Runs one fleet iteration: rebalance queues, then tick the busy worker
    /// furthest behind in wall time (event-driven, so worker clocks stay on
    /// one coherent global timeline).  Appends the requests that finished
    /// this tick to `outcomes`.
    fn tick_into(&mut self, outcomes: &mut Vec<RequestOutcome>) {
        self.rebalance();
        let Some(index) = self.laggard() else {
            return;
        };
        self.workers[index].scheduler.tick(outcomes);
        self.now_ms = self.now_ms.max(self.workers[index].wall_ms());
    }

    /// Ticks until every queued and in-flight request has completed across
    /// the fleet, and returns all outcomes in completion order.
    pub fn run_until_idle(&mut self) -> Vec<RequestOutcome> {
        let mut outcomes = Vec::new();
        while !self.is_idle() {
            self.tick_into(&mut outcomes);
        }
        outcomes
    }

    /// Advances the global timeline to `deadline_ms`, ticking busy workers
    /// up to (at least) that instant and fast-forwarding idle workers.
    ///
    /// This is the open-loop entry point: between two Poisson arrivals the
    /// fleet keeps serving, and whatever completes is returned.
    pub fn advance_to(&mut self, deadline_ms: f64) -> Vec<RequestOutcome> {
        let mut outcomes = Vec::new();
        self.advance_into(deadline_ms, &mut outcomes);
        outcomes
    }

    /// [`Router::advance_to`], appending what completes to `outcomes`: a
    /// caller that advances in steps fills one list.
    pub fn advance_into(&mut self, deadline_ms: f64, outcomes: &mut Vec<RequestOutcome>) {
        loop {
            self.rebalance();
            let behind = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, worker)| !worker.is_idle() && worker.wall_ms() < deadline_ms)
                .min_by(|(_, a), (_, b)| {
                    a.wall_ms()
                        .partial_cmp(&b.wall_ms())
                        .expect("wall clocks are finite")
                })
                .map(|(index, _)| index);
            let Some(index) = behind else { break };
            self.workers[index].scheduler.tick(outcomes);
        }
        for worker in &mut self.workers {
            if worker.is_idle() {
                worker.scheduler.sync_wall_to(deadline_ms);
            }
        }
        self.now_ms = self.now_ms.max(deadline_ms);
    }

    /// Adds a worker to the fleet at the current timeline instant, with
    /// capacity `profile`, and returns its (never reused) id.
    ///
    /// The joiner starts on the fleet's *current* clock — not at zero — so
    /// the first requests it serves see correct queueing spans; it inherits
    /// the fleet's trace configuration and every drafter installed so far,
    /// and, holding nothing, takes the next placements.  It serves
    /// from the tick scratch and spare sessions of a reaped worker, when one
    /// left some, instead of growing its own from empty.
    ///
    /// # Panics
    ///
    /// Panics if `profile` (or the worker configuration it produces) is
    /// invalid.
    pub fn add_worker(
        &mut self,
        profile: WorkerProfile,
        make_models: impl FnOnce(WorkerId) -> (D, T),
    ) -> WorkerId
    where
        T: Send + 'static,
    {
        profile.validate();
        let id = WorkerId::new(self.next_ordinal);
        self.next_ordinal += 1;
        let (draft, target) = make_models(id);
        let worker_config = profile.apply(self.config.worker);
        worker_config.validate();
        let mut scheduler = if self.config.rpc_backend {
            Scheduler::with_rpc_target(
                draft,
                target,
                self.binding.clone(),
                self.encoder.clone(),
                worker_config,
            )
        } else {
            Scheduler::new(
                draft,
                target,
                self.binding.clone(),
                self.encoder.clone(),
                worker_config,
            )
        };
        // A late joiner must start on the fleet timeline: left at zero, its
        // first arrivals would be stamped in its future and every latency
        // span would clamp to nothing.
        scheduler.sync_wall_to(self.now_ms);
        scheduler.set_trace(self.trace);
        for drafter in &self.installed {
            scheduler.install_drafter(Arc::clone(drafter));
        }
        if let Some(buffers) = self.grown.pop() {
            scheduler.adopt_buffers(buffers);
        }
        self.workers.push(Worker::new(id, profile, scheduler));
        let ts_ms = self.now_ms;
        self.fleet_tracer.record_with(|| TraceEvent::WorkerAdded {
            ts_ms,
            worker: id.index() as u64,
        });
        id
    }

    /// Moves worker `id` from `Active` to `Draining`: it receives no more
    /// placements, and its queued requests and migratable in-flight
    /// sessions move, one at a time, to the least-loaded active worker —
    /// a session via the same-machine block-table hand-off when the
    /// destination has batch and KV headroom (no re-prefill), via
    /// preempt-and-restore otherwise.  Streaming sessions finish on the
    /// draining worker (their chunk timetables are anchored to it); once it
    /// has nothing left, [`Router::reap_drained`] removes it.
    ///
    /// Returns the number of in-flight sessions migrated.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the fleet, is already draining, or is the
    /// last active worker.
    pub fn drain_worker(&mut self, id: WorkerId) -> usize {
        let slot = self
            .workers
            .iter()
            .position(|worker| worker.id() == id)
            .expect("cannot drain a worker that is not in the fleet");
        assert!(
            !self.workers[slot].is_draining(),
            "{id} is already draining"
        );
        let active = self
            .workers
            .iter()
            .filter(|worker| !worker.is_draining())
            .count();
        assert!(
            active > 1,
            "draining the last active worker would strand the fleet"
        );
        self.workers[slot].set_draining();
        let ts_ms = self.now_ms;
        self.fleet_tracer
            .record_with(|| TraceEvent::WorkerDraining {
                ts_ms,
                worker: id.index() as u64,
            });

        // Queued requests re-route as placements do.  Migration never
        // drops a request, so re-admission bypasses the queue-depth check —
        // a transiently over-deep destination sheds load through the
        // ordinary admission path afterwards.
        let queued = self.workers[slot].scheduler.drain_queue();
        for request in queued {
            let dest = self.lightest_active(Worker::load);
            self.workers[dest].scheduler.enqueue_moved(request);
        }

        // In-flight offline sessions migrate live.
        let sessions = self.workers[slot].scheduler.extract_migratable();
        let mut migrated = 0;
        for mut session in sessions {
            let dest = self.lightest_active(Worker::load);
            let request = session.id.value();
            if self.workers[dest].is_idle() && self.workers[dest].wall_ms() < self.now_ms {
                self.workers[dest].scheduler.sync_wall_to(self.now_ms);
            }
            // Fast path: hand the session's block tables to the destination
            // pool directly — decode state survives, no re-prefill.  Falls
            // back to preempt-and-restore when the destination lacks batch
            // room or KV headroom.
            let handoff = self.workers[dest].scheduler.has_batch_room() && {
                let (source, destination) = two_mut(&mut self.workers, slot, dest);
                session
                    .decode
                    .migrate_kv(
                        source.scheduler.kv_pool_mut(),
                        destination.scheduler.kv_pool_mut(),
                    )
                    .is_ok()
            };
            if handoff {
                self.workers[dest].scheduler.adopt_session(session);
            } else {
                session
                    .decode
                    .release_kv(self.workers[slot].scheduler.kv_pool_mut());
                let requeued = session.into_requeued(true, self.workers[dest].wall_ms());
                self.workers[dest].scheduler.enqueue_moved(requeued);
            }
            self.workers[dest].scheduler.record_migration_in(handoff);
            migrated += 1;
            let to_worker = self.workers[dest].id().index() as u64;
            self.fleet_tracer
                .record_with(|| TraceEvent::SessionMigrated {
                    ts_ms,
                    request,
                    from_worker: id.index() as u64,
                    to_worker,
                    handoff,
                });
        }
        migrated
    }

    /// Removes every draining worker that has gone fully idle, preserving
    /// its statistics and flight recording in the fleet aggregates and
    /// keeping its tick scratch and spare sessions for the next joiner.
    /// Returns the removed ids (in fleet order).
    pub fn reap_drained(&mut self) -> Vec<WorkerId> {
        let mut removed = Vec::new();
        let mut slot = 0;
        while slot < self.workers.len() {
            if self.workers[slot].is_draining() && self.workers[slot].is_idle() {
                let mut worker = self.workers.remove(slot);
                self.retired_stats.merge(worker.stats());
                self.retired_stolen_in += worker.stolen_in();
                self.retired_stolen_out += worker.stolen_out();
                if let Some(recording) = worker.scheduler.take_trace_recording() {
                    self.retired_recordings
                        .push((worker.id().to_string(), recording));
                }
                self.grown.push(worker.scheduler.take_buffers());
                let ts_ms = self.now_ms;
                let ordinal = worker.id().index() as u64;
                self.fleet_tracer.record_with(|| TraceEvent::WorkerRemoved {
                    ts_ms,
                    worker: ordinal,
                });
                removed.push(worker.id());
            } else {
                slot += 1;
            }
        }
        removed
    }

    /// Workers currently serving (receiving placements).
    pub fn active_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|worker| !worker.is_draining())
            .count()
    }

    /// Workers winding down (no new placements, finishing local work).
    pub fn draining_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|worker| worker.is_draining())
            .count()
    }

    /// Fleet-wide statistics: every worker's [`ServerStats`] merged with
    /// parallel-fleet semantics (see [`ServerStats::merge`]), including
    /// workers that have since drained and left the fleet.
    pub fn fleet_stats(&self) -> ServerStats {
        let mut merged = self.retired_stats.clone();
        for worker in &self.workers {
            merged.merge(worker.stats());
        }
        merged
    }

    /// P99 of one SLO class's end-to-end latency across the fleet, reaped
    /// workers included.  The workers' histograms are read in place
    /// ([`Histogram::percentile_of`]), so this reads
    /// `self.fleet_stats().slo_class(class).e2e_p99_ms()` bit for bit
    /// without merging the fleet's statistics.
    pub fn slo_e2e_p99_ms(&self, class: SloClass) -> f64 {
        let parts = std::iter::once(&self.retired_stats)
            .chain(self.workers.iter().map(Worker::stats))
            .map(|stats| stats.slo_class(class).e2e_histogram());
        Histogram::percentile_of(parts, 0.99)
    }

    /// Installs a draft-free draft source on every worker (workers share the
    /// `Arc`; drafters are immutable).  Required before submitting requests
    /// with the matching [`DrafterKind`] — stealing and spilling can land a
    /// request on any worker, so installation is fleet-wide by construction.
    pub fn install_drafter(&mut self, drafter: Arc<dyn Drafter + Send + Sync>) {
        for worker in &mut self.workers {
            worker.scheduler.install_drafter(Arc::clone(&drafter));
        }
        // Kept for submission-time validation and replayed onto late
        // joiners; re-installing a kind replaces it.
        if let Some(slot) = self
            .installed
            .iter_mut()
            .find(|installed| installed.kind() == drafter.kind())
        {
            *slot = drafter;
        } else {
            self.installed.push(drafter);
        }
    }

    /// Applies `config` to every worker's flight recorder.  Enabling starts
    /// a fresh ring on each worker; disabling drops any recorded events.
    pub fn set_trace(&mut self, config: TraceConfig) {
        self.trace = config;
        self.fleet_tracer = Tracer::new(config);
        for worker in &mut self.workers {
            worker.scheduler.set_trace(config);
        }
    }

    /// Takes every worker's flight recording, labelled by worker id (the
    /// Perfetto exporter's lane list).  Workers without tracing enabled are
    /// skipped; each enabled worker restarts with an empty ring.
    pub fn take_recordings(&mut self) -> Vec<(String, FlightRecording)> {
        let mut recordings = Vec::new();
        // The fleet lane (membership and migration events) leads, so the
        // Perfetto export shows lanes appearing and disappearing next to
        // the lifecycle instants that explain them.
        if let Some(recording) = self.fleet_tracer.take_recording() {
            if !recording.is_empty() {
                recordings.push(("fleet".to_string(), recording));
            }
        }
        recordings.append(&mut self.retired_recordings);
        recordings.extend(self.workers.iter_mut().filter_map(|worker| {
            let recording = worker.scheduler.take_trace_recording()?;
            Some((worker.id().to_string(), recording))
        }));
        recordings
    }

    /// Fleet-wide metrics registry (the Prometheus-style exposition
    /// source): what [`Self::fleet_stats`] published into a fresh
    /// [`MetricsRegistry`] holds.
    ///
    /// The router keeps one registry and refreshes it in place through
    /// [`Self::publish_metrics`], so once warm a scrape allocates nothing
    /// but the text `render` returns.
    pub fn fleet_metrics(&self) -> Ref<'_, MetricsRegistry> {
        // The refresh is skipped only while an earlier result is held.  That
        // result borrows the router, so nothing has been served since it
        // was refreshed, and the kept registry is already current.
        if let Ok(mut kept) = self.exposition.try_borrow_mut() {
            self.publish_metrics(&mut kept);
        }
        self.exposition.borrow()
    }

    /// Publishes the fleet aggregate [`Self::fleet_stats`] returns into
    /// `registry`.  The aggregate is merged into statistics the router
    /// keeps, reusing their buffers, instead of a fresh clone.
    pub fn publish_metrics(&self, registry: &mut MetricsRegistry) {
        let mut aggregate = self.fleet_aggregate.borrow_mut();
        let parts =
            std::iter::once(&self.retired_stats).chain(self.workers.iter().map(Worker::stats));
        aggregate.refill(parts);
        aggregate.publish_metrics(registry);
    }

    /// The busy worker furthest behind in wall time.
    fn laggard(&self) -> Option<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, worker)| !worker.is_idle())
            .min_by(|(_, a), (_, b)| {
                a.wall_ms()
                    .partial_cmp(&b.wall_ms())
                    .expect("wall clocks are finite")
            })
            .map(|(index, _)| index)
    }

    /// The *active* worker with the least `measure`: [`Worker::load`] for
    /// placement and for moves off a draining worker, the queue depth for
    /// spills and steals.  Ties break to the lowest slot (`min_by` keeps
    /// the first of equal minima), keeping the fleet deterministic.
    /// Draining workers never receive a request.
    fn lightest_active(&self, measure: impl Fn(&Worker<D, T>) -> f64) -> usize {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, worker)| !worker.is_draining())
            .min_by(|(_, a), (_, b)| measure(a).total_cmp(&measure(b)))
            .map(|(index, _)| index)
            .expect("a router always has at least one active worker")
    }

    /// Work stealing: while the deepest queue exceeds the shallowest active
    /// queue by more than the steal threshold — both *speed-normalized*, so
    /// a 4× worker looks a quarter as deep as its raw count — move the
    /// newest half of the raw imbalance over.  With all-default profiles
    /// this is exactly the unweighted integer comparison.
    fn rebalance(&mut self) {
        if self.workers.len() < 2 {
            return;
        }
        loop {
            let deep = self
                .workers
                .iter()
                .enumerate()
                .max_by(|(slot_a, a), (slot_b, b)| {
                    a.normalized_depth()
                        .partial_cmp(&b.normalized_depth())
                        .expect("queue depths are finite")
                        .then(slot_b.cmp(slot_a))
                })
                .map(|(index, _)| index)
                .expect("fleet is non-empty");
            let shallow = self.lightest_active(|worker| worker.queue_depth() as f64);
            if deep == shallow
                || self.workers[deep].normalized_depth()
                    <= self.workers[shallow].normalized_depth() + self.config.steal_threshold as f64
            {
                return;
            }
            let deep_depth = self.workers[deep].queue_depth();
            let shallow_depth = self.workers[shallow].queue_depth();
            let room = self.config.worker.queue_depth.saturating_sub(shallow_depth);
            let transfer = (deep_depth.saturating_sub(shallow_depth) / 2).min(room);
            if transfer == 0 {
                return;
            }
            let (victim, thief) = two_mut(&mut self.workers, deep, shallow);
            for request in victim.scheduler.steal_back(transfer) {
                victim.stolen_out += 1;
                thief.scheduler.enqueue_moved(request);
                thief.stolen_in += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr::{AdaptiveConfig, SpeculativeConfig};
    use specasr_audio::{Corpus, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel};

    use crate::config::ServerConfig;

    /// A worker's draft/target model pair.
    fn models() -> (SimulatedAsrModel, SimulatedAsrModel) {
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target)
    }

    fn router(config: RouterConfig) -> (Router<SimulatedAsrModel, SimulatedAsrModel>, Corpus) {
        let corpus = Corpus::librispeech_like(88, 12);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let router = Router::new(
            config,
            binding,
            EncoderProfile::whisper_medium_encoder(),
            |_| models(),
        );
        (router, corpus)
    }

    /// What every worker holds, queued plus in flight.
    fn held(router: &Router<SimulatedAsrModel, SimulatedAsrModel>) -> Vec<usize> {
        router
            .workers()
            .iter()
            .map(|worker| worker.queue_depth() + worker.in_flight())
            .collect()
    }

    /// The slot least-loaded placement must pick: the lowest active slot
    /// holding the fewest requests per unit of speed, computed from
    /// outside the router.
    fn expected_slot(router: &Router<SimulatedAsrModel, SimulatedAsrModel>) -> usize {
        let held = held(router);
        let mut best: Option<(f64, usize)> = None;
        for (slot, worker) in router.workers().iter().enumerate() {
            let load = held[slot] as f64 / worker.profile().speed;
            if !worker.is_draining() && best.is_none_or(|(least, _)| load < least) {
                best = Some((load, slot));
            }
        }
        best.expect("an active worker").1
    }

    /// The slot whose holdings grew between two snapshots.
    fn grown_slot(before: &[usize], after: &[usize]) -> usize {
        let grown: Vec<usize> = (0..before.len())
            .filter(|&slot| after[slot] > before[slot])
            .collect();
        assert_eq!(grown.len(), 1, "one worker took the request");
        grown[0]
    }

    #[test]
    fn a_submit_joins_the_active_worker_with_the_least_load_per_unit_of_speed() {
        let corpus = Corpus::librispeech_like(88, 12);
        let profiles = [
            WorkerProfile::default(),
            WorkerProfile::default().with_speed(3.0),
            WorkerProfile::default().with_speed(0.5),
        ];
        let mut router = Router::with_profiles(
            RouterConfig::default()
                .with_workers(3)
                .with_steal_threshold(1_000)
                .with_worker_config(ServerConfig::default().with_max_batch(2)),
            TokenizerBinding::for_corpus(&corpus),
            EncoderProfile::whisper_medium_encoder(),
            &profiles,
            |_| models(),
        );
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut taken = [0usize; 3];
        for (index, utterance) in corpus.split(Split::TestClean).iter().enumerate() {
            // Ticks in between admit queued requests and retire finished
            // ones, so the load compared mixes queue and batch.
            if index % 3 == 2 {
                router.tick_into(&mut Vec::new());
            }
            let expected = expected_slot(&router);
            let before = held(&router);
            router.submit(policy, utterance).expect("queues have room");
            assert_eq!(grown_slot(&before, &held(&router)), expected);
            taken[expected] += 1;
        }
        assert!(
            router.in_flight() > 0,
            "the load compared included sessions in flight"
        );
        assert!(
            taken[1] > taken[0] && taken[0] > taken[2],
            "placements follow speed: {taken:?}"
        );
    }

    #[test]
    fn placement_ties_go_to_the_lowest_slot() {
        let (mut router, corpus) = router(RouterConfig::default().with_workers(3));
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut slots = Vec::new();
        for utterance in &corpus.split(Split::TestClean)[..7] {
            let before = held(&router);
            router.submit(policy, utterance).expect("queues have room");
            slots.push(grown_slot(&before, &held(&router)));
        }
        // An idle uniform fleet: every submit ties the lightest workers, and
        // the lowest of them takes it.
        assert_eq!(slots, [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn a_draining_worker_never_receives_a_placement() {
        let (mut router, corpus) = router(RouterConfig::default().with_workers(3));
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        // Slot 0 would win every tie; draining it leaves it the lightest.
        router.drain_worker(WorkerId::new(0));
        for utterance in corpus.split(Split::TestClean) {
            router.submit(policy, utterance).expect("queues have room");
            assert_eq!(held(&router)[0], 0, "the draining worker took a request");
        }
        assert_eq!(held(&router), [0, 6, 6]);
    }

    #[test]
    fn a_drain_moves_requests_and_sessions_to_the_least_loaded_worker() {
        let (mut router, corpus) = router(
            RouterConfig::default()
                .with_workers(3)
                .with_steal_threshold(1_000)
                .with_worker_config(ServerConfig::default().with_max_batch(2)),
        );
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        for utterance in corpus.split(Split::TestClean) {
            router.submit(policy, utterance).expect("queues have room");
        }
        // Every worker admits its batch; worker 0 then serves on until it
        // has retired requests, so the survivors hold unequal loads.
        for slot in 0..3 {
            router.workers[slot].scheduler.tick(&mut Vec::new());
        }
        let mut retired = Vec::new();
        while retired.len() < 2 {
            router.workers[0].scheduler.tick(&mut retired);
        }
        let leaving = router.workers()[2].id();
        let queued = router.workers()[2].queue_depth();
        let sessions = router.workers()[2].in_flight();
        assert!(queued > 0 && sessions > 0, "the leaver holds both kinds");
        let mut expected = held(&router);
        expected[2] = 0;
        assert!(expected[0] < expected[1], "the survivors start unequal");
        for _ in 0..queued + sessions {
            // Each moved request or session adds one to its destination,
            // queued (re-routed or restored) or in flight (handed off).
            let lightest = if expected[0] <= expected[1] { 0 } else { 1 };
            expected[lightest] += 1;
        }
        assert_eq!(router.drain_worker(leaving), sessions);
        assert_eq!(held(&router), expected);
    }

    #[test]
    fn fleet_completes_every_request_exactly_once() {
        let (mut router, corpus) = router(RouterConfig::default().with_workers(4));
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let mut ids = Vec::new();
        for split in Split::ALL {
            for utterance in corpus.split(split) {
                ids.push(router.submit(policy, utterance).expect("queues have room"));
            }
        }
        let outcomes = router.run_until_idle();
        assert_eq!(outcomes.len(), ids.len());
        let mut completed: Vec<u64> = outcomes.iter().map(|o| o.id.value()).collect();
        completed.sort_unstable();
        let mut expected: Vec<u64> = ids.iter().map(|id| id.value()).collect();
        expected.sort_unstable();
        assert_eq!(completed, expected);
        assert_eq!(router.fleet_stats().completed(), ids.len());
        assert!(router.is_idle());
    }

    #[test]
    fn work_stealing_rebalances_a_skewed_fleet() {
        // One-slot batches plus a depth-1 steal threshold: queues that
        // placement left even skew as soon as one worker's requests finish
        // faster than the other's.
        let (mut router, corpus) = router(
            RouterConfig::default()
                .with_workers(2)
                .with_steal_threshold(1)
                .with_worker_config(ServerConfig::default().with_max_batch(1)),
        );
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        for split in Split::ALL {
            for utterance in corpus.split(split) {
                router.submit(policy, utterance).expect("queues have room");
            }
        }
        router.tick_into(&mut Vec::new());
        let depths: Vec<usize> = router.workers().iter().map(Worker::queue_depth).collect();
        let spread = depths.iter().max().unwrap() - depths.iter().min().unwrap();
        assert!(
            spread <= router.config().steal_threshold,
            "queues stay balanced after rebalancing, got depths {depths:?}"
        );
        router.run_until_idle();
        assert!(
            router.stolen() > 0,
            "48 requests of uneven length over 2 workers must trigger stealing at threshold 1"
        );
        let stolen_out: usize = router.workers().iter().map(Worker::stolen_out).sum();
        assert_eq!(router.stolen(), stolen_out);
    }

    #[test]
    fn more_workers_serve_a_burst_faster() {
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let mut wall_by_fleet = Vec::new();
        for workers in [1usize, 4] {
            let (mut router, corpus) = router(
                RouterConfig::default()
                    .with_workers(workers)
                    .with_worker_config(ServerConfig::default().with_max_batch(4)),
            );
            for split in Split::ALL {
                for utterance in corpus.split(split) {
                    router.submit(policy, utterance).expect("queues have room");
                }
            }
            router.run_until_idle();
            wall_by_fleet.push(router.fleet_stats().wall_ms());
        }
        assert!(
            wall_by_fleet[1] < wall_by_fleet[0] / 2.0,
            "4 workers ({:.0} ms) should finish the burst well under half the 1-worker wall \
             time ({:.0} ms)",
            wall_by_fleet[1],
            wall_by_fleet[0]
        );
    }

    #[test]
    fn fleet_stats_and_histogram_aggregate_all_workers() {
        let (mut router, corpus) = router(RouterConfig::default().with_workers(3));
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        for utterance in corpus.split(Split::TestClean) {
            router.submit(policy, utterance).expect("queues have room");
        }
        router.run_until_idle();
        let fleet = router.fleet_stats();
        let per_worker: usize = router.workers().iter().map(|w| w.stats().completed()).sum();
        assert_eq!(fleet.completed(), per_worker);
        assert_eq!(fleet.completed(), 12);
        assert_eq!(fleet.e2e_histogram().count(), 12);
        assert!(fleet.e2e_p99_ms() >= fleet.e2e_p50_ms());
        assert!(fleet.ttft_p99_ms() >= fleet.ttft_p50_ms());
    }

    #[test]
    fn advance_to_fast_forwards_idle_workers() {
        let (mut router, corpus) = router(RouterConfig::default().with_workers(2));
        let outcomes = router.advance_to(1_000.0);
        assert!(outcomes.is_empty());
        assert!((router.now_ms() - 1_000.0).abs() < 1e-12);
        for worker in router.workers() {
            assert!((worker.wall_ms() - 1_000.0).abs() < 1e-12);
        }
        // A request arriving at t=1000 on an idle fleet must see zero queue
        // delay even though the fleet clock started at zero.
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let utterance = &corpus.split(Split::TestClean)[0];
        router.submit(policy, utterance).expect("queues have room");
        let outcomes = router.run_until_idle();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].latency.queue_ms.abs() < 1e-9);
        assert!(outcomes[0].e2e_ms() > 0.0);
    }

    #[test]
    fn interleaved_submission_never_yields_negative_latency_samples() {
        // Interleaving submit with tick advances the fleet timeline past
        // lagging workers' clocks, so arrivals can be stamped "in a worker's
        // future"; every latency span must still come out non-negative.
        let (mut router, corpus) = router(
            RouterConfig::default()
                .with_workers(3)
                .with_worker_config(ServerConfig::default().with_max_batch(2)),
        );
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let pool: Vec<_> = Split::ALL
            .iter()
            .flat_map(|&split| corpus.split(split))
            .collect();
        let mut outcomes = Vec::new();
        for (index, utterance) in pool.iter().enumerate() {
            router.submit(policy, utterance).expect("queues have room");
            // Uneven tick bursts maximise clock skew between workers.
            for _ in 0..(index % 4) {
                router.tick_into(&mut outcomes);
            }
        }
        outcomes.extend(router.run_until_idle());
        assert_eq!(outcomes.len(), pool.len());
        for outcome in &outcomes {
            assert!(outcome.latency.queue_ms >= 0.0, "negative queue delay");
            assert!(
                outcome.latency.decode_wall_ms >= 0.0,
                "negative decode wall"
            );
            assert!(
                outcome.latency.time_to_first_token_ms >= 0.0,
                "negative time to first token"
            );
            assert!(outcome.e2e_ms() > 0.0);
        }
    }

    #[test]
    fn a_joiner_serves_from_the_buffers_of_a_reaped_worker() {
        let (mut router, corpus) = router(
            RouterConfig::default()
                .with_workers(2)
                .with_worker_config(ServerConfig::default().with_max_batch(4)),
        );
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        for split in Split::ALL {
            for utterance in corpus.split(split) {
                router.submit(policy, utterance).expect("queues have room");
            }
        }
        router.run_until_idle();
        let leaver = router.workers()[1].id();
        let rounds = router.workers()[1].scheduler.scratch_rounds();
        let spares = router.workers()[1].scheduler.spare_sessions();
        assert!(rounds > 0 && spares > 0, "the leaver served requests");
        router.drain_worker(leaver);
        assert_eq!(router.reap_drained(), vec![leaver]);
        let joiner = router.add_worker(WorkerProfile::default(), |_| models());
        let joined = router
            .workers()
            .iter()
            .find(|worker| worker.id() == joiner)
            .expect("the joiner is in the fleet");
        assert_eq!(joined.scheduler.scratch_rounds(), rounds);
        assert_eq!(joined.scheduler.spare_sessions(), spares);
        // A second joiner has nothing left to inherit.
        let second = router.add_worker(WorkerProfile::default(), |_| models());
        let fresh = router
            .workers()
            .iter()
            .find(|worker| worker.id() == second)
            .expect("the joiner is in the fleet");
        assert_eq!(fresh.scheduler.scratch_rounds(), 0);
        // The inherited buffers serve the next requests losslessly.
        for utterance in corpus.split(Split::TestClean) {
            router.submit(policy, utterance).expect("queues have room");
        }
        assert_eq!(router.run_until_idle().len(), 12);
    }

    #[test]
    fn full_primary_queue_spills_to_the_shallowest_worker() {
        let (mut router, corpus) = router(
            RouterConfig::default()
                .with_workers(2)
                // Steal threshold high enough that rebalancing never runs,
                // isolating the submit-time spill path.
                .with_steal_threshold(1_000)
                .with_worker_config(ServerConfig::default().with_queue_depth(2)),
        );
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut accepted = 0;
        for split in Split::ALL {
            for utterance in corpus.split(split) {
                if router.submit(policy, utterance).is_ok() {
                    accepted += 1;
                }
            }
        }
        // Both queues fill before anything is rejected: 2 workers × depth 2.
        assert_eq!(accepted, 4);
        assert_eq!(router.queued(), 4);
        assert_eq!(router.fleet_stats().rejected(), 48 - 4);
    }
}
