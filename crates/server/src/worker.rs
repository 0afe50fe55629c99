//! One shard of a sharded serving fleet: a [`Scheduler`] plus its identity,
//! capacity profile, lifecycle state, and work-stealing accounting.

use specasr_models::AsrDecoderModel;

use crate::config::WorkerProfile;
use crate::scheduler::Scheduler;
use crate::stats::ServerStats;

/// Identity of one worker within a [`crate::Router`] fleet.
///
/// Ids are *stable*: they name the worker for its whole lifetime and are
/// never reused, even after the worker drains and leaves the fleet (its
/// position in the fleet vector, by contrast, shifts as workers are
/// reaped).  Traces and migration events name workers by this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(usize);

impl WorkerId {
    /// Builds an id from the worker's fleet ordinal.
    pub const fn new(index: usize) -> Self {
        WorkerId(index)
    }

    /// The worker's fleet ordinal (0-based, never reused).
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker-{}", self.0)
    }
}

/// Lifecycle state of a worker within the fleet.
///
/// `Active → Draining → removed` is the only legal progression.  A draining
/// worker receives no placements, admits nothing new, and hands its queued
/// and migratable in-flight work to the active workers; it stays in the
/// fleet only until whatever *must* finish locally (streaming sessions bound
/// to their chunk timetable) has completed, then
/// [`crate::Router::reap_drained`] removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkerState {
    /// Serving normally: receiving placements, admitting, stealing.
    Active,
    /// Winding down: no new placements, finishing local-only work.
    Draining,
}

/// One scheduler shard owned by a [`crate::Router`].
///
/// The router places requests onto workers (by load, keeping model-draft
/// and draft-free requests apart while a batch slot allows, then work
/// stealing on imbalance); each worker runs its own independent
/// [`Scheduler`] over its own draft/target model pair, so the fleet scales
/// the way N accelerators would.
#[derive(Debug)]
pub struct Worker<D, T> {
    id: WorkerId,
    profile: WorkerProfile,
    state: WorkerState,
    pub(crate) scheduler: Scheduler<D, T>,
    pub(crate) stolen_in: usize,
    pub(crate) stolen_out: usize,
}

impl<D, T> Worker<D, T>
where
    D: AsrDecoderModel,
    T: AsrDecoderModel,
{
    /// Wraps a scheduler as fleet worker `id` with capacity `profile`.
    pub(crate) fn new(id: WorkerId, profile: WorkerProfile, scheduler: Scheduler<D, T>) -> Self {
        Worker {
            id,
            profile,
            state: WorkerState::Active,
            scheduler,
            stolen_in: 0,
            stolen_out: 0,
        }
    }

    /// The worker's fleet identity.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// The worker's capacity profile (load weight and scheduler overrides).
    pub fn profile(&self) -> &WorkerProfile {
        &self.profile
    }

    /// The worker's lifecycle state.
    pub fn state(&self) -> WorkerState {
        self.state
    }

    /// `true` once the worker has been told to drain.
    pub fn is_draining(&self) -> bool {
        self.state == WorkerState::Draining
    }

    pub(crate) fn set_draining(&mut self) {
        self.state = WorkerState::Draining;
    }

    /// Number of requests waiting in this worker's queue.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.queued()
    }

    /// Number of sessions this worker is decoding right now.
    pub fn in_flight(&self) -> usize {
        self.scheduler.in_flight()
    }

    /// Decode sessions this worker keeps for the fleet's next submits (see
    /// [`Scheduler::spare_sessions`]).
    pub fn spare_sessions(&self) -> usize {
        self.scheduler.spare_sessions()
    }

    /// The requests this worker holds, queued plus in flight, per unit of
    /// its relative speed: the load placement compares.
    pub(crate) fn load(&self) -> f64 {
        (self.queue_depth() + self.in_flight()) as f64 / self.profile.speed
    }

    /// Whether a request placed here now would find a batch slot: the
    /// worker holds fewer requests, queued plus in flight, than its
    /// `max_batch`.
    pub(crate) fn has_free_slot(&self) -> bool {
        self.queue_depth() + self.in_flight() < self.scheduler.config().max_batch
    }

    /// The worker's queue depth normalized by its relative speed: the load
    /// signal heterogeneous work stealing compares (a queue of 8 on a 4×
    /// worker is as deep as a queue of 2 on a 1× one).
    pub fn normalized_depth(&self) -> f64 {
        self.queue_depth() as f64 / self.profile.speed
    }

    /// `true` when the worker has nothing queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.scheduler.is_idle()
    }

    /// This worker's wall clock in milliseconds (clocks only advance while a
    /// worker ticks; the router fast-forwards idle workers).
    pub fn wall_ms(&self) -> f64 {
        self.scheduler.wall_ms()
    }

    /// This worker's serving statistics.
    pub fn stats(&self) -> &ServerStats {
        self.scheduler.stats()
    }

    /// The paged KV pool this worker's scheduler allocates from.
    pub fn kv_pool(&self) -> &specasr_runtime::KvPool {
        self.scheduler.kv_pool()
    }

    /// Requests this worker received through work stealing.
    pub fn stolen_in(&self) -> usize {
        self.stolen_in
    }

    /// Requests other workers stole from this worker's queue.
    pub fn stolen_out(&self) -> usize {
        self.stolen_out
    }
}
