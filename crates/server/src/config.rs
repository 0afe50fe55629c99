//! Serving configuration: batch size, queue depth, admission policy, and the
//! sharded-router fleet parameters.

use serde::{Deserialize, Serialize};

/// How the scheduler picks the next request from the wait queue when a batch
/// slot frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Strict arrival order.
    Fifo,
    /// Shortest audio first: minimises mean latency under load.  Long
    /// utterances are protected from starvation by an aging credit (see
    /// [`ServerConfig::aging_rate`]): a request's effective priority is its
    /// audio length minus `age × aging_rate`, so every queued request's
    /// priority eventually beats any freshly arrived short utterance.
    ShortestAudioFirst,
}

/// Deadline-awareness of the admission order (`ServerConfig::ordering`).
///
/// [`AdmissionPolicy`] decides how requests compete on *workload* shape
/// (arrival order, audio length); this layer decides whether time-to-first-
/// token budgets override that competition.  With budgets the scheduler
/// already *sheds* requests whose wait blew their budget — ordering is the
/// other half: admit the request closest to its deadline first, so fewer
/// requests expire in the queue at all (goodput under overload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionOrdering {
    /// Deadline-blind: defer entirely to the configured
    /// [`AdmissionPolicy`] (the historical behavior, and the default).
    Queue,
    /// Earliest deadline first: requests are admitted by absolute deadline
    /// (`arrival + ttft_budget`); budget-less requests order after every
    /// deadline-bearing request, by arrival.  Ties break on arrival time,
    /// then request id, so the order is deterministic.
    EarliestDeadlineFirst,
}

/// Which in-flight session a memory-exhausted scheduler evicts to free KV
/// blocks (the victim releases its blocks, re-queues, and restores
/// deterministically by re-prefilling on re-admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreemptPolicy {
    /// Evict the most recently admitted session — the least sunk decode
    /// work is thrown away, and long-resident sessions are protected.
    NewestAdmitted,
    /// Evict the session holding the most KV blocks — frees the most memory
    /// per eviction at the price of redoing the largest decode.
    LargestKv,
}

/// Configuration of a [`crate::Scheduler`].
///
/// # Example
///
/// ```
/// use specasr_server::{AdmissionPolicy, PreemptPolicy, ServerConfig};
///
/// let config = ServerConfig::default().with_max_batch(16).with_kv_blocks(512);
/// assert_eq!(config.max_batch, 16);
/// assert_eq!(config.admission, AdmissionPolicy::Fifo);
/// assert_eq!(config.kv_blocks, 512);
/// assert_eq!(config.preempt_policy, PreemptPolicy::NewestAdmitted);
/// config.validate();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Maximum number of decode sessions in flight at once (the iteration
    /// batch size).
    pub max_batch: usize,
    /// Maximum number of requests waiting for admission; `submit` rejects
    /// beyond this (backpressure).
    pub queue_depth: usize,
    /// Queue discipline used at admission time.
    pub admission: AdmissionPolicy,
    /// Whether time-to-first-token budgets override the queue discipline at
    /// admission time (earliest-deadline-first); see [`AdmissionOrdering`].
    pub ordering: AdmissionOrdering,
    /// Aging credit for [`AdmissionPolicy::ShortestAudioFirst`], in audio
    /// seconds of priority per millisecond spent queued.  `0.0` restores the
    /// starvation-prone pure shortest-audio-first ordering; the default of
    /// `0.005` forgives five audio seconds per queued second, so even a 30 s
    /// utterance outranks fresh 2 s arrivals after ~5.6 s of waiting.
    pub aging_rate: f64,
    /// KV-block budget of the paged pool, per model sub-pool (draft and
    /// target each get this many blocks).  The default is generous enough
    /// that a default batch never feels memory pressure; shrink it to study
    /// memory-aware admission and preemption.
    pub kv_blocks: usize,
    /// Positions per KV block.
    pub block_size: usize,
    /// Eviction policy when the KV pool is exhausted mid-decode.
    pub preempt_policy: PreemptPolicy,
    /// Verification-wave pipeline depth (default 4).  The tick runs
    /// submit-ahead / complete-behind: the wave planner may split a tick's
    /// drafted rounds into up to this many cohorts, each session's next
    /// draft phase starts at its *own* wave's completion (not the tick's),
    /// and at most this many verification waves may be outstanding on the
    /// device at any submission instant.  A tick submits the plan's first
    /// cohort, and each later one up to the last that holds a budgeted
    /// request's first round; the sessions of the cohorts after it keep
    /// their drafted rounds for the next tick's plan, which verifies them
    /// beside the early sessions' next rounds, and the tick ends when its
    /// last submitted wave lands.  `1` is a window of one wave: every tick
    /// verifies every round it drafted in one grouped batch.  Transcripts
    /// and decode statistics are byte-identical at every depth — only the
    /// timeline compresses.
    pub max_in_flight_waves: usize,
    /// Modeled draft-device lanes.  `0` leaves per-session draft chains
    /// unconstrained (a pool of draft-sized accelerators, the historical
    /// model); `n > 0` serialises draft rounds onto `n` lanes so draft and
    /// verify work contend for modeled device time like real hardware.
    pub draft_lanes: usize,
}

impl ServerConfig {
    /// Returns this configuration with a different batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Returns this configuration with a different queue depth.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Returns this configuration with a different admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Returns this configuration with a different deadline-awareness of
    /// the admission order.
    pub fn with_ordering(mut self, ordering: AdmissionOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Returns this configuration with a different aging rate (audio seconds
    /// of shortest-audio-first priority credit per queued millisecond).
    pub fn with_aging_rate(mut self, aging_rate: f64) -> Self {
        self.aging_rate = aging_rate;
        self
    }

    /// Returns this configuration with a different per-sub-pool KV-block
    /// budget.
    pub fn with_kv_blocks(mut self, kv_blocks: usize) -> Self {
        self.kv_blocks = kv_blocks;
        self
    }

    /// Returns this configuration with a different KV block size (positions
    /// per block).
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Returns this configuration with a different preemption policy.
    pub fn with_preempt_policy(mut self, preempt_policy: PreemptPolicy) -> Self {
        self.preempt_policy = preempt_policy;
        self
    }

    /// Returns this configuration with a different verification-wave
    /// pipeline depth (at most `n` waves per tick and in flight).
    pub fn with_max_in_flight_waves(mut self, max_in_flight_waves: usize) -> Self {
        self.max_in_flight_waves = max_in_flight_waves;
        self
    }

    /// Returns this configuration with a different draft-device lane count
    /// (`0` = unconstrained).
    pub fn with_draft_lanes(mut self, draft_lanes: usize) -> Self {
        self.draft_lanes = draft_lanes;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the batch size, queue depth, KV-block budget, or block size
    /// is zero, or the aging rate is negative or non-finite.
    pub fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(self.queue_depth > 0, "queue_depth must be positive");
        assert!(
            self.aging_rate.is_finite() && self.aging_rate >= 0.0,
            "aging_rate must be finite and non-negative"
        );
        assert!(self.kv_blocks > 0, "kv_blocks must be positive");
        assert!(self.block_size > 0, "block_size must be positive");
        assert!(
            self.max_in_flight_waves > 0,
            "max_in_flight_waves must be positive"
        );
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 8,
            queue_depth: 64,
            admission: AdmissionPolicy::Fifo,
            ordering: AdmissionOrdering::Queue,
            aging_rate: 0.005,
            // 4096 blocks × 16 positions = 65 536 positions per model — far
            // beyond what a default batch of 8 can hold, so the pool is
            // effectively unconstrained unless explicitly shrunk.
            kv_blocks: 4096,
            block_size: 16,
            preempt_policy: PreemptPolicy::NewestAdmitted,
            max_in_flight_waves: 4,
            draft_lanes: 0,
        }
    }
}

/// Configuration of a [`crate::Router`] fleet.
///
/// # Example
///
/// ```
/// use specasr_server::{RouterConfig, ServerConfig};
///
/// let config = RouterConfig::default()
///     .with_workers(4)
///     .with_worker_config(ServerConfig::default().with_max_batch(4));
/// assert_eq!(config.workers, 4);
/// config.validate();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Number of independent scheduler workers behind the router.
    pub workers: usize,
    /// Work stealing triggers when a worker's queue is deeper than the
    /// shallowest worker's queue by more than this many requests.
    pub steal_threshold: usize,
    /// Configuration applied to every worker's scheduler.
    pub worker: ServerConfig,
    /// Run every worker's target model behind a process-boundary
    /// [`specasr_models::RpcBackend`] (a worker thread driven over the
    /// serialized wire protocol) instead of the in-process simulated
    /// backend.  Timing, tickets, and transcripts are identical either way;
    /// the flag exists to prove it.
    pub rpc_backend: bool,
}

impl RouterConfig {
    /// Returns this configuration with a different worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns this configuration with a different steal threshold.
    pub fn with_steal_threshold(mut self, steal_threshold: usize) -> Self {
        self.steal_threshold = steal_threshold;
        self
    }

    /// Returns this configuration with a different per-worker scheduler
    /// configuration.
    pub fn with_worker_config(mut self, worker: ServerConfig) -> Self {
        self.worker = worker;
        self
    }

    /// Returns this configuration with the process-boundary RPC target
    /// backend enabled or disabled.
    pub fn with_rpc_backend(mut self, rpc_backend: bool) -> Self {
        self.rpc_backend = rpc_backend;
        self
    }

    /// Validates the configuration (including the per-worker one).
    ///
    /// # Panics
    ///
    /// Panics if the worker or steal-threshold counts are zero, or the
    /// per-worker configuration is invalid.
    pub fn validate(&self) {
        assert!(self.workers > 0, "workers must be positive");
        assert!(self.steal_threshold > 0, "steal_threshold must be positive");
        self.worker.validate();
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            workers: 2,
            steal_threshold: 4,
            worker: ServerConfig::default(),
            rpc_backend: false,
        }
    }
}

/// Capacity description of one worker in a heterogeneous fleet.
///
/// A uniform fleet leaves every field at its default and behaves exactly
/// like the profile-less router.  A mixed fleet (say one big-batch worker
/// next to several small ones) sets `speed` to the worker's relative serving
/// capacity: placement compares *speed-normalized* load (requests queued
/// plus in flight, so a 4× worker takes four requests for every one a 1×
/// worker takes, routing more traffic where it runs fastest) and work
/// stealing compares speed-normalized queue depths (a queue of 8 on a 4×
/// worker is as deep as a queue of 2 on a 1× worker).
///
/// `speed` is a routing hint; the worker's actual capacity comes from its
/// models and its scheduler overrides (`max_batch`, `kv_blocks`).
///
/// # Example
///
/// ```
/// use specasr_server::WorkerProfile;
///
/// let fast = WorkerProfile::default().with_speed(4.0).with_max_batch(16);
/// assert_eq!(fast.max_batch, Some(16));
/// fast.validate();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerProfile {
    /// Relative serving speed (`1.0` = a standard worker).  Normalizes the
    /// worker's load in the placement choice and its queue depth in the
    /// steal comparison.
    pub speed: f64,
    /// Overrides [`ServerConfig::max_batch`] for this worker when set.
    pub max_batch: Option<usize>,
    /// Overrides [`ServerConfig::kv_blocks`] for this worker when set.
    pub kv_blocks: Option<usize>,
}

impl WorkerProfile {
    /// Returns this profile with a different relative speed.
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Returns this profile with a per-worker batch-size override.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = Some(max_batch);
        self
    }

    /// Returns this profile with a per-worker KV-block budget override.
    pub fn with_kv_blocks(mut self, kv_blocks: usize) -> Self {
        self.kv_blocks = Some(kv_blocks);
        self
    }

    /// The worker's scheduler configuration: the fleet-wide `base` with this
    /// profile's overrides applied.
    pub fn apply(&self, base: ServerConfig) -> ServerConfig {
        let mut config = base;
        if let Some(max_batch) = self.max_batch {
            config = config.with_max_batch(max_batch);
        }
        if let Some(kv_blocks) = self.kv_blocks {
            config = config.with_kv_blocks(kv_blocks);
        }
        config
    }

    /// Validates the profile.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is non-finite or non-positive, or an override is
    /// zero.
    pub fn validate(&self) {
        assert!(
            self.speed.is_finite() && self.speed > 0.0,
            "speed must be finite and positive"
        );
        assert!(
            self.max_batch != Some(0),
            "max_batch override must be positive"
        );
        assert!(
            self.kv_blocks != Some(0),
            "kv_blocks override must be positive"
        );
    }
}

impl Default for WorkerProfile {
    fn default() -> Self {
        WorkerProfile {
            speed: 1.0,
            max_batch: None,
            kv_blocks: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_updates_preserve_other_fields() {
        let config = ServerConfig::default()
            .with_max_batch(4)
            .with_queue_depth(10)
            .with_admission(AdmissionPolicy::ShortestAudioFirst)
            .with_aging_rate(0.25);
        assert_eq!(config.max_batch, 4);
        assert_eq!(config.queue_depth, 10);
        assert_eq!(config.admission, AdmissionPolicy::ShortestAudioFirst);
        assert!((config.aging_rate - 0.25).abs() < 1e-12);
        config.validate();
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_fails_validation() {
        ServerConfig::default().with_max_batch(0).validate();
    }

    #[test]
    #[should_panic(expected = "queue_depth")]
    fn zero_queue_depth_fails_validation() {
        ServerConfig::default().with_queue_depth(0).validate();
    }

    #[test]
    #[should_panic(expected = "aging_rate")]
    fn negative_aging_rate_fails_validation() {
        ServerConfig::default().with_aging_rate(-0.1).validate();
    }

    #[test]
    fn zero_aging_rate_is_allowed() {
        ServerConfig::default().with_aging_rate(0.0).validate();
    }

    #[test]
    fn kv_builders_update_the_pool_fields() {
        let config = ServerConfig::default()
            .with_kv_blocks(128)
            .with_block_size(32)
            .with_preempt_policy(PreemptPolicy::LargestKv);
        assert_eq!(config.kv_blocks, 128);
        assert_eq!(config.block_size, 32);
        assert_eq!(config.preempt_policy, PreemptPolicy::LargestKv);
        config.validate();
    }

    #[test]
    #[should_panic(expected = "kv_blocks")]
    fn zero_kv_blocks_fails_validation() {
        ServerConfig::default().with_kv_blocks(0).validate();
    }

    #[test]
    #[should_panic(expected = "block_size")]
    fn zero_block_size_fails_validation() {
        ServerConfig::default().with_block_size(0).validate();
    }

    #[test]
    fn pipeline_builders_update_the_wave_and_lane_fields() {
        let config = ServerConfig::default()
            .with_max_in_flight_waves(4)
            .with_draft_lanes(2);
        assert_eq!(config.max_in_flight_waves, 4);
        assert_eq!(config.draft_lanes, 2);
        config.validate();
    }

    #[test]
    fn the_default_in_flight_window_is_four_waves() {
        let config = ServerConfig::default();
        assert_eq!(config.max_in_flight_waves, 4);
        assert_eq!(config.draft_lanes, 0);
    }

    #[test]
    #[should_panic(expected = "max_in_flight_waves")]
    fn zero_in_flight_waves_fails_validation() {
        ServerConfig::default()
            .with_max_in_flight_waves(0)
            .validate();
    }

    #[test]
    fn unbounded_draft_lanes_are_allowed() {
        ServerConfig::default().with_draft_lanes(0).validate();
    }

    #[test]
    fn router_builder_updates_preserve_other_fields() {
        let config = RouterConfig::default()
            .with_workers(8)
            .with_steal_threshold(2)
            .with_worker_config(ServerConfig::default().with_max_batch(2));
        assert_eq!(config.workers, 8);
        assert_eq!(config.steal_threshold, 2);
        assert_eq!(config.worker.max_batch, 2);
        config.validate();
    }

    #[test]
    fn the_rpc_backend_flag_defaults_off_and_toggles() {
        assert!(!RouterConfig::default().rpc_backend);
        assert!(RouterConfig::default().with_rpc_backend(true).rpc_backend);
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn zero_workers_fails_validation() {
        RouterConfig::default().with_workers(0).validate();
    }

    #[test]
    #[should_panic(expected = "steal_threshold")]
    fn zero_steal_threshold_fails_validation() {
        RouterConfig::default().with_steal_threshold(0).validate();
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn router_validation_covers_the_worker_config() {
        RouterConfig::default()
            .with_worker_config(ServerConfig::default().with_max_batch(0))
            .validate();
    }

    #[test]
    fn the_default_ordering_is_deadline_blind() {
        let config = ServerConfig::default();
        assert_eq!(config.ordering, AdmissionOrdering::Queue);
        let edf = config.with_ordering(AdmissionOrdering::EarliestDeadlineFirst);
        assert_eq!(edf.ordering, AdmissionOrdering::EarliestDeadlineFirst);
        assert_eq!(
            edf.admission, config.admission,
            "ordering leaves the policy alone"
        );
        edf.validate();
    }

    #[test]
    fn worker_profile_overrides_apply_onto_the_base_config() {
        let base = ServerConfig::default().with_max_batch(8).with_kv_blocks(64);
        let uniform = WorkerProfile::default();
        assert_eq!(uniform.apply(base), base);
        uniform.validate();
        let fast = WorkerProfile::default()
            .with_speed(4.0)
            .with_max_batch(32)
            .with_kv_blocks(512);
        let applied = fast.apply(base);
        assert_eq!(applied.max_batch, 32);
        assert_eq!(applied.kv_blocks, 512);
        assert_eq!(applied.queue_depth, base.queue_depth);
        fast.validate();
    }

    #[test]
    #[should_panic(expected = "speed")]
    fn zero_speed_fails_profile_validation() {
        WorkerProfile::default().with_speed(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "max_batch override")]
    fn zero_batch_override_fails_profile_validation() {
        WorkerProfile::default().with_max_batch(0).validate();
    }
}
