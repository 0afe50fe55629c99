//! `specasr-fleet`: deterministic elastic fleet control above the sharded
//! serving router.
//!
//! The [`specasr_server::Router`] serves a *fixed* fleet: N workers chosen
//! at construction.  Real deployments breathe — traffic bursts, quiet hours,
//! machines cycling out for maintenance.  This crate adds the control loop
//! that makes the simulated fleet breathe the same way, without giving up a
//! single deterministic bit:
//!
//! * **Elastic scaling** — a [`FleetController`] evaluates the fleet on a
//!   fixed cadence ([`FleetConfig::evaluate_every_ms`]) against two
//!   pressure signals, both read from current state: per-active-worker
//!   queue depth, and the P99 latency of the Interactive and Standard SLO
//!   classes over the last [`FleetConfig::scale_down_after`] evaluation
//!   intervals (a window with no completions reads 0, never a breach).  A
//!   signal must breach its target for [`FleetConfig::scale_up_after`]
//!   *consecutive* evaluations (hysteresis — one bursty interval never
//!   flaps the fleet); the fleet then grows in one step to the size that
//!   brings the queue to target, at least one worker more.  An evaluation
//!   has headroom when the queue is well under target and the workers that
//!   stay after a drain could carry the whole load (queued plus in flight)
//!   in half their batch slots.  [`FleetConfig::scale_down_after`]
//!   consecutive headroom evaluations drain the newest worker, or drain
//!   straight to [`FleetConfig::min_workers`] if those alone can carry the
//!   load, and the headroom streak starts over.
//! * **Live drain and migration** — scale-down never kills work.  The
//!   drained worker's queue re-routes through the router's placement choice
//!   (by load, keeping model-draft and draft-free requests apart while a
//!   batch slot allows) and its in-flight sessions migrate the same way:
//!   same-machine block-table hand-off
//!   when the destination has headroom (decode state survives, no
//!   re-prefill), preempt-and-restore otherwise.  Transcripts are
//!   byte-identical either way.
//! * **Determinism** — the control loop runs on the fleet's simulated
//!   clock.  The same configuration and workload produce the same scaling
//!   decisions, the same migrations, and the same transcripts, run after
//!   run.
//!
//! # Example
//!
//! ```
//! use specasr::{Policy, SpeculativeConfig};
//! use specasr_audio::{Corpus, EncoderProfile, Split};
//! use specasr_fleet::{FleetConfig, FleetController};
//! use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
//! use specasr_server::{Router, RouterConfig};
//!
//! let corpus = Corpus::librispeech_like(5, 8);
//! let binding = TokenizerBinding::for_corpus(&corpus);
//! let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
//! let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
//!
//! let make = {
//!     let (draft, target) = (draft.clone(), target.clone());
//!     move |_| (draft.clone(), target.clone())
//! };
//! let router = Router::new(
//!     RouterConfig::default().with_workers(1),
//!     binding,
//!     EncoderProfile::whisper_medium_encoder(),
//!     make.clone(),
//! );
//! let mut fleet = FleetController::new(router, FleetConfig::default(), make);
//! let policy = Policy::Speculative(SpeculativeConfig::short_single());
//! for utterance in corpus.split(Split::TestClean) {
//!     fleet.submit(policy, utterance).ok();
//! }
//! let outcomes = fleet.run_until_idle();
//! assert_eq!(outcomes.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use specasr::Policy;
use specasr_audio::Utterance;
use specasr_models::AsrDecoderModel;
use specasr_server::{
    Histogram, RequestId, RequestOutcome, RequestSpec, Router, SloClass, SubmitError, Worker,
    WorkerId, WorkerProfile,
};
use specasr_trace::MetricsRegistry;

/// The SLO classes held to [`FleetConfig::e2e_p99_target_ms`], in the order
/// the latency window keeps them.
const HELD_CLASSES: [SloClass; 2] = [SloClass::Interactive, SloClass::Standard];

/// `class`'s position in [`HELD_CLASSES`], if it is held to the target.
fn held(class: SloClass) -> Option<usize> {
    HELD_CLASSES.iter().position(|&held| held == class)
}

/// Configuration of the elastic control loop.
///
/// The defaults scale between 1 and 8 workers, evaluating every 250 ms of
/// simulated time, and require 3 consecutive breached evaluations before
/// scaling up (and 8 relaxed ones before scaling down) — enough hysteresis
/// that a single bursty interval never flaps the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// The fleet never drains below this many active workers.
    pub min_workers: usize,
    /// The fleet never grows past this many active workers.
    pub max_workers: usize,
    /// Evaluation cadence on the simulated timeline.
    pub evaluate_every_ms: f64,
    /// Consecutive breached evaluations required before scaling up.  The
    /// scale-up that completes the streak adds `ceil(queued / queue_target)`
    /// workers minus those active, at least one, up to `max_workers`.
    pub scale_up_after: usize,
    /// Consecutive headroom evaluations required before scaling down, and
    /// the span, in evaluation intervals, of the window the latency signal
    /// reads its P99 over.
    pub scale_down_after: usize,
    /// Queue-pressure target: mean queued requests per active worker above
    /// which an evaluation counts as breached.  An evaluation has headroom
    /// at half of it, when the queued and in-flight requests also fit in
    /// half the batch slots of the active workers a drain would keep.
    pub queue_target: f64,
    /// End-to-end P99 target for the latency-critical SLO classes
    /// (Interactive and Standard); `None` disables the latency signal and
    /// scales on queue pressure alone.
    pub e2e_p99_target_ms: Option<f64>,
}

impl FleetConfig {
    /// Returns this configuration with different fleet-size bounds.
    pub fn with_worker_bounds(mut self, min_workers: usize, max_workers: usize) -> Self {
        self.min_workers = min_workers;
        self.max_workers = max_workers;
        self
    }

    /// Returns this configuration with a different evaluation cadence.
    pub fn with_evaluate_every_ms(mut self, evaluate_every_ms: f64) -> Self {
        self.evaluate_every_ms = evaluate_every_ms;
        self
    }

    /// Returns this configuration with different hysteresis depths.
    pub fn with_hysteresis(mut self, scale_up_after: usize, scale_down_after: usize) -> Self {
        self.scale_up_after = scale_up_after;
        self.scale_down_after = scale_down_after;
        self
    }

    /// Returns this configuration with a different queue-pressure target.
    pub fn with_queue_target(mut self, queue_target: f64) -> Self {
        self.queue_target = queue_target;
        self
    }

    /// Returns this configuration with a different (or disabled) P99 target.
    pub fn with_e2e_p99_target_ms(mut self, target_ms: Option<f64>) -> Self {
        self.e2e_p99_target_ms = target_ms;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics when the bounds are empty or inverted, the cadence is not
    /// finite and positive, a hysteresis depth is zero, the queue target is
    /// not finite and positive, or a set P99 target is not finite and
    /// positive.
    pub fn validate(&self) {
        assert!(self.min_workers > 0, "min_workers must be positive");
        assert!(
            self.max_workers >= self.min_workers,
            "max_workers must be at least min_workers"
        );
        assert!(
            self.evaluate_every_ms.is_finite() && self.evaluate_every_ms > 0.0,
            "evaluate_every_ms must be finite and positive"
        );
        assert!(self.scale_up_after > 0, "scale_up_after must be positive");
        assert!(
            self.scale_down_after > 0,
            "scale_down_after must be positive"
        );
        assert!(
            self.queue_target.is_finite() && self.queue_target > 0.0,
            "queue_target must be finite and positive"
        );
        if let Some(target) = self.e2e_p99_target_ms {
            assert!(
                target.is_finite() && target > 0.0,
                "e2e_p99_target_ms must be finite and positive when set"
            );
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            min_workers: 1,
            max_workers: 8,
            evaluate_every_ms: 250.0,
            scale_up_after: 3,
            scale_down_after: 8,
            queue_target: 4.0,
            e2e_p99_target_ms: None,
        }
    }
}

/// Every decision the control loop has taken, exactly as counted — the
/// reconciliation source for the published `specasr_fleet_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// Control-loop evaluations executed.
    pub evaluations: usize,
    /// Evaluations whose pressure signals breached a target.
    pub breached_evaluations: usize,
    /// Workers added by scale-ups (one decision can add several).
    pub scale_ups: usize,
    /// Workers drained by scale-downs (one decision can drain several).
    pub scale_downs: usize,
    /// Drained workers that went idle and were removed from the fleet.
    pub workers_removed: usize,
    /// In-flight sessions migrated off draining workers.
    pub sessions_migrated: usize,
}

/// A deterministic autoscaler owning a [`Router`] and a model factory.
///
/// Drive it exactly like a router — [`FleetController::submit`] then
/// [`FleetController::advance_to`] / [`FleetController::run_until_idle`] —
/// and it interleaves control-loop evaluations at the configured cadence,
/// adding, draining, and reaping workers as pressure dictates.
pub struct FleetController<D, T, F> {
    router: Router<D, T>,
    config: FleetConfig,
    make_models: F,
    next_eval_ms: f64,
    breach_streak: usize,
    headroom_streak: usize,
    counters: FleetCounters,
    /// End-to-end latencies of the [`HELD_CLASSES`] completed in each of
    /// the last `scale_down_after` evaluation intervals, one histogram per
    /// class; `window[cursor]` is the interval in progress.
    window: Vec<[Histogram; 2]>,
    cursor: usize,
    /// Each held class's P99 over the window, as the latest evaluation
    /// read it.
    window_p99_ms: [f64; 2],
}

impl<D, T, F> FleetController<D, T, F>
where
    D: AsrDecoderModel,
    T: AsrDecoderModel + Send + 'static,
    F: FnMut(WorkerId) -> (D, T),
{
    /// Wraps `router` in a control loop that asks `make_models` for each
    /// scaled-up worker's draft/target pair.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`FleetConfig::validate`]).
    pub fn new(router: Router<D, T>, config: FleetConfig, make_models: F) -> Self {
        config.validate();
        let next_eval_ms = router.now_ms() + config.evaluate_every_ms;
        FleetController {
            router,
            config,
            make_models,
            next_eval_ms,
            breach_streak: 0,
            headroom_streak: 0,
            counters: FleetCounters::default(),
            window: vec![Default::default(); config.scale_down_after],
            cursor: 0,
            window_p99_ms: [0.0; 2],
        }
    }

    /// The wrapped router, for inspection.
    pub fn router(&self) -> &Router<D, T> {
        &self.router
    }

    /// The wrapped router, mutably (e.g. to install drafters or tracing).
    pub fn router_mut(&mut self) -> &mut Router<D, T> {
        &mut self.router
    }

    /// The control-loop configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Every decision taken so far.
    pub fn counters(&self) -> FleetCounters {
        self.counters
    }

    /// The P99 end-to-end latency of `class` that the latest evaluation read:
    /// over the outcomes this controller returned in the last
    /// [`FleetConfig::scale_down_after`] evaluation intervals, that
    /// evaluation's own included.  0 when none completed, and before the
    /// first evaluation.
    ///
    /// # Panics
    ///
    /// Panics unless `class` is Interactive or Standard, the classes held
    /// to [`FleetConfig::e2e_p99_target_ms`].
    pub fn window_e2e_p99_ms(&self, class: SloClass) -> f64 {
        let held = held(class).unwrap_or_else(|| panic!("the {class} class has no latency window"));
        self.window_p99_ms[held]
    }

    /// Submits one utterance under `spec` at the current timeline instant
    /// (see [`Router::submit`]).
    pub fn submit(
        &mut self,
        spec: impl Into<RequestSpec>,
        utterance: &Utterance,
    ) -> Result<RequestId, SubmitError> {
        self.router.submit(spec, utterance)
    }

    /// Submits a model-drafted request with a time-to-first-token budget: a
    /// single call to [`FleetController::submit`] with `RequestSpec {
    /// ttft_budget_ms, ..policy.into() }`.  The benchmark (`specbench/`)
    /// calls it by name.
    pub fn submit_with_budget(
        &mut self,
        policy: Policy,
        utterance: &Utterance,
        ttft_budget_ms: Option<f64>,
    ) -> Result<RequestId, SubmitError> {
        self.submit(
            RequestSpec {
                ttft_budget_ms,
                ..policy.into()
            },
            utterance,
        )
    }

    /// Advances the fleet to `deadline_ms`, running a control-loop
    /// evaluation at every elapsed cadence boundary, and returns whatever
    /// completed.
    pub fn advance_to(&mut self, deadline_ms: f64) -> Vec<RequestOutcome> {
        let mut outcomes = Vec::new();
        while self.next_eval_ms <= deadline_ms {
            self.step(&mut outcomes);
        }
        self.serve_into(deadline_ms, &mut outcomes);
        outcomes
    }

    /// Serves until nothing is queued or in flight anywhere, evaluating the
    /// control loop along the way, then reaps any still-draining workers.
    pub fn run_until_idle(&mut self) -> Vec<RequestOutcome> {
        let mut outcomes = Vec::new();
        while !self.router.is_idle() {
            self.step(&mut outcomes);
        }
        self.counters.workers_removed += self.router.reap_drained().len();
        outcomes
    }

    /// Serves to the next cadence boundary and evaluates there.
    fn step(&mut self, outcomes: &mut Vec<RequestOutcome>) {
        let boundary = self.next_eval_ms;
        self.serve_into(boundary, outcomes);
        self.evaluate();
        self.next_eval_ms = boundary + self.config.evaluate_every_ms;
    }

    /// Advances the router to `deadline_ms`, appending what completes to
    /// `outcomes` and folding the held classes' latencies into the window's
    /// interval in progress.
    fn serve_into(&mut self, deadline_ms: f64, outcomes: &mut Vec<RequestOutcome>) {
        let from = outcomes.len();
        self.router.advance_into(deadline_ms, outcomes);
        let interval = &mut self.window[self.cursor];
        for outcome in &outcomes[from..] {
            if let Some(held) = held(outcome.slo) {
                interval[held].record(outcome.e2e_ms());
            }
        }
    }

    /// One control-loop evaluation: reap drained workers, measure pressure,
    /// update the hysteresis streaks, scale when a streak completes, and
    /// move the latency window on by one interval.
    fn evaluate(&mut self) {
        self.counters.evaluations += 1;
        self.counters.workers_removed += self.router.reap_drained().len();

        let active = self.router.active_workers();
        let queued = self.router.queued();
        let queue_pressure = queued as f64 / active as f64;
        for (held, p99) in self.window_p99_ms.iter_mut().enumerate() {
            *p99 =
                Histogram::percentile_of(self.window.iter().map(|interval| &interval[held]), 0.99);
        }
        // A window with no completions reads a P99 of 0, which never
        // exceeds the (validated, positive) target.
        let p99_breach = self
            .config
            .e2e_p99_target_ms
            .is_some_and(|target| self.window_p99_ms.iter().any(|&p99| p99 > target));

        let breached = queue_pressure > self.config.queue_target || p99_breach;
        // Headroom is deliberately stricter than "not breached": the queue
        // must be *well* under target, so the fleet doesn't oscillate
        // around the threshold, and the workers a drain would keep must
        // carry the whole load, so a streak never ends on one light sample.
        // Queue headroom alone is not enough: arrivals that join the next
        // wave never queue.
        let drainable = if active > self.config.min_workers {
            self.drainable(active)
        } else {
            0
        };
        let headroom = !breached
            && queue_pressure <= self.config.queue_target / 2.0
            && (active <= self.config.min_workers || drainable > 0);
        if breached {
            self.counters.breached_evaluations += 1;
            self.breach_streak += 1;
            self.headroom_streak = 0;
        } else if headroom {
            self.headroom_streak += 1;
            self.breach_streak = 0;
        } else {
            self.breach_streak = 0;
            self.headroom_streak = 0;
        }

        if self.breach_streak >= self.config.scale_up_after && active < self.config.max_workers {
            // Meet the queue in one step: as many workers as bring it to
            // target, and at least one more (a latency breach alone).
            let wanted = (queued as f64 / self.config.queue_target).ceil() as usize;
            let added = wanted
                .saturating_sub(active)
                .clamp(1, self.config.max_workers - active);
            for _ in 0..added {
                self.router
                    .add_worker(WorkerProfile::default(), &mut self.make_models);
            }
            self.counters.scale_ups += added;
            self.breach_streak = 0;
        } else if self.headroom_streak >= self.config.scale_down_after
            && active > self.config.min_workers
        {
            // Every evaluation of the streak found the load fit the workers
            // that stay, this one included.
            for _ in 0..drainable {
                // Drain the most recently added active worker: LIFO keeps
                // the longest-lived workers (and their prefix caches) in
                // place and is deterministic by construction.
                let newest = self
                    .router
                    .workers()
                    .iter()
                    .filter(|worker| !worker.is_draining())
                    .map(Worker::id)
                    .max()
                    .expect("an active fleet always has an active worker");
                self.counters.sessions_migrated += self.router.drain_worker(newest);
            }
            self.counters.scale_downs += drainable;
            self.headroom_streak = 0;
        }

        // The oldest interval leaves the window; its histograms, emptied
        // in place, take the next interval.
        self.cursor = (self.cursor + 1) % self.window.len();
        for histogram in &mut self.window[self.cursor] {
            histogram.reset();
        }
    }

    /// How many of the newest of `active` workers can drain now: every one
    /// above [`FleetConfig::min_workers`] when the whole load — queued plus
    /// in flight — fits in half the batch slots of that many workers, else
    /// one when it fits in half the slots of the rest, else none.  Half
    /// mirrors the queue headroom at half of [`FleetConfig::queue_target`].
    ///
    /// An evaluation above the minimum fleet has headroom only when this is
    /// more than none, so a headroom streak counts only evaluations at which
    /// the workers a drain keeps could carry the load, and a drain never
    /// rests on one light sample at the streak's end.
    fn drainable(&self, active: usize) -> usize {
        let load = self.router.queued() + self.router.in_flight();
        let base = self.router.config().worker;
        // The batch slots of the `kept` longest-lived active workers (the
        // fleet lists workers in join order), each at its own `max_batch`.
        let slots = |kept: usize| -> usize {
            self.router
                .workers()
                .iter()
                .filter(|worker| !worker.is_draining())
                .take(kept)
                .map(|worker| worker.profile().apply(base).max_batch)
                .sum()
        };
        if 2 * load <= slots(self.config.min_workers) {
            active - self.config.min_workers
        } else if 2 * load <= slots(active - 1) {
            1
        } else {
            0
        }
    }

    /// Publishes the fleet-control gauges and counters into `registry`
    /// under the `specasr_fleet_*` namespace, alongside the router's
    /// serving metrics (`specasr_migrations_total` among them).  The values
    /// reconcile exactly with [`FleetController::counters`].  The serving
    /// metrics come from [`Router::publish_metrics`], which merges the fleet
    /// aggregate in place.
    pub fn publish_metrics(&self, registry: &mut MetricsRegistry) {
        self.router.publish_metrics(registry);
        registry.set_gauge(
            "specasr_fleet_workers",
            "Workers currently in the fleet, by lifecycle state.",
            &[("state", "active")],
            self.router.active_workers() as f64,
        );
        registry.set_gauge(
            "specasr_fleet_workers",
            "Workers currently in the fleet, by lifecycle state.",
            &[("state", "draining")],
            self.router.draining_workers() as f64,
        );
        registry.set_counter(
            "specasr_fleet_evaluations_total",
            "Control-loop evaluations executed.",
            &[],
            self.counters.evaluations as f64,
        );
        registry.set_counter(
            "specasr_fleet_breached_evaluations_total",
            "Evaluations whose pressure signals breached a target.",
            &[],
            self.counters.breached_evaluations as f64,
        );
        registry.set_counter(
            "specasr_fleet_scale_ups_total",
            "Workers added by scale-ups.",
            &[],
            self.counters.scale_ups as f64,
        );
        registry.set_counter(
            "specasr_fleet_scale_downs_total",
            "Workers drained by scale-downs.",
            &[],
            self.counters.scale_downs as f64,
        );
        registry.set_counter(
            "specasr_fleet_workers_removed_total",
            "Drained workers reaped from the fleet.",
            &[],
            self.counters.workers_removed as f64,
        );
        registry.set_gauge(
            "specasr_fleet_breach_streak",
            "Consecutive breached evaluations ending at the latest one.",
            &[],
            self.breach_streak as f64,
        );
        registry.set_gauge(
            "specasr_fleet_headroom_streak",
            "Consecutive headroom evaluations ending at the latest one.",
            &[],
            self.headroom_streak as f64,
        );
        for class in HELD_CLASSES {
            registry.set_gauge(
                "specasr_fleet_window_e2e_p99_ms",
                "End-to-end P99 over the latest evaluation's window, by SLO class.",
                &[("class", class.name())],
                self.window_e2e_p99_ms(class),
            );
        }
    }
}

impl<D: std::fmt::Debug, T: std::fmt::Debug, F> std::fmt::Debug for FleetController<D, T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetController")
            .field("config", &self.config)
            .field("next_eval_ms", &self.next_eval_ms)
            .field("breach_streak", &self.breach_streak)
            .field("headroom_streak", &self.headroom_streak)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr::SpeculativeConfig;
    use specasr_audio::{Corpus, EncoderProfile, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
    use specasr_server::{LoadGen, RouterConfig, ServerConfig};

    type Fleet = FleetController<
        SimulatedAsrModel,
        SimulatedAsrModel,
        Box<dyn FnMut(WorkerId) -> (SimulatedAsrModel, SimulatedAsrModel)>,
    >;

    fn fleet(config: FleetConfig, workers: usize) -> (Fleet, Corpus) {
        let corpus = Corpus::librispeech_like(88, 12);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let mut make: Box<dyn FnMut(WorkerId) -> (SimulatedAsrModel, SimulatedAsrModel)> =
            Box::new(move |_| (draft.clone(), target.clone()));
        let router = Router::new(
            RouterConfig::default()
                .with_workers(workers)
                .with_worker_config(ServerConfig::default().with_queue_depth(256)),
            binding,
            EncoderProfile::whisper_medium_encoder(),
            &mut make,
        );
        (FleetController::new(router, config, make), corpus)
    }

    fn burst(fleet: &mut Fleet, corpus: &Corpus, requests: usize, qps: f64) -> Vec<RequestOutcome> {
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let pool: Vec<&Utterance> = Split::ALL
            .iter()
            .flat_map(|&split| corpus.split(split))
            .collect();
        let mut gen = LoadGen::new(7, qps);
        let mut outcomes = Vec::new();
        for index in 0..requests {
            let arrival = gen.next_arrival_ms();
            outcomes.extend(fleet.advance_to(arrival));
            fleet
                .submit(policy, pool[index % pool.len()])
                .expect("queues are deep");
        }
        outcomes.extend(fleet.run_until_idle());
        outcomes
    }

    #[test]
    fn a_burst_scales_the_fleet_up() {
        let config = FleetConfig::default()
            .with_worker_bounds(1, 4)
            .with_hysteresis(2, 8)
            .with_queue_target(2.0);
        let (mut fleet, corpus) = fleet(config, 1);
        let outcomes = burst(&mut fleet, &corpus, 96, 400.0);
        assert_eq!(outcomes.len(), 96);
        let counters = fleet.counters();
        assert!(
            counters.scale_ups > 0,
            "a 400 QPS burst on one worker must breach the queue target, got {counters:?}"
        );
        assert!(counters.evaluations > 0);
    }

    #[test]
    fn quiet_traffic_scales_back_down_and_reaps() {
        let config = FleetConfig::default()
            .with_worker_bounds(1, 4)
            .with_hysteresis(2, 2)
            .with_queue_target(2.0);
        let (mut fleet, corpus) = fleet(config, 3);
        // A trickle far below capacity: the fleet must shed workers.
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let pool = corpus.split(Split::TestClean);
        let mut gen = LoadGen::new(3, 0.5);
        for index in 0..8 {
            let arrival = gen.next_arrival_ms();
            fleet.advance_to(arrival);
            fleet.submit(policy, &pool[index % pool.len()]).unwrap();
        }
        fleet.run_until_idle();
        let counters = fleet.counters();
        assert!(
            counters.scale_downs > 0,
            "sustained headroom must drain workers, got {counters:?}"
        );
        assert_eq!(
            counters.workers_removed, counters.scale_downs,
            "every drained worker goes idle and is reaped by the end"
        );
        assert_eq!(fleet.router().active_workers(), 1);
        assert_eq!(fleet.router().draining_workers(), 0);
    }

    #[test]
    fn scaling_decisions_are_deterministic() {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let config = FleetConfig::default()
                .with_worker_bounds(1, 4)
                .with_hysteresis(2, 4)
                .with_queue_target(2.0);
            let (mut fleet, corpus) = fleet(config, 1);
            let outcomes = burst(&mut fleet, &corpus, 64, 300.0);
            let transcripts: Vec<(u64, String)> = outcomes
                .iter()
                .map(|o| (o.id.value(), o.text.clone()))
                .collect();
            runs.push((fleet.counters(), transcripts));
        }
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn bounds_cap_the_fleet_size() {
        let config = FleetConfig::default()
            .with_worker_bounds(1, 2)
            .with_hysteresis(1, 1)
            .with_queue_target(1.0);
        let (mut fleet, corpus) = fleet(config, 1);
        burst(&mut fleet, &corpus, 96, 500.0);
        assert!(fleet.router().active_workers() <= 2);
        // min bound: run dry for a long time, the last worker stays.
        fleet.advance_to(fleet.router().now_ms() + 60_000.0);
        assert_eq!(fleet.router().active_workers(), 1);
    }

    #[test]
    fn published_metrics_reconcile_with_counters() {
        let config = FleetConfig::default()
            .with_worker_bounds(1, 4)
            .with_hysteresis(2, 3)
            .with_queue_target(2.0);
        let (mut fleet, corpus) = fleet(config, 1);
        burst(&mut fleet, &corpus, 64, 300.0);
        let mut registry = MetricsRegistry::new();
        fleet.publish_metrics(&mut registry);
        let rendered = registry.render();
        let counters = fleet.counters();
        let value = |needle: &str| -> f64 {
            rendered
                .lines()
                .find(|line| line.starts_with(needle))
                .unwrap_or_else(|| panic!("metric {needle} missing from:\n{rendered}"))
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(
            value("specasr_fleet_evaluations_total"),
            counters.evaluations as f64
        );
        assert_eq!(
            value("specasr_fleet_scale_ups_total"),
            counters.scale_ups as f64
        );
        assert_eq!(
            value("specasr_fleet_scale_downs_total"),
            counters.scale_downs as f64
        );
        assert_eq!(
            value("specasr_fleet_workers_removed_total"),
            counters.workers_removed as f64
        );
        assert_eq!(
            value("specasr_fleet_workers{state=\"active\"}"),
            fleet.router().active_workers() as f64
        );
        let stats = fleet.router().fleet_stats();
        assert_eq!(
            value("specasr_migrations_total{path=\"handoff\"}")
                + value("specasr_migrations_total{path=\"restore\"}"),
            counters.sessions_migrated as f64,
            "router-side migration stats must reconcile with the controller's count"
        );
        assert_eq!(stats.migrations(), counters.sessions_migrated);
    }

    /// Submits `requests` utterances at the current instant.
    fn submit_all(fleet: &mut Fleet, corpus: &Corpus, requests: usize) {
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let pool = corpus.split(Split::TestClean);
        for index in 0..requests {
            fleet
                .submit(policy, &pool[index % pool.len()])
                .expect("queues are deep");
        }
    }

    #[test]
    fn a_completed_breach_streak_sizes_the_fleet_to_the_queue_in_one_step() {
        for (queue_target, max_workers) in [(8.0, 8), (2.0, 4)] {
            let config = FleetConfig::default()
                .with_worker_bounds(1, max_workers)
                .with_evaluate_every_ms(50.0)
                .with_hysteresis(2, 8)
                .with_queue_target(queue_target);
            // A twin capped at one worker never scales, so its queue at the
            // second boundary is the queue the fleet's second evaluation,
            // the one completing the streak, sees.
            let (mut twin, corpus) = fleet(config.with_worker_bounds(1, 1), 1);
            submit_all(&mut twin, &corpus, 48);
            twin.advance_to(2.0 * config.evaluate_every_ms);
            let queued = twin.router().queued();
            assert!(queued as f64 > queue_target, "{queued} queued must breach");

            let (mut fleet, corpus) = fleet(config, 1);
            submit_all(&mut fleet, &corpus, 48);
            fleet.advance_to(config.evaluate_every_ms);
            assert_eq!(fleet.router().active_workers(), 1, "the streak is 1 of 2");
            fleet.advance_to(2.0 * config.evaluate_every_ms);
            let sized = (queued as f64 / queue_target).ceil() as usize;
            assert_eq!(
                fleet.router().active_workers(),
                sized.min(max_workers),
                "{queued} queued at target {queue_target}"
            );
            assert_eq!(fleet.counters().scale_ups, sized.min(max_workers) - 1);
        }
    }

    #[test]
    fn a_worker_drains_only_when_the_rest_can_carry_the_load() {
        let config = FleetConfig::default()
            .with_worker_bounds(1, 2)
            .with_evaluate_every_ms(10.0)
            .with_hysteresis(1, 2)
            .with_queue_target(2.0);
        let (mut fleet, corpus) = fleet(config, 2);
        // Eight requests fill 4 of each worker's 8 batch slots with nothing
        // queued: headroom on the queue, but more than the 4 that half of
        // the staying worker's slots hold.
        submit_all(&mut fleet, &corpus, 8);
        let mut held = 0;
        let mut now_ms = 0.0;
        loop {
            now_ms += config.evaluate_every_ms;
            fleet.advance_to(now_ms);
            let load = fleet.router().queued() + fleet.router().in_flight();
            if 2 * load <= 8 {
                break;
            }
            assert_eq!(fleet.router().queued(), 0);
            assert_eq!(fleet.counters().scale_downs, 0, "{load} requests held");
            held += 1;
        }
        assert!(
            held > config.scale_down_after,
            "an empty queue for {held} evaluations must outlast the streak"
        );
        fleet.run_until_idle();
        fleet.advance_to(fleet.router().now_ms() + 1_000.0);
        assert_eq!(fleet.router().active_workers(), 1, "a light fleet drains");
    }

    #[test]
    fn a_headroom_streak_counts_only_evaluations_the_staying_workers_could_carry() {
        let config = FleetConfig::default()
            .with_worker_bounds(1, 2)
            .with_evaluate_every_ms(10.0)
            .with_queue_target(2.0);
        // Eight requests fill 4 of each worker's 8 batch slots with nothing
        // queued: headroom on the queue from the first evaluation, but the
        // staying worker's half holds 4 only once requests complete.  A
        // twin held at two workers finds that evaluation.
        let (mut twin, corpus) = fleet(config.with_worker_bounds(2, 2), 2);
        submit_all(&mut twin, &corpus, 8);
        let mut fits_from = 0;
        loop {
            fits_from += 1;
            twin.advance_to(fits_from as f64 * config.evaluate_every_ms);
            let load = twin.router().queued() + twin.router().in_flight();
            assert_eq!(twin.router().queued(), 0);
            if 2 * load <= 8 {
                break;
            }
        }
        assert!(fits_from > 1, "the load outgrows one worker at first");

        // A streak as long as the evaluations up to the first fit: on queue
        // depth alone it would complete there, on one light load sample.
        let (mut fleet, corpus) = fleet(config.with_hysteresis(1, fits_from), 2);
        submit_all(&mut fleet, &corpus, 8);
        let evaluate = |fleet: &mut Fleet, evaluation: usize| {
            fleet.advance_to(evaluation as f64 * config.evaluate_every_ms);
        };
        for evaluation in 1..=fits_from {
            evaluate(&mut fleet, evaluation);
        }
        assert_eq!(
            fleet.counters().scale_downs,
            0,
            "a streak whose load fits only at its last evaluation drains nothing"
        );
        assert_eq!(fleet.headroom_streak, 1);
        // From here the load only falls, so it fits at every evaluation of
        // the next streak, which drains.
        for evaluation in fits_from + 1..2 * fits_from {
            assert_eq!(fleet.counters().scale_downs, 0);
            evaluate(&mut fleet, evaluation);
            let load = fleet.router().queued() + fleet.router().in_flight();
            assert!(2 * load <= 8);
        }
        assert_eq!(
            fleet.counters().scale_downs,
            1,
            "a streak whose load fits throughout drains"
        );
        assert_eq!(fleet.router().active_workers(), 1);
    }

    #[test]
    #[should_panic(expected = "max_workers")]
    fn inverted_bounds_panic() {
        FleetConfig::default().with_worker_bounds(4, 2).validate();
    }
}
