//! Aggregate serving statistics: throughput, acceptance, latency percentiles,
//! and the device time saved by batching.

use std::collections::BTreeMap;

use specasr_metrics::Histogram;
use specasr_models::BackendCounters;
use specasr_trace::MetricsRegistry;

use crate::batch::TickCost;
use crate::request::{RequestOutcome, SloClass};

/// Paged KV-pool memory statistics of one scheduler (or, after
/// [`ServerStats::merge`], of a fleet).
///
/// The peak is the pool allocator's exact high-water mark (every block that
/// was ever simultaneously live counts, including blocks a rollback or a
/// finishing session released within the same tick); the average is sampled
/// once per tick after retirement, so it describes steady-state residency
/// between ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryStats {
    kv_capacity_blocks: usize,
    peak_kv_blocks: usize,
    occupancy_block_ticks: f64,
    occupancy_ticks: usize,
    preemptions: usize,
    prefix_lookups: usize,
    prefix_hits: usize,
    cow_copies: usize,
}

impl MemoryStats {
    /// Total KV-block budget (draft + target sub-pools; summed across
    /// workers after a merge — each worker owns its own pool).
    pub fn kv_capacity_blocks(&self) -> usize {
        self.kv_capacity_blocks
    }

    /// Largest sampled block occupancy (summed across workers after a
    /// merge: workers run concurrently, so their peaks coexist).
    pub fn peak_kv_blocks(&self) -> usize {
        self.peak_kv_blocks
    }

    /// Mean sampled block occupancy per tick.
    pub fn avg_kv_blocks(&self) -> f64 {
        if self.occupancy_ticks == 0 {
            return 0.0;
        }
        self.occupancy_block_ticks / self.occupancy_ticks as f64
    }

    /// Sessions evicted mid-decode to free pool blocks.
    pub fn preemptions(&self) -> usize {
        self.preemptions
    }

    /// Prefill blocks requested under a prefix key (sharing opportunities).
    pub fn prefix_lookups(&self) -> usize {
        self.prefix_lookups
    }

    /// Prefill blocks served by re-using a resident shared block.
    pub fn prefix_hits(&self) -> usize {
        self.prefix_hits
    }

    /// Fraction of keyed prefill blocks served from resident shared blocks.
    pub fn shared_prefix_hit_rate(&self) -> f64 {
        if self.prefix_lookups == 0 {
            return 0.0;
        }
        self.prefix_hits as f64 / self.prefix_lookups as f64
    }

    /// Copy-on-write block copies performed.
    pub fn cow_copies(&self) -> usize {
        self.cow_copies
    }

    /// Publishes the memory gauges and counters into `registry` under the
    /// `specasr_kv_*` namespace of the Prometheus-style exposition.
    pub fn publish_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_gauge(
            "specasr_kv_capacity_blocks",
            "Total KV-block budget across sub-pools.",
            &[],
            self.kv_capacity_blocks as f64,
        );
        registry.set_gauge(
            "specasr_kv_peak_blocks",
            "High-water mark of simultaneously live KV blocks.",
            &[],
            self.peak_kv_blocks as f64,
        );
        registry.set_gauge(
            "specasr_kv_avg_blocks",
            "Mean sampled KV-block occupancy per tick.",
            &[],
            self.avg_kv_blocks(),
        );
        registry.set_counter(
            "specasr_kv_preemptions_total",
            "Sessions evicted mid-decode to free pool blocks.",
            &[],
            self.preemptions as f64,
        );
        registry.set_counter(
            "specasr_kv_prefix_lookups_total",
            "Prefill blocks requested under a prefix key.",
            &[],
            self.prefix_lookups as f64,
        );
        registry.set_counter(
            "specasr_kv_prefix_hits_total",
            "Prefill blocks served from resident shared blocks.",
            &[],
            self.prefix_hits as f64,
        );
        registry.set_counter(
            "specasr_kv_cow_copies_total",
            "Copy-on-write block copies performed.",
            &[],
            self.cow_copies as f64,
        );
    }

    /// Folds another worker's memory statistics in (parallel-fleet
    /// semantics: everything sums — each worker owns an independent pool).
    fn merge(&mut self, other: &MemoryStats) {
        self.kv_capacity_blocks += other.kv_capacity_blocks;
        self.peak_kv_blocks += other.peak_kv_blocks;
        self.occupancy_block_ticks += other.occupancy_block_ticks;
        self.occupancy_ticks += other.occupancy_ticks;
        self.preemptions += other.preemptions;
        self.prefix_lookups += other.prefix_lookups;
        self.prefix_hits += other.prefix_hits;
        self.cow_copies += other.cow_copies;
    }
}

/// Decoder-backend statistics of one scheduler (or, after
/// [`ServerStats::merge`], of a fleet): how the scheduler's
/// [`specasr_models::AsrBackend`] and its draft lane were driven.
///
/// Verification is where cross-session batching lives, so the occupancy
/// gauge is computed over verify batches only — per-session draft chains
/// are inherently serial single-token steps and would wash the signal
/// out.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendStats {
    /// Summed counters of the draft lane and the target backend.  The
    /// draft lane's queries run in place, one at a time, so it adds no
    /// in-flight depth: `peak_in_flight` is the target backend's.
    counters: BackendCounters,
}

impl BackendStats {
    /// Builds the gauge snapshot from the scheduler's two lane counters.
    pub(crate) fn from_counters(draft: &BackendCounters, target: &BackendCounters) -> Self {
        let mut counters = *draft;
        counters.absorb(target);
        BackendStats { counters }
    }

    /// Batches submitted across both backends.
    pub fn batches(&self) -> usize {
        self.counters.batches
    }

    /// Requests submitted across both backends.
    pub fn requests(&self) -> usize {
        self.counters.requests
    }

    /// Single-token draft-step requests submitted.
    pub fn draft_requests(&self) -> usize {
        self.counters.draft_requests
    }

    /// Verification requests submitted.
    pub fn verify_requests(&self) -> usize {
        self.counters.verify_requests
    }

    /// Cross-session verification batches submitted.
    pub fn verify_batches(&self) -> usize {
        self.counters.verify_batches
    }

    /// Mean verification requests per verification batch — the
    /// cross-session batching gauge (1.0 means every session verified
    /// alone; 0.0 before anything verified).  Delegates to
    /// [`BackendCounters::verify_batch_occupancy`], the single definition of
    /// the gauge.
    pub fn verify_batch_occupancy(&self) -> f64 {
        self.counters.verify_batch_occupancy()
    }

    /// Largest number of verification requests that were in flight on the
    /// target backend simultaneously (early waves executing while straggler
    /// draft phases still run push this above the batch size of a single
    /// wave).
    pub fn peak_in_flight(&self) -> usize {
        self.counters.peak_in_flight
    }

    /// Modeled milliseconds the device timelines spent executing batches.
    pub fn device_busy_ms(&self) -> f64 {
        self.counters.device_busy_ms
    }

    /// Modeled milliseconds the device timelines sat idle between
    /// consecutive spans — the gap pipelined scheduling exists to close.
    pub fn device_idle_ms(&self) -> f64 {
        self.counters.device_idle_ms
    }

    /// Publishes the backend counters and gauges into `registry` under the
    /// `specasr_backend_*` namespace of the Prometheus-style exposition.
    pub fn publish_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_counter(
            "specasr_backend_batches_total",
            "Batches submitted across draft and target backends.",
            &[],
            self.batches() as f64,
        );
        registry.set_counter(
            "specasr_backend_requests_total",
            "Forward requests submitted across both backends.",
            &[],
            self.requests() as f64,
        );
        registry.set_counter(
            "specasr_backend_draft_requests_total",
            "Single-token draft-step requests submitted.",
            &[],
            self.draft_requests() as f64,
        );
        registry.set_counter(
            "specasr_backend_verify_requests_total",
            "Verification requests submitted.",
            &[],
            self.verify_requests() as f64,
        );
        registry.set_counter(
            "specasr_backend_verify_batches_total",
            "Cross-session verification batches submitted.",
            &[],
            self.verify_batches() as f64,
        );
        registry.set_gauge(
            "specasr_backend_verify_batch_occupancy",
            "Mean verification requests per verification batch.",
            &[],
            self.verify_batch_occupancy(),
        );
        registry.set_gauge(
            "specasr_backend_peak_in_flight",
            "Peak simultaneous verification requests on the target backend.",
            &[],
            self.peak_in_flight() as f64,
        );
        registry.set_counter(
            "specasr_backend_device_busy_ms_total",
            "Modeled milliseconds the device timelines spent executing batches.",
            &[],
            self.device_busy_ms(),
        );
        registry.set_counter(
            "specasr_backend_device_idle_ms_total",
            "Modeled milliseconds the device timelines sat idle between spans.",
            &[],
            self.device_idle_ms(),
        );
    }

    /// Folds another worker's backend statistics in (parallel-fleet
    /// semantics: counters sum; workers run concurrently, so their in-flight
    /// peaks coexist and sum too).
    fn merge(&mut self, other: &BackendStats) {
        self.counters.absorb(&other.counters);
    }
}

/// Speculation-efficiency counters of one `(policy, drafter)` group: how
/// many draft tokens the group proposed, how many survived verification, and
/// how the group's share of target-device time splits between useful work
/// and waste.
///
/// The aggregate [`ServerStats::mean_acceptance`] averages over *everything*
/// the server ran; this split answers the per-configuration question — which
/// policy × drafter combination wastes device time on rejected drafts — and
/// is the serving-side mirror of the flight-recorder ledger
/// (`specasr_trace::analysis`), computed from the same per-wave
/// service-time shares.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpeculationGroupStats {
    rounds: usize,
    drafted_tokens: usize,
    accepted_tokens: usize,
    charged_tokens: usize,
    accepted_work_ms: f64,
    probe_overhead_ms: f64,
    rejected_draft_ms: f64,
}

impl SpeculationGroupStats {
    /// Verify rounds the group committed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Draft tokens the group proposed.
    pub fn drafted_tokens(&self) -> usize {
        self.drafted_tokens
    }

    /// Draft tokens the target accepted.
    pub fn accepted_tokens(&self) -> usize {
        self.accepted_tokens
    }

    /// Token width the group was billed on the device.
    pub fn charged_tokens(&self) -> usize {
        self.charged_tokens
    }

    /// Acceptance ratio (accepted / drafted; 0.0 before anything drafted).
    pub fn acceptance(&self) -> f64 {
        if self.drafted_tokens == 0 {
            0.0
        } else {
            self.accepted_tokens as f64 / self.drafted_tokens as f64
        }
    }

    /// Device milliseconds spent producing accepted tokens.
    pub fn accepted_work_ms(&self) -> f64 {
        self.accepted_work_ms
    }

    /// Device milliseconds spent on probe/bonus positions beyond the drafts.
    pub fn probe_overhead_ms(&self) -> f64 {
        self.probe_overhead_ms
    }

    /// Device milliseconds wasted on rejected draft tokens.
    pub fn rejected_draft_ms(&self) -> f64 {
        self.rejected_draft_ms
    }

    /// Wasted device milliseconds per rejected draft token.
    pub fn wasted_ms_per_rejected_token(&self) -> f64 {
        let rejected = self.drafted_tokens.saturating_sub(self.accepted_tokens);
        if rejected == 0 {
            0.0
        } else {
            self.rejected_draft_ms / rejected as f64
        }
    }

    fn merge(&mut self, other: &SpeculationGroupStats) {
        self.rounds += other.rounds;
        self.drafted_tokens += other.drafted_tokens;
        self.accepted_tokens += other.accepted_tokens;
        self.charged_tokens += other.charged_tokens;
        self.accepted_work_ms += other.accepted_work_ms;
        self.probe_overhead_ms += other.probe_overhead_ms;
        self.rejected_draft_ms += other.rejected_draft_ms;
    }
}

/// Latency statistics of one SLO class (see [`SloClass`]): completions,
/// deadline shedding, and the class's own end-to-end latency histogram,
/// merged fleet-wide like every other gauge.
#[derive(Debug, Clone, Default)]
pub struct SloClassStats {
    completed: usize,
    rejected_deadline: usize,
    e2e: Histogram,
}

impl SloClassStats {
    /// Completed requests of this class.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Requests of this class shed because their queue wait exceeded their
    /// time-to-first-token budget.
    pub fn rejected_deadline(&self) -> usize {
        self.rejected_deadline
    }

    /// Histogram of this class's end-to-end latency (ms).
    pub fn e2e_histogram(&self) -> &Histogram {
        &self.e2e
    }

    /// P50 of this class's end-to-end latency in milliseconds.
    pub fn e2e_p50_ms(&self) -> f64 {
        self.e2e_histogram().percentile(0.50)
    }

    /// P99 of this class's end-to-end latency in milliseconds.
    pub fn e2e_p99_ms(&self) -> f64 {
        self.e2e_histogram().percentile(0.99)
    }

    fn merge(&mut self, other: &SloClassStats) {
        self.completed += other.completed;
        self.rejected_deadline += other.rejected_deadline;
        self.e2e.merge(&other.e2e);
    }
}

/// Aggregate statistics of one scheduler's lifetime.
///
/// Populated incrementally by the scheduler; every latency is recorded at
/// completion into a [`specasr_metrics::Histogram`], and the percentiles
/// read from it.
///
/// Memory: everything is a counter or a fixed-bucket histogram, so nothing
/// grows with the number of requests served.  A histogram spans the
/// log-spaced buckets between the smallest and the largest latency it has
/// seen, about 231 `u64` counts per decade.  No per-round history is kept:
/// the draft-token acceptance is two counters, and the per-`(policy,
/// drafter)` speculation groups are one entry per combination that ran.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    completed: usize,
    rejected: usize,
    rejected_memory: usize,
    rejected_deadline: usize,
    streaming_completed: usize,
    partials_emitted: usize,
    retracted_tokens: usize,
    shown_hypothesis_tokens: usize,
    migrated_in_handoff: usize,
    migrated_in_restore: usize,
    memory: MemoryStats,
    backend: BackendStats,
    slo: [SloClassStats; 4],
    ticks: usize,
    wall_ms: f64,
    sequential_ms: f64,
    peak_in_flight: usize,
    total_tokens: usize,
    total_audio_seconds: f64,
    predicted_tokens: usize,
    accepted_tokens: usize,
    speculation: BTreeMap<(String, String), SpeculationGroupStats>,
    e2e: Histogram,
    ttft: Histogram,
    queue: Histogram,
    first_partial: Histogram,
    partial_span: Histogram,
}

impl ServerStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Records one scheduler tick over `in_flight` sessions.
    pub(crate) fn record_tick(&mut self, cost: TickCost, in_flight: usize) {
        self.ticks += 1;
        self.wall_ms += cost.wall_ms;
        self.sequential_ms += cost.sequential_ms;
        self.peak_in_flight = self.peak_in_flight.max(in_flight);
    }

    /// Records one completed request (offline or streaming; streaming
    /// requests additionally feed the partial-latency and stability gauges).
    pub(crate) fn record_completion(&mut self, outcome: &RequestOutcome) {
        self.completed += 1;
        self.total_tokens += outcome.token_count();
        self.total_audio_seconds += outcome.audio_seconds;
        self.predicted_tokens += outcome.outcome.stats.predicted_tokens;
        self.accepted_tokens += outcome.outcome.stats.accepted_tokens;
        self.e2e.record(outcome.latency.e2e_ms());
        self.ttft.record(outcome.latency.time_to_first_token_ms);
        self.queue.record(outcome.latency.queue_ms);
        let slo = &mut self.slo[outcome.slo.index()];
        slo.completed += 1;
        slo.e2e.record(outcome.latency.e2e_ms());
        if outcome.is_streaming() {
            self.streaming_completed += 1;
            // Streaming TTFT *is* the first-partial latency from arrival.
            self.first_partial
                .record(outcome.latency.time_to_first_token_ms);
            for partial in &outcome.partials {
                self.partials_emitted += 1;
                self.partial_span.record(partial.span_ms());
                self.retracted_tokens += partial.retracted_tokens as usize;
                self.shown_hypothesis_tokens +=
                    (partial.hypothesis_tokens - partial.committed_tokens) as usize;
            }
        }
    }

    /// Records one committed verify round against its `(policy, drafter)`
    /// group.  `per_token_ms` is the round's wave service time divided by
    /// the wave's billed width — the same device-time share the trace
    /// ledger charges, so serving stats and trace analysis agree.
    pub(crate) fn record_verify_outcome(
        &mut self,
        policy: &str,
        drafter: &str,
        drafted: usize,
        accepted: usize,
        charged: usize,
        per_token_ms: f64,
    ) {
        self.update_group(policy, drafter, |group| {
            group.rounds += 1;
            group.drafted_tokens += drafted;
            group.accepted_tokens += accepted;
            group.charged_tokens += charged;
            group.accepted_work_ms += per_token_ms * accepted as f64;
            group.probe_overhead_ms += per_token_ms * charged.saturating_sub(drafted) as f64;
            group.rejected_draft_ms += per_token_ms * drafted.saturating_sub(accepted) as f64;
        });
    }

    /// Applies `update` to the `(policy, drafter)` group.  The group is
    /// found by comparing borrowed labels, so its key is allocated only the
    /// first time the pair appears.
    fn update_group(
        &mut self,
        policy: &str,
        drafter: &str,
        update: impl FnOnce(&mut SpeculationGroupStats),
    ) {
        let found = self
            .speculation
            .iter_mut()
            .find(|((p, d), _)| p == policy && d == drafter);
        let group = match found {
            Some((_, group)) => group,
            None => self
                .speculation
                .entry((policy.to_owned(), drafter.to_owned()))
                .or_default(),
        };
        update(group);
    }

    /// Records one rejected submission (queue full).
    pub(crate) fn record_rejection(&mut self) {
        self.rejected += 1;
    }

    /// Records one request dropped because it can never fit the KV pool.
    pub(crate) fn record_memory_rejection(&mut self) {
        self.rejected_memory += 1;
    }

    /// Records one request shed because its queue wait already exceeded its
    /// time-to-first-token budget, against its SLO class.
    pub(crate) fn record_deadline_rejection(&mut self, class: SloClass) {
        self.rejected_deadline += 1;
        self.slo[class.index()].rejected_deadline += 1;
    }

    /// Records one preemption (a session evicted to free pool blocks).
    pub(crate) fn record_preemption(&mut self) {
        self.memory.preemptions += 1;
    }

    /// Records one session migrated *into* this worker by a fleet drain —
    /// via the same-machine block-table hand-off (`handoff`) or the
    /// preempt/restore slow path.  Counted on the destination only, so
    /// fleet-merged totals count each migration exactly once.
    pub(crate) fn record_migration(&mut self, handoff: bool) {
        if handoff {
            self.migrated_in_handoff += 1;
        } else {
            self.migrated_in_restore += 1;
        }
    }

    /// Records this tick's sampled pool occupancy (for the average gauge).
    pub(crate) fn record_kv_occupancy(&mut self, used_blocks: usize) {
        self.memory.occupancy_block_ticks += used_blocks as f64;
        self.memory.occupancy_ticks += 1;
    }

    /// Registers the pool's block budget (at scheduler construction).
    pub(crate) fn set_kv_capacity(&mut self, capacity_blocks: usize) {
        self.memory.kv_capacity_blocks = capacity_blocks;
    }

    /// Overwrites the monotonic pool gauges from the pool's own accounting
    /// (called at tick boundaries; the allocator is the source of truth for
    /// this worker's peak and sharing counters).
    pub(crate) fn sync_pool_gauges(
        &mut self,
        peak_used: usize,
        lookups: usize,
        hits: usize,
        cow: usize,
    ) {
        self.memory.peak_kv_blocks = peak_used;
        self.memory.prefix_lookups = lookups;
        self.memory.prefix_hits = hits;
        self.memory.cow_copies = cow;
    }

    /// Overwrites the backend gauges from the backends' own cumulative
    /// counters (called at tick boundaries; the backends are the source of
    /// truth for this worker's submission accounting).
    pub(crate) fn sync_backend_gauges(
        &mut self,
        draft: &BackendCounters,
        target: &BackendCounters,
    ) {
        self.backend = BackendStats::from_counters(draft, target);
    }

    /// Merges another worker's statistics into this one, with
    /// parallel-fleet semantics: counters, histograms, and device time sum,
    /// while wall time takes the maximum (workers run concurrently, so the
    /// fleet finishes when its slowest worker does) and peak concurrency
    /// adds (each worker contributes its own in-flight sessions).
    ///
    /// [`crate::Router::fleet_stats`] folds every worker's statistics
    /// through this to report fleet-wide throughput and latency percentiles.
    pub fn merge(&mut self, other: &ServerStats) {
        self.completed += other.completed;
        // Rejection reasons merge per class, so fleet stats can tell
        // queue-depth shedding and memory rejections apart.
        self.rejected += other.rejected;
        self.rejected_memory += other.rejected_memory;
        self.rejected_deadline += other.rejected_deadline;
        self.streaming_completed += other.streaming_completed;
        self.partials_emitted += other.partials_emitted;
        self.retracted_tokens += other.retracted_tokens;
        self.shown_hypothesis_tokens += other.shown_hypothesis_tokens;
        self.migrated_in_handoff += other.migrated_in_handoff;
        self.migrated_in_restore += other.migrated_in_restore;
        self.memory.merge(&other.memory);
        self.backend.merge(&other.backend);
        for (class, other_class) in self.slo.iter_mut().zip(&other.slo) {
            class.merge(other_class);
        }
        self.ticks += other.ticks;
        self.wall_ms = self.wall_ms.max(other.wall_ms);
        self.sequential_ms += other.sequential_ms;
        self.peak_in_flight += other.peak_in_flight;
        self.total_tokens += other.total_tokens;
        self.total_audio_seconds += other.total_audio_seconds;
        self.predicted_tokens += other.predicted_tokens;
        self.accepted_tokens += other.accepted_tokens;
        for ((policy, drafter), group) in &other.speculation {
            self.update_group(policy, drafter, |own| own.merge(group));
        }
        self.e2e.merge(&other.e2e);
        self.ttft.merge(&other.ttft);
        self.queue.merge(&other.queue);
        self.first_partial.merge(&other.first_partial);
        self.partial_span.merge(&other.partial_span);
    }

    /// Overwrites these statistics with `parts` merged in order (what
    /// [`ServerStats::merge`] of each part into fresh statistics gives),
    /// keeping the buffers: every histogram keeps its buckets and the
    /// speculation map its groups.  Once the buffers span the parts'
    /// buckets and groups, a refill allocates nothing.
    pub(crate) fn refill<'a>(&mut self, parts: impl IntoIterator<Item = &'a ServerStats>) {
        let mut kept = std::mem::take(self);
        self.speculation = std::mem::take(&mut kept.speculation);
        for group in self.speculation.values_mut() {
            *group = SpeculationGroupStats::default();
        }
        for (histogram, buffer) in self.histograms_mut().zip(kept.histograms_mut()) {
            std::mem::swap(histogram, buffer);
            histogram.reset();
        }
        for part in parts {
            self.merge(part);
        }
        // Every group a part holds has committed a round; a kept group none
        // of them holds would not be in a fresh merge.
        self.speculation.retain(|_, group| group.rounds > 0);
    }

    /// Every latency histogram, the per-class ones last.
    fn histograms_mut(&mut self) -> impl Iterator<Item = &mut Histogram> {
        let classes = self.slo.iter_mut().map(|class| &mut class.e2e);
        [
            &mut self.e2e,
            &mut self.ttft,
            &mut self.queue,
            &mut self.first_partial,
            &mut self.partial_span,
        ]
        .into_iter()
        .chain(classes)
    }

    /// Number of completed requests.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Number of submissions rejected for queue-depth backpressure.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Number of requests dropped because their KV demand can never fit the
    /// pool (distinct from queue shedding, so overload diagnostics can tell
    /// "add workers" from "add memory").
    pub fn rejected_memory(&self) -> usize {
        self.rejected_memory
    }

    /// Number of requests shed because their queue wait already exceeded
    /// their time-to-first-token budget (reported separately so SLO tuning
    /// can tell deadline shedding from capacity shedding).
    pub fn rejected_deadline(&self) -> usize {
        self.rejected_deadline
    }

    /// Completed requests that streamed their audio chunk by chunk.
    pub fn streaming_completed(&self) -> usize {
        self.streaming_completed
    }

    /// Partial transcripts emitted across completed streaming requests.
    pub fn partials_emitted(&self) -> usize {
        self.partials_emitted
    }

    /// Uncommitted hypothesis tokens shown across all partials (the
    /// denominator of [`ServerStats::retraction_rate`]).
    pub fn shown_hypothesis_tokens(&self) -> usize {
        self.shown_hypothesis_tokens
    }

    /// Hypothesis tokens retracted between consecutive partials.
    pub fn retracted_tokens(&self) -> usize {
        self.retracted_tokens
    }

    /// Fraction of shown (uncommitted) hypothesis tokens later retracted —
    /// the fleet-wide partial-stability metric (0.0 when nothing streamed).
    pub fn retraction_rate(&self) -> f64 {
        if self.shown_hypothesis_tokens == 0 {
            0.0
        } else {
            self.retracted_tokens as f64 / self.shown_hypothesis_tokens as f64
        }
    }

    /// Sessions migrated into this worker (or, fleet-merged, across the
    /// fleet) via the same-machine block-table hand-off fast path — no
    /// re-prefill, the block tables moved between pools.
    pub fn migrated_in_handoff(&self) -> usize {
        self.migrated_in_handoff
    }

    /// Sessions migrated into this worker (or, fleet-merged, across the
    /// fleet) via the preempt/restore slow path — blocks released at the
    /// source, deterministic re-prefill + re-decode here.
    pub fn migrated_in_restore(&self) -> usize {
        self.migrated_in_restore
    }

    /// All live-migrated sessions, whatever the path.
    pub fn migrations(&self) -> usize {
        self.migrated_in_handoff + self.migrated_in_restore
    }

    /// Paged KV-pool memory statistics.
    pub fn memory(&self) -> &MemoryStats {
        &self.memory
    }

    /// Decoder-backend submission statistics (batch occupancy, in-flight
    /// depth).
    pub fn backend(&self) -> &BackendStats {
        &self.backend
    }

    /// Latency statistics of one SLO class.
    pub fn slo_class(&self, class: SloClass) -> &SloClassStats {
        &self.slo[class.index()]
    }

    /// Number of scheduler iterations executed.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Total simulated wall-clock milliseconds the scheduler ran for.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ms
    }

    /// Largest number of sessions that were in flight simultaneously.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Total transcript tokens produced by completed requests.
    pub fn total_tokens(&self) -> usize {
        self.total_tokens
    }

    /// Total audio seconds transcribed by completed requests.
    pub fn total_audio_seconds(&self) -> f64 {
        self.total_audio_seconds
    }

    /// Completed utterances per simulated wall-clock second.
    pub fn utterances_per_second(&self) -> f64 {
        per_second(self.completed as f64, self.wall_ms)
    }

    /// Transcript tokens per simulated wall-clock second.
    pub fn tokens_per_second(&self) -> f64 {
        per_second(self.total_tokens as f64, self.wall_ms)
    }

    /// Mean draft-token acceptance ratio across completed requests
    /// (accepted / predicted draft tokens; 0.0 before anything drafted).
    pub fn mean_acceptance(&self) -> f64 {
        if self.predicted_tokens == 0 {
            0.0
        } else {
            self.accepted_tokens as f64 / self.predicted_tokens as f64
        }
    }

    /// Per `(policy, drafter)` speculation-efficiency groups, label-ordered.
    pub fn speculation_groups(&self) -> &BTreeMap<(String, String), SpeculationGroupStats> {
        &self.speculation
    }

    /// Total device milliseconds wasted on rejected draft tokens across all
    /// groups — the bench-gated speculation-waste scalar.
    pub fn rejected_draft_device_ms(&self) -> f64 {
        self.speculation
            .values()
            .map(SpeculationGroupStats::rejected_draft_ms)
            .sum()
    }

    /// Device time saved by batching: sequential-equivalent milliseconds
    /// divided by the batched wall milliseconds (1.0 = no benefit).
    pub fn batching_speedup(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 1.0;
        }
        self.sequential_ms / self.wall_ms
    }

    /// Histogram of end-to-end request latency (ms).
    pub fn e2e_histogram(&self) -> &Histogram {
        &self.e2e
    }

    /// Histogram of time-to-first-token latency (ms).
    pub fn ttft_histogram(&self) -> &Histogram {
        &self.ttft
    }

    /// P50 of end-to-end latency in milliseconds.
    pub fn e2e_p50_ms(&self) -> f64 {
        self.e2e_histogram().percentile(0.50)
    }

    /// P99 of end-to-end latency in milliseconds.
    pub fn e2e_p99_ms(&self) -> f64 {
        self.e2e_histogram().percentile(0.99)
    }

    /// P50 of time-to-first-token latency in milliseconds.
    pub fn ttft_p50_ms(&self) -> f64 {
        self.ttft_histogram().percentile(0.50)
    }

    /// P99 of time-to-first-token latency in milliseconds.
    pub fn ttft_p99_ms(&self) -> f64 {
        self.ttft_histogram().percentile(0.99)
    }

    /// Histogram of first-partial latency (request arrival → first partial
    /// emission) across streaming requests.
    pub fn first_partial_histogram(&self) -> &Histogram {
        &self.first_partial
    }

    /// Histogram of per-partial latency spans (chunk arrival → partial
    /// emission) across streaming requests.
    pub fn partial_span_histogram(&self) -> &Histogram {
        &self.partial_span
    }

    /// P50 of streaming first-partial latency in milliseconds.
    pub fn first_partial_p50_ms(&self) -> f64 {
        self.first_partial_histogram().percentile(0.50)
    }

    /// P99 of streaming first-partial latency in milliseconds.
    pub fn first_partial_p99_ms(&self) -> f64 {
        self.first_partial_histogram().percentile(0.99)
    }

    /// P99 of per-partial latency spans in milliseconds.
    pub fn partial_span_p99_ms(&self) -> f64 {
        self.partial_span_histogram().percentile(0.99)
    }

    /// Publishes every served gauge, counter, and latency histogram into
    /// `registry` in the Prometheus-style exposition namespace
    /// (`specasr_*`).  Includes the [`MemoryStats`] and [`BackendStats`]
    /// families and a per-[`SloClass`] breakdown under a `class` label.
    ///
    /// Histograms publish their fixed buckets as they are, so every `le`
    /// bound is a constant of its bucket from one scrape to the next.
    pub fn publish_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_counter(
            "specasr_requests_completed_total",
            "Requests served to completion.",
            &[],
            self.completed as f64,
        );
        registry.set_counter(
            "specasr_requests_rejected_total",
            "Requests shed, by reason.",
            &[("reason", "queue_full")],
            self.rejected as f64,
        );
        registry.set_counter(
            "specasr_requests_rejected_total",
            "Requests shed, by reason.",
            &[("reason", "memory")],
            self.rejected_memory as f64,
        );
        registry.set_counter(
            "specasr_requests_rejected_total",
            "Requests shed, by reason.",
            &[("reason", "deadline")],
            self.rejected_deadline as f64,
        );
        registry.set_counter(
            "specasr_migrations_total",
            "Sessions live-migrated between workers, by path.",
            &[("path", "handoff")],
            self.migrated_in_handoff as f64,
        );
        registry.set_counter(
            "specasr_migrations_total",
            "Sessions live-migrated between workers, by path.",
            &[("path", "restore")],
            self.migrated_in_restore as f64,
        );
        registry.set_counter(
            "specasr_streaming_completed_total",
            "Streaming requests finalised.",
            &[],
            self.streaming_completed as f64,
        );
        registry.set_counter(
            "specasr_partials_emitted_total",
            "Partial transcripts emitted across streaming requests.",
            &[],
            self.partials_emitted as f64,
        );
        registry.set_counter(
            "specasr_hypothesis_tokens_total",
            "Hypothesis tokens shown ahead of commitment.",
            &[],
            self.shown_hypothesis_tokens as f64,
        );
        registry.set_counter(
            "specasr_retracted_tokens_total",
            "Shown hypothesis tokens later retracted.",
            &[],
            self.retracted_tokens as f64,
        );
        registry.set_counter(
            "specasr_ticks_total",
            "Scheduler ticks executed.",
            &[],
            self.ticks as f64,
        );
        registry.set_counter(
            "specasr_tokens_total",
            "Output tokens committed.",
            &[],
            self.total_tokens() as f64,
        );
        registry.set_counter(
            "specasr_audio_seconds_total",
            "Audio seconds served.",
            &[],
            self.total_audio_seconds(),
        );
        registry.set_gauge(
            "specasr_wall_ms",
            "Simulated wall-clock time spent ticking.",
            &[],
            self.wall_ms,
        );
        registry.set_gauge(
            "specasr_peak_in_flight",
            "Peak simultaneously decoding sessions.",
            &[],
            self.peak_in_flight as f64,
        );
        registry.set_gauge(
            "specasr_mean_acceptance",
            "Mean speculative acceptance rate.",
            &[],
            self.mean_acceptance(),
        );
        registry.set_counter(
            "specasr_rejected_draft_device_ms_total",
            "Device milliseconds wasted on rejected draft tokens.",
            &[],
            self.rejected_draft_device_ms(),
        );
        for ((policy, drafter), group) in &self.speculation {
            let labels = [("policy", policy.as_str()), ("drafter", drafter.as_str())];
            registry.set_gauge(
                "specasr_speculation_acceptance",
                "Acceptance ratio per policy and drafter.",
                &labels,
                group.acceptance(),
            );
            registry.set_counter(
                "specasr_speculation_rounds_total",
                "Committed verify rounds per policy and drafter.",
                &labels,
                group.rounds() as f64,
            );
            registry.set_counter(
                "specasr_speculation_drafted_tokens_total",
                "Draft tokens proposed per policy and drafter.",
                &labels,
                group.drafted_tokens() as f64,
            );
            registry.set_counter(
                "specasr_speculation_accepted_tokens_total",
                "Draft tokens accepted per policy and drafter.",
                &labels,
                group.accepted_tokens() as f64,
            );
            registry.set_counter(
                "specasr_speculation_rejected_draft_ms_total",
                "Device ms wasted on rejected drafts per policy and drafter.",
                &labels,
                group.rejected_draft_ms(),
            );
        }
        registry.set_gauge(
            "specasr_batching_speedup",
            "Sequential device time divided by batched wall time.",
            &[],
            self.batching_speedup(),
        );
        registry.set_histogram(
            "specasr_e2e_latency_ms",
            "End-to-end request latency in milliseconds.",
            &[],
            &self.e2e,
        );
        registry.set_histogram(
            "specasr_ttft_latency_ms",
            "Time-to-first-token latency in milliseconds.",
            &[],
            &self.ttft,
        );
        registry.set_histogram(
            "specasr_queue_latency_ms",
            "Admission-queue wait in milliseconds.",
            &[],
            &self.queue,
        );
        registry.set_histogram(
            "specasr_first_partial_latency_ms",
            "Streaming arrival-to-first-partial latency in milliseconds.",
            &[],
            &self.first_partial,
        );
        registry.set_histogram(
            "specasr_partial_span_latency_ms",
            "Streaming chunk-arrival-to-partial latency in milliseconds.",
            &[],
            &self.partial_span,
        );
        for class in SloClass::ALL {
            let stats = self.slo_class(class);
            let labels = [("class", class.name())];
            registry.set_counter(
                "specasr_slo_completed_total",
                "Completed requests per SLO class.",
                &labels,
                stats.completed() as f64,
            );
            registry.set_counter(
                "specasr_slo_rejected_deadline_total",
                "Deadline-shed requests per SLO class.",
                &labels,
                stats.rejected_deadline() as f64,
            );
            registry.set_histogram(
                "specasr_slo_e2e_latency_ms",
                "End-to-end latency per SLO class in milliseconds.",
                &labels,
                &stats.e2e,
            );
        }
        self.memory.publish_metrics(registry);
        self.backend.publish_metrics(registry);
    }
}

fn per_second(count: f64, wall_ms: f64) -> f64 {
    if wall_ms <= 0.0 {
        0.0
    } else {
        count / (wall_ms / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_report_zeroes() {
        let stats = ServerStats::new();
        assert_eq!(stats.completed(), 0);
        assert_eq!(stats.utterances_per_second(), 0.0);
        assert_eq!(stats.tokens_per_second(), 0.0);
        assert_eq!(stats.batching_speedup(), 1.0);
        assert_eq!(stats.e2e_p50_ms(), 0.0);
    }

    #[test]
    fn verify_outcomes_fold_into_one_group_per_policy_and_drafter() {
        let mut stats = ServerStats::new();
        // Interleaved rounds of two groups: (drafted, accepted, charged, ms
        // per billed token).
        let rounds = [
            ("specasr-tsp", "model", 8, 5, 9, 0.5),
            ("specasr-asp", "ctc", 4, 4, 5, 0.25),
            ("specasr-tsp", "model", 6, 1, 7, 1.0),
            ("specasr-asp", "ctc", 2, 0, 3, 2.0),
            ("specasr-tsp", "model", 3, 3, 4, 0.5),
        ];
        for (policy, drafter, drafted, accepted, charged, per_token_ms) in rounds {
            stats.record_verify_outcome(policy, drafter, drafted, accepted, charged, per_token_ms);
        }
        let groups = stats.speculation_groups();
        let keys: Vec<(&str, &str)> = groups
            .keys()
            .map(|(policy, drafter)| (policy.as_str(), drafter.as_str()))
            .collect();
        assert_eq!(keys, [("specasr-asp", "ctc"), ("specasr-tsp", "model")]);

        let tsp = &groups[&("specasr-tsp".to_owned(), "model".to_owned())];
        assert_eq!(tsp.rounds(), 3);
        assert_eq!(tsp.drafted_tokens(), 17);
        assert_eq!(tsp.accepted_tokens(), 9);
        assert_eq!(tsp.charged_tokens(), 20);
        assert!((tsp.accepted_work_ms() - (2.5 + 1.0 + 1.5)).abs() < 1e-12);
        assert!((tsp.probe_overhead_ms() - (0.5 + 1.0 + 0.5)).abs() < 1e-12);
        assert!((tsp.rejected_draft_ms() - (1.5 + 5.0)).abs() < 1e-12);

        let asp = &groups[&("specasr-asp".to_owned(), "ctc".to_owned())];
        assert_eq!(asp.rounds(), 2);
        assert_eq!(asp.drafted_tokens(), 6);
        assert_eq!(asp.accepted_tokens(), 4);
        assert_eq!(asp.charged_tokens(), 8);
        assert!((asp.accepted_work_ms() - 1.0).abs() < 1e-12);
        assert!((asp.probe_overhead_ms() - (0.25 + 2.0)).abs() < 1e-12);
        assert!((asp.rejected_draft_ms() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn a_refill_equals_a_fresh_merge_of_its_parts() {
        let mut a = ServerStats::new();
        a.record_verify_outcome("specasr-asp", "ctc", 4, 3, 5, 0.5);
        a.e2e.record(12.0);
        a.slo[SloClass::Interactive.index()].e2e.record(12.0);
        a.completed = 1;
        let mut b = ServerStats::new();
        b.record_verify_outcome("specasr-tsp", "model", 8, 5, 9, 0.25);
        b.e2e.record(0.0);
        b.e2e.record(900.0);
        b.completed = 2;
        let mut kept = ServerStats::new();
        kept.refill([&a, &b]);
        let mut fresh = a.clone();
        fresh.merge(&b);
        let render = |stats: &ServerStats| {
            let mut registry = MetricsRegistry::new();
            stats.publish_metrics(&mut registry);
            registry.render()
        };
        assert_eq!(render(&kept), render(&fresh));
        // Refilled from fewer parts, the kept statistics drop the group and
        // the counts only the missing part held.
        kept.refill([&b]);
        assert_eq!(render(&kept), render(&b));
        let groups: Vec<&(String, String)> = kept.speculation_groups().keys().collect();
        assert_eq!(groups, [&("specasr-tsp".to_owned(), "model".to_owned())]);
    }

    #[test]
    fn tick_recording_accumulates_wall_time_and_peaks() {
        let mut stats = ServerStats::new();
        stats.record_tick(
            TickCost {
                wall_ms: 10.0,
                sequential_ms: 25.0,
            },
            3,
        );
        stats.record_tick(
            TickCost {
                wall_ms: 5.0,
                sequential_ms: 5.0,
            },
            1,
        );
        assert_eq!(stats.ticks(), 2);
        assert!((stats.wall_ms() - 15.0).abs() < 1e-12);
        assert_eq!(stats.peak_in_flight(), 3);
        assert!((stats.batching_speedup() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_uses_parallel_fleet_semantics() {
        let mut a = ServerStats::new();
        a.record_tick(
            TickCost {
                wall_ms: 100.0,
                sequential_ms: 150.0,
            },
            2,
        );
        a.record_rejection();
        a.e2e.record(10.0);
        a.e2e.record(20.0);
        a.completed = 2;
        let mut b = ServerStats::new();
        b.record_tick(
            TickCost {
                wall_ms: 40.0,
                sequential_ms: 40.0,
            },
            3,
        );
        b.e2e.record(500.0);
        b.completed = 1;

        a.merge(&b);
        assert_eq!(a.completed(), 3);
        assert_eq!(a.rejected(), 1);
        assert_eq!(a.ticks(), 2);
        assert_eq!(a.rejected_memory(), 0);
        // Wall time is the slowest worker's, not the sum.
        assert!((a.wall_ms() - 100.0).abs() < 1e-12);
        assert!((a.sequential_ms - 190.0).abs() < 1e-12);
        // Fleet concurrency adds across workers.
        assert_eq!(a.peak_in_flight(), 5);
        assert_eq!(a.e2e_histogram().count(), 3);
        assert!(a.e2e_p99_ms() > 400.0);
    }

    #[test]
    fn acceptance_counters_merge_by_summing() {
        let mut a = ServerStats::new();
        assert_eq!(a.mean_acceptance(), 0.0);
        a.predicted_tokens = 10;
        a.accepted_tokens = 9;
        let mut b = ServerStats::new();
        b.predicted_tokens = 30;
        b.accepted_tokens = 11;
        a.merge(&b);
        assert_eq!(a.mean_acceptance(), 0.5);
    }

    #[test]
    fn rejection_reasons_merge_per_class() {
        let mut a = ServerStats::new();
        a.record_rejection();
        a.record_rejection();
        a.record_memory_rejection();
        let mut b = ServerStats::new();
        b.record_rejection();
        b.record_memory_rejection();
        b.record_memory_rejection();
        a.merge(&b);
        assert_eq!(a.rejected(), 3);
        assert_eq!(a.rejected_memory(), 3);
    }

    #[test]
    fn memory_stats_merge_with_parallel_fleet_semantics() {
        let mut a = ServerStats::new();
        a.set_kv_capacity(100);
        a.record_kv_occupancy(40);
        a.record_kv_occupancy(60);
        a.record_preemption();
        a.sync_pool_gauges(60, 10, 5, 1);
        let mut b = ServerStats::new();
        b.set_kv_capacity(100);
        b.record_kv_occupancy(20);
        b.record_preemption();
        b.record_preemption();
        b.sync_pool_gauges(20, 6, 3, 0);

        a.merge(&b);
        let memory = a.memory();
        assert_eq!(memory.kv_capacity_blocks(), 200);
        // Workers run concurrently: their peaks coexist, so peaks sum.
        assert_eq!(memory.peak_kv_blocks(), 80);
        assert!((memory.avg_kv_blocks() - 40.0).abs() < 1e-12);
        assert_eq!(memory.preemptions(), 3);
        assert_eq!(memory.prefix_lookups(), 16);
        assert_eq!(memory.prefix_hits(), 8);
        assert!((memory.shared_prefix_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(memory.cow_copies(), 1);
    }

    #[test]
    fn empty_memory_stats_report_zero_rates() {
        let stats = ServerStats::new();
        assert_eq!(stats.memory().avg_kv_blocks(), 0.0);
        assert_eq!(stats.memory().shared_prefix_hit_rate(), 0.0);
    }

    #[test]
    fn backend_stats_merge_with_parallel_fleet_semantics() {
        use specasr_models::BackendCounters;
        let mut a = ServerStats::new();
        a.sync_backend_gauges(
            &BackendCounters {
                batches: 10,
                requests: 10,
                draft_requests: 10,
                ..BackendCounters::default()
            },
            &BackendCounters {
                batches: 4,
                requests: 12,
                verify_requests: 12,
                verify_batches: 4,
                peak_in_flight: 8,
                ..BackendCounters::default()
            },
        );
        let mut b = ServerStats::new();
        b.sync_backend_gauges(
            &BackendCounters::default(),
            &BackendCounters {
                batches: 2,
                requests: 4,
                verify_requests: 4,
                verify_batches: 2,
                peak_in_flight: 3,
                ..BackendCounters::default()
            },
        );
        assert!((a.backend().verify_batch_occupancy() - 3.0).abs() < 1e-12);
        a.merge(&b);
        let backend = a.backend();
        assert_eq!(backend.batches(), 16);
        assert_eq!(backend.requests(), 26);
        assert_eq!(backend.draft_requests(), 10);
        assert_eq!(backend.verify_requests(), 16);
        assert_eq!(backend.verify_batches(), 6);
        // Workers run concurrently: their in-flight peaks coexist and sum.
        assert_eq!(backend.peak_in_flight(), 11);
        assert!((backend.verify_batch_occupancy() - 16.0 / 6.0).abs() < 1e-12);
        // An idle fleet reports zero occupancy, not NaN.
        assert_eq!(ServerStats::new().backend().verify_batch_occupancy(), 0.0);
    }

    #[test]
    fn slo_class_stats_merge_per_class() {
        use crate::request::SloClass;
        let mut a = ServerStats::new();
        a.slo[SloClass::Interactive.index()].completed = 2;
        a.slo[SloClass::Interactive.index()].e2e.record(10.0);
        a.slo[SloClass::Interactive.index()].e2e.record(20.0);
        a.record_deadline_rejection(SloClass::Interactive);
        let mut b = ServerStats::new();
        b.slo[SloClass::Interactive.index()].completed = 1;
        b.slo[SloClass::Interactive.index()].e2e.record(400.0);
        b.record_deadline_rejection(SloClass::Standard);

        a.merge(&b);
        let interactive = a.slo_class(SloClass::Interactive);
        assert_eq!(interactive.completed(), 3);
        assert_eq!(interactive.rejected_deadline(), 1);
        assert_eq!(interactive.e2e_histogram().count(), 3);
        assert!(interactive.e2e_p99_ms() > 300.0);
        assert!(interactive.e2e_p50_ms() < 100.0);
        assert_eq!(a.slo_class(SloClass::Standard).rejected_deadline(), 1);
        assert_eq!(a.slo_class(SloClass::BestEffort).completed(), 0);
        // Per-class deadline rejections reconcile with the aggregate.
        let per_class: usize = SloClass::ALL
            .iter()
            .map(|&class| a.slo_class(class).rejected_deadline())
            .sum();
        assert_eq!(per_class, a.rejected_deadline());
    }
}
