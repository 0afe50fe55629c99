//! Open-loop load generation: a seeded Poisson arrival process and the
//! driver that plays it against a [`Router`] fleet.
//!
//! The `serve_load` bench is *closed-loop*: every request is queued up front,
//! so the system is never outrun by its clients and queueing delay collapses
//! to a function of service order.  Real traffic is *open-loop*: arrivals
//! come from the outside world at their own rate regardless of how far
//! behind the server is.  Only the open-loop view exposes queueing-theory
//! behaviour — latency stays flat while the offered rate sits below the
//! fleet's service capacity, then grows without bound past the saturation
//! knee.  [`LoadGen`] produces the deterministic arrival process and
//! [`run_open_loop`] measures exactly that curve.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use specasr_audio::Utterance;
use specasr_models::AsrDecoderModel;
use specasr_stream::StreamConfig;

use crate::request::{RequestOutcome, RequestSpec};
use crate::router::Router;
use crate::scheduler::Scheduler;

/// A deterministic Poisson arrival process targeting a fixed request rate.
///
/// Inter-arrival gaps are exponentially distributed with mean `1 / qps`,
/// drawn from a seeded generator, so a given `(seed, target_qps)` pair
/// always produces the identical arrival timeline — benchmark runs are
/// reproducible bit for bit.
///
/// # Example
///
/// ```
/// use specasr_server::LoadGen;
///
/// let mut a = LoadGen::new(42, 10.0);
/// let mut b = LoadGen::new(42, 10.0);
/// let t1 = a.next_arrival_ms();
/// assert_eq!(t1, b.next_arrival_ms());
/// assert!(a.next_arrival_ms() > t1);
/// ```
#[derive(Debug, Clone)]
pub struct LoadGen {
    rng: ChaCha8Rng,
    target_qps: f64,
    clock_ms: f64,
}

impl LoadGen {
    /// Creates a generator targeting `target_qps` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `target_qps` is not finite and positive.
    pub fn new(seed: u64, target_qps: f64) -> Self {
        assert!(
            target_qps.is_finite() && target_qps > 0.0,
            "target_qps must be finite and positive"
        );
        LoadGen {
            rng: ChaCha8Rng::seed_from_u64(seed),
            target_qps,
            clock_ms: 0.0,
        }
    }

    /// The timestamp of the latest generated arrival (0 before the first).
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Advances the process by one exponential inter-arrival gap and returns
    /// the next arrival's absolute timestamp in milliseconds.
    pub fn next_arrival_ms(&mut self) -> f64 {
        let uniform: f64 = self.rng.gen();
        // Inverse-CDF exponential draw; 1 - u keeps the argument in (0, 1].
        let gap_ms = -(1.0 - uniform).ln() * 1_000.0 / self.target_qps;
        self.clock_ms += gap_ms;
        self.clock_ms
    }

    /// Generates the next `count` arrival timestamps.
    pub fn arrivals_ms(&mut self, count: usize) -> Vec<f64> {
        (0..count).map(|_| self.next_arrival_ms()).collect()
    }

    /// Draws one request's chunk cadence for the streaming workload mode:
    /// uniform in `[base × (1 − spread), base × (1 + spread)]` seconds, from
    /// the same seeded generator as the arrival process (microphones and
    /// capture stacks chunk at different rates; a fleet never sees one
    /// uniform cadence).
    ///
    /// # Panics
    ///
    /// Panics if `base_chunk_seconds` is not finite and positive, or
    /// `spread` is not within `[0, 1)`.
    pub fn next_chunk_seconds(&mut self, base_chunk_seconds: f64, spread: f64) -> f64 {
        assert!(
            base_chunk_seconds.is_finite() && base_chunk_seconds > 0.0,
            "base_chunk_seconds must be finite and positive"
        );
        assert!(
            spread.is_finite() && (0.0..1.0).contains(&spread),
            "spread must be within [0, 1)"
        );
        let uniform: f64 = self.rng.gen();
        base_chunk_seconds * (1.0 - spread + 2.0 * spread * uniform)
    }
}

/// Everything one open-loop run produces.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Outcomes of every completed request, in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests the fleet accepted.
    pub submitted: usize,
    /// Requests rejected by fleet-wide backpressure (all queues full).
    pub rejected: usize,
    /// Timestamp of the last arrival — the offered-load window.
    pub last_arrival_ms: f64,
    /// Fleet wall time when the last request completed.
    pub drained_ms: f64,
}

impl OpenLoopReport {
    /// The realised offered rate in requests per second (submitted plus
    /// rejected, over the arrival window).
    pub fn offered_qps(&self) -> f64 {
        if self.last_arrival_ms <= 0.0 {
            return 0.0;
        }
        (self.submitted + self.rejected) as f64 / (self.last_arrival_ms / 1_000.0)
    }

    /// The achieved completion rate in requests per second, over the full
    /// window from first arrival to drain.
    pub fn completed_qps(&self) -> f64 {
        if self.drained_ms <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / (self.drained_ms / 1_000.0)
    }
}

/// Plays an open-loop workload against a router: each `(spec, utterance)`
/// request arrives at its [`LoadGen`] timestamp while the fleet keeps
/// serving, and after the last arrival the fleet drains.
///
/// A spec is anything that converts into a [`RequestSpec`]: a bare
/// [`Policy`](specasr::Policy), or a spec naming a draft source (installed
/// on the router first, [`Router::install_drafter`]) or a
/// time-to-first-token budget.  A budget classes the request into its
/// latency SLO, arms deadline shedding and, under
/// [`crate::AdmissionOrdering::EarliestDeadlineFirst`], orders admission;
/// completions that blew their budget still count as completed, but not as
/// goodput.
///
/// The run is a pure function of the router construction, the workload
/// order, and the load generator's seed/rate.
pub fn run_open_loop<'a, D, T, S>(
    router: &mut Router<D, T>,
    loadgen: &mut LoadGen,
    workload: impl IntoIterator<Item = (S, &'a Utterance)>,
) -> OpenLoopReport
where
    D: AsrDecoderModel,
    T: AsrDecoderModel,
    S: Into<RequestSpec>,
{
    let mut outcomes = Vec::new();
    let mut submitted = 0;
    let mut rejected = 0;
    for (spec, utterance) in workload {
        let arrival_ms = loadgen.next_arrival_ms();
        outcomes.extend(router.advance_to(arrival_ms));
        match router.submit(spec, utterance) {
            Ok(_) => submitted += 1,
            Err(_) => rejected += 1,
        }
    }
    outcomes.extend(router.run_until_idle());
    OpenLoopReport {
        outcomes,
        submitted,
        rejected,
        last_arrival_ms: loadgen.clock_ms(),
        drained_ms: router.fleet_stats().wall_ms(),
    }
}

/// Plays an open-loop *streaming* workload against one scheduler: each
/// `(spec, utterance)` request arrives at its [`LoadGen`] timestamp as a
/// chunked stream with its own cadence (drawn via
/// [`LoadGen::next_chunk_seconds`]), the scheduler keeps serving between
/// arrivals, and after the last arrival it drains.
///
/// The run is a pure function of the scheduler construction, the workload
/// order, the stream configuration, and the load generator's seed/rate.
pub fn run_open_loop_streaming<'a, D, T, S>(
    scheduler: &mut Scheduler<D, T>,
    loadgen: &mut LoadGen,
    stream: StreamConfig,
    cadence_spread: f64,
    workload: impl IntoIterator<Item = (S, &'a Utterance)>,
) -> OpenLoopReport
where
    D: AsrDecoderModel,
    T: AsrDecoderModel,
    S: Into<RequestSpec>,
{
    let base_chunk_seconds = stream.chunk.chunk_seconds;
    let mut outcomes = Vec::new();
    let mut submitted = 0;
    let mut rejected = 0;
    for (spec, utterance) in workload {
        let arrival_ms = loadgen.next_arrival_ms();
        outcomes.extend(scheduler.advance_to(arrival_ms));
        let cadence = loadgen.next_chunk_seconds(base_chunk_seconds, cadence_spread);
        match scheduler.submit_streaming(spec, utterance, stream.with_chunk_seconds(cadence)) {
            Ok(_) => submitted += 1,
            Err(_) => rejected += 1,
        }
    }
    outcomes.extend(scheduler.run_until_idle());
    OpenLoopReport {
        outcomes,
        submitted,
        rejected,
        last_arrival_ms: loadgen.clock_ms(),
        drained_ms: scheduler.stats().wall_ms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr::{Policy, SpeculativeConfig};
    use specasr_audio::{Corpus, EncoderProfile, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};

    use crate::config::RouterConfig;

    #[test]
    fn arrival_streams_are_deterministic_per_seed() {
        let mut a = LoadGen::new(7, 25.0);
        let mut b = LoadGen::new(7, 25.0);
        let mut c = LoadGen::new(8, 25.0);
        assert_eq!(a.arrivals_ms(16), b.arrivals_ms(16));
        assert_ne!(a.arrivals_ms(16), c.arrivals_ms(16));
    }

    #[test]
    fn arrivals_are_strictly_increasing_with_exponential_mean() {
        let mut gen = LoadGen::new(11, 50.0);
        let arrivals = gen.arrivals_ms(2_000);
        for pair in arrivals.windows(2) {
            assert!(pair[1] > pair[0], "arrival times must strictly increase");
        }
        // Mean inter-arrival gap of a 50 QPS Poisson process is 20 ms.
        let mean_gap = arrivals.last().unwrap() / arrivals.len() as f64;
        assert!(
            (mean_gap - 20.0).abs() < 2.0,
            "mean gap should approach 20 ms, got {mean_gap:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "target_qps")]
    fn zero_qps_panics() {
        LoadGen::new(1, 0.0);
    }

    fn fleet(workers: usize) -> (Router<SimulatedAsrModel, SimulatedAsrModel>, Corpus) {
        let corpus = Corpus::librispeech_like(88, 12);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        let router = Router::new(
            RouterConfig::default()
                .with_workers(workers)
                .with_worker_config(
                    // Deep queues: these tests measure latency under overload,
                    // not backpressure shedding.
                    crate::config::ServerConfig::default().with_queue_depth(512),
                ),
            binding,
            EncoderProfile::whisper_medium_encoder(),
            |_| (draft.clone(), target.clone()),
        );
        (router, corpus)
    }

    fn workload(corpus: &Corpus, requests: usize) -> Vec<(Policy, &Utterance)> {
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let pool: Vec<&Utterance> = Split::ALL
            .iter()
            .flat_map(|&split| corpus.split(split))
            .collect();
        (0..requests)
            .map(|i| (policy, pool[i % pool.len()]))
            .collect()
    }

    #[test]
    fn open_loop_runs_are_deterministic() {
        let mut latencies = Vec::new();
        for _ in 0..2 {
            let (mut router, corpus) = fleet(2);
            let mut gen = LoadGen::new(42, 20.0);
            let report = run_open_loop(&mut router, &mut gen, workload(&corpus, 40));
            assert_eq!(report.outcomes.len(), 40);
            assert_eq!(report.rejected, 0);
            latencies.push(
                report
                    .outcomes
                    .iter()
                    .map(|o| o.e2e_ms())
                    .collect::<Vec<f64>>(),
            );
        }
        assert_eq!(latencies[0], latencies[1]);
    }

    #[test]
    fn chunk_cadences_are_seeded_bounded_and_spread() {
        let mut a = LoadGen::new(3, 10.0);
        let mut b = LoadGen::new(3, 10.0);
        let cadences: Vec<f64> = (0..64).map(|_| a.next_chunk_seconds(0.5, 0.4)).collect();
        let repeat: Vec<f64> = (0..64).map(|_| b.next_chunk_seconds(0.5, 0.4)).collect();
        assert_eq!(cadences, repeat, "cadences are deterministic per seed");
        for &cadence in &cadences {
            assert!((0.3..=0.7).contains(&cadence), "cadence {cadence}");
        }
        let spread = cadences
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &c| {
                (lo.min(c), hi.max(c))
            });
        assert!(spread.1 - spread.0 > 0.1, "cadences must actually vary");
        // Zero spread collapses to the base cadence.
        assert_eq!(a.next_chunk_seconds(0.5, 0.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn out_of_range_cadence_spread_panics() {
        LoadGen::new(1, 1.0).next_chunk_seconds(0.5, 1.0);
    }

    #[test]
    fn open_loop_streaming_runs_are_deterministic_and_emit_partials() {
        use specasr_audio::EncoderProfile;
        use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut finals = Vec::new();
        for _ in 0..2 {
            let corpus = Corpus::librispeech_like(88, 4);
            let binding = TokenizerBinding::for_corpus(&corpus);
            let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
            let draft =
                SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
            let mut scheduler = Scheduler::new(
                draft,
                target,
                binding,
                EncoderProfile::whisper_medium_encoder(),
                crate::config::ServerConfig::default(),
            );
            let mut gen = LoadGen::new(21, 4.0);
            let report = run_open_loop_streaming(
                &mut scheduler,
                &mut gen,
                StreamConfig::default(),
                0.3,
                corpus
                    .split(Split::TestClean)
                    .iter()
                    .map(|utterance| (policy, utterance)),
            );
            assert_eq!(report.outcomes.len(), 4);
            assert_eq!(report.rejected, 0);
            assert!(scheduler.stats().partials_emitted() >= 4);
            assert!(report.offered_qps() > 0.0);
            assert!(report.completed_qps() > 0.0);
            finals.push(
                report
                    .outcomes
                    .iter()
                    .map(|o| (o.text.clone(), o.latency.time_to_first_token_ms))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(finals[0], finals[1]);
    }

    #[test]
    fn queueing_delay_grows_past_the_saturation_knee() {
        // The same workload offered gently and then far above the fleet's
        // service rate: the overloaded run must queue dramatically more.
        let mut p99 = Vec::new();
        for qps in [2.0, 2_000.0] {
            let (mut router, corpus) = fleet(1);
            let mut gen = LoadGen::new(9, qps);
            let report = run_open_loop(&mut router, &mut gen, workload(&corpus, 120));
            assert_eq!(report.outcomes.len(), 120, "qps {qps}");
            p99.push(router.fleet_stats().e2e_p99_ms());
        }
        assert!(
            p99[1] > 3.0 * p99[0],
            "overload P99 ({:.0} ms) must dwarf underload P99 ({:.0} ms)",
            p99[1],
            p99[0]
        );
    }
}
