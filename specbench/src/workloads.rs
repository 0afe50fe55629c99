//! The four workloads: the request plan each draws from the seed, the
//! serving stack each drives, and the replay loop that plays a plan against
//! it, timing every public call from outside.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use specasr::{
    AdaptiveConfig, AsrPipeline, DrafterKind, Policy, SparseTreeConfig, TokenMapDrafter,
};
use specasr_audio::{Corpus, EncoderProfile, Split, Utterance, UtteranceId};
use specasr_fleet::{FleetConfig, FleetController, FleetCounters};
use specasr_models::{splitmix64, CtcDrafter, ModelProfile, SimulatedAsrModel, TokenizerBinding};
use specasr_server::{
    AdmissionOrdering, FlightRecording, LoadGen, RequestId, RequestOutcome, Router, RouterConfig,
    Scheduler, ServerConfig, ServerStats, StreamConfig, SubmitError, TraceConfig, WorkerId,
};
use specasr_tokenizer::TokenMapIndex;

use crate::alloc;
use crate::spans::Spans;

/// Seed of the simulated draft/target pair and of the corpus.  The models
/// are the system under test and the corpus is its dataset, so both stay
/// fixed; the workload seed draws the requests: arrival times, chunk
/// cadences and the order utterances are sent in.  (A corpus drawn per seed
/// moved e2e P50 by ±5% between seeds, far more than the arrivals do.)
const FIXED_SEED: u64 = 2025_0610;

/// Utterances per corpus split: four splits give the ≥ 1000 distinct
/// utterances the request mix is drawn over.
const UTTERANCES_PER_SPLIT: usize = 250;

/// `open-fleet` / `open-fleet-rpc`: offered rate and length.  35 QPS sits
/// just below the 2-worker fleet's knee (exact e2e P99 760 ms at 30 QPS,
/// 855 ms at 40, 1144 ms at 50), so queueing is real but bounded.
const OPEN_QPS: f64 = 35.0;
const OPEN_REQUESTS: usize = 8_000;
const OPEN_WORKERS: usize = 2;
const PIPELINE_DEPTH: usize = 4;

/// Rate ladder `capacity_qps` climbs on `open-fleet`.
pub const CAPACITY_LADDER_QPS: [f64; 7] = [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0];

/// `stream-captions`: ASP streams in 600 ms chunks (±25% cadence) on one
/// scheduler with a bounded KV pool.
const STREAM_QPS: f64 = 30.0;
const STREAM_REQUESTS: usize = 6_000;
const STREAM_CHUNK_SECONDS: f64 = 0.6;
const STREAM_CADENCE_SPREAD: f64 = 0.25;
const STREAM_MAX_BATCH: usize = 64;
const STREAM_KV_BLOCKS: usize = 320;

/// `elastic-burst`: a 120 QPS burst, then a 3 QPS quiet tail at least as
/// long, each request carrying a TTFT budget from this cycle.
const BURST_QPS: f64 = 120.0;
const BURST_REQUESTS: usize = 6_000;
const TAIL_QPS: f64 = 3.0;
const TAIL_SECONDS: f64 = 60.0;
const TTFT_BUDGETS_MS: [f64; 3] = [500.0, 2_000.0, 8_000.0];
/// Per-worker queue depth.  The burst's deepest queue stays between 16 and
/// 64 (depth 16 refused a few requests on some seeds, 64 and 256 give
/// identical runs), so no request is refused and the controller, not the
/// queue bound, absorbs the burst.
const BURST_QUEUE_DEPTH: usize = 256;

/// Flight-recorder ring cap for traced replays: large enough that no event
/// is ever dropped at these run lengths (the ring grows on demand).
const TRACE_CAPACITY: usize = 1 << 26;

/// The workloads, by the name the command line takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OpenFleet,
    OpenFleetRpc,
    StreamCaptions,
    ElasticBurst,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OpenFleet,
        Workload::OpenFleetRpc,
        Workload::StreamCaptions,
        Workload::ElasticBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenFleet => "open-fleet",
            Workload::OpenFleetRpc => "open-fleet-rpc",
            Workload::StreamCaptions => "stream-captions",
            Workload::ElasticBurst => "elastic-burst",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a completed request met this workload's latency limit
    /// (`e2e_ms` and `ttft_ms` are measured from the due time).
    pub fn within_limit(self, request: &Request, e2e_ms: f64, ttft_ms: f64) -> bool {
        match self {
            Workload::OpenFleet | Workload::OpenFleetRpc => e2e_ms <= 1_000.0,
            Workload::StreamCaptions => ttft_ms <= 1_500.0,
            Workload::ElasticBurst => ttft_ms <= request.budget_ms.unwrap_or(f64::INFINITY),
        }
    }
}

/// One planned request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub due_ms: f64,
    /// Index into [`Setup::pool`].
    pub utterance: usize,
    pub policy: Policy,
    pub drafter: DrafterKind,
    pub budget_ms: Option<f64>,
    /// Chunk cadence (streams only).
    pub chunk_seconds: f64,
}

pub fn asp() -> Policy {
    Policy::AdaptiveSingleSequence(AdaptiveConfig::paper())
}

pub fn tsp() -> Policy {
    Policy::TwoPassSparseTree(SparseTreeConfig::paper())
}

/// A seeded permutation of `0..len`: the order utterances are sent in.
fn utterance_order(seed: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// The request plan of `workload` for `seed`.
pub fn plan(workload: Workload, seed: u64, pool_len: usize) -> Vec<Request> {
    let order = utterance_order(seed, pool_len);
    match workload {
        Workload::OpenFleet | Workload::OpenFleetRpc => plan_open(seed, OPEN_QPS, pool_len),
        Workload::StreamCaptions => {
            // Same draw order as `run_open_loop_streaming`: arrival, then
            // that request's cadence.
            let mut loadgen = LoadGen::new(seed, STREAM_QPS);
            (0..STREAM_REQUESTS)
                .map(|index| {
                    let due_ms = loadgen.next_arrival_ms();
                    Request {
                        due_ms,
                        utterance: order[index % order.len()],
                        policy: asp(),
                        drafter: DrafterKind::ModelDraft,
                        budget_ms: None,
                        chunk_seconds: loadgen
                            .next_chunk_seconds(STREAM_CHUNK_SECONDS, STREAM_CADENCE_SPREAD),
                    }
                })
                .collect()
        }
        Workload::ElasticBurst => {
            let mut burst = LoadGen::new(seed, BURST_QPS);
            let mut dues = burst.arrivals_ms(BURST_REQUESTS);
            let burst_end_ms = burst.clock_ms();
            let mut tail = LoadGen::new(seed ^ 0x7a11, TAIL_QPS);
            loop {
                let due_ms = burst_end_ms + tail.next_arrival_ms();
                if due_ms > burst_end_ms + TAIL_SECONDS * 1_000.0 {
                    break;
                }
                dues.push(due_ms);
            }
            dues.into_iter()
                .enumerate()
                .map(|(index, due_ms)| Request {
                    due_ms,
                    utterance: order[index % order.len()],
                    policy: if index % 2 == 0 { asp() } else { tsp() },
                    drafter: DrafterKind::ModelDraft,
                    budget_ms: Some(TTFT_BUDGETS_MS[index % TTFT_BUDGETS_MS.len()]),
                    chunk_seconds: 0.0,
                })
                .collect()
        }
    }
}

/// The open-fleet plan at `qps`: requests cycle through (ASP, model draft),
/// (TSP, model draft), (ASP, token-map) and (ASP, CTC).
pub fn plan_open(seed: u64, qps: f64, pool_len: usize) -> Vec<Request> {
    const MIX: [(bool, DrafterKind); 4] = [
        (false, DrafterKind::ModelDraft),
        (true, DrafterKind::ModelDraft),
        (false, DrafterKind::TokenMap),
        (false, DrafterKind::CtcEncoder),
    ];
    let order = utterance_order(seed, pool_len);
    let mut loadgen = LoadGen::new(seed, qps);
    (0..OPEN_REQUESTS)
        .map(|index| {
            let (tree, drafter) = MIX[index % MIX.len()];
            Request {
                due_ms: loadgen.next_arrival_ms(),
                utterance: order[index % order.len()],
                policy: if tree { tsp() } else { asp() },
                drafter,
                budget_ms: None,
                chunk_seconds: 0.0,
            }
        })
        .collect()
}

/// Everything built before the first arrival but the fleet: corpus,
/// tokenizer, model pair and token-map index.  [`Setup::server`] builds the
/// fleet, fresh for every replay.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub corpus: Corpus,
    pub binding: TokenizerBinding,
    pub draft: SimulatedAsrModel,
    pub target: SimulatedAsrModel,
    pub token_map: Option<Arc<TokenMapIndex>>,
}

impl Setup {
    pub fn new(workload: Workload, seed: u64) -> Setup {
        let corpus = Corpus::librispeech_like(FIXED_SEED, UTTERANCES_PER_SPLIT);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let target =
            SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), FIXED_SEED ^ 0x71);
        let draft = SimulatedAsrModel::draft_paired(
            ModelProfile::whisper_tiny_en(),
            FIXED_SEED ^ 0x72,
            &target,
        );
        // The token-map index is mined from the corpus reference transcripts
        // (the decode history a deployment would mine offline).
        let token_map =
            matches!(workload, Workload::OpenFleet | Workload::OpenFleetRpc).then(|| {
                let sequences: Vec<Vec<_>> = binding
                    .bind_all(corpus.iter())
                    .iter()
                    .map(|utt| {
                        let mut sequence = utt.reference_tokens().to_vec();
                        sequence.push(utt.eos());
                        sequence
                    })
                    .collect();
                Arc::new(TokenMapIndex::build_default(
                    sequences.iter().map(Vec::as_slice),
                ))
            });
        Setup {
            workload,
            seed,
            corpus,
            binding,
            draft,
            target,
            token_map,
        }
    }

    pub fn pool(&self) -> Vec<&Utterance> {
        Split::ALL
            .iter()
            .flat_map(|&split| self.corpus.split(split))
            .collect()
    }

    fn pair(&self) -> (SimulatedAsrModel, SimulatedAsrModel) {
        (self.draft.clone(), self.target.clone())
    }

    /// Builds the serving stack of the workload (`rpc` moves every target
    /// behind the RPC boundary).
    pub fn server(&self, rpc: bool) -> Server {
        let encoder = EncoderProfile::whisper_medium_encoder();
        match self.workload {
            Workload::OpenFleet | Workload::OpenFleetRpc => {
                let mut router = Router::new(
                    RouterConfig::default()
                        .with_workers(OPEN_WORKERS)
                        .with_rpc_backend(rpc)
                        .with_worker_config(
                            ServerConfig::default()
                                .with_max_in_flight_waves(PIPELINE_DEPTH)
                                // Deep queues: nothing may be refused.
                                .with_queue_depth(4 * OPEN_REQUESTS),
                        ),
                    self.binding.clone(),
                    encoder,
                    |_| self.pair(),
                );
                router.install_drafter(Arc::new(CtcDrafter::paired(&self.target)));
                let token_map = self
                    .token_map
                    .as_ref()
                    .expect("open workloads mine a token map");
                router.install_drafter(Arc::new(TokenMapDrafter::new(Arc::clone(token_map))));
                Server::Router(router)
            }
            Workload::StreamCaptions => Server::Stream(Scheduler::new(
                self.draft.clone(),
                self.target.clone(),
                self.binding.clone(),
                encoder,
                ServerConfig::default()
                    .with_max_batch(STREAM_MAX_BATCH)
                    .with_max_in_flight_waves(PIPELINE_DEPTH)
                    .with_kv_blocks(STREAM_KV_BLOCKS)
                    .with_queue_depth(4 * STREAM_REQUESTS),
            )),
            Workload::ElasticBurst => {
                let router = Router::new(
                    RouterConfig::default().with_workers(1).with_worker_config(
                        ServerConfig::default()
                            .with_queue_depth(BURST_QUEUE_DEPTH)
                            .with_ordering(AdmissionOrdering::EarliestDeadlineFirst),
                    ),
                    self.binding.clone(),
                    encoder,
                    |_| self.pair(),
                );
                let (draft, target) = self.pair();
                let make: MakeModels = Box::new(move |_| (draft.clone(), target.clone()));
                Server::Fleet(FleetController::new(
                    router,
                    FleetConfig::default()
                        .with_worker_bounds(1, 6)
                        .with_evaluate_every_ms(100.0)
                        .with_hysteresis(2, 6)
                        .with_queue_target(2.0)
                        .with_e2e_p99_target_ms(Some(1_000.0)),
                    make,
                ))
            }
        }
    }
}

type Model = SimulatedAsrModel;
type MakeModels = Box<dyn FnMut(WorkerId) -> (Model, Model)>;

/// The serving stack a workload drives, behind the calls the replay loop makes.
// One per replay, never moved in a hot loop: variant sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Server {
    Router(Router<Model, Model>),
    Fleet(FleetController<Model, Model, MakeModels>),
    Stream(Scheduler<Model, Model>),
}

impl Server {
    fn router(&self) -> Option<&Router<Model, Model>> {
        match self {
            Server::Router(router) => Some(router),
            Server::Fleet(fleet) => Some(fleet.router()),
            Server::Stream(_) => None,
        }
    }

    fn submit(
        &mut self,
        request: &Request,
        utterance: &Utterance,
        stream: StreamConfig,
    ) -> Result<RequestId, SubmitError> {
        match self {
            Server::Router(router) => {
                router.submit_with_drafter(request.policy, request.drafter, utterance)
            }
            Server::Fleet(fleet) => {
                fleet.submit_with_budget(request.policy, utterance, request.budget_ms)
            }
            Server::Stream(scheduler) => scheduler.submit_streaming(
                request.policy,
                utterance,
                stream.with_chunk_seconds(request.chunk_seconds),
            ),
        }
    }

    fn advance_to(&mut self, ms: f64) -> Vec<RequestOutcome> {
        match self {
            Server::Router(router) => router.advance_to(ms),
            Server::Fleet(fleet) => fleet.advance_to(ms),
            Server::Stream(scheduler) => scheduler.advance_to(ms),
        }
    }

    fn run_until_idle(&mut self) -> Vec<RequestOutcome> {
        match self {
            Server::Router(router) => router.run_until_idle(),
            Server::Fleet(fleet) => fleet.run_until_idle(),
            Server::Stream(scheduler) => scheduler.run_until_idle(),
        }
    }

    /// The server's clock, which stamps the next submission's arrival.
    fn now_ms(&self) -> f64 {
        match self {
            Server::Stream(scheduler) => scheduler.wall_ms(),
            _ => self.router().expect("fleet servers have a router").now_ms(),
        }
    }

    fn queued(&self) -> usize {
        match self {
            Server::Stream(scheduler) => scheduler.queued(),
            _ => self.router().expect("fleet servers have a router").queued(),
        }
    }

    /// Workers holding capacity: active plus draining.
    fn live_workers(&self) -> usize {
        match self {
            Server::Stream(_) => 1,
            _ => self
                .router()
                .expect("fleet servers have a router")
                .workers()
                .len(),
        }
    }

    fn stats(&self) -> ServerStats {
        match self {
            Server::Stream(scheduler) => scheduler.stats().clone(),
            _ => self
                .router()
                .expect("fleet servers have a router")
                .fleet_stats(),
        }
    }

    fn set_trace(&mut self, config: TraceConfig) {
        match self {
            Server::Router(router) => router.set_trace(config),
            Server::Fleet(fleet) => fleet.router_mut().set_trace(config),
            Server::Stream(scheduler) => scheduler.set_trace(config),
        }
    }

    fn take_recordings(&mut self) -> Vec<(String, FlightRecording)> {
        match self {
            Server::Router(router) => router.take_recordings(),
            Server::Fleet(fleet) => fleet.router_mut().take_recordings(),
            Server::Stream(scheduler) => scheduler
                .take_trace_recording()
                .map(|recording| ("worker-0".to_owned(), recording))
                .into_iter()
                .collect(),
        }
    }
}

/// A completed request: its plan index, the server clock it was submitted
/// at, and what the server returned.
pub struct Served {
    pub request: usize,
    pub submit_ms: f64,
    pub outcome: RequestOutcome,
}

/// The fleet controller's state after a run.
pub struct FleetSummary {
    pub counters: FleetCounters,
    pub workers_peak: usize,
    pub workers_final: usize,
}

/// Everything one replay of a plan produced.
pub struct Replay {
    pub attempted: usize,
    /// Submissions refused with [`SubmitError`].
    pub refused: usize,
    /// Submissions accepted.
    pub accepted: usize,
    /// Completed requests, in completion order.
    pub served: Vec<Served>,
    /// Outcomes whose request id was never accepted, or completed twice.
    pub unexpected: usize,
    /// Largest and summed server-clock-at-submit minus due time.
    pub lateness_max_ms: f64,
    pub lateness_sum_ms: f64,
    /// Integral of live workers over the run, sampled at every loop step
    /// (worker·ms), from the first due time to the last completion.
    pub worker_ms: f64,
    /// Queued requests seen by each arrival, in plan order.
    pub queue_depths: Vec<usize>,
    /// Host wall time of the timed serving phase.
    pub wall_ns: u64,
    /// Heap allocations of the timed serving phase.
    pub allocs: alloc::Counts,
    pub stats: ServerStats,
    pub stolen: usize,
    pub fleet: Option<FleetSummary>,
    pub spans: Spans,
    pub recordings: Vec<(String, FlightRecording)>,
}

/// Plays `plan` against a fresh serving stack.  With `traced`, every public
/// call is timed in a span and the flight recorder runs.
pub fn replay(setup: &Setup, plan: &[Request], rpc: bool, traced: bool) -> Replay {
    let mut server = setup.server(rpc);
    if traced {
        server.set_trace(TraceConfig::enabled().with_capacity(TRACE_CAPACITY));
    }
    let pool = setup.pool();
    let stream = StreamConfig::default().with_seed(setup.seed);
    let mut spans = Spans::new(traced);
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(plan.len());
    let mut accepted: Vec<(RequestId, usize, f64)> = Vec::with_capacity(plan.len());
    let mut refused = 0;
    let mut lateness_max_ms = 0.0f64;
    let mut lateness_sum_ms = 0.0;
    let mut worker_ms = 0.0;
    let mut sampled = (plan[0].due_ms, server.live_workers());
    let mut workers_peak = sampled.1;
    let mut queue_depths = Vec::with_capacity(plan.len());
    let mut next_scrape_ms = 1_000.0;

    let before = alloc::Counts::now();
    let start = Instant::now();
    let root = spans.open("replay", None);
    for (index, request) in plan.iter().enumerate() {
        let due_ms = request.due_ms;
        let done = spans.time("advance_to", root, None, || server.advance_to(due_ms));
        outcomes.extend(done);
        let live = server.live_workers();
        worker_ms += sampled.1 as f64 * (due_ms - sampled.0);
        sampled = (due_ms, live);
        workers_peak = workers_peak.max(live);
        // Only the open-fleet workloads scrape: once per modeled second.
        if due_ms >= next_scrape_ms {
            if let Server::Router(router) = &server {
                spans.time("scrape", root, None, || {
                    black_box(router.fleet_metrics().render().len())
                });
            }
            next_scrape_ms = (due_ms / 1_000.0).floor() * 1_000.0 + 1_000.0;
        }
        queue_depths.push(server.queued());
        let submit_ms = server.now_ms();
        lateness_max_ms = lateness_max_ms.max(submit_ms - due_ms);
        lateness_sum_ms += submit_ms - due_ms;
        let utterance = pool[request.utterance];
        let result = spans.time("submit", root, Some(index as u64), || {
            server.submit(request, utterance, stream)
        });
        match result {
            Ok(id) => accepted.push((id, index, submit_ms)),
            Err(SubmitError::QueueFull { .. }) => refused += 1,
        }
    }
    let done = spans.time("run_until_idle", root, None, || server.run_until_idle());
    outcomes.extend(done);
    spans.close(root);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let allocs = alloc::Counts::now().since(before);

    let mut pending: HashMap<RequestId, (usize, f64)> = accepted
        .iter()
        .map(|&(id, index, submit_ms)| (id, (index, submit_ms)))
        .collect();
    let mut unexpected = 0;
    let mut served = Vec::with_capacity(outcomes.len());
    let mut last_completion_ms = sampled.0;
    for outcome in outcomes {
        match pending.remove(&outcome.id) {
            Some((request, submit_ms)) => {
                last_completion_ms = last_completion_ms.max(submit_ms + outcome.e2e_ms());
                served.push(Served {
                    request,
                    submit_ms,
                    outcome,
                });
            }
            None => unexpected += 1,
        }
    }
    worker_ms += sampled.1 as f64 * (last_completion_ms - sampled.0);

    let recordings = if traced {
        spans.time("trace.take_recordings", None, None, || {
            server.take_recordings()
        })
    } else {
        Vec::new()
    };
    let fleet = match &server {
        Server::Fleet(fleet) => Some(FleetSummary {
            counters: fleet.counters(),
            workers_peak,
            workers_final: fleet.router().active_workers(),
        }),
        _ => None,
    };
    Replay {
        attempted: plan.len(),
        refused,
        accepted: accepted.len(),
        served,
        unexpected,
        lateness_max_ms,
        lateness_sum_ms,
        worker_ms,
        queue_depths,
        wall_ns,
        allocs,
        stats: server.stats(),
        stolen: server.router().map_or(0, Router::stolen),
        fleet,
        spans,
        recordings,
    }
}

/// Blocking `AsrPipeline::transcribe` transcripts, keyed by (policy is TSP,
/// utterance).
pub type References = HashMap<(bool, UtteranceId), String>;

pub fn is_tsp(policy: &Policy) -> bool {
    matches!(policy, Policy::TwoPassSparseTree(_))
}

/// Transcribes every (policy, utterance) pair of `plan` with the blocking
/// pipeline, timing each decode in `spans`.
pub fn references(setup: &Setup, plan: &[Request], spans: &mut Spans) -> References {
    let pool = setup.pool();
    let encoder = EncoderProfile::whisper_medium_encoder();
    let pipelines = [
        AsrPipeline::new(
            setup.draft.clone(),
            setup.target.clone(),
            encoder.clone(),
            asp(),
        ),
        AsrPipeline::new(setup.draft.clone(), setup.target.clone(), encoder, tsp()),
    ];
    let mut texts = HashMap::new();
    let root = spans.open("references", None);
    for request in plan {
        let tree = is_tsp(&request.policy);
        let utterance = pool[request.utterance];
        if texts.contains_key(&(tree, utterance.id())) {
            continue;
        }
        let name = if tree {
            "core.ref_decode.tsp"
        } else {
            "core.ref_decode.asp"
        };
        let pipeline = &pipelines[usize::from(tree)];
        let output = spans.time(name, root, None, || {
            pipeline.transcribe(&setup.binding, utterance)
        });
        texts.insert((tree, utterance.id()), output.text);
    }
    spans.close(root);
    texts
}
