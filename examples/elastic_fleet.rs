//! Elastic-fleet demo: the same Poisson burst served by a static single
//! worker and by a [`FleetController`] bounded at 1–4 workers.  The
//! controller watches queue pressure on the simulated clock, sizes the
//! fleet to the queue in one step under sustained breach, and — once the
//! burst passes and one worker can carry what is left — drains the others
//! (migrating any sessions they still hold) and reaps them.
//!
//! Run with: `cargo run --release --example elastic_fleet`

use specasr::{AdaptiveConfig, Policy};
use specasr_suite::prelude::{
    run_open_loop, EncoderProfile, FleetConfig, FleetController, LoadGen, Router, RouterConfig,
    ServerConfig, SimulatedAsrModel, Split, Utterance,
};
use specasr_suite::StandardSetup;

const REQUESTS: usize = 120;
const BURST_QPS: f64 = 120.0;

fn router(setup: &StandardSetup) -> Router<SimulatedAsrModel, SimulatedAsrModel> {
    Router::new(
        RouterConfig::default()
            .with_workers(1)
            .with_worker_config(ServerConfig::default().with_queue_depth(4 * REQUESTS)),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        |_| (setup.draft.clone(), setup.target.clone()),
    )
}

fn main() {
    let setup = StandardSetup::new(7, 12);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool: Vec<&Utterance> = Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect();

    // Static baseline: one worker rides out the burst with a deep queue.
    let mut static_router = router(&setup);
    let mut loadgen = LoadGen::new(42, BURST_QPS);
    let report = run_open_loop(
        &mut static_router,
        &mut loadgen,
        (0..REQUESTS).map(|i| (policy, pool[i % pool.len()])),
    );
    let static_stats = static_router.fleet_stats();
    println!(
        "static 1 worker : {:>6.2} utt/s   e2e P99 {:>7.1} ms",
        report.completed_qps(),
        static_stats.e2e_p99_ms(),
    );

    // Elastic: the controller sizes the fleet to the queue once the burst
    // breaches the target and drains it once traffic quiets.
    let mut fleet = FleetController::new(
        router(&setup),
        FleetConfig::default()
            .with_worker_bounds(1, 4)
            .with_evaluate_every_ms(100.0)
            .with_hysteresis(2, 6)
            .with_queue_target(4.0),
        |_| (setup.draft.clone(), setup.target.clone()),
    );
    let mut loadgen = LoadGen::new(42, BURST_QPS);
    let mut outcomes = Vec::new();
    let mut workers_peak = 1;
    for index in 0..REQUESTS {
        outcomes.extend(fleet.advance_to(loadgen.next_arrival_ms()));
        fleet
            .submit(policy, pool[index % pool.len()])
            .expect("queues are deep");
        workers_peak = workers_peak.max(fleet.router().active_workers());
    }
    outcomes.extend(fleet.run_until_idle());
    // Quiet tail: idle evaluations drain the fleet back to the floor.
    fleet.advance_to(fleet.router().now_ms() + 5_000.0);

    let counters = fleet.counters();
    let stats = fleet.router().fleet_stats();
    println!(
        "elastic 1-4     : {:>6.2} utt/s   e2e P99 {:>7.1} ms",
        outcomes.len() as f64 * 1_000.0 / stats.wall_ms(),
        stats.e2e_p99_ms(),
    );
    println!(
        "\nscaling         : {} workers added, {} drained over {} evaluations \
         (peak {} workers, {} now, {} migrations)",
        counters.scale_ups,
        counters.scale_downs,
        counters.evaluations,
        workers_peak,
        fleet.router().active_workers(),
        counters.sessions_migrated,
    );
    assert_eq!(outcomes.len(), REQUESTS, "elasticity never loses a request");

    println!(
        "\nreading the numbers: the burst arrives faster than one worker can \
         serve, so the static queue — and with it P99 — grows for the whole \
         run.  The controller sees the same pressure and adds, in one \
         step, as many workers as bring the queue to target, so the burst \
         drains at fleet speed; once arrivals stop and one worker can carry \
         the load, sustained headroom drains the extra workers together \
         (migrating any live sessions losslessly) and the fleet returns to \
         one worker."
    );
}
