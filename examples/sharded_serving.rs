//! Sharded-serving demo: an open-loop Poisson request stream played against
//! router fleets of growing size, showing how the latency knee (the offered
//! QPS where queueing delay takes off) moves right as workers are added, and
//! how many requests work stealing still moves once least-loaded placement
//! has split the arrivals.
//!
//! Run with: `cargo run --release --example sharded_serving`

use specasr::{AdaptiveConfig, Policy};
use specasr_audio::{EncoderProfile, Split, Utterance};
use specasr_suite::prelude::{run_open_loop, LoadGen, Router, RouterConfig, ServerConfig};
use specasr_suite::StandardSetup;

const REQUESTS: usize = 120;

fn main() {
    let setup = StandardSetup::new(7, 16);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
    let pool: Vec<&Utterance> = Split::ALL
        .iter()
        .flat_map(|&split| setup.corpus.split(split))
        .collect();

    println!(
        "open-loop serving of {REQUESTS} Poisson arrivals under {}\n",
        policy.name()
    );
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "fleet", "qps", "utt/s", "p50 ms", "p99 ms", "stolen"
    );

    for workers in [1usize, 2, 4, 8] {
        for qps in [10.0, 50.0, 200.0] {
            let mut router = Router::new(
                RouterConfig::default()
                    .with_workers(workers)
                    .with_worker_config(ServerConfig::default().with_queue_depth(4 * REQUESTS)),
                setup.binding.clone(),
                EncoderProfile::whisper_medium_encoder(),
                |_| (setup.draft.clone(), setup.target.clone()),
            );
            let mut loadgen = LoadGen::new(42, qps);
            let report = run_open_loop(
                &mut router,
                &mut loadgen,
                (0..REQUESTS).map(|i| (policy, pool[i % pool.len()])),
            );
            let fleet = router.fleet_stats();
            println!(
                "{:<10} {:>8.0} {:>12.2} {:>12.1} {:>12.1} {:>8}",
                format!("{workers} worker{}", if workers == 1 { "" } else { "s" }),
                qps,
                report.completed_qps(),
                fleet.e2e_p50_ms(),
                fleet.e2e_p99_ms(),
                router.stolen(),
            );
        }
    }

    println!(
        "\nreading the table: below the fleet's capacity, P99 tracks the no-load \
         service time; past it, arrivals outpace service and queueing delay \
         dominates.  Adding workers moves that knee to higher offered QPS — the \
         scaling the router's least-loaded placement and work stealing buy."
    );
}
