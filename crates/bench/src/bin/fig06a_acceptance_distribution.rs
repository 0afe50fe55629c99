//! Fig. 6a — distribution of the per-round acceptance ratio for different
//! prediction lengths.
//!
//! A large share of rounds is fully accepted (ratio ≈ 1.0, motivating long
//! drafts), while the rest concentrates at low ratios (localised acoustic
//! difficulty), which is exactly what motivates adaptive truncation and
//! recycling.

use specasr::{Policy, SpeculativeConfig};
use specasr_audio::Split;
use specasr_bench::{emit, ExperimentContext};
use specasr_metrics::{ExperimentRecord, ReportRow};

/// Acceptance-ratio bins, equally wide over `[0, 1]`; a ratio of exactly 1.0
/// lands in the last.
const BINS: usize = 5;

fn main() {
    let context = ExperimentContext::standard();
    let (draft, target) = context.whisper_pair();
    let mut record = ExperimentRecord::new(
        "fig06a",
        "Acceptance-ratio distribution for different prediction lengths (test-clean)",
    );

    for prediction_length in [4usize, 8, 16, 24] {
        let policy = Policy::Speculative(SpeculativeConfig::new(prediction_length, 1));
        let mut counts = [0u64; BINS];
        let mut ratio_sum = 0.0;
        for utterance in context.corpus.split(Split::TestClean) {
            let audio = context.binding.bind(utterance);
            let outcome = policy.decode(&draft, &target, &audio);
            for round in &outcome.stats.rounds_detail {
                if round.predicted > 0 {
                    let ratio = round.accepted as f64 / round.predicted as f64;
                    counts[((ratio * BINS as f64) as usize).min(BINS - 1)] += 1;
                    ratio_sum += ratio;
                }
            }
        }
        let rounds = counts.iter().sum::<u64>() as f64;
        let share = |value: f64| if rounds == 0.0 { 0.0 } else { value / rounds };
        let mut row = ReportRow::new(format!("length {prediction_length}"))
            .with("rounds", rounds)
            .with("mean_ratio", share(ratio_sum));
        for (bin, &count) in counts.iter().enumerate() {
            let (lo, hi) = (bin as f64 / BINS as f64, (bin + 1) as f64 / BINS as f64);
            row = row.with(format!("ratio_{lo:.1}-{hi:.1}"), share(count as f64));
        }
        record.push_row(row);
    }
    emit(&record);
    println!("shape check: mass concentrates at the fully-accepted bin and at low ratios, with little in between.");
}
