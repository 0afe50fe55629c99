//! Fig. 6a — distribution of the per-round acceptance ratio for different
//! prediction lengths.
//!
//! A large share of rounds is fully accepted (ratio ≈ 1.0, motivating long
//! drafts), while the rest concentrates at low ratios (localised acoustic
//! difficulty), which is exactly what motivates adaptive truncation and
//! recycling.

use specasr::{DecodeSession, DraftedRound, DrafterKind, Policy, SpeculativeConfig};
use specasr_audio::Split;
use specasr_bench::{emit, ExperimentContext};
use specasr_metrics::{ExperimentRecord, ReportRow};
use specasr_runtime::KvPool;

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
        let mut round = DraftedRound::new();
        for utterance in context.corpus.split(Split::TestClean) {
            // The loop `Policy::decode` runs, stepped here so each round's
            // counts are the session's counters taken across it.
            let mut pool = KvPool::unbounded(16);
            let audio = context.binding.bind(utterance);
            let mut session =
                DecodeSession::new(policy, DrafterKind::ModelDraft, audio, &[], &mut pool)
                    .expect("an unbounded pool always admits");
            while !session.is_finished() {
                let before = *session.stats();
                session
                    .step(&mut pool, &draft, &target, &mut round)
                    .expect("an unbounded pool never exhausts");
                let predicted = session.stats().predicted_tokens - before.predicted_tokens;
                let accepted = session.stats().accepted_tokens - before.accepted_tokens;
                if predicted > 0 {
                    let ratio = accepted as f64 / predicted as f64;
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
