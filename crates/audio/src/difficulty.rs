//! Per-word acoustic-difficulty modelling.
//!
//! The paper's Observation 2 attributes low-acceptance draft rounds to
//! "variations in pronunciation and acoustic quality across specific speech
//! segments", i.e. difficulty is *bursty and localised* rather than uniform.
//! The model below produces a per-word difficulty value in `[0, 1]` by mixing
//! a split-level noise floor with a two-state (easy/hard) Markov process, so
//! hard words cluster into short segments exactly as the paper describes.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the bursty difficulty process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DifficultyModel {
    /// Baseline difficulty applied to every word (the split noise floor).
    pub noise_floor: f64,
    /// Additional difficulty applied while the process is in the hard state.
    pub burst_level: f64,
    /// Probability of entering the hard state from the easy state per word.
    pub burst_start_probability: f64,
    /// Probability of leaving the hard state per word.
    pub burst_stop_probability: f64,
    /// Standard deviation of per-word jitter added on top of the state level.
    pub jitter: f64,
}

impl DifficultyModel {
    /// Difficulty profile of the LibriSpeech `*-clean` splits: low noise
    /// floor, short and rare hard bursts.
    pub fn clean() -> Self {
        DifficultyModel {
            noise_floor: 0.06,
            burst_level: 0.45,
            burst_start_probability: 0.05,
            burst_stop_probability: 0.45,
            jitter: 0.04,
        }
    }

    /// Difficulty profile of the LibriSpeech `*-other` splits: higher noise
    /// floor and longer, more frequent hard bursts.
    pub fn other() -> Self {
        DifficultyModel {
            noise_floor: 0.14,
            burst_level: 0.55,
            burst_start_probability: 0.10,
            burst_stop_probability: 0.32,
            jitter: 0.06,
        }
    }

    /// A synthetic profile with no hard bursts at all, useful in tests.
    pub fn uniform(noise_floor: f64) -> Self {
        DifficultyModel {
            noise_floor,
            burst_level: 0.0,
            burst_start_probability: 0.0,
            burst_stop_probability: 1.0,
            jitter: 0.0,
        }
    }

    /// Samples a difficulty value for each of `word_count` words.
    ///
    /// The returned values are clamped to `[0, 1]`.  The same `(seed,
    /// word_count)` pair always produces the same difficulties.
    pub fn sample(&self, seed: u64, word_count: usize) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00d1_ff1c_u64);
        let mut difficulties = Vec::with_capacity(word_count);
        let mut in_burst = false;
        for _ in 0..word_count {
            if in_burst {
                if rng.gen::<f64>() < self.burst_stop_probability {
                    in_burst = false;
                }
            } else if rng.gen::<f64>() < self.burst_start_probability {
                in_burst = true;
            }
            let level = self.noise_floor + if in_burst { self.burst_level } else { 0.0 };
            let jitter = if self.jitter > 0.0 {
                // Box-Muller transform for a cheap gaussian jitter.
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos() * self.jitter
            } else {
                0.0
            };
            difficulties.push((level + jitter).clamp(0.0, 1.0));
        }
        difficulties
    }
}

impl Default for DifficultyModel {
    fn default() -> Self {
        DifficultyModel::clean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_deterministic() {
        let model = DifficultyModel::clean();
        assert_eq!(model.sample(9, 40), model.sample(9, 40));
    }

    #[test]
    fn samples_are_clamped() {
        let model = DifficultyModel::other();
        for d in model.sample(3, 500) {
            assert!((0.0..=1.0).contains(&d), "difficulty {d} out of range");
        }
    }

    #[test]
    fn other_split_is_harder_than_clean() {
        let clean: f64 = DifficultyModel::clean().sample(1, 2000).iter().sum();
        let other: f64 = DifficultyModel::other().sample(1, 2000).iter().sum();
        assert!(
            other > clean,
            "other ({other}) should exceed clean ({clean})"
        );
    }

    #[test]
    fn bursts_are_localised() {
        // Count transitions between easy (< 0.3) and hard (>= 0.3) regions:
        // with bursty structure the number of hard words greatly exceeds the
        // number of easy→hard transitions (hard words come in runs).
        let model = DifficultyModel::other();
        let sample = model.sample(17, 4000);
        let hard: Vec<bool> = sample.iter().map(|&d| d >= 0.3).collect();
        let hard_count = hard.iter().filter(|&&h| h).count();
        let transitions = hard.windows(2).filter(|w| !w[0] && w[1]).count();
        assert!(hard_count > 0);
        assert!(
            hard_count as f64 > 1.5 * transitions as f64,
            "hard words ({hard_count}) should cluster into runs (transitions: {transitions})"
        );
    }

    #[test]
    fn uniform_profile_has_no_bursts() {
        let model = DifficultyModel::uniform(0.2);
        let sample = model.sample(5, 100);
        assert!(sample.iter().all(|&d| (d - 0.2).abs() < 1e-9));
    }

    #[test]
    fn expected_mean_tracks_profiles() {
        let mean = |model: DifficultyModel| {
            let sample = model.sample(11, 4_000);
            sample.iter().sum::<f64>() / sample.len() as f64
        };
        assert!(mean(DifficultyModel::other()) > mean(DifficultyModel::clean()));
        assert!((mean(DifficultyModel::uniform(0.3)) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn word_count_is_respected() {
        assert_eq!(DifficultyModel::clean().sample(0, 0).len(), 0);
        assert_eq!(DifficultyModel::clean().sample(0, 13).len(), 13);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sampled_difficulties_always_in_unit_interval(
            seed in any::<u64>(),
            count in 0usize..300,
            floor in 0.0f64..0.5,
            burst in 0.0f64..0.8,
        ) {
            let model = DifficultyModel {
                noise_floor: floor,
                burst_level: burst,
                burst_start_probability: 0.1,
                burst_stop_probability: 0.3,
                jitter: 0.05,
            };
            let sample = model.sample(seed, count);
            prop_assert_eq!(sample.len(), count);
            for d in sample {
                prop_assert!((0.0..=1.0).contains(&d));
            }
        }
    }
}
