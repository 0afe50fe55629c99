//! Utterances, splits, and the synthetic LibriSpeech-like corpus.

use std::collections::HashMap;
use std::fmt;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::difficulty::DifficultyModel;
use crate::text::TextGenerator;

/// Identifier of an utterance, unique within a [`Corpus`].
///
/// # Example
///
/// ```
/// use specasr_audio::UtteranceId;
///
/// let id = UtteranceId::new(3);
/// assert_eq!(id.value(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct UtteranceId(u64);

impl UtteranceId {
    /// Creates an utterance id from a raw value.
    pub const fn new(raw: u64) -> Self {
        UtteranceId(raw)
    }

    /// Returns the raw value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for UtteranceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "utt-{:06}", self.0)
    }
}

/// The four LibriSpeech evaluation splits used in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Split {
    /// `test-clean`: clean read speech, evaluation set.
    TestClean,
    /// `test-other`: noisier/accented read speech, evaluation set.
    TestOther,
    /// `dev-clean`: clean read speech, development set.
    DevClean,
    /// `dev-other`: noisier/accented read speech, development set.
    DevOther,
}

impl Split {
    /// All splits in the order used by the paper's figures.
    pub const ALL: [Split; 4] = [
        Split::TestClean,
        Split::TestOther,
        Split::DevClean,
        Split::DevOther,
    ];

    /// The canonical lowercase name of the split (`test-clean`, …).
    pub const fn name(self) -> &'static str {
        match self {
            Split::TestClean => "test-clean",
            Split::TestOther => "test-other",
            Split::DevClean => "dev-clean",
            Split::DevOther => "dev-other",
        }
    }

    /// Returns `true` for the `*-other` (noisy) splits.
    pub const fn is_noisy(self) -> bool {
        matches!(self, Split::TestOther | Split::DevOther)
    }

    /// The acoustic difficulty profile associated with this split.
    pub fn difficulty_model(self) -> DifficultyModel {
        if self.is_noisy() {
            DifficultyModel::other()
        } else {
            DifficultyModel::clean()
        }
    }
}

impl fmt::Display for Split {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single audio utterance with its reference transcript and per-word
/// acoustic difficulty.
///
/// # Example
///
/// ```
/// use specasr_audio::{Corpus, Split};
///
/// let corpus = Corpus::librispeech_like(1, 4);
/// let utt = &corpus.split(Split::DevClean)[0];
/// assert_eq!(utt.word_count(), utt.word_difficulties().len());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Utterance {
    id: UtteranceId,
    split: Split,
    transcript: String,
    word_difficulties: Vec<f64>,
    duration_seconds: f64,
    speaking_rate_wps: f64,
}

impl Utterance {
    /// Creates an utterance from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the number of difficulties does not match the number of
    /// whitespace-separated words in the transcript, or if the duration is
    /// not strictly positive.
    pub fn new(
        id: UtteranceId,
        split: Split,
        transcript: String,
        word_difficulties: Vec<f64>,
        duration_seconds: f64,
    ) -> Self {
        let word_count = transcript.split_whitespace().count();
        assert_eq!(
            word_count,
            word_difficulties.len(),
            "one difficulty value per word is required"
        );
        assert!(duration_seconds > 0.0, "duration must be positive");
        let speaking_rate_wps = word_count as f64 / duration_seconds;
        Utterance {
            id,
            split,
            transcript,
            word_difficulties,
            duration_seconds,
            speaking_rate_wps,
        }
    }

    /// Unique identifier of this utterance.
    pub fn id(&self) -> UtteranceId {
        self.id
    }

    /// The split this utterance belongs to.
    pub fn split(&self) -> Split {
        self.split
    }

    /// Reference transcript (lowercase, whitespace separated words).
    pub fn transcript(&self) -> &str {
        &self.transcript
    }

    /// Reference transcript as a word list.
    pub fn words(&self) -> Vec<&str> {
        self.transcript.split_whitespace().collect()
    }

    /// Number of words in the reference transcript.
    pub fn word_count(&self) -> usize {
        self.word_difficulties.len()
    }

    /// Per-word acoustic difficulty in `[0, 1]`.
    pub fn word_difficulties(&self) -> &[f64] {
        &self.word_difficulties
    }

    /// Audio duration in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.duration_seconds
    }

    /// Average speaking rate in words per second.
    pub fn speaking_rate_wps(&self) -> f64 {
        self.speaking_rate_wps
    }

    /// Mean acoustic difficulty of the utterance.
    pub fn mean_difficulty(&self) -> f64 {
        if self.word_difficulties.is_empty() {
            0.0
        } else {
            self.word_difficulties.iter().sum::<f64>() / self.word_difficulties.len() as f64
        }
    }
}

/// Configuration for corpus generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Base RNG seed; every derived quantity is a pure function of this seed.
    pub seed: u64,
    /// Number of utterances generated per split.
    pub utterances_per_split: usize,
    /// Minimum transcript length in words.
    pub min_words: usize,
    /// Maximum transcript length in words.
    pub max_words: usize,
    /// Mean speaking rate in words per second (LibriSpeech ≈ 2.7 w/s).
    pub speaking_rate_wps: f64,
    /// Relative jitter applied to the speaking rate per utterance.
    pub speaking_rate_jitter: f64,
}

impl CorpusConfig {
    /// Configuration mirroring the paper's evaluation corpora: utterances of
    /// roughly 4–35 words (≈ 2–13 s of audio) at ≈ 2.7 words per second.
    pub fn librispeech_like(seed: u64, utterances_per_split: usize) -> Self {
        CorpusConfig {
            seed,
            utterances_per_split,
            min_words: 4,
            max_words: 35,
            speaking_rate_wps: 2.7,
            speaking_rate_jitter: 0.15,
        }
    }
}

/// A generated corpus: utterances grouped by [`Split`].
///
/// # Example
///
/// ```
/// use specasr_audio::{Corpus, Split};
///
/// let corpus = Corpus::librispeech_like(11, 8);
/// assert_eq!(corpus.iter().count(), 8 * Split::ALL.len());
/// let noisy_mean = corpus.mean_difficulty(Split::TestOther);
/// let clean_mean = corpus.mean_difficulty(Split::TestClean);
/// assert!(noisy_mean > clean_mean);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    config: CorpusConfig,
    splits: HashMap<Split, Vec<Utterance>>,
}

impl Corpus {
    /// Generates a corpus according to `config`.
    pub fn generate(config: CorpusConfig) -> Self {
        let mut splits = HashMap::new();
        let mut next_id = 0u64;
        for (split_index, split) in Split::ALL.into_iter().enumerate() {
            let mut utterances = Vec::with_capacity(config.utterances_per_split);
            let mut text = TextGenerator::new(
                config
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(split_index as u64),
            );
            let mut rng = ChaCha8Rng::seed_from_u64(
                config
                    .seed
                    .wrapping_add(0xc0ffee)
                    .wrapping_add(split_index as u64),
            );
            let difficulty = split.difficulty_model();
            for _ in 0..config.utterances_per_split {
                let transcript = text.transcript(config.min_words, config.max_words);
                let word_count = transcript.split_whitespace().count();
                let word_difficulties =
                    difficulty.sample(config.seed ^ next_id.wrapping_mul(0xabcd), word_count);
                let rate_jitter =
                    1.0 + (rng.gen::<f64>() * 2.0 - 1.0) * config.speaking_rate_jitter;
                let rate = (config.speaking_rate_wps * rate_jitter).max(0.5);
                let duration = word_count as f64 / rate;
                utterances.push(Utterance::new(
                    UtteranceId::new(next_id),
                    split,
                    transcript,
                    word_difficulties,
                    duration,
                ));
                next_id += 1;
            }
            splits.insert(split, utterances);
        }
        Corpus { config, splits }
    }

    /// Convenience constructor with the LibriSpeech-like defaults.
    pub fn librispeech_like(seed: u64, utterances_per_split: usize) -> Self {
        Corpus::generate(CorpusConfig::librispeech_like(seed, utterances_per_split))
    }

    /// Configuration used to generate this corpus.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// The utterances of `split` in generation order.
    pub fn split(&self, split: Split) -> &[Utterance] {
        self.splits.get(&split).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over every utterance across all splits, in split order.
    pub fn iter(&self) -> impl Iterator<Item = &Utterance> {
        Split::ALL
            .into_iter()
            .flat_map(move |s| self.split(s).iter())
    }

    /// Mean per-word acoustic difficulty of `split`.
    pub fn mean_difficulty(&self, split: Split) -> f64 {
        let utterances = self.split(split);
        let (sum, count) = utterances.iter().fold((0.0, 0usize), |(s, c), u| {
            (
                s + u.word_difficulties().iter().sum::<f64>(),
                c + u.word_count(),
            )
        });
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Returns corpus lines suitable for training a tokenizer vocabulary that
    /// covers the evaluation transcripts.
    pub fn tokenizer_training_lines(&self) -> Vec<String> {
        self.iter().map(|u| u.transcript().to_owned()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::librispeech_like(5, 6);
        let b = Corpus::librispeech_like(5, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_produce_different_corpora() {
        let a = Corpus::librispeech_like(5, 6);
        let b = Corpus::librispeech_like(6, 6);
        assert_ne!(a, b);
    }

    #[test]
    fn every_split_has_requested_size() {
        let corpus = Corpus::librispeech_like(1, 12);
        for split in Split::ALL {
            assert_eq!(corpus.split(split).len(), 12);
        }
        assert_eq!(corpus.iter().count(), 48);
    }

    #[test]
    fn utterance_ids_are_unique() {
        let corpus = Corpus::librispeech_like(2, 10);
        let mut ids: Vec<u64> = corpus.iter().map(|u| u.id().value()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn noisy_splits_are_harder() {
        let corpus = Corpus::librispeech_like(3, 40);
        assert!(
            corpus.mean_difficulty(Split::TestOther) > corpus.mean_difficulty(Split::TestClean)
        );
        assert!(corpus.mean_difficulty(Split::DevOther) > corpus.mean_difficulty(Split::DevClean));
    }

    #[test]
    fn durations_match_speaking_rate() {
        let corpus = Corpus::librispeech_like(4, 20);
        for utt in corpus.iter() {
            let implied_rate = utt.word_count() as f64 / utt.duration_seconds();
            assert!(
                (1.5..=4.5).contains(&implied_rate),
                "rate {implied_rate} out of range"
            );
            assert!((implied_rate - utt.speaking_rate_wps()).abs() < 1e-9);
        }
    }

    #[test]
    fn word_difficulties_align_with_words() {
        let corpus = Corpus::librispeech_like(8, 10);
        for utt in corpus.iter() {
            assert_eq!(utt.word_count(), utt.words().len());
            assert_eq!(utt.word_count(), utt.word_difficulties().len());
            assert!(utt.mean_difficulty() >= 0.0 && utt.mean_difficulty() <= 1.0);
        }
    }

    #[test]
    fn split_metadata_is_consistent() {
        assert!(Split::TestOther.is_noisy());
        assert!(!Split::DevClean.is_noisy());
        assert_eq!(Split::TestClean.name(), "test-clean");
        assert_eq!(Split::DevOther.to_string(), "dev-other");
    }

    #[test]
    #[should_panic(expected = "one difficulty value per word")]
    fn mismatched_difficulty_length_panics() {
        Utterance::new(
            UtteranceId::new(0),
            Split::TestClean,
            "two words".to_owned(),
            vec![0.1],
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn non_positive_duration_panics() {
        Utterance::new(
            UtteranceId::new(0),
            Split::TestClean,
            "one".to_owned(),
            vec![0.1],
            0.0,
        );
    }

    #[test]
    fn tokenizer_training_lines_cover_all_utterances() {
        let corpus = Corpus::librispeech_like(9, 5);
        assert_eq!(
            corpus.tokenizer_training_lines().len(),
            corpus.iter().count()
        );
    }
}
