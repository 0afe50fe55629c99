//! Seeded English-like transcript generation.
//!
//! LibriSpeech transcripts are read audiobook sentences.  The generator below
//! produces sentences with a similar surface statistics profile — a Zipf-like
//! word-frequency distribution over a fixed lexicon plus simple grammatical
//! templates — so downstream tokenisation, language-model alignment, and WER
//! measurements behave like they would on natural text.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The fixed lexicon used to synthesise transcripts.
///
/// Ordered roughly by frequency rank; the generator samples ranks from a
/// Zipf-like distribution so early entries dominate exactly as function words
/// do in natural speech.
pub const LEXICON: &[&str] = &[
    "the",
    "and",
    "of",
    "to",
    "a",
    "in",
    "that",
    "he",
    "was",
    "it",
    "his",
    "her",
    "with",
    "as",
    "for",
    "had",
    "you",
    "not",
    "be",
    "is",
    "she",
    "at",
    "on",
    "by",
    "which",
    "have",
    "or",
    "from",
    "this",
    "him",
    "they",
    "all",
    "were",
    "but",
    "are",
    "my",
    "one",
    "so",
    "there",
    "been",
    "their",
    "we",
    "said",
    "when",
    "who",
    "will",
    "more",
    "no",
    "if",
    "out",
    "up",
    "into",
    "them",
    "then",
    "what",
    "would",
    "about",
    "could",
    "now",
    "little",
    "time",
    "very",
    "some",
    "like",
    "over",
    "after",
    "man",
    "did",
    "down",
    "made",
    "before",
    "other",
    "old",
    "see",
    "came",
    "way",
    "great",
    "through",
    "again",
    "himself",
    "never",
    "night",
    "house",
    "might",
    "still",
    "upon",
    "such",
    "being",
    "where",
    "much",
    "own",
    "first",
    "here",
    "good",
    "long",
    "day",
    "found",
    "come",
    "thought",
    "went",
    "hand",
    "knights",
    "black",
    "voice",
    "light",
    "water",
    "morning",
    "evening",
    "river",
    "mountain",
    "forest",
    "silence",
    "stone",
    "window",
    "garden",
    "summer",
    "winter",
    "children",
    "mother",
    "father",
    "friend",
    "captain",
    "soldier",
    "village",
    "castle",
    "shadow",
    "journey",
    "letter",
    "answer",
    "question",
    "moment",
    "memory",
    "story",
    "history",
    "people",
    "country",
    "spirit",
    "heart",
    "world",
    "clad",
    "horizon",
    "twilight",
    "harbor",
    "lantern",
    "meadow",
    "orchard",
    "thunder",
    "whisper",
    "courage",
    "wonder",
    "danger",
    "stranger",
    "teacher",
    "doctor",
    "market",
    "bridge",
    "island",
    "valley",
    "ocean",
    "desert",
    "palace",
    "temple",
    "wisdom",
    "promise",
    "secret",
    "silver",
    "golden",
    "ancient",
    "beautiful",
    "terrible",
    "wonderful",
    "peculiar",
    "magnificent",
    "extraordinary",
    "remarkable",
    "mysterious",
    "pronounce",
    "recognition",
    "condition",
    "attention",
    "expression",
    "impression",
    "conversation",
    "expedition",
];

/// Deterministic sentence/transcript generator.
///
/// # Example
///
/// ```
/// use specasr_audio::TextGenerator;
///
/// let mut gen = TextGenerator::new(42);
/// let a = gen.sentence(12);
/// let mut gen2 = TextGenerator::new(42);
/// assert_eq!(a, gen2.sentence(12));
/// ```
#[derive(Debug, Clone)]
pub struct TextGenerator {
    rng: ChaCha8Rng,
    zipf_weights: Vec<f64>,
    total_weight: f64,
}

impl TextGenerator {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        // Zipf-like weights: w_r = 1 / (r + 2)^0.9, flattened slightly so the
        // content-word tail still appears regularly.
        let zipf_weights: Vec<f64> = (0..LEXICON.len())
            .map(|rank| 1.0 / ((rank as f64) + 2.0).powf(0.9))
            .collect();
        let total_weight = zipf_weights.iter().sum();
        TextGenerator {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5eca_5e0a_u64),
            zipf_weights,
            total_weight,
        }
    }

    /// Samples a single word from the Zipf-like lexicon distribution.
    pub fn word(&mut self) -> &'static str {
        let mut target = self.rng.gen::<f64>() * self.total_weight;
        for (rank, weight) in self.zipf_weights.iter().enumerate() {
            target -= weight;
            if target <= 0.0 {
                return LEXICON[rank];
            }
        }
        LEXICON[LEXICON.len() - 1]
    }

    /// Generates a sentence of exactly `word_count` words.
    ///
    /// Consecutive duplicate words are avoided, mirroring natural text where
    /// immediate repetitions are rare.
    pub fn sentence(&mut self, word_count: usize) -> String {
        let mut words: Vec<&'static str> = Vec::with_capacity(word_count);
        while words.len() < word_count {
            let candidate = self.word();
            if words.last() == Some(&candidate) {
                continue;
            }
            words.push(candidate);
        }
        words.join(" ")
    }

    /// Generates a transcript whose length is sampled uniformly from
    /// `min_words..=max_words`.
    ///
    /// # Panics
    ///
    /// Panics if `min_words == 0` or `min_words > max_words`.
    pub fn transcript(&mut self, min_words: usize, max_words: usize) -> String {
        assert!(min_words > 0, "transcripts must contain at least one word");
        assert!(
            min_words <= max_words,
            "min_words must not exceed max_words"
        );
        let count = self.rng.gen_range(min_words..=max_words);
        self.sentence(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = TextGenerator::new(123);
        let mut b = TextGenerator::new(123);
        for _ in 0..10 {
            assert_eq!(a.sentence(9), b.sentence(9));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TextGenerator::new(1);
        let mut b = TextGenerator::new(2);
        let sa: Vec<String> = (0..5).map(|_| a.sentence(15)).collect();
        let sb: Vec<String> = (0..5).map(|_| b.sentence(15)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn sentence_has_requested_word_count() {
        let mut gen = TextGenerator::new(7);
        for n in [1usize, 2, 5, 20, 40] {
            assert_eq!(gen.sentence(n).split_whitespace().count(), n);
        }
    }

    #[test]
    fn no_immediate_repetition() {
        let mut gen = TextGenerator::new(99);
        let sentence = gen.sentence(200);
        let words: Vec<&str> = sentence.split_whitespace().collect();
        for pair in words.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn frequency_distribution_is_zipf_like() {
        let mut gen = TextGenerator::new(5);
        let mut the_count = 0usize;
        let mut rare_count = 0usize;
        let rare_word = LEXICON[LEXICON.len() - 1];
        for _ in 0..5_000 {
            let w = gen.word();
            if w == "the" {
                the_count += 1;
            }
            if w == rare_word {
                rare_count += 1;
            }
        }
        assert!(
            the_count > rare_count * 3,
            "head word ({the_count}) should dominate tail word ({rare_count})"
        );
    }

    #[test]
    fn transcript_length_is_in_range() {
        let mut gen = TextGenerator::new(11);
        for _ in 0..50 {
            let t = gen.transcript(5, 25);
            let n = t.split_whitespace().count();
            assert!((5..=25).contains(&n));
        }
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_length_transcript_panics() {
        TextGenerator::new(0).transcript(0, 3);
    }

    #[test]
    fn lexicon_has_no_duplicates() {
        let set: HashSet<&str> = LEXICON.iter().copied().collect();
        assert_eq!(set.len(), LEXICON.len());
    }
}
