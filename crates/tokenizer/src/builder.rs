//! Deterministic frequency-based subword vocabulary construction.
//!
//! The builder implements a simplified byte-pair-encoding procedure: the seed
//! alphabet is the set of characters observed in the corpus (with a
//! word-boundary marker on word-initial characters) and the most frequent
//! adjacent pair is merged repeatedly until the target vocabulary size is
//! reached.  Ties are broken lexicographically so the result is a pure
//! function of the corpus and configuration.
//!
//! Training counts pairs incrementally.  Each distinct word is kept once, as
//! a list of interned piece ids weighted by how often it occurs, and one
//! table holds every adjacent pair's count beside the words it occurs in.
//! A merge rewrites only the words that hold the merged pair and moves the
//! counts of the pairs those words lose and gain.  A max-heap of candidate
//! pairs picks the next merge: an entry whose count fell after it was queued
//! is queued again at its current count when it surfaces, and a count that
//! rose was queued again when it rose.  So a merge costs time in proportion
//! to the words it touches, not to the corpus.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use crate::vocab::{Vocabulary, WORD_BOUNDARY};

/// Builder for a [`Vocabulary`] learned from a text corpus.
///
/// # Example
///
/// ```
/// use specasr_tokenizer::VocabularyBuilder;
///
/// let vocab = VocabularyBuilder::new()
///     .target_size(120)
///     .min_pair_frequency(2)
///     .build_from_corpus(["low lower lowest", "new newer newest"]);
/// assert!(vocab.len() <= 120);
/// ```
#[derive(Debug, Clone)]
pub struct VocabularyBuilder {
    target_size: usize,
    min_pair_frequency: usize,
    lowercase: bool,
}

impl VocabularyBuilder {
    /// Creates a builder with the default configuration
    /// (`target_size = 1024`, `min_pair_frequency = 2`, lowercasing on).
    pub fn new() -> Self {
        VocabularyBuilder {
            target_size: 1024,
            min_pair_frequency: 2,
            lowercase: true,
        }
    }

    /// Sets the maximum vocabulary size (including special tokens).
    pub fn target_size(mut self, size: usize) -> Self {
        self.target_size = size;
        self
    }

    /// Sets the minimum frequency an adjacent pair must reach to be merged.
    pub fn min_pair_frequency(mut self, frequency: usize) -> Self {
        self.min_pair_frequency = frequency.max(1);
        self
    }

    /// Controls whether the corpus is lowercased before learning pieces.
    pub fn lowercase(mut self, lowercase: bool) -> Self {
        self.lowercase = lowercase;
        self
    }

    /// Learns a vocabulary from the given corpus lines.
    ///
    /// The procedure is deterministic: identical corpora and configurations
    /// always produce identical vocabularies.
    pub fn build_from_corpus<I, S>(&self, corpus: I) -> Vocabulary
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut trainer = Trainer::new(self.count_words(corpus));
        let special_count = crate::SpecialToken::ALL.len();
        while trainer.pieces.len() + special_count < self.target_size {
            let Some((pair, frequency)) = trainer.most_frequent_pair() else {
                break;
            };
            if frequency < self.min_pair_frequency {
                break;
            }
            trainer.merge(pair);
        }
        trainer.into_vocabulary()
    }

    /// Counts each distinct word of the corpus (lowercased if configured).
    fn count_words<I, S>(&self, corpus: I) -> HashMap<String, usize>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for line in corpus {
            let lowered;
            let text = if self.lowercase {
                lowered = line.as_ref().to_lowercase();
                lowered.as_str()
            } else {
                line.as_ref()
            };
            for word in text.split_whitespace() {
                match counts.get_mut(word) {
                    Some(count) => *count += 1,
                    None => {
                        counts.insert(word.to_owned(), 1);
                    }
                }
            }
        }
        counts
    }
}

impl Default for VocabularyBuilder {
    fn default() -> Self {
        VocabularyBuilder::new()
    }
}

/// Two adjacent piece ids.
type Pair = (u32, u32);

/// One adjacent pair's count over the corpus, and the words it occurs in.
#[derive(Default)]
struct PairEntry {
    count: usize,
    /// Indices into [`Trainer::words`].  A word may be listed twice, or
    /// still listed after a merge took the pair out of it.
    words: Vec<u32>,
}

/// A pair queued for merging with the count it had when queued.  The
/// derived order puts the highest count on top of the heap, ties going to
/// the smaller `(left, right)` by piece text.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    count: usize,
    text: Reverse<(Rc<str>, Rc<str>)>,
    pair: Pair,
}

/// The merge loop's state.
struct Trainer {
    /// Every piece by id: the seed alphabet in the order it was first seen,
    /// then each learned piece in merge order.
    pieces: Vec<Rc<str>>,
    /// Piece ids by text, so a merge that spells an existing piece reuses it.
    ids: HashMap<Rc<str>, u32>,
    /// How many of `pieces` are the seed alphabet.
    seed_len: usize,
    /// Each distinct word as piece ids, and how often it occurs.
    words: Vec<(Vec<u32>, usize)>,
    /// Every adjacent pair seen so far.
    pairs: HashMap<Pair, PairEntry>,
    /// Merge candidates: every pair counted above zero has an entry queued
    /// at its count or higher.
    heap: BinaryHeap<Candidate>,
}

impl Trainer {
    /// Segments each word into characters, the first one marked as
    /// word-initial, and counts every adjacent pair.
    fn new(word_counts: HashMap<String, usize>) -> Self {
        let mut trainer = Trainer {
            pieces: Vec::new(),
            ids: HashMap::new(),
            seed_len: 0,
            words: Vec::with_capacity(word_counts.len()),
            pairs: HashMap::new(),
            heap: BinaryHeap::new(),
        };
        let mut seed: HashMap<(bool, char), u32> = HashMap::new();
        for (word, count) in word_counts {
            let pieces = word
                .chars()
                .enumerate()
                .map(|(i, ch)| {
                    *seed.entry((i == 0, ch)).or_insert_with(|| {
                        trainer.intern(if i == 0 {
                            format!("{WORD_BOUNDARY}{ch}")
                        } else {
                            ch.to_string()
                        })
                    })
                })
                .collect();
            trainer.words.push((pieces, count));
        }
        trainer.seed_len = trainer.pieces.len();
        for (index, (pieces, count)) in trainer.words.iter().enumerate() {
            for window in pieces.windows(2) {
                let entry = trainer.pairs.entry((window[0], window[1])).or_default();
                entry.count += count;
                if entry.words.last() != Some(&(index as u32)) {
                    entry.words.push(index as u32);
                }
            }
        }
        let queued: Vec<Candidate> = trainer
            .pairs
            .iter()
            .map(|(&pair, entry)| trainer.candidate(pair, entry.count))
            .collect();
        trainer.heap = BinaryHeap::from(queued);
        trainer
    }

    /// The id of the piece spelled `text`, added as a new piece if there is
    /// none.
    fn intern(&mut self, text: String) -> u32 {
        if let Some(&id) = self.ids.get(text.as_str()) {
            return id;
        }
        let id = self.pieces.len() as u32;
        let text: Rc<str> = text.into();
        self.pieces.push(Rc::clone(&text));
        self.ids.insert(text, id);
        id
    }

    fn candidate(&self, pair: Pair, count: usize) -> Candidate {
        let text = |id: u32| Rc::clone(&self.pieces[id as usize]);
        Candidate {
            count,
            text: Reverse((text(pair.0), text(pair.1))),
            pair,
        }
    }

    /// Takes the pair to merge next off the heap, with its count: the
    /// highest count, ties to the smaller `(left, right)` by piece text.
    /// `None` once no adjacent pair is left.
    fn most_frequent_pair(&mut self) -> Option<(Pair, usize)> {
        while let Some(top) = self.heap.pop() {
            let count = self.pairs.get(&top.pair).map_or(0, |entry| entry.count);
            if count == top.count {
                return Some((top.pair, count));
            }
            if count > 0 && count < top.count {
                self.heap.push(Candidate { count, ..top });
            }
        }
        None
    }

    /// Replaces every occurrence of `pair`, in the words that hold it, with
    /// the piece spelling the two, and queues the pairs that gained count.
    fn merge(&mut self, pair: Pair) {
        let (left, right) = pair;
        let text = format!(
            "{}{}",
            self.pieces[left as usize], self.pieces[right as usize]
        );
        let merged = self.intern(text);
        let mut holders = self
            .pairs
            .get_mut(&pair)
            .map(|entry| std::mem::take(&mut entry.words))
            .unwrap_or_default();
        holders.sort_unstable();
        holders.dedup();
        let mut gained: Vec<Pair> = Vec::new();
        for index in holders {
            let (pieces, count) = &mut self.words[index as usize];
            if !pieces.windows(2).any(|window| window == [left, right]) {
                continue;
            }
            for window in pieces.windows(2) {
                let entry = self
                    .pairs
                    .get_mut(&(window[0], window[1]))
                    .expect("every window of a word is counted");
                entry.count -= *count;
            }
            replace_pair(pieces, pair, merged);
            for window in pieces.windows(2) {
                let touched = (window[0], window[1]);
                let entry = self.pairs.entry(touched).or_default();
                entry.count += *count;
                if touched.0 == merged || touched.1 == merged {
                    if entry.words.last() != Some(&index) {
                        entry.words.push(index);
                    }
                    gained.push(touched);
                }
            }
        }
        gained.sort_unstable();
        gained.dedup();
        for touched in gained {
            let count = self.pairs[&touched].count;
            self.heap.push(self.candidate(touched, count));
        }
    }

    /// The seed alphabet sorted by text, then the learned pieces in merge
    /// order.
    fn into_vocabulary(self) -> Vocabulary {
        let (seed, learned) = self.pieces.split_at(self.seed_len);
        let mut seed: Vec<&str> = seed.iter().map(|piece| &**piece).collect();
        seed.sort_unstable();
        Vocabulary::with_pieces(seed.into_iter().chain(learned.iter().map(|piece| &**piece)))
    }
}

/// Replaces each adjacent `(left, right)` in `pieces` with `merged`, in
/// place, scanning left to right so overlapping occurrences merge from the
/// left.
fn replace_pair(pieces: &mut Vec<u32>, (left, right): Pair, merged: u32) {
    let mut read = 0;
    let mut write = 0;
    while read < pieces.len() {
        if read + 1 < pieces.len() && pieces[read] == left && pieces[read + 1] == right {
            pieces[write] = merged;
            read += 2;
        } else {
            pieces[write] = pieces[read];
            read += 1;
        }
        write += 1;
    }
    pieces.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecialToken;

    #[test]
    fn builds_deterministically() {
        let corpus = ["the cat sat on the mat", "the cat ran"];
        let a = VocabularyBuilder::new()
            .target_size(64)
            .build_from_corpus(corpus);
        let b = VocabularyBuilder::new()
            .target_size(64)
            .build_from_corpus(corpus);
        assert_eq!(a, b);
    }

    #[test]
    fn target_size_stops_merges_beyond_seed_alphabet() {
        // The seed alphabet (one piece per observed character position kind)
        // is a floor on the vocabulary size; the target size only limits how
        // many *merged* multi-character pieces are added on top of it.
        let corpus = ["aaa bbb ccc ddd eee fff ggg hhh iii jjj"];
        let vocab = VocabularyBuilder::new()
            .target_size(16)
            .min_pair_frequency(1)
            .build_from_corpus(corpus);
        let longest = vocab
            .iter()
            .filter(|(id, _)| !vocab.is_special(*id))
            .map(|(_, piece)| piece.trim_start_matches(WORD_BOUNDARY).chars().count())
            .max()
            .unwrap_or(0);
        assert_eq!(
            longest, 1,
            "no merges should be applied when the seed exceeds the target"
        );

        let generous = VocabularyBuilder::new()
            .target_size(64)
            .min_pair_frequency(1)
            .build_from_corpus(corpus);
        assert!(generous.len() <= 64);
        assert!(
            generous.len() > vocab.len(),
            "a generous target should allow merges"
        );
    }

    #[test]
    fn seed_alphabet_covers_corpus_characters() {
        let corpus = ["xyzzy plugh"];
        let vocab = VocabularyBuilder::new()
            .target_size(1000)
            .build_from_corpus(corpus);
        for ch in "xyzplugh".chars() {
            let single = ch.to_string();
            let word_initial = format!("{WORD_BOUNDARY}{ch}");
            assert!(
                vocab.id_of(&single).is_some() || vocab.id_of(&word_initial).is_some(),
                "character {ch:?} is not covered"
            );
        }
    }

    #[test]
    fn merges_frequent_words_into_single_pieces() {
        let corpus = vec!["hello hello hello hello hello world"; 8];
        let vocab = VocabularyBuilder::new()
            .target_size(512)
            .build_from_corpus(corpus);
        assert!(
            vocab.id_of(&format!("{WORD_BOUNDARY}hello")).is_some(),
            "frequent word should become a single piece"
        );
    }

    #[test]
    fn lowercase_flag_controls_casing() {
        let corpus = ["HELLO HELLO HELLO HELLO"];
        let lower = VocabularyBuilder::new()
            .target_size(256)
            .build_from_corpus(corpus);
        let cased = VocabularyBuilder::new()
            .lowercase(false)
            .target_size(256)
            .build_from_corpus(corpus);
        assert!(lower.id_of(&format!("{WORD_BOUNDARY}hello")).is_some());
        assert!(cased.id_of(&format!("{WORD_BOUNDARY}HELLO")).is_some());
    }

    #[test]
    fn empty_corpus_yields_only_specials() {
        let vocab = VocabularyBuilder::new().build_from_corpus(Vec::<&str>::new());
        assert_eq!(vocab.len(), SpecialToken::ALL.len());
        assert!(vocab.is_empty());
    }

    #[test]
    fn min_pair_frequency_limits_merges() {
        let corpus = ["ab ab cd"];
        let strict = VocabularyBuilder::new()
            .target_size(1000)
            .min_pair_frequency(5)
            .build_from_corpus(corpus);
        let relaxed = VocabularyBuilder::new()
            .target_size(1000)
            .min_pair_frequency(1)
            .build_from_corpus(corpus);
        assert!(strict.len() <= relaxed.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::SpecialToken;
    use proptest::prelude::*;
    use specasr_audio::Corpus;

    /// The trainer before it counted pairs incrementally: each merge
    /// recounts every adjacent pair of every word into a fresh map of cloned
    /// piece strings, then rebuilds every word.  The incremental trainer
    /// must learn exactly its vocabulary.
    fn reference_build(builder: &VocabularyBuilder, corpus: &[String]) -> Vocabulary {
        // 1. Count word frequencies.
        let mut word_counts: HashMap<String, usize> = HashMap::new();
        for line in corpus {
            let line = if builder.lowercase {
                line.to_lowercase()
            } else {
                line.to_owned()
            };
            for word in line.split_whitespace() {
                *word_counts.entry(word.to_owned()).or_insert(0) += 1;
            }
        }

        // 2. Represent each word as a sequence of pieces, starting from
        //    characters with a word-boundary marker on the first character.
        let mut words: Vec<(Vec<String>, usize)> = word_counts
            .into_iter()
            .map(|(word, count)| (segment_characters(&word), count))
            .collect();
        words.sort_by(|a, b| a.0.cmp(&b.0));

        // 3. Collect the seed alphabet.
        let mut pieces: Vec<String> = Vec::new();
        let mut seen: HashMap<String, ()> = HashMap::new();
        for (segments, _) in &words {
            for segment in segments {
                if seen.insert(segment.clone(), ()).is_none() {
                    pieces.push(segment.clone());
                }
            }
        }
        pieces.sort();

        // 4. Iteratively merge the most frequent adjacent pair.
        let special_count = crate::SpecialToken::ALL.len();
        while pieces.len() + special_count < builder.target_size {
            let Some((left, right, frequency)) = most_frequent_pair(&words) else {
                break;
            };
            if frequency < builder.min_pair_frequency {
                break;
            }
            let merged = format!("{left}{right}");
            if seen.insert(merged.clone(), ()).is_none() {
                pieces.push(merged.clone());
            }
            apply_merge(&mut words, &left, &right, &merged);
        }

        Vocabulary::with_pieces(pieces)
    }

    fn segment_characters(word: &str) -> Vec<String> {
        word.chars()
            .enumerate()
            .map(|(i, ch)| {
                if i == 0 {
                    format!("{WORD_BOUNDARY}{ch}")
                } else {
                    ch.to_string()
                }
            })
            .collect()
    }

    fn most_frequent_pair(words: &[(Vec<String>, usize)]) -> Option<(String, String, usize)> {
        let mut counts: HashMap<(String, String), usize> = HashMap::new();
        for (segments, count) in words {
            for window in segments.windows(2) {
                let key = (window[0].clone(), window[1].clone());
                *counts.entry(key).or_insert(0) += count;
            }
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|((left, right), frequency)| (left, right, frequency))
    }

    fn apply_merge(words: &mut [(Vec<String>, usize)], left: &str, right: &str, merged: &str) {
        for (segments, _) in words.iter_mut() {
            let mut output: Vec<String> = Vec::with_capacity(segments.len());
            let mut i = 0;
            while i < segments.len() {
                if i + 1 < segments.len() && segments[i] == left && segments[i + 1] == right {
                    output.push(merged.to_owned());
                    i += 2;
                } else {
                    output.push(segments[i].clone());
                    i += 1;
                }
            }
            *segments = output;
        }
    }

    /// Letters with and without case, a multi-byte letter, a capital sigma
    /// (whose lowercase depends on its position) and the word-boundary
    /// marker itself, so that some merges spell a piece that already exists.
    const CHARS: &str = "abcdABéÉΣ\u{2581}";

    fn corpus_strategy() -> impl Strategy<Value = Vec<String>> {
        let word = proptest::collection::vec(prop::sample::select(CHARS.chars().collect()), 1..7)
            .prop_map(|chars| chars.into_iter().collect::<String>());
        let line = proptest::collection::vec(word, 1..8).prop_map(|words| words.join(" "));
        proptest::collection::vec(line, 0..7)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random corpora, from targets below the seed alphabet to far
        /// above it, the incremental trainer learns the reference's
        /// vocabulary.
        #[test]
        fn incremental_trainer_matches_the_reference(
            corpus in corpus_strategy(),
            target in 0usize..160,
            min_pair_frequency in 1usize..6,
            lowercase in any::<bool>(),
        ) {
            let builder = VocabularyBuilder::new()
                .target_size(target)
                .min_pair_frequency(min_pair_frequency)
                .lowercase(lowercase);
            prop_assert_eq!(
                builder.build_from_corpus(&corpus),
                reference_build(&builder, &corpus)
            );
        }
    }

    /// A merge can spell a piece that already exists: here the marker
    /// character `▁` inside a word merges with `a` into `▁a`, the piece that
    /// starts the word `ab`.  The merge reuses that piece, adds nothing to
    /// the vocabulary, and from then on both spellings count as one, so
    /// `(▁a, b)` reaches 3 and is merged next; the target leaves room for
    /// exactly that.
    #[test]
    fn a_merge_spelling_an_existing_piece_reuses_it() {
        let corpus = ["x\u{2581}ab x\u{2581}a x\u{2581}a ab ab".to_owned()];
        let builder = VocabularyBuilder::new()
            .target_size(SpecialToken::ALL.len() + 6)
            .min_pair_frequency(2);
        let vocab = builder.build_from_corpus(&corpus);
        assert_eq!(vocab, reference_build(&builder, &corpus));
        let learned: Vec<&str> = vocab.iter().skip(4 + 5).map(|(_, piece)| piece).collect();
        assert_eq!(learned, ["\u{2581}ab"]);
    }

    /// On the corpus the benchmark trains its tokenizer on, at its
    /// configuration and at a larger target with every pair mergeable, the
    /// incremental trainer learns the reference's vocabulary.
    #[test]
    fn the_benchmark_corpus_trains_as_the_reference_does() {
        let corpus = Corpus::librispeech_like(2025_0610, 250).tokenizer_training_lines();
        for (target, min_pair_frequency) in [(2048, 2), (4096, 1)] {
            let builder = VocabularyBuilder::new()
                .target_size(target)
                .min_pair_frequency(min_pair_frequency);
            assert_eq!(
                builder.build_from_corpus(&corpus),
                reference_build(&builder, &corpus),
                "target {target}, minimum pair frequency {min_pair_frequency}"
            );
        }
    }
}
