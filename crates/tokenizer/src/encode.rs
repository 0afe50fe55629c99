//! Greedy longest-match encoding and lossless decoding.

use std::sync::Arc;

use crate::error::TokenizeError;
use crate::vocab::{SpecialToken, TokenId, Vocabulary, WORD_BOUNDARY};

/// Encoder/decoder over a shared [`Vocabulary`].
///
/// Encoding uses greedy longest-match over the vocabulary pieces; characters
/// that cannot be covered fall back to the `<unk>` token, so encoding never
/// fails for well-formed UTF-8 input (an error variant exists only for the
/// strict API, [`Tokenizer::encode_strict`]).
///
/// The tokenizer is cheap to clone: the vocabulary is reference-counted.
///
/// # Example
///
/// ```
/// use specasr_tokenizer::{Tokenizer, VocabularyBuilder};
///
/// # fn main() -> Result<(), specasr_tokenizer::TokenizeError> {
/// let vocab = VocabularyBuilder::new()
///     .target_size(300)
///     .build_from_corpus(["speech recognition is audio conditioned"]);
/// let tok = Tokenizer::new(vocab);
/// let ids = tok.encode("speech recognition")?;
/// assert_eq!(tok.decode(&ids)?, "speech recognition");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Tokenizer {
    vocab: Arc<Vocabulary>,
    max_piece_chars: usize,
    lowercase: bool,
}

impl Tokenizer {
    /// Creates a tokenizer over `vocab`.
    pub fn new(vocab: Vocabulary) -> Self {
        let max_piece_chars = vocab
            .iter()
            .map(|(_, piece)| piece.chars().count())
            .max()
            .unwrap_or(1);
        Tokenizer {
            vocab: Arc::new(vocab),
            max_piece_chars,
            lowercase: true,
        }
    }

    /// Disables input lowercasing (the default matches
    /// [`crate::VocabularyBuilder`]'s default of lowercasing).
    pub fn preserve_case(mut self) -> Self {
        self.lowercase = false;
        self
    }

    /// Returns the underlying vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of entries in the vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Id of the beginning-of-sequence token.
    pub fn bos(&self) -> TokenId {
        self.vocab.special(SpecialToken::Bos)
    }

    /// Id of the end-of-sequence token.
    pub fn eos(&self) -> TokenId {
        self.vocab.special(SpecialToken::Eos)
    }

    /// Id of the padding token.
    pub fn pad(&self) -> TokenId {
        self.vocab.special(SpecialToken::Pad)
    }

    /// Id of the unknown token.
    pub fn unk(&self) -> TokenId {
        self.vocab.special(SpecialToken::Unk)
    }

    /// Encodes `text` into token ids, mapping uncoverable characters to
    /// `<unk>`.
    ///
    /// # Errors
    ///
    /// This lenient variant never returns an error for valid UTF-8 input; the
    /// `Result` return type exists for signature symmetry with
    /// [`Tokenizer::decode`] and future vocabulary-free configurations.
    pub fn encode(&self, text: &str) -> Result<Vec<TokenId>, TokenizeError> {
        let mut ids = Vec::new();
        self.encode_impl(text, false, &mut String::new(), &mut ids)?;
        Ok(ids)
    }

    /// Encodes `text`, returning an error on the first character that cannot
    /// be covered by the vocabulary.
    ///
    /// # Errors
    ///
    /// Returns [`TokenizeError::UncoverableInput`] if a character has no
    /// covering piece (not even as a single character).
    pub fn encode_strict(&self, text: &str) -> Result<Vec<TokenId>, TokenizeError> {
        let mut ids = Vec::new();
        self.encode_impl(text, true, &mut String::new(), &mut ids)?;
        Ok(ids)
    }

    /// Appends the lenient encoding of `text` (see [`Tokenizer::encode`]) to
    /// `out`, building each word's marked form in `scratch`.  A caller that
    /// encodes many texts through the same two buffers stops allocating once
    /// they have grown.
    pub fn encode_into(&self, text: &str, scratch: &mut String, out: &mut Vec<TokenId>) {
        self.encode_impl(text, false, scratch, out)
            .expect("lenient encoding never fails");
    }

    /// Encodes every whitespace-separated word of `text` into `out`,
    /// lowercased (unless case is preserved) and marked in `marked`.
    fn encode_impl(
        &self,
        text: &str,
        strict: bool,
        marked: &mut String,
        out: &mut Vec<TokenId>,
    ) -> Result<(), TokenizeError> {
        // Lowercasing maps no character to or from whitespace, so the words
        // of the lowercased text are the lowercased words of the text.
        for word in text.split_whitespace() {
            marked.clear();
            marked.push(WORD_BOUNDARY);
            if !self.lowercase {
                marked.push_str(word);
            } else if word.contains('Σ') {
                // Capital sigma is the one letter whose lowercase depends on
                // its neighbours (word-final `ς`, else `σ`); whitespace never
                // counts as one, so lowercasing the word alone agrees with
                // lowercasing the whole text.
                marked.push_str(&word.to_lowercase());
            } else {
                marked.extend(word.chars().flat_map(char::to_lowercase));
            }
            self.encode_word(marked, strict, out)?;
        }
        Ok(())
    }

    /// Encodes one marked word (the boundary marker, then the word) by
    /// greedy longest match, trying each candidate as a slice of `marked`.
    fn encode_word(
        &self,
        marked: &str,
        strict: bool,
        out: &mut Vec<TokenId>,
    ) -> Result<(), TokenizeError> {
        // `start` is a byte offset into `marked`, `position` the same point
        // counted in characters.
        let mut start = 0;
        let mut position = 0;
        while start < marked.len() {
            let rest = &marked[start..];
            // The longest candidate spans `max_piece_chars` characters; each
            // miss drops its last character.
            let mut end = rest
                .char_indices()
                .nth(self.max_piece_chars)
                .map_or(rest.len(), |(at, _)| at);
            let mut matched: Option<(usize, TokenId)> = None;
            while end > 0 {
                let candidate = &rest[..end];
                if let Some(id) = self.vocab.id_of(candidate) {
                    matched = Some((end, id));
                    break;
                }
                end = candidate.char_indices().next_back().map_or(0, |(at, _)| at);
            }
            match matched {
                Some((len, id)) => {
                    out.push(id);
                    position += rest[..len].chars().count();
                    start += len;
                }
                None => {
                    let ch = rest.chars().next().expect("`start` is inside `marked`");
                    // A marker no word-initial piece matched is skipped: the
                    // word body is retried without it.
                    if ch != WORD_BOUNDARY {
                        if strict {
                            return Err(TokenizeError::UncoverableInput {
                                character: ch,
                                offset: position.saturating_sub(1),
                            });
                        }
                        out.push(self.unk());
                    }
                    start += ch.len_utf8();
                    position += 1;
                }
            }
        }
        Ok(())
    }

    /// Decodes token ids back into text.
    ///
    /// Special tokens are skipped; word-boundary markers become single spaces.
    /// The text's exact length is added up first, so decoding allocates one
    /// `String` of that size and never regrows it.
    ///
    /// # Errors
    ///
    /// Returns [`TokenizeError::UnknownTokenId`] if any id is outside the
    /// vocabulary.
    pub fn decode(&self, ids: &[TokenId]) -> Result<String, TokenizeError> {
        let mut len = 0;
        self.spell(ids, |ch| len += ch.len_utf8())?;
        let mut text = String::with_capacity(len);
        self.spell(ids, |ch| text.push(ch))?;
        Ok(text)
    }

    /// Passes the decoded text of `ids` to `emit` character by character:
    /// special tokens are skipped, and a word-boundary marker becomes a
    /// single space unless nothing was emitted yet.
    fn spell(&self, ids: &[TokenId], mut emit: impl FnMut(char)) -> Result<(), TokenizeError> {
        let mut started = false;
        for &id in ids {
            let piece = self
                .vocab
                .piece(id)
                .ok_or(TokenizeError::UnknownTokenId { id })?;
            if self.vocab.is_special(id) {
                continue;
            }
            for ch in piece.chars() {
                if ch != WORD_BOUNDARY {
                    emit(ch);
                    started = true;
                } else if started {
                    emit(' ');
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VocabularyBuilder;

    fn sample_tokenizer() -> Tokenizer {
        let corpus = [
            "the quick brown fox jumps over the lazy dog",
            "speech recognition with large language models",
            "speculative decoding accelerates autoregressive inference",
            "audio conditioned generation keeps draft and target aligned",
        ];
        let vocab = VocabularyBuilder::new()
            .target_size(400)
            .min_pair_frequency(1)
            .build_from_corpus(corpus);
        Tokenizer::new(vocab)
    }

    #[test]
    fn encode_decode_round_trip() {
        let tok = sample_tokenizer();
        let text = "the quick brown fox";
        let ids = tok.encode(text).expect("encode");
        assert_eq!(tok.decode(&ids).expect("decode"), text);
    }

    #[test]
    fn round_trip_normalises_whitespace_and_case() {
        let tok = sample_tokenizer();
        let ids = tok.encode("  The   QUICK fox ").expect("encode");
        assert_eq!(tok.decode(&ids).expect("decode"), "the quick fox");
    }

    #[test]
    fn unknown_characters_map_to_unk() {
        let tok = sample_tokenizer();
        let ids = tok.encode("fox 模型").expect("encode");
        assert!(ids.contains(&tok.unk()));
    }

    #[test]
    fn strict_encoding_rejects_unknown_characters() {
        let tok = sample_tokenizer();
        let err = tok.encode_strict("模型").expect_err("should fail");
        assert!(matches!(err, TokenizeError::UncoverableInput { .. }));
    }

    #[test]
    fn decode_rejects_out_of_range_ids() {
        let tok = sample_tokenizer();
        let err = tok
            .decode(&[TokenId::new(u32::MAX)])
            .expect_err("should fail");
        assert!(matches!(err, TokenizeError::UnknownTokenId { .. }));
    }

    #[test]
    fn specials_are_skipped_when_decoding() {
        let tok = sample_tokenizer();
        let mut ids = vec![tok.bos()];
        ids.extend(tok.encode("lazy dog").expect("encode"));
        ids.push(tok.eos());
        assert_eq!(tok.decode(&ids).expect("decode"), "lazy dog");
    }

    #[test]
    fn empty_input_encodes_to_empty() {
        let tok = sample_tokenizer();
        assert!(tok.encode("").expect("encode").is_empty());
        assert_eq!(tok.decode(&[]).expect("decode"), "");
    }

    #[test]
    fn tokenizer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tokenizer>();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::VocabularyBuilder;
    use proptest::prelude::*;

    fn word_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(prop::sample::select(vec!['a', 'b', 'c', 'd', 'e']), 1..8)
            .prop_map(|chars| chars.into_iter().collect())
    }

    fn sentence_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(word_strategy(), 1..12).prop_map(|words| words.join(" "))
    }

    /// The encoder before it sliced one marked buffer: the whole text
    /// lowercased at once, a `Vec<char>` per word and a `String` per
    /// candidate.  The slicing encoder must reproduce it exactly.
    fn reference_encode(
        tok: &Tokenizer,
        text: &str,
        strict: bool,
    ) -> Result<Vec<TokenId>, TokenizeError> {
        let text = if tok.lowercase {
            text.to_lowercase()
        } else {
            text.to_owned()
        };
        let mut ids = Vec::new();
        for word in text.split_whitespace() {
            let marked: Vec<char> = std::iter::once(WORD_BOUNDARY).chain(word.chars()).collect();
            let mut start = 0;
            while start < marked.len() {
                let remaining = marked.len() - start;
                let mut matched: Option<(usize, TokenId)> = None;
                let max_len = remaining.min(tok.max_piece_chars);
                for len in (1..=max_len).rev() {
                    let candidate: String = marked[start..start + len].iter().collect();
                    if let Some(id) = tok.vocab.id_of(&candidate) {
                        matched = Some((len, id));
                        break;
                    }
                }
                match matched {
                    Some((len, id)) => {
                        ids.push(id);
                        start += len;
                    }
                    None => {
                        let ch = marked[start];
                        if ch == WORD_BOUNDARY {
                            start += 1;
                            continue;
                        }
                        if strict {
                            return Err(TokenizeError::UncoverableInput {
                                character: ch,
                                offset: start.saturating_sub(1),
                            });
                        }
                        ids.push(tok.unk());
                        start += 1;
                    }
                }
            }
        }
        Ok(ids)
    }

    /// A vocabulary trained on multi-byte lowercase text.
    fn multilingual_tokenizer() -> Tokenizer {
        let vocab = VocabularyBuilder::new()
            .target_size(300)
            .min_pair_frequency(1)
            .build_from_corpus([
                "straße café naïve σοφία οδος σας ελληνικά zoë привет mañana",
                "a b c é ß σ ς ø и ǆ ǉ i\u{307} ab ba aσ σa",
            ]);
        Tokenizer::new(vocab)
    }

    #[test]
    fn strict_errors_locate_the_character_by_char_index_within_its_word() {
        // `é` and `ñ` take two bytes each: the uncoverable `模` is character
        // 5 of `caféñ模` but starts at byte 7, and the index restarts with
        // every word.
        let tok = multilingual_tokenizer();
        for (text, offset) in [("caféñ模", 5), ("café ñé模a", 2)] {
            let err = tok.encode_strict(text).expect_err("`模` is uncoverable");
            assert_eq!(
                err,
                TokenizeError::UncoverableInput {
                    character: '模',
                    offset,
                }
            );
            assert!(err
                .to_string()
                .contains(&format!("char index {offset} within its word")));
        }
    }

    /// Characters the vocabulary covers as they are, covers only once
    /// lowercased (capital sigma, titlecase digraphs, a capital that
    /// lowercases to two characters), or cannot cover, plus case-ignorable
    /// marks and the word-boundary marker itself.
    const MIXED_CHARS: &str = "abcéßσςøиοABÉΣΟØИǅǈİẞ'\u{301}·.模😀\u{2581}";

    /// Whitespace of several widths, one and two characters long.
    const SEPARATORS: [&str; 4] = [" ", "\t", "\u{3000}", "\u{a0}\n"];

    fn mixed_text_strategy() -> impl Strategy<Value = String> {
        let word =
            proptest::collection::vec(prop::sample::select(MIXED_CHARS.chars().collect()), 1..7)
                .prop_map(|chars| chars.into_iter().collect::<String>());
        let separator = prop::sample::select(SEPARATORS.to_vec());
        proptest::collection::vec((separator, word), 0..6).prop_map(|words| {
            words
                .into_iter()
                .map(|(gap, word)| gap.to_owned() + &word)
                .collect()
        })
    }

    proptest! {
        /// Any sentence drawn from the training alphabet round-trips exactly.
        #[test]
        fn round_trip_over_training_alphabet(sentence in sentence_strategy()) {
            // Every alphabet letter must appear both word-initially and in an
            // interior position so the seed alphabet covers all encodings.
            let vocab = VocabularyBuilder::new()
                .target_size(200)
                .min_pair_frequency(1)
                .build_from_corpus(["abcde eabcd deabc cdeab bcdea a b c d e"]);
            let tok = Tokenizer::new(vocab);
            let ids = tok.encode(&sentence).expect("encode");
            prop_assert_eq!(tok.decode(&ids).expect("decode"), sentence);
        }

        /// Slicing the marked word gives the reference encoder's ids and
        /// strict-mode errors, with and without lowercasing, and
        /// `encode_into` appends exactly those ids.
        #[test]
        fn slicing_encoder_matches_the_reference(text in mixed_text_strategy()) {
            let mut scratch = String::new();
            for tok in [multilingual_tokenizer(), multilingual_tokenizer().preserve_case()] {
                let reference =
                    reference_encode(&tok, &text, false).expect("lenient encoding never fails");
                prop_assert_eq!(tok.encode(&text), Ok(reference.clone()));
                prop_assert_eq!(tok.encode_strict(&text), reference_encode(&tok, &text, true));
                let mut appended = vec![tok.bos()];
                tok.encode_into(&text, &mut scratch, &mut appended);
                prop_assert_eq!(&appended[1..], reference.as_slice());
            }
        }

        /// Encoding never produces ids outside the vocabulary.
        #[test]
        fn encoded_ids_are_in_range(sentence in sentence_strategy()) {
            let vocab = VocabularyBuilder::new()
                .target_size(64)
                .build_from_corpus(["a b c d e"]);
            let tok = Tokenizer::new(vocab);
            for id in tok.encode(&sentence).expect("encode") {
                prop_assert!(id.index() < tok.vocab_size());
            }
        }
    }
}
