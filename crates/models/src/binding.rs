//! Binding utterances to a tokenizer: the "audio conditioning" view that the
//! simulated models decode against.
//!
//! An [`UtteranceTokens`] is the tokenised reference transcript of one
//! utterance together with a per-token acoustic difficulty (each word's
//! difficulty is inherited by all of its subword tokens) and the bookkeeping
//! needed for prefill cost accounting (how many audio-embedding positions the
//! encoder contributes to the decoder context).

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use specasr_audio::{Corpus, Utterance, UtteranceId};
use specasr_tokenizer::{TokenId, Tokenizer, VocabularyBuilder};

/// Number of audio-embedding positions per second of audio after encoder
/// downsampling (Whisper emits 50 frames/s which a 4× stacking reduces to
/// 12.5 embeddings/s).
pub const AUDIO_EMBEDDINGS_PER_SECOND: f64 = 12.5;

/// Number of decoder context positions (audio embeddings plus the 4-token
/// prompt) prefilled for `duration_seconds` of audio.  Shared by binding,
/// direct construction, and streaming prefix views — the streaming commit
/// rule's losslessness relies on a full-audio view being byte-identical to
/// the bound utterance, so this formula must never fork.
fn prefill_token_count(duration_seconds: f64) -> usize {
    (duration_seconds * AUDIO_EMBEDDINGS_PER_SECOND).ceil() as usize + 4
}

/// A tokenizer trained on (and shared by) a corpus, used to bind utterances.
///
/// # Example
///
/// ```
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::TokenizerBinding;
///
/// let corpus = Corpus::librispeech_like(3, 2);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let bound = binding.bind(&corpus.split(Split::DevOther)[0]);
/// assert_eq!(bound.reference_tokens().len(), bound.token_difficulties().len());
/// ```
#[derive(Debug, Clone)]
pub struct TokenizerBinding {
    tokenizer: Arc<Tokenizer>,
}

impl TokenizerBinding {
    /// Trains a tokenizer vocabulary on the corpus transcripts.
    pub fn for_corpus(corpus: &Corpus) -> Self {
        let vocab = VocabularyBuilder::new()
            .target_size(2048)
            .min_pair_frequency(2)
            .build_from_corpus(corpus.tokenizer_training_lines());
        TokenizerBinding {
            tokenizer: Arc::new(Tokenizer::new(vocab)),
        }
    }

    /// The shared tokenizer.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Binds one utterance: tokenises the reference transcript and spreads
    /// each word's acoustic difficulty over its subword tokens.  This is
    /// [`TokenizerBinding::bind_into`] into a new context.
    ///
    /// # Panics
    ///
    /// Panics if the utterance transcript tokenises to an empty sequence,
    /// which cannot happen for corpora generated by [`specasr_audio`].
    pub fn bind(&self, utterance: &Utterance) -> UtteranceTokens {
        let mut bound = UtteranceTokens::default();
        self.bind_into(utterance, &mut String::new(), &mut bound);
        bound
    }

    /// Binds one utterance into `bound`, which equals
    /// [`TokenizerBinding::bind`]'s context afterwards whatever it held
    /// before.  Each word's marked form is built in `scratch`.  Every buffer
    /// keeps its capacity, so a server that binds each request into a
    /// retired request's context, through one kept scratch, stops
    /// allocating once the buffers have held its longest utterance.
    ///
    /// # Panics
    ///
    /// Panics if the utterance transcript tokenises to an empty sequence,
    /// which cannot happen for corpora generated by [`specasr_audio`].
    pub fn bind_into(
        &self,
        utterance: &Utterance,
        scratch: &mut String,
        bound: &mut UtteranceTokens,
    ) {
        let tokens = &mut bound.reference_tokens;
        let token_difficulties = &mut bound.token_difficulties;
        tokens.clear();
        token_difficulties.clear();
        // Every word encodes to at least one token.
        tokens.reserve(utterance.word_count());
        token_difficulties.reserve(utterance.word_count());
        let words = utterance.transcript().split_whitespace();
        for (word, &difficulty) in words.zip(utterance.word_difficulties()) {
            self.tokenizer.encode_into(word, scratch, tokens);
            token_difficulties.resize(tokens.len(), difficulty);
        }
        assert!(
            !tokens.is_empty(),
            "utterance tokenised to an empty sequence"
        );
        bound.id = utterance.id();
        bound.eos = self.tokenizer.eos();
        bound.bos = self.tokenizer.bos();
        bound.vocab_size = self.tokenizer.vocab_size() as u32;
        bound.duration_seconds = utterance.duration_seconds();
        bound.prefill_tokens = prefill_token_count(utterance.duration_seconds());
    }

    /// Binds every utterance of a corpus split, preserving order.
    pub fn bind_all<'a, I>(&self, utterances: I) -> Vec<UtteranceTokens>
    where
        I: IntoIterator<Item = &'a Utterance>,
    {
        utterances.into_iter().map(|u| self.bind(u)).collect()
    }
}

/// The tokenised, difficulty-annotated view of one utterance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtteranceTokens {
    // Crate-visible so the wire decoder can rebuild a context bit for bit.
    // It reads one length for both token vectors, which keeps them aligned.
    pub(crate) id: UtteranceId,
    pub(crate) reference_tokens: Vec<TokenId>,
    pub(crate) token_difficulties: Vec<f64>,
    pub(crate) eos: TokenId,
    pub(crate) bos: TokenId,
    pub(crate) vocab_size: u32,
    pub(crate) duration_seconds: f64,
    pub(crate) prefill_tokens: usize,
}

/// An empty context: no reference tokens, a zero duration and zero ids.  It
/// is a buffer to bind into ([`TokenizerBinding::bind_into`]), not an
/// utterance to decode.
impl Default for UtteranceTokens {
    fn default() -> Self {
        UtteranceTokens {
            id: UtteranceId::new(0),
            reference_tokens: Vec::new(),
            token_difficulties: Vec::new(),
            eos: TokenId::new(0),
            bos: TokenId::new(0),
            vocab_size: 0,
            duration_seconds: 0.0,
            prefill_tokens: 0,
        }
    }
}

impl UtteranceTokens {
    /// Directly constructs a bound utterance (mainly for tests and synthetic
    /// workloads).
    ///
    /// # Panics
    ///
    /// Panics if the token and difficulty lengths differ, the reference is
    /// empty, or the vocabulary size is too small to contain the tokens.
    pub fn new(
        id: UtteranceId,
        reference_tokens: Vec<TokenId>,
        token_difficulties: Vec<f64>,
        eos: TokenId,
        bos: TokenId,
        vocab_size: u32,
        duration_seconds: f64,
    ) -> Self {
        assert_eq!(
            reference_tokens.len(),
            token_difficulties.len(),
            "one difficulty per reference token is required"
        );
        assert!(!reference_tokens.is_empty(), "reference must not be empty");
        assert!(
            reference_tokens.iter().all(|t| t.value() < vocab_size),
            "all reference tokens must be inside the vocabulary"
        );
        let prefill_tokens = prefill_token_count(duration_seconds);
        UtteranceTokens {
            id,
            reference_tokens,
            token_difficulties,
            eos,
            bos,
            vocab_size,
            duration_seconds,
            prefill_tokens,
        }
    }

    /// The utterance id.
    pub fn id(&self) -> UtteranceId {
        self.id
    }

    /// The tokenised reference transcript (no BOS/EOS).
    pub fn reference_tokens(&self) -> &[TokenId] {
        &self.reference_tokens
    }

    /// Per-token acoustic difficulty, aligned with
    /// [`UtteranceTokens::reference_tokens`].
    pub fn token_difficulties(&self) -> &[f64] {
        &self.token_difficulties
    }

    /// Difficulty of the token at output position `position`; positions past
    /// the reference end (where only EOS can be emitted) report 0.
    pub fn difficulty_at(&self, position: usize) -> f64 {
        self.token_difficulties
            .get(position)
            .copied()
            .unwrap_or(0.0)
    }

    /// Number of reference tokens.
    pub fn len(&self) -> usize {
        self.reference_tokens.len()
    }

    /// `true` if the reference is empty (never the case for corpus-bound
    /// utterances).
    pub fn is_empty(&self) -> bool {
        self.reference_tokens.is_empty()
    }

    /// The end-of-sequence token id.
    pub fn eos(&self) -> TokenId {
        self.eos
    }

    /// The beginning-of-sequence token id.
    pub fn bos(&self) -> TokenId {
        self.bos
    }

    /// The vocabulary size the models decode over.
    pub fn vocab_size(&self) -> u32 {
        self.vocab_size
    }

    /// Audio duration in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.duration_seconds
    }

    /// Number of context positions (audio embeddings + prompt) prefilled
    /// before decoding starts; used for prefill latency accounting.
    pub fn prefill_tokens(&self) -> usize {
        self.prefill_tokens
    }

    /// The reference token at `position`, or EOS for positions past the end.
    pub fn reference_at(&self, position: usize) -> TokenId {
        self.reference_tokens
            .get(position)
            .copied()
            .unwrap_or(self.eos)
    }

    /// Number of reference tokens fully covered by the first `audio_seconds`
    /// of this utterance, under the uniform token-time alignment (token `i`
    /// is heard once `(i + 1) / len` of the audio has arrived).
    pub fn tokens_heard(&self, audio_seconds: f64) -> usize {
        if audio_seconds >= self.duration_seconds {
            return self.len();
        }
        if audio_seconds <= 0.0 || self.duration_seconds <= 0.0 {
            return 0;
        }
        let fraction = audio_seconds / self.duration_seconds;
        ((fraction * self.len() as f64).floor() as usize).min(self.len())
    }

    /// The streaming view of this utterance after `audio_seconds` of audio
    /// have arrived: the reference is truncated to the tokens fully heard,
    /// the duration (and hence the prefill footprint) shrinks to the received
    /// span, and the last `boundary_tokens` heard positions get their
    /// acoustic difficulty raised by up to `boundary_boost` — a word cut off
    /// mid-chunk is genuinely harder to recognise, which is what makes
    /// near-horizon hypothesis tokens unstable across re-decodes.
    ///
    /// Returns `None` while no token is fully heard yet.  Once the full
    /// audio has arrived the view is the utterance itself (no boost), so a
    /// decode over the final view is byte-identical to the offline decode.
    ///
    /// Emissions of an audio-conditioned simulated model at position `p`
    /// depend only on `(utterance id, p, reference token, difficulty)`;
    /// positions further than `boundary_tokens` behind the horizon carry
    /// their final difficulty, so their emissions can never change again as
    /// more audio lands — the soundness argument behind the streaming commit
    /// rule.
    ///
    /// # Panics
    ///
    /// Panics if `boundary_boost` is negative or not finite.
    pub fn prefix_view(
        &self,
        audio_seconds: f64,
        boundary_tokens: usize,
        boundary_boost: f64,
    ) -> Option<UtteranceTokens> {
        let mut view = UtteranceTokens {
            reference_tokens: Vec::new(),
            token_difficulties: Vec::new(),
            ..*self
        };
        self.fill_prefix_view(&mut view, audio_seconds, boundary_tokens, boundary_boost)
            .then_some(view)
    }

    /// Refills `view` in place with [`UtteranceTokens::prefix_view`]'s view
    /// and returns `true`, or returns `false` and leaves `view` as it was
    /// while no token is fully heard yet.  Whatever `view` held before, a
    /// view of another utterance too, it now equals the new view; its
    /// buffers keep their capacity, so a buffer that has held the full
    /// utterance refills every view of it without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `boundary_boost` is negative or not finite.
    pub fn fill_prefix_view(
        &self,
        view: &mut UtteranceTokens,
        audio_seconds: f64,
        boundary_tokens: usize,
        boundary_boost: f64,
    ) -> bool {
        assert!(
            boundary_boost.is_finite() && boundary_boost >= 0.0,
            "boundary_boost must be finite and non-negative"
        );
        let complete = audio_seconds >= self.duration_seconds;
        let heard = self.tokens_heard(audio_seconds);
        if !complete && heard == 0 {
            return false;
        }
        view.reference_tokens.clear();
        view.reference_tokens
            .extend_from_slice(&self.reference_tokens[..heard]);
        view.token_difficulties.clear();
        view.token_difficulties
            .extend_from_slice(&self.token_difficulties[..heard]);
        view.id = self.id;
        view.eos = self.eos;
        view.bos = self.bos;
        view.vocab_size = self.vocab_size;
        if complete {
            view.duration_seconds = self.duration_seconds;
            view.prefill_tokens = self.prefill_tokens;
            return true;
        }
        let window = boundary_tokens.min(heard);
        for (offset, difficulty) in view.token_difficulties[heard - window..]
            .iter_mut()
            .enumerate()
        {
            // The closest-to-horizon token is boosted the most; the boost
            // fades linearly with distance from the chunk boundary.
            let proximity = (offset + 1) as f64 / window as f64;
            *difficulty = (*difficulty + boundary_boost * proximity).min(1.0);
        }
        view.duration_seconds = audio_seconds;
        view.prefill_tokens = prefill_token_count(audio_seconds);
        true
    }

    /// Content hash of this utterance's decoder prefix (audio-feature
    /// embeddings plus prompt): two bound utterances get the same key iff
    /// they would prefill an identical context, which is what lets a paged
    /// KV pool share prefix blocks between concurrent requests for the same
    /// audio.
    pub fn prefix_key(&self) -> u64 {
        let mut hash = crate::hashing::splitmix64(
            (self.prefill_tokens as u64) ^ ((self.vocab_size as u64) << 32) ^ 0x5bec_a5f1,
        );
        hash = crate::hashing::splitmix64(hash ^ self.duration_seconds.to_bits());
        hash = crate::hashing::splitmix64(hash ^ (self.bos.value() as u64));
        for &token in &self.reference_tokens {
            hash = crate::hashing::splitmix64(hash ^ (token.value() as u64 + 1));
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr_audio::Split;

    fn binding_and_corpus() -> (TokenizerBinding, Corpus) {
        let corpus = Corpus::librispeech_like(17, 4);
        let binding = TokenizerBinding::for_corpus(&corpus);
        (binding, corpus)
    }

    #[test]
    fn binding_round_trips_transcripts() {
        let (binding, corpus) = binding_and_corpus();
        for utt in corpus.iter() {
            let bound = binding.bind(utt);
            let decoded = binding
                .tokenizer()
                .decode(bound.reference_tokens())
                .expect("decode");
            assert_eq!(decoded, utt.transcript());
        }
    }

    #[test]
    fn difficulties_align_with_tokens() {
        let (binding, corpus) = binding_and_corpus();
        let utt = &corpus.split(Split::TestOther)[0];
        let bound = binding.bind(utt);
        assert_eq!(
            bound.reference_tokens().len(),
            bound.token_difficulties().len()
        );
        assert!(bound.len() >= utt.word_count());
        assert!(bound
            .token_difficulties()
            .iter()
            .all(|d| (0.0..=1.0).contains(d)));
    }

    #[test]
    fn difficulty_past_the_end_is_zero() {
        let (binding, corpus) = binding_and_corpus();
        let bound = binding.bind(&corpus.split(Split::DevClean)[1]);
        assert_eq!(bound.difficulty_at(bound.len() + 10), 0.0);
    }

    #[test]
    fn reference_past_the_end_is_eos() {
        let (binding, corpus) = binding_and_corpus();
        let bound = binding.bind(&corpus.split(Split::DevClean)[0]);
        assert_eq!(bound.reference_at(bound.len()), bound.eos());
        assert_ne!(bound.reference_at(0), bound.eos());
    }

    #[test]
    fn prefill_tokens_scale_with_duration() {
        let (binding, corpus) = binding_and_corpus();
        let mut bounds: Vec<UtteranceTokens> = corpus.iter().map(|u| binding.bind(u)).collect();
        bounds.sort_by(|a, b| {
            a.duration_seconds()
                .partial_cmp(&b.duration_seconds())
                .expect("finite")
        });
        assert!(
            bounds.first().expect("non-empty").prefill_tokens()
                <= bounds.last().expect("non-empty").prefill_tokens()
        );
    }

    #[test]
    fn prefix_keys_identify_identical_prefixes() {
        let (binding, corpus) = binding_and_corpus();
        let split = corpus.split(Split::TestClean);
        // Binding the same utterance twice yields the same key; distinct
        // utterances get distinct keys.
        assert_eq!(
            binding.bind(&split[0]).prefix_key(),
            binding.bind(&split[0]).prefix_key()
        );
        assert_ne!(
            binding.bind(&split[0]).prefix_key(),
            binding.bind(&split[1]).prefix_key()
        );
    }

    #[test]
    fn bind_all_preserves_order_and_count() {
        let (binding, corpus) = binding_and_corpus();
        let split = corpus.split(Split::TestClean);
        let bound = binding.bind_all(split);
        assert_eq!(bound.len(), split.len());
        for (b, u) in bound.iter().zip(split.iter()) {
            assert_eq!(b.id(), u.id());
        }
    }

    #[test]
    fn tokens_heard_grows_monotonically_with_audio() {
        let (binding, corpus) = binding_and_corpus();
        let bound = binding.bind(&corpus.split(Split::TestClean)[0]);
        let duration = bound.duration_seconds();
        let mut previous = 0usize;
        for step in 0..=10 {
            let heard = bound.tokens_heard(duration * step as f64 / 10.0);
            assert!(heard >= previous);
            previous = heard;
        }
        assert_eq!(bound.tokens_heard(duration), bound.len());
        assert_eq!(bound.tokens_heard(duration * 2.0), bound.len());
        assert_eq!(bound.tokens_heard(0.0), 0);
    }

    #[test]
    fn full_audio_prefix_view_is_the_utterance_itself() {
        let (binding, corpus) = binding_and_corpus();
        let bound = binding.bind(&corpus.split(Split::TestOther)[1]);
        let view = bound
            .prefix_view(bound.duration_seconds(), 3, 0.4)
            .expect("full audio always yields a view");
        assert_eq!(view, bound, "the complete view carries no boundary boost");
    }

    #[test]
    fn partial_prefix_views_truncate_and_boost_the_boundary() {
        let (binding, corpus) = binding_and_corpus();
        let bound = binding.bind(&corpus.split(Split::TestClean)[2]);
        let half = bound.duration_seconds() / 2.0;
        let view = bound.prefix_view(half, 2, 0.5).expect("half is audible");
        assert!(view.len() < bound.len());
        assert_eq!(view.len(), bound.tokens_heard(half));
        assert_eq!(
            view.reference_tokens(),
            &bound.reference_tokens()[..view.len()]
        );
        // Positions clear of the boundary window keep their final difficulty.
        for p in 0..view.len().saturating_sub(2) {
            assert_eq!(view.difficulty_at(p), bound.difficulty_at(p));
        }
        // The horizon token is boosted (unless already saturated at 1.0).
        let last = view.len() - 1;
        assert!(view.difficulty_at(last) >= bound.difficulty_at(last));
        assert!(view.difficulty_at(last) <= 1.0);
        // The prefill footprint shrinks with the received audio span.
        assert!(view.prefill_tokens() < bound.prefill_tokens());
        assert!((view.duration_seconds() - half).abs() < 1e-12);
    }

    #[test]
    fn inaudible_prefix_views_are_none() {
        let (binding, corpus) = binding_and_corpus();
        let bound = binding.bind(&corpus.split(Split::DevOther)[0]);
        assert_eq!(bound.prefix_view(0.0, 2, 0.3), None);
        let one_token_s = bound.duration_seconds() / bound.len() as f64;
        assert!(bound.prefix_view(one_token_s * 1.5, 2, 0.3).is_some());
    }

    #[test]
    #[should_panic(expected = "boundary_boost")]
    fn negative_boundary_boost_panics() {
        let (binding, corpus) = binding_and_corpus();
        let bound = binding.bind(&corpus.split(Split::DevClean)[0]);
        let _ = bound.prefix_view(1.0, 2, -0.1);
    }

    #[test]
    #[should_panic(expected = "one difficulty per reference token")]
    fn mismatched_lengths_panic() {
        UtteranceTokens::new(
            UtteranceId::new(0),
            vec![TokenId::new(5)],
            vec![],
            TokenId::new(1),
            TokenId::new(0),
            100,
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "inside the vocabulary")]
    fn out_of_vocab_reference_panics() {
        UtteranceTokens::new(
            UtteranceId::new(0),
            vec![TokenId::new(500)],
            vec![0.1],
            TokenId::new(1),
            TokenId::new(0),
            100,
            1.0,
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use specasr_audio::Split;

    /// A horizon of `kind` into `audio`: inaudible (a fraction of one
    /// token's share of the duration), partial, the full duration, or past
    /// it.
    fn horizon(audio: &UtteranceTokens, kind: u32, permille: u32) -> f64 {
        let fraction = f64::from(permille) / 1_000.0;
        let duration = audio.duration_seconds();
        match kind {
            0 => duration / audio.len() as f64 * fraction,
            1 => duration * fraction,
            2 => duration,
            _ => duration * 1.2,
        }
    }

    /// A binding whose vocabulary was trained on multi-byte lowercase text.
    fn multilingual_binding() -> TokenizerBinding {
        let vocab = VocabularyBuilder::new()
            .target_size(300)
            .min_pair_frequency(1)
            .build_from_corpus([
                "straße café naïve σοφία οδος σας ελληνικά zoë привет mañana",
                "a b c é ß σ ς ø и ǆ ǉ i\u{307} ab ba aσ σa",
            ]);
        TokenizerBinding {
            tokenizer: Arc::new(Tokenizer::new(vocab)),
        }
    }

    /// Characters the vocabulary covers as they are, covers only once
    /// lowercased (capital sigma, titlecase digraphs, a capital that
    /// lowercases to two characters), or cannot cover.
    const MIXED_CHARS: &str = "abcéßσςøиοABÉΣΟØИǅǈİẞ'\u{301}·.模😀";

    /// An utterance of one to six words drawn from [`MIXED_CHARS`], one
    /// difficulty per word.
    fn mixed_utterance() -> impl Strategy<Value = Utterance> {
        let word = proptest::collection::vec(
            prop::sample::select(MIXED_CHARS.chars().collect::<Vec<char>>()),
            1..7,
        )
        .prop_map(|chars| chars.into_iter().collect::<String>());
        (
            proptest::collection::vec((word, 0u32..1_000), 1..7),
            0u64..1_000,
            1u32..400,
        )
            .prop_map(|(words, id, tenths)| {
                let transcript = words
                    .iter()
                    .map(|(word, _)| word.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                let difficulties = words
                    .iter()
                    .map(|&(_, permille)| f64::from(permille) / 1_000.0)
                    .collect();
                Utterance::new(
                    UtteranceId::new(id),
                    Split::TestOther,
                    transcript,
                    difficulties,
                    f64::from(tenths) / 10.0,
                )
            })
    }

    proptest! {
        /// Binding into a context and a scratch that hold an earlier
        /// utterance, longer or shorter, gives what `bind` gives, over
        /// multi-byte, uppercase, capital-sigma and uncoverable characters.
        #[test]
        fn binding_into_a_dirty_buffer_equals_bind(
            earlier in mixed_utterance(),
            utterance in mixed_utterance(),
        ) {
            let binding = multilingual_binding();
            let mut scratch = String::new();
            let mut bound = UtteranceTokens::default();
            binding.bind_into(&earlier, &mut scratch, &mut bound);
            prop_assert_eq!(&bound, &binding.bind(&earlier));
            binding.bind_into(&utterance, &mut scratch, &mut bound);
            prop_assert_eq!(&bound, &binding.bind(&utterance));
            prop_assert_eq!(bound.prefix_key(), binding.bind(&utterance).prefix_key());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Refilling a kept buffer gives the view `prefix_view` builds, in
        /// value and in prefix key, whatever the buffer last held: a longer
        /// or a shorter view of the same utterance, or a view of another
        /// one.  An inaudible horizon refills nothing and leaves the buffer
        /// as it was.
        #[test]
        fn a_refilled_view_equals_a_new_one(
            utterances in (0usize..4, 0usize..4),
            first in (0u32..4, 0u32..1_000),
            second in (0u32..4, 0u32..1_000),
            boundary in 0usize..5,
            boost in 0u32..80,
        ) {
            let corpus = Corpus::librispeech_like(29, 1);
            let binding = TokenizerBinding::for_corpus(&corpus);
            let bound: Vec<UtteranceTokens> = Split::ALL
                .iter()
                .map(|&split| binding.bind(&corpus.split(split)[0]))
                .collect();
            let boost = f64::from(boost) / 100.0;
            let (before, after) = (&bound[utterances.0], &bound[utterances.1]);
            let mut buffer = before.clone();
            let at = horizon(before, first.0, first.1);
            let held = before.fill_prefix_view(&mut buffer, at, boundary, boost);
            prop_assert_eq!(held, before.prefix_view(at, boundary, boost).is_some());
            let kept = buffer.clone();

            let at = horizon(after, second.0, second.1);
            let refilled = after.fill_prefix_view(&mut buffer, at, boundary, boost);
            match after.prefix_view(at, boundary, boost) {
                Some(view) => {
                    prop_assert!(refilled);
                    prop_assert_eq!(buffer.prefix_key(), view.prefix_key());
                    prop_assert_eq!(&buffer, &view);
                }
                None => {
                    prop_assert!(!refilled);
                    prop_assert_eq!(&buffer, &kept);
                }
            }
            if second.0 >= 2 {
                prop_assert_eq!(&buffer, after, "a complete view is the utterance");
            }
        }
    }
}
