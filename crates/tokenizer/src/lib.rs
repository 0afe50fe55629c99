//! Subword tokenizer substrate for the SpecASR reproduction.
//!
//! LLM-based ASR models decode *text tokens*, not characters, so every other
//! crate in this workspace manipulates [`TokenId`] sequences.  This crate
//! provides the minimal but complete tokenizer stack the paper's pipeline
//! depends on:
//!
//! * [`Vocabulary`] — an id ↔ piece table with the usual special tokens
//!   (`<bos>`, `<eos>`, `<pad>`, `<unk>`) and word-boundary markers,
//! * [`VocabularyBuilder`] — deterministic frequency-based subword vocabulary
//!   construction (BPE-style merges) from a text corpus, counting pairs
//!   incrementally over interned piece ids: a merge rewrites only the words
//!   that hold the merged pair,
//! * [`Tokenizer`] — greedy longest-match encoding and lossless decoding,
//! * [`TokenMapIndex`] — a precomputed n-gram index over domain token
//!   sequences, the substrate of model-free token-map drafting: each context
//!   of up to three tokens is stored once, packed into one integer key, with
//!   its majority continuation (or "ambiguous") decided at build time.
//!
//! The tokenizer is intentionally deterministic: the same corpus and
//! configuration always produce the same vocabulary, which is required for the
//! reproducibility of every figure and table in the benchmark harness.
//!
//! # Example
//!
//! ```
//! use specasr_tokenizer::{Tokenizer, VocabularyBuilder};
//!
//! # fn main() -> Result<(), specasr_tokenizer::TokenizeError> {
//! let corpus = ["the quick brown fox", "the lazy dog", "quick quick fox"];
//! let vocab = VocabularyBuilder::new()
//!     .target_size(200)
//!     .build_from_corpus(corpus.iter().copied());
//! let tokenizer = Tokenizer::new(vocab);
//!
//! let ids = tokenizer.encode("the quick fox")?;
//! assert_eq!(tokenizer.decode(&ids)?, "the quick fox");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod encode;
mod error;
mod token_map;
mod vocab;

pub use builder::VocabularyBuilder;
pub use encode::Tokenizer;
pub use error::TokenizeError;
pub use token_map::TokenMapIndex;
pub use vocab::{SpecialToken, TokenId, Vocabulary};
