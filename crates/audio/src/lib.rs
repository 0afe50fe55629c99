//! Synthetic LibriSpeech-like corpus, audio-encoder cost model and chunked
//! audio arrival.
//!
//! The SpecASR paper evaluates on the LibriSpeech `test-clean`, `test-other`,
//! `dev-clean`, and `dev-other` splits, recorded speech that this offline
//! reproduction cannot ship.  This crate builds the closest synthetic
//! equivalent that exercises the same code paths:
//!
//! * [`text`] — a seeded English-like text generator producing reference
//!   transcripts with realistic word-frequency structure,
//! * [`difficulty`] — a per-word acoustic-difficulty model with bursty,
//!   localised hard regions (the paper's "variations in pronunciation and
//!   acoustic quality across specific speech segments"),
//! * [`corpus`] — utterance and split generation ([`Corpus::librispeech_like`]
//!   reproduces the four evaluation splits with a clean/other noise contrast),
//! * [`encoder`] — [`EncoderProfile`], the encoder latency model behind the
//!   Fig. 1 reproduction and the serving scheduler's encoder charge,
//! * [`stream`] — [`chunk_schedule`], the timed chunk plan of a streamed
//!   utterance.
//!
//! # Example
//!
//! ```
//! use specasr_audio::{Corpus, Split};
//!
//! let corpus = Corpus::librispeech_like(7, 20);
//! let clean = corpus.split(Split::TestClean);
//! assert_eq!(clean.len(), 20);
//! assert!(clean[0].duration_seconds() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod difficulty;
pub mod encoder;
pub mod stream;
pub mod text;

pub use corpus::{Corpus, Split, Utterance, UtteranceId};
pub use difficulty::DifficultyModel;
pub use encoder::EncoderProfile;
pub use stream::{chunk_schedule, ChunkConfig, StreamChunk};
pub use text::TextGenerator;
