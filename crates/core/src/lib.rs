//! SpecASR: speculative decoding policies specialised for LLM-based ASR.
//!
//! This crate is the paper's primary contribution: a family of decoding
//! policies that accelerate the LLM decoder of an ASR system without changing
//! its output (lossless acceleration).  Every policy is written against the
//! [`specasr_models::AsrDecoderModel`] trait, so the simulated models used in
//! this reproduction and a real neural backend are interchangeable.
//!
//! # Policies
//!
//! [`Policy`] names each decoding configuration, which is what the benchmark
//! harness sweeps over, and [`Policy::decode`] runs one to completion:
//!
//! * [`Policy::Autoregressive`] — the target model decodes one token per
//!   forward pass (the paper's first baseline),
//! * [`Policy::Speculative`] — classic draft-then-verify speculative decoding
//!   with a fixed prediction length and optional beams (the `(8, 1)`,
//!   `(16, 1)`, `(8, 2)` baselines),
//! * [`Policy::AdaptiveSingleSequence`] — SpecASR's **adaptive
//!   single-sequence prediction**: draft up to 24 tokens but truncate early
//!   when the normalised top-1 logit falls below a threshold, with optional
//!   **draft sequence recycling** of rejected suffixes,
//! * [`Policy::TwoPassSparseTree`] — SpecASR's **two-pass sparse-tree
//!   prediction**: a greedy main trunk plus sparse top-k side branches at
//!   uncertain positions, verified in one pass with a 2-D tree attention
//!   mask.
//!
//! Every policy runs through one round-steppable [`DecodeSession`]: the
//! blocking [`Policy::decode`] drives it to completion over a private KV
//! pool, and the serving scheduler steps many of them round by round over a
//! shared one.
//!
//! # Drafters
//!
//! *Where draft tokens come from* is orthogonal to the policy: the
//! [`Drafter`] trait decouples the draft source from the decoder model.
//! [`ModelDrafter`] is the paper's configuration (a small draft model);
//! [`specasr_models::CtcDrafter`] and [`TokenMapDrafter`] are **draft-free**
//! — they propose from the encoder's CTC posterior or a precomputed domain
//! token map, run zero draft forward passes, and hold zero draft KV cache,
//! trading shorter accepted drafts for roughly double effective serving
//! capacity.  [`DrafterKind`] threads the per-session choice through the
//! serving stack.
//!
//! # Losslessness
//!
//! Every policy produces exactly the target model's greedy transcription.
//! This invariant is enforced by unit, integration, and property-based tests
//! (`tests/` at the workspace root), and is the reason speculative decoding
//! may be compared at *iso-accuracy* in the paper.
//!
//! # Example
//!
//! ```
//! use specasr::{AdaptiveConfig, Policy};
//! use specasr_audio::{Corpus, Split};
//! use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
//!
//! let corpus = Corpus::librispeech_like(1, 1);
//! let binding = TokenizerBinding::for_corpus(&corpus);
//! let audio = binding.bind(&corpus.split(Split::TestClean)[0]);
//!
//! let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
//! let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
//!
//! let reference = Policy::Autoregressive.decode(&draft, &target, &audio);
//! let accelerated =
//!     Policy::AdaptiveSingleSequence(AdaptiveConfig::default()).decode(&draft, &target, &audio);
//!
//! assert_eq!(reference.tokens, accelerated.tokens); // lossless
//! assert!(accelerated.clock.breakdown().decode_ms() < reference.clock.breakdown().decode_ms());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod autoregressive;
mod config;
mod drafter;
mod outcome;
mod pipeline;
mod policy;
mod recycle;
mod round;
mod session;
mod sparse_tree;
mod speculative;
mod stats;
mod verify;
mod walk;

pub use config::{AdaptiveConfig, SparseTreeConfig, SpeculativeConfig};
pub use drafter::{DraftRequest, Drafter, DrafterKind, ModelDrafter, TokenMapDrafter};
pub use outcome::DecodeOutcome;
pub use pipeline::{AsrPipeline, PipelineOutput};
pub use policy::{FeatureRow, Policy, Rating};
pub use recycle::RecycleBuffer;
pub use session::{DecodeSession, DraftedRound, KvDemand};
pub use stats::{DecodeStats, RoundRecord};
pub use verify::{verify_sequence, verify_tree, SequenceVerification, TreeVerification};
