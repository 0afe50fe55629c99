//! Simulated draft/target ASR models and the analytic latency substrate.
//!
//! The SpecASR paper runs Whisper tiny.en / medium.en checkpoints (and replays
//! their decoding trajectories under TinyLlama / Llama-7B / Vicuna-13B latency
//! profiles) on an NVIDIA RTX A6000.  Neither the multi-GB checkpoints nor the
//! GPU are available to this reproduction, so this crate builds the closest
//! synthetic equivalent that exercises the same code paths (see `DESIGN.md`
//! §2 for the substitution argument):
//!
//! * [`profiles`] — named model profiles (parameter count, accuracy, and
//!   forward-pass cost) for every model the paper mentions,
//! * [`binding`] — [`binding::UtteranceTokens`], the tokenised view of an
//!   utterance with per-token acoustic difficulty (the "audio conditioning"),
//! * [`logits`] — sparse top-k next-token distributions with normalised
//!   logits, the observable that adaptive truncation thresholds on,
//! * [`traits`] — the [`traits::AsrDecoderModel`] abstraction every decoding
//!   policy is written against (a real neural backend can be swapped in),
//! * [`backend`] — the batched submit/poll [`backend::AsrBackend`] API
//!   serving schedulers drive: reusable [`backend::BackendBatch`]es, ticket
//!   ranges, [`backend::Completions`] drained from a completion queue, and
//!   the simulated in-flight backend,
//! * [`probes`] — [`probes::Probes`], the flat probe set one forward pass
//!   scores,
//! * [`simulated`] — the audio-conditioned simulated ASR model: scale-
//!   dependent substitution errors, draft/target agreement driven by acoustic
//!   difficulty, re-alignment after mismatches,
//! * [`ctc`] — the draft-free [`ctc::CtcDrafter`]: a simulated CTC head over
//!   the encoder output whose greedy collapse supplies draft tokens without a
//!   draft model (Saon et al.),
//! * [`text_task`] — the non-audio-conditioned variant used for the paper's
//!   ASR-vs-text comparison (Fig. 5b),
//! * [`latency`] — the analytic forward-pass latency model and the
//!   [`latency::DecodeClock`] that accumulates simulated milliseconds,
//! * [`alignment`] — draft/target trajectory alignment measurements (Fig. 6b).
//!
//! # Example
//!
//! ```
//! use specasr_audio::{Corpus, Split};
//! use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
//! use specasr_models::traits::AsrDecoderModel;
//!
//! let corpus = Corpus::librispeech_like(1, 2);
//! let binding = TokenizerBinding::for_corpus(&corpus);
//! let utterance = binding.bind(&corpus.split(Split::TestClean)[0]);
//!
//! let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
//! let transcript = target.greedy_transcript(&utterance);
//! assert!(!transcript.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod backend;
pub mod binding;
pub mod ctc;
pub(crate) mod hashing;
pub mod latency;
pub mod logits;
pub mod probes;
pub mod profiles;
pub mod rpc;
pub mod simulated;
pub mod text_task;
pub mod traits;
pub mod wire;

pub use backend::{
    AsrBackend, BackendBatch, BackendCounters, Completions, DeviceEvent, DeviceTimeline,
    ForwardRequest, ForwardResult, InFlightSimBackend, Ticket, TicketRange,
};
pub use binding::{TokenizerBinding, UtteranceTokens};
pub use ctc::CtcDrafter;
pub use hashing::splitmix64;
pub use latency::{DecodeClock, LatencyBreakdown, LatencyModel};
pub use logits::TokenLogits;
pub use probes::{ProbeSlice, Probes};
pub use profiles::{AccuracyProfile, ModelProfile, ModelRole, ModelScale};
pub use rpc::RpcBackend;
pub use simulated::SimulatedAsrModel;
pub use text_task::TextTaskModel;
pub use traits::AsrDecoderModel;
