//! `specasr-stream`: incremental speculative decoding over chunked audio.
//!
//! Offline decoding sees the whole utterance at submit time; streaming ASR —
//! the deployment setting that makes draft-based acceleration worth building
//! — must emit stable partial transcripts while the speaker is still
//! talking.  This crate adds that layer on top of the round-steppable
//! [`specasr::DecodeSession`]:
//!
//! ```text
//! audio chunks ──► horizon grows ──► prefix view of the utterance
//!                                      │  (specasr_models::UtteranceTokens::prefix_view:
//!                                      │   truncated reference, boundary-boosted
//!                                      ▼   difficulty near the chunk horizon)
//!                 re-decode from the committed prefix, the first round
//!                 recycling the last partial's unstable tail
//!                 (a served stream's DecodeSession::restart(.., committed,
//!                  tail, pool), or DecodeSession::new(.., committed, pool))
//!                                      │
//!                                      ▼
//!                          partial hypothesis ──► commit rule ──► committed tokens
//! ```
//!
//! # The commit rule, and why it is lossless
//!
//! A hypothesis token is **committed** once
//!
//! 1. it is at least `boundary_tokens` behind the audio horizon (the
//!    *horizon rule*), **and**
//! 2. it has survived `stability_rounds` consecutive re-decodes unchanged
//!    (the *K-stability rule*).
//!
//! For the audio-conditioned models of this reproduction the horizon rule is
//! *sound*, not just heuristic: an emission at position `p` depends only on
//! the audio and `p`, and a position further than `boundary_tokens` behind
//! the horizon carries its final acoustic difficulty in every later view —
//! so its emission can never change again as more audio lands.  Committed
//! tokens are therefore always a byte-identical prefix of the offline
//! transcript, and once the last chunk arrives the final re-decode *is* the
//! offline decode.  K-stability is layered on top as the defensive filter a
//! production system would keep for backends without that conditioning
//! property.
//!
//! Near the horizon, by contrast, hypotheses genuinely flicker: a word cut
//! off mid-chunk is harder to recognise, which
//! [`specasr_models::UtteranceTokens::prefix_view`] models by boosting the
//! difficulty of the last few heard tokens.  Those retractions are what the
//! partial-stability metrics measure.
//!
//! Streaming sessions own no model calls of their own: each per-chunk
//! re-decode is an ordinary [`specasr::DecodeSession`] driven by the serving
//! scheduler, so when the scheduler speaks the batched
//! [`specasr_models::AsrBackend`] API, streamed re-decodes ride the same
//! cross-session verification batches (and draft/verify overlap) as offline
//! traffic — no streaming-specific backend path exists or is needed.
//!
//! # Example
//!
//! ```
//! use specasr::{AdaptiveConfig, DecodeSession, DraftedRound, DrafterKind, Policy};
//! use specasr_audio::{chunk_schedule, Corpus, Split};
//! use specasr_models::{
//!     AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding, UtteranceTokens,
//! };
//! use specasr_runtime::KvPool;
//! use specasr_stream::{StreamConfig, StreamingSession};
//!
//! let corpus = Corpus::librispeech_like(5, 1);
//! let binding = TokenizerBinding::for_corpus(&corpus);
//! let utterance = &corpus.split(Split::TestClean)[0];
//! let audio = binding.bind(utterance);
//! let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
//! let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
//!
//! let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
//! let config = StreamConfig::default();
//! let mut session = StreamingSession::new(policy, audio.clone(), config);
//! let (mut pool, mut view, mut round) =
//!     (KvPool::unbounded(16), UtteranceTokens::default(), DraftedRound::new());
//! let mut decode = DecodeSession::idle(policy, DrafterKind::ModelDraft, view.clone());
//! let mut chunks = Vec::new();
//! chunk_schedule(utterance.duration_seconds(), &config.chunk, &mut chunks);
//! for chunk in &chunks {
//!     session.push_audio(chunk.end_seconds);
//!     if !session.fill_view(&mut view) {
//!         continue; // nothing audible yet
//!     }
//!     // Resume after the committed prefix, recycling the last unstable tail.
//!     let committed = session.committed();
//!     let tail = &session.hypothesis()[committed.len()..];
//!     decode
//!         .restart(view.clone(), committed, tail, &mut pool)
//!         .expect("an unbounded pool always admits");
//!     while !decode.step(&mut pool, &draft, &target, &mut round).expect("unbounded") {}
//!     decode.release_kv(&mut pool);
//!     let _partial = session.absorb(&decode);
//! }
//! assert!(session.is_finished());
//! // Lossless: the streamed transcript equals the offline decode.
//! assert_eq!(session.committed(), target.greedy_transcript(&audio));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod session;

pub use config::StreamConfig;
pub use session::{PartialTranscript, StreamingSession};
