//! The audio encoder's cost model, used by the Fig. 1 reproduction and
//! charged by the serving scheduler.
//!
//! In an LLM-based ASR system the audio encoder (Conformer / Whisper encoder)
//! turns the utterance into embeddings that are prefilled ahead of the text
//! prompt.  SpecASR accelerates the decoder and treats the encoder as a cost
//! that grows with audio length, so that is all this module models: an
//! [`EncoderProfile`] gives the encoder's latency for a whole utterance or
//! for one streamed chunk.  How many embedding positions the encoder hands
//! the decoder is fixed by the decoder side
//! (`specasr_models::AUDIO_EMBEDDINGS_PER_SECOND`).

use serde::{Deserialize, Serialize};

/// Cost profile of an audio encoder: parameter count and per-second-of-audio
/// compute latency.
///
/// # Example
///
/// ```
/// use specasr_audio::EncoderProfile;
///
/// let whisper = EncoderProfile::whisper_medium_encoder();
/// assert!(whisper.parameters() < 1_000_000_000);
/// assert!(whisper.latency_ms_for_audio(10.0) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncoderProfile {
    name: String,
    parameters: u64,
    latency_ms_per_audio_second: f64,
    fixed_overhead_ms: f64,
}

impl EncoderProfile {
    /// Creates a custom encoder profile.
    ///
    /// # Panics
    ///
    /// Panics if the latency coefficient is negative.
    pub fn new(
        name: impl Into<String>,
        parameters: u64,
        latency_ms_per_audio_second: f64,
        fixed_overhead_ms: f64,
    ) -> Self {
        assert!(latency_ms_per_audio_second >= 0.0 && fixed_overhead_ms >= 0.0);
        EncoderProfile {
            name: name.into(),
            parameters,
            latency_ms_per_audio_second,
            fixed_overhead_ms,
        }
    }

    /// Whisper medium.en encoder (≈ 300 M parameters).
    pub fn whisper_medium_encoder() -> Self {
        EncoderProfile::new("whisper-medium.en-encoder", 307_000_000, 3.2, 2.5)
    }

    /// A Conformer-style encoder of the size used by BESTOW-class models
    /// (≈ 110 M parameters).
    pub fn conformer_large() -> Self {
        EncoderProfile::new("conformer-large-encoder", 110_000_000, 1.8, 1.5)
    }

    /// Human-readable profile name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter count.
    pub fn parameters(&self) -> u64 {
        self.parameters
    }

    /// Encoder latency (ms) for `audio_seconds` of input audio.
    pub fn latency_ms_for_audio(&self, audio_seconds: f64) -> f64 {
        self.fixed_overhead_ms + self.latency_ms_per_audio_second * audio_seconds.max(0.0)
    }

    /// Encoder latency (ms) for extending the encoder state by one streaming
    /// chunk of `chunk_audio_seconds`: the per-second compute is paid for the
    /// new audio only, and the fixed pipeline overhead is paid once, on the
    /// first chunk.  Summed over a stream's chunks this equals
    /// [`EncoderProfile::latency_ms_for_audio`] of the full utterance — the
    /// incremental path re-encodes nothing.
    pub fn incremental_latency_ms(&self, chunk_audio_seconds: f64, first_chunk: bool) -> f64 {
        let overhead = if first_chunk {
            self.fixed_overhead_ms
        } else {
            0.0
        };
        overhead + self.latency_ms_per_audio_second * chunk_audio_seconds.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_profiles_are_ordered_by_size() {
        let conformer = EncoderProfile::conformer_large();
        let medium = EncoderProfile::whisper_medium_encoder();
        assert!(conformer.parameters() < medium.parameters());
        assert!(conformer.latency_ms_for_audio(10.0) < medium.latency_ms_for_audio(10.0));
    }

    #[test]
    fn incremental_latency_sums_to_the_offline_latency() {
        let profile = EncoderProfile::whisper_medium_encoder();
        let chunks = [0.5, 0.5, 0.5, 0.3];
        let total: f64 = chunks
            .iter()
            .enumerate()
            .map(|(i, &chunk)| profile.incremental_latency_ms(chunk, i == 0))
            .sum();
        let offline = profile.latency_ms_for_audio(chunks.iter().sum());
        assert!((total - offline).abs() < 1e-9);
        assert!(
            profile.incremental_latency_ms(0.5, true) > profile.incremental_latency_ms(0.5, false)
        );
    }
}
