//! Chunked audio arrival: the timing side of streaming ASR.
//!
//! Streaming ASR receives audio while the speaker is still talking.  This
//! module models that arrival process deterministically:
//!
//! * [`ChunkConfig`] — chunk duration plus a seeded arrival jitter (network
//!   and capture pipelines never deliver chunks exactly on the beat),
//! * [`chunk_schedule`] — the timed chunk plan of one utterance.
//!
//! The serving layers consume each chunk's arrival offset and audio horizon:
//! the scheduler charges [`crate::EncoderProfile::incremental_latency_ms`]
//! per chunk and re-decodes the audio heard so far.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How an utterance's audio is cut into streamed chunks.
///
/// # Example
///
/// ```
/// use specasr_audio::{chunk_schedule, ChunkConfig};
///
/// let config = ChunkConfig::default().with_chunk_seconds(0.5);
/// let mut chunks = Vec::new();
/// chunk_schedule(2.2, &config, &mut chunks);
/// assert_eq!(chunks.len(), 5);
/// assert!((chunks.last().unwrap().end_seconds - 2.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkConfig {
    /// Audio seconds per chunk (the last chunk may be shorter).
    pub chunk_seconds: f64,
    /// Arrival jitter as a fraction of the chunk duration: each chunk lands
    /// up to `arrival_jitter × chunk_seconds` late, drawn from a seeded
    /// generator.  `0.0` delivers every chunk exactly when its audio ends.
    pub arrival_jitter: f64,
    /// Seed of the jitter stream: equal seeds give equal arrival times.  The
    /// serving scheduler mixes each request's utterance and request ids into
    /// it, so concurrent streams jitter independently.
    pub seed: u64,
}

impl ChunkConfig {
    /// Returns this configuration with a different chunk duration.
    pub fn with_chunk_seconds(mut self, chunk_seconds: f64) -> Self {
        self.chunk_seconds = chunk_seconds;
        self
    }

    /// Returns this configuration with a different arrival jitter fraction.
    pub fn with_arrival_jitter(mut self, arrival_jitter: f64) -> Self {
        self.arrival_jitter = arrival_jitter;
        self
    }

    /// Returns this configuration with a different jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the chunk duration is not finite and positive, or the
    /// jitter fraction is not finite and non-negative.
    pub fn validate(&self) {
        assert!(
            self.chunk_seconds.is_finite() && self.chunk_seconds > 0.0,
            "chunk_seconds must be finite and positive"
        );
        assert!(
            self.arrival_jitter.is_finite() && self.arrival_jitter >= 0.0,
            "arrival_jitter must be finite and non-negative"
        );
    }
}

impl Default for ChunkConfig {
    fn default() -> Self {
        ChunkConfig {
            chunk_seconds: 0.5,
            arrival_jitter: 0.2,
            seed: 0,
        }
    }
}

/// One timed chunk of a streamed utterance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamChunk {
    /// Position of the chunk in the stream (0-based).
    pub index: usize,
    /// Audio-time start of the chunk in seconds.
    pub start_seconds: f64,
    /// Audio-time end of the chunk in seconds — the audio horizon once this
    /// chunk has arrived.
    pub end_seconds: f64,
    /// Milliseconds after stream start at which this chunk arrives (its
    /// audio end plus jitter; non-decreasing across the stream).
    pub arrival_offset_ms: f64,
}

impl StreamChunk {
    /// Audio seconds this chunk carries.
    pub fn duration_seconds(&self) -> f64 {
        self.end_seconds - self.start_seconds
    }
}

/// Fills `chunks` with the timed chunk plan for `duration_seconds` of audio:
/// chunks of `config.chunk_seconds`, the last one ending exactly at
/// `duration_seconds`, each arriving when its audio has been spoken plus a
/// seeded jitter, with arrival times forced non-decreasing.  Whatever
/// `chunks` held before is replaced, and its buffer is kept, so a caller
/// that plans every stream into one kept buffer stops allocating once it
/// has held the longest plan.
///
/// # Panics
///
/// Panics if `config` is invalid or `duration_seconds` is not finite and
/// positive.
pub fn chunk_schedule(duration_seconds: f64, config: &ChunkConfig, chunks: &mut Vec<StreamChunk>) {
    config.validate();
    assert!(
        duration_seconds.is_finite() && duration_seconds > 0.0,
        "duration_seconds must be finite and positive"
    );
    let mut count = (duration_seconds / config.chunk_seconds).ceil().max(1.0) as usize;
    // A last chunk this short is rounding error, not audio: `4.9 / 0.7` is
    // 7.000000000000001, and its eighth chunk would carry 8.9e-16 s.
    if count > 1
        && duration_seconds - (count - 1) as f64 * config.chunk_seconds
            < MIN_CHUNK_FRACTION * config.chunk_seconds
    {
        count -= 1;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ STREAM_JITTER_SEED);
    chunks.clear();
    chunks.reserve(count);
    let mut previous_arrival = 0.0f64;
    for index in 0..count {
        let start_seconds = index as f64 * config.chunk_seconds;
        let end_seconds = if index + 1 == count {
            duration_seconds
        } else {
            (index + 1) as f64 * config.chunk_seconds
        };
        let jitter_ms: f64 =
            rng.gen::<f64>() * config.arrival_jitter * config.chunk_seconds * 1_000.0;
        let arrival_offset_ms = (end_seconds * 1_000.0 + jitter_ms).max(previous_arrival);
        previous_arrival = arrival_offset_ms;
        chunks.push(StreamChunk {
            index,
            start_seconds,
            end_seconds,
            arrival_offset_ms,
        });
    }
}

/// The shortest chunk [`chunk_schedule`] emits, as a fraction of
/// `chunk_seconds`.
const MIN_CHUNK_FRACTION: f64 = 1e-9;

/// Seed offset that decorrelates chunk-arrival jitter from the other seeded
/// streams (corpus text and difficulty).
const STREAM_JITTER_SEED: u64 = 0x57ea_4dc4_a2b0_0137;

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunk plan of `duration_seconds` in a new buffer.
    fn plan(duration_seconds: f64, config: &ChunkConfig) -> Vec<StreamChunk> {
        let mut chunks = Vec::new();
        chunk_schedule(duration_seconds, config, &mut chunks);
        chunks
    }

    #[test]
    fn schedules_partition_the_audio_exactly() {
        for (duration, chunk_s, count) in [
            (2.0, 0.5, 4),
            (2.3, 0.5, 5),
            (0.3, 0.5, 1),
            (7.7, 1.0, 8),
            (4.9, 0.7, 7),
            (3.87, 0.03, 129),
        ] {
            let chunks = plan(
                duration,
                &ChunkConfig::default().with_chunk_seconds(chunk_s),
            );
            assert_eq!(chunks.len(), count, "{duration} s in {chunk_s} s chunks");
            assert_eq!(chunks[0].start_seconds, 0.0);
            assert_eq!(chunks[count - 1].end_seconds, duration);
            for pair in chunks.windows(2) {
                assert!((pair[0].end_seconds - pair[1].start_seconds).abs() < 1e-12);
                assert!(pair[1].arrival_offset_ms >= pair[0].arrival_offset_ms);
            }
            for chunk in &chunks {
                assert!(chunk.arrival_offset_ms >= chunk.end_seconds * 1_000.0);
                assert!(chunk.duration_seconds() >= MIN_CHUNK_FRACTION * chunk_s);
            }
        }
    }

    #[test]
    fn zero_jitter_delivers_chunks_exactly_on_the_audio_beat() {
        let config = ChunkConfig::default().with_arrival_jitter(0.0);
        for chunk in plan(3.0, &config) {
            assert!((chunk.arrival_offset_ms - chunk.end_seconds * 1_000.0).abs() < 1e-12);
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let config = ChunkConfig::default().with_arrival_jitter(0.5).with_seed(9);
        let a = plan(4.0, &config);
        // Planned into a buffer that held a longer plan of another seed.
        let mut b = plan(9.0, &config.with_seed(3));
        chunk_schedule(4.0, &config, &mut b);
        assert_eq!(a, b);
        let other = plan(4.0, &config.with_seed(10));
        assert_ne!(a, other);
        for chunk in &a {
            let late_ms = chunk.arrival_offset_ms - chunk.end_seconds * 1_000.0;
            assert!((0.0..=0.5 * config.chunk_seconds * 1_000.0 + 1e-9).contains(&late_ms));
        }
    }

    #[test]
    #[should_panic(expected = "chunk_seconds")]
    fn zero_chunk_duration_panics() {
        plan(1.0, &ChunkConfig::default().with_chunk_seconds(0.0));
    }

    #[test]
    #[should_panic(expected = "duration_seconds")]
    fn zero_duration_panics() {
        plan(0.0, &ChunkConfig::default());
    }
}
