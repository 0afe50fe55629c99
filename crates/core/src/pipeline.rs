//! The end-to-end ASR pipeline: audio encoder + LLM decoder under a policy.
//!
//! This is the convenience layer the examples use: it owns a draft/target
//! model pair, an audio-encoder cost profile, and a decoding [`Policy`], and
//! turns an [`specasr_audio::Utterance`] into transcript text together with
//! full latency accounting (encoder + decoder) and a real-time factor.

use specasr_audio::{EncoderProfile, Utterance};
use specasr_models::{AsrDecoderModel, LatencyBreakdown, TokenizerBinding};

use crate::outcome::DecodeOutcome;
use crate::policy::Policy;

/// End-to-end transcription result.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutput {
    /// The decoded transcript text.
    pub text: String,
    /// The decoding outcome (tokens, statistics, decoder latency).
    pub outcome: DecodeOutcome,
    /// Simulated audio-encoder latency in milliseconds.
    pub encoder_ms: f64,
    /// Duration of the input audio in seconds.
    pub audio_seconds: f64,
}

impl PipelineOutput {
    /// Total simulated latency: encoder plus decoder.
    pub fn total_ms(&self) -> f64 {
        self.encoder_ms + self.outcome.decode_ms()
    }

    /// The end-to-end latency breakdown.
    pub fn latency(&self) -> LatencyBreakdown {
        let mut breakdown = self.outcome.latency();
        breakdown.encoder_ms += self.encoder_ms;
        breakdown
    }

    /// Real-time factor: simulated processing time divided by audio duration
    /// (below 1.0 means faster than real time).
    pub fn real_time_factor(&self) -> f64 {
        if self.audio_seconds <= 0.0 {
            return 0.0;
        }
        (self.total_ms() / 1000.0) / self.audio_seconds
    }
}

/// An end-to-end LLM-based ASR pipeline under a decoding policy.
///
/// # Example
///
/// ```
/// use specasr::{AsrPipeline, Policy, SparseTreeConfig};
/// use specasr_audio::{Corpus, EncoderProfile, Split};
/// use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
///
/// let corpus = Corpus::librispeech_like(3, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
/// let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
///
/// let pipeline = AsrPipeline::new(
///     draft,
///     target,
///     EncoderProfile::whisper_medium_encoder(),
///     Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
/// );
/// let output = pipeline.transcribe(&binding, &corpus.split(Split::TestClean)[0]);
/// assert!(!output.text.is_empty());
/// assert!(output.total_ms() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AsrPipeline<D, T> {
    draft: D,
    target: T,
    encoder: EncoderProfile,
    policy: Policy,
}

impl<D, T> AsrPipeline<D, T>
where
    D: AsrDecoderModel,
    T: AsrDecoderModel,
{
    /// Creates a pipeline from a draft/target pair, an encoder profile, and a
    /// decoding policy.
    pub fn new(draft: D, target: T, encoder: EncoderProfile, policy: Policy) -> Self {
        AsrPipeline {
            draft,
            target,
            encoder,
            policy,
        }
    }

    /// The decoding policy in use.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Replaces the decoding policy (useful when comparing policies on the
    /// same models).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Transcribes one utterance end to end.
    pub fn transcribe(&self, binding: &TokenizerBinding, utterance: &Utterance) -> PipelineOutput {
        let audio = binding.bind(utterance);
        let outcome = self.policy.decode(&self.draft, &self.target, &audio);
        let text = binding
            .tokenizer()
            .decode(&outcome.tokens)
            .expect("decoded tokens always come from the shared vocabulary");
        PipelineOutput {
            text,
            outcome,
            encoder_ms: self
                .encoder
                .latency_ms_for_audio(utterance.duration_seconds()),
            audio_seconds: utterance.duration_seconds(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaptiveConfig;
    use specasr_audio::{Corpus, Split};
    use specasr_metrics::wer_between;
    use specasr_models::{ModelProfile, SimulatedAsrModel};

    fn pipeline(
        policy: Policy,
    ) -> (
        AsrPipeline<SimulatedAsrModel, SimulatedAsrModel>,
        Corpus,
        TokenizerBinding,
    ) {
        let corpus = Corpus::librispeech_like(47, 4);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (
            AsrPipeline::new(
                draft,
                target,
                EncoderProfile::whisper_medium_encoder(),
                policy,
            ),
            corpus,
            binding,
        )
    }

    #[test]
    fn transcription_text_is_close_to_the_reference() {
        let (pipeline, corpus, binding) = pipeline(Policy::Autoregressive);
        let mut total = specasr_metrics::WerMeasurement::default();
        for utt in corpus.split(Split::TestClean) {
            let output = pipeline.transcribe(&binding, utt);
            total.accumulate(&wer_between(utt.transcript(), &output.text));
        }
        assert!(
            total.wer() < 0.15,
            "target-model WER on clean speech should be low, got {:.3}",
            total.wer()
        );
    }

    #[test]
    fn accelerated_policies_keep_the_same_text() {
        let (ar_pipeline, corpus, binding) = pipeline(Policy::Autoregressive);
        let accelerated = pipeline(Policy::AdaptiveSingleSequence(AdaptiveConfig::paper())).0;
        for utt in corpus.split(Split::DevOther).iter().take(3) {
            let reference = ar_pipeline.transcribe(&binding, utt);
            let fast = accelerated.transcribe(&binding, utt);
            assert_eq!(reference.text, fast.text);
            assert!(fast.total_ms() < reference.total_ms());
        }
    }

    #[test]
    fn latency_and_rtf_account_for_the_encoder() {
        let (pipeline, corpus, binding) = pipeline(Policy::Autoregressive);
        let utt = &corpus.split(Split::TestClean)[0];
        let output = pipeline.transcribe(&binding, utt);
        assert!(output.encoder_ms > 0.0);
        assert!(output.total_ms() > output.outcome.decode_ms());
        assert!(output.real_time_factor() > 0.0);
        assert!((output.latency().encoder_ms - output.encoder_ms).abs() < 1e-9);
    }
}
