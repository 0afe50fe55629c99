//! The decoder-model abstraction every decoding policy is written against.

use specasr_tokenizer::TokenId;

use crate::binding::UtteranceTokens;
use crate::logits::TokenLogits;
use crate::profiles::ModelProfile;

/// A (possibly simulated) autoregressive ASR decoder model.
///
/// Implementations must be **pure**: calling [`AsrDecoderModel::next_logits`]
/// twice with the same audio context and prefix must return the same
/// distribution.  This mirrors a KV-cached transformer, lets the decoding
/// policies re-query positions freely (draft recycling does), and makes every
/// experiment reproducible.
///
/// The `prefix` passed to [`AsrDecoderModel::next_logits`] contains only the
/// *generated* tokens (no BOS, no audio embeddings); the audio context is the
/// `audio` argument.
pub trait AsrDecoderModel: Send + Sync {
    /// The profile (name, size, accuracy, latency) of this model.
    fn profile(&self) -> &ModelProfile;

    /// Next-token distribution given the audio context and the generated
    /// prefix.
    fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits;

    /// Greedy (top-1) next token; falls back to EOS on an empty distribution.
    fn greedy_token(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenId {
        self.next_logits(audio, prefix).greedy_or(audio.eos())
    }

    /// The model's full greedy transcription of `audio` (EOS excluded).
    ///
    /// Decoding is capped at `2 × reference length + 16` tokens as a safety
    /// net against non-terminating simulations.
    fn greedy_transcript(&self, audio: &UtteranceTokens) -> Vec<TokenId> {
        let cap = audio.len() * 2 + 16;
        let mut output = Vec::with_capacity(audio.len() + 1);
        while output.len() < cap {
            let token = self.greedy_token(audio, &output);
            if token == audio.eos() {
                break;
            }
            output.push(token);
        }
        output
    }
}

/// Blanket implementation so `&M`, `Box<M>`, and `Arc<M>` can be used where a
/// model is expected.
impl<M: AsrDecoderModel + ?Sized> AsrDecoderModel for &M {
    fn profile(&self) -> &ModelProfile {
        (**self).profile()
    }

    fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
        (**self).next_logits(audio, prefix)
    }
}

impl<M: AsrDecoderModel + ?Sized> AsrDecoderModel for std::sync::Arc<M> {
    fn profile(&self) -> &ModelProfile {
        (**self).profile()
    }

    fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
        (**self).next_logits(audio, prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr_audio::UtteranceId;

    /// A toy model that always copies the reference token at the current
    /// position, used to exercise the default trait methods.
    struct EchoModel {
        profile: ModelProfile,
    }

    impl AsrDecoderModel for EchoModel {
        fn profile(&self) -> &ModelProfile {
            &self.profile
        }

        fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
            TokenLogits::certain(audio.reference_at(prefix.len()), 0.95)
        }
    }

    fn toy_audio() -> UtteranceTokens {
        UtteranceTokens::new(
            UtteranceId::new(1),
            vec![TokenId::new(10), TokenId::new(11), TokenId::new(12)],
            vec![0.1, 0.2, 0.3],
            TokenId::new(1),
            TokenId::new(0),
            64,
            2.0,
        )
    }

    #[test]
    fn greedy_transcript_reproduces_the_reference() {
        let model = EchoModel {
            profile: ModelProfile::whisper_tiny_en(),
        };
        let audio = toy_audio();
        assert_eq!(model.greedy_transcript(&audio), audio.reference_tokens());
    }

    #[test]
    fn greedy_token_follows_top1() {
        let model = EchoModel {
            profile: ModelProfile::whisper_tiny_en(),
        };
        let audio = toy_audio();
        assert_eq!(model.greedy_token(&audio, &[]), TokenId::new(10));
        assert_eq!(
            model.greedy_token(&audio, &[TokenId::new(10), TokenId::new(11)]),
            TokenId::new(12)
        );
        // Past the reference end the echo model emits EOS.
        assert_eq!(
            model.greedy_token(&audio, audio.reference_tokens()),
            audio.eos()
        );
    }

    #[test]
    fn references_and_arcs_are_models_too() {
        fn transcribe<M: AsrDecoderModel>(model: M, audio: &UtteranceTokens) -> Vec<TokenId> {
            model.greedy_transcript(audio)
        }
        let model = EchoModel {
            profile: ModelProfile::whisper_tiny_en(),
        };
        let audio = toy_audio();
        let by_ref = transcribe(&model, &audio);
        let by_arc = transcribe(std::sync::Arc::new(model), &audio);
        assert_eq!(by_ref, by_arc);
    }
}
