//! Workspace-level conveniences for the SpecASR reproduction: a prelude that
//! re-exports the user-facing API of every crate, and a [`StandardSetup`]
//! helper that builds the corpus / tokenizer / model-pair configuration used
//! by the examples and the cross-crate integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Re-exports of the user-facing API across the workspace crates.
pub mod prelude {
    pub use specasr::{
        AdaptiveConfig, AsrPipeline, DecodeOutcome, DecodeSession, DecodeStats, Drafter,
        DrafterKind, ModelDrafter, Policy, SparseTreeConfig, SpeculativeConfig, TokenMapDrafter,
    };
    pub use specasr_audio::{Corpus, EncoderProfile, Split, Utterance};
    pub use specasr_fleet::{FleetConfig, FleetController, FleetCounters};
    pub use specasr_metrics::{wer_between, ExperimentRecord, Histogram, ReportRow};
    pub use specasr_models::{
        AsrBackend, AsrDecoderModel, BackendBatch, CtcDrafter, ForwardRequest, ForwardResult,
        InFlightSimBackend, ModelProfile, SimulatedAsrModel, SyncBackendAdapter, TokenizerBinding,
        UtteranceTokens,
    };
    pub use specasr_server::{
        run_open_loop, run_open_loop_budgeted, run_open_loop_drafted, AdmissionOrdering,
        AdmissionPolicy, BackendStats, KvPool, LoadGen, MemoryStats, OpenLoopReport, PreemptPolicy,
        RequestOutcome, Router, RouterConfig, Scheduler, ServerConfig, ServerStats, SloClass,
        Worker, WorkerId, WorkerProfile,
    };
    pub use specasr_tokenizer::{TokenId, TokenMapIndex, Tokenizer};
}

use specasr_audio::Corpus;
use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};

/// The corpus, tokenizer binding, and Whisper-family draft/target pair the
/// examples and integration tests share.
///
/// # Example
///
/// ```
/// use specasr_suite::StandardSetup;
/// use specasr_audio::Split;
///
/// let setup = StandardSetup::new(42, 4);
/// assert_eq!(setup.corpus.split(Split::TestClean).len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct StandardSetup {
    /// The synthetic LibriSpeech-like corpus.
    pub corpus: Corpus,
    /// Tokenizer trained on the corpus transcripts.
    pub binding: TokenizerBinding,
    /// Whisper tiny.en–class draft model, paired with the target.
    pub draft: SimulatedAsrModel,
    /// Whisper medium.en–class target model.
    pub target: SimulatedAsrModel,
}

impl StandardSetup {
    /// Builds the standard evaluation setup.
    pub fn new(seed: u64, utterances_per_split: usize) -> Self {
        let corpus = Corpus::librispeech_like(seed, utterances_per_split);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), seed ^ 0x71);
        let draft =
            SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), seed ^ 0x72, &target);
        StandardSetup {
            corpus,
            binding,
            draft,
            target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr_audio::Split;
    use specasr_models::AsrDecoderModel;

    #[test]
    fn standard_setup_is_deterministic_and_usable() {
        let a = StandardSetup::new(9, 2);
        let b = StandardSetup::new(9, 2);
        assert_eq!(a.corpus, b.corpus);
        let audio = a.binding.bind(&a.corpus.split(Split::DevClean)[0]);
        assert!(!a.target.greedy_transcript(&audio).is_empty());
    }
}
