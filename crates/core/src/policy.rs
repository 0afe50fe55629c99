//! The [`Policy`] enum: a named decoding configuration that the benchmark
//! harness can sweep over, plus the qualitative feature matrix of Tab. I.
//!
//! A policy answers one question — *how is the next round drafted and
//! verified?* — and is deliberately small: four variants covering the
//! paper's baselines (target-only autoregressive decoding and fixed-length
//! speculative decoding with one or more beams) and its two contributions
//! (adaptive single-sequence prediction and two-pass sparse-tree
//! prediction).  Everything else in the stack is policy-agnostic and
//! receives the policy as data:
//!
//! - [`Policy::decode`] runs a one-shot blocking decode by driving a
//!   [`crate::DecodeSession`] to completion — the offline path used by the
//!   figure binaries and as the byte-identical reference in tests.
//! - The serving scheduler carries the policy inside each queued request and
//!   steps the same session type round by round, interleaved across a batch.
//! - The draft phase of a round is produced by a [`crate::Drafter`]; the
//!   policy only fixes the draft *budget* and the verification shape
//!   (sequence vs tree), so model-based and draft-free drafters slot in
//!   without the policy knowing.
//!
//! Policies serialize (they appear in benchmark JSON records) and carry the
//! paper-exact configurations via [`SpeculativeConfig`], [`AdaptiveConfig`],
//! and [`SparseTreeConfig`] constructors such as
//! [`AdaptiveConfig::paper`].

use serde::{Deserialize, Serialize};
use specasr_models::{AsrDecoderModel, UtteranceTokens};
use specasr_runtime::KvPool;

use crate::config::{AdaptiveConfig, SparseTreeConfig, SpeculativeConfig};
use crate::drafter::DrafterKind;
use crate::outcome::DecodeOutcome;
use crate::session::DecodeSession;

/// A fully specified decoding policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Target-only autoregressive decoding.
    Autoregressive,
    /// Baseline speculative decoding with `(prediction_length, beams)`.
    Speculative(SpeculativeConfig),
    /// SpecASR adaptive single-sequence prediction (+ optional recycling).
    AdaptiveSingleSequence(AdaptiveConfig),
    /// SpecASR two-pass sparse-tree prediction.
    TwoPassSparseTree(SparseTreeConfig),
}

impl Policy {
    /// A short, stable name for figures and JSON records.
    pub fn name(&self) -> String {
        match self {
            Policy::Autoregressive => "autoregressive".to_owned(),
            Policy::Speculative(config) => format!("speculative {}", config.label()),
            Policy::AdaptiveSingleSequence(config) => {
                if config.recycling {
                    "specasr-asp+recycle".to_owned()
                } else {
                    "specasr-asp".to_owned()
                }
            }
            Policy::TwoPassSparseTree(_) => "specasr-tsp".to_owned(),
        }
    }

    /// Decodes `audio` with this policy.  The autoregressive policy ignores
    /// the draft model.
    ///
    /// Runs a [`crate::DecodeSession`] for this policy to completion over a
    /// private unbounded [`KvPool`], so blocking decodes and
    /// round-interleaved (scheduled) decodes share one code path.  Position
    /// bookkeeping does not depend on the paging granularity, so the block
    /// size (16, the serving default) never changes an outcome.
    pub fn decode<D, T>(&self, draft: &D, target: &T, audio: &UtteranceTokens) -> DecodeOutcome
    where
        D: AsrDecoderModel + ?Sized,
        T: AsrDecoderModel + ?Sized,
    {
        let mut pool = KvPool::unbounded(16);
        let mut session = DecodeSession::new(
            *self,
            DrafterKind::ModelDraft,
            audio.clone(),
            &[],
            &mut pool,
        )
        .expect("an unbounded pool always admits");
        while !session
            .step(&mut pool, draft, target)
            .expect("an unbounded pool never exhausts")
        {}
        session.into_outcome()
    }

    /// The baselines used throughout the paper's evaluation: autoregressive
    /// decoding plus the three speculative `(length, beams)` configurations.
    pub fn paper_baselines() -> Vec<Policy> {
        vec![
            Policy::Autoregressive,
            Policy::Speculative(SpeculativeConfig::short_single()),
            Policy::Speculative(SpeculativeConfig::long_single()),
            Policy::Speculative(SpeculativeConfig::short_double_beam()),
        ]
    }

    /// The two SpecASR policies evaluated in Fig. 11.
    pub fn specasr_policies() -> Vec<Policy> {
        vec![
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        ]
    }

    /// The qualitative comparison of Tab. I, one row per speculative-decoding
    /// family.
    pub fn feature_matrix() -> Vec<FeatureRow> {
        vec![
            FeatureRow {
                method: "single sequence",
                draft_generation_efficiency: Rating::High,
                target_verification_efficiency: Rating::Low,
                draft_sequence_length: Rating::Medium,
                target_accept_rate: Rating::Low,
                flexibility: Rating::Medium,
            },
            FeatureRow {
                method: "fixed tree",
                draft_generation_efficiency: Rating::Low,
                target_verification_efficiency: Rating::High,
                draft_sequence_length: Rating::Low,
                target_accept_rate: Rating::Medium,
                flexibility: Rating::Low,
            },
            FeatureRow {
                method: "dynamic tree",
                draft_generation_efficiency: Rating::Low,
                target_verification_efficiency: Rating::High,
                draft_sequence_length: Rating::Low,
                target_accept_rate: Rating::High,
                flexibility: Rating::High,
            },
            FeatureRow {
                method: "specasr (ours)",
                draft_generation_efficiency: Rating::High,
                target_verification_efficiency: Rating::High,
                draft_sequence_length: Rating::High,
                target_accept_rate: Rating::High,
                flexibility: Rating::High,
            },
        ]
    }
}

/// Qualitative rating used by the Tab. I comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rating {
    /// Weak on this axis.
    Low,
    /// Average on this axis.
    Medium,
    /// Strong on this axis.
    High,
}

impl Rating {
    /// Numeric value (1–3) used when the matrix is printed as a table.
    pub fn score(self) -> f64 {
        match self {
            Rating::Low => 1.0,
            Rating::Medium => 2.0,
            Rating::High => 3.0,
        }
    }
}

/// One row of the Tab. I feature matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureRow {
    /// Speculative-decoding family.
    pub method: &'static str,
    /// How cheap draft generation is.
    pub draft_generation_efficiency: Rating,
    /// How cheap target verification is.
    pub target_verification_efficiency: Rating,
    /// How long the draft sequences are.
    pub draft_sequence_length: Rating,
    /// How often the target accepts the draft.
    pub target_accept_rate: Rating,
    /// How well the method adapts across models/tasks.
    pub flexibility: Rating,
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};

    #[test]
    fn policy_names_are_distinct() {
        let mut names: Vec<String> = Policy::paper_baselines()
            .into_iter()
            .chain(Policy::specasr_policies())
            .map(|p| p.name())
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_policy_decodes_losslessly() {
        let corpus = Corpus::librispeech_like(43, 2);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(Split::DevClean));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        for policy in Policy::paper_baselines()
            .into_iter()
            .chain(Policy::specasr_policies())
        {
            for utt in &audio {
                assert_eq!(
                    policy.decode(&draft, &target, utt).tokens,
                    target.greedy_transcript(utt),
                    "policy {} is not lossless",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn feature_matrix_matches_table_one() {
        let matrix = Policy::feature_matrix();
        assert_eq!(matrix.len(), 4);
        let ours = matrix.last().expect("non-empty");
        assert_eq!(ours.method, "specasr (ours)");
        assert_eq!(ours.draft_generation_efficiency, Rating::High);
        assert_eq!(ours.target_verification_efficiency, Rating::High);
        assert!(Rating::High.score() > Rating::Low.score());
    }
}
