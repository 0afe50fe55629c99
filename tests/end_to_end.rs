//! End-to-end pipeline tests: corpus generation → tokenisation → encoder
//! cost → decoding → WER, spanning every crate in the workspace.

use specasr::{AdaptiveConfig, Policy};
use specasr_audio::{EncoderProfile, Split};
use specasr_metrics::{wer_between, WerMeasurement};
use specasr_models::{AsrDecoderModel, ModelProfile, ModelScale, SimulatedAsrModel};
use specasr_suite::prelude::AsrPipeline;
use specasr_suite::StandardSetup;

#[test]
fn wer_decreases_with_model_scale() {
    // Fig. 5a: larger ASR models have lower WER on every split.
    let setup = StandardSetup::new(78, 12);
    let mut previous_wer = f64::INFINITY;
    for scale in ModelScale::ALL {
        let model = SimulatedAsrModel::target(ModelProfile::for_scale(scale), 3);
        let mut wer = WerMeasurement::default();
        for utterance in setup.corpus.split(Split::TestOther) {
            let audio = setup.binding.bind(utterance);
            let hypothesis = setup
                .binding
                .tokenizer()
                .decode(&model.greedy_transcript(&audio))
                .expect("decode");
            wer.accumulate(&wer_between(utterance.transcript(), &hypothesis));
        }
        assert!(
            wer.wer() <= previous_wer + 0.01,
            "{:?} WER {:.3} should not exceed the next smaller scale ({:.3})",
            scale,
            wer.wer(),
            previous_wer
        );
        previous_wer = wer.wer();
    }
}

#[test]
fn clean_splits_have_lower_wer_than_noisy_splits() {
    let setup = StandardSetup::new(79, 12);
    let model = &setup.target;
    let mut split_wer = Vec::new();
    for split in [Split::TestClean, Split::TestOther] {
        let mut wer = WerMeasurement::default();
        for utterance in setup.corpus.split(split) {
            let audio = setup.binding.bind(utterance);
            let hypothesis = setup
                .binding
                .tokenizer()
                .decode(&model.greedy_transcript(&audio))
                .expect("decode");
            wer.accumulate(&wer_between(utterance.transcript(), &hypothesis));
        }
        split_wer.push(wer.wer());
    }
    assert!(split_wer[0] < split_wer[1]);
}

#[test]
fn pipeline_output_is_identical_across_policies_and_faster_with_specasr() {
    let setup = StandardSetup::new(80, 3);
    let baseline = AsrPipeline::new(
        setup.draft.clone(),
        setup.target.clone(),
        EncoderProfile::whisper_medium_encoder(),
        Policy::Autoregressive,
    );
    let accelerated = baseline
        .clone()
        .with_policy(Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()));
    for utterance in setup.corpus.split(Split::DevOther) {
        let slow = baseline.transcribe(&setup.binding, utterance);
        let fast = accelerated.transcribe(&setup.binding, utterance);
        assert_eq!(slow.text, fast.text);
        assert!(fast.total_ms() < slow.total_ms());
        assert!(fast.real_time_factor() < slow.real_time_factor());
        // Both include the (identical) encoder cost.
        assert!((fast.encoder_ms - slow.encoder_ms).abs() < 1e-9);
    }
}

#[test]
fn encoder_latency_is_a_small_fraction_of_autoregressive_decoding() {
    // Fig. 1b: the LLM decoder dominates end-to-end latency.
    let setup = StandardSetup::new(81, 3);
    let pipeline = AsrPipeline::new(
        setup.draft.clone(),
        setup.target.clone(),
        EncoderProfile::whisper_medium_encoder(),
        Policy::Autoregressive,
    );
    for utterance in setup.corpus.split(Split::TestClean) {
        let output = pipeline.transcribe(&setup.binding, utterance);
        assert!(
            output.encoder_ms < 0.3 * output.outcome.decode_ms(),
            "encoder ({:.1} ms) should be a small fraction of decoding ({:.1} ms)",
            output.encoder_ms,
            output.outcome.decode_ms()
        );
    }
}
