//! Request identity and spec, admission errors, and the per-request outcome
//! with its serving-latency breakdown.

use serde::{Deserialize, Serialize};
use specasr::{DecodeStats, DrafterKind, Policy};
use specasr_audio::UtteranceId;
use specasr_tokenizer::TokenId;

/// What one request asks of the server: how to decode it, where its drafts
/// come from, and how soon its first output is due.  Every submit takes
/// one, and a bare [`Policy`] converts to a model-drafted request with no
/// budget.
///
/// # Example
///
/// ```
/// use specasr::{DrafterKind, Policy};
/// use specasr_server::RequestSpec;
///
/// let policy = Policy::Autoregressive;
/// let plain = RequestSpec::from(policy);
/// assert_eq!(plain.drafter, DrafterKind::ModelDraft);
/// assert_eq!(plain.ttft_budget_ms, None);
///
/// let live = RequestSpec {
///     drafter: DrafterKind::CtcEncoder,
///     ttft_budget_ms: Some(300.0),
///     ..policy.into()
/// };
/// assert_eq!(live.policy, policy);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// The decode policy.
    pub policy: Policy,
    /// The draft source.  A draft-free kind must be installed on the
    /// server before a request names it.
    pub drafter: DrafterKind,
    /// Optional time-to-first-token budget: a request still unadmitted once
    /// its queue wait exceeds it is shed with a `rejected_deadline` count,
    /// and it is the deadline
    /// [`crate::AdmissionOrdering::EarliestDeadlineFirst`] orders by.  A
    /// stream's budget covers its first partial only.
    pub ttft_budget_ms: Option<f64>,
}

impl From<Policy> for RequestSpec {
    fn from(policy: Policy) -> Self {
        RequestSpec {
            policy,
            drafter: DrafterKind::ModelDraft,
            ttft_budget_ms: None,
        }
    }
}

/// Identity of one transcription request within a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(u64);

impl RequestId {
    /// Builds an id from its raw value.
    pub const fn new(raw: u64) -> Self {
        RequestId(raw)
    }

    /// The raw id value (monotonically increasing in submission order).
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Latency-SLO class of a request, derived from its time-to-first-token
/// budget at submission: tighter budgets land in stricter classes, budgets
/// of `None` are best-effort.  The scheduler keys its per-class latency
/// histograms and deadline-shedding counters on this (see
/// [`crate::ServerStats::slo_class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SloClass {
    /// TTFT budget ≤ 500 ms (live captioning, voice UI).
    Interactive,
    /// TTFT budget ≤ 2 000 ms (conversational transcription).
    Standard,
    /// Any larger finite TTFT budget (near-line processing).
    Relaxed,
    /// No budget: batch/offline traffic, never deadline-shed.
    BestEffort,
}

impl SloClass {
    /// Every class, in strictness order.
    pub const ALL: [SloClass; 4] = [
        SloClass::Interactive,
        SloClass::Standard,
        SloClass::Relaxed,
        SloClass::BestEffort,
    ];

    /// Classifies a time-to-first-token budget.
    pub fn of_budget(ttft_budget_ms: Option<f64>) -> Self {
        match ttft_budget_ms {
            None => SloClass::BestEffort,
            Some(budget) if budget <= 500.0 => SloClass::Interactive,
            Some(budget) if budget <= 2_000.0 => SloClass::Standard,
            Some(_) => SloClass::Relaxed,
        }
    }

    /// Dense index of this class (position in [`SloClass::ALL`]).
    pub fn index(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Relaxed => 2,
            SloClass::BestEffort => 3,
        }
    }

    /// Stable lowercase name, for report rows and logs.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Relaxed => "relaxed",
            SloClass::BestEffort => "best-effort",
        }
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The wait queue is at its configured depth; retry after completions.
    QueueFull {
        /// The configured queue depth that was hit.
        queue_depth: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { queue_depth } => {
                write!(f, "wait queue is full ({queue_depth} requests)")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// The serving-latency breakdown of one completed request, all in simulated
/// milliseconds on the scheduler's wall clock.
///
/// When the scheduler runs with its flight recorder enabled
/// (`Scheduler::set_trace`), the `specasr-trace` span assembly reconstructs
/// the same components from the event stream — `RequestSpans::queue_ms`,
/// `decode_wall_ms`, and `e2e_ms` must agree with this breakdown *exactly*
/// (same clock, same clamping); the workspace `trace.rs` integration tests
/// assert the reconciliation per request.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RequestLatency {
    /// Time spent waiting for admission into the batch.
    pub queue_ms: f64,
    /// Audio-encoder time (runs on the encoder pool, concurrent with other
    /// requests' decoding; included in end-to-end latency, not in decoder
    /// wall time).
    pub encoder_ms: f64,
    /// Wall-clock time from admission to the final committed token.
    pub decode_wall_ms: f64,
    /// Time from arrival until the first transcript token was committed
    /// (includes queueing and the encoder).
    pub time_to_first_token_ms: f64,
}

impl RequestLatency {
    /// End-to-end latency: queueing + encoder + decoding wall time.
    pub fn e2e_ms(&self) -> f64 {
        self.queue_ms + self.encoder_ms + self.decode_wall_ms
    }
}

/// One partial transcript emitted while a streaming request was in flight:
/// the serving-side record of a [`specasr_stream::PartialTranscript`], with
/// its latency span on the scheduler wall clock.
///
/// A span holds its newest chunk's index and arrival, its emission, the
/// encoder time charged to it and its token counts, and nothing its place
/// in [`RequestOutcome::partials`] already says: its position there is its
/// emission order, the last span is the final partial (full audio
/// received, everything committed; the stream retires on it, so no span
/// follows), and the tokens a span newly committed are its
/// `committed_tokens` minus the previous span's.  Counts are `u32` and
/// times `f64`: 40 bytes a span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartialSpan {
    /// Index of the newest audio chunk this partial's decode had heard.
    pub chunk_index: u32,
    /// Wall time that chunk arrived at the server.
    pub chunk_arrival_ms: f64,
    /// Wall time the partial was emitted.
    pub emitted_ms: f64,
    /// Incremental encoder milliseconds charged to this partial (the chunks
    /// delivered since the previous partial).
    pub encoder_ms: f64,
    /// Total committed (never-retracted) tokens after this partial.
    pub committed_tokens: u32,
    /// Full hypothesis length (committed prefix plus unstable tail).
    pub hypothesis_tokens: u32,
    /// Uncommitted hypothesis positions that changed versus the previous
    /// partial.
    pub retracted_tokens: u32,
}

impl PartialSpan {
    /// The per-partial latency span: newest-chunk arrival → partial
    /// emission, plus the incremental encoder time the chunk cost (clamped
    /// non-negative under router clock skew, like every latency span).
    pub fn span_ms(&self) -> f64 {
        (self.emitted_ms - self.chunk_arrival_ms).max(0.0) + self.encoder_ms
    }
}

/// The decode record of one served request: its transcript tokens and its
/// round statistics, 80 bytes.
///
/// It holds no device-time clock.  A [`specasr::DecodeOutcome`]'s clock is
/// the device time of one utterance decoded alone, charging every round a
/// whole forward pass; a served request shares each verify pass with the
/// rest of its wave, which pays the pass base once for all of them, so
/// such a clock would not be this request's time.  Its time is its
/// [`RequestLatency`].  The tokens and statistics equal those of
/// [`specasr::AsrPipeline::transcribe`] for the same utterance and policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedDecode {
    /// The decoded transcript tokens (EOS excluded).
    pub tokens: Vec<TokenId>,
    /// Round and acceptance statistics; for a stream, the counters of all
    /// its per-chunk re-decodes added up.
    pub stats: DecodeStats,
}

/// Everything the server produces for one finished request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The request's identity.
    pub id: RequestId,
    /// The utterance that was transcribed.
    pub utterance_id: UtteranceId,
    /// The decoded transcript text.
    pub text: String,
    /// The decode record: transcript tokens and round statistics, with no
    /// device-time clock (see [`ServedDecode`] for why).
    pub outcome: ServedDecode,
    /// The serving-latency breakdown.
    pub latency: RequestLatency,
    /// Audio duration of the utterance in seconds.
    pub audio_seconds: f64,
    /// Times this request was preempted (evicted to free KV-pool blocks and
    /// later restored by a deterministic re-decode) before completing.
    pub preemptions: u32,
    /// The latency-SLO class the request was served under (derived from its
    /// TTFT budget at submission).
    pub slo: SloClass,
    /// Partial transcripts emitted while the request streamed, in emission
    /// order — empty for offline requests.  A span's position is its
    /// partial index, and the last span is the final partial.  For
    /// streaming requests the latency's time-to-first-token is the first
    /// partial's arrival-to-emission span.
    pub partials: Vec<PartialSpan>,
}

impl RequestOutcome {
    /// End-to-end serving latency in milliseconds.
    pub fn e2e_ms(&self) -> f64 {
        self.latency.e2e_ms()
    }

    /// Number of transcript tokens produced.
    pub fn token_count(&self) -> usize {
        self.outcome.tokens.len()
    }

    /// `true` when this request streamed its audio chunk by chunk.
    pub fn is_streaming(&self) -> bool {
        !self.partials.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_totals_add_up() {
        let latency = RequestLatency {
            queue_ms: 5.0,
            encoder_ms: 2.0,
            decode_wall_ms: 40.0,
            time_to_first_token_ms: 12.0,
        };
        assert!((latency.e2e_ms() - 47.0).abs() < 1e-12);
    }

    #[test]
    fn request_ids_order_by_submission() {
        assert!(RequestId::new(2) > RequestId::new(1));
        assert_eq!(RequestId::new(7).to_string(), "req-7");
        assert_eq!(RequestId::new(7).value(), 7);
    }

    #[test]
    fn partial_spans_clamp_skew_and_charge_the_encoder() {
        let span = PartialSpan {
            chunk_index: 2,
            chunk_arrival_ms: 100.0,
            emitted_ms: 130.0,
            encoder_ms: 4.0,
            committed_tokens: 6,
            hypothesis_tokens: 9,
            retracted_tokens: 1,
        };
        assert!((span.span_ms() - 34.0).abs() < 1e-12);
        let skewed = PartialSpan {
            chunk_arrival_ms: 200.0,
            ..span
        };
        assert!(
            (skewed.span_ms() - 4.0).abs() < 1e-12,
            "clamped at zero + encoder"
        );
    }

    #[test]
    fn slo_classes_bucket_budgets_by_strictness() {
        assert_eq!(SloClass::of_budget(None), SloClass::BestEffort);
        assert_eq!(SloClass::of_budget(Some(100.0)), SloClass::Interactive);
        assert_eq!(SloClass::of_budget(Some(500.0)), SloClass::Interactive);
        assert_eq!(SloClass::of_budget(Some(1_500.0)), SloClass::Standard);
        assert_eq!(SloClass::of_budget(Some(60_000.0)), SloClass::Relaxed);
        for (index, class) in SloClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), index);
        }
        assert_eq!(SloClass::Interactive.to_string(), "interactive");
    }

    #[test]
    fn queue_full_error_reports_the_depth() {
        let error = SubmitError::QueueFull { queue_depth: 3 };
        assert!(error.to_string().contains('3'));
    }
}
