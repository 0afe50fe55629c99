//! Per-request span assembly: folding an event stream back into timelines.
//!
//! A request's life is `queue → encoder → (draft/verify rounds)* → commit`.
//! The scheduler reports that life as an aggregate `RequestLatency`
//! breakdown; this module reconstructs the same components from the
//! flight-recorder events so traces can be cross-checked against the stats
//! the server reports — the two must agree *exactly* (same clock, same
//! clamping), and the workspace trace tests assert they do.

use std::collections::BTreeMap;

use crate::event::TraceEvent;

/// One draft/verify round of a request, anchored to the scheduler tick
/// that drafted it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSpan {
    /// Tick sequence number the round was drafted in.  A round a tick
    /// deferred is verified in a later tick, and its wave times land here
    /// too.
    pub tick: u64,
    /// Draft phase start (tick start).
    pub draft_start_ms: f64,
    /// Draft phase end.
    pub draft_end_ms: f64,
    /// When the round's verify wave was submitted, if it was observed.
    pub verify_submitted_ms: Option<f64>,
    /// When the device started executing the verify wave.
    pub verify_started_ms: Option<f64>,
    /// When the verify wave completed.
    pub verify_completed_ms: Option<f64>,
}

impl RoundSpan {
    fn at(tick: u64) -> Self {
        RoundSpan {
            tick,
            draft_start_ms: 0.0,
            draft_end_ms: 0.0,
            verify_submitted_ms: None,
            verify_started_ms: None,
            verify_completed_ms: None,
        }
    }
}

/// The assembled span timeline of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpans {
    /// Request id.
    pub request: u64,
    /// Arrival time, when the submission event was recorded.
    pub submitted_ms: Option<f64>,
    /// Encoder latency charged to the request.
    pub encoder_ms: f64,
    /// Whether the request was streaming.
    pub streaming: bool,
    /// Decode-policy label carried by the submission event (empty when the
    /// submission fell outside the recording window).
    pub policy: String,
    /// Drafter label carried by the submission event (empty when the
    /// submission fell outside the recording window).
    pub drafter: String,
    /// Every admission time, in order (more than one after preemption).
    pub admissions: Vec<f64>,
    /// How many admissions were preemption restores.
    pub restores: u64,
    /// Completion time, when the request retired.
    pub completed_ms: Option<f64>,
    /// Draft/verify rounds, in tick order.
    pub rounds: Vec<RoundSpan>,
}

impl RequestSpans {
    fn new(request: u64) -> Self {
        RequestSpans {
            request,
            submitted_ms: None,
            encoder_ms: 0.0,
            streaming: false,
            policy: String::new(),
            drafter: String::new(),
            admissions: Vec::new(),
            restores: 0,
            completed_ms: None,
            rounds: Vec::new(),
        }
    }

    /// The admission the latency breakdown is anchored on: streaming
    /// requests measure from their *first* admission (partials flowed from
    /// then on), offline requests from their *last* (a preempted request
    /// restarts from scratch).
    pub fn anchor_admitted_ms(&self) -> Option<f64> {
        if self.streaming {
            self.admissions.first().copied()
        } else {
            self.admissions.last().copied()
        }
    }

    /// Time from arrival to the anchor admission, clamped at zero exactly
    /// like `RequestLatency::queue_ms`.
    pub fn queue_ms(&self) -> Option<f64> {
        let submitted = self.submitted_ms?;
        let admitted = self.anchor_admitted_ms()?;
        Some((admitted - submitted).max(0.0))
    }

    /// Wall time from the anchor admission to completion.
    pub fn decode_wall_ms(&self) -> Option<f64> {
        let admitted = self.anchor_admitted_ms()?;
        let completed = self.completed_ms?;
        Some(completed - admitted)
    }

    /// End-to-end latency: queue + encoder + decode wall, the same sum as
    /// `RequestLatency::e2e_ms`.
    pub fn e2e_ms(&self) -> Option<f64> {
        Some(self.queue_ms()? + self.encoder_ms + self.decode_wall_ms()?)
    }
}

/// Assembles per-request spans from an event stream.
///
/// Returns one [`RequestSpans`] per request id seen, ordered by id.  The
/// stream may be a partial window (ring wraparound): components whose
/// anchoring events were dropped come back as `None` rather than guesses.
pub fn assemble_spans<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Vec<RequestSpans> {
    let mut spans: BTreeMap<u64, RequestSpans> = BTreeMap::new();
    let entry = |spans: &mut BTreeMap<u64, RequestSpans>, request: u64| {
        spans
            .entry(request)
            .or_insert_with(|| RequestSpans::new(request));
    };
    // Verify waves arrive as (tick, requests[]) groups; remember each
    // request's round per tick so wave times land on the right round.  A
    // request's round is the one its latest draft phase began: a wave
    // submits it in its own tick, or in a later one if that tick deferred
    // it.  A round whose draft phase fell outside the window is keyed by
    // its wave's tick.
    let mut rounds: BTreeMap<(u64, u64), RoundSpan> = BTreeMap::new();
    let mut drafted_in: BTreeMap<u64, u64> = BTreeMap::new();
    for event in events {
        match event {
            TraceEvent::RequestSubmitted {
                ts_ms,
                request,
                encoder_ms,
                streaming,
                policy,
                drafter,
                ..
            } => {
                entry(&mut spans, *request);
                let span = spans.get_mut(request).expect("just inserted");
                // Work stealing can re-submit on another lane; the first
                // submission time is the arrival.
                if span.submitted_ms.is_none() {
                    span.submitted_ms = Some(*ts_ms);
                    span.encoder_ms = *encoder_ms;
                    span.streaming = *streaming;
                    span.policy = policy.clone();
                    span.drafter = drafter.clone();
                }
            }
            TraceEvent::RequestAdmitted {
                ts_ms,
                request,
                restored,
                ..
            } => {
                entry(&mut spans, *request);
                let span = spans.get_mut(request).expect("just inserted");
                span.admissions.push(*ts_ms);
                if *restored {
                    span.restores += 1;
                }
            }
            TraceEvent::RequestCompleted { ts_ms, request, .. } => {
                entry(&mut spans, *request);
                spans.get_mut(request).expect("just inserted").completed_ms = Some(*ts_ms);
            }
            TraceEvent::DraftPhase {
                start_ms,
                end_ms,
                tick,
                request,
            } => {
                entry(&mut spans, *request);
                drafted_in.insert(*request, *tick);
                let round = rounds
                    .entry((*request, *tick))
                    .or_insert_with(|| RoundSpan::at(*tick));
                round.draft_start_ms = *start_ms;
                round.draft_end_ms = *end_ms;
            }
            TraceEvent::VerifyWaveSubmitted {
                ts_ms,
                tick,
                requests,
                ..
            } => {
                for request in requests {
                    entry(&mut spans, *request);
                    let drafted = *drafted_in.entry(*request).or_insert(*tick);
                    let round = rounds
                        .entry((*request, drafted))
                        .or_insert_with(|| RoundSpan::at(drafted));
                    round.verify_submitted_ms = Some(*ts_ms);
                }
            }
            TraceEvent::VerifyWaveCompleted {
                tick,
                started_ms,
                completed_ms,
                requests,
                ..
            } => {
                for request in requests {
                    entry(&mut spans, *request);
                    let drafted = drafted_in.remove(request).unwrap_or(*tick);
                    let round = rounds
                        .entry((*request, drafted))
                        .or_insert_with(|| RoundSpan::at(drafted));
                    round.verify_started_ms = Some(*started_ms);
                    round.verify_completed_ms = Some(*completed_ms);
                }
            }
            _ => {}
        }
    }
    for ((request, _tick), round) in rounds {
        spans
            .get_mut(&request)
            .expect("round entries create spans")
            .rounds
            .push(round);
    }
    spans.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_offline_request_with_preemption() {
        let events = vec![
            TraceEvent::RequestSubmitted {
                ts_ms: 0.0,
                request: 7,
                encoder_ms: 40.0,
                audio_seconds: 4.0,
                streaming: false,
                policy: "specasr-asp".to_string(),
                drafter: "model".to_string(),
            },
            TraceEvent::RequestAdmitted {
                ts_ms: 10.0,
                request: 7,
                kv_blocks: 4,
                restored: false,
            },
            TraceEvent::KvPreempt {
                ts_ms: 30.0,
                request: 7,
                blocks: 4,
            },
            TraceEvent::RequestAdmitted {
                ts_ms: 50.0,
                request: 7,
                kv_blocks: 4,
                restored: true,
            },
            TraceEvent::DraftPhase {
                start_ms: 50.0,
                end_ms: 58.0,
                tick: 3,
                request: 7,
            },
            TraceEvent::VerifyWaveSubmitted {
                ts_ms: 58.0,
                tick: 3,
                wave: 0,
                tickets: vec![11],
                requests: vec![7],
            },
            TraceEvent::VerifyWaveCompleted {
                tick: 3,
                wave: 0,
                submitted_ms: 58.0,
                started_ms: 58.5,
                completed_ms: 90.0,
                tickets: vec![11],
                requests: vec![7],
            },
            TraceEvent::RequestCompleted {
                ts_ms: 90.0,
                request: 7,
                tokens: 12,
            },
        ];
        let spans = assemble_spans(&events);
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(span.request, 7);
        assert_eq!(span.admissions, vec![10.0, 50.0]);
        assert_eq!(span.restores, 1);
        assert_eq!(span.policy, "specasr-asp");
        assert_eq!(span.drafter, "model");
        // Offline anchor is the LAST admission: queue 50, decode 40.
        assert_eq!(span.queue_ms(), Some(50.0));
        assert_eq!(span.decode_wall_ms(), Some(40.0));
        assert_eq!(span.e2e_ms(), Some(50.0 + 40.0 + 40.0));
        assert_eq!(span.rounds.len(), 1);
        let round = &span.rounds[0];
        assert_eq!(round.tick, 3);
        assert_eq!(round.verify_started_ms, Some(58.5));
        assert_eq!(round.verify_completed_ms, Some(90.0));
    }

    #[test]
    fn streaming_anchor_is_first_admission() {
        let events = vec![
            TraceEvent::RequestSubmitted {
                ts_ms: 5.0,
                request: 1,
                encoder_ms: 0.0,
                audio_seconds: 2.0,
                streaming: true,
                policy: "specasr-asp".to_string(),
                drafter: "model".to_string(),
            },
            TraceEvent::RequestAdmitted {
                ts_ms: 9.0,
                request: 1,
                kv_blocks: 2,
                restored: false,
            },
            TraceEvent::RequestAdmitted {
                ts_ms: 20.0,
                request: 1,
                kv_blocks: 2,
                restored: true,
            },
            TraceEvent::RequestCompleted {
                ts_ms: 30.0,
                request: 1,
                tokens: 4,
            },
        ];
        let spans = assemble_spans(&events);
        assert_eq!(spans[0].queue_ms(), Some(4.0));
        assert_eq!(spans[0].decode_wall_ms(), Some(21.0));
    }

    #[test]
    fn partial_window_yields_none_not_guesses() {
        let events = vec![TraceEvent::RequestCompleted {
            ts_ms: 90.0,
            request: 2,
            tokens: 3,
        }];
        let spans = assemble_spans(&events);
        assert_eq!(spans[0].queue_ms(), None);
        assert_eq!(spans[0].decode_wall_ms(), None);
        assert_eq!(spans[0].e2e_ms(), None);
    }

    #[test]
    fn spans_are_ordered_by_request_id() {
        let events = vec![
            TraceEvent::RequestCompleted {
                ts_ms: 1.0,
                request: 9,
                tokens: 1,
            },
            TraceEvent::RequestCompleted {
                ts_ms: 1.0,
                request: 3,
                tokens: 1,
            },
        ];
        let spans = assemble_spans(&events);
        let ids: Vec<u64> = spans.iter().map(|s| s.request).collect();
        assert_eq!(ids, vec![3, 9]);
    }
}
