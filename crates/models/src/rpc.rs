//! A process-boundary [`AsrBackend`]: a worker thread owning the device,
//! driven over the binary wire protocol of [`crate::wire`].
//!
//! [`RpcBackend`] proves the ticketed `submit/poll` boundary is real: the
//! client half holds *no* model.  Every call it makes encodes one
//! [`WireCall`] frame and blocks on the matching [`WireReply`] frame.  The
//! worker half owns an [`InFlightSimBackend`] and answers in lock step, so a
//! scheduler driven through the wire sees the exact timing, tickets, and
//! counters an in-process backend would produce — transcripts and latency
//! stats stay byte-identical, which is what makes the backend a drop-in
//! `--rpc` choice in the bench bins.
//!
//! Four things keep the boundary cheap:
//!
//! * **One recycled frame buffer.**  The client encodes each call into a
//!   single `Vec<u8>` and moves it to the worker over a `sync_channel(1)`;
//!   the worker decodes the call, encodes its reply into the same buffer
//!   and moves it back.  The buffer grows to the largest frame once and
//!   then stops allocating, and a bounded channel allocates nothing per
//!   message.
//! * **A reused batch and completions on both sides.**  The client encodes
//!   the caller's [`BackendBatch`] where it lies and decodes each poll reply
//!   into the caller's [`Completions`].  The worker decodes every submit
//!   into one batch it keeps and polls into one completions buffer it
//!   keeps.  Like the frame, each stops growing once it has held the
//!   largest round, so a warm round trip allocates nothing.
//! * **Each audio context sent once.**  The client registers a context with
//!   the worker the first time a request uses it, so a verify request
//!   carries only its prefix and probe tokens.  A scheduler releases a
//!   context when its session retires or refills it
//!   ([`AsrBackend::release_context`]): the client drops its handle at once,
//!   so the session refills its buffers in place, and the next submit tells
//!   the worker to forget it, which reads the next new context into the
//!   forgotten one's buffers.  A context released without a call is
//!   forgotten once no session holds it (the register/forget rule of
//!   [`crate::wire`]).
//! * **A local counters mirror.**  The worker's lifetime counters and device
//!   backlog change only when a batch is submitted, so the submit reply
//!   carries both.  The client answers [`AsrBackend::counters`] and
//!   [`AsrBackend::device_free_ms`] from its mirror, which saves the
//!   scheduler one round trip every tick.
//!
//! If the worker panics, the client panics on the call it was waiting for.
//! Dropping the backend during that unwinding does not panic a second time
//! (which would abort the process); a drop outside any unwinding re-raises
//! the worker's panic instead.
//!
//! The protocol is deliberately synchronous per call (one call, one reply).
//! The *pipelining* lives above the boundary: the scheduler submits waves
//! ahead and completes behind, and the worker's device timeline serializes
//! them exactly like the in-process simulation.  A real GPU-RPC deployment
//! would swap the channel pair for a socket and let `poll` return early
//! completions; nothing in the trait contract changes.

use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::backend::{
    AsrBackend, BackendBatch, BackendCounters, Completions, DeviceEvent, TicketRange,
};
use crate::binding::UtteranceTokens;
use crate::profiles::ModelProfile;
use crate::traits::AsrDecoderModel;
use crate::wire::{decode_reply, encode_reply, CallDecoder, CallEncoder, WireCall, WireReply};
use crate::InFlightSimBackend;

/// The client half of the process-boundary backend: implements
/// [`AsrBackend`] by sending every call to a worker thread that owns an
/// [`InFlightSimBackend`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::{
///     AsrBackend, BackendBatch, Completions, ForwardRequest, ModelProfile, Probes, RpcBackend,
///     SimulatedAsrModel, TokenizerBinding,
/// };
///
/// let corpus = Corpus::librispeech_like(1, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = Arc::new(binding.bind(&corpus.split(Split::TestClean)[0]));
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
///
/// let mut backend = RpcBackend::spawn(target);
/// let probes = Probes::empty_probe();
/// let mut batch = BackendBatch::new();
/// batch.push(ForwardRequest {
///     audio: &audio,
///     prefix: &[],
///     probes: probes.as_slice(),
///     charge_tokens: 1,
/// });
/// let tickets = backend.submit(&batch, 0.0);
/// let mut completions = Completions::new();
/// backend.poll(&mut completions);
/// let (result, logits) = completions.iter().next().expect("worker answered");
/// assert_eq!(Some(result.ticket), tickets.iter().next());
/// assert_eq!(logits.len(), 1);
/// ```
#[derive(Debug)]
pub struct RpcBackend {
    calls: SyncSender<Vec<u8>>,
    replies: Receiver<Vec<u8>>,
    /// The frame buffer, lent to the worker for each call and handed back
    /// with its reply.
    frame: Vec<u8>,
    encoder: CallEncoder,
    profile: ModelProfile,
    dispatch_overhead_ms: f64,
    /// The worker's device backlog as of the last submit reply, mirrored
    /// client-side so the wave planner sees the cross-tick carry without a
    /// round trip.
    device_free_ms: f64,
    /// The worker's lifetime counters as of the last submit reply.
    counters: BackendCounters,
    worker: Option<JoinHandle<()>>,
}

impl RpcBackend {
    /// Spawns a worker thread owning `model` behind an
    /// [`InFlightSimBackend`] with no dispatch overhead.
    pub fn spawn<M: AsrDecoderModel + Send + 'static>(model: M) -> Self {
        RpcBackend::spawn_with_overhead(model, 0.0)
    }

    /// Like [`RpcBackend::spawn`], with a per-batch dispatch overhead on the
    /// worker's device timeline.
    ///
    /// # Panics
    ///
    /// Panics if the overhead is negative or non-finite.
    pub fn spawn_with_overhead<M: AsrDecoderModel + Send + 'static>(
        model: M,
        dispatch_overhead_ms: f64,
    ) -> Self {
        let backend =
            InFlightSimBackend::new(model).with_dispatch_overhead_ms(dispatch_overhead_ms);
        let profile = backend.profile().clone();
        let counters = backend.counters();
        let (calls, worker_calls) = std::sync::mpsc::sync_channel::<Vec<u8>>(1);
        let (worker_replies, replies) = std::sync::mpsc::sync_channel::<Vec<u8>>(1);
        let worker = std::thread::spawn(move || worker_loop(backend, worker_calls, worker_replies));
        RpcBackend {
            calls,
            replies,
            frame: Vec::new(),
            encoder: CallEncoder::new(),
            profile,
            dispatch_overhead_ms,
            device_free_ms: 0.0,
            counters,
            worker: Some(worker),
        }
    }

    /// Sends `call` and decodes the worker's reply, reading any results
    /// into `completions`.
    fn call<'c>(&mut self, call: &WireCall<'_>, completions: &'c mut Completions) -> WireReply<'c> {
        let mut frame = std::mem::take(&mut self.frame);
        self.encoder.encode(call, &mut frame);
        self.calls
            .send(frame)
            .expect("rpc worker accepts calls while the client lives");
        self.frame = self
            .replies
            .recv()
            .expect("rpc worker answers every call in lock step");
        decode_reply(&self.frame, completions)
            .unwrap_or_else(|error| panic!("rpc worker sent a malformed reply: {error}"))
    }
}

impl AsrBackend for RpcBackend {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn submit(&mut self, batch: &BackendBatch, now_ms: f64) -> TicketRange {
        match self.call(&WireCall::Submit(now_ms, batch), &mut Completions::new()) {
            WireReply::Submitted {
                tickets,
                device_free_ms,
                counters,
            } => {
                self.device_free_ms = device_free_ms;
                self.counters = counters;
                tickets
            }
            other => unreachable!("submit answered with {other:?}"),
        }
    }

    fn poll(&mut self, into: &mut Completions) {
        match self.call(&WireCall::Poll, into) {
            WireReply::Results(_) => {}
            other => unreachable!("poll answered with {other:?}"),
        }
    }

    fn counters(&self) -> BackendCounters {
        self.counters
    }

    /// The dispatch overhead configured on the worker's device timeline.
    fn dispatch_overhead_ms(&self) -> f64 {
        self.dispatch_overhead_ms
    }

    /// The worker's device backlog as of the last submit, from the client's
    /// mirror.
    fn device_free_ms(&self) -> f64 {
        self.device_free_ms
    }

    /// Propagates the trace context to the worker: enables (or disables)
    /// the device-side batch log behind the wire.
    fn set_device_tracing(&mut self, enabled: bool) {
        match self.call(&WireCall::SetTracing(enabled), &mut Completions::new()) {
            WireReply::TracingSet(state) => debug_assert_eq!(state, enabled),
            other => unreachable!("set tracing answered with {other:?}"),
        }
    }

    /// Drains the worker's device batch log across the wire.
    fn take_device_events(&mut self) -> Vec<DeviceEvent> {
        match self.call(&WireCall::TakeDeviceEvents, &mut Completions::new()) {
            WireReply::DeviceEvents(events) => events,
            other => unreachable!("take device events answered with {other:?}"),
        }
    }

    /// Drops the encoder's handle on `context` without a round trip; the
    /// next submit tells the worker to forget it.
    fn release_context(&mut self, context: &Arc<UtteranceTokens>) {
        self.encoder.release(context);
    }
}

impl Drop for RpcBackend {
    fn drop(&mut self) {
        // Best-effort handshake: the worker is already gone if it panicked.
        let mut frame = std::mem::take(&mut self.frame);
        self.encoder.encode(&WireCall::Shutdown, &mut frame);
        if self.calls.send(frame).is_ok() {
            let _ = self.replies.recv();
        }
        if let Some(worker) = self.worker.take() {
            if let Err(panic) = worker.join() {
                // A dead worker already failed the call this thread was
                // waiting on; panicking again while that unwinds would
                // abort the process.
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

/// The worker loop: decode a call, apply it to the owned backend, encode the
/// reply into the same frame buffer and hand it back.  One batch and one
/// completions buffer serve every call.
fn worker_loop<M: AsrDecoderModel>(
    mut backend: InFlightSimBackend<M>,
    calls: Receiver<Vec<u8>>,
    replies: SyncSender<Vec<u8>>,
) {
    let mut decoder = CallDecoder::new();
    let mut batch = BackendBatch::new();
    let mut completions = Completions::new();
    while let Ok(mut frame) = calls.recv() {
        let call = decoder
            .decode(&frame, &mut batch)
            .unwrap_or_else(|error| panic!("rpc client sent a malformed call: {error}"));
        let reply = match call {
            WireCall::Submit(now_ms, batch) => WireReply::Submitted {
                tickets: backend.submit(batch, now_ms),
                device_free_ms: backend.device_free_ms(),
                counters: backend.counters(),
            },
            WireCall::Poll => {
                backend.poll(&mut completions);
                WireReply::Results(&completions)
            }
            WireCall::SetTracing(enabled) => {
                backend.set_device_tracing(enabled);
                WireReply::TracingSet(enabled)
            }
            WireCall::TakeDeviceEvents => WireReply::DeviceEvents(backend.take_device_events()),
            WireCall::Shutdown => WireReply::Bye,
        };
        encode_reply(&reply, &mut frame);
        if replies.send(frame).is_err() || matches!(reply, WireReply::Bye) {
            return; // shut down, or the client hung up without the handshake
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::backend::ForwardRequest;
    use crate::binding::{TokenizerBinding, UtteranceTokens};
    use crate::logits::TokenLogits;
    use crate::probes::Probes;
    use crate::simulated::SimulatedAsrModel;
    use specasr_audio::{Corpus, Split};
    use specasr_tokenizer::TokenId;

    fn setup() -> (SimulatedAsrModel, Vec<Arc<UtteranceTokens>>) {
        let corpus = Corpus::librispeech_like(11, 3);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding
            .bind_all(corpus.split(Split::TestClean))
            .into_iter()
            .map(Arc::new)
            .collect();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        (target, audio)
    }

    /// A batch of one request scoring `probes` after an empty prefix.
    fn one_request(
        audio: &Arc<UtteranceTokens>,
        probes: &Probes,
        charge_tokens: usize,
    ) -> BackendBatch {
        let mut batch = BackendBatch::new();
        batch.push(ForwardRequest {
            audio,
            prefix: &[],
            probes: probes.as_slice(),
            charge_tokens,
        });
        batch
    }

    fn polled(backend: &mut impl AsrBackend) -> Completions {
        let mut completions = Completions::new();
        backend.poll(&mut completions);
        completions
    }

    #[test]
    fn the_rpc_backend_matches_the_in_process_backend_exactly() {
        let (target, audio) = setup();
        let mut local = InFlightSimBackend::new(target.clone()).with_dispatch_overhead_ms(2.0);
        let mut remote = RpcBackend::spawn_with_overhead(target, 2.0);
        assert_eq!(remote.profile(), local.profile());
        assert_eq!(remote.counters(), local.counters());
        assert!((remote.dispatch_overhead_ms() - 2.0).abs() < 1e-12);

        let probes = Probes::empty_probe();
        for (i, context) in audio.iter().enumerate() {
            let batch = one_request(context, &probes, 4 + i);
            let a = local.submit(&batch, i as f64);
            let b = remote.submit(&batch, i as f64);
            assert_eq!(a, b);
            assert!((remote.device_free_ms() - local.device_free_ms()).abs() < 1e-12);
            assert_eq!(remote.counters(), local.counters());
        }
        let local_results = polled(&mut local);
        let remote_results = polled(&mut remote);
        assert_eq!(local_results, remote_results);
        assert!(!remote_results.is_empty());
        assert_eq!(remote.counters(), local.counters());
    }

    #[test]
    fn the_device_log_crosses_the_wire_identically() {
        let (target, audio) = setup();
        let mut local = InFlightSimBackend::new(target.clone()).with_dispatch_overhead_ms(1.5);
        let mut remote = RpcBackend::spawn_with_overhead(target, 1.5);
        local.set_device_tracing(true);
        remote.set_device_tracing(true);
        let probes = Probes::empty_probe();
        for (i, context) in audio.iter().enumerate() {
            let batch = one_request(context, &probes, 3 + i);
            local.submit(&batch, i as f64);
            remote.submit(&batch, i as f64);
        }
        let local_events = local.take_device_events();
        let remote_events = remote.take_device_events();
        assert!(!local_events.is_empty());
        assert_eq!(local_events, remote_events);
        assert!(local.take_device_events().is_empty(), "drained");
        assert!(remote.take_device_events().is_empty(), "drained");

        // Disabling clears the buffered log on both sides.
        local.set_device_tracing(true);
        remote.set_device_tracing(true);
        let batch = one_request(&audio[0], &probes, 2);
        local.submit(&batch, 99.0);
        remote.submit(&batch, 99.0);
        local.set_device_tracing(false);
        remote.set_device_tracing(false);
        assert!(local.take_device_events().is_empty());
        assert!(remote.take_device_events().is_empty());
    }

    #[test]
    fn poll_drains_completions_across_the_wire() {
        let (target, audio) = setup();
        let mut remote = RpcBackend::spawn(target);
        let tickets = remote.submit(&one_request(&audio[0], &Probes::empty_probe(), 1), 5.0);
        let mut completions = polled(&mut remote);
        assert_eq!(completions.len(), 1);
        assert_eq!(Some(completions.results()[0].ticket), tickets.iter().next());
        remote.poll(&mut completions);
        assert!(completions.is_empty(), "the first poll drained the queue");
    }

    /// A model that spreads every distribution over six candidates, past
    /// the inline capacity of a [`TokenLogits`].
    #[derive(Debug, Clone)]
    struct SpreadModel(ModelProfile);

    impl AsrDecoderModel for SpreadModel {
        fn profile(&self) -> &ModelProfile {
            &self.0
        }

        fn next_logits(&self, _: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
            let base = prefix.len() as u32;
            TokenLogits::from_candidates(
                [0.3, 0.25, 0.2, 0.1, 0.08, 0.07]
                    .map(|p| (TokenId::new(base + (p * 100.0) as u32), p)),
            )
        }
    }

    #[test]
    fn six_candidate_distributions_cross_the_wire_identically() {
        let (_, audio) = setup();
        let model = SpreadModel(ModelProfile::whisper_medium_en());
        let mut local = InFlightSimBackend::new(model.clone());
        let mut remote = RpcBackend::spawn(model);
        let probes: Probes = [
            &[][..],
            &[TokenId::new(9)],
            &[TokenId::new(9), TokenId::new(4)],
        ]
        .into_iter()
        .collect();
        for (i, context) in audio.iter().enumerate() {
            let batch = one_request(context, &probes, 3);
            assert_eq!(
                local.submit(&batch, i as f64),
                remote.submit(&batch, i as f64)
            );
        }
        let local_results = polled(&mut local);
        let remote_results = polled(&mut remote);
        assert_eq!(local_results, remote_results);
        let (_, logits) = remote_results.iter().next().expect("results");
        assert!(logits.iter().all(|logits| logits.len() == 6));
    }

    /// A model whose every forward pass panics: the worker dies on the first
    /// submit.
    struct FailingModel(ModelProfile);

    impl AsrDecoderModel for FailingModel {
        fn profile(&self) -> &ModelProfile {
            &self.0
        }

        fn next_logits(&self, _: &UtteranceTokens, _: &[TokenId]) -> TokenLogits {
            panic!("the device failed")
        }
    }

    #[test]
    fn a_dead_worker_unwinds_the_caller_instead_of_aborting() {
        let (_, audio) = setup();
        let caught = std::panic::catch_unwind(|| {
            let mut remote = RpcBackend::spawn(FailingModel(ModelProfile::whisper_medium_en()));
            remote.submit(&one_request(&audio[0], &Probes::empty_probe(), 1), 0.0)
        });
        let panic = caught.expect_err("the failed call panics the caller");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("lock step"), "{message}");
    }
}
