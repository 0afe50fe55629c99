//! A process-boundary [`AsrBackend`]: a worker thread owning the device,
//! driven over the binary wire protocol of [`crate::wire`].
//!
//! [`RpcBackend`] proves the ticketed `submit/poll/complete` boundary is
//! real: the client half holds *no* model.  Every call it makes encodes one
//! [`WireCall`] frame and blocks on the matching [`WireReply`] frame.  The
//! worker half owns an [`InFlightSimBackend`] and answers in lock step, so a
//! scheduler driven through the wire sees the exact timing, tickets, and
//! counters an in-process backend would produce — transcripts and latency
//! stats stay byte-identical, which is what makes the backend a drop-in
//! `--rpc` choice in the bench bins.
//!
//! Three things keep the boundary cheap:
//!
//! * **One recycled frame buffer.**  The client encodes each call into a
//!   single `Vec<u8>` and moves it to the worker over a `sync_channel(1)`;
//!   the worker decodes the call, encodes its reply into the same buffer
//!   and moves it back.  The buffer grows to the largest frame once and
//!   then stops allocating, and a bounded channel allocates nothing per
//!   message.
//! * **Each audio context sent once.**  The client registers a context with
//!   the worker the first time a request uses it and forgets it once no
//!   session holds it any more (the register/forget rule of
//!   [`crate::wire`]), so a verify request carries only its prefix and
//!   probe tokens.
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
use std::thread::JoinHandle;

use crate::backend::{
    AsrBackend, BackendBatch, BackendCounters, DeviceEvent, ForwardResult, Ticket,
};
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
///     AsrBackend, BackendBatch, ForwardRequest, ModelProfile, Probes, RpcBackend,
///     SimulatedAsrModel, TokenizerBinding,
/// };
///
/// let corpus = Corpus::librispeech_like(1, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = Arc::new(binding.bind(&corpus.split(Split::TestClean)[0]));
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
///
/// let mut backend = RpcBackend::spawn(target);
/// let request = ForwardRequest::verify(audio, Vec::new(), Probes::empty_probe(), 1);
/// let tickets = backend.submit(BackendBatch::of(request), 0.0);
/// let result = backend.complete(tickets[0]).expect("worker answered");
/// assert_eq!(result.logits.len(), 1);
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

    fn call(&mut self, call: &WireCall) -> WireReply {
        let mut frame = std::mem::take(&mut self.frame);
        self.encoder.encode(call, &mut frame);
        self.calls
            .send(frame)
            .expect("rpc worker accepts calls while the client lives");
        self.frame = self
            .replies
            .recv()
            .expect("rpc worker answers every call in lock step");
        decode_reply(&self.frame)
            .unwrap_or_else(|error| panic!("rpc worker sent a malformed reply: {error}"))
    }
}

impl AsrBackend for RpcBackend {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn submit(&mut self, batch: BackendBatch, now_ms: f64) -> Vec<Ticket> {
        match self.call(&WireCall::Submit(now_ms, batch)) {
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

    fn poll(&mut self) -> Vec<ForwardResult> {
        match self.call(&WireCall::Poll) {
            WireReply::Results(results) => results,
            other => unreachable!("poll answered with {other:?}"),
        }
    }

    fn complete(&mut self, ticket: Ticket) -> Option<ForwardResult> {
        match self.call(&WireCall::Complete(ticket)) {
            WireReply::Completed(result) => result,
            other => unreachable!("complete answered with {other:?}"),
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
        match self.call(&WireCall::SetTracing(enabled)) {
            WireReply::TracingSet(state) => debug_assert_eq!(state, enabled),
            other => unreachable!("set tracing answered with {other:?}"),
        }
    }

    /// Drains the worker's device batch log across the wire.
    fn take_device_events(&mut self) -> Vec<DeviceEvent> {
        match self.call(&WireCall::TakeDeviceEvents) {
            WireReply::DeviceEvents(events) => events,
            other => unreachable!("take device events answered with {other:?}"),
        }
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
/// reply into the same frame buffer and hand it back.
fn worker_loop<M: AsrDecoderModel>(
    mut backend: InFlightSimBackend<M>,
    calls: Receiver<Vec<u8>>,
    replies: SyncSender<Vec<u8>>,
) {
    let mut decoder = CallDecoder::new();
    while let Ok(mut frame) = calls.recv() {
        let call = decoder
            .decode(&frame)
            .unwrap_or_else(|error| panic!("rpc client sent a malformed call: {error}"));
        let reply = match call {
            WireCall::Submit(now_ms, batch) => {
                let tickets = backend.submit(batch, now_ms);
                WireReply::Submitted {
                    tickets,
                    device_free_ms: backend.device_free_ms(),
                    counters: backend.counters(),
                }
            }
            WireCall::Poll => WireReply::Results(backend.poll()),
            WireCall::Complete(ticket) => WireReply::Completed(backend.complete(ticket)),
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

    #[test]
    fn the_rpc_backend_matches_the_in_process_backend_exactly() {
        let (target, audio) = setup();
        let mut local = InFlightSimBackend::new(target.clone()).with_dispatch_overhead_ms(2.0);
        let mut remote = RpcBackend::spawn_with_overhead(target, 2.0);
        assert_eq!(remote.profile(), local.profile());
        assert_eq!(remote.counters(), local.counters());
        assert!((remote.dispatch_overhead_ms() - 2.0).abs() < 1e-12);

        for (i, context) in audio.iter().enumerate() {
            let request =
                ForwardRequest::verify(context.clone(), Vec::new(), Probes::empty_probe(), 4 + i);
            let batch = BackendBatch::of(request);
            let a = local.submit(batch.clone(), i as f64);
            let b = remote.submit(batch, i as f64);
            assert_eq!(a, b);
            assert!((remote.device_free_ms() - local.device_free_ms()).abs() < 1e-12);
            assert_eq!(remote.counters(), local.counters());
        }
        let local_results = local.poll();
        let remote_results = remote.poll();
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
        for (i, context) in audio.iter().enumerate() {
            let request =
                ForwardRequest::verify(context.clone(), Vec::new(), Probes::empty_probe(), 3 + i);
            local.submit(BackendBatch::of(request.clone()), i as f64);
            remote.submit(BackendBatch::of(request), i as f64);
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
        let request =
            ForwardRequest::verify(audio[0].clone(), Vec::new(), Probes::empty_probe(), 2);
        local.submit(BackendBatch::of(request.clone()), 99.0);
        remote.submit(BackendBatch::of(request), 99.0);
        local.set_device_tracing(false);
        remote.set_device_tracing(false);
        assert!(local.take_device_events().is_empty());
        assert!(remote.take_device_events().is_empty());
    }

    #[test]
    fn complete_drains_one_ticket_across_the_wire() {
        let (target, audio) = setup();
        let mut remote = RpcBackend::spawn(target);
        let request =
            ForwardRequest::verify(audio[0].clone(), Vec::new(), Probes::empty_probe(), 1);
        let tickets = remote.submit(BackendBatch::of(request), 5.0);
        assert!(remote.complete(Ticket::new(999)).is_none());
        let result = remote.complete(tickets[0]).expect("completed");
        assert_eq!(result.ticket, tickets[0]);
        assert!(remote.complete(tickets[0]).is_none(), "already drained");
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
            let request =
                ForwardRequest::verify(audio[0].clone(), Vec::new(), Probes::empty_probe(), 1);
            remote.submit(BackendBatch::of(request), 0.0)
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
