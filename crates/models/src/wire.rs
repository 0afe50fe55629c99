//! The binary wire format of the process-boundary backend protocol.
//!
//! [`crate::RpcBackend`] drives a worker that owns the real (simulated)
//! device.  Every client call is one [`WireCall`] frame and every worker
//! answer one [`WireReply`] frame, in a hand-written little-endian binary
//! encoding.  The frames carry everything a remote device needs — no shared
//! memory, no function pointers, no `Arc`s crossing the boundary — so the
//! channel pair could be swapped for a socket without touching the codec.
//!
//! # Frame layout
//!
//! ```text
//! frame      = body_len:u32  tag:u8  fields        body_len counts tag + fields
//! seq<T>     = len:u32  T × len
//! f64        = the raw IEEE-754 bits, as a u64
//! usize      = u64
//!
//! call  0x01 Submit            now_ms:f64  forget:seq<u64>  requests:seq<request>
//!       0x02 Poll
//!       0x04 SetTracing        enabled:u8
//!       0x05 TakeDeviceEvents
//!       0x06 Shutdown
//! request    = context  prefix:seq<u32>  probes:seq<seq<u32>>  charge_tokens:usize
//! context    = 0x00 id:u64                 a context registered by an earlier request
//!            | 0x01 id:u64 utterance       first use: registers the context as `id`
//! utterance  = utterance_id:u64  eos:u32  bos:u32  vocab_size:u32  duration_s:f64
//!              prefill_tokens:usize  len:u32  token:u32 × len  difficulty:f64 × len
//!
//! reply 0x81 Submitted         tickets:seq<u64>  device_free_ms:f64  counters
//!       0x82 Results           seq<result>
//!       0x84 TracingSet        enabled:u8
//!       0x85 DeviceEvents      seq<device_event>
//!       0x86 Bye
//! result     = ticket:u64  logits:seq<seq<token:u32 probability:f64>>
//!              submitted_ms:f64  started_ms:f64  completed_ms:f64  batch_requests:usize
//! counters   = batches  requests  draft_requests  verify_requests  verify_batches
//!              probes_scored  peak_in_flight (usize each)
//!              device_busy_ms:f64  device_idle_ms:f64
//! device_event = seq:u64  submitted_ms:f64  started_ms:f64  completed_ms:f64
//!                requests:u64  charge_tokens:u64
//! ```
//!
//! Call tags and reply tags are disjoint, so a frame sent the wrong way is an
//! unknown tag rather than a misread.  A submit's tickets are consecutive,
//! one per request; the reply still lists each of them.
//!
//! # Frames decode into buffers the caller keeps
//!
//! A call or reply that carries a batch or completions borrows it rather
//! than owning it.  [`CallEncoder::encode`] reads the caller's
//! [`BackendBatch`] in place, [`CallDecoder::decode`] reads a submit's
//! requests into a batch the worker keeps, and [`decode_reply`] reads a
//! poll's results into the caller's [`Completions`].  Each buffer is
//! cleared first and keeps its capacity, so once the buffers and the frame
//! have held the largest round, encoding and decoding allocate nothing.
//!
//! # Each audio context is sent once
//!
//! A [`BackendBatch`] holds each request's audio context behind an `Arc`,
//! and every request of a session shares the same one.  [`CallEncoder`], the
//! client half, lists each registered context in registration order and
//! finds it by `Arc` identity.  The list keeps a strong clone of each, so an
//! address cannot be reused while it is registered, and it holds only the
//! contexts in flight, so a scan is cheap and nothing about the table
//! depends on where a context happens to be allocated.  A submit
//! inlines a context only the first time a request uses it, under a fresh
//! id; later requests name the id.  The submit frame carries the ids the
//! worker may forget as `forget`, and [`CallDecoder`], the worker half,
//! removes them before it reads the requests.  An id is forgotten in one of
//! two ways:
//!
//! - **Released.**  [`CallEncoder::release`] drops the table's clone at
//!   once, and the next submit carries the id.  The client calls it when a
//!   session retires or before a parked stream refills its view
//!   ([`crate::AsrBackend::release_context`]).
//! - **Swept.**  Before each submit the encoder drops every entry whose
//!   strong count has fallen to 1: only the table holds it, so no caller can
//!   send it again.  This catches a context released without a call, such
//!   as one whose session migrated to another worker's backend.
//!
//! A registered context must never change under its id, and it cannot:
//! its owner's `Arc::get_mut` fails while the table holds a clone.  Once
//! released, the owner refills it in place (the next request's bound
//! utterance, or a stream's next view), and its next submit registers it
//! anew, under a new id.  The decoder keeps each forgotten context as a
//! spare and reads the next new context into a spare's buffers, so a warm
//! worker allocates nothing for the contexts it receives.  Neither side
//! holds more contexts, registered and spare together, than the client
//! once had registered at the same time.
//!
//! # Floats travel as raw bits
//!
//! An RPC run must reproduce the in-process run's modeled numbers bit for
//! bit, so no timestamp, probability or difficulty may round on the way.
//! Writing each `f64` as its raw bits is exact for every value, and it is
//! the only encoding that carries −0.0, subnormals, ±∞ and NaN payloads
//! through unchanged.
//!
//! # Decoding never panics
//!
//! Every decoder returns a [`WireError`] for a truncated frame, an unknown
//! tag, a length prefix past the end of the frame, an unregistered context
//! id, a gap in a submit's tickets or trailing bytes.  Each length prefix is
//! checked against the bytes left before anything is read for it, so a
//! corrupt frame cannot ask for more memory than its own size implies.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use specasr_audio::UtteranceId;
use specasr_tokenizer::TokenId;

use crate::backend::{
    BackendBatch, BackendCounters, Completions, DeviceEvent, ForwardResult, RequestSlot, Ticket,
    TicketRange,
};
use crate::binding::UtteranceTokens;
use crate::logits::{Candidate, TokenLogits};

/// One call from the client half of [`crate::RpcBackend`] to its worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireCall<'a> {
    /// [`crate::AsrBackend::submit`]: a batch stamped at a wall time.
    Submit(f64, &'a BackendBatch),
    /// [`crate::AsrBackend::poll`].
    Poll,
    /// Propagates the client's trace context: enables (or disables) the
    /// worker-side device batch log so `+rpc` runs stitch the same device
    /// timeline as in-process runs.
    SetTracing(bool),
    /// Drains the worker's device batch log
    /// ([`crate::AsrBackend::take_device_events`]).
    TakeDeviceEvents,
    /// Stop the worker loop (sent once, on drop).
    Shutdown,
}

/// The worker's answer to one [`WireCall`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply<'a> {
    /// The answer to [`WireCall::Submit`].  The device backlog and the
    /// lifetime counters change only when a batch is submitted, so the
    /// client mirrors both and reads them without a round trip.
    Submitted {
        /// One ticket per submitted request, in request order.
        tickets: TicketRange,
        /// The worker's device backlog after the submit.
        device_free_ms: f64,
        /// The worker's lifetime counters after the submit.
        counters: BackendCounters,
    },
    /// Every completed result, in completion order.
    Results(&'a Completions),
    /// Acknowledges [`WireCall::SetTracing`], echoing the new state.
    TracingSet(bool),
    /// The worker's device batch log since the last drain, in submit order.
    DeviceEvents(Vec<DeviceEvent>),
    /// Acknowledges [`WireCall::Shutdown`]; the worker exits after sending.
    Bye,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ends inside the `needed`-byte field starting at byte `at`.
    Truncated {
        /// Offset of the field.
        at: usize,
        /// Width of the field in bytes.
        needed: usize,
    },
    /// The byte at `at` is not a known tag for `field`.
    UnknownTag {
        /// Offset of the tag.
        at: usize,
        /// What the tag selects (`call`, `reply`, `context`, ...).
        field: &'static str,
        /// The byte found.
        tag: u8,
    },
    /// The length prefix at `at` declares more than the rest of the frame
    /// can hold.
    LengthPastEnd {
        /// Offset of the length prefix.
        at: usize,
        /// The declared length.
        len: u32,
        /// Bytes left after the prefix.
        remaining: usize,
    },
    /// A frame names a context id the decoder never registered or has
    /// already forgotten.
    UnknownContext(u64),
    /// The frame continues past its last field, from byte `at`.
    TrailingBytes {
        /// Offset of the first unread byte.
        at: usize,
    },
    /// The 64-bit count at `at` does not fit this platform's `usize`.
    Overflow {
        /// Offset of the count.
        at: usize,
    },
    /// The ticket at `at` does not follow the one before it: a batch's
    /// tickets are consecutive.
    TicketGap {
        /// Offset of the ticket.
        at: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { at, needed } => {
                write!(
                    f,
                    "frame truncated inside a {needed}-byte field at byte {at}"
                )
            }
            WireError::UnknownTag { at, field, tag } => {
                write!(f, "unknown {field} tag {tag:#04x} at byte {at}")
            }
            WireError::LengthPastEnd { at, len, remaining } => write!(
                f,
                "length {len} at byte {at} runs past the end of the frame ({remaining} bytes left)"
            ),
            WireError::UnknownContext(id) => write!(f, "context id {id} is not registered"),
            WireError::TrailingBytes { at } => {
                write!(f, "frame continues past its last field, from byte {at}")
            }
            WireError::Overflow { at } => write!(f, "count at byte {at} overflows usize"),
            WireError::TicketGap { at } => {
                write!(f, "ticket at byte {at} does not follow the one before it")
            }
        }
    }
}

impl std::error::Error for WireError {}

const CALL_SUBMIT: u8 = 0x01;
const CALL_POLL: u8 = 0x02;
const CALL_SET_TRACING: u8 = 0x04;
const CALL_TAKE_DEVICE_EVENTS: u8 = 0x05;
const CALL_SHUTDOWN: u8 = 0x06;

const REPLY_SUBMITTED: u8 = 0x81;
const REPLY_RESULTS: u8 = 0x82;
const REPLY_TRACING_SET: u8 = 0x84;
const REPLY_DEVICE_EVENTS: u8 = 0x85;
const REPLY_BYE: u8 = 0x86;

const CONTEXT_REGISTERED: u8 = 0x00;
const CONTEXT_NEW: u8 = 0x01;

/// Offset of the tag byte, after the length prefix.
const TAG_AT: usize = 4;

// Smallest encoding of one item of each sequence, the bound a length prefix
// is checked against before the decoder allocates for it.
const TOKEN_BYTES: usize = 4;
const ID_BYTES: usize = 8;
const CANDIDATE_BYTES: usize = 4 + 8;
const SEQ_BYTES: usize = 4;
const REQUEST_MIN_BYTES: usize = 1 + 8 + SEQ_BYTES + SEQ_BYTES + 8;
const RESULT_MIN_BYTES: usize = 8 + SEQ_BYTES + 3 * 8 + 8;
const DEVICE_EVENT_BYTES: usize = 8 + 3 * 8 + 8 + 8;

/// The client half of the codec: encodes calls, and owns the client's side
/// of the register/forget context table (see the module docs).
#[derive(Debug, Default)]
pub struct CallEncoder {
    /// Registered contexts in registration order: the wire id, and a strong
    /// clone that keeps the address from being reused while it is
    /// registered.
    contexts: Vec<(u64, Arc<UtteranceTokens>)>,
    next_id: u64,
    /// Ids the next submit forgets: those [`CallEncoder::release`]d since
    /// the last submit, then the ones its sweep finds (reused buffer).
    forget: Vec<u64>,
}

impl CallEncoder {
    /// An encoder with no registered context.
    pub fn new() -> Self {
        CallEncoder::default()
    }

    /// Encodes `call` into `frame`, replacing its contents.  The capacity is
    /// kept, so a buffer reused across calls stops allocating once it has
    /// grown to the largest frame.
    pub fn encode(&mut self, call: &WireCall<'_>, frame: &mut Vec<u8>) {
        match *call {
            WireCall::Submit(now_ms, batch) => self.encode_submit(now_ms, batch, frame),
            WireCall::Poll => begin(frame, CALL_POLL),
            WireCall::SetTracing(enabled) => {
                begin(frame, CALL_SET_TRACING);
                frame.put_u8(u8::from(enabled));
            }
            WireCall::TakeDeviceEvents => begin(frame, CALL_TAKE_DEVICE_EVENTS),
            WireCall::Shutdown => begin(frame, CALL_SHUTDOWN),
        }
        seal(frame);
    }

    /// Unregisters `context`, if it is registered: the table drops its
    /// clone at once, so the caller's `Arc::get_mut` can succeed, and the
    /// next submit tells the worker to forget the id.  Sent again, the
    /// context registers anew, under a new id.
    pub fn release(&mut self, context: &Arc<UtteranceTokens>) {
        if let Some(at) = self.position(context) {
            let (id, _) = self.contexts.remove(at);
            self.forget.push(id);
        }
    }

    /// Where `context` sits in the table, if it is registered.
    fn position(&self, context: &Arc<UtteranceTokens>) -> Option<usize> {
        self.contexts
            .iter()
            .position(|(_, registered)| Arc::ptr_eq(registered, context))
    }

    fn encode_submit(&mut self, now_ms: f64, batch: &BackendBatch, frame: &mut Vec<u8>) {
        // The sweep: an entry with strong count 1 is held by the table
        // alone, a context released without a call (after a migration, say).
        // Every request of `batch` holds its own clone, so no context this
        // submit sends can be among the forgotten ones.
        let forget = &mut self.forget;
        self.contexts.retain(|(id, context)| {
            let live = Arc::strong_count(context) > 1;
            if !live {
                forget.push(*id);
            }
            live
        });
        forget.sort_unstable();
        begin(frame, CALL_SUBMIT);
        frame.put_f64(now_ms);
        frame.put_seq(forget, |frame, &id| frame.put_u64(id));
        forget.clear();
        frame.put_len(batch.len());
        for request in batch.requests() {
            self.put_context(request.audio, frame);
            frame.put_tokens(request.prefix);
            frame.put_len(request.probes.len());
            for probe in request.probes.iter() {
                frame.put_tokens(probe);
            }
            frame.put_u64(request.charge_tokens as u64);
        }
    }

    fn put_context(&mut self, context: &Arc<UtteranceTokens>, frame: &mut Vec<u8>) {
        if let Some(at) = self.position(context) {
            frame.put_u8(CONTEXT_REGISTERED);
            frame.put_u64(self.contexts[at].0);
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.contexts.push((id, Arc::clone(context)));
        frame.put_u8(CONTEXT_NEW);
        frame.put_u64(id);
        put_utterance(frame, context);
    }
}

/// The worker half of the codec: decodes calls, and owns the worker's side
/// of the register/forget context table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct CallDecoder {
    /// Registered contexts by wire id.  The hasher's key is fixed, so the
    /// table's layout, and with it its allocations, repeat from run to run.
    contexts: HashMap<u64, Arc<UtteranceTokens>, BuildHasherDefault<DefaultHasher>>,
    /// Forgotten contexts, whose buffers the next new contexts are read
    /// into.  The table and this list together never hold more contexts
    /// than the client once had registered at the same time.
    spare: Vec<Arc<UtteranceTokens>>,
}

impl CallDecoder {
    /// A decoder with no registered context.
    pub fn new() -> Self {
        CallDecoder::default()
    }

    /// Decodes one call frame.  A submit's requests are read into `batch`,
    /// which is cleared first and keeps its capacity; the decoded call
    /// borrows it.
    ///
    /// The registrations and forgets a submit carries take effect as they
    /// are read, so after an error the table may hold part of the failed
    /// frame's changes.  The protocol is lock-step with no resynchronisation:
    /// a decode error ends the connection.
    pub fn decode<'b>(
        &mut self,
        frame: &[u8],
        batch: &'b mut BackendBatch,
    ) -> Result<WireCall<'b>, WireError> {
        let (mut reader, tag) = Reader::open(frame)?;
        let call = match tag {
            CALL_SUBMIT => {
                let now_ms = self.read_submit(&mut reader, batch)?;
                WireCall::Submit(now_ms, batch)
            }
            CALL_POLL => WireCall::Poll,
            CALL_SET_TRACING => WireCall::SetTracing(reader.flag("bool")?),
            CALL_TAKE_DEVICE_EVENTS => WireCall::TakeDeviceEvents,
            CALL_SHUTDOWN => WireCall::Shutdown,
            tag => {
                return Err(WireError::UnknownTag {
                    at: TAG_AT,
                    field: "call",
                    tag,
                })
            }
        };
        reader.end()?;
        Ok(call)
    }

    /// Reads a submit's fields after its tag, its requests into `batch`,
    /// and returns its wall time.
    fn read_submit(
        &mut self,
        reader: &mut Reader<'_>,
        batch: &mut BackendBatch,
    ) -> Result<f64, WireError> {
        let now_ms = reader.f64()?;
        // The batch lets go of the last submit's contexts first, so a
        // forgotten context is held by the table alone when it turns spare.
        batch.clear();
        for _ in 0..reader.len(ID_BYTES)? {
            let id = reader.u64()?;
            let context = self
                .contexts
                .remove(&id)
                .ok_or(WireError::UnknownContext(id))?;
            self.spare.push(context);
        }
        for _ in 0..reader.len(REQUEST_MIN_BYTES)? {
            let audio = self.read_context(reader)?;
            // The prefix, then each probe, straight into the batch's
            // buffers, laid out as `BackendBatch::push` lays them.
            let start = batch.tokens.len();
            reader.tokens_into(&mut batch.tokens)?;
            let prefix = start..batch.tokens.len();
            let ends_at = batch.probe_ends.len();
            for _ in 0..reader.len(SEQ_BYTES)? {
                reader.tokens_into(&mut batch.tokens)?;
                batch.probe_ends.push(batch.tokens.len() - prefix.end);
            }
            batch.requests.push(RequestSlot {
                audio,
                prefix,
                tokens_end: batch.tokens.len(),
                probes: ends_at..batch.probe_ends.len(),
                charge_tokens: reader.usize()?,
            });
        }
        Ok(now_ms)
    }

    fn read_context(&mut self, reader: &mut Reader<'_>) -> Result<Arc<UtteranceTokens>, WireError> {
        let at = reader.at;
        match reader.u8()? {
            CONTEXT_REGISTERED => {
                let id = reader.u64()?;
                self.contexts
                    .get(&id)
                    .cloned()
                    .ok_or(WireError::UnknownContext(id))
            }
            CONTEXT_NEW => {
                let id = reader.u64()?;
                // A spare is refilled in place (copied first if something
                // else still shares it).
                let mut context = self.spare.pop().unwrap_or_default();
                read_utterance_into(reader, Arc::make_mut(&mut context))?;
                self.contexts.insert(id, Arc::clone(&context));
                Ok(context)
            }
            tag => Err(WireError::UnknownTag {
                at,
                field: "context",
                tag,
            }),
        }
    }
}

/// Encodes a reply into `frame`, replacing its contents (the capacity is
/// kept, as in [`CallEncoder::encode`]).
pub fn encode_reply(reply: &WireReply<'_>, frame: &mut Vec<u8>) {
    match reply {
        WireReply::Submitted {
            tickets,
            device_free_ms,
            counters,
        } => {
            begin(frame, REPLY_SUBMITTED);
            frame.put_len(tickets.len());
            for ticket in tickets.iter() {
                frame.put_u64(ticket.value());
            }
            frame.put_f64(*device_free_ms);
            put_counters(frame, counters);
        }
        WireReply::Results(completions) => {
            begin(frame, REPLY_RESULTS);
            frame.put_len(completions.len());
            for (result, logits) in completions.iter() {
                put_result(frame, result, logits);
            }
        }
        WireReply::TracingSet(enabled) => {
            begin(frame, REPLY_TRACING_SET);
            frame.put_u8(u8::from(*enabled));
        }
        WireReply::DeviceEvents(events) => {
            begin(frame, REPLY_DEVICE_EVENTS);
            frame.put_seq(events, put_device_event);
        }
        WireReply::Bye => begin(frame, REPLY_BYE),
    }
    seal(frame);
}

/// Decodes one reply frame.  A poll's results are read into `completions`,
/// which is cleared first and keeps its capacity; the decoded reply borrows
/// it.
pub fn decode_reply<'b>(
    frame: &[u8],
    completions: &'b mut Completions,
) -> Result<WireReply<'b>, WireError> {
    let (mut reader, tag) = Reader::open(frame)?;
    let reply = match tag {
        REPLY_SUBMITTED => WireReply::Submitted {
            tickets: reader.tickets()?,
            device_free_ms: reader.f64()?,
            counters: read_counters(&mut reader)?,
        },
        REPLY_RESULTS => {
            read_results(&mut reader, completions)?;
            WireReply::Results(completions)
        }
        REPLY_TRACING_SET => WireReply::TracingSet(reader.flag("bool")?),
        REPLY_DEVICE_EVENTS => {
            WireReply::DeviceEvents(reader.seq(DEVICE_EVENT_BYTES, read_device_event)?)
        }
        REPLY_BYE => WireReply::Bye,
        tag => {
            return Err(WireError::UnknownTag {
                at: TAG_AT,
                field: "reply",
                tag,
            })
        }
    };
    reader.end()?;
    Ok(reply)
}

/// Starts a frame in `frame`: clears it (keeping its capacity), reserves the
/// length prefix and writes the tag.
fn begin(frame: &mut Vec<u8>, tag: u8) {
    frame.clear();
    frame.put_u32(0);
    frame.put_u8(tag);
}

/// Fills in the length prefix of a finished frame.
fn seal(frame: &mut [u8]) {
    let body = u32::try_from(frame.len() - TAG_AT).expect("a frame is shorter than 4 GiB");
    frame[..TAG_AT].copy_from_slice(&body.to_le_bytes());
}

/// Little-endian field writers over a frame buffer.
trait Put {
    fn put_u8(&mut self, value: u8);
    fn put_u32(&mut self, value: u32);
    fn put_u64(&mut self, value: u64);
    fn put_f64(&mut self, value: f64);
    fn put_len(&mut self, len: usize);
    fn put_seq<T>(&mut self, items: &[T], put: impl FnMut(&mut Self, &T));
    fn put_tokens(&mut self, tokens: &[TokenId]);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, value: u8) {
        self.push(value);
    }

    fn put_u32(&mut self, value: u32) {
        self.extend_from_slice(&value.to_le_bytes());
    }

    fn put_u64(&mut self, value: u64) {
        self.extend_from_slice(&value.to_le_bytes());
    }

    fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    fn put_len(&mut self, len: usize) {
        self.put_u32(u32::try_from(len).expect("a wire sequence holds fewer than 2^32 items"));
    }

    fn put_seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.put_len(items.len());
        for item in items {
            put(self, item);
        }
    }

    fn put_tokens(&mut self, tokens: &[TokenId]) {
        self.put_seq(tokens, |frame, token| frame.put_u32(token.value()));
    }
}

fn put_utterance(frame: &mut Vec<u8>, utterance: &UtteranceTokens) {
    debug_assert_eq!(
        utterance.reference_tokens.len(),
        utterance.token_difficulties.len()
    );
    frame.put_u64(utterance.id.value());
    frame.put_u32(utterance.eos.value());
    frame.put_u32(utterance.bos.value());
    frame.put_u32(utterance.vocab_size);
    frame.put_f64(utterance.duration_seconds);
    frame.put_u64(utterance.prefill_tokens as u64);
    frame.put_tokens(&utterance.reference_tokens);
    for &difficulty in &utterance.token_difficulties {
        frame.put_f64(difficulty);
    }
}

fn put_result(frame: &mut Vec<u8>, result: &ForwardResult, logits: &[TokenLogits]) {
    frame.put_u64(result.ticket.value());
    frame.put_seq(logits, |frame, logits| {
        frame.put_len(logits.len());
        for candidate in logits.iter() {
            frame.put_u32(candidate.token.value());
            frame.put_f64(candidate.probability);
        }
    });
    frame.put_f64(result.submitted_ms);
    frame.put_f64(result.started_ms);
    frame.put_f64(result.completed_ms);
    frame.put_u64(result.batch_requests as u64);
}

fn put_counters(frame: &mut Vec<u8>, counters: &BackendCounters) {
    for count in [
        counters.batches,
        counters.requests,
        counters.draft_requests,
        counters.verify_requests,
        counters.verify_batches,
        counters.probes_scored,
        counters.peak_in_flight,
    ] {
        frame.put_u64(count as u64);
    }
    frame.put_f64(counters.device_busy_ms);
    frame.put_f64(counters.device_idle_ms);
}

fn put_device_event(frame: &mut Vec<u8>, event: &DeviceEvent) {
    frame.put_u64(event.seq);
    frame.put_f64(event.submitted_ms);
    frame.put_f64(event.started_ms);
    frame.put_f64(event.completed_ms);
    frame.put_u64(event.requests);
    frame.put_u64(event.charge_tokens);
}

/// A bounds-checked cursor over one frame.
struct Reader<'a> {
    frame: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Checks the frame's length prefix against its size and reads its tag.
    fn open(frame: &'a [u8]) -> Result<(Self, u8), WireError> {
        let mut reader = Reader { frame, at: 0 };
        let declared = reader.u32()?;
        let remaining = frame.len() - TAG_AT;
        if declared as usize > remaining {
            return Err(WireError::LengthPastEnd {
                at: 0,
                len: declared,
                remaining,
            });
        }
        if (declared as usize) < remaining {
            return Err(WireError::TrailingBytes {
                at: TAG_AT + declared as usize,
            });
        }
        let tag = reader.u8()?;
        Ok((reader, tag))
    }

    /// Errors unless every byte of the frame was read.
    fn end(self) -> Result<(), WireError> {
        if self.at == self.frame.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { at: self.at })
        }
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let field = self
            .frame
            .get(self.at..)
            .and_then(|rest| rest.get(..N))
            .ok_or(WireError::Truncated {
                at: self.at,
                needed: N,
            })?;
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(field);
        self.at += N;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.bytes::<1>().map(|[byte]| byte)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.bytes().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.bytes().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        let at = self.at;
        usize::try_from(self.u64()?).map_err(|_| WireError::Overflow { at })
    }

    fn flag(&mut self, field: &'static str) -> Result<bool, WireError> {
        let at = self.at;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { at, field, tag }),
        }
    }

    /// A sequence length, checked against the bytes left at
    /// `min_item_bytes` per item before the caller allocates for it.
    fn len(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let at = self.at;
        let len = self.u32()?;
        let remaining = self.frame.len() - self.at;
        if (len as usize).saturating_mul(min_item_bytes) > remaining {
            return Err(WireError::LengthPastEnd { at, len, remaining });
        }
        Ok(len as usize)
    }

    /// A length-prefixed sequence whose items each take at least
    /// `min_item_bytes`.
    fn seq<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let len = self.len(min_item_bytes)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A `seq<u32>` of tokens, appended to `tokens`.
    fn tokens_into(&mut self, tokens: &mut Vec<TokenId>) -> Result<(), WireError> {
        for _ in 0..self.len(TOKEN_BYTES)? {
            tokens.push(TokenId::new(self.u32()?));
        }
        Ok(())
    }

    /// A submit's `seq<u64>` of tickets, which must be consecutive.
    fn tickets(&mut self) -> Result<TicketRange, WireError> {
        let len = self.len(ID_BYTES)?;
        let mut first = 0;
        for index in 0..len as u64 {
            let at = self.at;
            let ticket = self.u64()?;
            if index == 0 {
                first = ticket;
            } else if first.checked_add(index) != Some(ticket) {
                return Err(WireError::TicketGap { at });
            }
        }
        Ok(TicketRange::new(Ticket::new(first), len))
    }
}

/// Reads an `utterance` into `into`, whatever it held before; its buffers
/// keep their capacity.  On an error `into` may hold part of the frame.
fn read_utterance_into(
    reader: &mut Reader<'_>,
    into: &mut UtteranceTokens,
) -> Result<(), WireError> {
    into.id = UtteranceId::new(reader.u64()?);
    into.eos = TokenId::new(reader.u32()?);
    into.bos = TokenId::new(reader.u32()?);
    into.vocab_size = reader.u32()?;
    into.duration_seconds = reader.f64()?;
    into.prefill_tokens = reader.usize()?;
    let len = reader.len(TOKEN_BYTES + 8)?;
    into.reference_tokens.clear();
    into.reference_tokens.reserve(len);
    for _ in 0..len {
        into.reference_tokens.push(TokenId::new(reader.u32()?));
    }
    into.token_difficulties.clear();
    into.token_difficulties.reserve(len);
    for _ in 0..len {
        into.token_difficulties.push(reader.f64()?);
    }
    Ok(())
}

/// Reads a `seq<result>` into `into`, each distribution's candidates
/// straight into its storage.
fn read_results(reader: &mut Reader<'_>, into: &mut Completions) -> Result<(), WireError> {
    into.clear();
    for _ in 0..reader.len(RESULT_MIN_BYTES)? {
        let ticket = Ticket::new(reader.u64()?);
        let start = into.logits.len();
        for _ in 0..reader.len(SEQ_BYTES)? {
            let mut logits = TokenLogits::default();
            for _ in 0..reader.len(CANDIDATE_BYTES)? {
                logits.candidates.push(Candidate {
                    token: TokenId::new(reader.u32()?),
                    probability: reader.f64()?,
                });
            }
            into.logits.push(logits);
        }
        into.results.push(ForwardResult {
            ticket,
            logits: start..into.logits.len(),
            submitted_ms: reader.f64()?,
            started_ms: reader.f64()?,
            completed_ms: reader.f64()?,
            batch_requests: reader.usize()?,
        });
    }
    Ok(())
}

fn read_counters(reader: &mut Reader<'_>) -> Result<BackendCounters, WireError> {
    Ok(BackendCounters {
        batches: reader.usize()?,
        requests: reader.usize()?,
        draft_requests: reader.usize()?,
        verify_requests: reader.usize()?,
        verify_batches: reader.usize()?,
        probes_scored: reader.usize()?,
        peak_in_flight: reader.usize()?,
        device_busy_ms: reader.f64()?,
        device_idle_ms: reader.f64()?,
    })
}

fn read_device_event(reader: &mut Reader<'_>) -> Result<DeviceEvent, WireError> {
    Ok(DeviceEvent {
        seq: reader.u64()?,
        submitted_ms: reader.f64()?,
        started_ms: reader.f64()?,
        completed_ms: reader.f64()?,
        requests: reader.u64()?,
        charge_tokens: reader.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ForwardRequest;
    use crate::binding::TokenizerBinding;
    use crate::hashing::splitmix64;
    use crate::probes::Probes;
    use proptest::prelude::*;
    use specasr_audio::{Corpus, Split};

    /// A deterministic stream of test values.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn coin(&mut self) -> bool {
            self.next() & 1 == 1
        }

        /// Often an edge value: −0.0, a subnormal, ±∞, a NaN with a random
        /// payload and sign, or any bit pattern at all.
        fn float(&mut self) -> f64 {
            let raw = self.next();
            match self.below(8) {
                0 => -0.0,
                1 => f64::from_bits(raw & 0x000f_ffff_ffff_ffff),
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::from_bits(0x7ff0_0000_0000_0001 | (raw & 0x800f_ffff_ffff_ffff)),
                5 => f64::from_bits(raw),
                _ => (raw >> 11) as f64 / 1024.0,
            }
        }

        fn tokens(&mut self, max: u64) -> Vec<TokenId> {
            let len = self.below(max + 1);
            (0..len).map(|_| TokenId::new(self.next() as u32)).collect()
        }

        fn context(&mut self) -> UtteranceTokens {
            let reference_tokens = self.tokens(12);
            let token_difficulties = reference_tokens.iter().map(|_| self.float()).collect();
            UtteranceTokens {
                id: UtteranceId::new(self.next()),
                reference_tokens,
                token_difficulties,
                eos: TokenId::new(self.next() as u32),
                bos: TokenId::new(self.next() as u32),
                vocab_size: self.next() as u32,
                duration_seconds: self.float(),
                prefill_tokens: self.next() as usize,
            }
        }

        fn push_request(&mut self, contexts: &[Arc<UtteranceTokens>], batch: &mut BackendBatch) {
            let audio = &contexts[self.below(contexts.len() as u64) as usize];
            let probes: Probes = (0..self.below(4)).map(|_| self.tokens(3)).collect();
            let prefix = self.tokens(6);
            batch.push(ForwardRequest {
                audio,
                prefix: &prefix,
                probes: probes.as_slice(),
                charge_tokens: self.next() as usize,
            });
        }

        /// A distribution of up to six candidates, past the inline capacity
        /// as often as not, with any bits at all in its probabilities.
        fn logits(&mut self) -> TokenLogits {
            let mut logits = TokenLogits::default();
            for _ in 0..self.below(7) {
                logits.candidates.push(Candidate {
                    token: TokenId::new(self.next() as u32),
                    probability: self.float(),
                });
            }
            logits
        }

        fn completions(&mut self) -> Completions {
            let mut completions = Completions::new();
            for _ in 0..self.below(4) {
                let start = completions.logits.len();
                for _ in 0..self.below(4) {
                    let logits = self.logits();
                    completions.logits.push(logits);
                }
                completions.results.push(ForwardResult {
                    ticket: Ticket::new(self.next()),
                    logits: start..completions.logits.len(),
                    submitted_ms: self.float(),
                    started_ms: self.float(),
                    completed_ms: self.float(),
                    batch_requests: self.next() as usize,
                });
            }
            completions
        }

        fn counters(&mut self) -> BackendCounters {
            BackendCounters {
                batches: self.next() as usize,
                requests: self.next() as usize,
                draft_requests: self.next() as usize,
                verify_requests: self.next() as usize,
                verify_batches: self.next() as usize,
                probes_scored: self.next() as usize,
                peak_in_flight: self.next() as usize,
                device_busy_ms: self.float(),
                device_idle_ms: self.float(),
            }
        }

        fn device_event(&mut self) -> DeviceEvent {
            DeviceEvent {
                seq: self.next(),
                submitted_ms: self.float(),
                started_ms: self.float(),
                completed_ms: self.float(),
                requests: self.next(),
                charge_tokens: self.next(),
            }
        }

        /// One reply of every variant; the results reply reads `completions`.
        fn replies<'a>(&mut self, completions: &'a Completions) -> Vec<WireReply<'a>> {
            vec![
                WireReply::Submitted {
                    tickets: TicketRange::new(
                        Ticket::new(self.next() >> 1),
                        self.below(5) as usize,
                    ),
                    device_free_ms: self.float(),
                    counters: self.counters(),
                },
                WireReply::Results(completions),
                WireReply::TracingSet(self.coin()),
                WireReply::DeviceEvents((0..self.below(4)).map(|_| self.device_event()).collect()),
                WireReply::Bye,
            ]
        }
    }

    fn encoded_call(call: &WireCall<'_>) -> Vec<u8> {
        let mut frame = Vec::new();
        CallEncoder::new().encode(call, &mut frame);
        frame
    }

    fn encoded_reply(reply: &WireReply<'_>) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_reply(reply, &mut frame);
        frame
    }

    /// Decodes a reply into a fresh buffer and checks it against `reply` bit
    /// for bit.
    fn round_trips(reply: &WireReply<'_>) -> bool {
        let mut completions = Completions::new();
        let decoded =
            decode_reply(&encoded_reply(reply), &mut completions).expect("a valid reply decodes");
        same_reply(&decoded, reply)
    }

    /// Bit-for-bit equality.  `Debug` compares every field and tells −0.0
    /// from 0.0, but prints every NaN alike; the encodings compare the raw
    /// bits of every float.
    fn same_call(a: &WireCall<'_>, b: &WireCall<'_>) -> bool {
        format!("{a:?}") == format!("{b:?}") && encoded_call(a) == encoded_call(b)
    }

    fn same_reply(a: &WireReply<'_>, b: &WireReply<'_>) -> bool {
        format!("{a:?}") == format!("{b:?}") && encoded_reply(a) == encoded_reply(b)
    }

    /// A verify request of `probes` after `prefix`.
    fn push(
        batch: &mut BackendBatch,
        audio: &Arc<UtteranceTokens>,
        prefix: &[TokenId],
        probes: &Probes,
        charge_tokens: usize,
    ) {
        batch.push(ForwardRequest {
            audio,
            prefix,
            probes: probes.as_slice(),
            charge_tokens,
        });
    }

    /// A batch of one empty-probe request per context.
    fn batch_over(contexts: &[&Arc<UtteranceTokens>]) -> BackendBatch {
        let mut batch = BackendBatch::new();
        for context in contexts {
            push(&mut batch, context, &[], &Probes::empty_probe(), 1);
        }
        batch
    }

    fn corpus_contexts() -> Vec<Arc<UtteranceTokens>> {
        let corpus = Corpus::librispeech_like(5, 3);
        let binding = TokenizerBinding::for_corpus(&corpus);
        binding
            .bind_all(corpus.split(Split::TestClean))
            .into_iter()
            .map(Arc::new)
            .collect()
    }

    /// Valid frames of every call variant, each with the decoder state it
    /// expects.
    fn sample_call_frames() -> Vec<(CallDecoder, Vec<u8>)> {
        let contexts = corpus_contexts();
        let mut encoder = CallEncoder::new();
        let mut decoder = CallDecoder::new();
        let mut sink = BackendBatch::new();
        let mut calls = Vec::new();
        let mut first = BackendBatch::new();
        push(
            &mut first,
            &contexts[0],
            &[TokenId::new(3)],
            &Probes::empty_probe(),
            1,
        );
        push(
            &mut first,
            &contexts[0],
            &[TokenId::new(1), TokenId::new(4)],
            &Probes::from_iter([vec![], vec![TokenId::new(9), TokenId::new(2)]]),
            6,
        );
        // Registered on the previous submit.
        let second = batch_over(&[&contexts[0]]);
        for batch in [&first, &second] {
            let mut frame = Vec::new();
            encoder.encode(&WireCall::Submit(-0.0, batch), &mut frame);
            calls.push((decoder.clone(), frame.clone()));
            decoder
                .decode(&frame, &mut sink)
                .expect("a valid submit decodes");
        }
        for call in [
            WireCall::Poll,
            WireCall::SetTracing(true),
            WireCall::TakeDeviceEvents,
            WireCall::Shutdown,
        ] {
            calls.push((decoder.clone(), encoded_call(&call)));
        }
        calls
    }

    #[test]
    fn every_call_variant_round_trips_identically() {
        let contexts = corpus_contexts();
        let mut two = batch_over(&[&contexts[1]]);
        push(
            &mut two,
            &contexts[2],
            &[TokenId::new(8)],
            &Probes::from_iter([vec![TokenId::new(1)], vec![]]),
            4,
        );
        let empty = BackendBatch::new();
        let mut sink = BackendBatch::new();
        for call in [
            WireCall::Submit(f64::from_bits(1), &two),
            WireCall::Submit(f64::NAN, &empty),
            WireCall::Poll,
            WireCall::SetTracing(true),
            WireCall::SetTracing(false),
            WireCall::TakeDeviceEvents,
            WireCall::Shutdown,
        ] {
            let decoded = CallDecoder::new()
                .decode(&encoded_call(&call), &mut sink)
                .expect("a valid call decodes");
            assert!(same_call(&decoded, &call), "{call:?}");
        }
    }

    #[test]
    fn every_reply_variant_round_trips_identically() {
        let mut draw = Draw(11);
        let completions = draw.completions();
        for reply in draw.replies(&completions) {
            assert!(round_trips(&reply), "{reply:?}");
        }
    }

    #[test]
    fn a_six_candidate_distribution_round_trips_bit_for_bit() {
        let mut logits = TokenLogits::default();
        for (token, probability) in (0..6).zip([0.5, -0.0, f64::NAN, 1e-310, f64::INFINITY, 0.1]) {
            logits.candidates.push(Candidate {
                token: TokenId::new(token),
                probability,
            });
        }
        let mut completions = Completions::new();
        completions
            .logits
            .extend([logits.clone(), TokenLogits::default()]);
        completions.results.push(ForwardResult {
            ticket: Ticket::new(3),
            logits: 0..2,
            submitted_ms: 1.0,
            started_ms: 2.0,
            completed_ms: 3.0,
            batch_requests: 1,
        });
        let reply = WireReply::Results(&completions);
        let mut sink = Completions::new();
        let decoded = decode_reply(&encoded_reply(&reply), &mut sink).expect("decodes");
        assert!(same_reply(&decoded, &reply));
        let (_, decoded) = sink.iter().next().expect("one result");
        assert_eq!(decoded[0].len(), 6);
        assert!(
            decoded[0]
                .iter()
                .zip(logits.iter())
                .all(|(a, b)| a.token == b.token
                    && a.probability.to_bits() == b.probability.to_bits())
        );
    }

    #[test]
    fn decoding_refills_the_callers_buffers() {
        let contexts = corpus_contexts();
        let mut encoder = CallEncoder::new();
        let mut decoder = CallDecoder::new();
        let mut frame = Vec::new();
        let mut batch = BackendBatch::new();
        let wide = batch_over(&[&contexts[0], &contexts[1], &contexts[2]]);
        let narrow = batch_over(&[&contexts[1]]);
        for sent in [&wide, &narrow] {
            encoder.encode(&WireCall::Submit(0.0, sent), &mut frame);
            let call = decoder.decode(&frame, &mut batch).expect("decodes");
            assert_eq!(call, WireCall::Submit(0.0, sent));
        }
        assert_eq!(batch, narrow, "a submit replaces the batch");

        let mut draw = Draw(5);
        let (first, second) = (draw.completions(), Completions::new());
        let mut sink = Completions::new();
        for sent in [&first, &second] {
            let reply = encoded_reply(&WireReply::Results(sent));
            decode_reply(&reply, &mut sink).expect("decodes");
        }
        assert!(sink.is_empty(), "a results reply replaces the completions");
    }

    #[test]
    fn wire_requests_rebuild_the_exact_in_process_request() {
        let contexts = corpus_contexts();
        let probes = Probes::from_iter([vec![TokenId::new(1)], vec![]]);
        let mut batch = BackendBatch::new();
        let shared = |batch: &mut BackendBatch| {
            push(batch, &contexts[0], &[TokenId::new(8)], &probes, 4);
        };
        let mut encoder = CallEncoder::new();
        let mut decoder = CallDecoder::new();
        let mut frame = Vec::new();
        let mut exchange = |batch: &BackendBatch| {
            let call = WireCall::Submit(3.0, batch);
            encoder.encode(&call, &mut frame);
            let mut decoded = BackendBatch::new();
            assert_eq!(decoder.decode(&frame, &mut decoded).expect("decodes"), call);
            decoded
        };
        shared(&mut batch);
        push(
            &mut batch,
            &contexts[1],
            &[TokenId::new(2)],
            &Probes::empty_probe(),
            1,
        );
        shared(&mut batch);
        let contexts_of = |batch: &BackendBatch| -> Vec<Arc<UtteranceTokens>> {
            batch
                .requests()
                .map(|request| Arc::clone(request.audio))
                .collect()
        };
        let first = contexts_of(&exchange(&batch));
        // Requests that share a context on the client share one on the
        // worker, and later submits resolve to that same registration.
        assert!(Arc::ptr_eq(&first[0], &first[2]));
        assert!(!Arc::ptr_eq(&first[0], &first[1]));
        batch.clear();
        shared(&mut batch);
        let second = contexts_of(&exchange(&batch));
        assert!(Arc::ptr_eq(&first[0], &second[0]));
    }

    proptest! {
        #[test]
        fn random_calls_and_replies_round_trip_bit_for_bit(seed in any::<u64>()) {
            let mut draw = Draw(seed);
            let mut encoder = CallEncoder::new();
            let mut decoder = CallDecoder::new();
            let mut frame = Vec::new();
            let mut batch = BackendBatch::new();
            let mut sink = BackendBatch::new();
            let mut live: Vec<Arc<UtteranceTokens>> =
                (0..3).map(|_| Arc::new(draw.context())).collect();
            for _ in 0..5 {
                // Retire a session now and then: its context is forgotten on
                // this submit and a fresh one registers in its place.
                if draw.coin() {
                    live.remove(0);
                    live.push(Arc::new(draw.context()));
                }
                batch.clear();
                for _ in 0..draw.below(5) {
                    draw.push_request(&live, &mut batch);
                }
                let call = WireCall::Submit(draw.float(), &batch);
                encoder.encode(&call, &mut frame);
                let decoded = decoder.decode(&frame, &mut sink).expect("a valid submit decodes");
                prop_assert!(same_call(&decoded, &call), "{call:?}");
                prop_assert_eq!(encoder.contexts.len(), decoder.contexts.len());
                prop_assert!(encoder.contexts.len() <= live.len());
            }
            let completions = draw.completions();
            for reply in draw.replies(&completions) {
                prop_assert!(round_trips(&reply), "{reply:?}");
            }
        }

        #[test]
        fn random_bytes_decode_to_errors_without_panicking(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            tag in 0u8..8,
        ) {
            let mut batch = BackendBatch::new();
            let mut completions = Completions::new();
            prop_assert!(CallDecoder::new().decode(&bytes, &mut batch).is_err());
            prop_assert!(decode_reply(&bytes, &mut completions).is_err());
            // Behind a well-formed length prefix and a real tag, the same
            // bytes reach every field decoder; a frame may happen to be
            // valid, but no decoder may panic.
            for base in [CALL_SUBMIT - 1, REPLY_SUBMITTED - 1] {
                let mut frame = Vec::new();
                begin(&mut frame, base + tag);
                frame.extend_from_slice(&bytes);
                seal(&mut frame);
                let _ = CallDecoder::new().decode(&frame, &mut batch);
                let _ = decode_reply(&frame, &mut completions);
            }
        }
    }

    /// Every strict prefix of `frame`, as cut and with its length prefix
    /// patched to match — the second form reaches the field decoders.
    fn strict_prefixes(frame: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..frame.len()).flat_map(move |cut| {
            let mut resealed = frame[..cut].to_vec();
            if cut > TAG_AT {
                seal(&mut resealed);
            }
            [frame[..cut].to_vec(), resealed]
        })
    }

    #[test]
    fn every_strict_prefix_of_a_valid_frame_is_an_error() {
        let mut batch = BackendBatch::new();
        for (decoder, frame) in &sample_call_frames() {
            assert!(decoder.clone().decode(frame, &mut batch).is_ok());
            for prefix in strict_prefixes(frame) {
                assert!(
                    decoder.clone().decode(&prefix, &mut batch).is_err(),
                    "{prefix:?}"
                );
            }
        }
        let mut draw = Draw(7);
        let completions = draw.completions();
        let mut sink = Completions::new();
        for frame in draw.replies(&completions).iter().map(encoded_reply) {
            assert!(decode_reply(&frame, &mut sink).is_ok());
            for prefix in strict_prefixes(&frame) {
                assert!(decode_reply(&prefix, &mut sink).is_err(), "{prefix:?}");
            }
        }
    }

    #[test]
    fn malformed_frames_name_their_fault() {
        let contexts = corpus_contexts();
        let mut encoder = CallEncoder::new();
        let mut batch = BackendBatch::new();
        push(&mut batch, &contexts[0], &[], &Probes::new(), 1);
        let mut frame = Vec::new();
        encoder.encode(&WireCall::Submit(0.0, &batch), &mut frame);
        encoder.encode(&WireCall::Submit(0.0, &batch), &mut frame);
        // The second submit names context 0, which a fresh decoder never saw.
        let mut sink = BackendBatch::new();
        assert_eq!(
            CallDecoder::new().decode(&frame, &mut sink),
            Err(WireError::UnknownContext(0))
        );

        let mut completions = Completions::new();
        let poll = encoded_call(&WireCall::Poll);
        assert_eq!(
            decode_reply(&poll, &mut completions),
            Err(WireError::UnknownTag {
                at: TAG_AT,
                field: "reply",
                tag: CALL_POLL,
            })
        );
        let mut long = poll.clone();
        long.push(0);
        assert_eq!(
            CallDecoder::new().decode(&long, &mut sink),
            Err(WireError::TrailingBytes { at: 5 })
        );
        assert_eq!(
            CallDecoder::new().decode(&poll[..3], &mut sink),
            Err(WireError::Truncated { at: 0, needed: 4 })
        );

        // A sequence length the rest of the frame cannot hold is refused
        // before anything is allocated for it.
        let mut events = encoded_reply(&WireReply::DeviceEvents(Vec::new()));
        events[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_reply(&events, &mut completions),
            Err(WireError::LengthPastEnd {
                at: 5,
                len: u32::MAX,
                remaining: 0,
            })
        );

        // A submit's tickets must be consecutive: bump the second one.
        let mut submitted = encoded_reply(&WireReply::Submitted {
            tickets: TicketRange::new(Ticket::new(4), 3),
            device_free_ms: 0.0,
            counters: BackendCounters::default(),
        });
        submitted[17] += 1;
        assert_eq!(
            decode_reply(&submitted, &mut completions),
            Err(WireError::TicketGap { at: 17 })
        );
        let text = WireError::UnknownContext(3).to_string();
        assert!(text.contains("context id 3"), "{text}");
    }

    #[test]
    fn dropping_every_session_empties_both_context_tables() {
        let mut sessions = corpus_contexts();
        let mut encoder = CallEncoder::new();
        let mut decoder = CallDecoder::new();
        let mut frame = Vec::new();
        let mut sink = BackendBatch::new();
        let mut exchange = |encoder: &mut CallEncoder, batch: BackendBatch| {
            encoder.encode(&WireCall::Submit(0.0, &batch), &mut frame);
            drop(batch);
            decoder.decode(&frame, &mut sink).expect("decodes");
            decoder.contexts.len()
        };
        for _ in 0..3 {
            let batch = batch_over(&sessions.iter().collect::<Vec<_>>());
            assert_eq!(exchange(&mut encoder, batch), sessions.len());
        }
        // A stream chunk swaps a session's context for a new prefix view:
        // the old one is forgotten, the new one registered.
        sessions[0] = Arc::new((*sessions[0]).clone());
        assert_eq!(exchange(&mut encoder, batch_over(&[&sessions[0]])), 3);
        assert_eq!(encoder.contexts.len(), 3);

        sessions.clear();
        assert_eq!(exchange(&mut encoder, BackendBatch::new()), 0);
        assert_eq!(encoder.contexts.len(), 0);
    }

    #[test]
    fn a_released_context_refills_in_place_under_a_new_id() {
        let mut sessions = corpus_contexts();
        let live = sessions.len();
        let sources = corpus_contexts();
        let mut encoder = CallEncoder::new();
        let mut decoder = CallDecoder::new();
        let mut frame = Vec::new();
        let mut sink = BackendBatch::new();
        let id_of = |encoder: &CallEncoder, context: &Arc<UtteranceTokens>| {
            let at = encoder.position(context).expect("registered");
            encoder.contexts[at].0
        };
        encoder.encode(
            &WireCall::Submit(0.0, &batch_over(&sessions.iter().collect::<Vec<_>>())),
            &mut frame,
        );
        decoder.decode(&frame, &mut sink).expect("decodes");

        for step in 0..24 {
            let session = step % live;
            let old_id = id_of(&encoder, &sessions[session]);
            let worker_copy = Arc::as_ptr(&decoder.contexts[&old_id]);
            encoder.release(&sessions[session]);
            // The encoder dropped its clone: the session's context is its
            // own again, and refills in place with another utterance's view.
            let context = Arc::get_mut(&mut sessions[session]).expect("released");
            let source = &sources[(step + 1) % live];
            let seconds = source.duration_seconds() * (step % 4 + 1) as f64 / 4.0;
            assert!(source.fill_prefix_view(context, seconds, 2, 0.3));

            let batch = batch_over(&[&sessions[session]]);
            encoder.encode(&WireCall::Submit(0.0, &batch), &mut frame);
            drop(batch);
            decoder.decode(&frame, &mut sink).expect("decodes");
            let new_id = id_of(&encoder, &sessions[session]);
            assert_ne!(new_id, old_id, "a refilled context registers anew");
            assert!(
                !decoder.contexts.contains_key(&old_id),
                "the old id is forgotten"
            );
            let decoded = &decoder.contexts[&new_id];
            assert_eq!(**decoded, *sessions[session], "the worker reads the refill");
            assert_eq!(
                Arc::as_ptr(decoded),
                worker_copy,
                "the worker refills the forgotten context's buffers"
            );
            assert!(decoder.contexts.len() + decoder.spare.len() <= live);
            assert_eq!(encoder.contexts.len(), live);
        }
    }

    #[test]
    fn a_registered_verify_request_costs_only_its_prefix_and_probe_tokens() {
        let utterance = |len: usize| {
            Arc::new(UtteranceTokens::new(
                UtteranceId::new(len as u64),
                (0..len).map(|t| TokenId::new(t as u32)).collect(),
                vec![0.25; len],
                TokenId::new(1),
                TokenId::new(0),
                4096,
                len as f64 / 3.0,
            ))
        };
        let prefix: Vec<TokenId> = (0..5).map(TokenId::new).collect();
        let probes = Probes::from_iter([vec![], vec![TokenId::new(7)], vec![TokenId::new(7); 3]]);
        // Frame length prefix, tag, `now_ms`, empty forget list, request
        // count; then the context reference, prefix length, probe count and
        // charge width; then 4 bytes per prefix token, per probe length and
        // per probe token (0 + 1 + 3 of them).
        let fixed = 4 + 1 + 8 + 4 + 4 + (1 + 8 + 4 + 4 + 8);
        let expected = fixed + 4 * prefix.len() + 4 * probes.len() + 4 * 4;
        for len in [2, 40, 400] {
            let context = utterance(len);
            let mut batch = BackendBatch::new();
            push(&mut batch, &context, &prefix, &probes, 6);
            let call = WireCall::Submit(12.5, &batch);
            let mut encoder = CallEncoder::new();
            let mut frame = Vec::new();
            encoder.encode(&call, &mut frame);
            let registering = frame.len();
            encoder.encode(&call, &mut frame);
            assert_eq!(frame.len(), expected, "context of {len} tokens");
            // Only the first use inlines the context: its fixed fields plus
            // one token and one difficulty per reference position.
            assert_eq!(
                registering - frame.len(),
                8 + 4 + 4 + 4 + 8 + 8 + 4 + 12 * len
            );
        }
    }
}
