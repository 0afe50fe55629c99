//! The streaming decode session: horizon tracking, per-chunk re-decodes from
//! the committed prefix, and the lossless partial-commit rule.

use serde::{Deserialize, Serialize};
use specasr::{DecodeSession, DecodeStats, DrafterKind, Policy};
use specasr_models::{AsrDecoderModel, DecodeClock, UtteranceTokens};
use specasr_runtime::{KvPool, PoolError};
use specasr_tokenizer::TokenId;

use crate::config::StreamConfig;

/// One emitted partial transcript: what the commit rule decided after a
/// re-decode of the audio received so far.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartialTranscript {
    /// Position of this partial in the stream's emission order (0-based).
    pub partial_index: usize,
    /// Audio horizon (seconds received) this partial was decoded against.
    pub audio_seconds: f64,
    /// Total committed (final) tokens after this partial.
    pub committed_tokens: usize,
    /// Tokens this partial newly committed.
    pub newly_committed: usize,
    /// Length of the full hypothesis (committed prefix plus unstable tail).
    pub hypothesis_tokens: usize,
    /// Uncommitted hypothesis positions that changed or vanished relative to
    /// the previous partial — the instability clients would see as flicker.
    pub retracted_tokens: usize,
    /// `true` for the final partial: the full audio was received and every
    /// hypothesis token was committed.
    pub is_final: bool,
}

/// One utterance's streaming decode: the audio horizon grows chunk by chunk,
/// each chunk triggers a re-decode of the received prefix from the committed
/// tokens, and the commit rule turns stable hypothesis tokens into final
/// transcript tokens that are never retracted.
///
/// The decode itself runs through [`specasr::DecodeSession`] — either the
/// one-call [`StreamingSession::redecode`] (standalone use, private KV pool)
/// or the [`StreamingSession::resume_decode`] / [`StreamingSession::absorb`]
/// pair (serving use: the scheduler steps the session round by round against
/// its shared paged pool, and may preempt and deterministically restore it
/// between rounds).
///
/// Under a tracing-enabled scheduler, every chunk arrival, emitted partial,
/// and retraction of a served stream is also stamped into the
/// `specasr-trace` flight recorder (`ChunkArrived` / `PartialEmitted` /
/// `Retraction` events), so a Perfetto timeline shows the same commit-rule
/// behaviour these counters summarise.
#[derive(Debug, Clone)]
pub struct StreamingSession {
    policy: Policy,
    audio: UtteranceTokens,
    config: StreamConfig,
    received_seconds: f64,
    complete: bool,
    committed: Vec<TokenId>,
    last_hypothesis: Vec<TokenId>,
    /// `survival[p]`: consecutive re-decodes hypothesis position `p` has
    /// reported the same token (aligned with `last_hypothesis`).
    survival: Vec<usize>,
    partials: usize,
    retracted_tokens: usize,
    emitted_tokens: usize,
    decode_stats: DecodeStats,
    clock: DecodeClock,
    finished: bool,
}

impl StreamingSession {
    /// Opens a streaming session for `audio` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(policy: Policy, audio: UtteranceTokens, config: StreamConfig) -> Self {
        config.validate();
        StreamingSession {
            policy,
            audio,
            config,
            received_seconds: 0.0,
            complete: false,
            committed: Vec::new(),
            last_hypothesis: Vec::new(),
            survival: Vec::new(),
            partials: 0,
            retracted_tokens: 0,
            emitted_tokens: 0,
            decode_stats: DecodeStats::new(),
            clock: DecodeClock::new(),
            finished: false,
        }
    }

    /// The policy this stream decodes under.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The full bound utterance being streamed.
    pub fn audio(&self) -> &UtteranceTokens {
        &self.audio
    }

    /// The streaming configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Audio seconds received so far.
    pub fn received_seconds(&self) -> f64 {
        self.received_seconds
    }

    /// `true` once the full audio has arrived.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// `true` once the final partial was emitted: every token is committed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The committed (never-retracted) transcript so far.
    pub fn committed(&self) -> &[TokenId] {
        &self.committed
    }

    /// The most recent full hypothesis (committed prefix + unstable tail).
    pub fn hypothesis(&self) -> &[TokenId] {
        &self.last_hypothesis
    }

    /// The final transcript.  Meaningful once
    /// [`StreamingSession::is_finished`] returns `true`.
    pub fn final_tokens(&self) -> &[TokenId] {
        &self.committed
    }

    /// Partials emitted so far.
    pub fn partials_emitted(&self) -> usize {
        self.partials
    }

    /// Uncommitted hypothesis tokens shown across all partials (the
    /// denominator of the retraction rate).
    pub fn emitted_tokens(&self) -> usize {
        self.emitted_tokens
    }

    /// Hypothesis positions that changed or vanished between consecutive
    /// partials.
    pub fn retracted_tokens(&self) -> usize {
        self.retracted_tokens
    }

    /// Fraction of shown (uncommitted) hypothesis tokens later retracted —
    /// the partial-stability metric.  0.0 when nothing was shown.
    pub fn retraction_rate(&self) -> f64 {
        if self.emitted_tokens == 0 {
            0.0
        } else {
            self.retracted_tokens as f64 / self.emitted_tokens as f64
        }
    }

    /// Decode statistics pooled across all re-decodes (speculation rounds,
    /// acceptance, recycling).
    pub fn decode_stats(&self) -> &DecodeStats {
        &self.decode_stats
    }

    /// Device-time clock pooled across all re-decodes.  The difference
    /// between this and an offline decode of the same utterance is the
    /// price paid for streaming (the re-decoded unstable tails).
    pub fn clock(&self) -> &DecodeClock {
        &self.clock
    }

    /// Extends the audio horizon to `up_to_seconds` (monotone; clamped to
    /// the utterance duration).  Marks the stream complete once the full
    /// duration has arrived.
    pub fn push_audio(&mut self, up_to_seconds: f64) {
        self.received_seconds = self
            .received_seconds
            .max(up_to_seconds.min(self.audio.duration_seconds()));
        if self.received_seconds >= self.audio.duration_seconds() {
            self.complete = true;
        }
    }

    /// The decodable view of the audio received so far (`None` while no
    /// token is fully audible yet).
    pub fn view(&self) -> Option<UtteranceTokens> {
        self.audio.prefix_view(
            self.received_seconds,
            self.config.boundary_tokens,
            self.config.boundary_boost,
        )
    }

    /// Starts the re-decode of the current view from the committed prefix,
    /// with its KV blocks allocated from `pool` (see
    /// [`specasr::DecodeSession::new`] for sharing and error semantics).
    /// Returns `None` while the view is empty.
    pub fn resume_decode(&self, pool: &mut KvPool) -> Option<Result<DecodeSession, PoolError>> {
        let view = self.view()?;
        Some(DecodeSession::new(
            self.policy,
            DrafterKind::ModelDraft,
            view,
            &self.committed,
            pool,
        ))
    }

    /// Absorbs a finished re-decode of the current view: pools its
    /// statistics, applies the commit rule, and emits the partial.
    ///
    /// The caller must pass a session started by
    /// [`StreamingSession::resume_decode`] *after the last
    /// [`StreamingSession::push_audio`] call* — the commit rule trusts that
    /// the hypothesis extends the committed prefix at the current horizon.
    ///
    /// # Panics
    ///
    /// Panics if the hypothesis does not start with the committed prefix
    /// (the caller resumed from stale state).
    pub fn absorb(&mut self, decode: &DecodeSession) -> PartialTranscript {
        let hypothesis = decode.tokens();
        assert!(
            hypothesis.starts_with(&self.committed),
            "a re-decode must extend the committed prefix"
        );
        self.decode_stats.merge(decode.stats());
        self.clock.merge(decode.clock());
        let committed_before = self.committed.len();

        // Survival/retraction bookkeeping over the uncommitted region.
        let mut retracted = 0usize;
        for (position, &token) in hypothesis.iter().enumerate().skip(committed_before) {
            let survived = self.last_hypothesis.get(position) == Some(&token);
            if self.last_hypothesis.get(position).is_some() && !survived {
                retracted += 1;
            }
            if position < self.survival.len() {
                self.survival[position] = if survived {
                    self.survival[position] + 1
                } else {
                    1
                };
            } else {
                self.survival.push(1);
            }
        }
        // Positions that vanished entirely also count as retractions.
        retracted += self.last_hypothesis.len().saturating_sub(hypothesis.len());
        self.survival.truncate(hypothesis.len());

        // Commit rule: everything on the final re-decode (it *is* the
        // offline decode); otherwise horizon margin AND K-stability.
        if self.complete {
            self.committed = hypothesis.to_vec();
            self.finished = true;
        } else {
            let stable_limit = hypothesis.len().saturating_sub(self.config.boundary_tokens);
            while self.committed.len() < stable_limit
                && self.survival[self.committed.len()] >= self.config.stability_rounds
            {
                self.committed.push(hypothesis[self.committed.len()]);
            }
        }

        let partial = PartialTranscript {
            partial_index: self.partials,
            audio_seconds: self.received_seconds,
            committed_tokens: self.committed.len(),
            newly_committed: self.committed.len() - committed_before,
            hypothesis_tokens: hypothesis.len(),
            retracted_tokens: retracted,
            is_final: self.finished,
        };
        self.partials += 1;
        self.retracted_tokens += retracted;
        self.emitted_tokens += hypothesis.len() - self.committed.len().min(hypothesis.len());
        self.last_hypothesis = hypothesis.to_vec();
        partial
    }

    /// One complete streaming step against a private unbounded pool:
    /// re-decode the current view to its end and absorb the result.  Returns
    /// `None` while no token is audible yet.
    pub fn redecode<D, T>(&mut self, draft: &D, target: &T) -> Option<PartialTranscript>
    where
        D: AsrDecoderModel + ?Sized,
        T: AsrDecoderModel + ?Sized,
    {
        let mut pool = KvPool::unbounded(16);
        let mut session = self
            .resume_decode(&mut pool)?
            .expect("an unbounded pool always admits");
        while !session
            .step(&mut pool, draft, target)
            .expect("an unbounded pool never exhausts")
        {}
        Some(self.absorb(&session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr::{AdaptiveConfig, SparseTreeConfig, SpeculativeConfig};
    use specasr_audio::{chunk_schedule, Corpus, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};

    fn setup(split: Split) -> (SimulatedAsrModel, SimulatedAsrModel, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(61, 6);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(split));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target, audio)
    }

    fn all_policies() -> Vec<Policy> {
        vec![
            Policy::Autoregressive,
            Policy::Speculative(SpeculativeConfig::short_single()),
            Policy::Speculative(SpeculativeConfig::short_double_beam()),
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        ]
    }

    /// Streams `audio` chunk by chunk and returns the session plus every
    /// committed-prefix snapshot (for never-retracted checks).
    fn stream_utterance(
        policy: Policy,
        audio: &UtteranceTokens,
        config: StreamConfig,
        draft: &SimulatedAsrModel,
        target: &SimulatedAsrModel,
    ) -> (StreamingSession, Vec<Vec<TokenId>>) {
        let mut session = StreamingSession::new(policy, audio.clone(), config);
        let mut snapshots = Vec::new();
        for chunk in chunk_schedule(audio.duration_seconds(), &config.chunk) {
            session.push_audio(chunk.end_seconds);
            if session.redecode(draft, target).is_some() {
                snapshots.push(session.committed().to_vec());
            }
        }
        assert!(session.is_complete());
        assert!(session.is_finished());
        (session, snapshots)
    }

    #[test]
    fn streamed_transcripts_are_lossless_for_every_policy() {
        let (draft, target, audio) = setup(Split::TestOther);
        for policy in all_policies() {
            for utt in &audio {
                let offline = policy.decode(&draft, &target, utt);
                let (session, snapshots) =
                    stream_utterance(policy, utt, StreamConfig::default(), &draft, &target);
                assert_eq!(
                    session.final_tokens(),
                    &offline.tokens[..],
                    "policy {}",
                    policy.name()
                );
                // No committed token is ever retracted: every snapshot is a
                // prefix of the next and of the final transcript.
                for pair in snapshots.windows(2) {
                    assert!(pair[1].starts_with(&pair[0]), "policy {}", policy.name());
                }
                assert!(snapshots
                    .last()
                    .expect("at least one partial")
                    .starts_with(&snapshots[0]));
            }
        }
    }

    #[test]
    fn losslessness_holds_across_chunk_sizes_and_commit_parameters() {
        let (draft, target, audio) = setup(Split::TestClean);
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let offline = policy.decode(&draft, &target, &audio[0]);
        for chunk_seconds in [0.2, 0.5, 1.0, 3.0, 60.0] {
            for (stability, boundary) in [(1, 0), (1, 3), (2, 2), (4, 5)] {
                let config = StreamConfig::default()
                    .with_chunk_seconds(chunk_seconds)
                    .with_stability_rounds(stability)
                    .with_boundary_tokens(boundary);
                let (session, _) = stream_utterance(policy, &audio[0], config, &draft, &target);
                assert_eq!(
                    session.final_tokens(),
                    &offline.tokens[..],
                    "chunk {chunk_seconds}s K={stability} boundary={boundary}"
                );
            }
        }
    }

    #[test]
    fn boundary_boost_produces_real_retractions_on_noisy_audio() {
        let (draft, target, audio) = setup(Split::TestOther);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let config = StreamConfig::default()
            .with_chunk_seconds(0.3)
            .with_boundary_boost(0.8)
            .with_boundary_tokens(3);
        let mut retracted = 0usize;
        let mut emitted = 0usize;
        for utt in &audio {
            let (session, _) = stream_utterance(policy, utt, config, &draft, &target);
            retracted += session.retracted_tokens();
            emitted += session.emitted_tokens();
            assert!(session.retraction_rate() <= 1.0);
        }
        assert!(emitted > 0, "partials must show unstable tails");
        assert!(
            retracted > 0,
            "an aggressive boundary boost on noisy audio must cause retractions"
        );
    }

    #[test]
    fn partials_report_monotone_commits_and_a_final_flag() {
        let (draft, target, audio) = setup(Split::DevClean);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let config = StreamConfig::default().with_chunk_seconds(0.4);
        let mut session = StreamingSession::new(policy, audio[0].clone(), config);
        let mut partials = Vec::new();
        for chunk in chunk_schedule(audio[0].duration_seconds(), &config.chunk) {
            session.push_audio(chunk.end_seconds);
            if let Some(partial) = session.redecode(&draft, &target) {
                partials.push(partial);
            }
        }
        assert!(!partials.is_empty());
        for (index, partial) in partials.iter().enumerate() {
            assert_eq!(partial.partial_index, index);
            assert!(partial.committed_tokens <= partial.hypothesis_tokens);
        }
        for pair in partials.windows(2) {
            assert!(pair[1].committed_tokens >= pair[0].committed_tokens);
            assert!(pair[1].audio_seconds >= pair[0].audio_seconds);
        }
        let last = partials.last().expect("non-empty");
        assert!(last.is_final);
        assert_eq!(last.committed_tokens, last.hypothesis_tokens);
        assert!(partials[..partials.len() - 1].iter().all(|p| !p.is_final));
        assert_eq!(session.partials_emitted(), partials.len());
    }

    #[test]
    fn streaming_device_time_exceeds_the_offline_decode() {
        let (draft, target, audio) = setup(Split::TestClean);
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let offline = policy.decode(&draft, &target, &audio[1]);
        let (session, _) = stream_utterance(
            policy,
            &audio[1],
            StreamConfig::default().with_chunk_seconds(0.5),
            &draft,
            &target,
        );
        // Re-decoding unstable tails costs extra device time; streaming can
        // never be cheaper than decoding once at the end.
        assert!(
            session.clock().breakdown().decode_ms() >= offline.clock.breakdown().decode_ms() - 1e-9
        );
    }

    #[test]
    fn pushing_audio_is_monotone_and_clamped() {
        let (_draft, _target, audio) = setup(Split::DevOther);
        let policy = Policy::Autoregressive;
        let mut session = StreamingSession::new(policy, audio[0].clone(), StreamConfig::default());
        session.push_audio(1.0);
        session.push_audio(0.2); // going backwards is ignored
        assert!(
            (session.received_seconds() - 1.0_f64.min(audio[0].duration_seconds())).abs() < 1e-12
        );
        session.push_audio(audio[0].duration_seconds() * 10.0);
        assert!((session.received_seconds() - audio[0].duration_seconds()).abs() < 1e-12);
        assert!(session.is_complete());
    }

    #[test]
    fn no_partial_is_emitted_before_any_token_is_audible() {
        let (draft, target, audio) = setup(Split::DevClean);
        let policy = Policy::Autoregressive;
        let mut session = StreamingSession::new(policy, audio[0].clone(), StreamConfig::default());
        assert!(session.view().is_none());
        assert!(session.redecode(&draft, &target).is_none());
        assert_eq!(session.partials_emitted(), 0);
    }

    #[test]
    #[should_panic(expected = "committed prefix")]
    fn absorbing_a_stale_outcome_panics() {
        let (draft, target, audio) = setup(Split::DevClean);
        let policy = Policy::Autoregressive;
        let mut session = StreamingSession::new(policy, audio[0].clone(), StreamConfig::default());
        session.push_audio(audio[0].duration_seconds());
        let first = session.redecode(&draft, &target).expect("audible");
        assert!(first.is_final);
        // Absorbing an outcome that does not extend the committed transcript
        // must be rejected.
        let mut other = StreamingSession::new(policy, audio[1].clone(), StreamConfig::default());
        other.push_audio(audio[1].duration_seconds());
        let mut pool = KvPool::unbounded(16);
        let mut stale = other
            .resume_decode(&mut pool)
            .expect("audible")
            .expect("unbounded");
        while !stale.step(&mut pool, &draft, &target).expect("unbounded") {}
        session.absorb(&stale);
    }

    #[test]
    fn pooled_resume_streams_match_private_streams() {
        let (draft, target, audio) = setup(Split::TestClean);
        let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());
        let config = StreamConfig::default().with_chunk_seconds(0.6);
        let mut pool = KvPool::bounded(2048, 16);

        let (private, _) = stream_utterance(policy, &audio[2], config, &draft, &target);

        let mut pooled = StreamingSession::new(policy, audio[2].clone(), config);
        for chunk in chunk_schedule(audio[2].duration_seconds(), &config.chunk) {
            pooled.push_audio(chunk.end_seconds);
            let Some(result) = pooled.resume_decode(&mut pool) else {
                continue;
            };
            let mut session = result.expect("pool has room");
            while !session.is_finished() {
                let drafted = session.draft_round(&draft);
                session
                    .verify_round(&mut pool, &target, drafted)
                    .expect("pool has room");
            }
            session.release_kv(&mut pool);
            pooled.absorb(&session);
        }
        assert_eq!(pooled.final_tokens(), private.final_tokens());
        assert_eq!(pool.used_blocks(), 0, "released streams leave no blocks");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use specasr::{AdaptiveConfig, SparseTreeConfig, SpeculativeConfig};
    use specasr_audio::{chunk_schedule, Corpus, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};

    fn policy_strategy() -> impl Strategy<Value = Policy> {
        (0usize..5).prop_map(|index| match index {
            0 => Policy::Autoregressive,
            1 => Policy::Speculative(SpeculativeConfig::short_single()),
            2 => Policy::Speculative(SpeculativeConfig::short_double_beam()),
            3 => Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            _ => Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For random utterances, chunk sizes, jitter, and commit parameters,
        /// the streamed final transcript equals the offline decode and no
        /// committed token is ever retracted — across all decoder policies.
        #[test]
        fn streaming_is_lossless_and_never_retracts_commits(
            policy in policy_strategy(),
            corpus_seed in 1u64..500,
            utterance_index in 0usize..4,
            chunk_ms in 150u64..2_500,
            stability in 1usize..4,
            boundary in 0usize..5,
            boost in 0u32..80,
        ) {
            let corpus = Corpus::librispeech_like(corpus_seed, 1);
            let binding = TokenizerBinding::for_corpus(&corpus);
            let split = Split::ALL[utterance_index % Split::ALL.len()];
            let utterance = &corpus.split(split)[0];
            let audio = binding.bind(utterance);
            let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
            let draft =
                SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
            let offline = policy.decode(&draft, &target, &audio);

            let config = StreamConfig::default()
                .with_chunk_seconds(chunk_ms as f64 / 1_000.0)
                .with_stability_rounds(stability)
                .with_boundary_tokens(boundary)
                .with_boundary_boost(f64::from(boost) / 100.0)
                .with_seed(corpus_seed);
            let mut session = StreamingSession::new(policy, audio.clone(), config);
            let mut previous_committed: Vec<specasr_tokenizer::TokenId> = Vec::new();
            for chunk in chunk_schedule(audio.duration_seconds(), &config.chunk) {
                session.push_audio(chunk.end_seconds);
                if session.redecode(&draft, &target).is_some() {
                    // Commits only ever extend — never retract.
                    prop_assert!(session.committed().starts_with(&previous_committed));
                    previous_committed = session.committed().to_vec();
                    // And every committed prefix is a prefix of the offline
                    // transcript (losslessness holds mid-stream, not just at
                    // the end).
                    prop_assert_eq!(
                        &offline.tokens[..session.committed().len()],
                        session.committed()
                    );
                }
            }
            prop_assert!(session.is_finished());
            prop_assert_eq!(session.final_tokens(), &offline.tokens[..]);
        }
    }
}
