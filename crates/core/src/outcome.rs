//! The result of decoding one utterance with a policy.

use serde::{Deserialize, Serialize};
use specasr_models::{DecodeClock, LatencyBreakdown};
use specasr_tokenizer::TokenId;

use crate::stats::DecodeStats;

/// Everything a policy produces for one utterance: the transcript tokens, the
/// round statistics and the simulated latency clock.  The KV-cache
/// bookkeeping stays with the [`crate::DecodeSession`] that decoded it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeOutcome {
    /// The decoded transcript tokens (EOS excluded).
    pub tokens: Vec<TokenId>,
    /// Round/acceptance statistics (Fig. 12).
    pub stats: DecodeStats,
    /// Simulated latency accounting (Figs. 7, 11 and Tab. II).
    pub clock: DecodeClock,
}

impl DecodeOutcome {
    /// The latency breakdown of this decode.
    pub fn latency(&self) -> LatencyBreakdown {
        self.clock.breakdown()
    }

    /// Decoder-only simulated milliseconds (draft + target).
    pub fn decode_ms(&self) -> f64 {
        self.clock.breakdown().decode_ms()
    }

    /// Number of decoded tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Returns `true` if the transcript is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr_models::LatencyModel;

    #[test]
    fn latency_helpers_read_the_clock() {
        let mut clock = DecodeClock::new();
        let model = LatencyModel::new(10.0, 0.5, 0.1);
        clock.charge_target(&model, 4);
        let outcome = DecodeOutcome {
            tokens: vec![TokenId::new(5)],
            stats: DecodeStats::new(),
            clock,
        };
        assert!((outcome.decode_ms() - 12.0).abs() < 1e-12);
        assert!((outcome.latency().target_ms - 12.0).abs() < 1e-12);
        assert_eq!(outcome.len(), 1);
        assert!(!outcome.is_empty());
    }
}
