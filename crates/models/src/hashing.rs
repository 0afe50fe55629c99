//! Deterministic pseudo-random streams keyed by structured tuples.
//!
//! Every stochastic decision in the simulated models (substitution errors,
//! agreement draws, logit values) must be a *pure function* of the utterance,
//! the position, the model identity, and a purpose tag, so that:
//!
//! * decoding is reproducible across runs and platforms,
//! * a model queried twice with the same prefix returns the same logits
//!   (models are effectively stateless, as a KV-cached transformer is), and
//! * independent decisions use decorrelated streams.
//!
//! The implementation is a SplitMix64-style avalanche over the xor-folded key
//! components — not cryptographic, but well mixed and dependency-free.

/// Purpose tags that decorrelate the different random decisions taken at the
/// same (utterance, position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Purpose {
    /// Whether the model substitutes the reference token at a position.
    Substitution,
    /// Which wrong token is emitted when a substitution happens.
    SubstitutionChoice,
    /// Whether the draft model agrees with the target at a position.
    Agreement,
    /// Which wrong token the draft emits when it disagrees.
    DisagreementChoice,
    /// Whether the target token appears at rank 2 of a disagreeing draft.
    RunnerUpRank,
    /// The normalised confidence (logit) value of the top-1 token.
    Confidence,
    /// Auxiliary candidate tokens filling the rest of the top-k list.
    Filler,
    /// Whether the CTC head's greedy collapse agrees with the target decoder
    /// at a position (the draft-free CTC drafter's error stream).
    CtcAgreement,
    /// Which wrong token the CTC collapse yields when it disagrees.
    CtcChoice,
    /// The per-frame peakiness of the CTC posterior (confidence gating).
    CtcConfidence,
}

impl Purpose {
    fn tag(self) -> u64 {
        match self {
            Purpose::Substitution => 0x01,
            Purpose::SubstitutionChoice => 0x02,
            Purpose::Agreement => 0x03,
            Purpose::DisagreementChoice => 0x04,
            Purpose::RunnerUpRank => 0x05,
            Purpose::Confidence => 0x06,
            Purpose::Filler => 0x07,
            Purpose::CtcAgreement => 0x08,
            Purpose::CtcChoice => 0x09,
            Purpose::CtcConfidence => 0x0a,
        }
    }
}

/// SplitMix64 finaliser: a fast, well-mixed 64-bit avalanche.
///
/// Exported workspace-wide (see [`crate::splitmix64`]) so every component
/// that needs a deterministic hash — model decision streams here, stream
/// seeds in the `specasr-server` scheduler — mixes through one canonical
/// implementation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a structured key into a 64-bit value.
pub(crate) fn hash_key(
    seed: u64,
    utterance: u64,
    position: u64,
    extra: u64,
    purpose: Purpose,
) -> u64 {
    let mut h = splitmix64(seed ^ MODEL_STREAM_SALT);
    h = splitmix64(h ^ utterance.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    h = splitmix64(h ^ position.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
    h = splitmix64(h ^ extra.wrapping_mul(0x1656_67b1_9e37_79f9));
    splitmix64(h ^ purpose.tag())
}

/// A uniform draw in `[0, 1)` from a structured key.
pub(crate) fn uniform(
    seed: u64,
    utterance: u64,
    position: u64,
    extra: u64,
    purpose: Purpose,
) -> f64 {
    let h = hash_key(seed, utterance, position, extra, purpose);
    // Use the top 53 bits for a double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Workspace-wide salt so model streams do not collide with corpus streams.
const MODEL_STREAM_SALT: u64 = 0x0005_9eca_0000_a51d;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        let a = hash_key(1, 2, 3, 4, Purpose::Agreement);
        let b = hash_key(1, 2, 3, 4, Purpose::Agreement);
        assert_eq!(a, b);
    }

    #[test]
    fn different_purposes_decorrelate() {
        let a = hash_key(1, 2, 3, 4, Purpose::Agreement);
        let b = hash_key(1, 2, 3, 4, Purpose::Confidence);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        for p in 0..1000u64 {
            let u = uniform(42, 7, p, 0, Purpose::Substitution);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut below_half = 0usize;
        let n = 10_000u64;
        for p in 0..n {
            if uniform(9, 1, p, 0, Purpose::Confidence) < 0.5 {
                below_half += 1;
            }
        }
        let fraction = below_half as f64 / n as f64;
        assert!((0.45..0.55).contains(&fraction), "fraction {fraction}");
    }

    #[test]
    fn position_changes_change_the_draw() {
        let a = uniform(1, 1, 10, 0, Purpose::Agreement);
        let b = uniform(1, 1, 11, 0, Purpose::Agreement);
        assert_ne!(a, b);
    }
}
