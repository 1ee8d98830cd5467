//! Serde adapters for [`ChaCha8Rng`] snapshots.
//!
//! A ChaCha stream is fully described by its seed, stream id, and word
//! position; capturing those three lets a checkpointed search resume with
//! a bit-identical draw sequence. The 128-bit word position is split into
//! two `u64` halves so the format survives JSON (whose numbers cannot hold
//! a `u128`). Usable directly or as a `#[serde(with = "rng_serde")]` field
//! attribute — the Q-learning placers in `breaksym-core`, the annealer's
//! `SearchRun` in `breaksym-anneal`, and every serve-side checkpoint type
//! snapshot their RNGs through this module.
//!
//! It lives here, in the lowest crate that snapshots an RNG; `breaksym-core`
//! re-exports it as `breaksym_core::rng_serde`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// The serialised form of a [`ChaCha8Rng`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngState {
    /// The 32-byte ChaCha seed.
    pub seed: [u8; 32],
    /// High 64 bits of the 128-bit word position.
    pub word_pos_hi: u64,
    /// Low 64 bits of the 128-bit word position.
    pub word_pos_lo: u64,
    /// The stream id.
    pub stream: u64,
}

/// Captures `rng`'s full state.
pub fn capture(rng: &ChaCha8Rng) -> RngState {
    let pos = rng.get_word_pos();
    RngState {
        seed: rng.get_seed(),
        word_pos_hi: (pos >> 64) as u64,
        word_pos_lo: pos as u64,
        stream: rng.get_stream(),
    }
}

/// Rebuilds a generator that continues exactly where `state` was captured.
pub fn restore(state: &RngState) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::from_seed(state.seed);
    rng.set_stream(state.stream);
    rng.set_word_pos((u128::from(state.word_pos_hi) << 64) | u128::from(state.word_pos_lo));
    rng
}

/// The `#[serde(with)]` serialisation hook.
///
/// # Errors
///
/// Propagates serialiser failures.
pub fn serialize<S: Serializer>(rng: &ChaCha8Rng, s: S) -> Result<S::Ok, S::Error> {
    capture(rng).serialize(s)
}

/// The `#[serde(with)]` deserialisation hook.
///
/// # Errors
///
/// Fails on malformed input.
pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<ChaCha8Rng, D::Error> {
    Ok(restore(&RngState::deserialize(d)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn captured_rng_resumes_with_identical_draws() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        // Burn an odd number of draws so the word position is mid-block.
        for _ in 0..17 {
            let _: f64 = rng.gen_range(0.0..1.0);
        }
        let mut resumed = restore(&capture(&rng));
        for _ in 0..64 {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = resumed.gen_range(0.0..1.0);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(rng, resumed);
    }

    #[test]
    fn state_survives_json() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let _: u64 = rng.gen();
        let state = capture(&rng);
        let json = serde_json::to_string(&state).unwrap();
        let back: RngState = serde_json::from_str(&json).unwrap();
        assert_eq!(state, back);
        assert_eq!(restore(&back), rng);
    }
}
