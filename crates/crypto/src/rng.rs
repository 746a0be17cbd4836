//! Minimal randomness abstractions for a zero-dependency workspace.
//!
//! The workspace builds hermetically, so there is no `rand` crate to
//! agree on. Everything that needs random bytes (key sampling, forged
//! MACs in tests, the simulator's loss processes) speaks one of two tiny
//! traits instead:
//!
//! * [`FillBytes`] — "fill this slice with uniform bytes";
//! * [`UniformF64`] — "give me a uniform draw from `[0, 1)`".
//!
//! `dap-simnet`'s `SimRng` implements both; this crate additionally
//! ships [`SplitMix64`], a tiny self-contained generator used by unit
//! tests and as the seeding function for larger generators downstream.

/// A source of uniformly random bytes.
pub trait FillBytes {
    /// Fills `dest` with uniformly distributed bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// A source of uniform floating-point draws.
pub trait UniformF64 {
    /// A uniform draw from `[0, 1)`.
    fn unit_f64(&mut self) -> f64;
}

/// The SplitMix64 mixing function: maps a counter to a well-distributed
/// 64-bit value (Steele, Lea, Flood — OOPSLA 2014).
///
/// Public because it doubles as the workspace's standard way to derive
/// seeds: `dap-simnet` seeds its xoshiro256++ state from four successive
/// SplitMix64 outputs, as the xoshiro authors recommend, and `dap-net`'s
/// pool routes every ingested datagram to a shard with it, so it is
/// `#[inline]` across crates.
#[inline]
#[must_use]
pub const fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A self-contained SplitMix64 generator.
///
/// Small state, full 2^64 period, passes BigCrush — more than enough for
/// sampling test keys and forged tags. Not a CSPRNG; nothing in this
/// workspace needs one (all "secrets" are simulation inputs).
///
/// ```
/// use dap_crypto::rng::{FillBytes, SplitMix64};
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// let mut x = [0u8; 16];
/// let mut y = [0u8; 16];
/// a.fill_bytes(&mut x);
/// b.fill_bytes(&mut y);
/// assert_eq!(x, y);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl FillBytes for SplitMix64 {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl UniformF64 for SplitMix64 {
    fn unit_f64(&mut self) -> f64 {
        // 53 uniform mantissa bits → [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567 (reference implementation,
        // Vigna's splitmix64.c).
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(g.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn fn_and_generator_agree() {
        let mut g = SplitMix64::new(42);
        assert_eq!(g.next_u64(), splitmix64(42));
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut g = SplitMix64::new(9);
        let mut buf = [0u8; 13];
        g.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
        // Deterministic.
        let mut h = SplitMix64::new(9);
        let mut buf2 = [0u8; 13];
        h.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut g = SplitMix64::new(3);
        for _ in 0..1000 {
            let u = g.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
