//! Deterministic randomness for reproducible simulations.
//!
//! Every stochastic decision in the simulator (packet loss, jitter,
//! reservoir sampling inside protocol nodes) draws from a [`SimRng`]
//! seeded once per experiment, so a run is a pure function of its seed
//! and configuration.
//!
//! The generator is an in-tree **xoshiro256++** (Blackman & Vigna 2019)
//! whose 256-bit state is expanded from the 64-bit experiment seed with
//! SplitMix64, exactly as the xoshiro authors recommend. No external
//! crates are involved — the byte stream for a given seed is fixed by
//! this file alone, which is what makes the golden regression tests in
//! `tests/determinism.rs` meaningful.

use dap_crypto::rng::{splitmix64, FillBytes, SplitMix64, UniformF64};

/// A seedable RNG with support for deriving independent child streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from a 64-bit experiment seed.
    ///
    /// The four state words are successive SplitMix64 outputs, so every
    /// seed (including 0) yields a well-mixed, non-degenerate state.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let state = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { state }
    }

    /// The next 64 bits of the stream (xoshiro256++ core step).
    #[must_use = "discarding a draw still advances the stream"]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Fills `dest` with uniform bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Derives an independent child RNG identified by `stream`.
    ///
    /// Different `stream` values yield streams that do not overlap in
    /// practice (they seed from distinct SplitMix-style mixes), so e.g.
    /// each node can get its own stream without cross-contaminating the
    /// loss process.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the stream id with fresh entropy from the parent so that
        // forking twice with the same id still yields distinct children.
        let base = self.next_u64();
        let mixed = splitmix64(base ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        SimRng::new(mixed)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    #[must_use = "discarding a draw still advances the stream"]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's widening-multiply rejection method: unbiased for
    /// every `n`, with at most one extra draw in expectation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use = "discarding a draw still advances the stream"]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
            // Rejected draw: retry keeps the distribution exactly uniform.
        }
    }

    /// Uniform float in `[0, 1)` (53 uniform mantissa bits).
    #[must_use = "discarding a draw still advances the stream"]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FillBytes for SimRng {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        SimRng::fill_bytes(self, dest);
    }
}

impl UniformF64 for SimRng {
    fn unit_f64(&mut self) -> f64 {
        self.unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_reference_vector() {
        // xoshiro256++ with state expanded from seed 0 by SplitMix64:
        // state = [splitmix(0), splitmix'(…), …]. The first output is
        // rotl(s0 + s3, 23) + s0, pinned here so any accidental change
        // to the generator (or its seeding) fails loudly.
        let rng = SimRng::new(0);
        let s = rng.state;
        let expect = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let mut fresh = SimRng::new(0);
        assert_eq!(fresh.next_u64(), expect);
        // And the state words come from SplitMix64 on counter seeds.
        assert_eq!(s[0], splitmix64(0));
        assert_eq!(s[1], splitmix64(0x9e37_79b9_7f4a_7c15));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut parent1 = SimRng::new(9);
        let mut parent2 = SimRng::new(9);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent = SimRng::new(9);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn repeated_fork_same_stream_differs() {
        let mut parent = SimRng::new(9);
        let mut a = parent.fork(1);
        let mut b = parent.fork(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_streams_are_statistically_distinct() {
        // Child streams with different ids must look unrelated: compare
        // 64 aligned draws pairwise across 8 children — no collisions,
        // and bitwise correlation stays near 50%.
        let mut parent = SimRng::new(2024);
        let mut children: Vec<SimRng> = (0..8).map(|i| parent.fork(i)).collect();
        let draws: Vec<Vec<u64>> = children
            .iter_mut()
            .map(|c| (0..64).map(|_| c.next_u64()).collect())
            .collect();
        for i in 0..draws.len() {
            for j in (i + 1)..draws.len() {
                let equal = draws[i]
                    .iter()
                    .zip(&draws[j])
                    .filter(|(a, b)| a == b)
                    .count();
                assert_eq!(equal, 0, "streams {i} and {j} collide");
                let matching_bits: u32 = draws[i]
                    .iter()
                    .zip(&draws[j])
                    .map(|(a, b)| (!(a ^ b)).count_ones())
                    .sum();
                // 64 draws × 64 bits = 4096 comparisons; expect ~2048.
                assert!(
                    (1700..2400).contains(&matching_bits),
                    "streams {i},{j}: {matching_bits} matching bits"
                );
            }
        }
    }

    #[test]
    fn fork_reproduces_from_equal_parent_state() {
        // Same parent state + same id ⇒ identical child stream, for
        // several ids and across multiple draws.
        for id in [0u64, 1, 7, u64::MAX] {
            let mut p1 = SimRng::new(77);
            let mut p2 = p1.clone();
            let mut c1 = p1.fork(id);
            let mut c2 = p2.fork(id);
            for _ in 0..32 {
                assert_eq!(c1.next_u64(), c2.next_u64());
            }
            // The fork consumed parent entropy identically too.
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn chance_edges() {
        let mut rng = SimRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_frequency_roughly_matches() {
        let mut rng = SimRng::new(4);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn below_in_range() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = SimRng::new(8);
        let mut counts = [0u32; 5];
        for _ in 0..10_000 {
            counts[rng.below(5) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!((1_800..2_200).contains(c), "bucket {i}: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        let _ = SimRng::new(0).below(0);
    }

    #[test]
    fn unit_in_range() {
        let mut rng = SimRng::new(6);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn fill_bytes_deterministic_and_odd_lengths() {
        let mut a = SimRng::new(12);
        let mut b = SimRng::new(12);
        let mut x = [0u8; 11];
        let mut y = [0u8; 11];
        a.fill_bytes(&mut x);
        b.fill_bytes(&mut y);
        assert_eq!(x, y);
        assert_ne!(x, [0u8; 11]);
    }
}
