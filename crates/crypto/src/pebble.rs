//! Jakobsson-style pebbled key chains: O(log n) memory, amortized
//! O(log n) one-way applications per sequential key.
//!
//! A [`crate::KeyChain`] materialises every key up front — fine for a
//! 400-interval figure run, fatal for the ROADMAP's million-interval
//! campaigns (10 MB of chain per sender, times a fleet). TESLA-family
//! deployments solve this with *pebbling* (Jakobsson 2002, "Fractal hash
//! sequence representation and traversal"): keep a logarithmic set of
//! checkpoint keys ("pebbles") along the chain and regenerate the rest
//! on demand, placing new pebbles at the midpoints of each walked
//! segment so future walks halve.
//!
//! This implementation uses the recursive-halving variant: serving key
//! `i` walks down from the nearest pebble above `i`, dropping pebbles at
//! the binary midpoints of the walked segment. For the sender's
//! sequential access pattern (`K_1, K_2, …, K_n`, with bounded
//! look-back for TESLA's `d`-delayed disclosure) this costs O(n log n)
//! total one-way applications — amortized O(log n) per interval — while
//! never holding more than O(log n) pebbles. Both bounds are pinned by
//! tests; equality with [`crate::KeyChain`] key-for-key is pinned by the
//! `dap-testkit` property suite.

use std::cell::RefCell;

use crate::keychain::{chain_head, ChainAnchor, ChainStore, Key};
use crate::oneway::{one_way, Domain};

/// Pebbles at or below `served_index - LOOKBACK` are pruned. The window
/// covers repeated same-interval lookups (announce then reveal) and
/// TESLA's disclosure look-back (`key(i)` then `key(i - d)`); requests
/// further back stay correct but walk from a higher pebble.
const DEFAULT_LOOKBACK: usize = 16;

#[derive(Debug, Clone)]
struct PebbleState {
    /// `(index, key)` checkpoints, sorted ascending by index. The head
    /// `(len, K_len)` is always resident.
    pebbles: Vec<(usize, Key)>,
    /// Total one-way applications since construction (instrumentation).
    steps: u64,
    /// High-water mark of resident pebbles (instrumentation).
    max_pebbles: usize,
    lookback: usize,
}

impl PebbleState {
    /// Returns `K_i`, walking down from the nearest pebble at or above
    /// `i` and pebbling the binary midpoints of the walked segment.
    fn serve(&mut self, i: usize, domain: Domain) -> Key {
        let pos = self.pebbles.partition_point(|(idx, _)| *idx < i);
        let (mut cur_idx, mut cur) = self.pebbles[pos];
        if cur_idx == i {
            self.prune(i);
            return cur;
        }

        // Binary midpoints of (i, cur_idx), descending — the positions
        // that halve every future walk into this segment.
        let mut marks: Vec<usize> = Vec::new();
        let mut hi = cur_idx;
        while hi - i > 1 {
            let mid = i + (hi - i) / 2;
            marks.push(mid);
            hi = mid;
        }

        let mut fresh: Vec<(usize, Key)> = Vec::with_capacity(marks.len() + 1);
        let mut next_mark = marks.iter().copied().peekable();
        while cur_idx > i {
            cur = one_way(domain, &cur);
            cur_idx -= 1;
            self.steps += 1;
            if next_mark.peek() == Some(&cur_idx) {
                next_mark.next();
                fresh.push((cur_idx, cur));
            }
        }
        fresh.push((i, cur));
        // The walked segment (i, old cur_idx) held no pebbles, so the
        // fresh ones (descending) slot in contiguously before `pos`.
        fresh.reverse();
        self.pebbles.splice(pos..pos, fresh);
        self.max_pebbles = self.max_pebbles.max(self.pebbles.len());
        self.prune(i);
        cur
    }

    /// Drops pebbles strictly below the retention window of `i`.
    fn prune(&mut self, i: usize) {
        let floor = i.saturating_sub(self.lookback);
        self.pebbles.retain(|(idx, _)| *idx >= floor);
        self.max_pebbles = self.max_pebbles.max(self.pebbles.len());
    }
}

/// A sender-side key chain held as O(log n) pebbles.
///
/// Drop-in for [`crate::KeyChain`] behind the [`ChainStore`] trait:
/// same `(seed, len, domain)` → same keys, commitment and anchor.
///
/// ```
/// use dap_crypto::{ChainStore, Domain, KeyChain, PebbledChain};
///
/// let dense = KeyChain::generate(b"seed", 64, Domain::F);
/// let pebbled = PebbledChain::generate(b"seed", 64, Domain::F);
/// assert_eq!(pebbled.commitment(), *dense.commitment());
/// for i in 0..=64 {
///     assert_eq!(ChainStore::key(&pebbled, i), dense.key(i).copied());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PebbledChain {
    domain: Domain,
    len: usize,
    commitment: Key,
    state: RefCell<PebbleState>,
}

impl PebbledChain {
    /// Generates a pebbled chain with keys `K_0 ..= K_len` from `seed` —
    /// key-for-key identical to `KeyChain::generate(seed, len, domain)`.
    ///
    /// Construction performs the one unavoidable full walk (computing
    /// the commitment `K_0` from the head) and seeds the pebble set with
    /// the halving checkpoints of `[0, len]`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    pub fn generate(seed: &[u8], len: usize, domain: Domain) -> Self {
        assert!(len > 0, "key chain must have at least one usable key");
        Self::from_head(chain_head(seed), len, domain)
    }

    /// Generates a pebbled chain whose last key `K_len` is exactly
    /// `head` — key-for-key identical to `KeyChain::from_head`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    pub fn from_head(head: Key, len: usize, domain: Domain) -> Self {
        assert!(len > 0, "key chain must have at least one usable key");
        let mut state = PebbleState {
            pebbles: vec![(len, head)],
            steps: 0,
            max_pebbles: 1,
            lookback: DEFAULT_LOOKBACK,
        };
        let commitment = state.serve(0, domain);
        Self {
            domain,
            len,
            commitment,
            state: RefCell::new(state),
        }
    }

    /// Replaces the look-back retention window (in intervals). Raise it
    /// when a protocol re-reads keys more than [`struct@PebbledChain`]'s
    /// default window behind the newest served index.
    #[must_use]
    pub fn with_lookback(self, lookback: usize) -> Self {
        self.state.borrow_mut().lookback = lookback;
        self
    }

    /// `K_i` by value, or `None` past the end of the chain. Amortized
    /// O(log n) one-way applications under sequential access.
    #[must_use]
    pub fn key(&self, i: usize) -> Option<Key> {
        if i > self.len {
            return None;
        }
        if i == 0 {
            return Some(self.commitment);
        }
        Some(self.state.borrow_mut().serve(i, self.domain))
    }

    /// The commitment `K_0` (cached at construction, O(1)).
    #[must_use]
    pub fn commitment(&self) -> Key {
        self.commitment
    }

    /// Number of usable keys (`K_1 ..= K_len`). Always at least 1 by
    /// construction, so there is deliberately no `is_empty`.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The one-way function domain this chain uses.
    #[must_use]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Pebbles currently resident (memory instrumentation).
    #[must_use]
    pub fn resident_pebbles(&self) -> usize {
        self.state.borrow().pebbles.len()
    }

    /// High-water mark of resident pebbles since construction.
    #[must_use]
    pub fn max_resident_pebbles(&self) -> usize {
        self.state.borrow().max_pebbles
    }

    /// Total one-way applications since construction (work
    /// instrumentation; construction's full walk included).
    #[must_use]
    pub fn one_way_steps(&self) -> u64 {
        self.state.borrow().steps
    }
}

impl ChainStore for PebbledChain {
    fn key(&self, i: usize) -> Option<Key> {
        PebbledChain::key(self, i)
    }

    fn commitment(&self) -> Key {
        self.commitment
    }

    fn len(&self) -> usize {
        self.len
    }

    fn domain(&self) -> Domain {
        self.domain
    }

    fn anchor(&self) -> ChainAnchor {
        ChainAnchor::new(self.commitment, 0, self.domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyChain;

    #[test]
    fn agrees_with_dense_chain_everywhere() {
        for len in [1usize, 2, 3, 7, 8, 9, 64, 100] {
            let dense = KeyChain::generate(b"s", len, Domain::F);
            let pebbled = PebbledChain::generate(b"s", len, Domain::F);
            assert_eq!(pebbled.commitment(), *dense.commitment(), "len {len}");
            for i in 0..=len {
                assert_eq!(pebbled.key(i), dense.key(i).copied(), "len {len} index {i}");
            }
            assert_eq!(pebbled.key(len + 1), None);
        }
    }

    #[test]
    fn from_head_agrees_with_dense_from_head() {
        let head = Key::derive(b"t", b"head");
        let dense = KeyChain::from_head(head, 33, Domain::F1);
        let pebbled = PebbledChain::from_head(head, 33, Domain::F1);
        for i in (0..=33).rev() {
            assert_eq!(pebbled.key(i), dense.key(i).copied(), "index {i}");
        }
    }

    #[test]
    fn sequential_traversal_stays_logarithmic_in_memory() {
        let n = 4096usize;
        let chain = PebbledChain::generate(b"big", n, Domain::F);
        for i in 1..=n {
            let _ = chain.key(i).unwrap();
        }
        // log2(4096) = 12; allow a small constant factor for the
        // look-back window and in-flight midpoints.
        let bound = 4 * 12 + DEFAULT_LOOKBACK + 4;
        assert!(
            chain.max_resident_pebbles() <= bound,
            "{} pebbles resident (bound {bound})",
            chain.max_resident_pebbles()
        );
    }

    #[test]
    fn sequential_traversal_is_n_log_n_work() {
        let n = 4096u64;
        let chain = PebbledChain::generate(b"big", n as usize, Domain::F);
        for i in 1..=n as usize {
            let _ = chain.key(i).unwrap();
        }
        // Construction walks n steps; traversal adds O(n log n).
        let bound = n * 12 * 2 + n;
        assert!(
            chain.one_way_steps() <= bound,
            "{} one-way steps (bound {bound})",
            chain.one_way_steps()
        );
    }

    #[test]
    fn lookback_serves_teslas_disclosure_pattern() {
        // packet(i) reads key(i) then key(i - d): both must resolve.
        let chain = PebbledChain::generate(b"s", 256, Domain::F);
        let dense = KeyChain::generate(b"s", 256, Domain::F);
        for i in 3..=256usize {
            assert_eq!(chain.key(i), dense.key(i).copied());
            assert_eq!(chain.key(i - 2), dense.key(i - 2).copied());
        }
    }

    #[test]
    fn deep_lookback_past_window_is_still_correct() {
        let chain = PebbledChain::generate(b"s", 512, Domain::F);
        let dense = KeyChain::generate(b"s", 512, Domain::F);
        for i in 1..=512usize {
            let _ = chain.key(i);
        }
        // Far behind the retention window: slow path, same answer.
        assert_eq!(chain.key(5), dense.key(5).copied());
        assert_eq!(chain.key(300), dense.key(300).copied());
    }

    #[test]
    fn repeated_lookup_of_same_index_is_free() {
        let chain = PebbledChain::generate(b"s", 128, Domain::F);
        let _ = chain.key(64);
        let steps = chain.one_way_steps();
        let _ = chain.key(64);
        assert_eq!(chain.one_way_steps(), steps, "second lookup re-walked");
    }

    #[test]
    fn with_lookback_widens_retention() {
        let chain = PebbledChain::generate(b"s", 64, Domain::F).with_lookback(64);
        for i in 1..=64usize {
            let _ = chain.key(i);
        }
        let steps = chain.one_way_steps();
        // Everything within the widened window is still resident.
        let _ = chain.key(10);
        assert_eq!(chain.one_way_steps(), steps);
    }

    #[test]
    #[should_panic(expected = "at least one usable key")]
    fn zero_length_panics() {
        let _ = PebbledChain::generate(b"s", 0, Domain::F);
    }

    #[test]
    fn anchor_matches_dense_anchor() {
        let dense = KeyChain::generate(b"s", 16, Domain::F);
        let pebbled = PebbledChain::generate(b"s", 16, Domain::F);
        assert_eq!(ChainStore::anchor(&pebbled), dense.anchor());
        let mut anchor = ChainStore::anchor(&pebbled);
        for i in 1..=16u64 {
            let key = pebbled.key(i as usize).unwrap();
            assert_eq!(anchor.accept(&key, i), Ok(1));
        }
    }

    #[test]
    fn clone_is_independent() {
        let a = PebbledChain::generate(b"s", 32, Domain::F);
        let b = a.clone();
        for i in 1..=32usize {
            let _ = a.key(i);
        }
        assert_eq!(b.key(1), a.key(1));
    }
}
