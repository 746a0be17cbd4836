//! One-way key chains with delayed disclosure — the heart of every TESLA
//! variant.
//!
//! A sender draws a random `K_n` and derives `K_i = F(K_{i+1})` down to the
//! *commitment* `K_0`, which is distributed to receivers out of band (in
//! the protocols, during bootstrapping). Keys are then *used* in increasing
//! index order and *disclosed* `d` intervals later. A receiver who trusts
//! `K_j` verifies any later disclosure `K_i` (`i > j`) by checking
//! `F^{i-j}(K_i) == K_j`, which also recovers from lost disclosures.
//!
//! The sender holds the whole chain as a [`KeyChain`], every key
//! materialised (10 bytes a key, O(1) lookup); a receiver holds only a
//! [`ChainAnchor`], its latest trusted key and index, which decides every
//! disclosed key, ahead of it or behind it, in at most
//! [`ChainAnchor::MAX_STEPS`] one-way steps.

use std::sync::OnceLock;

use crate::error::ChainVerifyError;
use crate::hmac::{hmac_sha256, PreparedMacKey};
use crate::oneway::{one_way, one_way_iter, Domain};

/// Label deriving a chain head from a seed.
const CHAIN_HEAD_LABEL: &[u8] = b"crowdsense-dap/chain-head";

/// `Key::derive(CHAIN_HEAD_LABEL, seed)`, the head `K_len` of the chain
/// [`KeyChain::generate`] builds from `seed`. The label is a constant,
/// so its HMAC key schedule runs once per process, as
/// [`Domain::prepared`] does for the one-way labels.
fn chain_head(seed: &[u8]) -> Key {
    static PREPARED: OnceLock<PreparedMacKey> = OnceLock::new();
    let tag = PREPARED
        .get_or_init(|| PreparedMacKey::new(CHAIN_HEAD_LABEL))
        .mac(seed);
    Key::from_slice(&tag[..Key::LEN]).expect("digest longer than key")
}

/// An 80-bit symmetric key, the size the paper uses on the wire
/// (`Ki (80b)` in Fig. 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key([u8; Key::LEN]);

impl Key {
    /// Key length in bytes (80 bits).
    pub const LEN: usize = 10;
    /// Key length in bits, as counted in the paper's memory budget.
    pub const BITS: u32 = 80;

    /// Builds a key from exactly [`Key::LEN`] bytes; returns `None` on any
    /// other length.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        bytes.try_into().ok().map(Key)
    }

    /// Derives a key from arbitrary seed material (not on any chain).
    ///
    /// Used for receiver-local secrets such as `K_recv` in DAP and for
    /// turning a seed into the head of a chain.
    #[must_use]
    pub fn derive(label: &[u8], seed: &[u8]) -> Self {
        let tag = hmac_sha256(label, seed);
        Key::from_slice(&tag[..Key::LEN]).expect("digest longer than key")
    }

    /// Samples a uniformly random key.
    #[must_use]
    pub fn random<R: crate::rng::FillBytes + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; Key::LEN];
        rng.fill_bytes(&mut bytes[..]);
        Key(bytes)
    }

    /// The raw key bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Key({self})")
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A full one-way key chain, held by the **sender**.
///
/// `keys[i]` is `K_i`; `keys[0]` is the commitment distributed to
/// receivers. Interval `i` (1-based) authenticates with `K_i`.
///
/// ```
/// use dap_crypto::{KeyChain, Domain, oneway::one_way};
///
/// let chain = KeyChain::generate(b"seed", 8, Domain::F);
/// // Chain property: K_i = F(K_{i+1}).
/// let k3 = chain.key(3).unwrap();
/// let k4 = chain.key(4).unwrap();
/// assert_eq!(*k3, one_way(Domain::F, k4));
/// ```
#[derive(Debug, Clone)]
pub struct KeyChain {
    keys: Vec<Key>,
    domain: Domain,
}

impl KeyChain {
    /// Generates a chain with keys `K_0 ..= K_len` from `seed`.
    ///
    /// `K_len` is derived from the seed; every earlier key follows by
    /// applying the domain's one-way function. The same `(seed, len,
    /// domain)` always yields the same chain, which keeps simulations
    /// reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`; a chain needs at least one usable key.
    #[must_use]
    pub fn generate(seed: &[u8], len: usize, domain: Domain) -> Self {
        assert!(len > 0, "key chain must have at least one usable key");
        Self::from_head(chain_head(seed), len, domain)
    }

    /// Generates a chain whose last key `K_len` is exactly `head`.
    ///
    /// Multi-level μTESLA uses this to tie a low-level chain to the
    /// high-level chain: `K_{i,n} = F01(K_i)` makes the low-level head a
    /// *deterministic image* of a high-level key.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    pub fn from_head(head: Key, len: usize, domain: Domain) -> Self {
        assert!(len > 0, "key chain must have at least one usable key");
        let mut keys = vec![head; len + 1];
        for i in (0..len).rev() {
            keys[i] = one_way(domain, &keys[i + 1]);
        }
        Self { keys, domain }
    }

    /// `K_i`, or `None` when `i` is past the end of the chain.
    #[must_use]
    pub fn key(&self, i: usize) -> Option<&Key> {
        self.keys.get(i)
    }

    /// The commitment `K_0`.
    #[must_use]
    pub fn commitment(&self) -> &Key {
        &self.keys[0]
    }

    /// Number of *usable* keys (`K_1 ..= K_len`), i.e. the `len` passed at
    /// generation time. Always at least 1: generation rejects empty
    /// chains, so there is deliberately no `is_empty` — it could never
    /// return `true`.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.keys.len() - 1
    }

    /// A receiver-side anchor bootstrapped from the commitment.
    #[must_use]
    pub fn anchor(&self) -> ChainAnchor {
        ChainAnchor::new(*self.commitment(), 0, self.domain)
    }
}

/// The **receiver** side of a key chain: the most recent authenticated key
/// plus its index.
///
/// It alone decides whether a disclosed key `K_i` is interval `i`'s
/// chain key. Ahead of the anchored `K_j`, `K_i` must walk `i - j`
/// one-way steps down to it; on success the anchor advances, so later
/// verifications get cheaper and the chain can never be rolled back. At
/// or behind the anchor, `K_i` must equal [`key_at`](Self::key_at).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainAnchor {
    key: Key,
    index: u64,
    domain: Domain,
}

impl ChainAnchor {
    /// Bound on the one-way steps between the anchor and any index it
    /// checks or derives, ahead of it or behind it, checked before any
    /// step: bounds the CPU an attacker can burn with a far-off index.
    pub const MAX_STEPS: u64 = 4096;

    /// Creates an anchor trusting `key` at `index`.
    #[must_use]
    pub fn new(key: Key, index: u64, domain: Domain) -> Self {
        Self { key, index, domain }
    }

    /// The currently trusted key.
    #[must_use]
    pub fn key(&self) -> &Key {
        &self.key
    }

    /// The index of the currently trusted key.
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }

    /// One-way steps between the anchor and `index`, either way, within
    /// [`MAX_STEPS`](Self::MAX_STEPS).
    fn steps_to(&self, index: u64) -> Result<u64, ChainVerifyError> {
        let steps = self.index.abs_diff(index);
        if steps > Self::MAX_STEPS {
            return Err(ChainVerifyError::TooFar {
                steps,
                max_steps: Self::MAX_STEPS,
            });
        }
        Ok(steps)
    }

    /// Checks that `candidate` is the chain key for `claimed_index`,
    /// ahead of the anchor, without mutating the anchor. Returns the
    /// number of one-way steps used.
    ///
    /// # Errors
    ///
    /// * [`ChainVerifyError::NotAhead`] — `claimed_index <=` anchor index.
    /// * [`ChainVerifyError::TooFar`] — gap exceeds
    ///   [`MAX_STEPS`](Self::MAX_STEPS).
    /// * [`ChainVerifyError::Mismatch`] — the candidate is not on the chain.
    pub fn verify(&self, candidate: &Key, claimed_index: u64) -> Result<u64, ChainVerifyError> {
        if claimed_index <= self.index {
            return Err(ChainVerifyError::NotAhead {
                anchor_index: self.index,
                claimed_index,
            });
        }
        let steps = self.steps_to(claimed_index)?;
        let image = one_way_iter(self.domain, candidate, steps as usize);
        if crate::ct_eq(image.as_bytes(), self.key.as_bytes()) {
            Ok(steps)
        } else {
            Err(ChainVerifyError::Mismatch)
        }
    }

    /// [`verify`](Self::verify), then advance the anchor to the verified
    /// key on success.
    ///
    /// # Errors
    ///
    /// Same as [`verify`](Self::verify); the anchor is unchanged on error.
    pub fn accept(&mut self, candidate: &Key, claimed_index: u64) -> Result<u64, ChainVerifyError> {
        let steps = self.verify(candidate, claimed_index)?;
        self.key = *candidate;
        self.index = claimed_index;
        Ok(steps)
    }

    /// `K_index` derived from the anchor, for `1 ≤ index ≤` the anchor
    /// index and within [`MAX_STEPS`](Self::MAX_STEPS) of it; `None`
    /// otherwise. Ahead of the anchor the key is not known yet, and
    /// `K_0` is the public commitment, the key of no interval.
    #[must_use]
    pub fn key_at(&self, index: u64) -> Option<Key> {
        if index == 0 || index > self.index {
            return None;
        }
        let steps = self.steps_to(index).ok()?;
        Some(one_way_iter(self.domain, &self.key, steps as usize))
    }

    /// Weak authentication, in either direction: is `candidate` the
    /// chain key of interval `claimed_index`?
    ///
    /// A key ahead of the anchor is checked by [`accept`](Self::accept)
    /// and advances the anchor; a key at or behind it must equal
    /// [`key_at`](Self::key_at). Interval 0 never passes. Returns how
    /// far the anchor advanced: 0 for a key at or behind it.
    ///
    /// # Errors
    ///
    /// * [`ChainVerifyError::TooFar`] — the claim lies more than
    ///   [`MAX_STEPS`](Self::MAX_STEPS) from the anchor, either way.
    /// * [`ChainVerifyError::Mismatch`] — the candidate is not the chain
    ///   key of `claimed_index`.
    ///
    /// The anchor is unchanged on error.
    pub fn authenticate(
        &mut self,
        candidate: &Key,
        claimed_index: u64,
    ) -> Result<u64, ChainVerifyError> {
        if claimed_index > self.index {
            return self.accept(candidate, claimed_index);
        }
        self.steps_to(claimed_index)?;
        match self.key_at(claimed_index) {
            Some(key) if crate::ct_eq(key.as_bytes(), candidate.as_bytes()) => Ok(0),
            _ => Err(ChainVerifyError::Mismatch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn chain_property_holds_everywhere() {
        let chain = KeyChain::generate(b"s", 32, Domain::F);
        for i in 0..32 {
            assert_eq!(
                *chain.key(i).unwrap(),
                one_way(Domain::F, chain.key(i + 1).unwrap())
            );
        }
    }

    #[test]
    fn generate_is_deterministic_and_seed_sensitive() {
        let a = KeyChain::generate(b"seed-a", 10, Domain::F);
        let b = KeyChain::generate(b"seed-a", 10, Domain::F);
        let c = KeyChain::generate(b"seed-b", 10, Domain::F);
        assert_eq!(a.commitment(), b.commitment());
        assert_ne!(a.commitment(), c.commitment());
    }

    /// `generate` takes its head from the cached label schedule; it must
    /// equal the one-shot derivation for any seed length, including
    /// seeds longer than one SHA-256 block.
    #[test]
    fn generate_is_from_head_of_the_derived_head() {
        for len in [0usize, 1, 16, 55, 56, 64, 65, 200] {
            let seed: Vec<u8> = (0..len).map(|b| b as u8 ^ 0xa5).collect();
            let head = Key::derive(CHAIN_HEAD_LABEL, &seed);
            let dense = KeyChain::generate(&seed, 12, Domain::F);
            let reference = KeyChain::from_head(head, 12, Domain::F);
            assert_eq!(dense.keys, reference.keys, "seed of {len} bytes");
        }
    }

    #[test]
    fn from_head_pins_last_key() {
        let head = Key::derive(b"t", b"head");
        let chain = KeyChain::from_head(head, 5, Domain::F1);
        assert_eq!(*chain.key(5).unwrap(), head);
        assert_eq!(chain.len(), 5);
    }

    #[test]
    fn key_out_of_range_is_none() {
        let chain = KeyChain::generate(b"s", 4, Domain::F);
        assert!(chain.key(4).is_some());
        assert!(chain.key(5).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one usable key")]
    fn zero_length_chain_panics() {
        let _ = KeyChain::generate(b"s", 0, Domain::F);
    }

    #[test]
    fn anchor_accepts_in_order_disclosures() {
        let chain = KeyChain::generate(b"s", 16, Domain::F);
        let mut anchor = chain.anchor();
        for i in 1..=16u64 {
            let steps = anchor.accept(chain.key(i as usize).unwrap(), i).unwrap();
            assert_eq!(steps, 1);
            assert_eq!(anchor.index(), i);
        }
    }

    #[test]
    fn anchor_recovers_over_gaps() {
        let chain = KeyChain::generate(b"s", 16, Domain::F);
        let mut anchor = chain.anchor();
        // Disclosures for intervals 1..=4 all lost; interval 5 arrives.
        let steps = anchor.accept(chain.key(5).unwrap(), 5).unwrap();
        assert_eq!(steps, 5);
        assert_eq!(anchor.key(), chain.key(5).unwrap());
    }

    #[test]
    fn anchor_rejects_replay_and_rollback() {
        let chain = KeyChain::generate(b"s", 16, Domain::F);
        let mut anchor = chain.anchor();
        anchor.accept(chain.key(8).unwrap(), 8).unwrap();
        assert_eq!(
            anchor.accept(chain.key(8).unwrap(), 8),
            Err(ChainVerifyError::NotAhead {
                anchor_index: 8,
                claimed_index: 8
            })
        );
        assert_eq!(
            anchor.accept(chain.key(3).unwrap(), 3),
            Err(ChainVerifyError::NotAhead {
                anchor_index: 8,
                claimed_index: 3
            })
        );
    }

    #[test]
    fn anchor_rejects_forged_key() {
        let chain = KeyChain::generate(b"s", 16, Domain::F);
        let mut anchor = chain.anchor();
        let mut rng = SplitMix64::new(1);
        let forged = Key::random(&mut rng);
        assert_eq!(anchor.accept(&forged, 3), Err(ChainVerifyError::Mismatch));
        // Anchor unchanged after a failed accept.
        assert_eq!(anchor.index(), 0);
    }

    #[test]
    fn anchor_rejects_wrong_index_for_real_key() {
        let chain = KeyChain::generate(b"s", 16, Domain::F);
        let anchor = chain.anchor();
        // K_5 claimed as index 6: F^6(K_5) != K_0.
        assert_eq!(
            anchor.verify(chain.key(5).unwrap(), 6),
            Err(ChainVerifyError::Mismatch)
        );
    }

    #[test]
    fn anchor_enforces_step_bound() {
        let chain = KeyChain::generate(b"s", 4097, Domain::F);
        let anchor = chain.anchor();
        // A gap of exactly the bound still recovers ...
        assert_eq!(anchor.verify(chain.key(4096).unwrap(), 4096), Ok(4096));
        // ... one more step is refused, even for the genuine key.
        assert_eq!(
            anchor.verify(chain.key(4097).unwrap(), 4097),
            Err(ChainVerifyError::TooFar {
                steps: 4097,
                max_steps: 4096
            })
        );
    }

    #[test]
    fn step_bound_holds_behind_the_anchor() {
        let chain = KeyChain::generate(b"s", 4098, Domain::F);
        let mut anchor = ChainAnchor::new(*chain.key(4098).unwrap(), 4098, Domain::F);
        // A genuine key exactly the bound behind still passes ...
        assert_eq!(anchor.key_at(2).as_ref(), chain.key(2));
        assert_eq!(anchor.authenticate(chain.key(2).unwrap(), 2), Ok(0));
        // ... one more step is refused before any walk, even genuine.
        assert_eq!(anchor.key_at(1), None);
        assert_eq!(
            anchor.authenticate(chain.key(1).unwrap(), 1),
            Err(ChainVerifyError::TooFar {
                steps: 4097,
                max_steps: 4096
            })
        );
        assert_eq!(anchor.index(), 4098);
    }

    #[test]
    fn authenticate_checks_keys_on_both_sides_of_the_anchor() {
        let chain = KeyChain::generate(b"s", 16, Domain::F);
        let mut anchor = chain.anchor();
        let mut rng = SplitMix64::new(9);
        // K_0 is the public commitment: interval 0 never passes, at
        // the bootstrap anchor or later.
        assert_eq!(anchor.key_at(0), None);
        assert_eq!(
            anchor.authenticate(chain.commitment(), 0),
            Err(ChainVerifyError::Mismatch)
        );
        // Ahead: advances the anchor by the steps walked.
        assert_eq!(anchor.authenticate(chain.key(6).unwrap(), 6), Ok(6));
        assert_eq!(anchor.index(), 6);
        assert_eq!(anchor.key_at(7), None);
        // At and behind: genuine keys pass without moving it.
        for i in 1..=6u64 {
            assert_eq!(anchor.key_at(i).as_ref(), chain.key(i as usize));
            assert_eq!(
                anchor.authenticate(chain.key(i as usize).unwrap(), i),
                Ok(0)
            );
        }
        assert_eq!(
            anchor.authenticate(chain.commitment(), 0),
            Err(ChainVerifyError::Mismatch)
        );
        // A forged key, or a genuine key under another index, fails.
        assert_eq!(
            anchor.authenticate(&Key::random(&mut rng), 3),
            Err(ChainVerifyError::Mismatch)
        );
        assert_eq!(
            anchor.authenticate(chain.key(3).unwrap(), 4),
            Err(ChainVerifyError::Mismatch)
        );
        assert_eq!(
            anchor.authenticate(&Key::random(&mut rng), 9),
            Err(ChainVerifyError::Mismatch)
        );
        assert_eq!(anchor.index(), 6);
    }

    #[test]
    fn anchor_domain_mismatch_rejects() {
        // A chain built with F0 must not verify against an F anchor even
        // with the same seed.
        let f_chain = KeyChain::generate(b"s", 8, Domain::F);
        let f0_chain = KeyChain::generate(b"s", 8, Domain::F0);
        let anchor = f_chain.anchor();
        assert_eq!(
            anchor.verify(f0_chain.key(1).unwrap(), 1),
            Err(ChainVerifyError::Mismatch)
        );
    }

    #[test]
    fn key_display_and_debug() {
        let key = Key::from_slice(&[0xab; 10]).unwrap();
        assert_eq!(key.to_string(), "abababababababababab");
        assert!(format!("{key:?}").starts_with("Key("));
    }

    #[test]
    fn key_from_slice_rejects_bad_lengths() {
        assert!(Key::from_slice(&[0u8; 9]).is_none());
        assert!(Key::from_slice(&[0u8; 11]).is_none());
        assert!(Key::from_slice(&[]).is_none());
    }

    #[test]
    fn random_keys_differ() {
        let mut rng = SplitMix64::new(7);
        assert_ne!(Key::random(&mut rng), Key::random(&mut rng));
    }

    #[test]
    fn byte_roundtrip() {
        let key = Key::derive(b"l", b"s");
        assert_eq!(Key::from_slice(key.as_bytes()), Some(key));
    }
}
