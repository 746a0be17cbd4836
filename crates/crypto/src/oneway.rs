//! Domain-separated one-way functions.
//!
//! The paper (and the TESLA literature it builds on) uses a small family of
//! *distinct* one-way functions over 80-bit keys:
//!
//! | Paper name | [`Domain`] variant | Used for |
//! |---|---|---|
//! | `F`   | [`Domain::F`]        | the single-level TESLA/μTESLA/DAP key chain |
//! | `F'`  | [`Domain::MacKey`]   | deriving the MAC key `K'_i` from the chain key `K_i` |
//! | `F0`  | [`Domain::F0`]       | the high-level chain of multi-level μTESLA / EFTP / EDRP |
//! | `F1`  | [`Domain::F1`]       | the low-level chains of multi-level μTESLA |
//! | `F01` | [`Domain::F01`]      | linking a low-level chain to the high-level chain |
//! | `H`   | [`Domain::CdmCommit`]| hashing a CDM into the next CDM (EDRP, Fig. 3) |
//!
//! All are instantiated as `HMAC-SHA-256(domain label, input)` truncated to
//! the 80-bit key size, which gives mutually independent random oracles in
//! the standard-model heuristic sense: an image under one domain reveals
//! nothing about images under another.

use std::sync::OnceLock;

use crate::hmac::PreparedMacKey;
use crate::keychain::Key;

/// Identifies which of the paper's one-way functions is being applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Domain {
    /// `F` — the key chain of single-level TESLA, μTESLA and DAP.
    F,
    /// `F'` — derives the per-interval MAC key `K'_i = F'(K_i)`.
    MacKey,
    /// `F0` — the high-level key chain of multi-level μTESLA.
    F0,
    /// `F1` — the low-level key chains of multi-level μTESLA.
    F1,
    /// `F01` — links low-level chains to the high-level chain
    /// (`K_{i,n} = F01(K_i)` in EFTP, `K_{i,n} = F01(K_{i+1})` originally).
    F01,
    /// `H` — the pseudorandom function hashing `CDM_{i+1}` into `CDM_i`
    /// in EDRP.
    CdmCommit,
}

impl Domain {
    /// A unique label mixed into the HMAC key for domain separation.
    #[must_use]
    pub const fn label(self) -> &'static [u8] {
        match self {
            Domain::F => b"crowdsense-dap/oneway/F",
            Domain::MacKey => b"crowdsense-dap/oneway/F-prime",
            Domain::F0 => b"crowdsense-dap/oneway/F0",
            Domain::F1 => b"crowdsense-dap/oneway/F1",
            Domain::F01 => b"crowdsense-dap/oneway/F01",
            Domain::CdmCommit => b"crowdsense-dap/oneway/H",
        }
    }

    /// All domains, for exhaustive tests.
    #[must_use]
    pub const fn all() -> [Domain; 6] {
        [
            Domain::F,
            Domain::MacKey,
            Domain::F0,
            Domain::F1,
            Domain::F01,
            Domain::CdmCommit,
        ]
    }

    const fn index(self) -> usize {
        match self {
            Domain::F => 0,
            Domain::MacKey => 1,
            Domain::F0 => 2,
            Domain::F1 => 3,
            Domain::F01 => 4,
            Domain::CdmCommit => 5,
        }
    }

    /// The cached HMAC key schedule for this domain's label.
    ///
    /// The labels are compile-time constants, so their ipad/opad
    /// midstates are computed once per process (lazily, on first use)
    /// and shared by every chain step — cutting [`one_way`] from four
    /// SHA-256 compressions to two.
    #[must_use]
    pub fn prepared(self) -> &'static PreparedMacKey {
        static CACHE: OnceLock<[PreparedMacKey; 6]> = OnceLock::new();
        &CACHE.get_or_init(|| Domain::all().map(|d| PreparedMacKey::new(d.label())))[self.index()]
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Domain::F => "F",
            Domain::MacKey => "F'",
            Domain::F0 => "F0",
            Domain::F1 => "F1",
            Domain::F01 => "F01",
            Domain::CdmCommit => "H",
        };
        f.write_str(name)
    }
}

/// Applies the one-way function identified by `domain` to `key`.
///
/// The output is the first [`Key::LEN`] bytes of
/// `HMAC-SHA-256(domain label, key bytes)`. Inverting it requires inverting
/// HMAC-SHA-256, so the chain property "`K_{i+1}` cannot be derived from
/// `K_i`" holds under standard assumptions.
#[must_use]
#[inline]
pub fn one_way(domain: Domain, key: &Key) -> Key {
    let tag = domain.prepared().mac(key.as_bytes());
    Key::from_slice(&tag[..Key::LEN]).expect("digest longer than key")
}

/// Applies `one_way(domain, ·)` exactly `steps` times.
///
/// `steps == 0` returns `key` unchanged. [`crate::ChainAnchor`] walks it
/// to check a disclosure ahead of its anchor and to derive a key behind
/// it: `K_i = F^j(K_{i+j})`.
#[must_use]
pub fn one_way_iter(domain: Domain, key: &Key, steps: usize) -> Key {
    let prepared = domain.prepared();
    let mut k = *key;
    for _ in 0..steps {
        let tag = prepared.mac(k.as_bytes());
        k = Key::from_slice(&tag[..Key::LEN]).expect("digest longer than key");
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(byte: u8) -> Key {
        Key::from_slice(&[byte; Key::LEN]).unwrap()
    }

    #[test]
    fn deterministic() {
        assert_eq!(one_way(Domain::F, &k(7)), one_way(Domain::F, &k(7)));
    }

    #[test]
    fn domains_are_separated() {
        let input = k(7);
        let all = Domain::all();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(
                    one_way(all[i], &input),
                    one_way(all[j], &input),
                    "domains {} and {} collide",
                    all[i],
                    all[j]
                );
            }
        }
    }

    #[test]
    fn different_inputs_different_outputs() {
        assert_ne!(one_way(Domain::F, &k(1)), one_way(Domain::F, &k(2)));
    }

    #[test]
    fn iterated_composition() {
        let start = k(3);
        let two = one_way(Domain::F, &one_way(Domain::F, &start));
        assert_eq!(one_way_iter(Domain::F, &start, 2), two);
        assert_eq!(one_way_iter(Domain::F, &start, 0), start);
    }

    #[test]
    fn one_way_matches_unprepared_hmac_reference() {
        // The midstate cache must be a pure optimisation: every domain's
        // one_way equals HMAC-SHA-256(label, key) truncated.
        let key = k(0x42);
        for domain in Domain::all() {
            let reference = crate::hmac::hmac_sha256(domain.label(), key.as_bytes());
            assert_eq!(
                one_way(domain, &key).as_bytes(),
                &reference[..Key::LEN],
                "domain {domain}"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Domain::F.to_string(), "F");
        assert_eq!(Domain::MacKey.to_string(), "F'");
        assert_eq!(Domain::CdmCommit.to_string(), "H");
    }
}
