//! Cryptographic substrate for the `crowdsense-dap` workspace.
//!
//! The TESLA protocol family (`dap-tesla`) and the DAP protocol
//! (`dap-core`) rest on three primitives, all implemented here from
//! scratch (the workspace deliberately avoids external crypto crates):
//!
//! * a cryptographic hash function — [`sha256`],
//! * a message authentication code — [`hmac`], truncated to the wire
//!   sizes the paper uses ([`mac`]: 80-bit [`Mac80`], 24-bit [`MicroMac`]),
//! * **one-way key chains** with delayed disclosure — [`keychain`], built
//!   from the domain-separated one-way functions of [`oneway`]
//!   (`F`, `F'`, `F0`, `F1`, `F01`, `H` in the paper's notation): a
//!   sender holds the whole [`KeyChain`], a receiver one [`ChainAnchor`].
//!
//! # Example
//!
//! ```
//! use dap_crypto::{KeyChain, Domain, mac::mac80};
//!
//! // A sender generates a 100-interval key chain from a secret seed.
//! let chain = KeyChain::generate(b"sender secret", 100, Domain::F);
//! // Receivers bootstrap with the commitment K_0 only.
//! let anchor = chain.anchor();
//!
//! // Interval 42: authenticate a message with K_42 (still undisclosed).
//! let tag = mac80(chain.key(42).unwrap(), b"sensor reading");
//!
//! // Later, K_42 is disclosed; a receiver verifies it against the anchor
//! // (following the chain backwards) and recomputes the MAC.
//! let disclosed = *chain.key(42).unwrap();
//! assert!(anchor.verify(&disclosed, 42).is_ok());
//! assert_eq!(mac80(&disclosed, b"sensor reading"), tag);
//! ```

// `deny` (not `forbid`) so the SHA-NI kernel in `sha256` and the one
// call that dispatches into it can opt back in with a local `allow`;
// every other line stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod hmac;
pub mod keychain;
pub mod mac;
pub mod oneway;
pub mod rng;
pub mod sha256;
pub mod sizes;

mod error;

pub use error::{ChainExhausted, ChainVerifyError};
pub use hmac::PreparedMacKey;
pub use keychain::{ChainAnchor, Key, KeyChain};
pub use mac::{Mac80, MicroMac};
pub use oneway::Domain;
pub use rng::{FillBytes, UniformF64};

/// Constant-time equality over byte slices of equal length.
///
/// Returns `false` immediately when lengths differ (length is public for
/// every type in this crate). For equal lengths the comparison time does
/// not depend on the position of the first differing byte.
///
/// ```
/// assert!(dap_crypto::ct_eq(b"abc", b"abc"));
/// assert!(!dap_crypto::ct_eq(b"abc", b"abd"));
/// assert!(!dap_crypto::ct_eq(b"abc", b"ab"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"samf"));
        assert!(!ct_eq(b"short", b"longer"));
    }

    #[test]
    fn ct_eq_differs_only_in_last_byte() {
        let a = [0u8; 64];
        let mut b = [0u8; 64];
        b[63] = 1;
        assert!(!ct_eq(&a, &b));
    }
}
