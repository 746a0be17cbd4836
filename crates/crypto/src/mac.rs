//! Truncated message authentication codes at the paper's wire sizes.
//!
//! Fig. 4 of the paper fixes the layout DAP uses on the wire and in
//! receiver memory:
//!
//! * the packet MAC `MAC_i = MAC_{K_i}(M_i)` is **80 bits** ([`Mac80`]);
//! * the receiver re-keys the received MAC under its local secret
//!   `K_recv` and stores only a **24-bit** digest
//!   `μMAC_i = MAC_{K_recv}(MAC_i)` ([`MicroMac`]).
//!
//! Following the TESLA convention, the MAC key is not the chain key itself
//! but `K'_i = F'(K_i)` — otherwise a MAC could leak chain structure.

use crate::hmac::PreparedMacKey;
use crate::keychain::Key;
use crate::oneway::{one_way, Domain};

/// An 80-bit packet MAC (`MAC_i` in the paper, 80 b on the wire).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mac80([u8; Mac80::LEN]);

impl Mac80 {
    /// Tag length in bytes.
    pub const LEN: usize = 10;
    /// Tag length in bits, as counted in the paper's bandwidth budget.
    pub const BITS: u32 = 80;

    /// Builds a tag from exactly [`Mac80::LEN`] bytes.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        bytes.try_into().ok().map(Mac80)
    }

    /// The raw tag bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for Mac80 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mac80({self})")
    }
}

impl std::fmt::Display for Mac80 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Mac80 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A 24-bit receiver-local digest of a [`Mac80`] (`μMAC` in the paper).
///
/// Stored instead of the full packet while waiting for key disclosure:
/// 24 bits of μMAC + 32 bits of interval index = 56 bits per buffer entry,
/// versus 280 bits for message+MAC — the ~80 % memory saving DAP claims.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MicroMac([u8; MicroMac::LEN]);

impl MicroMac {
    /// Digest length in bytes.
    pub const LEN: usize = 3;
    /// Digest length in bits.
    pub const BITS: u32 = 24;

    /// Builds a μMAC from exactly [`MicroMac::LEN`] bytes.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        bytes.try_into().ok().map(MicroMac)
    }

    /// The raw digest bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for MicroMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MicroMac({self})")
    }
}

impl std::fmt::Display for MicroMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for MicroMac {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Computes the 80-bit packet MAC `MAC_{K'_i}(message)` with
/// `K'_i = F'(chain_key)`.
///
/// ```
/// use dap_crypto::{Key, mac::mac80};
/// let k = Key::derive(b"demo", b"interval-7");
/// assert_eq!(mac80(&k, b"m"), mac80(&k, b"m"));
/// assert_ne!(mac80(&k, b"m"), mac80(&k, b"n"));
/// ```
#[must_use]
pub fn mac80(chain_key: &Key, message: &[u8]) -> Mac80 {
    mac80_prepared(&prepare_chain_key(chain_key), message)
}

/// Runs the F′ derivation and HMAC key schedule for `chain_key` once,
/// for senders/receivers MACing several messages under one interval key.
#[must_use]
pub fn prepare_chain_key(chain_key: &Key) -> PreparedMacKey {
    let mac_key = one_way(Domain::MacKey, chain_key);
    PreparedMacKey::new(mac_key.as_bytes())
}

/// [`mac80`] with the `K'_i = F'(K_i)` key schedule already cached.
#[must_use]
pub fn mac80_prepared(prepared: &PreparedMacKey, message: &[u8]) -> Mac80 {
    let tag = prepared.mac(message);
    Mac80::from_slice(&tag[..Mac80::LEN]).expect("digest longer than tag")
}

/// Computes the receiver-local μMAC `MAC_{K_recv}(mac)` (24 bits).
///
/// `K_recv` never leaves the receiver, so an attacker flooding the channel
/// cannot target collisions in the stored digests.
///
/// `K_recv` is also long-lived: receivers on the announce hot path should
/// prepare it once ([`prepare_receiver_key`]) and call
/// [`micro_mac_prepared`], halving the per-announce compression count.
#[must_use]
pub fn micro_mac(receiver_key: &Key, mac: &Mac80) -> MicroMac {
    micro_mac_prepared(&prepare_receiver_key(receiver_key), mac)
}

/// Caches the HMAC key schedule for a receiver-local secret `K_recv`.
#[must_use]
pub fn prepare_receiver_key(receiver_key: &Key) -> PreparedMacKey {
    PreparedMacKey::new(receiver_key.as_bytes())
}

/// [`micro_mac`] with `K_recv`'s key schedule already cached.
#[must_use]
pub fn micro_mac_prepared(prepared: &PreparedMacKey, mac: &Mac80) -> MicroMac {
    let tag = prepared.mac(mac.as_bytes());
    MicroMac::from_slice(&tag[..MicroMac::LEN]).expect("digest longer than tag")
}

/// Verifies an 80-bit MAC in constant time.
#[must_use]
pub fn verify_mac80(chain_key: &Key, message: &[u8], tag: &Mac80) -> bool {
    crate::ct_eq(mac80(chain_key, message).as_bytes(), tag.as_bytes())
}

/// [`verify_mac80`] with the chain key prepared via [`prepare_chain_key`].
#[must_use]
pub fn verify_mac80_prepared(prepared: &PreparedMacKey, message: &[u8], tag: &Mac80) -> bool {
    crate::ct_eq(mac80_prepared(prepared, message).as_bytes(), tag.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> Key {
        Key::from_slice(&[b; Key::LEN]).unwrap()
    }

    #[test]
    fn mac80_is_keyed() {
        assert_ne!(mac80(&key(1), b"m"), mac80(&key(2), b"m"));
    }

    #[test]
    fn mac80_binds_message() {
        assert_ne!(mac80(&key(1), b"m1"), mac80(&key(1), b"m2"));
    }

    #[test]
    fn mac_key_is_derived_not_raw() {
        // MAC under K must differ from HMAC keyed directly with K:
        // the F' derivation is load-bearing.
        let k = key(3);
        let direct = crate::hmac::hmac_sha256(k.as_bytes(), b"m");
        let tag = mac80(&k, b"m");
        assert_ne!(&direct[..Mac80::LEN], tag.as_bytes());
    }

    #[test]
    fn prepared_paths_match_oneshot() {
        let k = key(7);
        let prepared = prepare_chain_key(&k);
        for msg in [&b""[..], b"m", &[0xddu8; 200]] {
            let tag = mac80(&k, msg);
            assert_eq!(mac80_prepared(&prepared, msg), tag);
            assert!(verify_mac80_prepared(&prepared, msg, &tag));
        }
        let recv = key(9);
        let prepared_recv = prepare_receiver_key(&recv);
        let tag = mac80(&k, b"m");
        assert_eq!(
            micro_mac_prepared(&prepared_recv, &tag),
            micro_mac(&recv, &tag)
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let k = key(5);
        let tag = mac80(&k, b"payload");
        assert!(verify_mac80(&k, b"payload", &tag));
        assert!(!verify_mac80(&k, b"payloaX", &tag));
        assert!(!verify_mac80(&key(6), b"payload", &tag));
    }

    #[test]
    fn micro_mac_is_receiver_local() {
        let tag = mac80(&key(1), b"m");
        assert_ne!(micro_mac(&key(10), &tag), micro_mac(&key(11), &tag));
    }

    #[test]
    fn micro_mac_binds_the_mac() {
        let recv = key(9);
        let t1 = mac80(&key(1), b"m1");
        let t2 = mac80(&key(1), b"m2");
        assert_ne!(micro_mac(&recv, &t1), micro_mac(&recv, &t2));
    }

    #[test]
    fn sizes_match_paper() {
        assert_eq!(Mac80::BITS, 80);
        assert_eq!(MicroMac::BITS, 24);
        assert_eq!(Mac80::LEN * 8, Mac80::BITS as usize);
        assert_eq!(MicroMac::LEN * 8, MicroMac::BITS as usize);
    }

    #[test]
    fn from_slice_length_checks() {
        assert!(Mac80::from_slice(&[0; 10]).is_some());
        assert!(Mac80::from_slice(&[0; 9]).is_none());
        assert!(MicroMac::from_slice(&[0; 3]).is_some());
        assert!(MicroMac::from_slice(&[0; 4]).is_none());
    }

    #[test]
    fn display_hex() {
        let t = Mac80::from_slice(&[0x0f; 10]).unwrap();
        assert_eq!(t.to_string(), "0f0f0f0f0f0f0f0f0f0f");
        let u = MicroMac::from_slice(&[1, 2, 3]).unwrap();
        assert_eq!(u.to_string(), "010203");
    }
}
