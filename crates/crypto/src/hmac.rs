//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1) on top of [`crate::sha256`].
//!
//! Every MAC in the workspace — the 80-bit packet MAC, the 24-bit receiver
//! μMAC and the key-chain one-way functions — is a truncation of this
//! primitive. Correctness is pinned by the RFC 4231 test vectors.

use crate::sha256::{self, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Cached ipad/opad midstates for a fixed HMAC key.
///
/// Keying HMAC-SHA-256 costs two compression calls (one per pad block)
/// before the message is even touched. Every long-lived key in the
/// workspace — the six [`crate::Domain`] labels driving `one_way`, a
/// receiver's `K_recv` rekeying each announce's μMAC — pays that key
/// schedule on *every* call when routed through the one-shot
/// [`hmac_sha256`]. A `PreparedMacKey` runs it **once**, storing the two
/// compressed states; [`mac`](Self::mac) then finishes a short message
/// in two compressions instead of four.
///
/// ```
/// use dap_crypto::hmac::{hmac_sha256, PreparedMacKey};
///
/// let prepared = PreparedMacKey::new(b"key");
/// assert_eq!(prepared.mac(b"message"), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PreparedMacKey {
    /// State after compressing `key ⊕ ipad`.
    inner: [u32; 8],
    /// State after compressing `key ⊕ opad`.
    outer: [u32; 8],
}

impl std::fmt::Debug for PreparedMacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedMacKey").finish_non_exhaustive()
    }
}

impl PreparedMacKey {
    /// Runs the HMAC key schedule for `key` (any length; keys longer
    /// than the 64-byte block are hashed first, per the spec) and caches
    /// both pad-block midstates.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = sha256::digest(key);
            block_key[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = block_key[i] ^ 0x36;
            opad_key[i] = block_key[i] ^ 0x5c;
        }

        Self {
            inner: Sha256::compress_from(&sha256::INITIAL_STATE, &ipad_key),
            outer: Sha256::compress_from(&sha256::INITIAL_STATE, &opad_key),
        }
    }

    /// One-shot tag over `message`, resuming from the cached midstates.
    ///
    /// Never touches the incremental staging buffer: for messages up to
    /// 55 bytes (every MAC input in the protocol stack) this is exactly
    /// two compression calls.
    #[must_use]
    #[inline]
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let inner_digest = sha256::digest_from_midstate(&self.inner, BLOCK_LEN as u64, message);
        sha256::digest_from_midstate(&self.outer, BLOCK_LEN as u64, &inner_digest)
    }

    /// An incremental hasher resuming from the cached key schedule.
    #[must_use]
    pub fn hasher(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::from_midstate(self.inner, BLOCK_LEN as u64),
            outer: self.outer,
        }
    }
}

/// Incremental HMAC-SHA-256.
///
/// ```
/// use dap_crypto::hmac::HmacSha256;
///
/// let mut m = HmacSha256::new(b"key");
/// m.update(b"mess");
/// m.update(b"age");
/// assert_eq!(m.finalize(), dap_crypto::hmac::hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Midstate after compressing `key ⊕ opad`, for the outer pass.
    outer: [u32; 8],
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length; keys longer
    /// than the 64-byte block are hashed first, per the spec).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        PreparedMacKey::new(key).hasher()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the instance and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        sha256::digest_from_midstate(&self.outer, BLOCK_LEN as u64, &inner_digest)
    }
}

/// One-shot HMAC-SHA-256.
///
/// Hot paths with a long-lived key should prepare it once with
/// [`PreparedMacKey`] instead; this convenience re-runs the key schedule
/// on every call.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    PreparedMacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases (SHA-256 column).
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1u8..=25).collect();
        let data = [0xcdu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let data: &[u8] = b"This is a test using a larger than block-size key and a \
                            larger than block-size data. The key needs to be hashed \
                            before being used by the HMAC algorithm.";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    // RFC 4231 vectors asserted through the prepared-key fast path as
    // well as the one-shot convenience (which now routes through it).
    #[test]
    fn rfc4231_through_prepared_key() {
        let prepared = PreparedMacKey::new(&[0x0bu8; 20]);
        assert_eq!(
            hex(&prepared.mac(b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        let jefe = PreparedMacKey::new(b"Jefe");
        assert_eq!(
            hex(&jefe.mac(b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Case 6: key longer than one block must be hashed first.
        let long = PreparedMacKey::new(&[0xaau8; 131]);
        assert_eq!(
            hex(&long.mac(b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn prepared_key_reuse_matches_fresh_keying() {
        let prepared = PreparedMacKey::new(b"long-lived");
        for len in [0usize, 1, 31, 55, 56, 63, 64, 65, 200] {
            let msg = vec![0xcdu8; len];
            assert_eq!(
                prepared.mac(&msg),
                hmac_sha256(b"long-lived", &msg),
                "len {len}"
            );
        }
    }

    #[test]
    fn prepared_hasher_matches_oneshot() {
        let prepared = PreparedMacKey::new(b"k");
        let mut m = prepared.hasher();
        m.update(b"abc");
        m.update(b"def");
        assert_eq!(m.finalize(), prepared.mac(b"abcdef"));
    }

    #[test]
    fn prepared_key_debug_redacts() {
        let s = format!("{:?}", PreparedMacKey::new(b"secret"));
        assert!(s.contains("PreparedMacKey"));
        assert!(!s.contains("secret"));
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut m = HmacSha256::new(b"k");
        for chunk in [b"ab".as_slice(), b"", b"cdef"] {
            m.update(chunk);
        }
        assert_eq!(m.finalize(), hmac_sha256(b"k", b"abcdef"));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn key_padding_is_not_ambiguous() {
        // A key and the same key with a trailing zero byte must differ
        // (both are padded with zeros internally, HMAC is still keyed on
        // the padded block, so this documents the known HMAC property).
        let a = hmac_sha256(b"k", b"m");
        let b = hmac_sha256(b"k\0", b"m");
        // HMAC-SHA256("k") == HMAC-SHA256("k\0") by construction; assert it
        // so a future change to padding is caught.
        assert_eq!(a, b);
    }
}
