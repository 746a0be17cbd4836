//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! The workspace is self-contained by design: every protocol in the paper
//! is parameterised over "a one-way hash function", and this module
//! provides the concrete instance. Correctness is pinned by the official
//! NIST test vectors in the unit tests.
//!
//! Every hash in the crate compresses through one entry point,
//! [`Sha256::compress_from`], which runs one kernel per host: the x86
//! SHA extensions (SHA-NI) where the CPU has them, detected once per
//! process ([`sha_ni`]), and the portable [`Sha256::compress_portable`]
//! otherwise. `sha256rnds2` runs two rounds per instruction, so a
//! compression takes ~50 ns instead of the portable kernel's ~370 ns.
//! The portable kernel is the reference the SHA-NI one is tested
//! against (`tests/simd_lanes.rs`), so results are bit-identical on
//! every host.

/// Digest size in bytes (256 bits).
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (512 bits).
pub const BLOCK_LEN: usize = 64;

/// The FIPS 180-4 initial hash state (`H(0)`), exposed so midstate
/// caches can restart compression from the canonical origin.
pub const INITIAL_STATE: [u32; 8] = H0;

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Incremental (streaming) SHA-256 state.
///
/// ```
/// use dap_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), dap_crypto::sha256::digest(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    /// Total message length in bytes processed so far.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("length", &self.length)
            .field("buffered", &self.buffered)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the FIPS 180-4 initial state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut rest = data;

        // Fill a partially buffered block first.
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }

        // Whole blocks straight from the input.
        while rest.len() >= BLOCK_LEN {
            let (block, tail) = rest.split_at(BLOCK_LEN);
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }

        // Stash the remainder.
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.length.wrapping_mul(8);

        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        let mut pad = [0u8; BLOCK_LEN * 2];
        pad[0] = 0x80;
        let pad_len = if self.buffered < 56 {
            56 - self.buffered
        } else {
            BLOCK_LEN + 56 - self.buffered
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_padding(&pad[..pad_len + 8]);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `update` without advancing `length` (padding is not message data).
    fn update_padding(&mut self, data: &[u8]) {
        let saved = self.length;
        self.update(data);
        self.length = saved;
    }

    /// Resumes hashing from a compressed `state` captured at a 64-byte
    /// block boundary, with `bytes_processed` bytes already absorbed.
    ///
    /// This is the streaming entry point for midstate caching: a keyed
    /// prefix (e.g. an HMAC pad block) is compressed once, and every
    /// subsequent message restarts from the cached state instead of
    /// re-hashing the prefix.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_processed` is not a multiple of [`BLOCK_LEN`]
    /// (mid-block states are not capturable).
    #[must_use]
    pub fn from_midstate(state: [u32; 8], bytes_processed: u64) -> Self {
        assert!(
            bytes_processed.is_multiple_of(BLOCK_LEN as u64),
            "midstates exist only at block boundaries"
        );
        Self {
            state,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            length: bytes_processed,
        }
    }

    /// The current compressed state, or `None` when input is buffered
    /// mid-block (a midstate only exists at 64-byte boundaries).
    #[must_use]
    pub fn midstate(&self) -> Option<[u32; 8]> {
        (self.buffered == 0).then_some(self.state)
    }

    /// Applies the SHA-256 compression function to `state` for one
    /// 64-byte `block` — the pure fast path behind midstate caching, and
    /// the one every hash in the crate goes through. Runs the SHA-NI
    /// kernel where [`sha_ni`] is true and [`Sha256::compress_portable`]
    /// otherwise.
    #[must_use]
    #[inline]
    pub fn compress_from(state: &[u32; 8], block: &[u8; BLOCK_LEN]) -> [u32; 8] {
        #[cfg(target_arch = "x86_64")]
        if sha_ni() {
            let mut out = *state;
            // SAFETY: `sha_ni()` is true only when sha, ssse3 and sse4.1
            // were detected on this CPU at run time, which is all
            // `compress_ni` asks of its caller.
            #[allow(unsafe_code)]
            unsafe {
                ni::compress_ni(&mut out, block);
            }
            return out;
        }
        Self::compress_portable(state, block)
    }

    /// The portable SHA-256 compression function, written straight from
    /// FIPS 180-4 §6.2.2. The SHA-NI kernel is tested against it, and
    /// it runs wherever the CPU lacks the SHA extensions.
    #[must_use]
    pub fn compress_portable(state: &[u32; 8], block: &[u8; BLOCK_LEN]) -> [u32; 8] {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        [
            state[0].wrapping_add(a),
            state[1].wrapping_add(b),
            state[2].wrapping_add(c),
            state[3].wrapping_add(d),
            state[4].wrapping_add(e),
            state[5].wrapping_add(f),
            state[6].wrapping_add(g),
            state[7].wrapping_add(h),
        ]
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        self.state = Self::compress_from(&self.state, block);
    }
}

/// One-shot digest resuming from a cached midstate: hashes the message
/// `prefix ‖ tail` where `prefix` is the (already compressed) first
/// `prior_bytes` bytes whose state is `state`.
///
/// Unlike the incremental [`Sha256`], this path never copies through the
/// 64-byte staging buffer: whole blocks compress straight from `tail`,
/// and the final one or two padded blocks are assembled on the stack.
/// For the hot MAC shapes in this workspace (`tail` ≤ 55 bytes) that is
/// exactly **one** compression call.
///
/// # Panics
///
/// Panics if `prior_bytes` is not a multiple of [`BLOCK_LEN`].
#[must_use]
#[inline]
pub fn digest_from_midstate(state: &[u32; 8], prior_bytes: u64, tail: &[u8]) -> [u8; DIGEST_LEN] {
    assert!(
        prior_bytes.is_multiple_of(BLOCK_LEN as u64),
        "midstates exist only at block boundaries"
    );
    let mut st = *state;
    let mut chunks = tail.chunks_exact(BLOCK_LEN);
    for block in &mut chunks {
        st = Sha256::compress_from(&st, block.try_into().expect("exact chunk"));
    }
    let rest = chunks.remainder();

    let bit_len = prior_bytes.wrapping_add(tail.len() as u64).wrapping_mul(8);
    let mut block = [0u8; BLOCK_LEN];
    block[..rest.len()].copy_from_slice(rest);
    block[rest.len()] = 0x80;
    if rest.len() < 56 {
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        st = Sha256::compress_from(&st, &block);
    } else {
        st = Sha256::compress_from(&st, &block);
        let mut last = [0u8; BLOCK_LEN];
        last[56..].copy_from_slice(&bit_len.to_be_bytes());
        st = Sha256::compress_from(&st, &last);
    }

    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(st.iter()) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot SHA-256 of `data`.
///
/// ```
/// let d = dap_crypto::sha256::digest(b"abc");
/// assert_eq!(d[0], 0xba);
/// ```
#[must_use]
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Whether this CPU runs the SHA-NI kernel, detected once per process:
/// it must report `sha`, plus `ssse3` and `sse4.1` for the kernel's
/// shuffles and blends. Always `false` off x86-64.
#[must_use]
#[inline]
pub fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CACHE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *CACHE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The SHA-NI kernel. Every function here carries
/// `#[target_feature]`, and its one caller, [`Sha256::compress_from`],
/// enters it only where [`sha_ni`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SHA intrinsics behind one run-time feature check.
mod ni {
    use core::arch::x86_64::*;

    use super::{BLOCK_LEN, K};

    /// `W[4q..4q + 4]` from the four previous schedule quads `W[4q -
    /// 16..4q]`: `sha256msg1` adds `σ0(W[t - 15])` to `W[t - 16]`,
    /// `palignr` supplies `W[t - 7]`, and `sha256msg2` adds
    /// `σ1(W[t - 2])`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(partial, w3)
    }

    /// Rounds `4q..4q + 4`. Each `sha256rnds2` runs two rounds on the
    /// low two words of `W + K` and returns the new ABEF; the old ABEF is
    /// then the new CDGH, so the two state registers swap roles between
    /// the calls and end where they started.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, q: usize) {
        let k = &K[4 * q..4 * q + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// One SHA-256 compression on the SHA extensions: `state ←
    /// compress(state, block)`.
    ///
    /// `sha256rnds2` wants the eight state words split across two
    /// registers as ABEF and CDGH, so the state is permuted into that
    /// layout on entry and back on exit. Register names list lanes
    /// highest first, as Intel's do: `dcba` holds `a` in lane 0.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_ni(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        // Reverses the bytes of each 32-bit lane: the block's words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let words = state.as_mut_ptr().cast::<__m128i>();
        let bytes = block.as_ptr().cast::<__m128i>();

        // SAFETY: `state` is 32 bytes, so `words` and `words.add(1)`
        // cover it exactly; `loadu` has no alignment requirement.
        let (dcba, hgfe) = (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1)));
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);
        let (abef_in, cdgh_in) = (abef, cdgh);

        // SAFETY: `block` is 64 bytes, so `bytes.add(0..4)` are the four
        // 16-byte quarters inside it; `loadu` has no alignment
        // requirement.
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(bytes), bswap);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(bytes.add(1)), bswap);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(bytes.add(2)), bswap);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(bytes.add(3)), bswap);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for q in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, q);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, q + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, q + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, q + 3);
        }

        let feba = _mm_shuffle_epi32::<0x1b>(_mm_add_epi32(abef, abef_in));
        let dchg = _mm_shuffle_epi32::<0xb1>(_mm_add_epi32(cdgh, cdgh_in));
        // SAFETY: as for the loads — `words` and `words.add(1)` are the
        // two halves of the 32-byte `state`, and `storeu` is unaligned.
        _mm_storeu_si128(words, _mm_blend_epi16::<0xf0>(feba, dchg));
        _mm_storeu_si128(words.add(1), _mm_alignr_epi8::<8>(dchg, feba));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let want = digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn length_extension_state_differs_from_fresh() {
        // Sanity: hashing "a" then "b" equals hashing "ab" (API-level check
        // that buffering does not duplicate or drop bytes).
        let mut h = Sha256::new();
        h.update(b"a");
        h.update(b"b");
        assert_eq!(h.finalize(), digest(b"ab"));
    }

    #[test]
    fn exact_block_boundary_inputs() {
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xa5u8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // Compare against a byte-at-a-time stream.
            let mut g = Sha256::new();
            for b in &data {
                g.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), g.finalize(), "len {len}");
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let h = Sha256::new();
        assert!(!format!("{h:?}").is_empty());
    }

    #[test]
    fn digest_from_midstate_matches_incremental_at_every_tail_length() {
        // Prefix = one full block; tails cross both padding regimes
        // (< 56 → one final block, ≥ 56 → two) and whole-block runs.
        let prefix = [0x36u8; BLOCK_LEN];
        let mid = {
            let mut h = Sha256::new();
            h.update(&prefix);
            h.midstate().expect("block boundary")
        };
        for tail_len in 0..200usize {
            let tail: Vec<u8> = (0..tail_len).map(|i| (i % 251) as u8).collect();
            let fast = digest_from_midstate(&mid, BLOCK_LEN as u64, &tail);
            let mut slow = Sha256::new();
            slow.update(&prefix);
            slow.update(&tail);
            assert_eq!(fast, slow.finalize(), "tail_len {tail_len}");
        }
    }

    #[test]
    fn digest_from_midstate_from_origin_equals_digest() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200] {
            let data = vec![0x5cu8; len];
            assert_eq!(
                digest_from_midstate(&INITIAL_STATE, 0, &data),
                digest(&data),
                "len {len}"
            );
        }
    }

    #[test]
    fn from_midstate_resumes_streaming() {
        let mut a = Sha256::new();
        a.update(&[7u8; 64]);
        let mid = a.midstate().unwrap();
        let mut b = Sha256::from_midstate(mid, 64);
        a.update(b"suffix");
        b.update(b"suffix");
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn midstate_is_none_mid_block() {
        let mut h = Sha256::new();
        h.update(b"partial");
        assert!(h.midstate().is_none());
    }

    #[test]
    #[should_panic(expected = "block boundaries")]
    fn from_midstate_rejects_unaligned_length() {
        let _ = Sha256::from_midstate(INITIAL_STATE, 10);
    }

    #[test]
    fn compress_from_is_pure() {
        let block = [0xabu8; BLOCK_LEN];
        let a = Sha256::compress_from(&INITIAL_STATE, &block);
        let b = Sha256::compress_from(&INITIAL_STATE, &block);
        assert_eq!(a, b);
        assert_ne!(a, INITIAL_STATE);
    }
}
