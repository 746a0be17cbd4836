//! SHA-256 compression kernels and the dispatch that picks one.
//!
//! Two ways to make hashing cheaper live here. The first is the x86
//! SHA extensions (SHA-NI): `sha256rnds2` runs two rounds of one
//! message per instruction, so a single compression takes ~50 ns
//! instead of the portable kernel's ~370 ns. The second is multi-buffer
//! hashing over *independent* messages: walking a whole fleet's key
//! chains level by level hashes one key per chain, and `W` such
//! compressions run in lockstep, one 32-bit SIMD lane per message: 4
//! lanes on SSE2 (`__m128i`), 8 lanes on AVX2 (`__m256i`).
//!
//! Both hashing entry points dispatch on the CPU alone, detected once
//! per process with `std::arch::is_x86_feature_detected!`:
//! [`Sha256::compress_from`] (one message) runs SHA-NI where the CPU
//! has it and the portable [`Sha256::compress_portable`] otherwise;
//! [`compress_many`] (a batch) runs [`detected`], which prefers SHA-NI
//! (one ~50 ns block per message beats the 8-lane kernel's ~80 ns per
//! block), then AVX2, then SSE2. The portable kernel is the reference
//! every other kernel is pinned to, so results are bit-identical across
//! hosts and kernels (the `tests/simd_lanes.rs` property suite and the
//! NIST/RFC vectors run through each kernel).
//!
//! The batch entry points are [`digest_many`] (full hashes) and
//! [`digest_many_from_midstates`] (per-lane cached midstates — the HMAC
//! shape: every lane resumes from its own ipad/opad state with the same
//! number of prior bytes). [`crate::hmac::PreparedMacKey::mac_many`]
//! and [`crate::oneway::one_way_many`] are built on top.
#![allow(unsafe_code)] // SIMD and SHA intrinsics; every unsafe call sits behind a feature check.

use std::sync::OnceLock;

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN, INITIAL_STATE};

/// A SHA-256 compression kernel, named by how many independent messages
/// one call advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LaneWidth {
    /// One lane: the portable [`Sha256::compress_portable`] reference.
    Scalar,
    /// Four lanes in an SSE2 `__m128i` register per state word.
    W4,
    /// Eight lanes in an AVX2 `__m256i` register per state word.
    W8,
    /// One lane on the x86 SHA extensions (`sha256rnds2`/`sha256msg*`).
    ShaNi,
}

impl LaneWidth {
    /// Number of messages compressed per kernel call.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::Scalar | LaneWidth::ShaNi => 1,
            LaneWidth::W4 => 4,
            LaneWidth::W8 => 8,
        }
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneWidth::Scalar => f.write_str("scalar"),
            LaneWidth::W4 => f.write_str("x4"),
            LaneWidth::W8 => f.write_str("x8"),
            LaneWidth::ShaNi => f.write_str("sha-ni"),
        }
    }
}

/// The kernel [`compress_many`] runs on this host, detected once per
/// process: the last of [`supported`]. [`Sha256::compress_from`] runs
/// SHA-NI exactly when this is [`LaneWidth::ShaNi`].
#[must_use]
#[inline]
pub fn detected() -> LaneWidth {
    static CACHE: OnceLock<LaneWidth> = OnceLock::new();
    *CACHE.get_or_init(|| *supported().last().expect("scalar is always supported"))
}

/// Every kernel usable on this host, in ascending order of preference
/// for batches. Always starts with [`LaneWidth::Scalar`]; equality tests
/// iterate this to pin each kernel against the portable reference.
///
/// SHA-NI is listed when the CPU reports `sha`, `ssse3` and `sse4.1`
/// (the kernel's shuffles and blends need the latter two).
#[must_use]
pub fn supported() -> &'static [LaneWidth] {
    static CACHE: OnceLock<Vec<LaneWidth>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let mut widths = vec![LaneWidth::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse2") {
                widths.push(LaneWidth::W4);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                widths.push(LaneWidth::W8);
            }
            if std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
            {
                widths.push(LaneWidth::ShaNi);
            }
        }
        widths
    })
}

/// One compression of one message: SHA-NI where the CPU has it, the
/// portable kernel otherwise. This is the body of
/// [`Sha256::compress_from`].
#[inline]
pub(crate) fn compress_one(state: &[u32; 8], block: &[u8; BLOCK_LEN]) -> [u32; 8] {
    #[cfg(target_arch = "x86_64")]
    if detected() == LaneWidth::ShaNi {
        let mut out = *state;
        // SAFETY: `detected()` is ShaNi only when `supported()` found
        // sha, ssse3 and sse4.1 on this CPU at run time.
        unsafe { x86::compress_ni(&mut out, block) };
        return out;
    }
    Sha256::compress_portable(state, block)
}

/// Block-parallel compression: `states[i] ← compress(states[i],
/// blocks[i])` for every lane, using the kernel [`detected`] picked.
/// Lane count is arbitrary; full-width chunks go through the SIMD
/// kernels and the ragged tail through the portable reference, so the
/// result never depends on the batch size.
///
/// # Panics
///
/// Panics if `states` and `blocks` differ in length.
pub fn compress_many(states: &mut [[u32; 8]], blocks: &[[u8; BLOCK_LEN]]) {
    compress_many_with(detected(), states, blocks);
}

/// [`compress_many`] pinned to a specific kernel. For `W8` and `W4`:
/// full-width chunks at `width`, then 4-lane chunks, then the portable
/// kernel for the tail; `ShaNi` compresses every message on SHA-NI and
/// `Scalar` every message on the portable kernel. Exposed so tests and
/// benches can exercise each kernel explicitly.
///
/// # Panics
///
/// Panics if the lengths differ or `width` is not in [`supported`].
pub fn compress_many_with(width: LaneWidth, states: &mut [[u32; 8]], blocks: &[[u8; BLOCK_LEN]]) {
    assert_eq!(states.len(), blocks.len(), "one block per lane state");
    assert!(
        supported().contains(&width),
        "lane width {width} is not supported on this host"
    );
    let n = states.len();
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    {
        if width == LaneWidth::ShaNi {
            for (state, block) in states.iter_mut().zip(blocks) {
                // SAFETY: ShaNi is in `supported()` only when sha, ssse3
                // and sse4.1 were runtime-detected on this CPU.
                unsafe { x86::compress_ni(state, block) };
            }
            return;
        }
        if width == LaneWidth::W8 {
            while i + 8 <= n {
                // SAFETY: W8 is in `supported()` only when AVX2 was
                // runtime-detected on this CPU.
                unsafe { x86::compress8(&mut states[i..i + 8], &blocks[i..i + 8]) };
                i += 8;
            }
        }
        if matches!(width, LaneWidth::W4 | LaneWidth::W8) {
            while i + 4 <= n {
                // SAFETY: W4 is in `supported()` only when SSE2 was
                // runtime-detected, and W8 only when AVX2 (a superset
                // of SSE2) was.
                unsafe { x86::compress4(&mut states[i..i + 4], &blocks[i..i + 4]) };
                i += 4;
            }
        }
    }
    while i < n {
        states[i] = Sha256::compress_portable(&states[i], &blocks[i]);
        i += 1;
    }
}

/// Batch one-shot SHA-256: `out[i] = sha256(messages[i])`, lane-parallel.
///
/// Messages may have arbitrary (and different) lengths: lanes run in
/// lockstep over their padded block sequences and drop out as they
/// finish, so a ragged batch still fills the SIMD lanes for the blocks
/// it shares.
#[must_use]
pub fn digest_many(messages: &[&[u8]]) -> Vec<[u8; DIGEST_LEN]> {
    let states = vec![INITIAL_STATE; messages.len()];
    digest_many_from_midstates(&states, 0, messages)
}

/// Batch [`crate::sha256::digest_from_midstate`]: lane `i` resumes from
/// `states[i]` (its own cached midstate) with `prior_bytes` already
/// absorbed, and hashes `tails[i]` to completion. This is the HMAC
/// shape — every prepared key contributes its ipad (or opad) state and
/// all lanes share `prior_bytes = 64`.
///
/// # Panics
///
/// Panics if the lengths differ or `prior_bytes` is not a multiple of
/// [`BLOCK_LEN`] (midstates exist only at block boundaries).
#[must_use]
pub fn digest_many_from_midstates(
    states: &[[u32; 8]],
    prior_bytes: u64,
    tails: &[&[u8]],
) -> Vec<[u8; DIGEST_LEN]> {
    digest_many_from_midstates_with(detected(), states, prior_bytes, tails)
}

/// [`digest_many_from_midstates`] with every block compressed by
/// [`compress_many_with`] at `width`, so tests can route the standard
/// vectors through each kernel.
///
/// # Panics
///
/// Panics if the lengths differ, `prior_bytes` is not a multiple of
/// [`BLOCK_LEN`], or the batch is non-empty and `width` is not in
/// [`supported`].
#[must_use]
pub fn digest_many_from_midstates_with(
    width: LaneWidth,
    states: &[[u32; 8]],
    prior_bytes: u64,
    tails: &[&[u8]],
) -> Vec<[u8; DIGEST_LEN]> {
    assert_eq!(states.len(), tails.len(), "one tail per lane midstate");
    assert!(
        prior_bytes.is_multiple_of(BLOCK_LEN as u64),
        "midstates exist only at block boundaries"
    );
    let n = states.len();
    let mut st = states.to_vec();
    let block_counts: Vec<usize> = tails
        .iter()
        .map(|t| (t.len() + 9).div_ceil(BLOCK_LEN))
        .collect();
    let max_blocks = block_counts.iter().copied().max().unwrap_or(0);

    let mut idx: Vec<usize> = Vec::with_capacity(n);
    let mut lane_states: Vec<[u32; 8]> = Vec::with_capacity(n);
    let mut lane_blocks: Vec<[u8; BLOCK_LEN]> = Vec::with_capacity(n);
    for k in 0..max_blocks {
        idx.clear();
        lane_states.clear();
        lane_blocks.clear();
        for i in 0..n {
            if block_counts[i] > k {
                idx.push(i);
                lane_states.push(st[i]);
                lane_blocks.push(padded_block(tails[i], prior_bytes, k, block_counts[i]));
            }
        }
        compress_many_with(width, &mut lane_states, &lane_blocks);
        for (slot, i) in idx.iter().enumerate() {
            st[*i] = lane_states[slot];
        }
    }

    st.iter()
        .map(|state| {
            let mut out = [0u8; DIGEST_LEN];
            for (chunk, word) in out.chunks_exact_mut(4).zip(state.iter()) {
                chunk.copy_from_slice(&word.to_be_bytes());
            }
            out
        })
        .collect()
}

/// The `k`-th 64-byte block of `tail`'s FIPS 180-4 padding: tail bytes,
/// then `0x80`, then zeros, with the 64-bit big-endian bit length (of
/// prefix + tail) closing the final block.
fn padded_block(tail: &[u8], prior_bytes: u64, k: usize, total_blocks: usize) -> [u8; BLOCK_LEN] {
    let len = tail.len();
    let start = k * BLOCK_LEN;
    let mut block = [0u8; BLOCK_LEN];
    if start + BLOCK_LEN <= len {
        block.copy_from_slice(&tail[start..start + BLOCK_LEN]);
        return block;
    }
    if start < len {
        block[..len - start].copy_from_slice(&tail[start..]);
    }
    if len >= start && len - start < BLOCK_LEN {
        block[len - start] = 0x80;
    }
    if k == total_blocks - 1 {
        let bit_len = prior_bytes.wrapping_add(len as u64).wrapping_mul(8);
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
    }
    block
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2 / AVX2 multi-buffer kernels and the SHA-NI single-message
    //! kernel. The multi-buffer layout is struct-of-arrays: vector
    //! register `j` holds state word `j` of every lane, so the 64 rounds
    //! are the textbook scalar schedule with each `u32` op replaced by
    //! its packed-`epi32` counterpart.
    //!
    //! Every kernel here is `unsafe fn` + `#[target_feature]`: callers
    //! (only [`super::compress_many_with`] and [`super::compress_one`])
    //! must runtime-check the feature first.

    use core::arch::x86_64::*;

    use crate::sha256::{BLOCK_LEN, K};

    /// Big-endian message word `t` of `block`, as the `i32` the packed
    /// setters want.
    #[inline]
    fn word(block: &[u8; BLOCK_LEN], t: usize) -> i32 {
        u32::from_be_bytes([
            block[4 * t],
            block[4 * t + 1],
            block[4 * t + 2],
            block[4 * t + 3],
        ]) as i32
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn rotr4<const R: i32, const L: i32>(v: __m128i) -> __m128i {
        _mm_or_si128(_mm_srli_epi32::<R>(v), _mm_slli_epi32::<L>(v))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn xor3_4(a: __m128i, b: __m128i, c: __m128i) -> __m128i {
        _mm_xor_si128(_mm_xor_si128(a, b), c)
    }

    /// Four-lane SHA-256 compression (SSE2).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn compress4(states: &mut [[u32; 8]], blocks: &[[u8; BLOCK_LEN]]) {
        debug_assert_eq!(states.len(), 4);
        debug_assert_eq!(blocks.len(), 4);

        let mut w = [_mm_setzero_si128(); 64];
        for (t, wt) in w.iter_mut().enumerate().take(16) {
            *wt = _mm_set_epi32(
                word(&blocks[3], t),
                word(&blocks[2], t),
                word(&blocks[1], t),
                word(&blocks[0], t),
            );
        }
        for t in 16..64 {
            let x = w[t - 15];
            let s0 = xor3_4(
                rotr4::<7, 25>(x),
                rotr4::<18, 14>(x),
                _mm_srli_epi32::<3>(x),
            );
            let y = w[t - 2];
            let s1 = xor3_4(
                rotr4::<17, 15>(y),
                rotr4::<19, 13>(y),
                _mm_srli_epi32::<10>(y),
            );
            w[t] = _mm_add_epi32(_mm_add_epi32(w[t - 16], s0), _mm_add_epi32(w[t - 7], s1));
        }

        let mut v = [_mm_setzero_si128(); 8];
        for j in 0..8 {
            v[j] = _mm_set_epi32(
                states[3][j] as i32,
                states[2][j] as i32,
                states[1][j] as i32,
                states[0][j] as i32,
            );
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = v;
        for (t, wt) in w.iter().enumerate() {
            let big_s1 = xor3_4(rotr4::<6, 26>(e), rotr4::<11, 21>(e), rotr4::<25, 7>(e));
            // ch(e,f,g) = (e & f) ^ (!e & g) = g ^ (e & (f ^ g)).
            let ch = _mm_xor_si128(g, _mm_and_si128(e, _mm_xor_si128(f, g)));
            let t1 = _mm_add_epi32(
                _mm_add_epi32(h, big_s1),
                _mm_add_epi32(ch, _mm_add_epi32(_mm_set1_epi32(K[t] as i32), *wt)),
            );
            let big_s0 = xor3_4(rotr4::<2, 30>(a), rotr4::<13, 19>(a), rotr4::<22, 10>(a));
            // maj(a,b,c) = (a & b) | (c & (a | b)).
            let maj = _mm_or_si128(_mm_and_si128(a, b), _mm_and_si128(c, _mm_or_si128(a, b)));
            let t2 = _mm_add_epi32(big_s0, maj);
            h = g;
            g = f;
            f = e;
            e = _mm_add_epi32(d, t1);
            d = c;
            c = b;
            b = a;
            a = _mm_add_epi32(t1, t2);
        }

        let sums = [a, b, c, d, e, f, g, h];
        for j in 0..8 {
            let mut out = [0u32; 4];
            _mm_storeu_si128(
                out.as_mut_ptr().cast::<__m128i>(),
                _mm_add_epi32(v[j], sums[j]),
            );
            for (lane, state) in states.iter_mut().enumerate() {
                state[j] = out[lane];
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rotr8<const R: i32, const L: i32>(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_srli_epi32::<R>(v), _mm256_slli_epi32::<L>(v))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn xor3_8(a: __m256i, b: __m256i, c: __m256i) -> __m256i {
        _mm256_xor_si256(_mm256_xor_si256(a, b), c)
    }

    /// Eight-lane SHA-256 compression (AVX2).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn compress8(states: &mut [[u32; 8]], blocks: &[[u8; BLOCK_LEN]]) {
        debug_assert_eq!(states.len(), 8);
        debug_assert_eq!(blocks.len(), 8);

        let mut w = [_mm256_setzero_si256(); 64];
        for (t, wt) in w.iter_mut().enumerate().take(16) {
            *wt = _mm256_set_epi32(
                word(&blocks[7], t),
                word(&blocks[6], t),
                word(&blocks[5], t),
                word(&blocks[4], t),
                word(&blocks[3], t),
                word(&blocks[2], t),
                word(&blocks[1], t),
                word(&blocks[0], t),
            );
        }
        for t in 16..64 {
            let x = w[t - 15];
            let s0 = xor3_8(
                rotr8::<7, 25>(x),
                rotr8::<18, 14>(x),
                _mm256_srli_epi32::<3>(x),
            );
            let y = w[t - 2];
            let s1 = xor3_8(
                rotr8::<17, 15>(y),
                rotr8::<19, 13>(y),
                _mm256_srli_epi32::<10>(y),
            );
            w[t] = _mm256_add_epi32(
                _mm256_add_epi32(w[t - 16], s0),
                _mm256_add_epi32(w[t - 7], s1),
            );
        }

        let mut v = [_mm256_setzero_si256(); 8];
        for j in 0..8 {
            v[j] = _mm256_set_epi32(
                states[7][j] as i32,
                states[6][j] as i32,
                states[5][j] as i32,
                states[4][j] as i32,
                states[3][j] as i32,
                states[2][j] as i32,
                states[1][j] as i32,
                states[0][j] as i32,
            );
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = v;
        for (t, wt) in w.iter().enumerate() {
            let big_s1 = xor3_8(rotr8::<6, 26>(e), rotr8::<11, 21>(e), rotr8::<25, 7>(e));
            let ch = _mm256_xor_si256(g, _mm256_and_si256(e, _mm256_xor_si256(f, g)));
            let t1 = _mm256_add_epi32(
                _mm256_add_epi32(h, big_s1),
                _mm256_add_epi32(ch, _mm256_add_epi32(_mm256_set1_epi32(K[t] as i32), *wt)),
            );
            let big_s0 = xor3_8(rotr8::<2, 30>(a), rotr8::<13, 19>(a), rotr8::<22, 10>(a));
            let maj = _mm256_or_si256(
                _mm256_and_si256(a, b),
                _mm256_and_si256(c, _mm256_or_si256(a, b)),
            );
            let t2 = _mm256_add_epi32(big_s0, maj);
            h = g;
            g = f;
            f = e;
            e = _mm256_add_epi32(d, t1);
            d = c;
            c = b;
            b = a;
            a = _mm256_add_epi32(t1, t2);
        }

        let sums = [a, b, c, d, e, f, g, h];
        for j in 0..8 {
            let mut out = [0u32; 8];
            _mm256_storeu_si256(
                out.as_mut_ptr().cast::<__m256i>(),
                _mm256_add_epi32(v[j], sums[j]),
            );
            for (lane, state) in states.iter_mut().enumerate() {
                state[j] = out[lane];
            }
        }
    }

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
    use crate::sha256::{digest, digest_from_midstate};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn scalar_is_always_supported_and_detected_is_last() {
        let widths = supported();
        assert_eq!(widths[0], LaneWidth::Scalar);
        assert_eq!(detected(), *widths.last().unwrap());
        assert!(widths.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
    }

    #[test]
    fn lane_counts() {
        assert_eq!(LaneWidth::Scalar.lanes(), 1);
        assert_eq!(LaneWidth::W4.lanes(), 4);
        assert_eq!(LaneWidth::W8.lanes(), 8);
        assert_eq!(LaneWidth::ShaNi.lanes(), 1);
        assert_eq!(LaneWidth::W4.to_string(), "x4");
        assert_eq!(LaneWidth::ShaNi.to_string(), "sha-ni");
    }

    #[test]
    fn every_width_matches_the_scalar_compression() {
        // 17 lanes exercises 8-chunk + 4-chunk + portable-tail dispatch.
        let n = 17;
        let states: Vec<[u32; 8]> = (0..n)
            .map(|i| {
                let mut s = INITIAL_STATE;
                s[0] ^= i as u32;
                s
            })
            .collect();
        let blocks: Vec<[u8; BLOCK_LEN]> = (0..n)
            .map(|i| {
                let mut b = [0u8; BLOCK_LEN];
                for (j, byte) in b.iter_mut().enumerate() {
                    *byte = (i * 131 + j) as u8;
                }
                b
            })
            .collect();
        let reference: Vec<[u32; 8]> = states
            .iter()
            .zip(blocks.iter())
            .map(|(s, b)| Sha256::compress_portable(s, b))
            .collect();
        for width in supported() {
            let mut got = states.clone();
            compress_many_with(*width, &mut got, &blocks);
            assert_eq!(got, reference, "width {width}");
        }
    }

    #[test]
    fn digest_many_matches_scalar_on_ragged_batches() {
        let messages: Vec<Vec<u8>> = (0..13usize)
            .map(|i| (0..i * 23).map(|j| (j % 251) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let got = digest_many(&refs);
        for (i, msg) in messages.iter().enumerate() {
            assert_eq!(got[i], digest(msg), "lane {i}");
        }
        assert!(digest_many(&[]).is_empty());
    }

    #[test]
    fn digest_many_fips_vectors() {
        let out = digest_many(&[
            b"abc".as_slice(),
            b"".as_slice(),
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".as_slice(),
        ]);
        assert_eq!(
            hex(&out[0]),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&out[1]),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&out[2]),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn midstate_batches_match_the_scalar_midstate_path() {
        let prefix = [0x36u8; BLOCK_LEN];
        let mid = Sha256::compress_from(&INITIAL_STATE, &prefix);
        let tails: Vec<Vec<u8>> = (0..9usize)
            .map(|i| (0..i * 31).map(|j| (i * 7 + j) as u8).collect())
            .collect();
        let tail_refs: Vec<&[u8]> = tails.iter().map(Vec::as_slice).collect();
        let states = vec![mid; tails.len()];
        let got = digest_many_from_midstates(&states, BLOCK_LEN as u64, &tail_refs);
        for (i, tail) in tails.iter().enumerate() {
            assert_eq!(
                got[i],
                digest_from_midstate(&mid, BLOCK_LEN as u64, tail),
                "lane {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one block per lane")]
    fn compress_many_rejects_mismatched_lengths() {
        let mut states = [INITIAL_STATE; 2];
        compress_many(&mut states, &[[0u8; BLOCK_LEN]]);
    }

    #[test]
    #[should_panic(expected = "block boundaries")]
    fn midstate_batch_rejects_unaligned_prior_bytes() {
        let _ = digest_many_from_midstates(&[INITIAL_STATE], 10, &[b"x".as_slice()]);
    }
}
