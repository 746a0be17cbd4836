//! The dispatched SHA-256 kernel against the portable one, on the
//! in-tree `dap-testkit` harness (deterministic, seeded, shrinking).
//!
//! [`Sha256::compress_from`] runs SHA-NI where the CPU has it and the
//! portable kernel otherwise: whichever it picked must be bit-identical
//! to [`Sha256::compress_portable`], so a faster kernel is never an
//! observable one. The FIPS 180-4 vectors run through both, so on a
//! SHA-NI host each kernel is pinned to the specification itself, not
//! only to the other. The RFC 4231 HMAC vectors stay in `hmac.rs`.

use dap_crypto::sha256::{digest, sha_ni, Sha256, BLOCK_LEN, DIGEST_LEN, INITIAL_STATE};
use dap_testkit::{check, Gen};

fn arb_state(g: &mut Gen) -> [u32; 8] {
    let mut s = INITIAL_STATE;
    for word in &mut s {
        *word ^= g.any_u32();
    }
    s
}

#[test]
fn compress_from_equals_the_portable_kernel() {
    // The single-message entry point dispatches (SHA-NI where the CPU
    // has it); whatever it picked must be the portable function.
    check("compress_from_vs_portable", |g| {
        let state = arb_state(g);
        let block = g.byte_array();
        assert_eq!(
            Sha256::compress_from(&state, &block),
            Sha256::compress_portable(&state, &block)
        );
    });
}

/// The kernel choice is CPU detection alone: SHA-NI exactly when the
/// CPU reports the extensions its kernel needs. A detection bug would
/// otherwise cost every hash its fastest kernel without failing a test.
#[test]
fn dispatcher_picks_sha_ni_whenever_the_cpu_has_it() {
    #[cfg(target_arch = "x86_64")]
    let has_sha_ni = std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    let has_sha_ni = false;
    assert_eq!(sha_ni(), has_sha_ni);
}

/// SHA-256 of `message` on the portable kernel alone: FIPS 180-4
/// §5.1.1 padding, written out here so no block takes the dispatched
/// path.
fn portable_digest(message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut padded = message.to_vec();
    padded.push(0x80);
    while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
        padded.push(0);
    }
    padded.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
    let mut state = INITIAL_STATE;
    for block in padded.chunks_exact(BLOCK_LEN) {
        state = Sha256::compress_portable(&state, block.try_into().expect("exact chunk"));
    }
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The FIPS 180-4 SHA-256 vectors through the dispatched path (the
/// kernel this host picked, under `digest`'s padding) and through the
/// portable kernel directly.
#[test]
fn fips_180_4_vectors_through_the_dispatched_and_portable_kernels() {
    let million_a = vec![b'a'; 1_000_000];
    let vectors: [(&[u8], &str); 4] = [
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for (i, (message, want)) in vectors.iter().enumerate() {
        assert_eq!(hex(&digest(message)), *want, "FIPS vector {i}, dispatched");
        assert_eq!(
            hex(&portable_digest(message)),
            *want,
            "FIPS vector {i}, portable"
        );
    }
}
