//! Kernel-vs-portable equality for the SHA-256 stack, on the in-tree
//! `dap-testkit` harness (deterministic, seeded, shrinking).
//!
//! Every compression kernel this host supports — SSE2 ×4, AVX2 ×8 and
//! SHA-NI — and every batch API built on them must be bit-identical to
//! the portable kernel, on ragged batch sizes (0, 1, 3, lanes-1, lanes,
//! lanes+1, and random): a faster kernel is a pure throughput
//! trade-off, never an observable one. The standard vectors (FIPS 180-4
//! for SHA-256, RFC 4231 for HMAC-SHA-256) are also routed through each
//! kernel, so the kernels are pinned to the specification, not just to
//! our own portable code.

use dap_crypto::hmac::{hmac_sha256, PreparedMacKey};
use dap_crypto::lanes::{
    compress_many_with, detected, digest_many, digest_many_from_midstates_with, supported,
    LaneWidth,
};
use dap_crypto::sha256::{
    digest, digest_from_midstate, Sha256, BLOCK_LEN, DIGEST_LEN, INITIAL_STATE,
};
use dap_testkit::{check, Gen};

/// The batch sizes every width must handle: empty, sub-width, exactly
/// one SIMD chunk, and one lane past a chunk boundary.
fn ragged_sizes(width: LaneWidth) -> Vec<usize> {
    let lanes = width.lanes();
    let mut sizes = vec![0, 1, 3, lanes.saturating_sub(1), lanes, lanes + 1];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

fn arb_state(g: &mut Gen) -> [u32; 8] {
    let mut s = INITIAL_STATE;
    for word in &mut s {
        *word ^= g.any_u32();
    }
    s
}

fn arb_block(g: &mut Gen) -> [u8; BLOCK_LEN] {
    g.byte_array()
}

#[test]
fn compress_many_equals_scalar_loop_on_every_width_and_ragged_size() {
    check("compress_many_lane_vs_scalar", |g| {
        for &width in supported() {
            for n in ragged_sizes(width) {
                let states: Vec<[u32; 8]> = (0..n).map(|_| arb_state(g)).collect();
                let blocks: Vec<[u8; BLOCK_LEN]> = (0..n).map(|_| arb_block(g)).collect();
                let reference: Vec<[u32; 8]> = states
                    .iter()
                    .zip(blocks.iter())
                    .map(|(s, b)| Sha256::compress_portable(s, b))
                    .collect();
                let mut got = states.clone();
                compress_many_with(width, &mut got, &blocks);
                assert_eq!(got, reference, "width {width}, batch {n}");
            }
        }
    });
}

#[test]
fn compress_from_equals_the_portable_kernel() {
    // The single-message entry point dispatches (SHA-NI where the CPU
    // has it); whatever it picked must be the portable function.
    check("compress_from_vs_portable", |g| {
        let state = arb_state(g);
        let block = arb_block(g);
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
    assert_eq!(detected() == LaneWidth::ShaNi, has_sha_ni);
    assert_eq!(supported().contains(&LaneWidth::ShaNi), has_sha_ni);
}

#[test]
fn digest_many_equals_scalar_digest_on_ragged_batches() {
    check("digest_many_lane_vs_scalar", |g| {
        // Random batch size around the widest kernel's chunk boundary,
        // with per-lane lengths straddling block boundaries (empty,
        // sub-block, multi-block).
        let n = g.usize_in(0..19);
        let messages: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..200)).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let got = digest_many(&refs);
        assert_eq!(got.len(), n);
        for (i, msg) in messages.iter().enumerate() {
            assert_eq!(got[i], digest(msg), "lane {i} of {n}");
        }
    });
}

#[test]
fn midstate_batches_equal_the_scalar_midstate_path() {
    check("digest_many_from_midstates_lane_vs_scalar", |g| {
        let n = g.usize_in(0..13);
        // Each lane resumes from its own midstate, the HMAC shape: one
        // absorbed block, then a ragged tail.
        let prefixes: Vec<[u8; BLOCK_LEN]> = (0..n).map(|_| arb_block(g)).collect();
        let states: Vec<[u32; 8]> = prefixes
            .iter()
            .map(|p| Sha256::compress_portable(&INITIAL_STATE, p))
            .collect();
        let tails: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..150)).collect();
        let tail_refs: Vec<&[u8]> = tails.iter().map(Vec::as_slice).collect();
        // The portable kernel under the batch padding is the reference;
        // it must also agree with the single-message padding code.
        let reference = digest_many_from_midstates_with(
            LaneWidth::Scalar,
            &states,
            BLOCK_LEN as u64,
            &tail_refs,
        );
        for i in 0..n {
            assert_eq!(
                reference[i],
                digest_from_midstate(&states[i], BLOCK_LEN as u64, &tails[i]),
                "lane {i} of {n}"
            );
        }
        for &width in supported() {
            let got = digest_many_from_midstates_with(width, &states, BLOCK_LEN as u64, &tail_refs);
            assert_eq!(got, reference, "width {width}, batch {n}");
        }
    });
}

#[test]
fn prepared_mac_many_equals_the_scalar_prepared_mac() {
    check("prepared_mac_many_lane_vs_scalar", |g| {
        let n = g.usize_in(0..11);
        // Keys straddle the block boundary so both the copied and the
        // pre-hashed key schedules feed the batch.
        let keys: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..96)).collect();
        let prepared: Vec<PreparedMacKey> = keys.iter().map(|k| PreparedMacKey::new(k)).collect();
        let messages: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0..128)).collect();
        let msg_refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let prepared_refs: Vec<&PreparedMacKey> = prepared.iter().collect();
        let got = PreparedMacKey::mac_many(&prepared_refs, &msg_refs);
        for i in 0..n {
            assert_eq!(got[i], prepared[i].mac(&messages[i]), "lane {i} of {n}");
            assert_eq!(got[i], hmac_sha256(&keys[i], &messages[i]), "lane {i}");
        }
    });
}

// ---------------------------------------------------------------------
// Specification vectors through the multi-lane path.
// ---------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FIPS 180-4 SHA-256 vectors, all submitted as ONE ragged batch: once
/// through `digest_many` (the batch kernel the host picked) and once
/// through every kernel the host supports, SHA-NI and the portable
/// reference included.
#[test]
fn fips_180_4_vectors_through_the_multi_lane_path() {
    let million_a = vec![b'a'; 1_000_000];
    let messages: [&[u8]; 4] = [
        b"abc",
        b"",
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        &million_a,
    ];
    let expected = [
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
    ];
    let mut paths = vec![("digest_many".to_string(), digest_many(&messages))];
    for &width in supported() {
        let got = digest_many_from_midstates_with(width, &[INITIAL_STATE; 4], 0, &messages);
        paths.push((width.to_string(), got));
    }
    for (path, got) in paths {
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(hex(&got[i]), *want, "FIPS vector {i} via {path}");
        }
    }
}

/// HMAC-SHA-256 (RFC 2104) with every compression — key hashing, the
/// ipad/opad midstates and both passes — on `width`.
fn hmac_many_with(width: LaneWidth, keys: &[&[u8]], data: &[&[u8]]) -> Vec<[u8; DIGEST_LEN]> {
    let block_keys: Vec<[u8; BLOCK_LEN]> = keys
        .iter()
        .map(|key| {
            let mut block = [0u8; BLOCK_LEN];
            if key.len() > BLOCK_LEN {
                let hashed = digest_many_from_midstates_with(width, &[INITIAL_STATE], 0, &[key]);
                block[..DIGEST_LEN].copy_from_slice(&hashed[0]);
            } else {
                block[..key.len()].copy_from_slice(key);
            }
            block
        })
        .collect();
    let pad_states = |pad: u8| {
        let blocks: Vec<[u8; BLOCK_LEN]> = block_keys.iter().map(|k| k.map(|b| b ^ pad)).collect();
        let mut states = vec![INITIAL_STATE; blocks.len()];
        compress_many_with(width, &mut states, &blocks);
        states
    };
    let inner = digest_many_from_midstates_with(width, &pad_states(0x36), BLOCK_LEN as u64, data);
    let inner_refs: Vec<&[u8]> = inner.iter().map(<[u8; DIGEST_LEN]>::as_slice).collect();
    digest_many_from_midstates_with(width, &pad_states(0x5c), BLOCK_LEN as u64, &inner_refs)
}

/// RFC 4231 HMAC-SHA-256 test cases 1-4, 6 and 7 (case 5 specifies a
/// truncated output and is out of scope), through
/// [`PreparedMacKey::mac_many`] — the batched HMAC pipeline under
/// `one_way_many` and fleet chain generation — and through every kernel
/// the host supports, SHA-NI and the portable reference included.
#[test]
fn rfc_4231_vectors_through_the_multi_lane_path() {
    let case4_key: Vec<u8> = (1..=25).collect();
    let long_key = vec![0xaau8; 131];
    let keys: [&[u8]; 6] = [
        &[0x0bu8; 20],
        b"Jefe",
        &[0xaau8; 20],
        &case4_key,
        &long_key,
        &long_key,
    ];
    let data: [&[u8]; 6] = [
        b"Hi There",
        b"what do ya want for nothing?",
        &[0xddu8; 50],
        &[0xcdu8; 50],
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        b"This is a test using a larger than block-size key and a larger \
          than block-size data. The key needs to be hashed before being \
          used by the HMAC algorithm.",
    ];
    let expected = [
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ];
    let prepared: Vec<PreparedMacKey> = keys.iter().map(|k| PreparedMacKey::new(k)).collect();
    let prepared_refs: Vec<&PreparedMacKey> = prepared.iter().collect();
    let mut paths = vec![(
        "mac_many".to_string(),
        PreparedMacKey::mac_many(&prepared_refs, &data),
    )];
    for &width in supported() {
        paths.push((width.to_string(), hmac_many_with(width, &keys, &data)));
    }
    for (path, got) in paths {
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(hex(&got[i]), *want, "RFC 4231 case {i} via {path}");
        }
    }
}
