//! Property-based tests for the crypto substrate, on the in-tree
//! `dap-testkit` harness (deterministic, seeded, shrinking).

use dap_crypto::oneway::one_way_iter;
use dap_crypto::sha256::Sha256;
use dap_crypto::{ct_eq, Domain, Key, KeyChain, PreparedMacKey};
use dap_testkit::{check, Gen, Strategy};

fn arb_key() -> Strategy<Key> {
    Strategy::new(|g: &mut Gen| {
        let bytes: [u8; 10] = g.byte_array();
        Key::from_slice(&bytes).unwrap()
    })
}

const DOMAINS: [Domain; 6] = [
    Domain::F,
    Domain::MacKey,
    Domain::F0,
    Domain::F1,
    Domain::F01,
    Domain::CdmCommit,
];

fn arb_domain(g: &mut Gen) -> Domain {
    *g.pick(&DOMAINS)
}

#[test]
fn sha256_streaming_equals_oneshot() {
    check("sha256_streaming_equals_oneshot", |g| {
        let data = g.bytes(0..512);
        let split = g.usize_in(0..512).min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), dap_crypto::sha256::digest(&data));
    });
}

#[test]
fn ct_eq_matches_slice_eq() {
    check("ct_eq_matches_slice_eq", |g| {
        let a = g.bytes(0..64);
        let b = g.bytes(0..64);
        assert_eq!(ct_eq(&a, &b), a == b);
    });
}

#[test]
fn one_way_iter_composes() {
    let key = arb_key();
    check("one_way_iter_composes", move |g| {
        let key = key.sample(g);
        let domain = arb_domain(g);
        let a = g.usize_in(0..8);
        let b = g.usize_in(0..8);
        let left = one_way_iter(domain, &one_way_iter(domain, &key, a), b);
        let right = one_way_iter(domain, &key, a + b);
        assert_eq!(left, right);
    });
}

#[test]
fn chain_anchor_accepts_every_key_in_any_order_of_gaps() {
    check("chain_anchor_accepts_gaps", |g| {
        let seed = g.any_u64();
        let indices = g.btree_set_u64(1..40, 1..10);
        let chain = KeyChain::generate(&seed.to_le_bytes(), 40, Domain::F);
        let mut anchor = chain.anchor();
        // Strictly increasing subsets of disclosures must all verify.
        for &i in &indices {
            assert!(anchor.accept(chain.key(i as usize).unwrap(), i).is_ok());
        }
    });
}

#[test]
fn chain_anchor_rejects_random_keys() {
    let forged = arb_key();
    check("chain_anchor_rejects_random_keys", move |g| {
        let seed = g.any_u64();
        let forged = forged.sample(g);
        let index = g.u64_in(1..40);
        let chain = KeyChain::generate(&seed.to_le_bytes(), 40, Domain::F);
        // A random 80-bit key is on the chain with probability 2^-80.
        dap_testkit::assume(&forged != chain.key(index as usize).unwrap());
        let anchor = chain.anchor();
        assert!(anchor.verify(&forged, index).is_err());
    });
}

#[test]
fn prepared_mac_key_equals_oneshot_hmac() {
    check("prepared_mac_key_equals_oneshot_hmac", |g| {
        let key = g.bytes(0..96);
        let prepared = PreparedMacKey::new(&key);
        for _ in 0..4 {
            let msg = g.bytes(0..200);
            assert_eq!(
                prepared.mac(&msg),
                dap_crypto::hmac::hmac_sha256(&key, &msg)
            );
        }
    });
}

#[test]
fn mac80_deterministic_and_message_binding() {
    use dap_crypto::mac::{mac80, verify_mac80};
    let key = arb_key();
    check("mac80_deterministic_and_message_binding", move |g| {
        let key = key.sample(g);
        let m1 = g.bytes(0..64);
        let m2 = g.bytes(0..64);
        let t1 = mac80(&key, &m1);
        assert!(verify_mac80(&key, &m1, &t1));
        if m1 != m2 {
            // 80-bit tags: collision probability is negligible for the
            // case counts the harness runs.
            assert_ne!(t1, mac80(&key, &m2));
        }
    });
}
