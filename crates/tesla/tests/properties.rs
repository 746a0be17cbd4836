//! Property-based tests for the TESLA protocol family, on the in-tree
//! `dap-testkit` harness (deterministic, seeded, shrinking).

use dap_crypto::Mac80;
use dap_simnet::{SimDuration, SimRng, SimTime};
use dap_tesla::multilevel::{Linkage, MultiLevelParams, MultiLevelReceiver, MultiLevelSender};
use dap_tesla::tesla::{TeslaPacket, TeslaReceiver, TeslaSender};
use dap_tesla::{ReservoirBuffer, SafetyCheck, TeslaParams};
use dap_testkit::{check, check_with, Config};

/// TESLA authenticates exactly the sender's messages regardless of
/// which packets are lost.
#[test]
fn tesla_sound_under_arbitrary_loss() {
    check("tesla_sound_under_arbitrary_loss", |g| {
        let seed = g.any_u64();
        let loss_mask: Vec<bool> = (0..30).map(|_| g.any_bool()).collect();
        let params = TeslaParams::new(SimDuration(100), 2, 0);
        let sender = TeslaSender::new(&seed.to_le_bytes(), 30, params);
        let mut receiver = TeslaReceiver::new(sender.bootstrap());
        for (idx, lost) in loss_mask.iter().enumerate() {
            let i = idx as u64 + 1;
            if *lost {
                continue;
            }
            let pkt = sender.packet(i, format!("msg {i}").as_bytes()).unwrap();
            receiver.on_packet(&pkt, SimTime((i - 1) * 100 + 10));
        }
        for (i, msg) in receiver.authenticated() {
            let expected = format!("msg {i}");
            assert_eq!(&msg[..], expected.as_bytes());
        }
        // Everything delivered whose key was later disclosed by another
        // delivered packet must have authenticated: count an upper bound.
        assert!(receiver.authenticated().len() <= 30);
    });
}

/// The safe-packet test is monotone: once a packet is unsafe it can
/// never become safe again at a later local time.
#[test]
fn safety_is_monotone_in_time() {
    check("safety_is_monotone_in_time", |g| {
        let interval = g.u64_in(1..1000);
        let d = g.u64_in(1..5);
        let delta = g.u64_in(0..200);
        let index = g.u64_in(1..50);
        let check = SafetyCheck {
            schedule: dap_simnet::IntervalSchedule::new(SimTime::ZERO, SimDuration(interval)),
            disclosure_delay: d,
            max_clock_offset: delta,
        };
        let mut was_unsafe = false;
        for t in (0..interval * 60).step_by((interval / 2).max(1) as usize) {
            let safe = check.is_safe(index, SimTime(t));
            if was_unsafe {
                assert!(!safe, "index {index} became safe again at t={t}");
            }
            was_unsafe |= !safe;
        }
    });
}

/// Reservoir survival is order-independent: shuffling the offer order
/// does not change the marked item's survival *probability* (checked by
/// frequency over many trials for two fixed orders). Statistical trials
/// are expensive, so this one runs the 64-case floor rather than the
/// default 96.
#[test]
fn reservoir_order_independence() {
    let config = Config {
        cases: 64,
        ..Config::default()
    };
    check_with(config, "reservoir_order_independence", |g| {
        let seed = g.any_u64();
        let m = g.usize_in(1..6);
        let trials = 4000;
        let n = 15u32;
        let survival = |mark_last: bool, seed: u64| {
            let mut rng = SimRng::new(seed);
            let mut hits = 0u32;
            for _ in 0..trials {
                let mut pool = ReservoirBuffer::new(m);
                for i in 0..n {
                    let marked = if mark_last { i == n - 1 } else { i == 0 };
                    pool.offer(marked, &mut rng);
                }
                if pool.any(|&x| x) {
                    hits += 1;
                }
            }
            f64::from(hits) / f64::from(trials)
        };
        let first = survival(false, seed);
        let last = survival(true, seed.wrapping_add(1));
        let expect = m as f64 / f64::from(n);
        assert!((first - expect).abs() < 0.05, "first {first} vs {expect}");
        assert!((last - expect).abs() < 0.05, "last {last} vs {expect}");
    });
}

/// `offer_with` is `offer` with the copy built only when kept: over
/// seeded `m`, offer counts and RNG seeds, `make` runs exactly once per
/// stored outcome and never on `Dropped`, and the outcomes, entries,
/// `offered()` and the RNG's next draw equal `offer` with every item
/// built up front.
#[test]
fn lazy_offer_matches_eager_offer() {
    check("lazy_offer_matches_eager_offer", |g| {
        let m = g.usize_in(1..9);
        let offers = g.u64_in(0..200);
        let seed = g.any_u64();
        let (mut eager_rng, mut lazy_rng) = (SimRng::new(seed), SimRng::new(seed));
        let (mut eager, mut lazy) = (ReservoirBuffer::new(m), ReservoirBuffer::new(m));
        for k in 0..offers {
            let expect = eager.offer(k, &mut eager_rng);
            let mut built = 0u32;
            let outcome = lazy.offer_with(
                || {
                    built += 1;
                    k
                },
                &mut lazy_rng,
            );
            assert_eq!(outcome, expect, "offer {k} of m = {m}");
            assert_eq!(
                built,
                u32::from(outcome.is_stored()),
                "offer {k} ({outcome:?}) built its copy {built} times"
            );
        }
        assert_eq!(lazy.offered(), eager.offered());
        assert!(lazy.iter().eq(eager.iter()), "entries diverged");
        assert_eq!(lazy_rng.next_u64(), eager_rng.next_u64(), "RNG diverged");
    });
}

/// Multi-level index arithmetic round-trips for any geometry.
#[test]
fn multilevel_index_roundtrip() {
    check("multilevel_index_roundtrip", |g| {
        let n = g.u32_in(1..20);
        let high = g.u64_in(1..100);
        let low_seed = g.any_u32();
        let params = MultiLevelParams::new(SimDuration(10), n, 4, 1, Linkage::Eftp);
        let low = low_seed % n + 1;
        let global = params.global_low_index(high, low);
        assert_eq!(params.split_low_index(global), (high, low));
    });
}

/// Forged TESLA packets (random MAC) never authenticate, whatever their
/// claimed interval.
#[test]
fn tesla_rejects_random_macs() {
    check("tesla_rejects_random_macs", |g| {
        let seed = g.any_u64();
        let claimed = g.u64_in(1..20);
        let params = TeslaParams::new(SimDuration(100), 2, 0);
        let sender = TeslaSender::new(&seed.to_le_bytes(), 30, params);
        let mut receiver = TeslaReceiver::new(sender.bootstrap());
        let mut rng = SimRng::new(seed);
        let mut mac = [0u8; 10];
        rng.fill_bytes(&mut mac);
        let forged = TeslaPacket {
            index: claimed,
            message: b"evil".to_vec(),
            mac: Mac80::from_slice(&mac).unwrap(),
            disclosed: None,
        };
        receiver.on_packet(&forged, SimTime((claimed - 1) * 100 + 1));
        // Deliver genuine packets that disclose the claimed interval's key.
        for i in claimed..(claimed + 4) {
            let pkt = sender.packet(i, b"fine").unwrap();
            receiver.on_packet(&pkt, SimTime((i - 1) * 100 + 20));
        }
        for (_, msg) in receiver.authenticated() {
            assert_ne!(&msg[..], b"evil");
        }
    });
}

/// Low-level chains derived from the same seed agree between sender
/// instances (deterministic provisioning), and differ across seeds.
#[test]
fn multilevel_chains_deterministic() {
    check("multilevel_chains_deterministic", |g| {
        let seed = g.any_u64();
        let chain = g.u64_in(1..10);
        let params = MultiLevelParams::new(SimDuration(10), 4, 16, 1, Linkage::Eftp);
        let a = MultiLevelSender::new(&seed.to_le_bytes(), params);
        let b = MultiLevelSender::new(&seed.to_le_bytes(), params);
        let ca = *a.low_chain(chain).unwrap().commitment();
        let cb = *b.low_chain(chain).unwrap().commitment();
        assert_eq!(ca, cb);
        let c = MultiLevelSender::new(&seed.wrapping_add(1).to_le_bytes(), params);
        let cc = *c.low_chain(chain).unwrap().commitment();
        assert_ne!(ca, cc);
    });
}

/// A receiver fed any subsequence of the CDM stream never installs a
/// commitment that disagrees with the sender's chains.
#[test]
fn multilevel_commitments_always_genuine() {
    check("multilevel_commitments_always_genuine", |g| {
        let seed = g.any_u64();
        let delivered: Vec<bool> = (0..12).map(|_| g.any_bool()).collect();
        let params = MultiLevelParams::new(SimDuration(25), 4, 16, 3, Linkage::Eftp);
        let sender = MultiLevelSender::new(&seed.to_le_bytes(), params);
        let mut receiver = MultiLevelReceiver::new(sender.bootstrap());
        let mut rng = SimRng::new(seed);
        for (idx, deliver) in delivered.iter().enumerate() {
            let i = idx as u64 + 1;
            if !deliver {
                continue;
            }
            if let Some(cdm) = sender.cdm(i) {
                let t = SimTime((params.global_low_index(i, 1) - 1) * 25 + 1);
                receiver.on_cdm(&cdm, t, &mut rng);
            }
        }
        // Every installed chain must authenticate that chain's traffic.
        for chain in 1..=14u64 {
            if receiver.has_commitment(chain) {
                let pkt = sender.data_packet(chain, 1, b"check").unwrap();
                let t = SimTime((params.global_low_index(chain, 1) - 1) * 25 + 1);
                let _ = receiver.on_low_packet(&pkt, t);
                if let Some(d) = sender.low_disclosure(chain, 2) {
                    let td = SimTime((params.global_low_index(chain, 2) - 1) * 25 + 1);
                    let events = receiver.on_low_disclosure(&d, td);
                    let rejected = events
                        .iter()
                        .any(|e| matches!(e, dap_tesla::multilevel::MlEvent::LowRejected { .. }));
                    assert!(!rejected, "chain {chain} rejected genuine data");
                }
            }
        }
    });
}
