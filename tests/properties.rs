//! Cross-crate property-based tests: protocol invariants under arbitrary
//! parameters, adversarial inputs and interleavings. Runs on the in-tree
//! `dap-testkit` harness (deterministic, seeded, shrinking).

use crowdsense_dap::crypto::{Key, Mac80};
use crowdsense_dap::dap::wire::Announce;
use crowdsense_dap::dap::{DapParams, DapReceiver, DapSender, RevealOutcome};
use crowdsense_dap::game::dynamics::{evolve, ReplicatorField, TwoPopulationGame};
use crowdsense_dap::game::{DosGameParams, PopulationState};
use crowdsense_dap::simnet::{SimDuration, SimRng, SimTime};
use crowdsense_dap::tesla::ReservoirBuffer;
use dap_testkit::check;

/// DAP authenticates exactly the sender's messages under any
/// interleaving of forged announcements, for any buffer count.
#[test]
fn dap_soundness_under_arbitrary_floods() {
    check("dap_soundness_under_arbitrary_floods", |g| {
        let m = g.usize_in(1..12);
        let seed = g.any_u64();
        let forged_per_interval = g.u32_in(0..12);
        let intervals = g.u64_in(1..25);
        let params = DapParams::new(SimDuration(100), 1, 0, m);
        let mut sender = DapSender::new(&seed.to_le_bytes(), intervals as usize, params);
        let mut receiver = DapReceiver::new(sender.bootstrap(), b"prop");
        let mut rng = SimRng::new(seed);

        for i in 1..=intervals {
            let t_a = SimTime((i - 1) * 100 + 10);
            let t_r = SimTime(i * 100 + 10);
            let genuine = sender.announce(i, format!("real {i}").as_bytes()).unwrap();
            // Random interleaving position for the genuine copy.
            let pos = rng.below(u64::from(forged_per_interval) + 1);
            for k in 0..=forged_per_interval {
                if u64::from(k) == pos {
                    receiver.on_announce(&genuine, t_a, &mut rng);
                } else {
                    let mut mac = [0u8; 10];
                    rng.fill_bytes(&mut mac);
                    receiver.on_announce(
                        &Announce {
                            index: i,
                            mac: Mac80::from_slice(&mac).unwrap(),
                        },
                        t_a,
                        &mut rng,
                    );
                }
            }
            let outcome = receiver.on_reveal(&sender.reveal(i).unwrap(), t_r);
            if outcome.is_authenticated() {
                assert_eq!(outcome, RevealOutcome::Authenticated { index: i });
            }
            // Hard memory bound at all times.
            assert!(receiver.memory_bits() <= (m as u64) * 56);
        }
        // With no forged traffic everything must authenticate.
        if forged_per_interval == 0 {
            assert_eq!(receiver.stats().authenticated, intervals);
        }
    });
}

/// Tampering any byte of the reveal (message or key) is always
/// rejected.
#[test]
fn dap_rejects_any_single_tampering() {
    check("dap_rejects_any_single_tampering", |g| {
        let seed = g.any_u64();
        let flip_key = g.any_bool();
        let byte = g.usize_in(0..10);
        let bit = g.u32_in(0..8) as u8;
        let params = DapParams::default();
        let mut sender = DapSender::new(&seed.to_le_bytes(), 4, params);
        let mut receiver = DapReceiver::new(sender.bootstrap(), b"prop2");
        let mut rng = SimRng::new(seed);
        let ann = sender.announce(1, b"ten bytes!").unwrap();
        receiver.on_announce(&ann, SimTime(10), &mut rng);
        let mut rev = sender.reveal(1).unwrap();
        if flip_key {
            let mut kb: [u8; 10] = rev.key.as_bytes().try_into().unwrap();
            kb[byte] ^= 1 << bit;
            rev.key = Key::from_slice(&kb).unwrap();
        } else {
            let mut mb = rev.message.to_vec();
            mb[byte] ^= 1 << bit;
            rev.message = mb;
        }
        let out = receiver.on_reveal(&rev, SimTime(110));
        assert!(!out.is_authenticated());
    });
}

/// Reservoir pool: never exceeds capacity; total stored+dropped equals
/// offered; survival of a marked item matching m/n within statistical
/// tolerance is covered by unit tests — here we check the structural
/// invariants for arbitrary offer counts.
#[test]
fn reservoir_structural_invariants() {
    check("reservoir_structural_invariants", |g| {
        let capacity = g.usize_in(1..20);
        let offers = g.u64_in(0..200);
        let seed = g.any_u64();
        let mut rng = SimRng::new(seed);
        let mut pool = ReservoirBuffer::new(capacity);
        for i in 0..offers {
            pool.offer(i, &mut rng);
            assert!(pool.len() <= capacity);
        }
        assert_eq!(pool.offered(), offers);
        assert_eq!(pool.len() as u64, offers.min(capacity as u64));
        // Stored entries are a subset of what was offered (no invention).
        for &e in pool.iter() {
            assert!(e < offers);
        }
    });
}

/// Replicator dynamics keep the state in the unit square and leave
/// every corner fixed, for any valid game parameters.
#[test]
fn replicator_respects_simplex() {
    check("replicator_respects_simplex", |g| {
        let p = g.f64_in(0.0, 0.999);
        let m = g.u32_in(1..100);
        let x0 = g.f64_in(0.001, 0.999);
        let y0 = g.f64_in(0.001, 0.999);
        let game = DosGameParams::paper_defaults(p, m).into_game();
        let t = evolve(&game, PopulationState::new(x0, y0), 2_000);
        for s in t.states() {
            assert!((0.0..=1.0).contains(&s.x()));
            assert!((0.0..=1.0).contains(&s.y()));
        }
        let field = ReplicatorField::new(&game);
        for &(cx, cy) in &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let (dx, dy) = field.derivative(PopulationState::new(cx, cy));
            assert_eq!((dx, dy), (0.0, 0.0));
        }
    });
}

/// Mean pay-offs are convex combinations of the strategy pay-offs.
#[test]
fn mean_payoff_is_bounded_by_strategies() {
    check("mean_payoff_is_bounded_by_strategies", |g| {
        let p = g.f64_in(0.0, 0.999);
        let m = g.u32_in(1..60);
        let x = g.f64_in(0.0, 1.0);
        let y = g.f64_in(0.0, 1.0);
        let game = DosGameParams::paper_defaults(p, m).into_game();
        let s = PopulationState::new(x, y);
        let d = game.mean_defender_payoff(s);
        let lo = game.payoff_defend(s).min(game.payoff_no_defend(s));
        let hi = game.payoff_defend(s).max(game.payoff_no_defend(s));
        assert!(d >= lo - 1e-9 && d <= hi + 1e-9);
        let a = game.mean_attacker_payoff(s);
        let lo = game.payoff_attack(s).min(game.payoff_no_attack(s));
        let hi = game.payoff_attack(s).max(game.payoff_no_attack(s));
        assert!(a >= lo - 1e-9 && a <= hi + 1e-9);
    });
}

/// The DAP wire codec round-trips every encodable frame and never
/// panics on arbitrary input bytes.
#[test]
fn codec_roundtrip_and_total_decode() {
    check("codec_roundtrip_and_total_decode", |g| {
        use crowdsense_dap::dap::codec::{decode, encode};
        use crowdsense_dap::dap::wire::{DapMessage, Reveal};
        let index = g.u64_in(0..u64::from(u32::MAX));
        let mac_bytes: [u8; 10] = g.byte_array();
        let msg = g.bytes(0..200);
        let garbage = g.bytes(0..64);
        let ann = DapMessage::Announce(Announce {
            index,
            mac: Mac80::from_slice(&mac_bytes).unwrap(),
        });
        assert_eq!(decode(&encode(&ann).unwrap()).unwrap(), ann);
        let rev = DapMessage::Reveal(Reveal {
            index,
            key: Key::derive(b"prop", &index.to_le_bytes()),
            message: msg,
        });
        assert_eq!(decode(&encode(&rev).unwrap()).unwrap(), rev);
        // Total decode: arbitrary bytes give Ok or Err, never a panic.
        let _ = decode(&garbage);
    });
}

/// The analytic presence probability is monotone in m and antitone
/// in p.
#[test]
fn presence_probability_monotonicity() {
    check("presence_probability_monotonicity", |g| {
        use crowdsense_dap::dap::analysis::authentic_presence;
        let p = g.f64_in(0.01, 0.99);
        let m = g.u32_in(1..99);
        assert!(authentic_presence(p, m + 1) >= authentic_presence(p, m));
        assert!(authentic_presence(p * 0.99, m) >= authentic_presence(p, m));
    });
}
