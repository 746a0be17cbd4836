//! The QoS-balanced adaptive defense loop, end to end: a DAP receiver
//! under a changing flood, with the runtime's control plane estimating
//! the forged share from reservoir evidence after every reveal and
//! re-provisioning the receiver's buffers.

use crowdsense_dap::crypto::Mac80;
use crowdsense_dap::dap::wire::Announce;
use crowdsense_dap::dap::{DapParams, DapReceiver, DapSender};
use crowdsense_dap::game::cost::naive_defense_cost;
use crowdsense_dap::game::{solve_posture_permille, DosGameParams, OptimalBuffer};
use crowdsense_dap::net::{ControlConfig, ControlPlane};
use crowdsense_dap::simnet::{SimRng, SimTime};

struct Epoch {
    true_p: f64,
    rate: f64,
    /// The plane's estimate `p̂` (permille) at the epoch's end.
    p_hat: u32,
    /// The commanded buffer count at the epoch's end.
    buffers: u32,
    give_up: bool,
    /// Algorithm 3 at `p̂`: the posture the game prices.
    posture: OptimalBuffer,
}

/// Drives `intervals_per_epoch` intervals per attack level in `attack`;
/// the control plane steps after every reveal and its directives re-size
/// the receiver.
fn drive(attack: &[f64], intervals_per_epoch: u64, seed: u64) -> Vec<Epoch> {
    let params = DapParams::default();
    let mut sender = DapSender::new(
        b"adaptive-it",
        attack.len() * intervals_per_epoch as usize + 2,
        params,
    );
    let mut receiver = DapReceiver::new(sender.bootstrap(), b"adaptive-node");
    let config = ControlConfig::default();
    let mut plane = ControlPlane::new(params.buffers as u32, config);
    let mut rng = SimRng::new(seed);
    let mut out = Vec::new();
    let mut interval = 0u64;

    for &p in attack {
        let mut ok = 0u64;
        for _ in 0..intervals_per_epoch {
            interval += 1;
            let t_a = SimTime((interval - 1) * 100 + 10);
            let t_r = SimTime(interval * 100 + 10);
            let forged = if p > 0.0 {
                (p / (1.0 - p)).round() as u32
            } else {
                0
            };
            for _ in 0..forged {
                let mut mac = [0u8; 10];
                rng.fill_bytes(&mut mac);
                receiver.on_announce(
                    &Announce {
                        index: interval,
                        mac: Mac80::from_slice(&mac).unwrap(),
                    },
                    t_a,
                    &mut rng,
                );
            }
            let genuine = sender.announce(interval, b"r").unwrap();
            receiver.on_announce(&genuine, t_a, &mut rng);
            if receiver
                .on_reveal(&sender.reveal(interval).unwrap(), t_r)
                .is_authenticated()
            {
                ok += 1;
            }
            let stats = receiver.stats();
            if let Some(directive) =
                plane.step_evidence(stats.buffered_decided, stats.buffered_forged)
            {
                receiver.set_buffers(directive.effective_buffers());
            }
        }
        out.push(Epoch {
            true_p: p,
            rate: ok as f64 / intervals_per_epoch as f64,
            p_hat: plane.p_hat_permille(),
            buffers: plane.buffers(),
            give_up: plane.give_up(),
            posture: solve_posture_permille(plane.p_hat_permille(), config.cap),
        });
    }
    out
}

#[test]
fn buffers_track_attack_level() {
    let epochs = drive(&[0.0, 0.5, 0.8, 0.9], 200, 1);
    let ms: Vec<u32> = epochs.iter().map(|e| e.buffers).collect();
    // Non-decreasing while the attack ramps.
    for w in ms.windows(2) {
        assert!(w[0] <= w[1], "buffers decreased during ramp: {ms:?}");
    }
    assert_eq!(ms[0], 1, "no attack → minimal buffers");
    assert!(ms[3] >= 10, "severe attack → many buffers: {ms:?}");
}

#[test]
fn estimates_converge_to_true_attack_level() {
    let epochs = drive(&[0.8, 0.8, 0.8, 0.8, 0.8], 300, 2);
    let last = epochs.last().unwrap();
    assert!(
        last.p_hat.abs_diff(800) < 80,
        "estimate {}‰ vs true 800‰",
        last.p_hat
    );
}

#[test]
fn give_up_regime_engages_under_jamming() {
    let epochs = drive(&[0.9, 0.99, 0.99, 0.99], 200, 3);
    let last = epochs.last().unwrap();
    assert!(last.give_up, "p̂ = {}‰", last.p_hat);
    assert_eq!(last.buffers, 1, "give-up falls back to one buffer");
    assert!(
        (last.posture.cost - 200.0).abs() < 5.0,
        "{:?}",
        last.posture
    );
}

#[test]
fn adaptive_cost_beats_naive_across_regimes() {
    let epochs = drive(&[0.3, 0.5, 0.8, 0.95, 0.99], 200, 4);
    for e in &epochs {
        let naive = naive_defense_cost(
            DosGameParams::paper_defaults(f64::from(e.p_hat.min(999)) / 1000.0, 1),
            50,
        );
        assert!(
            e.posture.cost <= naive + 1e-6,
            "p={}: adaptive {} > naive {naive}",
            e.true_p,
            e.posture.cost
        );
    }
}

#[test]
fn recovery_after_attack_subsides() {
    let epochs = drive(&[0.9, 0.9, 0.0, 0.0, 0.0], 200, 5);
    let peak = epochs[1].buffers;
    let settled = epochs.last().unwrap().buffers;
    assert!(
        settled < peak,
        "buffers should shrink after the attack: peak {peak}, settled {settled}"
    );
    assert!(epochs.last().unwrap().rate > 0.99);
}
