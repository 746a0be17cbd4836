//! QoS-balanced DAP in action: the runtime's control plane reads the
//! reservoir evidence after every reveal, estimates the attack level,
//! re-solves the evolutionary game and re-provisions the receiver's
//! buffers — including "giving up" on extra buffers when the channel is
//! nearly jammed.
//!
//! Run with: `cargo run --example adaptive_defense`

use crowdsense_dap::crypto::Mac80;
use crowdsense_dap::dap::wire::Announce;
use crowdsense_dap::dap::{DapParams, DapReceiver, DapSender};
use crowdsense_dap::game::cost::naive_defense_cost;
use crowdsense_dap::game::{solve_posture_permille, DosGameParams};
use crowdsense_dap::net::{ControlConfig, ControlPlane};
use crowdsense_dap::simnet::{SimRng, SimTime};

/// Attack intensity per epoch: calm → moderate → severe → jammed → calm.
const EPOCH_ATTACK: &[f64] = &[0.0, 0.5, 0.75, 0.8, 0.9, 0.96, 0.99, 0.99, 0.5];
const INTERVALS_PER_EPOCH: u64 = 150;

fn main() {
    let params = DapParams::default();
    let mut sender = DapSender::new(
        b"adaptive demo",
        EPOCH_ATTACK.len() * INTERVALS_PER_EPOCH as usize + 2,
        params,
    );
    let mut receiver = DapReceiver::new(sender.bootstrap(), b"adaptive node");
    let config = ControlConfig::default();
    let mut plane = ControlPlane::new(params.buffers as u32, config);
    let mut rng = SimRng::new(99);

    println!("Adaptive (QoS-balanced) DAP");
    println!("===========================");
    println!(
        "{:>5} {:>8} {:>8} {:>6} {:>10} {:>12} {:>10} {:>8}",
        "epoch", "true p", "est p", "m", "ESS", "E (game)", "N (naive)", "rate"
    );
    println!("{}", "-".repeat(76));

    let mut interval = 0u64;
    for (epoch, &p) in EPOCH_ATTACK.iter().enumerate() {
        let mut authenticated_epoch = 0u64;

        for _ in 0..INTERVALS_PER_EPOCH {
            interval += 1;
            let t_a = SimTime((interval - 1) * 100 + 10);
            let t_r = SimTime(interval * 100 + 10);
            let genuine = sender.announce(interval, b"reading").unwrap();
            // Forged copies to make forged fraction = p.
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
            receiver.on_announce(&genuine, t_a, &mut rng);
            if receiver
                .on_reveal(&sender.reveal(interval).unwrap(), t_r)
                .is_authenticated()
            {
                authenticated_epoch += 1;
            }
            // The reveal decided which buffered entries were forged:
            // fold that evidence into the estimate, and re-provision
            // when the game's answer changes.
            let stats = receiver.stats();
            if let Some(directive) =
                plane.step_evidence(stats.buffered_decided, stats.buffered_forged)
            {
                receiver.set_buffers(directive.effective_buffers());
            }
        }

        // What the game says at the plane's current estimate.
        let p_hat = plane.p_hat_permille();
        let posture = solve_posture_permille(p_hat, config.cap);
        let estimated_p = f64::from(p_hat) / 1000.0;
        let naive = naive_defense_cost(
            DosGameParams::paper_defaults(estimated_p.min(0.999), 1),
            config.cap,
        );

        println!(
            "{:>5} {:>8.2} {:>8.2} {:>6} {:>10} {:>12.2} {:>10.2} {:>8.3}{}",
            epoch,
            p,
            estimated_p,
            plane.buffers(),
            posture.kind.to_string(),
            posture.cost,
            naive,
            authenticated_epoch as f64 / INTERVALS_PER_EPOCH as f64,
            if plane.give_up() {
                "  << give-up regime"
            } else {
                ""
            },
        );
    }

    println!();
    println!("Note how m tracks the attack level. Past p ≈ 0.98 the ESS at the estimate");
    println!("moves to (X', 1) and the cost pins at R_a, far below the naive");
    println!("always-defend-with-M-buffers policy: the game's give-up regime, where the");
    println!("control plane falls back to one buffer. The plane re-solves only when its");
    println!("estimate moves 10 permille, so near that edge m can lag the ESS column.");
}
