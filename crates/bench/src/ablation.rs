//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **multi-buffer *random* selection vs first-come buffering** — why
//!    Algorithm 2 rolls the `m/k` coin instead of just keeping the first
//!    `m` copies;
//! 2. **μMAC width** — why 24 bits suffice (and what 8 bits would cost);
//! 3. **integrator step size** — the paper's Euler `t = 0.01` vs finer
//!    steps and RK4: each run's distance to the decided ESS, and its step
//!    count.

use dap_crypto::hmac::hmac_sha256;
use dap_crypto::Key;
use dap_game::dynamics::{settle, EulerIntegrator, Integrator, Rk4Integrator};
use dap_game::ess::decide;
use dap_game::{DosGame, DosGameParams, PopulationState};
use dap_simnet::SimRng;
use dap_tesla::{FirstComeBuffer, ReservoirBuffer};

// ---------------------------------------------------------------- 1 ----

/// Result of the buffer-policy ablation at one flood intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyPoint {
    /// Forged copies injected *before* the authentic one each interval.
    pub forged_first: u32,
    /// Authentic-copy survival with reservoir sampling.
    pub reservoir: f64,
    /// Authentic-copy survival with first-come buffering.
    pub first_come: f64,
    /// The uniform-survival prediction `min(1, m/n)`.
    pub predicted: f64,
}

/// Measures authentic-copy survival when the attacker bursts its copies
/// at the start of each interval (its best strategy against first-come).
#[must_use]
pub fn buffer_policy_ablation(
    m: usize,
    floods: &[u32],
    trials: u32,
    seed: u64,
) -> Vec<PolicyPoint> {
    let mut rng = SimRng::new(seed);
    floods
        .iter()
        .map(|&forged_first| {
            let mut res_kept = 0u32;
            let mut fc_kept = 0u32;
            for _ in 0..trials {
                let mut r = ReservoirBuffer::new(m);
                let mut f = FirstComeBuffer::new(m);
                for i in 0..forged_first {
                    r.offer((false, i), &mut rng);
                    f.offer((false, i));
                }
                r.offer((true, 0), &mut rng);
                f.offer((true, 0));
                if r.any(|e| e.0) {
                    res_kept += 1;
                }
                if f.any(|e| e.0) {
                    fc_kept += 1;
                }
            }
            PolicyPoint {
                forged_first,
                reservoir: f64::from(res_kept) / f64::from(trials),
                first_come: f64::from(fc_kept) / f64::from(trials),
                predicted: (m as f64 / f64::from(forged_first + 1)).min(1.0),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- 2 ----

/// Result of the μMAC-width ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidthPoint {
    /// μMAC width in bits.
    pub bits: u32,
    /// Buffer entry size (μMAC + 32-bit index).
    pub entry_bits: u32,
    /// Analytic false-accept probability with `k` forged entries
    /// buffered: `1 − (1 − 2^−bits)^k`.
    pub false_accept_k8: f64,
    /// Same with `k = 64` forged entries.
    pub false_accept_k64: f64,
    /// Empirical collision rate of truncated tags against a fixed target
    /// (per forged attempt).
    pub empirical_collision: f64,
}

/// Sweeps μMAC widths; `samples` forged MACs are drawn per width for the
/// empirical column.
#[must_use]
pub fn micro_mac_width_ablation(widths: &[u32], samples: u32, seed: u64) -> Vec<WidthPoint> {
    let mut rng = SimRng::new(seed);
    let local = Key::derive(b"ablation", b"local");
    widths
        .iter()
        .map(|&bits| {
            assert!(
                bits % 8 == 0 && (8..=64).contains(&bits),
                "byte-aligned widths only"
            );
            let nbytes = (bits / 8) as usize;
            // Target tag: truncated self-MAC of a genuine MAC value.
            let target = &hmac_sha256(local.as_bytes(), b"genuine-mac")[..nbytes];
            let mut collisions = 0u32;
            for _ in 0..samples {
                let mut forged = [0u8; 10];
                rng.fill_bytes(&mut forged);
                let tag = hmac_sha256(local.as_bytes(), &forged);
                if &tag[..nbytes] == target {
                    collisions += 1;
                }
            }
            let p_single = 2f64.powi(-(bits as i32));
            WidthPoint {
                bits,
                entry_bits: bits + 32,
                false_accept_k8: 1.0 - (1.0 - p_single).powi(8),
                false_accept_k64: 1.0 - (1.0 - p_single).powi(64),
                empirical_collision: f64::from(collisions) / f64::from(samples),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- 3 ----

/// Result of the integrator ablation for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegratorPoint {
    /// Integrator label.
    pub label: String,
    /// Step size used.
    pub dt: f64,
    /// Where the dynamics settled.
    pub settle: (f64, f64),
    /// Chebyshev distance from the settle point to the decided ESS.
    pub distance: f64,
    /// Steps to convergence (displacement < 1e-9), if reached.
    pub steps: Option<usize>,
}

/// Runs the paper's game (`p = 0.8`) at buffer count `m` under Euler with
/// several step sizes and RK4 as the reference, each measured against
/// the decided ESS.
#[must_use]
pub fn integrator_ablation(m: u32) -> Vec<IntegratorPoint> {
    let game = DosGameParams::paper_defaults(0.8, m).into_game();
    let mut out: Vec<IntegratorPoint> = [0.1, 0.01, 0.001]
        .into_iter()
        .map(|dt| run(&game, format!("euler dt={dt}"), dt, EulerIntegrator { dt }))
        .collect();
    out.push(run(
        &game,
        "rk4 dt=0.01".to_owned(),
        0.01,
        Rk4Integrator { dt: 0.01 },
    ));
    out
}

/// One ablation run from `(0.5, 0.5)`, for at most 4M steps.
fn run(game: &DosGame, label: String, dt: f64, integrator: impl Integrator) -> IntegratorPoint {
    let (s, steps) = settle(
        game,
        PopulationState::CENTER,
        4_000_000,
        integrator,
        1e-9,
        |_| (),
    );
    IntegratorPoint {
        label,
        dt,
        settle: (s.x(), s.y()),
        distance: s.distance(&decide(game).0),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ablation_shape() {
        let pts = buffer_policy_ablation(3, &[0, 2, 10, 30], 2000, 1);
        // No flood: both keep everything.
        assert_eq!(pts[0].first_come, 1.0);
        assert_eq!(pts[0].reservoir, 1.0);
        // Under-capacity flood: both still keep the authentic copy.
        assert_eq!(pts[1].first_come, 1.0);
        // Over-capacity early flood: first-come starves, reservoir holds
        // its m/n guarantee.
        assert_eq!(pts[2].first_come, 0.0);
        assert!((pts[2].reservoir - pts[2].predicted).abs() < 0.03);
        assert!(pts[3].reservoir > 0.05);
    }

    #[test]
    fn width_ablation_matches_birthday_math() {
        let pts = micro_mac_width_ablation(&[8, 16, 24, 32], 40_000, 2);
        assert_eq!(pts[2].bits, 24);
        assert_eq!(pts[2].entry_bits, 56); // the paper's layout
                                           // 8-bit μMAC: ~0.39% per forged attempt — measurable.
        assert!(pts[0].empirical_collision > 0.001, "{pts:?}");
        // 24-bit: collisions should be absent in 40k samples (E ≈ 0.002).
        assert!(pts[2].empirical_collision < 1e-4, "{pts:?}");
        // Analytic columns decrease with width.
        assert!(pts[0].false_accept_k64 > pts[1].false_accept_k64);
        assert!(pts[1].false_accept_k64 > pts[2].false_accept_k64);
    }

    /// The paper's dt = 0.01 is fine — it ends within 2e-2 of the decided
    /// ESS, as dt = 0.001 and the RK4 reference do. dt = 0.1, however,
    /// is *too coarse for the interior spiral*: at m = 30 the
    /// explicit-Euler overshoot pumps energy into the spiral and the
    /// trajectory escapes to the (1,1) corner. This is the ablation's
    /// finding, asserted here so it stays true.
    #[test]
    fn paper_step_size_agrees_with_rk4_but_coarser_does_not() {
        for m in [14u32, 30] {
            let pts = integrator_ablation(m);
            for p in pts.iter().filter(|p| p.dt <= 0.01 + 1e-12) {
                assert!(p.distance < 2e-2, "m={m}: {p:?}");
            }
            if m == 30 {
                let coarse = &pts[0];
                assert!(coarse.dt > 0.05);
                assert!(coarse.distance >= 2e-2, "{coarse:?}");
            }
        }
    }
}
