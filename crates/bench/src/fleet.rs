//! Fleet-level validation of the game's cost model.
//!
//! Fig. 8's defender cost `E = k2·m·X² + [1 − (1−p^m)·X]·R_a·Y` has two
//! parts: a modelling assumption (the congestion-coupled buffer cost
//! `C_d = k2·m·X`) and a *measurable* damage term — the probability that
//! a random node loses its message to the flood, times `R_a·Y`. This
//! experiment measures the damage term in the packet-level simulator and
//! recombines it with the model's buffer cost:
//!
//! ```text
//! E_hybrid = k2·m·X² + R_a·Y·[X·fail_defended + (1−X)·1]
//! ```
//!
//! where `fail_defended` is the *empirical* authentication-failure rate
//! of an m-buffer DAP receiver under the flood (the paper substitutes
//! the analytic `p^m`). Agreement between `E_hybrid` and the analytic `E`
//! validates the bridge between the packet level and the game level.

use dap_core::sim::{run_campaign, CampaignSpec};
use dap_game::cost::defense_cost_closed_form;
use dap_game::ess::decide;
use dap_game::DosGameParams;

/// One fleet validation point.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPoint {
    /// Attack level.
    pub p: f64,
    /// Buffer count of defending nodes.
    pub m: u32,
    /// The ESS `(X, Y)` the game predicts.
    pub x: f64,
    /// Attacker fraction at the ESS.
    pub y: f64,
    /// Empirical failure rate of a defended node (simulated).
    pub fail_defended: f64,
    /// The paper's analytic failure probability `p^m`.
    pub fail_analytic: f64,
    /// The exact reservoir value: the hypergeometric probability that all
    /// `m` kept slots hold forged copies, `Π_{k<m} (f−k)/(n−k)`, for the
    /// realised `f` forged of `n` copies per interval (5 authentic).
    pub fail_exact: f64,
    /// Analytic `E` at the ESS.
    pub e_model: f64,
    /// `E` with the damage term replaced by the measurement.
    pub e_hybrid: f64,
}

/// Runs the validation for one `(p, m)`; `intervals` controls the
/// simulation length (statistical precision).
#[must_use]
pub fn validate(p: f64, m: u32, intervals: u64, seed: u64) -> FleetPoint {
    let params = DosGameParams::paper_defaults(p, m);
    let game = params.into_game();
    let (ess, _) = decide(&game);
    let (x, y) = (ess.x(), ess.y());

    // Several authentic copies per interval put the reservoir in the
    // regime the paper's p^m approximates (hypergeometric with
    // proportional counts).
    let authentic = 5u32;
    let campaign = run_campaign(&CampaignSpec {
        attack_fraction: p,
        announce_copies: authentic,
        buffers: m as usize,
        intervals,
        loss: 0.0,
        seed,
    });
    let fail_defended = 1.0 - campaign.authentication_rate;

    // Exact failure: all m kept slots drawn from the forged copies.
    let forged = (f64::from(authentic) * p / (1.0 - p)).round();
    let total = forged + f64::from(authentic);
    let fail_exact: f64 = if f64::from(m) > forged {
        0.0
    } else {
        (0..m)
            .map(|k| (forged - f64::from(k)) / (total - f64::from(k)))
            .product()
    };

    let e_model = defense_cost_closed_form(&game, ess);
    let k2 = params.k2;
    let ra = params.ra;
    let e_hybrid = k2 * f64::from(m) * x * x + ra * y * (x * fail_defended + (1.0 - x));

    FleetPoint {
        p,
        m,
        x,
        y,
        fail_defended,
        fail_analytic: game.attack_success(),
        fail_exact,
        e_model,
        e_hybrid,
    }
}

/// The default validation grid: the optimal `m*` plus under- and
/// over-provisioned fleets at two attack levels.
#[must_use]
pub fn default_grid() -> Vec<(f64, u32)> {
    vec![(0.8, 3), (0.8, 5), (0.8, 13), (0.9, 5), (0.9, 16)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_failure_matches_exact_reservoir_value() {
        for (p, m) in [(0.8, 3u32), (0.9, 5)] {
            let pt = validate(p, m, 3000, 42);
            assert!(
                (pt.fail_defended - pt.fail_exact).abs() < 0.04,
                "p={p} m={m}: measured {} vs exact {}",
                pt.fail_defended,
                pt.fail_exact
            );
        }
    }

    #[test]
    fn hybrid_cost_tracks_model_cost() {
        // The paper's p^m slightly overstates failure at small n (the
        // exact reservoir value is lower), so E_hybrid ≤ E_model up to
        // noise — and both agree within the damage term's spread.
        for (p, m) in default_grid() {
            let pt = validate(p, m, 2500, 7);
            let damage_scale = 200.0 * pt.y;
            let gap = (pt.e_hybrid - pt.e_model).abs();
            assert!(
                gap <= 0.2 * damage_scale + 2.0,
                "p={p} m={m}: |{} - {}| = {gap}",
                pt.e_hybrid,
                pt.e_model
            );
        }
    }

    #[test]
    fn overprovisioned_fleet_fails_less() {
        let low = validate(0.8, 3, 2000, 9);
        let high = validate(0.8, 13, 2000, 9);
        assert!(high.fail_defended < low.fail_defended);
    }
}
