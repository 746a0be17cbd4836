//! Defense-cost accounting (§V-F and §VI-B-4).
//!
//! The defenders' average cost at a population state is the negated mean
//! defender pay-off:
//!
//! ```text
//! E = −E(d) = k2·m·X² + [1 − (1−p^m)·X]·R_a·Y
//! ```
//!
//! The *naive* defense pins `X = 1` with the maximum buffer count
//! `m = M`; attackers still evolve, settling at `Y′(M)` (or at `Y = 1`
//! when even full defense leaves attacking profitable), giving
//!
//! ```text
//! N = k2·M + p^M·R_a·Y′
//! ```

use crate::dynamics::TwoPopulationGame;
use crate::ess::y_prime;
use crate::payoff::{DosGame, DosGameParams};
use crate::state::PopulationState;

/// The defenders' average cost `E = −E(d)` at `state`.
///
/// ```
/// use dap_game::{DosGameParams, PopulationState, cost::defense_cost};
/// let game = DosGameParams::paper_defaults(0.8, 20).into_game();
/// let at_peace = defense_cost(&game, PopulationState::new(1.0, 0.0));
/// // With no attackers the only cost is the buffers: k2·m = 80.
/// assert!((at_peace - 80.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn defense_cost(game: &DosGame, state: PopulationState) -> f64 {
    -game.mean_defender_payoff(state)
}

/// The closed form `k2·m·X² + [1 − (1−p^m)·X]·R_a·Y` — equal to
/// [`defense_cost`] (kept separate so tests can pin the identity).
#[must_use]
pub fn defense_cost_closed_form(game: &DosGame, state: PopulationState) -> f64 {
    let p = game.params();
    let pm = game.attack_success();
    p.k2 * f64::from(p.m) * state.x() * state.x()
        + (1.0 - (1.0 - pm) * state.x()) * p.ra * state.y()
}

/// The naive-defense cost `N = k2·M + p^M·R_a·Y_ess` for a deployment
/// that forces every node to defend with `cap` buffers, with attackers at
/// their evolutionary response (`Y′(cap)` clamped to 1 — a fraction of a
/// population cannot exceed 1).
#[must_use]
pub fn naive_defense_cost(params: DosGameParams, cap: u32) -> f64 {
    let mut with_cap = params;
    with_cap.m = cap;
    let game = with_cap.into_game();
    let y = y_prime(&game).min(1.0);
    defense_cost_closed_form(&game, PopulationState::new(1.0, y))
}

/// The naive-defense cost exactly as printed in §VI-B-4:
/// `N = k2·M + p^M·R_a·Y′` with `Y′ = p^M·R_a/(k1·x_a)` **unclamped**.
///
/// Under heavy attack `Y′(M) > 1` is not a valid population fraction, but
/// this literal form is what makes the paper's Fig. 8 gap explode past
/// `p ≈ 0.94`; both variants are reported by the `fig8` experiment.
#[must_use]
pub fn naive_defense_cost_paper_literal(params: DosGameParams, cap: u32) -> f64 {
    let mut with_cap = params;
    with_cap.m = cap;
    let game = with_cap.into_game();
    let p = game.params();
    let y = y_prime(&game);
    p.k2 * f64::from(cap) + game.attack_success() * p.ra * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ess::decide;

    #[test]
    fn closed_form_equals_negated_mean_payoff() {
        for m in [1, 10, 30, 50] {
            let game = DosGameParams::paper_defaults(0.8, m).into_game();
            for &(x, y) in &[(0.0, 0.0), (1.0, 1.0), (0.3, 0.8), (0.9, 0.2)] {
                let s = PopulationState::new(x, y);
                let a = defense_cost(&game, s);
                let b = defense_cost_closed_form(&game, s);
                assert!((a - b).abs() < 1e-9, "m={m} at ({x},{y}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn naive_cost_formula_matches_paper() {
        // N = k2·M + p^M·R_a·Y′ when Y′ < 1.
        let n = naive_defense_cost(DosGameParams::paper_defaults(0.8, 1), 50);
        let y = 0.8f64.powi(50) * 200.0 / (20.0 * 0.8);
        let want = 4.0 * 50.0 + 0.8f64.powi(50) * 200.0 * y;
        assert!((n - want).abs() < 1e-9, "{n} vs {want}");
    }

    #[test]
    fn literal_naive_cost_explodes_under_heavy_attack() {
        // With Y′ unclamped the naive cost blows up as p → 1 — the
        // shape behind the paper's Fig. 8 "greatly reduces cost" claim.
        let params = DosGameParams::paper_defaults(0.99, 1);
        let literal = naive_defense_cost_paper_literal(params, 50);
        let clamped = naive_defense_cost(params, 50);
        assert!(literal > clamped, "literal {literal} vs clamped {clamped}");
        assert!(literal > 800.0, "literal {literal}");
    }

    #[test]
    fn literal_and_clamped_agree_when_y_prime_below_one() {
        // p = 0.8: Y′(50) = 0.8^50·200/16 ≈ 1.8e-4 < 1.
        let params = DosGameParams::paper_defaults(0.8, 1);
        let a = naive_defense_cost_paper_literal(params, 50);
        let b = naive_defense_cost(params, 50);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn naive_cost_clamps_y_at_one() {
        // Extremely heavy attack: Y′(M) > 1, so attackers all attack.
        let n = naive_defense_cost(DosGameParams::paper_defaults(0.999, 1), 50);
        let pm = 0.999f64.powi(50);
        let want = 4.0 * 50.0 + (1.0 - (1.0 - pm)) * 200.0;
        assert!((n - want).abs() < 1e-9, "{n} vs {want}");
    }

    #[test]
    fn game_guided_cost_not_worse_than_naive_at_ess() {
        // §VI-B-4's headline: the evolutionary-game-guided defense is
        // cheaper than naive full defense across attack levels.
        for p in [0.5, 0.8, 0.9, 0.95, 0.99] {
            let naive = naive_defense_cost(DosGameParams::paper_defaults(p, 1), 50);
            // Take the best m the optimiser would consider.
            let best = (1..=50)
                .map(|m| {
                    let game = DosGameParams::paper_defaults(p, m).into_game();
                    defense_cost(&game, decide(&game).0)
                })
                .fold(f64::INFINITY, f64::min);
            assert!(
                best <= naive + 1e-6,
                "p={p}: game-guided {best} > naive {naive}"
            );
        }
    }

    /// A closed-form identity the paper does not state but its "give up"
    /// regime relies on: at the (X′, 1) ESS the defender cost is exactly
    /// R_a, independent of m. Substituting X′ = (1−p^m)·R_a/(k2·m):
    /// `k2·m·X′² + [1−(1−p^m)·X′]·R_a = R_a`.
    #[test]
    fn partial_defense_cost_is_exactly_ra() {
        for (p, m) in [(0.99, 10), (0.97, 40), (0.8, 60), (0.95, 50)] {
            let game = DosGameParams::paper_defaults(p, m).into_game();
            let xp = crate::ess::x_prime(&game);
            if xp <= 1.0 {
                let cost = defense_cost(&game, PopulationState::new(xp, 1.0));
                assert!((cost - 200.0).abs() < 1e-9, "p={p} m={m}: {cost}");
            }
        }
    }

    #[test]
    fn cost_zero_when_nobody_plays() {
        let game = DosGameParams::paper_defaults(0.8, 10).into_game();
        assert_eq!(defense_cost(&game, PopulationState::new(0.0, 0.0)), 0.0);
    }

    #[test]
    fn cost_under_full_attack_without_defense_is_full_damage() {
        let game = DosGameParams::paper_defaults(0.8, 10).into_game();
        let c = defense_cost(&game, PopulationState::new(0.0, 1.0));
        assert!((c - 200.0).abs() < 1e-9);
    }
}
