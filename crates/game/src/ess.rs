//! The paper's five ESS candidates, and the one that is stable.
//!
//! Setting `dX/dt = dY/dt = 0` gives nine candidate rest points; §V-E
//! shows that only five can be evolutionarily stable:
//!
//! | name | `(X, Y)` |
//! |---|---|
//! | [`EssKind::GiveUpDefense`]          | `(0, 1)` |
//! | [`EssKind::PartialDefenseFullAttack`] | `(X′, 1)`, `X′ = (1−p^m)·R_a / (k2·m)` |
//! | [`EssKind::FullDefensePartialAttack`] | `(1, Y′)`, `Y′ = p^m·R_a / (k1·x_a)` |
//! | [`EssKind::FullDefenseFullAttack`]  | `(1, 1)` |
//! | [`EssKind::Interior`]               | `(X*, Y*)` from §V-E case 5 |
//!
//! [`decide`] names the stable one in closed form, without integrating
//! the game; [`ess_candidates`] lists all five with that verdict.
//!
//! # Why the decision is exact
//!
//! With `a = (1−p^m)·R_a`, `b = k2·m`, `c = R_a` and `e = k1·x_a` the
//! replicator field is
//!
//! ```text
//! dX/dt = X(1−X)·(a·Y − b·X)        X′ = a/b
//! dY/dt = Y(1−Y)·(c − a·X − e·Y)    Y′ = (c − a)/e
//! ```
//!
//! At the four boundary candidates its exact Jacobian is triangular (the
//! factor `X(1−X)` or `Y(1−Y)` kills one off-diagonal entry), so the
//! eigenvalues are the diagonal:
//!
//! | candidate | eigenvalues | stable iff |
//! |---|---|---|
//! | `(0, 1)` | `a`, `e − c` | never (`a > 0`) |
//! | `(1, 1)` | `b − a`, `e − (c − a)` | `X′ > 1` and `Y′ > 1` |
//! | `(X′, 1)` | `−b·X′(1−X′)`, `(a² + b·e)(1 − Y*)/b` | `X′ < 1` and `Y* > 1` |
//! | `(1, Y′)` | `(a² + b·e)(1 − X*)/e`, `−e·Y′(1−Y′)` | `Y′ < 1` and `X* > 1` |
//!
//! At the interior point the trace `−b·X*(1−X*) − e·Y*(1−Y*)` is
//! negative and the determinant `X*(1−X*)·Y*(1−Y*)·(a² + b·e)` positive,
//! so it is stable whenever it lies inside the square. Since
//! `X* < 1 ⇔ a·Y′ < b` and `Y* = X*/X′`, exactly one candidate meets its
//! condition, and it is the first match of [`decide`]'s four tests.
//! Dulac's function `1/(XY(1−X)(1−Y))` turns the field's divergence into
//! `−b/(Y(1−Y)) − e/(X(1−X)) < 0`, so no cycle lives inside the square
//! and the local verdict is where runs end.
//!
//! A closed form within 10⁻¹² of an edge it is not named for merges into
//! that edge's candidate, named by the precedence corner, then edge, then
//! interior. Where a merge leaves a zero eigenvalue, the field along that
//! edge points into the merged point, so it still attracts.
//!
//! At `p = 0`, `Y′ = 0` by convention and `X* = 1`: the edge `X = 1` is
//! a line of rest points, and the same four tests take `(X′, 1)` once
//! `X′ < 1` and `(1, 0)`, costing `k2·m`, before that.

use crate::payoff::DosGame;
use crate::state::PopulationState;

/// Which of the paper's five ESS shapes a point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EssKind {
    /// `(0, 1)` — defense is hopeless/uneconomical; nodes stop buffering
    /// while attackers keep attacking.
    GiveUpDefense,
    /// `(X′, 1)` — only a fraction of nodes buffer; attackers all attack.
    PartialDefenseFullAttack,
    /// `(1, Y′)` — every node buffers; only a fraction of attackers
    /// persist.
    FullDefensePartialAttack,
    /// `(1, 1)` — everyone defends, everyone attacks.
    FullDefenseFullAttack,
    /// `(X*, Y*)` strictly inside the unit square.
    Interior,
}

impl std::fmt::Display for EssKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EssKind::GiveUpDefense => "(0, 1)",
            EssKind::PartialDefenseFullAttack => "(X', 1)",
            EssKind::FullDefensePartialAttack => "(1, Y')",
            EssKind::FullDefenseFullAttack => "(1, 1)",
            EssKind::Interior => "(X*, Y*)",
        };
        f.write_str(s)
    }
}

/// A candidate rest point together with its stability verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EssCandidate {
    /// The rest point.
    pub point: PopulationState,
    /// Its shape.
    pub kind: EssKind,
    /// `true` for the one candidate [`decide`] names.
    pub stable: bool,
}

/// `X′ = (1−p^m)·R_a / (k2·m)` — the partial-defense fraction on the
/// `Y = 1` edge (§V-E case 4).
#[must_use]
pub fn x_prime(game: &DosGame) -> f64 {
    let p = game.params();
    (1.0 - game.attack_success()) * p.ra / (p.k2 * f64::from(p.m))
}

/// `Y′ = p^m·R_a / (k1·x_a)` — the persistent-attacker fraction on the
/// `X = 1` edge (§V-E case 3). With `p = 0` there is nothing to gain by
/// attacking a fully defended network, so `Y′ = 0`.
#[must_use]
pub fn y_prime(game: &DosGame) -> f64 {
    let p = game.params();
    if p.p == 0.0 {
        return 0.0;
    }
    game.attack_success() * p.ra / (p.k1 * p.p)
}

/// The interior rest point `(X*, Y*)` of §V-E case 5:
///
/// ```text
/// X* = (1−p^m)·R_a²  / D        D = k1·k2·m·x_a + (1−p^m)²·R_a²
/// Y* = k2·m·R_a      / D
/// ```
#[must_use]
pub fn interior_point(game: &DosGame) -> (f64, f64) {
    let p = game.params();
    let q = 1.0 - game.attack_success();
    let m = f64::from(p.m);
    let d = p.k1 * p.k2 * m * p.p + q * q * p.ra * p.ra;
    ((q * p.ra * p.ra) / d, (p.k2 * m * p.ra) / d)
}

/// How far inside the unit square's edge a closed form must fall to be
/// a rest point of its own: the formulas' rounding error, with room to
/// spare. On a knife edge (`Y′ = 1`, say) the edge candidate can round
/// to an ulp inside the corner `(1, 1)`; it is that corner.
pub(crate) const ROUNDING: f64 = 1e-12;

/// `v` lies more than [`ROUNDING`] below 1.
fn below_one(v: f64) -> bool {
    v < 1.0 - ROUNDING
}

/// `v` lies more than [`ROUNDING`] inside `(0, 1)`.
fn inside(v: f64) -> bool {
    v > ROUNDING && below_one(v)
}

/// The ESS of `game`, decided in closed form (see the module doc for why
/// this is exact):
///
/// * `(1, 1)` when `X′ ≥ 1` and `Y′ ≥ 1`;
/// * else `(X*, Y*)` when it lies inside the square;
/// * else `(X′, 1)` when `X′ < 1`;
/// * else `(1, Y′)`.
///
/// Each comparison with an edge allows 10⁻¹² of rounding, so a closed form
/// that lands on an edge it is not named for takes that edge's name.
///
/// ```
/// use dap_game::{DosGameParams, ess::{decide, EssKind}};
///
/// let game = DosGameParams::paper_defaults(0.8, 30).into_game();
/// let (point, kind) = decide(&game);
/// assert_eq!(kind, EssKind::Interior);
/// assert!((point.x() - 0.9553).abs() < 1e-4);
/// ```
#[must_use]
pub fn decide(game: &DosGame) -> (PopulationState, EssKind) {
    let xp = x_prime(game);
    let yp = y_prime(game);
    let (xi, yi) = interior_point(game);
    if !below_one(xp) && !below_one(yp) {
        (
            PopulationState::new(1.0, 1.0),
            EssKind::FullDefenseFullAttack,
        )
    } else if inside(xi) && inside(yi) {
        (PopulationState::new(xi, yi), EssKind::Interior)
    } else if below_one(xp) {
        (
            PopulationState::new(xp, 1.0),
            EssKind::PartialDefenseFullAttack,
        )
    } else {
        (
            PopulationState::new(1.0, yp),
            EssKind::FullDefensePartialAttack,
        )
    }
}

/// The paper's five closed-form rest points for `game`, in a fixed
/// order, without those within [`ROUNDING`] of an edge they are not
/// named for (so outside the square too: there they are not population
/// states).
pub(crate) fn closed_forms(game: &DosGame) -> impl Iterator<Item = (PopulationState, EssKind)> {
    let xp = x_prime(game);
    let yp = y_prime(game);
    let (xi, yi) = interior_point(game);
    [
        Some((0.0, 1.0, EssKind::GiveUpDefense)),
        Some((1.0, 1.0, EssKind::FullDefenseFullAttack)),
        below_one(xp).then_some((xp, 1.0, EssKind::PartialDefenseFullAttack)),
        below_one(yp).then_some((1.0, yp, EssKind::FullDefensePartialAttack)),
        (inside(xi) && inside(yi)).then_some((xi, yi, EssKind::Interior)),
    ]
    .into_iter()
    .flatten()
    .map(|(x, y, kind)| (PopulationState::new(x, y), kind))
}

/// The paper's five ESS candidates for `game`, the [`decide`]d one
/// marked stable. Candidates whose closed form falls outside the unit
/// square are omitted (they are not population states), and so are
/// those within rounding of an edge they are not named for.
#[must_use]
pub fn ess_candidates(game: &DosGame) -> Vec<EssCandidate> {
    let (_, decided) = decide(game);
    closed_forms(game)
        .map(|(point, kind)| EssCandidate {
            point,
            kind,
            stable: kind == decided,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{evolve, settle, EulerIntegrator, CONVERGENCE_TOL};
    use crate::oracle::{exact_jacobian, snap};
    use crate::payoff::DosGameParams;

    fn paper_game(m: u32) -> DosGame {
        DosGameParams::paper_defaults(0.8, m).into_game()
    }

    #[test]
    fn y_prime_formula() {
        let g = paper_game(10);
        let want = 0.8f64.powi(10) * 200.0 / (20.0 * 0.8);
        assert!((y_prime(&g) - want).abs() < 1e-12);
    }

    #[test]
    fn x_prime_formula() {
        let g = paper_game(60);
        let want = (1.0 - 0.8f64.powi(60)) * 200.0 / (4.0 * 60.0);
        assert!((x_prime(&g) - want).abs() < 1e-12);
    }

    #[test]
    fn interior_point_solves_both_brackets() {
        let g = paper_game(30);
        let (x, y) = interior_point(&g);
        let pm = g.attack_success();
        // dX bracket: R_a·Y·(1−p^m) − k2·m·X = 0
        assert!((200.0 * y * (1.0 - pm) - 4.0 * 30.0 * x).abs() < 1e-9);
        // dY bracket: (p^m−1)·X·R_a + R_a − k1·x_a·Y = 0
        assert!(((pm - 1.0) * x * 200.0 + 200.0 - 20.0 * 0.8 * y).abs() < 1e-9);
    }

    /// The Fig. 6 regime map (§VI-B-2) with R_a=200, k1=20, k2=4, p=0.8:
    ///   1 ≤ m ≤ 11  → (1, 1)
    ///   12 ≤ m ≤ 16 → (1, Y′)
    ///   17 ≤ m ≤ 54 → interior (X*, Y*)
    ///   55 ≤ m      → (X′, 1)
    /// The paper prints 12–17 and 18–54, one m past its own formulas: at
    /// m = 17, `R_a·Y′·(1−p^m) = 55.0 < k2·m = 68`, so `(1, Y′)` repels.
    #[test]
    fn regime_small_m_full_full() {
        for m in 1..=11 {
            let (point, kind) = decide(&paper_game(m));
            assert_eq!(kind, EssKind::FullDefenseFullAttack, "m={m}");
            assert_eq!(point, PopulationState::new(1.0, 1.0), "m={m}");
        }
    }

    #[test]
    fn regime_medium_m_full_defense_partial_attack() {
        for m in 12..=16 {
            let game = paper_game(m);
            let (point, kind) = decide(&game);
            assert_eq!(kind, EssKind::FullDefensePartialAttack, "m={m}");
            assert_eq!(point, PopulationState::new(1.0, y_prime(&game)), "m={m}");
        }
    }

    #[test]
    fn regime_large_m_interior() {
        for m in 17..=54 {
            let game = paper_game(m);
            let (point, kind) = decide(&game);
            assert_eq!(kind, EssKind::Interior, "m={m}");
            let (xi, yi) = interior_point(&game);
            assert_eq!(point, PopulationState::new(xi, yi), "m={m}");
        }
    }

    #[test]
    fn regime_huge_m_partial_defense() {
        for m in 55..=100 {
            let game = paper_game(m);
            let (point, kind) = decide(&game);
            assert_eq!(kind, EssKind::PartialDefenseFullAttack, "m={m}");
            assert_eq!(point, PopulationState::new(x_prime(&game), 1.0), "m={m}");
        }
    }

    /// Fig. 6a/6d converge "in at most 4 steps" (fast); Fig. 6b/6c take
    /// on the order of 100–200 steps (slow). Check the ordering.
    #[test]
    fn convergence_speed_ordering_matches_paper() {
        let steps = |m| {
            evolve(&paper_game(m), PopulationState::CENTER, 2_000_000)
                .converged_at()
                .expect("converges")
        };
        let (fast, slow, spiral) = (steps(5), steps(14), steps(30));
        assert!(fast < slow, "fast={fast} slow={slow}");
        assert!(fast < spiral, "fast={fast} spiral={spiral}");
    }

    #[test]
    fn zero_one_never_stable_under_paper_economy() {
        // §V-E case 1: since R_a > C_a, (0,0) cannot be ESS and (0,1) is
        // only reachable when defense is pointless; with the paper's
        // economy and moderate m, each of these corners has an exact
        // eigenvalue above zero.
        let g = paper_game(10);
        for (x, y) in [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)] {
            let jac = exact_jacobian(&g, PopulationState::new(x, y));
            assert!(jac[0][0].0 > 0.0 || jac[1][1].0 > 0.0, "({x}, {y})");
        }
    }

    #[test]
    fn candidate_list_contains_predicted_ess() {
        for m in [5, 14, 30, 70] {
            let g = paper_game(m);
            let (point, kind) = decide(&g);
            let cands = ess_candidates(&g);
            let found = cands
                .iter()
                .any(|c| c.stable && (c.point, c.kind) == (point, kind));
            assert!(found, "m={m}: {kind} at {point} not in {cands:?}");
        }
    }

    /// The paper's run from `(0.5, 0.5)` settles at the candidate marked
    /// stable, and at no other.
    #[test]
    fn stability_verdict_agrees_with_dynamics() {
        for m in [5, 14, 30, 70] {
            let g = paper_game(m);
            let (settled, steps) = settle(
                &g,
                PopulationState::CENTER,
                2_000_000,
                EulerIntegrator::paper(),
                CONVERGENCE_TOL,
                |_| (),
            );
            assert!(steps.is_some(), "m={m}");
            let snapped = snap(&g, settled);
            for cand in ess_candidates(&g) {
                assert_eq!(
                    (cand.point, cand.kind) == snapped,
                    cand.stable,
                    "m={m}: dynamics settle at {settled}, {cand:?}"
                );
            }
        }
    }

    #[test]
    fn display_of_kinds() {
        assert_eq!(EssKind::Interior.to_string(), "(X*, Y*)");
        assert_eq!(EssKind::GiveUpDefense.to_string(), "(0, 1)");
    }

    /// On the knife edges `Y′ = 1` (`k1 = p^m·R_a/p`) and `X′ = 1`
    /// (`k2 = (1−p^m)·R_a/m`) an edge candidate meets the corner
    /// `(1, 1)`. One candidate is still decided, and it is where the
    /// paper's run from `(0.5, 0.5)` ends. At (0.3, 3) `Y′` rounds to an
    /// ulp below 1.
    #[test]
    fn knife_edges_certify_one_candidate_where_the_dynamics_settle() {
        for (p, m) in [(0.3, 3), (0.5, 2), (0.8, 5), (0.9, 10)] {
            let paper = DosGameParams::paper_defaults(p, m);
            let pm = paper.p.powi(m as i32);
            let y_edge = DosGameParams {
                k1: pm * paper.ra / p,
                ..paper
            };
            let x_edge = DosGameParams {
                k2: (1.0 - pm) * paper.ra / f64::from(m),
                ..paper
            };
            for params in [y_edge, x_edge] {
                let game = params.into_game();
                let decided = ess_candidates(&game).iter().filter(|c| c.stable).count();
                assert_eq!(decided, 1, "{params:?}");
                let (settled, steps) = settle(
                    &game,
                    PopulationState::CENTER,
                    2_000_000,
                    EulerIntegrator::paper(),
                    CONVERGENCE_TOL,
                    |_| (),
                );
                assert!(steps.is_some(), "{params:?}");
                assert_eq!(decide(&game), snap(&game, settled), "{params:?}");
            }
        }
    }

    /// At `p = 0` the edge `X = 1` is a line of rest points, and the
    /// decision takes its `(1, Y′) = (1, 0)` end until `(X′, 1)` appears
    /// at `m > R_a/k2`; until then the ESS costs `k2·m`.
    #[test]
    fn no_attack_rule_takes_full_defense_until_partial_defense_is_certified() {
        for m in 1..=50 {
            let game = DosGameParams::paper_defaults(0.0, m).into_game();
            let (point, kind) = decide(&game);
            assert_eq!(point, PopulationState::new(1.0, 0.0), "m={m}");
            assert_eq!(kind, EssKind::FullDefensePartialAttack, "m={m}");
            let cost = crate::cost::defense_cost(&game, point);
            assert!((cost - 4.0 * f64::from(m)).abs() < 1e-9, "m={m}: {cost}");
        }
        for m in [51, 60, 100] {
            let game = DosGameParams::paper_defaults(0.0, m).into_game();
            let (point, kind) = decide(&game);
            assert_eq!(kind, EssKind::PartialDefenseFullAttack, "m={m}");
            assert_eq!(point, PopulationState::new(x_prime(&game), 1.0), "m={m}");
        }
    }
}
