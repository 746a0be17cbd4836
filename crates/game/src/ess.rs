//! Fixed points, stability and the paper's five ESS candidates.
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
//! Two complementary tools are provided:
//!
//! * [`ess_candidates`] — the closed-form candidates with a local
//!   stability verdict from the numeric Jacobian. Algorithm 3's sweep
//!   prices the one candidate the Jacobian certifies;
//! * [`predict_ess`] — the paper's empirical method: run the replicator
//!   dynamics from `(0.5, 0.5)` and report where they settle and how many
//!   steps it took (this is what Fig. 6 plots, and what the tests check
//!   the certified candidate against).

use crate::dynamics::{settle, ReplicatorField, TwoPopulationGame};
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
    /// `true` when the numeric Jacobian certifies local asymptotic
    /// stability (both eigenvalues have negative real part).
    pub stable: bool,
}

/// The result of evolving the game from the paper's `(0.5, 0.5)` start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EssOutcome {
    /// Where the dynamics settled.
    pub point: PopulationState,
    /// The matching ESS shape.
    pub kind: EssKind,
    /// Euler steps (`t = 0.01`) until the per-step displacement fell
    /// below the convergence tolerance, or `None` when the run hit the
    /// step limit (orbiting) — the final state is still reported.
    pub steps: Option<usize>,
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

/// Local asymptotic stability of a rest point via the numeric Jacobian:
/// trace < 0 and determinant > 0.
#[must_use]
pub fn is_locally_stable<G: TwoPopulationGame>(game: &G, point: PopulationState) -> bool {
    let jac = ReplicatorField::new(game).jacobian(point);
    let trace = jac[0][0] + jac[1][1];
    let det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0];
    trace < 0.0 && det > 0.0
}

/// How far inside the unit square's edge a closed form must fall to be
/// a rest point of its own: the formulas' rounding error, with room to
/// spare. On a knife edge (`Y′ = 1`, say) the edge candidate can round
/// to an ulp inside the corner `(1, 1)`, and the Jacobian would then
/// certify that one point twice, under two names.
const ROUNDING: f64 = 1e-12;

/// The paper's five closed-form rest points for `game`, in a fixed
/// order, without those that fall outside the unit square (they are
/// not population states) or within [`ROUNDING`] of an edge they are
/// not named for. [`ess_candidates`], [`certified_ess`] and [`snap`]
/// all walk this one enumeration, so they see the same set in the same
/// order.
fn closed_forms(game: &DosGame) -> impl Iterator<Item = (PopulationState, EssKind)> {
    let xp = x_prime(game);
    let yp = y_prime(game);
    let (xi, yi) = interior_point(game);
    let below_one = |v: f64| v < 1.0 - ROUNDING;
    let interior = xi > ROUNDING && yi > ROUNDING && below_one(xi) && below_one(yi);
    [
        Some((0.0, 1.0, EssKind::GiveUpDefense)),
        Some((1.0, 1.0, EssKind::FullDefenseFullAttack)),
        below_one(xp).then_some((xp, 1.0, EssKind::PartialDefenseFullAttack)),
        below_one(yp).then_some((1.0, yp, EssKind::FullDefensePartialAttack)),
        interior.then_some((xi, yi, EssKind::Interior)),
    ]
    .into_iter()
    .flatten()
    .filter(|(x, y, _)| (0.0..=1.0).contains(x) && (0.0..=1.0).contains(y))
    .map(|(x, y, kind)| (PopulationState::new(x, y), kind))
}

/// The ESS Algorithm 3 prices: the closed-form candidate the Jacobian
/// certifies, the first in [`ess_candidates`] order. Whenever `p > 0`
/// one candidate is certified, and only one except where two knife
/// edges meet (`Y′ = 1` with `k2·m = R_a`, so `X′` is within the
/// Jacobian's step of the corner `(1, 1)`).
///
/// `p = 0` is degenerate: attacking costs nothing (`C_a = k1·x_a·Y`
/// with `x_a = p`) and never succeeds against a defender, so every
/// `(1, Y)` is a rest point costing `k2·m`, none of them strictly
/// stable. Unless `(X′, 1)` is certified (`m > R_a/k2`), the ESS is
/// that edge's `(1, Y′)` end, `Y′ = 0`.
///
/// # Panics
///
/// Panics if `p > 0` and no candidate is certified.
#[must_use]
pub(crate) fn certified_ess(game: &DosGame) -> (PopulationState, EssKind) {
    match closed_forms(game).find(|&(point, _)| is_locally_stable(game, point)) {
        Some(ess) => ess,
        None if game.params().p == 0.0 => (
            PopulationState::new(1.0, 0.0),
            EssKind::FullDefensePartialAttack,
        ),
        None => panic!("no closed-form ESS is certified at {:?}", game.params()),
    }
}

/// The paper's five ESS candidates for `game`, each with a stability
/// verdict. Candidates whose closed form falls outside the unit square
/// are omitted (they are not population states), and so are those
/// within rounding of an edge they are not named for.
#[must_use]
pub fn ess_candidates(game: &DosGame) -> Vec<EssCandidate> {
    closed_forms(game)
        .map(|(point, kind)| EssCandidate {
            point,
            kind,
            stable: is_locally_stable(game, point),
        })
        .collect()
}

/// Step budget for [`predict_ess`]; the paper's slowest regime converges
/// in a few hundred steps, so this is generous.
pub const PREDICT_MAX_STEPS: usize = 2_000_000;

/// How close the settled state must come to a closed-form candidate to be
/// labelled with its [`EssKind`].
pub const MATCH_TOL: f64 = 1e-2;

/// Runs the paper's evolution (Euler, `t = 0.01`, from `(0.5, 0.5)`) and
/// classifies the outcome against the closed-form candidates.
///
/// Falls back to classifying the raw coordinates when no candidate is
/// within [`MATCH_TOL`] (this happens when the dynamics are still
/// spiralling at the step limit).
#[must_use]
pub fn predict_ess(game: &DosGame) -> EssOutcome {
    predict_ess_from(game, PopulationState::CENTER)
}

/// [`predict_ess`] from an arbitrary interior start.
#[must_use]
pub fn predict_ess_from(game: &DosGame, initial: PopulationState) -> EssOutcome {
    let (settled, steps) = settle(game, initial, PREDICT_MAX_STEPS);
    let (point, kind) = snap(game, settled);
    EssOutcome { point, kind, steps }
}

/// The nearest closed-form candidate to a settled state (the first of
/// equals, in [`ess_candidates`] order), or the state itself, labelled
/// by [`classify_coordinates`], when none is within [`MATCH_TOL`].
#[must_use]
pub(crate) fn snap(game: &DosGame, settled: PopulationState) -> (PopulationState, EssKind) {
    let nearest = closed_forms(game)
        .map(|(point, kind)| (settled.distance(&point), point, kind))
        .min_by(|a, b| a.0.total_cmp(&b.0));
    match nearest {
        Some((d, point, kind)) if d <= MATCH_TOL => (point, kind),
        _ => (settled, classify_coordinates(settled)),
    }
}

/// Labels raw coordinates with the nearest ESS shape.
#[must_use]
pub fn classify_coordinates(point: PopulationState) -> EssKind {
    let edge = |v: f64| v <= MATCH_TOL || v >= 1.0 - MATCH_TOL;
    let hi = |v: f64| v >= 1.0 - MATCH_TOL;
    let lo = |v: f64| v <= MATCH_TOL;
    match (edge(point.x()), edge(point.y())) {
        (true, true) if lo(point.x()) && hi(point.y()) => EssKind::GiveUpDefense,
        (true, true) if hi(point.x()) && hi(point.y()) => EssKind::FullDefenseFullAttack,
        (true, _) if hi(point.x()) => EssKind::FullDefensePartialAttack,
        (_, true) if hi(point.y()) => EssKind::PartialDefenseFullAttack,
        _ => EssKind::Interior,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The paper's Fig. 6 regime map (§VI-B-2) with R_a=200, k1=20,
    /// k2=4, p=0.8 from (0.5, 0.5):
    ///   1 ≤ m ≤ 11  → (1, 1)
    ///   12 ≤ m ≤ ~17 → (1, Y′)
    ///   ~18 ≤ m ≤ 54 → interior (X*, Y*)
    ///   55 ≤ m      → (X′, 1)
    #[test]
    fn regime_small_m_full_full() {
        for m in [1, 5, 11] {
            let out = predict_ess(&paper_game(m));
            assert_eq!(out.kind, EssKind::FullDefenseFullAttack, "m={m}: {out:?}");
        }
    }

    #[test]
    fn regime_medium_m_full_defense_partial_attack() {
        for m in [12, 14, 16] {
            let out = predict_ess(&paper_game(m));
            assert_eq!(
                out.kind,
                EssKind::FullDefensePartialAttack,
                "m={m}: {out:?}"
            );
            let y = y_prime(&paper_game(m));
            assert!(
                (out.point.y() - y).abs() < 2e-2,
                "m={m}: Y={} vs Y'={y}",
                out.point.y()
            );
        }
    }

    #[test]
    fn regime_large_m_interior() {
        for m in [20, 30, 45, 54] {
            let out = predict_ess(&paper_game(m));
            assert_eq!(out.kind, EssKind::Interior, "m={m}: {out:?}");
            let (xi, yi) = interior_point(&paper_game(m));
            assert!((out.point.x() - xi).abs() < 2e-2, "m={m}");
            assert!((out.point.y() - yi).abs() < 2e-2, "m={m}");
        }
    }

    #[test]
    fn regime_huge_m_partial_defense() {
        for m in [60, 80, 100] {
            let out = predict_ess(&paper_game(m));
            assert_eq!(
                out.kind,
                EssKind::PartialDefenseFullAttack,
                "m={m}: {out:?}"
            );
            let x = x_prime(&paper_game(m));
            assert!((out.point.x() - x).abs() < 2e-2, "m={m}");
        }
    }

    /// Fig. 6a/6d converge "in at most 4 steps" (fast); Fig. 6b/6c take
    /// on the order of 100–200 steps (slow). Check the ordering.
    #[test]
    fn convergence_speed_ordering_matches_paper() {
        let fast = predict_ess(&paper_game(5)).steps.expect("converges");
        let slow = predict_ess(&paper_game(14)).steps.expect("converges");
        let spiral = predict_ess(&paper_game(30)).steps.expect("converges");
        assert!(fast < slow, "fast={fast} slow={slow}");
        assert!(fast < spiral, "fast={fast} spiral={spiral}");
    }

    #[test]
    fn zero_one_never_stable_under_paper_economy() {
        // §V-E case 1: since R_a > C_a, (0,0) cannot be ESS and (0,1) is
        // only reachable when defense is pointless; with the paper's
        // economy and moderate m, (0,1) is unstable.
        let g = paper_game(10);
        assert!(!is_locally_stable(&g, PopulationState::new(0.0, 1.0)));
        assert!(!is_locally_stable(&g, PopulationState::new(0.0, 0.0)));
        assert!(!is_locally_stable(&g, PopulationState::new(1.0, 0.0)));
    }

    #[test]
    fn candidate_list_contains_predicted_ess() {
        for m in [5, 14, 30, 70] {
            let g = paper_game(m);
            let predicted = predict_ess(&g);
            let cands = ess_candidates(&g);
            let found = cands
                .iter()
                .any(|c| c.kind == predicted.kind && c.point.distance(&predicted.point) < 1e-6);
            assert!(
                found,
                "m={m}: predicted {predicted:?} not in candidates {cands:?}"
            );
        }
    }

    #[test]
    fn stability_verdict_agrees_with_dynamics() {
        for m in [5, 14, 30, 70] {
            let g = paper_game(m);
            let predicted = predict_ess(&g);
            for cand in ess_candidates(&g) {
                if cand.point.distance(&predicted.point) < 1e-6 {
                    assert!(
                        cand.stable,
                        "m={m}: dynamics settle at {cand:?} but Jacobian disagrees"
                    );
                }
            }
        }
    }

    #[test]
    fn classify_coordinates_covers_all_shapes() {
        assert_eq!(
            classify_coordinates(PopulationState::new(0.0, 1.0)),
            EssKind::GiveUpDefense
        );
        assert_eq!(
            classify_coordinates(PopulationState::new(1.0, 1.0)),
            EssKind::FullDefenseFullAttack
        );
        assert_eq!(
            classify_coordinates(PopulationState::new(1.0, 0.4)),
            EssKind::FullDefensePartialAttack
        );
        assert_eq!(
            classify_coordinates(PopulationState::new(0.4, 1.0)),
            EssKind::PartialDefenseFullAttack
        );
        assert_eq!(
            classify_coordinates(PopulationState::new(0.4, 0.6)),
            EssKind::Interior
        );
    }

    #[test]
    fn display_of_kinds() {
        assert_eq!(EssKind::Interior.to_string(), "(X*, Y*)");
        assert_eq!(EssKind::GiveUpDefense.to_string(), "(0, 1)");
    }

    /// On the knife edges `Y′ = 1` (`k1 = p^m·R_a/p`) and `X′ = 1`
    /// (`k2 = (1−p^m)·R_a/m`) an edge candidate meets the corner
    /// `(1, 1)`. One candidate is still certified, and it is where the
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
                let certified = ess_candidates(&game).iter().filter(|c| c.stable).count();
                assert_eq!(certified, 1, "{params:?}");
                let settled = predict_ess(&game);
                assert!(settled.steps.is_some(), "{params:?}");
                assert_eq!(
                    certified_ess(&game),
                    (settled.point, settled.kind),
                    "{params:?}"
                );
            }
        }
    }

    /// At `p = 0` the edge `X = 1` is a line of rest points, so no
    /// candidate is certified until `(X′, 1)` appears at `m > R_a/k2`;
    /// until then the ESS is `(1, Y′) = (1, 0)`, costing `k2·m`.
    #[test]
    fn no_attack_rule_takes_full_defense_until_partial_defense_is_certified() {
        for m in 1..=50 {
            let game = DosGameParams::paper_defaults(0.0, m).into_game();
            assert!(ess_candidates(&game).iter().all(|c| !c.stable), "m={m}");
            let (point, kind) = certified_ess(&game);
            assert_eq!(point, PopulationState::new(1.0, 0.0), "m={m}");
            assert_eq!(kind, EssKind::FullDefensePartialAttack, "m={m}");
            let cost = crate::cost::defense_cost(&game, point);
            assert!((cost - 4.0 * f64::from(m)).abs() < 1e-9, "m={m}: {cost}");
        }
        for m in [51, 60, 100] {
            let game = DosGameParams::paper_defaults(0.0, m).into_game();
            let (point, kind) = certified_ess(&game);
            assert_eq!(kind, EssKind::PartialDefenseFullAttack, "m={m}");
            assert_eq!(point, PopulationState::new(x_prime(&game), 1.0), "m={m}");
        }
    }

    #[test]
    fn no_attack_game_settles_defenseless() {
        // p = 0: attacks never succeed against any buffering, attacking
        // still costs; defenders also have no reason to pay for buffers.
        let g = DosGameParams::paper_defaults(0.0, 5).into_game();
        let out = predict_ess(&g);
        // Defenders drift to X = 0 because C_d > 0 and attacks are harmless
        // only if... actually with p=0 attacks always fail against
        // defenders but still hit non-defenders; the dynamics decide.
        assert!((0.0..=1.0).contains(&out.point.x()));
        assert!((0.0..=1.0).contains(&out.point.y()));
    }
}
