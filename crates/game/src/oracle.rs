//! Test-only oracles for [`crate::ess::decide`]: the integrated run
//! ([`crate::dynamics::settle`], snapped to the nearest closed form by
//! [`snap`]), the
//! replicator field's exact Jacobian, and the economies the decision is
//! checked over.

use dap_testkit::Gen;

use crate::dynamics::{ReplicatorField, TwoPopulationGame};
use crate::ess::{
    closed_forms, decide, ess_candidates, interior_point, x_prime, y_prime, EssKind, ROUNDING,
};
use crate::payoff::{DosGame, DosGameParams};
use crate::state::PopulationState;

/// How close a settled state must come to a closed form to be replaced
/// by it.
pub(crate) const MATCH_TOL: f64 = 1e-2;

/// The closed form nearest `state` and its distance: the first of
/// equals, in [`ess_candidates`] order.
pub(crate) fn nearest(game: &DosGame, state: PopulationState) -> (f64, PopulationState, EssKind) {
    closed_forms(game)
        .map(|(point, kind)| (state.distance(&point), point, kind))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("(0, 1) and (1, 1) are always listed")
}

/// The [`nearest`] closed form to a settled state when it lies within
/// [`MATCH_TOL`], else the settled state itself, labelled by the edges it
/// lies that close to.
pub(crate) fn snap(game: &DosGame, settled: PopulationState) -> (PopulationState, EssKind) {
    let (distance, point, kind) = nearest(game, settled);
    if distance <= MATCH_TOL {
        return (point, kind);
    }
    let near = |v: f64, edge: f64| (v - edge).abs() <= MATCH_TOL;
    let kind = match (near(settled.x(), 1.0), near(settled.y(), 1.0)) {
        (true, true) => EssKind::FullDefenseFullAttack,
        (true, false) => EssKind::FullDefensePartialAttack,
        (false, true) if near(settled.x(), 0.0) => EssKind::GiveUpDefense,
        (false, true) => EssKind::PartialDefenseFullAttack,
        (false, false) => EssKind::Interior,
    };
    (settled, kind)
}

/// The replicator field's exact Jacobian at `state`, each entry with the
/// summed size of the terms it adds up, so that an entry within
/// [`ROUNDING`] of its size is zero up to rounding. With the advantages
/// `A = E(U_d) − E(U_nd) = a·Y − b·X` and
/// `B = E(U_a) − E(U_na) = c − a·X − e·Y` (the `ess` module doc), read
/// from the game as the field reads them:
///
/// ```text
/// ∂f/∂X = (1−2X)·A − X(1−X)·b     ∂f/∂Y = X(1−X)·a
/// ∂g/∂X = −Y(1−Y)·a               ∂g/∂Y = (1−2Y)·B − Y(1−Y)·e
/// ```
pub(crate) fn exact_jacobian(game: &DosGame, state: PopulationState) -> [[(f64, f64); 2]; 2] {
    let params = game.params();
    let a = (1.0 - game.attack_success()) * params.ra;
    let b = params.k2 * f64::from(params.m);
    let (c, e) = (params.ra, params.k1 * params.p);
    let (x, y) = (state.x(), state.y());
    let adv_d = game.payoff_defend(state) - game.payoff_no_defend(state);
    let adv_a = game.payoff_attack(state) - game.payoff_no_attack(state);
    let (vx, vy) = (x * (1.0 - x), y * (1.0 - y));
    let (ux, uy) = (1.0 - 2.0 * x, 1.0 - 2.0 * y);
    [
        [
            (ux * adv_d - vx * b, ux.abs() * (a * y + b * x) + vx * b),
            (vx * a, vx * a),
        ],
        [
            (-vy * a, vy * a),
            (uy * adv_a - vy * e, uy.abs() * (c + e * y) + vy * e),
        ],
    ]
}

/// The economies `arb_params` in `tests/properties.rs` draws, over the
/// same ranges in the same draw order.
pub(crate) fn arb_params(g: &mut Gen) -> DosGameParams {
    DosGameParams {
        p: g.f64_in(0.01, 0.99),
        m: g.u32_in(1..80),
        ra: g.f64_in(50.0, 500.0),
        k1: g.f64_in(5.0, 50.0),
        k2: g.f64_in(1.0, 10.0),
    }
}

/// Which closed form a knife edge puts on the corner `(1, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KnifeEdge {
    /// `Y′ = 1`: `k1 = p^m·R_a/p`.
    YPrime,
    /// `X′ = 1`: `k2 = (1−p^m)·R_a/m`.
    XPrime,
    /// Both at once.
    Both,
}

/// The knife edges of the paper economy: for every permille 1..=999 and
/// `m` in 1..=60, `k1` or `k2` (or both) set so that `Y′ = 1` or
/// `X′ = 1`, 179,820 games in all.
pub(crate) fn knife_edges() -> impl Iterator<Item = (KnifeEdge, DosGameParams)> {
    (1..=999).flat_map(|permille| {
        (1..=60).flat_map(move |m| {
            let paper = DosGameParams::paper_defaults(f64::from(permille) / 1000.0, m);
            let pm = paper.p.powi(m as i32);
            let k1 = pm * paper.ra / paper.p;
            let k2 = (1.0 - pm) * paper.ra / f64::from(m);
            [
                (KnifeEdge::YPrime, DosGameParams { k1, ..paper }),
                (KnifeEdge::XPrime, DosGameParams { k2, ..paper }),
                (KnifeEdge::Both, DosGameParams { k1, k2, ..paper }),
            ]
        })
    })
}

/// Checks [`decide`] against the exact Jacobian:
///
/// * exactly one candidate is marked stable, and it is the decided one;
/// * the decided candidate has no eigenvalue above rounding, and where
///   one is zero up to rounding, another closed form lies within 1e-9
///   (a merge) and the field one step of 1e-6 towards the square's
///   centre along that eigenvalue's axis points back into the point;
/// * every other listed candidate has a positive eigenvalue.
///
/// On the boundary the Jacobian is triangular, so the eigenvalues are its
/// diagonal; inside, trace < 0 < determinant is stability. Returns
/// whether the decided candidate had a zero eigenvalue.
pub(crate) fn assert_only_the_decision_is_stable(params: DosGameParams) -> bool {
    let game = params.into_game();
    let decided = decide(&game);
    let candidates = ess_candidates(&game);
    let stable: Vec<_> = candidates.iter().filter(|c| c.stable).collect();
    assert_eq!(stable.len(), 1, "{params:?}: {candidates:?}");
    assert_eq!((stable[0].point, stable[0].kind), decided, "{params:?}");
    let mut zero = false;
    for candidate in &candidates {
        let point = candidate.point;
        let jac = exact_jacobian(&game, point);
        if !point.on_boundary() {
            let trace = jac[0][0].0 + jac[1][1].0;
            let det = jac[0][0].0 * jac[1][1].0 - jac[0][1].0 * jac[1][0].0;
            assert!(candidate.stable, "{params:?}: {candidate:?}");
            assert!(trace < 0.0 && det > 0.0, "{params:?}: {candidate:?}");
            continue;
        }
        let diagonal = [jac[0][0], jac[1][1]];
        if !candidate.stable {
            assert!(
                diagonal.iter().any(|&(l, _)| l > 0.0),
                "{params:?}: {candidate:?} has eigenvalues {diagonal:?}"
            );
            continue;
        }
        for (axis, (lambda, size)) in diagonal.into_iter().enumerate() {
            let rounding = ROUNDING * size;
            assert!(lambda <= rounding, "{params:?}: {candidate:?} {lambda}");
            if lambda < -rounding {
                continue;
            }
            zero = true;
            assert!(merged(&game, decided), "{params:?}: {candidate:?} {lambda}");
            let (x, y) = (point.x(), point.y());
            let toward_centre = |v: f64| if v > 0.5 { v - 1e-6 } else { v + 1e-6 };
            let off = match axis {
                0 => PopulationState::new(toward_centre(x), y),
                _ => PopulationState::new(x, toward_centre(y)),
            };
            let (dx, dy) = ReplicatorField::new(&game).derivative(off);
            let (field, back) = match axis {
                0 => (dx, x - off.x()),
                _ => (dy, y - off.y()),
            };
            assert!(
                field * back > 0.0,
                "{params:?}: {candidate:?} repels along axis {axis}"
            );
        }
    }
    zero
}

/// Whether a closed form other than the decided one lies within 1e-9 of
/// it: the decision merged two rest points.
fn merged(game: &DosGame, (point, kind): (PopulationState, EssKind)) -> bool {
    let (xp, yp) = (x_prime(game), y_prime(game));
    let (xi, yi) = interior_point(game);
    [
        (1.0, 1.0, EssKind::FullDefenseFullAttack),
        (xp, 1.0, EssKind::PartialDefenseFullAttack),
        (1.0, yp, EssKind::FullDefensePartialAttack),
        (xi, yi, EssKind::Interior),
    ]
    .into_iter()
    .any(|(x, y, other)| other != kind && (x - point.x()).abs().max((y - point.y()).abs()) <= 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{settle, Rk4Integrator};

    /// The decision against the exact Jacobian over random economies.
    #[test]
    fn only_the_decision_is_stable_on_random_economies() {
        dap_testkit::check("only_the_decision_is_stable_on_random_economies", |g| {
            let params = arb_params(g);
            assert!(!assert_only_the_decision_is_stable(params), "{params:?}");
        });
    }

    /// The decision against the exact Jacobian on all 179,820 knife
    /// edges, where closed forms meet the corner and merge, leaving zero
    /// eigenvalues.
    #[test]
    fn only_the_decision_is_stable_on_knife_edges() {
        let (mut games, mut zero) = (0, 0);
        for (_, params) in knife_edges() {
            zero += usize::from(assert_only_the_decision_is_stable(params));
            games += 1;
        }
        assert_eq!(games, 179_820);
        assert!(zero > 0);
        println!("{zero} of {games} knife edges decide a point with a zero eigenvalue");
    }

    /// On a single knife edge whose other closed form is at least 1, the
    /// edge candidate meets the corner, and the decision names it
    /// `(1, 1)` on whichever side of 1 the edge formula rounds. Without
    /// the [`crate::ess::ROUNDING`] merge the games where it rounds
    /// inside would be named for the edge.
    #[test]
    fn knife_edges_merge_into_the_corner() {
        let corner = (
            PopulationState::new(1.0, 1.0),
            EssKind::FullDefenseFullAttack,
        );
        let mut rounded_inside = 0;
        for (edge, params) in knife_edges() {
            let game = params.into_game();
            let (xp, yp) = (x_prime(&game), y_prime(&game));
            let (on_edge, other) = match edge {
                KnifeEdge::YPrime => (yp, xp),
                KnifeEdge::XPrime => (xp, yp),
                KnifeEdge::Both => continue,
            };
            if other >= 1.0 {
                assert_eq!(decide(&game), corner, "{edge:?} {params:?}");
                rounded_inside += usize::from(on_edge < 1.0);
            }
        }
        assert!(rounded_inside > 0);
    }

    /// RK4 at `t = 0.01` from `(0.5, 0.5)` over `cases` seeded economies
    /// from `arb_params`' ranges: each run, stopped once a step moves
    /// less than 1e-9 (at most 2M steps), ends nearest the decided ESS
    /// among the closed forms. A run that ends nearer another candidate
    /// continues from there to 1e-15 (at most 20M steps) and must then.
    /// Returns how many runs needed that.
    fn rk4_ends_nearest_the_decision(cases: usize) -> usize {
        let rk4 = Rk4Integrator { dt: 0.01 };
        let mut g = Gen::from_seed(0x0e55_dec1_de00_0001);
        let mut continued = 0;
        for case in 0..cases {
            let params = arb_params(&mut g);
            let game = params.into_game();
            let (_, decided) = decide(&game);
            let (end, _) = settle(&game, PopulationState::CENTER, 2_000_000, rk4, 1e-9, |_| ());
            if nearest(&game, end).2 == decided {
                continue;
            }
            continued += 1;
            let (end, _) = settle(&game, end, 20_000_000, rk4, 1e-15, |_| ());
            assert_eq!(
                nearest(&game, end).2,
                decided,
                "case {case} {params:?}: RK4 ends at {end}"
            );
        }
        continued
    }

    #[test]
    fn rk4_ends_nearest_the_decision_on_a_sample() {
        rk4_ends_nearest_the_decision(2_000);
    }

    #[test]
    #[ignore = "integrates 200,000 games; run in release (ci.sh does)"]
    fn rk4_ends_nearest_the_decision_on_200k_economies() {
        let continued = rk4_ends_nearest_the_decision(200_000);
        println!("{continued} of 200000 RK4 runs continued to 1e-15");
    }
}
