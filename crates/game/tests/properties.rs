//! Property-based tests for the evolutionary-game engine, on the
//! in-tree `dap-testkit` harness (deterministic, seeded, shrinking).

use dap_game::cost::{defense_cost, defense_cost_closed_form, naive_defense_cost};
use dap_game::dynamics::{evolve, EulerIntegrator, Integrator, ReplicatorField};
use dap_game::ess::{decide, ess_candidates, interior_point, x_prime, y_prime};
use dap_game::{DosGameParams, PopulationState};
use dap_testkit::{assume, check, Gen};

fn arb_params(g: &mut Gen) -> DosGameParams {
    DosGameParams {
        p: g.f64_in(0.01, 0.99),
        m: g.u32_in(1..80),
        ra: g.f64_in(50.0, 500.0),
        k1: g.f64_in(5.0, 50.0),
        k2: g.f64_in(1.0, 10.0),
    }
}

/// The closed-form cost identity holds for any parameters and state.
#[test]
fn cost_closed_form_identity() {
    check("cost_closed_form_identity", |g| {
        let params = arb_params(g);
        let x = g.f64_in(0.0, 1.0);
        let y = g.f64_in(0.0, 1.0);
        let game = params.into_game();
        let s = PopulationState::new(x, y);
        assert!((defense_cost(&game, s) - defense_cost_closed_form(&game, s)).abs() < 1e-6);
    });
}

/// Every closed-form candidate is a genuine rest point of the field.
#[test]
fn candidates_are_rest_points() {
    check("candidates_are_rest_points", |g| {
        let game = arb_params(g).into_game();
        let field = ReplicatorField::new(&game);
        for cand in ess_candidates(&game) {
            let (dx, dy) = field.derivative(cand.point);
            assert!(
                dx.abs() < 1e-6 && dy.abs() < 1e-6,
                "{cand:?} moves by ({dx}, {dy})"
            );
        }
    });
}

/// Algorithm 3 prices one ESS per `m`: exactly one of the paper's
/// candidates is marked stable, and it is the decided one. (The exact
/// Jacobian's verdict on it is checked in the crate's own tests.)
#[test]
fn exactly_one_candidate_is_certified() {
    check("exactly_one_candidate_is_certified", |g| {
        let params = arb_params(g);
        let game = params.into_game();
        let candidates = ess_candidates(&game);
        let stable: Vec<_> = candidates.iter().filter(|c| c.stable).collect();
        assert_eq!(stable.len(), 1, "{params:?}: {candidates:?}");
        assert_eq!((stable[0].point, stable[0].kind), decide(&game));
    });
}

/// The interior point formulas solve both replicator brackets.
#[test]
fn interior_point_solves_brackets() {
    check("interior_point_solves_brackets", |g| {
        let params = arb_params(g);
        let game = params.into_game();
        let (x, y) = interior_point(&game);
        assume((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
        let pm = game.attack_success();
        let bx = params.ra * y * (1.0 - pm) - params.k2 * f64::from(params.m) * x;
        let by = (pm - 1.0) * x * params.ra + params.ra - params.k1 * params.p * y;
        assert!(bx.abs() < 1e-6, "dX bracket {bx}");
        assert!(by.abs() < 1e-6, "dY bracket {by}");
    });
}

/// Edge-point formulas: X' zeroes the defender bracket at Y = 1 and
/// Y' zeroes the attacker bracket at X = 1.
#[test]
fn edge_formulas_zero_their_brackets() {
    check("edge_formulas_zero_their_brackets", |g| {
        let params = arb_params(g);
        let game = params.into_game();
        let pm = game.attack_success();
        let xp = x_prime(&game);
        if (0.0..=1.0).contains(&xp) {
            let bx = params.ra * 1.0 * (1.0 - pm) - params.k2 * f64::from(params.m) * xp;
            assert!(bx.abs() < 1e-9);
        }
        let yp = y_prime(&game);
        if (0.0..=1.0).contains(&yp) && params.p > 0.0 {
            let by = (pm - 1.0) * params.ra + params.ra - params.k1 * params.p * yp;
            assert!(by.abs() < 1e-9);
        }
    });
}

/// The decided ESS is a rest point: the field there is negligible, so
/// we never report a non-equilibrium as ESS.
#[test]
fn predicted_ess_is_stationary() {
    check("predicted_ess_is_stationary", |g| {
        let p = g.f64_in(0.05, 0.95);
        let m = g.u32_in(1..60);
        let game = DosGameParams::paper_defaults(p, m).into_game();
        let (point, _) = decide(&game);
        let (dx, dy) = ReplicatorField::new(&game).derivative(point);
        assert!(
            dx.abs() < 1e-9 && dy.abs() < 1e-9,
            "decided {point} with field ({dx}, {dy})"
        );
    });
}

/// Smaller Euler steps never leave the unit square either.
#[test]
fn any_step_size_respects_simplex() {
    check("any_step_size_respects_simplex", |g| {
        let game = arb_params(g).into_game();
        let dt = g.f64_in(0.0001, 0.2);
        let x0 = g.f64_in(0.01, 0.99);
        let y0 = g.f64_in(0.01, 0.99);
        let euler = EulerIntegrator { dt };
        let mut s = PopulationState::new(x0, y0);
        for _ in 0..200 {
            s = euler.step(&game, s);
            assert!((0.0..=1.0).contains(&s.x()) && (0.0..=1.0).contains(&s.y()));
        }
    });
}

/// Naive cost is monotone in the cap (more forced buffers cost more)
/// whenever attackers are fully engaged.
#[test]
fn naive_cost_monotone_in_cap() {
    check("naive_cost_monotone_in_cap", |g| {
        let p = g.f64_in(0.3, 0.99);
        let params = DosGameParams::paper_defaults(p, 1);
        let mut last = 0.0;
        for cap in [10u32, 20, 30, 40, 50] {
            let n = naive_defense_cost(params, cap);
            assert!(n >= last - 40.0, "cap {cap}: {n} << {last}");
            last = n;
        }
    });
}

/// Trajectories are deterministic: same game, same start, same path.
#[test]
fn evolution_is_deterministic() {
    check("evolution_is_deterministic", |g| {
        let game = arb_params(g).into_game();
        let x0 = g.f64_in(0.01, 0.99);
        let y0 = g.f64_in(0.01, 0.99);
        let a = evolve(&game, PopulationState::new(x0, y0), 500);
        let b = evolve(&game, PopulationState::new(x0, y0), 500);
        assert_eq!(a.states(), b.states());
    });
}
