//! The evolutionary-game results of §VI-B, end to end: regime map,
//! convergence behaviour, optimiser and cost comparisons.

use crowdsense_dap::game::cost::{defense_cost, naive_defense_cost};
use crowdsense_dap::game::dynamics::evolve;
use crowdsense_dap::game::ess::{decide, EssKind};
use crowdsense_dap::game::optimize::optimal_buffer_count;
use crowdsense_dap::game::{DosGameParams, PopulationState};

fn game(p: f64, m: u32) -> crowdsense_dap::game::DosGame {
    DosGameParams::paper_defaults(p, m).into_game()
}

/// Fig. 6's regime boundaries at p = 0.8: 1-11 / 12-16 / 17-54 /
/// 55-100. The paper prints 12-17 / 18-54, one m past its own formulas:
/// at m = 17, R_a·Y′·(1−p^m) = 55.0 < k2·m = 68, so (1, Y′) repels
/// (EXPERIMENTS.md).
#[test]
fn regime_boundaries_at_paper_settings() {
    assert_eq!(decide(&game(0.8, 1)).1, EssKind::FullDefenseFullAttack);
    assert_eq!(decide(&game(0.8, 11)).1, EssKind::FullDefenseFullAttack);
    assert_eq!(decide(&game(0.8, 12)).1, EssKind::FullDefensePartialAttack);
    assert_eq!(decide(&game(0.8, 16)).1, EssKind::FullDefensePartialAttack);
    assert_eq!(decide(&game(0.8, 17)).1, EssKind::Interior);
    assert_eq!(decide(&game(0.8, 54)).1, EssKind::Interior);
    assert_eq!(decide(&game(0.8, 55)).1, EssKind::PartialDefenseFullAttack);
    assert_eq!(decide(&game(0.8, 100)).1, EssKind::PartialDefenseFullAttack);
}

/// The ESS is independent of the interior starting point (the paper's
/// replicator-dynamics stability claim): the paper's Euler run from each
/// start ends at the decided ESS.
#[test]
fn ess_independent_of_interior_start() {
    for m in [5u32, 14, 30, 70] {
        let g = game(0.8, m);
        let (point, _) = decide(&g);
        for &(x0, y0) in &[(0.2, 0.9), (0.9, 0.2), (0.6, 0.6), (0.15, 0.15)] {
            let end = evolve(&g, PopulationState::new(x0, y0), 2_000_000).last();
            assert!(
                end.distance(&point) < 3e-2,
                "m={m} from ({x0},{y0}): {end} vs {point}"
            );
        }
    }
}

/// Corners of the square never move (pure populations cannot change by
/// replication), and trajectories never leave the unit square.
#[test]
fn dynamics_respect_the_simplex() {
    let g = game(0.8, 30);
    let t = evolve(&g, PopulationState::new(0.01, 0.99), 50_000);
    for s in t.states() {
        assert!((0.0..=1.0).contains(&s.x()) && (0.0..=1.0).contains(&s.y()));
    }
}

/// Fig. 7 + Fig. 8 shape: the optimal m grows with p in the moderate
/// band; the game-guided cost beats naive everywhere.
#[test]
fn optimizer_and_cost_sweep() {
    let mut last_m = 0u32;
    for &p in &[0.5, 0.6, 0.7, 0.8, 0.9] {
        let opt = optimal_buffer_count(DosGameParams::paper_defaults(p, 1), 50);
        assert!(opt.m >= last_m, "m*({p}) = {} decreased", opt.m);
        last_m = opt.m;

        let naive = naive_defense_cost(DosGameParams::paper_defaults(p, 1), 50);
        assert!(
            opt.cost <= naive + 1e-9,
            "p={p}: {} > naive {naive}",
            opt.cost
        );
    }
}

/// §V-F: E is exactly the negated mean defender pay-off at the ESS, and
/// at the heavy-attack (X′,1) ESS it equals R_a for any m.
#[test]
fn cost_identities_hold_at_predicted_ess() {
    for (p, m) in [(0.8, 30u32), (0.99, 10), (0.99, 50)] {
        let g = game(p, m);
        let (point, kind) = decide(&g);
        let e = defense_cost(&g, point);
        let closed = crowdsense_dap::game::cost::defense_cost_closed_form(&g, point);
        assert!((e - closed).abs() < 1e-9, "p={p} m={m}");
        if kind == EssKind::PartialDefenseFullAttack {
            assert!((e - 200.0).abs() < 0.5, "p={p} m={m}: E={e}");
        }
    }
}

/// The four Fig.-6 panels converge, and the fast regimes converge sooner
/// than the slow ones (the paper's "4 steps vs ~100 vs ~200").
#[test]
fn convergence_speed_ordering() {
    let steps = |m: u32| {
        evolve(&game(0.8, m), PopulationState::CENTER, 2_000_000)
            .converged_at()
            .expect("must converge")
    };
    let fast_11 = steps(5);
    let slow_1y = steps(14);
    let spiral = steps(30);
    let fast_x1 = steps(70);
    assert!(fast_11 < slow_1y, "{fast_11} !< {slow_1y}");
    assert!(fast_11 < spiral, "{fast_11} !< {spiral}");
    assert!(fast_x1 < spiral, "{fast_x1} !< {spiral}");
}
