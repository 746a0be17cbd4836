//! Algorithm 3: choosing the buffer count `m` that minimises the
//! defenders' average cost at the ESS.
//!
//! One allocation-free sweep serves every caller: for each
//! `m ∈ 1..=cap` it takes the ESS in closed form ([`crate::ess::decide`]),
//! costs it and keeps the argmin, ties going to the smaller `m`. No game
//! is integrated, so a solve costs the same at every attack level. On
//! top of it:
//!
//! * [`optimal_buffer_count`] — the exact argmin, which is what the
//!   algorithm's *intent* ("find the optimal m") and Fig. 7 require;
//!   [`cost_landscape`] is the cost it searched, per `m`;
//! * [`optimal_buffer_count_paper_literal`] — a faithful transcription of
//!   the pseudo-code as printed, whose `if E_m < E_{m−1}` update keeps
//!   the *last descent* rather than the global argmin. The discrepancy is
//!   documented in `DESIGN.md` §4 and exercised by the tests;
//! * [`solve_posture_permille`] — the control-loop step the `dap-net`
//!   control plane re-runs at interval boundaries.
//!
//! The result carries the paper's §V *give-up* verdict
//! ([`OptimalBuffer::give_up`]): when the best achievable posture is
//! `(0, 1)` or `(X′, 1)` the defender cost has saturated at `R_a`,
//! buffers no longer buy anything, and the control plane should stop
//! paying for them.

use crate::cost::defense_cost;
use crate::ess::{decide, EssKind};
use crate::payoff::DosGameParams;
use crate::state::PopulationState;

/// Algorithm 3's answer: the chosen buffer count and the ESS it induces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalBuffer {
    /// The cost-minimising buffer count `m*`.
    pub m: u32,
    /// The ESS shape with `m*` buffers.
    pub kind: EssKind,
    /// The ESS with `m*` buffers.
    pub point: PopulationState,
    /// The defenders' average cost at that ESS.
    pub cost: f64,
}

impl OptimalBuffer {
    /// §V give-up verdict: the best posture still leaves attackers fully
    /// attacking with cost pinned at `R_a`, so buffering is pointless.
    #[must_use]
    pub fn give_up(&self) -> bool {
        matches!(
            self.kind,
            EssKind::GiveUpDefense | EssKind::PartialDefenseFullAttack
        )
    }
}

/// The one Algorithm 3 sweep: for each `m ∈ 1..=cap`, the decided ESS
/// and its defender cost, each `(m, cost)` shown to `visit` in order.
/// Returns the strict cost argmin, so ties break toward the smaller `m`,
/// which also minimises memory.
fn sweep(params: DosGameParams, cap: u32, mut visit: impl FnMut(u32, f64)) -> OptimalBuffer {
    assert!(cap >= 1, "buffer cap must be at least 1");
    let mut best: Option<OptimalBuffer> = None;
    for m in 1..=cap {
        let game = DosGameParams { m, ..params }.into_game();
        let (point, kind) = decide(&game);
        let cost = defense_cost(&game, point);
        visit(m, cost);
        if best.is_none_or(|b| cost < b.cost) {
            best = Some(OptimalBuffer {
                m,
                kind,
                point,
                cost,
            });
        }
    }
    best.expect("cap >= 1 so at least one candidate")
}

/// Exact Algorithm 3: sweep `m ∈ 1..=cap`, take each game's ESS, and
/// return the `m` with the minimum defender cost (ties break toward the
/// smaller `m`, which also minimises memory).
///
/// ```
/// use dap_game::{optimal_buffer_count, DosGameParams};
///
/// let best = optimal_buffer_count(DosGameParams::paper_defaults(0.8, 1), 50);
/// assert!((12..=17).contains(&best.m)); // the (1, Y') band at p = 0.8
/// ```
///
/// `cap` is the hardware bound `M` (≤ ~50 buffers per sensor node per
/// Liu & Ning, the paper's §VI-B-1 setting).
///
/// # Panics
///
/// Panics if `cap == 0`.
#[must_use]
pub fn optimal_buffer_count(params: DosGameParams, cap: u32) -> OptimalBuffer {
    sweep(params, cap, |_, _| {})
}

/// The cost landscape [`optimal_buffer_count`] searches: `(m, cost)` for
/// every `m ∈ 1..=cap`, in order, so experiments can plot it.
///
/// # Panics
///
/// Panics if `cap == 0`.
#[must_use]
pub fn cost_landscape(params: DosGameParams, cap: u32) -> Vec<(u32, f64)> {
    let mut landscape = Vec::with_capacity(cap as usize);
    sweep(params, cap, |m, cost| landscape.push((m, cost)));
    landscape
}

/// Algorithm 3 exactly as printed in the paper: `m_optm` is updated
/// whenever `E_m < E_{m−1}`, so the function returns the end of the last
/// descending run of the cost sequence instead of the argmin.
///
/// Provided for fidelity comparisons; use [`optimal_buffer_count`] for
/// real deployments.
///
/// # Panics
///
/// Panics if `cap == 0`.
#[must_use]
pub fn optimal_buffer_count_paper_literal(params: DosGameParams, cap: u32) -> u32 {
    let mut m_optm = 0u32;
    let mut previous = f64::INFINITY; // E_0 = ∞ in the pseudo-code.
    sweep(params, cap, |m, e_m| {
        if e_m < previous {
            m_optm = m;
        }
        previous = e_m;
    });
    m_optm
}

/// The control-loop step: [`optimal_buffer_count`] for a fixed-point
/// attack estimate. `p_permille` is the estimated forged fraction in
/// permille (0..=1000), applied to the paper's economy. This is the
/// entry point the `dap-net` control plane calls — integer in, so two
/// same-seed runs feed bit-identical inputs.
///
/// The game needs `p < 1`, so an all-forged estimate (1000‰) is solved
/// at 999‰, which already gives up.
///
/// # Panics
///
/// Panics if `p_permille > 1000` or `cap == 0`.
#[must_use]
pub fn solve_posture_permille(p_permille: u32, cap: u32) -> OptimalBuffer {
    assert!(p_permille <= 1000, "permille estimate out of range");
    let p = f64::from(p_permille.min(999)) / 1000.0;
    optimal_buffer_count(DosGameParams::paper_defaults(p, 1), cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{settle, EulerIntegrator, CONVERGENCE_TOL};
    use crate::oracle::snap;

    /// The Euler-step bound each game got when Algorithm 3 integrated.
    const ORACLE_MAX_STEPS: usize = 100_000;

    /// The integrated ESS: the game settled from `(0.5, 0.5)` under
    /// [`ORACLE_MAX_STEPS`] and snapped to the nearest closed form.
    fn integrated_ess(params: DosGameParams) -> (PopulationState, EssKind, f64) {
        let game = params.into_game();
        let (settled, _) = settle(
            &game,
            PopulationState::CENTER,
            ORACLE_MAX_STEPS,
            EulerIntegrator::paper(),
            CONVERGENCE_TOL,
            |_| (),
        );
        let (point, kind) = snap(&game, settled);
        (point, kind, defense_cost(&game, point))
    }

    /// The reference the closed-form sweep is checked against: Algorithm 3
    /// over [`integrated_ess`], with its cost landscape.
    fn integrated_sweep(params: DosGameParams, cap: u32) -> (OptimalBuffer, Vec<(u32, f64)>) {
        let mut best: Option<OptimalBuffer> = None;
        let mut landscape = Vec::new();
        for m in 1..=cap {
            let (point, kind, cost) = integrated_ess(DosGameParams { m, ..params });
            landscape.push((m, cost));
            if best.is_none_or(|b| cost < b.cost) {
                best = Some(OptimalBuffer {
                    m,
                    kind,
                    point,
                    cost,
                });
            }
        }
        (best.expect("cap >= 1"), landscape)
    }

    /// The closed-form solve at `p_permille` (cap 50) against the
    /// integrated one: the same `m*`, ESS kind and paper-literal `m`, and
    /// from 1‰ up the same point and cost bit for bit, with every
    /// landscape cell within 1e-4. At 0‰ the integrated run ends on the
    /// `X = 1 − 10⁻⁶` guard rather than at a rest point, so only its
    /// cost's first three decimals agree.
    fn assert_matches_integrated(p_permille: u32) {
        let params = DosGameParams::paper_defaults(f64::from(p_permille.min(999)) / 1000.0, 1);
        let (want, want_landscape) = integrated_sweep(params, 50);
        let got = solve_posture_permille(p_permille, 50);
        assert_eq!((got.m, got.kind), (want.m, want.kind), "{p_permille}‰");
        let last_descent = want_landscape
            .iter()
            .fold((0, f64::INFINITY), |(m_optm, previous), &(m, e_m)| {
                (if e_m < previous { m } else { m_optm }, e_m)
            })
            .0;
        assert_eq!(
            optimal_buffer_count_paper_literal(params, 50),
            last_descent,
            "{p_permille}‰"
        );
        if p_permille == 0 {
            assert!((got.cost - want.cost).abs() < 1e-3, "{got:?} vs {want:?}");
            return;
        }
        assert_eq!(got.point, want.point, "{p_permille}‰");
        assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{p_permille}‰");
        for (&(m, cost), &(_, want_cost)) in cost_landscape(params, 50).iter().zip(&want_landscape)
        {
            assert!(
                (cost - want_cost).abs() < 1e-4,
                "{p_permille}‰ m={m}: {cost} vs {want_cost}"
            );
        }
    }

    #[test]
    fn closed_form_matches_the_integrated_sweep_every_25th_permille() {
        for p_permille in (0..=1000).step_by(25) {
            assert_matches_integrated(p_permille);
        }
    }

    #[test]
    #[ignore = "integrates 50,050 games; run in release (ci.sh does)"]
    fn closed_form_matches_the_integrated_sweep_at_every_permille() {
        for p_permille in 0..=1000 {
            assert_matches_integrated(p_permille);
        }
    }

    #[test]
    fn landscape_covers_full_range() {
        let params = DosGameParams::paper_defaults(0.8, 1);
        let opt = optimal_buffer_count(params, 20);
        let landscape = cost_landscape(params, 20);
        assert_eq!(landscape.len(), 20);
        assert_eq!(landscape[0].0, 1);
        assert_eq!(landscape[19].0, 20);
        // The reported optimum is the landscape argmin.
        let min = landscape
            .iter()
            .cloned()
            .fold(
                (0u32, f64::INFINITY),
                |acc, c| if c.1 < acc.1 { c } else { acc },
            );
        assert_eq!(opt.m, min.0);
        assert!((opt.cost - min.1).abs() < 1e-12);
    }

    /// Fig. 7: for moderate attacks the optimum grows with p ...
    #[test]
    fn optimum_grows_with_attack_level() {
        let low = optimal_buffer_count(DosGameParams::paper_defaults(0.60, 1), 50);
        let high = optimal_buffer_count(DosGameParams::paper_defaults(0.90, 1), 50);
        assert!(
            low.m < high.m,
            "m*(0.60)={} should be below m*(0.90)={}",
            low.m,
            high.m
        );
    }

    /// ... and under a near-jamming attack the defense saturates: every
    /// buffer count lands on the (X′, 1) ESS whose defender cost is
    /// exactly R_a (see `cost::tests::partial_defense_cost_is_exactly_ra`),
    /// so buying buffers no longer helps — the paper's "it turns to give
    /// up" regime.
    #[test]
    fn heavy_attack_cost_saturates_at_ra() {
        let opt = optimal_buffer_count(DosGameParams::paper_defaults(0.99, 1), 50);
        assert!((opt.cost - 200.0).abs() < 1.0, "cost={}", opt.cost);
        // At the cap itself the ESS is the partial-defense edge the paper
        // reports for p > 0.94.
        let at_cap = DosGameParams::paper_defaults(0.99, 50).into_game();
        let (point, kind) = decide(&at_cap);
        assert_eq!(kind, EssKind::PartialDefenseFullAttack, "{point}");
        let cost_at_cap = defense_cost(&at_cap, point);
        assert!(
            (cost_at_cap - 200.0).abs() < 1.0,
            "cost at cap {cost_at_cap}"
        );
    }

    /// With the paper's economy at p = 0.8 the cost-argmin sits in the
    /// full-defense/partial-attack band (m ≈ 13): the landscape decreases
    /// through the (1,1) band, bottoms out in the (1, Y′) band, and climbs
    /// through the interior band. (The paper's prose instead highlights
    /// the interior ESS here; see EXPERIMENTS.md for the comparison.)
    #[test]
    fn moderate_attack_optimum_in_partial_attack_band() {
        let params = DosGameParams::paper_defaults(0.8, 1);
        let opt = optimal_buffer_count(params, 50);
        assert_eq!(opt.kind, EssKind::FullDefensePartialAttack, "{opt:?}");
        assert!((12..=17).contains(&opt.m), "m*={}", opt.m);
        // The landscape rises again in the interior band.
        let landscape = cost_landscape(params, 50);
        let cost_at_30 = landscape.iter().find(|c| c.0 == 30).unwrap().1;
        assert!(cost_at_30 > opt.cost, "interior band should cost more");
    }

    #[test]
    fn ties_break_toward_smaller_m() {
        // With p = 0 every m ≥ 1 yields the same dynamics shape; the
        // optimiser must return the cheapest (smallest) m among equals —
        // guaranteed by strict `<` in the update.
        let params = DosGameParams::paper_defaults(0.0, 1);
        let opt = optimal_buffer_count(params, 10);
        let landscape = cost_landscape(params, 10);
        let min_cost = landscape.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
        let first_min = landscape
            .iter()
            .find(|c| (c.1 - min_cost).abs() < 1e-12)
            .unwrap()
            .0;
        assert_eq!(opt.m, first_min);
    }

    #[test]
    fn paper_literal_differs_when_cost_is_non_monotone() {
        // The literal pseudo-code returns the end of the last descent.
        // Wherever the landscape is unimodal the two agree; the important
        // property is that the literal variant never beats the argmin.
        for p in [0.5, 0.8, 0.95] {
            let params = DosGameParams::paper_defaults(p, 1);
            let exact = optimal_buffer_count(params, 50);
            let literal = optimal_buffer_count_paper_literal(params, 50);
            let literal_cost = cost_landscape(params, 50)
                .iter()
                .find(|c| c.0 == literal)
                .map(|c| c.1)
                .unwrap();
            assert!(
                exact.cost <= literal_cost + 1e-12,
                "p={p}: argmin {} beats literal {}",
                exact.cost,
                literal_cost
            );
        }
    }

    #[test]
    #[should_panic(expected = "buffer cap")]
    fn zero_cap_panics() {
        let _ = optimal_buffer_count(DosGameParams::paper_defaults(0.5, 1), 0);
    }

    /// The decided closed form is where the integrated sweep's bounded
    /// run from `(0.5, 0.5)` ends, at one `m` of each Fig. 6 regime.
    #[test]
    fn settle_matches_the_decided_ess() {
        for m in [5, 14, 30, 70] {
            let params = DosGameParams::paper_defaults(0.8, m);
            let (point, kind) = decide(&params.into_game());
            let (settled, settled_kind, _) = integrated_ess(params);
            assert_eq!((settled, settled_kind), (point, kind), "m={m}");
        }
    }

    #[test]
    fn optimum_grows_with_estimated_attack_level() {
        let low = solve_posture_permille(600, 50);
        let high = solve_posture_permille(900, 50);
        assert!(low.m < high.m, "m*(0.6)={} m*(0.9)={}", low.m, high.m);
        assert!(!low.give_up() && !high.give_up());
    }

    #[test]
    fn near_jamming_attack_gives_up() {
        // p = 0.99: every posture saturates at cost R_a — the §V "turns
        // to give up" regime — and the solver says so.
        let posture = solve_posture_permille(990, 50);
        assert!(posture.give_up(), "{posture:?}");
        assert!((posture.cost - 200.0).abs() < 1.0, "{}", posture.cost);
    }

    #[test]
    fn all_forged_estimate_gives_up() {
        // 1000‰ is a legal estimate (every buffered entry forged) but
        // not a legal game: it is solved at 999‰.
        let posture = solve_posture_permille(1000, 50);
        assert!(posture.give_up(), "{posture:?}");
        assert_eq!(posture, solve_posture_permille(999, 50));
    }

    #[test]
    fn clean_traffic_wants_minimum_buffers() {
        let posture = solve_posture_permille(0, 50);
        assert_eq!(posture.m, 1, "{posture:?}");
        assert!(!posture.give_up());
    }

    #[test]
    fn solver_is_deterministic() {
        let a = solve_posture_permille(800, 50);
        let b = solve_posture_permille(800, 50);
        assert_eq!(a, b);
    }

    /// The decision is total: every estimate the control plane can feed
    /// it solves at every cap.
    #[test]
    fn every_estimate_solves_at_every_cap() {
        for cap in 1..=100 {
            for p_permille in 0..=1000 {
                let best = solve_posture_permille(p_permille, cap);
                assert!((1..=cap).contains(&best.m), "{p_permille}‰ cap {cap}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn rejects_out_of_range_estimate() {
        let _ = solve_posture_permille(1001, 50);
    }
}
