//! Fig. 7 — the optimised number of buffers `m*` at different levels of
//! DoS attack.
//!
//! For each attack level `p`, Algorithm 3 takes the game's ESS for every
//! `m ∈ 1..=M` (`M = 50`) and reports the cost-minimising choice. Three
//! columns are printed (see EXPERIMENTS.md for the discussion):
//!
//! * the exact argmin `m*` with its ESS and cost;
//! * the paper-literal Algorithm-3 transcription (last-descent rule);
//! * the saturation flag: once the ESS at the argmin is `(X′, 1)` the
//!   defender cost equals `R_a` for *every* `m` — the paper's
//!   `p > 0.94` "give up / pin m = M" regime.

use dap_game::ess::EssKind;
use dap_game::optimize::{optimal_buffer_count, optimal_buffer_count_paper_literal};
use dap_game::DosGameParams;

/// The hardware cap from §VI-B-1 (≤ ~50 buffers per node).
pub const BUFFER_CAP: u32 = 50;

/// One point of the Fig.-7 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Point {
    /// Attack level `p`.
    pub p: f64,
    /// Cost-argmin buffer count.
    pub m_star: u32,
    /// ESS kind at `m*`.
    pub kind: EssKind,
    /// Defender cost at the ESS.
    pub cost: f64,
    /// Algorithm 3 exactly as printed (last-descent rule).
    pub m_literal: u32,
    /// `true` when the defense has saturated (cost `≈ R_a` regardless of
    /// `m`; the paper pins `m = M` here).
    pub saturated: bool,
}

/// Computes one sweep point.
#[must_use]
pub fn point(p: f64) -> Fig7Point {
    let params = DosGameParams::paper_defaults(p, 1);
    let opt = optimal_buffer_count(params, BUFFER_CAP);
    let literal = optimal_buffer_count_paper_literal(params, BUFFER_CAP);
    Fig7Point {
        p,
        m_star: opt.m,
        kind: opt.kind,
        cost: opt.cost,
        m_literal: literal,
        saturated: opt.give_up(),
    }
}

/// The default sweep (the paper plots roughly `p ∈ [0.5, 1)`).
#[must_use]
pub fn default_sweep() -> Vec<f64> {
    (10..=19)
        .map(|i| f64::from(i) * 0.05)
        .chain([0.96, 0.97, 0.98, 0.99])
        .collect()
}

/// Computes the whole sweep, in parallel.
#[must_use]
pub fn sweep(ps: &[f64]) -> Vec<Fig7Point> {
    std::thread::scope(|s| {
        let handles: Vec<_> = ps.iter().map(|&p| s.spawn(move || point(p))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_game::optimize::cost_landscape;

    #[test]
    fn optimum_monotone_in_moderate_band() {
        let pts = sweep(&[0.5, 0.65, 0.8, 0.9]);
        for w in pts.windows(2) {
            assert!(
                w[0].m_star <= w[1].m_star,
                "m*({}) = {} > m*({}) = {}",
                w[0].p,
                w[0].m_star,
                w[1].p,
                w[1].m_star
            );
        }
    }

    /// Algorithm 3's output over the default sweep, pinned: a changed
    /// step budget, tie rule or candidate order shows up here.
    #[test]
    fn default_sweep_is_pinned() {
        let pts = sweep(&default_sweep());
        let m_star: Vec<u32> = pts.iter().map(|pt| pt.m_star).collect();
        assert_eq!(m_star, [5, 6, 7, 8, 9, 10, 13, 13, 16, 18, 17, 14, 1, 1]);
        let literal: Vec<u32> = pts.iter().map(|pt| pt.m_literal).collect();
        assert_eq!(literal, [5, 6, 7, 8, 9, 10, 13, 16, 16, 47, 47, 47, 1, 1]);
        // (1, Y′) up to p = 0.80, (1, 1) from 0.85 to 0.98, (X′, 1) at 0.99.
        let kinds: Vec<EssKind> = pts.iter().map(|pt| pt.kind).collect();
        let want: Vec<EssKind> = [EssKind::FullDefensePartialAttack; 7]
            .into_iter()
            .chain([EssKind::FullDefenseFullAttack; 6])
            .chain([EssKind::PartialDefenseFullAttack])
            .collect();
        assert_eq!(kinds, want);
    }

    #[test]
    fn heavy_attack_saturates() {
        let pt = point(0.99);
        assert!(pt.saturated, "{pt:?}");
        assert!((pt.cost - 200.0).abs() < 2.0, "{pt:?}");
    }

    #[test]
    fn moderate_attack_not_saturated() {
        let pt = point(0.8);
        assert!(!pt.saturated, "{pt:?}");
        assert!(pt.cost < 100.0, "{pt:?}");
    }

    #[test]
    fn literal_never_beats_argmin() {
        for pt in sweep(&[0.6, 0.8, 0.95]) {
            let params = DosGameParams::paper_defaults(pt.p, 1);
            let literal_cost = cost_landscape(params, BUFFER_CAP)
                .iter()
                .find(|c| c.0 == pt.m_literal)
                .map(|c| c.1)
                .unwrap();
            assert!(pt.cost <= literal_cost + 1e-9, "{pt:?}");
        }
    }
}
