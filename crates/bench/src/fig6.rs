//! Fig. 6 — the evolution process of the evolutionary game.
//!
//! §VI-B settings: `R_a = 200`, `k1 = 20`, `k2 = 4`, `p = x_a = 0.8`,
//! starting point `(X, Y) = (0.5, 0.5)`, Euler step `t = 0.01`. The paper
//! reports four regimes by buffer count `m`:
//!
//! | `m` | ESS | convergence |
//! |---|---|---|
//! | 1–11   | `(1, 1)`   | fast (few steps) |
//! | 12–17  | `(1, Y′)`  | X fast, Y slow (~100 steps) |
//! | 18–54  | `(X*, Y*)` | spiral (~200 steps) |
//! | 55–100 | `(X′, 1)`  | fast |
//!
//! The labels and the regime map here are [`decide`]'s; the trajectories
//! and step counts come from the paper's Euler run. The middle bands
//! land at 12–16 and 17–54, one `m` below the paper's, which is one past
//! its own printed formulas (EXPERIMENTS.md).

use dap_game::dynamics::evolve;
use dap_game::ess::{decide, EssKind};
use dap_game::{DosGameParams, PopulationState};

/// The paper's attack level for this figure.
pub const P: f64 = 0.8;

/// One trajectory sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Euler step number.
    pub step: usize,
    /// Defender fraction.
    pub x: f64,
    /// Attacker fraction.
    pub y: f64,
}

/// A full panel of Fig. 6: the trajectory for one `m`.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    /// Buffer count.
    pub m: u32,
    /// Downsampled trajectory from `(0.5, 0.5)`.
    pub samples: Vec<Sample>,
    /// The decided ESS.
    pub point: PopulationState,
    /// Its shape.
    pub kind: EssKind,
    /// Euler steps until the per-step displacement fell below the
    /// convergence tolerance, or `None` when the run hit its step limit.
    pub steps: Option<usize>,
}

/// Computes one panel, keeping at most `max_samples` trajectory points.
#[must_use]
pub fn panel(m: u32, max_samples: usize) -> Panel {
    let game = DosGameParams::paper_defaults(P, m).into_game();
    let trajectory = evolve(&game, PopulationState::CENTER, 2_000_000);
    let states = trajectory.states();
    let stride = (states.len() / max_samples.max(1)).max(1);
    let mut samples: Vec<Sample> = states
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(step, s)| Sample {
            step,
            x: s.x(),
            y: s.y(),
        })
        .collect();
    let last = states.len() - 1;
    if samples.last().map(|s| s.step) != Some(last) {
        samples.push(Sample {
            step: last,
            x: states[last].x(),
            y: states[last].y(),
        });
    }
    let (point, kind) = decide(&game);
    Panel {
        m,
        samples,
        point,
        kind,
        steps: trajectory.converged_at(),
    }
}

/// The paper's four representative panels (one per regime).
#[must_use]
pub fn paper_panels() -> Vec<Panel> {
    [5, 14, 30, 70].into_iter().map(|m| panel(m, 40)).collect()
}

/// The regime map: the decided ESS kind for every `m` in `1..=max_m`.
#[must_use]
pub fn regime_map(max_m: u32) -> Vec<(u32, EssKind)> {
    (1..=max_m)
        .map(|m| {
            let game = DosGameParams::paper_defaults(P, m).into_game();
            (m, decide(&game).1)
        })
        .collect()
}

/// Collapses a regime map into contiguous `(from, to, kind)` ranges.
#[must_use]
pub fn collapse_ranges(map: &[(u32, EssKind)]) -> Vec<(u32, u32, EssKind)> {
    let mut out: Vec<(u32, u32, EssKind)> = Vec::new();
    for &(m, kind) in map {
        match out.last_mut() {
            Some((_, to, k)) if *k == kind && *to + 1 == m => *to = m,
            _ => out.push((m, m, kind)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_cover_all_four_regimes() {
        let kinds: Vec<EssKind> = paper_panels().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EssKind::FullDefenseFullAttack,
                EssKind::FullDefensePartialAttack,
                EssKind::Interior,
                EssKind::PartialDefenseFullAttack,
            ]
        );
    }

    #[test]
    fn trajectories_start_at_center() {
        for p in paper_panels() {
            let first = p.samples.first().unwrap();
            assert_eq!(first.step, 0);
            assert_eq!((first.x, first.y), (0.5, 0.5));
        }
    }

    #[test]
    fn trajectories_end_at_the_ess() {
        for p in paper_panels() {
            let last = p.samples.last().unwrap();
            assert!(
                (last.x - p.point.x()).abs() < 2e-2 && (last.y - p.point.y()).abs() < 2e-2,
                "m={}: trajectory end ({}, {}) vs ESS {}",
                p.m,
                last.x,
                last.y,
                p.point
            );
        }
    }

    /// The paper prints 12–17 and 18–54 for the middle bands, one `m`
    /// past its own formulas: at m = 17, `R_a·Y′·(1−p^m) = 55.0` is below
    /// `k2·m = 68`, so `(1, Y′)` repels and the interior takes over.
    #[test]
    fn regime_map_matches_paper_bands() {
        assert_eq!(
            collapse_ranges(&regime_map(100)),
            vec![
                (1, 11, EssKind::FullDefenseFullAttack),
                (12, 16, EssKind::FullDefensePartialAttack),
                (17, 54, EssKind::Interior),
                (55, 100, EssKind::PartialDefenseFullAttack),
            ]
        );
    }

    #[test]
    fn collapse_ranges_handles_gaps() {
        use EssKind::Interior as I;
        let map = vec![(1, I), (2, I), (4, I)];
        let r = collapse_ranges(&map);
        assert_eq!(r, vec![(1, 2, I), (4, 4, I)]);
    }
}
