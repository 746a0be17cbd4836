//! Replicator dynamics for two-population games.
//!
//! For a defender population with strategies {defend, don't} at mix `X`
//! and an attacker population with {attack, don't} at mix `Y`, the
//! standard two-population replicator equations reduce to
//!
//! ```text
//! dX/dt = X(1−X)·[E(U_d)(X,Y) − E(U_nd)(X,Y)]
//! dY/dt = Y(1−Y)·[E(U_a)(X,Y) − E(U_na)(X,Y)]
//! ```
//!
//! which for the DoS game expands to exactly the expressions in §V-D of
//! the paper. The machinery here is generic over [`TwoPopulationGame`] so
//! it also integrates textbook games (used in the tests to sanity-check
//! the integrators).

use crate::state::PopulationState;

/// A two-population game with two strategies per side: supplies the four
/// expected strategy pay-offs as functions of the population state.
///
/// Pay-offs may depend on the state itself (the DoS game's costs are
/// congestion-coupled), which strictly generalises constant bimatrix
/// games.
pub trait TwoPopulationGame {
    /// Expected pay-off of a defender playing *defend* (`E(U_d)`).
    fn payoff_defend(&self, state: PopulationState) -> f64;
    /// Expected pay-off of a defender playing *don't defend* (`E(U_nd)`).
    fn payoff_no_defend(&self, state: PopulationState) -> f64;
    /// Expected pay-off of an attacker playing *attack* (`E(U_a)`).
    fn payoff_attack(&self, state: PopulationState) -> f64;
    /// Expected pay-off of an attacker playing *don't attack* (`E(U_na)`).
    fn payoff_no_attack(&self, state: PopulationState) -> f64;

    /// Population-average defender pay-off `E(d)`.
    fn mean_defender_payoff(&self, state: PopulationState) -> f64 {
        state.x() * self.payoff_defend(state) + (1.0 - state.x()) * self.payoff_no_defend(state)
    }

    /// Population-average attacker pay-off `E(a)`.
    fn mean_attacker_payoff(&self, state: PopulationState) -> f64 {
        state.y() * self.payoff_attack(state) + (1.0 - state.y()) * self.payoff_no_attack(state)
    }
}

/// The replicator vector field of a game.
#[derive(Debug, Clone, Copy)]
pub struct ReplicatorField<'g, G> {
    game: &'g G,
}

impl<'g, G: TwoPopulationGame> ReplicatorField<'g, G> {
    /// Wraps a game.
    #[must_use]
    pub fn new(game: &'g G) -> Self {
        Self { game }
    }

    /// `(dX/dt, dY/dt)` at `state`.
    #[must_use]
    pub fn derivative(&self, state: PopulationState) -> (f64, f64) {
        let adv_d = self.game.payoff_defend(state) - self.game.payoff_no_defend(state);
        let adv_a = self.game.payoff_attack(state) - self.game.payoff_no_attack(state);
        (
            state.x() * (1.0 - state.x()) * adv_d,
            state.y() * (1.0 - state.y()) * adv_a,
        )
    }
}

/// How far inside the unit square interior trajectories are kept.
///
/// A plain clamp to `[0, 1]` makes the boundary *absorbing*: a coarse
/// Euler step that overshoots `Y = 1` would freeze there even when that
/// edge is unstable, because the `Y(1−Y)` factor vanishes. The continuous
/// replicator flow never reaches the boundary in finite time, so we
/// mirror the paper's "adjustment ... to keep `0 < X ≤ 1`" by clamping
/// interior states to `[ε, 1−ε]` — close enough to the edge to count as
/// converged there, far enough to escape when the edge repels. States
/// that *start* exactly on the boundary stay there (pure populations are
/// genuine fixed points).
pub const BOUNDARY_GUARD: f64 = 1e-6;

fn guarded(previous: f64, next: f64) -> f64 {
    if previous == 0.0 || previous == 1.0 {
        // Boundary states are invariant under replication.
        previous
    } else {
        next.clamp(BOUNDARY_GUARD, 1.0 - BOUNDARY_GUARD)
    }
}

/// A replicator integrator: the paper's [`EulerIntegrator`] or
/// [`Rk4Integrator`]. Both keep interior states inside the
/// [`BOUNDARY_GUARD`].
pub trait Integrator {
    /// One update step.
    #[must_use]
    fn step<G: TwoPopulationGame>(&self, game: &G, state: PopulationState) -> PopulationState;
}

/// The paper's integrator: explicit Euler with the update
/// `X ← X + (dX/dt)·t`, `t = 0.01`, guarded at the boundary (see
/// [`BOUNDARY_GUARD`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EulerIntegrator {
    /// Step size `t`.
    pub dt: f64,
}

impl EulerIntegrator {
    /// The paper's step size, `t = 0.01`.
    pub const PAPER_DT: f64 = 0.01;

    /// An integrator with the paper's step size.
    #[must_use]
    pub fn paper() -> Self {
        Self { dt: Self::PAPER_DT }
    }
}

impl Integrator for EulerIntegrator {
    fn step<G: TwoPopulationGame>(&self, game: &G, state: PopulationState) -> PopulationState {
        let (dx, dy) = ReplicatorField::new(game).derivative(state);
        PopulationState::clamped(
            guarded(state.x(), state.x() + dx * self.dt),
            guarded(state.y(), state.y() + dy * self.dt),
        )
    }
}

impl Default for EulerIntegrator {
    fn default() -> Self {
        Self::paper()
    }
}

/// Classic fourth-order Runge-Kutta, for checking that results are not an
/// artefact of the paper's coarse Euler scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rk4Integrator {
    /// Step size.
    pub dt: f64,
}

impl Integrator for Rk4Integrator {
    fn step<G: TwoPopulationGame>(&self, game: &G, state: PopulationState) -> PopulationState {
        let field = ReplicatorField::new(game);
        let f = |s: PopulationState| field.derivative(s);
        let at = |s: PopulationState, k: (f64, f64), scale: f64| {
            PopulationState::clamped(s.x() + k.0 * scale, s.y() + k.1 * scale)
        };
        let k1 = f(state);
        let k2 = f(at(state, k1, self.dt / 2.0));
        let k3 = f(at(state, k2, self.dt / 2.0));
        let k4 = f(at(state, k3, self.dt));
        PopulationState::clamped(
            guarded(
                state.x(),
                state.x() + self.dt / 6.0 * (k1.0 + 2.0 * k2.0 + 2.0 * k3.0 + k4.0),
            ),
            guarded(
                state.y(),
                state.y() + self.dt / 6.0 * (k1.1 + 2.0 * k2.1 + 2.0 * k3.1 + k4.1),
            ),
        )
    }
}

/// A recorded evolution run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    states: Vec<PopulationState>,
    converged_at: Option<usize>,
}

impl Trajectory {
    /// All states, starting with the initial one.
    #[must_use]
    pub fn states(&self) -> &[PopulationState] {
        &self.states
    }

    /// The last state reached.
    #[must_use]
    pub fn last(&self) -> PopulationState {
        *self.states.last().expect("trajectory has an initial state")
    }

    /// The step at which the run converged (per-step displacement fell
    /// below the tolerance), or `None` if it ran out of steps first.
    #[must_use]
    pub fn converged_at(&self) -> Option<usize> {
        self.converged_at
    }

    /// Number of update steps taken.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.states.len() - 1
    }
}

/// Default per-step displacement below which a run counts as converged.
pub const CONVERGENCE_TOL: f64 = 1e-9;

/// Evolves `game` from `initial` with the paper's Euler scheme for at
/// most `max_steps` steps, stopping early once the per-step displacement
/// drops below [`CONVERGENCE_TOL`], and records every state.
#[must_use]
pub fn evolve<G: TwoPopulationGame>(
    game: &G,
    initial: PopulationState,
    max_steps: usize,
) -> Trajectory {
    let mut states = Vec::with_capacity(max_steps.min(4096) + 1);
    states.push(initial);
    let (_, converged_at) = settle(
        game,
        initial,
        max_steps,
        EulerIntegrator::paper(),
        CONVERGENCE_TOL,
        |state| states.push(state),
    );
    Trajectory {
        states,
        converged_at,
    }
}

/// Integrates `game` from `initial` for at most `max_steps` steps of
/// `integrator`, stopping once a step moves less than `tol`, and hands
/// each new state to `visit`. Returns the state the run ends in and the
/// step it converged at (`None` when it hit `max_steps`). It keeps no
/// state itself, so a run whose `visit` keeps none either (`|_| ()`)
/// takes constant memory.
pub fn settle<G: TwoPopulationGame>(
    game: &G,
    initial: PopulationState,
    max_steps: usize,
    integrator: impl Integrator,
    tol: f64,
    mut visit: impl FnMut(PopulationState),
) -> (PopulationState, Option<usize>) {
    let mut current = initial;
    for step in 1..=max_steps {
        let next = integrator.step(game, current);
        let moved = next.distance(&current);
        visit(next);
        current = next;
        if moved < tol {
            return (current, Some(step));
        }
    }
    (current, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bimatrix::Bimatrix;
    use crate::oracle::exact_jacobian;
    use crate::payoff::DosGameParams;

    /// Both sides strictly prefer the first strategy: dynamics must reach
    /// (1,1) from anywhere inside.
    #[test]
    fn dominant_strategy_game_converges_to_corner() {
        let g = Bimatrix {
            d: [[2.0, 2.0], [1.0, 1.0]],
            a: [[3.0, 0.0], [3.0, 0.0]],
        };
        let t = evolve(&g, PopulationState::CENTER, 100_000);
        assert!(t.last().distance(&PopulationState::new(1.0, 1.0)) < 1e-3);
        assert!(t.converged_at().is_some());
    }

    /// Matching pennies has a unique interior equilibrium at (0.5, 0.5);
    /// replicator dynamics orbit it without converging, so the field at
    /// the center must vanish and short runs must stay near the center.
    #[test]
    fn matching_pennies_center_is_stationary() {
        let g = Bimatrix::matching_pennies();
        let field = ReplicatorField::new(&g);
        let (dx, dy) = field.derivative(PopulationState::CENTER);
        assert!(dx.abs() < 1e-12 && dy.abs() < 1e-12);
        let t = evolve(&g, PopulationState::new(0.6, 0.5), 1000);
        // Orbit: must neither converge nor collapse to a corner.
        assert!(t.converged_at().is_none());
        assert!(!t.last().on_boundary());
    }

    /// A pure coordination game: both pure profiles are strict
    /// equilibria, and the start decides which one the dynamics reach.
    #[test]
    fn coordination_game_basins_split() {
        let g = Bimatrix {
            d: [[2.0, 0.0], [0.0, 1.0]],
            a: [[2.0, 0.0], [0.0, 1.0]],
        };
        let hi = evolve(&g, PopulationState::new(0.8, 0.8), 100_000).last();
        assert!(hi.x() > 0.999 && hi.y() > 0.999, "{hi}");
        let lo = evolve(&g, PopulationState::new(0.2, 0.2), 100_000).last();
        assert!(lo.x() < 0.001 && lo.y() < 0.001, "{lo}");
    }

    #[test]
    fn paper_replicator_expressions_match_field() {
        // dX/dt = X(1−X)[R_a·Y·(1−p^m) − k2·m·X]
        // dY/dt = Y(1−Y)[(p^m−1)·X·R_a + R_a − k1·x_a·Y]
        let game = DosGameParams::paper_defaults(0.8, 20).into_game();
        let field = ReplicatorField::new(&game);
        let pm = 0.8f64.powi(20);
        for &(x, y) in &[(0.3, 0.7), (0.5, 0.5), (0.9, 0.2), (0.05, 0.95)] {
            let s = PopulationState::new(x, y);
            let (dx, dy) = field.derivative(s);
            let want_dx = x * (1.0 - x) * (200.0 * y * (1.0 - pm) - 4.0 * 20.0 * x);
            let want_dy = y * (1.0 - y) * ((pm - 1.0) * x * 200.0 + 200.0 - 20.0 * 0.8 * y);
            assert!(
                (dx - want_dx).abs() < 1e-9,
                "dX at ({x},{y}): {dx} vs {want_dx}"
            );
            assert!(
                (dy - want_dy).abs() < 1e-9,
                "dY at ({x},{y}): {dy} vs {want_dy}"
            );
        }
    }

    #[test]
    fn corners_are_fixed_points() {
        let game = DosGameParams::paper_defaults(0.8, 20).into_game();
        let field = ReplicatorField::new(&game);
        for &(x, y) in &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let (dx, dy) = field.derivative(PopulationState::new(x, y));
            assert_eq!((dx, dy), (0.0, 0.0), "corner ({x},{y})");
        }
    }

    #[test]
    fn euler_respects_unit_square() {
        let game = DosGameParams::paper_defaults(0.8, 5).into_game();
        let mut s = PopulationState::new(0.99, 0.99);
        let euler = EulerIntegrator { dt: 0.5 }; // deliberately huge step
        for _ in 0..100 {
            s = euler.step(&game, s);
            assert!((0.0..=1.0).contains(&s.x()));
            assert!((0.0..=1.0).contains(&s.y()));
        }
    }

    #[test]
    fn rk4_and_euler_agree_on_smooth_run() {
        let game = DosGameParams::paper_defaults(0.8, 30).into_game();
        let euler = EulerIntegrator { dt: 0.001 };
        let rk4 = Rk4Integrator { dt: 0.001 };
        let mut a = PopulationState::CENTER;
        let mut b = PopulationState::CENTER;
        for _ in 0..5000 {
            a = euler.step(&game, a);
            b = rk4.step(&game, b);
        }
        assert!(a.distance(&b) < 1e-2, "euler {a} vs rk4 {b}");
    }

    /// The exact Jacobian the decision is checked against agrees with
    /// central differences of the field at interior points.
    #[test]
    fn jacobian_matches_analytic_form() {
        let h = 1e-6;
        for (p, m) in [(0.8, 20), (0.3, 3), (0.95, 45)] {
            let game = DosGameParams::paper_defaults(p, m).into_game();
            let field = ReplicatorField::new(&game);
            for &(x, y) in &[(0.4, 0.6), (0.1, 0.9), (0.7, 0.2)] {
                let jac = exact_jacobian(&game, PopulationState::new(x, y));
                let at = |x, y| field.derivative(PopulationState::new(x, y));
                let (xp, xm) = (at(x + h, y), at(x - h, y));
                let (yp, ym) = (at(x, y + h), at(x, y - h));
                let numeric = [
                    [(xp.0 - xm.0) / (2.0 * h), (yp.0 - ym.0) / (2.0 * h)],
                    [(xp.1 - xm.1) / (2.0 * h), (yp.1 - ym.1) / (2.0 * h)],
                ];
                for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    assert!(
                        (jac[i][j].0 - numeric[i][j]).abs() < 1e-5,
                        "p={p} m={m} ({x}, {y}) [{i}][{j}]: {} vs {}",
                        jac[i][j].0,
                        numeric[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn trajectory_records_initial_state() {
        let game = DosGameParams::paper_defaults(0.8, 20).into_game();
        let t = evolve(&game, PopulationState::CENTER, 10);
        assert_eq!(t.states()[0], PopulationState::CENTER);
        assert_eq!(t.steps(), 10);
    }

    /// `settle` ends where the recorded run ends, including runs that
    /// hit the step bound: (p, m) = (0.1, 2) and (0.98, 1) need more
    /// than 100k steps.
    #[test]
    fn settle_ends_where_evolve_ends() {
        const MAX_STEPS: usize = 100_000;
        let cases = [
            (0.8, 5, false),
            (0.8, 14, false),
            (0.8, 30, false),
            (0.8, 70, false),
            (0.1, 2, true),
            (0.98, 1, true),
        ];
        for (p, m, bounded) in cases {
            let game = DosGameParams::paper_defaults(p, m).into_game();
            let recorded = evolve(&game, PopulationState::CENTER, MAX_STEPS);
            let (state, converged) = settle(
                &game,
                PopulationState::CENTER,
                MAX_STEPS,
                EulerIntegrator::paper(),
                CONVERGENCE_TOL,
                |_| (),
            );
            assert_eq!(state, recorded.last(), "p={p} m={m}");
            assert_eq!(converged, recorded.converged_at(), "p={p} m={m}");
            assert_eq!(converged.is_none(), bounded, "p={p} m={m}");
        }
    }

    #[test]
    fn mean_payoffs_are_population_averages() {
        let game = DosGameParams::paper_defaults(0.8, 10).into_game();
        let s = PopulationState::new(0.25, 0.75);
        let want_d = 0.25 * game.payoff_defend(s) + 0.75 * game.payoff_no_defend(s);
        let want_a = 0.75 * game.payoff_attack(s) + 0.25 * game.payoff_no_attack(s);
        assert!((game.mean_defender_payoff(s) - want_d).abs() < 1e-12);
        assert!((game.mean_attacker_payoff(s) - want_a).abs() < 1e-12);
    }
}
