//! The attacker/defender **evolutionary game** of Ruan et al. (ICDCS 2016).
//!
//! DAP's DoS resistance comes from multi-buffer selection, but buffers cost
//! memory. §V of the paper models the trade-off as a two-population
//! evolutionary game:
//!
//! * **defenders** (network nodes) play *buffer selection* or *no buffers*;
//!   `X` is the fraction defending;
//! * **attackers** play *DoS attack* or *no attack*; `Y` is the fraction
//!   attacking.
//!
//! Payoffs (Table II) are driven by the attack success probability
//! `P = p^m`, the data value `R_a = L_d`, the attack cost `C_a = k1·x_a·Y`
//! and the defense cost `C_d = k2·m·X`. Populations follow **replicator
//! dynamics** and settle at an **evolutionarily stable strategy (ESS)**;
//! the optimal buffer count `m*` minimises the defenders' average cost `E`
//! at the ESS (Algorithm 3).
//!
//! Module map:
//!
//! * [`state`] — the population state `(X, Y) ∈ [0,1]²`;
//! * [`payoff`] — Table II and the closed-form expected utilities;
//! * [`dynamics`] — the [`TwoPopulationGame`] trait, replicator field,
//!   the [`Integrator`]s Euler (the paper's) and RK4, trajectories,
//!   convergence;
//! * [`ess`] — the paper's five ESS candidates and [`ess::decide`], which
//!   names the stable one in closed form, exactly;
//! * [`cost`] — the defender cost `E` and the naive-defense cost `N`;
//! * [`optimize`] — Algorithm 3 (optimal `m`) as one allocation-free
//!   sweep over each `m`'s decided ESS: the exact argmin and its cost
//!   landscape, the paper-literal transcription, and the control-loop
//!   step the live `dap-net` control plane re-runs.
//!
//! # Example — reproduce a Fig. 6 regime
//!
//! ```
//! use dap_game::{DosGameParams, PopulationState, ess::{decide, EssKind}};
//!
//! // m = 5 with the paper's economy lands in the (1,1) regime:
//! // everyone defends, everyone attacks.
//! let game = DosGameParams::paper_defaults(0.8, 5).into_game();
//! let (point, kind) = decide(&game);
//! assert_eq!(kind, EssKind::FullDefenseFullAttack);
//! assert_eq!(point, PopulationState::new(1.0, 1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod bimatrix;
pub mod cost;
pub mod dynamics;
pub mod ess;
pub mod optimize;
#[cfg(test)]
mod oracle;
pub mod payoff;
pub mod state;

pub use dynamics::{
    EulerIntegrator, Integrator, ReplicatorField, Rk4Integrator, Trajectory, TwoPopulationGame,
};
pub use ess::EssKind;
pub use optimize::{optimal_buffer_count, solve_posture_permille, OptimalBuffer};
pub use payoff::{DosGame, DosGameParams, PayoffMatrix};
pub use state::PopulationState;
