//! Constant two-population bimatrix games, a test fixture for the
//! replicator machinery in [`crate::dynamics`]: the textbook results
//! (dominance, coordination, matching-pennies cycling) pin it down.

use crate::dynamics::TwoPopulationGame;
use crate::state::PopulationState;

/// A two-population game with constant pay-off matrices.
///
/// Rows index the defender strategies (0 = defend, 1 = don't), columns
/// the attacker strategies (0 = attack, 1 = don't).
pub(crate) struct Bimatrix {
    /// Defender pay-offs: [defend][attack], [defend][no], [no][attack], [no][no].
    pub(crate) d: [[f64; 2]; 2],
    /// Attacker pay-offs, same indexing.
    pub(crate) a: [[f64; 2]; 2],
}

impl Bimatrix {
    /// Matching pennies: zero-sum, with a unique interior equilibrium at
    /// (1/2, 1/2) that replicator dynamics orbit.
    pub(crate) fn matching_pennies() -> Self {
        Self {
            d: [[1.0, -1.0], [-1.0, 1.0]],
            a: [[-1.0, 1.0], [1.0, -1.0]],
        }
    }
}

impl TwoPopulationGame for Bimatrix {
    fn payoff_defend(&self, s: PopulationState) -> f64 {
        s.y() * self.d[0][0] + (1.0 - s.y()) * self.d[0][1]
    }
    fn payoff_no_defend(&self, s: PopulationState) -> f64 {
        s.y() * self.d[1][0] + (1.0 - s.y()) * self.d[1][1]
    }
    fn payoff_attack(&self, s: PopulationState) -> f64 {
        s.x() * self.a[0][0] + (1.0 - s.x()) * self.a[1][0]
    }
    fn payoff_no_attack(&self, s: PopulationState) -> f64 {
        s.x() * self.a[0][1] + (1.0 - s.x()) * self.a[1][1]
    }
}

mod tests {
    use super::*;
    use crate::dynamics::{evolve, ReplicatorField};

    /// The long-run companion of
    /// `dynamics::tests::matching_pennies_center_is_stationary`: over
    /// 20k steps an off-center start neither converges nor collapses.
    #[test]
    fn matching_pennies_center_is_a_fixed_point_that_orbits() {
        let g = Bimatrix::matching_pennies();
        let field = ReplicatorField::new(&g);
        let (dx, dy) = field.derivative(PopulationState::CENTER);
        assert!(dx.abs() < 1e-12 && dy.abs() < 1e-12);
        let t = evolve(&g, PopulationState::new(0.7, 0.5), 20_000);
        let s = t.last();
        assert!(t.converged_at().is_none());
        assert!(s.x() > 0.01 && s.x() < 0.99);
    }
}
