//! The live game-driven **control plane**: measured evidence in,
//! posture directives out.
//!
//! §V of the paper solves for the optimal buffer count `m*` *given* the
//! forged fraction `p` — but a deployed receiver is never told `p`; it
//! must estimate it from what it can observe. This module closes that
//! loop:
//!
//! 1. **Estimate** — reservoir sampling is uniform over an interval's
//!    burst, so the forged share among *buffered* entries (counted at
//!    reveal time, when the disclosed key separates genuine μMACs from
//!    spurious ones) is an unbiased estimate of the wire's `p`. The
//!    estimator folds each interval's sample into an integer EWMA
//!    (parts-per-million, truncating division) — no floats, so two
//!    same-seed runs agree bit-for-bit.
//! 2. **Solve** — when the estimate drifts past a hysteresis band, the
//!    plane re-runs Algorithm 3 online ([`dap_game::solve_posture_permille`]:
//!    no allocation, each `m`'s ESS in closed form) at the current `p̂`.
//! 3. **Actuate** — a changed optimum becomes a [`PostureDirective`]
//!    the driver broadcasts via [`PoolHandle::post_posture`]; every
//!    shard re-sizes its reservoirs at its next window boundary and the
//!    pool narrates the transition as [`TraceEvent::PostureChange`].
//!
//! The whole loop is synchronous with the driver's interval clock:
//! evidence is read *after* a quiesce, the directive is posted *before*
//! the next interval's traffic, so the feedback edge never races the
//! workers and determinism survives.
//!
//! [`PoolHandle::post_posture`]: crate::pool::PoolHandle::post_posture
//! [`TraceEvent::PostureChange`]: dap_obs::TraceEvent::PostureChange

use dap_core::PostureDirective;
use dap_game::solve_posture_permille;
use dap_simnet::{keys, Registry};

use crate::pool::LiveCounters;

/// Tuning knobs for the [`ControlPlane`]. The default tracks the
/// paper's economy (cap `M = 50`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlConfig {
    /// Largest buffer count Algorithm 3 may select (the paper's `M`).
    pub cap: u32,
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self { cap: 50 }
    }
}

/// EWMA smoothing as a right-shift: each sample moves the estimate by
/// `(sample − p̂) / 2^EWMA_SHIFT`. Shift 5 ≈ a 32-interval time constant
/// — long enough to average out per-interval sampling noise
/// (`σ ≈ √(p(1−p)/m)` per interval), short enough to track a ramping
/// attacker within a campaign.
const EWMA_SHIFT: u32 = 5;

/// Dead-band in permille: Algorithm 3 re-runs only when `p̂` has moved
/// at least this far (1%) from the last solved point. Keeps the
/// estimator's dither on a noisy-but-stationary wire from flipping the
/// posture back and forth.
const HYSTERESIS_PERMILLE: u32 = 10;

/// Parts-per-million per permille — the estimator's internal resolution.
const PPM_PER_PERMILLE: i64 = 1000;

/// The online estimator + solver + actuator. One instance per campaign,
/// stepped by the driver at every interval boundary.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    config: ControlConfig,
    /// `p̂` in parts-per-million; `None` until the first sample (the
    /// first sample seeds the EWMA verbatim rather than decaying from
    /// an arbitrary prior).
    p_hat_ppm: Option<i64>,
    /// Cumulative evidence already folded in (the live counters are
    /// monotone; the plane differences them per step).
    seen_decided: u64,
    seen_forged: u64,
    /// The `p̂` (permille) Algorithm 3 last ran at.
    last_solved_permille: Option<u32>,
    /// The currently commanded posture (effective buffers, give-up).
    buffers: u32,
    give_up: bool,
    epoch: u64,
    samples: u64,
    solves: u64,
    directives: u64,
    /// The most recent raw evidence sample (ppm), before smoothing —
    /// what a [`dap_obs::TraceEvent::ControlEstimate`] narrates next to
    /// the smoothed `p̂`.
    last_sample_ppm: u64,
}

impl ControlPlane {
    /// A control plane over a pool bootstrapped with
    /// `bootstrap_buffers` reservoirs per interval.
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap_buffers` is zero.
    #[must_use]
    pub fn new(bootstrap_buffers: u32, config: ControlConfig) -> Self {
        assert!(bootstrap_buffers >= 1, "a receiver needs a buffer");
        Self {
            config,
            p_hat_ppm: None,
            seen_decided: 0,
            seen_forged: 0,
            last_solved_permille: None,
            buffers: bootstrap_buffers,
            give_up: false,
            epoch: 0,
            samples: 0,
            solves: 0,
            directives: 0,
            last_sample_ppm: 0,
        }
    }

    /// The current estimate `p̂` in permille (0 before any evidence).
    #[must_use]
    pub fn p_hat_permille(&self) -> u32 {
        self.p_hat_ppm.map_or(0, Self::ppm_to_permille)
    }

    /// The currently commanded buffer count `m`.
    #[must_use]
    pub fn buffers(&self) -> u32 {
        self.buffers
    }

    /// Whether the commanded posture is the §V give-up regime.
    #[must_use]
    pub fn give_up(&self) -> bool {
        self.give_up
    }

    /// Directives issued so far.
    #[must_use]
    pub fn directives(&self) -> u64 {
        self.directives
    }

    /// Evidence samples folded into the estimator so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The current posture epoch (0 until the first directive).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The smoothed estimate `p̂` in parts-per-million (0 before any
    /// evidence; clamped to the probability range).
    #[must_use]
    pub fn estimate_ppm(&self) -> u64 {
        self.p_hat_ppm
            .map_or(0, |ppm| ppm.clamp(0, 1_000_000) as u64)
    }

    /// The last raw evidence sample in parts-per-million (0 before any
    /// evidence).
    #[must_use]
    pub fn last_sample_ppm(&self) -> u64 {
        self.last_sample_ppm
    }

    /// One control-loop step against the pool's live counters. Call
    /// after [`PoolHandle::quiesce`] at an interval boundary so the
    /// evidence is a settled function of the pushed sequence.
    ///
    /// [`PoolHandle::quiesce`]: crate::pool::PoolHandle::quiesce
    pub fn step(&mut self, live: &LiveCounters) -> Option<PostureDirective> {
        self.step_evidence(live.buffered_decided(), live.buffered_forged())
    }

    /// [`ControlPlane::step`] on explicit cumulative evidence counters
    /// (monotone: buffered reveals decided, of which forged).
    ///
    /// # Panics
    ///
    /// Panics if a counter went backwards or `forged > decided` — both
    /// impossible for counters produced by the pool.
    pub fn step_evidence(&mut self, decided: u64, forged: u64) -> Option<PostureDirective> {
        assert!(
            decided >= self.seen_decided && forged >= self.seen_forged,
            "evidence counters are monotone"
        );
        let d_decided = decided - self.seen_decided;
        let d_forged = forged - self.seen_forged;
        assert!(d_forged <= d_decided, "forged evidence exceeds decided");
        self.seen_decided = decided;
        self.seen_forged = forged;
        if d_decided == 0 {
            // A quiet interval carries no information about `p`: hold.
            return None;
        }
        let sample_ppm = (d_forged as i64 * 1_000_000) / d_decided as i64;
        self.samples += 1;
        self.last_sample_ppm = sample_ppm as u64;
        let p_hat = match self.p_hat_ppm {
            None => sample_ppm,
            Some(h) => h + (sample_ppm - h) / (1i64 << EWMA_SHIFT),
        };
        self.p_hat_ppm = Some(p_hat);
        let p_permille = Self::ppm_to_permille(p_hat);
        let moved = self
            .last_solved_permille
            .map_or(u32::MAX, |prev| prev.abs_diff(p_permille));
        if moved < HYSTERESIS_PERMILLE {
            return None;
        }
        self.last_solved_permille = Some(p_permille);
        self.solves += 1;
        let posture = solve_posture_permille(p_permille, self.config.cap);
        let give_up = posture.give_up();
        let effective = if give_up { 1 } else { posture.m.max(1) };
        if effective == self.buffers && give_up == self.give_up {
            return None;
        }
        self.buffers = effective;
        self.give_up = give_up;
        self.epoch += 1;
        self.directives += 1;
        Some(PostureDirective {
            epoch: self.epoch,
            buffers: effective,
            give_up,
            p_permille,
        })
    }

    /// Folds the plane's state into a report registry under the
    /// `control.*` keys.
    pub fn publish(&self, registry: &mut Registry) {
        registry.add(keys::CONTROL_SAMPLES, self.samples);
        registry.add(keys::CONTROL_P_PERMILLE, u64::from(self.p_hat_permille()));
        registry.add(keys::CONTROL_SOLVES, self.solves);
        registry.add(keys::CONTROL_DIRECTIVES, self.directives);
        registry.add(keys::CONTROL_M, u64::from(self.buffers));
        registry.add(keys::CONTROL_GIVE_UP, u64::from(self.give_up));
        self.publish_gauges(registry);
    }

    /// Folds just the live-state gauges (`control.gauge.*`: p̂ ppm,
    /// posture epoch, commanded `m`) into a registry — what the drivers
    /// push into the telemetry endpoint's control slot mid-run, so a
    /// Prometheus scrape sees the plane's current posture between
    /// directives.
    pub fn publish_gauges(&self, registry: &mut Registry) {
        registry
            .gauge(keys::CONTROL_GAUGE_P_HAT_PPM)
            .set(self.estimate_ppm());
        registry.gauge(keys::CONTROL_GAUGE_EPOCH).set(self.epoch);
        registry
            .gauge(keys::CONTROL_GAUGE_M)
            .set(u64::from(self.buffers));
    }

    /// Rounds parts-per-million to the nearest permille, clamped to the
    /// probability range.
    fn ppm_to_permille(ppm: i64) -> u32 {
        let clamped = ppm.clamp(0, 1_000_000);
        u32::try_from((clamped + PPM_PER_PERMILLE / 2) / PPM_PER_PERMILLE)
            .expect("clamped to [0, 1000]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_game::{optimal_buffer_count, DosGameParams};
    use dap_simnet::SimRng;

    /// Feeds `intervals` of synthetic evidence at forged fraction `p`
    /// (deterministic rounding, `decided_per_interval` buffered
    /// decisions each) and returns the plane.
    fn run_synthetic(plane: &mut ControlPlane, p_permille: u64, intervals: u64, per: u64) {
        let mut decided = plane.seen_decided;
        let mut forged = plane.seen_forged;
        for _ in 0..intervals {
            decided += per;
            forged += per * p_permille / 1000;
            plane.step_evidence(decided, forged);
        }
    }

    #[test]
    fn estimate_stays_in_probability_range_under_arbitrary_evidence() {
        let mut plane = ControlPlane::new(4, ControlConfig::default());
        let mut rng = SimRng::new(0xC0DE);
        let (mut decided, mut forged) = (0u64, 0u64);
        for _ in 0..500 {
            let d = rng.below(40);
            let f = if d == 0 { 0 } else { rng.below(d + 1) };
            decided += d;
            forged += f;
            plane.step_evidence(decided, forged);
            assert!(plane.p_hat_permille() <= 1000);
            assert!(plane.buffers() >= 1 && plane.buffers() <= 50);
        }
    }

    #[test]
    fn estimator_tracks_the_signal_monotonically() {
        let mut plane = ControlPlane::new(4, ControlConfig::default());
        run_synthetic(&mut plane, 900, 64, 100);
        let high = plane.p_hat_permille();
        assert!(high > 800, "all-hostile wire must read high, got {high}");
        run_synthetic(&mut plane, 0, 256, 100);
        let low = plane.p_hat_permille();
        assert!(low < 100, "clean wire must decay the estimate, got {low}");
        assert!(low < high);
    }

    #[test]
    fn same_evidence_streams_yield_identical_directive_trajectories() {
        let mut rng = SimRng::new(2016);
        let mut stream = Vec::new();
        let (mut decided, mut forged) = (0u64, 0u64);
        for _ in 0..200 {
            let d = 50 + rng.below(50);
            let f = rng.below(d + 1);
            decided += d;
            forged += f;
            stream.push((decided, forged));
        }
        let mut a = ControlPlane::new(4, ControlConfig::default());
        let mut b = ControlPlane::new(4, ControlConfig::default());
        let da: Vec<_> = stream.iter().map(|&(d, f)| a.step_evidence(d, f)).collect();
        let db: Vec<_> = stream.iter().map(|&(d, f)| b.step_evidence(d, f)).collect();
        assert_eq!(da, db);
        assert_eq!(a.p_hat_permille(), b.p_hat_permille());
        assert!(da.iter().flatten().count() >= 1, "stream must actuate");
    }

    #[test]
    fn clean_wire_from_minimal_posture_issues_no_directives() {
        let mut plane = ControlPlane::new(1, ControlConfig::default());
        run_synthetic(&mut plane, 0, 300, 100);
        assert_eq!(plane.directives(), 0, "clean run must not flip posture");
        assert_eq!(plane.buffers(), 1);
        assert!(!plane.give_up());
    }

    #[test]
    fn quiet_intervals_hold_the_estimate() {
        let mut plane = ControlPlane::new(4, ControlConfig::default());
        run_synthetic(&mut plane, 500, 64, 100);
        let before = plane.p_hat_permille();
        let samples = plane.samples();
        // No new evidence: counters unchanged across 50 steps.
        for _ in 0..50 {
            assert_eq!(
                plane.step_evidence(plane.seen_decided, plane.seen_forged),
                None
            );
        }
        assert_eq!(plane.p_hat_permille(), before);
        assert_eq!(plane.samples(), samples);
    }

    #[test]
    fn ramp_converges_to_the_offline_optimum() {
        let mut plane = ControlPlane::new(2, ControlConfig::default());
        // p ramps 0.1 → 0.9 over 120 intervals, then holds at 0.9.
        let (mut decided, mut forged) = (0u64, 0u64);
        for i in 0..120u64 {
            let p = 100 + (900 - 100) * i / 119;
            decided += 200;
            forged += 200 * p / 1000;
            plane.step_evidence(decided, forged);
        }
        run_synthetic(&mut plane, 900, 200, 200);
        let offline = optimal_buffer_count(DosGameParams::paper_defaults(0.9, 1), 50);
        assert!(
            plane.buffers().abs_diff(offline.m) <= 1,
            "converged m {} vs offline m* {}",
            plane.buffers(),
            offline.m
        );
        assert!(plane.directives() >= 1);
    }

    #[test]
    fn all_forged_first_sample_commands_the_give_up_posture() {
        // The first sample loads verbatim, so one interval whose
        // reservoir kept only forged copies reads p̂ = 1000‰.
        let mut plane = ControlPlane::new(2, ControlConfig::default());
        let directive = plane.step_evidence(2, 2).expect("posture changes");
        assert_eq!(directive.p_permille, 1000);
        assert!(directive.give_up, "{directive:?}");
        assert_eq!(directive.buffers, 1);
    }

    #[test]
    fn saturation_flood_commands_the_give_up_posture() {
        let mut plane = ControlPlane::new(4, ControlConfig::default());
        run_synthetic(&mut plane, 998, 400, 500);
        assert!(plane.give_up(), "p̂ ≈ 1 must trip §V give-up");
        assert_eq!(plane.buffers(), 1, "give-up falls back to one buffer");
    }
}
