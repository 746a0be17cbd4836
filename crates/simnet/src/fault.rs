//! Deterministic fault injection layered on top of the channel model.
//!
//! A [`FaultPlan`] scripts *when* the medium misbehaves — blackouts,
//! frame corruption, duplication, reorder spikes, sender crashes and
//! time-varying clock drift — while the per-receiver
//! [`ChannelModel`](crate::ChannelModel) keeps describing the
//! *steady-state* channel.
//! The plan carries its own [`SimRng`] stream, so
//!
//! * a plan with no windows perturbs a run **not at all** (bit-identical
//!   to running without a plan), and
//! * two runs with the same network seed and the same plan seed are
//!   bit-identical, faults included.
//!
//! Fault taxonomy (each counted under a `fault.*` metric by the
//! [`Network`](crate::Network)):
//!
//! | fault | window behaviour | metric |
//! |---|---|---|
//! | blackout | every frame sent in `[t0,t1)` is dropped | `fault.blackout_dropped` |
//! | corruption | frame is mangled with probability `p`; an installed corruptor decides whether the result still parses | `fault.corrupted` / `fault.corrupt_dropped` |
//! | duplication | a second physical copy is delivered with probability `p` | `fault.duplicated` |
//! | reorder | delivery gains a random extra latency in `[1, max]` with probability `p` | `fault.reordered` |
//! | crash | the node's radio is off: TX silenced, RX dropped; its timers keep running so it resumes mid-chain | `fault.crash_silenced` / `fault.crash_dropped` |
//! | drift | a node's clock offset follows a piecewise-constant schedule | `fault.drift_shifts` |
//!
//! Crashes model a reboot, not amnesia: the node's state machine (driven
//! by its timers) keeps advancing, so when the window closes a sender
//! resumes broadcasting from the *current* interval of its key chain —
//! exactly the desynchronisation receivers must recover from.
//!
//! Blackouts gate the *send* instant: a frame already in flight when the
//! window opens still lands (the medium swallowed nothing that had
//! already left it).

use crate::network::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A half-open window `[from, until)` of global simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    from: SimTime,
    until: SimTime,
}

impl FaultWindow {
    /// A window covering `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `from > until`.
    #[must_use]
    pub fn new(from: SimTime, until: SimTime) -> Self {
        assert!(
            from <= until,
            "fault window must not end before it starts: [{from}, {until})"
        );
        Self { from, until }
    }

    /// Window start (inclusive).
    #[must_use]
    pub fn from(&self) -> SimTime {
        self.from
    }

    /// Window end (exclusive).
    #[must_use]
    pub fn until(&self) -> SimTime {
        self.until
    }

    /// `true` when `t` falls inside the window.
    #[must_use]
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

impl std::fmt::Display for FaultWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.from, self.until)
    }
}

/// A piecewise-constant clock-offset schedule, generalising the one-shot
/// offsets of [`ClockOffsets`](crate::ClockOffsets): the drift at time
/// `t` is the value of the latest step at or before `t` (zero before the
/// first step).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriftSchedule {
    steps: Vec<(SimTime, i64)>,
}

impl DriftSchedule {
    /// An empty schedule (drift is always zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a step: from `at` onwards the drift is `offset` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not strictly after the previous step.
    #[must_use]
    pub fn step(mut self, at: SimTime, offset: i64) -> Self {
        if let Some(&(last, _)) = self.steps.last() {
            assert!(
                at > last,
                "drift steps must be strictly increasing: {at} after {last}"
            );
        }
        self.steps.push((at, offset));
        self
    }

    /// The drift in effect at time `t`.
    #[must_use]
    pub fn offset_at(&self, t: SimTime) -> i64 {
        self.steps
            .iter()
            .take_while(|(at, _)| *at <= t)
            .last()
            .map_or(0, |(_, offset)| *offset)
    }
}

/// A seeded, schedulable script of fault windows, installed on a
/// [`Network`](crate::Network) via
/// [`set_fault_plan`](crate::Network::set_fault_plan).
///
/// All probabilistic decisions draw from the plan's own RNG stream, so
/// the plan never perturbs the network's channel/loss stream: adding a
/// plan whose windows never fire leaves a run bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rng: SimRng,
    blackouts: Vec<FaultWindow>,
    corruption: Vec<(FaultWindow, f64)>,
    duplication: Vec<(FaultWindow, f64)>,
    reorder: Vec<(FaultWindow, f64, SimDuration)>,
    crashes: Vec<(NodeId, FaultWindow)>,
    drifts: Vec<(NodeId, DriftSchedule)>,
}

fn check_probability(name: &str, p: f64) {
    assert!(
        (0.0..=1.0).contains(&p),
        "{name} probability must be in [0,1], got {p}"
    );
}

impl FaultPlan {
    /// An empty plan driven by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: SimRng::new(seed),
            blackouts: Vec::new(),
            corruption: Vec::new(),
            duplication: Vec::new(),
            reorder: Vec::new(),
            crashes: Vec::new(),
            drifts: Vec::new(),
        }
    }

    /// The seed this plan was built with — print it to make a chaos run
    /// reproducible.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drops every frame *sent* during `window`.
    #[must_use]
    pub fn blackout(mut self, window: FaultWindow) -> Self {
        self.blackouts.push(window);
        self
    }

    /// Corrupts each delivered frame with probability `p` during
    /// `window`. What "corrupt" means is decided by the corruptor
    /// installed with [`set_corruptor`](crate::Network::set_corruptor);
    /// without one, corrupted frames are unparseable and dropped.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`.
    #[must_use]
    pub fn corrupt(mut self, window: FaultWindow, p: f64) -> Self {
        check_probability("corruption", p);
        self.corruption.push((window, p));
        self
    }

    /// Delivers a duplicate physical copy of each frame with probability
    /// `p` during `window`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`.
    #[must_use]
    pub fn duplicate(mut self, window: FaultWindow, p: f64) -> Self {
        check_probability("duplication", p);
        self.duplication.push((window, p));
        self
    }

    /// With probability `p`, adds a uniform extra latency in
    /// `[1, max_extra]` ticks to deliveries during `window` — a reorder
    /// spike relative to unaffected frames.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`, or if `max_extra` is
    /// zero (a zero-tick spike reorders nothing).
    #[must_use]
    pub fn reorder(mut self, window: FaultWindow, p: f64, max_extra: SimDuration) -> Self {
        check_probability("reorder", p);
        assert!(
            max_extra.ticks() > 0,
            "reorder spike must be at least one tick"
        );
        self.reorder.push((window, p, max_extra));
        self
    }

    /// Crashes `node` for the duration of `window`: its broadcasts and
    /// unicasts are silenced and inbound frames are dropped, but its
    /// timers keep firing so it resumes mid-chain when the window closes.
    #[must_use]
    pub fn crash(mut self, node: NodeId, window: FaultWindow) -> Self {
        self.crashes.push((node, window));
        self
    }

    /// Attaches a time-varying clock-drift schedule to `node`, added on
    /// top of the node's static clock offset.
    #[must_use]
    pub fn drift(mut self, node: NodeId, schedule: DriftSchedule) -> Self {
        self.drifts.push((node, schedule));
        self
    }

    /// `true` when some blackout window covers `t`.
    #[must_use]
    pub fn blackout_at(&self, t: SimTime) -> bool {
        self.blackouts.iter().any(|w| w.contains(t))
    }

    /// `true` when `node` is crashed at `t`.
    #[must_use]
    pub fn crashed(&self, node: NodeId, t: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|(n, w)| *n == node && w.contains(t))
    }

    /// The scheduled drift for `node` at `t` (zero when unscheduled).
    #[must_use]
    pub fn drift_at(&self, node: NodeId, t: SimTime) -> i64 {
        self.drifts
            .iter()
            .filter(|(n, _)| *n == node)
            .map(|(_, s)| s.offset_at(t))
            .sum()
    }

    /// Decides whether to corrupt a frame delivered at `t`. Draws from
    /// the plan RNG only inside a corruption window.
    #[must_use = "discarding the decision still advances the fault stream"]
    pub fn corrupt_frame(&mut self, t: SimTime) -> bool {
        match self.corruption.iter().find(|(w, _)| w.contains(t)) {
            Some(&(_, p)) => self.rng.chance(p),
            None => false,
        }
    }

    /// Decides whether to duplicate a frame delivered at `t`.
    #[must_use = "discarding the decision still advances the fault stream"]
    pub fn duplicate_frame(&mut self, t: SimTime) -> bool {
        match self.duplication.iter().find(|(w, _)| w.contains(t)) {
            Some(&(_, p)) => self.rng.chance(p),
            None => false,
        }
    }

    /// Decides whether (and by how much) to delay a frame delivered at
    /// `t` beyond its channel latency.
    #[must_use = "discarding the decision still advances the fault stream"]
    pub fn reorder_extra(&mut self, t: SimTime) -> Option<SimDuration> {
        let &(_, p, max_extra) = self.reorder.iter().find(|(w, _, _)| w.contains(t))?;
        if self.rng.chance(p) {
            Some(SimDuration(1 + self.rng.below(max_extra.ticks())))
        } else {
            None
        }
    }

    /// The latest instant at which any scripted fault is still active —
    /// after this, the plan is inert. `None` for an empty plan.
    #[must_use]
    pub fn quiescent_after(&self) -> Option<SimTime> {
        let mut latest: Option<SimTime> = None;
        let mut push = |t: SimTime| {
            latest = Some(latest.map_or(t, |l| l.max(t)));
        };
        for w in &self.blackouts {
            push(w.until());
        }
        for (w, _) in &self.corruption {
            push(w.until());
        }
        for (w, _) in &self.duplication {
            push(w.until());
        }
        for (w, _, _) in &self.reorder {
            push(w.until());
        }
        for (_, w) in &self.crashes {
            push(w.until());
        }
        // Drift never quiesces on its own (the last step persists), so it
        // does not contribute here; it also never drops or alters frames.
        latest
    }

    /// The plan's RNG — used by the network to drive the installed
    /// corruptor so corruption stays on the fault stream.
    pub(crate) fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(from: u64, until: u64) -> FaultWindow {
        FaultWindow::new(SimTime(from), SimTime(until))
    }

    #[test]
    fn window_is_half_open() {
        let win = w(10, 20);
        assert!(!win.contains(SimTime(9)));
        assert!(win.contains(SimTime(10)));
        assert!(win.contains(SimTime(19)));
        assert!(!win.contains(SimTime(20)));
        assert_eq!(win.from(), SimTime(10));
        assert_eq!(win.until(), SimTime(20));
        assert_eq!(win.to_string(), "[t=10, t=20)");
    }

    #[test]
    #[should_panic(expected = "must not end before it starts")]
    fn inverted_window_panics() {
        let _ = w(20, 10);
    }

    #[test]
    fn drift_schedule_is_piecewise_constant() {
        let s = DriftSchedule::new()
            .step(SimTime(100), 5)
            .step(SimTime(200), -3)
            .step(SimTime(300), 0);
        assert_eq!(s.offset_at(SimTime(0)), 0);
        assert_eq!(s.offset_at(SimTime(99)), 0);
        assert_eq!(s.offset_at(SimTime(100)), 5);
        assert_eq!(s.offset_at(SimTime(199)), 5);
        assert_eq!(s.offset_at(SimTime(200)), -3);
        assert_eq!(s.offset_at(SimTime(1000)), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn drift_steps_must_increase() {
        let _ = DriftSchedule::new()
            .step(SimTime(100), 1)
            .step(SimTime(100), 2);
    }

    #[test]
    fn blackout_and_crash_queries() {
        let plan = FaultPlan::new(7)
            .blackout(w(50, 60))
            .crash(NodeId(2), w(10, 30));
        assert!(plan.blackout_at(SimTime(55)));
        assert!(!plan.blackout_at(SimTime(60)));
        assert!(plan.crashed(NodeId(2), SimTime(10)));
        assert!(!plan.crashed(NodeId(2), SimTime(30)));
        assert!(!plan.crashed(NodeId(1), SimTime(15)));
        assert_eq!(plan.seed(), 7);
    }

    #[test]
    fn probabilistic_faults_only_fire_inside_windows() {
        let mut plan = FaultPlan::new(3)
            .corrupt(w(10, 20), 1.0)
            .duplicate(w(10, 20), 1.0)
            .reorder(w(10, 20), 1.0, SimDuration(4));
        assert!(!plan.corrupt_frame(SimTime(5)));
        assert!(!plan.duplicate_frame(SimTime(25)));
        assert!(plan.reorder_extra(SimTime(5)).is_none());
        assert!(plan.corrupt_frame(SimTime(15)));
        assert!(plan.duplicate_frame(SimTime(15)));
        let extra = plan.reorder_extra(SimTime(15)).unwrap();
        assert!((1..=4).contains(&extra.ticks()), "extra {extra}");
    }

    #[test]
    fn zero_probability_never_fires() {
        let mut plan = FaultPlan::new(3).corrupt(w(0, 100), 0.0);
        for t in 0..100 {
            assert!(!plan.corrupt_frame(SimTime(t)));
        }
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let make = || FaultPlan::new(11).corrupt(w(0, 1000), 0.5);
        let mut a = make();
        let mut b = make();
        for t in 0..200 {
            assert_eq!(a.corrupt_frame(SimTime(t)), b.corrupt_frame(SimTime(t)));
        }
    }

    #[test]
    #[should_panic(expected = "corruption probability must be in [0,1]")]
    fn corrupt_probability_validated() {
        let _ = FaultPlan::new(1).corrupt(w(0, 10), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "duplication probability must be in [0,1]")]
    fn duplicate_probability_validated() {
        let _ = FaultPlan::new(1).duplicate(w(0, 10), 1.1);
    }

    #[test]
    #[should_panic(expected = "reorder probability must be in [0,1]")]
    fn reorder_probability_validated() {
        let _ = FaultPlan::new(1).reorder(w(0, 10), -0.2, SimDuration(5));
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn reorder_spike_must_be_positive() {
        let _ = FaultPlan::new(1).reorder(w(0, 10), 0.5, SimDuration(0));
    }

    #[test]
    fn drift_sums_over_node_schedules() {
        let plan = FaultPlan::new(1)
            .drift(NodeId(0), DriftSchedule::new().step(SimTime(10), 4))
            .drift(NodeId(0), DriftSchedule::new().step(SimTime(20), -1))
            .drift(NodeId(1), DriftSchedule::new().step(SimTime(10), 100));
        assert_eq!(plan.drift_at(NodeId(0), SimTime(5)), 0);
        assert_eq!(plan.drift_at(NodeId(0), SimTime(15)), 4);
        assert_eq!(plan.drift_at(NodeId(0), SimTime(25)), 3);
        assert_eq!(plan.drift_at(NodeId(1), SimTime(15)), 100);
        assert_eq!(plan.drift_at(NodeId(2), SimTime(15)), 0);
    }

    #[test]
    fn quiescent_after_covers_all_windows() {
        assert_eq!(FaultPlan::new(1).quiescent_after(), None);
        let plan = FaultPlan::new(1)
            .blackout(w(10, 20))
            .corrupt(w(5, 80), 0.5)
            .crash(NodeId(0), w(30, 95));
        assert_eq!(plan.quiescent_after(), Some(SimTime(95)));
    }
}
