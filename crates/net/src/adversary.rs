//! Adaptive adversary suite for the fleet wire (DESIGN §11).
//!
//! PR 4's [`Flooder`](crate::pump::Flooder) models the paper's §V
//! adversary: a memoryless Bernoulli source spending bandwidth share `p`
//! on forged announces every interval. Real crowdsensing deployments
//! face smarter attackers, so this module adds four classes beyond it —
//! QRES-style adversaries that shape *when*, *as whom* and *how hard*
//! they flood:
//!
//! - **burst-at-reanchor**: silent through steady state, then saturates
//!   the re-anchor/readmission windows where evicted senders rebuild
//!   trust, spending the banked quiet-period bandwidth all at once;
//! - **collusion**: the share `p` split across many spoofed sender ids —
//!   half real (to pollute their reservoirs and churn their sessions),
//!   half fabricated (to burn directory lookups) — so no single id looks
//!   hot enough to throttle;
//! - **replay-at-the-edge**: captures genuine frames and replays them
//!   one disclosure delay later, exactly when their keys disclose —
//!   every replayed byte is authentic-looking wire traffic that the
//!   safe-packet test must reject and the drain budget must pay for;
//! - **adaptive**: observes defender posture between intervals (buffer
//!   size `m`, shed counters after a [`PoolHandle::quiesce`]) and
//!   escalates its bandwidth share while the defender absorbs it,
//!   backing off once sheds show the queue is cutting it.
//!
//! An [`AdversaryPlan`] is pure state: it decides *what to emit*, while
//! the campaign driver owns the transport and RNG that materialise the
//! forged bytes. That keeps every class deterministic — same seed, same
//! posture sequence, same attack — which is what lets ci.sh diff two
//! burst-at-reanchor runs byte for byte.
//!
//! [`PoolHandle::quiesce`]: crate::pool::PoolHandle::quiesce

use std::collections::BTreeSet;
use std::str::FromStr;
use std::sync::Arc;

use dap_core::SenderId;
use dap_simnet::FloodIntensity;

/// Captured frames older than the replay horizon are discarded; a
/// per-interval cap bounds the attacker's own memory (and ours).
const MAX_CAPTURED_PER_INTERVAL: usize = 16_384;

/// Which adversary strategy a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdversaryClass {
    /// The paper's §V flooder: bandwidth share `p` of forged announces
    /// against every sender, every interval (PR 4 behavior, unchanged).
    #[default]
    Bernoulli,
    /// Quiet until a re-anchor window (every `REANCHOR_PERIOD`-th
    /// interval), then a saturating burst of the banked bandwidth
    /// against every unpinned sender.
    BurstReanchor,
    /// The share split round-robin across spoofed ids: every unpinned
    /// real sender plus as many fabricated ids, attacking reservoirs
    /// and the session table at once.
    Collusion,
    /// Replays captured genuine frames one disclosure delay later — at
    /// the edge where their keys disclose.
    ReplayEdge,
    /// Starts gentle, watches posture (buffers `m`, shed rate) between
    /// intervals, and escalates toward the cap while nothing is shed.
    Adaptive,
    /// Plays by the rules for [`FARM_INTERVALS`] intervals — its
    /// controlled ids authenticate every reveal, pumping their EWMA
    /// scores into the `High` priority class — then turns: the farmed
    /// ids stop revealing (their genuine traffic is suppressed) and
    /// flood at the cap instead, spending the earned reputation to jump
    /// the priority drain ahead of honest `Low` traffic.
    ReputationFarming,
}

impl AdversaryClass {
    /// Stable lowercase label (CLI value, report rows).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdversaryClass::Bernoulli => "bernoulli",
            AdversaryClass::BurstReanchor => "burst-reanchor",
            AdversaryClass::Collusion => "collusion",
            AdversaryClass::ReplayEdge => "replay-edge",
            AdversaryClass::Adaptive => "adaptive",
            AdversaryClass::ReputationFarming => "reputation-farming",
        }
    }

    /// Whether a flood ramp ([`AdversaryPlan::ramped`]) applies: only
    /// the Bernoulli flooder follows one; the other classes shape their
    /// own share.
    #[must_use]
    pub fn ramps(self) -> bool {
        self == AdversaryClass::Bernoulli
    }

    /// Every class, in report order.
    pub const ALL: [AdversaryClass; 6] = [
        AdversaryClass::Bernoulli,
        AdversaryClass::BurstReanchor,
        AdversaryClass::Collusion,
        AdversaryClass::ReplayEdge,
        AdversaryClass::Adaptive,
        AdversaryClass::ReputationFarming,
    ];
}

impl FromStr for AdversaryClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bernoulli" => Ok(AdversaryClass::Bernoulli),
            "burst-reanchor" => Ok(AdversaryClass::BurstReanchor),
            "collusion" => Ok(AdversaryClass::Collusion),
            "replay-edge" => Ok(AdversaryClass::ReplayEdge),
            "adaptive" => Ok(AdversaryClass::Adaptive),
            "reputation-farming" => Ok(AdversaryClass::ReputationFarming),
            other => Err(format!(
                "unknown adversary class {other:?} (expected bernoulli, \
                 burst-reanchor, collusion, replay-edge, adaptive or \
                 reputation-farming)"
            )),
        }
    }
}

/// Intervals between burst windows for [`AdversaryClass::BurstReanchor`]:
/// the attacker banks bandwidth for `REANCHOR_PERIOD − 1` quiet
/// intervals, then spends it all in one.
pub const REANCHOR_PERIOD: u64 = 4;

/// Intervals [`AdversaryClass::ReputationFarming`] behaves honestly
/// before turning. Four clean reveals lift a session's EWMA score from
/// the 500-permille seed well past the `High` threshold, so the turn
/// happens with reputation fully banked.
pub const FARM_INTERVALS: u64 = 4;

/// What the adaptive class sees of the defender between intervals.
/// Everything here is deterministic after a pool quiesce, so observing
/// it cannot leak scheduler timing into the attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostureView {
    /// Reservoir buffers per interval (the paper's `m`).
    pub buffers: usize,
    /// Per-shard, per-window verify budget (`usize::MAX` = unwindowed).
    pub drain_budget: usize,
    /// Frames the priority drain has shed so far, all classes.
    pub shed_frames: u64,
    /// Frames ingested so far (the shed-rate denominator).
    pub ingress_frames: u64,
    /// Epoch of the newest control-plane posture directive (0 while the
    /// defense is static) — visible because a real attacker watching
    /// loss patterns can detect re-sizes too.
    pub posture_epoch: u64,
    /// Buffers the newest directive commanded; 0 while static, in which
    /// case [`buffers`] is the live truth.
    ///
    /// [`buffers`]: PostureView::buffers
    pub live_buffers: u64,
    /// Whether the defense announced the §V give-up posture.
    pub give_up: bool,
}

impl PostureView {
    /// The reservoir buffers actually in force: the newest directive's
    /// `m` when the control plane has spoken, the static bootstrap
    /// value otherwise.
    #[must_use]
    pub fn effective_buffers(&self) -> usize {
        if self.live_buffers > 0 {
            usize::try_from(self.live_buffers).unwrap_or(usize::MAX)
        } else {
            self.buffers
        }
    }
}

/// One standalone emission the campaign driver materialises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversaryEmit {
    /// Forge a fresh announce as `victim` for `interval` (random MAC —
    /// the driver's flooder RNG supplies the bytes).
    Forge {
        /// The spoofed sender id.
        victim: SenderId,
        /// The claimed interval.
        interval: u64,
    },
    /// Replay captured wire bytes verbatim.
    Replay(Vec<u8>),
}

/// Deterministic per-campaign adversary state. See the module docs for
/// the class semantics; construction fixes the roster (which ids exist,
/// which are pinned) so every decision is a pure function of
/// `(class, interval, observed posture)`.
#[derive(Debug, Clone)]
pub struct AdversaryPlan {
    class: AdversaryClass,
    /// Bandwidth cap as a [`FloodIntensity`] (the `--flood p` the
    /// campaign was asked for).
    cap: FloodIntensity,
    share_cap: f64,
    /// The Bernoulli flooder's share once its ramp plateaus — the cap
    /// itself on a stationary wire (see [`AdversaryPlan::ramped`]).
    share_end: f64,
    /// Intervals the ramp spends climbing from the cap to `share_end`.
    ramp_intervals: u64,
    /// Authentic copies each sender pumps per interval (the flood
    /// arithmetic's `authentic` operand).
    copies: u64,
    /// Real unpinned sender ids, ascending — the spoof victims for the
    /// targeted classes.
    unpinned: Vec<u64>,
    /// Collusion roster: unpinned real ids interleaved with fabricated
    /// ones, walked round-robin across intervals.
    colluders: Vec<u64>,
    /// Reputation-farming roster: every second unpinned id, so the
    /// report contrasts farmed-then-turned ids against honest ones.
    farmed: Vec<u64>,
    cursor: usize,
    /// Captured `(sent_interval, bytes)` pairs for replay.
    captured: Vec<(u64, Vec<u8>)>,
    adaptive_share: f64,
    adaptive: FloodIntensity,
    last_shed: u64,
    escalations: u64,
}

impl AdversaryPlan {
    /// A plan for `class` at bandwidth cap `p`, against a fleet of ids
    /// `1..=senders` each pumping `copies` authentic announce copies per
    /// interval, with `pins` operator-pinned.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)` (a share of 1 would mean
    /// infinite forged copies).
    #[must_use]
    pub fn new(
        class: AdversaryClass,
        p: f64,
        copies: u64,
        senders: u64,
        pins: &Arc<BTreeSet<u64>>,
    ) -> Self {
        assert!((0.0..1.0).contains(&p), "bandwidth share must be in [0,1)");
        let unpinned: Vec<u64> = (1..=senders).filter(|id| !pins.contains(id)).collect();
        // Fabricated ids live past the real roster, so the directory
        // refuses them — they attack lookup cost and queue budget, not
        // reservoirs.
        let colluders: Vec<u64> = unpinned
            .iter()
            .enumerate()
            .flat_map(|(slot, id)| [*id, senders + 1 + slot as u64])
            .collect();
        let farmed: Vec<u64> = unpinned.iter().copied().step_by(2).collect();
        let start_share = if p < 0.3 { p } else { 0.3 };
        Self {
            class,
            cap: FloodIntensity::of_bandwidth(p),
            share_cap: p,
            share_end: p,
            ramp_intervals: 1,
            copies,
            unpinned,
            colluders,
            farmed,
            cursor: 0,
            captured: Vec::new(),
            adaptive_share: start_share,
            adaptive: FloodIntensity::of_bandwidth(start_share),
            last_shed: 0,
            escalations: 0,
        }
    }

    /// This plan with the Bernoulli flooder's share ramped linearly from
    /// the cap `p` at interval 1 to `p_end` across the first half of an
    /// `intervals`-long campaign, then held at `p_end`.
    ///
    /// # Panics
    ///
    /// Panics if the class does not [ramp](AdversaryClass::ramps) or
    /// `p_end` is outside `[0, 1)`.
    #[must_use]
    pub fn ramped(self, p_end: f64, intervals: u64) -> Self {
        assert!(
            self.class.ramps(),
            "a flood ramp drives the Bernoulli flooder only"
        );
        assert!(
            (0.0..1.0).contains(&p_end),
            "bandwidth share must be in [0,1)"
        );
        Self {
            share_end: p_end,
            ramp_intervals: (intervals / 2).max(1),
            ..self
        }
    }

    /// The class this plan runs.
    #[must_use]
    pub fn class(&self) -> AdversaryClass {
        self.class
    }

    /// The bandwidth share currently in play (the cap for the static
    /// classes — a ramped plan's starting share — and the escalated
    /// share for adaptive).
    #[must_use]
    pub fn share(&self) -> f64 {
        match self.class {
            AdversaryClass::Adaptive => self.adaptive_share,
            _ => self.share_cap,
        }
    }

    /// Whether the class reads [`PostureView`] in
    /// [`AdversaryPlan::observe`]. Only then must a driver settle each
    /// interval boundary before observing, so the view is a function
    /// of the traffic and not of worker scheduling.
    #[must_use]
    pub fn reads_posture(&self) -> bool {
        self.class == AdversaryClass::Adaptive
    }

    /// How many times the adaptive class has escalated so far.
    #[must_use]
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Forged copies to interleave with `victim`'s genuine traffic this
    /// interval — the per-sender spoof stream (classes that attack via
    /// standalone emissions return 0 here).
    #[must_use]
    pub fn spoof_copies(&self, victim: SenderId, interval: u64) -> u64 {
        match self.class {
            // Indiscriminate: every sender, pinned or not, sees share p
            // of forged traffic — the paper's §V flooder, at the ramp's
            // share for this interval.
            AdversaryClass::Bernoulli => {
                let t = (interval.saturating_sub(1) as f64 / self.ramp_intervals as f64).min(1.0);
                let share = self.share_cap + (self.share_end - self.share_cap) * t;
                FloodIntensity::of_bandwidth(share).forged_copies(self.copies)
            }
            AdversaryClass::Adaptive if self.unpinned.contains(&victim.0) => {
                self.adaptive.forged_copies(self.copies)
            }
            // Post-turn, the farmed ids' whole bandwidth is forged —
            // their genuine stream is suppressed, the flood rides the
            // `High` class their farming earned.
            AdversaryClass::ReputationFarming if self.suppresses(victim, interval) => {
                self.cap.forged_copies(self.copies)
            }
            _ => 0,
        }
    }

    /// Whether the adversary controls `victim` and has turned it by
    /// `interval` — the campaign driver consults this to withhold the
    /// sender's genuine announce/reveal stream (a turned device stops
    /// cooperating; only its spoofed flood remains). Always `false`
    /// outside the reputation-farming class and during the farm phase.
    #[must_use]
    pub fn suppresses(&self, victim: SenderId, interval: u64) -> bool {
        self.class == AdversaryClass::ReputationFarming
            && interval > FARM_INTERVALS
            && self.farmed.binary_search(&victim.0).is_ok()
    }

    /// Records one genuine frame the adversary overheard on the wire
    /// during `interval`. Only the replay class keeps anything.
    pub fn tap(&mut self, interval: u64, bytes: &[u8]) {
        if self.class != AdversaryClass::ReplayEdge {
            return;
        }
        // Horizon: only the previous interval is ever replayed, so two
        // intervals of history suffice.
        self.captured
            .retain(|(sent, _)| sent + 1 >= interval.max(1));
        let this_interval = self
            .captured
            .iter()
            .filter(|(sent, _)| *sent == interval)
            .count();
        if this_interval < MAX_CAPTURED_PER_INTERVAL {
            self.captured.push((interval, bytes.to_vec()));
        }
    }

    /// Lets the adversary see defender posture after the previous
    /// interval fully drained (call between a quiesce and the next
    /// interval's traffic). Only the adaptive class reacts: while the
    /// defender sheds nothing the share steps up toward the cap, and
    /// once sheds appear it backs off — the attacker side of the
    /// replicator dynamic, played greedily. Under an adaptive defense
    /// the view carries the control plane's own moves
    /// ([`PostureView::live_buffers`], [`PostureView::give_up`]), so
    /// the attacker re-derives its worth-playing floor from the buffers
    /// *actually in force* — and a defender that gives up invites the
    /// full cap at once: flooding a surrendered node is free.
    pub fn observe(&mut self, posture: &PostureView) {
        if !self.reads_posture() {
            return;
        }
        let shed_delta = posture.shed_frames.saturating_sub(self.last_shed);
        self.last_shed = posture.shed_frames;
        if posture.give_up {
            if self.adaptive_share < self.share_cap {
                self.adaptive_share = self.share_cap;
                self.escalations += 1;
            }
            self.adaptive = FloodIntensity::of_bandwidth(self.adaptive_share);
            return;
        }
        if shed_delta == 0 {
            // The posture names the floor worth playing: `m` reservoir
            // buffers soak m forged offers against `copies` genuine
            // ones, so shares below m/(m+copies) are wasted bandwidth.
            let m = posture.effective_buffers() as f64;
            let floor = m / (m + self.copies as f64);
            let next = (self.adaptive_share + 0.1).max(floor).min(self.share_cap);
            if next > self.adaptive_share {
                self.adaptive_share = next;
                self.escalations += 1;
            }
        } else {
            let next = (self.adaptive_share - 0.05).max(0.1).min(self.share_cap);
            if next < self.adaptive_share {
                self.adaptive_share = next;
            }
        }
        self.adaptive = FloodIntensity::of_bandwidth(self.adaptive_share);
    }

    /// The standalone emissions for `interval` (empty for the
    /// per-sender-stream classes). The driver materialises them in
    /// order, after the interval's genuine traffic.
    #[must_use]
    pub fn standalone(&mut self, interval: u64) -> Vec<AdversaryEmit> {
        match self.class {
            AdversaryClass::Bernoulli
            | AdversaryClass::Adaptive
            | AdversaryClass::ReputationFarming => Vec::new(),
            AdversaryClass::BurstReanchor => {
                if interval == 0 || !interval.is_multiple_of(REANCHOR_PERIOD) {
                    return Vec::new();
                }
                // The banked quiet-period bandwidth, spent at once:
                // `period × forged_copies` per unpinned victim, ids
                // interleaved so every shard saturates together.
                let per_victim = self.cap.forged_copies(self.copies) * REANCHOR_PERIOD;
                let mut emits = Vec::with_capacity(per_victim as usize * self.unpinned.len());
                for _ in 0..per_victim {
                    for id in &self.unpinned {
                        emits.push(AdversaryEmit::Forge {
                            victim: SenderId(*id),
                            interval,
                        });
                    }
                }
                emits
            }
            AdversaryClass::Collusion => {
                // Aggregate budget equal to the bernoulli spend on the
                // unpinned population, walked round-robin over the
                // colluding roster so the spoof pressure rotates.
                let budget = self.cap.forged_copies(self.copies) * self.unpinned.len() as u64;
                let mut emits = Vec::with_capacity(budget as usize);
                if self.colluders.is_empty() {
                    return emits;
                }
                for _ in 0..budget {
                    let id = self.colluders[self.cursor % self.colluders.len()];
                    self.cursor = (self.cursor + 1) % self.colluders.len();
                    emits.push(AdversaryEmit::Forge {
                        victim: SenderId(id),
                        interval,
                    });
                }
                emits
            }
            AdversaryClass::ReplayEdge => {
                if interval == 0 {
                    return Vec::new();
                }
                // Frames sent during interval i−1 replayed during i:
                // announces for i−1 hit the safe-packet test exactly at
                // the disclosure edge, reveals burn verify budget as
                // duplicates. Amplified to reach the bandwidth share.
                let amp = if self.share_cap >= 1.0 {
                    1
                } else {
                    ((self.share_cap / (1.0 - self.share_cap)).round() as u64).max(1)
                };
                let edge: Vec<&Vec<u8>> = self
                    .captured
                    .iter()
                    .filter(|(sent, _)| *sent == interval - 1)
                    .map(|(_, bytes)| bytes)
                    .collect();
                let mut emits = Vec::with_capacity(edge.len() * amp as usize);
                for _ in 0..amp {
                    for bytes in &edge {
                        emits.push(AdversaryEmit::Replay((*bytes).clone()));
                    }
                }
                emits
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pins(ids: &[u64]) -> Arc<BTreeSet<u64>> {
        Arc::new(ids.iter().copied().collect())
    }

    #[test]
    fn class_labels_round_trip_from_str() {
        for class in AdversaryClass::ALL {
            assert_eq!(class.label().parse::<AdversaryClass>().unwrap(), class);
        }
        assert!("flood".parse::<AdversaryClass>().is_err());
    }

    #[test]
    fn bernoulli_matches_the_flood_intensity_arithmetic() {
        let plan = AdversaryPlan::new(AdversaryClass::Bernoulli, 0.9, 4, 8, &pins(&[1]));
        // p=0.9, 4 authentic → 36 forged, pinned or not.
        assert_eq!(plan.spoof_copies(SenderId(1), 3), 36);
        assert_eq!(plan.spoof_copies(SenderId(5), 3), 36);
        // Ramped 0.5 → 0.9 over an 8-interval campaign's first four
        // intervals: 4 forged, then 9 at share 0.7, then 36 held.
        let plan =
            AdversaryPlan::new(AdversaryClass::Bernoulli, 0.5, 4, 1, &pins(&[])).ramped(0.9, 8);
        assert_eq!(plan.spoof_copies(SenderId(1), 1), 4);
        assert_eq!(plan.spoof_copies(SenderId(1), 3), 9);
        assert_eq!(plan.spoof_copies(SenderId(1), 5), 36);
        assert_eq!(plan.spoof_copies(SenderId(1), 8), 36);
    }

    #[test]
    #[should_panic(expected = "Bernoulli flooder only")]
    fn only_the_bernoulli_flooder_ramps() {
        let _ =
            AdversaryPlan::new(AdversaryClass::Collusion, 0.5, 4, 4, &pins(&[])).ramped(0.9, 10);
    }

    #[test]
    fn burst_is_quiet_off_window_and_conserves_average_share() {
        let mut plan = AdversaryPlan::new(AdversaryClass::BurstReanchor, 0.8, 5, 3, &pins(&[1]));
        assert_eq!(plan.spoof_copies(SenderId(2), 1), 0);
        for i in 1..REANCHOR_PERIOD {
            assert!(plan.standalone(i).is_empty(), "interval {i} must be quiet");
        }
        let burst = plan.standalone(REANCHOR_PERIOD);
        // 2 unpinned victims × forged_copies(5)=20 × period 4.
        assert_eq!(burst.len(), 2 * 20 * REANCHOR_PERIOD as usize);
        // Only unpinned ids are spoofed.
        for emit in &burst {
            let AdversaryEmit::Forge { victim, .. } = emit else {
                panic!("burst emits forges");
            };
            assert_ne!(victim.0, 1, "pinned id spoofed");
        }
    }

    #[test]
    fn collusion_rotates_over_real_and_fabricated_ids() {
        let mut plan = AdversaryPlan::new(AdversaryClass::Collusion, 0.5, 4, 4, &pins(&[4]));
        let emits = plan.standalone(1);
        // 3 unpinned × forged_copies(4)=4 at p=0.5.
        assert_eq!(emits.len(), 12);
        let victims: BTreeSet<u64> = emits
            .iter()
            .map(|e| match e {
                AdversaryEmit::Forge { victim, .. } => victim.0,
                AdversaryEmit::Replay(_) => panic!("collusion forges"),
            })
            .collect();
        assert!(victims.contains(&1), "real unpinned ids spoofed");
        assert!(victims.iter().any(|id| *id > 4), "fabricated ids spoofed");
        assert!(!victims.contains(&4), "pinned id never spoofed");
        // The rotation continues across intervals instead of restarting.
        let again = plan.standalone(2);
        assert_ne!(emits[0], again[0]);
    }

    #[test]
    fn replay_edge_replays_the_previous_interval_amplified() {
        let mut plan = AdversaryPlan::new(AdversaryClass::ReplayEdge, 0.75, 4, 4, &pins(&[]));
        plan.tap(1, b"frame-a");
        plan.tap(1, b"frame-b");
        assert!(plan.standalone(1).is_empty(), "nothing captured for i=0");
        let emits = plan.standalone(2);
        // amp = round(0.75/0.25) = 3 → each of the 2 frames 3×.
        assert_eq!(emits.len(), 6);
        assert_eq!(emits[0], AdversaryEmit::Replay(b"frame-a".to_vec()));
        // Two intervals on, the capture horizon has moved past them.
        plan.tap(3, b"frame-c");
        let later = plan.standalone(4);
        assert!(later
            .iter()
            .all(|e| *e == AdversaryEmit::Replay(b"frame-c".to_vec())));
    }

    #[test]
    fn adaptive_escalates_while_unshed_and_backs_off_after_sheds() {
        let mut plan = AdversaryPlan::new(AdversaryClass::Adaptive, 0.9, 4, 8, &pins(&[1]));
        assert!((plan.share() - 0.3).abs() < 1e-9);
        let mut posture = PostureView {
            buffers: 4,
            drain_budget: usize::MAX,
            shed_frames: 0,
            ingress_frames: 0,
            posture_epoch: 0,
            live_buffers: 0,
            give_up: false,
        };
        // No sheds: the first step jumps to the m/(m+copies) floor.
        plan.observe(&posture);
        assert!((plan.share() - 0.5).abs() < 1e-9);
        for _ in 0..8 {
            plan.observe(&posture);
        }
        assert!((plan.share() - 0.9).abs() < 1e-9, "caps at p");
        let escalations = plan.escalations();
        assert!(escalations >= 5);
        // Sheds appear: the share backs off.
        posture.shed_frames = 100;
        plan.observe(&posture);
        assert!(plan.share() < 0.9);
        assert_eq!(plan.escalations(), escalations);
        // Pinned ids are never in the adaptive spoof stream.
        assert_eq!(plan.spoof_copies(SenderId(1), 5), 0);
        assert!(plan.spoof_copies(SenderId(2), 5) > 0);
    }

    #[test]
    fn adaptive_reads_the_control_planes_resize_and_give_up() {
        let mut plan = AdversaryPlan::new(AdversaryClass::Adaptive, 0.9, 4, 8, &pins(&[]));
        // The control plane re-sized to m = 12: the directive, not the
        // static bootstrap m = 2, sets the worth-playing floor 12/16.
        plan.observe(&PostureView {
            buffers: 2,
            drain_budget: usize::MAX,
            shed_frames: 0,
            ingress_frames: 0,
            posture_epoch: 3,
            live_buffers: 12,
            give_up: false,
        });
        assert!((plan.share() - 0.75).abs() < 1e-9, "share {}", plan.share());
        // The defender gives up: the attacker jumps straight to the cap
        // even though sheds would otherwise back it off.
        let mut fresh = AdversaryPlan::new(AdversaryClass::Adaptive, 0.9, 4, 8, &pins(&[]));
        fresh.observe(&PostureView {
            buffers: 2,
            drain_budget: 64,
            shed_frames: 500,
            ingress_frames: 1000,
            posture_epoch: 7,
            live_buffers: 1,
            give_up: true,
        });
        assert!((fresh.share() - 0.9).abs() < 1e-9);
        assert_eq!(fresh.escalations(), 1);
    }

    #[test]
    fn reputation_farmer_is_honest_through_the_farm_then_turns() {
        let plan = AdversaryPlan::new(AdversaryClass::ReputationFarming, 0.9, 4, 6, &pins(&[1]));
        // Farm phase: no spoofing, no suppression — ids authenticate.
        for i in 1..=FARM_INTERVALS {
            for id in 1..=6 {
                assert_eq!(plan.spoof_copies(SenderId(id), i), 0);
                assert!(!plan.suppresses(SenderId(id), i));
            }
            assert!(plan.clone().standalone(i).is_empty());
        }
        // The turn: farmed ids (every second unpinned: 2, 4, 6) flood
        // at the cap and withhold genuine traffic; the rest stay honest
        // and unspoofed; the pinned id is never farmed.
        let turn = FARM_INTERVALS + 1;
        for id in [2u64, 4, 6] {
            assert!(plan.suppresses(SenderId(id), turn));
            assert_eq!(plan.spoof_copies(SenderId(id), turn), 36);
        }
        for id in [1u64, 3, 5] {
            assert!(!plan.suppresses(SenderId(id), turn));
            assert_eq!(plan.spoof_copies(SenderId(id), turn), 0);
        }
    }

    #[test]
    fn same_inputs_same_plan() {
        let mk = || {
            let mut plan =
                AdversaryPlan::new(AdversaryClass::Collusion, 0.8, 4, 16, &pins(&[1, 2]));
            (1..=6).flat_map(|i| plan.standalone(i)).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
