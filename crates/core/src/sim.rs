//! [`dap_simnet`] adapters: run DAP campaigns — sender, receivers with
//! bounded buffers, and a MAC-flooding adversary — inside the
//! discrete-event simulator.
//!
//! The flood model follows the paper: the attacker spends an `x_a = p`
//! fraction of the announcement bandwidth on forged `(MAC, i)` copies for
//! the current interval. Forged *reveals* are pointless (they fail weak
//! authentication), so the rational attacker floods announcements.

use dap_crypto::Mac80;
use dap_simnet::{Context, FloodIntensity, Frame, Node, SimDuration, TimerToken};

use crate::receiver::{AnnounceOutcome, DapReceiver, RevealOutcome};
use crate::sender::{DapBootstrap, DapSender};
use crate::wire::{Announce, DapMessage};

/// Timer used by periodic nodes.
const TICK: TimerToken = TimerToken(0);

/// Broadcasts one announcement per interval (repeated `announce_copies`
/// times for loss resilience) and the corresponding reveal one interval
/// later.
#[derive(Debug)]
pub struct DapSenderNode {
    sender: DapSender,
    interval: u64,
    announce_copies: u32,
    payload: Vec<u8>,
}

impl DapSenderNode {
    /// Creates the node. `announce_copies` models the sender re-sending
    /// its MAC within the interval (the paper's bandwidth-for-MACs knob).
    #[must_use]
    pub fn new(sender: DapSender, announce_copies: u32, payload: Vec<u8>) -> Self {
        Self {
            sender,
            interval: 0,
            announce_copies,
            payload,
        }
    }

    /// The underlying protocol sender.
    #[must_use]
    pub fn sender(&self) -> &DapSender {
        &self.sender
    }
}

impl Node<DapMessage> for DapSenderNode {
    fn on_start(&mut self, ctx: &mut Context<'_, DapMessage>) {
        ctx.set_timer(SimDuration(1), TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DapMessage>, _timer: TimerToken) {
        self.interval += 1;
        // Reveal for the previous interval rides at the start of this one.
        if self.interval > 1 {
            if let Some(reveal) = self.sender.reveal(self.interval - 1) {
                let bits = reveal.size_bits();
                ctx.metrics().incr("dap.sender.reveals");
                ctx.broadcast(DapMessage::Reveal(reveal), bits);
            }
        }
        if self.interval <= self.sender.horizon() {
            let mut message = self.payload.clone();
            message.extend_from_slice(&self.interval.to_be_bytes());
            match self.sender.announce(self.interval, &message) {
                Ok(announce) => {
                    for _ in 0..self.announce_copies {
                        ctx.metrics().incr("dap.sender.announces");
                        ctx.broadcast(DapMessage::Announce(announce), announce.size_bits());
                    }
                }
                Err(_) => ctx.metrics().incr("dap.sender.exhausted"),
            }
        }
        if self.interval <= self.sender.horizon() {
            let step = self.sender.params().interval;
            ctx.set_timer(step, TICK);
        }
    }
}

/// A receiver node wrapping [`DapReceiver`]. It logs every message the
/// receiver authenticates, as an application reading the sensor data
/// would.
#[derive(Debug)]
pub struct DapReceiverNode {
    receiver: DapReceiver,
    authenticated: Vec<(u64, Vec<u8>)>,
    peak_memory_bits: u64,
}

impl DapReceiverNode {
    /// Bootstraps the node; `local_seed` derives `K_recv`.
    #[must_use]
    pub fn new(bootstrap: DapBootstrap, local_seed: &[u8]) -> Self {
        Self {
            receiver: DapReceiver::new(bootstrap, local_seed),
            authenticated: Vec::new(),
            peak_memory_bits: 0,
        }
    }

    /// The protocol state.
    #[must_use]
    pub fn receiver(&self) -> &DapReceiver {
        &self.receiver
    }

    /// Messages authenticated so far, as `(interval, message)`, in order.
    #[must_use]
    pub fn authenticated(&self) -> &[(u64, Vec<u8>)] {
        &self.authenticated
    }

    /// Largest buffer footprint observed (bounded by `m × 56` bits by
    /// construction — contrast with plain TESLA's unbounded buffer).
    #[must_use]
    pub fn peak_memory_bits(&self) -> u64 {
        self.peak_memory_bits
    }
}

impl Node<DapMessage> for DapReceiverNode {
    fn on_frame(&mut self, ctx: &mut Context<'_, DapMessage>, frame: &Frame<DapMessage>) {
        let local = ctx.local_time();
        match &frame.message {
            DapMessage::Announce(a) => {
                let outcome = {
                    let rng = ctx.rng();
                    // Split borrow: rng first, metrics after.
                    self.receiver.on_announce(a, local, rng)
                };
                match outcome {
                    AnnounceOutcome::Stored => ctx.metrics().incr("dap.rx.announce_stored"),
                    AnnounceOutcome::Dropped => ctx.metrics().incr("dap.rx.announce_dropped"),
                    AnnounceOutcome::Unsafe => ctx.metrics().incr("dap.rx.announce_unsafe"),
                }
            }
            DapMessage::Reveal(r) => match self.receiver.on_reveal(r, local) {
                RevealOutcome::Authenticated { index } => {
                    self.authenticated.push((index, r.message.clone()));
                    ctx.metrics().incr("dap.rx.authenticated");
                }
                RevealOutcome::WeakRejected { .. } => ctx.metrics().incr("dap.rx.weak_rejected"),
                RevealOutcome::StrongRejected { .. } => {
                    ctx.metrics().incr("dap.rx.strong_rejected");
                }
                RevealOutcome::NoCandidate { .. } => ctx.metrics().incr("dap.rx.no_candidate"),
            },
        }
        self.peak_memory_bits = self.peak_memory_bits.max(self.receiver.memory_bits());
    }
}

/// Floods forged announcements for the current interval at a bandwidth
/// fraction `p` relative to the sender's announcement rate.
#[derive(Debug)]
pub struct DapFloodAttacker {
    bootstrap: DapBootstrap,
    intensity: FloodIntensity,
    authentic_copies_per_interval: u32,
    horizon: u64,
    interval: u64,
    front_running: bool,
}

impl DapFloodAttacker {
    /// Creates the attacker; its flood lands *after* the sender's
    /// announcements each interval.
    #[must_use]
    pub fn new(
        bootstrap: DapBootstrap,
        intensity: FloodIntensity,
        authentic_copies_per_interval: u32,
        horizon: u64,
    ) -> Self {
        Self {
            bootstrap,
            intensity,
            authentic_copies_per_interval,
            horizon,
            interval: 0,
            front_running: false,
        }
    }

    /// A front-running attacker: its burst lands *before* the genuine
    /// announcement every interval — the strongest ordering against a
    /// keep-first-m buffer, and provably irrelevant against DAP's
    /// reservoir (`tests` assert the rate is unchanged).
    #[must_use]
    pub fn front_running(mut self) -> Self {
        self.front_running = true;
        self
    }
}

impl Node<DapMessage> for DapFloodAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_, DapMessage>) {
        let delay = if self.front_running { 0 } else { 2 };
        ctx.set_timer(SimDuration(delay), TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DapMessage>, _timer: TimerToken) {
        self.interval += 1;
        if self.interval > self.horizon {
            return;
        }
        let forged = self
            .intensity
            .forged_copies(u64::from(self.authentic_copies_per_interval));
        for _ in 0..forged {
            let mut mac = [0u8; Mac80::LEN];
            ctx.rng().fill_bytes(&mut mac);
            let announce = Announce {
                index: self.interval,
                mac: Mac80::from_slice(&mac).expect("fixed length"),
            };
            ctx.metrics().incr("dap.attacker.forged");
            ctx.broadcast(DapMessage::Announce(announce), announce.size_bits());
        }
        ctx.set_timer(self.bootstrap.params.interval, TICK);
    }
}

/// Convenience: run one DAP campaign and return the authentication rate
/// (authenticated / reveals seen) at a single receiver.
///
/// Used by the Fig.-5 validation and the examples; all knobs that matter
/// to the paper's model are parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSpec {
    /// Forged-traffic fraction `p` (`= x_a`).
    pub attack_fraction: f64,
    /// Authentic announcement copies per interval (the sender's
    /// loss-resilience re-sends; the attacker scales its flood to keep
    /// the forged fraction at `attack_fraction`).
    pub announce_copies: u32,
    /// Receiver buffers `m`.
    pub buffers: usize,
    /// Intervals to simulate.
    pub intervals: u64,
    /// Channel loss probability toward the receiver.
    pub loss: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Outcome of [`run_campaign`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Messages authenticated at the receiver.
    pub authenticated: u64,
    /// Reveals that found no candidate (announcement flooded out/lost).
    pub no_candidate: u64,
    /// Total reveals processed.
    pub reveals: u64,
    /// Peak receiver buffer memory in bits.
    pub peak_memory_bits: u64,
    /// Authenticated / reveals, the empirical `P`.
    pub authentication_rate: f64,
    /// Total bits put on the air — the transmit-energy tally an
    /// [`dap_simnet::EnergyModel`] converts to joules.
    pub bits_sent: u64,
    /// Total bits delivered to receivers — the receive-energy tally.
    pub bits_delivered: u64,
    /// Every `fault.*` counter the run produced, sorted by name (empty
    /// when no fault plan was installed or no window fired).
    pub fault_counters: Vec<(String, u64)>,
}

/// Runs a one-sender, one-attacker, one-receiver campaign.
#[must_use]
pub fn run_campaign(spec: &CampaignSpec) -> CampaignOutcome {
    run_campaign_with_faults(spec, None)
}

/// [`run_campaign`] with a scripted [`FaultPlan`](dap_simnet::FaultPlan)
/// layered on the channel: blackouts, crashes, duplication, reorder
/// spikes and bit corruption (routed through the wire codec — a frame
/// whose mutated bytes no longer parse is dropped like a bad checksum).
/// The injected-fault tally comes back in
/// [`CampaignOutcome::fault_counters`].
#[must_use]
pub fn run_campaign_with_faults(
    spec: &CampaignSpec,
    plan: Option<dap_simnet::FaultPlan>,
) -> CampaignOutcome {
    use dap_simnet::{ChannelModel, Network, SimTime};

    let params = crate::wire::DapParams::default().with_buffers(spec.buffers);
    let sender = DapSender::new(b"campaign-sender", spec.intervals as usize, params);
    let bootstrap = sender.bootstrap();

    let copies = spec.announce_copies.max(1);
    let mut net: Network<DapMessage> = Network::new(spec.seed);
    net.add_node(
        DapSenderNode::new(sender, copies, b"reading".to_vec()),
        ChannelModel::perfect(),
    );
    if spec.attack_fraction > 0.0 {
        net.add_node(
            DapFloodAttacker::new(
                bootstrap,
                FloodIntensity::of_bandwidth(spec.attack_fraction),
                copies,
                spec.intervals,
            ),
            ChannelModel::perfect(),
        );
    }
    let rx = net.add_node(
        DapReceiverNode::new(bootstrap, b"campaign-rx"),
        ChannelModel::lossy(spec.loss).with_delay(SimDuration(1)),
    );
    if let Some(plan) = plan {
        net.set_fault_plan(plan);
        net.set_corruptor(|m: &DapMessage, rng| {
            let mut bytes = crate::codec::encode(m).ok()?;
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
            crate::codec::decode(&bytes).ok()
        });
    }
    net.run_until(SimTime((spec.intervals + 3) * params.interval.ticks()));

    let node = net.node_as::<DapReceiverNode>(rx).expect("receiver node");
    let stats = node.receiver().stats();
    let reveals = stats.reveals;
    CampaignOutcome {
        authenticated: stats.authenticated,
        no_candidate: stats.no_candidate,
        reveals,
        peak_memory_bits: node.peak_memory_bits(),
        authentication_rate: if reveals == 0 {
            0.0
        } else {
            stats.authenticated as f64 / reveals as f64
        },
        bits_sent: net.metrics().get("net.bits_sent"),
        bits_delivered: net.metrics().get("net.bits_delivered"),
        fault_counters: {
            let mut counters: Vec<(String, u64)> = net
                .metrics()
                .iter()
                .filter(|(name, _)| name.starts_with("fault."))
                .map(|(name, value)| (name.to_string(), value))
                .collect();
            counters.sort();
            counters
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_campaign_authenticates_everything() {
        let out = run_campaign(&CampaignSpec {
            attack_fraction: 0.0,
            announce_copies: 1,
            buffers: 4,
            intervals: 30,
            loss: 0.0,
            seed: 1,
        });
        assert_eq!(out.reveals, 30);
        assert_eq!(out.authenticated, 30);
        assert!((out.authentication_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flood_rate_tracks_one_minus_p_to_m() {
        // p = 0.8, m = 3: the authentic announcement is one of 5 copies
        // competing for 3 buffers → kept with probability 3/5 = 0.6
        // (exact small-n value; 1 − p^m = 0.488 is the large-n limit).
        let out = run_campaign(&CampaignSpec {
            attack_fraction: 0.8,
            announce_copies: 1,
            buffers: 3,
            intervals: 2000,
            loss: 0.0,
            seed: 2,
        });
        assert!(
            (out.authentication_rate - 0.6).abs() < 0.05,
            "rate {}",
            out.authentication_rate
        );
    }

    #[test]
    fn more_buffers_higher_rate() {
        let mut last = 0.0;
        for m in [1usize, 2, 4] {
            let out = run_campaign(&CampaignSpec {
                attack_fraction: 0.8,
                announce_copies: 1,
                buffers: m,
                intervals: 800,
                loss: 0.0,
                seed: 3,
            });
            assert!(
                out.authentication_rate > last,
                "m={m}: {} !> {last}",
                out.authentication_rate
            );
            last = out.authentication_rate;
        }
    }

    /// Reservoir order-independence end to end: a front-running burst
    /// (all forged copies land before the genuine announce) achieves
    /// nothing more than the trailing flood.
    #[test]
    fn front_running_flood_gains_nothing() {
        let run = |front: bool| {
            let params = crate::wire::DapParams::default().with_buffers(3);
            let sender = DapSender::new(b"front", 1500, params);
            let bootstrap = sender.bootstrap();
            let mut net: Network<DapMessage> = Network::new(77);
            net.add_node(
                DapSenderNode::new(sender, 1, b"r".to_vec()),
                ChannelModel::perfect(),
            );
            let attacker =
                DapFloodAttacker::new(bootstrap, FloodIntensity::of_bandwidth(0.8), 1, 1500);
            net.add_node(
                if front {
                    attacker.front_running()
                } else {
                    attacker
                },
                ChannelModel::perfect(),
            );
            let rx = net.add_node(
                DapReceiverNode::new(bootstrap, b"rx"),
                ChannelModel::perfect().with_delay(SimDuration(1)),
            );
            net.run_until(SimTime(1503 * 100));
            let node = net.node_as::<DapReceiverNode>(rx).unwrap();
            let s = node.receiver().stats();
            s.authenticated as f64 / s.reveals.max(1) as f64
        };
        let trailing = run(false);
        let front = run(true);
        // Both near the m/n = 3/5 reservoir value; order cannot help.
        assert!((trailing - 0.6).abs() < 0.05, "trailing {trailing}");
        assert!((front - 0.6).abs() < 0.05, "front {front}");
        assert!((front - trailing).abs() < 0.06, "{front} vs {trailing}");
    }

    use dap_simnet::{ChannelModel, Network, SimTime};

    #[test]
    fn memory_stays_bounded_under_flood() {
        let out = run_campaign(&CampaignSpec {
            attack_fraction: 0.9,
            announce_copies: 1,
            buffers: 5,
            intervals: 100,
            loss: 0.0,
            seed: 4,
        });
        assert!(out.peak_memory_bits <= 5 * 56);
    }

    #[test]
    fn lossy_channel_reduces_but_does_not_break() {
        let out = run_campaign(&CampaignSpec {
            attack_fraction: 0.0,
            announce_copies: 1,
            buffers: 4,
            intervals: 200,
            loss: 0.3,
            seed: 5,
        });
        // Reveal or announce may be lost; what authenticates is genuine.
        assert!(out.authenticated > 50);
        assert!(out.authenticated < 200);
    }

    #[test]
    fn faulted_campaign_counts_faults_and_recovers() {
        use dap_simnet::{FaultPlan, FaultWindow};
        let spec = CampaignSpec {
            attack_fraction: 0.0,
            announce_copies: 1,
            buffers: 4,
            intervals: 40,
            loss: 0.0,
            seed: 11,
        };
        let plan = FaultPlan::new(5)
            .blackout(FaultWindow::new(SimTime(800), SimTime(1200)))
            .corrupt(FaultWindow::new(SimTime(1500), SimTime(2000)), 0.8);
        let out = run_campaign_with_faults(&spec, Some(plan.clone()));
        assert!(out
            .fault_counters
            .iter()
            .any(|(n, v)| n == "fault.blackout_dropped" && *v > 0));
        // Faults cost intervals, but the clean tail recovers.
        assert!(out.authenticated < 40, "{out:?}");
        assert!(out.authenticated > 20, "{out:?}");
        // Same plan, same seed: bit-identical outcome.
        assert_eq!(out, run_campaign_with_faults(&spec, Some(plan)));
        // No plan: no counters, and identical to the plain entry point.
        let plain = run_campaign(&spec);
        assert!(plain.fault_counters.is_empty());
        assert_eq!(plain, run_campaign_with_faults(&spec, None));
    }

    #[test]
    fn campaign_is_deterministic() {
        let spec = CampaignSpec {
            attack_fraction: 0.5,
            announce_copies: 1,
            buffers: 3,
            intervals: 100,
            loss: 0.2,
            seed: 42,
        };
        let a = run_campaign(&spec);
        let b = run_campaign(&spec);
        assert_eq!(a, b);
    }
}
