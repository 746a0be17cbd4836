//! Adapters running the TESLA state machines inside the [`dap_simnet`]
//! event loop: a periodic sender, receiver nodes, and a flooding
//! adversary.
//!
//! These are used by the integration tests and the `recovery` experiment
//! to exercise the protocols under lossy channels and DoS floods with
//! realistic timing, rather than the hand-fed timelines of the unit
//! tests.

use dap_crypto::Mac80;
use dap_simnet::{keys, Context, FloodIntensity, Frame, Node, SimDuration, TimerToken};

use crate::tesla::{
    Bootstrap, DisclosedKey, ReceiverEvent, TeslaPacket, TeslaReceiver, TeslaSender,
};

/// Wire type for TESLA networks.
#[derive(Debug, Clone, PartialEq)]
pub enum TeslaNet {
    /// A (possibly forged) TESLA packet.
    Packet(TeslaPacket),
}

/// Broadcasts `messages_per_interval` authenticated packets in every
/// interval up to the chain horizon.
#[derive(Debug)]
pub struct TeslaSenderNode {
    sender: TeslaSender,
    messages_per_interval: u32,
    interval: u64,
    payload: Vec<u8>,
}

impl TeslaSenderNode {
    /// Creates the node; `payload` is the message body template (the
    /// interval number is appended to make each message distinct).
    #[must_use]
    pub fn new(sender: TeslaSender, messages_per_interval: u32, payload: Vec<u8>) -> Self {
        Self {
            sender,
            messages_per_interval,
            interval: 0,
            payload,
        }
    }

    fn interval_len(&self) -> SimDuration {
        self.sender.bootstrap().params.schedule.interval()
    }
}

impl Node<TeslaNet> for TeslaSenderNode {
    fn on_start(&mut self, ctx: &mut Context<'_, TeslaNet>) {
        ctx.set_timer(SimDuration(1), TimerToken(0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TeslaNet>, _timer: TimerToken) {
        self.interval += 1;
        if self.interval > self.sender.horizon() {
            return;
        }
        for copy in 0..self.messages_per_interval {
            let mut message = self.payload.clone();
            message.extend_from_slice(&self.interval.to_be_bytes());
            message.push(copy as u8);
            // The horizon guard above makes exhaustion unreachable, but a
            // fault plan may still perturb scheduling — degrade to silence
            // rather than crash the node.
            let Ok(packet) = self.sender.packet(self.interval, &message) else {
                ctx.metrics().incr(keys::TESLA_SENDER_EXHAUSTED);
                return;
            };
            let bits = packet.size_bits();
            ctx.metrics().incr(keys::TESLA_SENDER_PACKETS);
            ctx.broadcast(TeslaNet::Packet(packet), bits);
        }
        ctx.set_timer(self.interval_len(), TimerToken(0));
    }
}

/// A receiver node wrapping [`TeslaReceiver`]; exposes the final protocol
/// state after the run and tracks peak buffer memory.
#[derive(Debug)]
pub struct TeslaReceiverNode {
    receiver: TeslaReceiver,
    peak_buffered_bits: u64,
}

impl TeslaReceiverNode {
    /// Bootstraps the node.
    #[must_use]
    pub fn new(bootstrap: Bootstrap) -> Self {
        Self {
            receiver: TeslaReceiver::new(bootstrap),
            peak_buffered_bits: 0,
        }
    }

    /// The protocol state (authenticated messages etc.).
    #[must_use]
    pub fn receiver(&self) -> &TeslaReceiver {
        &self.receiver
    }

    /// The largest buffer footprint observed, in bits — the memory-DoS
    /// exposure of plain TESLA.
    #[must_use]
    pub fn peak_buffered_bits(&self) -> u64 {
        self.peak_buffered_bits
    }
}

impl Node<TeslaNet> for TeslaReceiverNode {
    fn on_frame(&mut self, ctx: &mut Context<'_, TeslaNet>, frame: &Frame<TeslaNet>) {
        let TeslaNet::Packet(packet) = &frame.message;
        let events = self.receiver.on_packet(packet, ctx.local_time());
        for event in events {
            match event {
                ReceiverEvent::Authenticated { .. } => {
                    ctx.metrics().incr(keys::TESLA_RX_AUTHENTICATED)
                }
                ReceiverEvent::RejectedMac { .. } => {
                    ctx.metrics().incr(keys::TESLA_RX_REJECTED_MAC)
                }
                ReceiverEvent::DiscardedUnsafe { .. } => ctx.metrics().incr(keys::TESLA_RX_UNSAFE),
                ReceiverEvent::KeyAccepted { .. } => {
                    ctx.metrics().incr(keys::TESLA_RX_KEY_ACCEPTED)
                }
                ReceiverEvent::KeyRejected { .. } => {
                    ctx.metrics().incr(keys::TESLA_RX_KEY_REJECTED)
                }
            }
        }
        self.peak_buffered_bits = self.peak_buffered_bits.max(self.receiver.buffered_bits());
    }
}

/// Floods forged TESLA packets claiming the current interval: random
/// MACs over attacker-chosen messages, sized so the attacker consumes a
/// `p` fraction of the packet traffic.
#[derive(Debug)]
pub struct TeslaFloodAttacker {
    bootstrap: Bootstrap,
    intensity: FloodIntensity,
    authentic_per_interval: u32,
    horizon: u64,
    interval: u64,
    payload_len: usize,
}

impl TeslaFloodAttacker {
    /// Creates the attacker. `authentic_per_interval` is the legitimate
    /// sender's rate, used to size the flood to the requested bandwidth
    /// fraction.
    #[must_use]
    pub fn new(
        bootstrap: Bootstrap,
        intensity: FloodIntensity,
        authentic_per_interval: u32,
        horizon: u64,
        payload_len: usize,
    ) -> Self {
        Self {
            bootstrap,
            intensity,
            authentic_per_interval,
            horizon,
            interval: 0,
            payload_len,
        }
    }
}

impl Node<TeslaNet> for TeslaFloodAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_, TeslaNet>) {
        // Fire just after the sender each interval.
        ctx.set_timer(SimDuration(2), TimerToken(0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TeslaNet>, _timer: TimerToken) {
        self.interval += 1;
        if self.interval > self.horizon {
            return;
        }
        let forged = self
            .intensity
            .forged_copies(u64::from(self.authentic_per_interval));
        for _ in 0..forged {
            let mut message = vec![0u8; self.payload_len];
            ctx.rng().fill_bytes(&mut message);
            let mut mac = [0u8; Mac80::LEN];
            ctx.rng().fill_bytes(&mut mac);
            let packet = TeslaPacket {
                index: self.interval,
                message,
                mac: Mac80::from_slice(&mac).expect("fixed length"),
                disclosed: None,
            };
            let bits = packet.size_bits();
            ctx.metrics().incr(keys::TESLA_ATTACKER_FORGED);
            ctx.broadcast(TeslaNet::Packet(packet), bits);
        }
        ctx.set_timer(self.bootstrap.params.schedule.interval(), TimerToken(0));
    }
}

/// A forged disclosed key helper for tests: a packet that claims to
/// disclose a key for `index` but carries attacker bytes.
#[must_use]
pub fn forged_disclosure(index: u64, rng: &mut dap_simnet::SimRng) -> DisclosedKey {
    DisclosedKey {
        index,
        key: dap_crypto::Key::random(rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TeslaParams;
    use dap_simnet::{ChannelModel, Network, SimTime};

    fn run_network(
        loss: f64,
        flood: Option<FloodIntensity>,
        seed: u64,
    ) -> (Network<TeslaNet>, dap_simnet::NodeId) {
        let params = TeslaParams::new(SimDuration(100), 2, 5);
        let sender = TeslaSender::new(b"net-sender", 30, params);
        let bootstrap = sender.bootstrap();
        let mut net = Network::new(seed);
        net.add_node(
            TeslaSenderNode::new(sender, 2, b"payload".to_vec()),
            ChannelModel::perfect(),
        );
        if let Some(intensity) = flood {
            net.add_node(
                TeslaFloodAttacker::new(bootstrap, intensity, 2, 30, 25),
                ChannelModel::perfect(),
            );
        }
        let rx = net.add_node(
            TeslaReceiverNode::new(bootstrap),
            ChannelModel::lossy(loss).with_delay(SimDuration(1)),
        );
        net.run_until(SimTime(40 * 100));
        (net, rx)
    }

    #[test]
    fn clean_channel_authenticates_everything_disclosed() {
        let (net, rx) = run_network(0.0, None, 1);
        let node = net.node_as::<TeslaReceiverNode>(rx).unwrap();
        // 30 intervals, keys disclosed up to interval 28 (d = 2).
        assert_eq!(node.receiver().authenticated().len(), 28 * 2);
        assert_eq!(net.metrics().get(keys::TESLA_RX_REJECTED_MAC), 0);
    }

    #[test]
    fn lossy_channel_still_makes_progress() {
        let (net, rx) = run_network(0.3, None, 2);
        let node = net.node_as::<TeslaReceiverNode>(rx).unwrap();
        let authed = node.receiver().authenticated().len();
        // ~70% of 56 packets arrive; all arriving packets eventually
        // authenticate because any later disclosure recovers the chain.
        assert!(authed > 20, "authenticated {authed}");
        assert_eq!(net.metrics().get(keys::TESLA_RX_REJECTED_MAC), 0);
    }

    #[test]
    fn flood_consumes_receiver_memory_but_never_authenticates() {
        let (net, rx) = run_network(0.0, Some(FloodIntensity::of_bandwidth(0.8)), 3);
        let node = net.node_as::<TeslaReceiverNode>(rx).unwrap();
        // No forged message ever authenticates...
        for (idx, msg) in node.receiver().authenticated() {
            assert!(
                msg.starts_with(b"payload"),
                "forged message authenticated at {idx}"
            );
        }
        // ...but the flood inflates the buffer: 8 forged per interval of
        // 25-byte payloads is far more than the 2 authentic packets.
        assert!(
            node.peak_buffered_bits() > 2_000,
            "peak {} bits",
            node.peak_buffered_bits()
        );
        assert!(net.metrics().get(keys::TESLA_RX_REJECTED_MAC) > 0);
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let (net_a, rx_a) = run_network(0.2, Some(FloodIntensity::of_bandwidth(0.5)), 9);
        let (net_b, rx_b) = run_network(0.2, Some(FloodIntensity::of_bandwidth(0.5)), 9);
        let a = net_a.node_as::<TeslaReceiverNode>(rx_a).unwrap();
        let b = net_b.node_as::<TeslaReceiverNode>(rx_b).unwrap();
        assert_eq!(
            a.receiver().authenticated().len(),
            b.receiver().authenticated().len()
        );
        assert_eq!(a.peak_buffered_bits(), b.peak_buffered_bits());
    }

    #[test]
    fn forged_disclosure_helper_is_random() {
        let mut rng = dap_simnet::SimRng::new(4);
        let a = forged_disclosure(3, &mut rng);
        let b = forged_disclosure(3, &mut rng);
        assert_eq!(a.index, 3);
        assert_ne!(a.key, b.key);
    }
}
