//! [`dap_simnet`] adapters for μTESLA and TESLA++.
//!
//! μTESLA nodes exercise the once-per-interval disclosure schedule;
//! TESLA++ nodes exercise the two-phase announce/reveal flow and expose
//! the *unbounded* self-MAC store that motivates DAP's bounded buffers.

use dap_crypto::Mac80;
use dap_simnet::{keys, Context, FloodIntensity, Frame, Node, SimDuration, TimerToken};

use crate::mutesla::{MuTeslaMessage, MuTeslaReceiver, MuTeslaSender};
use crate::params::TeslaParams;
use crate::tesla::{Bootstrap, ReceiverEvent};
use crate::teslapp::{TeslaPpMessage, TeslaPpOutcome, TeslaPpReceiver, TeslaPpSender};

// ------------------------------------------------------------- μTESLA --

/// Broadcasts data packets plus the per-interval key disclosure.
#[derive(Debug)]
pub struct MuTeslaSenderNode {
    sender: MuTeslaSender,
    params: TeslaParams,
    horizon: u64,
    messages_per_interval: u32,
    interval: u64,
    payload: Vec<u8>,
}

impl MuTeslaSenderNode {
    /// Creates the node.
    #[must_use]
    pub fn new(
        sender: MuTeslaSender,
        horizon: u64,
        messages_per_interval: u32,
        payload: Vec<u8>,
    ) -> Self {
        let params = sender.bootstrap().params;
        Self {
            sender,
            params,
            horizon,
            messages_per_interval,
            interval: 0,
            payload,
        }
    }
}

impl Node<MuTeslaMessage> for MuTeslaSenderNode {
    fn on_start(&mut self, ctx: &mut Context<'_, MuTeslaMessage>) {
        ctx.set_timer(SimDuration(1), TimerToken(0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, MuTeslaMessage>, _timer: TimerToken) {
        self.interval += 1;
        // Disclosure for interval − d, once per interval.
        if let Some(disclosure) = self.sender.disclosure(self.interval) {
            let bits = disclosure.size_bits();
            ctx.metrics().incr(keys::MUTESLA_SENDER_DISCLOSURES);
            ctx.broadcast(disclosure, bits);
        }
        if self.interval <= self.horizon {
            for copy in 0..self.messages_per_interval {
                let mut message = self.payload.clone();
                message.extend_from_slice(&self.interval.to_be_bytes());
                message.push(copy as u8);
                let Ok(data) = self.sender.data(self.interval, &message) else {
                    ctx.metrics().incr(keys::MUTESLA_SENDER_EXHAUSTED);
                    return;
                };
                let bits = data.size_bits();
                ctx.metrics().incr(keys::MUTESLA_SENDER_DATA);
                ctx.broadcast(data, bits);
            }
            ctx.set_timer(self.params.schedule.interval(), TimerToken(0));
        } else if self.interval <= self.horizon + self.params.disclosure_delay {
            // Keep disclosing until the tail is covered.
            ctx.set_timer(self.params.schedule.interval(), TimerToken(0));
        }
    }
}

/// A μTESLA receiver node.
#[derive(Debug)]
pub struct MuTeslaReceiverNode {
    receiver: MuTeslaReceiver,
}

impl MuTeslaReceiverNode {
    /// Bootstraps the node.
    #[must_use]
    pub fn new(bootstrap: Bootstrap) -> Self {
        Self {
            receiver: MuTeslaReceiver::new(bootstrap),
        }
    }

    /// The protocol state.
    #[must_use]
    pub fn receiver(&self) -> &MuTeslaReceiver {
        &self.receiver
    }
}

impl Node<MuTeslaMessage> for MuTeslaReceiverNode {
    fn on_frame(&mut self, ctx: &mut Context<'_, MuTeslaMessage>, frame: &Frame<MuTeslaMessage>) {
        let events = self.receiver.on_message(&frame.message, ctx.local_time());
        for event in events {
            let name = match event {
                ReceiverEvent::Authenticated { .. } => keys::MUTESLA_RX_AUTHENTICATED,
                ReceiverEvent::RejectedMac { .. } => keys::MUTESLA_RX_REJECTED_MAC,
                ReceiverEvent::DiscardedUnsafe { .. } => keys::MUTESLA_RX_UNSAFE,
                ReceiverEvent::KeyAccepted { .. } => keys::MUTESLA_RX_KEY_ACCEPTED,
                ReceiverEvent::KeyRejected { .. } => keys::MUTESLA_RX_KEY_REJECTED,
            };
            ctx.metrics().incr(name);
        }
    }
}

// ------------------------------------------------------------ TESLA++ --

/// Broadcasts the TESLA++ two-phase schedule: announcements each
/// interval, reveals one interval later.
#[derive(Debug)]
pub struct TeslaPpSenderNode {
    sender: TeslaPpSender,
    params: TeslaParams,
    horizon: u64,
    interval: u64,
    payload: Vec<u8>,
}

impl TeslaPpSenderNode {
    /// Creates the node.
    #[must_use]
    pub fn new(sender: TeslaPpSender, horizon: u64, payload: Vec<u8>) -> Self {
        let params = sender.bootstrap().params;
        Self {
            sender,
            params,
            horizon,
            interval: 0,
            payload,
        }
    }
}

impl Node<TeslaPpMessage> for TeslaPpSenderNode {
    fn on_start(&mut self, ctx: &mut Context<'_, TeslaPpMessage>) {
        ctx.set_timer(SimDuration(1), TimerToken(0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TeslaPpMessage>, _timer: TimerToken) {
        self.interval += 1;
        if self.interval > 1 {
            if let Some(reveal) = self.sender.reveal(self.interval - 1) {
                let bits = reveal.size_bits();
                ctx.metrics().incr(keys::TESLAPP_SENDER_REVEALS);
                ctx.broadcast(reveal, bits);
            }
        }
        if self.interval <= self.horizon {
            let mut message = self.payload.clone();
            message.extend_from_slice(&self.interval.to_be_bytes());
            if let Ok(announce) = self.sender.announce(self.interval, &message) {
                let bits = announce.size_bits();
                ctx.metrics().incr(keys::TESLAPP_SENDER_ANNOUNCES);
                ctx.broadcast(announce, bits);
            } else {
                ctx.metrics().incr(keys::TESLAPP_SENDER_EXHAUSTED);
            }
            ctx.set_timer(self.params.schedule.interval(), TimerToken(0));
        }
    }
}

/// A TESLA++ receiver node; tracks the peak self-MAC store footprint.
#[derive(Debug)]
pub struct TeslaPpReceiverNode {
    receiver: TeslaPpReceiver,
    peak_stored_bits: u64,
}

impl TeslaPpReceiverNode {
    /// Bootstraps the node.
    #[must_use]
    pub fn new(bootstrap: Bootstrap, local_seed: &[u8]) -> Self {
        Self {
            receiver: TeslaPpReceiver::new(bootstrap, local_seed),
            peak_stored_bits: 0,
        }
    }

    /// The protocol state.
    #[must_use]
    pub fn receiver(&self) -> &TeslaPpReceiver {
        &self.receiver
    }

    /// Largest store footprint observed — grows without bound under a
    /// flood (TESLA++ caps entry *size*, not entry *count*).
    #[must_use]
    pub fn peak_stored_bits(&self) -> u64 {
        self.peak_stored_bits
    }
}

impl Node<TeslaPpMessage> for TeslaPpReceiverNode {
    fn on_frame(&mut self, ctx: &mut Context<'_, TeslaPpMessage>, frame: &Frame<TeslaPpMessage>) {
        let outcome = self.receiver.on_message(&frame.message, ctx.local_time());
        let name = match outcome {
            TeslaPpOutcome::Authenticated { .. } => keys::TESLAPP_RX_AUTHENTICATED,
            TeslaPpOutcome::KeyRejected { .. } => keys::TESLAPP_RX_KEY_REJECTED,
            TeslaPpOutcome::NoMatchingAnnouncement { .. } => keys::TESLAPP_RX_NO_MATCH,
            TeslaPpOutcome::AnnouncementUnsafe { .. } => keys::TESLAPP_RX_UNSAFE,
            TeslaPpOutcome::AnnouncementStored { .. } => keys::TESLAPP_RX_STORED,
        };
        ctx.metrics().incr(name);
        self.peak_stored_bits = self.peak_stored_bits.max(self.receiver.stored_bits());
    }
}

/// Floods forged TESLA++ announcements for the current interval.
#[derive(Debug)]
pub struct TeslaPpFloodAttacker {
    params: TeslaParams,
    intensity: FloodIntensity,
    authentic_per_interval: u32,
    horizon: u64,
    interval: u64,
}

impl TeslaPpFloodAttacker {
    /// Creates the attacker.
    #[must_use]
    pub fn new(
        params: TeslaParams,
        intensity: FloodIntensity,
        authentic_per_interval: u32,
        horizon: u64,
    ) -> Self {
        Self {
            params,
            intensity,
            authentic_per_interval,
            horizon,
            interval: 0,
        }
    }
}

impl Node<TeslaPpMessage> for TeslaPpFloodAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_, TeslaPpMessage>) {
        ctx.set_timer(SimDuration(2), TimerToken(0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TeslaPpMessage>, _timer: TimerToken) {
        self.interval += 1;
        if self.interval > self.horizon {
            return;
        }
        let forged = self
            .intensity
            .forged_copies(u64::from(self.authentic_per_interval));
        for _ in 0..forged {
            let mut mac = [0u8; Mac80::LEN];
            ctx.rng().fill_bytes(&mut mac);
            let announce = TeslaPpMessage::MacAnnounce {
                index: self.interval,
                mac: Mac80::from_slice(&mac).expect("fixed length"),
            };
            let bits = announce.size_bits();
            ctx.metrics().incr(keys::TESLAPP_ATTACKER_FORGED);
            ctx.broadcast(announce, bits);
        }
        ctx.set_timer(self.params.schedule.interval(), TimerToken(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_simnet::{ChannelModel, Network, SimTime};

    #[test]
    fn mutesla_network_authenticates() {
        let params = TeslaParams::new(SimDuration(100), 1, 0);
        let sender = MuTeslaSender::new(b"mu-net", 30, params);
        let bootstrap = sender.bootstrap();
        let mut net: Network<MuTeslaMessage> = Network::new(1);
        net.add_node(
            MuTeslaSenderNode::new(sender, 28, 2, b"d".to_vec()),
            ChannelModel::perfect(),
        );
        let rx = net.add_node(MuTeslaReceiverNode::new(bootstrap), ChannelModel::perfect());
        net.run_until(SimTime(32 * 100));
        let node = net.node_as::<MuTeslaReceiverNode>(rx).unwrap();
        assert_eq!(node.receiver().authenticated().len(), 28 * 2);
        assert_eq!(net.metrics().get(keys::MUTESLA_RX_REJECTED_MAC), 0);
    }

    #[test]
    fn mutesla_disclosure_bandwidth_is_once_per_interval() {
        let params = TeslaParams::new(SimDuration(100), 1, 0);
        let sender = MuTeslaSender::new(b"mu-bw", 30, params);
        let bootstrap = sender.bootstrap();
        let mut net: Network<MuTeslaMessage> = Network::new(2);
        net.add_node(
            MuTeslaSenderNode::new(sender, 20, 5, b"d".to_vec()),
            ChannelModel::perfect(),
        );
        net.add_node(MuTeslaReceiverNode::new(bootstrap), ChannelModel::perfect());
        net.run_until(SimTime(25 * 100));
        // 5 data frames per interval but only one disclosure.
        let data = net.metrics().get(keys::MUTESLA_SENDER_DATA);
        let disc = net.metrics().get(keys::MUTESLA_SENDER_DISCLOSURES);
        assert_eq!(data, 20 * 5);
        assert!(disc <= 21, "disclosures {disc}");
    }

    #[test]
    fn teslapp_network_authenticates_and_flood_grows_memory() {
        let params = TeslaParams::new(SimDuration(100), 1, 0);
        let run = |flood: Option<f64>, seed: u64| {
            let sender = TeslaPpSender::new(b"pp-net", 40, params);
            let bootstrap = sender.bootstrap();
            let mut net: Network<TeslaPpMessage> = Network::new(seed);
            net.add_node(
                TeslaPpSenderNode::new(sender, 38, b"alert".to_vec()),
                ChannelModel::perfect(),
            );
            if let Some(p) = flood {
                net.add_node(
                    TeslaPpFloodAttacker::new(params, FloodIntensity::of_bandwidth(p), 1, 38),
                    ChannelModel::perfect(),
                );
            }
            let rx = net.add_node(
                TeslaPpReceiverNode::new(bootstrap, b"rx"),
                ChannelModel::perfect(),
            );
            net.run_until(SimTime(42 * 100));
            let node = net.node_as::<TeslaPpReceiverNode>(rx).unwrap();
            (
                node.receiver().authenticated().len(),
                node.peak_stored_bits(),
            )
        };
        let (auth_clean, peak_clean) = run(None, 3);
        assert_eq!(auth_clean, 38);
        let (auth_flood, peak_flood) = run(Some(0.9), 3);
        // TESLA++ authenticates everything even under flood (no buffer
        // cap)...
        assert_eq!(auth_flood, 38);
        // ...but pays with unbounded memory: 9 forged × 112 bits linger.
        assert!(
            peak_flood > peak_clean * 5,
            "clean {peak_clean} vs flood {peak_flood}"
        );
    }
}
