//! [`dap_simnet`] adapters for the two-level protocols: multi-level
//! μTESLA (with either linkage) and EDRP, plus a CDM-flooding adversary.
//!
//! These run the full CDM + data + disclosure schedule on the event loop,
//! so experiments can combine bursty channel loss, clock skew and CDM
//! floods — the conditions under which EFTP's recovery and EDRP's hash
//! chain earn their keep.

use dap_crypto::{Key, Mac80};
use dap_simnet::{keys, Context, Frame, Node, SimDuration, TimerToken};

use crate::edrp::{EdrpCdm, EdrpReceiver, EdrpSender};
use crate::multilevel::{
    Cdm, LowKeyDisclosure, LowPacket, MlEvent, MultiLevelParams, MultiLevelReceiver,
    MultiLevelSender,
};

/// Wire type for multi-level μTESLA networks (EDRP reuses the data and
/// disclosure frames and adds its own CDM).
#[derive(Debug, Clone, PartialEq)]
pub enum MlNet {
    /// A commitment distribution message (possibly forged).
    Cdm(Cdm),
    /// An EDRP commitment distribution message (possibly forged).
    EdrpCdm(EdrpCdm),
    /// A low-level data packet.
    Low(LowPacket),
    /// A low-level key disclosure.
    LowKey(LowKeyDisclosure),
}

impl MlNet {
    /// Airtime size in bits.
    #[must_use]
    pub fn size_bits(&self) -> u32 {
        match self {
            MlNet::Cdm(c) => c.size_bits(),
            MlNet::EdrpCdm(c) => c.size_bits(),
            MlNet::Low(p) => {
                (p.message.len() as u32) * 8
                    + dap_crypto::sizes::MAC_BITS
                    + 2 * dap_crypto::sizes::INDEX_BITS
            }
            MlNet::LowKey(_) => dap_crypto::sizes::KEY_BITS + 2 * dap_crypto::sizes::INDEX_BITS,
        }
    }
}

/// Which CDM flavour a sender node broadcasts.
#[derive(Debug)]
enum SenderFlavor {
    MultiLevel(MultiLevelSender),
    Edrp(EdrpSender),
}

/// Broadcasts the full two-level schedule: `cdm_copies` CDMs at the start
/// of each high-level interval, one data packet per low-level interval,
/// and the per-low-interval key disclosure.
#[derive(Debug)]
pub struct MlSenderNode {
    flavor: SenderFlavor,
    params: MultiLevelParams,
    cdm_copies: u32,
    tick: u64, // global low interval counter
    horizon_high: u64,
    payload: Vec<u8>,
}

impl MlSenderNode {
    /// A multi-level μTESLA sender node (the linkage comes from the
    /// sender's params).
    #[must_use]
    pub fn multilevel(sender: MultiLevelSender, cdm_copies: u32, payload: Vec<u8>) -> Self {
        let params = *sender.params();
        Self {
            flavor: SenderFlavor::MultiLevel(sender),
            params,
            cdm_copies,
            tick: 0,
            horizon_high: params.high_chain_len as u64,
            payload,
        }
    }

    /// An EDRP sender node.
    #[must_use]
    pub fn edrp(sender: EdrpSender, cdm_copies: u32, payload: Vec<u8>) -> Self {
        let params = *sender.params();
        Self {
            flavor: SenderFlavor::Edrp(sender),
            params,
            cdm_copies,
            tick: 0,
            horizon_high: params.high_chain_len as u64,
            payload,
        }
    }

    fn emit(&self, ctx: &mut Context<'_, MlNet>, high: u64, low: u32) {
        if low == 1 {
            for _ in 0..self.cdm_copies {
                match &self.flavor {
                    SenderFlavor::MultiLevel(s) => {
                        if let Some(cdm) = s.cdm(high) {
                            let bits = cdm.size_bits();
                            ctx.metrics().incr(keys::ML_SENDER_CDM);
                            ctx.broadcast(MlNet::Cdm(cdm), bits);
                        }
                    }
                    SenderFlavor::Edrp(s) => {
                        if let Some(cdm) = s.cdm(high) {
                            let bits = cdm.size_bits();
                            ctx.metrics().incr(keys::ML_SENDER_CDM);
                            ctx.broadcast(MlNet::EdrpCdm(cdm.clone()), bits);
                        }
                    }
                }
            }
        }
        let mut message = self.payload.clone();
        message.extend_from_slice(&high.to_be_bytes());
        message.push(low as u8);
        let (packet, disclosure) = match &self.flavor {
            SenderFlavor::MultiLevel(s) => (
                s.data_packet(high, low, &message).ok(),
                s.low_disclosure(high, low),
            ),
            SenderFlavor::Edrp(s) => (
                s.data_packet(high, low, &message).ok(),
                s.low_disclosure(high, low),
            ),
        };
        if let Some(packet) = packet {
            let bits = MlNet::Low(packet.clone()).size_bits();
            ctx.metrics().incr(keys::ML_SENDER_DATA);
            ctx.broadcast(MlNet::Low(packet), bits);
        } else {
            ctx.metrics().incr(keys::ML_SENDER_EXHAUSTED);
        }
        if let Some(d) = disclosure {
            let bits = MlNet::LowKey(d).size_bits();
            ctx.metrics().incr(keys::ML_SENDER_DISCLOSURE);
            ctx.broadcast(MlNet::LowKey(d), bits);
        }
    }
}

impl Node<MlNet> for MlSenderNode {
    fn on_start(&mut self, ctx: &mut Context<'_, MlNet>) {
        ctx.set_timer(SimDuration(1), TimerToken(0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, MlNet>, _timer: TimerToken) {
        self.tick += 1;
        let (high, low) = self.params.split_low_index(self.tick);
        if high > self.horizon_high {
            return;
        }
        self.emit(ctx, high, low);
        ctx.set_timer(self.params.low_interval, TimerToken(0));
    }
}

/// A multi-level μTESLA receiver node.
#[derive(Debug)]
pub struct MlReceiverNode {
    receiver: MultiLevelReceiver,
}

impl MlReceiverNode {
    /// Bootstraps the node.
    #[must_use]
    pub fn new(receiver: MultiLevelReceiver) -> Self {
        Self { receiver }
    }

    /// The protocol state.
    #[must_use]
    pub fn receiver(&self) -> &MultiLevelReceiver {
        &self.receiver
    }
}

fn count_events(ctx: &mut Context<'_, MlNet>, events: &[MlEvent]) {
    for e in events {
        let name = match e {
            MlEvent::CdmUnsafe { .. } => keys::ML_RX_CDM_UNSAFE,
            MlEvent::HighKeyAccepted { .. } => keys::ML_RX_HIGH_KEY_ACCEPTED,
            MlEvent::HighKeyRejected { .. } => keys::ML_RX_HIGH_KEY_REJECTED,
            MlEvent::CdmAuthenticated { .. } => keys::ML_RX_CDM_AUTHENTICATED,
            MlEvent::CommitmentInstalled { .. } => keys::ML_RX_COMMITMENT_INSTALLED,
            MlEvent::LowAuthenticated { .. } => keys::ML_RX_LOW_AUTHENTICATED,
            MlEvent::LowRejected { .. } => keys::ML_RX_LOW_REJECTED,
            MlEvent::LowUnsafe { .. } => keys::ML_RX_LOW_UNSAFE,
        };
        ctx.metrics().incr(name);
    }
}

impl Node<MlNet> for MlReceiverNode {
    fn on_frame(&mut self, ctx: &mut Context<'_, MlNet>, frame: &Frame<MlNet>) {
        let t = ctx.local_time();
        let events = match &frame.message {
            MlNet::Cdm(cdm) => {
                let rng = ctx.rng();
                self.receiver.on_cdm(cdm, t, rng)
            }
            MlNet::Low(p) => self.receiver.on_low_packet(p, t),
            MlNet::LowKey(d) => self.receiver.on_low_disclosure(d, t),
            MlNet::EdrpCdm(_) => Vec::new(), // not our protocol; ignore
        };
        count_events(ctx, &events);
    }
}

/// An EDRP receiver node.
#[derive(Debug)]
pub struct EdrpReceiverNode {
    receiver: EdrpReceiver,
}

impl EdrpReceiverNode {
    /// Bootstraps the node.
    #[must_use]
    pub fn new(receiver: EdrpReceiver) -> Self {
        Self { receiver }
    }

    /// The protocol state.
    #[must_use]
    pub fn receiver(&self) -> &EdrpReceiver {
        &self.receiver
    }
}

impl Node<MlNet> for EdrpReceiverNode {
    fn on_frame(&mut self, ctx: &mut Context<'_, MlNet>, frame: &Frame<MlNet>) {
        let t = ctx.local_time();
        let events = match &frame.message {
            MlNet::EdrpCdm(cdm) => {
                let rng = ctx.rng();
                let (_disposition, events) = self.receiver.on_cdm(cdm, t, rng);
                events
            }
            MlNet::Low(p) => self.receiver.on_low_packet(p, t),
            MlNet::LowKey(d) => self.receiver.on_low_disclosure(d, t),
            MlNet::Cdm(_) => Vec::new(),
        };
        count_events(ctx, &events);
    }
}

/// Floods forged CDMs (random commitments and MACs) for the current
/// high-level interval, for both CDM flavours.
#[derive(Debug)]
pub struct CdmFloodAttacker {
    params: MultiLevelParams,
    copies_per_interval: u32,
    edrp: bool,
    interval: u64,
}

impl CdmFloodAttacker {
    /// An attacker flooding plain multi-level CDMs.
    #[must_use]
    pub fn new(params: MultiLevelParams, copies_per_interval: u32) -> Self {
        Self {
            params,
            copies_per_interval,
            edrp: false,
            interval: 0,
        }
    }

    /// An attacker flooding EDRP-shaped CDMs.
    #[must_use]
    pub fn edrp(params: MultiLevelParams, copies_per_interval: u32) -> Self {
        Self {
            params,
            copies_per_interval,
            edrp: true,
            interval: 0,
        }
    }
}

impl Node<MlNet> for CdmFloodAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_, MlNet>) {
        ctx.set_timer(SimDuration(2), TimerToken(0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, MlNet>, _timer: TimerToken) {
        self.interval += 1;
        if self.interval > self.params.high_chain_len as u64 {
            return;
        }
        for _ in 0..self.copies_per_interval {
            let commitment = Key::random(ctx.rng());
            let mut mac_bytes = [0u8; Mac80::LEN];
            ctx.rng().fill_bytes(&mut mac_bytes);
            let mac = Mac80::from_slice(&mac_bytes).expect("fixed length");
            let msg = if self.edrp {
                MlNet::EdrpCdm(EdrpCdm {
                    index: self.interval,
                    low_commitment: commitment,
                    next_hash: Key::random(ctx.rng()),
                    disclosed_high: None,
                    mac,
                })
            } else {
                MlNet::Cdm(Cdm {
                    index: self.interval,
                    low_commitment: commitment,
                    mac,
                    disclosed_high: None,
                })
            };
            let bits = msg.size_bits();
            ctx.metrics().incr(keys::ML_ATTACKER_FORGED_CDM);
            ctx.broadcast(msg, bits);
        }
        ctx.set_timer(self.params.high_interval(), TimerToken(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::Linkage;
    use dap_simnet::{ChannelModel, Network, SimTime};

    fn params(linkage: Linkage) -> MultiLevelParams {
        MultiLevelParams::new(SimDuration(25), 4, 20, 3, linkage)
    }

    #[test]
    fn multilevel_network_authenticates_data() {
        let p = params(Linkage::Eftp);
        let sender = MultiLevelSender::new(b"net-ml", p);
        let bootstrap = sender.bootstrap();
        let mut net: Network<MlNet> = Network::new(1);
        net.add_node(
            MlSenderNode::multilevel(sender, 2, b"m".to_vec()),
            ChannelModel::perfect(),
        );
        let rx = net.add_node(
            MlReceiverNode::new(MultiLevelReceiver::new(bootstrap)),
            ChannelModel::perfect(),
        );
        net.run_until(SimTime(22 * 100));
        let node = net.node_as::<MlReceiverNode>(rx).unwrap();
        let stats = node.receiver().stats();
        // 20 high intervals × 4 low packets, minus the last disclosure lag.
        assert!(stats.low_authenticated >= 75, "{stats:?}");
        assert_eq!(stats.low_rejected, 0, "{stats:?}");
        assert!(stats.cdm_authenticated >= 18, "{stats:?}");
    }

    #[test]
    fn edrp_network_instant_under_flood() {
        let p = params(Linkage::Eftp);
        let sender = EdrpSender::new(b"net-edrp", p);
        let bootstrap = sender.bootstrap();
        let mut net: Network<MlNet> = Network::new(2);
        net.add_node(
            MlSenderNode::edrp(sender, 1, b"m".to_vec()),
            ChannelModel::perfect(),
        );
        net.add_node(CdmFloodAttacker::edrp(p, 10), ChannelModel::perfect());
        let rx = net.add_node(
            EdrpReceiverNode::new(EdrpReceiver::new(bootstrap)),
            ChannelModel::perfect(),
        );
        net.run_until(SimTime(22 * 100));
        let node = net.node_as::<EdrpReceiverNode>(rx).unwrap();
        let stats = node.receiver().stats();
        assert!(stats.cdm_instant >= 19, "{stats:?}");
        // Forged EDRP CDMs rejected by hash, never buffered.
        assert!(stats.cdm_rejected_by_hash > 150, "{stats:?}");
        assert_eq!(stats.cdm_buffered, 0, "{stats:?}");
        assert!(node.receiver().inner().stats().low_authenticated >= 75);
    }

    #[test]
    fn bursty_cdm_loss_recovered_through_linkage() {
        // A Gilbert-Elliott channel wipes out whole stretches of CDMs;
        // EFTP's chain recovery keeps the data flowing.
        let p = params(Linkage::Eftp);
        let sender = MultiLevelSender::new(b"net-burst", p);
        let bootstrap = sender.bootstrap();
        let mut net: Network<MlNet> = Network::new(3);
        net.add_node(
            MlSenderNode::multilevel(sender, 1, b"m".to_vec()),
            ChannelModel::perfect(),
        );
        let rx = net.add_node(
            MlReceiverNode::new(MultiLevelReceiver::new(bootstrap)),
            // Bad state loses everything; dwell ~5 frames.
            ChannelModel::perfect().with_burst_loss(0.05, 0.2, 1.0),
        );
        net.run_until(SimTime(22 * 100));
        let node = net.node_as::<MlReceiverNode>(rx).unwrap();
        let stats = node.receiver().stats();
        assert!(
            stats.chain_recoveries > 0 || stats.cdm_authenticated >= 18,
            "burst loss should trigger recoveries or be absorbed: {stats:?}"
        );
        // Data still flows despite the bursts.
        assert!(stats.low_authenticated > 30, "{stats:?}");
        assert_eq!(stats.low_rejected, 0);
    }

    #[test]
    fn flooded_multilevel_loses_cdms_but_recovers_chains() {
        let p = params(Linkage::Eftp);
        let sender = MultiLevelSender::new(b"net-flood", p);
        let bootstrap = sender.bootstrap();
        let mut net: Network<MlNet> = Network::new(4);
        net.add_node(
            MlSenderNode::multilevel(sender, 1, b"m".to_vec()),
            ChannelModel::perfect(),
        );
        net.add_node(CdmFloodAttacker::new(p, 20), ChannelModel::perfect());
        let rx = net.add_node(
            MlReceiverNode::new(MultiLevelReceiver::new(bootstrap)),
            ChannelModel::perfect(),
        );
        net.run_until(SimTime(22 * 100));
        let node = net.node_as::<MlReceiverNode>(rx).unwrap();
        let stats = node.receiver().stats();
        // The flood crowds genuine CDMs out of the 3-buffer pool...
        assert!(stats.cdm_authenticated < 15, "{stats:?}");
        // ...but the F01 linkage recovers the missing chains and data
        // still authenticates.
        assert!(stats.chain_recoveries > 0, "{stats:?}");
        assert!(stats.low_authenticated > 60, "{stats:?}");
    }

    #[test]
    fn frame_sizes_cover_all_variants() {
        let p = params(Linkage::Eftp);
        let sender = MultiLevelSender::new(b"sz", p);
        let cdm = sender.cdm(2).unwrap();
        assert!(MlNet::Cdm(cdm).size_bits() > 0);
        let esender = EdrpSender::new(b"sz", p);
        assert!(MlNet::EdrpCdm(esender.cdm(2).unwrap().clone()).size_bits() > 0);
        let pkt = sender.data_packet(1, 1, b"abc").unwrap();
        assert_eq!(MlNet::Low(pkt).size_bits(), 24 + 80 + 64);
        let d = sender.low_disclosure(1, 2).unwrap();
        assert_eq!(MlNet::LowKey(d).size_bits(), 80 + 64);
    }
}
