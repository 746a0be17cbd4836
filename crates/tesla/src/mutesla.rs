//! μTESLA (SPINS — Perrig, Szewczyk, Tygar, Wen, Culler, 2002).
//!
//! μTESLA adapts TESLA to severely constrained sensor networks with two
//! changes:
//!
//! 1. **symmetric bootstrap** — the chain commitment reaches each node
//!    through a key shared with the base station instead of a digital
//!    signature (modelled here by constructing the receiver directly from
//!    the [`crate::tesla::Bootstrap`] record);
//! 2. **one disclosure per interval** — instead of repeating a key in
//!    every packet, the sender broadcasts a single
//!    [`MuTeslaMessage::KeyDisclosure`] per interval, saving bandwidth.
//!
//! The receiver logic is otherwise TESLA's; packet-loss recovery through
//! the one-way chain carries over unchanged.

use dap_crypto::mac::{mac80, verify_mac80};
use dap_crypto::oneway::Domain;
use dap_crypto::{ChainAnchor, ChainExhausted, Key, KeyChain, Mac80};
use dap_simnet::SimTime;

use crate::params::TeslaParams;
use crate::tesla::{Bootstrap, ReceiverEvent};

/// Wire messages of μTESLA.
#[derive(Debug, Clone, PartialEq)]
pub enum MuTeslaMessage {
    /// An authenticated-later data packet.
    Data(DataPacket),
    /// The once-per-interval key disclosure.
    KeyDisclosure {
        /// Interval the key belongs to.
        index: u64,
        /// The disclosed chain key.
        key: Key,
    },
}

impl MuTeslaMessage {
    /// Airtime size in bits.
    #[must_use]
    pub fn size_bits(&self) -> u32 {
        match self {
            MuTeslaMessage::Data(d) => {
                (d.message.len() as u32) * 8
                    + dap_crypto::sizes::MAC_BITS
                    + dap_crypto::sizes::INDEX_BITS
            }
            MuTeslaMessage::KeyDisclosure { .. } => {
                dap_crypto::sizes::KEY_BITS + dap_crypto::sizes::INDEX_BITS
            }
        }
    }
}

/// A μTESLA data packet: `(i, M, MAC_{K'_i}(M))` — no embedded key.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// Interval index.
    pub index: u64,
    /// Payload.
    pub message: Vec<u8>,
    /// `MAC_{K'_i}(message)`.
    pub mac: Mac80,
}

/// The base-station side.
///
/// ```
/// use dap_simnet::{SimDuration, SimTime};
/// use dap_tesla::mutesla::{MuTeslaReceiver, MuTeslaSender};
/// use dap_tesla::TeslaParams;
///
/// let params = TeslaParams::new(SimDuration(100), 1, 0);
/// let sender = MuTeslaSender::new(b"bs", 32, params);
/// let mut receiver = MuTeslaReceiver::new(sender.bootstrap());
///
/// receiver.on_message(&sender.data(1, b"m").unwrap(), SimTime(10));
/// receiver.on_message(&sender.disclosure(2).unwrap(), SimTime(110));
/// assert_eq!(receiver.authenticated().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MuTeslaSender {
    chain: KeyChain,
    params: TeslaParams,
}

impl MuTeslaSender {
    /// Creates a sender with a chain of `chain_len` keys.
    ///
    /// # Panics
    ///
    /// Panics if `chain_len == 0`.
    #[must_use]
    pub fn new(seed: &[u8], chain_len: usize, params: TeslaParams) -> Self {
        Self {
            chain: KeyChain::generate(seed, chain_len, Domain::F),
            params,
        }
    }

    /// The bootstrap record (distributed via the pre-shared node key in
    /// real SPINS deployments).
    #[must_use]
    pub fn bootstrap(&self) -> Bootstrap {
        Bootstrap {
            commitment: *self.chain.commitment(),
            params: self.params,
        }
    }

    /// Builds the data packet for interval `index`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainExhausted`] when `index` lies beyond the chain
    /// horizon — the operational end of this sender's key chain.
    pub fn data(&self, index: u64, message: &[u8]) -> Result<MuTeslaMessage, ChainExhausted> {
        let horizon = self.chain.len() as u64;
        let key = self
            .chain
            .key(index as usize)
            .ok_or(ChainExhausted { index, horizon })?;
        Ok(MuTeslaMessage::Data(DataPacket {
            index,
            message: message.to_vec(),
            mac: mac80(key, message),
        }))
    }

    /// The disclosure message to broadcast during interval
    /// `current_interval`, i.e. the key of `current_interval − d`;
    /// `None` during the first `d` intervals.
    #[must_use]
    pub fn disclosure(&self, current_interval: u64) -> Option<MuTeslaMessage> {
        let index = current_interval.checked_sub(self.params.disclosure_delay)?;
        if index == 0 {
            return None;
        }
        let key = *self.chain.key(index as usize)?;
        Some(MuTeslaMessage::KeyDisclosure { index, key })
    }
}

/// A bootstrap request from a node to the base station (SPINS §"
/// bootstrapping a new receiver": the node sends a nonce; the response is
/// MACed under the key it already shares with the base station).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapRequest {
    /// Freshness nonce chosen by the node.
    pub nonce: u64,
}

/// The base station's authenticated bootstrap response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapResponse {
    /// The chain commitment `K_0`.
    pub commitment: Key,
    /// Interval length in ticks.
    pub interval_ticks: u64,
    /// Disclosure delay `d`.
    pub disclosure_delay: u64,
    /// Synchronisation bound `Δ`.
    pub max_clock_offset: u64,
    /// `MAC_{K_node}(nonce | commitment | params)`.
    pub mac: Mac80,
}

impl BootstrapResponse {
    fn mac_input(nonce: u64, commitment: &Key, params: &TeslaParams) -> Vec<u8> {
        let mut input = Vec::with_capacity(8 + Key::LEN + 24);
        input.extend_from_slice(&nonce.to_be_bytes());
        input.extend_from_slice(commitment.as_bytes());
        input.extend_from_slice(&params.schedule.interval().ticks().to_be_bytes());
        input.extend_from_slice(&params.disclosure_delay.to_be_bytes());
        input.extend_from_slice(&params.max_clock_offset.to_be_bytes());
        input
    }
}

impl MuTeslaSender {
    /// Answers a node's bootstrap request, authenticating the commitment
    /// and parameters under the key shared with that node (`node_key`).
    #[must_use]
    pub fn answer_bootstrap(
        &self,
        node_key: &Key,
        request: &BootstrapRequest,
    ) -> BootstrapResponse {
        let commitment = *self.chain.commitment();
        let input = BootstrapResponse::mac_input(request.nonce, &commitment, &self.params);
        BootstrapResponse {
            commitment,
            interval_ticks: self.params.schedule.interval().ticks(),
            disclosure_delay: self.params.disclosure_delay,
            max_clock_offset: self.params.max_clock_offset,
            mac: mac80(node_key, &input),
        }
    }
}

/// Verifies a bootstrap response against the node's shared key and the
/// nonce it sent; yields a ready [`Bootstrap`] on success, `None` when
/// the MAC does not bind this nonce/commitment/parameter combination
/// (tampering or a replay of another node's bootstrap).
#[must_use]
pub fn verify_bootstrap(
    node_key: &Key,
    sent_nonce: u64,
    response: &BootstrapResponse,
) -> Option<Bootstrap> {
    if response.interval_ticks == 0 || response.disclosure_delay == 0 {
        return None;
    }
    let params = TeslaParams::new(
        dap_simnet::SimDuration(response.interval_ticks),
        response.disclosure_delay,
        response.max_clock_offset,
    );
    let input = BootstrapResponse::mac_input(sent_nonce, &response.commitment, &params);
    if dap_crypto::mac::verify_mac80(node_key, &input, &response.mac) {
        Some(Bootstrap {
            commitment: response.commitment,
            params,
        })
    } else {
        None
    }
}

/// A μTESLA receiver node.
#[derive(Debug, Clone)]
pub struct MuTeslaReceiver {
    anchor: ChainAnchor,
    params: TeslaParams,
    buffer: Vec<DataPacket>,
    authenticated: Vec<(u64, Vec<u8>)>,
}

impl MuTeslaReceiver {
    /// Bootstraps from the base station's commitment.
    #[must_use]
    pub fn new(bootstrap: Bootstrap) -> Self {
        Self {
            anchor: ChainAnchor::new(bootstrap.commitment, 0, Domain::F),
            params: bootstrap.params,
            buffer: Vec::new(),
            authenticated: Vec::new(),
        }
    }

    /// Handles any μTESLA message at local clock `local_time`.
    pub fn on_message(
        &mut self,
        message: &MuTeslaMessage,
        local_time: SimTime,
    ) -> Vec<ReceiverEvent> {
        match message {
            MuTeslaMessage::Data(d) => self.on_data(d, local_time),
            MuTeslaMessage::KeyDisclosure { index, key } => self.on_disclosure(*index, key),
        }
    }

    fn on_data(&mut self, packet: &DataPacket, local_time: SimTime) -> Vec<ReceiverEvent> {
        if self.params.safety().is_safe(packet.index, local_time) {
            self.buffer.push(packet.clone());
            Vec::new()
        } else {
            vec![ReceiverEvent::DiscardedUnsafe {
                index: packet.index,
            }]
        }
    }

    fn on_disclosure(&mut self, index: u64, key: &Key) -> Vec<ReceiverEvent> {
        let mut events = Vec::new();
        match self.anchor.accept(key, index) {
            Ok(steps) => {
                events.push(ReceiverEvent::KeyAccepted { index, steps });
                self.drain_verifiable(&mut events);
            }
            Err(dap_crypto::ChainVerifyError::NotAhead { .. }) => {}
            Err(_) => events.push(ReceiverEvent::KeyRejected { index }),
        }
        events
    }

    fn drain_verifiable(&mut self, events: &mut Vec<ReceiverEvent>) {
        let mut kept = Vec::with_capacity(self.buffer.len());
        for pkt in self.buffer.drain(..) {
            let Some(key) = self.anchor.key_at(pkt.index) else {
                kept.push(pkt);
                continue;
            };
            if verify_mac80(&key, &pkt.message, &pkt.mac) {
                self.authenticated.push((pkt.index, pkt.message.clone()));
                events.push(ReceiverEvent::Authenticated {
                    index: pkt.index,
                    message: pkt.message,
                });
            } else {
                events.push(ReceiverEvent::RejectedMac { index: pkt.index });
            }
        }
        self.buffer = kept;
    }

    /// Messages authenticated so far.
    #[must_use]
    pub fn authenticated(&self) -> &[(u64, Vec<u8>)] {
        &self.authenticated
    }

    /// Packets awaiting disclosure.
    #[must_use]
    pub fn buffered_count(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_simnet::SimDuration;

    fn setup() -> (MuTeslaSender, MuTeslaReceiver) {
        let params = TeslaParams::new(SimDuration(100), 1, 0);
        let sender = MuTeslaSender::new(b"bs", 32, params);
        let receiver = MuTeslaReceiver::new(sender.bootstrap());
        (sender, receiver)
    }

    fn during(i: u64) -> SimTime {
        SimTime((i - 1) * 100 + 10)
    }

    #[test]
    fn data_then_disclosure_authenticates() {
        let (sender, mut receiver) = setup();
        receiver.on_message(&sender.data(1, b"temp=20").unwrap(), during(1));
        let disc = sender.disclosure(2).unwrap();
        let events = receiver.on_message(&disc, during(2));
        assert!(events
            .iter()
            .any(|e| matches!(e, ReceiverEvent::Authenticated { index: 1, .. })));
        assert_eq!(receiver.authenticated().len(), 1);
    }

    #[test]
    fn disclosure_is_once_per_interval_and_lagged() {
        let (sender, _) = setup();
        assert!(sender.disclosure(1).is_none());
        match sender.disclosure(5).unwrap() {
            MuTeslaMessage::KeyDisclosure { index, .. } => assert_eq!(index, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lost_disclosures_recovered() {
        let (sender, mut receiver) = setup();
        receiver.on_message(&sender.data(1, b"a").unwrap(), during(1));
        receiver.on_message(&sender.data(2, b"b").unwrap(), during(2));
        // Disclosures for intervals 1..3 lost; the one for interval 4 has
        // everything.
        let disc = sender.disclosure(5).unwrap();
        let events = receiver.on_message(&disc, during(5));
        assert!(events.contains(&ReceiverEvent::KeyAccepted { index: 4, steps: 4 }));
        assert_eq!(receiver.authenticated().len(), 2);
        assert_eq!(receiver.buffered_count(), 0);
    }

    #[test]
    fn late_data_discarded() {
        let (sender, mut receiver) = setup();
        let events = receiver.on_message(&sender.data(1, b"late").unwrap(), during(2));
        assert_eq!(events, vec![ReceiverEvent::DiscardedUnsafe { index: 1 }]);
    }

    #[test]
    fn forged_disclosure_rejected() {
        let (_, mut receiver) = setup();
        let mut rng = dap_simnet::SimRng::new(2);
        let events = receiver.on_message(
            &MuTeslaMessage::KeyDisclosure {
                index: 1,
                key: Key::random(&mut rng),
            },
            during(2),
        );
        assert_eq!(events, vec![ReceiverEvent::KeyRejected { index: 1 }]);
    }

    #[test]
    fn forged_data_rejected_on_disclosure() {
        let (sender, mut receiver) = setup();
        let forged = MuTeslaMessage::Data(DataPacket {
            index: 1,
            message: b"evil".to_vec(),
            mac: Mac80::from_slice(&[0u8; 10]).unwrap(),
        });
        receiver.on_message(&forged, during(1));
        let events = receiver.on_message(&sender.disclosure(2).unwrap(), during(2));
        assert!(events.contains(&ReceiverEvent::RejectedMac { index: 1 }));
        assert!(receiver.authenticated().is_empty());
    }

    #[test]
    fn sizes_are_smaller_than_tesla_packets() {
        let (sender, _) = setup();
        let data = sender.data(1, &[0u8; 25]).unwrap();
        // 200-bit message: no embedded key → 312 bits.
        assert_eq!(data.size_bits(), 312);
        let disc = sender.disclosure(3).unwrap();
        assert_eq!(disc.size_bits(), 112);
    }

    #[test]
    fn disclosure_beyond_chain_is_none() {
        let (sender, _) = setup();
        assert!(sender.disclosure(100).is_none());
    }

    #[test]
    fn data_beyond_horizon_is_typed_error() {
        let (sender, _) = setup();
        assert_eq!(
            sender.data(33, b"x").unwrap_err(),
            ChainExhausted {
                index: 33,
                horizon: 32
            }
        );
    }

    #[test]
    fn bootstrap_roundtrip_authenticates_and_works() {
        let (sender, _) = setup();
        let node_key = Key::derive(b"spins/node", b"node-9");
        let request = BootstrapRequest { nonce: 0xfeed };
        let response = sender.answer_bootstrap(&node_key, &request);
        let bootstrap = verify_bootstrap(&node_key, 0xfeed, &response).expect("genuine");
        // The bootstrapped receiver authenticates real traffic.
        let mut receiver = MuTeslaReceiver::new(bootstrap);
        receiver.on_message(&sender.data(1, b"hello").unwrap(), during(1));
        receiver.on_message(&sender.disclosure(2).unwrap(), during(2));
        assert_eq!(receiver.authenticated().len(), 1);
    }

    #[test]
    fn bootstrap_rejects_wrong_nonce() {
        let (sender, _) = setup();
        let node_key = Key::derive(b"spins/node", b"node-9");
        let response = sender.answer_bootstrap(&node_key, &BootstrapRequest { nonce: 1 });
        assert!(verify_bootstrap(&node_key, 2, &response).is_none());
    }

    #[test]
    fn bootstrap_rejects_wrong_node_key() {
        let (sender, _) = setup();
        let node_key = Key::derive(b"spins/node", b"node-9");
        let other_key = Key::derive(b"spins/node", b"node-10");
        let response = sender.answer_bootstrap(&node_key, &BootstrapRequest { nonce: 1 });
        assert!(verify_bootstrap(&other_key, 1, &response).is_none());
    }

    #[test]
    fn bootstrap_rejects_tampered_fields() {
        let (sender, _) = setup();
        let node_key = Key::derive(b"spins/node", b"node-9");
        let genuine = sender.answer_bootstrap(&node_key, &BootstrapRequest { nonce: 7 });

        let mut bad_commit = genuine;
        bad_commit.commitment = Key::derive(b"evil", b"c");
        assert!(verify_bootstrap(&node_key, 7, &bad_commit).is_none());

        let mut bad_delay = genuine;
        bad_delay.disclosure_delay = 9; // weaker safety window
        assert!(verify_bootstrap(&node_key, 7, &bad_delay).is_none());

        let mut zeroed = genuine;
        zeroed.interval_ticks = 0;
        assert!(verify_bootstrap(&node_key, 7, &zeroed).is_none());
    }
}
