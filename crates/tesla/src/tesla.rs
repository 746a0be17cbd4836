//! TESLA (Perrig, Canetti, Tygar, Song — IEEE S&P 2000).
//!
//! Every packet of interval `I_i` carries `(i, M, MAC_{K'_i}(M))` plus the
//! key disclosed for interval `i − d`. Receivers buffer whole packets
//! (message + MAC — the 280-bit entry the paper's Fig. 5 charges TESLA-
//! style protocols for) until the key arrives, then authenticate.
//!
//! TESLA tolerates packet loss through the one-way chain: any later key
//! recovers all earlier ones (`K_i = F(K_{i+1})`), so losing disclosures
//! only delays authentication. What TESLA does *not* resist is
//! memory-based DoS — its receivers buffer everything that passes the
//! safe-packet test — which is the weakness the rest of this workspace
//! is about.

use dap_crypto::mac::{mac80, verify_mac80};
use dap_crypto::oneway::Domain;
use dap_crypto::{ChainExhausted, Key, KeyChain, Mac80};
use dap_simnet::SimTime;

use crate::params::TeslaParams;

/// A key disclosed inside a data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisclosedKey {
    /// Interval the key belongs to.
    pub index: u64,
    /// The key itself.
    pub key: Key,
}

/// One TESLA data packet.
#[derive(Debug, Clone, PartialEq)]
pub struct TeslaPacket {
    /// Interval the packet belongs to (the MAC key's index).
    pub index: u64,
    /// Application payload.
    pub message: Vec<u8>,
    /// `MAC_{K'_index}(message)`.
    pub mac: Mac80,
    /// The key of `d` intervals ago, once one exists.
    pub disclosed: Option<DisclosedKey>,
}

impl TeslaPacket {
    /// Airtime size in bits: message + MAC + index (+ key when present).
    #[must_use]
    pub fn size_bits(&self) -> u32 {
        let mut bits = (self.message.len() as u32) * 8
            + dap_crypto::sizes::MAC_BITS
            + dap_crypto::sizes::INDEX_BITS;
        if self.disclosed.is_some() {
            bits += dap_crypto::sizes::KEY_BITS + dap_crypto::sizes::INDEX_BITS;
        }
        bits
    }
}

/// What receivers need to bootstrap: the chain commitment and the
/// protocol parameters. Distributed out of band (in μTESLA, via a
/// pre-shared master secret with the base station).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bootstrap {
    /// The chain commitment `K_0`.
    pub commitment: Key,
    /// Protocol parameters (interval grid, `d`, `Δ`).
    pub params: TeslaParams,
}

/// The broadcasting side.
///
/// ```
/// use dap_simnet::{SimDuration, SimTime};
/// use dap_tesla::tesla::{TeslaReceiver, TeslaSender};
/// use dap_tesla::TeslaParams;
///
/// let params = TeslaParams::new(SimDuration(100), 2, 0);
/// let sender = TeslaSender::new(b"secret", 32, params);
/// let mut receiver = TeslaReceiver::new(sender.bootstrap());
///
/// receiver.on_packet(&sender.packet(1, b"hello").unwrap(), SimTime(10));
/// // Interval 3's packet discloses K_1 and authenticates interval 1.
/// let events = receiver.on_packet(&sender.packet(3, b"later").unwrap(), SimTime(210));
/// assert!(!events.is_empty());
/// assert_eq!(receiver.authenticated().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TeslaSender {
    chain: KeyChain,
    params: TeslaParams,
}

impl TeslaSender {
    /// Creates a sender with a fresh chain of `chain_len` keys derived
    /// from `seed`.
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

    /// The receiver bootstrap record.
    #[must_use]
    pub fn bootstrap(&self) -> Bootstrap {
        Bootstrap {
            commitment: *self.chain.commitment(),
            params: self.params,
        }
    }

    /// The sender's interval at (its own) time `now`.
    #[must_use]
    pub fn interval_at(&self, now: SimTime) -> u64 {
        self.params.schedule.index_at(now)
    }

    /// Number of usable chain keys (= last usable interval).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.chain.len() as u64
    }

    /// Builds the packet for `message` in interval `index`, attaching the
    /// key for `index − d` when it exists.
    ///
    /// # Errors
    ///
    /// Returns [`ChainExhausted`] when `index` lies beyond the chain
    /// horizon — the operational end of this sender's key chain.
    pub fn packet(&self, index: u64, message: &[u8]) -> Result<TeslaPacket, ChainExhausted> {
        let horizon = self.horizon();
        let key = self
            .chain
            .key(index as usize)
            .ok_or(ChainExhausted { index, horizon })?;
        let disclosed = index
            .checked_sub(self.params.disclosure_delay)
            .filter(|i| *i >= 1)
            .map(|i| DisclosedKey {
                index: i,
                key: *self.chain.key(i as usize).expect("earlier key exists"),
            });
        Ok(TeslaPacket {
            index,
            message: message.to_vec(),
            mac: mac80(key, message),
            disclosed,
        })
    }
}

/// Events emitted by the receiver while processing a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiverEvent {
    /// A buffered message verified against a disclosed key.
    Authenticated {
        /// Interval of the authenticated message.
        index: u64,
        /// The now-trusted payload.
        message: Vec<u8>,
    },
    /// A buffered message failed MAC verification — forged or corrupted.
    RejectedMac {
        /// Claimed interval of the rejected message.
        index: u64,
    },
    /// The packet failed the safe-packet test and was never buffered.
    DiscardedUnsafe {
        /// Claimed interval.
        index: u64,
    },
    /// A disclosed key was verified against the chain and the anchor
    /// advanced.
    KeyAccepted {
        /// Interval of the accepted key.
        index: u64,
        /// One-way steps walked (`> 1` means lost disclosures were
        /// recovered through the chain).
        steps: u64,
    },
    /// A disclosed key failed chain verification.
    KeyRejected {
        /// Claimed interval of the bogus key.
        index: u64,
    },
}

#[derive(Debug, Clone)]
struct BufferedPacket {
    index: u64,
    message: Vec<u8>,
    mac: Mac80,
}

/// The receiving side: buffers safe packets, advances the chain anchor on
/// disclosures, authenticates retro-actively.
#[derive(Debug, Clone)]
pub struct TeslaReceiver {
    anchor: dap_crypto::ChainAnchor,
    params: TeslaParams,
    buffer: Vec<BufferedPacket>,
    authenticated: Vec<(u64, Vec<u8>)>,
}

impl TeslaReceiver {
    /// Bootstraps a receiver from the sender's commitment.
    #[must_use]
    pub fn new(bootstrap: Bootstrap) -> Self {
        Self {
            anchor: dap_crypto::ChainAnchor::new(bootstrap.commitment, 0, Domain::F),
            params: bootstrap.params,
            buffer: Vec::new(),
            authenticated: Vec::new(),
        }
    }

    /// Processes one received packet at local clock `local_time`.
    pub fn on_packet(&mut self, packet: &TeslaPacket, local_time: SimTime) -> Vec<ReceiverEvent> {
        let mut events = Vec::new();

        // 1. Safe-packet test: buffer only if the key cannot be out yet.
        if self.params.safety().is_safe(packet.index, local_time) {
            self.buffer.push(BufferedPacket {
                index: packet.index,
                message: packet.message.clone(),
                mac: packet.mac,
            });
        } else {
            events.push(ReceiverEvent::DiscardedUnsafe {
                index: packet.index,
            });
        }

        // 2. Key disclosure: advance the anchor, then drain the buffer.
        if let Some(disclosed) = &packet.disclosed {
            match self.anchor.accept(&disclosed.key, disclosed.index) {
                Ok(steps) => {
                    events.push(ReceiverEvent::KeyAccepted {
                        index: disclosed.index,
                        steps,
                    });
                    self.drain_verifiable(&mut events);
                }
                Err(dap_crypto::ChainVerifyError::NotAhead { .. }) => {
                    // Re-disclosure of an already known key: harmless.
                }
                Err(_) => {
                    events.push(ReceiverEvent::KeyRejected {
                        index: disclosed.index,
                    });
                }
            }
        }
        events
    }

    /// Authenticates every buffered packet whose key is now derivable
    /// from the anchor.
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

    /// Messages authenticated so far, in verification order.
    #[must_use]
    pub fn authenticated(&self) -> &[(u64, Vec<u8>)] {
        &self.authenticated
    }

    /// Packets currently awaiting key disclosure.
    #[must_use]
    pub fn buffered_count(&self) -> usize {
        self.buffer.len()
    }

    /// Receiver memory consumed by the buffer, in bits, using the paper's
    /// accounting (message + MAC per entry; the index is charged to DAP's
    /// 56-bit entries in Fig. 4, so it is included here too for parity).
    #[must_use]
    pub fn buffered_bits(&self) -> u64 {
        self.buffer
            .iter()
            .map(|p| {
                (p.message.len() as u64) * 8
                    + u64::from(dap_crypto::sizes::MAC_BITS)
                    + u64::from(dap_crypto::sizes::INDEX_BITS)
            })
            .sum()
    }

    /// The current chain anchor index (latest authenticated interval key).
    #[must_use]
    pub fn anchor_index(&self) -> u64 {
        self.anchor.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_simnet::SimDuration;

    fn params() -> TeslaParams {
        TeslaParams::new(SimDuration(100), 2, 0)
    }

    fn setup() -> (TeslaSender, TeslaReceiver) {
        let sender = TeslaSender::new(b"sender", 64, params());
        let receiver = TeslaReceiver::new(sender.bootstrap());
        (sender, receiver)
    }

    /// Local time inside interval `i`.
    fn during(i: u64) -> SimTime {
        SimTime((i - 1) * 100 + 10)
    }

    #[test]
    fn happy_path_authenticates_after_d_intervals() {
        let (sender, mut receiver) = setup();
        let p1 = sender.packet(1, b"hello").unwrap();
        assert!(receiver.on_packet(&p1, during(1)).is_empty());
        assert_eq!(receiver.buffered_count(), 1);

        // Interval 3 packet discloses K_1 → authenticates the buffered one.
        let p3 = sender.packet(3, b"later").unwrap();
        let events = receiver.on_packet(&p3, during(3));
        assert!(events.contains(&ReceiverEvent::KeyAccepted { index: 1, steps: 1 }));
        assert!(events
            .iter()
            .any(|e| matches!(e, ReceiverEvent::Authenticated { index: 1, .. })));
        assert_eq!(receiver.authenticated().len(), 1);
        assert_eq!(&receiver.authenticated()[0].1[..], b"hello");
    }

    #[test]
    fn late_packet_is_discarded_unsafe() {
        let (sender, mut receiver) = setup();
        let p1 = sender.packet(1, b"stale").unwrap();
        // Received during interval 3: K_1 is being disclosed — unsafe.
        let events = receiver.on_packet(&p1, during(3));
        assert_eq!(events, vec![ReceiverEvent::DiscardedUnsafe { index: 1 }]);
        assert_eq!(receiver.buffered_count(), 0);
    }

    #[test]
    fn forged_mac_is_rejected_at_disclosure() {
        let (sender, mut receiver) = setup();
        let mut forged = sender.packet(1, b"real").unwrap();
        forged.message = b"fake".to_vec();
        receiver.on_packet(&forged, during(1));

        let p3 = sender.packet(3, b"later").unwrap();
        let events = receiver.on_packet(&p3, during(3));
        assert!(events.contains(&ReceiverEvent::RejectedMac { index: 1 }));
        assert!(receiver.authenticated().is_empty());
    }

    #[test]
    fn forged_key_is_rejected() {
        let (sender, mut receiver) = setup();
        let mut packet = sender.packet(3, b"x").unwrap();
        let mut rng = dap_simnet::SimRng::new(1);
        packet.disclosed = Some(DisclosedKey {
            index: 1,
            key: Key::random(&mut rng),
        });
        let events = receiver.on_packet(&packet, during(3));
        assert!(events.contains(&ReceiverEvent::KeyRejected { index: 1 }));
        assert_eq!(receiver.anchor_index(), 0);
    }

    #[test]
    fn lost_disclosures_recovered_through_chain() {
        let (sender, mut receiver) = setup();
        let p1 = sender.packet(1, b"m1").unwrap();
        let p2 = sender.packet(2, b"m2").unwrap();
        receiver.on_packet(&p1, during(1));
        receiver.on_packet(&p2, during(2));
        // Packets of intervals 3 and 4 (disclosing K_1, K_2) all lost.
        // A packet from interval 5 disclosing K_3 recovers everything.
        let p5 = sender.packet(5, b"m5").unwrap();
        let events = receiver.on_packet(&p5, during(5));
        assert!(events.contains(&ReceiverEvent::KeyAccepted { index: 3, steps: 3 }));
        let authed: Vec<u64> = receiver.authenticated().iter().map(|(i, _)| *i).collect();
        assert_eq!(authed, vec![1, 2]);
    }

    #[test]
    fn duplicate_disclosure_is_harmless() {
        let (sender, mut receiver) = setup();
        let p3 = sender.packet(3, b"a").unwrap();
        receiver.on_packet(&p3, during(3));
        let events = receiver.on_packet(&p3, during(3));
        // Second copy: key already known (NotAhead) — no rejection event.
        assert!(!events
            .iter()
            .any(|e| matches!(e, ReceiverEvent::KeyRejected { .. })));
    }

    #[test]
    fn no_disclosure_in_first_d_intervals() {
        let (sender, _) = setup();
        assert!(sender.packet(1, b"a").unwrap().disclosed.is_none());
        assert!(sender.packet(2, b"b").unwrap().disclosed.is_none());
        let p3 = sender.packet(3, b"c").unwrap();
        assert_eq!(p3.disclosed.unwrap().index, 1);
    }

    #[test]
    fn buffered_bits_accounting() {
        let (sender, mut receiver) = setup();
        // 25-byte message = 200 bits → entry = 200 + 80 + 32 = 312 bits.
        let p1 = sender.packet(1, &[0u8; 25]).unwrap();
        receiver.on_packet(&p1, during(1));
        assert_eq!(receiver.buffered_bits(), 312);
    }

    #[test]
    fn packet_size_bits() {
        let (sender, _) = setup();
        let p1 = sender.packet(1, &[0u8; 25]).unwrap();
        assert_eq!(p1.size_bits(), 200 + 80 + 32);
        let p3 = sender.packet(3, &[0u8; 25]).unwrap();
        assert_eq!(p3.size_bits(), 200 + 80 + 32 + 80 + 32);
    }

    #[test]
    fn packet_beyond_horizon_is_typed_error() {
        let (sender, _) = setup();
        assert_eq!(
            sender.packet(65, b"x").unwrap_err(),
            ChainExhausted {
                index: 65,
                horizon: 64
            }
        );
    }

    #[test]
    fn authenticated_messages_are_exactly_the_senders() {
        // Security invariant: everything in `authenticated()` was MAC'd by
        // the sender for that interval.
        let (sender, mut receiver) = setup();
        let mut sent = Vec::new();
        for i in 1..=10u64 {
            let msg = format!("reading {i}");
            sent.push((i, msg.clone()));
            let p = sender.packet(i, msg.as_bytes()).unwrap();
            receiver.on_packet(&p, during(i));
        }
        for (idx, msg) in receiver.authenticated() {
            let original = &sent[(*idx - 1) as usize];
            assert_eq!(*idx, original.0);
            assert_eq!(&msg[..], original.1.as_bytes());
        }
        // Intervals 1..=8 have had their keys disclosed by interval 10.
        assert_eq!(receiver.authenticated().len(), 8);
    }
}
