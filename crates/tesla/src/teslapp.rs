//! TESLA++ (Studer, Bai, Bellur, Perrig — JCN 2009), symmetric part.
//!
//! TESLA++ inverts TESLA's packet layout to shrink the receiver's DoS
//! attack surface: the sender first broadcasts only `(i, MAC_i)`; the
//! message and key follow one interval later. A receiver never stores the
//! (large) message before it is verifiable — it stores a *self-MAC* of
//! the received MAC computed under a receiver-local secret, plus the
//! index.
//!
//! The paper under reproduction uses TESLA++ as the storage baseline of
//! Fig. 5, charging it `s₁ = 280` bits per buffered packet (a
//! message+MAC-sized record). Our implementation stores the 80-bit
//! self-MAC + 32-bit index = 112 bits; both numbers are exposed
//! ([`TeslaPpReceiver::stored_bits`] vs
//! [`PAPER_STORED_BITS_PER_ENTRY`]) and the Fig.-5 harness prints the
//! comparison under both accountings.
//!
//! (Real TESLA++ adds an ECDSA signature path for non-repudiation; the
//! paper's comparison never touches it, so it is out of scope — see
//! DESIGN.md §4.)

use dap_crypto::mac::{mac80, Mac80};
use dap_crypto::oneway::Domain;
use dap_crypto::{ChainAnchor, ChainExhausted, Key, KeyChain, PreparedMacKey};
use dap_simnet::SimTime;

use crate::params::TeslaParams;
use crate::tesla::Bootstrap;

/// Storage the paper's Fig. 5 charges TESLA++ per buffered packet.
pub const PAPER_STORED_BITS_PER_ENTRY: u32 = dap_crypto::sizes::TESLA_BUFFER_ENTRY_BITS;

/// Bits this implementation actually stores per buffered packet:
/// 80-bit self-MAC + 32-bit index.
pub const STORED_BITS_PER_ENTRY: u32 = dap_crypto::sizes::MAC_BITS + dap_crypto::sizes::INDEX_BITS;

/// TESLA++ wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum TeslaPpMessage {
    /// Phase 1: the MAC announcement `(i, MAC_i)`.
    MacAnnounce {
        /// Interval index.
        index: u64,
        /// `MAC_{K'_i}(M_i)`.
        mac: Mac80,
    },
    /// Phase 2: the reveal `(i, M_i, K_i)` one interval later.
    Reveal {
        /// Interval index.
        index: u64,
        /// The message.
        message: Vec<u8>,
        /// The now-disclosed key.
        key: Key,
    },
}

impl TeslaPpMessage {
    /// The interval index carried by either message kind — what a
    /// transport needs for routing without matching on the variant.
    #[must_use]
    pub fn index(&self) -> u64 {
        match self {
            TeslaPpMessage::MacAnnounce { index, .. } | TeslaPpMessage::Reveal { index, .. } => {
                *index
            }
        }
    }

    /// Airtime size in bits.
    #[must_use]
    pub fn size_bits(&self) -> u32 {
        match self {
            TeslaPpMessage::MacAnnounce { .. } => {
                dap_crypto::sizes::MAC_BITS + dap_crypto::sizes::INDEX_BITS
            }
            TeslaPpMessage::Reveal { message, .. } => {
                (message.len() as u32) * 8
                    + dap_crypto::sizes::KEY_BITS
                    + dap_crypto::sizes::INDEX_BITS
            }
        }
    }
}

/// The broadcasting side.
#[derive(Debug, Clone)]
pub struct TeslaPpSender {
    chain: KeyChain,
    params: TeslaParams,
    pending: std::collections::BTreeMap<u64, Vec<u8>>,
}

impl TeslaPpSender {
    /// Creates a sender with a `chain_len`-key chain.
    ///
    /// # Panics
    ///
    /// Panics if `chain_len == 0`.
    #[must_use]
    pub fn new(seed: &[u8], chain_len: usize, params: TeslaParams) -> Self {
        Self {
            chain: KeyChain::generate(seed, chain_len, Domain::F),
            params,
            pending: std::collections::BTreeMap::new(),
        }
    }

    /// Receiver bootstrap record.
    #[must_use]
    pub fn bootstrap(&self) -> Bootstrap {
        Bootstrap {
            commitment: *self.chain.commitment(),
            params: self.params,
        }
    }

    /// Phase 1: announce `message` for interval `index` (the message is
    /// retained for the later reveal).
    ///
    /// # Errors
    ///
    /// Returns [`ChainExhausted`] when `index` lies beyond the chain
    /// horizon — the operational end of this sender's key chain.
    pub fn announce(
        &mut self,
        index: u64,
        message: &[u8],
    ) -> Result<TeslaPpMessage, ChainExhausted> {
        let horizon = self.chain.len() as u64;
        let key = self
            .chain
            .key(index as usize)
            .ok_or(ChainExhausted { index, horizon })?;
        let mac = mac80(key, message);
        self.pending.insert(index, message.to_vec());
        Ok(TeslaPpMessage::MacAnnounce { index, mac })
    }

    /// Phase 2: reveal the message and key for a previously announced
    /// interval; `None` if nothing was announced for `index`.
    pub fn reveal(&mut self, index: u64) -> Option<TeslaPpMessage> {
        let message = self.pending.remove(&index)?;
        let key = *self.chain.key(index as usize)?;
        Some(TeslaPpMessage::Reveal {
            index,
            message,
            key,
        })
    }
}

/// Outcome of processing a reveal.
#[derive(Debug, Clone, PartialEq)]
pub enum TeslaPpOutcome {
    /// The message matched a stored self-MAC and the key chain.
    Authenticated {
        /// Interval index.
        index: u64,
        /// The trusted message.
        message: Vec<u8>,
    },
    /// The key failed chain verification (weak authentication).
    KeyRejected {
        /// Claimed interval.
        index: u64,
    },
    /// No stored self-MAC matched (announcement lost or message forged).
    NoMatchingAnnouncement {
        /// Claimed interval.
        index: u64,
    },
    /// The announcement failed the safe-packet test and was dropped.
    AnnouncementUnsafe {
        /// Claimed interval.
        index: u64,
    },
    /// The announcement was stored; nothing to verify yet.
    AnnouncementStored {
        /// Claimed interval.
        index: u64,
    },
}

/// The receiving side.
#[derive(Debug, Clone)]
pub struct TeslaPpReceiver {
    anchor: ChainAnchor,
    params: TeslaParams,
    /// Receiver-local re-MAC secret, HMAC key schedule cached: the
    /// announce flood path self-MACs every incoming tag under it.
    local_key: PreparedMacKey,
    stored: Vec<(u64, Mac80)>,
    authenticated: Vec<(u64, Vec<u8>)>,
    expired: u64,
}

impl TeslaPpReceiver {
    /// Bootstraps a receiver; `local_seed` derives the receiver-local
    /// re-MAC secret (never transmitted).
    #[must_use]
    pub fn new(bootstrap: Bootstrap, local_seed: &[u8]) -> Self {
        Self {
            anchor: ChainAnchor::new(bootstrap.commitment, 0, Domain::F),
            params: bootstrap.params,
            local_key: PreparedMacKey::new(Key::derive(b"teslapp/local", local_seed).as_bytes()),
            stored: Vec::new(),
            authenticated: Vec::new(),
            expired: 0,
        }
    }

    /// The receiver's self-MAC: HMAC of the announced MAC under the local
    /// secret, truncated to 80 bits.
    fn self_mac(&self, mac: &Mac80) -> Mac80 {
        let tag = self.local_key.mac(mac.as_bytes());
        Mac80::from_slice(&tag[..Mac80::LEN]).expect("digest longer than tag")
    }

    /// Handles any TESLA++ message.
    pub fn on_message(&mut self, message: &TeslaPpMessage, local_time: SimTime) -> TeslaPpOutcome {
        self.gc(local_time);
        match message {
            TeslaPpMessage::MacAnnounce { index, mac } => self.on_announce(*index, mac, local_time),
            TeslaPpMessage::Reveal {
                index,
                message,
                key,
            } => self.on_reveal(*index, message, key),
        }
    }

    /// Drops stored self-MACs whose reveal window has long passed (the
    /// reveal is due in interval `i + d`; entries one further interval
    /// overdue can never authenticate). Without this, entries for lost
    /// reveals — and the whole residue of a flood — would accumulate
    /// forever.
    fn gc(&mut self, local_time: SimTime) {
        let safety = self.params.safety();
        let grace = self.params.schedule.interval();
        let cutoff = SimTime(local_time.ticks().saturating_sub(grace.ticks()));
        let before = self.stored.len();
        self.stored
            .retain(|(i, _)| !safety.surely_disclosed(*i, cutoff));
        self.expired += (before - self.stored.len()) as u64;
    }

    /// Stored entries dropped because their reveal never arrived.
    #[must_use]
    pub fn expired_count(&self) -> u64 {
        self.expired
    }

    fn on_announce(&mut self, index: u64, mac: &Mac80, local_time: SimTime) -> TeslaPpOutcome {
        if !self.params.safety().is_safe(index, local_time) {
            return TeslaPpOutcome::AnnouncementUnsafe { index };
        }
        let sm = self.self_mac(mac);
        self.stored.push((index, sm));
        TeslaPpOutcome::AnnouncementStored { index }
    }

    fn on_reveal(&mut self, index: u64, message: &[u8], key: &Key) -> TeslaPpOutcome {
        // Weak authentication: the key must be interval `index`'s chain
        // key, ahead of the anchor or behind it.
        if self.anchor.authenticate(key, index).is_err() {
            return TeslaPpOutcome::KeyRejected { index };
        }
        // Strong authentication: recompute MAC → self-MAC → search store.
        let expect = self.self_mac(&mac80(key, message));
        let before = self.stored.len();
        self.stored
            .retain(|(i, sm)| !(*i == index && *sm == expect));
        if self.stored.len() < before {
            self.authenticated.push((index, message.to_owned()));
            TeslaPpOutcome::Authenticated {
                index,
                message: message.to_owned(),
            }
        } else {
            TeslaPpOutcome::NoMatchingAnnouncement { index }
        }
    }

    /// Messages authenticated so far.
    #[must_use]
    pub fn authenticated(&self) -> &[(u64, Vec<u8>)] {
        &self.authenticated
    }

    /// Stored (unresolved) announcements.
    #[must_use]
    pub fn stored_count(&self) -> usize {
        self.stored.len()
    }

    /// Memory the store actually occupies, in bits.
    #[must_use]
    pub fn stored_bits(&self) -> u64 {
        self.stored.len() as u64 * u64::from(STORED_BITS_PER_ENTRY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_simnet::SimDuration;

    fn setup() -> (TeslaPpSender, TeslaPpReceiver) {
        let params = TeslaParams::new(SimDuration(100), 1, 0);
        let sender = TeslaPpSender::new(b"s", 32, params);
        let receiver = TeslaPpReceiver::new(sender.bootstrap(), b"rx");
        (sender, receiver)
    }

    fn during(i: u64) -> SimTime {
        SimTime((i - 1) * 100 + 10)
    }

    #[test]
    fn announce_then_reveal_authenticates() {
        let (mut sender, mut receiver) = setup();
        let ann = sender.announce(1, b"v2v alert").unwrap();
        assert_eq!(
            receiver.on_message(&ann, during(1)),
            TeslaPpOutcome::AnnouncementStored { index: 1 }
        );
        let rev = sender.reveal(1).unwrap();
        match receiver.on_message(&rev, during(2)) {
            TeslaPpOutcome::Authenticated { index: 1, message } => {
                assert_eq!(&message[..], b"v2v alert");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(receiver.stored_count(), 0);
    }

    #[test]
    fn reveal_without_announcement_fails() {
        let (mut sender, mut receiver) = setup();
        sender.announce(1, b"m").unwrap();
        let rev = sender.reveal(1).unwrap();
        // Announcement was never delivered.
        assert_eq!(
            receiver.on_message(&rev, during(2)),
            TeslaPpOutcome::NoMatchingAnnouncement { index: 1 }
        );
    }

    #[test]
    fn forged_message_in_reveal_fails() {
        let (mut sender, mut receiver) = setup();
        let ann = sender.announce(1, b"real").unwrap();
        receiver.on_message(&ann, during(1));
        let rev = match sender.reveal(1).unwrap() {
            TeslaPpMessage::Reveal { index, key, .. } => TeslaPpMessage::Reveal {
                index,
                message: b"fake".to_vec(),
                key,
            },
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            receiver.on_message(&rev, during(2)),
            TeslaPpOutcome::NoMatchingAnnouncement { index: 1 }
        );
        assert!(receiver.authenticated().is_empty());
    }

    #[test]
    fn forged_key_rejected_weakly() {
        let (mut sender, mut receiver) = setup();
        let ann = sender.announce(1, b"real").unwrap();
        receiver.on_message(&ann, during(1));
        let mut rng = dap_simnet::SimRng::new(3);
        let rev = TeslaPpMessage::Reveal {
            index: 1,
            message: b"real".to_vec(),
            key: Key::random(&mut rng),
        };
        assert_eq!(
            receiver.on_message(&rev, during(2)),
            TeslaPpOutcome::KeyRejected { index: 1 }
        );
    }

    #[test]
    fn stale_announcement_dropped() {
        let (mut sender, mut receiver) = setup();
        let ann = sender.announce(1, b"m").unwrap();
        assert_eq!(
            receiver.on_message(&ann, during(2)),
            TeslaPpOutcome::AnnouncementUnsafe { index: 1 }
        );
        assert_eq!(receiver.stored_count(), 0);
    }

    #[test]
    fn flooded_announcements_cost_only_small_entries() {
        let (mut sender, mut receiver) = setup();
        // 100 forged announcements (random MACs) + 1 real.
        let mut rng = dap_simnet::SimRng::new(4);
        for _ in 0..100 {
            let forged = TeslaPpMessage::MacAnnounce {
                index: 1,
                mac: Mac80::from_slice(&{
                    let mut b = [0u8; 10];
                    rng.fill_bytes(&mut b);
                    b
                })
                .unwrap(),
            };
            receiver.on_message(&forged, during(1));
        }
        let ann = sender.announce(1, b"genuine").unwrap();
        receiver.on_message(&ann, during(1));
        assert_eq!(receiver.stored_count(), 101);
        assert_eq!(receiver.stored_bits(), 101 * 112);
        // The reveal still authenticates despite the flood (TESLA++ has
        // no buffer cap; the flood costs memory, not correctness).
        let rev = sender.reveal(1).unwrap();
        assert!(matches!(
            receiver.on_message(&rev, during(2)),
            TeslaPpOutcome::Authenticated { .. }
        ));
        // The 100 forged entries remain stored — the memory-DoS exposure
        // DAP's bounded buffers remove.
        assert_eq!(receiver.stored_count(), 100);
    }

    #[test]
    fn storage_constants_match_paper_and_implementation() {
        assert_eq!(PAPER_STORED_BITS_PER_ENTRY, 280);
        assert_eq!(STORED_BITS_PER_ENTRY, 112);
    }

    #[test]
    fn message_sizes() {
        let (mut sender, _) = setup();
        let ann = sender.announce(1, &[0u8; 25]).unwrap();
        assert_eq!(ann.size_bits(), 112);
        let rev = sender.reveal(1).unwrap();
        assert_eq!(rev.size_bits(), 200 + 80 + 32);
    }

    #[test]
    fn stale_entries_are_garbage_collected() {
        let (mut sender, mut receiver) = setup();
        let ann = sender.announce(1, b"m").unwrap();
        receiver.on_message(&ann, during(1));
        assert_eq!(receiver.stored_count(), 1);
        // The reveal never arrives. Processing any message two intervals
        // later purges the stale entry.
        let a3 = sender.announce(3, b"m3").unwrap();
        receiver.on_message(&a3, during(3));
        assert_eq!(receiver.expired_count(), 1);
        assert_eq!(receiver.stored_count(), 1); // only interval 3's entry
                                                // A late reveal for interval 1 now finds nothing.
        let rev = sender.reveal(1).unwrap();
        assert_eq!(
            receiver.on_message(&rev, during(3)),
            TeslaPpOutcome::NoMatchingAnnouncement { index: 1 }
        );
    }

    #[test]
    fn gc_never_races_the_reveal() {
        // The entry must survive through the whole reveal interval.
        let (mut sender, mut receiver) = setup();
        let ann = sender.announce(1, b"m").unwrap();
        receiver.on_message(&ann, during(1));
        // Reveal arriving at the very end of interval 2 still matches.
        let rev = sender.reveal(1).unwrap();
        let late = SimTime(199);
        assert!(matches!(
            receiver.on_message(&rev, late),
            TeslaPpOutcome::Authenticated { .. }
        ));
        assert_eq!(receiver.expired_count(), 0);
    }

    #[test]
    fn reveal_twice_returns_none() {
        let (mut sender, _) = setup();
        sender.announce(1, b"m").unwrap();
        assert!(sender.reveal(1).is_some());
        assert!(sender.reveal(1).is_none());
    }

    #[test]
    fn announce_beyond_horizon_is_typed_error() {
        let (mut sender, _) = setup();
        assert_eq!(
            sender.announce(33, b"x").unwrap_err(),
            ChainExhausted {
                index: 33,
                horizon: 32
            }
        );
    }
}
