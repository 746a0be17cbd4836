//! Algorithm 1 — DAP message broadcasting.
//!
//! In interval `I_i` the sender selects `K_i` from its one-way chain,
//! computes `MAC_i = MAC_{K'_i}(M_i)` and broadcasts only `(MAC_i, i)`.
//! One interval later it sends `(M_i, K_i, i)` — key disclosure and
//! message delivery ride together (as in TESLA++), so the receiver never
//! buffers a full message.

use dap_crypto::mac::mac80;
use dap_crypto::oneway::Domain;
use dap_crypto::{ChainExhausted, Key, KeyChain};
use dap_simnet::SimTime;

use crate::wire::{Announce, DapParams, Reveal};

/// What a receiver needs at bootstrap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DapBootstrap {
    /// Chain commitment `K_0`.
    pub commitment: Key,
    /// Protocol parameters.
    pub params: DapParams,
}

/// The broadcasting side of DAP: one [`KeyChain`] and the messages
/// announced but not yet revealed.
///
/// ```
/// use dap_core::{DapParams, DapSender};
///
/// let mut sender = DapSender::new(b"secret", 16, DapParams::default());
/// let announce = sender.announce(1, b"task").unwrap(); // interval 1
/// let reveal = sender.reveal(1).expect("announced");
/// assert_eq!(announce.index, reveal.index);
/// ```
#[derive(Debug, Clone)]
pub struct DapSender {
    chain: KeyChain,
    params: DapParams,
    pending: std::collections::BTreeMap<u64, Vec<u8>>,
}

impl DapSender {
    /// Creates a sender with a `chain_len`-key chain derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `chain_len == 0`.
    #[must_use]
    pub fn new(seed: &[u8], chain_len: usize, params: DapParams) -> Self {
        Self::with_chain(KeyChain::generate(seed, chain_len, Domain::F), params)
    }

    /// Creates a sender over an existing chain.
    #[must_use]
    pub fn with_chain(chain: KeyChain, params: DapParams) -> Self {
        Self {
            chain,
            params,
            pending: std::collections::BTreeMap::new(),
        }
    }

    /// The receiver bootstrap record.
    #[must_use]
    pub fn bootstrap(&self) -> DapBootstrap {
        DapBootstrap {
            commitment: *self.chain.commitment(),
            params: self.params,
        }
    }

    /// Protocol parameters.
    #[must_use]
    pub fn params(&self) -> &DapParams {
        &self.params
    }

    /// Last usable interval.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.chain.len() as u64
    }

    /// The sender's interval at its own clock `now`.
    #[must_use]
    pub fn interval_at(&self, now: SimTime) -> u64 {
        self.params.schedule().index_at(now)
    }

    /// Algorithm 1 lines 1–4: announce `message` for interval `index`.
    /// The message is retained for the later [`reveal`](Self::reveal).
    ///
    /// # Errors
    ///
    /// Returns [`ChainExhausted`] when `index` lies beyond the chain
    /// horizon — an operational end-of-chain condition, not a bug.
    pub fn announce(&mut self, index: u64, message: &[u8]) -> Result<Announce, ChainExhausted> {
        let horizon = self.horizon();
        let key = self
            .chain
            .key(index as usize)
            .ok_or(ChainExhausted { index, horizon })?;
        let mac = mac80(key, message);
        self.pending.insert(index, message.to_vec());
        Ok(Announce { index, mac })
    }

    /// Algorithm 1 line 6: reveal `(M_i, K_i, i)` for a previously
    /// announced interval. Returns `None` if nothing is pending for
    /// `index` (or it was already revealed).
    pub fn reveal(&mut self, index: u64) -> Option<Reveal> {
        let message = self.pending.remove(&index)?;
        let key = *self.chain.key(index as usize)?;
        Some(Reveal {
            index,
            message,
            key,
        })
    }

    /// Intervals announced but not yet revealed.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_crypto::mac::verify_mac80;

    #[test]
    fn announce_mac_matches_reveal() {
        let mut sender = DapSender::new(b"s", 16, DapParams::default());
        let ann = sender.announce(3, b"m3").unwrap();
        let rev = sender.reveal(3).unwrap();
        assert_eq!(ann.index, rev.index);
        assert!(verify_mac80(&rev.key, &rev.message, &ann.mac));
    }

    #[test]
    fn reveal_requires_prior_announce() {
        let mut sender = DapSender::new(b"s", 16, DapParams::default());
        assert!(sender.reveal(1).is_none());
        sender.announce(1, b"x").unwrap();
        assert_eq!(sender.pending_count(), 1);
        assert!(sender.reveal(1).is_some());
        assert!(sender.reveal(1).is_none());
        assert_eq!(sender.pending_count(), 0);
    }

    #[test]
    fn distinct_intervals_use_distinct_keys() {
        let mut sender = DapSender::new(b"s", 16, DapParams::default());
        sender.announce(1, b"same").unwrap();
        sender.announce(2, b"same").unwrap();
        let r1 = sender.reveal(1).unwrap();
        let r2 = sender.reveal(2).unwrap();
        assert_ne!(r1.key, r2.key);
    }

    #[test]
    fn bootstrap_exposes_commitment_only() {
        let sender = DapSender::new(b"s", 16, DapParams::default());
        let b = sender.bootstrap();
        // The commitment is K_0, not any usable key.
        assert_eq!(b.params, DapParams::default());
    }

    #[test]
    fn interval_at_uses_schedule() {
        let sender = DapSender::new(b"s", 16, DapParams::default());
        assert_eq!(sender.interval_at(SimTime(0)), 1);
        assert_eq!(sender.interval_at(SimTime(250)), 3);
        assert_eq!(sender.horizon(), 16);
    }

    #[test]
    fn announce_past_horizon_is_typed_error() {
        let mut sender = DapSender::new(b"s", 4, DapParams::default());
        assert_eq!(
            sender.announce(5, b"x"),
            Err(ChainExhausted {
                index: 5,
                horizon: 4
            })
        );
        // The failed announce retains nothing.
        assert_eq!(sender.pending_count(), 0);
    }
}
