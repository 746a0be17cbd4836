//! EDRP — the Enhanced DoS-Resistant Protocol (§III-B, Fig. 3).
//!
//! Multi-level μTESLA's CDMs are a DoS target because a CDM can only be
//! MAC-verified one high-level interval after it arrives; until then
//! every candidate (authentic or forged) occupies buffer space. EDRP
//! closes the window with a **hash chain over the CDMs themselves**:
//! `CDM_i` carries `H(CDM_{i+1})`, so once `CDM_i` is authenticated the
//! very next CDM authenticates *instantly* by hash comparison —
//!
//! * forged `CDM_{i+1}` copies are rejected on arrival and consume **no
//!   buffer space**, and
//! * the commitment it distributes is installed immediately, so the
//!   resistance to DoS attacks continues across intervals even while the
//!   MAC-verification pipeline would still be waiting.
//!
//! When a CDM *is* lost, EDRP degrades to exactly the buffered,
//! delayed-MAC path of multi-level μTESLA (plus the high-level-chain
//! recovery `F0(F0(K_i)) = K_{i−2}` described in the paper), and the
//! hash expectation re-arms as soon as one CDM re-authenticates.

use std::collections::BTreeMap;

use dap_crypto::mac::{mac80, verify_mac80, Mac80};
use dap_crypto::{ChainExhausted, Key};
use dap_simnet::{SimRng, SimTime};

use crate::buffer::ReservoirBuffer;
use crate::multilevel::{
    CommitmentSource, LowKeyDisclosure, LowPacket, MlBootstrap, MlEvent, MultiLevelParams,
    MultiLevelReceiver, MultiLevelSender,
};

/// An EDRP commitment distribution message.
#[derive(Debug, Clone, PartialEq)]
pub struct EdrpCdm {
    /// High-level interval (MAC key index).
    pub index: u64,
    /// Low-level commitment `K_{index+2, 0}`.
    pub low_commitment: Key,
    /// `H(CDM_{index+1})` — the hash of the *next* CDM.
    pub next_hash: Key,
    /// Disclosed high-level key `K_{index−1}`, when it exists.
    pub disclosed_high: Option<(u64, Key)>,
    /// `MAC_{K'_index}(index | commitment | next_hash)`.
    pub mac: Mac80,
}

impl EdrpCdm {
    /// MAC input encoding.
    #[must_use]
    pub fn mac_input(index: u64, low_commitment: &Key, next_hash: &Key) -> Vec<u8> {
        let mut input = Vec::with_capacity(8 + 2 * Key::LEN);
        input.extend_from_slice(&index.to_be_bytes());
        input.extend_from_slice(low_commitment.as_bytes());
        input.extend_from_slice(next_hash.as_bytes());
        input
    }

    /// `H(CDM)` — the pseudorandom hash of the complete message, used as
    /// the next-CDM expectation.
    #[must_use]
    pub fn hash(&self) -> Key {
        let mut enc = Vec::with_capacity(8 + 3 * Key::LEN + Mac80::LEN + 9);
        enc.extend_from_slice(&self.index.to_be_bytes());
        enc.extend_from_slice(self.low_commitment.as_bytes());
        enc.extend_from_slice(self.next_hash.as_bytes());
        match &self.disclosed_high {
            Some((i, k)) => {
                enc.push(1);
                enc.extend_from_slice(&i.to_be_bytes());
                enc.extend_from_slice(k.as_bytes());
            }
            None => enc.push(0),
        }
        enc.extend_from_slice(self.mac.as_bytes());
        Key::derive(b"edrp/cdm-hash", &enc)
    }

    /// Airtime size in bits (adds one hash to the multi-level CDM).
    #[must_use]
    pub fn size_bits(&self) -> u32 {
        let mut bits = dap_crypto::sizes::INDEX_BITS
            + 2 * dap_crypto::sizes::KEY_BITS
            + dap_crypto::sizes::MAC_BITS;
        if self.disclosed_high.is_some() {
            bits += dap_crypto::sizes::INDEX_BITS + dap_crypto::sizes::KEY_BITS;
        }
        bits
    }
}

/// The base-station side: a [`MultiLevelSender`] whose CDM stream is
/// precomputed back-to-front so each CDM can embed the hash of the next.
#[derive(Debug, Clone)]
pub struct EdrpSender {
    ml: MultiLevelSender,
    cdms: Vec<EdrpCdm>,
}

impl EdrpSender {
    /// Creates a sender; CDMs are precomputed for the whole horizon.
    #[must_use]
    pub fn new(seed: &[u8], params: MultiLevelParams) -> Self {
        let ml = MultiLevelSender::new(seed, params);
        // Determine how many CDMs exist (commitment for i+2 must exist).
        let mut bodies = Vec::new();
        for i in 1.. {
            match ml.cdm(i) {
                Some(c) => bodies.push(c),
                None => break,
            }
        }
        // Build EDRP CDMs backwards: last one has a zero next-hash.
        let mut cdms: Vec<EdrpCdm> = Vec::with_capacity(bodies.len());
        let mut next_hash = Key::derive(b"edrp/terminal", b"");
        for body in bodies.iter().rev() {
            let key = ml.high_chain_key(body.index).expect("within horizon");
            let mac = mac80(
                key,
                &EdrpCdm::mac_input(body.index, &body.low_commitment, &next_hash),
            );
            let cdm = EdrpCdm {
                index: body.index,
                low_commitment: body.low_commitment,
                next_hash,
                disclosed_high: body.disclosed_high,
                mac,
            };
            next_hash = cdm.hash();
            cdms.push(cdm);
        }
        cdms.reverse();
        Self { ml, cdms }
    }

    /// Deployment parameters.
    #[must_use]
    pub fn params(&self) -> &MultiLevelParams {
        self.ml.params()
    }

    /// Receiver bootstrap: the multi-level record plus the hash of the
    /// first CDM (so `CDM_1` already authenticates instantly).
    #[must_use]
    pub fn bootstrap(&self) -> EdrpBootstrap {
        EdrpBootstrap {
            ml: self.ml.bootstrap(),
            first_cdm_hash: self.cdms.first().map(EdrpCdm::hash),
        }
    }

    /// `CDM_i`, or `None` past the horizon.
    #[must_use]
    pub fn cdm(&self, i: u64) -> Option<&EdrpCdm> {
        self.cdms.get((i - 1) as usize)
    }

    /// Delegates to [`MultiLevelSender::data_packet`].
    ///
    /// # Errors
    ///
    /// Returns [`ChainExhausted`] when the indices lie beyond the chain
    /// horizon.
    pub fn data_packet(
        &self,
        high: u64,
        low: u32,
        message: &[u8],
    ) -> Result<LowPacket, ChainExhausted> {
        self.ml.data_packet(high, low, message)
    }

    /// Delegates to [`MultiLevelSender::low_disclosure`].
    #[must_use]
    pub fn low_disclosure(&self, high: u64, low: u32) -> Option<LowKeyDisclosure> {
        self.ml.low_disclosure(high, low)
    }
}

/// EDRP receiver bootstrap.
#[derive(Debug, Clone, PartialEq)]
pub struct EdrpBootstrap {
    /// The underlying multi-level bootstrap.
    pub ml: MlBootstrap,
    /// `H(CDM_1)`, distributed at setup.
    pub first_cdm_hash: Option<Key>,
}

/// How a CDM was (or wasn't) authenticated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdmDisposition {
    /// Matched the stored hash expectation — authenticated on arrival,
    /// zero buffer cost.
    Instant,
    /// An expectation existed but the hash mismatched — forged, rejected
    /// on arrival, zero buffer cost.
    RejectedByHash,
    /// No expectation (previous CDM lost): buffered for delayed MAC
    /// verification.
    Buffered,
    /// Failed the safe-packet test.
    Unsafe,
    /// Duplicate of an already authenticated CDM.
    Duplicate,
}

/// EDRP-specific counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdrpStats {
    /// CDMs authenticated instantly via the hash chain.
    pub cdm_instant: u64,
    /// Forged CDMs rejected instantly (hash mismatch) — these consumed no
    /// buffer space.
    pub cdm_rejected_by_hash: u64,
    /// CDM copies that had to be buffered (hash expectation missing).
    pub cdm_buffered: u64,
    /// CDMs authenticated through the delayed MAC path.
    pub cdm_delayed: u64,
    /// Buffered copies that failed delayed MAC verification.
    pub cdm_forged_rejected: u64,
}

#[derive(Debug, Clone)]
struct EdrpCandidate {
    cdm: EdrpCdm,
}

/// The receiving side.
#[derive(Debug, Clone)]
pub struct EdrpReceiver {
    inner: MultiLevelReceiver,
    params: MultiLevelParams,
    expected: BTreeMap<u64, Key>,
    authenticated_cdms: BTreeMap<u64, ()>,
    pools: BTreeMap<u64, ReservoirBuffer<EdrpCandidate>>,
    stats: EdrpStats,
}

impl EdrpReceiver {
    /// Bootstraps a receiver.
    #[must_use]
    pub fn new(bootstrap: EdrpBootstrap) -> Self {
        let params = bootstrap.ml.params;
        let mut expected = BTreeMap::new();
        if let Some(h) = bootstrap.first_cdm_hash {
            expected.insert(1, h);
        }
        Self {
            inner: MultiLevelReceiver::new(bootstrap.ml),
            params,
            expected,
            authenticated_cdms: BTreeMap::new(),
            pools: BTreeMap::new(),
            stats: EdrpStats::default(),
        }
    }

    /// EDRP counters.
    #[must_use]
    pub fn stats(&self) -> &EdrpStats {
        &self.stats
    }

    /// The underlying multi-level receiver (authenticated data, recovery
    /// log, …).
    #[must_use]
    pub fn inner(&self) -> &MultiLevelReceiver {
        &self.inner
    }

    /// Processes a CDM; returns its disposition plus any downstream
    /// events (commitments installed, data authenticated, …).
    pub fn on_cdm(
        &mut self,
        cdm: &EdrpCdm,
        local_time: SimTime,
        rng: &mut SimRng,
    ) -> (CdmDisposition, Vec<MlEvent>) {
        let mut events = Vec::new();

        // Hash path first: when an expectation exists, *every* copy is
        // judged by it — forged copies are rejected on arrival even
        // after the genuine CDM already authenticated.
        if let Some(expect) = self.expected.get(&cdm.index).copied() {
            if cdm.hash() != expect {
                // A hash mismatch means the whole message is not the one
                // the sender built; nothing in it is trustworthy.
                self.stats.cdm_rejected_by_hash += 1;
                return (CdmDisposition::RejectedByHash, events);
            }
            if self.authenticated_cdms.contains_key(&cdm.index) {
                // A verbatim re-broadcast of an authenticated CDM; still
                // harvest the key disclosure (idempotent).
                if let Some((i, k)) = &cdm.disclosed_high {
                    events.extend(self.inner.accept_high_key_external(*i, k, local_time));
                }
                return (CdmDisposition::Duplicate, events);
            }
            self.stats.cdm_instant += 1;
            events.extend(self.authenticate_cdm(cdm, local_time));
            return (CdmDisposition::Instant, events);
        }

        if self.authenticated_cdms.contains_key(&cdm.index) {
            // Authenticated through the delayed path (no expectation was
            // armed); treat further copies as duplicates.
            if let Some((i, k)) = &cdm.disclosed_high {
                events.extend(self.inner.accept_high_key_external(*i, k, local_time));
            }
            return (CdmDisposition::Duplicate, events);
        }

        // Delayed path: buffer under the safe-packet test.
        if !self.params.high_safety().is_safe(cdm.index, local_time) {
            if let Some((i, k)) = &cdm.disclosed_high {
                events.extend(self.inner.accept_high_key_external(*i, k, local_time));
                self.verify_buffered(local_time, &mut events);
            }
            return (CdmDisposition::Unsafe, events);
        }
        self.stats.cdm_buffered += 1;
        self.pools
            .entry(cdm.index)
            .or_insert_with(|| ReservoirBuffer::new(self.params.cdm_buffers))
            .offer(EdrpCandidate { cdm: cdm.clone() }, rng);

        if let Some((i, k)) = &cdm.disclosed_high {
            events.extend(self.inner.accept_high_key_external(*i, k, local_time));
            self.verify_buffered(local_time, &mut events);
        }
        (CdmDisposition::Buffered, events)
    }

    /// Delegates to the multi-level data path.
    pub fn on_low_packet(&mut self, packet: &LowPacket, local_time: SimTime) -> Vec<MlEvent> {
        self.inner.on_low_packet(packet, local_time)
    }

    /// Delegates to the multi-level disclosure path.
    pub fn on_low_disclosure(
        &mut self,
        disclosure: &LowKeyDisclosure,
        local_time: SimTime,
    ) -> Vec<MlEvent> {
        self.inner.on_low_disclosure(disclosure, local_time)
    }

    /// Marks a CDM authentic: install its commitment, arm the hash
    /// expectation for the next CDM, harvest its key disclosure.
    fn authenticate_cdm(&mut self, cdm: &EdrpCdm, local_time: SimTime) -> Vec<MlEvent> {
        let mut events = Vec::new();
        self.authenticated_cdms.insert(cdm.index, ());
        self.expected.insert(cdm.index + 1, cdm.next_hash);
        self.pools.remove(&cdm.index);
        events.push(MlEvent::CdmAuthenticated { index: cdm.index });
        events.extend(self.inner.install_commitment_external(
            cdm.index + 2,
            cdm.low_commitment,
            0,
            CommitmentSource::Cdm,
        ));
        if let Some((i, k)) = &cdm.disclosed_high {
            events.extend(self.inner.accept_high_key_external(*i, k, local_time));
            self.verify_buffered(local_time, &mut events);
        }
        events
    }

    /// Delayed MAC verification of buffered CDMs whose key is now known.
    fn verify_buffered(&mut self, local_time: SimTime, events: &mut Vec<MlEvent>) {
        let ready: Vec<u64> = self
            .pools
            .keys()
            .copied()
            .filter(|v| self.inner.high_key_at(*v).is_some())
            .collect();
        for v in ready {
            // A nested authenticate_cdm may already have consumed this
            // pool (or advanced past it); skip in that case.
            let Some(pool) = self.pools.remove(&v) else {
                continue;
            };
            let Some(key) = self.inner.high_key_at(v) else {
                self.pools.insert(v, pool);
                continue;
            };
            let mut winner: Option<EdrpCdm> = None;
            for cand in pool.iter() {
                let input = EdrpCdm::mac_input(v, &cand.cdm.low_commitment, &cand.cdm.next_hash);
                if verify_mac80(&key, &input, &cand.cdm.mac) {
                    if winner.is_none() {
                        winner = Some(cand.cdm.clone());
                    }
                } else {
                    self.stats.cdm_forged_rejected += 1;
                }
            }
            if let Some(cdm) = winner {
                self.stats.cdm_delayed += 1;
                events.extend(self.authenticate_cdm(&cdm, local_time));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::Linkage;
    use dap_simnet::SimDuration;

    fn params() -> MultiLevelParams {
        MultiLevelParams::new(SimDuration(25), 4, 16, 3, Linkage::Eftp)
    }

    fn setup() -> (EdrpSender, EdrpReceiver, SimRng) {
        let sender = EdrpSender::new(b"edrp-base", params());
        let receiver = EdrpReceiver::new(sender.bootstrap());
        (sender, receiver, SimRng::new(11))
    }

    fn at(p: &MultiLevelParams, high: u64, low: u32) -> SimTime {
        SimTime((p.global_low_index(high, low) - 1) * p.low_interval.ticks() + 2)
    }

    #[test]
    fn cdm_hash_chain_is_consistent() {
        let (sender, _, _) = setup();
        for i in 1..=10u64 {
            let this = sender.cdm(i).unwrap();
            let next = sender.cdm(i + 1).unwrap();
            assert_eq!(this.next_hash, next.hash(), "CDM_{i} → CDM_{}", i + 1);
        }
    }

    #[test]
    fn first_cdm_authenticates_instantly() {
        let (sender, mut receiver, mut rng) = setup();
        let p = *sender.params();
        let (disp, events) = receiver.on_cdm(sender.cdm(1).unwrap(), at(&p, 1, 1), &mut rng);
        assert_eq!(disp, CdmDisposition::Instant);
        assert!(events.contains(&MlEvent::CdmAuthenticated { index: 1 }));
        assert!(receiver.inner().has_commitment(3));
        assert_eq!(receiver.stats().cdm_instant, 1);
    }

    #[test]
    fn unbroken_chain_stays_instant() {
        let (sender, mut receiver, mut rng) = setup();
        let p = *sender.params();
        for i in 1..=8u64 {
            let (disp, _) = receiver.on_cdm(sender.cdm(i).unwrap(), at(&p, i, 1), &mut rng);
            assert_eq!(disp, CdmDisposition::Instant, "CDM_{i}");
        }
        assert_eq!(receiver.stats().cdm_instant, 8);
        assert_eq!(receiver.stats().cdm_buffered, 0);
    }

    #[test]
    fn forged_cdm_rejected_instantly_with_zero_buffer_cost() {
        let (sender, mut receiver, mut rng) = setup();
        let p = *sender.params();
        receiver.on_cdm(sender.cdm(1).unwrap(), at(&p, 1, 1), &mut rng);
        // Flood with forged CDM_2 copies.
        for _ in 0..50 {
            let mut forged = sender.cdm(2).unwrap().clone();
            forged.low_commitment = Key::random(&mut rng);
            let (disp, _) = receiver.on_cdm(&forged, at(&p, 2, 1), &mut rng);
            assert_eq!(disp, CdmDisposition::RejectedByHash);
        }
        assert_eq!(receiver.stats().cdm_rejected_by_hash, 50);
        assert_eq!(receiver.stats().cdm_buffered, 0);
        // The genuine CDM_2 still lands instantly.
        let (disp, _) = receiver.on_cdm(sender.cdm(2).unwrap(), at(&p, 2, 1), &mut rng);
        assert_eq!(disp, CdmDisposition::Instant);
    }

    #[test]
    fn lost_cdm_falls_back_to_delayed_and_rearms() {
        let (sender, mut receiver, mut rng) = setup();
        let p = *sender.params();
        receiver.on_cdm(sender.cdm(1).unwrap(), at(&p, 1, 1), &mut rng);
        // CDM_2 lost entirely. CDM_3 arrives: no expectation → buffered.
        let (disp, _) = receiver.on_cdm(sender.cdm(3).unwrap(), at(&p, 3, 1), &mut rng);
        assert_eq!(disp, CdmDisposition::Buffered);
        // The first CDM_4 copy has no expectation yet either, but it
        // discloses K_3 → the buffered CDM_3 MAC-verifies → the
        // expectation for CDM_4 is armed. That is too late for this copy
        // (already buffered), but CDMs are broadcast in multiple copies
        // per interval precisely for loss/DoS resistance — the *second*
        // copy of CDM_4 authenticates instantly and re-arms the chain.
        let (disp4, _) = receiver.on_cdm(sender.cdm(4).unwrap(), at(&p, 4, 1), &mut rng);
        assert_eq!(disp4, CdmDisposition::Buffered);
        assert_eq!(receiver.stats().cdm_delayed, 1, "CDM_3 delayed-verified");
        let (disp4b, _) = receiver.on_cdm(sender.cdm(4).unwrap(), at(&p, 4, 2), &mut rng);
        assert_eq!(disp4b, CdmDisposition::Instant, "second copy is instant");
        let (disp5, _) = receiver.on_cdm(sender.cdm(5).unwrap(), at(&p, 5, 1), &mut rng);
        assert_eq!(disp5, CdmDisposition::Instant, "hash chain re-armed");
    }

    #[test]
    fn duplicate_cdm_detected() {
        let (sender, mut receiver, mut rng) = setup();
        let p = *sender.params();
        receiver.on_cdm(sender.cdm(1).unwrap(), at(&p, 1, 1), &mut rng);
        let (disp, _) = receiver.on_cdm(sender.cdm(1).unwrap(), at(&p, 1, 1), &mut rng);
        assert_eq!(disp, CdmDisposition::Duplicate);
        assert_eq!(receiver.stats().cdm_instant, 1);
    }

    #[test]
    fn data_path_works_through_edrp() {
        let (sender, mut receiver, _rng) = setup();
        let p = *sender.params();
        receiver.on_low_packet(&sender.data_packet(1, 1, b"reading").unwrap(), at(&p, 1, 1));
        let events =
            receiver.on_low_disclosure(&sender.low_disclosure(1, 2).unwrap(), at(&p, 1, 2));
        assert!(events.iter().any(|e| matches!(
            e,
            MlEvent::LowAuthenticated {
                high: 1,
                low: 1,
                ..
            }
        )));
        assert_eq!(receiver.inner().stats().low_authenticated, 1);
    }

    #[test]
    fn continuity_under_loss_and_flood_beats_buffering_alone() {
        // With the chain intact up to CDM_1 and heavy flooding of later
        // CDMs, EDRP authenticates every genuine CDM instantly; the
        // flood never reaches a buffer.
        let (sender, mut receiver, mut rng) = setup();
        let p = *sender.params();
        for i in 1..=6u64 {
            for _ in 0..30 {
                let mut forged = sender.cdm(i).unwrap().clone();
                forged.low_commitment = Key::random(&mut rng);
                receiver.on_cdm(&forged, at(&p, i, 1), &mut rng);
            }
            let (disp, _) = receiver.on_cdm(sender.cdm(i).unwrap(), at(&p, i, 1), &mut rng);
            assert_eq!(disp, CdmDisposition::Instant, "CDM_{i}");
        }
        assert_eq!(receiver.stats().cdm_rejected_by_hash, 180);
        assert_eq!(receiver.stats().cdm_buffered, 0);
    }

    #[test]
    fn stale_cdm_unsafe_on_delayed_path() {
        let (sender, mut receiver, mut rng) = setup();
        let p = *sender.params();
        // No expectation for CDM_2 (CDM_1 lost); receive CDM_2 during
        // interval 3 → its key may be out → unsafe.
        let (disp, _) = receiver.on_cdm(sender.cdm(2).unwrap(), at(&p, 3, 1), &mut rng);
        assert_eq!(disp, CdmDisposition::Unsafe);
    }

    #[test]
    fn edrp_cdm_size_adds_one_hash() {
        let (sender, _, _) = setup();
        let c1 = sender.cdm(1).unwrap();
        assert_eq!(c1.size_bits(), 32 + 80 + 80 + 80);
        let c2 = sender.cdm(2).unwrap();
        assert_eq!(c2.size_bits(), 32 + 80 + 80 + 80 + 32 + 80);
    }
}
