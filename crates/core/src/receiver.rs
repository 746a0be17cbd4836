//! Algorithm 2 — DAP authentication at receivers.
//!
//! Processing an announcement `(MAC_i, i)` received in interval `I_x`:
//!
//! 1. **safe-packet test** — discard if the key for `i` may already be
//!    public (`i + d < x` under worst-case skew);
//! 2. offer `(μMAC_i, i)` — 56 bits — to the `m`-buffer reservoir, where
//!    `μMAC_i = MAC_{K_recv}(MAC_i)` (24 bits; `K_recv` never leaves the
//!    node): the `k`-th copy of the receiving interval is kept with
//!    probability `m/k`. The coin is flipped before the μMAC is
//!    computed, so only a kept copy pays for it.
//!
//! Processing a reveal `(M_i, K_i, i)` one interval later:
//!
//! 3. **weak authentication** — `K_i` must be interval `i`'s chain key
//!    as the chain anchor decides it (`h(K_i) = K_{i−1}`, generalised
//!    over gaps; at or behind the anchor, the key derived there), within
//!    `ChainAnchor::MAX_STEPS` of the anchor;
//! 4. **strong authentication** — recompute
//!    `μMAC′ = MAC_{K_recv}(MAC_{K'_i}(M_i))` and search the buffers for
//!    a matching entry with index `i`; equality authenticates `M_i`.

use dap_crypto::mac::{mac80, micro_mac_prepared, prepare_receiver_key, MicroMac};
use dap_crypto::oneway::Domain;
use dap_crypto::{ChainAnchor, Key, PreparedMacKey};
use dap_simnet::{SimRng, SimTime};
use dap_tesla::ReservoirBuffer;

use crate::sender::DapBootstrap;
use crate::wire::{Announce, DapParams, Reveal};

/// Outcome of processing an announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnounceOutcome {
    /// Discarded by the safe-packet test (Algorithm 2 line 3).
    Unsafe,
    /// Stored in a buffer (lines 6–12, kept).
    Stored,
    /// Offered but dropped by the sampling coin (line 9, not kept).
    Dropped,
}

/// Outcome of processing a reveal.
#[derive(Debug, Clone, PartialEq)]
pub enum RevealOutcome {
    /// Weak + strong authentication both passed; the reveal's `M_i` is
    /// trusted.
    Authenticated {
        /// Interval index.
        index: u64,
    },
    /// The disclosed key failed chain verification (line 16).
    WeakRejected {
        /// Claimed interval.
        index: u64,
    },
    /// The key was genuine but no stored μMAC matched (line 20) —
    /// the message was tampered with.
    StrongRejected {
        /// Claimed interval.
        index: u64,
    },
    /// The key was genuine but no candidate for `index` was buffered —
    /// the announcement was lost, evicted by the flood, or never sent.
    NoCandidate {
        /// Claimed interval.
        index: u64,
    },
}

impl RevealOutcome {
    /// `true` for [`RevealOutcome::Authenticated`].
    #[must_use]
    pub fn is_authenticated(&self) -> bool {
        matches!(self, RevealOutcome::Authenticated { .. })
    }
}

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DapStats {
    /// Announcements offered to the buffers (post safe-packet test).
    pub announces_offered: u64,
    /// Announcements stored (empty buffer or replacement).
    pub announces_stored: u64,
    /// Announcements discarded as unsafe.
    pub announces_unsafe: u64,
    /// Reveals processed.
    pub reveals: u64,
    /// Messages authenticated.
    pub authenticated: u64,
    /// Reveals whose key weak authentication refused: forged, for
    /// interval 0, or claiming an interval more than
    /// `ChainAnchor::MAX_STEPS` from the anchor.
    pub weak_rejected: u64,
    /// Reveals whose message matched no stored μMAC.
    pub strong_rejected: u64,
    /// Reveals with no buffered candidate at all.
    pub no_candidate: u64,
    /// Stale buffer entries garbage-collected (reveal never arrived).
    pub entries_expired: u64,
    /// Times the receiver noticed its chain anchor had fallen more than
    /// [`DESYNC_GRACE_INTERVALS`] behind the current interval (blackout,
    /// crash, or sustained loss).
    pub desyncs: u64,
    /// Weak authentications that re-anchored across a gap (more than one
    /// one-way step) — the bounded multi-step recovery path.
    pub chain_recoveries: u64,
    /// Largest number of one-way steps walked in a single re-anchoring.
    pub max_recovery_depth: u64,
    /// Buffered candidates whose fate a reveal decided (matched against
    /// the strong μMAC). Reservoir sampling is uniform over the offers,
    /// so the forged share of these entries is an unbiased estimate of
    /// the wire's forged fraction `p` — the control plane's signal.
    pub buffered_decided: u64,
    /// Of [`Self::buffered_decided`], the entries that failed the strong
    /// μMAC check (forged or corrupted announces that won a reservoir
    /// slot).
    pub buffered_forged: u64,
}

/// Intervals the anchor may lag behind the receiver's clock (beyond the
/// disclosure delay) before the receiver declares itself desynchronised.
pub const DESYNC_GRACE_INTERVALS: u64 = 2;

/// The receiving side of DAP.
///
/// ```
/// use dap_core::{DapParams, DapReceiver, DapSender};
/// use dap_simnet::{SimRng, SimTime};
///
/// let mut sender = DapSender::new(b"secret", 16, DapParams::default());
/// let mut receiver = DapReceiver::new(sender.bootstrap(), b"node-local");
/// let mut rng = SimRng::new(1);
///
/// let announce = sender.announce(1, b"reading").unwrap();
/// receiver.on_announce(&announce, SimTime(10), &mut rng);
/// let outcome = receiver.on_reveal(&sender.reveal(1).unwrap(), SimTime(110));
/// assert!(outcome.is_authenticated());
/// ```
#[derive(Debug, Clone)]
pub struct DapReceiver {
    anchor: ChainAnchor,
    params: DapParams,
    /// `K_recv` with its HMAC key schedule run once at bootstrap: the
    /// announce hot path re-keys every kept MAC under this secret, so
    /// caching the midstates halves its compression count.
    local_key: PreparedMacKey,
    buffers: usize,
    /// One `m`-buffer reservoir per pending interval: the copies of
    /// interval `i` compete only with each other (the competition scope
    /// of the paper's `P = 1 − p^m` analysis). A shared pool would let a
    /// burst for interval `i+1` evict interval `i`'s still-pending
    /// evidence right before its reveal — a boundary attack our
    /// `front_running_flood_gains_nothing` test pins down. At most
    /// `d + 2` intervals are pending (older pools are GC'd), so memory
    /// is bounded by `(d + 2)·m·56` bits.
    pools: std::collections::BTreeMap<u64, ReservoirBuffer<MicroMac>>,
    rx_interval: u64,
    desynced: bool,
    stats: DapStats,
}

impl DapReceiver {
    /// Bootstraps a receiver. `local_seed` derives the node-local secret
    /// `K_recv` used for μMAC computation; it is never transmitted.
    #[must_use]
    pub fn new(bootstrap: DapBootstrap, local_seed: &[u8]) -> Self {
        Self {
            anchor: ChainAnchor::new(bootstrap.commitment, 0, Domain::F),
            params: bootstrap.params,
            local_key: prepare_receiver_key(&Key::derive(b"dap/receiver-local", local_seed)),
            buffers: bootstrap.params.buffers,
            pools: std::collections::BTreeMap::new(),
            rx_interval: 0,
            desynced: false,
            stats: DapStats::default(),
        }
    }

    /// Whether the receiver currently considers itself desynchronised
    /// (anchor more than `d +` [`DESYNC_GRACE_INTERVALS`] behind the
    /// clock). Cleared by the next successful weak authentication.
    #[must_use]
    pub fn is_desynced(&self) -> bool {
        self.desynced
    }

    /// Receiver counters.
    #[must_use]
    pub fn stats(&self) -> &DapStats {
        &self.stats
    }

    /// Buffers currently occupied (entries across all pending intervals).
    #[must_use]
    pub fn buffered_count(&self) -> usize {
        self.pools.values().map(ReservoirBuffer::len).sum()
    }

    /// The configured buffer count `m` (per pending interval).
    #[must_use]
    pub fn buffer_capacity(&self) -> usize {
        self.buffers
    }

    /// Announce copies offered to interval `index`'s reservoir so far —
    /// the `k` of the paper's `m/k` sampling probability. Zero when the
    /// interval has no pool (nothing offered yet, or already GC'd).
    #[must_use]
    pub fn offered(&self, index: u64) -> u64 {
        self.pools.get(&index).map_or(0, ReservoirBuffer::offered)
    }

    /// Occupied buffer memory in bits (56 bits per entry — Fig. 4).
    #[must_use]
    pub fn memory_bits(&self) -> u64 {
        self.buffered_count() as u64 * u64::from(dap_crypto::sizes::DAP_BUFFER_ENTRY_BITS)
    }

    /// Worst-case provisioned buffer memory in bits:
    /// `(d + 2) × m × 56` — up to `d + 2` intervals can be pending at a
    /// boundary before GC. (The paper's `m × Mem/s` accounting ignores
    /// the boundary; with its `d = 1` this is a 3× constant.)
    #[must_use]
    pub fn memory_capacity_bits(&self) -> u64 {
        (self.params.disclosure_delay + 2)
            * self.buffers as u64
            * u64::from(dap_crypto::sizes::DAP_BUFFER_ENTRY_BITS)
    }

    /// Re-provisions the buffer pools to `m` buffers per pending
    /// interval (the adaptive controller's knob).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn set_buffers(&mut self, m: usize) {
        assert!(m >= 1, "need at least one buffer");
        self.buffers = m;
        for pool in self.pools.values_mut() {
            pool.set_capacity(m);
        }
    }

    /// Algorithm 2 lines 1–14: process an announcement received at local
    /// clock `local_time`.
    pub fn on_announce(
        &mut self,
        announce: &Announce,
        local_time: SimTime,
        rng: &mut SimRng,
    ) -> AnnounceOutcome {
        self.tick(local_time);

        if !self.params.safety().is_safe(announce.index, local_time) {
            self.stats.announces_unsafe += 1;
            return AnnounceOutcome::Unsafe;
        }

        self.stats.announces_offered += 1;
        let pool = self
            .pools
            .entry(announce.index)
            .or_insert_with(|| ReservoirBuffer::new(self.buffers));
        // The coin goes first: only a kept copy's μMAC is ever read, so a
        // sampled-out copy costs no HMAC.
        let outcome = pool.offer_with(|| micro_mac_prepared(&self.local_key, &announce.mac), rng);
        if outcome.is_stored() {
            self.stats.announces_stored += 1;
            AnnounceOutcome::Stored
        } else {
            AnnounceOutcome::Dropped
        }
    }

    /// Algorithm 2 lines 15–25: process a reveal.
    pub fn on_reveal(&mut self, reveal: &Reveal, local_time: SimTime) -> RevealOutcome {
        self.tick(local_time);
        self.stats.reveals += 1;

        // Weak authentication: the chain anchor decides whether the
        // disclosed key is the interval's chain key, in either direction.
        let Ok(steps) = self.anchor.authenticate(&reveal.key, reveal.index) else {
            self.stats.weak_rejected += 1;
            return RevealOutcome::WeakRejected {
                index: reveal.index,
            };
        };
        // Recovery and desync bookkeeping move only when it advances.
        if steps > 0 {
            if steps > 1 {
                self.stats.chain_recoveries += 1;
            }
            self.stats.max_recovery_depth = self.stats.max_recovery_depth.max(steps);
            self.desynced = false;
        }

        // Strong authentication: match the recomputed μMAC against the
        // buffered candidates for this interval.
        //
        // Any weak-auth-passing reveal *consumes* the interval's
        // candidates, freeing the buffers for the next interval (the
        // uniform-survival analysis assumes each interval's copies
        // compete for the full pool). Injecting a weak-valid reveal
        // requires the disclosed key, so an active attacker racing the
        // genuine reveal can at worst suppress that one interval —
        // exactly what jamming the reveal would do; it can never get a
        // forged message authenticated.
        let Some(pool) = self
            .pools
            .remove(&reveal.index)
            .filter(|pool| !pool.is_empty())
        else {
            self.stats.no_candidate += 1;
            return RevealOutcome::NoCandidate {
                index: reveal.index,
            };
        };
        // Only a candidate can use the `K'_i` schedule and the expected
        // μMAC.
        let tag = mac80(&reveal.key, &reveal.message);
        let expect = micro_mac_prepared(&self.local_key, &tag);
        let mut matched = false;
        for micro in pool.iter() {
            self.stats.buffered_decided += 1;
            if *micro == expect {
                matched = true;
            } else {
                self.stats.buffered_forged += 1;
            }
        }
        if matched {
            self.stats.authenticated += 1;
            RevealOutcome::Authenticated {
                index: reveal.index,
            }
        } else {
            self.stats.strong_rejected += 1;
            RevealOutcome::StrongRejected {
                index: reveal.index,
            }
        }
    }

    /// Garbage-collects pools whose reveal window has passed: an entry
    /// for interval `i` is useless once the reveal (due in interval
    /// `i + d`) is more than one interval overdue. Each pool's offer
    /// counter is naturally scoped to its interval — exactly Algorithm
    /// 2's "the k-th copy received in `I_x`" competition.
    fn tick(&mut self, local_time: SimTime) {
        let now = self.params.schedule().index_at(local_time);
        if now == self.rx_interval {
            return;
        }
        self.rx_interval = now;
        let d = self.params.disclosure_delay;
        // Desync detection: the anchor should track `now − d` under
        // normal delivery; falling further behind than the grace window
        // means a blackout/crash interrupted the disclosure stream.
        if now > self.anchor.index() + d + DESYNC_GRACE_INTERVALS {
            if !self.desynced {
                self.desynced = true;
                self.stats.desyncs += 1;
            }
        } else {
            self.desynced = false;
        }
        let stale: Vec<u64> = self
            .pools
            .keys()
            .copied()
            .filter(|i| i.saturating_add(d + 1) < now)
            .collect();
        for i in stale {
            if let Some(pool) = self.pools.remove(&i) {
                self.stats.entries_expired += pool.len() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::DapSender;
    use dap_crypto::KeyChain;
    use dap_simnet::SimDuration;

    fn params_with(m: usize) -> DapParams {
        DapParams::new(SimDuration(100), 1, 0, m)
    }

    fn setup(m: usize) -> (DapSender, DapReceiver, SimRng) {
        let sender = DapSender::new(b"dap", 64, params_with(m));
        let receiver = DapReceiver::new(sender.bootstrap(), b"node-7");
        (sender, receiver, SimRng::new(77))
    }

    fn during(i: u64) -> SimTime {
        SimTime((i - 1) * 100 + 10)
    }

    #[test]
    fn happy_path_authenticates() {
        let (mut sender, mut receiver, mut rng) = setup(4);
        let ann = sender.announce(1, b"temp 21.5").unwrap();
        assert_eq!(
            receiver.on_announce(&ann, during(1), &mut rng),
            AnnounceOutcome::Stored
        );
        let rev = sender.reveal(1).unwrap();
        let out = receiver.on_reveal(&rev, during(2));
        assert_eq!(out, RevealOutcome::Authenticated { index: 1 });
        assert_eq!(receiver.stats().authenticated, 1);
        // Entry consumed: buffers freed.
        assert_eq!(receiver.buffered_count(), 0);
    }

    #[test]
    fn stale_announce_fails_safety() {
        let (mut sender, mut receiver, mut rng) = setup(4);
        let ann = sender.announce(1, b"m").unwrap();
        // Received during interval 2: K_1 is being disclosed → unsafe.
        assert_eq!(
            receiver.on_announce(&ann, during(2), &mut rng),
            AnnounceOutcome::Unsafe
        );
        assert_eq!(receiver.stats().announces_unsafe, 1);
    }

    #[test]
    fn forged_key_weakly_rejected() {
        let (mut sender, mut receiver, mut rng) = setup(4);
        let ann = sender.announce(1, b"m").unwrap();
        receiver.on_announce(&ann, during(1), &mut rng);
        let mut rev = sender.reveal(1).unwrap();
        rev.key = Key::random(&mut rng);
        assert_eq!(
            receiver.on_reveal(&rev, during(2)),
            RevealOutcome::WeakRejected { index: 1 }
        );
    }

    #[test]
    fn tampered_message_strongly_rejected() {
        let (mut sender, mut receiver, mut rng) = setup(4);
        let ann = sender.announce(1, b"genuine").unwrap();
        receiver.on_announce(&ann, during(1), &mut rng);
        let mut rev = sender.reveal(1).unwrap();
        rev.message = b"tampered".to_vec();
        assert_eq!(
            receiver.on_reveal(&rev, during(2)),
            RevealOutcome::StrongRejected { index: 1 }
        );
        assert_eq!(receiver.stats().authenticated, 0);
    }

    #[test]
    fn lost_announcement_reports_no_candidate() {
        let (mut sender, mut receiver, _rng) = setup(4);
        sender.announce(1, b"m").unwrap();
        let rev = sender.reveal(1).unwrap();
        assert_eq!(
            receiver.on_reveal(&rev, during(2)),
            RevealOutcome::NoCandidate { index: 1 }
        );
    }

    #[test]
    fn flood_cannot_grow_memory_beyond_m() {
        let (sender, mut receiver, mut rng) = setup(5);
        let _ = sender; // authentic traffic irrelevant here
        for k in 0..10_000u64 {
            let forged = Announce {
                index: 1,
                mac: {
                    let mut b = [0u8; 10];
                    rng.fill_bytes(&mut b);
                    dap_crypto::Mac80::from_slice(&b).unwrap()
                },
            };
            receiver.on_announce(&forged, during(1), &mut rng);
            let _ = k;
            assert!(receiver.buffered_count() <= 5);
        }
        // Capacity bound is per pending interval: (d + 2) pools of m.
        assert_eq!(receiver.memory_capacity_bits(), 3 * 5 * 56);
        // A single-interval flood occupies just one pool.
        assert!(receiver.memory_bits() <= 5 * 56);
    }

    /// The paper's P = 1 − p^m: empirical authentication rate under a
    /// flood of forged fraction p with m buffers.
    #[test]
    fn authentication_rate_tracks_one_minus_p_to_m() {
        let m = 3;
        let trials = 3000u32;
        let mut ok = 0u32;
        let mut rng = SimRng::new(99);
        for trial in 0..trials {
            let mut sender = DapSender::new(&trial.to_be_bytes(), 4, params_with(m));
            let mut receiver = DapReceiver::new(sender.bootstrap(), b"n");
            let ann = sender.announce(1, b"real").unwrap();
            // 1 authentic copy among 5 total (p = 0.8): interleave.
            let mut copies: Vec<Announce> = Vec::new();
            for _ in 0..4 {
                let mut b = [0u8; 10];
                rng.fill_bytes(&mut b);
                copies.push(Announce {
                    index: 1,
                    mac: dap_crypto::Mac80::from_slice(&b).unwrap(),
                });
            }
            copies.insert((trial % 5) as usize, ann);
            for c in &copies {
                receiver.on_announce(c, during(1), &mut rng);
            }
            let rev = sender.reveal(1).unwrap();
            if receiver.on_reveal(&rev, during(2)).is_authenticated() {
                ok += 1;
            }
        }
        let rate = f64::from(ok) / f64::from(trials);
        // Exact (hypergeometric, 1 authentic of 5 kept 3): 3/5 = 0.6.
        // Paper approximation: 1 − 0.8³ = 0.488 (large-n limit).
        assert!((rate - 0.6).abs() < 0.03, "rate {rate:.3}");
    }

    #[test]
    fn duplicate_reveal_keeps_weak_auth_passing() {
        let (mut sender, mut receiver, mut rng) = setup(4);
        let a1 = sender.announce(1, b"m1").unwrap();
        let a2 = sender.announce(2, b"m2").unwrap();
        receiver.on_announce(&a1, during(1), &mut rng);
        let r1 = sender.reveal(1).unwrap();
        assert!(receiver.on_reveal(&r1, during(2)).is_authenticated());
        receiver.on_announce(&a2, during(2), &mut rng);
        let r2 = sender.reveal(2).unwrap();
        assert!(receiver.on_reveal(&r2, during(3)).is_authenticated());
        // Replay r1 (anchor is now past it): weak auth still passes via
        // derivation, but the entry is consumed → NoCandidate.
        assert_eq!(
            receiver.on_reveal(&r1, during(3)),
            RevealOutcome::NoCandidate { index: 1 }
        );
    }

    #[test]
    fn stale_entries_expire() {
        let (mut sender, mut receiver, mut rng) = setup(4);
        let ann = sender.announce(1, b"m").unwrap();
        receiver.on_announce(&ann, during(1), &mut rng);
        assert_eq!(receiver.buffered_count(), 1);
        // No reveal ever arrives; by interval 4 the entry is GC'd
        // (i + d + 1 = 3 < 4).
        let a4 = sender.announce(4, b"m4").unwrap();
        receiver.on_announce(&a4, during(4), &mut rng);
        assert_eq!(receiver.stats().entries_expired, 1);
        assert_eq!(receiver.buffered_count(), 1); // only interval 4's entry
    }

    #[test]
    fn memory_accounting_is_56_bits_per_entry() {
        let (mut sender, mut receiver, mut rng) = setup(4);
        let ann = sender.announce(1, b"m").unwrap();
        receiver.on_announce(&ann, during(1), &mut rng);
        assert_eq!(receiver.memory_bits(), 56);
        assert_eq!(receiver.memory_capacity_bits(), 3 * 4 * 56);
    }

    #[test]
    fn set_buffers_reprovisions() {
        let (_, mut receiver, _) = setup(4);
        receiver.set_buffers(10);
        assert_eq!(receiver.buffer_capacity(), 10);
        assert_eq!(receiver.memory_capacity_bits(), 3 * 10 * 56);
    }

    #[test]
    fn counter_resets_each_interval() {
        // With m = 1 and one copy per interval, every copy must be
        // stored directly (k = 1 each interval → empty-or-replace path
        // never rolls the m/k coin against a stale k).
        let (mut sender, mut receiver, mut rng) = setup(1);
        for i in 1..=5u64 {
            let ann = sender.announce(i, b"x").unwrap();
            receiver.on_announce(&ann, during(i), &mut rng);
            let rev = sender.reveal(i).unwrap();
            assert!(
                receiver.on_reveal(&rev, during(i + 1)).is_authenticated(),
                "interval {i}"
            );
        }
    }

    #[test]
    fn reveal_before_announce_reports_no_candidate_then_announce_expires() {
        // Jitter can reorder frames: the reveal overtakes the announce.
        let (mut sender, mut receiver, mut rng) = setup(4);
        let ann = sender.announce(1, b"m").unwrap();
        let rev = sender.reveal(1).unwrap();
        assert_eq!(
            receiver.on_reveal(&rev, during(2)),
            RevealOutcome::NoCandidate { index: 1 }
        );
        // The late announce now fails the safe-packet test (its key is
        // public) — it must not be buffered.
        assert_eq!(
            receiver.on_announce(&ann, during(2), &mut rng),
            AnnounceOutcome::Unsafe
        );
        assert_eq!(receiver.stats().authenticated, 0);
    }

    #[test]
    fn reannouncing_an_interval_replaces_the_pending_message() {
        // The sender holds one message per interval (Fig. 4's layout);
        // announcing twice replaces the pending reveal payload, and only
        // the matching (second) announcement authenticates.
        let (mut sender, mut receiver, mut rng) = setup(4);
        let first = sender.announce(1, b"v1").unwrap();
        let second = sender.announce(1, b"v2").unwrap();
        receiver.on_announce(&first, during(1), &mut rng);
        receiver.on_announce(&second, during(1), &mut rng);
        let rev = sender.reveal(1).unwrap();
        assert_eq!(&rev.message[..], b"v2");
        let out = receiver.on_reveal(&rev, during(2));
        assert!(out.is_authenticated());
    }

    #[test]
    fn cross_interval_entries_coexist() {
        // d = 2: two intervals' entries are in flight at once.
        let params = DapParams::new(SimDuration(100), 2, 0, 8);
        let mut sender = DapSender::new(b"s", 16, params);
        let mut receiver = DapReceiver::new(sender.bootstrap(), b"n");
        let mut rng = SimRng::new(5);
        let a1 = sender.announce(1, b"m1").unwrap();
        let a2 = sender.announce(2, b"m2").unwrap();
        receiver.on_announce(&a1, during(1), &mut rng);
        receiver.on_announce(&a2, during(2), &mut rng);
        assert_eq!(receiver.buffered_count(), 2);
        assert!(receiver
            .on_reveal(&sender.reveal(1).unwrap(), during(3))
            .is_authenticated());
        assert!(receiver
            .on_reveal(&sender.reveal(2).unwrap(), during(4))
            .is_authenticated());
    }

    #[test]
    fn reveals_behind_the_anchor_are_checked_within_the_step_bound() {
        let chain = KeyChain::generate(b"dap", 4200, Domain::F);
        let sender = DapSender::with_chain(chain.clone(), params_with(4));
        let mut receiver = DapReceiver::new(sender.bootstrap(), b"node-7");
        let reveal = |index: u64, key: Key| Reveal {
            index,
            message: b"x".to_vec(),
            key,
        };
        let genuine = |index: u64| reveal(index, *chain.key(index as usize).unwrap());
        let forged = Key::derive(b"forged", b"k");
        // Nothing announced: reveals 2000 and 4101 re-anchor across
        // their gaps, each within the bound.
        assert_eq!(
            receiver.on_reveal(&genuine(2000), during(2001)),
            RevealOutcome::NoCandidate { index: 2000 }
        );
        assert_eq!(
            receiver.on_reveal(&genuine(4101), during(4102)),
            RevealOutcome::NoCandidate { index: 4101 }
        );
        // A genuine reveal inside the gap still passes weak auth
        // (nothing buffered, so NoCandidate, not Rejected) ...
        assert_eq!(
            receiver.on_reveal(&genuine(3000), during(4102)),
            RevealOutcome::NoCandidate { index: 3000 }
        );
        // ... while a forged in-gap key is weakly rejected.
        assert_eq!(
            receiver.on_reveal(&reveal(3001, forged), during(4102)),
            RevealOutcome::WeakRejected { index: 3001 }
        );
        // Interval 1 lies 4100 steps behind the anchor, past the bound:
        // refused before any walk, its genuine key as much as a forged one.
        for key in [*chain.key(1).unwrap(), forged] {
            assert_eq!(
                receiver.on_reveal(&reveal(1, key), during(4102)),
                RevealOutcome::WeakRejected { index: 1 }
            );
        }
        // Only the two re-anchorings moved the recovery counters.
        assert_eq!(receiver.stats().chain_recoveries, 2);
        assert_eq!(receiver.stats().max_recovery_depth, 2101);
        assert_eq!(receiver.stats().weak_rejected, 3);
    }

    #[test]
    fn blackout_gap_triggers_desync_then_bounded_recovery() {
        let (mut sender, mut receiver, mut rng) = setup(4);
        // Interval 1 authenticates normally.
        let a1 = sender.announce(1, b"pre-blackout").unwrap();
        receiver.on_announce(&a1, during(1), &mut rng);
        assert!(receiver
            .on_reveal(&sender.reveal(1).unwrap(), during(2))
            .is_authenticated());
        assert!(!receiver.is_desynced());

        // Blackout: intervals 2..=7 never arrive. The first frame after
        // the fault clears exposes the gap.
        let a8 = sender.announce(8, b"post-blackout").unwrap();
        receiver.on_announce(&a8, during(8), &mut rng);
        assert!(receiver.is_desynced());
        assert_eq!(receiver.stats().desyncs, 1);

        // The next genuine reveal re-anchors across the whole gap.
        let out = receiver.on_reveal(&sender.reveal(8).unwrap(), during(9));
        assert!(out.is_authenticated());
        assert!(!receiver.is_desynced());
        assert_eq!(receiver.stats().chain_recoveries, 1);
        assert_eq!(receiver.stats().max_recovery_depth, 7);
    }
}
