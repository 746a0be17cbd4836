//! Per-sender session state behind a bounded memory envelope.
//!
//! The crowdsensing setting is many-to-one: a base station authenticates
//! broadcasts from thousands of contributors, each running its own key
//! chain. A [`SessionTable`] holds one [`DapReceiver`] per *resident*
//! sender — chain anchor, clock skew and reservoir buffers — and is
//! owned outright by a single pool shard: frames hash to shards by
//! [`SenderId`], so a sender's whole session lives on exactly one thread
//! and the hot path takes no cross-shard locks.
//!
//! Residency is bounded two ways ([`SessionConfig`]): a session-count
//! cap and a memory budget in bits, accounted at each session's
//! *provisioned* capacity (`(d + 2)·m·56` bits plus a fixed overhead
//! constant) rather than its instantaneous buffer occupancy — so the
//! budget arithmetic is deterministic and admission never depends on
//! which announces happened to survive sampling. When admitting a new
//! sender would exceed either bound, the least-recently-used resident
//! session is evicted. An evicted sender is not banished: its next frame
//! re-admits it with a fresh receiver, which re-anchors off the chain
//! commitment across the gap (`ChainAnchor::authenticate`, at most
//! `ChainAnchor::MAX_STEPS` intervals in one step) — the sender loses pending (unrevealed) intervals but authenticates
//! again from the next interval on. Bounded RAM thus serves an unbounded
//! sender population, trading tail latency for the flood immunity the
//! paper's fixed-memory analysis assumes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dap_core::{DapBootstrap, DapReceiver, SenderId};

/// Fixed per-session accounting overhead in bits (anchor, skew, map
/// slots — everything that is not reservoir buffers). A round constant,
/// not a `size_of` reading, so budget math never shifts under layout
/// changes.
pub const SESSION_OVERHEAD_BITS: u64 = 1024;

/// Initial priority score for a freshly admitted session, in permille.
pub const SCORE_INIT_PERMILLE: u32 = 500;

/// Resident sessions scoring at or above this are [`PriorityClass::High`].
pub const SCORE_HIGH_PERMILLE: u32 = 500;

/// Priority class of a sender, as seen by the pool's drain and eviction
/// policies. The ordering is the drain order: `Pinned` frames are
/// verified first under queue pressure, `Low` frames are shed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Operator-pinned sender (`dapd --pin`): never evicted while any
    /// unpinned session exists, drained ahead of everything else.
    Pinned,
    /// Resident session whose recent auth success keeps its EWMA score
    /// at or above [`SCORE_HIGH_PERMILLE`].
    High,
    /// Everything else: unproven newcomers, senders whose reveals keep
    /// failing, and non-resident ids. Reputation is earned, not granted.
    Low,
}

impl PriorityClass {
    /// Stable lowercase label used in metrics keys and trace events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::Pinned => "pinned",
            PriorityClass::High => "high",
            PriorityClass::Low => "low",
        }
    }
}

/// Residency bounds for a [`SessionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Hard cap on resident sessions (≥ 1 is enforced at admission:
    /// the newest sender always fits once the LRU is evicted).
    pub max_sessions: usize,
    /// Memory budget in bits across resident sessions, accounted at
    /// provisioned capacity + [`SESSION_OVERHEAD_BITS`] each.
    pub memory_budget_bits: u64,
}

impl Default for SessionConfig {
    /// 256 sessions under a 4 Mbit envelope.
    fn default() -> Self {
        Self {
            max_sessions: 256,
            memory_budget_bits: 4 * 1024 * 1024,
        }
    }
}

/// One LRU eviction, reported so the pool can trace it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionEviction {
    /// The sender whose session was dropped.
    pub sender: u64,
    /// Sessions still resident after the eviction.
    pub occupancy: u64,
}

/// Monotone counters the table keeps (mirrored into the registry by the
/// fleet verifier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Senders admitted for the first time.
    pub admitted: u64,
    /// Sessions evicted by the LRU/budget policy.
    pub evicted: u64,
    /// Previously evicted senders admitted again.
    pub readmitted: u64,
    /// Lookups for senders the directory does not know.
    pub unknown: u64,
}

/// How a lookup resolved (the receiver itself is borrowed separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The sender was already resident.
    Resident,
    /// First frame from this sender: a fresh session was provisioned.
    Admitted,
    /// The sender had been evicted earlier and was re-admitted with a
    /// fresh receiver (re-anchors via the chain-recovery path).
    Readmitted,
}

/// A resolved lookup: the sender's receiver plus what admission did.
#[derive(Debug)]
pub struct SessionRef<'a> {
    /// The sender's per-session receiver, LRU-touched.
    pub receiver: &'a mut DapReceiver,
    /// Resident / admitted / readmitted.
    pub admission: Admission,
    /// Evictions the admission forced (empty for residents; uniform
    /// session sizes force at most one).
    pub evicted: Vec<SessionEviction>,
}

#[derive(Debug, Clone)]
struct SessionEntry {
    receiver: DapReceiver,
    cost_bits: u64,
    last_used: u64,
    /// EWMA of recent reveal outcomes in permille (α = 1/8): converges
    /// to 1000 under steady success, decays toward 0 under failure.
    score_permille: u32,
}

/// A shard-owned map from [`SenderId`] to per-sender receiver state,
/// with LRU + memory-budget eviction. See the module docs for the
/// design; `local_seed` salts each session's node-local μMAC secret so
/// two senders' buffered evidence can never be confused (the splice
/// property in `tests/codec_fuzz.rs` pins this down end to end).
#[derive(Debug, Clone)]
pub struct SessionTable {
    config: SessionConfig,
    local_seed: u64,
    clock: u64,
    sessions: BTreeMap<u64, SessionEntry>,
    memory_bits: u64,
    evicted_ever: BTreeSet<u64>,
    stats: SessionStats,
    pins: Arc<BTreeSet<u64>>,
}

impl SessionTable {
    /// An empty table. `local_seed` derives every session's node-local
    /// secret (never transmitted); same seed + same lookup sequence ⇒
    /// identical state, which is what the fleet-soak byte-identity gate
    /// leans on.
    #[must_use]
    pub fn new(config: SessionConfig, local_seed: u64) -> Self {
        Self::with_pins(config, local_seed, Arc::new(BTreeSet::new()))
    }

    /// An empty table with an operator pin set: pinned senders are
    /// evicted only when every resident session is pinned, regardless of
    /// recency or score.
    #[must_use]
    pub fn with_pins(config: SessionConfig, local_seed: u64, pins: Arc<BTreeSet<u64>>) -> Self {
        Self {
            config,
            local_seed,
            clock: 0,
            sessions: BTreeMap::new(),
            memory_bits: 0,
            evicted_ever: BTreeSet::new(),
            stats: SessionStats::default(),
            pins,
        }
    }

    /// Resident sessions.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sessions.len()
    }

    /// Accounted memory across resident sessions, in bits.
    #[must_use]
    pub fn memory_bits(&self) -> u64 {
        self.memory_bits
    }

    /// The configured bounds.
    #[must_use]
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Monotone table counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Whether `sender` is currently resident (no LRU touch).
    #[must_use]
    pub fn is_resident(&self, sender: SenderId) -> bool {
        self.sessions.contains_key(&sender.0)
    }

    /// Whether `sender` is in the operator pin set.
    #[must_use]
    pub fn is_pinned(&self, sender: SenderId) -> bool {
        self.pins.contains(&sender.0)
    }

    /// The sender's current EWMA score in permille, if resident.
    #[must_use]
    pub fn score_permille(&self, sender: SenderId) -> Option<u32> {
        self.sessions.get(&sender.0).map(|e| e.score_permille)
    }

    /// The sender's priority class as the drain and eviction policies
    /// see it right now. Non-resident unpinned ids classify `Low`:
    /// reputation is earned by authenticating, never presumed — so a
    /// spoofed id the table has never admitted cannot jump the queue.
    #[must_use]
    pub fn priority_class(&self, sender: SenderId) -> PriorityClass {
        if self.pins.contains(&sender.0) {
            return PriorityClass::Pinned;
        }
        match self.sessions.get(&sender.0) {
            Some(entry) if entry.score_permille >= SCORE_HIGH_PERMILLE => PriorityClass::High,
            _ => PriorityClass::Low,
        }
    }

    /// Folds one reveal outcome into the sender's EWMA score
    /// (`score ← score − score/8 + success·125`, integer permille — the
    /// fixed point of steady success is exactly 1000, of steady failure
    /// exactly 0). No LRU touch: scoring a reveal must not change which
    /// session is coldest. No-op for non-resident senders.
    pub fn record_auth(&mut self, sender: SenderId, success: bool) {
        if let Some(entry) = self.sessions.get_mut(&sender.0) {
            let decayed = entry.score_permille - entry.score_permille / 8;
            entry.score_permille = decayed + if success { 125 } else { 0 };
        }
    }

    /// Re-provisions every resident session to `m` reservoir buffers —
    /// the control plane's live re-size. Each receiver keeps its anchor,
    /// skew and pending windows; only *future* intervals sample into the
    /// new capacity. Per-session memory accounting is recomputed (a
    /// bigger `m` costs more bits), but the budget is re-enforced lazily
    /// at the next admission, which evicts down as usual — re-sizing
    /// must not itself evict, or a directive could silently drop pinned
    /// sessions. Returns the number of sessions touched.
    pub fn reprovision(&mut self, m: usize) -> usize {
        let mut touched = 0;
        let mut total = 0u64;
        for entry in self.sessions.values_mut() {
            if entry.receiver.buffer_capacity() != m {
                entry.receiver.set_buffers(m);
                entry.cost_bits = entry.receiver.memory_capacity_bits() + SESSION_OVERHEAD_BITS;
                touched += 1;
            }
            total += entry.cost_bits;
        }
        self.memory_bits = total;
        touched
    }

    /// Resolves `sender` to its session, admitting (or re-admitting) it
    /// via `directory` when absent. Returns `None` when the directory
    /// does not know the sender — unknown senders never consume budget,
    /// so a flood of fabricated ids cannot evict real sessions.
    pub fn lookup(
        &mut self,
        sender: SenderId,
        directory: impl FnOnce(SenderId) -> Option<DapBootstrap>,
    ) -> Option<SessionRef<'_>> {
        self.clock += 1;
        let stamp = self.clock;
        // Two-step resident lookup: starting the mutable borrow inside
        // the branch (not in the condition) keeps the borrow checker
        // happy about the admission path below.
        if self.sessions.contains_key(&sender.0) {
            let entry = self
                .sessions
                .get_mut(&sender.0)
                .expect("residency checked above");
            entry.last_used = stamp;
            return Some(SessionRef {
                receiver: &mut entry.receiver,
                admission: Admission::Resident,
                evicted: Vec::new(),
            });
        }
        let Some(bootstrap) = directory(sender) else {
            self.stats.unknown += 1;
            return None;
        };
        // Per-sender node-local secret: seed ‖ sender id, so shard-local
        // μMAC keys differ across sessions.
        let mut seed = [0u8; 16];
        seed[..8].copy_from_slice(&self.local_seed.to_be_bytes());
        seed[8..].copy_from_slice(&sender.0.to_be_bytes());
        let receiver = DapReceiver::new(bootstrap, &seed);
        let cost_bits = receiver.memory_capacity_bits() + SESSION_OVERHEAD_BITS;
        let mut evicted = Vec::new();
        while !self.sessions.is_empty()
            && (self.sessions.len() + 1 > self.config.max_sessions
                || self.memory_bits + cost_bits > self.config.memory_budget_bits)
        {
            // Victim order: unpinned before pinned, then lowest score,
            // then coldest, then smallest id. A pinned session is thus
            // evicted only when *every* resident session is pinned, and
            // among equals the policy degrades to the PR 6 LRU exactly
            // (scores start equal and move only via `record_auth`).
            let victim = self
                .sessions
                .iter()
                .min_by_key(|(id, entry)| {
                    (
                        u8::from(self.pins.contains(id)),
                        entry.score_permille,
                        entry.last_used,
                        **id,
                    )
                })
                .map(|(id, _)| *id)
                .expect("non-empty table has an LRU victim");
            let dropped = self.sessions.remove(&victim).expect("victim resident");
            self.memory_bits -= dropped.cost_bits;
            self.evicted_ever.insert(victim);
            self.stats.evicted += 1;
            evicted.push(SessionEviction {
                sender: victim,
                occupancy: self.sessions.len() as u64,
            });
        }
        let admission = if self.evicted_ever.contains(&sender.0) {
            self.stats.readmitted += 1;
            Admission::Readmitted
        } else {
            self.stats.admitted += 1;
            Admission::Admitted
        };
        self.memory_bits += cost_bits;
        let entry = self.sessions.entry(sender.0).or_insert(SessionEntry {
            receiver,
            cost_bits,
            last_used: stamp,
            score_permille: SCORE_INIT_PERMILLE,
        });
        Some(SessionRef {
            receiver: &mut entry.receiver,
            admission,
            evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_core::{DapParams, DapSender};
    use dap_simnet::{SimDuration, SimRng, SimTime};

    fn params(m: usize) -> DapParams {
        DapParams::new(SimDuration(100), 1, 0, m)
    }

    fn directory(sender: SenderId) -> Option<DapBootstrap> {
        (sender.0 < 100).then(|| DapSender::new(&sender.0.to_be_bytes(), 8, params(4)).bootstrap())
    }

    fn config(max_sessions: usize) -> SessionConfig {
        SessionConfig {
            max_sessions,
            memory_budget_bits: u64::MAX,
        }
    }

    #[test]
    fn admits_then_finds_resident() {
        let mut table = SessionTable::new(config(4), 7);
        let first = table.lookup(SenderId(1), directory).expect("known sender");
        assert_eq!(first.admission, Admission::Admitted);
        assert!(first.evicted.is_empty());
        let again = table.lookup(SenderId(1), directory).expect("resident");
        assert_eq!(again.admission, Admission::Resident);
        assert_eq!(table.occupancy(), 1);
        assert_eq!(table.stats().admitted, 1);
    }

    #[test]
    fn unknown_senders_consume_nothing() {
        let mut table = SessionTable::new(config(4), 7);
        assert!(table.lookup(SenderId(1000), directory).is_none());
        assert_eq!(table.occupancy(), 0);
        assert_eq!(table.memory_bits(), 0);
        assert_eq!(table.stats().unknown, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_session() {
        let mut table = SessionTable::new(config(2), 7);
        table.lookup(SenderId(1), directory).unwrap();
        table.lookup(SenderId(2), directory).unwrap();
        // Touch 1 so 2 is the LRU.
        table.lookup(SenderId(1), directory).unwrap();
        let third = table.lookup(SenderId(3), directory).unwrap();
        assert_eq!(third.admission, Admission::Admitted);
        assert_eq!(
            third.evicted,
            vec![SessionEviction {
                sender: 2,
                occupancy: 1
            }]
        );
        assert!(table.is_resident(SenderId(1)));
        assert!(!table.is_resident(SenderId(2)));
    }

    #[test]
    fn memory_budget_caps_residency() {
        let probe = DapReceiver::new(directory(SenderId(0)).unwrap(), b"probe");
        let cost = probe.memory_capacity_bits() + SESSION_OVERHEAD_BITS;
        let mut table = SessionTable::new(
            SessionConfig {
                max_sessions: usize::MAX,
                memory_budget_bits: 3 * cost,
            },
            7,
        );
        for id in 0..10u64 {
            table.lookup(SenderId(id), directory).unwrap();
            assert!(table.memory_bits() <= 3 * cost, "budget exceeded at {id}");
        }
        assert_eq!(table.occupancy(), 3);
        assert_eq!(table.stats().evicted, 7);
    }

    #[test]
    fn evicted_sender_readmits_and_reanchors() {
        let mut sender = DapSender::new(&1u64.to_be_bytes(), 8, params(4));
        let mut table = SessionTable::new(config(1), 7);
        let mut rng = SimRng::new(3);

        // Interval 1 authenticates normally.
        let session = table.lookup(SenderId(1), directory).unwrap();
        let a1 = sender.announce(1, b"r1").unwrap();
        session.receiver.on_announce(&a1, SimTime(10), &mut rng);
        let session = table.lookup(SenderId(1), directory).unwrap();
        assert!(session
            .receiver
            .on_reveal(&sender.reveal(1).unwrap(), SimTime(110))
            .is_authenticated());

        // Another sender evicts it (capacity 1).
        table.lookup(SenderId(2), directory).unwrap();
        assert!(!table.is_resident(SenderId(1)));

        // Its next interval re-admits with a fresh receiver that
        // re-anchors across the gap and authenticates again.
        let session = table.lookup(SenderId(1), directory).unwrap();
        assert_eq!(session.admission, Admission::Readmitted);
        let a3 = sender.announce(3, b"r3").unwrap();
        session.receiver.on_announce(&a3, SimTime(210), &mut rng);
        let session = table.lookup(SenderId(1), directory).unwrap();
        assert!(session
            .receiver
            .on_reveal(&sender.reveal(3).unwrap(), SimTime(310))
            .is_authenticated());
        assert_eq!(table.stats().readmitted, 1);
    }

    fn pin_set(ids: &[u64]) -> Arc<BTreeSet<u64>> {
        Arc::new(ids.iter().copied().collect())
    }

    #[test]
    fn pinned_sessions_survive_while_unpinned_exist() {
        let mut table = SessionTable::with_pins(config(2), 7, pin_set(&[1]));
        table.lookup(SenderId(1), directory).unwrap();
        table.lookup(SenderId(2), directory).unwrap();
        // 1 is the coldest, but pinned: 2 must be the victim.
        let third = table.lookup(SenderId(3), directory).unwrap();
        assert_eq!(third.evicted.len(), 1);
        assert_eq!(third.evicted[0].sender, 2);
        assert!(table.is_resident(SenderId(1)));
        assert_eq!(table.priority_class(SenderId(1)), PriorityClass::Pinned);
    }

    #[test]
    fn all_pinned_table_still_admits_by_evicting_a_pin() {
        let mut table = SessionTable::with_pins(config(2), 7, pin_set(&[1, 2, 3]));
        table.lookup(SenderId(1), directory).unwrap();
        table.lookup(SenderId(2), directory).unwrap();
        let third = table.lookup(SenderId(3), directory).unwrap();
        assert_eq!(third.evicted[0].sender, 1, "coldest pin goes first");
    }

    #[test]
    fn low_score_sessions_are_evicted_before_colder_high_scores() {
        let mut table = SessionTable::new(config(2), 7);
        table.lookup(SenderId(1), directory).unwrap();
        table.lookup(SenderId(2), directory).unwrap();
        // 2 is warmer but keeps failing; 1 is colder but authenticates.
        table.record_auth(SenderId(1), true);
        table.record_auth(SenderId(2), false);
        let third = table.lookup(SenderId(3), directory).unwrap();
        assert_eq!(third.evicted[0].sender, 2, "score outranks recency");
    }

    #[test]
    fn ewma_score_converges_and_classifies() {
        let mut table = SessionTable::new(config(4), 7);
        table.lookup(SenderId(1), directory).unwrap();
        assert_eq!(table.score_permille(SenderId(1)), Some(SCORE_INIT_PERMILLE));
        assert_eq!(table.priority_class(SenderId(1)), PriorityClass::High);
        for _ in 0..64 {
            table.record_auth(SenderId(1), true);
        }
        assert_eq!(table.score_permille(SenderId(1)), Some(1000));
        for _ in 0..64 {
            table.record_auth(SenderId(1), false);
        }
        // Integer decay floors at 7 (7/8 == 0) — far below the High
        // threshold either way.
        assert_eq!(table.score_permille(SenderId(1)), Some(7));
        assert_eq!(table.priority_class(SenderId(1)), PriorityClass::Low);
        // Non-resident ids never classify above Low.
        assert_eq!(table.priority_class(SenderId(99)), PriorityClass::Low);
        // record_auth on a non-resident id is a no-op.
        table.record_auth(SenderId(99), true);
        assert!(!table.is_resident(SenderId(99)));
    }

    #[test]
    fn same_seed_tables_evolve_identically() {
        let mut a = SessionTable::new(config(3), 9);
        let mut b = SessionTable::new(config(3), 9);
        for id in [5u64, 1, 5, 2, 3, 1, 4, 5] {
            let ra = a.lookup(SenderId(id), directory).map(|s| s.admission);
            let rb = b.lookup(SenderId(id), directory).map(|s| s.admission);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.occupancy(), b.occupancy());
        assert_eq!(a.memory_bits(), b.memory_bits());
        assert_eq!(a.stats(), b.stats());
    }
}
