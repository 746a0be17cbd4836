//! Time for instrumentation: wall-clock on the wire, tick-driven in
//! deterministic runs.
//!
//! The rule the whole observability plane follows: a latency
//! measurement must never make a fingerprinted run irreproducible. So
//! every clock reading comes from a [`TimeSource`] — real `Instant`s in
//! live UDP runs and benches, a [`ManualTime`] (an explicitly advanced
//! atomic nanosecond counter, usually left at zero) in the seeded
//! loopback campaigns — and the instrumentation code is identical
//! either way.
//! Under manual time every duration comes out as a deterministic
//! constant, so histogram *counts* still fingerprint the run while the
//! recorded durations carry no scheduler noise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An explicitly advanced nanosecond clock; clones share the counter.
#[derive(Debug, Clone, Default)]
pub struct ManualTime {
    ns: Arc<AtomicU64>,
}

impl ManualTime {
    /// A manual clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current reading.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }

    /// Jumps the clock to `ns` (monotonicity is the caller's contract).
    pub fn set_ns(&self, ns: u64) {
        self.ns.store(ns, Ordering::SeqCst);
    }

    /// Advances the clock by `ns`.
    pub fn advance_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::SeqCst);
    }
}

/// Where instrumentation reads time from.
#[derive(Debug, Clone)]
pub enum TimeSource {
    /// Wall clock: nanoseconds since this source was created.
    Wall {
        /// The creation instant all readings are relative to.
        epoch: Instant,
    },
    /// A shared [`ManualTime`] — deterministic runs and tests.
    Manual(ManualTime),
}

impl TimeSource {
    /// A wall-clock source anchored now.
    #[must_use]
    pub fn wall() -> Self {
        Self::Wall {
            epoch: Instant::now(),
        }
    }

    /// A source over an existing manual clock.
    #[must_use]
    pub fn manual(clock: ManualTime) -> Self {
        Self::Manual(clock)
    }

    /// A manual source frozen at zero — the deterministic-campaign
    /// posture: every reading is 0, so every elapsed time is exactly 0.
    #[must_use]
    pub fn frozen() -> Self {
        Self::Manual(ManualTime::new())
    }

    /// Nanoseconds on this source's clock.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        match self {
            Self::Wall { epoch } => u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Self::Manual(clock) => clock.now_ns(),
        }
    }

    /// Whether this source reads the wall clock. Scheduler-dependent
    /// observables (queue occupancy sampled by a worker) must only be
    /// recorded when this is true, or two same-seed runs diverge.
    #[must_use]
    pub fn is_wall(&self) -> bool {
        matches!(self, Self::Wall { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_time_is_shared_and_explicit() {
        let clock = ManualTime::new();
        let source = TimeSource::manual(clock.clone());
        let start = source.now_ns();
        assert_eq!(source.now_ns() - start, 0);
        clock.advance_ns(250);
        assert_eq!(source.now_ns() - start, 250);
        clock.set_ns(1_000);
        assert_eq!(source.now_ns(), 1_000);
        assert!(!source.is_wall());
    }

    #[test]
    fn frozen_source_always_reads_zero_elapsed() {
        let source = TimeSource::frozen();
        let start = source.now_ns();
        assert_eq!(start, 0);
        assert_eq!(source.now_ns(), start);
    }

    #[test]
    fn wall_source_advances() {
        let source = TimeSource::wall();
        assert!(source.is_wall());
        let start = source.now_ns();
        // Burn a little real time; the reading must be monotone.
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        let a = source.now_ns();
        let b = source.now_ns();
        assert!(start <= a && a <= b);
    }
}
