//! Bridging simulator time to wall-clock time.
//!
//! Everything below `dap-net` reasons in [`SimTime`] ticks — the
//! interval grids, safe-packet tests and receivers are all written
//! against the simulator's virtual clock. A wire runtime needs those
//! ticks to correspond to real instants: [`RealClock`] anchors the tick
//! grid at a [`std::time::Instant`] epoch with a configurable tick
//! duration (and an optional bounded skew drawn from
//! [`dap_simnet::ClockOffsets`], mirroring the paper's loose-synchrony
//! assumption), while [`ManualClock`] is a shared, explicitly advanced
//! clock for deterministic tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dap_core::codec;
use dap_simnet::{ClockOffsets, IntervalSchedule, SimRng, SimTime};

/// A source of local protocol time, plus the ability to wait for a tick.
pub trait NetClock: Send + Sync {
    /// The local clock reading, in simulator ticks.
    fn now(&self) -> SimTime;

    /// Blocks until [`now`](Self::now) reaches `deadline` (returns
    /// immediately when it already has).
    fn sleep_until(&self, deadline: SimTime);
}

/// Wall-clock ticks: `now()` counts `tick`-sized steps since an
/// [`Instant`] epoch, shifted by a fixed signed skew in ticks.
///
/// The skew models the paper's `Δ`-bounded clock offsets on a real
/// node: construct via [`RealClock::with_offset`] to draw it from the
/// same [`ClockOffsets`] distribution the simulator uses.
#[derive(Debug, Clone)]
pub struct RealClock {
    epoch: Instant,
    tick: Duration,
    skew_ticks: i64,
}

impl RealClock {
    /// A clock whose tick 0 is *now* and whose ticks last `tick`.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    #[must_use]
    pub fn new(tick: Duration) -> Self {
        assert!(!tick.is_zero(), "tick duration must be positive");
        Self {
            epoch: Instant::now(),
            tick,
            skew_ticks: 0,
        }
    }

    /// Same grid, but read through a skewed local clock: the offset is
    /// sampled from `offsets` (the simulator's `Δ`-bounded model).
    #[must_use]
    pub fn with_offset(mut self, offsets: &ClockOffsets, rng: &mut SimRng) -> Self {
        self.skew_ticks = offsets.sample(rng);
        self
    }

    /// A clock reading `at` *now*: ticks advance from there. This is how
    /// a receiver process with no shared epoch joins a sender's interval
    /// grid — anchor on the interval claimed by the first frame heard
    /// (loose synchronisation by first contact; thereafter the two
    /// clocks drift apart only at hardware-oscillator rates, which `Δ`
    /// absorbs).
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero or `at` does not fit the signed skew.
    #[must_use]
    pub fn anchored_at(tick: Duration, at: SimTime) -> Self {
        let mut clock = Self::new(tick);
        clock.skew_ticks = i64::try_from(at.ticks()).expect("anchor fits i64");
        clock
    }

    /// A UDP receiver's clock, anchored on the first datagram it hears:
    /// it reads the start of the interval `datagram` claims *now*
    /// ([`RealClock::anchored_at`]). A datagram with no readable index,
    /// or one claiming interval 0 (which has no start), anchors at
    /// interval 1.
    ///
    /// The claimed index is unauthenticated, so whoever sends the first
    /// datagram sets the receiver's clock: a far-future claim makes
    /// every genuine announce fail the safe-packet test, and a past one
    /// lets a forger MAC announces under keys the sender has already
    /// disclosed. Use it only where the first datagram is trusted.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    #[must_use]
    pub fn first_contact(tick: Duration, schedule: &IntervalSchedule, datagram: &[u8]) -> Self {
        let index = codec::peek_index(datagram)
            .filter(|&index| index >= 1)
            .unwrap_or(1);
        Self::anchored_at(tick, schedule.start_of(index))
    }

    /// The configured tick duration.
    #[must_use]
    pub fn tick(&self) -> Duration {
        self.tick
    }
}

impl NetClock for RealClock {
    fn now(&self) -> SimTime {
        let elapsed = self.epoch.elapsed();
        let ticks = (elapsed.as_nanos() / self.tick.as_nanos()) as u64;
        SimTime(ticks).offset_by(self.skew_ticks)
    }

    fn sleep_until(&self, deadline: SimTime) {
        // Convert the deadline back through the skew to a real instant.
        let unskewed = deadline.offset_by(-self.skew_ticks);
        let nanos = self
            .tick
            .as_nanos()
            .saturating_mul(u128::from(unskewed.ticks()));
        let target = self.epoch + Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX));
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
    }
}

/// A shared clock that only moves when a test advances it. `sleep_until`
/// yields until some other thread has advanced the clock far enough.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    ticks: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock at tick 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the clock (monotonically — going backwards is a test bug).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current reading.
    pub fn set(&self, t: SimTime) {
        let prev = self.ticks.swap(t.ticks(), Ordering::SeqCst);
        assert!(prev <= t.ticks(), "manual clock moved backwards");
    }
}

impl NetClock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime(self.ticks.load(Ordering::SeqCst))
    }

    fn sleep_until(&self, deadline: SimTime) {
        while self.now() < deadline {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_advances() {
        let clock = RealClock::new(Duration::from_micros(50));
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = clock.now();
        assert!(b > a, "clock did not advance: {a} -> {b}");
        assert_eq!(clock.tick(), Duration::from_micros(50));
    }

    #[test]
    fn real_clock_sleep_until_reaches_deadline() {
        let clock = RealClock::new(Duration::from_micros(100));
        clock.sleep_until(SimTime(20));
        assert!(clock.now() >= SimTime(20));
        // Already-passed deadlines return immediately.
        clock.sleep_until(SimTime(1));
    }

    #[test]
    fn real_clock_offset_shifts_reading() {
        let mut rng = SimRng::new(7);
        let offsets = ClockOffsets::loose(500);
        let base = RealClock::new(Duration::from_micros(10));
        let skewed = base.clone().with_offset(&offsets, &mut rng);
        assert!(skewed.skew_ticks.unsigned_abs() <= 500);
    }

    #[test]
    fn anchored_clock_starts_at_the_anchor() {
        let clock = RealClock::anchored_at(Duration::from_millis(10), SimTime(730));
        let now = clock.now();
        assert!(now >= SimTime(730), "anchored clock read {now}");
        assert!(now < SimTime(760), "anchored clock raced ahead: {now}");
    }

    #[test]
    fn first_contact_anchors_on_the_claimed_interval_from_one() {
        use dap_core::{Announce, DapMessage, DapParams, DapSender, SenderId};
        use dap_crypto::Mac80;
        use dap_simnet::SimDuration;

        // The UDP demo's grid: 100-tick intervals. 10 ms ticks leave a
        // second of slack before a reading drifts into the next interval.
        let params = DapParams::new(SimDuration(100), 1, 30, 4);
        let schedule = params.schedule();
        let anchored = |datagram: &[u8]| {
            let clock = RealClock::first_contact(Duration::from_millis(10), &schedule, datagram);
            schedule.index_at(clock.now())
        };
        // The 5-byte reproducer: an announce claiming interval 0.
        assert_eq!(anchored(&[0x01, 0, 0, 0, 0]), 1);
        let forged_zero = DapMessage::Announce(Announce {
            index: 0,
            mac: Mac80::from_slice(&[7; 10]).unwrap(),
        });
        assert_eq!(
            anchored(&codec::encode_tagged(SenderId(3), &forged_zero).unwrap()),
            1
        );
        assert_eq!(anchored(&[0xff, 0xfe, 0xfd]), 1);
        assert_eq!(anchored(&[]), 1);
        let mut sender = DapSender::new(b"first-contact", 8, params);
        let genuine = DapMessage::Announce(sender.announce(5, b"reading").unwrap());
        assert_eq!(anchored(&codec::encode(&genuine).unwrap()), 5);
    }

    #[test]
    fn manual_clock_is_shared() {
        let clock = ManualClock::new();
        let reader = clock.clone();
        assert_eq!(reader.now(), SimTime(0));
        clock.set(SimTime(42));
        assert_eq!(reader.now(), SimTime(42));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_time_travel() {
        let clock = ManualClock::new();
        clock.set(SimTime(5));
        clock.set(SimTime(4));
    }

    #[test]
    fn manual_sleep_until_wakes_on_advance() {
        let clock = ManualClock::new();
        let waiter = clock.clone();
        let handle = std::thread::spawn(move || {
            waiter.sleep_until(SimTime(3));
            waiter.now()
        });
        std::thread::sleep(Duration::from_millis(5));
        clock.set(SimTime(3));
        assert!(handle.join().unwrap() >= SimTime(3));
    }
}
