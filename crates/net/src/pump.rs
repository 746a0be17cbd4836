//! Traffic sources: the paced genuine sender and the flooder adversary.
//!
//! [`SenderPump`] walks the interval grid on a [`NetClock`], emitting
//! Algorithm 1's schedule onto a [`Transport`]: in interval `i` it
//! broadcasts the announce for `i` (optionally several copies — the
//! paper's senders repeat announcements against loss) and the reveal
//! for `i − d`. [`Flooder`] is the adversary of the evaluation: it
//! saturates the wire with forged announces for the *current* interval
//! (stale indices would be shed by the safe-packet test for free), at a
//! rate derived from a bandwidth share `p` via
//! [`dap_simnet::FloodIntensity`].

use std::io;

use dap_core::{codec, DapMessage, DapSender, SenderId};
use dap_crypto::Mac80;
use dap_simnet::{FloodIntensity, SimRng};

use crate::clock::NetClock;
use crate::transport::Transport;

/// Counters a pump run reports back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Announce frames sent (all copies).
    pub announces: u64,
    /// Reveal frames sent.
    pub reveals: u64,
    /// Intervals skipped because the chain was exhausted.
    pub exhausted: u64,
}

/// Paces a [`DapSender`] onto a transport in real time.
pub struct SenderPump<T: Transport, K: NetClock> {
    sender: DapSender,
    transport: T,
    clock: K,
    /// Announce copies per interval (`a` in the flood arithmetic).
    copies: u32,
    /// Wire identity: `Some` emits `SenderId`-tagged frames (the fleet
    /// posture), `None` the legacy untagged shapes.
    tag: Option<SenderId>,
}

impl<T: Transport, K: NetClock> SenderPump<T, K> {
    /// A pump sending `copies` announce copies per interval.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero.
    pub fn new(sender: DapSender, transport: T, clock: K, copies: u32) -> Self {
        assert!(copies >= 1, "need at least one announce copy");
        Self {
            sender,
            transport,
            clock,
            copies,
            tag: None,
        }
    }

    /// Tags every emitted frame with `id` (fleet mode: the receiver's
    /// session table routes and verifies per sender).
    #[must_use]
    pub fn with_sender_id(mut self, id: SenderId) -> Self {
        self.tag = Some(id);
        self
    }

    fn encode(&self, message: &DapMessage) -> io::Result<Vec<u8>> {
        match self.tag {
            Some(id) => codec::encode_tagged(id, message),
            None => codec::encode(message),
        }
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Runs intervals `1..=intervals`: each interval sends its announce
    /// copies and the reveal due that interval, then a final tail
    /// interval flushes the last pending reveals.
    ///
    /// `message(i)` supplies interval `i`'s payload.
    ///
    /// # Errors
    ///
    /// Propagates transport send failures.
    pub fn run(
        &mut self,
        intervals: u64,
        mut message: impl FnMut(u64) -> Vec<u8>,
    ) -> io::Result<PumpStats> {
        let mut stats = PumpStats::default();
        let schedule = self.sender.params().schedule();
        let d = self.sender.params().disclosure_delay;
        for i in 1..=intervals {
            // Wake a hair into the interval, not at its boundary — a
            // receiver with a slightly fast clock would see a boundary
            // announce as already-disclosed.
            self.clock
                .sleep_until(schedule.start_of(i) + interval_nudge(&schedule));
            match self.sender.announce(i, &message(i)) {
                Ok(announce) => {
                    let frame = self.encode(&DapMessage::Announce(announce))?;
                    for _ in 0..self.copies {
                        self.transport.send(&frame)?;
                        stats.announces += 1;
                    }
                }
                Err(_) => stats.exhausted += 1,
            }
            if i > d {
                stats.reveals += self.send_reveal(i - d)?;
            }
        }
        // Flush: reveals for the last d intervals are due after the loop.
        for i in intervals.saturating_sub(d) + 1..=intervals {
            self.clock
                .sleep_until(schedule.start_of(i + d) + interval_nudge(&schedule));
            stats.reveals += self.send_reveal(i)?;
        }
        Ok(stats)
    }

    fn send_reveal(&mut self, index: u64) -> io::Result<u64> {
        let Some(reveal) = self.sender.reveal(index) else {
            return Ok(0);
        };
        let frame = self.encode(&DapMessage::Reveal(reveal))?;
        self.transport.send(&frame)?;
        Ok(1)
    }
}

/// How far into an interval the pump wakes (one tenth, at least 1 tick).
fn interval_nudge(schedule: &dap_simnet::IntervalSchedule) -> dap_simnet::SimDuration {
    dap_simnet::SimDuration((schedule.interval().ticks() / 10).max(1))
}

/// The flooder adversary: forged announces for the current interval.
///
/// Forged MACs are drawn from a seeded RNG — they pass no verification,
/// but each one a receiver samples into its reservoir evicts genuine
/// evidence with the paper's `m/k` probability. That is the entire
/// attack.
pub struct Flooder<T: Transport> {
    transport: T,
    rng: SimRng,
    intensity: FloodIntensity,
}

impl<T: Transport> Flooder<T> {
    /// A flooder spending bandwidth share `p` (see
    /// [`FloodIntensity::of_bandwidth`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1)`.
    pub fn new(transport: T, seed: u64, p: f64) -> Self {
        Self {
            transport,
            rng: SimRng::new(seed),
            intensity: FloodIntensity::of_bandwidth(p),
        }
    }

    /// The forged copies accompanying `authentic` genuine copies at this
    /// intensity.
    #[must_use]
    pub fn forged_copies(&self, authentic: u64) -> u64 {
        self.intensity.forged_copies(authentic)
    }

    /// Emits one forged announce claiming interval `index`.
    ///
    /// # Errors
    ///
    /// Propagates transport send failures.
    pub fn send_forged(&mut self, index: u64) -> io::Result<()> {
        let frame = self
            .forged_frame(None, index)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.transport.send(&frame)
    }

    /// Emits one forged announce *spoofing* sender `victim` — the fleet
    /// attack: the wire tag is unauthenticated, so the flooder claims
    /// any identity it likes and pollutes that sender's reservoirs.
    ///
    /// # Errors
    ///
    /// Propagates transport send failures.
    pub fn send_forged_as(&mut self, victim: SenderId, index: u64) -> io::Result<()> {
        let frame = self
            .forged_frame(Some(victim), index)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.transport.send(&frame)
    }

    fn forged_frame(
        &mut self,
        victim: Option<SenderId>,
        index: u64,
    ) -> Result<Vec<u8>, codec::EncodeError> {
        let mut mac = [0u8; Mac80::LEN];
        self.rng.fill_bytes(&mut mac);
        let message = DapMessage::Announce(dap_core::Announce {
            index,
            mac: Mac80::from_slice(&mac).expect("fixed length"),
        });
        match victim {
            Some(id) => codec::encode_tagged(id, &message),
            None => codec::encode(&message),
        }
    }

    /// Floods `clock`'s current interval with `batch` forged announces,
    /// then returns (callers loop this against a duration or interval
    /// budget).
    ///
    /// # Errors
    ///
    /// Propagates transport send failures.
    pub fn flood_current<K: NetClock>(
        &mut self,
        clock: &K,
        schedule: &dap_simnet::IntervalSchedule,
        batch: u64,
    ) -> io::Result<u64> {
        let index = schedule.index_at(clock.now());
        for _ in 0..batch {
            self.send_forged(index)?;
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RealClock;
    use crate::transport::LoopbackTransport;
    use dap_core::DapParams;
    use dap_simnet::{ChannelModel, IntervalSchedule, SimDuration};
    use std::time::Duration;

    #[test]
    fn pump_emits_the_full_schedule() {
        let params = DapParams::new(SimDuration(100), 1, 0, 4);
        let sender = DapSender::new(b"pump", 16, params);
        let wire = LoopbackTransport::new(1, ChannelModel::perfect(), 0.0);
        // 100 ticks × 20µs = 2ms per interval: the test runs in ~15ms.
        let clock = RealClock::new(Duration::from_micros(20));
        let mut pump = SenderPump::new(sender, wire.clone(), clock, 2);
        let stats = pump
            .run(5, |i| format!("reading {i}").into_bytes())
            .unwrap();
        assert_eq!(stats.announces, 10); // 5 intervals × 2 copies
        assert_eq!(stats.reveals, 5);
        assert_eq!(stats.exhausted, 0);
        assert_eq!(wire.wire_metrics().get("net.wire.sent"), 15);
    }

    #[test]
    fn pump_reports_chain_exhaustion() {
        let params = DapParams::new(SimDuration(10), 1, 0, 4);
        let sender = DapSender::new(b"short", 3, params);
        let wire = LoopbackTransport::new(1, ChannelModel::perfect(), 0.0);
        let clock = RealClock::new(Duration::from_micros(10));
        let mut pump = SenderPump::new(sender, wire, clock, 1);
        let stats = pump.run(5, |_| b"x".to_vec()).unwrap();
        assert_eq!(stats.announces, 3);
        assert_eq!(stats.exhausted, 2);
    }

    #[test]
    fn flooder_emits_decodable_forgeries() {
        let wire = LoopbackTransport::new(5, ChannelModel::perfect(), 0.0);
        let mut flooder = Flooder::new(wire.clone(), 99, 0.8);
        assert_eq!(flooder.forged_copies(5), 20);
        flooder.send_forged(7).unwrap();
        let mut rx = wire;
        let mut buf = [0u8; 64];
        let n = rx.recv(&mut buf).unwrap().unwrap();
        let decoded = codec::decode(&buf[..n]).unwrap();
        match decoded {
            DapMessage::Announce(a) => assert_eq!(a.index, 7),
            DapMessage::Reveal(_) => panic!("flooder sent a reveal"),
        }
    }

    #[test]
    fn flood_current_targets_the_live_interval() {
        let wire = LoopbackTransport::new(5, ChannelModel::perfect(), 0.0);
        let mut flooder = Flooder::new(wire.clone(), 99, 0.5);
        let clock = RealClock::new(Duration::from_micros(10));
        let schedule = IntervalSchedule::new(dap_simnet::SimTime::ZERO, SimDuration(100));
        let sent = flooder.flood_current(&clock, &schedule, 8).unwrap();
        assert_eq!(sent, 8);
        assert_eq!(wire.wire_metrics().get("net.wire.sent"), 8);
    }
}
