//! The benchmark's view into the shipped verifiers: a [`FrameVerifier`]
//! wrapper that delegates every trait method unchanged. Untraced, its
//! only hook is one clock read per authenticated reveal; traced, it
//! also times and tallies each call into the verifier.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dap_core::{DapMessage, PostureDirective, SenderId};
use dap_net::{FrameVerdict, FrameVerifier, LiveCounters, PriorityClass};
use dap_simnet::{keys, Registry, SimRng, SimTime};

use crate::stream::Stream;

/// Per-call tallies of one shard's verifier, kept in traced passes.
#[derive(Debug, Default)]
pub struct Tally {
    /// `on_frame` wall time per announce, in ns.
    pub announce_ns: Vec<u32>,
    /// `on_frame` wall time per reveal, in ns.
    pub reveal_ns: Vec<u32>,
    /// Verdicts that stored an announce or authenticated a reveal.
    pub useful: u64,
    /// Announces that reached a reservoir.
    pub offered: u64,
    /// Of those, announces the reservoir kept.
    pub kept: u64,
    /// Total `prefetch` wall time, in ns.
    pub prefetch_ns: u64,
    /// `prefetch` calls.
    pub prefetch_calls: u64,
    /// Reveals handed to `prefetch`.
    pub prefetch_reveals: u64,
}

impl Tally {
    /// Adds another shard's tally to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.announce_ns.extend(other.announce_ns);
        self.reveal_ns.extend(other.reveal_ns);
        self.useful += other.useful;
        self.offered += other.offered;
        self.kept += other.kept;
        self.prefetch_ns += other.prefetch_ns;
        self.prefetch_calls += other.prefetch_calls;
        self.prefetch_reveals += other.prefetch_reveals;
    }
}

/// What a probe hands back when its shard shuts down.
#[derive(Debug, Default)]
pub struct ShardOut {
    /// `(reveal slot, ns since the pass epoch)` per authenticated reveal.
    pub stamps: Vec<(u32, u64)>,
    /// The traced tallies (`None` untraced).
    pub tally: Option<Tally>,
    /// The shard's resident sessions at shutdown.
    pub occupancy: u64,
}

/// Where probes deposit their [`ShardOut`]s.
pub type Sink = Arc<Mutex<Vec<ShardOut>>>;

/// Wraps one shard's verifier.
pub struct Probe<V> {
    inner: V,
    senders: u64,
    epoch: Instant,
    out: ShardOut,
    sink: Sink,
}

impl<V: FrameVerifier> Probe<V> {
    /// A probe around `inner`. `stamps` must have room for every reveal
    /// of the pass, so recording never allocates; `traced` turns the
    /// per-call tallies on.
    pub fn new(
        inner: V,
        stream: &Stream,
        epoch: Instant,
        stamps: Vec<(u32, u64)>,
        traced: bool,
        sink: Sink,
    ) -> Self {
        Self {
            inner,
            senders: stream.shape.senders,
            epoch,
            out: ShardOut {
                stamps,
                tally: traced.then(Tally::default),
                occupancy: 0,
            },
            sink,
        }
    }
}

impl<V: FrameVerifier> FrameVerifier for Probe<V> {
    fn on_frame(
        &mut self,
        sender: SenderId,
        frame: &DapMessage,
        at: SimTime,
        rng: &mut SimRng,
        registry: &mut Registry,
        live: &LiveCounters,
    ) -> FrameVerdict {
        let verdict = match &mut self.out.tally {
            None => self.inner.on_frame(sender, frame, at, rng, registry, live),
            Some(tally) => {
                let start = Instant::now();
                let verdict = self.inner.on_frame(sender, frame, at, rng, registry, live);
                let ns = u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX);
                match frame {
                    DapMessage::Announce(_) => tally.announce_ns.push(ns),
                    DapMessage::Reveal(_) => tally.reveal_ns.push(ns),
                }
                if let Some(note) = verdict.buffer {
                    tally.offered += 1;
                    tally.kept += u64::from(note.kept);
                }
                tally.useful += u64::from(matches!(verdict.outcome, "stored" | "auth"));
                verdict
            }
        };
        if let (DapMessage::Reveal(reveal), "auth") = (frame, verdict.outcome) {
            let ordinal = sender.0.saturating_sub(1);
            let slot = Stream::slot(self.senders, ordinal, reveal.index);
            let ns = self.epoch.elapsed().as_nanos() as u64;
            self.out.stamps.push((slot, ns));
        }
        verdict
    }

    fn on_shutdown(&mut self, registry: &mut Registry) {
        self.inner.on_shutdown(registry);
        self.out.occupancy = registry
            .get_gauge(keys::NET_SESSION_OCCUPANCY)
            .and_then(|g| g.last())
            .unwrap_or(0);
        self.sink
            .lock()
            .expect("probe sink poisoned")
            .push(std::mem::take(&mut self.out));
    }

    fn classify(&self, sender: SenderId) -> PriorityClass {
        self.inner.classify(sender)
    }

    fn prefetch(&mut self, batch: &[(SenderId, DapMessage)]) {
        let Some(tally) = &mut self.out.tally else {
            return self.inner.prefetch(batch);
        };
        let start = Instant::now();
        self.inner.prefetch(batch);
        tally.prefetch_ns += start.elapsed().as_nanos() as u64;
        tally.prefetch_calls += 1;
        tally.prefetch_reveals += batch
            .iter()
            .filter(|(_, m)| matches!(m, DapMessage::Reveal(_)))
            .count() as u64;
    }

    fn on_posture(&mut self, directive: &PostureDirective) -> Option<dap_net::pool::PostureUpdate> {
        self.inner.on_posture(directive)
    }
}
