//! The sharded receiver pool.
//!
//! One socket reader fans frames out to `N` worker threads. Routing is
//! by *interval index* — a splitmix-mixed hash of the index field read
//! straight off the frame header ([`dap_core::codec::peek_index`], no
//! crypto on the reader thread) — so an interval's announces and its
//! reveal always land on the same shard, and each shard can own its
//! reservoir pools outright: the paper's per-interval `m/k` sampling
//! semantics survive sharding untouched, because all copies of interval
//! `i` compete inside exactly one shard.
//!
//! Each shard drains a bounded ingress queue: the reader copies each
//! datagram into the queue's byte arena, and the worker takes the whole
//! queue — items and arena — under one lock (DESIGN §8). The overflow
//! policy is explicit ([`OverflowPolicy`]): `DropCount` never blocks the
//! socket reader — a full shard sheds the frame and the drop is counted
//! under `net.ingress.dropped` (shedding *pre*-reservoir keeps the
//! surviving offer stream a uniform subsample, so `m/k` still holds over
//! what got through) — while `Block` applies backpressure, which is what
//! the deterministic loopback runs use (a drop decided by scheduler
//! timing would break bit-reproducibility).
//!
//! # Observability
//!
//! Every worker owns a [`Registry`] (counters, the `net.stage.*`
//! latency histograms and, on the wire, queue occupancy) and, when the
//! run is traced, a [`TraceRing`] whose source id is its shard index, so
//! the collected records totally order per source even though threads
//! interleave freely. Untraced, no source holds a ring and no record is
//! built. Each per-frame fact is recorded once: decode and verify time
//! go only to the stage histograms, and a verdict only to its
//! [`TraceEvent::VerifyEnd`]. [`PoolObs`] selects the posture: wall
//! time + live publishing on the wire, frozen [`TimeSource`] + bounded
//! ring traces in the deterministic loopback runs (where every clock
//! reading is 0 and two same-seed runs render byte-identical
//! snapshots). [`ReceiverPool::shutdown_with_report`] returns the whole
//! picture.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use dap_core::codec::TaggedFrame;
use dap_core::{
    codec, AnnounceOutcome, DapBootstrap, DapMessage, DapReceiver, PostureDirective, RevealOutcome,
    SenderId,
};
use dap_crypto::rng::splitmix64;
use dap_obs::{
    frame_span, span_id, Histogram, SpanStage, TimeSource, TraceEvent, TraceRecord, TraceRing,
};
use dap_simnet::{keys, Registry, SimRng, SimTime};

use crate::queue::{release_slack, Batch, IngressQueue, PushError, Take};
use crate::session::{PriorityClass, SessionEviction};
use crate::telemetry::SharedRegistry;

/// What a full shard queue does to the next frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Shed the frame and count it (`net.ingress.dropped`); the socket
    /// reader never blocks. The wire posture.
    DropCount,
    /// Backpressure the producer until the shard catches up. The
    /// deterministic-loopback posture.
    Block,
}

/// What header field the reader hashes to pick a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Hash the interval index — the single-sender posture: an
    /// interval's announces and its reveal share a shard.
    #[default]
    ByInterval,
    /// Hash the [`SenderId`] wire tag — the fleet posture: *all* of a
    /// sender's frames share a shard, so its whole session (anchor,
    /// skew, reservoirs) is shard-owned and lock-free. Untagged frames
    /// route as [`SenderId::UNTAGGED`].
    BySender,
}

/// Pool shape.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (= shards).
    pub shards: usize,
    /// Frames each shard's ingress queue holds before overflowing.
    /// A worker takes the whole queue at once, so a shard has at most
    /// `2 × queue_depth` frames in flight: the queue refilling while
    /// the worker handles one taken batch (plus, when windowed, the
    /// frames its window has buffered since the last tick). A windowed
    /// shard is woken for datagrams only once half the depth is queued
    /// (DESIGN §8).
    pub queue_depth: usize,
    /// What happens on overflow.
    pub overflow: OverflowPolicy,
    /// What the reader hashes to route a frame.
    pub route: RoutePolicy,
    /// Per-shard, per-window verify budget for the priority drain.
    /// `usize::MAX` (the default) disables windowing entirely: frames
    /// verify the moment they are popped, exactly the pre-priority
    /// behavior. A finite budget makes each worker buffer frames until
    /// the driver's next [`PoolHandle::tick`], then verify the window in
    /// priority order and shed the excess (counted under `net.shed.*`,
    /// traced as [`TraceEvent::ShedDecision`]).
    pub drain_budget: usize,
}

impl Default for PoolConfig {
    /// 4 shards × 1024-frame queues, shedding, routed by interval (the
    /// single-sender wire posture), unwindowed drain.
    fn default() -> Self {
        Self {
            shards: 4,
            queue_depth: 1024,
            overflow: OverflowPolicy::DropCount,
            route: RoutePolicy::ByInterval,
            drain_budget: usize::MAX,
        }
    }
}

/// Observability posture for a pool run.
#[derive(Debug, Clone)]
pub struct PoolObs {
    /// Where the stage clock reads from: [`TimeSource::wall`] on the wire,
    /// [`TimeSource::frozen`] in deterministic runs (durations collapse
    /// to 0 but histogram *counts* still fingerprint the run).
    pub time: TimeSource,
    /// Per-source trace ring capacity; 0 disables tracing entirely: no
    /// source holds a ring and no record is built.
    pub trace_depth: usize,
    /// Live registry the shards clone their state into (the telemetry
    /// endpoint scrapes this). Slot `i` belongs to shard `i`.
    pub publish: Option<Arc<SharedRegistry>>,
    /// Publish cadence in datagrams (0 publishes only at shutdown).
    pub publish_every: u64,
    /// Flight-recorder sampling: every `span_every`-th verified
    /// datagram per shard gets a [`TraceEvent::FrameSpan`] per decoded
    /// frame, and samples in the `net.stage.*` histograms of the stages
    /// only the recorder times (ingress, queue wait, buffer, and the
    /// prefetch stage, which no path runs and which records 0). The
    /// decode, verify and reveal-authenticate stages are timed on every
    /// frame regardless: one clock reading ends each of them. The
    /// recorder adds one reading per sampled frame (its buffer stage)
    /// and one per windowed take. 0 disables the recorder; 1 records
    /// every datagram. The sampling decision is a pure function of the
    /// shard's datagram ordinal, so two same-seed runs sample the same
    /// frames.
    pub span_every: u64,
}

impl Default for PoolObs {
    /// Wall clocks, no tracing, no live publishing, no flight recorder.
    fn default() -> Self {
        Self {
            time: TimeSource::wall(),
            trace_depth: 0,
            publish: None,
            publish_every: 1024,
            span_every: 0,
        }
    }
}

/// How an announce fared against its interval's reservoir — the data a
/// [`TraceEvent::BufferDecision`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferNote {
    /// Whether the μMAC survived sampling (stored or replaced an entry).
    pub kept: bool,
    /// Offers the interval's pool has seen so far (the paper's `k`).
    pub offered: u64,
    /// Pool capacity (the paper's `m`).
    pub capacity: u64,
}

/// What a verifier concluded about one frame — the pool turns this into
/// trace events without knowing protocol internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameVerdict {
    /// Outcome label for the [`TraceEvent::VerifyEnd`] record, one of
    /// [`dap_obs::OUTCOMES`].
    pub outcome: &'static str,
    /// The interval index the frame claimed.
    pub interval: u64,
    /// Present when the frame went through reservoir sampling.
    pub buffer: Option<BufferNote>,
    /// Whether the frame disclosed a chain key (reveals do).
    pub key_reveal: bool,
    /// Present when admitting the frame's sender evicted another
    /// session (fleet verifiers; traced as
    /// [`TraceEvent::SessionEvicted`]).
    pub evicted: Option<SessionEviction>,
}

/// Per-shard protocol state: turns decoded frames into outcomes and
/// counters. One verifier instance lives on each worker thread.
pub trait FrameVerifier: Send {
    /// Processes one decoded frame stamped with its receive time and
    /// wire-attributed sender ([`SenderId::UNTAGGED`] for legacy
    /// frames), returning the verdict the pool traces.
    fn on_frame(
        &mut self,
        sender: SenderId,
        frame: &DapMessage,
        at: SimTime,
        rng: &mut SimRng,
        registry: &mut Registry,
        live: &LiveCounters,
    ) -> FrameVerdict;

    /// Called once when the shard's queue closes, before the worker
    /// returns its registry — the hook fleet verifiers use to fold
    /// per-sender/session state into the merged report. Default: no-op.
    fn on_shutdown(&mut self, registry: &mut Registry) {
        let _ = registry;
    }

    /// The priority class of a *claimed* sender, consulted by the
    /// windowed drain to order verification and pick shed victims. The
    /// default ranks everyone [`PriorityClass::High`], so verifiers that
    /// never heard of priorities drain strictly by arrival order.
    fn classify(&self, sender: SenderId) -> PriorityClass {
        let _ = sender;
        PriorityClass::High
    }

    /// Retired batch hook: the pool never calls it. Every frame, windowed
    /// or not, verifies through [`FrameVerifier::on_frame`] alone. It
    /// stays a default no-op only so verifiers that still forward it
    /// compile; it goes together with the `net.stage.prefetch_ns` stage,
    /// which reads 0.
    fn prefetch(&mut self, batch: &[(SenderId, DapMessage)]) {
        let _ = batch;
    }

    /// Applies a control-plane posture directive — re-size reservoir
    /// buffers, flip the §V give-up switch — and reports the buffer
    /// transition, if any, so the pool can trace it. The directive
    /// arrives *between* windows (the worker flushes its buffered
    /// window first), so a re-size never splits a window's sampling.
    /// Default: ignore directives (verifiers without buffers).
    fn on_posture(&mut self, directive: &PostureDirective) -> Option<PostureUpdate> {
        let _ = directive;
        None
    }
}

/// A buffer re-size a verifier performed in response to a
/// [`PostureDirective`], reported back so the shard can narrate it as
/// [`TraceEvent::PostureChange`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostureUpdate {
    /// Reservoir buffers per interval before the directive.
    pub from_m: u64,
    /// Reservoir buffers per interval after the directive.
    pub to_m: u64,
}

/// Counters the pool mirrors into atomics so callers can watch a live
/// run (e.g. the UDP integration test polling for progress) without
/// waiting for shutdown's metric merge.
///
/// Every counter is `Relaxed` except [`LiveCounters::processed`]:
/// workers add to it once per taken batch with `Release`, after every
/// other write for that batch, and it reads with `Acquire`. So after
/// [`PoolHandle::quiesce`] every counter holds the settled evidence of
/// everything pushed before it.
#[derive(Debug, Default)]
pub struct LiveCounters {
    frames: AtomicU64,
    authenticated: AtomicU64,
    dropped_full: AtomicU64,
    dropped_closed: AtomicU64,
    ticks: AtomicU64,
    processed: AtomicU64,
    shed_pinned: AtomicU64,
    shed_high: AtomicU64,
    shed_low: AtomicU64,
    postures: AtomicU64,
    posture_epoch: AtomicU64,
    live_buffers: AtomicU64,
    give_up: AtomicU64,
    buffered_decided: AtomicU64,
    buffered_forged: AtomicU64,
    /// One past the index of a shard whose worker panicked; 0 while
    /// every worker lives.
    dead_shard: AtomicUsize,
}

impl LiveCounters {
    /// Frames ingested so far (all shards).
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Messages authenticated so far (all shards).
    #[must_use]
    pub fn authenticated(&self) -> u64 {
        self.authenticated.load(Ordering::Relaxed)
    }

    /// Window ticks accepted into shard queues so far. Only a windowed
    /// pool (finite [`PoolConfig::drain_budget`]) queues ticks, so an
    /// unwindowed pool reads 0 here.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Queue items (frames, ticks and posture directives) the workers
    /// have fully handled. Workers publish it once per taken batch with
    /// `Release`, after every other counter write for that batch, and
    /// this reads it with `Acquire`: a caller that sees its items
    /// handled also sees the evidence they produced.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Acquire)
    }

    /// Frames shed by the priority drain at window flushes (all
    /// classes).
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_pinned() + self.shed_high() + self.shed_low()
    }

    /// Shed frames whose claimed sender classified `Pinned`.
    #[must_use]
    pub fn shed_pinned(&self) -> u64 {
        self.shed_pinned.load(Ordering::Relaxed)
    }

    /// Shed frames whose claimed sender classified `High`.
    #[must_use]
    pub fn shed_high(&self) -> u64 {
        self.shed_high.load(Ordering::Relaxed)
    }

    /// Shed frames whose claimed sender classified `Low`.
    #[must_use]
    pub fn shed_low(&self) -> u64 {
        self.shed_low.load(Ordering::Relaxed)
    }

    /// Frames shed by full shard queues (all drop reasons).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped_full() + self.dropped_closed()
    }

    /// Frames shed because a shard queue was at capacity.
    #[must_use]
    pub fn dropped_full(&self) -> u64 {
        self.dropped_full.load(Ordering::Relaxed)
    }

    /// Frames rejected because the pool was shutting down.
    #[must_use]
    pub fn dropped_closed(&self) -> u64 {
        self.dropped_closed.load(Ordering::Relaxed)
    }

    /// Records an authentication (verifier-side).
    pub fn count_authenticated(&self) {
        self.authenticated.fetch_add(1, Ordering::Relaxed);
    }

    /// Posture directives accepted into shard queues so far.
    #[must_use]
    pub fn postures(&self) -> u64 {
        self.postures.load(Ordering::Relaxed)
    }

    /// Epoch of the newest posture directive posted to the pool
    /// (0 before any directive).
    #[must_use]
    pub fn posture_epoch(&self) -> u64 {
        self.posture_epoch.load(Ordering::Relaxed)
    }

    /// Reservoir buffers `m` the newest directive commanded (0 while
    /// the pool still runs its static bootstrap posture).
    #[must_use]
    pub fn live_buffers(&self) -> u64 {
        self.live_buffers.load(Ordering::Relaxed)
    }

    /// Whether the newest directive commanded the §V give-up posture.
    #[must_use]
    pub fn give_up(&self) -> bool {
        self.give_up.load(Ordering::Relaxed) != 0
    }

    /// Reservoir-buffered reveals decided so far — the estimator's
    /// sample denominator (verifier-side).
    #[must_use]
    pub fn buffered_decided(&self) -> u64 {
        self.buffered_decided.load(Ordering::Relaxed)
    }

    /// Buffered reveals that turned out forged — the estimator's sample
    /// numerator (verifier-side).
    #[must_use]
    pub fn buffered_forged(&self) -> u64 {
        self.buffered_forged.load(Ordering::Relaxed)
    }

    /// A shard whose worker panicked, if any: it will never count
    /// another item processed.
    fn dead_shard(&self) -> Option<usize> {
        self.dead_shard.load(Ordering::Relaxed).checked_sub(1)
    }

    /// Records reveal-time buffer evidence (verifier-side): `decided`
    /// buffered entries classified this reveal, `forged` of them
    /// spurious. Reservoir sampling is uniform over a burst, so the
    /// forged share among buffered entries is an unbiased estimate of
    /// the wire's forged fraction `p` — this is the measured signal the
    /// control plane feeds to the game solver.
    pub fn count_reveal_evidence(&self, decided: u64, forged: u64) {
        self.buffered_decided.fetch_add(decided, Ordering::Relaxed);
        self.buffered_forged.fetch_add(forged, Ordering::Relaxed);
    }
}

/// A DAP receiver as a shard verifier (Algorithm 2 behind the fabric).
#[derive(Debug)]
pub struct DapShard {
    receiver: DapReceiver,
}

impl DapShard {
    /// Bootstraps one shard's receiver; `local_seed` must differ per
    /// node but *may* be shared across a node's shards (μMACs never
    /// cross shards either way).
    #[must_use]
    pub fn new(bootstrap: DapBootstrap, local_seed: &[u8]) -> Self {
        Self {
            receiver: DapReceiver::new(bootstrap, local_seed),
        }
    }

    /// The wrapped receiver (for post-run inspection).
    #[must_use]
    pub fn receiver(&self) -> &DapReceiver {
        &self.receiver
    }
}

impl FrameVerifier for DapShard {
    fn on_frame(
        &mut self,
        _sender: SenderId,
        frame: &DapMessage,
        at: SimTime,
        rng: &mut SimRng,
        registry: &mut Registry,
        live: &LiveCounters,
    ) -> FrameVerdict {
        dap_verdict(&mut self.receiver, frame, at, rng, registry, live).0
    }

    fn on_posture(&mut self, directive: &PostureDirective) -> Option<PostureUpdate> {
        let from = self.receiver.buffer_capacity();
        let to = directive.effective_buffers();
        if from == to {
            return None;
        }
        self.receiver.set_buffers(to);
        Some(PostureUpdate {
            from_m: from as u64,
            to_m: to as u64,
        })
    }
}

/// Algorithm 2's verdict mapping, shared by every DAP verifier
/// ([`DapShard`] and [`crate::fleet::FleetShard`]): runs one frame
/// through `receiver`, counts the outcome under `net.announce.*` /
/// `net.reveal.*`, feeds the live auth and reveal-time evidence
/// counters, and returns the verdict. The second value is set for a
/// reveal that reached a verdict (an auth *attempt*): `Some(true)`
/// authenticated, `Some(false)` strong-rejected.
#[inline]
pub(crate) fn dap_verdict(
    receiver: &mut DapReceiver,
    frame: &DapMessage,
    at: SimTime,
    rng: &mut SimRng,
    registry: &mut Registry,
    live: &LiveCounters,
) -> (FrameVerdict, Option<bool>) {
    let (key, outcome, interval, buffer, attempt) = match frame {
        DapMessage::Announce(a) => {
            let announce = receiver.on_announce(a, at, rng);
            let (key, outcome, kept) = match announce {
                AnnounceOutcome::Stored => (keys::NET_ANNOUNCE_STORED, "stored", true),
                AnnounceOutcome::Dropped => (keys::NET_ANNOUNCE_SAMPLED_OUT, "sampled_out", false),
                AnnounceOutcome::Unsafe => (keys::NET_ANNOUNCE_UNSAFE, "unsafe", false),
            };
            // An unsafe announce never reached the reservoir.
            let buffer = (announce != AnnounceOutcome::Unsafe).then(|| BufferNote {
                kept,
                offered: receiver.offered(a.index),
                capacity: receiver.buffer_capacity() as u64,
            });
            (key, outcome, a.index, buffer, None)
        }
        DapMessage::Reveal(r) => {
            registry.incr(keys::NET_REVEAL_TOTAL);
            let before = *receiver.stats();
            let outcome = receiver.on_reveal(r, at);
            let after = receiver.stats();
            live.count_reveal_evidence(
                after.buffered_decided - before.buffered_decided,
                after.buffered_forged - before.buffered_forged,
            );
            let (key, outcome, attempt) = match outcome {
                RevealOutcome::Authenticated { .. } => {
                    live.count_authenticated();
                    (keys::NET_REVEAL_AUTH, "auth", Some(true))
                }
                RevealOutcome::WeakRejected { .. } => {
                    (keys::NET_REVEAL_WEAK_REJECTED, "weak_rejected", None)
                }
                RevealOutcome::StrongRejected { .. } => (
                    keys::NET_REVEAL_STRONG_REJECTED,
                    "strong_rejected",
                    Some(false),
                ),
                RevealOutcome::NoCandidate { .. } => {
                    (keys::NET_REVEAL_NO_CANDIDATE, "no_candidate", None)
                }
            };
            (key, outcome, r.index, None, attempt)
        }
    };
    registry.incr(key);
    let verdict = FrameVerdict {
        outcome,
        interval,
        buffer,
        key_reveal: matches!(frame, DapMessage::Reveal(_)),
        evicted: None,
    };
    (verdict, attempt)
}

/// One datagram as a shard handles it: where its bytes sit in an arena
/// (the taken batch's, or a windowed shard's own), plus the span
/// stamps. The `*_ns` stamps exist only when the flight recorder is on
/// ([`PoolObs::span_every`] > 0); otherwise they stay 0 and cost one
/// branch on the reader.
/// The stamps are `u32` nanoseconds, as [`TraceEvent::FrameSpan`]
/// stores them (saturating at ~4.29 s): a window holds one of these per
/// buffered frame, so the descriptor is kept at 24 bytes.
#[derive(Debug, Clone, Copy)]
struct FrameRef {
    at: SimTime,
    offset: u32,
    len: u32,
    /// Reader-side routing + copy cost (the span's ingress stage).
    ingress_ns: u32,
    /// Enqueue → start of this frame's processing, stamped by the
    /// worker from its stage chain's last reading (the span's
    /// queue-wait stage).
    queue_ns: u32,
}

impl FrameRef {
    /// This frame's bytes in `arena`.
    fn datagram<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.offset as usize..][..self.len as usize]
    }
}

/// One shard-queue item: a datagram, or a window-boundary control tick.
/// Ticks are what make a finite [`PoolConfig::drain_budget`]
/// deterministic — the *driver* decides where windows end (at interval
/// boundaries), so flush contents are a pure function of the pushed
/// sequence, never of how fast a worker happened to drain.
///
/// A queue holds up to `queue_depth` of these and a taken batch as many
/// again, so the frame variant's fields sit inline (32 bytes with the
/// tag) and the rare posture directive is boxed.
enum Ingress {
    /// A datagram: [`FrameRef`]'s fields before the worker stamps the
    /// queue wait.
    Frame {
        at: SimTime,
        /// Reader clock reading at enqueue; the worker subtracts it from
        /// its stage chain's last reading when it starts on the frame to
        /// charge the queue-wait stage.
        enqueued_ns: u64,
        offset: u32,
        len: u32,
        ingress_ns: u32,
    },
    Tick,
    /// A control-plane posture directive, stamped with the driver time
    /// it was issued so the resulting trace events order with traffic.
    Posture(Box<(PostureDirective, SimTime)>),
}

/// The ingest side of a pool: cheap to clone, safe to hand to a socket
/// reader thread while the owner keeps the [`ReceiverPool`] for
/// shutdown.
#[derive(Clone)]
pub struct PoolHandle {
    queues: Arc<Vec<IngressQueue<Ingress>>>,
    overflow: OverflowPolicy,
    route: RoutePolicy,
    live: Arc<LiveCounters>,
    reader_trace: Option<Arc<Mutex<TraceRing>>>,
    /// The pool's clock, cloned from [`PoolObs::time`] so the reader
    /// side can stamp ingress/enqueue times for the flight recorder.
    time: TimeSource,
    /// Whether the flight recorder is on (`span_every > 0`).
    span: bool,
    /// Whether the shards buffer windows (finite drain budget); only
    /// then does a tick carry work.
    windowed: bool,
}

impl PoolHandle {
    /// Which shard the routing key `key` (interval index or sender id,
    /// per [`RoutePolicy`]) lands on.
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        // SplitMix64 mixes consecutive interval indices across shards
        // while staying a pure function of the key.
        (splitmix64(key) % self.queues.len() as u64) as usize
    }

    /// Routes one received datagram to its shard, stamped `at`.
    /// Returns `false` when the shard queue shed it (`DropCount` and
    /// full, or the pool is shutting down).
    pub fn ingest(&self, bytes: &[u8], at: SimTime) -> bool {
        let start_ns = self.span.then(|| self.time.now_ns());
        // Unroutable garbage still goes to a worker (deterministically,
        // by length) so its decode failure is counted like any other.
        let key = match self.route {
            RoutePolicy::ByInterval => codec::peek_index(bytes),
            RoutePolicy::BySender => codec::peek_sender(bytes).map(|s| s.0),
        }
        .unwrap_or(bytes.len() as u64);
        let shard = self.shard_of(key);
        // The ingress stage is routing plus the copy into the shard's
        // arena, read under the push lock right after the copy. A push
        // parked on a full queue charges the park to queue wait instead:
        // enqueue is backdated to when the push started waiting.
        let clock = self.span.then_some(&self.time);
        let outcome = self.queues[shard].push(bytes, self.overflow, clock, |slot| {
            let (ingress_ns, enqueued_ns) = match start_ns {
                Some(start) => {
                    let enqueued = self.time.now_ns().saturating_sub(slot.parked_ns);
                    (enqueued.saturating_sub(start), enqueued)
                }
                None => (0, 0),
            };
            Ingress::Frame {
                at,
                enqueued_ns,
                offset: slot.offset,
                len: slot.len,
                ingress_ns: saturate_u32(ingress_ns),
            }
        });
        match outcome {
            Ok(()) => {
                self.live.frames.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(PushError::Full { depth }) => {
                self.live.dropped_full.fetch_add(1, Ordering::Relaxed);
                if let Some(trace) = &self.reader_trace {
                    trace.lock().expect("reader trace poisoned").emit(
                        at.ticks(),
                        TraceEvent::ShardStall {
                            shard: shard as u32,
                            depth: depth as u64,
                        },
                    );
                }
                false
            }
            Err(PushError::Closed) => {
                self.live.dropped_closed.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Pushes a window-boundary tick to every shard queue: each worker
    /// running a finite drain budget flushes its buffered window — in
    /// priority order, shedding past the budget — when it takes the
    /// tick. Under `Block` the push backpressures like any frame; under
    /// `DropCount` a full queue loses the tick (its windows simply
    /// merge). An unwindowed pool has no window to flush, so it is sent
    /// no tick at all: one would only wake an idle shard.
    pub fn tick(&self) {
        if !self.windowed {
            return;
        }
        for queue in self.queues.iter() {
            if queue.push_item(Ingress::Tick, self.overflow).is_ok() {
                self.live.ticks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Broadcasts a control-plane posture directive to every shard,
    /// stamped `at`. Each worker flushes its buffered window first,
    /// then re-sizes its reservoir buffers (and give-up switch) before
    /// touching any later frame — so a directive posted at an interval
    /// boundary takes effect atomically at that boundary, per shard.
    /// Under `Block` the push backpressures like any frame; under
    /// `DropCount` a full queue loses the directive for that shard (the
    /// next epoch's directive re-converges it).
    pub fn post_posture(&self, directive: PostureDirective, at: SimTime) {
        for queue in self.queues.iter() {
            let item = Ingress::Posture(Box::new((directive, at)));
            if queue.push_item(item, self.overflow).is_ok() {
                self.live.postures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.live
            .posture_epoch
            .store(directive.epoch, Ordering::Relaxed);
        self.live
            .live_buffers
            .store(directive.effective_buffers() as u64, Ordering::Relaxed);
        self.live
            .give_up
            .store(u64::from(directive.give_up), Ordering::Relaxed);
    }

    /// Spins until the workers have handled every item pushed so far
    /// (frames, ticks and posture directives). After this returns, shed
    /// and auth counters
    /// are a deterministic function of the pushed sequence — this is
    /// what lets an adaptive adversary (or a controller) *observe*
    /// defender posture between intervals without racing the workers.
    /// Single-driver campaigns only: with concurrent producers the
    /// target moves and the wait is unbounded.
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, if a shard worker has panicked: its
    /// items would never count as handled.
    pub fn quiesce(&self) {
        // A windowed shard's reader sleeps until its queue is half full
        // or a control item arrives; wake any that holds queued items.
        for queue in self.queues.iter() {
            queue.wake_pending();
        }
        loop {
            let target = self.live.frames() + self.live.ticks() + self.live.postures();
            if self.live.processed() >= target {
                break;
            }
            if let Some(shard) = self.live.dead_shard() {
                panic!("shard {shard}'s worker panicked, so quiesce can never settle");
            }
            std::thread::yield_now();
        }
    }

    /// The live counters (frames / authenticated / dropped).
    #[must_use]
    pub fn live(&self) -> &LiveCounters {
        &self.live
    }
}

/// Everything a pool run observed: the merged registry (counters and
/// latency histograms) and the total-ordered trace.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Merged per-shard registries plus reader-side drop attribution.
    pub registry: Registry,
    /// All trace records, sorted by `(source, seq)`.
    pub trace: Vec<TraceRecord>,
    /// Records the shard and reader rings overwrote because they were
    /// full: a capture missing this many of its oldest records (0 with
    /// tracing off).
    pub trace_shed: u64,
}

/// `N` verifier threads behind bounded ingress queues.
pub struct ReceiverPool {
    handle: PoolHandle,
    workers: Vec<JoinHandle<ShardOutput>>,
}

impl ReceiverPool {
    /// Spawns the worker threads. `make(shard)` builds each shard's
    /// verifier; per-shard RNGs are forked deterministically from
    /// `seed` in shard order, so a run's sampling decisions depend only
    /// on each shard's frame sequence — not on thread scheduling. `obs`
    /// picks the observability posture (time source, trace depth, live
    /// publishing).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn spawn_with_obs<V, F>(config: PoolConfig, seed: u64, mut make: F, obs: PoolObs) -> Self
    where
        V: FrameVerifier + 'static,
        F: FnMut(usize) -> V,
    {
        assert!(config.shards >= 1, "need at least one shard");
        let windowed = config.drain_budget != usize::MAX;
        // A windowed shard only buffers frames until the next tick, so a
        // datagram wakes it once half its queue is full, leaving a
        // `DropCount` producer the other half while it gets scheduled;
        // an unwindowed one verifies each frame as it arrives.
        let wake_at = if windowed {
            config.queue_depth.div_ceil(2)
        } else {
            1
        };
        let queues: Arc<Vec<IngressQueue<Ingress>>> = Arc::new(
            (0..config.shards)
                .map(|_| IngressQueue::new(config.queue_depth, wake_at))
                .collect(),
        );
        let live = Arc::new(LiveCounters::default());
        // Reserved trace source id: the socket reader sits one past the
        // last shard.
        let reader_trace = (obs.trace_depth > 0).then(|| {
            Arc::new(Mutex::new(TraceRing::new(
                config.shards as u32,
                obs.trace_depth,
            )))
        });
        let mut parent = SimRng::new(seed);
        let workers = (0..config.shards)
            .map(|shard| {
                let queues = Arc::clone(&queues);
                let live = Arc::clone(&live);
                let mut rng = parent.fork(shard as u64);
                let mut verifier = make(shard);
                let obs = obs.clone();
                let budget = config.drain_budget;
                std::thread::Builder::new()
                    .name(format!("dap-net-shard-{shard}"))
                    .spawn(move || {
                        run_shard(
                            shard,
                            &queues[shard],
                            budget,
                            &mut verifier,
                            &mut rng,
                            &live,
                            &obs,
                        )
                    })
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            handle: PoolHandle {
                queues,
                overflow: config.overflow,
                route: config.route,
                live,
                reader_trace,
                time: obs.time.clone(),
                span: obs.span_every > 0,
                windowed,
            },
            workers,
        }
    }

    /// A cloneable ingest handle.
    #[must_use]
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// Closes every shard queue, joins the workers and returns the full
    /// observability picture: merged registries (drop reasons folded in
    /// from the live counters) and the `(source, seq)`-sorted trace.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    #[must_use]
    pub fn shutdown_with_report(self) -> PoolReport {
        for queue in self.handle.queues.iter() {
            queue.close();
        }
        let mut registry = Registry::new();
        let mut rings = Vec::with_capacity(self.workers.len());
        for worker in self.workers {
            let shard = worker.join().expect("shard worker panicked");
            registry.merge(&shard.registry);
            rings.extend(shard.trace);
        }
        let reader = self
            .handle
            .reader_trace
            .as_ref()
            .map(|r| r.lock().expect("reader trace poisoned"));
        // One exact-size allocation for the combined trace: a forensic
        // capture concatenates six-figure per-shard rings, and growing
        // into that incrementally doubles the copy traffic.
        let len = rings
            .iter()
            .chain(reader.as_deref())
            .map(|r| r.records().count())
            .sum();
        let mut trace = Vec::with_capacity(len);
        let mut trace_shed = 0;
        for ring in rings {
            trace_shed += ring.shed();
            trace.extend(ring.into_records());
        }
        if let Some(reader) = reader {
            trace_shed += reader.shed();
            trace.extend(reader.records().cloned());
        }
        dap_obs::sort_records(&mut trace);
        let full = self.handle.live.dropped_full();
        let closed = self.handle.live.dropped_closed();
        if full > 0 {
            registry.add(keys::NET_DROP_QUEUE_FULL, full);
        }
        if closed > 0 {
            registry.add(keys::NET_DROP_CLOSED, closed);
        }
        if full + closed > 0 {
            registry.add(keys::NET_INGRESS_DROPPED, full + closed);
        }
        PoolReport {
            registry,
            trace,
            trace_shed,
        }
    }
}

/// One shard's drain loop: take a batch, then decode, verify, count,
/// trace and publish each item in FIFO order. With a finite
/// `drain_budget` the worker buffers frames and flushes the window — in
/// priority order, shedding past the budget — at every
/// [`PoolHandle::tick`] (and once more when the queue closes).
fn run_shard<V: FrameVerifier>(
    shard: usize,
    queue: &IngressQueue<Ingress>,
    drain_budget: usize,
    verifier: &mut V,
    rng: &mut SimRng,
    live: &LiveCounters,
    obs: &PoolObs,
) -> ShardOutput {
    let _watch = DeathWatch { shard, live };
    let mut worker = Worker {
        shard,
        live,
        obs,
        registry: Registry::new(),
        trace: (obs.trace_depth > 0).then(|| TraceRing::new(shard as u32, obs.trace_depth)),
        flight: FlightState::new(obs.span_every),
        window: Window::default(),
        decoded: Vec::new(),
        ingress_frames: 0,
        ingress_bytes: 0,
    };
    let mut datagrams = 0u64;
    let mut published_at = 0u64;
    let windowed = drain_budget != usize::MAX;
    let mut batch = Batch::default();
    // With live publishing the take carries a timeout so a quiet wire
    // still gets fresh scrapes; without it, block outright — no
    // spurious wakeups in the deterministic runs.
    let timeout = obs
        .publish
        .is_some()
        .then(|| std::time::Duration::from_millis(200));
    loop {
        match queue.take(&mut batch, timeout) {
            Take::Batch => {}
            Take::Idle => {
                if let Some(shared) = &obs.publish {
                    if published_at != datagrams {
                        worker.publish(shared);
                        published_at = datagrams;
                    }
                }
                continue;
            }
            Take::Closed => break,
        }
        let taken = batch.items.len() as u64;
        if obs.time.is_wall() {
            // Occupancy depends on scheduler timing, so it is recorded
            // only on the wire — a deterministic run must not let thread
            // interleavings into its fingerprint. One sample per take:
            // the number of items the take found queued.
            worker.registry.record(keys::NET_QUEUE_OCCUPANCY, taken);
        }
        // Frame work starts here on an unwindowed shard. A windowed one
        // only buffers at a take, and its frame work starts once the
        // window's drain order is known; it reads the clock here only to
        // stamp queue waits for the recorder.
        if !windowed || worker.flight.enabled() {
            worker.flight.restart(&obs.time);
        }
        let Batch { items, bytes } = &mut batch;
        for item in items.drain(..) {
            match item {
                Ingress::Frame {
                    at,
                    enqueued_ns,
                    offset,
                    len,
                    ingress_ns,
                } => {
                    // The chain's last reading is where the worker starts
                    // on this frame.
                    let queue_ns = if worker.flight.enabled() {
                        saturate_u32(worker.flight.last_ns.saturating_sub(enqueued_ns))
                    } else {
                        0
                    };
                    let frame = FrameRef {
                        at,
                        offset,
                        len,
                        ingress_ns,
                        queue_ns,
                    };
                    let datagram = frame.datagram(bytes);
                    if windowed {
                        worker.window.push(frame, datagram);
                    } else {
                        worker.process_datagram(&frame, datagram, verifier, rng);
                        datagrams += 1;
                    }
                }
                Ingress::Tick => datagrams += worker.flush_window(drain_budget, verifier, rng),
                Ingress::Posture(posture) => {
                    let (directive, at) = *posture;
                    // A directive is a window boundary too: drain what the
                    // old posture admitted before re-sizing anything.
                    datagrams += worker.flush_window(drain_budget, verifier, rng);
                    let update = verifier.on_posture(&directive);
                    if let (Some(update), Some(ring)) = (update, worker.trace.as_mut()) {
                        ring.emit(
                            at.ticks(),
                            TraceEvent::PostureChange {
                                epoch: directive.epoch,
                                from_m: update.from_m,
                                to_m: update.to_m,
                                p_permille: u64::from(directive.p_permille),
                                give_up: directive.give_up,
                            },
                        );
                    }
                    // A re-provision can walk every session: keep it out
                    // of the next frame's stages.
                    worker.flight.restart(&obs.time);
                }
            }
            if let Some(shared) = &obs.publish {
                if obs.publish_every > 0
                    && datagrams > published_at
                    && datagrams.is_multiple_of(obs.publish_every)
                {
                    worker.publish(shared);
                    published_at = datagrams;
                }
            }
        }
        // Release, after every counter write the batch made: a quiesce
        // that reads this with Acquire sees that evidence settled.
        live.processed.fetch_add(taken, Ordering::Release);
    }
    // Close is the final window boundary: whatever the driver pushed
    // after its last tick still drains under the same policy.
    worker.flush_window(drain_budget, verifier, rng);
    worker.fold();
    verifier.on_shutdown(&mut worker.registry);
    if let Some(shared) = &obs.publish {
        shared.publish(shard, &worker.registry);
    }
    ShardOutput {
        registry: worker.registry,
        trace: worker.trace,
    }
}

/// Marks its shard dead in [`LiveCounters`] when the worker unwinds
/// from a panic, so [`PoolHandle::quiesce`] fails instead of waiting
/// for items the worker will never count.
struct DeathWatch<'a> {
    shard: usize,
    live: &'a LiveCounters,
}

impl Drop for DeathWatch<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.live
                .dead_shard
                .store(self.shard + 1, Ordering::Relaxed);
        }
    }
}

/// What one shard worker hands back at shutdown.
struct ShardOutput {
    registry: Registry,
    /// Its trace ring, when the run is traced.
    trace: Option<TraceRing>,
}

/// A windowed shard's frames since the last window boundary. Each frame
/// is copied out of its taken batch's arena, which the next take
/// reuses, into the window's own; the flush scratch is kept across
/// windows so a flush allocates nothing in steady state.
#[derive(Default)]
struct Window {
    frames: Vec<FrameRef>,
    bytes: Vec<u8>,
    /// Drain order of the window being flushed: `(class, index)`.
    order: Vec<(PriorityClass, usize)>,
}

impl Window {
    fn push(&mut self, frame: FrameRef, datagram: &[u8]) {
        let offset = u32::try_from(self.bytes.len()).expect("window arena within u32 offsets");
        self.bytes.extend_from_slice(datagram);
        self.frames.push(FrameRef { offset, ..frame });
    }
}

/// Everything one shard worker owns besides its verifier and RNG.
struct Worker<'a> {
    shard: usize,
    live: &'a LiveCounters,
    obs: &'a PoolObs,
    registry: Registry,
    /// The shard's trace ring; `None` when the run is untraced.
    trace: Option<TraceRing>,
    flight: FlightState,
    window: Window,
    /// Decode output, reused across datagrams.
    decoded: Vec<TaggedFrame>,
    /// `net.ingress.frames` and `net.ingress.bytes` since the last fold:
    /// every datagram the worker verified or shed.
    ingress_frames: u64,
    ingress_bytes: u64,
}

impl Worker<'_> {
    /// Counts one datagram the worker verified or shed.
    fn count_ingress(&mut self, datagram: &[u8]) {
        self.ingress_frames += 1;
        self.ingress_bytes += datagram.len() as u64;
    }

    /// Folds the worker's local tallies — ingress counts and stage
    /// samples — into the registry. A fold with nothing counted adds no
    /// key.
    fn fold(&mut self) {
        if self.ingress_frames > 0 {
            self.registry
                .add(keys::NET_INGRESS_FRAMES, self.ingress_frames);
            self.registry
                .add(keys::NET_INGRESS_BYTES, self.ingress_bytes);
            (self.ingress_frames, self.ingress_bytes) = (0, 0);
        }
        self.flight.fold_into(&mut self.registry);
    }

    /// Folds the local tallies and publishes the registry to the shard's
    /// live slot. The copy is not frame work, so the stage chain
    /// restarts after it.
    fn publish(&mut self, shared: &SharedRegistry) {
        self.fold();
        shared.publish(self.shard, &self.registry);
        self.flight.restart(&self.obs.time);
    }
}

/// The `net.stage.*` registry keys in [`SpanStage::ALL`] order.
const STAGE_KEYS: [&str; SpanStage::COUNT] = [
    keys::NET_STAGE_INGRESS_NS,
    keys::NET_STAGE_QUEUE_WAIT_NS,
    keys::NET_STAGE_DECODE_NS,
    keys::NET_STAGE_PREFETCH_NS,
    keys::NET_STAGE_VERIFY_NS,
    keys::NET_STAGE_BUFFER_NS,
    keys::NET_STAGE_REVEAL_AUTH_NS,
];

/// Per-shard stage timing: the stage chain's last clock reading, the
/// flight recorder's deterministic sampling ordinal, and the local stage
/// histograms every frame's decode and verify time land in. The worker
/// reads the clock once per stage boundary: [`FlightState::restart`]
/// opens the chain where frame work starts, and each
/// [`FlightState::lap`] ends one stage and starts the next, so a stage
/// covers everything since the previous reading. Lives on the worker's
/// stack — recording never allocates, and the locals keep the per-frame
/// path off the registry's keyed map (samples fold into the shared
/// registry only at publish boundaries).
struct FlightState {
    every: u64,
    ordinal: u64,
    /// The chain's last clock reading.
    last_ns: u64,
    /// Stage-latency samples, indexed by [`SpanStage`] discriminant.
    stages: [Histogram; SpanStage::COUNT],
}

impl FlightState {
    fn new(every: u64) -> Self {
        Self {
            every,
            ordinal: 0,
            last_ns: 0,
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }

    fn enabled(&self) -> bool {
        self.every > 0
    }

    /// (Re)starts the chain: what ran before this reading — a park, a
    /// directive, a publish — lands in no stage.
    fn restart(&mut self, time: &TimeSource) {
        self.last_ns = time.now_ns();
    }

    /// Ends the current stage and starts the next: one clock reading,
    /// returning the time since the previous one.
    fn lap(&mut self, time: &TimeSource) -> u64 {
        let now = time.now_ns();
        let stage = now.saturating_sub(self.last_ns);
        self.last_ns = now;
        stage
    }

    /// Consumes one verified-datagram ordinal; returns it when this
    /// datagram is sampled. Pure function of the shard's datagram
    /// sequence, so same-seed runs sample identically.
    fn sampled(&mut self) -> Option<u64> {
        if self.every == 0 {
            return None;
        }
        let ordinal = self.ordinal;
        self.ordinal += 1;
        ordinal.is_multiple_of(self.every).then_some(ordinal)
    }

    /// Records one stage sample into the local (allocation-free) pool
    /// and returns it.
    fn record(&mut self, stage: SpanStage, v: u64) -> u64 {
        self.stages[stage as usize].record(v);
        v
    }

    /// Drains the local stage samples into the registry's `net.stage.*`
    /// histograms. Called at publish boundaries and shard shutdown, so
    /// the per-frame hot path never touches the registry's keyed map.
    fn fold_into(&mut self, registry: &mut Registry) {
        for (stage, key) in self.stages.iter_mut().zip(STAGE_KEYS) {
            if !stage.is_empty() {
                registry.histogram(key).merge(stage);
                *stage = Histogram::new();
            }
        }
    }
}

impl Worker<'_> {
    /// Flushes one buffered window: classifies every frame by its
    /// claimed sender, verifies the first `drain_budget` in
    /// `(class, arrival)` order, sheds the rest with per-class
    /// attribution. Stable order means FIFO *within* a class — a late
    /// forger cannot displace an earlier genuine frame of the same
    /// class, it can only fill the tail that gets shed. Returns the
    /// number of datagrams verified.
    fn flush_window<V: FrameVerifier>(
        &mut self,
        drain_budget: usize,
        verifier: &mut V,
        rng: &mut SimRng,
    ) -> u64 {
        if self.window.frames.is_empty() {
            return 0;
        }
        let mut window = std::mem::take(&mut self.window);
        let Window {
            frames,
            bytes,
            order,
        } = &mut window;
        order.extend(frames.iter().enumerate().map(|(idx, frame)| {
            let sender = codec::peek_sender(frame.datagram(bytes)).unwrap_or(SenderId::UNTAGGED);
            (verifier.classify(sender), idx)
        }));
        order.sort_unstable_by_key(|&(class, idx)| (class, idx));
        // Frame work starts here, once the drain order is known.
        self.flight.restart(&self.obs.time);
        let mut verified = 0u64;
        for (pos, &(class, idx)) in order.iter().enumerate() {
            let frame = &frames[idx];
            let datagram = frame.datagram(bytes);
            if pos < drain_budget {
                self.process_datagram(frame, datagram, verifier, rng);
                verified += 1;
                continue;
            }
            // Shed: the frame still counts as ingress (it crossed the
            // reader), but never reaches decode or the verifier.
            self.count_ingress(datagram);
            self.registry.incr(keys::NET_SHED_TOTAL);
            let (class_key, live_counter) = match class {
                PriorityClass::Pinned => (keys::NET_SHED_PINNED, &self.live.shed_pinned),
                PriorityClass::High => (keys::NET_SHED_HIGH, &self.live.shed_high),
                PriorityClass::Low => (keys::NET_SHED_LOW, &self.live.shed_low),
            };
            self.registry.incr(class_key);
            live_counter.fetch_add(1, Ordering::Relaxed);
            if let Some(ring) = self.trace.as_mut() {
                let sender = codec::peek_sender(datagram).unwrap_or(SenderId::UNTAGGED);
                ring.emit(
                    frame.at.ticks(),
                    TraceEvent::ShedDecision {
                        sender: sender.0,
                        class: class.label(),
                        interval: codec::peek_index(datagram).unwrap_or(0),
                    },
                );
            }
        }
        frames.clear();
        order.clear();
        let used = bytes.len();
        bytes.clear();
        // A window that carried a burst of large datagrams keeps its
        // arena only until a window that needs far less.
        release_slack(bytes, used);
        self.window = window;
        verified
    }

    /// Decode-and-verify for one datagram: counters, each frame's
    /// decode and verify time in the local stage histograms, and, when
    /// the shard is traced, per-frame trace events. On datagrams the
    /// flight recorder samples, it also records the remaining stages
    /// and, traced, emits every decoded frame's
    /// [`TraceEvent::FrameSpan`] — after the frame's causal events, so
    /// a span always closes its frame's record group.
    ///
    /// The stage chain runs on: the decode stage takes everything since
    /// the previous reading (the datagram's bookkeeping included), each
    /// frame's verify or reveal-authenticate stage its `on_frame` call,
    /// and a sampled frame's buffer stage its verdict's trace records
    /// (none untraced).
    fn process_datagram<V: FrameVerifier>(
        &mut self,
        frame: &FrameRef,
        datagram: &[u8],
        verifier: &mut V,
        rng: &mut SimRng,
    ) {
        self.count_ingress(datagram);
        let (obs, registry, trace, flight) = (
            self.obs,
            &mut self.registry,
            &mut self.trace,
            &mut self.flight,
        );
        let at = frame.at.ticks();
        if let Some(ring) = trace.as_mut() {
            ring.emit(
                at,
                TraceEvent::FrameRx {
                    bytes: datagram.len() as u64,
                },
            );
        }
        // The pre-verify stages are per-datagram: record them once here;
        // the per-frame stages land inside the loop below.
        let sampled = flight.sampled().map(|ordinal| {
            let ingress_ns = flight.record(SpanStage::Ingress, u64::from(frame.ingress_ns));
            let queue_ns = flight.record(SpanStage::QueueWait, u64::from(frame.queue_ns));
            // No stage runs between the queue and decode: the prefetch
            // stage reads 0.
            let prefetch_ns = flight.record(SpanStage::Prefetch, 0);
            (ordinal, [ingress_ns, queue_ns, prefetch_ns])
        });
        // Frames may be packed back to back inside one datagram, but
        // never split across two — so leftover bytes are damage, not a
        // continuation, and must not poison the next datagram.
        self.decoded.clear();
        let junk = codec::decode_datagram(datagram, &mut self.decoded);
        let decode_ns = flight.lap(&obs.time);
        flight.record(SpanStage::Decode, decode_ns);
        for (frame_idx, tagged) in self.decoded.iter().enumerate() {
            let verdict = verifier.on_frame(
                tagged.sender,
                &tagged.message,
                frame.at,
                rng,
                registry,
                self.live,
            );
            let elapsed_ns = flight.lap(&obs.time);
            // One on_frame call serves both paths: announces spend it
            // verifying, reveals spend it authenticating. Each stage
            // keeps one sample per frame, the other path's as a 0.
            let (verify_ns, reveal_ns) = if verdict.key_reveal {
                (0, elapsed_ns)
            } else {
                (elapsed_ns, 0)
            };
            flight.record(SpanStage::Verify, verify_ns);
            flight.record(SpanStage::RevealAuth, reveal_ns);
            // A sampled frame's buffer stage times the verdict's trace
            // output, from here to its span; an unsampled frame's lands
            // in the next stage.
            if let Some(ring) = trace.as_mut() {
                ring.emit(
                    at,
                    TraceEvent::VerifyEnd {
                        interval: verdict.interval,
                        outcome: verdict.outcome,
                        elapsed_ns,
                    },
                );
                if let Some(note) = verdict.buffer {
                    ring.emit(
                        at,
                        TraceEvent::BufferDecision {
                            interval: verdict.interval,
                            kept: note.kept,
                            k: note.offered,
                            m: note.capacity,
                        },
                    );
                }
                if verdict.key_reveal {
                    ring.emit(
                        at,
                        TraceEvent::KeyReveal {
                            interval: verdict.interval,
                        },
                    );
                }
                if let Some(eviction) = verdict.evicted {
                    ring.emit(
                        at,
                        TraceEvent::SessionEvicted {
                            sender: eviction.sender,
                            shard: self.shard as u32,
                            occupancy: eviction.occupancy,
                        },
                    );
                }
            }
            if let Some((ordinal, [ingress_ns, queue_ns, prefetch_ns])) = sampled {
                // Read on every sampled frame, so the records stay out
                // of the next stage, but only frames that reached a
                // reservoir are charged it.
                let traced_ns = flight.lap(&obs.time);
                let buffer_ns = if verdict.buffer.is_some() {
                    traced_ns
                } else {
                    0
                };
                flight.record(SpanStage::Buffer, buffer_ns);
                if let Some(ring) = trace.as_mut() {
                    ring.emit(
                        at,
                        frame_span(
                            span_id(ordinal, frame_idx),
                            verdict.interval,
                            verdict.outcome,
                            [
                                ingress_ns,
                                queue_ns,
                                decode_ns,
                                prefetch_ns,
                                verify_ns,
                                buffer_ns,
                                reveal_ns,
                            ],
                        ),
                    );
                }
            }
        }
        if junk > 0 {
            registry.incr(keys::NET_DECODE_ERRORS);
            registry.add(keys::NET_DECODE_RESYNC_BYTES, junk);
        }
    }
}

/// A nanosecond stamp as the `u32` a span stores, saturating.
fn saturate_u32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::*;
    use dap_core::{DapParams, DapSender};
    use dap_simnet::SimDuration;

    fn params(m: usize) -> DapParams {
        DapParams::new(SimDuration(100), 1, 0, m)
    }

    fn during(i: u64) -> SimTime {
        SimTime((i - 1) * 100 + 10)
    }

    #[test]
    fn per_frame_descriptors_stay_small() {
        // A queue and its taken batch hold up to 2 × queue_depth items,
        // and a window one FrameRef per buffered frame: the peak heap of
        // a deep queue is mostly these.
        assert!(std::mem::size_of::<Ingress>() <= 32);
        assert!(std::mem::size_of::<FrameRef>() <= 24);
    }

    #[test]
    fn frames_route_by_interval_and_authenticate() {
        let mut sender = DapSender::new(b"pool", 64, params(4));
        let bootstrap = sender.bootstrap();
        let pool = ReceiverPool::spawn_with_obs(
            PoolConfig {
                shards: 4,
                queue_depth: 64,
                overflow: OverflowPolicy::Block,
                route: RoutePolicy::ByInterval,
                ..PoolConfig::default()
            },
            7,
            |shard| DapShard::new(bootstrap, &[shard as u8]),
            PoolObs::default(),
        );
        let handle = pool.handle();
        for i in 1..=20u64 {
            let ann =
                codec::encode(&DapMessage::Announce(sender.announce(i, b"r").unwrap())).unwrap();
            assert!(handle.ingest(&ann, during(i)));
            let rev = codec::encode(&DapMessage::Reveal(sender.reveal(i).unwrap())).unwrap();
            assert!(handle.ingest(&rev, during(i + 1)));
        }
        let metrics = pool.shutdown_with_report().registry.into_counters();
        assert_eq!(metrics.get(keys::NET_REVEAL_AUTH), 20);
        assert_eq!(metrics.get(keys::NET_REVEAL_TOTAL), 20);
        assert_eq!(metrics.get(keys::NET_INGRESS_FRAMES), 40);
        assert_eq!(metrics.get(keys::NET_DECODE_ERRORS), 0);
        assert_eq!(metrics.get(keys::NET_INGRESS_DROPPED), 0);
    }

    #[test]
    fn announce_and_reveal_share_a_shard() {
        let sender = DapSender::new(b"pool", 8, params(2));
        let pool = ReceiverPool::spawn_with_obs(
            PoolConfig::default(),
            1,
            |_| DapShard::new(sender.bootstrap(), b"n"),
            PoolObs::default(),
        );
        let handle = pool.handle();
        let first: Vec<usize> = (0..1000u64).map(|i| handle.shard_of(i)).collect();
        let second: Vec<usize> = (0..1000u64).map(|i| handle.shard_of(i)).collect();
        assert_eq!(first, second, "routing must be a pure function");
        assert!(first.iter().all(|s| *s < 4));
        // The mix actually spreads intervals around.
        let hits: std::collections::BTreeSet<usize> =
            (0..64u64).map(|i| handle.shard_of(i)).collect();
        assert!(hits.len() > 1);
        let _ = pool.shutdown_with_report();
    }

    #[test]
    fn garbage_counts_as_decode_errors() {
        let sender = DapSender::new(b"pool", 8, params(2));
        let pool = ReceiverPool::spawn_with_obs(
            PoolConfig::default(),
            1,
            |_| DapShard::new(sender.bootstrap(), b"n"),
            PoolObs::default(),
        );
        let handle = pool.handle();
        assert!(handle.ingest(&[0xff, 0xfe, 0xfd], SimTime(10)));
        let report = pool.shutdown_with_report();
        // A datagram that decodes to nothing still times its decode,
        // but reaches no verifier.
        let stage_count = |key| report.registry.get_histogram(key).map(Histogram::count);
        assert_eq!(stage_count(keys::NET_STAGE_DECODE_NS), Some(1));
        assert_eq!(stage_count(keys::NET_STAGE_VERIFY_NS), None);
        let metrics = report.registry.counters();
        assert_eq!(metrics.get(keys::NET_INGRESS_FRAMES), 1);
        assert_eq!(metrics.get(keys::NET_DECODE_ERRORS), 1);
        assert_eq!(metrics.get(keys::NET_DECODE_RESYNC_BYTES), 3);
    }

    #[test]
    fn drop_count_policy_sheds_when_full() {
        // One shard, depth 1, and the worker can't start drain faster
        // than we push 200 frames — some must shed, all must be counted
        // and attributed to the queue-full reason.
        let sender = DapSender::new(b"pool", 8, params(2));
        let pool = ReceiverPool::spawn_with_obs(
            PoolConfig {
                shards: 1,
                queue_depth: 1,
                overflow: OverflowPolicy::DropCount,
                route: RoutePolicy::ByInterval,
                ..PoolConfig::default()
            },
            1,
            |_| DapShard::new(sender.bootstrap(), b"n"),
            PoolObs::default(),
        );
        let handle = pool.handle();
        let frame = codec::encode(&DapMessage::Announce(dap_core::Announce {
            index: 1,
            mac: dap_crypto::Mac80::from_slice(&[1; 10]).unwrap(),
        }))
        .unwrap();
        let mut accepted = 0u64;
        for _ in 0..200 {
            if handle.ingest(&frame, SimTime(10)) {
                accepted += 1;
            }
        }
        let dropped = handle.live().dropped();
        let report = pool.shutdown_with_report();
        let counters = report.registry.counters();
        assert_eq!(accepted + dropped, 200);
        assert_eq!(counters.get(keys::NET_INGRESS_FRAMES), accepted);
        assert_eq!(counters.get(keys::NET_INGRESS_DROPPED), dropped);
        assert_eq!(counters.get(keys::NET_DROP_QUEUE_FULL), dropped);
        assert_eq!(counters.get(keys::NET_DROP_CLOSED), 0);
    }

    #[test]
    fn traced_pool_reports_latency_histograms_and_ordered_events() {
        use dap_obs::ManualTime;

        let mut sender = DapSender::new(b"traced", 64, params(4));
        let bootstrap = sender.bootstrap();
        let obs = PoolObs {
            time: TimeSource::manual(ManualTime::new()),
            trace_depth: 4096,
            publish: None,
            publish_every: 0,
            span_every: 0,
        };
        let pool = ReceiverPool::spawn_with_obs(
            PoolConfig {
                shards: 2,
                queue_depth: 64,
                overflow: OverflowPolicy::Block,
                route: RoutePolicy::ByInterval,
                ..PoolConfig::default()
            },
            11,
            |shard| DapShard::new(bootstrap, &[b't', shard as u8]),
            obs,
        );
        let handle = pool.handle();
        for i in 1..=10u64 {
            let ann =
                codec::encode(&DapMessage::Announce(sender.announce(i, b"r").unwrap())).unwrap();
            handle.ingest(&ann, during(i));
            let rev = codec::encode(&DapMessage::Reveal(sender.reveal(i).unwrap())).unwrap();
            handle.ingest(&rev, during(i + 1));
        }
        let report = pool.shutdown_with_report();
        // 20 frames → 20 verify-stage samples with the recorder off
        // (manual clocks: all 0).
        let verify = report
            .registry
            .get_histogram(keys::NET_STAGE_VERIFY_NS)
            .expect("verify histogram");
        assert_eq!(verify.count(), 20);
        assert_eq!(verify.max(), Some(0));
        // Manual time ⇒ no scheduler-dependent occupancy samples.
        assert!(report
            .registry
            .get_histogram(keys::NET_QUEUE_OCCUPANCY)
            .is_none());
        // The trace is sorted by (source, seq) and seqs are gapless per
        // source.
        let mut last: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for record in &report.trace {
            let next = last.entry(record.source).or_insert(0);
            assert_eq!(record.seq, *next, "gapless per-source seq");
            *next += 1;
        }
        // Every protocol event made it in: 10 buffer decisions (one per
        // announce), 10 key reveals, 20 verdicts.
        let count = |name: &str| {
            report
                .trace
                .iter()
                .filter(|r| r.event.name() == name)
                .count()
        };
        assert_eq!(count("frame_rx"), 20);
        assert_eq!(count("verify_end"), 20);
        assert_eq!(count("buffer_decision"), 10);
        assert_eq!(count("key_reveal"), 10);
        assert_eq!(count("shard_stall"), 0);
    }

    #[test]
    fn span_sampling_halves_the_flight_recorder_cadence() {
        use dap_obs::ManualTime;

        // One shard so the per-shard datagram ordinal is the global one:
        // span_every = 2 samples ordinals 0, 2, 4, … — exactly half of
        // the 20 single-frame datagrams get a FrameSpan. Decode, verify
        // and reveal-authenticate are timed on every frame at any
        // cadence; the other stages once per sampled frame.
        let run = |every: u64| {
            let mut sender = DapSender::new(b"span", 64, params(4));
            let bootstrap = sender.bootstrap();
            let obs = PoolObs {
                time: TimeSource::manual(ManualTime::new()),
                trace_depth: 4096,
                publish: None,
                publish_every: 0,
                span_every: every,
            };
            let pool = ReceiverPool::spawn_with_obs(
                PoolConfig {
                    shards: 1,
                    queue_depth: 64,
                    overflow: OverflowPolicy::Block,
                    route: RoutePolicy::ByInterval,
                    ..PoolConfig::default()
                },
                11,
                |_| DapShard::new(bootstrap, b"s"),
                obs,
            );
            let handle = pool.handle();
            for i in 1..=10u64 {
                let ann = codec::encode(&DapMessage::Announce(sender.announce(i, b"r").unwrap()))
                    .unwrap();
                handle.ingest(&ann, during(i));
                let rev = codec::encode(&DapMessage::Reveal(sender.reveal(i).unwrap())).unwrap();
                handle.ingest(&rev, during(i + 1));
            }
            pool.shutdown_with_report()
        };
        let spans = |report: &PoolReport| {
            report
                .trace
                .iter()
                .filter(|r| r.event.name() == "frame_span")
                .count() as u64
        };
        let every_frame = [
            keys::NET_STAGE_DECODE_NS,
            keys::NET_STAGE_VERIFY_NS,
            keys::NET_STAGE_REVEAL_AUTH_NS,
        ];
        let sampled_only = [
            keys::NET_STAGE_INGRESS_NS,
            keys::NET_STAGE_QUEUE_WAIT_NS,
            keys::NET_STAGE_PREFETCH_NS,
            keys::NET_STAGE_BUFFER_NS,
        ];
        for (every, want_spans) in [(1, 20), (2, 10), (0, 0)] {
            let report = run(every);
            assert_eq!(spans(&report), want_spans, "span_every = {every}");
            let count = |key| report.registry.get_histogram(key).map(Histogram::count);
            for key in every_frame {
                assert_eq!(count(key), Some(20), "{key} at span_every = {every}");
            }
            for key in sampled_only {
                let want = (want_spans > 0).then_some(want_spans);
                assert_eq!(count(key), want, "{key} at span_every = {every}");
            }
            for key in every_frame.into_iter().chain(sampled_only) {
                let max = report.registry.get_histogram(key).and_then(Histogram::max);
                assert!(max.is_none_or(|ns| ns == 0), "manual clocks zero {key}");
            }
        }
    }

    #[test]
    fn windowed_prefetch_drain_matches_the_unwindowed_path() {
        // Same traffic through a windowed pool and an unwindowed one:
        // with a budget that never sheds and one priority class, the
        // drain order is arrival order in both, so the registries must
        // render byte-identically — windowing alone changes no outcome.
        let run = |drain_budget: usize| {
            let mut sender = DapSender::new(b"batch", 64, params(4));
            let bootstrap = sender.bootstrap();
            let pool = ReceiverPool::spawn_with_obs(
                PoolConfig {
                    shards: 2,
                    queue_depth: 4096,
                    overflow: OverflowPolicy::Block,
                    route: RoutePolicy::ByInterval,
                    drain_budget,
                },
                21,
                |shard| DapShard::new(bootstrap, &[b'b', shard as u8]),
                PoolObs {
                    time: TimeSource::frozen(),
                    trace_depth: 0,
                    publish: None,
                    publish_every: 0,
                    span_every: 0,
                },
            );
            let handle = pool.handle();
            for i in 1..=24u64 {
                let ann = codec::encode(&DapMessage::Announce(sender.announce(i, b"r").unwrap()))
                    .unwrap();
                // Three copies per interval exercise the sampling coin
                // with the same per-shard RNG draw order in both modes.
                for _ in 0..3 {
                    assert!(handle.ingest(&ann, during(i)));
                }
                let rev = codec::encode(&DapMessage::Reveal(sender.reveal(i).unwrap())).unwrap();
                assert!(handle.ingest(&rev, during(i + 1)));
                handle.tick();
                handle.quiesce();
            }
            pool.shutdown_with_report()
        };
        let windowed = run(1 << 20);
        let scalar = run(usize::MAX);
        assert_eq!(windowed.registry.render(), scalar.registry.render());
        assert_eq!(windowed.registry.counters().get(keys::NET_REVEAL_AUTH), 24);
    }

    #[test]
    fn quiesced_live_counters_are_the_settled_evidence() {
        // The live counters read right after each quiesce must be the
        // settled evidence of everything pushed so far: equal at queue
        // depth 1 (the producer parks on nearly every push, the worker
        // takes one item at a time) and 4096 (whole intervals per take),
        // and at the end equal to the shutdown registry's counts.
        let run = |queue_depth: usize, drain_budget: usize| {
            let mut sender = DapSender::new(b"quiesce", 64, params(2));
            let bootstrap = sender.bootstrap();
            let pool = ReceiverPool::spawn_with_obs(
                PoolConfig {
                    shards: 2,
                    queue_depth,
                    overflow: OverflowPolicy::Block,
                    route: RoutePolicy::ByInterval,
                    drain_budget,
                },
                31,
                |shard| DapShard::new(bootstrap, &[b'q', shard as u8]),
                PoolObs {
                    time: TimeSource::frozen(),
                    trace_depth: 0,
                    publish: None,
                    publish_every: 0,
                    span_every: 0,
                },
            );
            let handle = pool.handle();
            let live = handle.live();
            let settled = || {
                [
                    live.frames(),
                    live.authenticated(),
                    live.buffered_decided(),
                    live.buffered_forged(),
                    live.shed(),
                ]
            };
            let mut snapshots = Vec::new();
            for i in 1..=25u64 {
                // The reveal for i − 1 leads the interval; then two
                // genuine announce copies among three forgeries.
                if i > 1 {
                    let rev = DapMessage::Reveal(sender.reveal(i - 1).unwrap());
                    assert!(handle.ingest(&codec::encode(&rev).unwrap(), during(i)));
                }
                if i <= 24 {
                    let genuine = DapMessage::Announce(sender.announce(i, b"r").unwrap());
                    for copy in 0..5u8 {
                        let frame = if copy % 2 == 1 {
                            genuine.clone()
                        } else {
                            DapMessage::Announce(dap_core::Announce {
                                index: i,
                                mac: dap_crypto::Mac80::from_slice(&[copy; 10]).unwrap(),
                            })
                        };
                        assert!(handle.ingest(&codec::encode(&frame).unwrap(), during(i)));
                    }
                }
                handle.tick();
                handle.quiesce();
                snapshots.push(settled());
            }
            let report = pool.shutdown_with_report();
            let counters = report.registry.counters();
            let [frames, auth, decided, forged, shed] = settled();
            assert_eq!(frames, counters.get(keys::NET_INGRESS_FRAMES));
            assert_eq!(auth, counters.get(keys::NET_REVEAL_AUTH));
            assert_eq!(shed, counters.get(keys::NET_SHED_TOTAL));
            assert_eq!(live.shed_high(), counters.get(keys::NET_SHED_HIGH));
            assert_eq!(
                snapshots.last(),
                Some(&[frames, auth, decided, forged, shed])
            );
            snapshots
        };
        for drain_budget in [usize::MAX, 3] {
            let deep = run(4096, drain_budget);
            assert_eq!(run(1, drain_budget), deep, "budget {drain_budget}");
            let [_, auth, decided, forged, shed] = *deep.last().unwrap();
            assert!(
                auth > 0 && decided > forged && forged > 0,
                "{:?}",
                deep.last()
            );
            assert_eq!(shed > 0, drain_budget == 3, "only the tight budget sheds");
        }
    }

    #[test]
    fn live_publish_feeds_the_shared_registry() {
        let mut sender = DapSender::new(b"pub", 32, params(4));
        let bootstrap = sender.bootstrap();
        let shared = Arc::new(SharedRegistry::new(2));
        let obs = PoolObs {
            time: TimeSource::frozen(),
            trace_depth: 0,
            publish: Some(Arc::clone(&shared)),
            publish_every: 1,
            span_every: 0,
        };
        let pool = ReceiverPool::spawn_with_obs(
            PoolConfig {
                shards: 2,
                queue_depth: 64,
                overflow: OverflowPolicy::Block,
                route: RoutePolicy::ByInterval,
                ..PoolConfig::default()
            },
            5,
            |shard| DapShard::new(bootstrap, &[b'p', shard as u8]),
            obs,
        );
        let handle = pool.handle();
        for i in 1..=8u64 {
            let ann =
                codec::encode(&DapMessage::Announce(sender.announce(i, b"r").unwrap())).unwrap();
            handle.ingest(&ann, during(i));
        }
        let report = pool.shutdown_with_report();
        // The final publish happens at worker exit, so the scraped view
        // agrees with the shutdown merge (reader-side drop folding
        // aside — there were no drops here).
        let snapshot = shared.snapshot();
        assert_eq!(
            snapshot.counters().get(keys::NET_INGRESS_FRAMES),
            report.registry.counters().get(keys::NET_INGRESS_FRAMES)
        );
        assert_eq!(snapshot.counters().get(keys::NET_INGRESS_FRAMES), 8);
    }

    /// What [`Costed`] charges the manual clock inside each call the
    /// worker times, and what the test lets pass while the pool sits
    /// quiesced, in ns.
    const ANNOUNCE_NS: u64 = 170;
    const REVEAL_NS: u64 = 1_900;
    const POSTURE_NS: u64 = 50_000;
    const PARKED_NS: u64 = 1_000_000;

    /// A [`DapShard`] that advances a manual clock by a fixed cost in
    /// `on_frame` and `on_posture`, can hold one `on_frame` call until
    /// the test releases it, and panics if the pool calls `prefetch`.
    struct Costed {
        inner: DapShard,
        clock: dap_obs::ManualTime,
        frames: u64,
        /// The frame ordinal to hold, the signal that it is held, and
        /// the release.
        hold: Option<(u64, mpsc::Sender<()>, mpsc::Receiver<()>)>,
    }

    impl FrameVerifier for Costed {
        fn on_frame(
            &mut self,
            sender: SenderId,
            frame: &DapMessage,
            at: SimTime,
            rng: &mut SimRng,
            registry: &mut Registry,
            live: &LiveCounters,
        ) -> FrameVerdict {
            let verdict = self.inner.on_frame(sender, frame, at, rng, registry, live);
            let cost = if verdict.key_reveal {
                REVEAL_NS
            } else {
                ANNOUNCE_NS
            };
            self.clock.advance_ns(cost);
            if let Some((ordinal, held, release)) = &self.hold {
                if *ordinal == self.frames {
                    held.send(()).expect("test listening");
                    release.recv().expect("test releases");
                }
            }
            self.frames += 1;
            verdict
        }

        fn prefetch(&mut self, _batch: &[(SenderId, DapMessage)]) {
            panic!("the pool never calls prefetch");
        }

        fn on_posture(&mut self, directive: &PostureDirective) -> Option<PostureUpdate> {
            self.clock.advance_ns(POSTURE_NS);
            self.inner.on_posture(directive)
        }
    }

    #[test]
    fn each_stage_reading_ends_one_stage_and_starts_the_next() {
        // Only the verifier and the test move the clock, so every stage
        // sum is exact: verify and reveal-authenticate hold `on_frame`
        // and nothing else, and decode holds nothing — not the parked
        // time before a take, not a directive. The prefetch stage reads
        // 0: no path runs it.
        // The directive lands mid-run in the same take as the frame
        // after it: the test queues both while the worker is held
        // inside the last frame of interval 4.
        let run = |windowed: bool, span_every: u64| {
            let clock = dap_obs::ManualTime::new();
            let shared = Arc::new(SharedRegistry::new(1));
            let mut sender = DapSender::new(b"chain", 64, params(4));
            let bootstrap = sender.bootstrap();
            // Interval 1 carries 3 frames and every later one 4: the last
            // frame of interval 4 is frame 14.
            let (held_tx, held) = mpsc::channel();
            let (release, release_rx) = mpsc::channel();
            let mut hold = Some((14, held_tx, release_rx));
            let pool = ReceiverPool::spawn_with_obs(
                PoolConfig {
                    shards: 1,
                    queue_depth: 64,
                    overflow: OverflowPolicy::Block,
                    route: RoutePolicy::ByInterval,
                    drain_budget: if windowed { 64 } else { usize::MAX },
                },
                3,
                |_| Costed {
                    inner: DapShard::new(bootstrap, b"c"),
                    clock: clock.clone(),
                    frames: 0,
                    hold: hold.take(),
                },
                PoolObs {
                    time: TimeSource::manual(clock.clone()),
                    trace_depth: 0,
                    publish: Some(Arc::clone(&shared)),
                    publish_every: 1,
                    span_every,
                },
            );
            let handle = pool.handle();
            let forged = |i: u64, copy: u8| {
                codec::encode(&DapMessage::Announce(dap_core::Announce {
                    index: i,
                    mac: dap_crypto::Mac80::from_slice(&[copy; 10]).unwrap(),
                }))
                .unwrap()
            };
            // Announces, reveals and bytes pushed, and the share of them
            // the worker has verified.
            let (mut pushed, mut processed) = ([0u64; 3], [0u64; 3]);
            let push = |pushed: &mut [u64; 3], bytes: &[u8], at: SimTime, reveal: bool| {
                assert!(handle.ingest(bytes, at));
                pushed[usize::from(reveal)] += 1;
                pushed[2] += bytes.len() as u64;
            };
            for i in 1..=8u64 {
                let mut datagrams = Vec::new();
                if i > 1 {
                    let rev = DapMessage::Reveal(sender.reveal(i - 1).unwrap());
                    datagrams.push((codec::encode(&rev).unwrap(), true));
                }
                datagrams.push((forged(i, 1), false));
                let genuine = DapMessage::Announce(sender.announce(i, b"r").unwrap());
                datagrams.push((codec::encode(&genuine).unwrap(), false));
                datagrams.push((forged(i, 2), false));
                let last = datagrams.len() - 1;
                for (k, (bytes, reveal)) in datagrams.iter().enumerate() {
                    push(&mut pushed, bytes, during(i), *reveal);
                    if k == last {
                        handle.tick();
                        if i == 4 {
                            held.recv().unwrap();
                            handle.post_posture(
                                PostureDirective {
                                    epoch: 1,
                                    buffers: 2,
                                    give_up: false,
                                    p_permille: 500,
                                },
                                during(i),
                            );
                            push(&mut pushed, &forged(i, 3), during(i), false);
                            release.send(()).unwrap();
                            handle.tick();
                        }
                    }
                    handle.quiesce();
                    if !windowed || k == last {
                        processed = pushed;
                    }
                    // Every publish folds the ingress counts in.
                    let published = shared.snapshot();
                    let counters = published.counters();
                    assert_eq!(
                        [
                            counters.get(keys::NET_INGRESS_FRAMES),
                            counters.get(keys::NET_INGRESS_BYTES)
                        ],
                        [processed[0] + processed[1], processed[2]],
                        "published ingress, interval {i}, windowed {windowed}"
                    );
                    clock.advance_ns(PARKED_NS);
                }
            }
            assert_eq!(handle.live().postures(), 1);
            let report = pool.shutdown_with_report();
            (report, pushed[0], pushed[1])
        };
        for windowed in [false, true] {
            for span_every in [0, 1] {
                // A worker that panicked, in `prefetch` say, makes
                // `quiesce` panic and the run's thread end unanswered;
                // the deadline fails a run that hangs instead, on a lost
                // wakeup say.
                let (done_tx, done) = mpsc::channel();
                std::thread::spawn(move || done_tx.send(run(windowed, span_every)));
                let (report, announces, reveals) = done
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .expect("the run finishes: no shard worker panicked");
                let case = format!("windowed {windowed}, span_every {span_every}");
                let hist = |key| report.registry.get_histogram(key);
                let sum = |key| hist(key).map_or(0, Histogram::sum);
                let count = |key| hist(key).map(Histogram::count);
                let frames = announces + reveals;
                assert_eq!(
                    sum(keys::NET_STAGE_VERIFY_NS),
                    ANNOUNCE_NS * announces,
                    "{case}"
                );
                assert_eq!(
                    sum(keys::NET_STAGE_REVEAL_AUTH_NS),
                    REVEAL_NS * reveals,
                    "{case}"
                );
                assert_eq!(sum(keys::NET_STAGE_DECODE_NS), 0, "{case}");
                // One frame per datagram: every stage keeps one sample
                // each, the recorder's own stages only when it is on.
                for key in [
                    keys::NET_STAGE_DECODE_NS,
                    keys::NET_STAGE_VERIFY_NS,
                    keys::NET_STAGE_REVEAL_AUTH_NS,
                ] {
                    assert_eq!(count(key), Some(frames), "{key}, {case}");
                }
                let sampled = (span_every > 0).then_some(frames);
                for key in [
                    keys::NET_STAGE_INGRESS_NS,
                    keys::NET_STAGE_QUEUE_WAIT_NS,
                    keys::NET_STAGE_PREFETCH_NS,
                    keys::NET_STAGE_BUFFER_NS,
                ] {
                    assert_eq!(count(key), sampled, "{key}, {case}");
                }
                assert_eq!(sum(keys::NET_STAGE_PREFETCH_NS), 0, "{case}");
                assert_eq!(sum(keys::NET_STAGE_BUFFER_NS), 0, "{case}");
                let counters = report.registry.counters();
                assert_eq!(counters.get(keys::NET_INGRESS_FRAMES), frames, "{case}");
            }
        }
    }

    #[test]
    fn quiesce_wakes_a_windowed_shard_below_its_threshold() {
        // A windowed shard's reader sleeps until half its queue is full
        // or a control item arrives, and with no live publishing its take
        // has no timeout. Quiesce after each single datagram must still
        // see it handled, with no tick.
        let (done_tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            let mut sender = DapSender::new(b"wake", 64, params(2));
            let bootstrap = sender.bootstrap();
            let pool = ReceiverPool::spawn_with_obs(
                PoolConfig {
                    shards: 1,
                    queue_depth: 64,
                    overflow: OverflowPolicy::Block,
                    route: RoutePolicy::ByInterval,
                    drain_budget: 64,
                },
                7,
                |_| DapShard::new(bootstrap, b"w"),
                PoolObs {
                    time: TimeSource::frozen(),
                    trace_depth: 0,
                    publish: None,
                    publish_every: 0,
                    span_every: 0,
                },
            );
            let handle = pool.handle();
            for i in 1..=20u64 {
                let ann = codec::encode(&DapMessage::Announce(sender.announce(i, b"r").unwrap()))
                    .unwrap();
                assert!(handle.ingest(&ann, during(i)));
                handle.quiesce();
                assert_eq!(handle.live().processed(), i, "datagram {i} handled");
            }
            let report = pool.shutdown_with_report();
            let frames = report.registry.counters().get(keys::NET_INGRESS_FRAMES);
            done_tx.send(frames).unwrap();
        });
        let frames = done
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("each quiesce returns with no tick");
        assert_eq!(frames, 20, "close flushes the window");
    }

    /// A verifier whose first frame panics.
    struct Doomed;

    impl FrameVerifier for Doomed {
        fn on_frame(
            &mut self,
            _sender: SenderId,
            _frame: &DapMessage,
            _at: SimTime,
            _rng: &mut SimRng,
            _registry: &mut Registry,
            _live: &LiveCounters,
        ) -> FrameVerdict {
            panic!("doomed verifier");
        }
    }

    #[test]
    fn quiesce_panics_naming_a_dead_shard() {
        // A dead worker never counts its items handled: quiesce must
        // fail, naming the shard, instead of spinning for ever.
        let (done_tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            let pool = ReceiverPool::spawn_with_obs(
                PoolConfig {
                    shards: 2,
                    queue_depth: 8,
                    overflow: OverflowPolicy::Block,
                    route: RoutePolicy::ByInterval,
                    ..PoolConfig::default()
                },
                9,
                |_| Doomed,
                PoolObs {
                    time: TimeSource::frozen(),
                    ..PoolObs::default()
                },
            );
            let handle = pool.handle();
            let ann = codec::encode(&DapMessage::Announce(dap_core::Announce {
                index: 5,
                mac: dap_crypto::Mac80::from_slice(&[5; 10]).unwrap(),
            }))
            .unwrap();
            assert!(handle.ingest(&ann, during(5)));
            let quiesced = std::panic::catch_unwind(|| handle.quiesce());
            let message = quiesced.map_err(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            });
            let shutdown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.shutdown_with_report()
            }));
            done_tx
                .send((handle.shard_of(5), message, shutdown.is_err()))
                .unwrap();
        });
        let (shard, quiesced, shutdown_panicked) = done
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("quiesce returns or panics");
        let message = quiesced.expect_err("quiesce panics");
        assert!(
            message.contains(&format!("shard {shard}'s worker")),
            "{message}"
        );
        assert!(shutdown_panicked, "shutdown keeps its own panic");
    }

    #[test]
    fn full_rings_report_what_they_shed() {
        // Each source's seqs run 0, 1, 2, … and a full ring keeps its
        // newest records, so a source emitted one more than its last
        // retained seq. A ring deep enough for the whole run sheds
        // nothing, and tracing off reports nothing shed.
        let run = |trace_depth: usize| {
            let mut sender = DapSender::new(b"shed", 64, params(4));
            let bootstrap = sender.bootstrap();
            let pool = ReceiverPool::spawn_with_obs(
                PoolConfig {
                    shards: 2,
                    queue_depth: 64,
                    overflow: OverflowPolicy::Block,
                    route: RoutePolicy::ByInterval,
                    ..PoolConfig::default()
                },
                13,
                |shard| DapShard::new(bootstrap, &[b's', shard as u8]),
                PoolObs {
                    time: TimeSource::frozen(),
                    trace_depth,
                    publish: None,
                    publish_every: 0,
                    span_every: 1,
                },
            );
            let handle = pool.handle();
            for i in 1..=12u64 {
                let ann = codec::encode(&DapMessage::Announce(sender.announce(i, b"r").unwrap()))
                    .unwrap();
                handle.ingest(&ann, during(i));
                let rev = codec::encode(&DapMessage::Reveal(sender.reveal(i).unwrap())).unwrap();
                handle.ingest(&rev, during(i + 1));
            }
            pool.shutdown_with_report()
        };
        let whole = run(1 << 12);
        assert_eq!(whole.trace_shed, 0);
        let cut = run(8);
        let mut emitted = std::collections::BTreeMap::new();
        for record in &cut.trace {
            emitted.insert(record.source, record.seq + 1);
        }
        let emitted: u64 = emitted.values().sum();
        assert_eq!(emitted, whole.trace.len() as u64);
        assert!(cut.trace.len() as u64 <= 2 * 8);
        assert_eq!(cut.trace_shed, emitted - cut.trace.len() as u64);
        assert_eq!(run(0).trace_shed, 0);
    }
}
