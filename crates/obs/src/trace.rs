//! Structured tracing: typed events, per-source monotone sequence
//! numbers, pluggable sinks.
//!
//! Every record names its *source* (a shard index, the wire, the socket
//! reader) and carries that source's own monotone sequence number. Two
//! same-seed runs of the sharded pool interleave work differently
//! across threads, but each source's event *sequence* is deterministic
//! — so sorting the collected records by `(source, seq)`
//! ([`sort_records`]) produces a total order that is byte-identical
//! across runs, which is what the ci.sh telemetry gate diffs.
//!
//! The `at` field is protocol time (the simulator-tick timestamp the
//! frame was ingested at, or a source-specific ordinal for the wire) —
//! **not** wall time, which would destroy reproducibility. The header
//! line [`JsonlSink::create`] writes stamps its timestamp from the
//! run's own [`TimeSource`], so a deterministic (frozen-clock) run
//! renders a byte-identical *whole file*, header included.

use std::io::{self, Write};

use crate::json::JsonObject;
use crate::time::TimeSource;

/// Every verify-outcome label a verifier may write into
/// [`TraceEvent::VerifyEnd`] and [`TraceEvent::FrameSpan`]. The trace
/// parser accepts exactly these, so a label missing here makes every
/// capture that carries it unreadable.
pub const OUTCOMES: [&str; 8] = [
    "stored",
    "sampled_out",
    "unsafe",
    "auth",
    "weak_rejected",
    "strong_rejected",
    "no_candidate",
    "unknown_sender",
];

/// One typed trace event. Fields are the data a replay-diff needs to
/// explain a divergence, nothing more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A frame arrived at a shard (payload length in bytes).
    FrameRx {
        /// Datagram length in bytes.
        bytes: u64,
    },
    /// The verifier's verdict on one decoded frame.
    VerifyEnd {
        /// The interval index the frame claims.
        interval: u64,
        /// Outcome label, one of [`OUTCOMES`].
        outcome: &'static str,
        /// The frame's verify or reveal-authenticate stage, ns (0 under
        /// manual time).
        elapsed_ns: u64,
    },
    /// A reservoir buffer decided an announce's fate.
    BufferDecision {
        /// The interval whose pool decided.
        interval: u64,
        /// Whether the μMAC was kept (stored or replaced an entry).
        kept: bool,
        /// Offers this interval's pool has seen so far (the paper's `k`).
        k: u64,
        /// Pool capacity (the paper's `m`).
        m: u64,
    },
    /// A reveal disclosed a chain key.
    KeyReveal {
        /// The revealed interval.
        interval: u64,
    },
    /// A shard's ingress queue rejected a frame (DropCount posture).
    ShardStall {
        /// Which shard stalled.
        shard: u32,
        /// Queue occupancy at the moment of rejection.
        depth: u64,
    },
    /// The medium injected a fault (loss, corruption, …).
    FaultInjected {
        /// Fault label (`"wire.loss"`, `"wire.corrupt"`, …).
        kind: &'static str,
    },
    /// A session table evicted a sender's per-session state to stay
    /// inside its memory budget.
    SessionEvicted {
        /// The evicted sender's id.
        sender: u64,
        /// The shard that owns the table.
        shard: u32,
        /// Sessions still resident after the eviction.
        occupancy: u64,
    },
    /// The priority drain shed a frame at a window flush: the shard's
    /// per-window verify budget was exhausted by higher-priority (or
    /// earlier) frames. Attribution is by the frame's *claimed* sender —
    /// wire tags are unauthenticated, so a shed forged frame charges the
    /// class of the sender it impersonated.
    ShedDecision {
        /// The claimed sender id of the shed frame.
        sender: u64,
        /// The claimed sender's priority class label at flush time.
        class: &'static str,
        /// The interval the shed frame claimed.
        interval: u64,
    },
    /// The control plane re-sized a shard's defensive posture: the
    /// online game solver picked a new reservoir count (or flipped the
    /// §V give-up switch) from the live forged-fraction estimate.
    PostureChange {
        /// The control-plane epoch (monotone per run; one per directive).
        epoch: u64,
        /// Reservoir capacity before the change.
        from_m: u64,
        /// Reservoir capacity after the change.
        to_m: u64,
        /// The forged-fraction estimate (permille) that drove the solve.
        p_permille: u64,
        /// Whether the solver declared the §V give-up regime.
        give_up: bool,
    },
    /// The flight recorder's per-frame lifecycle summary: one sampled
    /// frame's stage-attributed timing across the whole pipeline
    /// (ingress → queue-wait → decode → prefetch → verify → buffer →
    /// reveal-authenticate). The span id is deterministic — the shard's
    /// verified-datagram ordinal shifted left 8 bits, plus the frame's
    /// index within its datagram — so two same-seed runs narrate the
    /// same spans. All `*_ns` fields collapse to 0 under frozen clocks.
    ///
    /// Stage timings are `u32` nanoseconds (saturating at ~4.29 s): the
    /// span is the hottest record on the verify path — one per frame —
    /// and the narrower fields keep the ring slot, and with it the
    /// recorder's per-frame memory traffic, small. A stage that truly
    /// runs past 4 s is an outage, not a latency sample.
    FrameSpan {
        /// Deterministic span id: `(datagram_ordinal << 8) | frame_idx`.
        /// The record's source field carries the shard.
        span: u64,
        /// The interval index the frame claimed.
        interval: u64,
        /// The frame's verify outcome label, one of [`OUTCOMES`].
        outcome: &'static str,
        /// Reader-side routing + copy time before the shard queue.
        ingress_ns: u32,
        /// Enqueue → worker-pop wait.
        queue_ns: u32,
        /// Datagram decode/reassembly time (shared by packed frames).
        decode_ns: u32,
        /// This frame's share of its window's batch-prefetch time
        /// (0 on the unwindowed drain path).
        prefetch_ns: u32,
        /// Verifier time for announce-path frames (0 for reveals).
        verify_ns: u32,
        /// Time to emit the frame's verdict records (`verify_end`, its
        /// `buffer_decision` and any eviction) on frames that reached
        /// a reservoir; 0 on the rest. The reservoir decision itself
        /// runs inside the verifier and is charged to `verify_ns`.
        buffer_ns: u32,
        /// Verifier time for reveal-authenticate frames (0 for
        /// announces).
        reveal_ns: u32,
    },
    /// A control-plane estimator sample: the per-interval forged-share
    /// measurement (ppm) and the EWMA estimate `p̂` it produced, stamped
    /// with the epoch in force when the sample landed.
    ControlEstimate {
        /// The control-plane epoch after this step (unchanged unless
        /// the sample also fired a directive).
        epoch: u64,
        /// The raw per-step forged-share sample in parts-per-million.
        sample_ppm: u64,
        /// The post-sample EWMA estimate `p̂` in parts-per-million.
        p_hat_ppm: u64,
    },
}

impl TraceEvent {
    /// The event's stable name (the `ev` field in JSONL).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::FrameRx { .. } => "frame_rx",
            Self::VerifyEnd { .. } => "verify_end",
            Self::BufferDecision { .. } => "buffer_decision",
            Self::KeyReveal { .. } => "key_reveal",
            Self::ShardStall { .. } => "shard_stall",
            Self::FaultInjected { .. } => "fault_injected",
            Self::SessionEvicted { .. } => "session_evicted",
            Self::ShedDecision { .. } => "shed_decision",
            Self::PostureChange { .. } => "posture_change",
            Self::FrameSpan { .. } => "frame_span",
            Self::ControlEstimate { .. } => "control_estimate",
        }
    }
}

/// One emitted record: who, when (protocol time), in what order, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Source id (shard index; see the pool for reserved ids).
    pub source: u32,
    /// This source's monotone sequence number, starting at 0.
    pub seq: u64,
    /// Protocol-time stamp (simulator ticks or a source ordinal).
    pub at: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// One JSONL line (no trailing newline): fixed field order
    /// `src, seq, at, ev`, then the event's own fields.
    #[must_use]
    pub fn to_json(&self) -> String {
        let base = JsonObject::new()
            .u64("src", u64::from(self.source))
            .u64("seq", self.seq)
            .u64("at", self.at)
            .str("ev", self.event.name());
        match &self.event {
            TraceEvent::FrameRx { bytes } => base.u64("bytes", *bytes),
            TraceEvent::VerifyEnd {
                interval,
                outcome,
                elapsed_ns,
            } => base
                .u64("interval", *interval)
                .str("outcome", outcome)
                .u64("elapsed_ns", *elapsed_ns),
            TraceEvent::BufferDecision {
                interval,
                kept,
                k,
                m,
            } => base
                .u64("interval", *interval)
                .bool("kept", *kept)
                .u64("k", *k)
                .u64("m", *m),
            TraceEvent::KeyReveal { interval } => base.u64("interval", *interval),
            TraceEvent::ShardStall { shard, depth } => {
                base.u64("shard", u64::from(*shard)).u64("depth", *depth)
            }
            TraceEvent::FaultInjected { kind } => base.str("kind", kind),
            TraceEvent::SessionEvicted {
                sender,
                shard,
                occupancy,
            } => base
                .u64("sender", *sender)
                .u64("shard", u64::from(*shard))
                .u64("occupancy", *occupancy),
            TraceEvent::ShedDecision {
                sender,
                class,
                interval,
            } => base
                .u64("sender", *sender)
                .str("class", class)
                .u64("interval", *interval),
            TraceEvent::PostureChange {
                epoch,
                from_m,
                to_m,
                p_permille,
                give_up,
            } => base
                .u64("epoch", *epoch)
                .u64("from_m", *from_m)
                .u64("to_m", *to_m)
                .u64("p_permille", *p_permille)
                .bool("give_up", *give_up),
            TraceEvent::FrameSpan {
                span,
                interval,
                outcome,
                ingress_ns,
                queue_ns,
                decode_ns,
                prefetch_ns,
                verify_ns,
                buffer_ns,
                reveal_ns,
            } => base
                .u64("span", *span)
                .u64("interval", *interval)
                .str("outcome", outcome)
                .u64("ingress_ns", u64::from(*ingress_ns))
                .u64("queue_ns", u64::from(*queue_ns))
                .u64("decode_ns", u64::from(*decode_ns))
                .u64("prefetch_ns", u64::from(*prefetch_ns))
                .u64("verify_ns", u64::from(*verify_ns))
                .u64("buffer_ns", u64::from(*buffer_ns))
                .u64("reveal_ns", u64::from(*reveal_ns)),
            TraceEvent::ControlEstimate {
                epoch,
                sample_ppm,
                p_hat_ppm,
            } => base
                .u64("epoch", *epoch)
                .u64("sample_ppm", *sample_ppm)
                .u64("p_hat_ppm", *p_hat_ppm),
        }
        .finish()
    }
}

/// Where records go. Sinks are owned per emitter, so recording needs no
/// synchronisation on the hot path.
pub trait TraceSink {
    /// Accepts one record.
    fn record(&mut self, record: TraceRecord);
}

/// Swallows everything — tracing compiled in, turned off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _record: TraceRecord) {}
}

/// A bounded ring buffer keeping the most recent records; older ones
/// are shed and counted. This is the in-memory sink the pool shards
/// use — bounded so a flood cannot turn tracing into an allocator
/// attack on the defender. Once the backing store is warm the ring is
/// allocation-free: a full ring overwrites its oldest slot in place
/// rather than shuffling a deque, which keeps the per-record cost flat
/// on the verify hot path.
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    capacity: usize,
    records: Vec<TraceRecord>,
    /// Oldest slot (the next overwrite target) once the ring is full.
    head: usize,
    shed: u64,
}

impl RingSink {
    /// Storage preallocated up front, so a forensic-depth ring pays its
    /// allocator bill at setup instead of mid-campaign. Deeper rings
    /// grow amortized past this point.
    const PREALLOC_CAP: usize = 1 << 16;

    /// A ring holding at most `capacity` records (0 disables retention:
    /// every record is shed and counted).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            records: Vec::with_capacity(capacity.min(Self::PREALLOC_CAP)),
            head: 0,
            shed: 0,
        }
    }

    /// Records shed because the ring was full.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Records currently retained, oldest first. A ring that has not
    /// wrapped has `head == 0`, so the chain's first arm is the whole
    /// store and the second is empty.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records[self.head..]
            .iter()
            .chain(&self.records[..self.head])
    }

    /// Consumes the ring, returning retained records oldest first.
    #[must_use]
    pub fn into_records(mut self) -> Vec<TraceRecord> {
        self.records.rotate_left(self.head);
        self.records
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, record: TraceRecord) {
        if self.capacity == 0 {
            self.shed = self.shed.saturating_add(1);
            return;
        }
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.shed = self.shed.saturating_add(1);
        }
    }
}

/// Writes one JSON object per line to an [`io::Write`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// Creates `path` and writes the header line. The header timestamp
    /// is read from `time` — the run's own [`TimeSource`] — so a
    /// deterministic run (frozen or manual clocks) produces a
    /// byte-identical whole file and ci gates can `cmp` traces without
    /// skipping the header; only a wall-clocked run stamps real time.
    ///
    /// # Errors
    ///
    /// File creation / write errors.
    pub fn create(path: &str, time: &TimeSource) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let mut writer = io::BufWriter::new(file);
        writeln!(writer, "{}", header_line(time.now_ns()))?;
        Ok(Self { writer })
    }
}

/// The JSONL header line (no trailing newline) for a trace whose clock
/// read `clock_ns` at creation.
#[must_use]
pub fn header_line(clock_ns: u64) -> String {
    JsonObject::new()
        .str("trace", "dap-obs")
        .u64("version", 3)
        .u64("clock_ns", clock_ns)
        .finish()
}

impl<W: Write> JsonlSink<W> {
    /// A sink over an arbitrary writer, with no header line.
    pub fn from_writer(writer: W) -> Self {
        Self { writer }
    }

    /// Flushes and returns the writer.
    ///
    /// # Errors
    ///
    /// Flush errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, record: TraceRecord) {
        // A full disk mid-trace must not take the run down with it.
        let _ = writeln!(self.writer, "{}", record.to_json());
    }
}

/// Stamps records with one source id and that source's monotone
/// sequence numbers.
#[derive(Debug, Clone, Default)]
pub struct TraceEmitter<S: TraceSink> {
    source: u32,
    next_seq: u64,
    sink: S,
}

impl<S: TraceSink> TraceEmitter<S> {
    /// An emitter for `source` writing into `sink`.
    pub fn new(source: u32, sink: S) -> Self {
        Self {
            source,
            next_seq: 0,
            sink,
        }
    }

    /// Emits one event at protocol time `at`.
    pub fn emit(&mut self, at: u64, event: TraceEvent) {
        let record = TraceRecord {
            source: self.source,
            seq: self.next_seq,
            at,
            event,
        };
        self.next_seq += 1;
        self.sink.record(record);
    }

    /// This emitter's source id.
    #[must_use]
    pub fn source(&self) -> u32 {
        self.source
    }

    /// Records emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// The sink, for in-place inspection.
    #[must_use]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the emitter, returning its sink.
    pub fn into_sink(self) -> S {
        self.sink
    }
}

/// Sorts records into the canonical total order: by `(source, seq)`.
/// Each source's sequence is deterministic, so the sorted stream of a
/// seeded run is byte-identical across executions regardless of how
/// threads interleaved.
pub fn sort_records(records: &mut [TraceRecord]) {
    // (source, seq) is unique per record, so the unstable sort is
    // order-equivalent and skips the stable sort's scratch allocation —
    // measurable on six-figure incident traces.
    records.sort_unstable_by_key(|r| (r.source, r.seq));
}

/// Renders records as JSONL (one line each, trailing newline after the
/// last when non-empty).
#[must_use]
pub fn render_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&record.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(source: u32, seq: u64) -> TraceRecord {
        TraceRecord {
            source,
            seq,
            at: seq * 10,
            event: TraceEvent::FrameRx { bytes: 42 },
        }
    }

    #[test]
    fn emitter_assigns_monotone_seqs() {
        let mut emitter = TraceEmitter::new(3, RingSink::new(8));
        emitter.emit(100, TraceEvent::KeyReveal { interval: 7 });
        emitter.emit(
            100,
            TraceEvent::VerifyEnd {
                interval: 7,
                outcome: "stored",
                elapsed_ns: 0,
            },
        );
        assert_eq!(emitter.emitted(), 2);
        let records = emitter.into_sink().into_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert!(records.iter().all(|r| r.source == 3));
    }

    #[test]
    fn ring_sheds_oldest_and_counts() {
        let mut ring = RingSink::new(2);
        for seq in 0..5 {
            ring.record(sample(0, seq));
        }
        assert_eq!(ring.shed(), 3);
        let kept: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(ring.clone().into_records().len(), 2);
        assert_eq!(ring.into_records()[0].seq, 3);
        let mut zero = RingSink::new(0);
        zero.record(sample(0, 0));
        assert_eq!(zero.shed(), 1);
        assert_eq!(zero.records().count(), 0);
    }

    #[test]
    fn sort_is_total_by_source_then_seq() {
        let mut records = vec![sample(1, 0), sample(0, 1), sample(0, 0), sample(1, 1)];
        sort_records(&mut records);
        let order: Vec<(u32, u64)> = records.iter().map(|r| (r.source, r.seq)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn every_event_serialises_with_its_name() {
        let events = [
            TraceEvent::FrameRx { bytes: 9 },
            TraceEvent::VerifyEnd {
                interval: 2,
                outcome: "auth",
                elapsed_ns: 5,
            },
            TraceEvent::BufferDecision {
                interval: 2,
                kept: true,
                k: 7,
                m: 4,
            },
            TraceEvent::KeyReveal { interval: 2 },
            TraceEvent::ShardStall {
                shard: 1,
                depth: 64,
            },
            TraceEvent::FaultInjected { kind: "wire.loss" },
            TraceEvent::SessionEvicted {
                sender: 17,
                shard: 1,
                occupancy: 63,
            },
            TraceEvent::ShedDecision {
                sender: 17,
                class: "low",
                interval: 2,
            },
            TraceEvent::PostureChange {
                epoch: 1,
                from_m: 4,
                to_m: 13,
                p_permille: 800,
                give_up: false,
            },
            TraceEvent::FrameSpan {
                span: (12 << 8) | 1,
                interval: 2,
                outcome: "auth",
                ingress_ns: 1,
                queue_ns: 2,
                decode_ns: 3,
                prefetch_ns: 4,
                verify_ns: 0,
                buffer_ns: 5,
                reveal_ns: 6,
            },
            TraceEvent::ControlEstimate {
                epoch: 1,
                sample_ppm: 900_000,
                p_hat_ppm: 512_345,
            },
        ];
        for event in events {
            let name = event.name();
            let record = TraceRecord {
                source: 0,
                seq: 0,
                at: 0,
                event,
            };
            let line = record.to_json();
            assert!(line.starts_with("{\"src\":0,\"seq\":0,\"at\":0,"), "{line}");
            assert!(line.contains(&format!("\"ev\":\"{name}\"")), "{line}");
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::from_writer(Vec::new());
        sink.record(sample(0, 0));
        sink.record(sample(0, 1));
        let bytes = sink.finish().expect("flush");
        let text = String::from_utf8(bytes).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert_eq!(render_jsonl(&[sample(0, 0), sample(0, 1)]), text);
    }

    #[test]
    fn header_line_is_deterministic_under_frozen_clocks() {
        let frozen = TimeSource::frozen();
        assert_eq!(header_line(frozen.now_ns()), header_line(frozen.now_ns()));
        assert_eq!(
            header_line(0),
            "{\"trace\":\"dap-obs\",\"version\":3,\"clock_ns\":0}"
        );
    }

    #[test]
    fn render_jsonl_round_trips_byte_stably() {
        let records = vec![sample(0, 0), sample(2, 5)];
        assert_eq!(render_jsonl(&records), render_jsonl(&records.clone()));
        assert_eq!(render_jsonl(&[]), "");
    }
}
