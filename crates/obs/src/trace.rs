//! Structured tracing: typed events, per-source monotone sequence
//! numbers, one bounded ring per traced source.
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
//! line [`write_trace`] writes stamps its timestamp from the run's own
//! [`TimeSource`](crate::TimeSource), so a deterministic (frozen-clock)
//! run renders a byte-identical *whole file*, header included.
//!
//! [`TraceEvent::fields`] is the format's one listing: each event's
//! fields as `(name, value)` pairs, in record order. The writer renders
//! it, the timeline prints it, and the parser accepts a line only if it
//! is that rendering of the record it read.

use std::fmt;
use std::io::{self, Write};

use crate::json::JsonObject;
use crate::span::SpanStage;

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

/// Every fault label the medium writes into
/// [`TraceEvent::FaultInjected`].
pub const FAULT_KINDS: [&str; 2] = ["wire.loss", "wire.corrupt"];

/// Every priority-class label the drain writes into
/// [`TraceEvent::ShedDecision`].
pub const CLASSES: [&str; 3] = ["pinned", "high", "low"];

/// One field value of a trace record. Every label comes from its
/// field's closed vocabulary ([`OUTCOMES`], [`FAULT_KINDS`],
/// [`CLASSES`]), and every label and field name is a plain identifier
/// (`[a-z_.-]+`), so rendering a record never escapes a character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// A label from the field's vocabulary.
    Label(&'static str),
}

/// The bare value, as a timeline prints it: digits, `true`/`false` or
/// the label.
impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::U64(v) => write!(f, "{v}"),
            Self::Bool(v) => write!(f, "{v}"),
            Self::Label(v) => f.write_str(v),
        }
    }
}

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
        /// Fault label, one of [`FAULT_KINDS`].
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
        /// The claimed sender's priority class label at flush time, one
        /// of [`CLASSES`].
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
        /// One timing per stage, in [`SpanStage::ALL`] order; the JSONL
        /// names each by [`SpanStage::field`].
        stages: [u32; SpanStage::COUNT],
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

    /// The event's fields as `(name, value)` pairs, in record order:
    /// the one listing of the trace format.
    /// [`TraceRecord::to_json`] renders it, `daptrace timeline` prints
    /// it, and the parser accepts a line only as its rendering.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        use FieldValue::{Bool, Label, U64};
        match *self {
            Self::FrameRx { bytes } => vec![("bytes", U64(bytes))],
            Self::VerifyEnd {
                interval,
                outcome,
                elapsed_ns,
            } => vec![
                ("interval", U64(interval)),
                ("outcome", Label(outcome)),
                ("elapsed_ns", U64(elapsed_ns)),
            ],
            Self::BufferDecision {
                interval,
                kept,
                k,
                m,
            } => vec![
                ("interval", U64(interval)),
                ("kept", Bool(kept)),
                ("k", U64(k)),
                ("m", U64(m)),
            ],
            Self::KeyReveal { interval } => vec![("interval", U64(interval))],
            Self::ShardStall { shard, depth } => {
                vec![("shard", U64(shard.into())), ("depth", U64(depth))]
            }
            Self::FaultInjected { kind } => vec![("kind", Label(kind))],
            Self::SessionEvicted {
                sender,
                shard,
                occupancy,
            } => vec![
                ("sender", U64(sender)),
                ("shard", U64(shard.into())),
                ("occupancy", U64(occupancy)),
            ],
            Self::ShedDecision {
                sender,
                class,
                interval,
            } => vec![
                ("sender", U64(sender)),
                ("class", Label(class)),
                ("interval", U64(interval)),
            ],
            Self::PostureChange {
                epoch,
                from_m,
                to_m,
                p_permille,
                give_up,
            } => vec![
                ("epoch", U64(epoch)),
                ("from_m", U64(from_m)),
                ("to_m", U64(to_m)),
                ("p_permille", U64(p_permille)),
                ("give_up", Bool(give_up)),
            ],
            Self::FrameSpan {
                span,
                interval,
                outcome,
                stages,
            } => {
                let head = [
                    ("span", U64(span)),
                    ("interval", U64(interval)),
                    ("outcome", Label(outcome)),
                ];
                let timings = SpanStage::ALL
                    .iter()
                    .zip(stages)
                    .map(|(stage, ns)| (stage.field(), U64(ns.into())));
                head.into_iter().chain(timings).collect()
            }
            Self::ControlEstimate {
                epoch,
                sample_ppm,
                p_hat_ppm,
            } => vec![
                ("epoch", U64(epoch)),
                ("sample_ppm", U64(sample_ppm)),
                ("p_hat_ppm", U64(p_hat_ppm)),
            ],
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
    /// `src, seq, at, ev`, then the event's own [`TraceEvent::fields`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let base = JsonObject::new()
            .u64("src", u64::from(self.source))
            .u64("seq", self.seq)
            .u64("at", self.at)
            .str("ev", self.event.name());
        self.event
            .fields()
            .into_iter()
            .fold(base, |object, (name, value)| match value {
                FieldValue::U64(v) => object.u64(name, v),
                FieldValue::Bool(v) => object.bool(name, v),
                FieldValue::Label(v) => object.str(name, v),
            })
            .finish()
    }
}

/// One trace source's bounded ring: it stamps each event with the
/// source id and the source's next sequence number, and keeps the most
/// recent records; older ones are shed and counted. Bounded so a flood
/// cannot turn tracing into an allocator attack on the defender. Once
/// the backing store is warm the ring is allocation-free: a full ring
/// overwrites its oldest slot in place rather than shuffling a deque,
/// which keeps the per-record cost flat on the verify hot path. Each
/// source owns its ring, so recording needs no synchronisation, and an
/// untraced source holds no ring at all.
#[derive(Debug, Clone)]
pub struct TraceRing {
    source: u32,
    next_seq: u64,
    capacity: usize,
    records: Vec<TraceRecord>,
    /// Oldest slot (the next overwrite target) once the ring is full.
    head: usize,
    shed: u64,
}

impl TraceRing {
    /// Storage preallocated up front, so a forensic-depth ring pays its
    /// allocator bill at setup instead of mid-campaign. Deeper rings
    /// grow amortized past this point.
    const PREALLOC_CAP: usize = 1 << 16;

    /// A ring for `source` holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0: tracing off is no ring, not an empty
    /// one.
    #[must_use]
    pub fn new(source: u32, capacity: usize) -> Self {
        assert!(capacity >= 1, "a trace ring holds at least one record");
        Self {
            source,
            next_seq: 0,
            capacity,
            records: Vec::with_capacity(capacity.min(Self::PREALLOC_CAP)),
            head: 0,
            shed: 0,
        }
    }

    /// Records one event at protocol time `at`, overwriting the oldest
    /// record when the ring is full.
    pub fn emit(&mut self, at: u64, event: TraceEvent) {
        let record = TraceRecord {
            source: self.source,
            seq: self.next_seq,
            at,
            event,
        };
        self.next_seq += 1;
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

/// The JSONL header line (no trailing newline) for a trace whose clock
/// read `clock_ns` at creation and whose full rings shed `shed`
/// records. The `shed` field appears only when a ring shed, so a
/// capture that lost nothing has the same header as before the field
/// existed.
#[must_use]
pub fn header_line(clock_ns: u64, shed: u64) -> String {
    let header = JsonObject::new()
        .str("trace", "dap-obs")
        .u64("version", 3)
        .u64("clock_ns", clock_ns);
    if shed > 0 {
        header.u64("shed", shed)
    } else {
        header
    }
    .finish()
}

/// Writes a capture — the file [`parse_trace`](crate::parse_trace)
/// reads back: the header line for `clock_ns` and `shed`, then one
/// JSONL line per record, then a flush. Pass the run's own
/// [`TimeSource`](crate::TimeSource) reading as `clock_ns`, so a
/// deterministic run (frozen or manual clocks) writes a byte-identical
/// whole file and ci gates can `cmp` traces without skipping the
/// header; only a wall-clocked run stamps real time. Pass as `shed`
/// the records the rings shed, so an audit can tell a ring's lost
/// oldest records from a gap.
///
/// # Errors
///
/// The first write or flush error.
pub fn write_trace<W: Write>(
    mut writer: W,
    clock_ns: u64,
    shed: u64,
    records: &[TraceRecord],
) -> io::Result<()> {
    writeln!(writer, "{}", header_line(clock_ns, shed))?;
    for record in records {
        writeln!(writer, "{}", record.to_json())?;
    }
    writer.flush()
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

/// One event of each kind, for tests that must cover the whole format.
#[cfg(test)]
pub(crate) fn one_of_each() -> Vec<TraceEvent> {
    vec![
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
            stages: [1, 2, 3, 4, 0, 5, 6],
        },
        TraceEvent::ControlEstimate {
            epoch: 1,
            sample_ppm: 900_000,
            p_hat_ppm: 512_345,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeSource;

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
        let mut ring = TraceRing::new(3, 8);
        ring.emit(100, TraceEvent::KeyReveal { interval: 7 });
        ring.emit(
            100,
            TraceEvent::VerifyEnd {
                interval: 7,
                outcome: "stored",
                elapsed_ns: 0,
            },
        );
        let records = ring.into_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert!(records.iter().all(|r| r.source == 3));
    }

    #[test]
    fn ring_sheds_oldest_and_counts() {
        let mut ring = TraceRing::new(0, 2);
        for seq in 0..5 {
            ring.emit(seq * 10, TraceEvent::FrameRx { bytes: 42 });
        }
        assert_eq!(ring.shed(), 3);
        let kept: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(ring.clone().into_records().len(), 2);
        assert_eq!(ring.into_records()[0], sample(0, 3));
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn a_ring_of_capacity_zero_is_refused() {
        let _ = TraceRing::new(0, 0);
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
        for event in one_of_each() {
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
    fn every_name_and_label_is_a_plain_identifier() {
        // The parser splits a line at `,` and `:` and never unescapes,
        // which reads the writer's lines only while no name or label
        // needs quoting.
        let plain = |s: &str| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || matches!(b, b'_' | b'.' | b'-'))
        };
        let mut words: Vec<&str> = ["src", "seq", "at", "ev", "trace", "dap-obs", "version"]
            .into_iter()
            .chain(["clock_ns", "shed"])
            .chain(OUTCOMES)
            .chain(FAULT_KINDS)
            .chain(CLASSES)
            .collect();
        for event in one_of_each() {
            words.push(event.name());
            for (name, value) in event.fields() {
                words.push(name);
                if let FieldValue::Label(label) = value {
                    words.push(label);
                }
            }
        }
        for word in words {
            assert!(plain(word), "{word:?} is not [a-z_.-]+");
        }
    }

    #[test]
    fn a_span_lists_its_stages_under_their_field_names() {
        let event = TraceEvent::FrameSpan {
            span: 1,
            interval: 2,
            outcome: "auth",
            stages: [3, 4, 5, 6, 7, 8, u32::MAX],
        };
        let names: Vec<&str> = event.fields().iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "span",
                "interval",
                "outcome",
                "ingress_ns",
                "queue_ns",
                "decode_ns",
                "prefetch_ns",
                "verify_ns",
                "buffer_ns",
                "reveal_ns"
            ]
        );
        assert!(TraceRecord {
            source: 0,
            seq: 0,
            at: 0,
            event
        }
        .to_json()
        .ends_with(",\"buffer_ns\":8,\"reveal_ns\":4294967295}"));
    }

    #[test]
    fn write_trace_writes_the_header_then_one_line_per_record() {
        let records = [sample(0, 0), sample(0, 1)];
        let mut bytes = Vec::new();
        write_trace(&mut bytes, 17, 5, &records).expect("write to a Vec");
        let text = String::from_utf8(bytes).expect("utf8");
        assert_eq!(
            text,
            format!("{}\n{}", header_line(17, 5), render_jsonl(&records))
        );
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn header_line_is_deterministic_under_frozen_clocks() {
        let frozen = TimeSource::frozen();
        assert_eq!(
            header_line(frozen.now_ns(), 0),
            header_line(frozen.now_ns(), 0)
        );
        assert_eq!(
            header_line(0, 0),
            "{\"trace\":\"dap-obs\",\"version\":3,\"clock_ns\":0}"
        );
        // A shed count is declared only when a ring shed.
        assert_eq!(
            header_line(7, 12),
            "{\"trace\":\"dap-obs\",\"version\":3,\"clock_ns\":7,\"shed\":12}"
        );
    }

    #[test]
    fn render_jsonl_round_trips_byte_stably() {
        let records = vec![sample(0, 0), sample(2, 5)];
        assert_eq!(render_jsonl(&records), render_jsonl(&records.clone()));
        assert_eq!(render_jsonl(&[]), "");
    }
}
