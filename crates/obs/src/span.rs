//! Frame-lifecycle stages: the flight recorder's vocabulary.
//!
//! A sampled frame's trip through the verify pipeline splits into the
//! seven canonical stages ([`SpanStage`]): ingress routing, queue wait,
//! decode, prefetch, verify, buffer and reveal-authenticate. The
//! shard worker measures each stage where it happens and hands the
//! seven readings to [`frame_span`], which builds the frame's
//! [`TraceEvent::FrameSpan`] under a deterministic [`span_id`]. Nothing
//! here allocates or reads a clock, so a flood cannot turn the recorder
//! into an allocator attack on the defender, and under frozen or manual
//! clocks two same-seed runs narrate byte-identical spans.

use crate::trace::TraceEvent;

/// The pipeline stages a frame crosses, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStage {
    /// Reader-side routing + copy, before the shard queue.
    Ingress,
    /// Enqueue → worker-pop wait.
    QueueWait,
    /// Datagram decode / frame reassembly.
    Decode,
    /// Always recorded as 0: no step runs between queue wait and
    /// decode. The stage keeps its place so spans and traces keep their
    /// shape.
    Prefetch,
    /// Announce-path verification, reservoir decision included.
    Verify,
    /// Emitting the verdict's trace records, on frames that reached a
    /// reservoir.
    Buffer,
    /// Reveal-path authentication.
    RevealAuth,
}

impl SpanStage {
    /// How many stages exist.
    pub const COUNT: usize = 7;

    /// Every stage, in pipeline order.
    pub const ALL: [SpanStage; SpanStage::COUNT] = [
        SpanStage::Ingress,
        SpanStage::QueueWait,
        SpanStage::Decode,
        SpanStage::Prefetch,
        SpanStage::Verify,
        SpanStage::Buffer,
        SpanStage::RevealAuth,
    ];

    /// The stage's stable label (used in reports and histogram keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanStage::Ingress => "ingress",
            SpanStage::QueueWait => "queue_wait",
            SpanStage::Decode => "decode",
            SpanStage::Prefetch => "prefetch",
            SpanStage::Verify => "verify",
            SpanStage::Buffer => "buffer",
            SpanStage::RevealAuth => "reveal_auth",
        }
    }

    /// The stage's field in a `frame_span` JSONL record.
    #[must_use]
    pub fn field(self) -> &'static str {
        match self {
            SpanStage::Ingress => "ingress_ns",
            SpanStage::QueueWait => "queue_ns",
            SpanStage::Decode => "decode_ns",
            SpanStage::Prefetch => "prefetch_ns",
            SpanStage::Verify => "verify_ns",
            SpanStage::Buffer => "buffer_ns",
            SpanStage::RevealAuth => "reveal_ns",
        }
    }
}

/// A deterministic span id: the shard's verified-datagram ordinal in
/// the high bits, the frame's index within its (possibly packed)
/// datagram in the low 8. The emitting record's source field carries
/// the shard, so `(source, span)` is globally unique and two same-seed
/// runs agree on every id.
#[must_use]
pub fn span_id(datagram_ordinal: u64, frame_idx: usize) -> u64 {
    (datagram_ordinal << 8) | (frame_idx as u64 & 0xff)
}

/// The [`TraceEvent::FrameSpan`] for one frame. `stages` holds its
/// seven stage readings in nanoseconds, in [`SpanStage::ALL`] order;
/// each saturates into the event's `u32` timing.
#[must_use]
pub fn frame_span(
    span: u64,
    interval: u64,
    outcome: &'static str,
    stages: [u64; SpanStage::COUNT],
) -> TraceEvent {
    TraceEvent::FrameSpan {
        span,
        interval,
        outcome,
        stages: stages.map(|ns| u32::try_from(ns).unwrap_or(u32::MAX)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_pack_ordinal_and_frame_index() {
        assert_eq!(span_id(0, 0), 0);
        assert_eq!(span_id(3, 1), (3 << 8) | 1);
        // Frame index saturates into 8 bits; ordinals never collide.
        assert_eq!(span_id(1, 256), 1 << 8);
        assert!(span_id(7, 255) < span_id(8, 0));
    }

    #[test]
    fn event_carries_every_stage_field() {
        let event = frame_span(span_id(9, 0), 17, "auth", [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(
            event,
            TraceEvent::FrameSpan {
                span: 9 << 8,
                interval: 17,
                outcome: "auth",
                stages: [1, 2, 3, 4, 5, 6, 7],
            }
        );
        // A reading past the u32 timing saturates instead of wrapping.
        let TraceEvent::FrameSpan { stages, .. } =
            frame_span(0, 1, "stored", [0, 0, u64::MAX, 0, 0, 0, 0])
        else {
            unreachable!("frame_span builds a FrameSpan");
        };
        assert_eq!(stages[SpanStage::Decode as usize], u32::MAX);
    }
}
