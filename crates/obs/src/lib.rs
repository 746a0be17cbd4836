//! # dap-obs — the observability plane
//!
//! The paper's claims are distributional — buffer survival `1 − p^m`,
//! verify cost under flood — so sums are not enough: this crate gives
//! every layer of the workspace the same vocabulary for *distributions*
//! and *event sequences*, without pulling in a single dependency (the
//! workspace builds hermetically) and without breaking the seeded
//! bit-reproducibility the chaos and soak gates rely on.
//!
//! The pieces:
//!
//! * [`hist`] — an allocation-free log2-bucketed streaming
//!   [`Histogram`] (HDR-style: 64 major buckets × 16 linear sub-buckets
//!   cover all of `u64` at ≤ 1/16 relative error) with `record`,
//!   `merge`, `quantile` and a byte-stable `render`;
//! * [`gauge`] — [`Gauge`], a last/min/max sample tracker;
//! * [`time`] — [`TimeSource`]: wall-clock `Instant` on the wire or a
//!   tick-driven [`ManualTime`] in sim and tests, so latency
//!   instrumentation can stay in place while a deterministic run
//!   records all-zero durations instead of scheduler noise;
//! * [`trace`] — typed [`TraceEvent`]s recorded into one bounded
//!   [`TraceRing`] per traced source, each record carrying a
//!   per-source monotone sequence number so interleavings from a
//!   sharded pool can be totally ordered and replay-diffed, and
//!   [`write_trace`], which writes a capture as a JSONL file.
//!   [`TraceEvent::fields`] lists each event's fields once, in record
//!   order; the writer renders that list and `daptrace timeline`
//!   prints it;
//! * [`json`] — the minimal JSON writer the bench binaries and the
//!   trace writer use;
//! * [`span`] — the flight recorder's vocabulary: the seven pipeline
//!   stages ([`SpanStage`], each naming its JSONL field),
//!   deterministic ids from [`span_id`], and [`frame_span`], which
//!   builds a [`TraceEvent::FrameSpan`] from one frame's stage
//!   readings;
//! * [`parse`] — the strict inverse of the JSONL writer:
//!   [`parse_trace`] turns a trace file back into typed
//!   [`TraceRecord`]s and accepts a line only if it equals the
//!   canonical rendering of the record it parsed to (the `daptrace`
//!   audit engine's corruption detector).
//!
//! Determinism rule of thumb: anything that feeds a fingerprint must be
//! derived from protocol state (interval indices, frame ordinals, seeded
//! draws) or from a [`ManualTime`]; wall-clock readings are for live
//! runs and bench reports only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gauge;
pub mod hist;
pub mod json;
pub mod parse;
pub mod span;
pub mod time;
pub mod trace;

pub use gauge::Gauge;
pub use hist::Histogram;
pub use parse::{parse_trace, ParsedTrace, TraceHeader, TraceParseError};
pub use span::{frame_span, span_id, SpanStage};
pub use time::{ManualTime, TimeSource};
pub use trace::{
    header_line, render_jsonl, sort_records, write_trace, FieldValue, TraceEvent, TraceRecord,
    TraceRing, CLASSES, FAULT_KINDS, OUTCOMES,
};
