//! Typed parsing of the trace JSONL stream back into [`TraceRecord`]s.
//!
//! One rule makes the parser strict: a line is accepted only if it
//! equals the canonical rendering of the record it parses to — the
//! record's [`TraceRecord::to_json`], or [`header_line`] for the
//! header. So reordered, duplicated or surplus fields, leading zeros,
//! escapes and stray whitespace all fail, and the header must read
//! version 3. A failing line is reported with its 1-indexed line number
//! ([`TraceParseError`]), never skipped: the `daptrace` audit engine
//! treats it as evidence of corruption.
//!
//! The writer never escapes, because every key and label is a plain
//! identifier (`[a-z_.-]+`). So the reader splits a line at `,` and
//! `:` and reads each field of the event by name, in one match over
//! the event names, interning each label from its own field's
//! vocabulary.
//! That reads every line the writer produces; any other line fails a
//! typed read or the compare.

use std::fmt;

use crate::span::SpanStage;
use crate::trace::{header_line, TraceEvent, TraceRecord, CLASSES, FAULT_KINDS, OUTCOMES};

/// A parse failure, pointing at the 1-indexed offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-indexed line number within the parsed text.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceParseError {}

/// The header line's payload ([`header_line`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// The emitting run's clock reading at trace creation (0 under
    /// frozen clocks).
    pub clock_ns: u64,
    /// Records the run's full rings shed before the capture was written
    /// (0 when the header declares none).
    pub shed: u64,
}

/// A fully parsed trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedTrace {
    /// The header, when the text began with one (files written by
    /// [`write_trace`](crate::write_trace) do; in-memory renders do
    /// not).
    pub header: Option<TraceHeader>,
    /// Every record, in file order.
    pub records: Vec<TraceRecord>,
}

/// Parses a whole JSONL text (optional header line, then records).
///
/// # Errors
///
/// The first line that is not the canonical rendering of a header or
/// record, with its 1-indexed line number.
pub fn parse_trace(text: &str) -> Result<ParsedTrace, TraceParseError> {
    let mut header = None;
    let mut records = Vec::new();
    for (idx, line) in text.split_terminator('\n').enumerate() {
        let at_line = |reason| TraceParseError {
            line: idx + 1,
            reason,
        };
        let fields = Fields::split(line).map_err(at_line)?;
        if fields.0.first().is_some_and(|(name, _)| *name == "trace") {
            if idx > 0 {
                return Err(at_line("header after line 1".to_string()));
            }
            header = Some(parse_header(line, &fields).map_err(at_line)?);
        } else {
            records.push(parse_record(line, &fields).map_err(at_line)?);
        }
    }
    Ok(ParsedTrace { header, records })
}

fn parse_header(line: &str, fields: &Fields<'_>) -> Result<TraceHeader, String> {
    let header = TraceHeader {
        clock_ns: fields.u64("clock_ns")?,
        shed: if fields.raw("shed").is_ok() {
            fields.u64("shed")?
        } else {
            0
        },
    };
    canonical(line, header_line(header.clock_ns, header.shed))?;
    Ok(header)
}

/// The parser's constructor: one arm per event, reading its fields by
/// name.
fn parse_record(line: &str, fields: &Fields<'_>) -> Result<TraceRecord, String> {
    let (source, seq, at) = (fields.u32("src")?, fields.u64("seq")?, fields.u64("at")?);
    let event = match fields.text("ev")? {
        "frame_rx" => TraceEvent::FrameRx {
            bytes: fields.u64("bytes")?,
        },
        "verify_end" => TraceEvent::VerifyEnd {
            interval: fields.u64("interval")?,
            outcome: fields.label("outcome", &OUTCOMES)?,
            elapsed_ns: fields.u64("elapsed_ns")?,
        },
        "buffer_decision" => TraceEvent::BufferDecision {
            interval: fields.u64("interval")?,
            kept: fields.bool("kept")?,
            k: fields.u64("k")?,
            m: fields.u64("m")?,
        },
        "key_reveal" => TraceEvent::KeyReveal {
            interval: fields.u64("interval")?,
        },
        "shard_stall" => TraceEvent::ShardStall {
            shard: fields.u32("shard")?,
            depth: fields.u64("depth")?,
        },
        "fault_injected" => TraceEvent::FaultInjected {
            kind: fields.label("kind", &FAULT_KINDS)?,
        },
        "session_evicted" => TraceEvent::SessionEvicted {
            sender: fields.u64("sender")?,
            shard: fields.u32("shard")?,
            occupancy: fields.u64("occupancy")?,
        },
        "shed_decision" => TraceEvent::ShedDecision {
            sender: fields.u64("sender")?,
            class: fields.label("class", &CLASSES)?,
            interval: fields.u64("interval")?,
        },
        "posture_change" => TraceEvent::PostureChange {
            epoch: fields.u64("epoch")?,
            from_m: fields.u64("from_m")?,
            to_m: fields.u64("to_m")?,
            p_permille: fields.u64("p_permille")?,
            give_up: fields.bool("give_up")?,
        },
        "frame_span" => {
            let mut stages = [0; SpanStage::COUNT];
            for (ns, stage) in stages.iter_mut().zip(SpanStage::ALL) {
                *ns = fields.u32(stage.field())?;
            }
            TraceEvent::FrameSpan {
                span: fields.u64("span")?,
                interval: fields.u64("interval")?,
                outcome: fields.label("outcome", &OUTCOMES)?,
                stages,
            }
        }
        "control_estimate" => TraceEvent::ControlEstimate {
            epoch: fields.u64("epoch")?,
            sample_ppm: fields.u64("sample_ppm")?,
            p_hat_ppm: fields.u64("p_hat_ppm")?,
        },
        other => return Err(format!("unknown event name {other:?}")),
    };
    let record = TraceRecord {
        source,
        seq,
        at,
        event,
    };
    canonical(line, record.to_json())?;
    Ok(record)
}

/// The one strictness rule: the line must be `rendering`, the writer's
/// output for what the line parsed to.
fn canonical(line: &str, rendering: String) -> Result<(), String> {
    if line == rendering {
        Ok(())
    } else {
        Err(format!("not the canonical rendering {rendering}"))
    }
}

/// A line split into `(name, raw value)` pairs: at each `,`, then at
/// each piece's first `:`, with the names unquoted.
struct Fields<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Fields<'a> {
    fn split(line: &'a str) -> Result<Self, String> {
        let body = line
            .strip_prefix('{')
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or("not a one-line JSON object")?;
        body.split(',')
            .map(|pair| {
                let (name, value) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("no ':' in {pair:?}"))?;
                let name = unquote(name).ok_or_else(|| format!("unquoted name {name:?}"))?;
                Ok((name, value))
            })
            .collect::<Result<_, String>>()
            .map(Self)
    }

    /// The first value named `name`; a duplicate fails the compare.
    fn raw(&self, name: &str) -> Result<&'a str, String> {
        self.0
            .iter()
            .find(|(field, _)| *field == name)
            .map(|(_, value)| *value)
            .ok_or_else(|| format!("missing field {name:?}"))
    }

    fn u64(&self, name: &str) -> Result<u64, String> {
        let raw = self.raw(name)?;
        raw.parse()
            .map_err(|_| format!("field {name:?} is not an integer: {raw}"))
    }

    /// A `u32` field (the source, a shard, a span stage). A value past
    /// `u32::MAX` is rejected rather than truncated: the writer
    /// saturates at the type bound, so anything wider is not a value it
    /// produced.
    fn u32(&self, name: &str) -> Result<u32, String> {
        let v = self.u64(name)?;
        u32::try_from(v).map_err(|_| format!("field {name:?} out of range: {v}"))
    }

    fn bool(&self, name: &str) -> Result<bool, String> {
        match self.raw(name)? {
            "true" => Ok(true),
            "false" => Ok(false),
            raw => Err(format!("field {name:?} is not a bool: {raw}")),
        }
    }

    fn text(&self, name: &str) -> Result<&'a str, String> {
        let raw = self.raw(name)?;
        unquote(raw).ok_or_else(|| format!("field {name:?} is not a string: {raw}"))
    }

    /// A label, interned from its own field's `vocabulary`.
    fn label(&self, name: &str, vocabulary: &[&'static str]) -> Result<&'static str, String> {
        let text = self.text(name)?;
        vocabulary
            .iter()
            .find(|label| **label == text)
            .copied()
            .ok_or_else(|| format!("unknown {name} label {text:?}"))
    }
}

fn unquote(quoted: &str) -> Option<&str> {
    quoted.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{one_of_each, render_jsonl};

    #[test]
    fn every_event_round_trips_byte_exactly() {
        // One event of each kind, then each vocabulary's every label.
        let mut events = one_of_each();
        for outcome in OUTCOMES {
            events.push(TraceEvent::VerifyEnd {
                interval: 2,
                outcome,
                elapsed_ns: 5,
            });
        }
        events.extend(FAULT_KINDS.map(|kind| TraceEvent::FaultInjected { kind }));
        for class in CLASSES {
            events.push(TraceEvent::ShedDecision {
                sender: 17,
                class,
                interval: 2,
            });
        }
        let records: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                source: 3,
                seq: i as u64,
                at: 10 * i as u64,
                event,
            })
            .collect();
        let rendered = render_jsonl(&records);
        let parsed = parse_trace(&rendered).expect("canonical text parses");
        assert_eq!(parsed.header, None);
        assert_eq!(parsed.records, records);
        assert_eq!(render_jsonl(&parsed.records), rendered);
    }

    #[test]
    fn header_line_parses_and_survives_reround() {
        for (clock_ns, shed) in [(712, 0), (0, 1_479_696)] {
            let text = format!("{}\n", header_line(clock_ns, shed));
            let parsed = parse_trace(&text).expect("header parses");
            assert_eq!(parsed.header, Some(TraceHeader { clock_ns, shed }));
            assert!(parsed.records.is_empty());
        }
        // Only version 3 is read, and a zero shed count is never written.
        for header in [
            "{\"trace\":\"dap-obs\",\"version\":4,\"clock_ns\":0}",
            "{\"trace\":\"dap-obs\",\"version\":3,\"clock_ns\":0,\"shed\":0}",
            "{\"trace\":\"dap-obs\",\"version\":3,\"shed\":2,\"clock_ns\":0}",
        ] {
            let err = parse_trace(header).expect_err(header);
            assert_eq!(err.line, 1);
        }
    }

    #[test]
    fn corruption_is_flagged_with_the_line_number() {
        let good = TraceRecord {
            source: 0,
            seq: 0,
            at: 7,
            event: TraceEvent::VerifyEnd {
                interval: 1,
                outcome: "auth",
                elapsed_ns: 0,
            },
        };
        let text = render_jsonl(&[good.clone(), good]);
        // Corrupt the second line: an outcome outside the vocabulary.
        let corrupted = {
            let mut lines: Vec<&str> = text.lines().collect();
            let bad = lines[1].replace("\"outcome\":\"auth\"", "\"outcome\":\"hacked\"");
            lines[1] = &bad;
            format!("{}\n", lines.join("\n"))
        };
        let err = parse_trace(&corrupted).expect_err("corruption must fail");
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("hacked"), "{err}");
    }

    #[test]
    fn truncated_and_malformed_lines_fail() {
        assert!(parse_trace("{\"src\":0,\"seq\":0").is_err());
        assert!(parse_trace("not json at all\n").is_err());
        assert!(parse_trace("{\"src\":0,\"seq\":0,\"at\":0,\"ev\":\"nope\"}\n").is_err());
        // A blank line is not skipped.
        assert_eq!(parse_trace("\n").map_err(|e| e.line), Err(1));
        // A record stream never contains a second header.
        let two_headers = format!("{}\n{}\n", header_line(0, 0), header_line(0, 0));
        assert!(parse_trace(&two_headers).is_err());
    }

    /// The one canonical line each rejection test edits: a span, so
    /// every kind of field is there (integers, a label, stage timings).
    const SPAN: &str =
        "{\"src\":1,\"seq\":6,\"at\":70,\"ev\":\"frame_span\",\"span\":256,\"interval\":7,\
        \"outcome\":\"stored\",\"ingress_ns\":10,\"queue_ns\":20,\"decode_ns\":5,\"prefetch_ns\":0,\
        \"verify_ns\":40,\"buffer_ns\":3,\"reveal_ns\":0}";

    /// Parses `line` as the second line of a capture and returns the
    /// reason it was refused.
    fn refused(line: &str) -> String {
        let text = format!("{}\n{line}\n", header_line(0, 0));
        let err = parse_trace(&text).expect_err(line);
        assert_eq!(err.line, 2, "{err}");
        err.reason
    }

    #[test]
    fn only_the_canonical_rendering_of_a_record_is_read() {
        let record = parse_trace(SPAN).expect("the canonical line parses");
        assert_eq!(render_jsonl(&record.records), format!("{SPAN}\n"));
        // Each edit below leaves a record the fields still read, so only
        // the compare can refuse it.
        let edits = [
            SPAN.replace("\"span\":256,\"interval\":7", "\"interval\":7,\"span\":256"),
            SPAN.replace("\"interval\":7", "\"interval\":007"),
            format!(" {SPAN}"),
            format!("{SPAN} "),
            SPAN.replace("\"at\":70", "\"at\":70,\"at\":70"),
            SPAN.replace("\"reveal_ns\":0", "\"reveal_ns\":0,\"note\":1"),
            SPAN.replace("\"at\":70", "\"at\":+70"),
            format!("{SPAN}\r"),
        ];
        for edit in &edits {
            let reason = refused(edit);
            assert!(
                reason.contains("canonical") || reason.contains("JSON object"),
                "{edit}: {reason}"
            );
        }
    }

    #[test]
    fn escapes_foreign_labels_and_wide_stages_fail_their_typed_read() {
        let escaped = refused(&SPAN.replace("\"frame_span\"", "\"\\u0066rame_span\""));
        assert!(escaped.contains("unknown event name"), "{escaped}");
        // "low" is a priority class, not an outcome.
        let foreign = refused(&SPAN.replace("\"stored\"", "\"low\""));
        assert!(
            foreign.contains("unknown outcome label \"low\""),
            "{foreign}"
        );
        let wide = refused(&SPAN.replace("\"decode_ns\":5", "\"decode_ns\":4294967296"));
        assert!(wide.contains("out of range"), "{wide}");
    }
}
