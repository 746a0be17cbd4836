//! Typed parsing of the trace JSONL stream back into [`TraceRecord`]s.
//!
//! The writer side ([`TraceRecord::to_json`]) emits a closed, canonical
//! dialect: flat objects, fixed field order, a known event vocabulary
//! and known label sets for every `&'static str` field. The parser
//! here inverts it **strictly** — unknown event names, unknown outcome
//! labels, missing or surplus fields, and malformed JSON all fail with
//! a line-numbered [`TraceParseError`] rather than being skipped. That
//! strictness is the point: the `daptrace` audit engine treats a line
//! that does not round-trip as evidence of corruption, and the
//! round-trip (`parse` → [`TraceRecord::to_json`]) is byte-exact, which
//! the test suite pins.

use std::fmt;

use crate::trace::{TraceEvent, TraceRecord, OUTCOMES};

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

/// The header line's payload ([`crate::trace::header_line`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Trace format version.
    pub version: u64,
    /// The emitting run's clock reading at trace creation (0 under
    /// frozen clocks).
    pub clock_ns: u64,
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

/// One scanned JSON value (the trace dialect has no nesting, floats or
/// nulls).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    U64(u64),
    Str(String),
    Bool(bool),
}

/// Parses a whole JSONL text (optional header line, then records).
///
/// # Errors
///
/// The first malformed line, with its 1-indexed line number.
pub fn parse_trace(text: &str) -> Result<ParsedTrace, TraceParseError> {
    let mut header = None;
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let number = idx + 1;
        if line.trim().is_empty() {
            return Err(TraceParseError {
                line: number,
                reason: "blank line".to_string(),
            });
        }
        let fields = scan_object(line).map_err(|reason| TraceParseError {
            line: number,
            reason,
        })?;
        if fields.first().is_some_and(|(k, _)| k == "trace") {
            if number != 1 {
                return Err(TraceParseError {
                    line: number,
                    reason: "header after line 1".to_string(),
                });
            }
            header = Some(parse_header(&fields).map_err(|reason| TraceParseError {
                line: number,
                reason,
            })?);
            continue;
        }
        records.push(parse_record(&fields).map_err(|reason| TraceParseError {
            line: number,
            reason,
        })?);
    }
    Ok(ParsedTrace { header, records })
}

/// Parses one record line (no header accepted).
///
/// # Errors
///
/// Malformed JSON, unknown event names/labels, missing or extra fields.
pub fn parse_record_line(line: &str) -> Result<TraceRecord, TraceParseError> {
    let fields = scan_object(line).map_err(|reason| TraceParseError { line: 1, reason })?;
    parse_record(&fields).map_err(|reason| TraceParseError { line: 1, reason })
}

fn parse_header(fields: &[(String, Value)]) -> Result<TraceHeader, String> {
    expect_keys(fields, &["trace", "version", "clock_ns"])?;
    match get(fields, "trace")? {
        Value::Str(s) if s == "dap-obs" => {}
        other => return Err(format!("unexpected trace marker {other:?}")),
    }
    Ok(TraceHeader {
        version: get_u64(fields, "version")?,
        clock_ns: get_u64(fields, "clock_ns")?,
    })
}

fn parse_record(fields: &[(String, Value)]) -> Result<TraceRecord, String> {
    let src = get_u64(fields, "src")?;
    let source = u32::try_from(src).map_err(|_| format!("src {src} exceeds u32"))?;
    let seq = get_u64(fields, "seq")?;
    let at = get_u64(fields, "at")?;
    let ev = get_str(fields, "ev")?;
    const BASE: [&str; 4] = ["src", "seq", "at", "ev"];
    fn with<'a>(extra: &[&'a str]) -> Vec<&'a str> {
        BASE.iter().chain(extra).copied().collect()
    }
    let event = match ev.as_str() {
        "frame_rx" => {
            expect_keys(fields, &with(&["bytes"]))?;
            TraceEvent::FrameRx {
                bytes: get_u64(fields, "bytes")?,
            }
        }
        "verify_end" => {
            expect_keys(fields, &with(&["interval", "outcome", "elapsed_ns"]))?;
            TraceEvent::VerifyEnd {
                interval: get_u64(fields, "interval")?,
                outcome: intern_outcome(&get_str(fields, "outcome")?)?,
                elapsed_ns: get_u64(fields, "elapsed_ns")?,
            }
        }
        "buffer_decision" => {
            expect_keys(fields, &with(&["interval", "kept", "k", "m"]))?;
            TraceEvent::BufferDecision {
                interval: get_u64(fields, "interval")?,
                kept: get_bool(fields, "kept")?,
                k: get_u64(fields, "k")?,
                m: get_u64(fields, "m")?,
            }
        }
        "key_reveal" => {
            expect_keys(fields, &with(&["interval"]))?;
            TraceEvent::KeyReveal {
                interval: get_u64(fields, "interval")?,
            }
        }
        "shard_stall" => {
            expect_keys(fields, &with(&["shard", "depth"]))?;
            let shard = get_u64(fields, "shard")?;
            TraceEvent::ShardStall {
                shard: u32::try_from(shard).map_err(|_| format!("shard {shard} exceeds u32"))?,
                depth: get_u64(fields, "depth")?,
            }
        }
        "fault_injected" => {
            expect_keys(fields, &with(&["kind"]))?;
            TraceEvent::FaultInjected {
                kind: intern_fault_kind(&get_str(fields, "kind")?)?,
            }
        }
        "session_evicted" => {
            expect_keys(fields, &with(&["sender", "shard", "occupancy"]))?;
            let shard = get_u64(fields, "shard")?;
            TraceEvent::SessionEvicted {
                sender: get_u64(fields, "sender")?,
                shard: u32::try_from(shard).map_err(|_| format!("shard {shard} exceeds u32"))?,
                occupancy: get_u64(fields, "occupancy")?,
            }
        }
        "shed_decision" => {
            expect_keys(fields, &with(&["sender", "class", "interval"]))?;
            TraceEvent::ShedDecision {
                sender: get_u64(fields, "sender")?,
                class: intern_class(&get_str(fields, "class")?)?,
                interval: get_u64(fields, "interval")?,
            }
        }
        "posture_change" => {
            expect_keys(
                fields,
                &with(&["epoch", "from_m", "to_m", "p_permille", "give_up"]),
            )?;
            TraceEvent::PostureChange {
                epoch: get_u64(fields, "epoch")?,
                from_m: get_u64(fields, "from_m")?,
                to_m: get_u64(fields, "to_m")?,
                p_permille: get_u64(fields, "p_permille")?,
                give_up: get_bool(fields, "give_up")?,
            }
        }
        "frame_span" => {
            expect_keys(
                fields,
                &with(&[
                    "span",
                    "interval",
                    "outcome",
                    "ingress_ns",
                    "queue_ns",
                    "decode_ns",
                    "prefetch_ns",
                    "verify_ns",
                    "buffer_ns",
                    "reveal_ns",
                ]),
            )?;
            TraceEvent::FrameSpan {
                span: get_u64(fields, "span")?,
                interval: get_u64(fields, "interval")?,
                outcome: intern_outcome(&get_str(fields, "outcome")?)?,
                ingress_ns: get_u32(fields, "ingress_ns")?,
                queue_ns: get_u32(fields, "queue_ns")?,
                decode_ns: get_u32(fields, "decode_ns")?,
                prefetch_ns: get_u32(fields, "prefetch_ns")?,
                verify_ns: get_u32(fields, "verify_ns")?,
                buffer_ns: get_u32(fields, "buffer_ns")?,
                reveal_ns: get_u32(fields, "reveal_ns")?,
            }
        }
        "control_estimate" => {
            expect_keys(fields, &with(&["epoch", "sample_ppm", "p_hat_ppm"]))?;
            TraceEvent::ControlEstimate {
                epoch: get_u64(fields, "epoch")?,
                sample_ppm: get_u64(fields, "sample_ppm")?,
                p_hat_ppm: get_u64(fields, "p_hat_ppm")?,
            }
        }
        other => return Err(format!("unknown event name {other:?}")),
    };
    Ok(TraceRecord {
        source,
        seq,
        at,
        event,
    })
}

/// Maps a verify-outcome label back to the canonical `&'static str` the
/// writer used (the closed vocabulary [`OUTCOMES`]).
fn intern_outcome(s: &str) -> Result<&'static str, String> {
    OUTCOMES
        .into_iter()
        .find(|o| *o == s)
        .ok_or_else(|| format!("unknown outcome label {s:?}"))
}

fn intern_fault_kind(s: &str) -> Result<&'static str, String> {
    const KINDS: [&str; 2] = ["wire.loss", "wire.corrupt"];
    KINDS
        .into_iter()
        .find(|k| *k == s)
        .ok_or_else(|| format!("unknown fault kind {s:?}"))
}

fn intern_class(s: &str) -> Result<&'static str, String> {
    const CLASSES: [&str; 3] = ["pinned", "high", "low"];
    CLASSES
        .into_iter()
        .find(|c| *c == s)
        .ok_or_else(|| format!("unknown priority class {s:?}"))
}

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn get_u64(fields: &[(String, Value)], key: &str) -> Result<u64, String> {
    match get(fields, key)? {
        Value::U64(v) => Ok(*v),
        other => Err(format!("field {key:?} is not an integer: {other:?}")),
    }
}

/// A `u32` field (the span stage timings). A value past `u32::MAX` is
/// rejected rather than silently truncated: the writer saturates at
/// the type bound, so anything wider is not a value this writer
/// produced — corruption evidence, same as an unknown label.
fn get_u32(fields: &[(String, Value)], key: &str) -> Result<u32, String> {
    let v = get_u64(fields, key)?;
    u32::try_from(v).map_err(|_| format!("field {key:?} out of range: {v}"))
}

fn get_str(fields: &[(String, Value)], key: &str) -> Result<String, String> {
    match get(fields, key)? {
        Value::Str(v) => Ok(v.clone()),
        other => Err(format!("field {key:?} is not a string: {other:?}")),
    }
}

fn get_bool(fields: &[(String, Value)], key: &str) -> Result<bool, String> {
    match get(fields, key)? {
        Value::Bool(v) => Ok(*v),
        other => Err(format!("field {key:?} is not a bool: {other:?}")),
    }
}

/// Strict field-set check: exactly `expected`, no more, no less (order
/// is not enforced — `to_json` fixes it on re-render anyway).
fn expect_keys(fields: &[(String, Value)], expected: &[&str]) -> Result<(), String> {
    for key in expected {
        get(fields, key)?;
    }
    if let Some((extra, _)) = fields.iter().find(|(k, _)| !expected.contains(&k.as_str())) {
        return Err(format!("unexpected field {extra:?}"));
    }
    if fields.len() != expected.len() {
        return Err("duplicate field".to_string());
    }
    Ok(())
}

/// Scans one flat JSON object into `(key, value)` pairs. Handles the
/// trace dialect only: string/integer/bool values, RFC 8259 string
/// escapes, no nesting, no floats.
fn scan_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let text = line.trim();
    let mut fields = Vec::new();
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("expected '{'".to_string()),
    }
    // Empty object?
    if let Some(&(_, '}')) = chars.peek() {
        chars.next();
        return match chars.next() {
            None => Ok(fields),
            Some(_) => Err("trailing bytes after '}'".to_string()),
        };
    }
    loop {
        let key = match chars.next() {
            Some((start, '"')) => scan_string(text, start, &mut chars)?,
            other => return Err(format!("expected key string, got {other:?}")),
        };
        match chars.next() {
            Some((_, ':')) => {}
            other => return Err(format!("expected ':', got {other:?}")),
        }
        let value = match chars.peek().copied() {
            Some((start, '"')) => {
                chars.next();
                Value::Str(scan_string(text, start, &mut chars)?)
            }
            Some((start, c)) if c.is_ascii_digit() => {
                let mut end = start;
                while let Some(&(i, c)) = chars.peek() {
                    if c.is_ascii_digit() {
                        end = i;
                        chars.next();
                    } else {
                        break;
                    }
                }
                let digits = &text[start..=end];
                Value::U64(
                    digits
                        .parse()
                        .map_err(|_| format!("bad integer {digits:?}"))?,
                )
            }
            Some((start, 't' | 'f')) => {
                let rest = &text[start..];
                if rest.starts_with("true") {
                    for _ in 0..4 {
                        chars.next();
                    }
                    Value::Bool(true)
                } else if rest.starts_with("false") {
                    for _ in 0..5 {
                        chars.next();
                    }
                    Value::Bool(false)
                } else {
                    return Err("bad literal".to_string());
                }
            }
            other => return Err(format!("unexpected value start {other:?}")),
        };
        fields.push((key, value));
        match chars.next() {
            Some((_, ',')) => {}
            Some((_, '}')) => {
                return match chars.next() {
                    None => Ok(fields),
                    Some(_) => Err("trailing bytes after '}'".to_string()),
                };
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

/// Scans a JSON string whose opening quote was already consumed at byte
/// offset `start`; leaves the iterator just past the closing quote.
fn scan_string(
    text: &str,
    start: usize,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, String> {
    let _ = (text, start);
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, c) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16 + c.to_digit(16).ok_or("bad \\u escape")?;
                    }
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{header_line, render_jsonl};

    fn roundtrip_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::FrameRx { bytes: 9 },
            TraceEvent::VerifyEnd {
                interval: 2,
                outcome: "strong_rejected",
                elapsed_ns: 5,
            },
            TraceEvent::BufferDecision {
                interval: 2,
                kept: false,
                k: 7,
                m: 4,
            },
            TraceEvent::KeyReveal { interval: 2 },
            TraceEvent::ShardStall {
                shard: 1,
                depth: 64,
            },
            TraceEvent::FaultInjected {
                kind: "wire.corrupt",
            },
            TraceEvent::SessionEvicted {
                sender: 17,
                shard: 1,
                occupancy: 63,
            },
            TraceEvent::ShedDecision {
                sender: 17,
                class: "pinned",
                interval: 2,
            },
            TraceEvent::PostureChange {
                epoch: 1,
                from_m: 4,
                to_m: 13,
                p_permille: 800,
                give_up: true,
            },
            TraceEvent::FrameSpan {
                span: (3 << 8) | 1,
                interval: 9,
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
                epoch: 2,
                sample_ppm: 900_000,
                p_hat_ppm: 123_456,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_byte_exactly() {
        let records: Vec<TraceRecord> = roundtrip_events()
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
        let text = format!("{}\n", header_line(712));
        let parsed = parse_trace(&text).expect("header parses");
        assert_eq!(
            parsed.header,
            Some(TraceHeader {
                version: 3,
                clock_ns: 712
            })
        );
        assert!(parsed.records.is_empty());
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
        // Surplus fields are rejected, not ignored.
        assert!(parse_trace(
            "{\"src\":0,\"seq\":0,\"at\":0,\"ev\":\"key_reveal\",\"interval\":1,\"x\":2}\n"
        )
        .is_err());
        // A record stream never contains a second header.
        let two_headers = format!("{}\n{}\n", header_line(0), header_line(0));
        assert!(parse_trace(&two_headers).is_err());
    }
}
