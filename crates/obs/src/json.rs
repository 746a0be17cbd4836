//! A minimal JSON writer for the experiment binaries and the trace
//! layer.
//!
//! The workspace builds hermetically, so there is no `serde`; the bench
//! outputs and trace records are flat objects, which this covers in a
//! few dozen lines. Strings are escaped per RFC 8259; non-finite floats
//! (which JSON cannot represent) serialise as `null`.

use std::fmt::Write;

/// One JSON object under construction.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, name: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        write!(self.buf, "{}:", quote(name)).expect("write to String");
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.buf.push_str(&quote(value));
        self
    }

    /// Adds a float field (`null` when non-finite).
    #[must_use]
    pub fn f64(mut self, name: &str, value: f64) -> Self {
        self.key(name);
        if value.is_finite() {
            // `{:?}` prints a round-trippable decimal form ("1.0", not "1").
            write!(self.buf, "{value:?}").expect("write to String");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, name: &str, value: u64) -> Self {
        self.key(name);
        write!(self.buf, "{value}").expect("write to String");
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(mut self, name: &str, value: bool) -> Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Serialises `items` as a JSON array, one object per item, pretty
/// enough for both `jq` and diffing (one record per line).
pub fn array<T>(items: &[T], record: impl Fn(&T) -> JsonObject) -> String {
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&record(item).finish());
        if i + 1 < items.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Quotes and escapes a string per RFC 8259.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// True when the process arguments ask for JSON output (`--json`).
#[must_use]
pub fn json_requested() -> bool {
    std::env::args().any(|a| a == "--json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builds_all_field_kinds() {
        let obj = JsonObject::new()
            .str("name", "fig7")
            .f64("p", 0.8)
            .f64("bad", f64::NAN)
            .u64("m", 14)
            .bool("saturated", false)
            .finish();
        assert_eq!(
            obj,
            r#"{"name":"fig7","p":0.8,"bad":null,"m":14,"saturated":false}"#
        );
    }

    #[test]
    fn floats_round_trip_textually() {
        let obj = JsonObject::new().f64("x", 1.0).f64("y", 0.1 + 0.2).finish();
        assert_eq!(obj, r#"{"x":1.0,"y":0.30000000000000004}"#);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn array_is_one_record_per_line() {
        let rows = [1u64, 2];
        let json = array(&rows, |r| JsonObject::new().u64("v", *r));
        assert_eq!(json, "[\n  {\"v\":1},\n  {\"v\":2}\n]");
    }

    #[test]
    fn empty_array() {
        let rows: [u64; 0] = [];
        assert_eq!(array(&rows, |r| JsonObject::new().u64("v", *r)), "[\n]");
    }
}
