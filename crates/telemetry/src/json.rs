//! A minimal JSON value model with a writer and a recursive-descent parser.
//!
//! The build container has no crates.io access, so the `sweep_report.json`
//! schema cannot lean on serde; this module is the self-contained
//! serialisation substrate instead. Objects preserve insertion order so the
//! emitted reports are deterministic and diffable, and integers round-trip
//! exactly through `i128` (floats are only used for derived ratios).

use std::collections::HashSet;
use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Integers round-trip exactly; `u64` counters fit losslessly.
    Int(i128),
    Float(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Insertion-ordered key/value pairs (no dedup — the writer emits what
    /// you built, the validator rejects duplicate keys on parse).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object constructor from pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's member pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Pretty-printed serialisation with two-space indentation and a
    /// trailing newline — the on-disk format of `sweep_report.json`.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Single-line serialisation with no intra-document newlines — the
    /// framing format of the `dp-serve` wire protocol, where one JSON
    /// document per line is the frame boundary. String escaping already
    /// guarantees embedded newlines are written as `\n`, so the output is
    /// newline-free by construction (and [`parse`] reads it back exactly).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            // Scalars render identically in both modes.
            scalar => scalar.write_pretty(out, 0),
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                use fmt::Write;
                let _ = write!(out, "{i}");
            }
            JsonValue::Float(f) => {
                use fmt::Write;
                // Finite floats only; format with enough digits to round-trip.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; nested structures indent.
                let scalar = items
                    .iter()
                    .all(|v| !matches!(v, JsonValue::Arr(_) | JsonValue::Obj(_)));
                if scalar {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        v.write_pretty(out, depth + 1);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, v) in items.iter().enumerate() {
                        indent(out, depth + 1);
                        v.write_pretty(out, depth + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push(']');
                }
            }
            JsonValue::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Whether `b` goes into a JSON string as itself. The three kinds of byte
/// that do not (`"`, `\` and controls) are ASCII, so a run of plain bytes
/// always starts and ends on a char boundary.
fn is_plain(b: u8) -> bool {
    b != b'"' && b != b'\\' && b >= 0x20
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if is_plain(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                use fmt::Write;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting of arrays and objects [`parse`] accepts. A sweep
/// report nests nine levels and a `done` frame one more; the cap only keeps
/// a hostile line of brackets from recursing the parser off its thread's
/// stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (rejecting trailing garbage, duplicate
/// object keys and nesting deeper than [`MAX_DEPTH`]). Runs in time linear
/// in the input's length.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| self.err("invalid float"))
        } else {
            text.parse::<i128>()
                .map(JsonValue::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self.peek().is_some_and(is_plain) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            // Exactly four hex digits: no sign, no other byte.
                            let code = self.bytes[self.pos + 1..self.pos + 5]
                                .iter()
                                .try_fold(0, |code, &b| {
                                    Some(code * 16 + char::from(b).to_digit(16)?)
                                })
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogates are rejected rather than paired; the
                            // writer never emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, JsonValue)> = Vec::new();
        // Every key of `pairs`, so a repeat is found in O(1) expected time.
        let mut keys: HashSet<String> = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(self.err(&format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = JsonValue::obj(vec![
            ("name", JsonValue::Str("c95\t\"quoted\"".into())),
            ("count", JsonValue::Int(u64::MAX as i128)),
            ("neg", JsonValue::Int(-7)),
            ("ratio", JsonValue::Float(0.5)),
            ("whole", JsonValue::Float(3.0)),
            ("flag", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
            ("empty_obj", JsonValue::Obj(vec![])),
            ("empty_arr", JsonValue::Arr(vec![])),
        ]);
        let text = doc.to_pretty_string();
        let back = parse(&text).expect("round-trip parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn compact_form_is_single_line_and_round_trips() {
        let doc = JsonValue::obj(vec![
            ("line", JsonValue::Str("tab\there\nnewline".into())),
            ("n", JsonValue::Int(-3)),
            (
                "nested",
                JsonValue::obj(vec![("a", JsonValue::Arr(vec![JsonValue::Bool(false)]))]),
            ),
        ]);
        let text = doc.to_compact_string();
        assert!(!text.contains('\n'), "frame must be newline-free: {text:?}");
        assert_eq!(parse(&text).expect("round-trip"), doc);
    }

    #[test]
    fn preserves_insertion_order() {
        let doc = JsonValue::obj(vec![
            ("zebra", JsonValue::Int(1)),
            ("apple", JsonValue::Int(2)),
        ]);
        let text = doc.to_pretty_string();
        assert!(text.find("zebra").unwrap() < text.find("apple").unwrap());
    }

    #[test]
    fn rejects_duplicate_keys_and_trailing_garbage() {
        assert!(parse(r#"{"a": 1, "a": 2}"#).is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
        assert!(parse(r#"{"a""#).is_err());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""aA\n\t\\\" ünïcödé""#).expect("parse");
        assert_eq!(v.as_str(), Some("aA\n\t\\\" ünïcödé"));
    }

    #[test]
    fn u64_counters_round_trip_exactly() {
        let text = JsonValue::Int(u64::MAX as i128).to_pretty_string();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(u64::MAX));
    }

    fn err_at(input: &str) -> (usize, String) {
        let e = parse(input).expect_err(input);
        (e.offset, e.message)
    }

    #[test]
    fn multibyte_runs_round_trip() {
        for s in [
            "héllo wörld",
            "日本語のテキスト",
            "🎉🎉 mixed ascii 🎉",
            "é",
            "",
        ] {
            let text = JsonValue::Str(s.into()).to_compact_string();
            assert_eq!(text, format!("\"{s}\""), "plain runs are copied as-is");
            assert_eq!(parse(&text).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn escapes_next_to_runs() {
        let v = parse(r#""é\n日\u0041🎉\"\\x\/\b\f\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("é\n日A🎉\"\\x/\u{8}\u{c}é"));
        let s = "\u{1}é\"日\\\t\r\u{1f}end";
        let text = JsonValue::Str(s.into()).to_compact_string();
        assert_eq!(text, r#""\u0001é\"日\\\t\r\u001fend""#);
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn escaping_matches_the_char_by_char_writer() {
        // The writer before runs were copied whole, kept as the reference.
        fn by_char(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let every: String = (0..0x800)
            .chain(0xfff0..0x10100)
            .filter_map(char::from_u32)
            .collect();
        for s in [
            every.as_str(),
            "",
            "\"",
            "a\\",
            "\u{1}",
            "日\"本\n",
            "plain",
        ] {
            let mut out = String::new();
            write_escaped(&mut out, s);
            assert_eq!(out, by_char(s));
        }
    }

    #[test]
    fn u_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u004a\u004A""#).unwrap().as_str(), Some("JJ"));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u00g1""#,
            r#""\uéé""#,
        ] {
            assert_eq!(err_at(bad), (2, "invalid \\u escape".into()), "{bad}");
        }
        assert_eq!(err_at(r#""\u004""#), (2, "invalid \\u escape".into()));
        assert_eq!(err_at(r#""\u004"#), (2, "truncated \\u escape".into()));
        assert_eq!(err_at(r#""\ud800""#), (2, "invalid \\u code point".into()));
    }

    #[test]
    fn control_bytes_are_rejected_where_they_stand() {
        let control = "unescaped control character".to_string();
        assert_eq!(err_at("\"ab\u{1}c\""), (3, control.clone()));
        assert_eq!(err_at("\"é日\nx\""), (6, control.clone()));
        assert_eq!(err_at("{\"k\": \"\\n\u{1f}\"}"), (9, control));
        assert_eq!(err_at("\"abc"), (4, "unterminated string".into()));
        assert_eq!(err_at("\"é"), (3, "unterminated string".into()));
    }

    #[test]
    fn the_first_duplicate_key_is_reported_after_it() {
        assert_eq!(
            err_at(r#"{"a": 1, "a": 2}"#),
            (12, "duplicate object key \"a\"".into())
        );
        // Deep into a many-key object the first repeat is still the one named.
        let mut text = String::from("{");
        for k in 0..20 {
            text.push_str(&format!("\"k{k}\":{k},"));
        }
        text.push_str("\"k3\":0,\"k4\":0}");
        assert_eq!(err_at(&text), (165, "duplicate object key \"k3\"".into()));
        assert_eq!(text.find("\"k3\":0,\"k4\"").unwrap() + 4, 165);
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let nested = format!("nesting deeper than {MAX_DEPTH} levels");
        assert_eq!(err_at(&deep), (MAX_DEPTH, nested.clone()));
        let unit = "[{\"a\":";
        let offset = unit.len() * MAX_DEPTH / 2;
        assert_eq!(err_at(&unit.repeat(100_000)), (offset, nested));
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    // A parser that re-validated the rest of the input per character, with
    // a linear duplicate-key scan, took 19 s and 22 s on these (release).
    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        let s = "é日x".repeat(180_000);
        let text = JsonValue::Str(s.clone()).to_compact_string();
        assert!(text.len() > 1_000_000);
        assert_eq!(parse(&text).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn an_eighty_thousand_key_object_parses_in_linear_time() {
        let pairs: Vec<(String, JsonValue)> = (0..80_000)
            .map(|k| (format!("k{k}"), JsonValue::Int(k)))
            .collect();
        let mut text = JsonValue::Obj(pairs.clone()).to_compact_string();
        assert_eq!(parse(&text).unwrap(), JsonValue::Obj(pairs));
        text.pop();
        text.push_str(",\"k79999\":0}");
        assert_eq!(err_at(&text).1, "duplicate object key \"k79999\"");
    }
}
