//! A minimal JSON tree with a pretty writer, a recursive-descent parser,
//! and bit-exact scalar encodings — the workspace's shared serde-free codec.
//!
//! Two families of artefact flow through this crate: the perf-trajectory
//! harness persists `BENCH_<seq>.json` files and compares runs against a
//! committed baseline, and the checkpoint/resume layer serialises sampler
//! state that must survive a write → parse cycle **bit for bit**. The
//! workspace deliberately carries no serde dependency (offline, minimal
//! closure), so this crate provides the small subset of JSON both need:
//! objects with preserved key order, arrays, strings, IEEE doubles,
//! booleans and null.
//!
//! Numbers are written with Rust's shortest-roundtrip `f64` formatting, so
//! a finite double survives a write → parse cycle with its exact bit
//! pattern and the cycle is a stable fixed point. Non-finite numbers have
//! no JSON representation: plain [`Json::Number`] writes them as `null`,
//! and the lossless paths use [`Json::exact_f64`] (hex-bits string
//! fallback) instead. Integers wider than the 53-bit mantissa (seeds, RNG
//! stream positions) go through [`Json::u64_text`], which carries them as
//! decimal strings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A JSON value. Object keys keep their insertion order so emitted
/// artefacts diff cleanly across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`, as in JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as an ordered key → value list.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn string(text: impl Into<String>) -> Json {
        Json::String(text.into())
    }

    /// Member lookup on an object (`None` for other variants or a missing
    /// key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => {
                members.iter().find(|(name, _)| name == key).map(|(_, value)| value)
            }
            _ => None,
        }
    }

    /// Nested member lookup along a dotted path (`"dirty_path.hit_rate"`).
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |node, key| node.get(key))
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements inside, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Encode a `u64` losslessly as a decimal string. [`Json::Number`]
    /// carries `f64`, which cannot represent integers above 2⁵³ exactly —
    /// seeds and RNG stream positions use the full 64-bit range.
    pub fn u64_text(value: u64) -> Json {
        Json::String(value.to_string())
    }

    /// Decode a `u64` written by [`Json::u64_text`].
    pub fn as_u64_text(&self) -> Option<u64> {
        self.as_str()?.parse().ok()
    }

    /// Encode an `f64` losslessly. Finite values (including signed zero)
    /// ride the shortest-roundtrip [`Json::Number`] path; non-finite values,
    /// which plain numbers would flatten to `null`, are carried as a
    /// `"f64:0x…"` hex-bits string so even NaN payloads survive.
    pub fn exact_f64(value: f64) -> Json {
        if value.is_finite() {
            Json::Number(value)
        } else {
            Json::String(format!("f64:0x{:016x}", value.to_bits()))
        }
    }

    /// Decode an `f64` written by [`Json::exact_f64`].
    pub fn as_exact_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            Json::String(s) => s
                .strip_prefix("f64:0x")
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .map(f64::from_bits),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline (the format
    /// committed as `BENCH_<seq>.json`).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(x) => {
                if x.is_finite() {
                    // Straight into `out`: the bytes `format!("{x}")` makes,
                    // without a `String` per number. Writing to a `String`
                    // cannot fail.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Errors carry a byte offset and a short
    /// description. Arrays and objects may nest at most 128 levels deep,
    /// so an untrusted document cannot exhaust the stack of the recursive
    /// parser.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// workspace's own documents nest under ten levels.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> String {
        format!("json parse error at byte {}: {message}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.error(&format!("nesting deeper than {MAX_NESTING} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' { self.parse_object() } else { self.parse_array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        // The scanned range is ASCII by the loop condition, so from_utf8
        // cannot fail; route the impossible arm to the same parse error
        // rather than panicking inside the checkpoint codec.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        // Scan at the byte level and copy plain runs in one go: `"` and `\`
        // never occur inside a multi-byte UTF-8 sequence (continuation bytes
        // are >= 0x80), so a byte match is a character match, and validating
        // UTF-8 once per run keeps parsing linear in the document size.
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    out.push_str(self.utf8_run(run_start)?);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.utf8_run(run_start)?);
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.parse_unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                    run_start = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The escape-free span `[run_start, pos)`, validated as UTF-8.
    fn utf8_run(&self, run_start: usize) -> Result<&str, String> {
        std::str::from_utf8(&self.bytes[run_start..self.pos])
            .map_err(|_| self.error("invalid utf-8 in string"))
    }

    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let first = self.parse_hex4()?;
        // Surrogate pair: a high surrogate must be followed by `\u` and a
        // low surrogate; anything else is malformed.
        let code = if (0xd800..0xdc00).contains(&first) {
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                self.expect_byte(b'u')?;
            } else {
                return Err(self.error("lone high surrogate"));
            }
            let second = self.parse_hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.error("invalid low surrogate"));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("malformed \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("malformed \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_written_exactly_as_format_writes_them() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            42.0,
            -7.0,
            9_007_199_254_740_993.0,
            0.1,
            1.0 / 3.0,
            1e-7,
            1e16,
            1e21,
            1e308,
            -1e308,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::EPSILON,
        ];
        for x in values {
            let mut out = String::new();
            Json::Number(x).write(&mut out, 0);
            assert_eq!(out, format!("{x}"), "{x:e}");
            assert_eq!(Json::parse(&out).unwrap().as_f64().map(f64::to_bits), Some(x.to_bits()));
        }
        let array = Json::Array(values.iter().map(|&x| Json::Number(x)).collect());
        let expected: Vec<String> = values.iter().map(|x| format!("  {x}")).collect();
        assert_eq!(array.to_pretty(), format!("[\n{}\n]\n", expected.join(",\n")));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
        let err = Json::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        // Far past the limit: an error, not a stack overflow.
        assert!(Json::parse(&"[{\"a\":".repeat(200_000)).is_err());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_NESTING), "}".repeat(MAX_NESTING));
        assert!(Json::parse(&objects).is_ok());
    }

    fn doc() -> Json {
        Json::Object(vec![
            ("schema".to_string(), Json::string("mpcgs-perf-trajectory/v1")),
            ("smoke".to_string(), Json::Bool(false)),
            ("nothing".to_string(), Json::Null),
            (
                "kernel".to_string(),
                Json::Object(vec![
                    ("scalar_mpatterns_per_s".to_string(), Json::Number(123.25)),
                    ("ratio".to_string(), Json::Number(1.5)),
                    ("counts".to_string(), Json::Array(vec![Json::Number(1.0), Json::Number(2.0)])),
                ]),
            ),
            ("empty_array".to_string(), Json::Array(vec![])),
            ("empty_object".to_string(), Json::Object(vec![])),
        ])
    }

    #[test]
    fn round_trips_through_pretty_text() {
        let original = doc();
        let text = original.to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, original);
        // Stable fixed point: writing the parse reproduces the text.
        assert_eq!(parsed.to_pretty(), text);
    }

    #[test]
    fn path_lookup_and_accessors() {
        let d = doc();
        assert_eq!(d.get("schema").and_then(Json::as_str), Some("mpcgs-perf-trajectory/v1"));
        assert_eq!(d.get_path("kernel.ratio").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            d.get_path("kernel.counts").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(d.get("smoke").and_then(Json::as_bool), Some(false));
        assert_eq!(d.get_path("kernel.missing"), None);
        assert_eq!(d.get_path("smoke.too_deep"), None);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let parsed =
            Json::parse(r#"{"s": "a\"b\\c\n\u0041\u00e9\ud83d\ude00", "n": [-1.5e3, 0, 42]}"#)
                .unwrap();
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some("a\"b\\c\nAé😀"));
        let numbers: Vec<f64> =
            parsed.get("n").unwrap().as_array().unwrap().iter().filter_map(Json::as_f64).collect();
        assert_eq!(numbers, vec![-1500.0, 0.0, 42.0]);
    }

    #[test]
    fn escapes_survive_a_write_parse_cycle() {
        let original = Json::Object(vec![(
            "text".to_string(),
            Json::string("tab\there \"quoted\" back\\slash\nline\u{0001}"),
        )]);
        let parsed = Json::parse(&original.to_pretty()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in
            ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2", "{\"a\": \"\\ud800x\"}"]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let d = Json::Array(vec![Json::Number(f64::NAN), Json::Number(f64::INFINITY)]);
        let parsed = Json::parse(&d.to_pretty()).unwrap();
        assert_eq!(parsed, Json::Array(vec![Json::Null, Json::Null]));
    }

    #[test]
    fn parses_large_string_heavy_documents() {
        // Checkpoint documents reach tens of megabytes and are mostly
        // strings (u64_text positions, exact_f64 bit strings). The parser
        // must stay linear: the original per-character implementation
        // re-validated the whole remaining input for every byte, which
        // turned these documents into effectively infinite parses.
        let long = "x".repeat(1 << 20);
        let many: Vec<Json> = (0..100_000u64).map(Json::u64_text).collect();
        let doc = Json::Object(vec![
            ("long".to_string(), Json::string(long.clone())),
            ("many".to_string(), Json::Array(many)),
        ]);
        let parsed = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed.get("long").and_then(Json::as_str), Some(long.as_str()));
        assert_eq!(parsed.get("many").and_then(Json::as_array).map(<[Json]>::len), Some(100_000));
        assert_eq!(parsed, doc);
    }

    #[test]
    fn u64_text_round_trips_the_full_range() {
        for value in [0u64, 1, (1 << 53) + 1, u64::MAX, 0x656E_7365_6D62_6C65] {
            let encoded = Json::u64_text(value);
            let parsed = Json::parse(&encoded.to_pretty()).unwrap();
            assert_eq!(parsed.as_u64_text(), Some(value));
        }
        assert_eq!(Json::Number(3.0).as_u64_text(), None);
        assert_eq!(Json::string("not a number").as_u64_text(), None);
    }

    #[test]
    fn exact_f64_round_trips_bit_patterns() {
        let quiet_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        for value in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE / 8.0,
            1.0e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            quiet_nan,
        ] {
            let encoded = Json::exact_f64(value);
            let parsed = Json::parse(&encoded.to_pretty()).unwrap();
            let decoded = parsed.as_exact_f64().unwrap();
            assert_eq!(decoded.to_bits(), value.to_bits(), "bits diverged for {value}");
        }
        assert_eq!(Json::string("f64:0xzz").as_exact_f64(), None);
        assert_eq!(Json::Null.as_exact_f64(), None);
    }
}
