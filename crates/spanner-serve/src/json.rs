//! A minimal JSON value type with a parser and a serializer.
//!
//! The serve protocol is line-delimited JSON over TCP, and the workspace
//! builds offline (no serde), so this module implements the small JSON
//! subset the protocol needs: the full value grammar on input (objects,
//! arrays, strings with escapes, numbers, booleans, null), compact
//! single-line rendering on output. Object keys keep their insertion
//! order, so responses render deterministically.
//!
//! ```
//! use spanner_serve::json::Json;
//!
//! let v = Json::parse(r#"{"op":"query","threads":2}"#).unwrap();
//! assert_eq!(v.get("op").and_then(Json::as_str), Some("query"));
//! assert_eq!(v.get("threads").and_then(Json::as_usize), Some(2));
//! assert_eq!(v.to_string(), r#"{"op":"query","threads":2}"#);
//! ```

use std::fmt;
use std::io::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as a double, like JavaScript).
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order and are not deduplicated on
    /// construction ([`Json::get`] returns the first match, like every
    /// first-wins JSON reader).
    Object(Vec<(String, Json)>),
}

/// A JSON parse error: what went wrong and the byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input where the problem was detected.
    pub position: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// How many arrays and objects a parsed value may nest. The parser recurses
/// once per level and a connection worker's stack is small, so a deeper
/// request line is refused rather than allowed to overflow it. Protocol
/// requests and responses nest fewer than ten levels.
const MAX_NESTING: usize = 64;

impl Json {
    /// Parses one JSON value from the whole input (trailing non-whitespace
    /// is an error). Arrays and objects may nest at most 64 deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err("trailing characters after the value", pos));
        }
        Ok(value)
    }

    /// Builds an object from key/value pairs, in order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn string(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value from any unsigned count.
    pub fn number(n: usize) -> Json {
        Json::Number(n as f64)
    }

    /// Member lookup on objects (first match); `None` on other values.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Removes and returns member `key` of an object (the first match, the
    /// one [`Json::get`] reads) — how a decoder moves a large string out of
    /// a parsed request instead of copying it. `None` on other values.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        let Json::Object(pairs) = self else {
            return None;
        };
        let index = pairs.iter().position(|(k, _)| k == key)?;
        Some(pairs.remove(index).1)
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer count, when this is a
    /// whole number no larger than 2^53 — the range in which a double holds
    /// every integer exactly, so a `u64` counter reads back as written.
    pub fn as_usize(&self) -> Option<usize> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= EXACT => {
                usize::try_from(*n as u64).ok()
            }
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Appends the compact single-line rendering to `out` — the one
    /// serializer: [`Display`](fmt::Display) is this into a fresh buffer,
    /// and the daemon's response writers share its string and integer
    /// helpers.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => write_int(out, *n as i64),
            Json::Number(n) => {
                // Writing into a `Vec` cannot fail.
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write_to(out);
                }
                out.push(b']');
            }
            Json::Object(pairs) => {
                out.push(b'{');
                write_members(out, pairs);
                out.push(b'}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.write_to(&mut out);
        f.write_str(std::str::from_utf8(&out).expect("the serializer writes UTF-8"))
    }
}

/// Appends an object's members, `"key":value` separated by commas, without
/// the braces — so a writer can add members of its own before closing.
pub(crate) fn write_members<K: AsRef<str>>(out: &mut Vec<u8>, members: &[(K, Json)]) {
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_str(out, key.as_ref());
        out.push(b':');
        value.write_to(out);
    }
}

/// Appends a whole number in decimal.
pub(crate) fn write_int(out: &mut Vec<u8>, n: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends a JSON string literal of `s`.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    escape_into(out, s);
    out.push(b'"');
}

/// Appends a JSON string literal of `bytes` decoded as
/// [`String::from_utf8_lossy`] decodes them — every invalid sequence is one
/// U+FFFD — without building the decoded string.
pub(crate) fn write_lossy_str(out: &mut Vec<u8>, bytes: &[u8]) {
    out.push(b'"');
    for chunk in bytes.utf8_chunks() {
        escape_into(out, chunk.valid());
        if !chunk.invalid().is_empty() {
            out.extend_from_slice("\u{FFFD}".as_bytes());
        }
    }
    out.push(b'"');
}

/// The one escaper: the mandatory escapes (quote, backslash, control
/// characters), unescaped stretches appended one slice each — per-character
/// appends would dominate the cost of rendering large document payloads.
/// Every byte it escapes is ASCII, never part of a multi-byte character, so
/// it scans bytes.
fn escape_into(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut plain = 0; // start of the pending run of unescaped bytes
    for (i, &b) in bytes.iter().enumerate() {
        let escape: Option<&[u8]> = match b {
            b'"' => Some(b"\\\""),
            b'\\' => Some(b"\\\\"),
            b'\n' => Some(b"\\n"),
            b'\r' => Some(b"\\r"),
            b'\t' => Some(b"\\t"),
            0..=0x1f => None, // \u escape, written below
            _ => continue,
        };
        out.extend_from_slice(&bytes[plain..i]);
        match escape {
            Some(text) => out.extend_from_slice(text),
            None => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let (high, low) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]);
                out.extend_from_slice(&[b'\\', b'u', b'0', b'0', high, low]);
            }
        }
        plain = i + 1;
    }
    out.extend_from_slice(&bytes[plain..]);
}

fn err(message: &str, position: usize) -> JsonError {
    JsonError {
        message: message.to_string(),
        position,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth == MAX_NESTING => Err(err(
            &format!("arrays and objects nest deeper than {MAX_NESTING} levels"),
            *pos,
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(err(&format!("unexpected character `{}`", *c as char), *pos)),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(err(&format!("expected `{keyword}`"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let run = &bytes[start..*pos];
    let text = std::str::from_utf8(run).expect("ASCII slice");
    // `f64::from_str` also takes `01`, `1.` and `-.5`, which JSON does not.
    is_json_number(run)
        .then(|| text.parse::<f64>())
        .and_then(Result::ok)
        // Overflowing literals like 1e999 parse to infinity, which has no
        // JSON rendering — reject them so every accepted value round-trips.
        .filter(|n| n.is_finite())
        .map(Json::Number)
        .ok_or_else(|| err(&format!("invalid number `{text}`"), start))
}

/// Whether `run` is a number by RFC 8259 §6:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_json_number(run: &[u8]) -> bool {
    /// Strips the leading digits of `rest`; how many there were.
    fn digits(rest: &mut &[u8]) -> usize {
        let n = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        *rest = &rest[n..];
        n
    }
    let mut rest = run.strip_prefix(b"-").unwrap_or(run);
    let leading_zero = rest.first() == Some(&b'0');
    let int = digits(&mut rest);
    if int == 0 || (int > 1 && leading_zero) {
        return false;
    }
    if let Some(fraction) = rest.strip_prefix(b".") {
        rest = fraction;
        if digits(&mut rest) == 0 {
            return false;
        }
    }
    if let Some(exponent) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        rest = exponent;
        rest = rest
            .strip_prefix(b"+")
            .or_else(|| rest.strip_prefix(b"-"))
            .unwrap_or(rest);
        if digits(&mut rest) == 0 {
            return false;
        }
    }
    rest.is_empty()
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    let start = *pos;
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", start)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    None => return Err(err("dangling escape", *pos)),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err("non-ASCII \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err("invalid \\u escape", *pos))?;
                        // Surrogate pairs: a high surrogate must be followed
                        // by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            let rest = bytes.get(*pos + 5..*pos + 11);
                            let low = rest
                                .filter(|r| r.starts_with(b"\\u"))
                                .and_then(|r| std::str::from_utf8(&r[2..6]).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .filter(|l| (0xDC00..0xE000).contains(l))
                                .ok_or_else(|| err("unpaired surrogate", *pos))?;
                            *pos += 6;
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                                .ok_or_else(|| err("invalid code point", *pos))?
                        } else {
                            char::from_u32(code).ok_or_else(|| err("unpaired surrogate", *pos))?
                        };
                        out.push(c);
                        *pos += 4;
                    }
                    Some(c) => {
                        return Err(err(&format!("invalid escape `\\{}`", *c as char), *pos))
                    }
                }
                *pos += 1;
            }
            // RFC 8259 §7: U+0000–U+001F must be escaped inside a string.
            Some(0..=0x1f) => return Err(err("unescaped control character", *pos)),
            Some(_) => {
                // Consume the maximal run of unescaped bytes in one copy.
                // The input is a &str, so the bytes are valid UTF-8 by
                // construction, and `"` / `\` / control bytes are ASCII —
                // never part of a multi-byte character — so the run
                // boundary is a char boundary. (Per-character consumption
                // here would rescan the tail per char: quadratic on
                // megabyte-sized `load_corpus` strings.)
                let run = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\' | 0..=0x1f) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[run..*pos]).expect("input is UTF-8"));
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(err("expected `,` or `]`", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err("expected a string key", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err("expected `:` after the key", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            _ => return Err(err("expected `,` or `}`", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        for text in [
            r#"{"op":"query","program":"/{x:a+}/","doc":"aa"}"#,
            r#"{"ok":true,"mappings":[{"x":{"span":[1,3],"text":"ab"}}]}"#,
            r#"{"ok":false,"error":"boom"}"#,
            r#"[1,2.5,-3,null,true,false,"s"]"#,
            r#"{}"#,
            r#"[]"#,
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "round trip of {text}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let mut original = String::from("line\nbreak\ttab \"quote\" back\\slash π∪⋈ \u{7f}");
        original.extend((0u8..0x20).map(char::from));
        let rendered = Json::Str(original.clone()).to_string();
        assert!(rendered.contains(r#"\u0001\u0002"#), "{rendered}");
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(original.as_str()));
        // Unicode escapes on input.
        assert_eq!(
            Json::parse(r#""\u03c0 \ud83d\ude00""#).unwrap().as_str(),
            Some("π 😀")
        );
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":[true],"d":null,"e":2.5}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_usize), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").and_then(Json::as_usize), None);
        assert_eq!(v.get("e").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("missing"), None);
        // Whole numbers read back up to 2^53, where a double stops holding
        // every integer: past `u32` (a long-lived daemon's counters) too.
        let big = Json::parse("[4294967296,9007199254740992,9007199254740994,-1]").unwrap();
        let big: Vec<_> = big.as_array().unwrap().iter().map(Json::as_usize).collect();
        assert_eq!(big, [Some(1 << 32), Some(1 << 53), None, None]);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn malformed_inputs_error_with_positions() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "nul",
            "1 2",
            "1e999",
            "-1e999",
            "{\"a\":1}extra",
            "\"bad \\q escape\"",
            "\"\\u12",
            "\"\\ud800\"",
            // RFC 8259 §6 numbers that `f64::from_str` would take.
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            "1.e5",
            "[1,01]",
            // RFC 8259 §7 control characters, unescaped.
            "\"raw\ttab\"",
            "{\"doc\":\"a\u{1}b\"}",
        ] {
            let e = Json::parse(text).unwrap_err();
            assert!(e.position <= text.len(), "{text:?}: {e}");
        }
        // An unescaped control character is reported where it stands.
        let e = Json::parse("[\"ok\",\"a\tb\"]").unwrap_err();
        assert_eq!(
            (e.position, e.message.as_str()),
            (8, "unescaped control character")
        );
        // A malformed number is reported where it starts.
        let e = Json::parse(r#"{"line":01}"#).unwrap_err();
        assert_eq!((e.position, e.message.as_str()), (8, "invalid number `01`"));
        // Nesting: 64 levels of arrays and objects parse, the 65th opening
        // bracket is refused where it stands, and so is a line 10 000 deep.
        let nested = |depth: usize| {
            let open: String = (0..depth).map(|i| ["[", "{\"k\":"][i % 2]).collect();
            let close: String = (0..depth).rev().map(|i| ["]", "}"][i % 2]).collect();
            format!("{open}0{close}")
        };
        assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
        let e = Json::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(e.position, nested(MAX_NESTING).find('0').unwrap());
        assert!(e.message.contains("nest deeper than 64"), "{e}");
        let deep = format!(r#"{{"op":"stats","x":{}"#, "[".repeat(10_000));
        assert_eq!(Json::parse(&deep).unwrap_err().position, 18 + 63);
    }

    #[test]
    fn numbers_render_compactly() {
        assert_eq!(Json::number(42).to_string(), "42");
        assert_eq!(Json::Number(-1.5).to_string(), "-1.5");
        assert_eq!(Json::Number(0.0).to_string(), "0");
        assert_eq!(Json::Number(-0.0).to_string(), "0");
        assert_eq!(Json::Number(-1234.0).to_string(), "-1234");
        assert_eq!(Json::Number(1e15).to_string(), "1000000000000000");
    }

    #[test]
    fn grammatical_numbers_parse_and_every_rendered_number_reads_back() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("0.5", 0.5),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("-1.5e-3", -1.5e-3),
            ("10", 10.0),
            ("0e0", 0.0),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_f64(), Some(value), "{text}");
        }
        // What the daemon renders — counts, selectivities, uptimes.
        for n in [
            0.0,
            1.0,
            0.25,
            1.0 / 3.0,
            7e-9,
            123456.789,
            2e15,
            -0.5,
            f64::MAX,
        ] {
            let rendered = Json::Number(n).to_string();
            assert_eq!(Json::parse(&rendered), Ok(Json::Number(n)), "{rendered}");
        }
    }

    #[test]
    fn lossy_strings_and_integers_are_written_as_std_renders_them() {
        // Invalid sequences become one U+FFFD each, as `from_utf8_lossy` has it.
        for bytes in [
            &b"a\xc3"[..],
            b"\xa9b",
            b"\xff\xfe\"",
            b"\xe2\x82",
            b"ok",
            b"",
        ] {
            let mut lossy = Vec::new();
            write_lossy_str(&mut lossy, bytes);
            let expected = Json::string(String::from_utf8_lossy(bytes)).to_string();
            assert_eq!(String::from_utf8(lossy).unwrap(), expected);
        }
        for n in [0, 7, -7, 10, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            write_int(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }
}
