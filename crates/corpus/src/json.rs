//! The one JSON implementation of the workspace: the renderer that writes
//! `CORPUS_stats.json` and every wire response, and the reader that parses
//! wire requests and the golden (`halotis_serve::json` re-exports this
//! module).
//!
//! Floats render with Rust's shortest-round-trip `{:e}` formatting, which
//! is platform-independent and parses back bit-exactly, so a number in
//! `CORPUS_stats.json` and the same number on the wire are one rendering.
//!
//! The reader is a recursive-descent parser into a small [`Value`] tree.
//! Deliberate limits (documented in `PROTOCOL.md`): numbers are `f64`, so
//! integers are exact only below 2^53; duplicate object keys are rejected;
//! no `\u` surrogate-pair pedantry beyond what [`char::from_u32`] accepts.

use std::fmt::Write as _;

/// Renders `text` as a JSON string literal, quotes and escapes included.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` in shortest-round-trip scientific notation.
pub fn number(value: f64) -> String {
    format!("{value:e}")
}

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact below 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in declaration order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on other variants or a missing key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(text) => Some(text),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    /// 2^53 and above are refused: `9007199254740993` parses to 2^53, so
    /// no integer from there on is known to be the one that was written.
    pub fn as_u64(&self) -> Option<u64> {
        let value = self.as_f64()?;
        ((0.0..9_007_199_254_740_992.0).contains(&value) && value.fract() == 0.0)
            .then_some(value as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the violation.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        offset: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.offset != parser.bytes.len() {
        return Err(parser.error("trailing data after document"));
    }
    Ok(value)
}

/// Nesting bound: a hostile frame of `[[[[…` must not overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    offset: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.offset,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.offset).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.offset += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.offset += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.offset..].starts_with(word.as_bytes()) {
            self.offset += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members: Vec<(String, Value)> = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.offset += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            if members.iter().any(|(name, _)| *name == key) {
                return Err(self.error(format!("duplicate key {key:?}")));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b'}') => {
                    self.offset += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.offset += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b']') => {
                    self.offset += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.offset += 1;
                    return Ok(text);
                }
                Some(b'\\') => {
                    self.offset += 1;
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.offset += 1;
                    match escape {
                        b'"' => text.push('"'),
                        b'\\' => text.push('\\'),
                        b'/' => text.push('/'),
                        b'b' => text.push('\u{0008}'),
                        b'f' => text.push('\u{000C}'),
                        b'n' => text.push('\n'),
                        b'r' => text.push('\r'),
                        b't' => text.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.offset..self.offset + 4)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.offset += 4;
                            text.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("raw control character in string"))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte at once.  Those stops are ASCII, so the
                    // run ends on a char boundary.
                    let start = self.offset;
                    while matches!(self.peek(), Some(byte) if byte >= 0x20 && byte != b'"' && byte != b'\\')
                    {
                        self.offset += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.offset])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    text.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.offset;
        if self.peek() == Some(b'-') {
            self.offset += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.offset += 1;
        }
        if self.peek() == Some(b'.') {
            self.offset += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.offset += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.offset += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.offset += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.offset += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.offset]).unwrap();
        let value: f64 = text.parse().map_err(|_| ParseError {
            message: format!("bad number {text:?}"),
            offset: start,
        })?;
        if !value.is_finite() {
            return Err(ParseError {
                message: format!("number {text:?} out of range"),
                offset: start,
            });
        }
        Ok(Value::Number(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#"{"op":"load","n":3,"x":[1,2.5,-4e-2],"b":true,"z":null}"#).unwrap();
        assert_eq!(doc.get("op").and_then(Value::as_str), Some("load"));
        assert_eq!(doc.get("n").and_then(Value::as_u64), Some(3));
        let items = doc.get("x").and_then(Value::as_array).unwrap();
        assert_eq!(items[2].as_f64(), Some(-0.04));
        assert_eq!(doc.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("z"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
        assert!(parse(&("[".repeat(100) + &"]".repeat(100))).is_err());
        // A raw control byte in the middle of a run of ordinary characters.
        let error = parse("\"abcπ\u{1}def\"").unwrap_err();
        assert_eq!(error.message, "raw control character in string");
    }

    #[test]
    fn strings_round_trip_through_escaping() {
        // The second one is a run of multi-byte UTF-8 ended by escapes.
        for nasty in ["a\"b\\c\nd\te\u{0007}π", "πλμ→日本\"\\\nz"] {
            let parsed = parse(&string(nasty)).unwrap();
            assert_eq!(parsed.as_str(), Some(nasty));
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for value in [0.1, 1.0 / 3.0, 6.626e-34, 1.0, 0.0, 123456789.125] {
            let rendered = number(value);
            let parsed = parse(&rendered).unwrap();
            assert_eq!(parsed.as_f64().unwrap().to_bits(), value.to_bits());
        }
    }

    #[test]
    fn as_u64_stops_below_two_to_the_53() {
        let below = parse("9007199254740991").unwrap();
        assert_eq!(below.as_u64(), Some(9_007_199_254_740_991));
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), None);
        // Parses to 2^53: accepting it would silently round the request.
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
    }

    #[test]
    fn a_max_frame_sized_string_parses_in_linear_time() {
        // The daemon's default frame ceiling is 8 MiB, and a `load` frame
        // carries the netlist as one string.  Rescanning the rest of the
        // input per character is quadratic and takes minutes here; the
        // linear scan takes milliseconds, even in a debug build.
        let body = "a".repeat(8 << 20);
        let started = std::time::Instant::now();
        let parsed = parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(parsed.as_str().map(str::len), Some(body.len()));
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
    }
}
