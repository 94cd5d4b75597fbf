//! The JSON value renderer shared by the corpus golden and the wire
//! protocol (`halotis_serve::json` re-exports it).
//!
//! Floats render with Rust's shortest-round-trip `{:e}` formatting, which
//! is platform-independent and parses back bit-exactly, so a number in
//! `CORPUS_stats.json` and the same number on the wire are one rendering.

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
