//! Minimal JSON tree, pretty-printer, and parser.
//!
//! The workspace builds offline against a no-op `serde` shim, so scenario
//! specs (`moentwine-spec`), bench reports, and the `repro_all` summary
//! serialize through this hand-rolled layer instead of `serde_json`. It is
//! a leaf crate so both the spec layer and core can parse/emit JSON without
//! depending on the bench harness. Only the subset the workspace needs is
//! implemented: objects preserve insertion order, numbers are `f64`, and
//! the parser accepts exactly what the printer emits (standard JSON with
//! `\uXXXX` escapes on input). Arrays and objects nest at most
//! [`MAX_DEPTH`] deep, so a hostile document fails with a
//! [`ParseErrorKind::TooDeep`] error instead of overflowing the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an array of strings.
    pub fn strings<I: IntoIterator<Item = S>, S: Into<String>>(items: I) -> Value {
        Value::Arr(items.into_iter().map(|s| Value::Str(s.into())).collect())
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
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
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(members) => {
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
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte offset plus message on malformed input, and a
    /// [`ParseErrorKind::TooDeep`] error when arrays and objects nest more
    /// than [`MAX_DEPTH`] deep.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; degrade to null like serde_json's default.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`Value::parse`] accepts. The
/// parser recurses once per level, so the bound keeps its stack use fixed;
/// no document the workspace writes comes near it.
pub const MAX_DEPTH: usize = 128;

/// Parse failure: byte offset, message, and kind.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
    /// The class of failure.
    pub kind: ParseErrorKind,
}

/// The class of a [`ParseError`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ParseErrorKind {
    /// The text is not JSON the parser accepts.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
            kind: ParseErrorKind::Syntax,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err("unexpected token"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(&open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(ParseError {
                        kind: ParseErrorKind::TooDeep,
                        ..self.err("arrays and objects nest too deep")
                    });
                }
                self.depth += 1;
                self.pos += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(_) => self.number(),
        }
    }

    /// The rest of an array whose `[` was consumed.
    fn array(&mut self) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// The rest of an object whose `{` was consumed.
    fn object(&mut self) -> Result<Value, ParseError> {
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogates are not recombined; replace them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => unreachable!("loop stops only at quote or backslash"),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Value::Obj(vec![
            ("id".into(), Value::Str("fig13b".into())),
            ("ok".into(), Value::Bool(true)),
            ("count".into(), Value::Num(42.0)),
            ("ratio".into(), Value::Num(1.5)),
            (
                "rows".into(),
                Value::Arr(vec![
                    Value::strings(["a", "b \"quoted\"\n"]),
                    Value::Arr(vec![]),
                ]),
            ),
            ("nothing".into(), Value::Null),
        ]);
        let text = doc.pretty();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parses_standard_json() {
        let v = Value::parse(r#"{"a": [1, 2.5, -3e2], "b": "xAy"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("xAy"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse(r#"{"a": }"#).is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("[1] trailing").is_err());
        assert!(Value::parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested =
            |depth: usize, open: &str, close: &str| open.repeat(depth) + &close.repeat(depth);
        // 200k levels would overflow the stack without the bound.
        let err = Value::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert_eq!(err.offset, MAX_DEPTH);
        let err = Value::parse(&nested(MAX_DEPTH + 1, "[", "]")).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        let err = Value::parse(&nested(MAX_DEPTH + 1, r#"{"k":"#, "}")).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        // Exactly at the limit parses, for arrays and objects alike.
        let mut v = Value::parse(&nested(MAX_DEPTH, "[", "]")).unwrap();
        for _ in 1..MAX_DEPTH {
            v = v.as_array().unwrap()[0].clone();
        }
        assert_eq!(v, Value::Arr(vec![]));
        let objects = nested(MAX_DEPTH - 1, r#"{"k":"#, "}").replacen(":}", ":{}}", 1);
        assert!(Value::parse(&objects).is_ok(), "{objects}");
        // Siblings do not add up: depth is per path, not per document.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1, "[", "]"); 3].join(","));
        assert!(Value::parse(&wide).is_ok());
        assert_eq!(
            Value::parse("[1,]").unwrap_err().kind,
            ParseErrorKind::Syntax
        );
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::Num(3.0).pretty().trim(), "3");
        assert_eq!(Value::Num(0.25).pretty().trim(), "0.25");
        assert_eq!(Value::Num(f64::NAN).pretty().trim(), "null");
    }
}
