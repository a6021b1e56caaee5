//! Parser for the checked-in `BENCH_*.json` snapshots.
//!
//! `sjc_core::json::Json` is emit-only; this is its reading counterpart, a
//! std-only recursive-descent JSON parser with one deliberate deviation
//! from RFC 8259's "names SHOULD be unique": **duplicate object keys are a
//! hard error**, at every nesting level. A snapshot emitter once wrote the
//! same key twice and every text-scanning consumer silently read whichever
//! copy it found first.

use std::fmt;

/// A parsed JSON value. Object fields keep their textual order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers parse as `f64`; `BENCH_*.json` integers are far
    /// below 2^53, so the round-trip is exact (`as_u64` checks anyway).
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exactly-representable unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse failure with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

/// Parses a complete JSON document, rejecting duplicate object keys and
/// trailing garbage.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), at: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.at, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes.len() - self.at >= word.len()
            && self.bytes.iter().skip(self.at).zip(word.bytes()).all(|(&a, b)| a == b)
        {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.at += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Snapshot files are ASCII; surrogate pairs are
                            // out of scope — reject rather than mis-decode.
                            let ch = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                            self.at += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through byte by byte;
                    // re-validate at the end via from_utf8 on the slice.
                    let start = self.at - 1;
                    let mut end = self.at;
                    while end < self.bytes.len()
                        && !matches!(self.bytes.get(end), Some(b'"' | b'\\'))
                    {
                        end += 1;
                    }
                    let chunk = self.bytes.get(start..end).unwrap_or_default();
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.at = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = self.bytes.get(start..self.at).unwrap_or_default();
        std::str::from_utf8(text)
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_keys_at_any_level() {
        let top = r#"{"a": {"sim_ns": 1}, "a": {"sim_ns": 2}}"#;
        let err = parse(top).expect_err("duplicate top-level key");
        assert!(err.message.contains("duplicate object key `a`"), "{err}");
        let nested = r#"{"a": {"sim_ns": 1, "sim_ns": 2}}"#;
        let err = parse(nested).expect_err("duplicate nested key");
        assert!(err.message.contains("duplicate object key `sim_ns`"), "{err}");
    }

    #[test]
    fn generic_parser_covers_json_forms() {
        let v = parse(r#"{"a": [1, -2.5, 1e3, true, false, null, "s\n"], "b": {}}"#).unwrap();
        let arr = v.get("a").expect("field a");
        assert_eq!(
            *arr,
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(-2.5),
                Value::Num(1000.0),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
                Value::Str("s\n".to_string()),
            ])
        );
        assert_eq!(v.get("b"), Some(&Value::Obj(Vec::new())));
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn round_trips_the_emitter() {
        use sjc_core::json::Json;
        let emitted = Json::obj(vec![
            ("x", Json::obj(vec![("scale", Json::Float(1.25)), ("sim_ns", Json::Int(7))])),
            ("y", Json::Arr(vec![Json::Str("a\"b".to_string()), Json::Null])),
        ])
        .to_string_pretty();
        let parsed = parse(&emitted).expect("emitter output parses");
        assert_eq!(parsed.get("x").and_then(|r| r.get("sim_ns")).and_then(Value::as_u64), Some(7));
        assert_eq!(
            parsed.get("y"),
            Some(&Value::Arr(vec![Value::Str("a\"b".to_string()), Value::Null]))
        );
    }
}
