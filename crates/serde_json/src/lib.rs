//! Offline stand-in for the [`serde_json`](https://crates.io/crates/serde_json)
//! crate: serializes the vendored `serde::Value` tree to JSON text and
//! parses JSON text back.
//!
//! Numbers keep integer/float identity where JSON allows: integers print
//! without a decimal point and parse back as integers; floats print with
//! Rust's shortest-roundtrip formatting, so every finite `f64` survives a
//! `to_string`/`from_str` round trip bit-exactly (floats whose shortest
//! form is integral, e.g. `2.0`, come back as integers — the vendored
//! `f64::from_value` accepts those).

pub use serde::Error;
use serde::{Deserialize, Serialize, Value};

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value())?;
    Ok(out)
}

/// Serialize `value` to an indented JSON string (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&mut out, &value.to_value(), 0)?;
    Ok(out)
}

/// Parse a JSON string into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parse_value_str(s)?)
}

/// Parse a JSON string into the raw [`Value`] tree.
pub fn parse_value_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => write_float(out, *x)?,
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item)?;
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) -> Result<(), Error> {
    fn pad(out: &mut String, n: usize) {
        for _ in 0..n {
            out.push_str("  ");
        }
    }
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_value_pretty(out, item, indent + 1)?;
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
            Ok(())
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_escaped(out, k);
                out.push_str(": ");
                write_value_pretty(out, val, indent + 1)?;
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
            Ok(())
        }
        other => write_value(out, other),
    }
}

fn write_float(out: &mut String, x: f64) -> Result<(), Error> {
    if !x.is_finite() {
        return Err(Error::msg("JSON cannot represent NaN or infinity"));
    }
    // Rust's `{}` is shortest-roundtrip; integral shortest forms (e.g. "2")
    // are valid JSON numbers and re-parse as integers, which the vendored
    // float Deserialize accepts.
    out.push_str(&format!("{x}"));
    Ok(())
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_lit("null") => Ok(Value::Null),
            Some(b't') if self.eat_lit("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected character {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::msg(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.parse_value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::msg(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect `\uXXXX` low half.
                                if !self.eat_lit("\\u") {
                                    return Err(Error::msg("unpaired high surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::msg("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| Error::msg("invalid codepoint"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| Error::msg("invalid codepoint"))?
                            };
                            s.push(c);
                            // parse_hex4 leaves pos past the digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        other => {
                            return Err(Error::msg(format!(
                                "bad escape {:?}",
                                other.map(|c| c as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one UTF-8 character, its length read off the
                    // lead byte: decoding only those bytes keeps a string
                    // linear in its length.
                    let len = match lead {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let ch = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .and_then(|c| c.chars().next())
                        .ok_or_else(|| Error::msg("invalid utf-8"))?;
                    s.push(ch);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::msg("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::msg("bad \\u escape"))?;
        let n = u32::from_str_radix(hex, 16).map_err(|_| Error::msg("bad \\u escape"))?;
        self.pos += 4;
        Ok(n)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))
        } else if let Some(digits) = text.strip_prefix('-') {
            // Negative integer; normalize `-0` to UInt(0).
            let n = digits
                .parse::<u64>()
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))?;
            if n == 0 {
                Ok(Value::UInt(0))
            } else {
                i64::try_from(n)
                    .map(|v| Value::Int(-v))
                    .map_err(|_| Error::msg(format!("integer `{text}` out of range")))
            }
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(to_string(&13.75f64).unwrap(), "13.75");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string("hi \"there\"").unwrap(), r#""hi \"there\"""#);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
        assert_eq!(from_str::<f64>("13.75").unwrap(), 13.75);
        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
        assert_eq!(from_str::<String>(r#""a\nb""#).unwrap(), "a\nb");
    }

    #[test]
    fn float_shortest_form_roundtrips() {
        for x in [2.0f64, 13.75, 3.2, 0.99, 1e-9, 123456789.125, -16.0] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), x, "via {s}");
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u32, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&s).unwrap(), v);
        assert_eq!(from_str::<Vec<u32>>("[ ]").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn object_parse_preserves_order() {
        let v = parse_value_str(r#"{"b": 1, "a": {"x": [true, null]}}"#).unwrap();
        match &v {
            Value::Object(pairs) => {
                assert_eq!(pairs[0].0, "b");
                assert_eq!(pairs[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(from_str::<String>(r#""é""#).unwrap(), "é");
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
    }

    /// 2-, 3- and 4-byte characters, inside a string and as its last
    /// character, decode from their lead byte alone.
    #[test]
    fn multibyte_characters_inside_and_at_the_end() {
        for text in ["aéb", "a€b", "a😀b", "é", "ab€", "ab😀", "ñ€😀ñ€😀"] {
            let json = format!("\"{text}\"");
            assert_eq!(from_str::<String>(&json).unwrap(), text, "{json}");
            let obj = format!("{{\"k{text}\": \"{text}\"}}");
            let v = parse_value_str(&obj).unwrap();
            assert_eq!(v.field(&format!("k{text}")), Ok(&Value::Str(text.into())), "{obj}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value_str("{").is_err());
        assert!(parse_value_str("[1,]").is_err());
        assert!(parse_value_str("12 34").is_err());
        assert!(parse_value_str("nul").is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse_value_str(r#"{"a": [1, 2], "b": {"c": "d"}, "e": []}"#).unwrap();
        let mut pretty = String::new();
        write_value_pretty(&mut pretty, &v, 0).unwrap();
        assert_eq!(parse_value_str(&pretty).unwrap(), v);
    }
}
