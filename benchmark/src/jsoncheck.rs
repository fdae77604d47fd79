//! A linear-time JSON well-formedness check for the trace files the
//! benchmark writes. (The repository's offline `serde_json` stand-in
//! re-validates the rest of the input for every string character, which
//! is quadratic on a multi-megabyte trace; it stays in use for the small
//! result files.)

/// Check that `text` is one well-formed JSON value; `Err` carries the byte
/// offset of the first problem.
pub fn validate(text: &str) -> Result<(), usize> {
    let mut p = Checker { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    p.value(0)?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Ok(())
    } else {
        Err(p.pos)
    }
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Checker<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Checker<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), usize> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.pos)
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), usize> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.pos)
        }
    }

    fn digits(&mut self) -> Result<(), usize> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos > start {
            Ok(())
        } else {
            Err(self.pos)
        }
    }

    fn number(&mut self) -> Result<(), usize> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits()?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(())
    }

    fn string(&mut self) -> Result<(), usize> {
        self.eat(b'"')?;
        loop {
            match self.peek().ok_or(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or(self.pos)? {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => self.pos += 1,
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5).ok_or(self.pos)?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(self.pos);
                            }
                            self.pos += 5;
                        }
                        _ => return Err(self.pos),
                    }
                }
                0x00..=0x1f => return Err(self.pos),
                // The input is a `&str`, so multi-byte sequences are valid.
                _ => self.pos += 1,
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), usize> {
        if depth > MAX_DEPTH {
            return Err(self.pos);
        }
        match self.peek().ok_or(self.pos)? {
            b'{' => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    self.value(depth + 1)?;
                    self.skip_ws();
                    match self.peek().ok_or(self.pos)? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.pos),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.value(depth + 1)?;
                    self.skip_ws();
                    match self.peek().ok_or(self.pos)? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.pos),
                    }
                }
            }
            b'"' => self.string(),
            b't' => self.literal(b"true"),
            b'f' => self.literal(b"false"),
            b'n' => self.literal(b"null"),
            _ => self.number(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::validate;

    #[test]
    fn accepts_what_the_trace_writers_emit() {
        assert_eq!(validate("{\"traceEvents\":[\n]}\n"), Ok(()));
        assert_eq!(
            validate(
                "{\"traceEvents\":[\n{\"name\":\"a b\",\"ph\":\"X\",\"ts\":1.250,\"dur\":-3e-2,\
                 \"args\":{\"parent\":-1,\"ok\":true,\"none\":null,\"s\":\"q\\\"\\u00e9\"}}\n]}"
            ),
            Ok(())
        );
        assert_eq!(validate(" [1, 2.5, [], {}] "), Ok(()));
    }

    #[test]
    fn rejects_malformed_text() {
        assert!(validate("").is_err());
        assert!(validate("{\"a\":1,}").is_err());
        assert!(validate("[1 2]").is_err());
        assert!(validate("{\"a\":1} trailing").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("{\"a\":tru}").is_err());
        assert!(validate("01x").is_err());
        assert!(validate(&"[".repeat(100)).is_err());
    }
}
