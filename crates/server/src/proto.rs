//! Memcached text protocol: incremental command parser and response
//! encoders.
//!
//! The wire dialect is the classic memcached text protocol restricted to
//! the verbs the cache front end serves — `get` (multi-key), `set`,
//! `delete`, `quit` — plus a `shutdown` extension used by CI to tear the
//! server down cleanly. Keys and values are decimal `u32` renderings
//! (the structures under the cache store 4-byte keys and values, §3.2 of
//! the paper); anything else is rejected with `CLIENT_ERROR`, never a
//! panic.
//!
//! [`Parser`] is incremental: bytes arrive in arbitrary fragments
//! ([`Parser::push`]) and complete commands are drained with
//! [`Parser::next`], which buffers partial frames (a command line split
//! mid-token, a `set` data block still in flight) until enough bytes
//! arrive. Pipelined input — many commands in one TCP segment — drains as
//! many commands as are complete.
//!
//! The free `encode_*` functions are the *reference encoders*: the server
//! builds every response through them, and the randomized protocol tests
//! hold the server's output byte-equal to them.

use workloads::{Key, Value};

/// Longest accepted command line (bytes, excluding the `\r\n`). Real
/// memcached keys cap at 250 bytes; our keys are ≤ 10 digits, so this is
/// generous while still bounding memory for garbage input.
pub const MAX_LINE: usize = 1024;

/// Longest accepted `set` data block: ten digits render any `u32`.
pub const MAX_DATA: usize = 10;

/// One complete, well-formed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `get <key>+` — look up one or more keys.
    Get(Vec<Key>),
    /// `set <key> <flags> <exptime> <bytes>\r\n<data>` — store (insert or
    /// overwrite). Flags are accepted and ignored; `exptime` follows
    /// memcached semantics (0 = never, ≤ 30 days = relative seconds,
    /// larger = absolute unix time) and is honored by the TTL table.
    Set {
        /// Key to store under.
        key: Key,
        /// Value parsed from the data block.
        value: Value,
        /// Raw expiry field from the command line (memcached encoding).
        exptime: u32,
        /// Suppress the `STORED` reply.
        noreply: bool,
    },
    /// `delete <key>` — remove if present.
    Delete {
        /// Key to remove.
        key: Key,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `quit` — close this connection.
    Quit,
    /// `shutdown` — stop the whole server (CI teardown extension).
    Shutdown,
}

/// One parser step: a command, a protocol error to report, or
/// "need more bytes".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A complete well-formed command.
    Cmd(Command),
    /// A protocol error; `line` is the full error response line (without
    /// terminator). `fatal` errors desynchronize framing — the server
    /// sends the line and closes the connection.
    Error {
        /// Response line, e.g. `CLIENT_ERROR bad key`.
        line: String,
        /// Whether the connection can no longer be framed reliably.
        fatal: bool,
    },
}

fn client_error(msg: &str) -> Parsed {
    Parsed::Error { line: format!("CLIENT_ERROR {msg}"), fatal: false }
}

/// Incremental frame parser with partial-frame buffering.
#[derive(Debug, Default)]
pub struct Parser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so draining pipelined
    /// input is amortized O(bytes).
    start: usize,
}

impl Parser {
    /// Fresh parser with an empty buffer.
    pub fn new() -> Self {
        Parser::default()
    }

    /// Append raw bytes received from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    fn next_frame(&mut self) -> Option<Parsed> {
        let rest = &self.buf[self.start..];
        let Some(eol) = find_crlf(rest) else {
            if rest.len() > MAX_LINE {
                // No terminator within any legal line length: framing is
                // gone for good.
                self.start = self.buf.len();
                return Some(Parsed::Error {
                    line: "CLIENT_ERROR line too long".into(),
                    fatal: true,
                });
            }
            return None;
        };
        let line = &rest[..eol];
        if line.len() > MAX_LINE {
            self.start += eol + 2;
            return Some(client_error("line too long"));
        }
        let Ok(line_str) = std::str::from_utf8(line) else {
            self.start += eol + 2;
            return Some(client_error("line is not utf-8"));
        };
        let words: Vec<&str> = line_str.split_ascii_whitespace().collect();
        let after_line = self.start + eol + 2;
        match words.first().copied() {
            None => {
                // Blank line: skip silently (tolerates trailing CRLF from
                // sloppy clients).
                self.start = after_line;
                self.next()
            }
            Some("get") | Some("gets") => {
                self.start = after_line;
                if words.len() < 2 {
                    return Some(client_error("get needs at least one key"));
                }
                let mut keys = Vec::with_capacity(words.len() - 1);
                for w in &words[1..] {
                    match parse_key(w) {
                        Some(k) => keys.push(k),
                        None => return Some(client_error("bad key")),
                    }
                }
                Some(Parsed::Cmd(Command::Get(keys)))
            }
            Some("set") => {
                if !(5..=6).contains(&words.len()) {
                    self.start = after_line;
                    return Some(client_error("set needs <key> <flags> <exptime> <bytes>"));
                }
                let noreply = words.len() == 6;
                if noreply && words[5] != "noreply" {
                    self.start = after_line;
                    return Some(client_error("bad set flags"));
                }
                let key = parse_key(words[1]);
                let exptime = words[3].parse::<u32>().ok();
                let meta_ok = words[2].parse::<u32>().is_ok() && exptime.is_some();
                let Some(len) = words[4].parse::<usize>().ok().filter(|l| *l <= MAX_DATA) else {
                    self.start = after_line;
                    return Some(client_error("bad data length"));
                };
                // The data block (len bytes + CRLF) must be buffered before
                // the frame completes.
                let need = after_line + len + 2;
                if self.buf.len() < need {
                    return None;
                }
                let data = &self.buf[after_line..after_line + len];
                let terminated = &self.buf[after_line + len..need] == b"\r\n";
                let value = std::str::from_utf8(data).ok().and_then(|s| s.parse::<u32>().ok());
                self.start = need;
                if !terminated {
                    // Data block ran over its declared length: resync by
                    // dropping through the declared frame, report the error.
                    return Some(client_error("bad data chunk"));
                }
                let (Some(key), true, Some(value)) = (key, meta_ok, value) else {
                    return Some(client_error(if key.is_none() {
                        "bad key"
                    } else if !meta_ok {
                        "bad flags/exptime"
                    } else {
                        "bad data chunk"
                    }));
                };
                Some(Parsed::Cmd(Command::Set {
                    key,
                    value,
                    exptime: exptime.unwrap_or(0),
                    noreply,
                }))
            }
            Some("delete") => {
                self.start = after_line;
                if !(2..=3).contains(&words.len()) {
                    return Some(client_error("delete needs one key"));
                }
                let noreply = words.len() == 3;
                if noreply && words[2] != "noreply" {
                    return Some(client_error("bad delete flags"));
                }
                match parse_key(words[1]) {
                    Some(key) => Some(Parsed::Cmd(Command::Delete { key, noreply })),
                    None => Some(client_error("bad key")),
                }
            }
            Some("quit") => {
                self.start = after_line;
                Some(Parsed::Cmd(Command::Quit))
            }
            Some("shutdown") => {
                self.start = after_line;
                Some(Parsed::Cmd(Command::Shutdown))
            }
            Some(_) => {
                self.start = after_line;
                Some(Parsed::Error { line: "ERROR".into(), fatal: false })
            }
        }
    }
}

impl Iterator for Parser {
    type Item = Parsed;

    /// Drain the next complete command, if the buffer holds one.
    /// `None` means "need more bytes", not exhaustion — [`Parser::push`]
    /// more input and resume iterating.
    fn next(&mut self) -> Option<Parsed> {
        self.next_frame()
    }
}

/// Keys are nonzero decimal `u32` (key 0 is reserved across the repo's
/// key spaces).
fn parse_key(w: &str) -> Option<Key> {
    w.parse::<u32>().ok().filter(|k| *k != 0)
}

fn find_crlf(b: &[u8]) -> Option<usize> {
    b.windows(2).position(|w| w == b"\r\n")
}

// ---------------------------------------------------------------------------
// Reference response encoders
// ---------------------------------------------------------------------------

/// Append one hit of a `get` response, `VALUE <key> 0 <len>\r\n<data>\r\n`,
/// to `out`. The integers are formatted straight into `out`: no temporary
/// is allocated, so the serving path can call this once per key as it hits.
pub fn encode_get_hit(out: &mut Vec<u8>, key: Key, value: Value) {
    use std::io::Write;
    let digits = value.checked_ilog10().map_or(1, |d| d + 1);
    write!(out, "VALUE {key} 0 {digits}\r\n{value}\r\n").expect("writing to a Vec cannot fail");
}

/// Terminator of a `get` response (after zero or more hits).
pub fn encode_get_end() -> &'static [u8] {
    b"END\r\n"
}

/// A whole `get` response: one `VALUE` stanza per hit (misses are silently
/// omitted, as in memcached), then `END`.
pub fn encode_get(hits: &[(Key, Value)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(key, value) in hits {
        encode_get_hit(&mut out, key, value);
    }
    out.extend_from_slice(encode_get_end());
    out
}

/// `set` success reply.
pub fn encode_stored() -> &'static [u8] {
    b"STORED\r\n"
}

/// `delete` hit reply.
pub fn encode_deleted() -> &'static [u8] {
    b"DELETED\r\n"
}

/// `delete` miss reply.
pub fn encode_not_found() -> &'static [u8] {
    b"NOT_FOUND\r\n"
}

/// `shutdown` acknowledgement.
pub fn encode_ok() -> &'static [u8] {
    b"OK\r\n"
}

/// An error line (from [`Parsed::Error`]) as wire bytes.
pub fn encode_error_line(line: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(line.len() + 2);
    out.extend_from_slice(line.as_bytes());
    out.extend_from_slice(b"\r\n");
    out
}

/// Encode a request as a client would send it (the loadgen's and the
/// tests' wire writer).
pub fn encode_request(cmd: &Command) -> Vec<u8> {
    match cmd {
        Command::Get(keys) => {
            let mut out = b"get".to_vec();
            for k in keys {
                out.extend_from_slice(format!(" {k}").as_bytes());
            }
            out.extend_from_slice(b"\r\n");
            out
        }
        Command::Set { key, value, exptime, noreply } => {
            let data = value.to_string();
            let tail = if *noreply { " noreply" } else { "" };
            format!("set {key} 0 {exptime} {}{tail}\r\n{data}\r\n", data.len()).into_bytes()
        }
        Command::Delete { key, noreply } => {
            let tail = if *noreply { " noreply" } else { "" };
            format!("delete {key}{tail}\r\n").into_bytes()
        }
        Command::Quit => b"quit\r\n".to_vec(),
        Command::Shutdown => b"shutdown\r\n".to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &mut Parser) -> Vec<Parsed> {
        p.by_ref().collect()
    }

    #[test]
    fn parses_basic_commands() {
        let mut p = Parser::new();
        p.push(b"get 17\r\nset 5 0 0 2\r\n42\r\ndelete 5\r\nquit\r\nshutdown\r\n");
        assert_eq!(
            drain(&mut p),
            vec![
                Parsed::Cmd(Command::Get(vec![17])),
                Parsed::Cmd(Command::Set { key: 5, value: 42, exptime: 0, noreply: false }),
                Parsed::Cmd(Command::Delete { key: 5, noreply: false }),
                Parsed::Cmd(Command::Quit),
                Parsed::Cmd(Command::Shutdown),
            ]
        );
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn multi_key_get_and_noreply() {
        let mut p = Parser::new();
        p.push(b"get 1 2 3\r\nset 9 1 2 1 noreply\r\n7\r\ndelete 9 noreply\r\n");
        assert_eq!(
            drain(&mut p),
            vec![
                Parsed::Cmd(Command::Get(vec![1, 2, 3])),
                Parsed::Cmd(Command::Set { key: 9, value: 7, exptime: 2, noreply: true }),
                Parsed::Cmd(Command::Delete { key: 9, noreply: true }),
            ]
        );
    }

    #[test]
    fn partial_frames_buffer_until_complete() {
        let mut p = Parser::new();
        p.push(b"se");
        assert_eq!(p.next(), None);
        p.push(b"t 5 0 0 3\r\n1");
        assert_eq!(p.next(), None, "data block incomplete");
        p.push(b"23\r");
        assert_eq!(p.next(), None, "terminator incomplete");
        p.push(b"\n");
        assert_eq!(
            p.next(),
            Some(Parsed::Cmd(Command::Set { key: 5, value: 123, exptime: 0, noreply: false }))
        );
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        let cases: &[(&[u8], &str)] = &[
            (b"get\r\n", "CLIENT_ERROR get needs at least one key"),
            (b"get zero\r\n", "CLIENT_ERROR bad key"),
            (b"get 0\r\n", "CLIENT_ERROR bad key"),
            (b"set 1 0 0\r\n", "CLIENT_ERROR set needs <key> <flags> <exptime> <bytes>"),
            (b"set 1 0 0 99\r\n", "CLIENT_ERROR bad data length"),
            (b"set x 0 0 1\r\n2\r\n", "CLIENT_ERROR bad key"),
            (b"set 1 y 0 1\r\n2\r\n", "CLIENT_ERROR bad flags/exptime"),
            (b"set 1 0 0 2\r\nzz\r\n", "CLIENT_ERROR bad data chunk"),
            (b"delete\r\n", "CLIENT_ERROR delete needs one key"),
            (b"delete 1 2\r\n", "CLIENT_ERROR bad delete flags"),
            (b"frobnicate 12\r\n", "ERROR"),
        ];
        for (bytes, want) in cases {
            let mut p = Parser::new();
            p.push(bytes);
            match p.next() {
                Some(Parsed::Error { line, fatal }) => {
                    assert_eq!(&line, want, "input {:?}", String::from_utf8_lossy(bytes));
                    assert!(!fatal);
                }
                other => panic!("expected error for {bytes:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn overlong_data_resyncs_at_declared_length() {
        let mut p = Parser::new();
        // Declared 2 bytes but the block holds 3: the third byte is left
        // in the stream and breaks the next frame boundary — exactly how
        // memcached treats it ("bad data chunk", resync at declared len).
        p.push(b"set 1 0 0 2\r\n123\r\nget 1\r\n");
        assert!(matches!(p.next(), Some(Parsed::Error { fatal: false, .. })));
    }

    #[test]
    fn unterminated_garbage_is_fatal() {
        let mut p = Parser::new();
        p.push(&vec![b'x'; MAX_LINE + 100]);
        match p.next() {
            Some(Parsed::Error { fatal, .. }) => assert!(fatal),
            other => panic!("expected fatal error, got {other:?}"),
        }
    }

    #[test]
    fn encoders_roundtrip_requests() {
        let cmds = vec![
            Command::Get(vec![1, 77, 4_000_000_000]),
            Command::Set { key: 8, value: 0, exptime: 0, noreply: false },
            Command::Set { key: u32::MAX, value: u32::MAX, exptime: u32::MAX, noreply: true },
            Command::Delete { key: 3, noreply: true },
            Command::Quit,
            Command::Shutdown,
        ];
        let mut wire = Vec::new();
        for c in &cmds {
            wire.extend_from_slice(&encode_request(c));
        }
        let mut p = Parser::new();
        p.push(&wire);
        let parsed = drain(&mut p);
        assert_eq!(parsed.len(), cmds.len());
        for (got, want) in parsed.iter().zip(&cmds) {
            assert_eq!(got, &Parsed::Cmd(want.clone()));
        }
    }

    #[test]
    fn get_response_shape() {
        assert_eq!(encode_get(&[]), b"END\r\n");
        assert_eq!(
            encode_get(&[(7, 123), (9, 5)]),
            b"VALUE 7 0 3\r\n123\r\nVALUE 9 0 1\r\n5\r\nEND\r\n"
        );
    }

    #[test]
    fn get_hit_length_field_counts_the_value_digits() {
        // Every digit-count boundary of a u32, and zero (which the parser
        // never stores but the encoder must still render as one digit).
        let mut values = vec![0, u32::MAX];
        values.extend((0..10).flat_map(|e| [10u32.pow(e) - 1, 10u32.pow(e)]));
        for value in values {
            let data = value.to_string();
            let mut out = b"kept".to_vec();
            encode_get_hit(&mut out, 42, value);
            assert_eq!(out, format!("keptVALUE 42 0 {}\r\n{data}\r\n", data.len()).as_bytes());
        }
    }
}
