//! The serve-side oracle: a sequential shadow of the cache that predicts
//! every response byte-exactly.
//!
//! Each connection owns a disjoint slice of the key universe, so what a
//! connection reads depends only on what it wrote itself, in order — one
//! [`Shadow`] per connection is an exact model however the server
//! interleaves the connections. The shadow writes its own wire bytes
//! rather than calling the server's encoders, so a bug there shows.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use workloads::{Key, Value};

/// memcached's relative/absolute `exptime` pivot: 30 days in seconds.
pub const EXPTIME_PIVOT: u32 = 60 * 60 * 24 * 30;

/// An absolute `exptime` long past (1970-01-31): dead on arrival.
pub const EXPTIME_PAST: u32 = EXPTIME_PIVOT + 1;
/// An absolute `exptime` in 2096: never reached during a run.
pub const EXPTIME_FAR: u32 = 4_000_000_000;
/// A relative `exptime` of one hour: never reached during a run.
pub const EXPTIME_HOUR: u32 = 3_600;

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// `get <key>+`
    Get(Vec<Key>),
    /// `set <key> 0 <exptime> <len>\r\n<value>`
    Set {
        /// Key stored under.
        key: Key,
        /// Value stored (nonzero).
        value: Value,
        /// Raw memcached expiry field.
        exptime: u32,
    },
    /// `delete <key>`
    Delete(Key),
}

impl Req {
    /// Short label for spans and per-kind statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Req::Get(keys) if keys.len() > 1 => "multiget",
            Req::Get(_) => "get",
            Req::Set { .. } => "set",
            Req::Delete(_) => "delete",
        }
    }

    /// Keys the request touches.
    pub fn keys(&self) -> usize {
        match self {
            Req::Get(keys) => keys.len(),
            _ => 1,
        }
    }

    /// Append the request's wire bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut s = String::new();
        match self {
            Req::Get(keys) => {
                s.push_str("get");
                for k in keys {
                    let _ = write!(s, " {k}");
                }
                s.push_str("\r\n");
            }
            Req::Set { key, value, exptime } => {
                let data = value.to_string();
                let _ = write!(s, "set {key} 0 {exptime} {}\r\n{data}\r\n", data.len());
            }
            Req::Delete(key) => {
                let _ = write!(s, "delete {key}\r\n");
            }
        }
        out.extend_from_slice(s.as_bytes());
    }
}

/// Whether a raw `exptime` is already in the past at unix time `now`.
/// Relative values (at most the pivot) are in the future by definition;
/// the workloads only use relative values far longer than a run.
fn already_expired(exptime: u32, now: u64) -> bool {
    exptime > EXPTIME_PIVOT && u64::from(exptime) <= now
}

/// Sequential model of one connection's key slice.
#[derive(Debug, Default)]
pub struct Shadow {
    /// key → (value, stored with an expiry that has already passed).
    entries: BTreeMap<Key, (Value, bool)>,
    /// Unix seconds the absolute expiries are judged against.
    now: u64,
    /// `get` keys that hit.
    pub hits: u64,
    /// `get` keys looked up.
    pub lookups: u64,
}

impl Shadow {
    /// Empty model judging absolute expiries against unix time `now`.
    pub fn new(now: u64) -> Self {
        Shadow { now, ..Default::default() }
    }

    /// Apply `req` and append the exact response the server must send.
    pub fn apply(&mut self, req: &Req, out: &mut Vec<u8>) {
        match req {
            Req::Get(keys) => {
                let mut s = String::new();
                for key in keys {
                    self.lookups += 1;
                    match self.entries.get(key) {
                        // Lazy expiry: the get that finds a dead key removes it.
                        Some(&(_, true)) => {
                            self.entries.remove(key);
                        }
                        Some(&(value, false)) => {
                            self.hits += 1;
                            let data = value.to_string();
                            let _ = write!(s, "VALUE {key} 0 {}\r\n{data}\r\n", data.len());
                        }
                        None => {}
                    }
                }
                s.push_str("END\r\n");
                out.extend_from_slice(s.as_bytes());
            }
            Req::Set { key, value, exptime } => {
                self.entries.insert(*key, (*value, already_expired(*exptime, self.now)));
                out.extend_from_slice(b"STORED\r\n");
            }
            Req::Delete(key) => {
                // An expired key no get has touched yet is still in the map.
                let hit = self.entries.remove(key).is_some();
                out.extend_from_slice(if hit { b"DELETED\r\n" } else { b"NOT_FOUND\r\n" });
            }
        }
    }

    /// What the map must hold for this slice once the stream has run:
    /// every stored pair, expired-but-untouched ones included.
    pub fn contents(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.entries.iter().map(|(&k, &(v, _))| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `reqs` through a fresh shadow; returns (request bytes, response bytes).
    fn transcript(reqs: &[Req]) -> (String, String) {
        let mut shadow = Shadow::new(1_800_000_000);
        let (mut tx, mut rx) = (Vec::new(), Vec::new());
        for r in reqs {
            r.encode(&mut tx);
            shadow.apply(r, &mut rx);
        }
        (String::from_utf8(tx).unwrap(), String::from_utf8(rx).unwrap())
    }

    #[test]
    fn set_get_delete_transcript() {
        let (tx, rx) = transcript(&[
            Req::Get(vec![5]),
            Req::Set { key: 5, value: 77, exptime: 0 },
            Req::Get(vec![5]),
            Req::Set { key: 5, value: 1234567, exptime: 0 },
            Req::Get(vec![5]),
            Req::Delete(5),
            Req::Delete(5),
            Req::Get(vec![5]),
        ]);
        assert_eq!(
            tx,
            "get 5\r\nset 5 0 0 2\r\n77\r\nget 5\r\nset 5 0 0 7\r\n1234567\r\nget 5\r\n\
             delete 5\r\ndelete 5\r\nget 5\r\n"
        );
        assert_eq!(
            rx,
            "END\r\nSTORED\r\nVALUE 5 0 2\r\n77\r\nEND\r\nSTORED\r\nVALUE 5 0 7\r\n1234567\r\nEND\r\n\
             DELETED\r\nNOT_FOUND\r\nEND\r\n"
        );
    }

    #[test]
    fn multiget_lists_hits_in_request_order_and_skips_misses() {
        let (tx, rx) = transcript(&[
            Req::Set { key: 9, value: 1, exptime: 0 },
            Req::Set { key: 3, value: 2, exptime: 0 },
            Req::Get(vec![9, 4, 3]),
        ]);
        assert!(tx.ends_with("get 9 4 3\r\n"));
        assert_eq!(rx, "STORED\r\nSTORED\r\nVALUE 9 0 1\r\n1\r\nVALUE 3 0 1\r\n2\r\nEND\r\n");
    }

    #[test]
    fn far_future_and_relative_expiries_stay_live() {
        let (_, rx) = transcript(&[
            Req::Set { key: 1, value: 10, exptime: EXPTIME_FAR },
            Req::Set { key: 2, value: 20, exptime: EXPTIME_HOUR },
            Req::Get(vec![1, 2]),
        ]);
        assert_eq!(rx, "STORED\r\nSTORED\r\nVALUE 1 0 2\r\n10\r\nVALUE 2 0 2\r\n20\r\nEND\r\n");
    }

    #[test]
    fn past_expiry_dies_on_the_first_get_but_delete_still_finds_it() {
        let past = Req::Set { key: 8, value: 5, exptime: EXPTIME_PAST };
        // A get finds it dead and removes it, so the delete after misses.
        let (_, rx) = transcript(&[past.clone(), Req::Get(vec![8]), Req::Delete(8)]);
        assert_eq!(rx, "STORED\r\nEND\r\nNOT_FOUND\r\n");
        // Untouched by any get, the dead key is still in the map.
        let (_, rx) = transcript(&[past.clone(), Req::Delete(8)]);
        assert_eq!(rx, "STORED\r\nDELETED\r\n");
        // Overwriting without an expiry revives it.
        let (_, rx) =
            transcript(&[past, Req::Set { key: 8, value: 6, exptime: 0 }, Req::Get(vec![8])]);
        assert_eq!(rx, "STORED\r\nSTORED\r\nVALUE 8 0 1\r\n6\r\nEND\r\n");
    }

    #[test]
    fn contents_keep_expired_but_untouched_keys() {
        let mut s = Shadow::new(1_800_000_000);
        let mut sink = Vec::new();
        s.apply(&Req::Set { key: 2, value: 9, exptime: EXPTIME_PAST }, &mut sink);
        s.apply(&Req::Set { key: 1, value: 4, exptime: 0 }, &mut sink);
        assert_eq!(s.contents().collect::<Vec<_>>(), vec![(1, 4), (2, 9)]);
        s.apply(&Req::Get(vec![2]), &mut sink);
        assert_eq!(s.contents().collect::<Vec<_>>(), vec![(1, 4)]);
    }
}
