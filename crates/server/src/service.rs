//! The request-execution layer: one code path from a parsed [`Command`]
//! to response bytes.
//!
//! Every `get`/`set`/`delete` funnels through [`Service::execute`],
//! whether it arrived over a socket (the reactor calls it inline) or from
//! a caller with no socket at all (the differential test's in-memory
//! reference, the benchmark's replay) — so the runtime decides only how
//! sockets are multiplexed, never semantics. TTL (`exptime`) handling
//! lives here too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hybrids::hashmap::HybridHashMap;
use hybrids::SimIndex;
use nmp_sim::ThreadCtx;
use workloads::{Key, Op, Value};

use crate::proto::{self, Command};
use crate::ttl::TtlTable;

/// How a `set` that keeps losing insert/update races reports failure
/// before giving up (never observed in practice; bounded for safety).
const SET_RETRIES: usize = 16;

/// Aggregate served-request counters (relaxed; read after the server's
/// `wait`).
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// `get` keys that hit.
    pub get_hits: AtomicU64,
    /// `get` keys that missed.
    pub get_misses: AtomicU64,
    /// Successful `set`s.
    pub sets: AtomicU64,
    /// `delete`s that removed a key.
    pub deletes: AtomicU64,
    /// Connections served to completion.
    pub conns: AtomicU64,
    /// Protocol errors reported to clients.
    pub proto_errors: AtomicU64,
    /// `get` keys answered as misses because their `exptime` had passed
    /// (the key was lazily removed on that get).
    pub serve_expired: AtomicU64,
    /// Times a connection's read interest was parked because its write
    /// queue exceeded the high-water mark.
    pub backpressure_pauses: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_evicted: AtomicU64,
}

/// The map, its TTL table, and the counters — everything a reactor-worker
/// needs to serve requests on its own host thread.
pub struct Service {
    /// The hash map being served.
    pub map: Arc<HybridHashMap>,
    /// Key-expiry table (`exptime` support).
    pub ttl: TtlTable,
    /// Served-traffic counters.
    pub counters: Arc<ServeCounters>,
}

impl Service {
    /// Execute one map-touching command (`get`/`gets`, `set`, `delete`)
    /// and append its wire response to `out`. `quit`/`shutdown` are
    /// connection-lifecycle commands and are handled by the runtime, not
    /// here.
    pub fn execute(&self, ctx: &mut ThreadCtx, cmd: &Command, out: &mut Vec<u8>) {
        match cmd {
            Command::Get(keys) => {
                for &key in keys {
                    if self.ttl.is_expired(key) {
                        // Lazy expiry: the key dies on the get that finds
                        // it stale, exactly as in memcached.
                        self.map.execute(ctx, Op::Remove(key));
                        self.ttl.on_remove(key);
                        self.counters.serve_expired.fetch_add(1, Ordering::Relaxed);
                        self.counters.get_misses.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let r = self.map.execute(ctx, Op::Read(key));
                    if r.ok {
                        self.counters.get_hits.fetch_add(1, Ordering::Relaxed);
                        proto::encode_get_hit(out, key, r.value);
                    } else {
                        self.counters.get_misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
                out.extend_from_slice(proto::encode_get_end());
            }
            Command::Set { key, value, exptime, noreply } => {
                let stored = self.do_set(ctx, *key, *value);
                if stored {
                    self.ttl.on_set(*key, *exptime);
                    self.counters.sets.fetch_add(1, Ordering::Relaxed);
                }
                if !noreply {
                    if stored {
                        out.extend_from_slice(proto::encode_stored());
                    } else {
                        out.extend_from_slice(b"SERVER_ERROR store failed\r\n");
                    }
                }
            }
            Command::Delete { key, noreply } => {
                let removed = self.map.execute(ctx, Op::Remove(*key)).ok;
                self.ttl.on_remove(*key);
                if removed {
                    self.counters.deletes.fetch_add(1, Ordering::Relaxed);
                }
                if !noreply {
                    out.extend_from_slice(if removed {
                        proto::encode_deleted()
                    } else {
                        proto::encode_not_found()
                    });
                }
            }
            Command::Quit | Command::Shutdown => {
                unreachable!("lifecycle commands are handled by the runtime, not the service")
            }
        }
    }

    /// memcached `set` is insert-or-overwrite; the map's `Insert` fails on
    /// duplicates and `Update` fails on absent keys, so race the two until
    /// one lands (a concurrent delete can void an `Update` between our
    /// attempts).
    fn do_set(&self, ctx: &mut ThreadCtx, key: Key, value: Value) -> bool {
        for _ in 0..SET_RETRIES {
            if self.map.execute(ctx, Op::Insert(key, value)).ok {
                return true;
            }
            if self.map.execute(ctx, Op::Update(key, value)).ok {
                return true;
            }
        }
        false
    }
}
