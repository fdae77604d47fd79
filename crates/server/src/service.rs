//! The request-execution layer: one code path from a parsed [`Command`]
//! to response bytes.
//!
//! Every `get`/`set`/`delete` funnels through [`Service::execute`],
//! whether it arrived over a socket (the reactor calls it inline) or from
//! a caller with no socket at all (the differential test's in-memory
//! reference, the benchmark's replay) — so the runtime decides only how
//! sockets are multiplexed, never semantics. TTL (`exptime`) handling
//! lives here too: every arm that changes the map holds its key's
//! [`TtlGuard`](crate::ttl::TtlGuard) from the expiry check to the table
//! update, so an expired `get`'s removal cannot take a concurrent `set` with
//! it. A `get` of a live key changes nothing and lets go after the check.

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
                    let mut ttl = self.ttl.lock(key);
                    if ttl.is_expired() {
                        // Lazy expiry: the key dies on the get that finds
                        // it stale, exactly as in memcached.
                        self.map.execute(ctx, Op::Remove(key));
                        ttl.on_remove();
                        self.counters.serve_expired.fetch_add(1, Ordering::Relaxed);
                        self.counters.get_misses.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    // A live key's read changes neither the map nor the
                    // table, so it need not keep other workers off the
                    // shard: a worker descheduled mid-read while holding it
                    // would stall every `get` that hashes there.
                    drop(ttl);
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
                let mut ttl = self.ttl.lock(*key);
                let stored = self.do_set(ctx, *key, *value);
                if stored {
                    ttl.on_set(*exptime);
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
                let mut ttl = self.ttl.lock(*key);
                let removed = self.map.execute(ctx, Op::Remove(*key)).ok;
                ttl.on_remove();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttl::Clock;
    use nmp_sim::{Config, Machine, ThreadKind};
    use std::sync::atomic::AtomicU32;

    fn exec(service: &Service, ctx: &mut ThreadCtx, cmd: Command) -> Vec<u8> {
        let mut out = Vec::new();
        service.execute(ctx, &cmd, &mut out);
        out
    }

    /// A `get` that finds its key expired removes it. A `set` of the same
    /// key from another worker, racing that `get`, must survive it whichever
    /// of the two goes first: the `get` after both have finished hits, with
    /// the value the `set` stored.
    #[test]
    fn expired_get_does_not_remove_a_concurrent_set() {
        const ROUNDS: u32 = 20_000;
        const KEY: Key = 7;
        let machine = Machine::new(Config::tiny());
        let (clock, now) = Clock::manual(1_000_000);
        let service = Arc::new(Service {
            map: HybridHashMap::new(Arc::clone(&machine), 64, 42, 1),
            ttl: TtlTable::new(clock),
            counters: Arc::default(),
        });
        let mut run = machine.native_run();
        service.map.spawn_services_on(&mut run);
        // Round r: `go` = r releases the racing `set`, `set_done` = r
        // reports it finished. Yielding spins, so one CPU is enough.
        let go = Arc::new(AtomicU32::new(0));
        let set_done = Arc::new(AtomicU32::new(0));
        let await_round = |cell: &AtomicU32, round: u32| {
            while cell.load(Ordering::Acquire) != round {
                std::thread::yield_now();
            }
        };
        let lost = Arc::new(AtomicU32::new(0));
        {
            let (service, go, set_done) =
                (Arc::clone(&service), Arc::clone(&go), Arc::clone(&set_done));
            run.spawn("setter", ThreadKind::Host { core: 1 }, move |ctx| {
                for round in 1..=ROUNDS {
                    await_round(&go, round);
                    let set = Command::Set { key: KEY, value: round, exptime: 0, noreply: false };
                    assert_eq!(exec(&service, ctx, set), proto::encode_stored());
                    set_done.store(round, Ordering::Release);
                }
            });
        }
        {
            let (service, lost) = (Arc::clone(&service), Arc::clone(&lost));
            run.spawn("getter", ThreadKind::Host { core: 0 }, move |ctx| {
                for round in 1..=ROUNDS {
                    let stale =
                        Command::Set { key: KEY, value: u32::MAX, exptime: 1, noreply: false };
                    assert_eq!(exec(&service, ctx, stale), proto::encode_stored());
                    now.fetch_add(2, Ordering::AcqRel);
                    go.store(round, Ordering::Release);
                    exec(&service, ctx, Command::Get(vec![KEY]));
                    await_round(&set_done, round);
                    let after = exec(&service, ctx, Command::Get(vec![KEY]));
                    if after != proto::encode_get(&[(KEY, round)]) {
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        run.finish();
        assert_eq!(lost.load(Ordering::Relaxed), 0, "of {ROUNDS} racing sets");
    }
}
