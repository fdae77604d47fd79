//! Key expiry (`exptime`) for the memcached front end.
//!
//! The hash map under the cache stores bare `u32` values, so expiry
//! metadata lives beside it in a sharded host-side table mapping each key
//! to its **absolute** expiry time (unix seconds). memcached's `exptime`
//! encoding is honored exactly: `0` means never expire, values up to
//! 30 days are relative seconds from now, anything larger is an absolute
//! unix timestamp.
//!
//! Expiry is *lazy*, as in memcached: nothing scans for dead keys. A
//! `get`/`gets` that touches an expired key treats it as a miss, removes
//! the key from the map and the table, and bumps the `serve_expired`
//! counter. Every request reaches the table through
//! [`crate::service::Service`], which holds the key's [`TtlGuard`] across
//! its check, its map operation and its table update whenever it changes
//! the map, so that the table and the map change together (the read of a
//! live key changes neither and runs after the guard is dropped).
//!
//! The clock is injectable ([`Clock::Manual`]) so tests can advance time
//! deterministically instead of sleeping.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::{Mutex, MutexGuard};

use workloads::Key;

/// memcached's relative/absolute `exptime` pivot: 30 days in seconds.
pub const EXPTIME_PIVOT: u32 = 60 * 60 * 24 * 30;

/// Shard count for the expiry table (keys hash across shards so the hot
/// `get` path never funnels through one lock).
const SHARDS: usize = 16;

/// Time source for expiry decisions.
#[derive(Debug, Clone)]
pub enum Clock {
    /// Real wall-clock unix time.
    System,
    /// A test clock read from a shared counter of unix seconds.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A manual clock starting at `now` unix seconds, plus the handle that
    /// advances it.
    pub fn manual(now: u64) -> (Clock, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(now));
        (Clock::Manual(Arc::clone(&cell)), cell)
    }

    /// Current unix time in whole seconds.
    pub fn now(&self) -> u64 {
        match self {
            Clock::System => {
                SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
            }
            Clock::Manual(cell) => cell.load(Ordering::Acquire),
        }
    }
}

/// Sharded key → absolute-expiry table.
pub struct TtlTable {
    shards: Vec<Mutex<HashMap<Key, u64>>>,
    clock: Clock,
}

impl TtlTable {
    /// Empty table over the given clock.
    pub fn new(clock: Clock) -> Self {
        TtlTable { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(), clock }
    }

    fn shard(&self, key: Key) -> &Mutex<HashMap<Key, u64>> {
        // Fibonacci hash of the key picks the shard; the table is small,
        // the point is only to spread lock traffic.
        let h = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % SHARDS]
    }

    /// Decode a raw memcached `exptime` into an absolute unix-seconds
    /// expiry (`None` = never expires).
    pub fn absolute_expiry(&self, exptime: u32) -> Option<u64> {
        match exptime {
            0 => None,
            e if e <= EXPTIME_PIVOT => Some(self.clock.now() + e as u64),
            e => Some(e as u64),
        }
    }

    /// Lock `key`'s shard: until the guard drops, no other thread reads or
    /// changes the expiry of `key` (or of the keys sharing its shard).
    pub fn lock(&self, key: Key) -> TtlGuard<'_> {
        TtlGuard { shard: self.shard(key).lock(), table: self, key }
    }

    /// [`TtlGuard::on_set`] under a lock of its own.
    pub fn on_set(&self, key: Key, exptime: u32) {
        self.lock(key).on_set(exptime);
    }

    /// [`TtlGuard::is_expired`] under a lock of its own.
    pub fn is_expired(&self, key: Key) -> bool {
        self.lock(key).is_expired()
    }

    /// Number of keys currently carrying an expiry (observability only).
    pub fn tracked(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

/// One key's expiry, with its shard locked. `Service::execute` holds it
/// from its expiry check, across the map operation, to the table update: a
/// `get` that finds the key stale and a `set` of the same key cannot
/// interleave, so the stale entry's removal never takes a fresh value with
/// it. Only writers hold it that long: a `get` that finds the key live
/// drops it before its `Read`, so reads of one hot key do not queue behind
/// each other's map round trips.
///
/// Lock order: a thread holds at most one guard, and takes it *before* its
/// map operation — so before the partition try-lock of a caller-run
/// combining pass (`hybrids::publist`). A pass never takes a TTL lock and
/// never waits for a thread that holds one, so the two locks cannot form a
/// cycle: whoever holds a partition always finishes its pass.
pub struct TtlGuard<'a> {
    shard: MutexGuard<'a, HashMap<Key, u64>>,
    table: &'a TtlTable,
    key: Key,
}

impl TtlGuard<'_> {
    /// Whether the key has an expiry that has already passed. memcached
    /// expires at the boundary second: a key set with `exptime = 1` is dead
    /// once `now >= stored_at + 1`.
    pub fn is_expired(&self) -> bool {
        self.shard.get(&self.key).is_some_and(|&at| self.table.clock.now() >= at)
    }

    /// Record the expiry of the freshly stored key (a `set` with
    /// `exptime = 0` clears any previous expiry, as in memcached).
    pub fn on_set(&mut self, exptime: u32) {
        match self.table.absolute_expiry(exptime) {
            Some(at) => {
                self.shard.insert(self.key, at);
            }
            None => {
                self.shard.remove(&self.key);
            }
        }
    }

    /// Forget the key's expiry (on `delete`, or after lazy expiry).
    pub fn on_remove(&mut self) {
        self.shard.remove(&self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exptime_decoding_follows_memcached() {
        let (clock, cell) = Clock::manual(1_000_000);
        let t = TtlTable::new(clock);
        assert_eq!(t.absolute_expiry(0), None);
        assert_eq!(t.absolute_expiry(5), Some(1_000_005));
        assert_eq!(t.absolute_expiry(EXPTIME_PIVOT), Some(1_000_000 + EXPTIME_PIVOT as u64));
        // Past the pivot the field is an absolute unix timestamp.
        assert_eq!(t.absolute_expiry(EXPTIME_PIVOT + 1), Some(EXPTIME_PIVOT as u64 + 1));
        cell.store(2_000_000, Ordering::Release);
        assert_eq!(t.absolute_expiry(5), Some(2_000_005));
    }

    #[test]
    fn lazy_expiry_at_the_boundary_second() {
        let (clock, cell) = Clock::manual(100);
        let t = TtlTable::new(clock);
        t.on_set(7, 10);
        assert!(!t.is_expired(7));
        cell.store(109, Ordering::Release);
        assert!(!t.is_expired(7), "one second early");
        cell.store(110, Ordering::Release);
        assert!(t.is_expired(7), "expires at the boundary");
        // Untracked keys never expire.
        assert!(!t.is_expired(8));
    }

    #[test]
    fn set_zero_clears_and_remove_forgets() {
        let (clock, cell) = Clock::manual(100);
        let t = TtlTable::new(clock);
        t.on_set(7, 10);
        assert_eq!(t.tracked(), 1);
        // Overwriting with exptime 0 must clear the old expiry.
        t.on_set(7, 0);
        assert_eq!(t.tracked(), 0);
        cell.store(1_000, Ordering::Release);
        assert!(!t.is_expired(7));

        t.on_set(9, 5);
        t.lock(9).on_remove();
        assert_eq!(t.tracked(), 0);
    }

    #[test]
    fn absolute_past_expiry_is_immediately_dead() {
        // An absolute timestamp in the past (the CI smoke's trick for a
        // deterministic expiring key) is expired from the first get.
        let t = TtlTable::new(Clock::System);
        t.on_set(3, EXPTIME_PIVOT + 1); // unix second 2_592_001 ≈ 1970
        assert!(t.is_expired(3));
    }

    #[test]
    fn shards_spread_keys() {
        let (clock, _) = Clock::manual(0);
        let t = TtlTable::new(clock);
        for k in 1..=1_000u32 {
            t.on_set(k, 60);
        }
        assert_eq!(t.tracked(), 1_000);
        let nonempty = t.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(nonempty > SHARDS / 2, "keys concentrated in {nonempty} shards");
    }
}
