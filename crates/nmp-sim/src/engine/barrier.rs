//! Conservative time-window barriers between the scheduler's shards.
//!
//! Each shard publishes a *frontier*: the packed `(cycle, spawn id)` key of
//! the earliest event it could still execute. Frontiers are monotonically
//! non-decreasing, so once a shard observes `frontier(other) > k` it knows
//! *every* future effect of `other` carries a key greater than `k` — the
//! conservative lookahead window that makes cross-shard effect delivery
//! deterministic (see `DESIGN.md` §4.9 for the full argument).
//!
//! Keys pack a 48-bit cycle count and a 16-bit spawn id into one `u64`, so a
//! frontier is a single atomic word and the global event order is exactly
//! integer order on keys.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Bits of a packed key reserved for the spawn id.
const ID_BITS: u32 = 16;

/// Largest representable cycle in a packed key (48 bits ≈ 78 hours of
/// simulated time at 1 GHz — far beyond any experiment in this repo).
pub(super) const MAX_CLOCK: u64 = (1 << (64 - ID_BITS)) - 1;

/// Largest spawn id a simulation may use.
pub(super) const MAX_THREADS: usize = 1 << ID_BITS;

/// Pack `(cycle, spawn id)` into a totally ordered `u64` key.
#[inline]
pub(super) fn pack(clock: u64, id: usize) -> u64 {
    debug_assert!(clock <= MAX_CLOCK, "simulated clock overflows packed key");
    debug_assert!(id < MAX_THREADS);
    (clock << ID_BITS) | id as u64
}

/// Gate code: the pending effect is shard-local (no cross-shard wait).
pub(super) const GATE_NONE: u32 = 0;
/// Gate code: wait for *every* other shard (policy-violating accesses whose
/// target region is unknown territory; memory-safe but see the determinism
/// caveat in `DESIGN.md` §4.9).
pub(super) const GATE_ALL: u32 = u32::MAX;

/// Gate code for an effect shared with `shard` (the publication-list
/// scratchpads are the only architecturally shared region, so this is the
/// owning vault shard for host MMIO, or the host shard for NMP-side
/// scratchpad accesses).
#[inline]
pub(super) fn gate_on(shard: usize) -> u32 {
    shard as u32 + 1
}

/// Spin-then-yield wait. Unlike the engine's park-based `spin_wait`, gate
/// conditions become true as a side effect of *other shards running*, not of
/// a matching unpark — so the waiter must stay schedulable.
#[inline]
fn spin_until<F: Fn() -> bool>(cond: F) {
    let budget = super::core::spin_budget().min(64);
    let mut n = 0u32;
    while !cond() {
        n += 1;
        if n < budget {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Shared synchronization state of one simulation run: per-shard frontiers and
/// the keyed stop protocol.
pub(super) struct ShardCtl {
    /// Packed min pending key per shard (`u64::MAX` once a shard drained).
    frontiers: Vec<AtomicU64>,
    /// Packed min pending key over each shard's *live non-daemon* threads.
    nd_frontiers: Vec<AtomicU64>,
    /// Non-daemon threads that have not yet returned.
    nd_live: AtomicUsize,
    /// Max final-turn key over finished non-daemons (stop-flag edge).
    nd_last_key: AtomicU64,
    /// A logical thread panicked: every gate opens so the run can drain.
    panic: AtomicBool,
    /// Scheduling steps taken after the last non-daemon finished (safety
    /// valve against daemons that ignore `stop_requested`).
    after_stop: AtomicU64,
}

impl ShardCtl {
    pub(super) fn new(shards: usize, non_daemons: usize) -> Self {
        let zeros = |v: u64| {
            let mut f = Vec::with_capacity(shards);
            f.resize_with(shards, || AtomicU64::new(v));
            f
        };
        ShardCtl {
            frontiers: zeros(0),
            nd_frontiers: zeros(0),
            nd_live: AtomicUsize::new(non_daemons),
            nd_last_key: AtomicU64::new(0),
            panic: AtomicBool::new(false),
            after_stop: AtomicU64::new(0),
        }
    }

    /// Publish shard `s`'s frontier and non-daemon frontier.
    pub(super) fn publish(&self, s: usize, frontier: u64, nd_frontier: u64) {
        self.nd_frontiers[s].store(nd_frontier, Ordering::Release);
        self.frontiers[s].store(frontier, Ordering::Release);
    }

    /// Flag a worker panic: opens every gate and the stop query.
    pub(super) fn flag_panic(&self) {
        self.panic.store(true, Ordering::Release);
    }

    pub(super) fn panicked(&self) -> bool {
        self.panic.load(Ordering::Acquire)
    }

    /// Block until the gated event `key` may execute: every shard named by
    /// `gate` must have advanced its frontier strictly past `key`. The
    /// globally minimum pending event always passes immediately (all other
    /// frontiers exceed it), which is the progress guarantee.
    pub(super) fn gate_wait(&self, my_shard: usize, key: u64, gate: u32) {
        let past = |s: usize| self.frontiers[s].load(Ordering::Acquire) > key;
        match gate {
            GATE_NONE => {}
            GATE_ALL => {
                for s in 0..self.frontiers.len() {
                    if s != my_shard {
                        spin_until(|| past(s) || self.panicked());
                    }
                }
            }
            g => {
                let s = (g - 1) as usize;
                debug_assert_ne!(s, my_shard, "a shard never gates on itself");
                spin_until(|| past(s) || self.panicked());
            }
        }
    }

    /// The keyed stop query: would a sequential scheduler's stop flag be set
    /// when the turn at `key` is scheduled? True exactly when every
    /// non-daemon has finished *and* did so at a turn key below `key`.
    /// Waits until every shard's non-daemon frontier passes `key` first, so
    /// a daemon that ran ahead cannot observe the flag early.
    pub(super) fn stop_query(&self, key: u64) -> bool {
        // `>= key`: the caller itself holds `key`; all *other* live
        // non-daemons hold strictly larger keys once the frontier reaches it.
        for f in &self.nd_frontiers {
            spin_until(|| f.load(Ordering::Acquire) >= key || self.panicked());
        }
        if self.panicked() {
            return true;
        }
        self.nd_live.load(Ordering::Acquire) == 0 && self.nd_last_key.load(Ordering::Acquire) < key
    }

    /// A non-daemon finished its body during the turn at `key`.
    pub(super) fn non_daemon_done(&self, key: u64) {
        self.nd_last_key.fetch_max(key, Ordering::AcqRel);
        self.nd_live.fetch_sub(1, Ordering::AcqRel);
    }

    pub(super) fn all_non_daemons_done(&self) -> bool {
        self.nd_live.load(Ordering::Acquire) == 0
    }

    /// Safety valve: a daemon that never observes the stop would otherwise
    /// spin the run forever.
    pub(super) fn count_after_stop(&self) {
        let n = self.after_stop.fetch_add(1, Ordering::Relaxed);
        assert!(n < 10_000_000, "daemon threads are not honoring stop_requested()");
    }

    /// Block until every *other* shard's frontier is strictly past `key`:
    /// the caller may then mutate cross-shard state (e.g. a global stats
    /// reset at a measurement barrier) exactly as a sequential scheduler
    /// would. Only valid at quiescence — when the other shards' events in
    /// `(key, frontier)` are effect-free polls — which the driver's
    /// measurement barrier guarantees (no offload is in flight).
    pub(super) fn quiesce(&self, my_shard: usize, key: u64) {
        for s in 0..self.frontiers.len() {
            if s != my_shard {
                spin_until(|| self.frontiers[s].load(Ordering::Acquire) > key || self.panicked());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_by_clock_then_id() {
        assert!(pack(1, 0) > pack(0, 65_535));
        assert!(pack(7, 3) < pack(7, 4));
        assert!(pack(7, 4) < pack(8, 0));
    }

    #[test]
    fn stop_query_matches_sequential_edge() {
        let c = ShardCtl::new(2, 1);
        c.publish(0, u64::MAX, u64::MAX);
        c.publish(1, u64::MAX, u64::MAX);
        // Non-daemon still live: never stopped.
        assert!(!c.stop_query(pack(100, 0)));
        c.non_daemon_done(pack(50, 1));
        // Daemon turns before the non-daemon's last turn do not see the stop.
        assert!(!c.stop_query(pack(50, 0)));
        assert!(c.stop_query(pack(50, 2)));
        assert!(c.stop_query(pack(51, 0)));
    }

    #[test]
    fn gate_passes_once_frontier_moves() {
        let c = ShardCtl::new(2, 0);
        c.publish(1, pack(10, 0), u64::MAX);
        // key below the foreign frontier: passes immediately.
        c.gate_wait(0, pack(5, 1), gate_on(1));
        c.publish(1, pack(20, 0), u64::MAX);
        c.gate_wait(0, pack(15, 1), GATE_ALL);
    }
}
