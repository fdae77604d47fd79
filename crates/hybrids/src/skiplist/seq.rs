//! Single-threaded skiplist operations, as executed by an NMP core on the
//! portion of a skiplist stored in its partition (§3.2–3.3).
//!
//! Each NMP core has exclusive access to its partition, so these routines
//! use plain (uncontended) reads and writes — but every access is timed
//! through the NMP core's node buffer + vault model via [`ThreadCtx`].
//!
//! Traversals may start either at the partition's full-height sentinel or
//! at a *begin-NMP-traversal node* supplied by the host (which, in the
//! hybrid skiplist, is always the full-height NMP counterpart of a
//! host-managed node).

use nmp_sim::{Addr, Arena, ThreadCtx, NULL};
use workloads::{Key, Value};

use super::node;

/// Result of a single-threaded traversal.
pub struct SeqFound {
    /// Predecessor at each level `0..levels` (nodes with `key < target`).
    pub preds: Vec<Addr>,
    /// Node with exactly the target key, if present.
    pub found: Option<Addr>,
}

/// Allocate and zero a partition sentinel with `levels` next pointers.
pub fn make_sentinel(arena: &Arena, ram: &nmp_sim::Ram, levels: u32) -> Addr {
    let head = node::alloc_node(arena, levels);
    node::raw_init(ram, head, 0, 0, levels, levels, NULL);
    head
}

/// Top-down traversal from `start` (a full-height node whose key is `<=`
/// every key reachable below it). Fills predecessors at every level.
pub fn find(ctx: &mut ThreadCtx, start: Addr, levels: u32, key: Key) -> SeqFound {
    let mut preds = vec![start; levels as usize];
    let mut curr = start;
    for l in (0..levels).rev() {
        loop {
            let (nxt, _) = node::read_next(ctx, curr, l);
            if nxt == NULL {
                break;
            }
            let h = node::read_header(ctx, nxt);
            ctx.step();
            if h.key < key {
                curr = nxt;
            } else {
                break;
            }
        }
        preds[l as usize] = curr;
    }
    let (cand, _) = node::read_next(ctx, curr, 0);
    let found =
        if cand != NULL && node::read_header(ctx, cand).key == key { Some(cand) } else { None };
    SeqFound { preds, found }
}

/// Insert `key` if absent. `height` is the key's full height; the stored
/// level count is capped at `levels` (Listing 2, lines 18–21). Returns the
/// new node's address, or `None` on duplicate.
#[allow(clippy::too_many_arguments)]
pub fn insert(
    ctx: &mut ThreadCtx,
    arena: &Arena,
    start: Addr,
    levels: u32,
    key: Key,
    value: Value,
    height: u32,
    host_ptr: Addr,
) -> Option<Addr> {
    let f = find(ctx, start, levels, key);
    if f.found.is_some() {
        return None;
    }
    let stored = height.min(levels);
    let n = node::alloc_node(arena, stored);
    node::init_node(ctx, n, key, value, height, stored, host_ptr);
    for l in 0..stored {
        let (succ, _) = node::read_next(ctx, f.preds[l as usize], l);
        node::write_next(ctx, n, l, succ, false);
        node::write_next(ctx, f.preds[l as usize], l, n, false);
    }
    Some(n)
}

/// Remove `key` if present: first mark the node logically deleted, then
/// physically unlink it (§3.3 — the logical mark lets a concurrent
/// operation detect that its begin-NMP-traversal node is stale).
pub fn remove(ctx: &mut ThreadCtx, start: Addr, levels: u32, key: Key) -> bool {
    let f = find(ctx, start, levels, key);
    let Some(n) = f.found else {
        return false;
    };
    node::mark_deleted(ctx, n);
    let stored = ((ctx.read_u64(n + 16) >> 32) & 0xFF) as u32;
    for l in (0..stored).rev() {
        let (succ, _) = node::read_next(ctx, n, l);
        let (pn, _) = node::read_next(ctx, f.preds[l as usize], l);
        if pn == n {
            node::write_next(ctx, f.preds[l as usize], l, succ, false);
        }
    }
    true
}

/// Read the value for `key`.
pub fn read(ctx: &mut ThreadCtx, start: Addr, levels: u32, key: Key) -> Option<Value> {
    find(ctx, start, levels, key).found.map(|n| node::read_value(ctx, n))
}

/// Update the value of `key`; returns the node's host-side counterpart
/// pointer (NULL if none) so the host can propagate the new value (§3.3).
pub fn update(
    ctx: &mut ThreadCtx,
    start: Addr,
    levels: u32,
    key: Key,
    value: Value,
) -> Option<Addr> {
    let n = find(ctx, start, levels, key).found?;
    node::write_value(ctx, n, value);
    Some(node::read_cross(ctx, n))
}

/// Range scan: walk level 0 from the first key `>= key`, reading up to
/// `len` live pairs (the chain is partition-local, so the walk naturally
/// stops at the partition boundary). Returns the number of pairs read.
pub fn scan(ctx: &mut ThreadCtx, start: Addr, levels: u32, key: Key, len: u32) -> u32 {
    let f = find(ctx, start, levels, key);
    let (mut cur, _) = node::read_next(ctx, f.preds[0], 0);
    let mut count = 0;
    while cur != NULL && count < len {
        let _value = node::read_value(ctx, cur);
        count += 1;
        let (nxt, _) = node::read_next(ctx, cur, 0);
        cur = nxt;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_sim::{Config, Machine, ThreadKind};
    use std::sync::Arc;

    const LV: u32 = 6;

    /// Run a closure on NMP core 0 with a fresh sentinel; returns results
    /// via the closure's captured state.
    fn on_nmp(f: impl FnOnce(&mut ThreadCtx, &Arena, Addr) + Send + 'static) {
        let m = Machine::new(Config::tiny());
        let head = make_sentinel(m.part_arena(0), m.ram(), LV);
        let mut sim = m.simulation();
        let m2 = Arc::clone(&m);
        sim.spawn("nmp0", ThreadKind::Nmp { part: 0 }, move |ctx| {
            f(ctx, m2.part_arena(0), head);
        });
        sim.run();
    }

    #[test]
    fn insert_then_read() {
        on_nmp(|ctx, arena, head| {
            assert!(insert(ctx, arena, head, LV, 100, 7, 3, NULL).is_some());
            assert_eq!(read(ctx, head, LV, 100), Some(7));
            assert_eq!(read(ctx, head, LV, 101), None);
        });
    }

    #[test]
    fn duplicate_insert_rejected() {
        on_nmp(|ctx, arena, head| {
            assert!(insert(ctx, arena, head, LV, 5, 1, 2, NULL).is_some());
            assert!(insert(ctx, arena, head, LV, 5, 2, 2, NULL).is_none());
            assert_eq!(read(ctx, head, LV, 5), Some(1));
        });
    }

    #[test]
    fn remove_marks_deleted_before_unlink() {
        on_nmp(|ctx, arena, head| {
            let n = insert(ctx, arena, head, LV, 9, 9, 1, NULL).unwrap();
            assert!(remove(ctx, head, LV, 9));
            assert_eq!(read(ctx, head, LV, 9), None);
            // Logical deletion flag survives physical unlink.
            assert!(node::read_header(ctx, n).deleted);
            assert!(!remove(ctx, head, LV, 9), "double remove fails");
        });
    }

    #[test]
    fn ordered_iteration_after_mixed_inserts() {
        on_nmp(|ctx, arena, head| {
            for &k in &[50u32, 10, 30, 20, 40] {
                insert(ctx, arena, head, LV, k, k, (k % 5) + 1, NULL);
            }
            // Walk level 0 and check sorted order.
            let mut prev = 0;
            let (mut cur, _) = node::read_next(ctx, head, 0);
            let mut count = 0;
            while cur != NULL {
                let h = node::read_header(ctx, cur);
                assert!(h.key > prev);
                prev = h.key;
                let (nxt, _) = node::read_next(ctx, cur, 0);
                cur = nxt;
                count += 1;
            }
            assert_eq!(count, 5);
        });
    }

    #[test]
    fn height_capped_at_partition_levels() {
        on_nmp(|ctx, arena, head| {
            let n = insert(ctx, arena, head, LV, 7, 7, 31, NULL).unwrap();
            let stored = ((ctx.read_u64(n + 16) >> 32) & 0xFF) as u32;
            assert_eq!(stored, LV);
            let hdr = node::read_header(ctx, n);
            assert_eq!(hdr.height, 31, "full height preserved in header");
        });
    }

    #[test]
    fn begin_node_shortcut_traversal() {
        on_nmp(|ctx, arena, head| {
            for k in 1..=20u32 {
                insert(ctx, arena, head, LV, k * 10, k, LV, NULL);
            }
            // Start from the node with key 100 (full height) and find 150.
            let begin = find(ctx, head, LV, 100).found.unwrap();
            let f = find(ctx, begin, LV, 150);
            assert!(f.found.is_some());
            assert_eq!(node::read_header(ctx, f.found.unwrap()).key, 150);
        });
    }

    #[test]
    fn scan_reads_consecutive_pairs() {
        on_nmp(|ctx, arena, head| {
            for k in 1..=30u32 {
                insert(ctx, arena, head, LV, k * 10, k, 2, NULL);
            }
            assert_eq!(scan(ctx, head, LV, 95, 5), 5, "100..140");
            assert_eq!(scan(ctx, head, LV, 295, 100), 1, "only 300 left");
            assert_eq!(scan(ctx, head, LV, 301, 10), 0, "past the end");
            assert_eq!(scan(ctx, head, LV, 0, 1000), 30, "whole partition");
        });
    }

    #[test]
    fn update_returns_host_ptr() {
        on_nmp(|ctx, arena, head| {
            insert(ctx, arena, head, LV, 11, 1, 2, 0xAB0).unwrap();
            let hp = update(ctx, head, LV, 11, 99);
            assert_eq!(hp, Some(0xAB0));
            assert_eq!(read(ctx, head, LV, 11), Some(99));
            assert_eq!(update(ctx, head, LV, 12, 1), None);
        });
    }
}
