//! B+ tree node layout: 128-byte cache-block-aligned nodes (§3.4), with
//! 4-byte keys/values/pointers as in the paper's DBx1000-style trees.
//!
//! ```text
//! bytes 0..4    seqnum (host nodes) / parent_seqnum (NMP nodes)
//! bytes 4..8    meta: level (u8) | slotuse (u8) | lock (u8) | unused (u8)
//! bytes 8..64   keys[14]            (u32 each)
//! bytes 64..120 leaf: values[14]    (u32 each)
//!               inner: children[0..14]
//! bytes 120..124 leaf: next-leaf pointer; inner: children[14]
//! bytes 124..128 unused
//! ```
//!
//! A leaf (level 0) holds up to 14 key/value pairs; an inner node holds up
//! to 14 dividing keys and 15 children. The subtree left of `keys[i]`
//! contains keys `<= keys[i]`; to the right, `> keys[i]`.

// xtask: accessor-module — all raw (untimed) B+ tree memory access lives
// here; other modules go through these helpers.

use nmp_sim::{Addr, Arena, Ram, ThreadCtx};
use workloads::{Key, Value};

/// Node size in bytes (one cache block in the Table 1 configuration).
pub const NODE_BYTES: u32 = 128;
/// Max key/value pairs in a leaf.
pub const LEAF_MAX: u32 = 14;
/// Max dividing keys in an inner node (children = INNER_MAX + 1).
pub const INNER_MAX: u32 = 14;

const KEYS_OFF: u32 = 8;
const PAYLOAD_OFF: u32 = 64;

/// Allocate one zeroed node (128-byte aligned so nodes match cache blocks
/// and NMP-buffer blocks exactly).
pub fn alloc_node(arena: &Arena) -> Addr {
    arena.alloc_aligned(NODE_BYTES, 128)
}

/// Return a node's 128 bytes to the arena (merge/relocation cleanup).
pub fn free_node(arena: &Arena, node: Addr) {
    arena.free(node, NODE_BYTES, 128);
}

/// Unpacked node metadata word (`node + 4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Height in the tree: `0` for leaves, parents one more than children.
    pub level: u32,
    /// Number of keys currently stored in the node.
    pub slotuse: u32,
    /// NMP-side node lock bit (host nodes use the seqlock word instead).
    pub locked: bool,
}

impl Meta {
    fn pack(self) -> u32 {
        self.level | (self.slotuse << 8) | ((self.locked as u32) << 16)
    }

    fn unpack(v: u32) -> Meta {
        Meta { level: v & 0xFF, slotuse: (v >> 8) & 0xFF, locked: (v >> 16) & 1 != 0 }
    }

    /// Whether this node is a leaf (`level == 0`).
    pub fn is_leaf(self) -> bool {
        self.level == 0
    }
}

// ---- untimed (population / inspection) ----

/// Untimed node initialization: zero everything, then write the header.
pub fn raw_init(ram: &Ram, node: Addr, level: u32, slotuse: u32) {
    ram.write_u64(node, (Meta { level, slotuse, locked: false }.pack() as u64) << 32);
    for w in 1..16 {
        ram.write_u64(node + w * 8, 0);
    }
}

/// Untimed read of the metadata word.
pub fn raw_meta(ram: &Ram, node: Addr) -> Meta {
    Meta::unpack(ram.read_u32(node + 4))
}

/// Untimed read of the seqlock word.
pub fn raw_seq(ram: &Ram, node: Addr) -> u32 {
    ram.read_u32(node)
}

/// Untimed write of the seqlock word.
pub fn raw_set_seq(ram: &Ram, node: Addr, seq: u32) {
    ram.write_u32(node, seq);
}

/// Untimed read of key slot `i`.
pub fn raw_key(ram: &Ram, node: Addr, i: u32) -> Key {
    debug_assert!(i < INNER_MAX);
    ram.read_u32(node + KEYS_OFF + 4 * i)
}

/// Untimed read of a tree's root-word cell.
pub fn raw_root(ram: &Ram, root_word: Addr) -> Addr {
    ram.read_u32(root_word)
}

/// Untimed initialization of a tree's root-word cell (structure build).
pub fn raw_set_root(ram: &Ram, root_word: Addr, root: Addr) {
    ram.write_u32(root_word, root);
}

/// Untimed word-for-word node copy (push-down subtree relocation).
pub fn raw_copy_node(ram: &Ram, old: Addr, new: Addr) {
    for w in 0..NODE_BYTES / 8 {
        ram.write_u64(new + w * 8, ram.read_u64(old + w * 8));
    }
}

/// Untimed write of key slot `i`.
pub fn raw_set_key(ram: &Ram, node: Addr, i: u32, k: Key) {
    ram.write_u32(node + KEYS_OFF + 4 * i, k);
}

/// Payload slot `i`: value in a leaf, child pointer in an inner node
/// (children have one more slot than keys).
pub fn raw_payload(ram: &Ram, node: Addr, i: u32) -> u32 {
    debug_assert!(i <= INNER_MAX);
    ram.read_u32(node + PAYLOAD_OFF + 4 * i)
}

/// Untimed write of payload slot `i` (see [`raw_payload`]).
pub fn raw_set_payload(ram: &Ram, node: Addr, i: u32, v: u32) {
    debug_assert!(i <= INNER_MAX);
    ram.write_u32(node + PAYLOAD_OFF + 4 * i, v);
}

// ---- timed ----

/// Timed read of the seqlock word.
pub fn read_seq(ctx: &mut ThreadCtx, node: Addr) -> u32 {
    // Acquire: the seqnum is the node's synchronization word — observing an
    // even value must order the reader after the writer's release below.
    ctx.read_u32_acquire(node)
}

/// Timed write of the seqlock word.
pub fn write_seq(ctx: &mut ThreadCtx, node: Addr, seq: u32) {
    // Release: publishes the critical section's writes (or, when a split
    // replicates a seqnum into a fresh node, publishes the new node).
    ctx.write_u32_release(node, seq)
}

/// Try to lock a host node's sequence lock: even -> odd CAS.
pub fn try_lock_seq(ctx: &mut ThreadCtx, node: Addr, expect_even: u32) -> bool {
    debug_assert_eq!(expect_even % 2, 0);
    ctx.cas_u32(node, expect_even, expect_even + 1).is_ok()
}

/// Release a host node's sequence lock (odd -> even increment).
pub fn unlock_seq(ctx: &mut ThreadCtx, node: Addr) {
    let s = read_seq(ctx, node);
    debug_assert_eq!(s % 2, 1, "unlock of an unlocked node");
    write_seq(ctx, node, s + 1);
}

/// Timed read of the metadata word.
pub fn read_meta(ctx: &mut ThreadCtx, node: Addr) -> Meta {
    Meta::unpack(ctx.read_u32(node + 4))
}

/// Timed write of the metadata word.
pub fn write_meta(ctx: &mut ThreadCtx, node: Addr, m: Meta) {
    ctx.write_u32(node + 4, m.pack())
}

/// Timed read of key slot `i`.
pub fn read_key(ctx: &mut ThreadCtx, node: Addr, i: u32) -> Key {
    ctx.read_u32(node + KEYS_OFF + 4 * i)
}

/// Timed write of key slot `i`.
pub fn write_key(ctx: &mut ThreadCtx, node: Addr, i: u32, k: Key) {
    ctx.write_u32(node + KEYS_OFF + 4 * i, k)
}

/// Timed read of payload slot `i` (see [`raw_payload`]).
pub fn read_payload(ctx: &mut ThreadCtx, node: Addr, i: u32) -> u32 {
    ctx.read_u32(node + PAYLOAD_OFF + 4 * i)
}

/// Timed write of payload slot `i` (see [`raw_payload`]).
pub fn write_payload(ctx: &mut ThreadCtx, node: Addr, i: u32, v: u32) {
    ctx.write_u32(node + PAYLOAD_OFF + 4 * i, v)
}

/// Timed node initialization (writes a fresh node's header).
pub fn init_node(ctx: &mut ThreadCtx, node: Addr, level: u32, slotuse: u32) {
    write_seq(ctx, node, 0);
    write_meta(ctx, node, Meta { level, slotuse, locked: false });
}

// ---- timed, speculative ----
//
// Optimistic read paths (seqlock-validated descents and leaf probes) read
// node contents that a concurrent writer may be mutating; the seqnum
// re-check discards any torn result. These `_spec` variants cost the same
// simulated cycles as their plain counterparts but tell the race detector
// the read is validated elsewhere and must not be reported.

/// Speculative [`read_meta`] for seqlock-validated paths.
pub fn read_meta_spec(ctx: &mut ThreadCtx, node: Addr) -> Meta {
    Meta::unpack(ctx.read_u32_speculative(node + 4))
}

/// Speculative [`read_key`] for seqlock-validated paths.
pub fn read_key_spec(ctx: &mut ThreadCtx, node: Addr, i: u32) -> Key {
    ctx.read_u32_speculative(node + KEYS_OFF + 4 * i)
}

/// Speculative [`read_payload`] for seqlock-validated paths.
pub fn read_payload_spec(ctx: &mut ThreadCtx, node: Addr, i: u32) -> u32 {
    ctx.read_u32_speculative(node + PAYLOAD_OFF + 4 * i)
}

/// Index of the child to follow for `key` in an inner node
/// (`find_child` of Listings 4/5): first `i` with `key <= keys[i]`,
/// else `slotuse`.
pub fn find_child_idx(ctx: &mut ThreadCtx, node: Addr, slotuse: u32, key: Key) -> u32 {
    for i in 0..slotuse {
        ctx.step();
        if key <= read_key(ctx, node, i) {
            return i;
        }
    }
    slotuse
}

/// Speculative [`find_child_idx`] for seqlock-validated descents.
pub fn find_child_idx_spec(ctx: &mut ThreadCtx, node: Addr, slotuse: u32, key: Key) -> u32 {
    for i in 0..slotuse {
        ctx.step();
        if key <= read_key_spec(ctx, node, i) {
            return i;
        }
    }
    slotuse
}

/// Position of `key` in a leaf, if present.
pub fn leaf_find(ctx: &mut ThreadCtx, node: Addr, slotuse: u32, key: Key) -> Option<u32> {
    for i in 0..slotuse {
        ctx.step();
        let k = read_key(ctx, node, i);
        if k == key {
            return Some(i);
        }
        if k > key {
            return None;
        }
    }
    None
}

/// Speculative [`leaf_find`] for seqlock-validated probes.
pub fn leaf_find_spec(ctx: &mut ThreadCtx, node: Addr, slotuse: u32, key: Key) -> Option<u32> {
    for i in 0..slotuse {
        ctx.step();
        let k = read_key_spec(ctx, node, i);
        if k == key {
            return Some(i);
        }
        if k > key {
            return None;
        }
    }
    None
}

/// Insert `key -> value` into a non-full leaf at its sorted position.
/// Caller has verified the key is absent and holds exclusive access.
pub fn leaf_insert(ctx: &mut ThreadCtx, node: Addr, key: Key, value: Value) {
    let m = read_meta(ctx, node);
    debug_assert!(m.is_leaf() && m.slotuse < LEAF_MAX);
    let mut pos = m.slotuse;
    for i in 0..m.slotuse {
        ctx.step();
        if read_key(ctx, node, i) > key {
            pos = i;
            break;
        }
    }
    let mut i = m.slotuse;
    while i > pos {
        let k = read_key(ctx, node, i - 1);
        let v = read_payload(ctx, node, i - 1);
        write_key(ctx, node, i, k);
        write_payload(ctx, node, i, v);
        i -= 1;
    }
    write_key(ctx, node, pos, key);
    write_payload(ctx, node, pos, value);
    write_meta(ctx, node, Meta { slotuse: m.slotuse + 1, ..m });
}

/// Remove the entry at `pos` from a leaf (shift left). "Free-at-empty":
/// an emptied leaf stays linked (relaxed minimum-occupancy invariant, §3.4).
pub fn leaf_remove_at(ctx: &mut ThreadCtx, node: Addr, pos: u32) {
    let m = read_meta(ctx, node);
    debug_assert!(m.is_leaf() && pos < m.slotuse);
    for i in pos..m.slotuse - 1 {
        let k = read_key(ctx, node, i + 1);
        let v = read_payload(ctx, node, i + 1);
        write_key(ctx, node, i, k);
        write_payload(ctx, node, i, v);
    }
    write_meta(ctx, node, Meta { slotuse: m.slotuse - 1, ..m });
}

/// Insert dividing key `key` and right-child `child` into a non-full inner
/// node, immediately after the slot that currently routes to the split
/// child.
pub fn inner_insert(ctx: &mut ThreadCtx, node: Addr, key: Key, child: Addr) {
    let m = read_meta(ctx, node);
    debug_assert!(!m.is_leaf() && m.slotuse < INNER_MAX);
    let mut pos = m.slotuse;
    for i in 0..m.slotuse {
        ctx.step();
        if read_key(ctx, node, i) > key {
            pos = i;
            break;
        }
    }
    let mut i = m.slotuse;
    while i > pos {
        let k = read_key(ctx, node, i - 1);
        write_key(ctx, node, i, k);
        let c = read_payload(ctx, node, i);
        write_payload(ctx, node, i + 1, c);
        i -= 1;
    }
    write_key(ctx, node, pos, key);
    write_payload(ctx, node, pos + 1, child);
    write_meta(ctx, node, Meta { slotuse: m.slotuse + 1, ..m });
}

/// Split a full leaf: upper half moves to a new node. Returns
/// `(dividing_key, new_right_node)`; keys `<= dividing_key` stay left.
/// The new node replicates the original's seqnum (footnote 3 of the paper)
/// and inherits its next-leaf link.
pub fn split_leaf(ctx: &mut ThreadCtx, arena: &Arena, node: Addr) -> (Key, Addr) {
    let m = read_meta(ctx, node);
    debug_assert!(m.is_leaf() && m.slotuse == LEAF_MAX);
    let right = alloc_node(arena);
    let keep = LEAF_MAX / 2;
    let moved = LEAF_MAX - keep;
    let seq = read_seq(ctx, node);
    write_seq(ctx, right, seq);
    write_meta(ctx, right, Meta { level: 0, slotuse: moved, locked: m.locked });
    for i in 0..moved {
        let k = read_key(ctx, node, keep + i);
        let v = read_payload(ctx, node, keep + i);
        write_key(ctx, right, i, k);
        write_payload(ctx, right, i, v);
    }
    // next-leaf chain: node -> right -> old successor
    let succ = ctx.read_u32(node + 120);
    ctx.write_u32(right + 120, succ);
    ctx.write_u32(node + 120, right);
    write_meta(ctx, node, Meta { slotuse: keep, ..m });
    let div = read_key(ctx, node, keep - 1);
    (div, right)
}

/// Split a full inner node: the middle key is pushed up. Returns
/// `(pushed_key, new_right_node)`.
pub fn split_inner(ctx: &mut ThreadCtx, arena: &Arena, node: Addr) -> (Key, Addr) {
    let m = read_meta(ctx, node);
    debug_assert!(!m.is_leaf() && m.slotuse == INNER_MAX);
    let right = alloc_node(arena);
    let mid = INNER_MAX / 2;
    let moved = INNER_MAX - mid - 1;
    let seq = read_seq(ctx, node);
    write_seq(ctx, right, seq);
    write_meta(ctx, right, Meta { level: m.level, slotuse: moved, locked: m.locked });
    for i in 0..moved {
        let k = read_key(ctx, node, mid + 1 + i);
        write_key(ctx, right, i, k);
    }
    for i in 0..=moved {
        let c = read_payload(ctx, node, mid + 1 + i);
        write_payload(ctx, right, i, c);
    }
    let push = read_key(ctx, node, mid);
    write_meta(ctx, node, Meta { slotuse: mid, ..m });
    (push, right)
}

/// Leaf next-pointer (range-scan support; partition-local in NMP leaves).
pub fn raw_next_leaf(ram: &Ram, node: Addr) -> Addr {
    ram.read_u32(node + 120)
}

/// Untimed write of the leaf next-pointer (see [`raw_next_leaf`]).
pub fn raw_set_next_leaf(ram: &Ram, node: Addr, next: Addr) {
    ram.write_u32(node + 120, next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_sim::{Config, Machine, ThreadKind};
    use std::sync::Arc;

    fn on_host(f: impl FnOnce(&mut ThreadCtx, &Arena) + Send + 'static) {
        let m = Machine::new(Config::tiny());
        let mut sim = m.simulation();
        let m2 = Arc::clone(&m);
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| f(ctx, m2.host_arena()));
        sim.run();
    }

    #[test]
    fn meta_pack_roundtrip() {
        let m = Meta { level: 3, slotuse: 14, locked: true };
        assert_eq!(Meta::unpack(m.pack()), m);
        assert!(!m.is_leaf());
        assert!(Meta { level: 0, slotuse: 0, locked: false }.is_leaf());
    }

    #[test]
    fn leaf_insert_keeps_sorted_order() {
        on_host(|ctx, arena| {
            let n = alloc_node(arena);
            init_node(ctx, n, 0, 0);
            for k in [50u32, 10, 30, 20, 40] {
                leaf_insert(ctx, n, k, k * 2);
            }
            let m = read_meta(ctx, n);
            assert_eq!(m.slotuse, 5);
            let keys: Vec<u32> = (0..5).map(|i| read_key(ctx, n, i)).collect();
            assert_eq!(keys, [10, 20, 30, 40, 50]);
            assert_eq!(read_payload(ctx, n, 2), 60);
        });
    }

    #[test]
    fn leaf_find_and_remove() {
        on_host(|ctx, arena| {
            let n = alloc_node(arena);
            init_node(ctx, n, 0, 0);
            for k in 1..=5u32 {
                leaf_insert(ctx, n, k * 10, k);
            }
            assert_eq!(leaf_find(ctx, n, 5, 30), Some(2));
            assert_eq!(leaf_find(ctx, n, 5, 31), None);
            leaf_remove_at(ctx, n, 2);
            assert_eq!(leaf_find(ctx, n, 4, 30), None);
            assert_eq!(leaf_find(ctx, n, 4, 40), Some(2));
            assert_eq!(read_meta(ctx, n).slotuse, 4);
        });
    }

    #[test]
    fn find_child_routes_less_or_equal_left() {
        on_host(|ctx, arena| {
            let n = alloc_node(arena);
            init_node(ctx, n, 1, 2);
            write_key(ctx, n, 0, 10);
            write_key(ctx, n, 1, 20);
            assert_eq!(find_child_idx(ctx, n, 2, 5), 0);
            assert_eq!(find_child_idx(ctx, n, 2, 10), 0, "<= goes left");
            assert_eq!(find_child_idx(ctx, n, 2, 11), 1);
            assert_eq!(find_child_idx(ctx, n, 2, 20), 1);
            assert_eq!(find_child_idx(ctx, n, 2, 21), 2);
        });
    }

    #[test]
    fn split_leaf_partitions_keys() {
        on_host(|ctx, arena| {
            let n = alloc_node(arena);
            init_node(ctx, n, 0, 0);
            for k in 1..=LEAF_MAX {
                leaf_insert(ctx, n, k * 10, k);
            }
            let (div, right) = split_leaf(ctx, arena, n);
            let lm = read_meta(ctx, n);
            let rm = read_meta(ctx, right);
            assert_eq!(lm.slotuse + rm.slotuse, LEAF_MAX);
            assert_eq!(div, read_key(ctx, n, lm.slotuse - 1));
            // all right keys > div, all left keys <= div
            for i in 0..rm.slotuse {
                assert!(read_key(ctx, right, i) > div);
            }
            for i in 0..lm.slotuse {
                assert!(read_key(ctx, n, i) <= div);
            }
            // leaf chain
            assert_eq!(raw_next_leaf(ctx.mem().ram(), n), right);
        });
    }

    #[test]
    fn split_inner_pushes_middle_key() {
        on_host(|ctx, arena| {
            let n = alloc_node(arena);
            init_node(ctx, n, 2, 0);
            for i in 0..INNER_MAX {
                write_key(ctx, n, i, (i + 1) * 10);
            }
            for i in 0..=INNER_MAX {
                write_payload(ctx, n, i, 0x1000 + i * 128);
            }
            write_meta(ctx, n, Meta { level: 2, slotuse: INNER_MAX, locked: false });
            let (push, right) = split_inner(ctx, arena, n);
            let lm = read_meta(ctx, n);
            let rm = read_meta(ctx, right);
            assert_eq!(push, (INNER_MAX / 2 + 1) * 10);
            assert_eq!(lm.slotuse + rm.slotuse + 1, INNER_MAX);
            assert_eq!(rm.level, 2);
            // child counts consistent: left slotuse+1 + right slotuse+1 = 16
            assert_eq!(read_payload(ctx, right, 0), 0x1000 + (INNER_MAX / 2 + 1) * 128);
        });
    }

    #[test]
    fn inner_insert_places_child_right_of_divider() {
        on_host(|ctx, arena| {
            let n = alloc_node(arena);
            init_node(ctx, n, 1, 1);
            write_key(ctx, n, 0, 100);
            write_payload(ctx, n, 0, 0xA00);
            write_payload(ctx, n, 1, 0xB00);
            inner_insert(ctx, n, 50, 0xC00);
            let m = read_meta(ctx, n);
            assert_eq!(m.slotuse, 2);
            assert_eq!(read_key(ctx, n, 0), 50);
            assert_eq!(read_key(ctx, n, 1), 100);
            assert_eq!(read_payload(ctx, n, 0), 0xA00);
            assert_eq!(read_payload(ctx, n, 1), 0xC00);
            assert_eq!(read_payload(ctx, n, 2), 0xB00);
        });
    }

    #[test]
    fn seq_lock_cycle() {
        on_host(|ctx, arena| {
            let n = alloc_node(arena);
            init_node(ctx, n, 0, 0);
            assert!(try_lock_seq(ctx, n, 0));
            assert_eq!(read_seq(ctx, n), 1);
            assert!(!try_lock_seq(ctx, n, 0), "locked node rejects second lock");
            unlock_seq(ctx, n);
            assert_eq!(read_seq(ctx, n), 2);
            assert!(try_lock_seq(ctx, n, 2));
        });
    }

    #[test]
    fn split_replicates_seqnum() {
        on_host(|ctx, arena| {
            let n = alloc_node(arena);
            init_node(ctx, n, 0, 0);
            write_seq(ctx, n, 7);
            for k in 1..=LEAF_MAX {
                leaf_insert(ctx, n, k * 8, k);
            }
            let (_, right) = split_leaf(ctx, arena, n);
            assert_eq!(read_seq(ctx, right), 7, "footnote 3: seqnum replicated");
        });
    }
}
