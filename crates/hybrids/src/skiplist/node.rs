//! Skiplist node layout in simulated memory.
//!
//! ```text
//! w0  key (lo u32) | height (bits 32..40) | deleted flag (bit 40)
//! w1  value (lo u32)
//! w2  cross pointer (lo u32) | stored levels (bits 32..40)
//! w3+ next pointer per stored level: addr (lo u32) with mark in bit 0
//! ```
//!
//! * `height` is the node's full height drawn from the geometric
//!   distribution (shared between the host and NMP portions of a hybrid
//!   node so both sides agree on how the key was classified).
//! * `cross` is the host node's `nmp_ptr` / the NMP node's `host_ptr`.
//! * The *deleted flag* is the NMP-side logical-deletion mark (§3.3): a
//!   single-threaded NMP core sets it before physically unlinking, so a
//!   stale begin-NMP-traversal pointer is detectable.
//! * Mark bits on next pointers are the lock-free (host-side) deletion
//!   marks of the Herlihy–Lev–Shavit algorithm.

// xtask: accessor-module — all raw (untimed) skiplist memory access lives
// here; everything else must go through these typed helpers.

use nmp_sim::{Addr, Ram, ThreadCtx};
use workloads::{mix64, Key, Value};

/// Byte offset of the first next-pointer word.
pub const HDR_BYTES: u32 = 24;

/// Total bytes of a node storing `levels` next pointers, rounded up to a
/// whole number of 128-byte blocks. Nodes are block-aligned so one node
/// occupies exactly one cache block / NMP node-buffer block (up to 13
/// levels) — the cache-conscious layout the paper's 128 B/node sizing
/// assumes, and what makes the NMP core's single node-size register buffer
/// effective (§2).
pub fn node_bytes(levels: u32) -> u32 {
    (HDR_BYTES + 8 * levels).div_ceil(128) * 128
}

/// Alignment of every skiplist node.
pub const NODE_ALIGN: u32 = 128;

/// Allocate one block-aligned node with `levels` next pointers.
pub fn alloc_node(arena: &nmp_sim::Arena, levels: u32) -> nmp_sim::Addr {
    arena.alloc_aligned(node_bytes(levels), NODE_ALIGN)
}

/// Return a node to its arena.
pub fn free_node(arena: &nmp_sim::Arena, node: nmp_sim::Addr, levels: u32) {
    arena.free(node, node_bytes(levels), NODE_ALIGN);
}

/// Byte offset of the level-`l` next pointer.
#[inline]
pub fn next_off(l: u32) -> u32 {
    HDR_BYTES + 8 * l
}

const DELETED_BIT: u64 = 1 << 40;

#[inline]
fn pack_w0(key: Key, height: u32) -> u64 {
    key as u64 | ((height as u64 & 0xFF) << 32)
}

#[inline]
fn pack_w2(cross: Addr, levels: u32) -> u64 {
    cross as u64 | ((levels as u64 & 0xFF) << 32)
}

/// Decoded header word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The node's key.
    pub key: Key,
    /// Full geometric height (shared across a hybrid node's two halves).
    pub height: u32,
    /// NMP-side logical-deletion flag (§3.3).
    pub deleted: bool,
}

#[inline]
fn unpack_w0(w: u64) -> Header {
    Header { key: w as u32, height: ((w >> 32) & 0xFF) as u32, deleted: w & DELETED_BIT != 0 }
}

/// Decoded next pointer: `(successor, mark)`.
#[inline]
pub fn unpack_next(w: u64) -> (Addr, bool) {
    ((w as u32) & !1, w & 1 != 0)
}

/// Encode a next pointer (mark in bit 0; inverse of [`unpack_next`]).
#[inline]
pub fn pack_next(ptr: Addr, mark: bool) -> u64 {
    debug_assert_eq!(ptr & 1, 0);
    (ptr | mark as u32) as u64
}

/// Deterministic node height for `key` under `seed`: geometric p = 1/2,
/// in `[1, max]`. Deriving the height from the key keeps whole simulations
/// reproducible and keeps the host/NMP split classification of a key stable
/// across structures being compared.
pub fn height_for_key(key: Key, seed: u64, max: u32) -> u32 {
    let bits = mix64(seed ^ ((key as u64) << 1) ^ 0x5EED_0001);
    (bits.trailing_ones() + 1).min(max)
}

// ---- untimed (population / invariant checking) ----

/// Untimed node initialization: header, value, cross word, null nexts.
pub fn raw_init(
    ram: &Ram,
    node: Addr,
    key: Key,
    value: Value,
    height: u32,
    levels: u32,
    cross: Addr,
) {
    ram.write_u64(node, pack_w0(key, height));
    ram.write_u64(node + 8, value as u64);
    ram.write_u64(node + 16, pack_w2(cross, levels));
    for l in 0..levels {
        ram.write_u64(node + next_off(l), pack_next(nmp_sim::NULL, false));
    }
}

/// Untimed read of the header word.
pub fn raw_header(ram: &Ram, node: Addr) -> Header {
    unpack_w0(ram.read_u64(node))
}

/// Untimed read of the value word.
pub fn raw_value(ram: &Ram, node: Addr) -> Value {
    ram.read_u64(node + 8) as u32
}

/// Untimed read of the stored-levels count (this portion's level count,
/// not the full height).
pub fn raw_levels(ram: &Ram, node: Addr) -> u32 {
    ((ram.read_u64(node + 16) >> 32) & 0xFF) as u32
}

/// Untimed read of the cross pointer (host `nmp_ptr` / NMP `host_ptr`).
pub fn raw_cross(ram: &Ram, node: Addr) -> Addr {
    ram.read_u64(node + 16) as u32
}

/// Untimed write of the cross pointer (preserves the levels field).
pub fn raw_set_cross(ram: &Ram, node: Addr, cross: Addr) {
    let levels = raw_levels(ram, node);
    ram.write_u64(node + 16, pack_w2(cross, levels));
}

/// Untimed read of the level-`l` next pointer.
pub fn raw_next(ram: &Ram, node: Addr, l: u32) -> (Addr, bool) {
    unpack_next(ram.read_u64(node + next_off(l)))
}

/// Untimed write of the level-`l` next pointer.
pub fn raw_set_next(ram: &Ram, node: Addr, l: u32, ptr: Addr, mark: bool) {
    ram.write_u64(node + next_off(l), pack_next(ptr, mark));
}

// ---- timed (operation execution) ----

/// Timed read of the header word.
pub fn read_header(ctx: &mut ThreadCtx, node: Addr) -> Header {
    unpack_w0(ctx.read_u64(node))
}

/// Set the logical-deletion flag (NMP-side removals, §3.3).
pub fn mark_deleted(ctx: &mut ThreadCtx, node: Addr) {
    let w = ctx.read_u64(node);
    ctx.write_u64(node, w | DELETED_BIT);
}

/// Timed read of the value word.
pub fn read_value(ctx: &mut ThreadCtx, node: Addr) -> Value {
    ctx.read_u64(node + 8) as u32
}

/// Timed in-place value update (release).
pub fn write_value(ctx: &mut ThreadCtx, node: Addr, value: Value) {
    // Release: in-place updates publish the new value to unsynchronized
    // concurrent readers (reads of the value word are plain and race-free
    // because the word itself becomes a sync cell).
    ctx.write_u64_release(node + 8, value as u64);
}

/// Timed read of the cross pointer.
pub fn read_cross(ctx: &mut ThreadCtx, node: Addr) -> Addr {
    ctx.read_u64(node + 16) as u32
}

/// Timed write of the cross pointer (preserves the levels field).
pub fn write_cross(ctx: &mut ThreadCtx, node: Addr, cross: Addr) {
    let levels = ((ctx.read_u64(node + 16) >> 32) & 0xFF) as u32;
    ctx.write_u64(node + 16, pack_w2(cross, levels));
}

/// Timed read of the level-`l` next pointer.
pub fn read_next(ctx: &mut ThreadCtx, node: Addr, l: u32) -> (Addr, bool) {
    unpack_next(ctx.read_u64(node + next_off(l)))
}

/// Timed write of the level-`l` next pointer (single-owner paths only;
/// contended updates go through [`cas_next`]).
pub fn write_next(ctx: &mut ThreadCtx, node: Addr, l: u32, ptr: Addr, mark: bool) {
    ctx.write_u64(node + next_off(l), pack_next(ptr, mark));
}

/// CAS a next pointer from `(old_ptr, old_mark)` to `(new_ptr, new_mark)`.
pub fn cas_next(
    ctx: &mut ThreadCtx,
    node: Addr,
    l: u32,
    old: (Addr, bool),
    new: (Addr, bool),
) -> bool {
    ctx.cas_u64(node + next_off(l), pack_next(old.0, old.1), pack_next(new.0, new.1)).is_ok()
}

/// Timed initialization of a freshly allocated node (the writes a real CPU
/// would perform to construct it).
#[allow(clippy::too_many_arguments)]
pub fn init_node(
    ctx: &mut ThreadCtx,
    node: Addr,
    key: Key,
    value: Value,
    height: u32,
    levels: u32,
    cross: Addr,
) {
    ctx.write_u64(node, pack_w0(key, height));
    ctx.write_u64(node + 8, value as u64);
    ctx.write_u64(node + 16, pack_w2(cross, levels));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let ram = Ram::new(4096);
        raw_init(&ram, 64, 0xBEEF, 7, 5, 3, 0x100);
        let h = raw_header(&ram, 64);
        assert_eq!(h.key, 0xBEEF);
        assert_eq!(h.height, 5);
        assert!(!h.deleted);
        assert_eq!(raw_value(&ram, 64), 7);
        assert_eq!(raw_levels(&ram, 64), 3);
        assert_eq!(raw_cross(&ram, 64), 0x100);
    }

    #[test]
    fn next_pack_mark() {
        let (p, m) = unpack_next(pack_next(0x1238, true));
        assert_eq!(p, 0x1238);
        assert!(m);
        let (p, m) = unpack_next(pack_next(0x1238, false));
        assert_eq!(p, 0x1238);
        assert!(!m);
    }

    #[test]
    fn heights_deterministic_and_geometric() {
        let h1 = height_for_key(12345, 9, 32);
        let h2 = height_for_key(12345, 9, 32);
        assert_eq!(h1, h2);
        let n = 100_000u32;
        let ones = (0..n).filter(|k| height_for_key(k * 8, 1, 32) == 1).count();
        assert!((45_000..55_000).contains(&ones), "P(h=1) should be ~1/2, got {ones}");
    }

    #[test]
    fn heights_capped() {
        for k in 0..10_000u32 {
            assert!(height_for_key(k, 2, 4) <= 4);
        }
    }

    #[test]
    fn node_bytes_block_rounded() {
        assert_eq!(node_bytes(1), 128);
        assert_eq!(node_bytes(13), 128, "up to 13 levels fit one block");
        assert_eq!(node_bytes(14), 256);
        assert_eq!(next_off(0), 24);
        assert_eq!(next_off(3), 48);
    }

    #[test]
    fn raw_set_next_roundtrip() {
        let ram = Ram::new(4096);
        raw_init(&ram, 64, 1, 1, 2, 2, 0);
        raw_set_next(&ram, 64, 1, 0x200, true);
        assert_eq!(raw_next(&ram, 64, 1), (0x200, true));
        assert_eq!(raw_next(&ram, 64, 0), (nmp_sim::NULL, false));
    }

    #[test]
    fn cross_update_preserves_levels() {
        let ram = Ram::new(4096);
        raw_init(&ram, 64, 1, 1, 6, 4, 0);
        raw_set_cross(&ram, 64, 0xABC0);
        assert_eq!(raw_cross(&ram, 64), 0xABC0);
        assert_eq!(raw_levels(&ram, 64), 4);
    }
}
