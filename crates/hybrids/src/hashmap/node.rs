//! Chain-node layout of the hybrid hash map's NMP-managed buckets.
//!
//! ```text
//! w0  key (lo u32)
//! w1  value (lo u32)
//! w2  next chain node (lo u32; NULL terminates)
//! w3  reserved (padding to one 32-byte allocation)
//! ```
//!
//! Nodes are 32 bytes, 32-byte aligned, so a node never straddles a
//! 128-byte vault/cache block and the NMP core's node-size register buffer
//! holds a whole node after one fill.

// xtask: accessor-module — all raw (untimed) hash-map memory access lives
// here; other modules go through these helpers.

use nmp_sim::{Addr, Arena, Ram, ThreadCtx};
use workloads::{Key, Value};

/// Bytes per chain node (power of two; see module docs).
pub const NODE_BYTES: u32 = 32;
/// Alignment of every chain node.
pub const NODE_ALIGN: u32 = 32;

/// Allocate one chain node.
pub fn alloc_node(arena: &Arena) -> Addr {
    arena.alloc_aligned(NODE_BYTES, NODE_ALIGN)
}

/// Return a chain node to its arena.
pub fn free_node(arena: &Arena, node: Addr) {
    arena.free(node, NODE_BYTES, NODE_ALIGN);
}

// ---- untimed (population / invariant checking) ----

/// Untimed full-node initialization.
pub fn raw_init(ram: &Ram, node: Addr, key: Key, value: Value, next: Addr) {
    ram.write_u64(node, key as u64);
    ram.write_u64(node + 8, value as u64);
    ram.write_u64(node + 16, next as u64);
    ram.write_u64(node + 24, 0);
}

/// Untimed key read.
pub fn raw_key(ram: &Ram, node: Addr) -> Key {
    ram.read_u64(node) as u32
}

/// Untimed value read.
pub fn raw_value(ram: &Ram, node: Addr) -> Value {
    ram.read_u64(node + 8) as u32
}

/// Untimed next-pointer read.
pub fn raw_next(ram: &Ram, node: Addr) -> Addr {
    ram.read_u64(node + 16) as u32
}

/// Untimed read of a bucket head slot.
pub fn raw_head(ram: &Ram, slot: Addr) -> Addr {
    ram.read_u64(slot) as u32
}

/// Untimed write of a bucket head slot.
pub fn raw_set_head(ram: &Ram, slot: Addr, head: Addr) {
    ram.write_u64(slot, head as u64);
}

/// Untimed write of one packed directory routing word.
pub fn raw_set_route(ram: &Ram, dir: Addr, bucket: u32, word: u64) {
    ram.write_u64(dir + bucket * 8, word);
}

// ---- timed (combiner execution) ----

/// Timed key read.
pub fn read_key(ctx: &mut ThreadCtx, node: Addr) -> Key {
    ctx.read_u64(node) as u32
}

/// Timed value read.
pub fn read_value(ctx: &mut ThreadCtx, node: Addr) -> Value {
    ctx.read_u64(node + 8) as u32
}

/// Timed value write.
pub fn write_value(ctx: &mut ThreadCtx, node: Addr, value: Value) {
    ctx.write_u64(node + 8, value as u64);
}

/// Timed next-pointer read.
pub fn read_next(ctx: &mut ThreadCtx, node: Addr) -> Addr {
    ctx.read_u64(node + 16) as u32
}

/// Timed next-pointer write.
pub fn write_next(ctx: &mut ThreadCtx, node: Addr, next: Addr) {
    ctx.write_u64(node + 16, next as u64);
}

/// Timed initialization of a freshly allocated node.
pub fn init_node(ctx: &mut ThreadCtx, node: Addr, key: Key, value: Value, next: Addr) {
    ctx.write_u64(node, key as u64);
    ctx.write_u64(node + 8, value as u64);
    ctx.write_u64(node + 16, next as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        let ram = nmp_sim::Ram::new(4096);
        raw_init(&ram, 64, 0xBEEF, 7, 0x120);
        assert_eq!(raw_key(&ram, 64), 0xBEEF);
        assert_eq!(raw_value(&ram, 64), 7);
        assert_eq!(raw_next(&ram, 64), 0x120);
    }

    #[test]
    fn node_fits_one_block() {
        assert_eq!(NODE_BYTES, 32);
        assert_eq!(128 % NODE_ALIGN, 0, "aligned nodes never straddle a block");
    }

    #[test]
    fn alloc_free_reuses() {
        let arena = Arena::new("test", 128, 1 << 14);
        let a = alloc_node(&arena);
        free_node(&arena, a);
        assert_eq!(alloc_node(&arena), a, "freelist reuse");
    }
}
