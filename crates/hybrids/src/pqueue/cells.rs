//! Host-resident minimum-cache sync cells of the hybrid priority queue.
//!
//! One 8-byte word per partition, packed by [`pack`]: bit 32 flags the
//! partition non-empty, the low 32 bits hold its cached minimum key. The
//! cells follow a release/acquire protocol — completions publish a
//! combiner-reported minimum with a release store ([`publish`]) and the
//! merge step reads each cell with an acquire load ([`load`]) — so
//! concurrent refreshes are last-writer-wins and never race.

// xtask: accessor-module — all raw (untimed) minima-cell memory access
// lives here; other modules go through these helpers.

use nmp_sim::{Addr, Ram, ThreadCtx};
use workloads::Key;

/// Minimum-cache word: bit 32 = partition non-empty, low 32 bits = min key.
pub const PRESENT: u64 = 1 << 32;

/// Pack a partition minimum into one cache word.
pub fn pack(min_key: Key, present: bool) -> u64 {
    if present {
        PRESENT | min_key as u64
    } else {
        0
    }
}

/// Address of partition `p`'s cell.
fn cell(base: Addr, p: usize) -> Addr {
    base + p as u32 * 8
}

/// Untimed cell write (structure build / bulk population).
pub fn raw_set(ram: &Ram, base: Addr, p: usize, word: u64) {
    ram.write_u64(cell(base, p), word);
}

/// Timed release publish of a combiner-reported minimum.
pub fn publish(ctx: &mut ThreadCtx, base: Addr, p: usize, word: u64) {
    ctx.write_u64_release(cell(base, p), word);
}

/// Timed acquire load of one cell during the merge step.
pub fn load(ctx: &mut ThreadCtx, base: Addr, p: usize) -> u64 {
    ctx.read_u64_acquire(cell(base, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        assert_eq!(pack(0, false), 0);
        assert_eq!(pack(0xABCD, true), PRESENT | 0xABCD);
        assert_eq!(pack(0xABCD, true) as u32, 0xABCD);
        assert!(pack(42, true) & PRESENT != 0);
    }

    #[test]
    fn raw_set_targets_cell() {
        let ram = nmp_sim::Ram::new(4096);
        raw_set(&ram, 256, 3, pack(9, true));
        assert_eq!(ram.read_u64(256 + 24), PRESENT | 9);
    }
}
