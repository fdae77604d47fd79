//! Region allocators for simulated memory.
//!
//! Each region (host heap, each NMP partition) gets an [`Arena`]: a bump
//! allocator with size-binned free lists. Allocation itself is untimed (the
//! cost that matters — initializing and later traversing node memory — is
//! charged when the structure reads/writes the node through the timed
//! access paths).

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::mem::Addr;

struct ArenaInner {
    next: Addr,
    /// Free lists binned by exact (size_bytes, align) pairs. Structures
    /// allocate a small number of distinct shapes, so exact binning is both
    /// simple and fragmentation-free.
    free: HashMap<(u32, u32), Vec<Addr>>,
    live_bytes: u64,
    peak_bytes: u64,
    allocs: u64,
}

/// A bump allocator over `[base, end)` of simulated memory.
pub struct Arena {
    name: &'static str,
    base: Addr,
    end: Addr,
    inner: Mutex<ArenaInner>,
    /// When attached, [`Arena::free`] resets the race detector's per-cell
    /// state for the freed block, so freelist reuse does not manufacture
    /// false races between the block's old and new owners.
    analysis: std::sync::OnceLock<std::sync::Arc<crate::analysis::Analysis>>,
}

impl Arena {
    /// Build an arena covering `[base, base + size)`; `name` labels
    /// out-of-memory panics.
    pub fn new(name: &'static str, base: Addr, size: u32) -> Self {
        assert_eq!(base % 8, 0, "arena base must be 8-aligned");
        Arena {
            name,
            base,
            end: base + size,
            inner: Mutex::new(ArenaInner {
                next: base,
                free: HashMap::new(),
                live_bytes: 0,
                peak_bytes: 0,
                allocs: 0,
            }),
            analysis: std::sync::OnceLock::new(),
        }
    }

    /// Hook the attached correctness checkers into this arena's `free`
    /// path (first attach wins).
    pub(crate) fn attach_analysis(&self, a: std::sync::Arc<crate::analysis::Analysis>) {
        let _ = self.analysis.set(a);
    }

    /// Allocate `bytes` with 8-byte alignment.
    pub fn alloc(&self, bytes: u32) -> Addr {
        self.alloc_aligned(bytes, 8)
    }

    /// Allocate `bytes` aligned to `align` (power of two, >= 8).
    /// Panics on exhaustion — simulated OOM is a configuration bug.
    pub fn alloc_aligned(&self, bytes: u32, align: u32) -> Addr {
        assert!(align.is_power_of_two() && align >= 8);
        assert!(bytes > 0);
        let bytes = bytes.div_ceil(8) * 8;
        let mut g = self.inner.lock();
        if let Some(list) = g.free.get_mut(&(bytes, align)) {
            if let Some(addr) = list.pop() {
                g.live_bytes += bytes as u64;
                g.peak_bytes = g.peak_bytes.max(g.live_bytes);
                g.allocs += 1;
                return addr;
            }
        }
        let addr = g.next.div_ceil(align) * align;
        let new_next = addr.saturating_add(bytes);
        assert!(
            new_next <= self.end,
            "simulated arena '{}' exhausted: capacity {} bytes, requested {} more \
             (raise the corresponding heap size in Config)",
            self.name,
            self.end - self.base,
            bytes
        );
        g.next = new_next;
        g.live_bytes += bytes as u64;
        g.peak_bytes = g.peak_bytes.max(g.live_bytes);
        g.allocs += 1;
        addr
    }

    /// Return a block to the arena. `bytes` and `align` must match the
    /// allocation. (Structures that rely on reading freed nodes for
    /// logical-deletion checks simply never call this — see DESIGN.md.)
    pub fn free(&self, addr: Addr, bytes: u32, align: u32) {
        let bytes = bytes.div_ceil(8) * 8;
        debug_assert!(addr >= self.base && addr + bytes <= self.end);
        debug_assert_eq!(addr % align, 0);
        if let Some(a) = self.analysis.get() {
            a.reset_range(addr, bytes);
        }
        let mut g = self.inner.lock();
        g.live_bytes -= bytes as u64;
        g.free.entry((bytes, align)).or_default().push(addr);
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.inner.lock().live_bytes
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.inner.lock().peak_bytes
    }

    /// Total allocations performed.
    pub fn alloc_count(&self) -> u64 {
        self.inner.lock().allocs
    }

    /// Bytes remaining for fresh (non-freelist) allocation.
    pub fn remaining_bytes(&self) -> u32 {
        self.end - self.inner.lock().next
    }

    /// First address of the arena's range.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// One past the last address of the arena's range.
    pub fn end(&self) -> Addr {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_is_monotonic_and_disjoint() {
        let a = Arena::new("t", 64, 4096);
        let x = a.alloc(24);
        let y = a.alloc(24);
        assert_eq!(x, 64);
        assert_eq!(y, 88);
    }

    #[test]
    fn rounds_to_words() {
        let a = Arena::new("t", 64, 4096);
        let x = a.alloc(1);
        let y = a.alloc(1);
        assert_eq!(y - x, 8);
    }

    #[test]
    fn alignment_honored() {
        let a = Arena::new("t", 64, 65536);
        let _ = a.alloc(8);
        let x = a.alloc_aligned(128, 128);
        assert_eq!(x % 128, 0);
    }

    #[test]
    fn free_list_reuses_exact_shape() {
        let a = Arena::new("t", 64, 4096);
        let x = a.alloc_aligned(128, 128);
        a.free(x, 128, 128);
        let y = a.alloc_aligned(128, 128);
        assert_eq!(x, y);
    }

    #[test]
    fn live_and_peak_tracking() {
        let a = Arena::new("t", 64, 4096);
        let x = a.alloc(16);
        let _y = a.alloc(16);
        assert_eq!(a.live_bytes(), 32);
        a.free(x, 16, 8);
        assert_eq!(a.live_bytes(), 16);
        assert_eq!(a.peak_bytes(), 32);
        assert_eq!(a.alloc_count(), 2);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn oom_panics_with_arena_name() {
        let a = Arena::new("t", 64, 64);
        let _ = a.alloc(128);
    }

    #[test]
    fn remaining_shrinks() {
        let a = Arena::new("t", 64, 1024);
        let before = a.remaining_bytes();
        let _ = a.alloc(64);
        assert_eq!(a.remaining_bytes(), before - 64);
    }
}

#[cfg(test)]
pub(crate) mod randomized_tests {
    //! Seeded randomized tests (deterministic xorshift stand-in for the
    //! property tests the crate had when proptest was available).
    use super::*;

    pub(crate) fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Live allocations never overlap and stay in-bounds.
    #[test]
    fn allocations_disjoint() {
        for seed in 1..=16u64 {
            let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15);
            let a = Arena::new("p", 64, 1 << 20);
            let mut spans: Vec<(u32, u32)> = Vec::new();
            let count = 1 + (xorshift(&mut rng) % 63) as usize;
            for _ in 0..count {
                let s = 1 + (xorshift(&mut rng) % 255) as u32;
                let addr = a.alloc(s);
                let len = s.div_ceil(8) * 8;
                assert!(addr >= 64 && addr + len <= a.end());
                for &(b, l) in &spans {
                    assert!(addr + len <= b || b + l <= addr, "overlap at seed {seed}");
                }
                spans.push((addr, len));
            }
        }
    }

    /// Free + realloc of the same shape never hands out overlapping
    /// blocks among live allocations.
    #[test]
    fn freelist_reuse_sound() {
        for seed in 1..=16u64 {
            let mut rng = seed.wrapping_mul(0xD1B54A32D192ED03);
            let a = Arena::new("p", 64, 1 << 20);
            let mut live: Vec<u32> = Vec::new();
            let count = 1 + (xorshift(&mut rng) % 199) as usize;
            for _ in 0..count {
                let free_one = xorshift(&mut rng) & 1 == 1;
                if free_one && !live.is_empty() {
                    let addr = live.swap_remove(live.len() / 2);
                    a.free(addr, 48, 8);
                } else {
                    let addr = a.alloc(48);
                    assert!(!live.contains(&addr), "duplicate live block at seed {seed}");
                    live.push(addr);
                }
            }
        }
    }
}
