//! The memory-substrate backends behind the simulator's data plane.
//!
//! Every structure in this repo talks to memory through two layers: the
//! *timing plane* ([`crate::mem::MemorySystem`], which prices accesses and
//! enforces the region policy) and the *data plane* (what bytes actually
//! hold). This module abstracts the data plane behind [`MemBackend`] so the
//! same structure code can run against two substrates:
//!
//! * [`crate::SimRam`] — the **verification backend**. All orderings are
//!   relaxed because the deterministic engine runs exactly one logical
//!   thread at a time; engine handoffs establish every happens-before edge.
//!   Races, region-policy violations, and cycle attribution are checked
//!   here.
//! * [`NativeRam`] — the **serving backend**. The same 32-bit word-addressed
//!   layout, but threads are real OS threads running concurrently, so the
//!   acquire/release annotations that were *documentation* for the race
//!   detector become *real* atomic orderings, and compare-and-swap becomes a
//!   real `compare_exchange`. There is no cycle accounting: the simulator
//!   remains the correctness oracle, the native backend serves traffic at
//!   hardware speed.
//!
//! Both backends store memory as an array of `AtomicU64` words with 32-bit
//! values packed into word halves, so a structure's layout (and its
//! populate/collect helpers) is byte-identical across backends.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::mem::Addr;

/// Which data-plane substrate a machine is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Cycle-accurate deterministic simulation (`SimRam`).
    Sim,
    /// Real-hardware execution with real atomics (`NativeRam`).
    Native,
}

/// A word-addressed 32-bit memory substrate.
///
/// The contract mirrors `SimRam`'s historical inherent API (same method
/// names, same alignment rules) so `machine.ram()` call sites are unchanged:
/// `u64` accesses must be 8-aligned, `u32` accesses 4-aligned and packed in
/// the low (addr % 8 == 0) or high half of the containing word.
///
/// The plain accessors are relaxed; the `_acquire`/`_release` variants and
/// the CAS are the synchronization points of the publication-list ctrl-word
/// protocol. On the simulated backend those variants carry no extra
/// ordering (the engine serializes); on the native backend they are real.
pub trait MemBackend: Send + Sync {
    /// Which substrate this is (drives harness dispatch and labels).
    fn kind(&self) -> BackendKind;

    /// Capacity in bytes.
    fn len_bytes(&self) -> usize;

    /// Relaxed 8-byte read; `addr` must be 8-aligned.
    fn read_u64(&self, addr: Addr) -> u64;

    /// Relaxed 8-byte write; `addr` must be 8-aligned.
    fn write_u64(&self, addr: Addr, value: u64);

    /// Relaxed 4-byte read; `addr` must be 4-aligned.
    fn read_u32(&self, addr: Addr) -> u32;

    /// Relaxed 4-byte write; `addr` must be 4-aligned. Never clobbers the
    /// other half of the containing word, even under real concurrency.
    fn write_u32(&self, addr: Addr, value: u32);

    /// 8-byte read with acquire ordering.
    fn read_u64_acquire(&self, addr: Addr) -> u64;

    /// 8-byte write with release ordering.
    fn write_u64_release(&self, addr: Addr, value: u64);

    /// 4-byte read with acquire ordering.
    fn read_u32_acquire(&self, addr: Addr) -> u32;

    /// 4-byte write with release ordering.
    fn write_u32_release(&self, addr: Addr, value: u32);

    /// Atomic 8-byte compare-and-swap: `Ok(())` on success, `Err(actual)`
    /// on mismatch. Acquire on observe, release on success.
    fn cas_u64(&self, addr: Addr, expect: u64, new: u64) -> Result<(), u64>;

    /// Atomic 4-byte compare-and-swap on one half of the containing word.
    fn cas_u32(&self, addr: Addr, expect: u32, new: u32) -> Result<(), u32>;
}

#[inline]
fn split(addr: Addr) -> (usize, bool) {
    ((addr / 8) as usize, addr.is_multiple_of(8))
}

#[inline]
fn half_of(word: u64, lo: bool) -> u32 {
    if lo {
        word as u32
    } else {
        (word >> 32) as u32
    }
}

#[inline]
fn with_half(word: u64, lo: bool, value: u32) -> u64 {
    if lo {
        (word & 0xFFFF_FFFF_0000_0000) | value as u64
    } else {
        (word & 0x0000_0000_FFFF_FFFF) | ((value as u64) << 32)
    }
}

/// `Box`-backed native memory: the same `[AtomicU64]` word layout as
/// `SimRam`, but accessed by genuinely concurrent OS threads, so the
/// synchronization variants use real hardware orderings and sub-word writes
/// are read-modify-write loops (a plain load/store split would lose a
/// concurrent neighbour-half update).
pub struct NativeRam {
    words: Box<[AtomicU64]>,
}

impl NativeRam {
    /// Allocate zeroed native backing of `total_bytes` (rounded up to 8).
    pub fn new(total_bytes: u32) -> Self {
        let n = (total_bytes as usize).div_ceil(8);
        let mut words = Vec::with_capacity(n);
        words.resize_with(n, || AtomicU64::new(0));
        NativeRam { words: words.into_boxed_slice() }
    }

    #[inline]
    fn word(&self, addr: Addr) -> &AtomicU64 {
        &self.words[(addr / 8) as usize]
    }

    #[inline]
    fn store_half(&self, addr: Addr, value: u32, success: Ordering) {
        debug_assert_eq!(addr % 4, 0, "unaligned u32 write at {addr:#x}");
        let (_, lo) = split(addr);
        let w = self.word(addr & !7);
        let mut cur = w.load(Ordering::Relaxed);
        loop {
            match w.compare_exchange_weak(
                cur,
                with_half(cur, lo, value),
                success,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl MemBackend for NativeRam {
    fn kind(&self) -> BackendKind {
        BackendKind::Native
    }

    fn len_bytes(&self) -> usize {
        self.words.len() * 8
    }

    #[inline]
    fn read_u64(&self, addr: Addr) -> u64 {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 read at {addr:#x}");
        self.word(addr).load(Ordering::Relaxed)
    }

    #[inline]
    fn write_u64(&self, addr: Addr, value: u64) {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 write at {addr:#x}");
        self.word(addr).store(value, Ordering::Relaxed)
    }

    #[inline]
    fn read_u32(&self, addr: Addr) -> u32 {
        debug_assert_eq!(addr % 4, 0, "unaligned u32 read at {addr:#x}");
        let (_, lo) = split(addr);
        half_of(self.word(addr & !7).load(Ordering::Relaxed), lo)
    }

    #[inline]
    fn write_u32(&self, addr: Addr, value: u32) {
        self.store_half(addr, value, Ordering::Relaxed);
    }

    #[inline]
    fn read_u64_acquire(&self, addr: Addr) -> u64 {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 read at {addr:#x}");
        self.word(addr).load(Ordering::Acquire)
    }

    #[inline]
    fn write_u64_release(&self, addr: Addr, value: u64) {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 write at {addr:#x}");
        self.word(addr).store(value, Ordering::Release)
    }

    #[inline]
    fn read_u32_acquire(&self, addr: Addr) -> u32 {
        debug_assert_eq!(addr % 4, 0, "unaligned u32 read at {addr:#x}");
        let (_, lo) = split(addr);
        half_of(self.word(addr & !7).load(Ordering::Acquire), lo)
    }

    #[inline]
    fn write_u32_release(&self, addr: Addr, value: u32) {
        self.store_half(addr, value, Ordering::Release);
    }

    fn cas_u64(&self, addr: Addr, expect: u64, new: u64) -> Result<(), u64> {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 CAS at {addr:#x}");
        self.word(addr)
            .compare_exchange(expect, new, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
    }

    fn cas_u32(&self, addr: Addr, expect: u32, new: u32) -> Result<(), u32> {
        debug_assert_eq!(addr % 4, 0, "unaligned u32 CAS at {addr:#x}");
        let (_, lo) = split(addr);
        let w = self.word(addr & !7);
        let mut cur = w.load(Ordering::Acquire);
        loop {
            if half_of(cur, lo) != expect {
                return Err(half_of(cur, lo));
            }
            match w.compare_exchange_weak(
                cur,
                with_half(cur, lo, new),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                // The containing word changed; our half may or may not
                // have — re-examine it.
                Err(seen) => cur = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_u64_roundtrip() {
        let r = NativeRam::new(1024);
        r.write_u64(64, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.read_u64(64), 0xDEAD_BEEF_CAFE_F00D);
        r.write_u64_release(72, 7);
        assert_eq!(r.read_u64_acquire(72), 7);
    }

    #[test]
    fn native_u32_halves_independent() {
        let r = NativeRam::new(1024);
        r.write_u32(64, 0x1111_1111);
        r.write_u32(68, 0x2222_2222);
        assert_eq!(r.read_u32(64), 0x1111_1111);
        assert_eq!(r.read_u32(68), 0x2222_2222);
        assert_eq!(r.read_u64(64), 0x2222_2222_1111_1111);
        r.write_u32_release(68, 0x3333_3333);
        assert_eq!(r.read_u32_acquire(68), 0x3333_3333);
        assert_eq!(r.read_u32(64), 0x1111_1111, "neighbour half untouched");
    }

    #[test]
    fn native_cas_u64_succeeds_once() {
        let r = NativeRam::new(1024);
        assert_eq!(r.cas_u64(64, 0, 5), Ok(()));
        assert_eq!(r.cas_u64(64, 0, 9), Err(5));
        assert_eq!(r.read_u64(64), 5);
    }

    #[test]
    fn native_cas_u32_targets_one_half() {
        let r = NativeRam::new(1024);
        r.write_u32(64, 10);
        r.write_u32(68, 20);
        assert_eq!(r.cas_u32(68, 20, 21), Ok(()));
        assert_eq!(r.cas_u32(68, 20, 22), Err(21));
        assert_eq!(r.read_u32(64), 10);
        assert_eq!(r.read_u32(68), 21);
    }

    /// Concurrent writers to the two halves of one word must not lose
    /// updates (the sub-word write is a RMW loop, not load/store).
    #[test]
    fn native_concurrent_half_writes_do_not_clobber() {
        use std::sync::Arc;
        let r = Arc::new(NativeRam::new(64));
        let lo = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..10_000u32 {
                    r.write_u32(8, i);
                }
            })
        };
        let hi = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..10_000u32 {
                    r.write_u32(12, i);
                }
            })
        };
        lo.join().unwrap();
        hi.join().unwrap();
        assert_eq!(r.read_u32(8), 9_999);
        assert_eq!(r.read_u32(12), 9_999);
    }
}
