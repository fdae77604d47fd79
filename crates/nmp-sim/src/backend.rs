//! The data plane: one RAM under both engines.
//!
//! Every structure in this repo talks to memory through two layers: the
//! *timing plane* ([`crate::mem::MemorySystem`], which prices accesses
//! that the engine has checked against the region policy) and the *data
//! plane* (what bytes actually
//! hold). The data plane is [`Ram`], and there is exactly one of it: the
//! deterministic engines ([`crate::engine::Simulation`]) and the real-thread
//! engine ([`crate::engine::NativeRun`]) execute the *same* loads, stores
//! and compare-and-swaps on the *same* words.
//!
//! [`Ram`] is written for the harder of its two users, genuinely concurrent
//! OS threads: the `_acquire`/`_release` variants and the CAS carry real
//! hardware orderings, and sub-word stores and CAS are read-modify-write
//! loops on the containing word, so a concurrent update of the neighbouring
//! half is never lost. Under a simulation exactly one logical thread runs at
//! a time and engine handoffs establish every happens-before edge, so the
//! orderings are stronger than needed there and the RMW loops succeed on
//! their first iteration — but the code the server depends on is the code
//! the race detector, the linearizability checker, conformance and the
//! determinism suites execute.
//!
//! Memory is an array of `AtomicU64` words with 32-bit values packed into
//! word halves: `u64` accesses must be 8-aligned, `u32` accesses 4-aligned
//! and packed in the low (`addr % 8 == 0`) or high half of the containing
//! word.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::mem::Addr;

#[inline]
fn is_lo(addr: Addr) -> bool {
    addr.is_multiple_of(8)
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

/// Backing storage of a machine's physical memory: untimed, word-addressed,
/// shared by every logical thread of every run over the machine.
///
/// The plain accessors are relaxed; the `_acquire`/`_release` variants and
/// the CAS are the synchronization points of the publication-list ctrl-word
/// protocol, the B+ tree seqlocks and the skiplist mark bits.
pub struct Ram {
    words: Box<[AtomicU64]>,
}

impl Ram {
    /// Allocate zeroed backing storage of `total_bytes` (rounded up to 8).
    pub fn new(total_bytes: u32) -> Self {
        let n = (total_bytes as usize).div_ceil(8);
        let mut words = Vec::with_capacity(n);
        words.resize_with(n, || AtomicU64::new(0));
        Ram { words: words.into_boxed_slice() }
    }

    #[inline]
    fn word(&self, addr: Addr) -> &AtomicU64 {
        &self.words[(addr / 8) as usize]
    }

    #[inline]
    fn load_half(&self, addr: Addr, order: Ordering) -> u32 {
        debug_assert_eq!(addr % 4, 0, "unaligned u32 read at {addr:#x}");
        half_of(self.word(addr).load(order), is_lo(addr))
    }

    /// A plain load/store split would lose a concurrent update of the
    /// neighbouring half, so a sub-word store is a CAS loop on the word.
    #[inline]
    fn store_half(&self, addr: Addr, value: u32, success: Ordering) {
        debug_assert_eq!(addr % 4, 0, "unaligned u32 write at {addr:#x}");
        let lo = is_lo(addr);
        let w = self.word(addr);
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

    /// Capacity in bytes.
    pub fn len_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Relaxed 8-byte read; `addr` must be 8-aligned.
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 read at {addr:#x}");
        self.word(addr).load(Ordering::Relaxed)
    }

    /// Relaxed 8-byte write; `addr` must be 8-aligned.
    #[inline]
    pub fn write_u64(&self, addr: Addr, value: u64) {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 write at {addr:#x}");
        self.word(addr).store(value, Ordering::Relaxed)
    }

    /// Relaxed 4-byte read; `addr` must be 4-aligned.
    #[inline]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        self.load_half(addr, Ordering::Relaxed)
    }

    /// Relaxed 4-byte write; `addr` must be 4-aligned. Never clobbers the
    /// other half of the containing word, even under real concurrency.
    #[inline]
    pub fn write_u32(&self, addr: Addr, value: u32) {
        self.store_half(addr, value, Ordering::Relaxed);
    }

    /// 8-byte read with acquire ordering.
    #[inline]
    pub fn read_u64_acquire(&self, addr: Addr) -> u64 {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 read at {addr:#x}");
        self.word(addr).load(Ordering::Acquire)
    }

    /// 8-byte write with release ordering.
    #[inline]
    pub fn write_u64_release(&self, addr: Addr, value: u64) {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 write at {addr:#x}");
        self.word(addr).store(value, Ordering::Release)
    }

    /// 4-byte read with acquire ordering.
    #[inline]
    pub fn read_u32_acquire(&self, addr: Addr) -> u32 {
        self.load_half(addr, Ordering::Acquire)
    }

    /// 4-byte write with release ordering.
    #[inline]
    pub fn write_u32_release(&self, addr: Addr, value: u32) {
        self.store_half(addr, value, Ordering::Release);
    }

    /// Atomic 8-byte compare-and-swap: `Ok(())` on success, `Err(actual)`
    /// on mismatch. Acquire on observe, release on success.
    pub fn cas_u64(&self, addr: Addr, expect: u64, new: u64) -> Result<(), u64> {
        debug_assert_eq!(addr % 8, 0, "unaligned u64 CAS at {addr:#x}");
        self.word(addr)
            .compare_exchange(expect, new, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
    }

    /// Atomic 4-byte compare-and-swap on one half of the containing word.
    pub fn cas_u32(&self, addr: Addr, expect: u32, new: u32) -> Result<(), u32> {
        debug_assert_eq!(addr % 4, 0, "unaligned u32 CAS at {addr:#x}");
        let lo = is_lo(addr);
        let w = self.word(addr);
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
    use crate::alloc::randomized_tests::xorshift;

    #[test]
    fn u64_roundtrip() {
        let r = Ram::new(1024);
        assert_eq!(r.len_bytes(), 1024);
        r.write_u64(64, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.read_u64(64), 0xDEAD_BEEF_CAFE_F00D);
        r.write_u64_release(72, 7);
        assert_eq!(r.read_u64_acquire(72), 7);
    }

    #[test]
    fn u32_halves_independent() {
        let r = Ram::new(1024);
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
    fn cas_u64_succeeds_once() {
        let r = Ram::new(1024);
        assert_eq!(r.cas_u64(64, 0, 5), Ok(()));
        assert_eq!(r.cas_u64(64, 0, 9), Err(5));
        assert_eq!(r.read_u64(64), 5);
    }

    #[test]
    fn cas_u32_targets_one_half() {
        let r = Ram::new(1024);
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
        let r = Arc::new(Ram::new(64));
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

    /// Every accessor against a plain little-endian byte array: random
    /// reads, writes and CASes of both widths on both halves of a handful
    /// of neighbouring words, so every sub-word op has a live neighbour to
    /// clobber and every CAS meets both outcomes.
    #[test]
    fn seeded_ops_match_a_byte_array_model() {
        const WORDS: u32 = 4;
        let ram = Ram::new(WORDS * 8);
        let mut model = vec![0u8; (WORDS * 8) as usize];
        let get32 = |m: &[u8], a: u32| u32::from_le_bytes(m[a as usize..][..4].try_into().unwrap());
        let get64 = |m: &[u8], a: u32| u64::from_le_bytes(m[a as usize..][..8].try_into().unwrap());
        let small64 = |hi: u64, lo: u64| ((hi % 3) << 32) | (lo % 3);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut cas_outcomes = [0u32; 4];
        for step in 0..20_000u32 {
            let r = xorshift(&mut rng);
            let a32 = (r >> 8) as u32 % (WORDS * 2) * 4;
            let a64 = a32 & !7;
            // Small values so a CAS's `expect` matches about as often as not.
            let v32 = (r >> 16) as u32 % 3;
            let v64 = small64(r >> 24, r >> 32);
            // Plain or synchronizing variant of the read/write below.
            let sync = r >> 63 == 1;
            match r % 6 {
                0 => {
                    let got = if sync { ram.read_u32_acquire(a32) } else { ram.read_u32(a32) };
                    assert_eq!(got, get32(&model, a32), "step {step}");
                }
                1 => {
                    let got = if sync { ram.read_u64_acquire(a64) } else { ram.read_u64(a64) };
                    assert_eq!(got, get64(&model, a64), "step {step}");
                }
                2 => {
                    if sync {
                        ram.write_u32_release(a32, v32);
                    } else {
                        ram.write_u32(a32, v32);
                    }
                    model[a32 as usize..][..4].copy_from_slice(&v32.to_le_bytes());
                }
                3 => {
                    if sync {
                        ram.write_u64_release(a64, v64);
                    } else {
                        ram.write_u64(a64, v64);
                    }
                    model[a64 as usize..][..8].copy_from_slice(&v64.to_le_bytes());
                }
                4 => {
                    let (expect, cur) = ((r >> 40) as u32 % 3, get32(&model, a32));
                    let want = if cur == expect { Ok(()) } else { Err(cur) };
                    assert_eq!(ram.cas_u32(a32, expect, v32), want, "step {step}");
                    cas_outcomes[want.is_ok() as usize] += 1;
                    if want.is_ok() {
                        model[a32 as usize..][..4].copy_from_slice(&v32.to_le_bytes());
                    }
                }
                _ => {
                    let (expect, cur) = (small64(r >> 40, r >> 48), get64(&model, a64));
                    let want = if cur == expect { Ok(()) } else { Err(cur) };
                    assert_eq!(ram.cas_u64(a64, expect, v64), want, "step {step}");
                    cas_outcomes[2 + want.is_ok() as usize] += 1;
                    if want.is_ok() {
                        model[a64 as usize..][..8].copy_from_slice(&v64.to_le_bytes());
                    }
                }
            }
        }
        assert!(cas_outcomes.iter().all(|&n| n > 100), "CAS outcomes {cas_outcomes:?}");
        for a in (0..WORDS * 8).step_by(8) {
            assert_eq!(ram.read_u64(a), get64(&model, a), "final word {a}");
        }
    }
}
