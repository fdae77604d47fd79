//! Deterministic PRNGs for workload generation.
//!
//! We implement SplitMix64 (seed expansion / hashing) and xoshiro256**
//! (stream generation) locally instead of depending on `rand`, so that
//! workloads are bit-stable across toolchains and every experiment is
//! exactly reproducible from its seed.

/// SplitMix64 step: hashes `state` into a well-mixed 64-bit value.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One-shot 64-bit mix of a value (stateless SplitMix64 finalizer).
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// FNV-1a 64-bit hash of an integer, as used by YCSB's key scrambling.
#[inline]
pub fn fnv64(x: u64) -> u64 {
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut v = x;
    for _ in 0..8 {
        h ^= v & 0xFF;
        h = h.wrapping_mul(PRIME);
        v >>= 8;
    }
    h
}

/// xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed via SplitMix64 expansion (never yields the all-zero state).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// Derive an independent stream for substream `idx` (e.g. per thread).
    pub fn fork(&self, idx: u64) -> Rng {
        Rng::new(mix64(self.s[0] ^ mix64(idx.wrapping_add(0xA5A5_5A5A))))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift reduction.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Geometric "coin-flip" height in `[1, max]` with p = 1/2 per level —
    /// the skiplist node-height distribution.
    pub fn skiplist_height(&mut self, max: u32) -> u32 {
        let bits = self.next_u64();
        ((bits.trailing_ones()) + 1).min(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_independent_and_deterministic() {
        let root = Rng::new(7);
        let mut f1 = root.fork(0);
        let mut f2 = root.fork(1);
        let mut f1b = root.fork(0);
        assert_ne!(f1.next_u64(), f2.next_u64());
        let _ = f1b.next_u64();
        assert_eq!(f1.next_u64(), f1b.next_u64());
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_roughly_uniform() {
        let mut r = Rng::new(9);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut r = Rng::new(4);
        for _ in 0..10_000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn skiplist_height_geometric() {
        let mut r = Rng::new(5);
        let n = 100_000;
        let mut h1 = 0u32;
        let mut h2 = 0u32;
        for _ in 0..n {
            match r.skiplist_height(32) {
                1 => h1 += 1,
                2 => h2 += 1,
                _ => {}
            }
        }
        // P(h=1) = 1/2, P(h=2) = 1/4
        assert!((45_000..55_000).contains(&h1), "h1={h1}");
        assert!((22_000..28_000).contains(&h2), "h2={h2}");
    }

    #[test]
    fn skiplist_height_capped() {
        let mut r = Rng::new(6);
        for _ in 0..100_000 {
            assert!(r.skiplist_height(4) <= 4);
        }
    }

    #[test]
    fn fnv_distinct_on_consecutive_inputs() {
        let h: Vec<u64> = (0..64).map(fnv64).collect();
        let mut sorted = h.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
    }
}
