//! Simulated physical memory: address map, backing RAM, and the timed
//! access paths (host cache hierarchy, NMP direct-to-vault, host MMIO).
//!
//! Addresses are 32-bit, as in the paper (4-byte pointers). The map is:
//!
//! ```text
//! [64, 64+host_heap)                      host heap  (interleaved over main vaults)
//! [part_base(p), +part_heap) per p        NMP partition p   (vault main_vaults+p)
//! [spad_base(p), +spad_size) per p        scratchpad of NMP core p (publication list)
//! ```
//!
//! Address 0 is reserved as the null pointer. The *data plane* (what bytes
//! hold) is [`Ram`]; the *timing plane* (what an access costs and which
//! cache/DRAM state it touches) is [`MemorySystem`]. The engine's
//! [`crate::engine::ThreadCtx`] combines both.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::analysis::Analysis;
use crate::backend::Ram;
use crate::cache::{Access, Cache};
use crate::config::Config;
use crate::dram::{DramTiming, Vault};
use crate::stats::{OffloadStats, StatsSnapshot};
use crate::trace::Tracer;

/// Simulated 32-bit address.
pub type Addr = u32;

/// The null simulated pointer.
pub const NULL: Addr = 0;

/// Which architectural region an address falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Host-accessible main memory.
    Host,
    /// NMP partition `p` — accessible only by NMP core `p`.
    Part(usize),
    /// Scratchpad of NMP core `p` — local to that core, memory-mapped into
    /// the host address space (MMIO).
    Spad(usize),
}

/// The static address map. Regions are laid out contiguously:
/// `[null page | host heap | partition 0..p | scratchpad 0..p]`.
#[derive(Debug, Clone, Copy)]
pub struct MemMap {
    /// First valid address (everything below is the null page).
    pub host_base: Addr,
    /// Bytes of host main memory.
    pub host_size: u32,
    /// Number of NMP partitions (= NMP cores).
    pub parts: usize,
    part_base0: Addr,
    /// Bytes per NMP partition.
    pub part_size: u32,
    spad_base0: Addr,
    /// Bytes per NMP scratchpad.
    pub spad_size: u32,
    /// One past the highest valid address.
    pub total_bytes: u32,
}

impl MemMap {
    /// Lay out the address map for `cfg`.
    pub fn new(cfg: &Config) -> Self {
        let parts = cfg.nmp_partitions();
        // Region bases are block-aligned so cache-block and NMP-buffer
        // alignment arithmetic holds across region boundaries.
        let host_base: Addr = cfg.l1.block_bytes.max(cfg.nmp_buffer_bytes).max(64);
        let part_base0 = host_base + cfg.host_heap_bytes;
        let spad_base0 = part_base0 + (parts as u32) * cfg.part_heap_bytes;
        let total = spad_base0 + (parts as u32) * cfg.scratchpad_bytes;
        MemMap {
            host_base,
            host_size: cfg.host_heap_bytes,
            parts,
            part_base0,
            part_size: cfg.part_heap_bytes,
            spad_base0,
            spad_size: cfg.scratchpad_bytes,
            total_bytes: total,
        }
    }

    /// Base address of NMP partition `p`.
    pub fn part_base(&self, p: usize) -> Addr {
        assert!(p < self.parts);
        self.part_base0 + (p as u32) * self.part_size
    }

    /// Base address of NMP core `p`'s scratchpad.
    pub fn spad_base(&self, p: usize) -> Addr {
        assert!(p < self.parts);
        self.spad_base0 + (p as u32) * self.spad_size
    }

    /// The NMP core whose scratchpad holds `addr`, if any (the one region a
    /// host reaches by MMIO).
    pub fn spad_part(&self, addr: Addr) -> Option<usize> {
        (self.spad_base0..self.total_bytes)
            .contains(&addr)
            .then(|| ((addr - self.spad_base0) / self.spad_size) as usize)
    }

    /// Classify an address. Panics on the null page or out-of-range
    /// addresses — in a simulator a wild pointer is a bug to surface loudly.
    pub fn region_of(&self, addr: Addr) -> Region {
        assert!(addr >= self.host_base, "null-page dereference at {addr:#x}");
        assert!(addr < self.total_bytes, "address {addr:#x} beyond simulated memory");
        if addr < self.part_base0 {
            Region::Host
        } else if addr < self.spad_base0 {
            Region::Part(((addr - self.part_base0) / self.part_size) as usize)
        } else {
            Region::Spad(((addr - self.spad_base0) / self.spad_size) as usize)
        }
    }
}

/// Latency, in cycles, of an NMP core's access to its own scratchpad.
pub const SCRATCHPAD_CYCLES: u64 = 1;

/// Combined-per-pass histogram buckets tracked per partition: bucket `i`
/// counts combiner scan passes that collected exactly `i` requests, with the
/// last bucket saturating (so `OFFLOAD_HIST_BUCKETS - 1` = "16 or more").
pub const OFFLOAD_HIST_BUCKETS: usize = 17;

/// Publication-list lanes tracked individually in the per-lane occupancy
/// counter; posts to higher lanes accumulate in the last element.
pub const OFFLOAD_LANE_CAP: usize = 16;

/// Lock-free offload-runtime counters, recorded by `hybrids::offload` (host
/// side) and its combiners (NMP side). Untimed and relaxed: recording never
/// perturbs simulated timing, so determinism is unaffected.
struct OffloadCounters {
    posted: Vec<AtomicU64>,
    completed: Vec<AtomicU64>,
    retries: Vec<AtomicU64>,
    lock_path: Vec<AtomicU64>,
    lane_posted: Vec<AtomicU64>,
    /// parts × OFFLOAD_HIST_BUCKETS, row-major.
    combined_hist: Vec<AtomicU64>,
    /// Pqueue minima-cache stale-empty probes per partition: extract-min legs
    /// that targeted a partition and found it empty (ROADMAP §4.6 follow-up).
    pq_stale: Vec<AtomicU64>,
    /// Requests served per partition by replicating a coalesced sibling's
    /// response (key-range coalescing, adaptive policy only).
    coalesced: Vec<AtomicU64>,
}

impl OffloadCounters {
    fn new(parts: usize) -> Self {
        let zeros = |n: usize| {
            let mut v = Vec::with_capacity(n);
            v.resize_with(n, || AtomicU64::new(0));
            v
        };
        OffloadCounters {
            posted: zeros(parts),
            completed: zeros(parts),
            retries: zeros(parts),
            lock_path: zeros(parts),
            lane_posted: zeros(OFFLOAD_LANE_CAP),
            combined_hist: zeros(parts * OFFLOAD_HIST_BUCKETS),
            pq_stale: zeros(parts),
            coalesced: zeros(parts),
        }
    }

    fn collect(&self) -> OffloadStats {
        let load = |v: &[AtomicU64]| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        OffloadStats {
            posted: load(&self.posted),
            completed: load(&self.completed),
            retries: load(&self.retries),
            lock_path: load(&self.lock_path),
            lane_posted: load(&self.lane_posted),
            combined_hist: load(&self.combined_hist),
            pq_stale: load(&self.pq_stale),
            coalesced: load(&self.coalesced),
        }
    }

    /// Zero every counter.
    fn reset(&self) {
        for v in [
            &self.posted,
            &self.completed,
            &self.retries,
            &self.lock_path,
            &self.lane_posted,
            &self.combined_hist,
            &self.pq_stale,
            &self.coalesced,
        ] {
            for a in v.iter() {
                a.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// The mutable timing state: the host cache hierarchy, every DRAM vault
/// (the `main_vaults` block-interleaved host vaults, then one per NMP
/// partition), each NMP core's single-block node-register buffer, and the
/// MMIO issue counters.
struct Timing {
    l1: Vec<Cache>,
    l2: Cache,
    vaults: Vec<Vault>,
    /// Last block resident in each NMP core's node-register buffer.
    nmp_buf: Vec<Option<Addr>>,
    nmp_buffer_hits: u64,
    mmio_reads: u64,
    mmio_writes: u64,
}

/// The timed memory system shared by all logical threads of a simulation.
///
/// The mutable timing state sits behind one lock, which is uncontended: a
/// simulation runs one logical thread at a time on one OS thread, and a
/// native run never prices an access. The [`DramTiming`] parameters are
/// immutable.
pub struct MemorySystem {
    backing: Ram,
    map: MemMap,
    cfg: Config,
    mmio_read_cycles: u64,
    mmio_write_cycles: u64,
    host_link_cycles: u64,
    block_bytes: u32,
    offload: OffloadCounters,
    dram: DramTiming,
    timing: Mutex<Timing>,
    /// Correctness checkers, attached at most once per machine (see
    /// [`crate::analysis`]). Empty = zero checking overhead.
    analysis: OnceLock<Arc<Analysis>>,
    /// Cycle-level event tracer, attached at most once per machine (see
    /// [`crate::trace`]). Empty = zero tracing overhead.
    tracer: OnceLock<Arc<Tracer>>,
}

impl MemorySystem {
    /// Build the memory system for `cfg`: the timed hierarchy (caches,
    /// vaults, MMIO) over zeroed [`Ram`].
    pub fn new(cfg: Config) -> Self {
        cfg.validate();
        let map = MemMap::new(&cfg);
        let dram = DramTiming::from_config(&cfg);
        let timing = Timing {
            l1: (0..cfg.host_cores).map(|_| Cache::new(&cfg.l1)).collect(),
            l2: Cache::new(&cfg.l2),
            vaults: (0..cfg.num_vaults).map(|_| Vault::new(&dram)).collect(),
            nmp_buf: vec![None; cfg.nmp_partitions()],
            nmp_buffer_hits: 0,
            mmio_reads: 0,
            mmio_writes: 0,
        };
        MemorySystem {
            backing: Ram::new(map.total_bytes),
            map,
            mmio_read_cycles: cfg.cycles(cfg.mmio_read_ns),
            mmio_write_cycles: cfg.cycles(cfg.mmio_write_ns),
            host_link_cycles: cfg.cycles(cfg.host_link_ns),
            block_bytes: cfg.l1.block_bytes,
            offload: OffloadCounters::new(cfg.nmp_partitions()),
            cfg,
            dram,
            timing: Mutex::new(timing),
            analysis: OnceLock::new(),
            tracer: OnceLock::new(),
        }
    }

    /// Attach the engine-integrated checkers. The first attach wins;
    /// subsequent calls are ignored (use [`MemorySystem::analysis`] to get
    /// the attached instance).
    pub fn attach_analysis(&self, a: Arc<Analysis>) {
        let _ = self.analysis.set(a);
    }

    /// The attached checkers, if any.
    pub fn analysis(&self) -> Option<&Arc<Analysis>> {
        self.analysis.get()
    }

    /// Attach the event tracer. The first attach wins; subsequent calls are
    /// ignored (use [`MemorySystem::tracer`] to get the attached instance).
    pub fn attach_tracer(&self, t: Arc<Tracer>) {
        let _ = self.tracer.set(t);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.get()
    }

    /// Raw backing storage (untimed data plane).
    pub fn ram(&self) -> &Ram {
        &self.backing
    }

    /// The static address map.
    pub fn map(&self) -> &MemMap {
        &self.map
    }

    /// The configuration this memory system was built from.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Map a host-region address to (main vault index, vault-local address).
    /// Host memory is interleaved across the main vaults at cache-block
    /// granularity, as HMC-style devices do.
    fn host_vault(&self, addr: Addr) -> (usize, Addr) {
        let block = (addr - self.map.host_base) / self.block_bytes;
        let vault = (block as usize) % self.cfg.main_vaults;
        let local = (block / self.cfg.main_vaults as u32) * self.block_bytes
            + (addr - self.map.host_base) % self.block_bytes;
        (vault, local)
    }

    /// Timed access by host core `core` to host memory at absolute cycle
    /// `now`; returns the latency. The caller has checked the region policy
    /// (`ThreadCtx::route`), as for every accessor here.
    pub(crate) fn host_access(&self, core: usize, now: u64, addr: Addr, is_write: bool) -> u64 {
        // Vault busy window captured under the timing lock, recorded into the
        // tracer after releasing it (the tracer lock never nests inside it).
        let mut vault_busy: Option<(usize, u64, u64)> = None;
        let lat = {
            let t = &mut *self.timing.lock();
            let mut lat = t.l1[core].latency;
            let mut l1_hit = false;
            match t.l1[core].access(addr, is_write) {
                Access::Hit => l1_hit = true,
                Access::Miss { writeback } => {
                    if let Some(wb) = writeback {
                        // L1 dirty eviction drains into L2 off the critical path.
                        if let Access::Miss { writeback: Some(wb2) } = t.l2.access(wb, true) {
                            let (v, local) = self.host_vault(wb2);
                            t.vaults[v].post_write(now, local, &self.dram);
                        }
                    }
                }
            }
            if !l1_hit {
                lat += t.l2.latency;
                if let Access::Miss { writeback } = t.l2.access(addr, false) {
                    if let Some(wb2) = writeback {
                        let (v, local) = self.host_vault(wb2);
                        t.vaults[v].post_write(now, local, &self.dram);
                    }
                    let (v, local) = self.host_vault(addr);
                    // Off-chip link round trip: only host-side DRAM fills pay it.
                    lat += self.host_link_cycles;
                    let dlat = t.vaults[v].access(now + lat, local, false, &self.dram);
                    vault_busy = Some((v, now + lat, now + lat + dlat));
                    lat += dlat;
                }
            }
            if is_write {
                Self::invalidate_peers(&mut t.l1, core, addr);
            }
            lat
        };
        if let Some(tr) = self.tracer.get() {
            if let Some((v, start, end)) = vault_busy {
                tr.llc_miss(core, now);
                tr.vault_busy(v, start, end);
            }
        }
        lat
    }

    fn invalidate_peers(l1: &mut [Cache], writer: usize, addr: Addr) {
        for (i, c) in l1.iter_mut().enumerate() {
            if i != writer {
                let _ = c.invalidate(addr);
            }
        }
    }

    /// Timed access by NMP core `part` to its partition or scratchpad. The
    /// core has no cache, only a single node-register buffer of one block;
    /// everything else goes to its vault. Scratchpad accesses are local
    /// ([`SCRATCHPAD_CYCLES`]).
    pub(crate) fn nmp_access(&self, part: usize, now: u64, addr: Addr, is_write: bool) -> u64 {
        if self.map.spad_part(addr).is_some() {
            return SCRATCHPAD_CYCLES;
        }
        let mut vault_busy: Option<(usize, u64, u64)> = None;
        let lat = {
            let t = &mut *self.timing.lock();
            let block = addr & !(self.cfg.nmp_buffer_bytes - 1);
            if !is_write && t.nmp_buf[part] == Some(block) {
                t.nmp_buffer_hits += 1;
                1
            } else {
                let local = addr - self.map.part_base(part);
                let v = self.cfg.main_vaults + part;
                let lat = t.vaults[v].access(now, local, is_write, &self.dram);
                vault_busy = Some((v, now, now + lat));
                // Write-through, and writes do not allocate in the buffer.
                if !is_write {
                    t.nmp_buf[part] = Some(block);
                }
                lat
            }
        };
        if let Some(tr) = self.tracer.get() {
            if let Some((v, start, end)) = vault_busy {
                tr.vault_busy(v, start, end);
            }
        }
        lat
    }

    /// Host MMIO access to a scratchpad (publication list) word; bumps the
    /// MMIO counters if `counted`.
    pub(crate) fn mmio_access(&self, is_write: bool, counted: bool) -> u64 {
        if counted {
            let t = &mut *self.timing.lock();
            *(if is_write { &mut t.mmio_writes } else { &mut t.mmio_reads }) += 1;
        }
        if is_write {
            self.mmio_write_cycles
        } else {
            self.mmio_read_cycles
        }
    }

    /// Count `reads` MMIO polls a parked host skipped
    /// ([`crate::ThreadCtx::park`]).
    pub(crate) fn note_skipped_mmio_reads(&self, reads: u64) {
        if reads > 0 {
            self.timing.lock().mmio_reads += reads;
        }
    }

    /// Record a host post of an offload request to partition `part`, on
    /// publication-list lane `lane` of the posting thread.
    pub fn note_offload_post(&self, part: usize, lane: usize) {
        self.offload.posted[part].fetch_add(1, Ordering::Relaxed);
        self.offload.lane_posted[lane.min(OFFLOAD_LANE_CAP - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a retry response observed for partition `part`.
    pub fn note_offload_retry(&self, part: usize) {
        self.offload.retries[part].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a lock-path response observed for partition `part`.
    pub fn note_offload_lock_path(&self, part: usize) {
        self.offload.lock_path[part].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one combiner scan pass over partition `part`'s publication
    /// list that collected `combined` requests (0 = idle pass).
    pub fn note_offload_pass(&self, part: usize, combined: usize) {
        let bucket = combined.min(OFFLOAD_HIST_BUCKETS - 1);
        self.offload.combined_hist[part * OFFLOAD_HIST_BUCKETS + bucket]
            .fetch_add(1, Ordering::Relaxed);
        self.offload.completed[part].fetch_add(combined as u64, Ordering::Relaxed);
    }

    /// Record `passes` combiner scan passes over partition `part`'s
    /// publication list that each collected nothing: the passes a parked
    /// combiner skipped (see [`crate::ThreadCtx::park`]).
    pub fn note_offload_empty_passes(&self, part: usize, passes: u64) {
        self.offload.combined_hist[part * OFFLOAD_HIST_BUCKETS]
            .fetch_add(passes, Ordering::Relaxed);
    }

    /// Record a request of partition `part` served by replicating a
    /// coalesced sibling's response instead of its own NMP descent
    /// (key-range coalescing, adaptive policy only).
    pub fn note_offload_coalesced(&self, part: usize) {
        self.offload.coalesced[part].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a pqueue minima-cache stale-empty probe: an extract-min leg
    /// targeted partition `part` (the cache said, or forced a check that, it
    /// might hold the minimum) and the partition turned out empty. `now` is
    /// the cycle the host observed the empty response; it stamps the trace
    /// counter track when a tracer is attached.
    pub fn note_pqueue_stale(&self, part: usize, now: u64) {
        self.offload.pq_stale[part].fetch_add(1, Ordering::Relaxed);
        if let Some(tr) = self.tracer.get() {
            let total: u64 = self.offload.pq_stale.iter().map(|a| a.load(Ordering::Relaxed)).sum();
            tr.counter("pq_stale_probes", now, total);
        }
    }

    /// Snapshot every counter. L1 counters are aggregated across cores.
    /// The analysis counter `races_detected` is cumulative over the
    /// machine's lifetime — [`MemorySystem::reset_stats`] deliberately does
    /// not clear it.
    pub fn snapshot(&self) -> StatsSnapshot {
        let races_detected = self.analysis.get().map_or(0, |a| a.race_count());
        let t = self.timing.lock();
        let mut l1 = crate::stats::CacheStats::default();
        for c in &t.l1 {
            l1.add(&c.stats);
        }
        StatsSnapshot {
            l1,
            l2: t.l2.stats,
            vaults: t.vaults.iter().map(|v| v.stats).collect(),
            mmio_reads: t.mmio_reads,
            mmio_writes: t.mmio_writes,
            nmp_buffer_hits: t.nmp_buffer_hits,
            main_vaults: self.cfg.main_vaults,
            races_detected,
            offload: self.offload.collect(),
        }
    }

    /// Zero all counters while *keeping* cache/buffer/row state warm.
    /// Used to discard warm-up traffic before a measurement window. From
    /// inside a running simulation call [`crate::ThreadCtx::reset_stats`]
    /// instead: it also starts the window for the passes parked daemons
    /// skip.
    pub fn reset_stats(&self) {
        let t = &mut *self.timing.lock();
        for c in &mut t.l1 {
            c.stats = Default::default();
        }
        t.l2.stats = Default::default();
        for v in &mut t.vaults {
            v.stats = Default::default();
        }
        t.nmp_buffer_hits = 0;
        t.mmio_reads = 0;
        t.mmio_writes = 0;
        self.offload.reset();
    }

    /// Pre-load the block containing `addr` into the shared L2 (and the
    /// given core's L1) without charging time or counters. Used by
    /// structure constructors to model a steady state in which the
    /// host-managed portion is already cache-resident.
    pub fn warm(&self, core: usize, addr: Addr) {
        if self.map.region_of(addr) != Region::Host {
            return;
        }
        let t = &mut *self.timing.lock();
        let _ = t.l2.access(addr, false);
        let _ = t.l1[core].access(addr, false);
        for c in &mut t.l1 {
            c.stats = Default::default();
        }
        t.l2.stats = Default::default();
        for v in &mut t.vaults[..self.cfg.main_vaults] {
            v.stats = Default::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(Config::tiny())
    }

    #[test]
    fn address_map_partitions_disjoint() {
        let m = MemMap::new(&Config::tiny());
        assert_eq!(m.region_of(m.host_base), Region::Host);
        assert_eq!(m.region_of(m.part_base(0)), Region::Part(0));
        assert_eq!(m.region_of(m.part_base(1)), Region::Part(1));
        assert_eq!(m.region_of(m.spad_base(0)), Region::Spad(0));
        assert_eq!(m.region_of(m.spad_base(1) + m.spad_size - 1), Region::Spad(1));
    }

    #[test]
    #[should_panic(expected = "null-page")]
    fn null_deref_detected() {
        let m = MemMap::new(&Config::tiny());
        let _ = m.region_of(0);
    }

    #[test]
    #[should_panic(expected = "null-page")]
    fn last_byte_of_null_page_detected() {
        let m = MemMap::new(&Config::tiny());
        let _ = m.region_of(m.host_base - 1);
    }

    #[test]
    #[should_panic(expected = "beyond simulated memory")]
    fn out_of_range_detected() {
        let m = MemMap::new(&Config::tiny());
        let _ = m.region_of(m.total_bytes);
    }

    #[test]
    #[should_panic(expected = "beyond simulated memory")]
    fn wild_high_pointer_detected() {
        let m = MemMap::new(&Config::tiny());
        let _ = m.region_of(Addr::MAX);
    }

    /// The first and last byte of every region must classify to that region:
    /// an off-by-one in the map arithmetic shows up exactly at these edges.
    #[test]
    fn region_first_and_last_bytes_classify_exactly() {
        let cfg = Config::tiny();
        let m = MemMap::new(&cfg);
        assert_eq!(m.region_of(m.host_base), Region::Host);
        assert_eq!(m.region_of(m.host_base + m.host_size - 1), Region::Host);
        for p in 0..m.parts {
            let pb = m.part_base(p);
            assert_eq!(m.region_of(pb), Region::Part(p));
            assert_eq!(m.region_of(pb + m.part_size - 1), Region::Part(p));
            let sb = m.spad_base(p);
            assert_eq!(m.region_of(sb), Region::Spad(p));
            assert_eq!(m.region_of(sb + m.spad_size - 1), Region::Spad(p));
        }
        // Regions tile the address space with no gaps: one past the last
        // host byte is partition 0, one past partition p is partition p+1,
        // one past the last partition is scratchpad 0, one past scratchpad
        // p is scratchpad p+1 (and one past the last scratchpad is out of
        // range — covered by `out_of_range_detected`).
        assert_eq!(m.region_of(m.host_base + m.host_size), Region::Part(0));
        for p in 0..m.parts - 1 {
            assert_eq!(m.region_of(m.part_base(p) + m.part_size), Region::Part(p + 1));
            assert_eq!(m.region_of(m.spad_base(p) + m.spad_size), Region::Spad(p + 1));
        }
        assert_eq!(m.region_of(m.part_base(m.parts - 1) + m.part_size), Region::Spad(0));
        assert_eq!(m.spad_base(m.parts - 1) + m.spad_size, m.total_bytes);
    }

    /// The same edge classification must hold for every stock
    /// configuration, not just `tiny` — the paper-scale map exercises much
    /// larger region sizes where 32-bit arithmetic overflows would hide.
    #[test]
    fn region_edges_classify_exactly_in_all_stock_configs() {
        for cfg in [Config::tiny(), Config::default_scaled(), Config::paper()] {
            let m = MemMap::new(&cfg);
            assert_eq!(m.region_of(m.host_base), Region::Host);
            assert_eq!(m.region_of(m.host_base + m.host_size - 1), Region::Host);
            for p in 0..m.parts {
                assert_eq!(m.region_of(m.part_base(p)), Region::Part(p));
                assert_eq!(m.region_of(m.part_base(p) + m.part_size - 1), Region::Part(p));
                assert_eq!(m.region_of(m.spad_base(p)), Region::Spad(p));
                assert_eq!(m.region_of(m.spad_base(p) + m.spad_size - 1), Region::Spad(p));
            }
            assert_eq!(m.spad_base(m.parts - 1) + m.spad_size, m.total_bytes);
        }
    }

    /// Classification is byte-granular: an address in the middle of a
    /// region (not block- or word-aligned) still classifies to it.
    #[test]
    fn region_of_is_byte_granular() {
        let m = MemMap::new(&Config::tiny());
        assert_eq!(m.region_of(m.host_base + 1), Region::Host);
        assert_eq!(m.region_of(m.part_base(1) + 3), Region::Part(1));
        assert_eq!(m.region_of(m.spad_base(0) + m.spad_size / 2 + 1), Region::Spad(0));
    }

    /// Every region base must be block-aligned so a cache block (and an NMP
    /// buffer) never straddles two regions.
    #[test]
    fn region_bases_are_block_aligned() {
        let cfg = Config::tiny();
        let m = MemMap::new(&cfg);
        let block = cfg.l1.block_bytes.max(cfg.nmp_buffer_bytes);
        assert_eq!(m.host_base % block, 0);
        for p in 0..m.parts {
            assert_eq!(m.part_base(p) % block, 0, "partition {p} base unaligned");
            assert_eq!(m.spad_base(p) % block, 0, "scratchpad {p} base unaligned");
        }
        // A block-sized access at the last block of the host region stays
        // inside it (block edges never cross into partition 0).
        let last_block = m.host_base + m.host_size - block;
        assert_eq!(m.region_of(last_block), Region::Host);
        assert_eq!(m.region_of(last_block + block - 1), Region::Host);
    }

    #[test]
    fn host_hit_after_miss() {
        let s = sys();
        let a = s.map().host_base;
        let cold = s.host_access(0, 0, a, false);
        let warm = s.host_access(0, 1000, a, false);
        assert!(cold > warm);
        assert_eq!(warm, s.config().l1.latency_cycles);
        let snap = s.snapshot();
        assert_eq!(snap.dram_reads(), 1);
        assert_eq!(snap.l1.hits, 1);
    }

    #[test]
    fn l2_shared_between_cores() {
        let s = sys();
        let a = s.map().host_base;
        let _ = s.host_access(0, 0, a, false);
        // Core 1 misses L1 but hits shared L2.
        let lat = s.host_access(1, 1000, a, false);
        assert_eq!(lat, s.config().l1.latency_cycles + s.config().l2.latency_cycles);
        assert_eq!(s.snapshot().dram_reads(), 1);
    }

    #[test]
    fn write_invalidates_peer_l1() {
        let s = sys();
        let a = s.map().host_base;
        let _ = s.host_access(0, 0, a, false);
        let _ = s.host_access(1, 100, a, false);
        let _ = s.host_access(1, 200, a, true); // core 1 writes: invalidates core 0
                                                // Core 0 must now miss L1 (hits L2).
        let lat = s.host_access(0, 300, a, false);
        assert_eq!(lat, s.config().l1.latency_cycles + s.config().l2.latency_cycles);
    }

    #[test]
    fn nmp_buffer_hit_is_one_cycle() {
        let s = sys();
        let a = s.map().part_base(0);
        let cold = s.nmp_access(0, 0, a, false);
        assert!(cold > 1);
        let hot = s.nmp_access(0, 1000, a + 64, false); // same 128B block
        assert_eq!(hot, 1);
        assert_eq!(s.snapshot().nmp_buffer_hits, 1);
        assert_eq!(s.snapshot().nmp_dram_reads(), 1);
    }

    #[test]
    fn nmp_spad_access_local() {
        let s = sys();
        assert_eq!(s.nmp_access(0, 0, s.map().spad_base(0), false), SCRATCHPAD_CYCLES);
        assert_eq!(SCRATCHPAD_CYCLES, 1);
    }

    #[test]
    fn mmio_charges_fixed_cost_and_counts() {
        let s = sys();
        let w = s.mmio_access(true, true);
        let r = s.mmio_access(false, true);
        assert_eq!(w, s.config().cycles(s.config().mmio_write_ns));
        assert_eq!(r, s.config().cycles(s.config().mmio_read_ns));
        assert_eq!(s.mmio_access(false, false), r, "an uncounted access costs the same");
        let snap = s.snapshot();
        assert_eq!((snap.mmio_reads, snap.mmio_writes), (1, 1));
    }

    #[test]
    fn reset_stats_keeps_cache_warm() {
        let s = sys();
        let a = s.map().host_base;
        let _ = s.host_access(0, 0, a, false);
        s.reset_stats();
        assert_eq!(s.snapshot().dram_reads(), 0);
        let lat = s.host_access(0, 100, a, false);
        assert_eq!(lat, s.config().l1.latency_cycles, "still cached after reset");
    }

    #[test]
    fn host_interleaves_blocks_across_main_vaults() {
        let s = sys();
        let base = s.map().host_base;
        // touch many distinct blocks; both main vaults should see traffic
        for i in 0..16u32 {
            let _ = s.host_access(0, (i * 500) as u64, base + i * 128, false);
        }
        let snap = s.snapshot();
        assert!(snap.vaults[0].reads > 0);
        assert!(snap.vaults[1].reads > 0);
    }

    #[test]
    fn offload_counters_snapshot_and_reset() {
        let s = sys();
        s.note_offload_post(0, 0);
        s.note_offload_post(0, 3);
        s.note_offload_post(1, 99); // lane beyond cap folds into last element
        s.note_offload_retry(0);
        s.note_offload_lock_path(1);
        s.note_offload_pass(0, 2);
        s.note_offload_pass(0, 0);
        s.note_offload_pass(1, 40); // saturates into the last bucket
        s.note_offload_empty_passes(1, 5);
        s.note_offload_empty_passes(0, 0);
        s.note_pqueue_stale(1, 123);
        s.note_pqueue_stale(1, 456);
        let o = s.snapshot().offload;
        assert_eq!(o.pq_stale, vec![0, 2]);
        assert_eq!(o.pq_stale_total(), 2);
        assert_eq!(o.posted, vec![2, 1]);
        assert_eq!(o.completed, vec![2, 40]);
        assert_eq!(o.retries, vec![1, 0]);
        assert_eq!(o.lock_path, vec![0, 1]);
        assert_eq!(o.lane_posted[0], 1);
        assert_eq!(o.lane_posted[3], 1);
        assert_eq!(o.lane_posted[OFFLOAD_LANE_CAP - 1], 1);
        assert_eq!(o.hist_buckets(), OFFLOAD_HIST_BUCKETS);
        assert_eq!(o.combined_hist[2], 1); // part 0, bucket 2
        assert_eq!(o.combined_hist[0], 1); // part 0, empty pass
        assert_eq!(o.combined_hist[OFFLOAD_HIST_BUCKETS], 5); // part 1, skipped empty passes
        assert_eq!(o.combined_hist[OFFLOAD_HIST_BUCKETS + OFFLOAD_HIST_BUCKETS - 1], 1);
        assert_eq!(o.passes_with(1), 2);
        assert_eq!(o.passes_with(2), 2);
        assert_eq!(o.passes_with(17), 0);
        let d = o.delta_since(&OffloadStats::default());
        assert_eq!(d, o);
        s.reset_stats();
        let o2 = s.snapshot().offload;
        assert_eq!(o2.posted_total(), 0);
        assert_eq!(o2.passes_with(1), 0);
        assert_eq!(o2.pq_stale_total(), 0);
    }

    #[test]
    fn warm_preloads_without_counting() {
        let s = sys();
        let a = s.map().host_base + 4096;
        s.warm(0, a);
        assert_eq!(s.snapshot().dram_reads(), 0);
        let lat = s.host_access(0, 0, a, false);
        assert_eq!(lat, s.config().l1.latency_cycles);
    }
}
