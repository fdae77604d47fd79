//! Simulation statistics: cache hit/miss counters, DRAM traffic per vault,
//! MMIO traffic and offload-runtime telemetry.
//!
//! The "DRAM reads" counter is the metric plotted in Figs. 5b, 6b and 9 of
//! the paper: the number of read bursts serviced by the DRAM vaults.

use serde::{Deserialize, Serialize};

/// `later - earlier` for one counter of a snapshot pair. Panics naming the
/// counter when it ran backwards — in every build profile: a bare `-` would
/// wrap to ~2^64 in the release builds every harness runs.
fn sub(counter: impl std::fmt::Display, later: u64, earlier: u64) -> u64 {
    later.checked_sub(earlier).unwrap_or_else(|| {
        panic!(
            "delta_since: counter `{counter}` went backwards ({later} < {earlier}); \
             snapshots must come from the same run, in order"
        )
    })
}

/// Counters for one cache level (aggregated across all caches of the level).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses satisfied by this level.
    pub hits: u64,
    /// Accesses forwarded to the next level.
    pub misses: u64,
    /// Dirty lines written back to the next level on eviction.
    pub writebacks: u64,
    /// Lines invalidated by coherence actions (stores from other cores).
    pub invalidations: u64,
}

impl CacheStats {
    /// Total accesses that reached this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of accesses that hit (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Accumulate another counter set into this one.
    pub fn add(&mut self, o: &CacheStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.writebacks += o.writebacks;
        self.invalidations += o.invalidations;
    }
}

/// Counters for one DRAM vault.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VaultStats {
    /// Read bursts serviced.
    pub reads: u64,
    /// Write bursts serviced.
    pub writes: u64,
    /// Accesses that found their DRAM row already open.
    pub row_hits: u64,
    /// Accesses that opened a row in an idle bank.
    pub row_misses: u64,
    /// Accesses that had to close another row first.
    pub row_conflicts: u64,
    /// Cycles an access had to wait for a busy bank.
    pub bank_wait_cycles: u64,
}

impl VaultStats {
    /// Accumulate another counter set into this one.
    pub fn add(&mut self, o: &VaultStats) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.row_conflicts += o.row_conflicts;
        self.bank_wait_cycles += o.bank_wait_cycles;
    }
}

/// Telemetry of the shared offload runtime: request-lifecycle counters the
/// memory system keeps on behalf of `hybrids::offload` (posted requests,
/// combiner batching, retries, lock-path falls). All vectors are empty when
/// no offload traffic occurred (e.g. host-only structures).
///
/// Recording is untimed and lock-free, so attaching these counters never
/// perturbs simulated timing or determinism.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadStats {
    /// Requests posted per NMP partition (host MMIO publications; includes
    /// retry re-posts and follow-up requests such as RESUME_INSERT).
    pub posted: Vec<u64>,
    /// Requests executed and completed per partition by its combiner.
    pub completed: Vec<u64>,
    /// Retry responses per partition (stale begin node, seqnum conflict,
    /// locked leaf).
    pub retries: Vec<u64>,
    /// LOCK_PATH responses per partition (B+ tree cross-boundary inserts
    /// falling back to the host-locked path).
    pub lock_path: Vec<u64>,
    /// Requests posted per publication-list lane, aggregated over
    /// partitions; lanes past the tracked cap accumulate in the last
    /// element. Shows pipeline lane occupancy.
    pub lane_posted: Vec<u64>,
    /// Combined-per-pass histogram, flattened row-major per partition:
    /// entry `part * buckets + i` counts combiner scan passes of partition
    /// `part` that collected exactly `i` requests, where `buckets =
    /// combined_hist.len() / posted.len()` and the last bucket saturates.
    /// Bucket 0 counts empty (idle) passes.
    pub combined_hist: Vec<u64>,
    /// Pqueue minima-cache stale-empty probes per partition: extract-min
    /// legs that probed a partition and found it empty (the host-side minima
    /// cache was stale, or the merge forced an untried-partition check).
    /// Empty/zero for non-pqueue structures.
    pub pq_stale: Vec<u64>,
    /// Requests served per partition by replicating another request's
    /// response within the same combining pass (key-range coalescing,
    /// `Policy::Adaptive` only): each counted request still completes, but
    /// without its own NMP descent. Always zero under `Policy::Fixed`.
    #[serde(default)]
    pub coalesced: Vec<u64>,
}

impl OffloadStats {
    /// Total requests posted across partitions.
    pub fn posted_total(&self) -> u64 {
        self.posted.iter().sum()
    }

    /// Total requests executed by combiners across partitions.
    pub fn completed_total(&self) -> u64 {
        self.completed.iter().sum()
    }

    /// Total retry responses across partitions.
    pub fn retries_total(&self) -> u64 {
        self.retries.iter().sum()
    }

    /// Total LOCK_PATH responses across partitions.
    pub fn lock_path_total(&self) -> u64 {
        self.lock_path.iter().sum()
    }

    /// Total pqueue stale-empty probes across partitions.
    pub fn pq_stale_total(&self) -> u64 {
        self.pq_stale.iter().sum()
    }

    /// Total requests served by response replication (coalesced descents)
    /// across partitions.
    pub fn coalesced_total(&self) -> u64 {
        self.coalesced.iter().sum()
    }

    /// Histogram buckets tracked per partition (0 when no telemetry).
    pub fn hist_buckets(&self) -> usize {
        if self.posted.is_empty() {
            0
        } else {
            self.combined_hist.len() / self.posted.len()
        }
    }

    /// Scan passes (across all partitions) that collected at least
    /// `min_batch` requests. `passes_with(1)` = non-empty passes;
    /// `passes_with(2)` > 0 shows flat-combining batching in action.
    pub fn passes_with(&self, min_batch: usize) -> u64 {
        let buckets = self.hist_buckets();
        if buckets == 0 {
            return 0;
        }
        self.combined_hist
            .chunks(buckets)
            .map(|part| part.iter().skip(min_batch).sum::<u64>())
            .sum()
    }

    /// Mean requests combined per non-empty scan pass (0 when idle).
    pub fn mean_batch(&self) -> f64 {
        let nonempty = self.passes_with(1);
        if nonempty == 0 {
            0.0
        } else {
            self.completed_total() as f64 / nonempty as f64
        }
    }

    /// Counter-wise `self - earlier`, tolerating an `earlier` snapshot
    /// taken before any offload runtime existed (empty vectors read as
    /// all-zero). Panics naming the counter if `earlier` has more events.
    pub fn delta_since(&self, earlier: &OffloadStats) -> OffloadStats {
        fn dv(name: &str, a: &[u64], b: &[u64]) -> Vec<u64> {
            a.iter()
                .enumerate()
                .map(|(i, &x)| {
                    sub(format_args!("offload.{name}[{i}]"), x, b.get(i).copied().unwrap_or(0))
                })
                .collect()
        }
        OffloadStats {
            posted: dv("posted", &self.posted, &earlier.posted),
            completed: dv("completed", &self.completed, &earlier.completed),
            retries: dv("retries", &self.retries, &earlier.retries),
            lock_path: dv("lock_path", &self.lock_path, &earlier.lock_path),
            lane_posted: dv("lane_posted", &self.lane_posted, &earlier.lane_posted),
            combined_hist: dv("combined_hist", &self.combined_hist, &earlier.combined_hist),
            pq_stale: dv("pq_stale", &self.pq_stale, &earlier.pq_stale),
            coalesced: dv("coalesced", &self.coalesced, &earlier.coalesced),
        }
    }
}

/// A snapshot of every counter in the memory system, taken with
/// [`crate::mem::MemorySystem::snapshot`]. Subtract two snapshots with
/// [`StatsSnapshot::delta_since`] to isolate a measurement window.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// L1 counters, aggregated over all host cores.
    pub l1: CacheStats,
    /// Shared-L2 (LLC) counters.
    pub l2: CacheStats,
    /// Per-vault DRAM counters, indexed by vault id. Vaults
    /// `0..main_vaults` are host main memory; the rest are NMP vaults.
    pub vaults: Vec<VaultStats>,
    /// Host MMIO reads (scratchpad polling).
    pub mmio_reads: u64,
    /// Host MMIO writes (request publication).
    pub mmio_writes: u64,
    /// Hits in the NMP cores' single node-register buffers.
    pub nmp_buffer_hits: u64,
    /// How many of the vaults are host main-memory vaults.
    pub main_vaults: usize,
    /// Racy access pairs found by the attached race detector (0 when
    /// no analysis is attached). Cumulative —
    /// not cleared by `reset_stats`.
    pub races_detected: u64,
    /// Offload-runtime telemetry (publication-list lifecycle counters).
    pub offload: OffloadStats,
}

impl StatsSnapshot {
    /// Total DRAM read bursts across all vaults (the Fig. 5b/6b/9 metric).
    pub fn dram_reads(&self) -> u64 {
        self.vaults.iter().map(|v| v.reads).sum()
    }

    /// Total DRAM write bursts across all vaults.
    pub fn dram_writes(&self) -> u64 {
        self.vaults.iter().map(|v| v.writes).sum()
    }

    /// DRAM reads serviced by the host-accessible main-memory vaults.
    pub fn host_dram_reads(&self) -> u64 {
        self.vaults[..self.main_vaults].iter().map(|v| v.reads).sum()
    }

    /// DRAM reads serviced by NMP vaults (issued by NMP cores).
    pub fn nmp_dram_reads(&self) -> u64 {
        self.vaults[self.main_vaults..].iter().map(|v| v.reads).sum()
    }

    /// Counter-wise `self - earlier`. Panics naming the counter if `earlier`
    /// has more events (snapshots must come from the same run, in order).
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        fn dc(name: &str, a: &CacheStats, b: &CacheStats) -> CacheStats {
            CacheStats {
                hits: sub(format_args!("{name}.hits"), a.hits, b.hits),
                misses: sub(format_args!("{name}.misses"), a.misses, b.misses),
                writebacks: sub(format_args!("{name}.writebacks"), a.writebacks, b.writebacks),
                invalidations: sub(
                    format_args!("{name}.invalidations"),
                    a.invalidations,
                    b.invalidations,
                ),
            }
        }
        assert_eq!(self.vaults.len(), earlier.vaults.len());
        let dv =
            |i: usize, field: &str, a: u64, b: u64| sub(format_args!("vaults[{i}].{field}"), a, b);
        StatsSnapshot {
            l1: dc("l1", &self.l1, &earlier.l1),
            l2: dc("l2", &self.l2, &earlier.l2),
            vaults: self
                .vaults
                .iter()
                .zip(&earlier.vaults)
                .enumerate()
                .map(|(i, (a, b))| VaultStats {
                    reads: dv(i, "reads", a.reads, b.reads),
                    writes: dv(i, "writes", a.writes, b.writes),
                    row_hits: dv(i, "row_hits", a.row_hits, b.row_hits),
                    row_misses: dv(i, "row_misses", a.row_misses, b.row_misses),
                    row_conflicts: dv(i, "row_conflicts", a.row_conflicts, b.row_conflicts),
                    bank_wait_cycles: dv(
                        i,
                        "bank_wait_cycles",
                        a.bank_wait_cycles,
                        b.bank_wait_cycles,
                    ),
                })
                .collect(),
            mmio_reads: sub("mmio_reads", self.mmio_reads, earlier.mmio_reads),
            mmio_writes: sub("mmio_writes", self.mmio_writes, earlier.mmio_writes),
            nmp_buffer_hits: sub("nmp_buffer_hits", self.nmp_buffer_hits, earlier.nmp_buffer_hits),
            main_vaults: self.main_vaults,
            races_detected: sub("races_detected", self.races_detected, earlier.races_detected),
            offload: self.offload.delta_since(&earlier.offload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(reads0: u64, reads1: u64) -> StatsSnapshot {
        StatsSnapshot {
            vaults: vec![
                VaultStats { reads: reads0, ..Default::default() },
                VaultStats { reads: reads1, ..Default::default() },
            ],
            main_vaults: 1,
            ..Default::default()
        }
    }

    #[test]
    fn dram_read_split() {
        let s = snap(3, 5);
        assert_eq!(s.dram_reads(), 8);
        assert_eq!(s.host_dram_reads(), 3);
        assert_eq!(s.nmp_dram_reads(), 5);
    }

    #[test]
    fn delta_subtracts() {
        let a = snap(10, 20);
        let b = snap(4, 6);
        let d = a.delta_since(&b);
        assert_eq!(d.vaults[0].reads, 6);
        assert_eq!(d.vaults[1].reads, 14);
    }

    #[test]
    fn hit_rate_handles_empty() {
        let c = CacheStats::default();
        assert_eq!(c.hit_rate(), 0.0);
        let c = CacheStats { hits: 3, misses: 1, ..Default::default() };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "`vaults[0].reads` went backwards (1 < 2)")]
    fn delta_rejects_reordered_snapshots() {
        let a = snap(1, 1);
        let b = snap(2, 2);
        let _ = a.delta_since(&b);
    }

    #[test]
    #[should_panic(expected = "`offload.retries[1]` went backwards (0 < 3)")]
    fn offload_delta_rejects_reordered_snapshots() {
        let later = OffloadStats { retries: vec![5, 0], ..Default::default() };
        let earlier = OffloadStats { retries: vec![5, 3], ..Default::default() };
        let _ = later.delta_since(&earlier);
    }
}
