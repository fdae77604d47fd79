//! Simulator configuration.
//!
//! [`Config::paper`] reproduces Table 1 of the HybriDS paper (SPAA '22):
//! 8 out-of-order 2 GHz host cores, private L1 caches, a 1 MB shared L2,
//! one HMC device with 16 vaults (8 host-accessible main-memory vaults and
//! 8 NMP vaults), and one in-order single-cycle NMP core per NMP vault.
//!
//! [`Config::default_scaled`] is the same machine scaled down 16× in
//! structure/LLC size so that the structure-to-LLC ratio of the paper's
//! experiments is preserved while simulations finish quickly.

use serde::{Deserialize, Serialize};

/// Offload-runtime tuning policy (consumed by `hybrids::offload::policy`).
///
/// The simulator itself never branches on this knob: it only carries the
/// selection so every layer (driver, combiners, benches, serialized configs)
/// agrees on one value. `Fixed` runs the hand-tuned constants exactly as
/// configured (`host_pipeline_idle_cycles`, `nmp_idle_poll_cycles`, the
/// driver's `inflight`); `Adaptive` lets the offload runtime retune those
/// levers online — as a pure function of simulated state, so determinism
/// (including byte-identity across the engine's two topologies) is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Policy {
    /// Hand-tuned constants from the config, unchanged at run time.
    #[default]
    Fixed,
    /// Online self-tuning (batch coalescing, lane-depth and idle-cycle
    /// adaptation) driven by observed combiner occupancy.
    Adaptive,
}

impl Policy {
    /// Lower-case label used in CSV/JSONL columns and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Fixed => "fixed",
            Policy::Adaptive => "adaptive",
        }
    }

    /// Parse a CLI/env spelling (`fixed` / `adaptive`, case-insensitive).
    pub fn parse(s: &str) -> Option<Policy> {
        match s.to_ascii_lowercase().as_str() {
            "fixed" => Some(Policy::Fixed),
            "adaptive" => Some(Policy::Adaptive),
            _ => None,
        }
    }
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Block (line) size in bytes. Must be a power of two.
    pub block_bytes: u32,
    /// Access latency in cycles charged on a hit at this level.
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        assert!(self.block_bytes.is_power_of_two(), "block size must be a power of two");
        let sets = self.size_bytes / (self.ways * self.block_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two (got {sets})");
        sets
    }
}

/// Full simulator configuration (host, memory, and NMP core parameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Core clock frequency in GHz (host and NMP cores both run at this
    /// frequency in the paper's setup).
    pub clock_ghz: f64,
    /// Number of host cores; one host thread runs per core.
    pub host_cores: usize,
    /// Private per-core L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 (the last-level cache in the paper's two-level hierarchy).
    pub l2: CacheConfig,

    /// Total number of memory vaults in the device.
    pub num_vaults: usize,
    /// How many of the vaults form host-accessible main memory; the rest are
    /// NMP vaults (one NMP core each).
    pub main_vaults: usize,
    /// DRAM banks per vault.
    pub banks_per_vault: usize,
    /// DRAM row size per bank in bytes (open-row granularity).
    pub row_bytes: u32,
    /// Row-precharge time in nanoseconds.
    pub t_rp_ns: f64,
    /// Row-activate (RAS-to-CAS) time in nanoseconds.
    pub t_rcd_ns: f64,
    /// Column access (CAS) latency in nanoseconds.
    pub t_cl_ns: f64,
    /// Data burst time in nanoseconds.
    pub t_burst_ns: f64,
    /// Round-trip latency of the off-chip serial link between the host CPU
    /// and the memory device, paid by every host access that reaches DRAM.
    /// NMP cores sit inside the device and never pay it — the latency
    /// asymmetry at the heart of near-memory processing.
    pub host_link_ns: f64,

    /// Size of the single node-register buffer in each NMP core, bytes.
    /// Acts as a one-block cache (Choe et al., SPAA '19).
    pub nmp_buffer_bytes: u32,
    /// Scratchpad bytes per NMP core that are memory-mapped into the host
    /// address space (holds the publication list).
    pub scratchpad_bytes: u32,
    /// Latency of one host MMIO write into a scratchpad, nanoseconds.
    pub mmio_write_ns: f64,
    /// Latency of one host MMIO read from a scratchpad, nanoseconds.
    pub mmio_read_ns: f64,

    /// Cycles a host thread waits between polls of a publication-list flag.
    pub host_poll_interval_cycles: u64,
    /// Cycles an idle NMP core waits between publication-list scan rounds
    /// (charged by the combiner when a full scan pass finds no requests).
    pub nmp_idle_poll_cycles: u64,
    /// Cycles a pipelining host thread idles between lane sweeps when no
    /// lane made progress (the driver's non-blocking loop and its warm-up
    /// barrier).
    pub host_pipeline_idle_cycles: u64,
    /// Cycles charged per simulated "CPU step" (non-memory work between
    /// memory accesses, e.g. a key comparison). Out-of-order hosts hide most
    /// of this; the in-order sensitivity configuration charges more.
    pub cpu_step_cycles: u64,

    /// Bytes of simulated host heap actually backed by the simulator.
    /// (Architecturally the main-memory vaults are `main_vaults * vault
    /// capacity`; we only back what experiments allocate.)
    pub host_heap_bytes: u32,
    /// Backed heap bytes per NMP partition.
    pub part_heap_bytes: u32,

    /// Capacity (in events) of the `nmp_sim::trace` ring buffer when a
    /// tracer is attached; the oldest events are dropped beyond this. Unused
    /// when no tracer is attached.
    pub trace_buffer_events: usize,

    /// Test switch: schedule every logical thread from one shard — the
    /// sequential min-`(clock, id)` order by construction — instead of the
    /// host shard plus one vault shard per NMP partition. Results are
    /// byte-identical either way; the determinism suites run both and
    /// compare (see DESIGN.md §4.9). Nothing else sets it.
    #[serde(default)]
    pub single_loop: bool,

    /// Offload-runtime tuning policy ([`Policy::Fixed`] reproduces the
    /// hand-tuned constants; [`Policy::Adaptive`] self-tunes online).
    /// Configs serialized before the knob existed deserialize to `Fixed`.
    #[serde(default)]
    pub policy: Policy,
}

impl Config {
    /// The configuration of Table 1 in the paper, with heap sizes large
    /// enough for the paper-scale structures (2^22-key skiplist / ~30M-key
    /// B+ tree).
    pub fn paper() -> Self {
        Config {
            clock_ghz: 2.0,
            host_cores: 8,
            l1: CacheConfig { size_bytes: 64 * 1024, ways: 2, block_bytes: 128, latency_cycles: 2 },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 8,
                block_bytes: 128,
                latency_cycles: 20,
            },
            num_vaults: 16,
            main_vaults: 8,
            banks_per_vault: 8,
            row_bytes: 4096,
            t_rp_ns: 13.75,
            t_rcd_ns: 13.75,
            t_cl_ns: 13.75,
            t_burst_ns: 3.2,
            host_link_ns: 16.0,
            nmp_buffer_bytes: 128,
            scratchpad_bytes: 8 * 1024,
            mmio_write_ns: 12.0,
            mmio_read_ns: 12.0,
            host_poll_interval_cycles: 40,
            nmp_idle_poll_cycles: 16,
            host_pipeline_idle_cycles: 16,
            cpu_step_cycles: 1,
            host_heap_bytes: 192 * 1024 * 1024,
            part_heap_bytes: 64 * 1024 * 1024,
            trace_buffer_events: 1 << 16,
            single_loop: false,
            policy: Policy::Fixed,
        }
    }

    /// Paper machine scaled down 16× in LLC size; experiments scale their
    /// structures by the same factor so every size *ratio* of the paper's
    /// evaluation (structure ≈ 512× LLC for the skiplist) is preserved.
    pub fn default_scaled() -> Self {
        let mut c = Self::paper();
        c.l2.size_bytes = 64 * 1024; // 16x smaller LLC
        c.l1.size_bytes = 16 * 1024;
        c.host_heap_bytes = 24 * 1024 * 1024;
        c.part_heap_bytes = 8 * 1024 * 1024;
        c
    }

    /// A tiny configuration for unit tests: 4 host cores, 2 NMP partitions,
    /// small caches and heaps, fast polls.
    pub fn tiny() -> Self {
        let mut c = Self::paper();
        c.host_cores = 4;
        c.num_vaults = 4;
        c.main_vaults = 2;
        c.l1 = CacheConfig { size_bytes: 4 * 1024, ways: 2, block_bytes: 128, latency_cycles: 2 };
        c.l2 = CacheConfig { size_bytes: 16 * 1024, ways: 8, block_bytes: 128, latency_cycles: 20 };
        c.host_heap_bytes = 4 * 1024 * 1024;
        c.part_heap_bytes = 2 * 1024 * 1024;
        c.scratchpad_bytes = 4 * 1024;
        c
    }

    /// Switch host cores to the in-order model used for the paper's
    /// sensitivity experiments (§5.2): non-memory work is not hidden, so
    /// each simulated CPU step costs more.
    pub fn with_in_order_hosts(mut self) -> Self {
        self.cpu_step_cycles = 3;
        self
    }

    /// Number of NMP partitions (= NMP vaults = NMP cores).
    pub fn nmp_partitions(&self) -> usize {
        assert!(self.main_vaults < self.num_vaults, "need at least one NMP vault");
        self.num_vaults - self.main_vaults
    }

    /// Select the single-shard reference topology (see
    /// [`Config::single_loop`]); for determinism tests only.
    pub fn with_single_loop(mut self) -> Self {
        self.single_loop = true;
        self
    }

    /// Set the offload-runtime tuning policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Every stock preset this crate ships, by name. Harnesses iterate this
    /// to prove all presets validate and serde-round-trip (the validation
    /// contract: every poll/idle knob is at least one cycle, which is also
    /// the floor the adaptive policy layer clamps its online choices to).
    pub fn stock_configs() -> Vec<(&'static str, Config)> {
        vec![
            ("paper", Config::paper()),
            ("paper-in-order", Config::paper().with_in_order_hosts()),
            ("scaled", Config::default_scaled()),
            ("tiny", Config::tiny()),
        ]
    }

    /// Convert nanoseconds to clock cycles (rounded to nearest, min 1).
    pub fn cycles(&self, ns: f64) -> u64 {
        ((ns * self.clock_ghz).round() as u64).max(1)
    }

    /// Latency in cycles of an L2 (last-level cache) miss serviced by a
    /// fresh DRAM row activation — a useful yardstick (Table 2 compares
    /// offload delays against "1–2 LLC miss delays").
    pub fn llc_miss_cycles(&self) -> u64 {
        self.l1.latency_cycles
            + self.l2.latency_cycles
            + self.cycles(self.host_link_ns)
            + self.cycles(self.t_rcd_ns + self.t_cl_ns + self.t_burst_ns)
    }

    /// Validate internal consistency; panics with a descriptive message on
    /// an impossible configuration.
    pub fn validate(&self) {
        assert!(self.host_cores >= 1);
        assert!(self.main_vaults >= 1 && self.main_vaults < self.num_vaults);
        assert_eq!(self.l1.block_bytes, self.l2.block_bytes, "mixed block sizes unsupported");
        let _ = self.l1.sets();
        let _ = self.l2.sets();
        assert!(self.row_bytes.is_power_of_two());
        assert!(self.nmp_buffer_bytes.is_power_of_two());
        assert!(self.host_heap_bytes.is_multiple_of(8) && self.part_heap_bytes.is_multiple_of(8));
        assert!(self.scratchpad_bytes.is_multiple_of(8));
        assert!(
            self.host_poll_interval_cycles >= 1
                && self.nmp_idle_poll_cycles >= 1
                && self.host_pipeline_idle_cycles >= 1,
            "poll/idle intervals must be at least one cycle"
        );
        assert!(self.trace_buffer_events >= 1, "trace ring needs at least one slot");
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::default_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = Config::paper();
        c.validate();
        assert_eq!(c.host_cores, 8);
        assert_eq!(c.nmp_partitions(), 8);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        assert_eq!(c.l1.block_bytes, 128);
        assert_eq!(c.l2.latency_cycles, 20);
        // 13.75ns at 2GHz = 27.5 cycles -> rounds to 28
        assert_eq!(c.cycles(c.t_rp_ns), 28);
        assert_eq!(c.cycles(c.t_burst_ns), 6);
    }

    #[test]
    fn cache_geometry() {
        let c = Config::paper();
        assert_eq!(c.l1.sets(), 64 * 1024 / (2 * 128));
        assert_eq!(c.l2.sets(), 1024 * 1024 / (8 * 128));
    }

    #[test]
    fn scaled_preserves_ratios() {
        let p = Config::paper();
        let s = Config::default_scaled();
        assert_eq!(p.l2.size_bytes / s.l2.size_bytes, 16);
        s.validate();
    }

    #[test]
    fn llc_miss_is_tens_of_cycles() {
        let c = Config::paper();
        let m = c.llc_miss_cycles();
        assert!(m > 80 && m < 200, "llc miss = {m}");
    }

    #[test]
    fn cycles_rounds_and_clamps() {
        let c = Config::paper();
        assert_eq!(c.cycles(0.0), 1);
        assert_eq!(c.cycles(0.5), 1);
        assert_eq!(c.cycles(10.0), 20);
    }

    #[test]
    fn in_order_costs_more_per_step() {
        let c = Config::paper().with_in_order_hosts();
        assert!(c.cpu_step_cycles > Config::paper().cpu_step_cycles);
    }

    #[test]
    fn serde_roundtrip() {
        let c = Config::paper();
        let j = serde_json::to_string(&c).unwrap();
        let back: Config = serde_json::from_str(&j).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn validate_rejects_zero_idle_interval() {
        let mut c = Config::paper();
        c.host_pipeline_idle_cycles = 0;
        c.validate();
    }

    #[test]
    #[should_panic]
    fn validate_rejects_no_nmp_vaults() {
        let mut c = Config::paper();
        c.main_vaults = c.num_vaults;
        c.validate();
    }

    #[test]
    fn tiny_is_valid() {
        let c = Config::tiny();
        c.validate();
        assert_eq!(c.nmp_partitions(), 2);
    }

    #[test]
    fn policy_knob_defaults_parses_and_roundtrips() {
        // Configs serialized before the knob existed deserialize to Fixed.
        let j = serde_json::to_string(&Config::paper()).unwrap();
        let pruned = j.replace(",\"policy\":\"Fixed\"", "");
        assert_ne!(j, pruned, "serialized config must carry the policy knob");
        let back: Config = serde_json::from_str(&pruned).unwrap();
        assert_eq!(back.policy, Policy::Fixed);
        // Adaptive survives a round trip.
        let a = Config::tiny().with_policy(Policy::Adaptive);
        let j = serde_json::to_string(&a).unwrap();
        let back: Config = serde_json::from_str(&j).unwrap();
        assert_eq!(back, a);
        // Label / parse are inverses, for CLI flags and CSV columns.
        for p in [Policy::Fixed, Policy::Adaptive] {
            assert_eq!(Policy::parse(p.label()), Some(p));
        }
        assert_eq!(Policy::parse("ADAPTIVE"), Some(Policy::Adaptive));
        assert_eq!(Policy::parse("bogus"), None);
        assert_eq!(Policy::default(), Policy::Fixed);
    }

    /// The satellite contract: every stock preset validates, serializes,
    /// deserializes back to itself, and keeps every poll/idle knob at or
    /// above the one-cycle floor `validate` enforces — under both policies.
    /// (The adaptive layer clamps its online idle choices to the same floor,
    /// so a valid config can never be driven invalid at run time.)
    #[test]
    fn stock_configs_validate_and_roundtrip() {
        let stock = Config::stock_configs();
        assert!(stock.len() >= 4);
        for (name, cfg) in stock {
            for policy in [Policy::Fixed, Policy::Adaptive] {
                let c = cfg.clone().with_policy(policy);
                c.validate();
                assert!(
                    c.host_poll_interval_cycles >= 1
                        && c.nmp_idle_poll_cycles >= 1
                        && c.host_pipeline_idle_cycles >= 1,
                    "stock config {name} has a sub-cycle idle knob"
                );
                let j = serde_json::to_string(&c).unwrap();
                let back: Config = serde_json::from_str(&j).unwrap();
                assert_eq!(back, c, "stock config {name} must round-trip");
                back.validate();
            }
        }
    }

    #[test]
    fn single_loop_is_off_unless_asked_for() {
        // Configs serialized before the switch existed select the default
        // topology, and so does every stock preset.
        let j = serde_json::to_string(&Config::paper()).unwrap();
        let pruned = j.replace(",\"single_loop\":false", "");
        assert_ne!(j, pruned, "serialized config must carry the switch");
        let back: Config = serde_json::from_str(&pruned).unwrap();
        assert!(!back.single_loop);
        for (name, cfg) in Config::stock_configs() {
            assert!(!cfg.single_loop, "stock config {name} selects the reference topology");
        }
        assert!(Config::tiny().with_single_loop().single_loop);
    }
}
