//! Shared experiment harness for regenerating every table and figure of the
//! HybriDS evaluation (§5). The `benches/` targets (run by `cargo bench`)
//! call into this library; each prints paper-style rows and writes CSV /
//! JSONL records under `results/`.
//!
//! ## Scales
//!
//! Cycle-level simulation is slow, so experiments run at one of three
//! scales selected by the `HYBRIDS_SCALE` environment variable:
//!
//! * `ci` (default): a further-scaled machine so `cargo bench` finishes in
//!   minutes — every *ratio* of the paper's setup (structure : LLC,
//!   host-portion : LLC) is preserved.
//! * `scaled`: the DESIGN.md default (LLC/16, 2^18-key skiplist).
//! * `paper`: Table 1 verbatim (1 MB LLC, 2^22-key skiplist, ~30M-key
//!   B+ tree). Expect very long runs.
//!
//! `HYBRIDS_OPS` overrides measured operations per thread, `HYBRIDS_POLICY`
//! (`fixed|adaptive`) the offload policy and `HYBRIDS_RESULTS_DIR` where the
//! records go. A value that does not parse is an error.

use std::fmt::Write as _;
use std::sync::Arc;

use hybrids::api::SimIndex;
use hybrids::btree::{HostBTree, HybridBTree};
use hybrids::driver::{run_index, RunResult, RunSpec};
use hybrids::hashmap::HybridHashMap;
use hybrids::pqueue::HybridPqueue;
use hybrids::skiplist::{
    hybrid::split_for, lockfree::NodeLayout, HybridSkipList, LockFreeSkipList, NmpSkipList,
};
use nmp_sim::{Config, Machine, Policy};
use serde::Serialize;
use workloads::{InsertDist, Key, KeyDist, KeySpace, Mix, Op, Value, WorkloadSpec};

pub const SEED: u64 = 0x5EED_2022;

/// Experiment scale: machine config + structure sizes + op counts.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    pub cfg: Config,
    /// Initial skiplist keys (power of two).
    pub skiplist_keys: u32,
    /// Initial B+ tree keys (rounded down to a partition multiple).
    pub btree_keys: u32,
    pub ops_per_thread: u32,
    pub warmup_per_thread: u32,
    /// OLTP application traffic around each B+ tree operation (cache lines
    /// of row data per op; see `RunSpec::app_footprint_lines`). The paper's
    /// full-system B+ tree measurements include such traffic; the skiplist
    /// experiments run as pure microbenchmarks (0).
    pub btree_footprint_lines: u32,
}

/// The scale a `HYBRIDS_SCALE` value names, if it is one of the four.
fn scale_by_name(name: &str) -> Option<Scale> {
    match name {
        "smoke" => Some(Scale::smoke()),
        "ci" => Some(Scale::ci()),
        "scaled" => Some(Scale::scaled()),
        "paper" => Some(Scale::paper()),
        _ => None,
    }
}

impl Scale {
    pub fn ci() -> Self {
        let mut cfg = Config::paper();
        // The LLC scales ~sqrt(n) relative to Table 1 so the paper's key
        // relationship (host-managed levels > NMP-managed levels; here 9/8
        // vs the paper's 13/9) is preserved at a tractable size.
        cfg.l1.size_bytes = 8 * 1024;
        cfg.l2.size_bytes = 64 * 1024;
        cfg.host_heap_bytes = 32 * 1024 * 1024;
        cfg.part_heap_bytes = 6 * 1024 * 1024;
        Scale {
            name: "ci",
            // 2^17 keys x ~48 B/node over a 16 kB LLC keeps the paper's
            // structure : LLC ratio (~400-500x).
            cfg,
            skiplist_keys: 1 << 17,
            btree_keys: 400_000,
            ops_per_thread: 600,
            warmup_per_thread: 250,
            btree_footprint_lines: 4,
        }
    }

    pub fn scaled() -> Self {
        let mut cfg = Config::default_scaled();
        cfg.l1.size_bytes = 16 * 1024;
        cfg.l2.size_bytes = 128 * 1024; // 10 host / 8 NMP levels at 2^18 keys
        cfg.host_heap_bytes = 72 * 1024 * 1024;
        cfg.part_heap_bytes = 12 * 1024 * 1024;
        Scale {
            name: "scaled",
            cfg,
            skiplist_keys: 1 << 18,
            btree_keys: 1_900_000,
            ops_per_thread: 1500,
            warmup_per_thread: 500,
            btree_footprint_lines: 4,
        }
    }

    pub fn paper() -> Self {
        let mut cfg = Config::paper();
        cfg.host_heap_bytes = 640 * 1024 * 1024;
        cfg.part_heap_bytes = 96 * 1024 * 1024;
        Scale {
            name: "paper",
            cfg,
            skiplist_keys: 1 << 22,
            btree_keys: 30_000_000,
            ops_per_thread: 2000,
            warmup_per_thread: 600,
            btree_footprint_lines: 4,
        }
    }

    /// Minimal end-to-end scale: a `Config::tiny()` machine with a handful
    /// of ops, so the whole bench path (populate → warmup → measure →
    /// CSV/JSONL) runs in seconds. Used by the CI smoke step.
    pub fn smoke() -> Self {
        Scale {
            name: "smoke",
            cfg: Config::tiny(),
            skiplist_keys: 1 << 10,
            btree_keys: 2048,
            ops_per_thread: 20,
            warmup_per_thread: 5,
            btree_footprint_lines: 0,
        }
    }

    /// Resolve from `HYBRIDS_SCALE` / `HYBRIDS_OPS` / `HYBRIDS_POLICY`
    /// (unset = `ci`). A value that does not parse is an error, not the
    /// default.
    pub fn from_env() -> Self {
        let mut s = match std::env::var("HYBRIDS_SCALE") {
            Ok(name) => scale_by_name(&name).unwrap_or_else(|| {
                panic!("HYBRIDS_SCALE={name:?} is not one of smoke|ci|scaled|paper")
            }),
            Err(_) => Self::ci(),
        };
        if let Ok(ops) = std::env::var("HYBRIDS_OPS") {
            s.ops_per_thread = ops.parse().expect("HYBRIDS_OPS must be an integer");
        }
        if let Ok(p) = std::env::var("HYBRIDS_POLICY") {
            s.cfg.policy = Policy::parse(&p).expect("HYBRIDS_POLICY must be 'fixed' or 'adaptive'");
        }
        s
    }

    /// Offload policy variant (`fixed` keeps the hand-tuned knobs,
    /// `adaptive` enables the self-tuning runtime); see
    /// `hybrids::offload::policy`.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.cfg = self.cfg.with_policy(policy);
        self
    }

    /// In-order host cores variant (sensitivity experiments, §5.2).
    pub fn in_order(mut self) -> Self {
        self.cfg = self.cfg.with_in_order_hosts();
        self
    }

    pub fn partitions(&self) -> u32 {
        self.cfg.nmp_partitions() as u32
    }

    /// Key space for skiplist experiments.
    pub fn skiplist_keyspace(&self) -> KeySpace {
        let headroom = (self.ops_per_thread * self.cfg.host_cores as u32).max(4096);
        KeySpace::new(self.skiplist_keys, self.partitions(), headroom)
    }

    /// Key space for B+ tree experiments.
    pub fn btree_keyspace(&self) -> KeySpace {
        let parts = self.partitions();
        let n = self.btree_keys / parts * parts;
        let headroom = (self.ops_per_thread * self.cfg.host_cores as u32).max(4096);
        KeySpace::new(n, parts, headroom)
    }
}

/// Initial `(key, value)` pairs for a key space.
pub fn initial_pairs(ks: &KeySpace) -> Vec<(Key, Value)> {
    (0..ks.total_initial()).map(|i| (ks.initial_key(i), i ^ 0x9E37)).collect()
}

/// The structure variants of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    LockFree,
    NmpBased,
    HybridBlocking,
    HybridNonblocking(usize),
    HostOnly,
    HybridBtBlocking,
    HybridBtNonblocking(usize),
    HashMapBlocking,
    HashMapNonblocking(usize),
    PqueueBlocking,
    PqueueNonblocking(usize),
}

impl Variant {
    pub fn label(&self) -> String {
        match self {
            Variant::LockFree => "lock-free".into(),
            Variant::NmpBased => "NMP-based".into(),
            Variant::HybridBlocking | Variant::HybridBtBlocking => "hybrid-blocking".into(),
            Variant::HybridNonblocking(k) | Variant::HybridBtNonblocking(k) => {
                format!("hybrid-nonblocking{k}")
            }
            Variant::HostOnly => "host-only".into(),
            Variant::HashMapBlocking => "hashmap-blocking".into(),
            Variant::HashMapNonblocking(k) => format!("hashmap-nonblocking{k}"),
            Variant::PqueueBlocking => "pqueue-blocking".into(),
            Variant::PqueueNonblocking(k) => format!("pqueue-nonblocking{k}"),
        }
    }

    pub fn inflight(&self) -> usize {
        match self {
            Variant::HybridNonblocking(k)
            | Variant::HybridBtNonblocking(k)
            | Variant::HashMapNonblocking(k)
            | Variant::PqueueNonblocking(k) => *k,
            _ => 1,
        }
    }
}

/// Adapter so the lock-free skiplist (a plain structure with no NMP
/// portion) plugs into the driver.
pub struct LockFreeIndex(pub Arc<LockFreeSkipList>);

impl SimIndex for LockFreeIndex {
    type Pending = hybrids::OpResult;

    fn execute(&self, ctx: &mut nmp_sim::ThreadCtx, op: Op) -> hybrids::OpResult {
        match op {
            Op::Read(k) => match self.0.read(ctx, k) {
                Some((_, v)) => hybrids::OpResult::ok(v),
                None => hybrids::OpResult::fail(),
            },
            Op::Insert(k, v) => {
                if self.0.insert(ctx, k, v) {
                    hybrids::OpResult::ok(0)
                } else {
                    hybrids::OpResult::fail()
                }
            }
            Op::Remove(k) => {
                if self.0.remove(ctx, k) {
                    hybrids::OpResult::ok(0)
                } else {
                    hybrids::OpResult::fail()
                }
            }
            Op::Update(k, v) => {
                if self.0.update(ctx, k, v) {
                    hybrids::OpResult::ok(0)
                } else {
                    hybrids::OpResult::fail()
                }
            }
            Op::Scan(k, len) => {
                let n = self.0.scan(ctx, k, len as u32);
                hybrids::OpResult { ok: n > 0, value: n }
            }
            // Not a search-tree operation (priority queues only).
            Op::ExtractMin => hybrids::OpResult::fail(),
        }
    }

    fn issue(
        &self,
        ctx: &mut nmp_sim::ThreadCtx,
        _lane: usize,
        op: Op,
    ) -> hybrids::Issued<Self::Pending> {
        hybrids::Issued::Done(self.execute(ctx, op))
    }

    fn poll(&self, _ctx: &mut nmp_sim::ThreadCtx, p: &mut Self::Pending) -> hybrids::PollOutcome {
        hybrids::PollOutcome::Done(*p)
    }

    fn effect_spec(&self) -> nmp_sim::EffectSpec {
        use hybrids::effects::AccessDecl;
        use hybrids::publist::OpCode;
        use nmp_sim::analysis::RegionClass;
        // Entirely host-resident: traversals read host memory and may
        // help-unlink with a CAS; updates release-store the value word.
        let walk =
            [AccessDecl::read(RegionClass::Host), AccessDecl::write(RegionClass::Host).cas()];
        let mutate = [
            AccessDecl::read(RegionClass::Host),
            AccessDecl::write(RegionClass::Host),
            AccessDecl::write(RegionClass::Host).cas(),
            AccessDecl::write(RegionClass::Host).release(),
        ];
        nmp_sim::EffectSpec::new("lockfree-skiplist")
            .op(nmp_sim::OpSpec::new(OpCode::Read as u8, "Read").host_all(&walk))
            .op(nmp_sim::OpSpec::new(OpCode::Scan as u8, "Scan").host_all(&walk))
            .op(nmp_sim::OpSpec::new(OpCode::Update as u8, "Update").host_all(&mutate))
            .op(nmp_sim::OpSpec::new(OpCode::Insert as u8, "Insert").host_all(&mutate))
            .op(nmp_sim::OpSpec::new(OpCode::Remove as u8, "Remove").host_all(&mutate))
    }

    fn spawn_services(self: &Arc<Self>, _sim: &mut nmp_sim::Simulation) {}
}

/// One measured data point, serialized into the results files.
#[derive(Debug, Clone, Serialize)]
pub struct Record {
    pub experiment: String,
    pub scale: String,
    pub variant: String,
    pub workload: String,
    pub threads: u32,
    pub mops: f64,
    pub dram_reads_per_op: f64,
    pub host_dram_reads_per_op: f64,
    pub nmp_dram_reads_per_op: f64,
    pub mmio_per_op: f64,
    pub energy_nj_per_op: f64,
    pub cycles: u64,
    pub measured_ops: u64,
    pub succeeded_ops: u64,
    pub wall_ms: f64,
    pub sim_cycles_per_sec: f64,
    pub offload_posted: u64,
    pub offload_retries: u64,
    pub offload_lock_path: u64,
    pub offload_mean_batch: f64,
    /// End-to-end latency percentiles over the measured window (simulated
    /// cycles, all op kinds).
    pub lat_p50_cycles: f64,
    pub lat_p95_cycles: f64,
    pub lat_p99_cycles: f64,
    /// Priority-queue stale minima-cache probes in the measured window
    /// (zero for non-pqueue structures).
    pub pq_stale_probes: u64,
    /// Offload policy the run used (`fixed` or `adaptive`).
    pub policy: String,
    /// Requests served by coalesced-response replication in the measured
    /// window (always 0 under the fixed policy).
    pub offload_coalesced: u64,
}

impl Record {
    pub fn new(
        experiment: &str,
        scale: &Scale,
        variant: &Variant,
        workload: &str,
        r: &RunResult,
    ) -> Record {
        Record {
            experiment: experiment.into(),
            scale: scale.name.into(),
            variant: variant.label(),
            workload: workload.into(),
            threads: r.threads,
            mops: r.mops,
            dram_reads_per_op: r.dram_reads_per_op,
            host_dram_reads_per_op: r.host_dram_reads_per_op,
            nmp_dram_reads_per_op: r.nmp_dram_reads_per_op,
            mmio_per_op: r.mmio_per_op,
            energy_nj_per_op: r.energy_nj_per_op,
            cycles: r.cycles,
            measured_ops: r.measured_ops,
            succeeded_ops: r.succeeded_ops,
            wall_ms: r.wall_ms,
            sim_cycles_per_sec: r.sim_cycles_per_sec,
            offload_posted: r.offload_posted,
            offload_retries: r.offload_retries,
            offload_lock_path: r.offload_lock_path,
            offload_mean_batch: r.offload_mean_batch,
            lat_p50_cycles: r.lat_p50_cycles,
            lat_p95_cycles: r.lat_p95_cycles,
            lat_p99_cycles: r.lat_p99_cycles,
            pq_stale_probes: r.stats.offload.pq_stale_total(),
            policy: scale.cfg.policy.label().into(),
            offload_coalesced: r.offload_coalesced,
        }
    }
}

/// Run one skiplist variant on a fresh machine.
pub fn run_skiplist(scale: &Scale, variant: Variant, workload: WorkloadSpec) -> RunResult {
    let ks = scale.skiplist_keyspace();
    let machine = Machine::new(scale.cfg.clone());
    let pairs = initial_pairs(&ks);
    let spec = RunSpec {
        workload,
        warmup_per_thread: scale.warmup_per_thread,
        inflight: variant.inflight(),
        app_footprint_lines: 0,
    };
    match variant {
        Variant::LockFree => {
            let (total, _) = split_for(ks.total_initial() as u64, scale.cfg.l2.size_bytes as u64);
            // Conventional (non-cache-aligned, full-height-array) layout:
            // the standard implementation the paper benchmarks against.
            let sl = LockFreeSkipList::with_layout(
                Arc::clone(&machine),
                total,
                SEED,
                NodeLayout::Packed,
            );
            sl.populate(pairs);
            let idx = Arc::new(LockFreeIndex(Arc::new(sl)));
            run_index(&machine, &idx, &ks, &spec)
        }
        Variant::NmpBased => {
            // Whole structure in NMP: per-partition levels = log2(N/P).
            let per_part = (ks.total_initial() / ks.parts).max(2) as u64;
            let levels = 64 - (per_part - 1).leading_zeros();
            let sl = NmpSkipList::new(Arc::clone(&machine), ks, levels, SEED, spec.inflight.max(1));
            sl.populate(pairs);
            run_index(&machine, &sl, &ks, &spec)
        }
        Variant::HybridBlocking | Variant::HybridNonblocking(_) => {
            let (total, nh) = split_for(ks.total_initial() as u64, scale.cfg.l2.size_bytes as u64);
            let sl = HybridSkipList::new(
                Arc::clone(&machine),
                ks,
                total,
                nh,
                SEED,
                spec.inflight.max(1),
            );
            sl.populate(pairs);
            run_index(&machine, &sl, &ks, &spec)
        }
        v => panic!("{v:?} is not a skiplist variant"),
    }
}

/// Run one B+ tree variant on a fresh machine. The paper populates by
/// sorted insertion (≈ half-full nodes): fill = 0.5.
pub fn run_btree(scale: &Scale, variant: Variant, workload: WorkloadSpec) -> RunResult {
    let ks = scale.btree_keyspace();
    let machine = Machine::new(scale.cfg.clone());
    let pairs = initial_pairs(&ks);
    let spec = RunSpec {
        workload,
        warmup_per_thread: scale.warmup_per_thread,
        inflight: variant.inflight(),
        app_footprint_lines: scale.btree_footprint_lines,
    };
    match variant {
        Variant::HostOnly => {
            let t = HostBTree::new(Arc::clone(&machine), &pairs, 0.5);
            run_index(&machine, &t, &ks, &spec)
        }
        Variant::HybridBtBlocking | Variant::HybridBtNonblocking(_) => {
            let t = HybridBTree::new(Arc::clone(&machine), &pairs, 0.5, spec.inflight.max(1));
            run_index(&machine, &t, &ks, &spec)
        }
        v => panic!("{v:?} is not a B+ tree variant"),
    }
}

/// Run one hybrid hash map variant on a fresh machine. The bucket
/// directory targets a load factor around 4 keys/bucket, clamped so it
/// always fits the LLC (the structure's construction-time invariant).
pub fn run_hashmap(scale: &Scale, variant: Variant, workload: WorkloadSpec) -> RunResult {
    let ks = scale.skiplist_keyspace();
    let machine = Machine::new(scale.cfg.clone());
    let pairs = initial_pairs(&ks);
    let spec = RunSpec {
        workload,
        warmup_per_thread: scale.warmup_per_thread,
        inflight: variant.inflight(),
        app_footprint_lines: 0,
    };
    match variant {
        Variant::HashMapBlocking | Variant::HashMapNonblocking(_) => {
            let parts = ks.parts;
            let max_buckets = (scale.cfg.l2.size_bytes / 8 / parts).max(1) * parts;
            let buckets = (ks.total_initial() / 4 / parts).max(1) * parts;
            let hm = HybridHashMap::new(
                Arc::clone(&machine),
                buckets.min(max_buckets),
                SEED,
                spec.inflight.max(1),
            );
            hm.populate(pairs);
            run_index(&machine, &hm, &ks, &spec)
        }
        v => panic!("{v:?} is not a hash map variant"),
    }
}

/// Run one hybrid priority queue variant on a fresh machine. Per-partition
/// run levels follow the NMP-based sizing: log2 of the partition's share.
pub fn run_pqueue(scale: &Scale, variant: Variant, workload: WorkloadSpec) -> RunResult {
    run_pqueue_on(scale, variant, workload, scale.skiplist_keyspace())
}

/// [`run_pqueue`] with an explicit key space — the contention sweep uses a
/// deliberately small one so extract-mins can actually drain partitions.
pub fn run_pqueue_on(
    scale: &Scale,
    variant: Variant,
    workload: WorkloadSpec,
    ks: KeySpace,
) -> RunResult {
    let machine = Machine::new(scale.cfg.clone());
    let pairs = initial_pairs(&ks);
    let spec = RunSpec {
        workload,
        warmup_per_thread: scale.warmup_per_thread,
        inflight: variant.inflight(),
        app_footprint_lines: 0,
    };
    match variant {
        Variant::PqueueBlocking | Variant::PqueueNonblocking(_) => {
            let per_part = (ks.total_initial() / ks.parts).max(2) as u64;
            let levels = 64 - (per_part - 1).leading_zeros();
            let pq =
                HybridPqueue::new(Arc::clone(&machine), ks, levels, SEED, spec.inflight.max(1));
            pq.populate(&pairs);
            run_index(&machine, &pq, &ks, &spec)
        }
        v => panic!("{v:?} is not a priority queue variant"),
    }
}

/// Hash-map point-op mix (60r/20i/10d/10u) over uniform or zipfian keys,
/// on all host cores.
pub fn hashmap_workload(scale: &Scale, dist: KeyDist) -> WorkloadSpec {
    WorkloadSpec::hashmap_mixed(
        SEED ^ 0xA511,
        scale.cfg.host_cores as u32,
        scale.ops_per_thread,
        dist,
    )
}

/// Priority-queue insert/extract mix on all host cores.
pub fn pqueue_workload(scale: &Scale, insert_pct: u8) -> WorkloadSpec {
    WorkloadSpec::pqueue(
        SEED ^ 0x9011,
        scale.cfg.host_cores as u32,
        scale.ops_per_thread,
        insert_pct,
    )
}

/// Key space for the minima-cache contention sweep: deliberately tiny (16
/// initial keys per partition) so the sweep's net-draining mix actually
/// empties partitions within the measured window — a full-size pqueue never
/// drains at bench op counts, and a partition that never empties can never
/// serve a stale-empty probe.
pub fn pqueue_contention_keyspace(scale: &Scale) -> KeySpace {
    KeySpace::new(16 * scale.partitions(), scale.partitions(), 4096)
}

/// Skew-contended priority-queue workload at an explicit thread count:
/// zipfian(θ)-gap inserts pile onto hot partitions while extract-mins drain
/// globally, so cold partitions empty out and the host minima cache takes
/// stale probes (`pq_stale_probes` in the results files).
pub fn pqueue_skewed_workload(
    scale: &Scale,
    insert_pct: u8,
    theta_x100: u32,
    threads: u32,
) -> WorkloadSpec {
    WorkloadSpec::pqueue_skewed(
        SEED ^ 0x9017,
        threads.min(scale.cfg.host_cores as u32).max(1),
        scale.ops_per_thread,
        insert_pct,
        theta_x100,
    )
}

/// YCSB-C at a given thread count (baseline experiments, §5.1).
pub fn ycsb_c(scale: &Scale, threads: u32) -> WorkloadSpec {
    WorkloadSpec {
        seed: SEED ^ threads as u64,
        threads,
        ops_per_thread: scale.ops_per_thread,
        mix: Mix::ycsb_c(),
        read_dist: KeyDist::Zipfian,
        insert_dist: InsertDist::UniformGap,
    }
}

/// Sensitivity workload (§5.2): `X-Y-Z` mix, uniform keys, all host cores.
pub fn sensitivity(scale: &Scale, mix: Mix, insert_dist: InsertDist) -> WorkloadSpec {
    WorkloadSpec {
        seed: SEED ^ 0xF168,
        threads: scale.cfg.host_cores as u32,
        ops_per_thread: scale.ops_per_thread,
        mix,
        read_dist: KeyDist::Uniform,
        insert_dist,
    }
}

// ---- output ----

/// Render rows as an aligned text block.
pub fn render_table(title: &str, rows: &[(String, Vec<(String, f64)>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    for (name, cells) in rows {
        let mut line = format!("  {name:<24}");
        for (col, v) in cells {
            let _ = write!(line, " {col}={v:<10.4}");
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Append records to `results/<experiment>.{csv,jsonl}` under the repo root
/// (override with `HYBRIDS_RESULTS_DIR`).
pub fn save_records(experiment: &str, records: &[Record]) {
    let dir = std::env::var("HYBRIDS_RESULTS_DIR").unwrap_or_else(|_| {
        format!("{}/results", env!("CARGO_MANIFEST_DIR").trim_end_matches("/crates/bench"))
    });
    let _ = std::fs::create_dir_all(&dir);
    let csv_path = format!("{dir}/{experiment}.csv");
    let fresh = !std::path::Path::new(&csv_path).exists();
    let mut csv = String::new();
    if fresh {
        csv.push_str(
            "experiment,scale,variant,workload,threads,mops,dram_reads_per_op,host_dram_reads_per_op,nmp_dram_reads_per_op,mmio_per_op,energy_nj_per_op,cycles,measured_ops,succeeded_ops,wall_ms,sim_cycles_per_sec,offload_posted,offload_retries,offload_lock_path,offload_mean_batch,lat_p50_cycles,lat_p95_cycles,lat_p99_cycles,pq_stale_probes,policy,offload_coalesced\n",
        );
    }
    for r in records {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{:.6},{:.4},{:.4},{:.4},{:.4},{:.4},{},{},{},{:.3},{:.0},{},{},{},{:.3},{:.1},{:.1},{:.1},{},{},{}",
            r.experiment,
            r.scale,
            r.variant,
            r.workload,
            r.threads,
            r.mops,
            r.dram_reads_per_op,
            r.host_dram_reads_per_op,
            r.nmp_dram_reads_per_op,
            r.mmio_per_op,
            r.energy_nj_per_op,
            r.cycles,
            r.measured_ops,
            r.succeeded_ops,
            r.wall_ms,
            r.sim_cycles_per_sec,
            r.offload_posted,
            r.offload_retries,
            r.offload_lock_path,
            r.offload_mean_batch,
            r.lat_p50_cycles,
            r.lat_p95_cycles,
            r.lat_p99_cycles,
            r.pq_stale_probes,
            r.policy,
            r.offload_coalesced
        );
    }
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&csv_path).unwrap();
    f.write_all(csv.as_bytes()).unwrap();
    let mut jl = String::new();
    for r in records {
        let _ = writeln!(jl, "{}", serde_json::to_string(r).unwrap());
    }
    let jl_path = format!("{dir}/{experiment}.jsonl");
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&jl_path).unwrap();
    f.write_all(jl.as_bytes()).unwrap();
    eprintln!("[saved {} records to {csv_path}]", records.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_valid() {
        for s in [Scale::ci(), Scale::scaled(), Scale::paper()] {
            s.cfg.validate();
            let _ = s.skiplist_keyspace();
            let _ = s.btree_keyspace();
        }
    }

    #[test]
    fn scale_names_resolve_and_typos_do_not() {
        for name in ["smoke", "ci", "scaled", "paper"] {
            assert_eq!(scale_by_name(name).expect("known scale").name, name);
        }
        assert!(scale_by_name("papr").is_none());
        assert!(scale_by_name("").is_none());
    }

    #[test]
    fn variant_labels_match_paper() {
        assert_eq!(Variant::HybridNonblocking(4).label(), "hybrid-nonblocking4");
        assert_eq!(Variant::NmpBased.label(), "NMP-based");
        assert_eq!(Variant::HostOnly.label(), "host-only");
        assert_eq!(Variant::HybridBtBlocking.inflight(), 1);
        assert_eq!(Variant::HybridNonblocking(2).inflight(), 2);
        assert_eq!(Variant::HashMapBlocking.label(), "hashmap-blocking");
        assert_eq!(Variant::HashMapNonblocking(4).label(), "hashmap-nonblocking4");
        assert_eq!(Variant::PqueueNonblocking(4).inflight(), 4);
        assert_eq!(Variant::PqueueBlocking.label(), "pqueue-blocking");
    }

    #[test]
    fn ci_scale_preserves_split_shape() {
        let s = Scale::ci();
        let (total, nh) = split_for(s.skiplist_keys as u64, s.cfg.l2.size_bytes as u64);
        assert!(nh >= 1 && nh < total);
        // Host portion of the hybrid fits the LLC budget.
        let host_nodes = s.skiplist_keys as u64 >> nh;
        assert!(host_nodes * 128 <= s.cfg.l2.size_bytes as u64);
    }

    #[test]
    fn tiny_skiplist_run_smoke() {
        let mut s = Scale::ci();
        s.skiplist_keys = 1 << 10;
        s.ops_per_thread = 30;
        s.warmup_per_thread = 10;
        let r = run_skiplist(&s, Variant::HybridBlocking, ycsb_c(&s, 2));
        assert_eq!(r.measured_ops, 60);
        assert!(r.mops > 0.0);
    }

    #[test]
    fn tiny_btree_run_smoke() {
        let mut s = Scale::ci();
        s.btree_keys = 4096;
        s.ops_per_thread = 30;
        s.warmup_per_thread = 10;
        let r = run_btree(&s, Variant::HostOnly, ycsb_c(&s, 2));
        assert_eq!(r.measured_ops, 60);
        assert!(r.succeeded_ops > 0);
    }

    #[test]
    fn smoke_hashmap_run() {
        let s = Scale::smoke();
        let r =
            run_hashmap(&s, Variant::HashMapNonblocking(2), hashmap_workload(&s, KeyDist::Uniform));
        assert!(r.measured_ops > 0);
        assert!(r.offload_posted > 0, "hash map must route through the runtime");
    }

    #[test]
    fn smoke_pqueue_run() {
        let s = Scale::smoke();
        let r = run_pqueue(&s, Variant::PqueueBlocking, pqueue_workload(&s, 50));
        assert!(r.measured_ops > 0);
        assert!(r.offload_posted > 0, "pqueue must route through the runtime");
    }
}
