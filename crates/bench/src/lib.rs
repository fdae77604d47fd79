//! The experiment harness regenerating every table and figure of the
//! HybriDS evaluation (§5). Each experiment is a function over a [`Scale`]
//! in [`experiments`]; [`experiments::EXPERIMENTS`] is the only list of
//! them, and the `figures` binary is the only way to run them:
//!
//! ```text
//! cargo run --release -p hybrids-bench --bin figures -- \
//!     [--scale smoke|ci|paper] [--policy fixed|adaptive] [--ops N] [--out DIR] [names | all]
//! ```
//!
//! Experiments print paper-style rows to stdout; [`run_experiment`] appends
//! their [`Record`]s to `<out>/<experiment>.jsonl` (default `results/`).
//!
//! ## Scales
//!
//! Cycle-level simulation is slow, so experiments run at one of three
//! scales:
//!
//! * `smoke`: a `Config::tiny()` machine and a handful of ops — the whole
//!   harness in seconds (`cargo test` and CI run it).
//! * `ci` (default): a further-scaled machine so a full run finishes in
//!   minutes — every *ratio* of the paper's setup (structure : LLC,
//!   host-portion : LLC) is preserved.
//! * `paper`: Table 1 verbatim (1 MB LLC, 2^22-key skiplist, ~30M-key
//!   B+ tree). Expect very long runs.
//!
//! `--ops` overrides measured operations per thread and `--policy` the
//! offload policy. A name or value that does not parse is a usage error
//! reported before anything runs ([`parse_args`]).

pub mod experiments;

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
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

use experiments::{Experiment, EXPERIMENTS};

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

/// The scale a `--scale` value names, if it is one of the three.
fn scale_by_name(name: &str) -> Option<Scale> {
    match name {
        "smoke" => Some(Scale::smoke()),
        "ci" => Some(Scale::ci()),
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
            // 2^17 keys x ~48 B/node = ~6 MB over the 64 kB LLC above:
            // a structure : LLC ratio of about 96x.
            cfg,
            skiplist_keys: 1 << 17,
            btree_keys: 400_000,
            ops_per_thread: 600,
            warmup_per_thread: 250,
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
    /// of ops, so the whole harness (populate → warmup → measure → JSONL)
    /// runs in seconds. Used by `cargo test` and the CI smoke step.
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

    /// Host thread counts of a thread sweep: 1, 2, 4, 8 up to the core count.
    pub fn thread_sweep(&self) -> Vec<u32> {
        [1, 2, 4, 8].into_iter().filter(|&t| t as usize <= self.cfg.host_cores).collect()
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

    /// The structure this variant runs: two variants of different
    /// structures may share a label (`hybrid-blocking`).
    pub fn structure(&self) -> &'static str {
        match self {
            Variant::LockFree
            | Variant::NmpBased
            | Variant::HybridBlocking
            | Variant::HybridNonblocking(_) => "skiplist",
            Variant::HostOnly | Variant::HybridBtBlocking | Variant::HybridBtNonblocking(_) => {
                "btree"
            }
            Variant::HashMapBlocking | Variant::HashMapNonblocking(_) => "hashmap",
            Variant::PqueueBlocking | Variant::PqueueNonblocking(_) => "pqueue",
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

    /// The key space this variant's structure is sized for at `scale`.
    pub fn keyspace(self, scale: &Scale) -> KeySpace {
        match self {
            Variant::HostOnly | Variant::HybridBtBlocking | Variant::HybridBtNonblocking(_) => {
                scale.btree_keyspace()
            }
            _ => scale.skiplist_keyspace(),
        }
    }

    /// Build, populate and run this variant on a fresh machine of `scale`.
    pub fn run(self, scale: &Scale, workload: WorkloadSpec) -> RunResult {
        self.run_on(&Machine::new(scale.cfg.clone()), scale, self.keyspace(scale), workload)
    }

    /// [`Variant::run`] on a caller-built machine (a tracer attached, say)
    /// and an explicit key space. Structure sizing is derived here and only
    /// here: the LLC-driven host/NMP split of §3.3, per-partition NMP levels,
    /// half-full B+ tree nodes (the paper populates by sorted insertion),
    /// a ~4 keys/bucket hash directory clamped to fit the LLC.
    pub fn run_on(
        self,
        machine: &Arc<Machine>,
        scale: &Scale,
        ks: KeySpace,
        workload: WorkloadSpec,
    ) -> RunResult {
        let lanes = self.inflight();
        let mut spec = RunSpec::new(workload, scale.warmup_per_thread, lanes);
        let pairs = || initial_pairs(&ks);
        match self {
            // Conventional (non-cache-aligned, full-height-array) layout:
            // the standard implementation the paper benchmarks against.
            Variant::LockFree => {
                run_index(machine, &lockfree_skiplist(machine, ks, NodeLayout::Packed), &ks, &spec)
            }
            Variant::NmpBased => {
                let sl = NmpSkipList::new(Arc::clone(machine), ks, nmp_levels(&ks), SEED, lanes);
                sl.populate(pairs());
                run_index(machine, &sl, &ks, &spec)
            }
            Variant::HybridBlocking | Variant::HybridNonblocking(_) => {
                run_index(machine, &hybrid_skiplist(machine, ks, lanes), &ks, &spec)
            }
            Variant::HostOnly => {
                spec = spec.with_footprint(scale.btree_footprint_lines);
                run_index(machine, &HostBTree::new(Arc::clone(machine), &pairs(), 0.5), &ks, &spec)
            }
            Variant::HybridBtBlocking | Variant::HybridBtNonblocking(_) => {
                spec = spec.with_footprint(scale.btree_footprint_lines);
                let t = HybridBTree::new(Arc::clone(machine), &pairs(), 0.5, lanes);
                run_index(machine, &t, &ks, &spec)
            }
            Variant::HashMapBlocking | Variant::HashMapNonblocking(_) => {
                let parts = ks.parts;
                let max_buckets = (machine.config().l2.size_bytes / 8 / parts).max(1) * parts;
                let buckets = (ks.total_initial() / 4 / parts).max(1) * parts;
                let hm =
                    HybridHashMap::new(Arc::clone(machine), buckets.min(max_buckets), SEED, lanes);
                hm.populate(pairs());
                run_index(machine, &hm, &ks, &spec)
            }
            Variant::PqueueBlocking | Variant::PqueueNonblocking(_) => {
                let pq = HybridPqueue::new(Arc::clone(machine), ks, nmp_levels(&ks), SEED, lanes);
                pq.populate(&pairs());
                run_index(machine, &pq, &ks, &spec)
            }
        }
    }
}

fn llc_bytes(machine: &Machine) -> u64 {
    machine.config().l2.size_bytes as u64
}

/// Levels of a skiplist holding one partition's share of `ks`: log2(N/P).
fn nmp_levels(ks: &KeySpace) -> u32 {
    let per_part = (ks.total_initial() / ks.parts).max(2) as u64;
    64 - (per_part - 1).leading_zeros()
}

/// A populated lock-free skiplist over `ks` with as many levels as the
/// hybrid's host + NMP portions together.
pub fn lockfree_skiplist(
    machine: &Arc<Machine>,
    ks: KeySpace,
    layout: NodeLayout,
) -> Arc<LockFreeIndex> {
    let (total, _) = split_for(ks.total_initial() as u64, llc_bytes(machine));
    let sl = LockFreeSkipList::with_layout(Arc::clone(machine), total, SEED, layout);
    sl.populate(initial_pairs(&ks));
    Arc::new(LockFreeIndex(Arc::new(sl)))
}

/// A populated hybrid skiplist over `ks`, split at the LLC-derived optimum.
pub fn hybrid_skiplist(machine: &Arc<Machine>, ks: KeySpace, lanes: usize) -> Arc<HybridSkipList> {
    let (total, nh) = split_for(ks.total_initial() as u64, llc_bytes(machine));
    let sl = HybridSkipList::new(Arc::clone(machine), ks, total, nh, SEED, lanes);
    sl.populate(initial_pairs(&ks));
    sl
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

/// One measured data point: a [`RunResult`] tagged with what produced it.
#[derive(Debug, Clone)]
pub struct Record {
    pub experiment: &'static str,
    pub scale: &'static str,
    /// [`Variant::structure`].
    pub structure: &'static str,
    pub variant: String,
    pub workload: String,
    /// Offload policy the run used (`fixed` or `adaptive`).
    pub policy: &'static str,
    pub result: RunResult,
}

impl Record {
    pub fn new(
        experiment: &'static str,
        scale: &Scale,
        variant: Variant,
        workload: &str,
        result: RunResult,
    ) -> Record {
        Record {
            experiment,
            scale: scale.name,
            structure: variant.structure(),
            variant: variant.label(),
            workload: workload.into(),
            policy: scale.cfg.policy.label(),
            result,
        }
    }
}

impl Serialize for Record {
    /// One flat row: the tags, every scalar of the [`RunResult`] under its
    /// own name (the per-op-kind latencies and the raw counter snapshot stay
    /// out), and the pqueue stale minima-cache probes of the measured
    /// window (zero for other structures).
    fn to_value(&self) -> serde::Value {
        let serde::Value::Object(result) = self.result.to_value() else {
            unreachable!("RunResult derives Serialize on a struct")
        };
        let tag = |k: &str, v: &str| (k.to_string(), v.to_value());
        let mut row = vec![
            tag("experiment", self.experiment),
            tag("scale", self.scale),
            tag("structure", self.structure),
            tag("variant", &self.variant),
            tag("workload", &self.workload),
            tag("policy", self.policy),
        ];
        row.extend(result.into_iter().filter(|(k, _)| k != "op_latency" && k != "stats"));
        row.push((
            "pq_stale_probes".to_string(),
            self.result.stats.offload.pq_stale_total().to_value(),
        ));
        serde::Value::Object(row)
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

// ---- running and saving ----

/// What one experiment produced, for [`run_experiment`] to write out.
#[derive(Debug, Default)]
pub struct Results {
    pub records: Vec<Record>,
    /// Chrome-trace JSON documents by structure name (only `trace` has any).
    pub traces: Vec<(&'static str, String)>,
}

impl From<Vec<Record>> for Results {
    fn from(records: Vec<Record>) -> Self {
        Results { records, traces: Vec::new() }
    }
}

/// Run one experiment and write what it produced under the existing
/// directory `out`: records are appended to `<out>/<experiment>.jsonl`, one
/// JSON object per line, and traces written to
/// `<out>/trace/<structure>.<scale>.json`.
pub fn run_experiment(run: Experiment, scale: &Scale, out: &Path) -> io::Result<Results> {
    let results = run(scale);
    if let Some(first) = results.records.first() {
        let path = out.join(format!("{}.jsonl", first.experiment));
        let mut rows = String::new();
        for r in &results.records {
            rows.push_str(&serde_json::to_string(r).expect("records hold finite numbers"));
            rows.push('\n');
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(rows.as_bytes())?;
        eprintln!("[saved {} records to {}]", results.records.len(), path.display());
    }
    for (name, json) in &results.traces {
        let path = out.join("trace").join(format!("{name}.{}.json", scale.name));
        std::fs::create_dir_all(out.join("trace"))?;
        std::fs::write(&path, json)?;
        eprintln!("[wrote {} ({} bytes)]", path.display(), json.len());
    }
    Ok(results)
}

// ---- the `figures` command line ----

/// One validated `figures` invocation.
pub struct Invocation {
    /// The selected scale with `--ops` / `--policy` applied.
    pub scale: Scale,
    pub out: PathBuf,
    /// Selected entries of [`EXPERIMENTS`], in command-line order.
    pub experiments: Vec<(&'static str, Experiment)>,
}

/// Parse `figures`' arguments (program name already stripped). Every flag,
/// value and experiment name is checked here, so a typo costs nothing: the
/// error is one line naming the offender and the accepted set. No names, or
/// `all`, selects the whole table.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let (mut scale, mut policy, mut ops, mut out) = (Scale::ci(), None, None, None);
    let mut experiments = Vec::new();
    let mut all = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                scale = scale_by_name(&v)
                    .ok_or(format!("--scale: `{v}` is not one of smoke|ci|paper"))?;
            }
            "--policy" => {
                let v = value()?;
                policy = Some(
                    Policy::parse(&v)
                        .ok_or(format!("--policy: `{v}` is not one of fixed|adaptive"))?,
                );
            }
            "--ops" => {
                let v = value()?;
                ops = Some(
                    v.parse::<u32>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(format!("--ops: `{v}` is not a positive integer"))?,
                );
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "all" => all = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}` (flags: --scale --policy --ops --out)"));
            }
            name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some(entry) => experiments.push(*entry),
                None => {
                    let names: Vec<_> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown experiment `{name}` (experiments: {} | all)",
                        names.join(" ")
                    ));
                }
            },
        }
    }
    if all || experiments.is_empty() {
        experiments = EXPERIMENTS.to_vec();
    }
    if let Some(ops) = ops {
        scale.ops_per_thread = ops;
    }
    if let Some(policy) = policy {
        scale = scale.with_policy(policy);
    }
    // Default: `results/` at the repository root, wherever cargo was invoked.
    let out = out.unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR").trim_end_matches("/crates/bench")).join("results")
    });
    Ok(Invocation { scale, out, experiments })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_valid() {
        for s in [Scale::ci(), Scale::paper()] {
            s.cfg.validate();
            let _ = s.skiplist_keyspace();
            let _ = s.btree_keyspace();
        }
    }

    #[test]
    fn scale_names_resolve_and_typos_do_not() {
        for name in ["smoke", "ci", "paper"] {
            assert_eq!(scale_by_name(name).expect("known scale").name, name);
        }
        assert!(scale_by_name("papr").is_none());
        assert!(scale_by_name("scaled").is_none());
        assert!(scale_by_name("").is_none());
    }

    fn parse(line: &str) -> Result<Invocation, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    fn names(inv: &Invocation) -> Vec<&'static str> {
        inv.experiments.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn figures_arguments_select_scale_knobs_and_experiments() {
        let table: Vec<_> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        let inv = parse("").unwrap();
        assert_eq!((inv.scale.name, names(&inv)), ("ci", table.clone()), "default: ci, everything");
        assert!(inv.out.ends_with("results"));
        assert_eq!(names(&parse("fig5 all").unwrap()), table, "`all` is the whole table, once");

        // Flags apply whatever their order relative to --scale and the names.
        let inv =
            parse("--ops 7 fig7 --policy adaptive --scale smoke --out /tmp/x pqueue_contention")
                .unwrap();
        assert_eq!(names(&inv), ["fig7", "pqueue_contention"]);
        assert_eq!((inv.scale.name, inv.scale.ops_per_thread), ("smoke", 7));
        assert_eq!(inv.scale.cfg.policy, Policy::Adaptive);
        assert_eq!(inv.out, Path::new("/tmp/x"));
    }

    #[test]
    fn figures_argument_errors_name_the_offender_and_the_accepted_set() {
        for (line, offender, accepted) in [
            ("--scale smok fig5", "`smok`", "smoke|ci|paper"),
            ("--policy x", "`x`", "fixed|adaptive"),
            ("--ops abc", "`abc`", "positive integer"),
            ("--ops 0", "`0`", "positive integer"),
            ("fig5 --out", "--out", "needs a value"),
            ("--scale", "--scale", "needs a value"),
            ("--shards 2", "`--shards`", "--scale --policy --ops --out"),
            ("fig5 micro_components", "`micro_components`", "pqueue_contention trace | all"),
            ("fig9", "`fig9`", "fig4 fig5"),
        ] {
            let err = parse(line).err().unwrap_or_else(|| panic!("`{line}` must be rejected"));
            assert!(err.contains(offender) && err.contains(accepted), "`{line}`: {err}");
            assert!(!err.contains('\n'), "one line: {err}");
        }
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
        assert_eq!(Variant::HybridBlocking.structure(), "skiplist");
        assert_eq!(Variant::HybridBtBlocking.structure(), "btree");
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
        let r = Variant::HybridBlocking.run(&s, ycsb_c(&s, 2));
        assert_eq!(r.measured_ops, 60);
        assert!(r.mops > 0.0);
    }

    #[test]
    fn tiny_btree_run_smoke() {
        let mut s = Scale::ci();
        s.btree_keys = 4096;
        s.ops_per_thread = 30;
        s.warmup_per_thread = 10;
        let r = Variant::HostOnly.run(&s, ycsb_c(&s, 2));
        assert_eq!(r.measured_ops, 60);
        assert!(r.succeeded_ops > 0);
    }

    #[test]
    fn smoke_hashmap_run() {
        let s = Scale::smoke();
        let r = Variant::HashMapNonblocking(2).run(&s, hashmap_workload(&s, KeyDist::Uniform));
        assert!(r.measured_ops > 0);
        assert!(r.offload_posted > 0, "hash map must route through the runtime");
    }

    #[test]
    fn smoke_pqueue_run() {
        let s = Scale::smoke();
        let r = Variant::PqueueBlocking.run(&s, pqueue_workload(&s, 50));
        assert!(r.measured_ops > 0);
        assert!(r.offload_posted > 0, "pqueue must route through the runtime");
    }
}
