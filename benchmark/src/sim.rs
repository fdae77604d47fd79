//! The three figure-harness workloads: a hybrid structure driven by
//! `hybrids::driver::run_index` on a `Scale::ci()` machine, its baseline
//! on the same operation stream, and the oracle that checks the run.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use hybrids::api::SimIndex;
use hybrids::btree::{HostBTree, HybridBTree};
use hybrids::driver::{run_index, RunResult, RunSpec};
use hybrids::hashmap::HybridHashMap;
use hybrids::skiplist::{
    hybrid::split_for, lockfree::NodeLayout, HybridSkipList, LockFreeSkipList,
};
use hybrids_bench::{initial_pairs, LockFreeIndex, Scale};
use nmp_sim::trace::{PhaseTotals, TraceSink};
use nmp_sim::{Config, Machine, Policy, StatsSnapshot};
use workloads::{mix64, InsertDist, Key, KeyDist, KeySpace, Mix, Op, Value, WorkloadSpec};

use crate::spans::Spans;

/// Offload lanes per host thread: the paper's *hybrid-nonblocking4*.
const LANES: usize = 4;

/// Which figure-harness workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Fig. 5: hybrid skiplist, YCSB-C zipfian read-only.
    SkiplistYcsbC,
    /// Fig. 8: hybrid B+ tree, 50-25-25 with split-heavy tail inserts.
    BtreeSplits,
    /// Hash map under `Policy::Adaptive`, 60/20/10/10 zipfian.
    HashmapAdaptive,
}

impl SimKind {
    /// The paper's hybrid-over-baseline throughput ratio this workload
    /// reproduces (`None`: the paper has no such experiment).
    pub fn paper_speedup(self) -> Option<f64> {
        match self {
            SimKind::SkiplistYcsbC => Some(2.46), // nb4 over lock-free, Fig. 5a
            SimKind::BtreeSplits => Some(1.46),   // nb4 over host-only, Fig. 8
            SimKind::HashmapAdaptive => None,
        }
    }

    /// What the hybrid is compared against.
    pub fn baseline_label(self) -> &'static str {
        match self {
            SimKind::SkiplistYcsbC => "lock-free skiplist",
            SimKind::BtreeSplits => "host-only B+ tree",
            SimKind::HashmapAdaptive => "same map under Policy::Fixed",
        }
    }
}

/// The measured structure or its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The hybrid structure the workload is named after.
    Hybrid,
    /// The structure the paper compares it with, on the same stream.
    Baseline,
}

/// One simulated run and what the oracle made of it.
pub struct SimRun {
    /// The driver's result for the measured window.
    pub result: RunResult,
    /// Wall seconds of the set-up: input generation, machine + structure
    /// build, populate.
    pub setup_s: f64,
    /// Oracle rejections: keys missing from or surplus in the final
    /// contents, plus one if the op count is off.
    pub rejected: u64,
    /// Phase totals and event count, when the run was traced.
    pub traced: Option<TracedSim>,
    /// Operations `sim.run()` simulated: warm-up plus measured.
    pub simulated_ops: u64,
    /// Simulated clock, for converting cycles to time.
    pub clock_ghz: f64,
}

/// What a traced run adds.
pub struct TracedSim {
    /// Host / post / queue / exec / drain tiling over every completed op.
    pub phases: PhaseTotals,
    /// Events the tracer recorded (surviving + dropped from the ring).
    pub events: u64,
    /// The simulator's own Chrome-trace JSON.
    pub chrome_json: String,
}

/// Scale, key space and run spec of `kind` at `ops_per_thread`.
fn plan(kind: SimKind, seed: u64, ops_per_thread: u32, side: Side) -> (Scale, KeySpace, RunSpec) {
    let mut scale = Scale::ci();
    // Key-space headroom is sized from the op count, so set it first.
    scale.ops_per_thread = ops_per_thread;
    let threads = scale.cfg.host_cores as u32;
    let (ks, mix, read_dist, insert_dist, footprint) = match kind {
        SimKind::SkiplistYcsbC => {
            (scale.skiplist_keyspace(), Mix::ycsb_c(), KeyDist::Zipfian, InsertDist::UniformGap, 0)
        }
        SimKind::BtreeSplits => (
            scale.btree_keyspace(),
            Mix::read_insert_remove(50, 25, 25),
            KeyDist::Uniform,
            InsertDist::PartitionTail,
            scale.btree_footprint_lines,
        ),
        SimKind::HashmapAdaptive => (
            scale.skiplist_keyspace(),
            Mix::new(60, 20, 10, 10),
            KeyDist::Zipfian,
            InsertDist::UniformGap,
            0,
        ),
    };
    if kind == SimKind::HashmapAdaptive && side == Side::Hybrid {
        scale = scale.with_policy(Policy::Adaptive);
    }
    let workload = WorkloadSpec {
        seed: mix64(seed ^ 0x51D_0B5),
        threads,
        ops_per_thread,
        mix,
        read_dist,
        insert_dist,
    };
    // The host-resident baselines have no NMP calls to keep in flight.
    let inflight =
        if side == Side::Baseline && kind != SimKind::HashmapAdaptive { 1 } else { LANES };
    let spec = RunSpec::new(workload, scale.warmup_per_thread, inflight).with_footprint(footprint);
    (scale, ks, spec)
}

/// Keys the structure must hold after the run. Inserts only ever target
/// gap or tail keys and removes only initial keys, so the final key set
/// does not depend on how the threads interleaved.
fn expected_keys(ks: &KeySpace, spec: &RunSpec) -> BTreeSet<Key> {
    // The driver derives its warm-up stream from the measured spec exactly so.
    let warmup = WorkloadSpec {
        seed: mix64(spec.workload.seed ^ 0x57A2_4D11),
        ops_per_thread: spec.warmup_per_thread,
        ..spec.workload
    };
    let mut keys: BTreeSet<Key> = ks.initial_keys().into_iter().collect();
    for stream in warmup.generate(ks).iter().chain(spec.workload.generate(ks).iter()) {
        for op in stream {
            match *op {
                Op::Insert(k, _) => {
                    keys.insert(k);
                }
                Op::Remove(k) => {
                    keys.remove(&k);
                }
                _ => {}
            }
        }
    }
    keys
}

/// Structural check, then the keys the structure holds.
macro_rules! checked_keys {
    ($s:expr) => {{
        $s.check_invariants();
        $s.collect().into_iter().map(|(k, _)| k).collect()
    }};
}

/// Set up (inputs, machine, `build`), run, check.
#[allow(clippy::too_many_arguments)]
fn measure<S: SimIndex>(
    label: &'static str,
    cfg: &Config,
    ks: &KeySpace,
    spec: &RunSpec,
    traced: bool,
    spans: &mut Spans,
    build: impl FnOnce(&Arc<Machine>, Vec<(Key, Value)>) -> Arc<S>,
    inspect: impl FnOnce(&S) -> Vec<Key>,
) -> SimRun {
    let t0 = Instant::now();
    let setup = spans.begin("bench", "setup", label, None);
    let gen = spans.begin("workloads", "generate", label, Some(setup));
    let expected = expected_keys(ks, spec);
    let pairs = initial_pairs(ks);
    spans.end(gen);
    let building = spans.begin("hybrids", "build+populate", label, Some(setup));
    let machine = Machine::new(cfg.clone());
    let index = build(&machine, pairs);
    spans.end(building);
    spans.end(setup);
    let setup_s = t0.elapsed().as_secs_f64();
    let tracer = traced.then(|| machine.attach_tracer());

    let run = spans.begin("nmp_sim::engine", "sim.run", label, None);
    let result = run_index(&machine, &index, ks, spec);
    spans.end(run);

    let verify = spans.begin("bench", "verify", label, None);
    let got: BTreeSet<Key> = inspect(&index).into_iter().collect();
    let requested = spec.workload.threads as u64 * spec.workload.ops_per_thread as u64;
    let rejected = expected.symmetric_difference(&got).count() as u64
        + u64::from(result.measured_ops != requested);
    spans.end(verify);

    let traced = tracer.map(|t| {
        let s = t.summary();
        TracedSim {
            phases: t.phase_totals_all(),
            events: s.events + s.events_dropped,
            chrome_json: TraceSink::chrome_json(&t),
        }
    });
    SimRun {
        result,
        setup_s,
        rejected,
        traced,
        simulated_ops: requested + spec.workload.threads as u64 * spec.warmup_per_thread as u64,
        clock_ghz: cfg.clock_ghz,
    }
}

/// Run one side of `kind` at `ops_per_thread` on a fresh machine.
pub fn run(
    kind: SimKind,
    side: Side,
    seed: u64,
    ops_per_thread: u32,
    traced: bool,
    spans: &mut Spans,
) -> SimRun {
    let (scale, ks, spec) = plan(kind, seed, ops_per_thread, side);
    let cfg = &scale.cfg;
    // The structures' own seed (tower heights, hash function) is a setting
    // of the program under test, not an input: it stays what the figure
    // harness uses, and only the operation streams follow `--seed`.
    let structure_seed = hybrids_bench::SEED;
    let (levels, nmp_levels) = split_for(ks.total_initial() as u64, cfg.l2.size_bytes as u64);
    match (kind, side) {
        (SimKind::SkiplistYcsbC, Side::Hybrid) => measure(
            "hybrid-skiplist",
            cfg,
            &ks,
            &spec,
            traced,
            spans,
            |machine, pairs| {
                let sl = HybridSkipList::new(
                    Arc::clone(machine),
                    ks,
                    levels,
                    nmp_levels,
                    structure_seed,
                    LANES,
                );
                sl.populate(pairs);
                sl
            },
            |sl| checked_keys!(sl),
        ),
        (SimKind::SkiplistYcsbC, Side::Baseline) => measure(
            "lockfree-skiplist",
            cfg,
            &ks,
            &spec,
            traced,
            spans,
            |machine, pairs| {
                // The conventional packed layout the paper benchmarks against.
                let sl = LockFreeSkipList::with_layout(
                    Arc::clone(machine),
                    levels,
                    structure_seed,
                    NodeLayout::Packed,
                );
                sl.populate(pairs);
                Arc::new(LockFreeIndex(Arc::new(sl)))
            },
            |idx| checked_keys!(idx.0),
        ),
        (SimKind::BtreeSplits, Side::Hybrid) => measure(
            "hybrid-btree",
            cfg,
            &ks,
            &spec,
            traced,
            spans,
            // Sorted insertion leaves nodes about half full, as in the paper.
            |machine, pairs| HybridBTree::new(Arc::clone(machine), &pairs, 0.5, LANES),
            |t| checked_keys!(t),
        ),
        (SimKind::BtreeSplits, Side::Baseline) => measure(
            "host-btree",
            cfg,
            &ks,
            &spec,
            traced,
            spans,
            |machine, pairs| HostBTree::new(Arc::clone(machine), &pairs, 0.5),
            |t| checked_keys!(t),
        ),
        (SimKind::HashmapAdaptive, _) => measure(
            "hybrid-hashmap",
            cfg,
            &ks,
            &spec,
            traced,
            spans,
            |machine, pairs| {
                // About 4 keys per bucket, clamped so the directory fits the LLC.
                let parts = ks.parts;
                let max_buckets = (cfg.l2.size_bytes / 8 / parts).max(1) * parts;
                let buckets = (ks.total_initial() / 4 / parts).max(1) * parts;
                let hm = HybridHashMap::new(
                    Arc::clone(machine),
                    buckets.min(max_buckets),
                    structure_seed,
                    LANES,
                );
                hm.populate(pairs);
                hm
            },
            |hm| checked_keys!(hm),
        ),
    }
}

/// Simulated statistics that must not depend on whether a tracer was
/// attached (tracer invisibility).
pub fn fingerprint(r: &RunResult) -> (u64, u64, u64, StatsSnapshot) {
    (r.cycles, r.measured_ops, r.succeeded_ops, r.stats.clone())
}
