//! Whole-stack frozen runs: the simulated bytes of real hybrid structures,
//! pinned.
//!
//! Each test runs one structure under a fixed seed and folds every
//! observable artifact — the `RunResult` (minus its wall-clock fields), the
//! stats snapshot, the trace summary, an FNV-1a digest of the Chrome-trace
//! export and the analysis report — into a text that must equal its golden
//! file, `golden/shard_determinism/<test>.txt`. On a mismatch the test names
//! every moved line and prints the `cp` that accepts the new text. Covered:
//! the skip list, B+ tree and priority queue blocking (`inflight = 1`) and
//! lane-pipelined (`inflight = 4`), and the hash map lane-pipelined, under
//! `Policy::Fixed` and `Policy::Adaptive`.
//!
//! The texts were first taken from the single-loop reference topology of
//! the scheduler that ran every logical thread as an OS thread, at the
//! commit before the one that made them coroutines on one loop and deleted
//! that topology; the tests kept their names from when they compared the
//! two topologies with each other. The engine-level runs in
//! `crates/nmp-sim/tests/frozen_digests.rs` pin the scheduler alone.

#[path = "support/golden.rs"]
mod golden;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use hybrids::driver::{run_index, RunResult, RunSpec};
use hybrids_repro::prelude::*;
use nmp_sim::trace::TraceSink;
use nmp_sim::Policy;

/// Workload shared by the index structures (skip list, B+ tree).
fn spec(seed: u64, inflight: usize) -> RunSpec {
    RunSpec {
        workload: WorkloadSpec {
            seed,
            threads: 4,
            ops_per_thread: 50,
            mix: Mix::read_insert_remove(50, 30, 20),
            read_dist: KeyDist::Zipfian,
            insert_dist: InsertDist::UniformGap,
        },
        warmup_per_thread: 10,
        inflight,
        app_footprint_lines: 0,
    }
}

/// Hold a run's folded text against its golden file `<test>.txt`.
fn assert_golden(test: &str, fp: &str) {
    let fresh = BTreeMap::from([(format!("{test}.txt"), fp.to_string())]);
    golden::check("shard_determinism", &fresh, |_, old, new| golden::line_moves(old, new));
}

/// Fold one run's observable artifacts into a comparison text, dropping
/// the two wall-clock-derived `RunResult` fields (everything else is
/// simulated-time and must reproduce exactly). Structs print one field per
/// line, so a diff names the field that moved.
fn fold(m: &Arc<Machine>, tracer: &Arc<nmp_sim::trace::Tracer>, r: Option<RunResult>) -> String {
    let mut fp = String::new();
    if let Some(mut r) = r {
        r.wall_ms = 0.0;
        r.sim_cycles_per_sec = 0.0;
        let _ = writeln!(fp, "result={r:#?}");
    }
    let _ = writeln!(fp, "snapshot={:#?}", m.mem().snapshot());
    let _ = writeln!(fp, "summary={:#?}", tracer.summary());
    let _ =
        writeln!(fp, "chrome_json.fnv1a={:016x}", golden::fnv1a64(&TraceSink::chrome_json(tracer)));
    fp
}

fn skiplist_fp(inflight: usize, policy: Policy) -> String {
    let ks = KeySpace::new(512, 2, 256);
    let m = Machine::new(Config::tiny().with_policy(policy));
    let tracer = m.attach_tracer();
    let analysis = m.attach_analysis();
    let sl = HybridSkipList::new(Arc::clone(&m), ks, 10, 4, 42, inflight.max(1));
    sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
    let r = run_index(&m, &sl, &ks, &spec(42, inflight));
    let mut fp = fold(&m, &tracer, Some(r));
    let _ = writeln!(fp, "report={:#?}", analysis.report());
    fp
}

fn btree_fp(inflight: usize, policy: Policy) -> String {
    let ks = KeySpace::new(512, 2, 384);
    let m = Machine::new(Config::tiny().with_policy(policy));
    let tracer = m.attach_tracer();
    let analysis = m.attach_analysis();
    let pairs: Vec<(Key, Value)> =
        (0..ks.total_initial()).map(|i| (ks.initial_key(i), i)).collect();
    let t = HybridBTree::new(Arc::clone(&m), &pairs, 0.5, inflight.max(1));
    let r = run_index(&m, &t, &ks, &spec(77, inflight));
    t.check_invariants();
    let mut fp = fold(&m, &tracer, Some(r));
    let _ = writeln!(fp, "report={:#?}", analysis.report());
    fp
}

/// Hot zipfian point-op stream (`WorkloadSpec::hashmap_mixed`) over a small
/// key space: with `inflight = 4`, same-key requests meet in one combiner
/// pass, so `Policy::Adaptive` coalesces them. Returns the fingerprint and
/// the run's `offload_coalesced`.
fn hashmap_fp(inflight: usize, policy: Policy) -> (String, u64) {
    let ks = KeySpace::new(64, 2, 256);
    let m = Machine::new(Config::tiny().with_policy(policy));
    let tracer = m.attach_tracer();
    let analysis = m.attach_analysis();
    let hm = HybridHashMap::new(Arc::clone(&m), 64, 42, inflight.max(1));
    hm.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
    let spec = RunSpec {
        workload: WorkloadSpec::hashmap_mixed(91, 4, 120, KeyDist::Zipfian),
        warmup_per_thread: 10,
        inflight,
        app_footprint_lines: 0,
    };
    let r = run_index(&m, &hm, &ks, &spec);
    let coalesced = r.offload_coalesced;
    let mut fp = fold(&m, &tracer, Some(r));
    let _ = writeln!(fp, "report={:#?}", analysis.report());
    (fp, coalesced)
}

fn pqueue_fp(inflight: usize, policy: Policy) -> String {
    let ks = KeySpace::new(256, 2, 128);
    let m = Machine::new(Config::tiny().with_policy(policy));
    let tracer = m.attach_tracer();
    let analysis = m.attach_analysis();
    let pq = HybridPqueue::new(Arc::clone(&m), ks, 8, 5, inflight.max(1));
    let initial: Vec<(Key, Value)> =
        (0..ks.total_initial() / 2).map(|i| (ks.initial_key(i * 2), i)).collect();
    pq.populate(&initial);
    let mut sim = m.simulation();
    pq.spawn_services(&mut sim);
    for core in 0..4usize {
        let pq = Arc::clone(&pq);
        let ks2 = ks;
        let mut rng = workloads::Rng::new(900 + core as u64);
        let ops: Vec<Op> = (0..40)
            .map(|_| {
                if rng.below(2) == 0 {
                    Op::ExtractMin
                } else {
                    let base = ks2.initial_key(rng.below(ks2.total_initial() as u64) as u32);
                    Op::Insert(base + 1 + rng.below(6) as u32, rng.next_u32() | 1)
                }
            })
            .collect();
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            if inflight <= 1 {
                for &op in &ops {
                    let _ = pq.execute(ctx, op);
                }
                return;
            }
            // Lane-pipelined issue/poll, same shape as the conformance
            // harness's driver.
            let mut lanes: Vec<Option<<HybridPqueue as SimIndex>::Pending>> =
                (0..inflight).map(|_| None).collect();
            let mut next = 0;
            let mut done = 0;
            while done < ops.len() {
                for (lane, slot) in lanes.iter_mut().enumerate() {
                    match slot.take() {
                        None if next < ops.len() => {
                            let op = ops[next];
                            next += 1;
                            match pq.issue(ctx, lane, op) {
                                Issued::Done(_) => done += 1,
                                Issued::Pending(p) => *slot = Some(p),
                            }
                        }
                        None => {}
                        Some(mut p) => match pq.poll(ctx, &mut p) {
                            PollOutcome::Done(_) => done += 1,
                            PollOutcome::Pending => *slot = Some(p),
                        },
                    }
                }
                ctx.idle(16);
            }
        });
    }
    let out = sim.run();
    pq.check_invariants();
    let mut fp = format!("clocks={:?}\n", out.clocks);
    fp.push_str(&fold(&m, &tracer, None));
    let _ = writeln!(fp, "report={:#?}", analysis.report());
    fp
}

#[test]
fn skiplist_blocking_is_topology_invariant() {
    assert_golden("skiplist_blocking_is_topology_invariant", &skiplist_fp(1, Policy::Fixed));
}

#[test]
fn skiplist_pipelined_is_topology_invariant() {
    assert_golden("skiplist_pipelined_is_topology_invariant", &skiplist_fp(4, Policy::Fixed));
}

#[test]
fn btree_blocking_is_topology_invariant() {
    assert_golden("btree_blocking_is_topology_invariant", &btree_fp(1, Policy::Fixed));
}

#[test]
fn btree_pipelined_is_topology_invariant() {
    assert_golden("btree_pipelined_is_topology_invariant", &btree_fp(4, Policy::Fixed));
}

#[test]
fn hashmap_pipelined_is_topology_invariant() {
    assert_golden("hashmap_pipelined_is_topology_invariant", &hashmap_fp(4, Policy::Fixed).0);
}

#[test]
fn pqueue_blocking_is_topology_invariant() {
    assert_golden("pqueue_blocking_is_topology_invariant", &pqueue_fp(1, Policy::Fixed));
}

#[test]
fn pqueue_pipelined_is_topology_invariant() {
    assert_golden("pqueue_pipelined_is_topology_invariant", &pqueue_fp(4, Policy::Fixed));
}

// ---- adaptive-policy battery ----
//
// Every self-tuning decision (coalesced runs, combiner back-off, stall
// back-off) is required to be a pure function of simulated state, so the
// whole-stack fingerprint is pinned with `Policy::Adaptive` live too.

#[test]
fn skiplist_pipelined_adaptive_is_topology_invariant() {
    assert_golden(
        "skiplist_pipelined_adaptive_is_topology_invariant",
        &skiplist_fp(4, Policy::Adaptive),
    );
}

#[test]
fn btree_pipelined_adaptive_is_topology_invariant() {
    assert_golden("btree_pipelined_adaptive_is_topology_invariant", &btree_fp(4, Policy::Adaptive));
}

#[test]
fn pqueue_pipelined_adaptive_is_topology_invariant() {
    assert_golden(
        "pqueue_pipelined_adaptive_is_topology_invariant",
        &pqueue_fp(4, Policy::Adaptive),
    );
}

#[test]
fn hashmap_pipelined_adaptive_is_topology_invariant() {
    let (fp, coalesced) = hashmap_fp(4, Policy::Adaptive);
    assert!(coalesced > 0, "the stream must exercise the coalescing path");
    assert_golden("hashmap_pipelined_adaptive_is_topology_invariant", &fp);
}

#[test]
fn skiplist_blocking_adaptive_is_topology_invariant() {
    assert_golden(
        "skiplist_blocking_adaptive_is_topology_invariant",
        &skiplist_fp(1, Policy::Adaptive),
    );
}
