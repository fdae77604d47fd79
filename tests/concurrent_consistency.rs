//! Integration: concurrent-execution consistency across the host/NMP split.
//!
//! Every structure is exercised under full contention (threads racing on
//! the *same* hot keys) with the engine-integrated checkers attached:
//!
//! * the recorded operation history must be **linearizable** against a
//!   sequential map oracle (`nmp_sim::analysis::HistoryRecorder`),
//! * the run must be **race-free** and **region-policy clean**
//!   (`nmp_sim::analysis::Report::assert_clean`),
//! * and a balance invariant ties results to final contents: for each key,
//!
//! ```text
//! initially_present + successful_inserts - successful_removes
//!     == present_at_quiescence
//! ```
//!
//! because every successful insert transitions absent→present and every
//! successful remove transitions present→absent, and the structures report
//! success exactly for those transitions.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use hybrids_repro::prelude::*;
use nmp_sim::analysis::{HistEvent, HistOp, HistoryRecorder};
use parking_lot::Mutex;
use workloads::Rng;

const THREADS: usize = 4;

struct Tally {
    inserts_ok: i64,
    removes_ok: i64,
}

fn contended_ops(seed: u64, ks: &KeySpace, hot_keys: u32, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            // All threads fight over the same small hot set.
            let k = ks.initial_key(rng.below(hot_keys as u64) as u32);
            match rng.below(3) {
                0 => Op::Insert(k, rng.next_u32() | 1),
                1 => Op::Remove(k),
                _ => Op::Read(k),
            }
        })
        .collect()
}

fn hist_event(thread: usize, op: Op, r: OpResult, inv: u64, resp: u64) -> HistEvent {
    let (hop, key, value) = match op {
        Op::Read(k) => (HistOp::Read, k, r.value),
        Op::Insert(k, v) => (HistOp::Insert, k, v),
        Op::Remove(k) => (HistOp::Remove, k, 0),
        Op::Update(k, v) => (HistOp::Update, k, v),
        Op::Scan(..) | Op::ExtractMin => {
            unreachable!("contended_ops generates neither scans nor extract-mins")
        }
    };
    HistEvent { thread, op: hop, key, ok: r.ok, value, inv, resp }
}

/// Run the contended workload with all checkers attached: linearizability
/// of the recorded history, race/policy cleanliness, and the per-key
/// balance invariant against the final contents.
fn run_checked<S: SimIndex>(
    machine: &Arc<Machine>,
    index: &Arc<S>,
    ks: KeySpace,
    initial: &[(Key, Value)],
    final_contents: impl FnOnce() -> BTreeMap<Key, Value>,
) {
    let analysis = machine.attach_analysis();
    let recorder = Arc::new(HistoryRecorder::new());
    let tallies: Arc<Mutex<HashMap<Key, Tally>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut sim = machine.simulation();
    index.spawn_services(&mut sim);
    for core in 0..THREADS {
        let index = Arc::clone(index);
        let tallies = Arc::clone(&tallies);
        let recorder = Arc::clone(&recorder);
        let ops = contended_ops(1000 + core as u64, &ks, 16, 150);
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            for &op in &ops {
                let inv = ctx.now();
                let r = index.execute(ctx, op);
                recorder.record(hist_event(core, op, r, inv, ctx.now()));
                if r.ok {
                    let mut t = tallies.lock();
                    let e = t.entry(op.key()).or_insert(Tally { inserts_ok: 0, removes_ok: 0 });
                    match op {
                        Op::Insert(..) => e.inserts_ok += 1,
                        Op::Remove(_) => e.removes_ok += 1,
                        _ => {}
                    }
                }
            }
        });
    }
    sim.run();

    // Checker 1: no data races (a region-policy violation would have
    // panicked).
    analysis.report().assert_clean();

    // Checker 2: the history must linearize against the initial contents.
    let initial_map: HashMap<Key, Value> = initial.iter().copied().collect();
    assert_eq!(recorder.len(), THREADS * 150);
    recorder.check_linearizable(|k| initial_map.get(&k).copied()).unwrap_or_else(|e| panic!("{e}"));

    // Checker 3: per-key presence balance against the final contents.
    let present: HashSet<Key> = initial.iter().map(|&(k, _)| k).collect();
    let contents = final_contents();
    for (key, t) in tallies.lock().iter() {
        let initial = present.contains(key) as i64;
        let expected_present = initial + t.inserts_ok - t.removes_ok;
        assert!(
            expected_present == 0 || expected_present == 1,
            "key {key}: impossible balance {expected_present} (i={}, io={}, ro={})",
            initial,
            t.inserts_ok,
            t.removes_ok
        );
        assert_eq!(
            contents.contains_key(key) as i64,
            expected_present,
            "key {key}: presence does not balance (initial={initial}, +{} -{})",
            t.inserts_ok,
            t.removes_ok
        );
    }
}

fn keyspace() -> KeySpace {
    KeySpace::new(256, 2, 128)
}

/// Half the initial keys are populated so inserts and removes both succeed.
fn half_initial(ks: &KeySpace) -> Vec<(Key, Value)> {
    (0..ks.total_initial()).filter(|i| i % 2 == 0).map(|i| (ks.initial_key(i), 5)).collect()
}

#[test]
fn hybrid_skiplist_consistent_under_contention() {
    let ks = keyspace();
    let m = Machine::new(Config::tiny());
    let sl = HybridSkipList::new(Arc::clone(&m), ks, 10, 4, 3, 1);
    let initial = half_initial(&ks);
    sl.populate(initial.clone());
    let sl2 = Arc::clone(&sl);
    run_checked(&m, &sl, ks, &initial, move || {
        sl2.check_invariants();
        sl2.collect().into_iter().collect()
    });
}

#[test]
fn nmp_skiplist_consistent_under_contention() {
    let ks = keyspace();
    let m = Machine::new(Config::tiny());
    let sl = NmpSkipList::new(Arc::clone(&m), ks, 8, 3, 1);
    let initial = half_initial(&ks);
    sl.populate(initial.clone());
    let sl2 = Arc::clone(&sl);
    run_checked(&m, &sl, ks, &initial, move || {
        sl2.check_invariants();
        sl2.collect().into_iter().collect()
    });
}

#[test]
fn host_btree_consistent_under_contention() {
    let ks = keyspace();
    let m = Machine::new(Config::tiny());
    let initial = half_initial(&ks);
    let t = HostBTree::new(Arc::clone(&m), &initial, 0.7);
    let t2 = Arc::clone(&t);
    run_checked(&m, &t, ks, &initial, move || {
        t2.check_invariants();
        t2.collect().into_iter().collect()
    });
}

#[test]
fn hybrid_btree_consistent_under_contention() {
    let ks = keyspace();
    let m = Machine::new(Config::tiny());
    let initial = half_initial(&ks);
    let t = HybridBTree::with_budget(Arc::clone(&m), &initial, 0.7, 1, 2 * 1024);
    let t2 = Arc::clone(&t);
    run_checked(&m, &t, ks, &initial, move || {
        t2.check_invariants();
        t2.collect().into_iter().collect()
    });
}

#[test]
fn nonblocking_pipeline_consistent_too() {
    // Same checks with 4-deep non-blocking pipelines per thread.
    let ks = keyspace();
    let m = Machine::new(Config::tiny());
    let sl = HybridSkipList::new(Arc::clone(&m), ks, 10, 4, 3, 4);
    let initial = half_initial(&ks);
    sl.populate(initial.clone());
    let analysis = m.attach_analysis();
    let recorder = Arc::new(HistoryRecorder::new());
    let present: HashSet<Key> = initial.iter().map(|&(k, _)| k).collect();
    let tallies: Arc<Mutex<HashMap<Key, (i64, i64)>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut sim = m.simulation();
    sl.spawn_services(&mut sim);
    for core in 0..THREADS {
        let sl = Arc::clone(&sl);
        let tallies = Arc::clone(&tallies);
        let recorder = Arc::clone(&recorder);
        let ops = contended_ops(2000 + core as u64, &ks, 16, 120);
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            let mut lanes: Vec<Option<(Op, u64, _)>> = (0..4).map(|_| None).collect();
            let mut next = 0;
            let mut done = 0;
            while done < ops.len() {
                for (lane, lane_slot) in lanes.iter_mut().enumerate() {
                    let complete = |op: Op, r: OpResult, inv: u64, resp: u64| {
                        recorder.record(hist_event(core, op, r, inv, resp));
                        if r.ok {
                            let mut t = tallies.lock();
                            let e = t.entry(op.key()).or_insert((0, 0));
                            match op {
                                Op::Insert(..) => e.0 += 1,
                                Op::Remove(_) => e.1 += 1,
                                _ => {}
                            }
                        }
                    };
                    match lane_slot.take() {
                        None if next < ops.len() => {
                            let op = ops[next];
                            next += 1;
                            let inv = ctx.now();
                            match sl.issue(ctx, lane, op) {
                                Issued::Done(r) => {
                                    complete(op, r, inv, ctx.now());
                                    done += 1;
                                }
                                Issued::Pending(p) => *lane_slot = Some((op, inv, p)),
                            }
                        }
                        None => {}
                        Some((op, inv, mut p)) => match sl.poll(ctx, &mut p) {
                            PollOutcome::Done(r) => {
                                complete(op, r, inv, ctx.now());
                                done += 1;
                            }
                            PollOutcome::Pending => *lane_slot = Some((op, inv, p)),
                        },
                    }
                }
                ctx.idle(16);
            }
        });
    }
    sim.run();
    analysis.report().assert_clean();
    let initial_map: HashMap<Key, Value> = initial.iter().copied().collect();
    recorder.check_linearizable(|k| initial_map.get(&k).copied()).unwrap_or_else(|e| panic!("{e}"));
    sl.check_invariants();
    let contents: BTreeMap<Key, Value> = sl.collect().into_iter().collect();
    for (key, (io, ro)) in tallies.lock().iter() {
        let initial = present.contains(key) as i64;
        assert_eq!(
            contents.contains_key(key) as i64,
            initial + io - ro,
            "key {key} unbalanced (initial {initial}, +{io}, -{ro})"
        );
    }
}
