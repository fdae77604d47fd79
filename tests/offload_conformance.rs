//! Integration: every structure behaves identically through the shared
//! offload runtime (`hybrids::offload`).
//!
//! One generic harness drives every registered `SimIndex` structure (see
//! `REGISTRY` — adding a structure means adding one entry, not a new
//! hand-rolled test) through both NMP-call modes (blocking `execute`,
//! 4-deep `issue`/`poll` pipelines) under full contention, and asserts the
//! *same* contract for each map-like structure:
//!
//! * race-free and region-policy clean (engine checkers),
//! * recorded point-op history linearizes against the initial contents,
//! * per-key presence balances against the final contents,
//! * runtime telemetry is conserved: every posted request was executed
//!   exactly once (`completed_total == posted_total` at quiescence), and
//!   the offloading structures actually posted (the host-only baseline
//!   must post nothing).
//!
//! The priority queue is not a map, so its registry entry swaps contract 2
//! for the pqueue-specific one: a combiner-log replay proving every pop
//! took its partition's minimum, plus per-key conservation of the popped /
//! inserted multiset against the final contents.
//!
//! Separate tests force the rare paths through the runtime — NMP-side
//! retries and the hybrid B+ tree's lock path — and pin down batching
//! observability plus bit-for-bit determinism of makespan *and* telemetry
//! (including both new structures through the driver).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use hybrids_repro::prelude::*;
use nmp_sim::analysis::{HistEvent, HistOp, HistoryRecorder};
use nmp_sim::{OffloadStats, Policy};
use parking_lot::Mutex;
use workloads::Rng;

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 120;

fn keyspace() -> KeySpace {
    KeySpace::new(256, 2, 128)
}

/// Half the initial keys populated so inserts and removes both succeed.
fn half_initial(ks: &KeySpace) -> Vec<(Key, Value)> {
    (0..ks.total_initial()).filter(|i| i % 2 == 0).map(|i| (ks.initial_key(i), 5)).collect()
}

/// Contended mix over a small hot set. `scans` sprinkles range scans in to
/// exercise the pipelined multi-request scan clients; structures without a
/// key order (the hash map) take the all-point-op variant instead.
fn mixed_ops(seed: u64, ks: &KeySpace, hot_keys: u32, len: usize, scans: bool) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            let k = ks.initial_key(rng.below(hot_keys as u64) as u32);
            match rng.below(8) {
                0 | 1 => Op::Insert(k, rng.next_u32() | 1),
                2 | 3 => Op::Remove(k),
                4 => Op::Update(k, rng.next_u32() | 1),
                5 if scans => Op::Scan(k, 4),
                _ => Op::Read(k),
            }
        })
        .collect()
}

/// Record a completed point operation; scans and extract-mins are outside
/// the per-key linearizability model and are skipped.
fn record(rec: &HistoryRecorder, thread: usize, op: Op, r: OpResult, inv: u64, resp: u64) {
    let (hop, key, value) = match op {
        Op::Read(k) => (HistOp::Read, k, r.value),
        Op::Insert(k, v) => (HistOp::Insert, k, v),
        Op::Remove(k) => (HistOp::Remove, k, 0),
        Op::Update(k, v) => (HistOp::Update, k, v),
        Op::Scan(..) | Op::ExtractMin => return,
    };
    rec.record(HistEvent { thread, op: hop, key, ok: r.ok, value, inv, resp });
}

/// Drive `ops` through `index` on one host thread at the given pipeline
/// depth, invoking `complete(op, result, invoke_time, response_time)` for
/// every finished operation.
fn drive<S: SimIndex>(
    ctx: &mut ThreadCtx,
    index: &Arc<S>,
    ops: &[Op],
    inflight: usize,
    mut complete: impl FnMut(Op, OpResult, u64, u64),
) {
    if inflight <= 1 {
        for &op in ops {
            let inv = ctx.now();
            let r = index.execute(ctx, op);
            let resp = ctx.now();
            complete(op, r, inv, resp);
        }
        return;
    }
    let mut lanes: Vec<Option<(Op, u64, S::Pending)>> = (0..inflight).map(|_| None).collect();
    let mut next = 0;
    let mut done = 0;
    while done < ops.len() {
        for (lane, slot) in lanes.iter_mut().enumerate() {
            match slot.take() {
                None if next < ops.len() => {
                    let op = ops[next];
                    next += 1;
                    let inv = ctx.now();
                    match index.issue(ctx, lane, op) {
                        Issued::Done(r) => {
                            let resp = ctx.now();
                            complete(op, r, inv, resp);
                            done += 1;
                        }
                        Issued::Pending(p) => *slot = Some((op, inv, p)),
                    }
                }
                None => {}
                Some((op, inv, mut p)) => match index.poll(ctx, &mut p) {
                    PollOutcome::Done(r) => {
                        let resp = ctx.now();
                        complete(op, r, inv, resp);
                        done += 1;
                    }
                    PollOutcome::Pending => *slot = Some((op, inv, p)),
                },
            }
        }
        ctx.idle(16);
    }
}

/// Drive `index` with the contended mixed workload at the given pipeline
/// depth, check the full conformance contract, and return the offload
/// telemetry for scenario-specific assertions.
#[allow(clippy::too_many_arguments)]
fn run_conformance<S: SimIndex>(
    machine: &Arc<Machine>,
    index: &Arc<S>,
    ks: KeySpace,
    initial: &[(Key, Value)],
    inflight: usize,
    seed: u64,
    expect_offload: bool,
    scans: bool,
    final_contents: impl FnOnce() -> BTreeMap<Key, Value>,
) -> OffloadStats {
    let analysis = machine.attach_analysis();
    // Spec-conformance mode: every observed access must match the effect
    // spec the structure registers in `spawn_services` below.
    analysis.enable_conformance();
    let recorder = Arc::new(HistoryRecorder::new());
    let tallies: Arc<Mutex<HashMap<Key, (i64, i64)>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut sim = machine.simulation();
    index.spawn_services(&mut sim);
    for core in 0..THREADS {
        let index = Arc::clone(index);
        let tallies = Arc::clone(&tallies);
        let recorder = Arc::clone(&recorder);
        let ops = mixed_ops(seed + core as u64, &ks, 16, OPS_PER_THREAD, scans);
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            drive(ctx, &index, &ops, inflight, |op, r, inv, resp| {
                record(&recorder, core, op, r, inv, resp);
                if r.ok {
                    let mut t = tallies.lock();
                    let e = t.entry(op.key()).or_insert((0, 0));
                    match op {
                        Op::Insert(..) => e.0 += 1,
                        Op::Remove(_) => e.1 += 1,
                        _ => {}
                    }
                }
            });
        });
    }
    sim.run();

    // Contract 1: no data races (a region-policy violation would have
    // panicked).
    analysis.report().assert_clean();

    // Contract 2: the point-op history linearizes.
    let initial_map: HashMap<Key, Value> = initial.iter().copied().collect();
    recorder.check_linearizable(|k| initial_map.get(&k).copied()).unwrap_or_else(|e| panic!("{e}"));

    // Contract 3: per-key presence balance against final contents.
    let present: HashSet<Key> = initial.iter().map(|&(k, _)| k).collect();
    let contents = final_contents();
    for (key, (io, ro)) in tallies.lock().iter() {
        let init = present.contains(key) as i64;
        assert_eq!(
            contents.contains_key(key) as i64,
            init + io - ro,
            "key {key} unbalanced (initial {init}, +{io}, -{ro})"
        );
    }

    // Contract 4: telemetry conservation — every posted request was
    // executed exactly once by a combiner, and offloading structures
    // actually went through the runtime.
    let offload = machine.mem().snapshot().offload;
    assert_eq!(
        offload.completed_total(),
        offload.posted_total(),
        "posted requests must all be executed at quiescence"
    );
    if expect_offload {
        assert!(offload.posted_total() > 0, "offloading structure posted nothing");
    } else {
        assert_eq!(offload.posted_total(), 0, "host-only structure must not post");
    }
    offload
}

/// Pqueue variant of the conformance contract. The queue is not a map, so
/// contract 2 becomes: (a) the combiner event log replays exactly against
/// a per-partition model (every successful pop took its partition's
/// minimum, every failed extract saw genuinely empty partitions), and
/// (b) `initial + successful inserts − popped keys` balances against the
/// final contents per key. Contracts 1 (analysis clean) and 4 (telemetry
/// conservation) are unchanged.
fn pqueue_conformance(inflight: usize, policy: Policy) {
    let ks = keyspace();
    let m = Machine::new(Config::tiny().with_policy(policy));
    let pq = HybridPqueue::with_exec_log(Arc::clone(&m), ks, 8, 5, inflight);
    let initial = half_initial(&ks);
    pq.populate(&initial);
    let analysis = m.attach_analysis();
    analysis.enable_conformance();
    let inserted: Arc<Mutex<Vec<Key>>> = Arc::new(Mutex::new(Vec::new()));
    let popped: Arc<Mutex<Vec<Key>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = m.simulation();
    pq.spawn_services(&mut sim);
    for core in 0..THREADS {
        let pq = Arc::clone(&pq);
        let inserted = Arc::clone(&inserted);
        let popped = Arc::clone(&popped);
        let mut rng = Rng::new(3600 + core as u64);
        let ops: Vec<Op> = (0..OPS_PER_THREAD)
            .map(|_| {
                if rng.below(2) == 0 {
                    Op::ExtractMin
                } else {
                    let base = ks.initial_key(rng.below(ks.total_initial() as u64) as u32);
                    Op::Insert(base + 1 + rng.below(6) as u32, rng.next_u32() | 1)
                }
            })
            .collect();
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            drive(ctx, &pq, &ops, inflight, |op, r, _inv, _resp| {
                if !r.ok {
                    return;
                }
                match op {
                    Op::Insert(k, _) => inserted.lock().push(k),
                    Op::ExtractMin => popped.lock().push(r.value),
                    _ => unreachable!(),
                }
            });
        });
    }
    sim.run();

    // Contract 1: no data races (a region-policy violation would have
    // panicked).
    analysis.report().assert_clean();

    // Contract 2 (pqueue form): structural invariants + pop-order replay.
    pq.check_invariants();
    pq.verify_extract_order(&initial);

    // Per-key balance of inserts/pops against the final contents.
    let mut balance: HashMap<Key, i64> = HashMap::new();
    for &(k, _) in &initial {
        *balance.entry(k).or_default() += 1;
    }
    for &k in inserted.lock().iter() {
        *balance.entry(k).or_default() += 1;
    }
    for &k in popped.lock().iter() {
        *balance.entry(k).or_default() -= 1;
    }
    let final_keys: HashSet<Key> = pq.collect().iter().map(|&(k, _)| k).collect();
    for (k, c) in balance {
        assert!((0..=1).contains(&c), "key {k} over-inserted or over-popped ({c})");
        assert_eq!(final_keys.contains(&k), c == 1, "key {k} unbalanced");
    }

    // Contract 4: telemetry conservation.
    let offload = m.mem().snapshot().offload;
    assert_eq!(offload.completed_total(), offload.posted_total());
    assert!(offload.posted_total() > 0, "pqueue must route through the runtime");
}

/// One registry entry per structure; the generic tests below iterate this
/// slice (crossed with both offload policies), so adding a structure to
/// the harness is one new line here.
struct Entry {
    name: &'static str,
    run: fn(usize, Policy),
}

const REGISTRY: &[Entry] = &[
    Entry {
        name: "nmp-skiplist",
        run: |inflight, policy| {
            let ks = keyspace();
            let m = Machine::new(Config::tiny().with_policy(policy));
            let sl = NmpSkipList::new(Arc::clone(&m), ks, 8, 3, inflight);
            let initial = half_initial(&ks);
            sl.populate(initial.clone());
            let sl2 = Arc::clone(&sl);
            run_conformance(&m, &sl, ks, &initial, inflight, 3100, true, true, move || {
                sl2.check_invariants();
                sl2.collect().into_iter().collect()
            });
        },
    },
    Entry {
        name: "hybrid-skiplist",
        run: |inflight, policy| {
            let ks = keyspace();
            let m = Machine::new(Config::tiny().with_policy(policy));
            let sl = HybridSkipList::new(Arc::clone(&m), ks, 10, 4, 3, inflight);
            let initial = half_initial(&ks);
            sl.populate(initial.clone());
            let sl2 = Arc::clone(&sl);
            run_conformance(&m, &sl, ks, &initial, inflight, 3200, true, true, move || {
                sl2.check_invariants();
                sl2.collect().into_iter().collect()
            });
        },
    },
    Entry {
        name: "hybrid-btree",
        run: |inflight, policy| {
            let ks = keyspace();
            let m = Machine::new(Config::tiny().with_policy(policy));
            let initial = half_initial(&ks);
            let t =
                HybridBTree::with_budget(Arc::clone(&m), &initial, 0.7, inflight.max(2), 2 * 1024);
            let t2 = Arc::clone(&t);
            run_conformance(&m, &t, ks, &initial, inflight, 3300, true, true, move || {
                t2.check_invariants();
                t2.collect().into_iter().collect()
            });
        },
    },
    Entry {
        name: "host-btree",
        run: |inflight, policy| {
            let ks = keyspace();
            let m = Machine::new(Config::tiny().with_policy(policy));
            let initial = half_initial(&ks);
            let t = HostBTree::new(Arc::clone(&m), &initial, 0.7);
            let t2 = Arc::clone(&t);
            run_conformance(&m, &t, ks, &initial, inflight, 3400, false, true, move || {
                t2.check_invariants();
                t2.collect().into_iter().collect()
            });
        },
    },
    Entry {
        name: "hybrid-hashmap",
        run: |inflight, policy| {
            let ks = keyspace();
            let m = Machine::new(Config::tiny().with_policy(policy));
            let hm = HybridHashMap::new(Arc::clone(&m), 64, 99, inflight);
            let initial = half_initial(&ks);
            hm.populate(initial.clone());
            let hm2 = Arc::clone(&hm);
            // scans=false: a hash map has no key order to scan.
            run_conformance(&m, &hm, ks, &initial, inflight, 3500, true, false, move || {
                hm2.check_invariants();
                hm2.collect().into_iter().collect()
            });
        },
    },
    Entry { name: "hybrid-pqueue", run: pqueue_conformance },
];

#[test]
fn all_structures_conform_blocking() {
    for e in REGISTRY {
        eprintln!("conformance[blocking]: {}", e.name);
        (e.run)(1, Policy::Fixed);
    }
}

#[test]
fn all_structures_conform_pipelined() {
    for e in REGISTRY {
        eprintln!("conformance[pipelined x4]: {}", e.name);
        (e.run)(4, Policy::Fixed);
    }
}

/// Full conformance contract under the self-tuning policy: coalescing and
/// the idle back-offs must not cost linearizability
/// or telemetry conservation for any structure in blocking mode.
#[test]
fn all_structures_conform_blocking_adaptive() {
    for e in REGISTRY {
        eprintln!("conformance[blocking, adaptive]: {}", e.name);
        (e.run)(1, Policy::Adaptive);
    }
}

/// Pipelined conformance under the self-tuning policy — the mode where
/// batches actually form, so sorted passes and coalesced runs are live.
#[test]
fn all_structures_conform_pipelined_adaptive() {
    for e in REGISTRY {
        eprintln!("conformance[pipelined x4, adaptive]: {}", e.name);
        (e.run)(4, Policy::Adaptive);
    }
}

/// Split-heavy inserts racing removes in the same key range: parked
/// inserts force the NMP side to answer RETRY, and splits reaching the
/// host levels force the lock path. Both must be visible in telemetry and
/// leave the tree consistent.
fn forced_retries_and_lock_path(policy: Policy) {
    let m = Machine::new(Config::tiny().with_policy(policy));
    let pairs: Vec<(Key, Value)> = (1..=500u32).map(|k| (k * 8, k)).collect();
    let t = HybridBTree::with_budget(Arc::clone(&m), &pairs, 1.0, 4, 4 * 1024);
    let analysis = m.attach_analysis();
    analysis.enable_conformance();
    let mut sim = m.simulation();
    t.spawn_services(&mut sim);
    for core in 0..4usize {
        let t = Arc::clone(&t);
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            for i in 0..40u32 {
                if core % 2 == 0 {
                    // Dense fresh keys into full leaves: every insert splits.
                    let key = 4001 + core as u32 * 500 + i;
                    assert!(t.execute(ctx, Op::Insert(key, i)).ok);
                } else {
                    // Removes in the same range race the parked inserts.
                    let key = ((i * 13 + core as u32) % 500 + 1) * 8;
                    let _ = t.execute(ctx, Op::Remove(key));
                }
            }
        });
    }
    sim.run();
    analysis.report().assert_clean();
    t.check_invariants();
    let offload = m.mem().snapshot().offload;
    assert_eq!(offload.completed_total(), offload.posted_total());
    assert!(offload.lock_path_total() > 0, "fill-1.0 splits must reach the host lock path");
    assert!(offload.retries_total() > 0, "removes racing parked inserts must retry");
}

#[test]
fn forced_retries_and_lock_path_are_counted() {
    forced_retries_and_lock_path(Policy::Fixed);
}

/// The same forced rare paths with the adaptive policy live: retries and
/// lock-path completions must survive sorted combining passes (retry
/// responses are never coalesced or replicated) and still be counted.
#[test]
fn forced_retries_and_lock_path_are_counted_adaptive() {
    forced_retries_and_lock_path(Policy::Adaptive);
}

/// Forced-coalescing interaction case: four pipelined host threads hammer
/// one hot key with reads while a sprinkle of same-key inserts/removes
/// keeps flipping its presence. Under `Policy::Adaptive` the combiner's
/// sorted passes must (a) actually coalesce identical hot reads, (b) keep
/// the recorded history linearizable even though most responses are
/// replicas of a lead descent racing the mutations, and (c) conserve
/// telemetry (every posted request answered exactly once — coalesced
/// followers included).
#[test]
fn adaptive_coalesces_hot_reads_and_stays_linearizable() {
    let ks = keyspace();
    let m = Machine::new(Config::tiny().with_policy(Policy::Adaptive));
    let hm = HybridHashMap::new(Arc::clone(&m), 64, 99, 4);
    let initial = half_initial(&ks);
    hm.populate(initial.clone());
    let analysis = m.attach_analysis();
    analysis.enable_conformance();
    let recorder = Arc::new(HistoryRecorder::new());
    let hot = ks.initial_key(0);
    let mut sim = m.simulation();
    hm.spawn_services(&mut sim);
    for core in 0..THREADS {
        let hm = Arc::clone(&hm);
        let recorder = Arc::clone(&recorder);
        let mut rng = Rng::new(8800 + core as u64);
        // 7/8 hot-key reads, 1/8 hot-key insert/remove churn: combining
        // passes are dominated by identical requests.
        let ops: Vec<Op> = (0..OPS_PER_THREAD)
            .map(|_| match rng.below(16) {
                0 => Op::Insert(hot, rng.next_u32() | 1),
                1 => Op::Remove(hot),
                _ => Op::Read(hot),
            })
            .collect();
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            drive(ctx, &hm, &ops, 4, |op, r, inv, resp| {
                record(&recorder, core, op, r, inv, resp);
            });
        });
    }
    sim.run();
    analysis.report().assert_clean();
    hm.check_invariants();
    let initial_map: HashMap<Key, Value> = initial.iter().copied().collect();
    recorder.check_linearizable(|k| initial_map.get(&k).copied()).unwrap_or_else(|e| panic!("{e}"));
    let offload = m.mem().snapshot().offload;
    assert_eq!(offload.completed_total(), offload.posted_total());
    assert!(
        offload.coalesced_total() > 0,
        "identical hot reads from 4x4 lanes must coalesce: {offload:?}"
    );
}

/// Under a pipelined YCSB-C run the combiner must actually batch: some
/// scan passes pick up more than one published request.
#[test]
fn pipelined_run_batches_multiple_requests_per_pass() {
    let m = Machine::new(Config::tiny());
    let ks = keyspace();
    let sl = HybridSkipList::new(Arc::clone(&m), ks, 10, 4, 7, 4);
    sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
    let spec = RunSpec::new(
        WorkloadSpec {
            seed: 42,
            threads: 4,
            ops_per_thread: 80,
            mix: Mix::ycsb_c(),
            read_dist: KeyDist::Uniform,
            insert_dist: InsertDist::UniformGap,
        },
        20,
        4,
    );
    let r = run_index(&m, &sl, &ks, &spec);
    assert_eq!(r.measured_ops, 320);
    assert!(
        r.stats.offload.passes_with(2) > 0,
        "pipelined YCSB-C should combine >1 request in some passes: {:?}",
        r.stats.offload
    );
    assert!(r.offload_mean_batch > 0.0);
    assert!(r.wall_ms > 0.0);
    assert!(r.sim_cycles_per_sec > 0.0);
}

/// Identical seeds must give identical makespans *and* identical offload
/// telemetry across consecutive runs — the telemetry layer itself must
/// not perturb simulated time.
#[test]
fn telemetry_and_makespan_are_deterministic() {
    let go = || {
        let m = Machine::new(Config::tiny());
        let ks = keyspace();
        let sl = HybridSkipList::new(Arc::clone(&m), ks, 10, 4, 11, 4);
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
        let spec = RunSpec::new(
            WorkloadSpec {
                seed: 7,
                threads: 3,
                ops_per_thread: 60,
                mix: Mix::read_insert_remove(60, 20, 20),
                read_dist: KeyDist::Uniform,
                insert_dist: InsertDist::UniformGap,
            },
            10,
            4,
        );
        let r = run_index(&m, &sl, &ks, &spec);
        (r.cycles, r.succeeded_ops, r.stats.offload.clone())
    };
    let (a, b) = (go(), go());
    assert_eq!(a.0, b.0, "makespan must be bit-for-bit deterministic");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "offload telemetry must be deterministic");
}

/// Same-seed driver runs over both *new* structures must reproduce
/// makespan, op counts, and every offload counter bit-for-bit.
#[test]
fn new_structures_telemetry_deterministic() {
    let ks = keyspace();
    let hash_run = || {
        let m = Machine::new(Config::tiny());
        let hm = HybridHashMap::new(Arc::clone(&m), 64, 17, 4);
        hm.populate(half_initial(&ks));
        let spec = RunSpec::new(WorkloadSpec::hashmap_mixed(13, 3, 60, KeyDist::Uniform), 10, 4);
        let r = run_index(&m, &hm, &ks, &spec);
        (r.cycles, r.succeeded_ops, r.stats.offload.clone())
    };
    let pq_run = || {
        let m = Machine::new(Config::tiny());
        let pq = HybridPqueue::new(Arc::clone(&m), ks, 8, 5, 4);
        pq.populate(&half_initial(&ks));
        let spec = RunSpec::new(WorkloadSpec::pqueue(29, 3, 60, 50), 10, 4);
        let r = run_index(&m, &pq, &ks, &spec);
        (r.cycles, r.succeeded_ops, r.stats.offload.clone())
    };
    let (a, b) = (hash_run(), hash_run());
    assert_eq!(a, b, "hash map runs must be bit-for-bit deterministic");
    assert!(a.2.posted_total() > 0, "hash map must offload");
    let (c, d) = (pq_run(), pq_run());
    assert_eq!(c, d, "pqueue runs must be bit-for-bit deterministic");
    assert!(c.2.posted_total() > 0, "pqueue must offload");
}
