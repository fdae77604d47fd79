//! Sim-vs-native differential tests: the same workload replayed through
//! `HybridHashMap` under the deterministic simulation engine and under
//! `NativeRun`'s free-running OS threads must produce identical logical
//! outcomes — per-operation results and final map contents.
//!
//! Both engines run over the same `nmp_sim::Ram` implementation, so what
//! these tests isolate is the *engine*: serialized, cycle-ordered effects
//! against real concurrency ordered only by the RAM's acquire/release and
//! CAS. The simulator is the correctness oracle (races, region policy,
//! linearizability run there). Multi-threaded streams use per-thread
//! disjoint key ranges so the logical outcome is independent of
//! interleaving — any divergence is an ordering bug, not scheduling noise.

use std::sync::Arc;

use hybrids::hashmap::HybridHashMap;
use hybrids::{OpResult, SimIndex};
use nmp_sim::{Config, Machine, ThreadKind};
use parking_lot::Mutex;
use workloads::{Key, Op, Rng, Value};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 400;

/// Deterministic op stream confined to keys `[base, base + span)`.
fn stream(seed: u64, base: Key, span: u32, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            let key = base + rng.below(span as u64) as Key;
            let value: Value = rng.next_u32() | 1;
            match rng.below(100) {
                0..=39 => Op::Read(key),
                40..=69 => Op::Insert(key, value),
                70..=84 => Op::Update(key, value),
                _ => Op::Remove(key),
            }
        })
        .collect()
}

/// A logical-thread body runnable on either engine.
type ThreadBody = Box<dyn FnOnce(&mut nmp_sim::ThreadCtx) + Send>;

/// Replay `streams[t]` on thread `t`; returns per-thread results and the
/// final sorted contents.
fn replay(native: bool, streams: &[Vec<Op>]) -> (Vec<Vec<OpResult>>, Vec<(Key, Value)>) {
    let cfg = Config::tiny();
    let machine = Machine::new(cfg);
    let map = HybridHashMap::new(Arc::clone(&machine), 64, 42, 2);
    let results: Arc<Vec<Mutex<Vec<OpResult>>>> =
        Arc::new((0..streams.len()).map(|_| Mutex::new(Vec::new())).collect());

    let mut bodies: Vec<ThreadBody> = Vec::new();
    for (t, ops) in streams.iter().enumerate() {
        let map = Arc::clone(&map);
        let results = Arc::clone(&results);
        let ops = ops.clone();
        bodies.push(Box::new(move |ctx| {
            let mut out = Vec::with_capacity(ops.len());
            for op in ops {
                out.push(map.execute(ctx, op));
            }
            *results[t].lock() = out;
        }));
    }

    if native {
        let mut run = machine.native_run();
        map.spawn_services_on(&mut run);
        for (t, body) in bodies.into_iter().enumerate() {
            run.spawn(format!("h{t}"), ThreadKind::Host { core: t }, body);
        }
        run.finish();
    } else {
        let mut sim = machine.simulation();
        map.spawn_services_on(&mut sim);
        for (t, body) in bodies.into_iter().enumerate() {
            sim.spawn(format!("h{t}"), ThreadKind::Host { core: t }, body);
        }
        sim.run();
    }

    map.check_invariants();
    let mut contents = map.collect();
    contents.sort_unstable();
    let per_thread = results.iter().map(|m| m.lock().clone()).collect();
    (per_thread, contents)
}

#[test]
fn disjoint_multithread_outcomes_match() {
    // Each thread owns a private key range: outcomes are
    // interleaving-independent, so sim and native must agree exactly.
    let streams: Vec<Vec<Op>> = (0..THREADS)
        .map(|t| stream(0xC0FFEE + t as u64, 1 + 10_000 * t as Key, 64, OPS_PER_THREAD))
        .collect();
    let (sim_results, sim_contents) = replay(false, &streams);
    let (nat_results, nat_contents) = replay(true, &streams);
    for t in 0..THREADS {
        assert_eq!(
            sim_results[t], nat_results[t],
            "thread {t}: op results diverge between sim and native"
        );
    }
    assert_eq!(sim_contents, nat_contents, "final contents diverge");
    assert!(!sim_contents.is_empty(), "workload should leave residue");
}

#[test]
fn single_thread_full_mix_matches() {
    // One thread, one shared key range: the complete serial history must
    // agree op-for-op.
    let streams = vec![stream(7, 1, 512, 2_000)];
    let (sim_results, sim_contents) = replay(false, &streams);
    let (nat_results, nat_contents) = replay(true, &streams);
    assert_eq!(sim_results, nat_results);
    assert_eq!(sim_contents, nat_contents);
    // Sanity: the mix exercised every outcome class.
    let flat = &sim_results[0];
    assert!(flat.iter().any(|r| r.ok));
    assert!(flat.iter().any(|r| !r.ok));
}

#[test]
fn native_replay_is_self_consistent() {
    // The native backend is not deterministic in timing, but a
    // disjoint-key workload's logical outcome must be stable run to run.
    let streams: Vec<Vec<Op>> =
        (0..THREADS).map(|t| stream(99 + t as u64, 1 + 4_096 * t as Key, 32, 200)).collect();
    let (r1, c1) = replay(true, &streams);
    let (r2, c2) = replay(true, &streams);
    assert_eq!(r1, r2);
    assert_eq!(c1, c2);
}
