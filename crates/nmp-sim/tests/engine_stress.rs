//! Engine stress tests: multiple simulations coexisting in one process.
//!
//! A simulation runs on the OS thread that calls `run`, and all of its
//! scheduler state belongs to that run; nothing may leak across engine
//! instances. These tests run whole simulations concurrently from scoped OS
//! threads and check that each remains bit-deterministic.

use nmp_sim::{Config, Machine, ThreadKind};

/// One self-contained simulation: concurrent counter increments via CAS.
/// Returns (makespan, final counter, dram reads).
fn run_world(seed: u64) -> (u64, u64, u64) {
    let machine = Machine::new(Config::tiny());
    let base = machine.host_arena().alloc(8);
    let mut sim = machine.simulation();
    for core in 0..4usize {
        let b = base;
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            let mut bumps = 0;
            while bumps < 25 {
                let cur = ctx.read_u64(b);
                ctx.advance(seed % 7 + core as u64); // skew interleavings per seed
                if ctx.cas_u64(b, cur, cur + 1).is_ok() {
                    bumps += 1;
                }
            }
        });
    }
    let out = sim.run();
    (out.makespan(), machine.ram().read_u64(base), machine.mem().snapshot().dram_reads())
}

#[test]
fn concurrent_simulations_do_not_interfere() {
    // Run 4 distinct worlds in parallel OS threads, twice; every world must
    // reproduce its own fingerprint exactly.
    let fingerprints: Vec<(u64, u64, u64)> = (0..4).map(run_world).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|s| {
                let expect = fingerprints[s as usize];
                scope.spawn(move || {
                    for _ in 0..2 {
                        assert_eq!(run_world(s), expect, "world {s} diverged");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn cas_counter_reaches_expected_total() {
    let (_, total, _) = run_world(1);
    assert_eq!(total, 100, "4 threads x 25 successful CAS increments");
}

#[test]
fn many_sequential_simulations_are_stable() {
    let first = run_world(9);
    for _ in 0..10 {
        assert_eq!(run_world(9), first);
    }
}

#[test]
fn large_thread_count_simulation() {
    // 8 hosts + 8 NMP daemons on the paper config: engine handles 16
    // logical threads with daemons exiting on stop.
    let machine = Machine::new(Config::paper());
    let base = machine.host_arena().alloc(64);
    let mut sim = machine.simulation();
    for part in 0..machine.partitions() {
        sim.spawn_daemon(format!("nmp{part}"), ThreadKind::Nmp { part }, move |ctx| {
            while !ctx.stop_requested() {
                ctx.idle(64);
            }
        });
    }
    for core in 0..machine.config().host_cores {
        let b = base + core as u32 * 8;
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            for i in 0..200u64 {
                ctx.write_u64(b, i);
            }
        });
    }
    let out = sim.run();
    assert!(out.makespan() > 0);
    for core in 0..machine.config().host_cores {
        assert_eq!(machine.ram().read_u64(base + core as u32 * 8), 199);
    }
}
