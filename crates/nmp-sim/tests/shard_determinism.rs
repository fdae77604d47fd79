//! Byte-identity of the scheduler's two topologies.
//!
//! The per-partition topology (one event loop per vault shard plus a host
//! shard, conservative frontier gating, the keyed stop protocol) must be
//! *indistinguishable* from the single-loop topology
//! (`Config::with_single_loop`: every thread in one shard, which is the
//! sequential min-`(clock, id)` order by construction): under a fixed seed
//! every observable artifact — per-thread final clocks, final RAM contents,
//! the stats snapshot, the Chrome-trace export, the trace summary, and the
//! analysis report — must be byte-for-byte identical.
//!
//! Both topologies share the deferred-replay merge and the thread-side
//! accessors, so the differential cannot see a bug there; two frozen
//! digests of the scheduler this one replaced (a separate engine thread
//! resuming the global minimum-key thread) pin the absolute bytes instead.
//!
//! The workload here is deliberately adversarial for a conservative
//! scheduler: host threads CAS-contend on shared DRAM, post MMIO work to
//! both partitions' scratchpads (crossing the host-shard/vault-shard
//! boundary in both directions), and NMP daemons mutate their own partition
//! heaps while polling their mailboxes. Everything stays policy-clean: a
//! policy violation opens all gates (fail-fast ordering is preserved but
//! not byte-reproduced; see DESIGN.md §4.9).

use std::sync::Arc;

use nmp_sim::{Config, Machine, ThreadKind};

/// `Config::tiny()` under the chosen topology.
fn tiny(single_loop: bool) -> Config {
    if single_loop {
        Config::tiny().with_single_loop()
    } else {
        Config::tiny()
    }
}

/// 64-bit FNV-1a.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a of `fingerprint` / `fingerprint_adaptive_backoff` as produced by
/// the engine-thread sequential scheduler deleted in the commit that added
/// these constants (computed at its parent with `shards = 1`).
const LEGACY_HANDSHAKE_FNV: u64 = 0xe236_3d25_95b1_3c2a;
const LEGACY_BACKOFF_FNV: u64 = 0x79fa_5e20_08c9_307d;

/// Both topologies must agree with each other and with the frozen digest.
fn assert_both_topologies_match(fp: fn(bool) -> String, frozen: u64) {
    let reference = fp(true);
    assert_eq!(reference, fp(false), "per-partition topology diverged from the single loop");
    assert_eq!(
        fnv1a64(&reference),
        frozen,
        "both topologies agree but no longer reproduce the deleted sequential engine's bytes. \
         Re-bless the digest (from `with_single_loop()` only) when the timing model or an \
         observer format changed on purpose; otherwise this is a scheduler regression."
    );
}

/// Run the handshake workload under the chosen topology and fold every
/// observable artifact into one big string fingerprint.
fn fingerprint(single_loop: bool) -> String {
    let machine = Machine::new(tiny(single_loop));
    let tracer = machine.attach_tracer();
    let analysis = machine.attach_analysis();

    let parts = machine.partitions();
    let counter = machine.host_arena().alloc(8);
    let results = machine.host_arena().alloc(8 * parts as u32);
    let heap: Vec<_> = (0..parts).map(|p| machine.part_arena(p).alloc(64)).collect();

    let mut sim = machine.simulation();

    // NMP daemons: poll mailbox word 0, accumulate into own partition heap,
    // publish the running sum at word 8, ack by clearing the mailbox.
    for (p, &h) in heap.iter().enumerate() {
        let spad = machine.map().spad_base(p);
        sim.spawn_daemon(format!("nmp{p}"), ThreadKind::Nmp { part: p }, move |ctx| {
            let mut sum = 0u64;
            while !ctx.stop_requested() {
                let v = ctx.read_u64_acquire(spad);
                if v != 0 {
                    sum = sum.wrapping_add(v);
                    ctx.write_u64(h, sum);
                    ctx.write_u64(spad + 8, sum);
                    ctx.write_u64_release(spad, 0);
                } else {
                    ctx.idle(24);
                }
            }
        });
    }

    // Host threads: CAS-bump a shared counter, then round-robin MMIO posts
    // to every partition, waiting for each ack before the next post.
    for core in 0..3usize {
        let m = Arc::clone(&machine);
        let out = results;
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            let mut last = 0u64;
            for i in 0..12u64 {
                loop {
                    let cur = ctx.read_u64(counter);
                    ctx.advance(1 + (core as u64 + i) % 5);
                    if ctx.cas_u64(counter, cur, cur + 1).is_ok() {
                        break;
                    }
                }
                let p = (core + i as usize) % m.partitions();
                let spad = m.map().spad_base(p);
                // Wait for the mailbox to be free, then post.
                while ctx.mmio_read_u64_acquire(spad) != 0 {
                    ctx.idle(32);
                }
                ctx.mmio_write_u64_release(spad, 1 + core as u64 * 100 + i);
                // Wait for the daemon's published sum to change.
                loop {
                    let s = ctx.mmio_read_u64_acquire(spad + 8);
                    if s != last && s != 0 {
                        last = s;
                        break;
                    }
                    ctx.idle(32);
                }
            }
            ctx.write_u64(out + core as u32 * 8, last);
        });
    }

    let outcome = sim.run();

    let mut fp = String::new();
    fp.push_str(&format!("clocks={:?}\n", outcome.clocks));
    fp.push_str(&format!("names={:?}\n", outcome.names));
    fp.push_str(&format!("makespan={}\n", outcome.makespan()));
    fp.push_str(&format!("counter={}\n", machine.ram().read_u64(counter)));
    for core in 0..3u32 {
        fp.push_str(&format!("r{core}={}\n", machine.ram().read_u64(results + core * 8)));
    }
    for (p, h) in heap.iter().enumerate() {
        fp.push_str(&format!("heap{p}={}\n", machine.ram().read_u64(*h)));
    }
    fp.push_str(&format!("snapshot={:?}\n", machine.mem().snapshot()));
    fp.push_str(&format!("summary={:?}\n", tracer.summary()));
    fp.push_str(&format!("events={:?}\n", tracer.events()));
    fp.push_str(&format!("phases={:?}\n", tracer.phase_totals()));
    fp.push_str(&format!("report={:?}\n", analysis.report()));
    fp.push_str(&nmp_sim::trace::TraceSink::chrome_json(&tracer));
    fp
}

/// One event loop per vault of `Config::tiny` reproduces the single loop —
/// and the deleted sequential engine — byte-for-byte, including trace
/// export and analysis report.
#[test]
fn per_partition_matches_single_loop_byte_for_byte() {
    assert_both_topologies_match(fingerprint, LEGACY_HANDSHAKE_FNV);
}

/// The per-partition topology is deterministic run-to-run on its own (same
/// OS-level thread interleavings are *not* required for this — only
/// frontier order).
#[test]
fn per_partition_topology_is_self_deterministic() {
    let a = fingerprint(false);
    for _ in 0..3 {
        assert_eq!(a, fingerprint(false));
    }
}

/// Adaptive-back-off variant of the handshake workload: every idle
/// duration is a pure function of *observed simulated state* — daemons
/// double their poll interval on each empty mailbox check and re-arm it on
/// work (the combiner idle back-off of the hybrids offload policy), and
/// host threads double their ack-wait interval per empty poll (the
/// pipeline's stall back-off). Because the intervals derive only
/// from values the threads read out of simulated memory, the conservative
/// cross-shard gating must reproduce them bit-for-bit.
fn fingerprint_adaptive_backoff(single_loop: bool) -> String {
    let machine = Machine::new(tiny(single_loop));
    let tracer = machine.attach_tracer();
    let analysis = machine.attach_analysis();

    let parts = machine.partitions();
    let results = machine.host_arena().alloc(8 * parts as u32);
    let heap: Vec<_> = (0..parts).map(|p| machine.part_arena(p).alloc(64)).collect();

    let mut sim = machine.simulation();

    // Daemons: exponential poll back-off (8, 16, ... 128) while the
    // mailbox is empty, re-armed to 8 by every served request.
    for (p, &h) in heap.iter().enumerate() {
        let spad = machine.map().spad_base(p);
        sim.spawn_daemon(format!("nmp{p}"), ThreadKind::Nmp { part: p }, move |ctx| {
            let mut sum = 0u64;
            let mut idle = 8u64;
            while !ctx.stop_requested() {
                let v = ctx.read_u64_acquire(spad);
                if v != 0 {
                    sum = sum.wrapping_add(v);
                    ctx.write_u64(h, sum);
                    ctx.write_u64(spad + 8, sum);
                    ctx.write_u64_release(spad, 0);
                    idle = 8;
                } else {
                    ctx.idle(idle);
                    idle = (idle * 2).min(128);
                }
            }
        });
    }

    // Hosts: post to alternating partitions; the wait for each ack backs
    // off exponentially per empty poll and re-arms on progress.
    for core in 0..3usize {
        let m = Arc::clone(&machine);
        let out = results;
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            let mut last = 0u64;
            for i in 0..10u64 {
                let p = (core + i as usize) % m.partitions();
                let spad = m.map().spad_base(p);
                let mut idle = 4u64;
                while ctx.mmio_read_u64_acquire(spad) != 0 {
                    ctx.idle(idle);
                    idle = (idle * 2).min(64);
                }
                ctx.mmio_write_u64_release(spad, 1 + core as u64 * 100 + i);
                let mut idle = 4u64;
                loop {
                    let s = ctx.mmio_read_u64_acquire(spad + 8);
                    if s != last && s != 0 {
                        last = s;
                        break;
                    }
                    ctx.idle(idle);
                    idle = (idle * 2).min(64);
                }
            }
            ctx.write_u64(out + core as u32 * 8, last);
        });
    }

    let outcome = sim.run();

    let mut fp = String::new();
    fp.push_str(&format!("clocks={:?}\n", outcome.clocks));
    fp.push_str(&format!("makespan={}\n", outcome.makespan()));
    for core in 0..3u32 {
        fp.push_str(&format!("r{core}={}\n", machine.ram().read_u64(results + core * 8)));
    }
    for (p, h) in heap.iter().enumerate() {
        fp.push_str(&format!("heap{p}={}\n", machine.ram().read_u64(*h)));
    }
    fp.push_str(&format!("snapshot={:?}\n", machine.mem().snapshot()));
    fp.push_str(&format!("summary={:?}\n", tracer.summary()));
    fp.push_str(&format!("events={:?}\n", tracer.events()));
    fp.push_str(&format!("report={:?}\n", analysis.report()));
    fp.push_str(&nmp_sim::trace::TraceSink::chrome_json(&tracer));
    fp
}

/// State-driven adaptive back-off is topology-invariant.
#[test]
fn adaptive_backoff_is_topology_invariant() {
    assert_both_topologies_match(fingerprint_adaptive_backoff, LEGACY_BACKOFF_FNV);
}

/// A one-partition machine: host shard plus a single vault shard (the
/// smallest machine with a cross-shard gate). One NMP mailbox daemon serving
/// a request/response slot pair per host, two host threads posting through
/// MMIO; clocks, stats, trace events and RAM must not depend on the topology.
fn fingerprint_one_partition(single_loop: bool) -> String {
    let mut cfg = tiny(single_loop);
    cfg.num_vaults = 3;
    cfg.main_vaults = 2;
    let machine = Machine::new(cfg);
    assert_eq!(machine.partitions(), 1);
    let tracer = machine.attach_tracer();
    let spad = machine.map().spad_base(0);
    let heap = machine.part_arena(0).alloc(8);
    let results = machine.host_arena().alloc(16);

    let mut sim = machine.simulation();
    sim.spawn_daemon("nmp0", ThreadKind::Nmp { part: 0 }, move |ctx| {
        let mut sum = 0u64;
        while !ctx.stop_requested() {
            let mut served = false;
            for slot in [spad, spad + 16] {
                let v = ctx.read_u64_acquire(slot);
                if v != 0 {
                    sum = sum.wrapping_add(v);
                    ctx.write_u64(heap, sum);
                    ctx.write_u64(slot + 8, sum);
                    ctx.write_u64_release(slot, 0);
                    served = true;
                }
            }
            if !served {
                ctx.idle(24);
            }
        }
    });
    for core in 0..2usize {
        let slot = spad + 16 * core as u32;
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            let mut folded = 0u64;
            for i in 0..8u64 {
                ctx.mmio_write_u64_release(slot, 1 + core as u64 * 100 + i);
                while ctx.mmio_read_u64_acquire(slot) != 0 {
                    ctx.idle(32 + core as u64);
                }
                folded = folded.rotate_left(7) ^ ctx.mmio_read_u64(slot + 8);
                ctx.advance(1 + (core as u64 + i) % 3);
            }
            ctx.write_u64(results + core as u32 * 8, folded);
        });
    }
    let outcome = sim.run();

    let ram = machine.ram();
    // 16 requests, none lost: 1..=8 from h0 and 101..=108 from h1.
    assert_eq!(ram.read_u64(heap), 36 + 836);
    let mut fp = format!("clocks={:?}\n", outcome.clocks);
    fp.push_str(&format!("snapshot={:?}\n", machine.mem().snapshot()));
    fp.push_str(&format!("events={:?}\n", tracer.events()));
    fp.push_str(&format!("r0={} r1={}\n", ram.read_u64(results), ram.read_u64(results + 8)));
    fp
}

#[test]
fn one_partition_machine_is_topology_invariant() {
    assert_eq!(fingerprint_one_partition(true), fingerprint_one_partition(false));
}

/// A worker panic still propagates with the original message under either
/// topology (gates open so no peer deadlocks waiting on the dead shard).
#[test]
fn worker_panic_propagates_with_message() {
    for single_loop in [false, true] {
        let machine = Machine::new(tiny(single_loop));
        let base = machine.host_arena().alloc(8);
        let mut sim = machine.simulation();
        for p in 0..machine.partitions() {
            sim.spawn_daemon(format!("nmp{p}"), ThreadKind::Nmp { part: p }, move |ctx| {
                while !ctx.stop_requested() {
                    ctx.idle(16);
                }
            });
        }
        sim.spawn("boom", ThreadKind::Host { core: 0 }, move |ctx| {
            ctx.write_u64(base, 1);
            panic!("deliberate test panic");
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("deliberate test panic"),
            "single_loop={single_loop}: unexpected panic payload: {msg}"
        );
    }
}
