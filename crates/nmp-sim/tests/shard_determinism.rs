//! Byte-identity of the sharded engine against the legacy sequential engine.
//!
//! The sharded scheduler (one event loop per vault shard plus a host shard,
//! conservative frontier gating, deferred trace/analysis replay) must be an
//! *indistinguishable* drop-in: under a fixed seed every observable artifact
//! — per-thread final clocks, final RAM contents, the stats snapshot, the
//! Chrome-trace export, the trace summary, and the analysis report — must be
//! byte-for-byte identical to a `shards = 1` (legacy single-loop) run.
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

/// Run the handshake workload on `shards` vault shards and fold every
/// observable artifact into one big string fingerprint.
fn fingerprint(shards: usize) -> String {
    let machine = Machine::new(Config::tiny().with_shards(shards));
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

/// shards=2 (one event loop per vault of `Config::tiny`) reproduces the
/// legacy engine byte-for-byte, including trace export and analysis report.
#[test]
fn sharded_matches_legacy_byte_for_byte() {
    let legacy = fingerprint(1);
    let sharded = fingerprint(2);
    assert_eq!(legacy, sharded, "shards=2 diverged from the sequential engine");
}

/// Oversubscribed shard counts are clamped to the partition count and stay
/// identical too.
#[test]
fn oversubscribed_shards_clamp_and_match() {
    assert_eq!(fingerprint(1), fingerprint(8));
}

/// The sharded engine is deterministic run-to-run on its own (same OS-level
/// thread interleavings are *not* required for this — only frontier order).
#[test]
fn sharded_engine_is_self_deterministic() {
    let a = fingerprint(2);
    for _ in 0..3 {
        assert_eq!(a, fingerprint(2));
    }
}

/// Adaptive-back-off variant of the handshake workload: every idle
/// duration is a pure function of *observed simulated state* — daemons
/// double their poll interval on each empty mailbox check and re-arm it on
/// work (the combiner-control pattern of the hybrids offload policy), and
/// host threads double their ack-wait interval per empty poll (the lane
/// governor's stall back-off pattern). Because the intervals derive only
/// from values the threads read out of simulated memory, the conservative
/// sharded scheduler must reproduce them bit-for-bit.
fn fingerprint_adaptive_backoff(shards: usize) -> String {
    let machine = Machine::new(Config::tiny().with_shards(shards));
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

/// State-driven adaptive back-off is shard-invariant: shards=1, 2, and an
/// oversubscribed 4 (clamped to the vault count) agree byte-for-byte.
#[test]
fn adaptive_backoff_is_shard_invariant() {
    let legacy = fingerprint_adaptive_backoff(1);
    assert_eq!(legacy, fingerprint_adaptive_backoff(2), "shards=2 diverged");
    assert_eq!(legacy, fingerprint_adaptive_backoff(4), "shards=4 (clamped) diverged");
}

/// A worker panic inside a sharded run still propagates with the original
/// message (gates open so no peer deadlocks waiting on the dead shard).
#[test]
fn sharded_panic_propagates_with_message() {
    let machine = Machine::new(Config::tiny().with_shards(2));
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
    assert!(msg.contains("deliberate test panic"), "unexpected panic payload: {msg}");
}
