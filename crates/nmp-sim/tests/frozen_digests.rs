//! Engine-level frozen runs: the scheduler's simulated bytes, pinned.
//!
//! Each workload runs under a fixed seed and folds every observable
//! artifact — per-thread final clocks, final RAM contents, the stats
//! snapshot, an FNV-1a digest of the Chrome-trace export, the trace
//! summary, events and phase totals, and the analysis report — into a text
//! that must equal its golden file, `golden/frozen_digests/<test>.txt`. On
//! a mismatch the test names every moved line and prints the `cp` that
//! accepts the new text.
//!
//! The workloads are deliberately adversarial for a scheduler: host threads
//! CAS-contend on shared DRAM, post MMIO work to every partition's
//! scratchpad and wait for the acks, and NMP daemons mutate their own
//! partition heaps while polling their mailboxes, so every turn order
//! decision shows up in some clock, counter or trace byte.

#[path = "../../../tests/support/golden.rs"]
mod golden;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use nmp_sim::trace::{TraceSink, Tracer};
use nmp_sim::{Config, Machine, ThreadKind};

/// Hold a run's folded text against its golden file `<test>.txt`. The texts
/// were first taken from the sequential engine-thread scheduler that the
/// sharded OS-thread scheduler, and then the coroutine loop, replaced
/// (`handshake`, `adaptive_backoff`), and from the single-loop topology of
/// the OS-thread scheduler before it became a coroutine loop
/// (`one_partition_machine`).
fn assert_golden(test: &str, fp: &str) {
    let fresh = BTreeMap::from([(format!("{test}.txt"), fp.to_string())]);
    golden::check("frozen_digests", &fresh, |_, old, new| golden::line_moves(old, new));
}

/// The trace's events, one per line.
fn events(fp: &mut String, tracer: &Tracer) {
    for e in tracer.events() {
        let _ = writeln!(fp, "event={e:?}");
    }
}

/// Run the handshake workload and fold every observable artifact into one
/// big string fingerprint.
fn fingerprint() -> String {
    let machine = Machine::new(Config::tiny());
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
    let _ = writeln!(fp, "snapshot={:#?}", machine.mem().snapshot());
    let _ = writeln!(fp, "summary={:#?}", tracer.summary());
    events(&mut fp, &tracer);
    let _ = writeln!(fp, "phases={:#?}", tracer.phase_totals());
    let _ = writeln!(fp, "report={:#?}", analysis.report());
    let _ = writeln!(
        fp,
        "chrome_json.fnv1a={:016x}",
        golden::fnv1a64(&TraceSink::chrome_json(&tracer))
    );
    fp
}

/// The handshake workload reproduces the sequential engine byte for byte,
/// including trace export and analysis report.
#[test]
fn handshake_matches_its_frozen_digest() {
    assert_golden("handshake_matches_its_frozen_digest", &fingerprint());
}

/// A simulation is deterministic run to run within one process, too.
#[test]
fn handshake_is_deterministic_run_to_run() {
    let a = fingerprint();
    for _ in 0..3 {
        assert_eq!(a, fingerprint());
    }
}

/// Adaptive-back-off variant of the handshake workload: every idle
/// duration is a pure function of *observed simulated state* — daemons
/// double their poll interval on each empty mailbox check and re-arm it on
/// work (the combiner idle back-off of the hybrids offload policy), and
/// host threads double their ack-wait interval per empty poll (the
/// pipeline's stall back-off). Because the intervals derive only
/// from values the threads read out of simulated memory, they reproduce
/// bit-for-bit.
fn fingerprint_adaptive_backoff() -> String {
    let machine = Machine::new(Config::tiny());
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
    let _ = writeln!(fp, "snapshot={:#?}", machine.mem().snapshot());
    let _ = writeln!(fp, "summary={:#?}", tracer.summary());
    events(&mut fp, &tracer);
    let _ = writeln!(fp, "report={:#?}", analysis.report());
    let _ = writeln!(
        fp,
        "chrome_json.fnv1a={:016x}",
        golden::fnv1a64(&TraceSink::chrome_json(&tracer))
    );
    fp
}

/// State-driven adaptive back-off reproduces the sequential engine too.
#[test]
fn adaptive_backoff_matches_its_frozen_digest() {
    assert_golden("adaptive_backoff_matches_its_frozen_digest", &fingerprint_adaptive_backoff());
}

/// A one-partition machine: one NMP mailbox daemon serving a
/// request/response slot pair per host, two host threads posting through
/// MMIO; clocks, stats, trace events and RAM are pinned.
fn fingerprint_one_partition() -> String {
    let mut cfg = Config::tiny();
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
    let _ = writeln!(fp, "snapshot={:#?}", machine.mem().snapshot());
    events(&mut fp, &tracer);
    let _ = writeln!(fp, "r0={} r1={}", ram.read_u64(results), ram.read_u64(results + 8));
    fp
}

#[test]
fn one_partition_machine_matches_its_frozen_digest() {
    assert_golden("one_partition_machine_matches_its_frozen_digest", &fingerprint_one_partition());
}

/// A worker panic propagates with the original message while daemons are
/// polling for the stop.
#[test]
fn worker_panic_propagates_with_message() {
    let machine = Machine::new(Config::tiny());
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
