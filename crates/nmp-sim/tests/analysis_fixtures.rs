//! Fixture programs for the engine-integrated correctness checkers.
//!
//! Positive fixtures (clean programs) must produce a clean report; negative
//! fixtures (a seeded racy program) must be flagged. These guard the
//! analysis layer itself: a detector that never fires would pass every
//! structure test. The region policy is not an analysis: every rule panics
//! with or without one attached, which the `*_panics` fixtures pin.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use nmp_sim::analysis::{PolicyRule, RaceKind};
use nmp_sim::{Config, Machine, MemMap, ThreadCtx, ThreadKind};

/// Two host threads hammer the same word with plain (unannotated) writes:
/// textbook write-write race.
#[test]
fn racy_program_is_flagged() {
    let machine = Machine::new(Config::tiny());
    let analysis = machine.attach_analysis();
    let addr = machine.host_arena().alloc(8);
    let mut sim = machine.simulation();
    for core in 0..2usize {
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            for i in 0..4u64 {
                ctx.write_u64(addr, i);
            }
        });
    }
    sim.run();

    let report = analysis.report();
    assert!(report.races_total >= 1, "expected at least one race, got none");
    assert!(!report.is_clean());
    let r = &report.races[0];
    assert_eq!(r.addr & !3, addr & !3);
    assert_eq!(r.kind, RaceKind::WriteWrite);
    assert_ne!(r.first.thread, r.second.thread);
    // Both access sites must point into this file.
    assert!(r.first.file.ends_with("analysis_fixtures.rs"), "site file: {}", r.first.file);
    assert!(r.second.file.ends_with("analysis_fixtures.rs"));
}

/// Same program, but the shared word is only ever touched through CAS:
/// every access is a synchronization operation, so no races.
#[test]
fn cas_only_program_is_clean() {
    let machine = Machine::new(Config::tiny());
    let analysis = machine.attach_analysis();
    let addr = machine.host_arena().alloc(8);
    let mut sim = machine.simulation();
    for core in 0..2usize {
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            let mut bumps = 0;
            while bumps < 8 {
                let cur = ctx.read_u64(addr);
                if ctx.cas_u64(addr, cur, cur + 1).is_ok() {
                    bumps += 1;
                }
            }
        });
    }
    sim.run();
    analysis.report().assert_clean();
    assert_eq!(machine.ram().read_u64(addr), 16);
}

/// Message passing through an acquire/release flag: the data word is
/// written plain by the producer and read plain by the consumer, but the
/// release-store / acquire-load on the flag orders them.
#[test]
fn release_acquire_handoff_is_clean() {
    let machine = Machine::new(Config::tiny());
    let analysis = machine.attach_analysis();
    let data = machine.host_arena().alloc(8);
    let flag = machine.host_arena().alloc(8);
    let mut sim = machine.simulation();
    sim.spawn("producer", ThreadKind::Host { core: 0 }, move |ctx| {
        ctx.write_u64(data, 99);
        ctx.write_u64_release(flag, 1);
    });
    sim.spawn("consumer", ThreadKind::Host { core: 1 }, move |ctx| {
        while ctx.read_u64_acquire(flag) == 0 {
            ctx.idle(8);
        }
        assert_eq!(ctx.read_u64(data), 99);
    });
    sim.run();
    analysis.report().assert_clean();
}

/// The same handoff with a *plain* flag write is a race on the data word
/// (and the flag): the detector must not treat plain accesses as ordering.
#[test]
fn plain_flag_handoff_races() {
    let machine = Machine::new(Config::tiny());
    let analysis = machine.attach_analysis();
    let data = machine.host_arena().alloc(8);
    let flag = machine.host_arena().alloc(8);
    let mut sim = machine.simulation();
    sim.spawn("producer", ThreadKind::Host { core: 0 }, move |ctx| {
        ctx.write_u64(data, 99);
        ctx.write_u64(flag, 1); // plain: establishes no happens-before
    });
    sim.spawn("consumer", ThreadKind::Host { core: 1 }, move |ctx| {
        while ctx.read_u64(flag) == 0 {
            ctx.idle(8);
        }
        let _ = ctx.read_u64(data);
    });
    sim.run();
    assert!(analysis.race_count() >= 1);
}

/// Speculative reads never race: validated-later read patterns (seqlock
/// bodies, optimistic traversals) are exempt by construction.
#[test]
fn speculative_reads_do_not_race() {
    let machine = Machine::new(Config::tiny());
    let analysis = machine.attach_analysis();
    let addr = machine.host_arena().alloc(8);
    let mut sim = machine.simulation();
    sim.spawn("writer", ThreadKind::Host { core: 0 }, move |ctx| {
        for i in 0..4u64 {
            ctx.write_u64(addr, i);
        }
    });
    sim.spawn("reader", ThreadKind::Host { core: 1 }, move |ctx| {
        for _ in 0..4 {
            let _ = ctx.read_u64_speculative(addr);
        }
    });
    sim.run();
    analysis.report().assert_clean();
}

/// Freeing a block resets detector state: a new owner's unsynchronized
/// accesses must not be raced against the old owner's.
#[test]
fn arena_free_resets_race_state() {
    let machine = Machine::new(Config::tiny());
    let analysis = machine.attach_analysis();
    let addr = machine.host_arena().alloc(16);
    let mut sim = machine.simulation();
    sim.spawn("old-owner", ThreadKind::Host { core: 0 }, move |ctx| {
        ctx.write_u64(addr, 7);
    });
    sim.run();
    machine.host_arena().free(addr, 16, 8);
    let addr2 = machine.host_arena().alloc(16);
    assert_eq!(addr, addr2, "freelist should hand the block back");
    let mut sim = machine.simulation();
    sim.spawn("new-owner", ThreadKind::Host { core: 1 }, move |ctx| {
        ctx.write_u64(addr2, 8); // unordered wrt old owner — but block was freed
    });
    sim.run();
    analysis.report().assert_clean();
}

/// Sequential simulations over one machine are ordered by `on_sim_start`,
/// so cross-simulation accesses to the same word never race.
#[test]
fn sequential_simulations_do_not_race() {
    let machine = Machine::new(Config::tiny());
    let analysis = machine.attach_analysis();
    let addr = machine.host_arena().alloc(8);
    for round in 0..3u64 {
        let mut sim = machine.simulation();
        sim.spawn("t", ThreadKind::Host { core: (round % 2) as usize }, move |ctx| {
            let v = ctx.read_u64(addr);
            ctx.write_u64(addr, v + 1);
        });
        sim.run();
    }
    analysis.report().assert_clean();
}

/// Analysis counters surface through the memory-system stats snapshot.
#[test]
fn snapshot_counters_reflect_analysis() {
    let machine = Machine::new(Config::tiny());
    let _analysis = machine.attach_analysis();
    let addr = machine.host_arena().alloc(8);
    let mut sim = machine.simulation();
    for core in 0..2usize {
        sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
            ctx.write_u64(addr, core as u64);
        });
    }
    sim.run();
    assert!(machine.mem().snapshot().races_detected >= 1);
}

/// The panic messages of `access` run by one thread of `kind`: first on a
/// machine with an analysis attached, then on one without.
fn violation<T: 'static>(
    kind: ThreadKind,
    access: fn(&mut ThreadCtx, &MemMap) -> T,
) -> [String; 2] {
    [true, false].map(|attach| {
        let machine = Machine::new(Config::tiny());
        if attach {
            let _ = machine.attach_analysis();
        }
        let map = *machine.map();
        let mut sim = machine.simulation();
        sim.spawn("rogue", kind, move |ctx| drop(access(ctx, &map)));
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
            .expect_err("a region-policy violation must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    })
}

/// Both messages name `rule` and the access on line `line` of this file.
fn assert_violation(msgs: [String; 2], rule: PolicyRule, line: u32) {
    let site = format!("{}:{line}:", file!());
    for msg in msgs {
        assert!(msg.contains(&rule.to_string()), "rule `{rule}` not named: {msg}");
        assert!(msg.contains(&site), "call site {site} not named: {msg}");
    }
}

#[test]
fn host_touching_a_partition_panics() {
    let host = ThreadKind::Host { core: 0 };
    let line = line!() + 1;
    let msgs = violation(host, |ctx, m| ctx.write_u64(m.part_base(0), 1));
    assert_violation(msgs, PolicyRule::HostTouchedPartition, line);
}

#[test]
fn host_touching_a_scratchpad_without_mmio_panics() {
    let host = ThreadKind::Host { core: 0 };
    let line = line!() + 1;
    let msgs = violation(host, |ctx, m| ctx.read_u64(m.spad_base(0)));
    assert_violation(msgs, PolicyRule::HostDirectScratchpad, line);
}

#[test]
fn nmp_touching_a_foreign_partition_panics() {
    let nmp = ThreadKind::Nmp { part: 0 };
    let line = line!() + 1;
    let msgs = violation(nmp, |ctx, m| ctx.read_u64(m.part_base(1)));
    assert_violation(msgs, PolicyRule::NmpTouchedForeign, line);
}

#[test]
fn mmio_to_host_memory_panics() {
    let host = ThreadKind::Host { core: 0 };
    let line = line!() + 1;
    let msgs = violation(host, |ctx, m| ctx.mmio_read_u64(m.host_base));
    assert_violation(msgs, PolicyRule::MmioToNonScratchpad, line);
}

#[test]
fn nmp_using_mmio_panics() {
    let nmp = ThreadKind::Nmp { part: 0 };
    let line = line!() + 1;
    let msgs = violation(nmp, |ctx, m| ctx.mmio_write_u64(m.spad_base(0), 1));
    assert_violation(msgs, PolicyRule::NmpMmio, line);
}

/// Attach is idempotent and shared across handles.
#[test]
fn attach_is_idempotent() {
    let machine = Machine::new(Config::tiny());
    let a = machine.attach_analysis();
    let b = machine.attach_analysis();
    assert!(Arc::ptr_eq(&a, &b));
}

// ---------------------------------------------------------------------------
// Effect-spec fixtures: mis-declared plans are rejected by the static
// verifier with ZERO simulation cycles (note no `Machine` or `Simulation`
// is ever constructed below — `verify_spec` is pure plan inspection), and
// a mis-behaving executor is caught by conformance mode through the real
// engine.
// ---------------------------------------------------------------------------

mod spec_fixtures {
    use nmp_sim::analysis::{verify_spec, verify_specs, RegionClass};
    use nmp_sim::{AccessDecl, EffectSpec, OpSpec, SpecError, Topology};

    const TOPO: Topology = Topology { parts: 4, host_cores: 4 };

    fn errs(spec: EffectSpec) -> Vec<SpecError> {
        verify_spec(&spec, TOPO)
    }

    #[test]
    fn empty_spec_is_rejected() {
        assert_eq!(errs(EffectSpec::new("empty")), [SpecError::EmptySpec { structure: "empty" }]);
    }

    #[test]
    fn duplicate_op_code_is_rejected() {
        let spec = EffectSpec::new("dup")
            .op(OpSpec::new(0, "Read").nmp(AccessDecl::read(RegionClass::Part)))
            .op(OpSpec::new(0, "AlsoRead").nmp(AccessDecl::read(RegionClass::Part)));
        assert!(errs(spec).iter().any(|e| matches!(e, SpecError::DuplicateOp { code: 0, .. })));
    }

    #[test]
    fn host_declaring_partition_access_is_rejected() {
        let spec = EffectSpec::new("greedy-host")
            .op(OpSpec::new(0, "Read").host(AccessDecl::read(RegionClass::Part)));
        assert!(errs(spec).iter().any(|e| matches!(e, SpecError::HostPartAccess { .. })));
    }

    #[test]
    fn foreign_region_declaration_is_rejected() {
        let spec = EffectSpec::new("tourist")
            .op(OpSpec::new(0, "Read").nmp(AccessDecl::read(RegionClass::Host)));
        assert!(errs(spec).iter().any(|e| matches!(e, SpecError::ForeignAccess { .. })));
    }

    #[test]
    fn wrong_channel_is_rejected_both_ways() {
        // Host→scratchpad without MMIO…
        let spec = EffectSpec::new("no-mmio")
            .op(OpSpec::new(0, "Read").host(AccessDecl::read(RegionClass::Spad)));
        assert!(errs(spec).iter().any(|e| matches!(e, SpecError::ChannelMismatch { .. })));
        // …and MMIO into a partition from the NMP side.
        let spec = EffectSpec::new("mmio-part")
            .op(OpSpec::new(0, "Read").nmp(AccessDecl::read(RegionClass::Part).mmio()));
        assert!(errs(spec).iter().any(|e| matches!(e, SpecError::ChannelMismatch { .. })));
    }

    #[test]
    fn unpaired_release_and_acquire_are_rejected() {
        let spec = EffectSpec::new("shout") // release nobody acquires
            .op(OpSpec::new(0, "Update").host(AccessDecl::write(RegionClass::Host).release()));
        assert!(errs(spec).iter().any(|e| matches!(e, SpecError::UnpairedRelease { .. })));
        let spec = EffectSpec::new("listen") // acquire nobody releases
            .op(OpSpec::new(0, "Read").host(AccessDecl::read(RegionClass::Host).acquire()));
        assert!(errs(spec).iter().any(|e| matches!(e, SpecError::UnpairedAcquire { .. })));
    }

    #[test]
    fn partition_work_needs_partitions() {
        let spec = EffectSpec::new("nmp-only")
            .op(OpSpec::new(0, "Read").nmp(AccessDecl::read(RegionClass::Part)));
        let no_parts = Topology { parts: 0, host_cores: 4 };
        assert!(verify_spec(&spec, no_parts)
            .iter()
            .any(|e| matches!(e, SpecError::NoPartitions { .. })));
        // The same spec is fine on a machine that has partitions.
        assert!(verify_spec(&spec, TOPO).is_empty());
    }

    #[test]
    fn verify_specs_aggregates_across_structures() {
        let good = EffectSpec::new("good")
            .op(OpSpec::new(0, "Read").nmp(AccessDecl::read(RegionClass::Part)));
        let bad = EffectSpec::new("bad");
        let errs = verify_specs(&[&good, &bad], TOPO);
        assert_eq!(errs, [SpecError::EmptySpec { structure: "bad" }]);
    }
}

/// A mis-behaving executor — one that writes where its spec only declares
/// reads — is caught by conformance mode through the real engine, with the
/// op scope named in the blame report.
#[test]
fn conformance_catches_misbehaving_exec() {
    use nmp_sim::analysis::RegionClass;
    use nmp_sim::{AccessDecl, EffectSpec, OpSpec};

    let machine = Machine::new(Config::tiny());
    let analysis = machine.attach_analysis();
    analysis.install_spec(
        EffectSpec::new("read-only-fixture")
            .op(OpSpec::new(0, "Read").nmp(AccessDecl::read(RegionClass::Part))),
    );
    analysis.enable_conformance();

    let addr = machine.part_arena(0).alloc(8);
    let a = Arc::clone(&analysis);
    let mut sim = machine.simulation();
    sim.spawn("nmp-0", ThreadKind::Nmp { part: 0 }, move |ctx| {
        a.set_current_op(ctx.id(), Some(0));
        let _ = ctx.read_u64(addr); // declared: fine
        ctx.write_u64(addr, 1); // NOT declared: must be blamed
        a.set_current_op(ctx.id(), None);
    });
    sim.run();

    let report = analysis.report();
    assert_eq!(report.conformance_total, 1, "exactly the write should be blamed");
    let v = &report.conformance[0];
    assert_eq!(v.op, Some((0, "Read")));
    assert_eq!(v.consulted, ["read-only-fixture"]);
    assert!(v.observed.to_string().contains("write"), "observed: {}", v.observed);
    assert!(v.file.ends_with("analysis_fixtures.rs"));
    assert!(!report.is_clean());
}

/// The same program is NOT blamed while conformance mode stays disabled:
/// installed specs are inert until opted in.
#[test]
fn conformance_is_opt_in() {
    use nmp_sim::analysis::RegionClass;
    use nmp_sim::{AccessDecl, EffectSpec, OpSpec};

    let machine = Machine::new(Config::tiny());
    let analysis = machine.attach_analysis();
    analysis.install_spec(
        EffectSpec::new("read-only-fixture")
            .op(OpSpec::new(0, "Read").nmp(AccessDecl::read(RegionClass::Part))),
    );

    let addr = machine.part_arena(0).alloc(8);
    let a = Arc::clone(&analysis);
    let mut sim = machine.simulation();
    sim.spawn("nmp-0", ThreadKind::Nmp { part: 0 }, move |ctx| {
        a.set_current_op(ctx.id(), Some(0));
        ctx.write_u64(addr, 1);
        a.set_current_op(ctx.id(), None);
    });
    sim.run();
    assert_eq!(analysis.conformance_count(), 0);
    analysis.report().assert_clean();
}
