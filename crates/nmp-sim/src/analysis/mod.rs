//! Engine-integrated correctness checkers.
//!
//! The deterministic engine runs exactly one logical thread at a time and
//! every timed memory operation passes through a single serialization point
//! ([`crate::engine::ThreadCtx`]). This module instruments that point and
//! feeds three checkers:
//!
//! 1. **Race detector** ([`race`]): a vector-clock happens-before checker
//!    over simulated addresses. Synchronization operations — simulated CAS,
//!    acquire/release-annotated accesses, and the publication-slot handoff —
//!    establish happens-before edges; conflicting unordered plain accesses
//!    are reported with both access sites, thread kinds, and the address's
//!    [`Region`](crate::mem::Region).
//! 2. **Region-policy lint** ([`policy`]): flags host threads touching
//!    `Region::Part(p)` memory, NMP cores touching foreign partitions or
//!    scratchpads, and non-MMIO host scratchpad access. With an [`Analysis`]
//!    attached these are recorded (and the access charged a fallback
//!    latency) instead of panicking, so negative fixtures run to completion.
//! 3. **Linearizability checker** ([`history`]): records completed index
//!    operations and verifies the concurrent history against a sequential
//!    map oracle with a Wing & Gong search.
//! 4. **Spec-conformance mode** ([`conformance`]): checks every observed
//!    access against the running structures' declared memory-effect plans
//!    ([`effects::EffectSpec`]), producing declared-vs-observed blame
//!    reports. Opt-in via [`Analysis::enable_conformance`].
//!
//! The [`effects`] module itself — the declaration vocabulary and its
//! static verifier [`effects::verify_specs`] — needs no attached
//! [`Analysis`]: specs are validated at structure-registration time with
//! zero simulation cycles.
//!
//! Attach an [`Analysis`] with [`crate::Machine::attach_analysis`]; without
//! one the simulator behaves exactly as before (wild region accesses
//! panic, nothing is recorded). Results are surfaced through
//! [`Analysis::report`] and the `races_detected` / `policy_violations`
//! fields of [`crate::stats::StatsSnapshot`].

pub mod conformance;
pub mod effects;
pub mod history;
pub mod policy;
pub mod race;

use std::fmt;
use std::panic::Location;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::ThreadKind;
use crate::mem::{Addr, MemMap};

pub use conformance::ConformanceViolation;
pub use effects::{
    verify_spec, verify_specs, AccessDecl, Channel, Dir, EffectSpec, OpSpec, OrderClass,
    RegionClass, SpecError, ThreadClass, Topology,
};
pub use history::{HistEvent, HistOp, HistoryRecorder, LinearizabilityError};
pub use policy::{PolicyRule, PolicyViolation};
pub use race::{AccessSite, RaceKind, RaceReport};

/// How a timed memory operation participates in the happens-before model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Plain load: race-checked unless the cell is a sync cell (then it is
    /// treated as an atomic acquire load).
    Read,
    /// Plain store: race-checked unless the cell is a sync cell (then it is
    /// treated as an atomic release store).
    Write,
    /// Acquire load: marks the cell as a sync cell and joins its clock.
    ReadAcquire,
    /// Release store: marks the cell as a sync cell and publishes the
    /// thread's clock through it.
    WriteRelease,
    /// Compare-and-swap: always a sync operation — acquire, plus release on
    /// success.
    Cas {
        /// Whether the CAS succeeded (successful CAS also releases).
        success: bool,
    },
    /// Optimistic (seqlock-protected) load: never race-checked and
    /// establishes no ordering; validation happens through the seq word.
    ReadSpeculative,
}

/// Aggregated results of the engine-integrated checkers.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Deduplicated race reports (capped at [`race::MAX_STORED_REPORTS`]).
    pub races: Vec<RaceReport>,
    /// Total number of racy access pairs observed (uncapped).
    pub races_total: u64,
    /// Deduplicated region-policy violations (capped).
    pub policy_violations: Vec<PolicyViolation>,
    /// Total number of policy-violating accesses observed (uncapped).
    pub policy_total: u64,
    /// Deduplicated spec-conformance violations (capped); empty unless
    /// conformance mode is enabled ([`Analysis::enable_conformance`]).
    pub conformance: Vec<ConformanceViolation>,
    /// Total number of undeclared accesses observed (uncapped).
    pub conformance_total: u64,
}

impl Report {
    /// True when no races, policy violations, or conformance violations
    /// were observed.
    pub fn is_clean(&self) -> bool {
        self.races_total == 0 && self.policy_total == 0 && self.conformance_total == 0
    }

    /// Panic with a readable listing if the report is not clean.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "analysis report is not clean:\n{self}");
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} race(s), {} policy violation(s), {} conformance violation(s)",
            self.races_total, self.policy_total, self.conformance_total
        )?;
        for r in &self.races {
            writeln!(f, "  {r}")?;
        }
        for v in &self.policy_violations {
            writeln!(f, "  {v}")?;
        }
        for v in &self.conformance {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

struct Inner {
    race: race::RaceDetector,
    policy: policy::PolicyChecker,
    conf: conformance::ConformanceChecker,
}

/// The attached checker state of one simulated machine. One logical thread
/// executes at a time, so the mutex is uncontended; it exists because a
/// machine, and so its analysis, is shared between OS threads.
pub struct Analysis {
    map: MemMap,
    inner: Mutex<Inner>,
}

impl Analysis {
    /// Build an analysis over the given address map.
    pub fn new(map: MemMap) -> Arc<Self> {
        Arc::new(Analysis {
            map,
            inner: Mutex::new(Inner {
                race: race::RaceDetector::new(),
                policy: policy::PolicyChecker::new(),
                conf: conformance::ConformanceChecker::new(),
            }),
        })
    }

    /// Register the logical threads of a simulation about to run. Called by
    /// the engine; joins all prior clocks so that sequential simulations on
    /// one machine are ordered before the new threads.
    pub(crate) fn on_sim_start(&self, roster: &[(String, ThreadKind)]) {
        let mut g = self.inner.lock();
        g.race.on_sim_start(roster);
        g.conf.on_sim_start(roster.len());
    }

    /// Record one timed memory access (the engine's serialization point).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_access(
        &self,
        tid: usize,
        at: u64,
        addr: Addr,
        bytes: u32,
        op: MemOp,
        mmio: bool,
        site: &'static Location<'static>,
    ) {
        let mut g = self.inner.lock();
        g.race.on_access(&self.map, tid, at, addr, bytes, op, site);
        let kind = g.race.thread_kind(tid);
        let region = self.map.region_of(addr);
        let Inner { race, conf, .. } = &mut *g;
        conf.check(
            tid,
            || race.thread_name(tid),
            kind,
            addr,
            region,
            op,
            mmio,
            at,
            site.file(),
            site.line(),
            site.column(),
        );
    }

    /// Install a structure's declared [`EffectSpec`] for conformance
    /// checking. Re-installing a spec with the same structure name replaces
    /// the previous one. Inert until [`Analysis::enable_conformance`].
    pub fn install_spec(&self, spec: EffectSpec) {
        self.inner.lock().conf.install(spec);
    }

    /// Turn on spec-conformance mode: every subsequent observed access is
    /// checked against the installed specs.
    pub fn enable_conformance(&self) {
        self.inner.lock().conf.enable();
    }

    /// Scope thread `tid`'s subsequent accesses to declared operation `op`
    /// (`None` clears the scope). NMP combiners call this around request
    /// execution so blame reports name the op being served.
    pub fn set_current_op(&self, tid: usize, op: Option<u8>) {
        self.inner.lock().conf.set_current_op(tid, op);
    }

    /// Check the region policy for an access about to be routed. Returns
    /// `true` (and records a violation) when the access breaks the policy;
    /// the engine then charges a fallback latency instead of panicking.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_policy(
        &self,
        tid: usize,
        kind: ThreadKind,
        addr: Addr,
        is_write: bool,
        mmio: bool,
        at: u64,
        site: &'static Location<'static>,
    ) -> bool {
        let region = self.map.region_of(addr);
        let Some(rule) = policy::classify(kind, region, mmio) else {
            return false;
        };
        let mut g = self.inner.lock();
        let thread = g.race.thread_name(tid);
        g.policy.record(PolicyViolation {
            thread,
            thread_kind: kind,
            addr,
            region,
            is_write,
            mmio,
            rule,
            file: site.file(),
            line: site.line(),
            column: site.column(),
            at,
        });
        true
    }

    /// Forget all per-cell race state in `[addr, addr + bytes)`. Called by
    /// the arenas on `free` so that block reuse does not manufacture false
    /// races between the old and new owner of the memory.
    pub fn reset_range(&self, addr: Addr, bytes: u32) {
        self.inner.lock().race.reset_range(addr, bytes);
    }

    /// Total racy access pairs observed so far.
    pub fn race_count(&self) -> u64 {
        self.inner.lock().race.total()
    }

    /// Total policy-violating accesses observed so far.
    pub fn policy_count(&self) -> u64 {
        self.inner.lock().policy.total()
    }

    /// Total undeclared (spec-nonconforming) accesses observed so far.
    pub fn conformance_count(&self) -> u64 {
        self.inner.lock().conf.total()
    }

    /// Snapshot the current findings.
    pub fn report(&self) -> Report {
        let g = self.inner.lock();
        Report {
            races: g.race.reports().to_vec(),
            races_total: g.race.total(),
            policy_violations: g.policy.violations().to_vec(),
            policy_total: g.policy.total(),
            conformance: g.conf.violations().to_vec(),
            conformance_total: g.conf.total(),
        }
    }
}
