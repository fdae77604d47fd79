//! Spec-conformance mode: every observed timed access is checked against
//! the running structures' declared [`EffectSpec`]s.
//!
//! Where the race detector reports "two clocks conflicted", conformance
//! mode reports *declared-vs-observed* blame: the access is rendered in the
//! spec vocabulary ([`AccessDecl`]) and compared against the plans
//! installed via [`super::Analysis::install_spec`]. NMP combiners scope
//! their execution to the operation code being served
//! ([`super::Analysis::set_current_op`]), so an executor that strays
//! outside its declared plan is blamed with the exact op, site, and the
//! observed access shape.
//!
//! The mode is opt-in ([`super::Analysis::enable_conformance`]): installed
//! specs are inert until enabled, so machines that intermix spec'd
//! structures with bare harness code (cross-structure tests) keep their
//! existing behavior.

use std::fmt;

use crate::analysis::effects::{
    AccessDecl, Channel, Dir, EffectSpec, OrderClass, RegionClass, ThreadClass,
};
use crate::analysis::MemOp;
use crate::engine::ThreadKind;
use crate::mem::{Addr, Region};

/// At most this many distinct violations are stored (the total count keeps
/// counting past the cap).
pub const MAX_STORED_VIOLATIONS: usize = 64;

/// One observed access that no installed spec declares.
#[derive(Debug, Clone)]
pub struct ConformanceViolation {
    /// Logical thread name.
    pub thread: String,
    /// Host core or NMP core identity of the thread.
    pub thread_kind: ThreadKind,
    /// Operation scope at the time of the access: `(code, name)` when an
    /// NMP combiner had scoped itself to a published request.
    pub op: Option<(u8, &'static str)>,
    /// The offending simulated address.
    pub addr: Addr,
    /// The region that address falls in.
    pub region: Region,
    /// The observed access, rendered in the spec vocabulary.
    pub observed: AccessDecl,
    /// Structures whose specs were consulted.
    pub consulted: Vec<&'static str>,
    /// Source file of the access.
    pub file: &'static str,
    /// Source line of the access.
    pub line: u32,
    /// Source column of the access.
    pub column: u32,
    /// Simulated completion time of the access, in cycles.
    pub at: u64,
}

impl fmt::Display for ConformanceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "undeclared access: {} of {:#x} ({:?}) by '{}' ({:?})",
            self.observed, self.addr, self.region, self.thread, self.thread_kind,
        )?;
        match self.op {
            Some((code, name)) => write!(f, " while serving op {name} ({code})")?,
            None => write!(f, " outside any op scope")?,
        }
        write!(
            f,
            " at {}:{}:{} (cycle {}); specs consulted: {}",
            self.file,
            self.line,
            self.column,
            self.at,
            if self.consulted.is_empty() {
                "<none>".to_string()
            } else {
                self.consulted.join(", ")
            },
        )
    }
}

/// Express one observed access in the declaration vocabulary. The engine
/// lets through only accesses the region policy allows (see
/// [`super::policy`]), so the region is the accessing thread's own: host
/// memory for a host, its partition or scratchpad for an NMP core, a
/// scratchpad by MMIO for a host.
pub fn observed_decl(region: Region, op: MemOp, mmio: bool) -> AccessDecl {
    let region = match region {
        Region::Host => RegionClass::Host,
        Region::Part(_) => RegionClass::Part,
        Region::Spad(_) => RegionClass::Spad,
    };
    let (dir, order) = match op {
        MemOp::Read => (Dir::Read, OrderClass::Plain),
        MemOp::Write => (Dir::Write, OrderClass::Plain),
        MemOp::ReadAcquire => (Dir::Read, OrderClass::Acquire),
        MemOp::WriteRelease => (Dir::Write, OrderClass::Release),
        MemOp::Cas { .. } => (Dir::Write, OrderClass::Cas),
        MemOp::ReadSpeculative => (Dir::Read, OrderClass::Speculative),
    };
    AccessDecl {
        region,
        dir,
        order,
        channel: if mmio { Channel::Mmio } else { Channel::Timed },
        sync: "",
    }
}

fn decl_matches(decl: &AccessDecl, obs: &AccessDecl) -> bool {
    decl.region == obs.region
        && decl.channel == obs.channel
        && decl.dir == obs.dir
        && decl.order == obs.order
}

pub(crate) struct ConformanceChecker {
    enabled: bool,
    specs: Vec<EffectSpec>,
    /// Per-tid operation scope (spawn order, reset each simulation).
    current_op: Vec<Option<u8>>,
    violations: Vec<ConformanceViolation>,
    seen: Vec<(&'static str, u32, u32)>,
    total: u64,
}

impl ConformanceChecker {
    pub(crate) fn new() -> Self {
        ConformanceChecker {
            enabled: false,
            specs: Vec::new(),
            current_op: Vec::new(),
            violations: Vec::new(),
            seen: Vec::new(),
            total: 0,
        }
    }

    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    pub(crate) fn install(&mut self, spec: EffectSpec) {
        // Re-registering one structure (fresh simulation on the same
        // machine) replaces its previous spec.
        self.specs.retain(|s| s.structure != spec.structure);
        self.specs.push(spec);
    }

    pub(crate) fn on_sim_start(&mut self, threads: usize) {
        self.current_op.clear();
        self.current_op.resize(threads, None);
    }

    pub(crate) fn set_current_op(&mut self, tid: usize, op: Option<u8>) {
        if tid >= self.current_op.len() {
            self.current_op.resize(tid + 1, None);
        }
        self.current_op[tid] = op;
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    pub(crate) fn violations(&self) -> &[ConformanceViolation] {
        &self.violations
    }

    /// Check one observed access; records (and returns) a violation when no
    /// installed declaration covers it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check(
        &mut self,
        tid: usize,
        thread: impl FnOnce() -> String,
        kind: ThreadKind,
        addr: Addr,
        region: Region,
        op: MemOp,
        mmio: bool,
        at: u64,
        file: &'static str,
        line: u32,
        column: u32,
    ) {
        if !self.enabled || self.specs.is_empty() {
            return;
        }
        let obs = observed_decl(region, op, mmio);
        let class = match kind {
            ThreadKind::Host { .. } => ThreadClass::Host,
            ThreadKind::Nmp { .. } => ThreadClass::Nmp,
        };
        let scoped = self.current_op.get(tid).copied().flatten();
        let mut op_name: Option<(u8, &'static str)> = None;
        let mut matched = false;
        if let Some(code) = scoped {
            // Check against every installed plan for this op code; fall
            // back to the full union only if no spec declares the code.
            let mut any_plan = false;
            for spec in &self.specs {
                if let Some(plan) = spec.op_spec(code) {
                    any_plan = true;
                    op_name = Some((code, plan.name));
                    let decls = match class {
                        ThreadClass::Host => &plan.host,
                        ThreadClass::Nmp => &plan.nmp,
                    };
                    if decls.iter().any(|d| decl_matches(d, &obs)) {
                        matched = true;
                        break;
                    }
                }
            }
            if !any_plan {
                matched =
                    self.specs.iter().any(|s| s.all_decls(class).any(|d| decl_matches(d, &obs)));
            }
        } else {
            matched = self.specs.iter().any(|s| s.all_decls(class).any(|d| decl_matches(d, &obs)));
        }
        if matched {
            return;
        }
        self.total += 1;
        let key = (file, line, column);
        if self.seen.contains(&key) || self.violations.len() >= MAX_STORED_VIOLATIONS {
            return;
        }
        self.seen.push(key);
        self.violations.push(ConformanceViolation {
            thread: thread(),
            thread_kind: kind,
            op: op_name,
            addr,
            region,
            observed: obs,
            consulted: self.specs.iter().map(|s| s.structure).collect(),
            file,
            line,
            column,
            at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::effects::OpSpec;

    fn spec() -> EffectSpec {
        EffectSpec::new("s").op(OpSpec::new(2, "Insert")
            .host(AccessDecl::read(RegionClass::Host))
            .nmp(AccessDecl::read(RegionClass::Part))
            .nmp(AccessDecl::write(RegionClass::Part)))
    }

    fn check(
        c: &mut ConformanceChecker,
        tid: usize,
        kind: ThreadKind,
        region: Region,
        op: MemOp,
        mmio: bool,
    ) {
        c.check(tid, || "t".into(), kind, 0x100, region, op, mmio, 0, "f.rs", 1, 1);
    }

    #[test]
    fn disabled_checker_is_silent() {
        let mut c = ConformanceChecker::new();
        c.install(spec());
        check(&mut c, 0, ThreadKind::Host { core: 0 }, Region::Part(0), MemOp::Write, false);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn declared_access_passes_and_undeclared_is_blamed() {
        let mut c = ConformanceChecker::new();
        c.install(spec());
        c.enable();
        c.on_sim_start(2);
        let host = ThreadKind::Host { core: 0 };
        check(&mut c, 0, host, Region::Host, MemOp::Read, false);
        assert_eq!(c.total(), 0, "{:?}", c.violations());
        // Host write is not declared (only reads are).
        check(&mut c, 0, host, Region::Host, MemOp::Write, false);
        assert_eq!(c.total(), 1);
        assert_eq!(c.violations()[0].observed.dir, Dir::Write);
    }

    #[test]
    fn op_scope_narrows_the_plan() {
        let wide = EffectSpec::new("s")
            .op(OpSpec::new(0, "Read").nmp(AccessDecl::read(RegionClass::Part)))
            .op(OpSpec::new(2, "Insert").nmp(AccessDecl::write(RegionClass::Part)));
        let mut c = ConformanceChecker::new();
        c.install(wide);
        c.enable();
        c.on_sim_start(1);
        let nmp = ThreadKind::Nmp { part: 0 };
        // Unscoped: the union allows both reads and writes.
        check(&mut c, 0, nmp, Region::Part(0), MemOp::Write, false);
        assert_eq!(c.total(), 0);
        // Scoped to Read: a partition write is outside the plan.
        c.set_current_op(0, Some(0));
        check(&mut c, 0, nmp, Region::Part(0), MemOp::Write, false);
        assert_eq!(c.total(), 1);
        let v = &c.violations()[0];
        assert_eq!(v.op, Some((0, "Read")));
    }

    #[test]
    fn reinstall_replaces_previous_spec() {
        let mut c = ConformanceChecker::new();
        c.install(spec());
        c.install(spec());
        assert_eq!(c.specs.len(), 1);
    }
}
