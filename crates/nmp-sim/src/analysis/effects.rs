//! Declared memory-effect specifications ([`EffectSpec`]) and their static
//! verifier ([`verify_specs`]).
//!
//! HybriDS' correctness rests on a strict ownership discipline: host threads
//! touch only host main memory plus scratchpads via MMIO; NMP core `p`
//! touches only partition `p` and scratchpad `p`. This module makes that
//! discipline *declarative*: every structure exports, per operation code, a
//! plan of the regions it may read and write, with what ordering and via
//! which channel. The plans are validated **before any simulation cycle
//! executes** — at structure-registration time — against the machine
//! topology and the publication-list protocol:
//!
//! * a host-side declaration naming a partition data region is rejected
//!   ([`SpecError::HostPartAccess`]);
//! * an NMP-side declaration naming host main memory is rejected
//!   ([`SpecError::ForeignAccess`]): an NMP core reaches only its own
//!   partition and scratchpad, which is all the vocabulary can name;
//! * channel discipline: host↔scratchpad must be MMIO, nothing else may be
//!   ([`SpecError::ChannelMismatch`]);
//! * a release-store on a synchronized cell must be paired with an
//!   acquire-load on the reader's side of that cell
//!   ([`SpecError::UnpairedRelease`] / [`SpecError::UnpairedAcquire`]), so
//!   torn publication protocols are caught without running anything.
//!
//! With an [`Analysis`](super::Analysis) attached, the same declarations
//! additionally feed a **conformance mode** of the dynamic checkers: every
//! observed timed access is checked against the running structure's plan,
//! turning a violation into a precise declared-vs-observed blame report
//! (see [`ConformanceViolation`](super::ConformanceViolation)).
//!
//! Declarations are region-granular, not cell-granular. Where one region
//! holds several independently-synchronized protocol words (the
//! publication slot's control word, the pqueue's minima cells), a *sync
//! tag* ([`AccessDecl::sync`]) names the cell so release/acquire pairing is
//! checked per protocol word rather than per region.

use std::fmt;

/// Which processor class an access declaration applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadClass {
    /// A host core (cache hierarchy, MMIO window onto scratchpads).
    Host,
    /// An NMP core (cache-less, bound to one partition).
    Nmp,
}

impl fmt::Display for ThreadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ThreadClass::Host => "host",
            ThreadClass::Nmp => "nmp",
        })
    }
}

/// Region vocabulary of a declaration, relative to the accessing thread.
///
/// Concrete partition indices never appear in a spec: an NMP core's own
/// partition is [`RegionClass::Part`]. A foreign partition or scratchpad
/// has no name, because the engine panics on any access to one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionClass {
    /// Host main memory (LLC-resident upper layers, sync cells).
    Host,
    /// The partition the operation targets / the NMP core owns.
    Part,
    /// A scratchpad: the host reaches the target partition's scratchpad via
    /// MMIO; an NMP core reaches its own directly.
    Spad,
}

impl fmt::Display for RegionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RegionClass::Host => "host-mem",
            RegionClass::Part => "partition",
            RegionClass::Spad => "scratchpad",
        })
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Ordering class of a declared access, mirroring
/// [`MemOp`](super::MemOp)'s vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderClass {
    /// Plain access, race-checked.
    Plain,
    /// Acquire load.
    Acquire,
    /// Release store.
    Release,
    /// Compare-and-swap (acquire + release on success).
    Cas,
    /// Optimistic seqlock-protected load.
    Speculative,
}

impl fmt::Display for OrderClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OrderClass::Plain => "plain",
            OrderClass::Acquire => "acquire",
            OrderClass::Release => "release",
            OrderClass::Cas => "cas",
            OrderClass::Speculative => "speculative",
        })
    }
}

/// Access channel of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// A timed access through the cache/DRAM model.
    Timed,
    /// A timed host MMIO access to a scratchpad.
    Mmio,
    /// An untimed data-plane access (population, invariant checks, stats).
    /// Never observed by the dynamic checkers; the `xtask` source lint
    /// confines these to annotated layout modules.
    Untimed,
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Channel::Timed => "timed",
            Channel::Mmio => "mmio",
            Channel::Untimed => "untimed",
        })
    }
}

/// One declared access: region × direction × ordering × channel, plus an
/// optional sync tag naming the protocol word for release/acquire pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessDecl {
    /// Region the access may target.
    pub region: RegionClass,
    /// Load or store.
    pub dir: Dir,
    /// Ordering annotation.
    pub order: OrderClass,
    /// Channel the access travels on.
    pub channel: Channel,
    /// Sync-cell tag (`""` = untagged). Tagged release/acquire declarations
    /// pair per tag; see [`verify_spec`].
    pub sync: &'static str,
}

impl AccessDecl {
    /// A plain timed load from `region`.
    pub const fn read(region: RegionClass) -> Self {
        AccessDecl {
            region,
            dir: Dir::Read,
            order: OrderClass::Plain,
            channel: Channel::Timed,
            sync: "",
        }
    }

    /// A plain timed store to `region`.
    pub const fn write(region: RegionClass) -> Self {
        AccessDecl {
            region,
            dir: Dir::Write,
            order: OrderClass::Plain,
            channel: Channel::Timed,
            sync: "",
        }
    }

    /// Annotate as an acquire load.
    pub const fn acquire(mut self) -> Self {
        self.order = OrderClass::Acquire;
        self
    }

    /// Annotate as a release store.
    pub const fn release(mut self) -> Self {
        self.order = OrderClass::Release;
        self
    }

    /// Annotate as a compare-and-swap.
    pub const fn cas(mut self) -> Self {
        self.order = OrderClass::Cas;
        self
    }

    /// Annotate as a speculative (seqlock-protected) load.
    pub const fn speculative(mut self) -> Self {
        self.order = OrderClass::Speculative;
        self
    }

    /// Route over the host MMIO channel.
    pub const fn mmio(mut self) -> Self {
        self.channel = Channel::Mmio;
        self
    }

    /// Mark as an untimed data-plane access.
    pub const fn untimed(mut self) -> Self {
        self.channel = Channel::Untimed;
        self
    }

    /// Name the synchronized protocol word this declaration touches.
    pub const fn sync(mut self, tag: &'static str) -> Self {
        self.sync = tag;
        self
    }
}

impl fmt::Display for AccessDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} of {} ({})",
            self.order,
            match self.dir {
                Dir::Read => "read",
                Dir::Write => "write",
            },
            self.region,
            self.channel,
        )?;
        if !self.sync.is_empty() {
            write!(f, " [sync:{}]", self.sync)?;
        }
        Ok(())
    }
}

/// The declared access plan of one operation code: what the host-side phase
/// may touch and what the NMP-side executor may touch.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// Operation code (the publication-list `OpCode` byte).
    pub code: u8,
    /// Human-readable operation name for reports.
    pub name: &'static str,
    /// Declarations for host threads running this operation.
    pub host: Vec<AccessDecl>,
    /// Declarations for the NMP core executing this operation.
    pub nmp: Vec<AccessDecl>,
}

impl OpSpec {
    /// Start an empty plan for operation `code` named `name`.
    pub fn new(code: u8, name: &'static str) -> Self {
        OpSpec { code, name, host: Vec::new(), nmp: Vec::new() }
    }

    /// Add a host-side declaration.
    pub fn host(mut self, d: AccessDecl) -> Self {
        self.host.push(d);
        self
    }

    /// Add several host-side declarations.
    pub fn host_all(mut self, ds: &[AccessDecl]) -> Self {
        self.host.extend_from_slice(ds);
        self
    }

    /// Add an NMP-side declaration.
    pub fn nmp(mut self, d: AccessDecl) -> Self {
        self.nmp.push(d);
        self
    }

    /// Add several NMP-side declarations.
    pub fn nmp_all(mut self, ds: &[AccessDecl]) -> Self {
        self.nmp.extend_from_slice(ds);
        self
    }

    fn decls(&self, class: ThreadClass) -> &[AccessDecl] {
        match class {
            ThreadClass::Host => &self.host,
            ThreadClass::Nmp => &self.nmp,
        }
    }
}

/// The complete declared memory-effect specification of one structure.
#[derive(Debug, Clone, Default)]
pub struct EffectSpec {
    /// Structure name for reports ("hybrid-btree", ...).
    pub structure: &'static str,
    /// Per-operation plans, keyed by `OpSpec::code`.
    pub ops: Vec<OpSpec>,
}

impl EffectSpec {
    /// Start an empty spec for `structure`.
    pub fn new(structure: &'static str) -> Self {
        EffectSpec { structure, ops: Vec::new() }
    }

    /// Add one operation's plan.
    pub fn op(mut self, op: OpSpec) -> Self {
        self.ops.push(op);
        self
    }

    /// The plan for operation `code`, if declared.
    pub fn op_spec(&self, code: u8) -> Option<&OpSpec> {
        self.ops.iter().find(|o| o.code == code)
    }

    /// Merge `other` into `self` (host/NMP halves of one structure declared
    /// separately): plans for the same code are unioned.
    pub fn merged(mut self, other: EffectSpec) -> Self {
        if self.structure.is_empty() {
            self.structure = other.structure;
        }
        for op in other.ops {
            if let Some(mine) = self.ops.iter_mut().find(|o| o.code == op.code) {
                for d in op.host {
                    if !mine.host.contains(&d) {
                        mine.host.push(d);
                    }
                }
                for d in op.nmp {
                    if !mine.nmp.contains(&d) {
                        mine.nmp.push(d);
                    }
                }
            } else {
                self.ops.push(op);
            }
        }
        self
    }

    /// Iterate every declaration of `class` across all operations.
    pub fn all_decls(&self, class: ThreadClass) -> impl Iterator<Item = &AccessDecl> {
        self.ops.iter().flat_map(move |o| o.decls(class).iter())
    }
}

/// Machine shape a spec is verified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of NMP partitions (and NMP cores).
    pub parts: usize,
    /// Number of host cores.
    pub host_cores: usize,
}

/// One static spec-verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec declares no operations at all.
    EmptySpec {
        /// Offending structure.
        structure: &'static str,
    },
    /// Two `OpSpec`s carry the same operation code.
    DuplicateOp {
        /// Offending structure.
        structure: &'static str,
        /// The duplicated code.
        code: u8,
    },
    /// A host-side declaration names a partition data region: the host may
    /// never touch NMP-owned memory, not even by declaration.
    HostPartAccess {
        /// Offending structure.
        structure: &'static str,
        /// Operation whose plan is invalid.
        op: &'static str,
        /// The offending declaration.
        decl: AccessDecl,
    },
    /// An NMP-side declaration names host main memory, which no NMP core
    /// can reach.
    ForeignAccess {
        /// Offending structure.
        structure: &'static str,
        /// Operation whose plan is invalid.
        op: &'static str,
        /// The offending declaration.
        decl: AccessDecl,
    },
    /// The declaration's channel is impossible for its (thread, region)
    /// pair: host↔scratchpad must be MMIO; host↔host-mem and everything
    /// NMP-side must not be.
    ChannelMismatch {
        /// Offending structure.
        structure: &'static str,
        /// Operation whose plan is invalid.
        op: &'static str,
        /// Which side declared it.
        class: ThreadClass,
        /// The offending declaration.
        decl: AccessDecl,
    },
    /// A release-store declaration has no matching acquire-load (or CAS) on
    /// the reader's side of its cell — the publication would never be
    /// safely observed.
    UnpairedRelease {
        /// Offending structure.
        structure: &'static str,
        /// Operation whose plan is invalid.
        op: &'static str,
        /// Which side declared the release.
        class: ThreadClass,
        /// The offending declaration.
        decl: AccessDecl,
    },
    /// An acquire-load declaration has no matching release-store (or CAS)
    /// on the writer's side of its cell — it would never observe a
    /// publication.
    UnpairedAcquire {
        /// Offending structure.
        structure: &'static str,
        /// Operation whose plan is invalid.
        op: &'static str,
        /// Which side declared the acquire.
        class: ThreadClass,
        /// The offending declaration.
        decl: AccessDecl,
    },
    /// The topology cannot host the structure (no partitions for a spec
    /// that declares partition or scratchpad work).
    NoPartitions {
        /// Offending structure.
        structure: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptySpec { structure } => {
                write!(f, "{structure}: spec declares no operations")
            }
            SpecError::DuplicateOp { structure, code } => {
                write!(f, "{structure}: duplicate op code {code}")
            }
            SpecError::HostPartAccess { structure, op, decl } => {
                write!(
                    f,
                    "{structure}/{op}: host-side declaration touches an NMP partition: {decl}"
                )
            }
            SpecError::ForeignAccess { structure, op, decl } => {
                write!(f, "{structure}/{op}: NMP-side declaration touches host memory: {decl}")
            }
            SpecError::ChannelMismatch { structure, op, class, decl } => {
                write!(
                    f,
                    "{structure}/{op}: {class}-side declaration uses the wrong channel: {decl}"
                )
            }
            SpecError::UnpairedRelease { structure, op, class, decl } => {
                write!(
                    f,
                    "{structure}/{op}: {class}-side release has no matching acquire on the reader side: {decl}"
                )
            }
            SpecError::UnpairedAcquire { structure, op, class, decl } => {
                write!(
                    f,
                    "{structure}/{op}: {class}-side acquire has no matching release on the writer side: {decl}"
                )
            }
            SpecError::NoPartitions { structure } => {
                write!(f, "{structure}: spec declares partition/scratchpad work but topology has no partitions")
            }
        }
    }
}

/// Which thread classes can legally read (or write) region `r`, given the
/// declarer's class. For scratchpads the interesting counterpart is the
/// *opposite* side of the MMIO channel; host memory and partitions are
/// single-class regions.
fn counterpart_classes(class: ThreadClass, region: RegionClass) -> &'static [ThreadClass] {
    match region {
        RegionClass::Host => &[ThreadClass::Host],
        RegionClass::Part => &[ThreadClass::Nmp],
        RegionClass::Spad => match class {
            ThreadClass::Host => &[ThreadClass::Nmp],
            ThreadClass::Nmp => &[ThreadClass::Host],
        },
    }
}

fn pairing_exists(
    spec: &EffectSpec,
    classes: &[ThreadClass],
    region: RegionClass,
    tag: &str,
    want: OrderClass,
) -> bool {
    classes.iter().any(|&c| {
        spec.all_decls(c).any(|d| {
            d.region == region && d.sync == tag && (d.order == want || d.order == OrderClass::Cas)
        })
    })
}

/// Statically verify one spec against `topo`. Returns every failure, not
/// just the first. Runs zero simulation cycles — this is pure plan
/// inspection, usable before a machine even exists.
pub fn verify_spec(spec: &EffectSpec, topo: Topology) -> Vec<SpecError> {
    let mut errs = Vec::new();
    let s = spec.structure;
    if spec.ops.is_empty() {
        errs.push(SpecError::EmptySpec { structure: s });
        return errs;
    }
    for (i, op) in spec.ops.iter().enumerate() {
        if spec.ops[..i].iter().any(|o| o.code == op.code) {
            errs.push(SpecError::DuplicateOp { structure: s, code: op.code });
        }
    }
    let mut needs_parts = false;
    for op in &spec.ops {
        for class in [ThreadClass::Host, ThreadClass::Nmp] {
            for d in op.decls(class) {
                match (class, d.region) {
                    (ThreadClass::Host, RegionClass::Part) => {
                        errs.push(SpecError::HostPartAccess {
                            structure: s,
                            op: op.name,
                            decl: *d,
                        });
                        continue;
                    }
                    (ThreadClass::Nmp, RegionClass::Host) => {
                        // NMP cores cannot reach host main memory at all.
                        errs.push(SpecError::ForeignAccess { structure: s, op: op.name, decl: *d });
                        continue;
                    }
                    _ => {}
                }
                if matches!(d.region, RegionClass::Part | RegionClass::Spad) {
                    needs_parts = true;
                }
                // Channel discipline (untimed accesses travel no channel).
                if d.channel != Channel::Untimed {
                    let want_mmio = class == ThreadClass::Host && d.region == RegionClass::Spad;
                    if want_mmio != (d.channel == Channel::Mmio) {
                        errs.push(SpecError::ChannelMismatch {
                            structure: s,
                            op: op.name,
                            class,
                            decl: *d,
                        });
                    }
                }
            }
        }
    }
    // Release/acquire pairing across the whole spec. Partition regions are
    // single-core (one NMP core per partition): ordering annotations there
    // are same-thread no-ops, so pairing is not demanded.
    for op in &spec.ops {
        for class in [ThreadClass::Host, ThreadClass::Nmp] {
            for d in op.decls(class) {
                if d.region != RegionClass::Host && d.region != RegionClass::Spad {
                    continue;
                }
                let readers = counterpart_classes(class, d.region);
                match d.order {
                    OrderClass::Release
                        if !pairing_exists(
                            spec,
                            readers,
                            d.region,
                            d.sync,
                            OrderClass::Acquire,
                        ) =>
                    {
                        errs.push(SpecError::UnpairedRelease {
                            structure: s,
                            op: op.name,
                            class,
                            decl: *d,
                        });
                    }
                    OrderClass::Acquire
                        if !pairing_exists(
                            spec,
                            readers,
                            d.region,
                            d.sync,
                            OrderClass::Release,
                        ) =>
                    {
                        errs.push(SpecError::UnpairedAcquire {
                            structure: s,
                            op: op.name,
                            class,
                            decl: *d,
                        });
                    }
                    _ => {}
                }
            }
        }
    }
    if needs_parts && topo.parts == 0 {
        errs.push(SpecError::NoPartitions { structure: s });
    }
    errs.dedup();
    errs
}

/// Verify several specs; returns all failures across all of them.
pub fn verify_specs(specs: &[&EffectSpec], topo: Topology) -> Vec<SpecError> {
    specs.iter().flat_map(|s| verify_spec(s, topo)).collect()
}

/// Verify `spec` against `topo` and panic with a full listing on failure.
/// The panic happens at registration time — before any simulation runs.
pub fn assert_verified(spec: &EffectSpec, topo: Topology) {
    let errs = verify_spec(spec, topo);
    if !errs.is_empty() {
        let mut msg = format!("effect spec for '{}' failed static verification:\n", spec.structure);
        for e in &errs {
            msg.push_str(&format!("  {e}\n"));
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use RegionClass as R;

    const TOPO: Topology = Topology { parts: 4, host_cores: 4 };

    fn publist_like() -> EffectSpec {
        EffectSpec::new("fixture").op(OpSpec::new(0, "Read")
            .host(AccessDecl::write(R::Spad).mmio())
            .host(AccessDecl::write(R::Spad).mmio().release().sync("ctrl"))
            .host(AccessDecl::read(R::Spad).mmio().acquire().sync("ctrl"))
            .host(AccessDecl::read(R::Spad).mmio())
            .nmp(AccessDecl::read(R::Spad).acquire().sync("ctrl"))
            .nmp(AccessDecl::read(R::Spad))
            .nmp(AccessDecl::write(R::Spad))
            .nmp(AccessDecl::write(R::Spad).release().sync("ctrl"))
            .nmp(AccessDecl::read(R::Part)))
    }

    #[test]
    fn valid_protocol_spec_passes() {
        assert_eq!(verify_spec(&publist_like(), TOPO), vec![]);
    }

    #[test]
    fn host_part_access_rejected() {
        let spec =
            EffectSpec::new("bad").op(OpSpec::new(0, "Read").host(AccessDecl::write(R::Part)));
        let errs = verify_spec(&spec, TOPO);
        assert!(errs.iter().any(|e| matches!(e, SpecError::HostPartAccess { .. })), "{errs:?}");
    }

    #[test]
    fn foreign_access_rejected() {
        let spec = EffectSpec::new("bad").op(OpSpec::new(0, "Read").nmp(AccessDecl::read(R::Host)));
        let errs = verify_spec(&spec, TOPO);
        assert!(errs.iter().any(|e| matches!(e, SpecError::ForeignAccess { .. })), "{errs:?}");
    }

    #[test]
    fn unpaired_release_rejected() {
        let mut spec = publist_like();
        // Drop the NMP acquire of the ctrl word: the host release is torn.
        spec.ops[0].nmp.retain(|d| !(d.order == OrderClass::Acquire && d.sync == "ctrl"));
        let errs = verify_spec(&spec, TOPO);
        assert!(errs.iter().any(|e| matches!(e, SpecError::UnpairedRelease { .. })), "{errs:?}");
    }

    #[test]
    fn unpaired_acquire_rejected() {
        let mut spec = publist_like();
        // Drop the NMP release of the ctrl word: the host poll never fires.
        spec.ops[0].nmp.retain(|d| !(d.order == OrderClass::Release && d.sync == "ctrl"));
        let errs = verify_spec(&spec, TOPO);
        assert!(errs.iter().any(|e| matches!(e, SpecError::UnpairedAcquire { .. })), "{errs:?}");
    }

    #[test]
    fn channel_mismatch_rejected() {
        // Host touching a scratchpad without MMIO, and MMIO to host memory.
        let spec = EffectSpec::new("bad").op(OpSpec::new(0, "Read")
            .host(AccessDecl::read(R::Spad))
            .host(AccessDecl::read(R::Host).mmio()));
        let errs = verify_spec(&spec, TOPO);
        assert_eq!(
            errs.iter().filter(|e| matches!(e, SpecError::ChannelMismatch { .. })).count(),
            2,
            "{errs:?}"
        );
    }

    #[test]
    fn cas_satisfies_both_pairings() {
        // Host-memory cell synchronized by CAS alone (lock-free list style):
        // a plain-read + CAS spec needs no explicit acquire/release.
        let spec = EffectSpec::new("lockfree").op(OpSpec::new(0, "Insert")
            .host(AccessDecl::read(R::Host))
            .host(AccessDecl::write(R::Host).cas())
            .host(AccessDecl::write(R::Host).release()));
        assert_eq!(verify_spec(&spec, TOPO), vec![]);
    }

    #[test]
    fn duplicate_and_empty_rejected() {
        let empty = EffectSpec::new("empty");
        assert!(matches!(verify_spec(&empty, TOPO)[0], SpecError::EmptySpec { .. }));
        let dup = EffectSpec::new("dup")
            .op(OpSpec::new(1, "A").host(AccessDecl::read(R::Host)))
            .op(OpSpec::new(1, "B").host(AccessDecl::read(R::Host)));
        assert!(verify_spec(&dup, TOPO)
            .iter()
            .any(|e| matches!(e, SpecError::DuplicateOp { code: 1, .. })));
    }

    #[test]
    fn no_partitions_rejected() {
        let spec = publist_like();
        let errs = verify_spec(&spec, Topology { parts: 0, host_cores: 1 });
        assert!(errs.iter().any(|e| matches!(e, SpecError::NoPartitions { .. })), "{errs:?}");
    }

    #[test]
    fn merged_unions_by_code() {
        let host_half =
            EffectSpec::new("s").op(OpSpec::new(0, "Read").host(AccessDecl::read(R::Host)));
        let nmp_half = EffectSpec::new("s")
            .op(OpSpec::new(0, "Read").nmp(AccessDecl::read(R::Part)))
            .op(OpSpec::new(2, "Insert").nmp(AccessDecl::write(R::Part)));
        let m = host_half.merged(nmp_half);
        assert_eq!(m.ops.len(), 2);
        let read = m.op_spec(0).unwrap();
        assert_eq!(read.host.len(), 1);
        assert_eq!(read.nmp.len(), 1);
    }
}
