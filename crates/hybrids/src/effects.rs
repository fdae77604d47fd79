//! Shared memory-effect declarations for the offload protocol.
//!
//! Every structure in this crate exports a declared access plan
//! ([`EffectSpec`]) per operation code; the plans are statically verified
//! against the machine topology and the publication-list protocol at
//! registration time ([`register_effect_spec`]), before any simulation
//! cycle executes. The protocol constants here describe the one
//! publication-list handshake every offloading structure shares
//! (`crate::publist`), so per-structure specs only add their data-plane
//! accesses on top.

use std::sync::Arc;

use nmp_sim::Machine;
pub use nmp_sim::{AccessDecl, EffectSpec, OpSpec, Topology};

use crate::publist::OpCode;

use nmp_sim::analysis::RegionClass as R;

/// Host side of one publication-list round trip (`PubLists::post` +
/// `PubLists::try_response`): three payload MMIO stores, the control-word
/// release that publishes the request, the control-word acquire that polls
/// for the response, and two payload MMIO loads.
pub const HOST_PROTOCOL: [AccessDecl; 4] = [
    AccessDecl::write(R::Spad).mmio(),
    AccessDecl::write(R::Spad).mmio().release().sync("ctrl"),
    AccessDecl::read(R::Spad).mmio().acquire().sync("ctrl"),
    AccessDecl::read(R::Spad).mmio(),
];

/// NMP side of one publication-list round trip (`PubLists::scan` +
/// `PubLists::complete`): the control-word acquire that picks up a
/// published request, three payload loads, two payload stores, and the
/// control-word release that publishes the response.
pub const NMP_PROTOCOL: [AccessDecl; 4] = [
    AccessDecl::read(R::Spad).acquire().sync("ctrl"),
    AccessDecl::read(R::Spad),
    AccessDecl::write(R::Spad),
    AccessDecl::write(R::Spad).release().sync("ctrl"),
];

/// An [`OpSpec`] pre-loaded with both halves of the publication-list
/// protocol. Structure specs start from this and add their data-plane
/// declarations.
pub fn protocol_op(code: OpCode, name: &'static str) -> OpSpec {
    OpSpec::new(code as u8, name).host_all(&HOST_PROTOCOL).nmp_all(&NMP_PROTOCOL)
}

/// The topology of `machine`, for spec verification.
pub fn topology(machine: &Machine) -> Topology {
    Topology { parts: machine.partitions(), host_cores: machine.config().host_cores }
}

/// Statically verify `spec` against `machine`'s topology (panicking with a
/// full error listing on failure — zero simulation cycles) and, when an
/// analysis is attached, install it for spec-conformance checking.
pub fn register_effect_spec(machine: &Arc<Machine>, spec: &EffectSpec) {
    nmp_sim::analysis::effects::assert_verified(spec, topology(machine));
    if let Some(a) = machine.mem().analysis() {
        a.install_spec(spec.clone());
    }
}

/// Statically prove that every op an executor declares coalescible
/// ([`crate::publist::NmpExec::coalescible_ops`]) is safe to coalesce:
/// the op must appear in the executor's effect spec and its NMP plan must
/// contain no partition-memory write. A read path with a hidden mutation
/// (e.g. the B+ tree's sequence-number adoption) would make a replicated
/// response unsound — this check turns that mistake into a panic at
/// combiner-spawn time, before any simulation cycle executes.
pub fn assert_coalescible_ops(spec: &EffectSpec, ops: &[OpCode]) {
    use nmp_sim::analysis::Dir;
    for &op in ops {
        let s = spec.op_spec(op as u8).unwrap_or_else(|| {
            panic!("spec '{}': coalescible op {op:?} has no declared effect plan", spec.structure)
        });
        for d in &s.nmp {
            assert!(
                !(d.dir == Dir::Write && d.region == R::Part),
                "spec '{}': op {op:?} declared coalescible but its NMP plan \
                 writes partition memory ({d:?}) — coalescing would replicate \
                 a response across a state change",
                spec.structure
            );
        }
    }
}
