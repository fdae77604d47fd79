//! Public operation API shared by every index structure in this crate.
//!
//! All structures execute *inside the simulator*: an operation is invoked by
//! a logical host thread and receives that thread's [`ThreadCtx`], through
//! which every node access is timed. Structures with an NMP-managed portion
//! additionally expose the non-blocking call interface of §3.5: `issue`
//! returns a pending handle (the paper's "operation ID") and `poll` checks
//! on / completes it.

use std::sync::Arc;

use nmp_sim::{Addr, EffectSpec, Simulation, ThreadCtx, ThreadKind};
use workloads::{Op, Value};

/// Result of one completed data-structure operation.
///
/// `ok` carries the publication list's 1-bit success/failure return value
/// (§3.2): found (read/update), inserted (insert: false = duplicate key),
/// removed (remove: false = key absent). `value` is the associated value for
/// successful reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    /// The 1-bit success/failure return (see type docs).
    pub ok: bool,
    /// Associated value for successful reads; 0 otherwise.
    pub value: Value,
}

impl OpResult {
    /// Successful result carrying `value`.
    pub fn ok(value: Value) -> Self {
        OpResult { ok: true, value }
    }

    /// Failed result (`ok == false`).
    pub fn fail() -> Self {
        OpResult { ok: false, value: 0 }
    }
}

/// Outcome of a non-blocking `issue` call.
pub enum Issued<P> {
    /// The operation completed entirely on the host side (e.g. a read
    /// satisfied from the host-managed portion).
    Done(OpResult),
    /// The operation was offloaded; poll the handle for completion.
    Pending(P),
}

/// Outcome of polling a pending operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// NMP core has not finished (or a retry was re-issued internally).
    Pending,
    /// Operation complete.
    Done(OpResult),
}

/// A concurrent index running inside the simulator.
pub trait SimIndex: Send + Sync + 'static {
    /// Per-operation state carried between `issue` and completion.
    type Pending: Send + 'static;

    /// Execute `op` to completion (blocking NMP calls): retries and
    /// publication-list polling happen inside.
    fn execute(&self, ctx: &mut ThreadCtx, op: Op) -> OpResult;

    /// Start `op` with a non-blocking NMP call on publication-list lane
    /// `lane` of the calling host thread (§3.5). Lanes `0..max_inflight()`
    /// of each host thread map to distinct publication-list slots.
    fn issue(&self, ctx: &mut ThreadCtx, lane: usize, op: Op) -> Issued<Self::Pending>;

    /// Check a pending operation; completes host-side post-processing
    /// (e.g. linking a tall skiplist node, the LOCK_PATH / RESUME_INSERT
    /// dance) and internally re-issues on retry.
    fn poll(&self, ctx: &mut ThreadCtx, pending: &mut Self::Pending) -> PollOutcome;

    /// The publication-list control word a pending operation waits on,
    /// while its request is posted and not yet answered (an untimed peek).
    /// Until that word is written, [`SimIndex::poll`] on it is one MMIO
    /// read of the word and nothing else, which is what lets a host whose
    /// lanes all wait park on their words ([`ThreadCtx::park`]). `None`
    /// when the operation has host-side work to do next, and always for a
    /// host-only index.
    fn awaited_word(&self, _pending: &Self::Pending) -> Option<Addr> {
        None
    }

    /// The structure's declared memory-effect plan: per operation code, the
    /// regions each thread class may read and write, with what ordering and
    /// via which channel. Verified statically at registration time
    /// ([`crate::effects::register_effect_spec`]) and enforced dynamically
    /// in spec-conformance mode.
    fn effect_spec(&self) -> EffectSpec;

    /// Spawn this structure's NMP-core service loops (flat combiners) as
    /// daemon threads of `sim`, after registering [`Self::effect_spec`].
    /// Host-only structures spawn nothing but still register their spec.
    fn spawn_services(self: &Arc<Self>, sim: &mut Simulation);

    /// Publication-list lanes provisioned per host thread.
    fn max_inflight(&self) -> usize {
        1
    }
}

/// Host core index of the calling logical thread.
pub fn host_core(ctx: &ThreadCtx) -> usize {
    match ctx.kind() {
        ThreadKind::Host { core } => core,
        ThreadKind::Nmp { .. } => panic!("host-side operation invoked from an NMP core"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_result_constructors() {
        assert_eq!(OpResult::ok(7), OpResult { ok: true, value: 7 });
        assert_eq!(OpResult::fail(), OpResult { ok: false, value: 0 });
    }
}
