//! The scheduler: per-shard minimum-key event loops with peer-to-peer
//! handoff. There is one scheduler and it runs one of two *topologies*.
//!
//! * **Per-partition** (every run but the determinism suites'): shard 0
//!   (the *host shard*) owns every `ThreadKind::Host` thread plus the
//!   host-side timing state; vault shard `1 + p` owns NMP partition `p`
//!   together with its DRAM timing state. The topology is derived from the
//!   machine, not configured.
//! * **Single loop** (`Config::single_loop`, a test switch): every logical
//!   thread is a member of shard 0. One minimum-key loop over all threads
//!   *is* the sequential `(cycle, spawn id)` order, by construction — no
//!   gate, no foreign frontier — so this topology is the reference the
//!   other one is differentially tested against.
//!
//! Each shard runs its own minimum-key event loop over the threads it owns.
//! There is no scheduler thread: the shard's *scheduling token* is carried
//! by whichever worker is currently executing. At a yield the worker runs
//! [`ShardedRt::sched_step`] itself — picking the shard's next minimum-key
//! thread, publishing the shard frontier, gating on foreign frontiers when
//! the next effect crosses shards, and waking the chosen thread directly.
//! When the yielding thread's own new key is still the shard minimum it
//! simply keeps running: a vault-local event burst (the common case for a
//! combiner pass) advances with no OS interaction at all.
//!
//! Determinism: every cross-shard effect is gated until the peer shard's
//! frontier passes the effect's key, so effects on shared words apply in
//! global `(cycle, spawn id)` order — exactly the single loop's order — and
//! trace/analysis streams are deferred per thread and replayed in merged
//! key order after the run drains (see `engine/inbox.rs` and `DESIGN.md`
//! §4.9).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::mem::MemorySystem;

use super::barrier::{pack, ShardCtl, MAX_THREADS};
use super::core::{
    await_announcements, finish, spawn_workers, unpark, EngineShared, SimOutcome, ThreadFn,
    ThreadKind, ThreadShared, ST_DONE, ST_GO, ST_YIELD,
};
use super::inbox;

/// Index of the shard owning all host threads and host timing state (and,
/// under the single-loop topology, everything else too).
pub(super) const HOST_SHARD: usize = 0;

/// Shared runtime of one simulation run.
pub(super) struct ShardedRt {
    /// Topology: all threads in shard 0 instead of one shard per partition.
    single_loop: bool,
    ctl: Arc<ShardCtl>,
    threads: Vec<Arc<ThreadShared>>,
    /// Spawn ids owned by each shard, in spawn order.
    members: Vec<Vec<usize>>,
}

impl ShardedRt {
    /// Which shard owns NMP partition `p`.
    pub(super) fn shard_of_part(&self, p: usize) -> usize {
        if self.single_loop {
            HOST_SHARD
        } else {
            1 + p
        }
    }

    /// Which shard owns a thread of kind `kind`.
    pub(super) fn shard_of(&self, kind: ThreadKind) -> usize {
        match kind {
            ThreadKind::Host { .. } => HOST_SHARD,
            ThreadKind::Nmp { part } => self.shard_of_part(part),
        }
    }

    pub(super) fn ctl(&self) -> &ShardCtl {
        &self.ctl
    }

    pub(super) fn ctl_arc(&self) -> Arc<ShardCtl> {
        Arc::clone(&self.ctl)
    }

    /// One scheduling step of shard `s`, run by the current token holder
    /// (`me`, or the main thread injecting the initial token): pick the
    /// minimum-key pending thread, publish the shard's frontiers, wait out
    /// the chosen effect's cross-shard gate, and resume the thread. Returns
    /// the chosen spawn id (`None` when the shard has drained).
    ///
    /// Exactly one entity per shard executes this at a time — the token
    /// holder — so the scan is race-free: every other member thread is
    /// parked in `ST_YIELD` or finished.
    pub(super) fn sched_step(&self, s: usize, me: Option<usize>) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        let mut nd_best = u64::MAX;
        for &i in &self.members[s] {
            let ts = &self.threads[i];
            match ts.state.load(Ordering::Acquire) {
                ST_YIELD => {
                    let key = pack(ts.clock.load(Ordering::Acquire), i);
                    if best.is_none_or(|(bk, _)| key < bk) {
                        best = Some((key, i));
                    }
                    if !ts.daemon && key < nd_best {
                        nd_best = key;
                    }
                }
                ST_DONE => {}
                other => unreachable!("shard {s} saw thread {i} in state {other}"),
            }
        }
        let Some((key, i)) = best else {
            self.ctl.publish(s, u64::MAX, u64::MAX);
            return None;
        };
        // Publish before gating: the frontier must be visible to peers
        // while we wait, or two mutually gated shards would deadlock.
        self.ctl.publish(s, key, nd_best);
        let gate = self.threads[i].gate.load(Ordering::Relaxed);
        self.ctl.gate_wait(s, key, gate);
        if self.ctl.all_non_daemons_done() {
            self.ctl.count_after_stop();
        }
        let ts = &self.threads[i];
        ts.state.store(ST_GO, Ordering::Release);
        if me != Some(i) {
            unpark(&ts.handle);
        }
        Some(i)
    }
}

/// Run the simulation on peer-scheduled shard loops: the host shard plus one
/// per NMP partition, or a single shard under `Config::single_loop`. The
/// outcome is byte-identical either way.
pub(super) fn run(
    mem: Arc<MemorySystem>,
    eng: Arc<EngineShared>,
    threads: Vec<Arc<ThreadShared>>,
    bodies: Vec<ThreadFn>,
    cpu_step: u64,
) -> SimOutcome {
    assert!(threads.len() < MAX_THREADS, "engine supports at most {MAX_THREADS} logical threads");
    let single_loop = mem.config().single_loop;
    let shards = if single_loop { 1 } else { 1 + mem.config().nmp_partitions() };
    let non_daemons = threads.iter().filter(|t| !t.daemon).count();
    let mut rt = ShardedRt {
        single_loop,
        ctl: Arc::new(ShardCtl::new(shards, non_daemons)),
        threads: threads.clone(),
        members: vec![Vec::new(); shards],
    };
    for (i, ts) in threads.iter().enumerate() {
        let s = rt.shard_of(ts.kind);
        rt.members[s].push(i);
    }
    let rt = Arc::new(rt);

    let joins = spawn_workers(&mem, &eng, &threads, bodies, cpu_step, &rt);
    await_announcements(&threads);

    // Inject each shard's scheduling token: publish all frontiers and wake
    // each shard's minimum-key thread. First turns are never gated (no
    // effect is pending yet), so these steps cannot block.
    for s in 0..shards {
        rt.sched_step(s, None);
    }

    for j in joins {
        let _ = j.join();
    }

    // Replay the deferred trace/analysis streams in merged key order — the
    // sequential feed order — into the real consumers.
    if let Some(t) = mem.tracer() {
        let mut streams = Vec::new();
        let mut early_dropped = 0u64;
        for ts in &threads {
            if let Some(log) = ts.deferred.lock().as_mut() {
                early_dropped += log.trace_dropped;
                streams.push((log.tid, log.trace.drain(..).collect()));
            }
        }
        t.replay(inbox::merge(streams), early_dropped);
    }
    if let Some(a) = mem.analysis() {
        let mut streams = Vec::new();
        for ts in &threads {
            if let Some(log) = ts.deferred.lock().as_mut() {
                streams.push((log.tid, std::mem::take(&mut log.analysis)));
            }
        }
        for ev in inbox::merge(streams) {
            a.replay(ev);
        }
    }

    finish(&threads)
}
