//! Self-tuning offload policy layer (ROADMAP "Self-tuning offload
//! runtime").
//!
//! Two levers, both switched by [`Policy`] (a [`nmp_sim::Config`] knob):
//!
//! 1. **Key-range request coalescing** — under [`Policy::Adaptive`] the
//!    flat-combining pass sorts each collected batch by `(key, slot)` and
//!    serves runs of *identical* requests whose op code the executor
//!    declares coalescible ([`crate::publist::NmpExec::coalescible_ops`])
//!    with a single NMP descent: the run's lead request executes normally
//!    and every follower slot receives a replica of the lead's response.
//!    Correctness: all requests of one batch are mutually concurrent (each
//!    issuing host thread is blocked until its slot completes), so any
//!    serial order of the batch is a valid linearization; a follower is
//!    field-for-field identical to its lead and the partition state does
//!    not change between the lead's descent and the follower's completion,
//!    so the lead's response is exactly what the follower's own descent
//!    would have produced. Executors may only declare ops whose NMP plan
//!    never writes partition memory
//!    ([`crate::effects::assert_coalescible_ops`] enforces this at
//!    combiner-spawn time), which rules out read-paths with hidden
//!    mutations such as the B+ tree's sequence-number adoption.
//! 2. **Idle back-off** ([`Backoff`]) — replaces two constant waits with
//!    an exponential back-off re-armed at `max(base/4, 1)` whenever work
//!    shows up: the combiner's `nmp_idle_poll_cycles` after an empty scan
//!    pass (up to `8 * base`) and the non-blocking driver loop's
//!    `host_pipeline_idle_cycles` after a poll round with no completion
//!    (up to `4 * base`). The lane depth is always the configured
//!    `inflight`.
//!
//! **Determinism.** Every decision here is a pure function of values
//! produced by the simulation itself: the batch a pass collected and the
//! calling thread's own idle history. No wall-clock time, no cross-OS-thread
//! counter reads — so traces are byte-identical run to run, which is what
//! makes the adaptive battery of frozen digests in
//! `tests/shard_determinism.rs` possible.

pub use nmp_sim::Policy;

use crate::publist::{OpCode, Request};

/// Sort a combining-pass batch for coalescing: by key, then by slot index
/// so equal-key runs are contiguous and the order within a run (and the
/// full serve order) is deterministic.
pub fn sort_batch(batch: &mut [(usize, Request)]) {
    batch.sort_by_key(|&(slot, ref req)| (req.key, slot));
}

/// Length of the coalescible run starting at `i` in a batch sorted by
/// [`sort_batch`]: the lead request plus every immediately following
/// request that is field-for-field identical to it, provided the lead's op
/// code is in `coalescible`. Returns 1 (no coalescing) otherwise.
pub fn coalesce_run_len(batch: &[(usize, Request)], i: usize, coalescible: &[OpCode]) -> usize {
    let lead = &batch[i].1;
    if !coalescible.contains(&lead.op) {
        return 1;
    }
    let mut len = 1;
    while i + len < batch.len() && batch[i + len].1 == *lead {
        len += 1;
    }
    len
}

/// Exponential idle back-off (lever 2). Fixed: [`Backoff::next_idle`] is
/// always `base`. Adaptive: it starts where the constructor says, doubles
/// per consecutive idle up to its cap (never below 1), and
/// [`Backoff::rearm`] resets it to `max(base/4, 1)` once work shows up.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: Policy,
    base: u64,
    cap: u64,
    cur: u64,
}

impl Backoff {
    /// A flat-combining daemon's empty-pass idle, `base` =
    /// `nmp_idle_poll_cycles`: starts at `max(base/4, 1)`, caps at
    /// `8 * base`.
    pub fn combiner(policy: Policy, base: u64) -> Self {
        Backoff { policy, base, cap: 8 * base, cur: (base / 4).max(1) }
    }

    /// A host pipeline's stall idle, `base` = `host_pipeline_idle_cycles`:
    /// starts at `base`, caps at `4 * base`.
    pub fn pipeline(policy: Policy, base: u64) -> Self {
        Backoff { policy, base, cap: 4 * base, cur: base }
    }

    /// Cycles to idle after a round that found no work.
    pub fn next_idle(&mut self) -> u64 {
        match self.policy {
            Policy::Fixed => self.base,
            Policy::Adaptive => {
                let v = self.cur;
                self.cur = (self.cur * 2).min(self.cap).max(1);
                v
            }
        }
    }

    /// A round found work: re-arm at the floor so the next quiet round
    /// re-checks promptly.
    pub fn rearm(&mut self) {
        self.cur = (self.base / 4).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_sim::NULL;

    fn req(op: OpCode, key: u32) -> Request {
        Request { op, key, value: 0, begin: NULL, host_ptr: NULL, aux: 0 }
    }

    #[test]
    fn sort_batch_orders_by_key_then_slot() {
        let mut batch = vec![
            (3, req(OpCode::Read, 9)),
            (1, req(OpCode::Read, 2)),
            (2, req(OpCode::Read, 9)),
            (0, req(OpCode::Read, 5)),
        ];
        sort_batch(&mut batch);
        let order: Vec<usize> = batch.iter().map(|&(s, _)| s).collect();
        assert_eq!(order, vec![1, 0, 2, 3]);
    }

    #[test]
    fn coalesce_run_groups_identical_requests_only() {
        let mut batch = vec![
            (0, req(OpCode::Read, 7)),
            (1, req(OpCode::Read, 7)),
            (2, req(OpCode::Read, 7)),
            (3, req(OpCode::Read, 8)),
        ];
        sort_batch(&mut batch);
        assert_eq!(coalesce_run_len(&batch, 0, &[OpCode::Read]), 3);
        assert_eq!(coalesce_run_len(&batch, 3, &[OpCode::Read]), 1);
        // Op not declared coalescible -> no run.
        assert_eq!(coalesce_run_len(&batch, 0, &[]), 1);
    }

    #[test]
    fn coalesce_run_requires_full_field_equality() {
        // Same key, different begin pointer: responses could differ, so
        // the run must not merge them.
        let a = req(OpCode::Read, 7);
        let mut b = req(OpCode::Read, 7);
        b.begin = 0x40;
        let batch = vec![(0, a), (1, b)];
        assert_eq!(coalesce_run_len(&batch, 0, &[OpCode::Read]), 1);
    }

    #[test]
    fn backoff_sequences() {
        type Ctor = fn(Policy, u64) -> Backoff;
        // (constructor, policy, base, idles before re-arm, first idle after)
        let cases: [(Ctor, Policy, u64, &[u64], u64); 6] = [
            (Backoff::combiner, Policy::Adaptive, 16, &[4, 8, 16, 32, 64, 128, 128, 128], 4),
            (Backoff::pipeline, Policy::Adaptive, 16, &[16, 32, 64, 64], 4),
            (Backoff::combiner, Policy::Fixed, 16, &[16; 8], 16),
            (Backoff::pipeline, Policy::Fixed, 16, &[16; 8], 16),
            (Backoff::combiner, Policy::Adaptive, 1, &[1, 2, 4, 8, 8], 1),
            (Backoff::pipeline, Policy::Adaptive, 1, &[1, 2, 4, 4], 1),
        ];
        for (i, &(ctor, policy, base, seq, after)) in cases.iter().enumerate() {
            let mut b = ctor(policy, base);
            let got: Vec<u64> = seq.iter().map(|_| b.next_idle()).collect();
            assert_eq!(got, seq, "case {i}");
            b.rearm();
            assert_eq!(b.next_idle(), after, "case {i} after re-arm");
            assert!(got.iter().all(|&v| v >= 1), "case {i} idled 0 cycles");
        }
    }
}
