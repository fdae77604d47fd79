//! Self-tuning offload policy layer (ROADMAP "Self-tuning offload
//! runtime").
//!
//! Three levers, all switched by [`Policy`] (a [`nmp_sim::Config`] knob):
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
//! 2. **Adaptive combiner idle** ([`CombinerControl`]) — replaces the
//!    constant `nmp_idle_poll_cycles` wait after an empty scan pass with
//!    an exponential back-off that resets to `max(base/4, 1)` whenever a
//!    pass finds work, so a busy partition is re-scanned promptly while a
//!    quiet one backs off up to `8 * base`.
//! 3. **Adaptive host lane depth and pipeline idle** ([`LaneGovernor`]) —
//!    replaces the fixed `inflight` depth and constant
//!    `host_pipeline_idle_cycles` stall wait of the non-blocking driver
//!    loop. The governor consumes the combiner's batch-occupancy feedback
//!    (the same combined-per-pass quantity [`nmp_sim::OffloadStats`]
//!    histograms, delivered in-band in the high half of the slot control
//!    word so the signal is a pure function of simulated state and costs
//!    no extra MMIO) and probes lane depth
//!    conservatively downward, reverting any probe that does not strictly
//!    improve completions-per-cycle.
//!
//! **Determinism.** Every decision here is a pure function of values
//! produced by the simulation itself: combiner-local pass history, the
//! issuing thread's own completion count and simulated clock, and the
//! ctrl-word occupancy bits written by the combiner and read back by the
//! same host thread. No wall-clock time, no cross-OS-thread counter reads
//! — so traces are byte-identical under both engine topologies, which is
//! what makes the adaptive battery in `tests/shard_determinism.rs`
//! possible.

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

/// Per-combiner idle tuner (lever 2). One instance lives in each
/// flat-combining daemon; its state is the daemon's own pass history only.
#[derive(Debug, Clone)]
pub struct CombinerControl {
    policy: Policy,
    base: u64,
    cur: u64,
}

impl CombinerControl {
    /// Ceiling of the adaptive back-off, as a multiple of the configured
    /// base idle.
    pub const MAX_BACKOFF: u64 = 8;

    /// A control for one combiner with the configured
    /// `nmp_idle_poll_cycles` as `base`.
    pub fn new(policy: Policy, base: u64) -> Self {
        CombinerControl { policy, base, cur: Self::floor(base) }
    }

    fn floor(base: u64) -> u64 {
        (base / 4).max(1)
    }

    /// Cycles to idle after a scan pass that found no requests. Fixed:
    /// always `base`. Adaptive: the current back-off, which then doubles
    /// (capped at `MAX_BACKOFF * base`).
    pub fn idle_after_empty(&mut self) -> u64 {
        match self.policy {
            Policy::Fixed => self.base,
            Policy::Adaptive => {
                let v = self.cur;
                self.cur = (self.cur * 2).min(self.base * Self::MAX_BACKOFF).max(1);
                v
            }
        }
    }

    /// A scan pass found work: re-arm the back-off at its floor so the
    /// next quiet pass re-scans promptly.
    pub fn note_busy(&mut self) {
        if self.policy == Policy::Adaptive {
            self.cur = Self::floor(self.base);
        }
    }
}

/// Completions per depth-probe epoch: enough samples that a throughput
/// comparison is meaningful, small enough that probing reacts within a run.
const EPOCH_COMPLETIONS: u64 = 32;
/// Base failed-probe cooldown, in epochs. Every consecutive failed probe
/// doubles it (capped at `PROBE_COOLDOWN << MAX_FAIL_STREAK`), so a
/// workload that genuinely wants the full lane depth pays a vanishing
/// fraction of its epochs to futile probing.
const PROBE_COOLDOWN: u32 = 7;
/// Cap on the failed-probe cooldown doubling.
const MAX_FAIL_STREAK: u32 = 3;
/// Host stall back-off ceiling, as a multiple of the configured base idle.
const STALL_BACKOFF: u64 = 4;
/// Occupancy histogram buckets (mirrors `nmp_sim::OFFLOAD_HIST_BUCKETS`).
const HIST_BUCKETS: usize = 17;

/// Per-host-thread lane-depth and pipeline-idle governor (lever 3). One
/// instance lives in each driver pipeline loop; its inputs are that
/// thread's own completions, the in-band ctrl-word occupancy feedback,
/// and the simulated clock.
#[derive(Debug, Clone)]
pub struct LaneGovernor {
    policy: Policy,
    base_idle: u64,
    idle: u64,
    max_depth: usize,
    depth: usize,
    /// Local copy of the combined-per-pass histogram, built from the
    /// ctrl-word occupancy feedback of this thread's own completions.
    hist: [u64; HIST_BUCKETS],
    /// Occupancy EWMA in 1/16ths (integer fixed point; no floats so the
    /// value is bit-exact everywhere).
    ewma16: u64,
    completions: u64,
    epoch_start_completions: u64,
    epoch_start_cycles: u64,
    /// Throughput of the pre-probe epoch, in completions-per-cycle fixed
    /// point (`completions << 20 / cycles`); 0 = not probing.
    probe_baseline: u64,
    cooldown: u32,
    /// Consecutive failed probes; drives the cooldown doubling.
    fail_streak: u32,
}

impl LaneGovernor {
    /// A governor for one pipeline loop with the configured `inflight` as
    /// the depth ceiling and `host_pipeline_idle_cycles` as the idle base.
    pub fn new(policy: Policy, base_idle: u64, max_inflight: usize) -> Self {
        let max_depth = max_inflight.max(1);
        LaneGovernor {
            policy,
            base_idle,
            idle: base_idle,
            max_depth,
            depth: max_depth,
            hist: [0; HIST_BUCKETS],
            ewma16: 0,
            completions: 0,
            epoch_start_completions: 0,
            epoch_start_cycles: 0,
            probe_baseline: 0,
            cooldown: 0,
            fail_streak: 0,
        }
    }

    /// Lanes the loop may issue new operations on right now (always in
    /// `1..=max_inflight`; lanes above the current depth still drain).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The governor's local combined-per-pass histogram (diagnostics).
    pub fn hist(&self) -> &[u64; HIST_BUCKETS] {
        &self.hist
    }

    fn throughput(&self, now: u64) -> u64 {
        let dc = self.completions - self.epoch_start_completions;
        let dt = (now - self.epoch_start_cycles).max(1);
        (dc << 20) / dt
    }

    /// Feed one completed operation: `occupancy` is the ctrl-word
    /// batch-occupancy feedback (0 under [`Policy::Fixed`]), `now` the
    /// simulated clock.
    pub fn note_completion(&mut self, occupancy: u32, now: u64) {
        self.completions += 1;
        if self.policy == Policy::Fixed {
            return;
        }
        let b = (occupancy as usize).min(HIST_BUCKETS - 1);
        self.hist[b] += 1;
        // ewma16 <- ewma16 * 7/8 + occupancy_in_16ths / 8
        self.ewma16 = self.ewma16 - self.ewma16 / 8 + (occupancy as u64) * 2;
        if self.epoch_start_cycles == 0 {
            self.epoch_start_cycles = now;
            self.epoch_start_completions = self.completions;
            return;
        }
        if self.completions - self.epoch_start_completions < EPOCH_COMPLETIONS {
            return;
        }
        let tp = self.throughput(now);
        if self.probe_baseline != 0 {
            // A depth probe just finished: keep the shallower depth only if
            // it improved completions-per-cycle by a clear margin (> 1/16),
            // so phase noise cannot lock the pipeline at a worse depth.
            if tp > self.probe_baseline + self.probe_baseline / 16 {
                self.probe_baseline = 0; // accepted; may probe again later
                self.fail_streak = 0;
                self.cooldown = PROBE_COOLDOWN;
            } else {
                self.depth = (self.depth + 1).min(self.max_depth);
                self.probe_baseline = 0;
                self.cooldown = PROBE_COOLDOWN << self.fail_streak.min(MAX_FAIL_STREAK);
                self.fail_streak += 1;
            }
        } else if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if self.depth > 1 && self.ewma16 >= (self.depth as u64) * 2 * 16 {
            // Batches routinely carry ≥ 2x our lane depth: the combiner is
            // saturated and an extra lane only queues. Probe one shallower.
            self.probe_baseline = tp;
            self.depth -= 1;
        }
        self.epoch_start_completions = self.completions;
        self.epoch_start_cycles = now;
    }

    /// Cycles to idle when a full poll round made no progress. Fixed:
    /// always the configured base. Adaptive: doubles per consecutive
    /// stalled round up to `4 * base`, re-armed at `max(base/4, 1)` by
    /// [`Self::note_progress`].
    pub fn idle_on_stall(&mut self) -> u64 {
        match self.policy {
            Policy::Fixed => self.base_idle,
            Policy::Adaptive => {
                let v = self.idle;
                self.idle = (self.idle * 2).min(self.base_idle * STALL_BACKOFF).max(1);
                v
            }
        }
    }

    /// A poll round completed at least one operation: re-arm the stall
    /// back-off at its floor so the pipeline polls eagerly while work is
    /// flowing.
    pub fn note_progress(&mut self) {
        if self.policy == Policy::Adaptive {
            self.idle = (self.base_idle / 4).max(1);
        }
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
    fn combiner_control_fixed_is_constant() {
        let mut c = CombinerControl::new(Policy::Fixed, 16);
        for _ in 0..10 {
            assert_eq!(c.idle_after_empty(), 16);
        }
        c.note_busy();
        assert_eq!(c.idle_after_empty(), 16);
    }

    #[test]
    fn combiner_control_adaptive_backs_off_and_rearms() {
        let mut c = CombinerControl::new(Policy::Adaptive, 16);
        let seq: Vec<u64> = (0..8).map(|_| c.idle_after_empty()).collect();
        assert_eq!(seq, vec![4, 8, 16, 32, 64, 128, 128, 128]);
        c.note_busy();
        assert_eq!(c.idle_after_empty(), 4);
    }

    #[test]
    fn combiner_control_never_idles_zero() {
        let mut c = CombinerControl::new(Policy::Adaptive, 1);
        for _ in 0..5 {
            assert!(c.idle_after_empty() >= 1);
        }
    }

    #[test]
    fn governor_fixed_keeps_depth_and_idle() {
        let mut g = LaneGovernor::new(Policy::Fixed, 16, 4);
        for i in 0..200 {
            g.note_completion(16, 100 * (i + 1));
            assert_eq!(g.depth(), 4);
            assert_eq!(g.idle_on_stall(), 16);
        }
    }

    #[test]
    fn governor_adaptive_idle_rearms_on_progress() {
        let mut g = LaneGovernor::new(Policy::Adaptive, 16, 4);
        assert_eq!(g.idle_on_stall(), 16);
        assert_eq!(g.idle_on_stall(), 32);
        assert_eq!(g.idle_on_stall(), 64);
        assert_eq!(g.idle_on_stall(), 64, "capped at 4x base");
        g.note_progress();
        assert_eq!(g.idle_on_stall(), 4, "re-armed at base/4");
    }

    #[test]
    fn governor_probes_down_when_saturated_and_reverts_on_regression() {
        let mut g = LaneGovernor::new(Policy::Adaptive, 16, 4);
        let mut now = 0;
        // Saturated: occupancy 16 with depth 4 -> ewma crosses 2x depth.
        // Constant completion rate, so the shallower probe is never a
        // strict improvement and must be reverted.
        let mut probed = false;
        let mut reverted = false;
        for _ in 0..(EPOCH_COMPLETIONS * 20) {
            now += 100;
            g.note_completion(16, now);
            assert!(g.depth() >= 3, "probes at most one step at a time");
            probed |= g.depth() == 3;
            reverted |= probed && g.depth() == 4;
        }
        assert!(probed, "saturation should trigger a downward probe");
        assert!(reverted, "non-improving probe reverted");
    }

    #[test]
    fn governor_keeps_improving_probe() {
        let mut g = LaneGovernor::new(Policy::Adaptive, 16, 4);
        let mut now = 0;
        // First epochs at depth 4 are slow (200 cycles/op); once the probe
        // drops to depth 3 completions speed up (50 cycles/op), so the
        // probe is a strict improvement and sticks.
        for _ in 0..(EPOCH_COMPLETIONS * 20) {
            now += if g.depth() == 4 { 200 } else { 50 };
            g.note_completion(16, now);
        }
        assert!(g.depth() < 4, "strictly-improving probe should be kept");
    }

    #[test]
    fn governor_depth_never_leaves_bounds() {
        let mut g = LaneGovernor::new(Policy::Adaptive, 16, 1);
        let mut now = 0;
        for _ in 0..(EPOCH_COMPLETIONS * 8) {
            now += 10;
            g.note_completion(16, now);
            assert_eq!(g.depth(), 1);
        }
    }
}
