//! Per-thread deferred-effect logs.
//!
//! The scheduler lets shards run ahead of each other inside the
//! conservative window, so side effects that feed *global* in-order
//! consumers — the trace event ring and the analysis passes — cannot be
//! applied live without scrambling their order. Instead, every logical
//! thread appends those effects to a private log tagged `(completion cycle,
//! spawn id, per-thread seq)`. After the run drains, the logs are merged by
//! that key — which is globally unique and equals the sequential feed order
//! — and replayed into the real consumers (`DESIGN.md` §4.9). Both
//! topologies defer and merge, so the determinism suites' differential does
//! not check [`merge`]; its unit test below and the suites' frozen digests
//! do.
//!
//! The turn state lives in a thread-local installed by the worker wrapper;
//! when no turn is active (a native run, or calls from outside a
//! simulation) `defer_*` decline and the caller applies the effect live.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use super::barrier::{pack, ShardCtl};

use crate::analysis::AnalysisEv;
use crate::trace::TraceEvent;

/// One logical thread's deferred effects, handed to the merge step when the
/// worker finishes.
#[derive(Default)]
pub(crate) struct ThreadLog {
    /// Spawn id of the owning logical thread.
    pub(crate) tid: usize,
    /// Deferred trace events keyed `(clock, seq)`; bounded to the tracer's
    /// ring capacity — the global ring keeps only the newest `cap` events,
    /// and any thread's contribution to that tail is its own newest `cap`,
    /// so older entries can be dropped early (counted, not lost silently).
    pub(crate) trace: VecDeque<(u64, u32, TraceEvent)>,
    /// Events dropped from the front of `trace` by the early bound.
    pub(crate) trace_dropped: u64,
    /// Deferred analysis events keyed `(clock, seq)`.
    pub(crate) analysis: Vec<(u64, u32, AnalysisEv)>,
}

struct Turn {
    clock: u64,
    tid: usize,
    shard: usize,
    /// The run's shard control block; `Some` exactly while a logical
    /// thread's body runs on this OS thread.
    ctl: Option<Arc<ShardCtl>>,
    /// Program-order counter within the owning thread; monotone across
    /// turns, so `(clock, tid, seq)` is unique and sorts in feed order.
    seq: u32,
    log: ThreadLog,
}

impl Turn {
    const fn idle() -> Self {
        Turn {
            clock: 0,
            tid: 0,
            shard: 0,
            ctl: None,
            seq: 0,
            log: ThreadLog {
                tid: 0,
                trace: VecDeque::new(),
                trace_dropped: 0,
                analysis: Vec::new(),
            },
        }
    }
}

thread_local! {
    static TURN: RefCell<Turn> = const { RefCell::new(Turn::idle()) };
}

/// Install the deferral context on the current OS thread. Called by the
/// worker wrapper before the logical thread's body runs.
pub(super) fn begin_thread(tid: usize, shard: usize, ctl: Arc<ShardCtl>) {
    TURN.with(|t| {
        let mut t = t.borrow_mut();
        *t = Turn::idle();
        t.tid = tid;
        t.shard = shard;
        t.ctl = Some(ctl);
        t.log.tid = tid;
    });
}

/// Advance the turn clock: called after every wake so deferred effects carry
/// the completion cycle of the turn that produced them.
pub(super) fn set_clock(clock: u64) {
    TURN.with(|t| t.borrow_mut().clock = clock);
}

/// Tear down the deferral context and return the accumulated log.
pub(super) fn end_thread() -> ThreadLog {
    TURN.with(|t| {
        let mut t = t.borrow_mut();
        t.ctl = None;
        std::mem::take(&mut t.log)
    })
}

/// Defer a trace event if a simulated turn is active. Returns `false` when
/// the caller should apply the event live (native run or outside a
/// simulation).
pub(crate) fn defer_trace(ev: TraceEvent, cap: usize) -> bool {
    TURN.with(|t| {
        let mut t = t.borrow_mut();
        if t.ctl.is_none() {
            return false;
        }
        let key = (t.clock, t.seq);
        t.seq += 1;
        if t.log.trace.len() >= cap.max(1) {
            t.log.trace.pop_front();
            t.log.trace_dropped += 1;
        }
        t.log.trace.push_back((key.0, key.1, ev));
        true
    })
}

/// Defer an analysis event if a simulated turn is active. Returns `false`
/// when the caller should apply the event live.
pub(crate) fn defer_analysis(ev: AnalysisEv) -> bool {
    TURN.with(|t| {
        let mut t = t.borrow_mut();
        if t.ctl.is_none() {
            return false;
        }
        let key = (t.clock, t.seq);
        t.seq += 1;
        t.log.analysis.push((key.0, key.1, ev));
        true
    })
}

/// Block until every other shard's frontier has passed the caller's current
/// turn key, then return — the caller may then mutate cross-shard state
/// (e.g. `MemorySystem::reset_stats` from the driver's measurement barrier)
/// with the same outcome as under the sequential order. No-op outside a
/// simulated turn. Only sound at quiescent call sites; see
/// `ShardCtl::quiesce`.
pub(crate) fn quiesce_for_global_mutation() {
    TURN.with(|t| {
        let t = t.borrow();
        if let Some(ctl) = &t.ctl {
            ctl.quiesce(t.shard, pack(t.clock, t.tid));
        }
    });
}

/// One thread's deferred log: `(spawn id, [(clock, seq, event)])`.
pub(super) type DeferredStream<T> = (usize, Vec<(u64, u32, T)>);

/// Merge per-thread logs into one stream ordered by `(clock, tid, seq)` —
/// the sequential feed order. Used by the shard runner's replay step;
/// generic over the payload so trace and analysis share it.
pub(super) fn merge<T>(mut streams: Vec<DeferredStream<T>>) -> Vec<T> {
    let mut keyed: Vec<((u64, usize, u32), T)> = Vec::new();
    for (tid, items) in streams.drain(..) {
        for (clock, seq, ev) in items {
            keyed.push(((clock, tid, seq), ev));
        }
    }
    keyed.sort_by_key(|(k, _)| *k);
    keyed.into_iter().map(|(_, ev)| ev).collect()
}

#[cfg(test)]
mod tests {
    use super::merge;

    #[test]
    fn merge_orders_by_clock_then_tid_then_seq() {
        // The payload names the position the event must take in the merged
        // stream. Tid 0's two clock-5 events are handed over out of program
        // order so that only the seq component can put them right.
        let streams = vec![
            (2, vec![(5, 0, 'd'), (9, 1, 'h')]),
            (0, vec![(5, 1, 'b'), (5, 0, 'a'), (8, 2, 'f')]),
            (1, vec![(3, 0, '_'), (5, 7, 'c'), (7, 8, 'e'), (8, 9, 'g')]),
        ];
        let merged: String = merge(streams).into_iter().collect();
        // clock 3 first; at clock 5 tid 0 (seq 0 then 1) < tid 1 < tid 2,
        // whatever the seq; at clock 8 tid 0 < tid 1.
        assert_eq!(merged, "_abcdefgh");
        assert!(merge::<u8>(Vec::new()).is_empty());
    }
}
