//! Cycle-level tracing and latency observability .
//!
//! A [`Tracer`] is attached to a [`crate::Machine`] (via
//! `Machine::attach_tracer`, mirroring the `analysis` subsystem) and records
//! cycle-stamped events for the full offloaded-op lifecycle:
//!
//! - **op umbrellas** — async begin/end pairs spanning each op's invocation
//!   to completion on its host thread's track (overlapping in lane-pipelined
//!   mode);
//! - **phase spans** — MMIO `post` spans on host tracks, `exec` and `batch`
//!   spans on NMP combiner tracks, plus `retry` instants on re-issue;
//! - **memory events** — per-access DRAM vault `busy` spans and host
//!   `llc-miss` instants, recorded by [`crate::MemorySystem`] at the engine's
//!   serialization point;
//! - **counter tracks** — e.g. the pqueue minima-cache stale-empty probe
//!   counter.
//!
//! Everything is *untimed*: recording happens as a side effect of timed
//! accesses that already exist, never adds simulated cycles, and is a no-op
//! when no tracer is attached — simulated cycle counts are identical with
//! and without a tracer. Events land in a bounded drop-oldest ring
//! ([`Config::trace_buffer_events`](crate::Config::trace_buffer_events)), so
//! memory stays bounded on long runs.
//!
//! Determinism: every recording call happens while its logical thread is the
//! single running thread of the deterministic engine, op ids are assigned
//! from a counter under the tracer lock at those serialized points, and no
//! wall-clock data is recorded — so the full event sequence, and therefore
//! the exported Chrome-trace JSON ([`TraceSink::chrome_json`]), is
//! byte-identical across runs of the same seed and config.
//!
//! Span accounting invariant (checked by `tests/trace_export.rs`): for every
//! completed op, `host + post + wait == end - start` exactly, and
//! `wait == queue + exec + drain` summed over the op's publication-list legs
//! — the host-side cursor marks and NMP-side exec windows tile an op's
//! lifetime with no gaps or overlaps.

mod buffer;
mod chrome;
mod hist;

pub use buffer::{TraceEvent, Track};
pub use chrome::TraceSink;
pub use hist::LatencyHist;

use crate::engine::ThreadKind;
use buffer::EventRing;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Number of distinct op kinds the tracer aggregates over.
pub const OP_KINDS: usize = 7;

/// Human-readable label for an op kind byte (see `hybrids::offload::op_kind`
/// for the mapping from workload ops).
pub fn kind_label(kind: u8) -> &'static str {
    match kind {
        0 => "read",
        1 => "insert",
        2 => "remove",
        3 => "update",
        4 => "scan",
        5 => "extract_min",
        _ => "other",
    }
}

/// Cycle attribution of one completed op, reported by the offload runtime at
/// op completion.
///
/// `host + post + wait == end - start` exactly; `queue + exec + drain ==
/// wait` when every publication-list leg's NMP exec window was correlated
/// (always, in-engine — see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Tracer-assigned op id (matches the op's umbrella events).
    pub op: u64,
    /// Op kind (see [`kind_label`]).
    pub kind: u8,
    /// Invocation cycle.
    pub start: u64,
    /// Completion cycle.
    pub end: u64,
    /// Cycles spent running host-side client code (advance/complete phases,
    /// stall idles, pipelined gaps while unposted).
    pub host: u64,
    /// Cycles spent writing MMIO publication slots.
    pub post: u64,
    /// Cycles from each post's completion to the host observing its
    /// response, summed over legs.
    pub wait: u64,
    /// Portion of `wait` before the NMP combiner began executing the request.
    pub queue: u64,
    /// Portion of `wait` inside the combiner's execute+complete window.
    pub exec: u64,
    /// Portion of `wait` from the combiner's release-store of the response to
    /// the host's observing acquire read (includes the response MMIO reads).
    pub drain: u64,
    /// Number of publication-list legs (posts) the op performed.
    pub legs: u32,
}

/// Aggregate phase totals over completed ops (per kind or overall).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Completed ops aggregated.
    pub ops: u64,
    /// Σ end-to-end latency.
    pub total: u64,
    /// Σ host phase cycles.
    pub host: u64,
    /// Σ MMIO post cycles.
    pub post: u64,
    /// Σ wait cycles (= queue + exec + drain).
    pub wait: u64,
    /// Σ pre-exec queueing cycles.
    pub queue: u64,
    /// Σ NMP execution-window cycles.
    pub exec: u64,
    /// Σ response-drain cycles.
    pub drain: u64,
    /// Σ publication-list legs.
    pub legs: u64,
}

impl PhaseTotals {
    fn add(&mut self, r: &OpRecord) {
        self.ops += 1;
        self.total += r.end - r.start;
        self.host += r.host;
        self.post += r.post;
        self.wait += r.wait;
        self.queue += r.queue;
        self.exec += r.exec;
        self.drain += r.drain;
        self.legs += u64::from(r.legs);
    }
}

/// Lifecycle counters for cross-checking span accounting at quiescence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Ops that recorded an umbrella begin.
    pub ops_begun: u64,
    /// Ops that recorded an umbrella end (== begun at quiescence).
    pub ops_completed: u64,
    /// Publication-list legs posted by host clients.
    pub legs_posted: u64,
    /// Legs executed by NMP combiners (== posted at quiescence).
    pub legs_executed: u64,
    /// Legs whose response the host observed (== posted at quiescence).
    pub legs_observed: u64,
    /// Events currently held in the ring.
    pub events: u64,
    /// Events evicted from the ring (oldest-first).
    pub events_dropped: u64,
}

/// An open publication-list leg, keyed by `(partition, slot)`.
#[derive(Debug, Clone, Copy)]
struct Leg {
    op: u64,
    posted: u64,
    exec_start: u64,
    exec_end: u64,
    executed: bool,
}

#[derive(Debug)]
struct Inner {
    events: EventRing,
    roster: Vec<(String, ThreadKind)>,
    next_op: u64,
    legs: BTreeMap<(usize, usize), Leg>,
    records: Vec<OpRecord>,
    totals: [PhaseTotals; OP_KINDS],
    hist: [LatencyHist; OP_KINDS],
    ops_begun: u64,
    ops_completed: u64,
    legs_posted: u64,
    legs_executed: u64,
    legs_observed: u64,
}

/// The structured event tracer. One per [`crate::Machine`]; see module docs.
#[derive(Debug)]
pub struct Tracer {
    cap: usize,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// New tracer with an event-ring (and op-record) capacity of `cap`.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            cap,
            inner: Mutex::new(Inner {
                events: EventRing::new(cap),
                roster: Vec::new(),
                next_op: 0,
                legs: BTreeMap::new(),
                records: Vec::new(),
                totals: [PhaseTotals::default(); OP_KINDS],
                hist: std::array::from_fn(|_| LatencyHist::new()),
                ops_begun: 0,
                ops_completed: 0,
                legs_posted: 0,
                legs_executed: 0,
                legs_observed: 0,
            }),
        }
    }

    /// Called by [`crate::Simulation::run`] with the spawned thread roster;
    /// names the exporter's per-thread tracks.
    pub fn on_sim_start(&self, roster: &[(String, ThreadKind)]) {
        self.inner.lock().roster = roster.to_vec();
    }

    /// Begin an op umbrella on `core`'s track; returns the op id.
    pub fn op_begin(&self, core: usize, kind: u8, now: u64) -> u64 {
        let mut g = self.inner.lock();
        let op = g.next_op;
        g.next_op += 1;
        g.ops_begun += 1;
        g.events.push(TraceEvent::OpBegin { core, kind, op, ts: now });
        op
    }

    /// Complete an op: emits the umbrella end, records latency into the
    /// per-kind histogram, and folds the record into phase totals.
    pub fn op_end(&self, core: usize, rec: OpRecord) {
        let mut g = self.inner.lock();
        let kind = (rec.kind as usize).min(OP_KINDS - 1);
        g.ops_completed += 1;
        g.totals[kind].add(&rec);
        g.hist[kind].record(rec.end - rec.start);
        if g.records.len() < self.cap {
            g.records.push(rec);
        }
        g.events.push(TraceEvent::OpEnd { core, kind: rec.kind, op: rec.op, ts: rec.end });
    }

    /// Record a publication post: a `post` span on the host track and an open
    /// leg on `(part, slot)` awaiting its NMP exec window and host observe.
    pub fn note_post(&self, core: usize, part: usize, slot: usize, op: u64, start: u64, end: u64) {
        let mut g = self.inner.lock();
        g.legs_posted += 1;
        g.events.push(TraceEvent::Span {
            track: Track::Host(core),
            name: "post",
            start,
            end,
            arg: op,
        });
        g.legs.insert(
            (part, slot),
            Leg { op, posted: end, exec_start: 0, exec_end: 0, executed: false },
        );
    }

    /// Record an NMP combiner's execute+complete window for `(part, slot)`;
    /// emits an `exec` span on the partition's NMP track.
    pub fn note_exec(&self, part: usize, slot: usize, start: u64, end: u64) {
        let mut g = self.inner.lock();
        g.legs_executed += 1;
        let op = if let Some(leg) = g.legs.get_mut(&(part, slot)) {
            leg.exec_start = start;
            leg.exec_end = end;
            leg.executed = true;
            leg.op
        } else {
            0
        };
        g.events.push(TraceEvent::Span {
            track: Track::Nmp(part),
            name: "exec",
            start,
            end,
            arg: op,
        });
    }

    /// Record a combiner batch pass over `part` that executed `n` requests.
    pub fn note_batch(&self, part: usize, start: u64, end: u64, n: u64) {
        let mut g = self.inner.lock();
        g.events.push(TraceEvent::Span {
            track: Track::Nmp(part),
            name: "batch",
            start,
            end,
            arg: n,
        });
    }

    /// The host observed the response for `(part, slot)` at cycle `now`:
    /// closes the leg and returns its `(queue, exec, drain)` decomposition,
    /// or `None` if no executed leg was open (never happens in-engine; see
    /// module docs).
    pub fn leg_observed(&self, part: usize, slot: usize, now: u64) -> Option<(u64, u64, u64)> {
        let mut g = self.inner.lock();
        let leg = g.legs.remove(&(part, slot))?;
        if !leg.executed || leg.exec_start < leg.posted || now < leg.exec_end {
            return None;
        }
        g.legs_observed += 1;
        Some((leg.exec_start - leg.posted, leg.exec_end - leg.exec_start, now - leg.exec_end))
    }

    /// Emit a zero-duration marker on `track`.
    pub fn instant(&self, track: Track, name: &'static str, ts: u64) {
        let mut g = self.inner.lock();
        g.events.push(TraceEvent::Instant { track, name, ts });
    }

    /// Emit a counter-track sample.
    pub fn counter(&self, name: &'static str, ts: u64, value: u64) {
        let mut g = self.inner.lock();
        g.events.push(TraceEvent::Counter { name, ts, value });
    }

    /// Record a DRAM vault busy window (one per vault access).
    pub fn vault_busy(&self, vault: usize, start: u64, end: u64) {
        let mut g = self.inner.lock();
        g.events.push(TraceEvent::Span {
            track: Track::Vault(vault),
            name: "busy",
            start,
            end,
            arg: 0,
        });
    }

    /// Record a host last-level-cache miss on `core` at cycle `ts`.
    pub fn llc_miss(&self, core: usize, ts: u64) {
        self.instant(Track::Host(core), "llc-miss", ts);
    }

    /// Lifecycle counters (see [`TraceSummary`]).
    pub fn summary(&self) -> TraceSummary {
        let g = self.inner.lock();
        TraceSummary {
            ops_begun: g.ops_begun,
            ops_completed: g.ops_completed,
            legs_posted: g.legs_posted,
            legs_executed: g.legs_executed,
            legs_observed: g.legs_observed,
            events: g.events.len() as u64,
            events_dropped: g.events.dropped(),
        }
    }

    /// Per-op cycle-attribution records (bounded by the ring capacity; the
    /// first `cap` completed ops are kept).
    pub fn op_records(&self) -> Vec<OpRecord> {
        self.inner.lock().records.clone()
    }

    /// Phase totals per op kind, only for kinds that completed ops.
    pub fn phase_totals(&self) -> Vec<(u8, PhaseTotals)> {
        let g = self.inner.lock();
        (0..OP_KINDS as u8)
            .filter(|&k| g.totals[k as usize].ops > 0)
            .map(|k| (k, g.totals[k as usize]))
            .collect()
    }

    /// Phase totals summed across all op kinds.
    pub fn phase_totals_all(&self) -> PhaseTotals {
        let g = self.inner.lock();
        let mut all = PhaseTotals::default();
        for t in &g.totals {
            all.ops += t.ops;
            all.total += t.total;
            all.host += t.host;
            all.post += t.post;
            all.wait += t.wait;
            all.queue += t.queue;
            all.exec += t.exec;
            all.drain += t.drain;
            all.legs += t.legs;
        }
        all
    }

    /// Snapshot of the surviving ring events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().copied().collect()
    }

    /// The thread roster captured at the last `Simulation::run`.
    pub fn roster(&self) -> Vec<(String, ThreadKind)> {
        self.inner.lock().roster.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lifecycle_and_leg_decomposition() {
        let t = Tracer::new(64);
        let op = t.op_begin(0, 0, 100);
        t.note_post(0, 1, 3, op, 110, 120);
        t.note_exec(1, 3, 150, 170);
        let (q, e, d) = t.leg_observed(1, 3, 200).expect("leg closes");
        assert_eq!((q, e, d), (30, 20, 30));
        t.op_end(
            0,
            OpRecord {
                op,
                kind: 0,
                start: 100,
                end: 210,
                host: 20,
                post: 10,
                wait: 80,
                queue: q,
                exec: e,
                drain: d,
                legs: 1,
            },
        );
        let s = t.summary();
        assert_eq!(s.ops_begun, 1);
        assert_eq!(s.ops_completed, 1);
        assert_eq!(s.legs_posted, 1);
        assert_eq!(s.legs_executed, 1);
        assert_eq!(s.legs_observed, 1);
        let all = t.phase_totals_all();
        assert_eq!(all.total, 110);
        assert_eq!(all.host + all.post + all.wait, all.total);
        assert_eq!(all.queue + all.exec + all.drain, all.wait);
        let rec = t.op_records();
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].end - rec[0].start, 110);
    }

    #[test]
    fn observe_without_leg_is_none() {
        let t = Tracer::new(8);
        assert_eq!(t.leg_observed(0, 0, 5), None);
    }
}
