//! Bounded ring buffer of trace events.
//!
//! The tracer never allocates proportionally to run length: once the ring is
//! full the oldest event is dropped (and counted), so attaching a tracer to
//! an arbitrarily long simulation has bounded memory. Eviction is purely a
//! function of push order, which is itself deterministic (pushes happen from
//! engine-serialized logical threads), so the surviving event sequence is
//! bit-for-bit reproducible across runs.

use std::collections::VecDeque;

/// A logical track (row) a trace event belongs to.
///
/// Tracks map 1:1 onto Chrome-trace `(pid, tid)` pairs in the exporter: host
/// threads under one process, NMP combiner cores under another, DRAM vaults
/// under a third.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// A logical host thread, identified by its host core index.
    Host(usize),
    /// An NMP combiner core, identified by its partition index.
    Nmp(usize),
    /// A DRAM vault, identified by its global vault index.
    Vault(usize),
}

/// One cycle-stamped trace event.
///
/// All payloads are plain integers or `'static` names: no wall-clock data
/// ever enters the trace, which is what makes exports byte-identical across
/// runs of the same seed/config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A completed duration span on a track (`ph:"X"` in Chrome trace).
    /// `arg` carries the op id for op-lifecycle spans and the batch size for
    /// combiner-pass spans.
    Span {
        /// Track the span is drawn on.
        track: Track,
        /// Static span name (`"post"`, `"exec"`, `"batch"`, `"busy"`, ...).
        name: &'static str,
        /// Start cycle.
        start: u64,
        /// End cycle (inclusive of the last timed access's completion).
        end: u64,
        /// Span argument (op id or batch size, depending on `name`).
        arg: u64,
    },
    /// Start of an op's end-to-end umbrella (async `ph:"b"`); umbrellas may
    /// overlap on one host track in lane-pipelined mode.
    OpBegin {
        /// Issuing host core.
        core: usize,
        /// Op kind (see [`super::kind_label`]).
        kind: u8,
        /// Globally unique (per tracer) op id.
        op: u64,
        /// Invocation cycle.
        ts: u64,
    },
    /// End of an op's umbrella (async `ph:"e"`).
    OpEnd {
        /// Issuing host core.
        core: usize,
        /// Op kind (see [`super::kind_label`]).
        kind: u8,
        /// Op id matching the corresponding [`TraceEvent::OpBegin`].
        op: u64,
        /// Completion cycle.
        ts: u64,
    },
    /// A zero-duration marker (`ph:"i"`), e.g. a retry re-issue or LLC miss.
    Instant {
        /// Track the marker is drawn on.
        track: Track,
        /// Static marker name.
        name: &'static str,
        /// Cycle the marker is stamped at.
        ts: u64,
    },
    /// A counter-track sample (`ph:"C"`), e.g. pqueue stale-empty probes.
    Counter {
        /// Counter-track name.
        name: &'static str,
        /// Cycle of the sample.
        ts: u64,
        /// Counter value at `ts`.
        value: u64,
    },
}

/// Fixed-capacity drop-oldest ring of [`TraceEvent`]s.
#[derive(Debug)]
pub(crate) struct EventRing {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    pub(crate) fn new(cap: usize) -> Self {
        Self { buf: VecDeque::with_capacity(cap.min(4096)), cap: cap.max(1), dropped: 0 }
    }

    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = EventRing::new(2);
        for i in 0..5u64 {
            r.push(TraceEvent::Counter { name: "c", ts: i, value: i });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let ts: Vec<u64> = r
            .iter()
            .map(|e| match e {
                TraceEvent::Counter { ts, .. } => *ts,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ts, vec![3, 4]);
    }
}
