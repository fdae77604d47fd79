//! Exhaustive interleaving check of the three cross-thread word
//! protocols the structures rely on, in the style of `loom` but
//! hand-rolled (no dependencies): every schedule of two model threads is
//! enumerated by DFS, and each schedule is checked with the same
//! vector-clock happens-before rules as `nmp_sim::analysis::race`:
//!
//! * a cell becomes a *sync cell* the first time it sees an
//!   acquire/release access; sync loads join the thread clock with the
//!   cell clock, sync stores join the cell clock with the thread clock and
//!   bump the thread's epoch;
//! * plain accesses to data cells race when two threads touch the cell,
//!   at least one writes, and neither happens-before the other.
//!
//! Protocols under test:
//!
//! 1. the publication-list ctrl word (`publist.rs`): payload words are
//!    written plain, then the ctrl word is release-written; the other side
//!    acquire-reads ctrl until it observes the flag, then reads the
//!    payload plain — including the full round trip where the same slot
//!    words are reused for the response;
//! 2. the pqueue minima cells (`pqueue/cells.rs`): the packed
//!    key|present word *is* the sync cell — release-written by
//!    `refresh_cache`, acquire-read by `merge_step`;
//! 3. caller-combines on a native run (`publist.rs`): both threads are
//!    posters, and whichever wins the partition's try-lock runs the
//!    combining pass over both slots — the lock is what orders successive
//!    combiners' plain accesses to the partition.
//!
//! For each protocol a demoted variant (release downgraded to a plain
//! write, or the guard skipped) must race in at least one schedule —
//! establishing that the test can actually see the bug the annotations
//! prevent.
//!
//! Schedules are counted, not walked one by one: the DFS memoizes on the
//! full model state, which is what keeps the third protocol (two ~20-step
//! threads with branches) tractable.
//!
//! Spinning is modeled exactly but boundedly: while a `SpinAcq` has not
//! observed its expected value, the scheduler may run it as a *failed
//! poll* — the acquire read happens (promoting the cell, joining clocks)
//! but the program counter does not advance — up to a fixed per-thread
//! poll budget, which keeps the schedule space finite while still
//! interleaving polls with the other thread's stores.

/// One model-thread instruction over a tiny cell-indexed memory.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Plain data write of `1` (values only matter for spin guards).
    Write(usize, u64),
    /// Release write.
    WriteRel(usize, u64),
    /// Plain data read.
    Read(usize),
    /// Acquire read (no guard).
    ReadAcq(usize),
    /// Acquire read that only executes once the cell holds `expected`.
    SpinAcq(usize, u64),
    /// Atomic store that orders nothing (a relaxed store): never itself a
    /// data race, but it publishes none of the thread's earlier accesses.
    Store(usize, u64),
    /// A combiner's scan of one slot: acquire-read the ctrl cell and note in
    /// thread-local register `.2` whether it holds `.1` (a posted request).
    ScanAcq(usize, u64, usize),
    /// Skip the next `.1` steps unless register `.0` is set. Thread-local:
    /// touches no memory and is resolved as part of the preceding step.
    SkipUnless(usize, usize),
    /// Head of a native poster's wait loop. Acquire-read the thread's own
    /// ctrl cell; if it holds `done` the request has been served — jump to
    /// `done_pc`. Otherwise try the lock (acquire CAS 0 -> 1): on success
    /// fall through into the combining pass, on failure poll again (a failed
    /// poll, bounded like `SpinAcq`'s).
    LockOrDone { lock: usize, ctrl: usize, done: u64, done_pc: usize },
}

/// Thread-local registers per model thread (one per slot a pass scans).
const REGS: usize = 2;

const THREADS: usize = 2;

/// Per-cell access history, as in `race.rs`: the last write plus the reads
/// since it, at most one per thread; `(tid, epoch)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct CellHistory {
    last_write: Option<(usize, u32)>,
    reads: Vec<(usize, u32)>,
}

/// Failed polls a spinning thread may issue before it parks until its
/// guard can succeed.
const POLL_BUDGET: u8 = 2;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    pcs: [usize; THREADS],
    regs: [[bool; REGS]; THREADS],
    mem: Vec<u64>,
    /// `Some(clock)` once the cell is promoted to a sync cell.
    sync: Vec<Option<[u32; THREADS]>>,
    vc: [[u32; THREADS]; THREADS],
    cells: Vec<CellHistory>,
    polls: [u8; THREADS],
    raced: bool,
}

impl State {
    fn new(num_cells: usize) -> State {
        let mut vc = [[0u32; THREADS]; THREADS];
        for (t, clock) in vc.iter_mut().enumerate() {
            clock[t] = 1; // as after `on_sim_start`
        }
        State {
            pcs: [0; THREADS],
            regs: [[false; REGS]; THREADS],
            mem: vec![0; num_cells],
            sync: vec![None; num_cells],
            vc,
            cells: vec![CellHistory::default(); num_cells],
            polls: [0; THREADS],
            raced: false,
        }
    }
}

fn join(into: &mut [u32; THREADS], other: &[u32; THREADS]) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

/// Apply one step's memory access for thread `tid`, mirroring
/// `RaceDetector::on_access`. Control flow (registers, jumps, the lock CAS)
/// is the scheduler's business, see `advance`.
fn apply(s: &mut State, tid: usize, step: Step) {
    let (c, is_write, is_sync_op, value) = match step {
        Step::Write(c, v) => (c, true, false, Some(v)),
        Step::WriteRel(c, v) => (c, true, true, Some(v)),
        Step::Read(c) => (c, false, false, None),
        Step::ReadAcq(c) | Step::SpinAcq(c, _) | Step::ScanAcq(c, _, _) => (c, false, true, None),
        Step::Store(c, v) => {
            // Atomic but unordered: the cell is a sync cell from now on (no
            // plain-access race on it), and its clock learns nothing.
            if s.sync[c].is_none() {
                s.sync[c] = Some([0; THREADS]);
                s.cells[c] = CellHistory::default();
            }
            s.mem[c] = v;
            return;
        }
        Step::SkipUnless(..) | Step::LockOrDone { .. } => {
            unreachable!("control-flow steps are expanded by the scheduler")
        }
    };

    // Promotion: the first annotated access makes the cell a sync cell and
    // drops its plain-access history.
    if is_sync_op && s.sync[c].is_none() {
        s.sync[c] = Some([0; THREADS]);
        s.cells[c] = CellHistory::default();
    }

    if let Some(clock) = &mut s.sync[c] {
        // Sync cell: loads acquire, stores release (plain or annotated).
        if is_write {
            join(clock, &s.vc[tid]);
            s.vc[tid][tid] += 1;
        } else {
            let clock = *clock;
            join(&mut s.vc[tid], &clock);
        }
    } else {
        // Plain access to a data cell: happens-before race check.
        let epoch = s.vc[tid][tid];
        let hist = &mut s.cells[c];
        if let Some((wt, we)) = hist.last_write {
            s.raced |= wt != tid && s.vc[tid][wt] < we;
        }
        if is_write {
            for &(rt, re) in &hist.reads {
                s.raced |= rt != tid && s.vc[tid][rt] < re;
            }
            hist.last_write = Some((tid, epoch));
            hist.reads.clear();
        } else if let Some(slot) = hist.reads.iter_mut().find(|(rt, _)| *rt == tid) {
            *slot = (tid, epoch);
        } else {
            hist.reads.push((tid, epoch));
        }
    }

    if let Some(v) = value {
        s.mem[c] = v;
    }
}

/// How a thread may be scheduled next.
#[derive(Debug, Clone, Copy)]
enum Transition {
    /// Execute the step at the current pc and move on.
    Advance(usize),
    /// A spin whose guard is not yet satisfied performs its acquire read
    /// without advancing (bounded by [`POLL_BUDGET`]).
    FailedPoll(usize),
}

/// Can thread `t`'s current step complete in state `s`? `None`: the thread
/// has finished.
fn ready(s: &State, prog: &[Step], t: usize) -> Option<bool> {
    Some(match *prog.get(s.pcs[t])? {
        Step::SpinAcq(c, want) => s.mem[c] == want,
        Step::LockOrDone { lock, ctrl, done, .. } => s.mem[ctrl] == done || s.mem[lock] == 0,
        _ => true,
    })
}

/// Execute thread `t`'s current step and move its pc.
fn advance(s: &mut State, prog: &[Step], t: usize) {
    let step = prog[s.pcs[t]];
    s.pcs[t] += 1;
    match step {
        Step::ScanAcq(c, want, reg) => {
            apply(s, t, step);
            s.regs[t][reg] = s.mem[c] == want;
        }
        Step::LockOrDone { lock, ctrl, done, done_pc } => {
            apply(s, t, Step::ReadAcq(ctrl));
            if s.mem[ctrl] == done {
                s.pcs[t] = done_pc;
            } else {
                // The winning CAS is an acquire, not a release: it learns
                // the lock cell's clock and publishes nothing.
                apply(s, t, Step::ReadAcq(lock));
                s.mem[lock] = 1;
            }
        }
        _ => apply(s, t, step),
    }
    while let Some(&Step::SkipUnless(reg, n)) = prog.get(s.pcs[t]) {
        s.pcs[t] += if s.regs[t][reg] { 1 } else { 1 + n };
    }
}

/// Count every schedule by DFS, memoized on the model state. Returns
/// `(schedules, schedules_with_races)`.
fn explore(progs: [&[Step]; THREADS], num_cells: usize) -> (u64, u64) {
    type Memo = std::collections::HashMap<State, (u64, u64)>;
    fn rec(s: &State, progs: [&[Step]; THREADS], memo: &mut Memo) -> (u64, u64) {
        if let Some(&counts) = memo.get(s) {
            return counts;
        }
        let mut enabled: Vec<Transition> = Vec::new();
        let mut parked = false;
        for (t, prog) in progs.iter().enumerate() {
            match ready(s, prog, t) {
                None => {}
                Some(true) => enabled.push(Transition::Advance(t)),
                Some(false) => {
                    parked = true;
                    if s.polls[t] < POLL_BUDGET {
                        enabled.push(Transition::FailedPoll(t));
                    }
                }
            }
        }
        if enabled.is_empty() {
            // Spinners whose budget ran out with no thread able to unblock
            // them would show up here as a deadlock.
            assert!(!parked, "schedule deadlocked on a spin guard: {s:?}");
            return (1, u64::from(s.raced));
        }
        let mut counts = (0, 0);
        for tr in enabled {
            let mut next = s.clone();
            match tr {
                Transition::Advance(t) => advance(&mut next, progs[t], t),
                Transition::FailedPoll(t) => {
                    let (Step::SpinAcq(c, _) | Step::LockOrDone { ctrl: c, .. }) =
                        progs[t][s.pcs[t]]
                    else {
                        unreachable!("only spins poll")
                    };
                    apply(&mut next, t, Step::ReadAcq(c));
                    next.polls[t] += 1;
                }
            }
            let (schedules, racy) = rec(&next, progs, memo);
            counts.0 += schedules;
            counts.1 += racy;
        }
        memo.insert(s.clone(), counts);
        counts
    }
    rec(&State::new(num_cells), progs, &mut Memo::new())
}

// Cell roles for the publication-list slot model.
const CTRL: usize = 0;
const W1: usize = 1;
const W2: usize = 2;

#[test]
fn publist_post_scan_protocol_is_race_free_in_all_schedules() {
    // Host `post`: payload plain, ctrl release. NMP `scan`: ctrl acquire
    // (spin), payload plain.
    let host = [Step::Write(W1, 1), Step::Write(W2, 1), Step::WriteRel(CTRL, 1)];
    let nmp = [Step::SpinAcq(CTRL, 1), Step::Read(W1), Step::Read(W2)];
    let (schedules, racy) = explore([&host, &nmp], 3);
    assert!(schedules > 1, "expected multiple schedules, got {schedules}");
    assert_eq!(racy, 0, "{racy} of {schedules} schedules raced");
}

#[test]
fn publist_full_round_trip_reusing_slot_words_is_race_free() {
    // The real slot protocol reuses the same words for the response: the
    // NMP side overwrites the payload words it just read and
    // release-writes DONE into ctrl; the host acquire-spins on ctrl and
    // reads the result words back.
    let host = [
        Step::Write(W1, 1),
        Step::Write(W2, 1),
        Step::WriteRel(CTRL, 1),
        Step::SpinAcq(CTRL, 2),
        Step::Read(W1),
        Step::Read(W2),
    ];
    let nmp = [
        Step::SpinAcq(CTRL, 1),
        Step::Read(W1),
        Step::Read(W2),
        Step::Write(W1, 2),
        Step::Write(W2, 2),
        Step::WriteRel(CTRL, 2),
    ];
    let (schedules, racy) = explore([&host, &nmp], 3);
    assert!(schedules > 1);
    assert_eq!(racy, 0, "{racy} of {schedules} schedules raced");
}

#[test]
fn publist_demoted_ctrl_release_races() {
    // Downgrade the host's ctrl release to a plain write: in schedules
    // where the NMP side's acquire promotes the ctrl cell only after the
    // plain write, no happens-before edge covers the payload words.
    let host = [Step::Write(W1, 1), Step::Write(W2, 1), Step::Write(CTRL, 1)];
    let nmp = [Step::SpinAcq(CTRL, 1), Step::Read(W1), Step::Read(W2)];
    let (schedules, racy) = explore([&host, &nmp], 3);
    assert!(racy > 0, "demoted release should race in some of the {schedules} schedules");
}

#[test]
fn publist_unguarded_payload_read_races() {
    // Reading the payload without waiting on ctrl races even though the
    // ctrl word itself is properly release/acquire.
    let host = [Step::Write(W1, 1), Step::Write(W2, 1), Step::WriteRel(CTRL, 1)];
    let nmp = [Step::Read(W1), Step::Read(W2), Step::ReadAcq(CTRL)];
    let (schedules, racy) = explore([&host, &nmp], 3);
    assert!(racy > 0, "unguarded reads should race in some of the {schedules} schedules");
}

#[test]
fn pqueue_minima_cell_is_race_free_in_all_schedules() {
    // `refresh_cache` release-writes the packed key|present word;
    // `merge_step` acquire-reads it. The word is its own sync cell, so
    // repeated refreshes against repeated merges never race.
    let refresher = [Step::WriteRel(0, 7), Step::WriteRel(0, 9)];
    let merger = [Step::ReadAcq(0), Step::ReadAcq(0)];
    let (schedules, racy) = explore([&refresher, &merger], 1);
    assert!(schedules > 1);
    assert_eq!(racy, 0, "{racy} of {schedules} schedules raced");
}

#[test]
fn pqueue_minima_cell_demoted_to_plain_races() {
    let refresher = [Step::Write(0, 7)];
    let merger = [Step::Read(0)];
    let (schedules, racy) = explore([&refresher, &merger], 1);
    assert_eq!(racy, schedules, "plain write vs plain read races in every schedule");
}

// Cell roles for the caller-combines model: two slots (ctrl, request word,
// response word each), the partition's lock, and one cell standing for
// everything the lock protects — the partition's memory and the combiner's
// own pass state.
const LOCK: usize = 0;
const PART: usize = 1;
const fn ctrl(slot: usize) -> usize {
    2 + 3 * slot
}
const fn req(slot: usize) -> usize {
    3 + 3 * slot
}
const fn resp(slot: usize) -> usize {
    4 + 3 * slot
}
const COMBINE_CELLS: usize = 8;
const POSTED: u64 = 1;
const SERVED: u64 = 2;

/// A native poster (`PubLists::post` + `wait_response`) owning slot `me`:
/// post, then loop { served? done : try-lock and combine }. `unlock` is the
/// step that drops the partition's lock; `None` combines without taking it.
fn caller_combines(me: usize, unlock: Option<Step>) -> Vec<Step> {
    let mut prog = vec![Step::Write(req(me), 1), Step::WriteRel(ctrl(me), POSTED)];
    let pass = [
        // `combine_pass`: reset the batch buffer, scan every slot, ...
        Step::Write(PART, 1),
        Step::ScanAcq(ctrl(0), POSTED, 0),
        Step::ScanAcq(ctrl(1), POSTED, 1),
    ];
    // ... then, per posted slot: read the request, run it against the
    // partition, write the response words, release the ctrl word.
    let serve = |slot: usize| {
        [
            Step::SkipUnless(slot, 5),
            Step::Read(req(slot)),
            Step::Read(PART),
            Step::Write(PART, 1),
            Step::Write(resp(slot), 1),
            Step::WriteRel(ctrl(slot), SERVED),
        ]
    };
    // The pass ends on its own state (the batch loop's bound), after the
    // last ctrl release: only the lock orders this against the next pass.
    let tail = [Step::Read(PART)];
    let body = pass.len() + 2 * serve(0).len() + tail.len();
    if unlock.is_some() {
        let done_pc = prog.len() + 1 + body + 1;
        prog.push(Step::LockOrDone { lock: LOCK, ctrl: ctrl(me), done: SERVED, done_pc });
    }
    prog.extend(pass);
    prog.extend(serve(0));
    prog.extend(serve(1));
    prog.extend(tail);
    prog.extend(unlock);
    // `read_response`: the poster's own pass served its slot if nobody
    // else's did, so this never waits on a thread that is not running.
    prog.extend([Step::SpinAcq(ctrl(me), SERVED), Step::Read(resp(me))]);
    prog
}

#[test]
fn caller_combines_under_the_partition_lock_is_race_free_and_always_answers() {
    let unlock = Some(Step::WriteRel(LOCK, 0));
    let (a, b) = (caller_combines(0, unlock), caller_combines(1, unlock));
    // `explore` asserts every schedule runs both threads to their last
    // step, which is the read of their own response.
    let (schedules, racy) = explore([&a, &b], COMBINE_CELLS);
    assert!(schedules > 1_000, "expected a large schedule space, got {schedules}");
    assert_eq!(racy, 0, "{racy} of {schedules} schedules raced");
}

#[test]
fn caller_combines_with_a_plain_unlock_races_on_the_partition() {
    // The lock word still excludes (the model's memory is sequentially
    // consistent), but an unlock that is not a release publishes nothing:
    // the next winner's pass is unordered against the tail of this one.
    let unlock = Some(Step::Store(LOCK, 0));
    let (a, b) = (caller_combines(0, unlock), caller_combines(1, unlock));
    let (schedules, racy) = explore([&a, &b], COMBINE_CELLS);
    assert!(racy > 0, "a plain unlock should race in some of the {schedules} schedules");
    assert!(racy < schedules, "schedules where one pass serves both never hand the lock over");
}

#[test]
fn caller_combines_without_the_lock_races_on_the_partition() {
    let (a, b) = (caller_combines(0, None), caller_combines(1, None));
    let (schedules, racy) = explore([&a, &b], COMBINE_CELLS);
    assert!(racy > 0, "unlocked combining should race in some of the {schedules} schedules");
}
