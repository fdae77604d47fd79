//! The scheduler: one minimum-`(clock, spawn id)` loop over every logical
//! thread of a simulation, on the OS thread that called
//! [`Simulation::run`](super::Simulation::run).
//!
//! Each logical thread is a [`Coro`]. A thread runs until its next timed
//! operation, commits the operation's completion cycle as its new key and
//! calls [`Sched::yield_turn`]: while that key is still below every other
//! thread's it keeps running with no switch at all (a vault-local burst of a
//! combiner pass, for instance), otherwise it suspends and the loop resumes
//! the thread with the smallest key. Keys are unique and a thread's key only
//! grows, so turns run in strictly increasing key order: effects on shared
//! words, trace events and analysis events all happen in the global
//! `(completion cycle, spawn id)` order while the run is live (see
//! `DESIGN.md` §4.9).
//!
//! A thread may also *park* ([`Sched::park`]): it leaves the queue and costs
//! nothing until another thread's write lands on a scratchpad word it
//! watches, or until the run stops. The waker puts it back in the queue
//! with the smallest key of its own above the waking turn's, so the thread
//! resumes before anything later than the wake happens.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use crate::mem::{Addr, MemorySystem};

use super::core::{panic_message, Engine, SimOutcome, ThreadCtx, ThreadFn, ThreadKind};
use super::coro::Coro;

/// Bits of a packed key reserved for the spawn id.
const ID_BITS: u32 = 16;

/// Largest representable cycle in a packed key (48 bits ≈ 78 hours of
/// simulated time at 1 GHz — far beyond any experiment in this repo).
const MAX_CLOCK: u64 = (1 << (64 - ID_BITS)) - 1;

/// Largest spawn id a simulation may use.
const MAX_THREADS: usize = 1 << ID_BITS;

/// Pack `(cycle, spawn id)` into a totally ordered `u64` key.
#[inline]
pub(super) fn pack(clock: u64, id: usize) -> u64 {
    debug_assert!(clock <= MAX_CLOCK, "simulated clock overflows packed key");
    debug_assert!(id < MAX_THREADS);
    (clock << ID_BITS) | id as u64
}

/// The smallest clock at which thread `id`'s key exceeds `key`.
pub(super) fn first_clock_after(key: u64, id: usize) -> u64 {
    let (clock, key_id) = (key >> ID_BITS, (key & ((1 << ID_BITS) - 1)) as usize);
    if id > key_id {
        clock
    } else {
        clock + 1
    }
}

/// A parked thread, with the smallest and largest of the scratchpad words
/// it watches: a combiner's control words, or the scattered control words
/// a host's lanes wait on. The span turns most writes away without a look
/// at the words themselves.
#[derive(Debug, Clone, Copy)]
struct Parked {
    id: usize,
    lo: Addr,
    hi: Addr,
    /// The scratchpads the words sit in, as a [`part_bit`] mask.
    parts: u64,
}

/// A scratchpad's bit in a mask of watched scratchpads (shared above 64
/// partitions, which costs a needless look, never a missed wake).
pub(super) fn part_bit(part: usize) -> u64 {
    1 << (part % 64)
}

impl Parked {
    fn new(id: usize, words: &[Addr], parts: u64) -> Self {
        let (Some(&lo), Some(&hi)) = (words.iter().min(), words.iter().max()) else {
            panic!("a parked thread watches at least one word")
        };
        Parked { id, lo, hi, parts }
    }

    /// Whether a write to `addr` lands on one of `words`, this thread's.
    fn covers(&self, words: &[Addr], addr: Addr) -> bool {
        (self.lo..=self.hi).contains(&addr) && words.contains(&addr)
    }
}

/// Why a parked thread resumed, with the key of the turn that woke it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Wake {
    /// The turn wrote a watched word.
    Write(u64),
    /// The run stops: every stop check keyed above this answers true.
    Stop(u64),
}

/// A logical thread as spawned: name, kind, daemon flag and body.
pub(super) struct Spawned {
    pub(super) name: String,
    pub(super) kind: ThreadKind,
    pub(super) daemon: bool,
    pub(super) body: ThreadFn,
}

struct Thread {
    name: String,
    daemon: bool,
    coro: Coro,
    /// Clock when the body ended (committed time plus accrued compute).
    final_clock: Cell<u64>,
    /// Set by the turn that wakes the thread from [`Sched::park`].
    woken: Cell<Option<Wake>>,
    /// The words the thread watches while parked, refilled at every park.
    watch: RefCell<Vec<Addr>>,
}

/// The state of one run, shared by the loop and every thread's context.
pub(super) struct Sched {
    threads: Vec<Thread>,
    /// Next-turn keys of the suspended threads, minimum first. The running
    /// thread's key is not in it.
    queue: RefCell<BinaryHeap<Reverse<u64>>>,
    /// Non-daemon threads whose body has not yet ended.
    nd_live: Cell<usize>,
    /// Largest final-turn key over the non-daemons that ended.
    nd_last_key: Cell<u64>,
    /// A body panicked: every `stop_requested` answers true so the
    /// daemons exit and the run drains.
    panicked: Cell<bool>,
    /// Turns taken after the last non-daemon ended (safety valve against
    /// daemons that ignore `stop_requested`).
    after_stop: Cell<u64>,
    /// Parked threads; none of them is in the queue.
    parked: RefCell<Vec<Parked>>,
    /// The scratchpads some parked thread watches, as a [`part_bit`] mask.
    watched: Cell<u64>,
    /// Key of the turn that last reset the memory system's counters
    /// through [`ThreadCtx::reset_stats`] (0 = none).
    last_reset: Cell<u64>,
}

impl Sched {
    /// End this thread's turn at `clock`: keep running if its new key is
    /// still the minimum, otherwise suspend until the loop resumes it.
    pub(super) fn yield_turn(&self, id: usize, clock: u64) {
        if self.nd_live.get() == 0 {
            let n = self.after_stop.get();
            assert!(n < 10_000_000, "daemon threads are not honoring stop_requested()");
            self.after_stop.set(n + 1);
        }
        let key = pack(clock, id);
        {
            let mut queue = self.queue.borrow_mut();
            if queue.peek().is_none_or(|&Reverse(next)| key < next) {
                return;
            }
            queue.push(Reverse(key));
        }
        self.threads[id].coro.suspend();
    }

    /// Would the stop flag be up at the turn `key`: has every non-daemon
    /// ended (at an earlier turn, which in one loop it always did)?
    pub(super) fn stop_query(&self, key: u64) -> bool {
        self.panicked.get() || (self.nd_live.get() == 0 && self.nd_last_key.get() < key)
    }

    /// Thread `id`'s body ended, by return or by unwinding, during the turn
    /// that started at `turn`, with its clock at `final_clock`. The last
    /// non-daemon to end wakes every parked thread to stop.
    pub(super) fn exit(&self, id: usize, turn: u64, final_clock: u64) {
        let t = &self.threads[id];
        t.final_clock.set(final_clock);
        if !t.daemon {
            self.nd_last_key.set(self.nd_last_key.get().max(pack(turn, id)));
            self.nd_live.set(self.nd_live.get() - 1);
            if self.nd_live.get() == 0 {
                self.wake_all(Wake::Stop(self.nd_last_key.get()));
            }
        }
    }

    /// Park thread `id`, running the turn `key`, until a turn writes one of
    /// `words`, which sit in the scratchpads of the [`part_bit`] mask
    /// `parts`, or the run stops. Returns at once if the run is already
    /// stopping.
    pub(super) fn park(&self, id: usize, key: u64, words: &[Addr], parts: u64) -> Wake {
        if self.stop_query(key) {
            return Wake::Stop(if self.panicked.get() { key } else { self.nd_last_key.get() });
        }
        let parked = Parked::new(id, words, parts);
        self.watched.set(self.watched.get() | parts);
        let mut watch = self.threads[id].watch.borrow_mut();
        watch.clear();
        watch.extend_from_slice(words);
        drop(watch);
        self.parked.borrow_mut().push(parked);
        self.threads[id].coro.suspend();
        self.threads[id].woken.take().expect("a parked thread resumes only when woken")
    }

    /// The turn `key` wrote the word `addr` of the scratchpad `part_bit`
    /// stands for, by MMIO or from its NMP core: wake every thread parked
    /// on a watch that covers it. Costs one test unless a parked thread
    /// watches that scratchpad.
    #[inline]
    pub(super) fn on_spad_write(&self, addr: Addr, part_bit: u64, key: u64) {
        if self.watched.get() & part_bit != 0 {
            self.wake_watchers(addr, key);
        }
    }

    fn wake_watchers(&self, addr: Addr, key: u64) {
        let mut parked = self.parked.borrow_mut();
        let mut i = 0;
        let mut woke = false;
        while i < parked.len() {
            let p = parked[i];
            if p.covers(&self.threads[p.id].watch.borrow(), addr) {
                parked.swap_remove(i);
                self.wake(p.id, Wake::Write(key));
                woke = true;
            } else {
                i += 1;
            }
        }
        if woke {
            self.watched.set(parked.iter().fold(0, |m, p| m | p.parts));
        }
    }

    /// The key of the last counter reset made through a thread context.
    pub(super) fn last_reset(&self) -> u64 {
        self.last_reset.get()
    }

    /// The turn `key` reset the memory system's counters.
    pub(super) fn note_reset(&self, key: u64) {
        self.last_reset.set(key);
    }

    fn wake_all(&self, why: Wake) {
        self.watched.set(0);
        for Parked { id, .. } in self.parked.take() {
            self.wake(id, why);
        }
    }

    /// Queue parked thread `id` at its smallest key above the waking turn.
    fn wake(&self, id: usize, why: Wake) {
        let (Wake::Write(key) | Wake::Stop(key)) = why;
        self.threads[id].woken.set(Some(why));
        self.queue.borrow_mut().push(Reverse(pack(first_clock_after(key, id), id)));
    }

    fn next(&self) -> Option<(usize, u64)> {
        let Reverse(key) = self.queue.borrow_mut().pop()?;
        Some(((key & ((1 << ID_BITS) - 1)) as usize, key))
    }
}

/// A simulated thread's context, which reports the thread's final clock to
/// the scheduler however its body ends — returning or unwinding.
struct Exiting(ThreadCtx);

impl Drop for Exiting {
    fn drop(&mut self) {
        let ctx = &self.0;
        ctx.sched().exit(ctx.id, ctx.clock, ctx.clock + ctx.pending);
    }
}

/// Run every thread to completion on the calling OS thread and collect
/// the outcome. Propagates the first panic raised inside any body.
pub(super) fn run(mem: Arc<MemorySystem>, spawned: Vec<Spawned>, cpu_step: u64) -> SimOutcome {
    assert!(spawned.len() < MAX_THREADS, "engine supports at most {MAX_THREADS} logical threads");
    let non_daemons = spawned.iter().filter(|s| !s.daemon).count();
    let sched = Rc::new_cyclic(|me: &Weak<Sched>| Sched {
        queue: RefCell::new((0..spawned.len()).map(|id| Reverse(pack(0, id))).collect()),
        threads: spawned
            .into_iter()
            .enumerate()
            .map(|(id, Spawned { name, kind, daemon, body })| {
                let (me, mem) = (me.clone(), Arc::clone(&mem));
                let start = move || {
                    let rt = me.upgrade().expect("the scheduler outlives its threads");
                    let mut ctx = Exiting(ThreadCtx {
                        kind,
                        id,
                        mem,
                        clock: 0,
                        pending: 0,
                        cpu_step,
                        engine: Engine::Sim(rt),
                    });
                    body(&mut ctx.0);
                };
                Thread {
                    name,
                    daemon,
                    coro: Coro::new(Box::new(start)),
                    final_clock: Cell::new(0),
                    woken: Cell::new(None),
                    watch: RefCell::default(),
                }
            })
            .collect(),
        nd_live: Cell::new(non_daemons),
        nd_last_key: Cell::new(0),
        panicked: Cell::new(false),
        after_stop: Cell::new(0),
        parked: RefCell::new(Vec::new()),
        watched: Cell::new(0),
        last_reset: Cell::new(0),
    });

    // "'name' panicked at simulated cycle N: message", in the order the
    // panics happened: the first is the cause, later ones its consequences.
    let mut notes = Vec::new();
    while let Some((id, key)) = sched.next() {
        let t = &sched.threads[id];
        if let Some(Err(p)) = t.coro.resume() {
            notes.push(format!(
                "'{}' panicked at simulated cycle {}: {}",
                t.name,
                t.final_clock.get(),
                panic_message(p.as_ref())
            ));
            sched.panicked.set(true);
            sched.wake_all(Wake::Stop(key));
        }
    }
    let parked = sched.parked.take();
    if !parked.is_empty() {
        let report: Vec<String> = parked
            .iter()
            .map(|p| {
                let t = &sched.threads[p.id];
                format!("'{}' watching {:#x?}", t.name, t.watch.borrow())
            })
            .collect();
        // A panic wakes every parked thread and refuses every later park,
        // so this is a deadlock, not the aftermath of a panic.
        panic!(
            "deadlock: no thread can run, and these wait on words nobody will write: {}",
            report.join("; ")
        );
    }

    if !notes.is_empty() {
        panic!("simulated thread(s) panicked: {}", notes.join("; "));
    }
    SimOutcome {
        clocks: sched.threads.iter().map(|t| t.final_clock.get()).collect(),
        names: sched.threads.iter().map(|t| t.name.clone()).collect(),
        daemons: sched.threads.iter().map(|t| t.daemon).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_by_clock_then_id() {
        assert!(pack(1, 0) > pack(0, 65_535));
        assert!(pack(7, 3) < pack(7, 4));
        assert!(pack(7, 4) < pack(8, 0));
    }

    #[test]
    fn first_clock_after_breaks_ties_by_id() {
        assert_eq!(first_clock_after(pack(7, 3), 4), 7);
        assert_eq!(first_clock_after(pack(7, 3), 3), 8);
        assert_eq!(first_clock_after(pack(7, 3), 2), 8);
        assert_eq!(first_clock_after(0, 0), 1);
    }

    #[test]
    fn watch_covers_its_words_only() {
        let words = [1024, 1088, 1152];
        let p = Parked::new(0, &words, 1);
        assert!(words.iter().all(|&w| p.covers(&words, w)));
        assert!(![1016, 1032, 1216].iter().any(|&w| p.covers(&words, w)));
        // Scattered words, as a host's lanes in different partitions.
        let words = [9000, 1024];
        let p = Parked::new(0, &words, 3);
        assert!(p.covers(&words, 1024) && p.covers(&words, 9000));
        assert!(![1088, 8936, 9064].iter().any(|&w| p.covers(&words, w)));
    }
}
