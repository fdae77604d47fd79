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
//! nothing until another thread's MMIO write lands on a word it watches, or
//! until the run stops. The waker puts it back in the queue with the
//! smallest key of its own above the waking turn's, so the thread resumes
//! before anything later than the wake happens.

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

/// `count` words `stride` bytes apart from `base`: what a parked thread
/// watches for writes.
#[derive(Debug, Clone, Copy)]
pub(super) struct Watch {
    pub(super) base: Addr,
    pub(super) stride: u32,
    pub(super) count: u32,
}

impl Watch {
    fn covers(&self, addr: Addr) -> bool {
        addr >= self.base
            && (addr - self.base).is_multiple_of(self.stride)
            && (addr - self.base) / self.stride < self.count
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
    /// "'name' panicked at simulated cycle N: message".
    panic_note: Cell<Option<String>>,
    /// Set by the turn that wakes the thread from [`Sched::park`].
    woken: Cell<Option<Wake>>,
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
    /// Parked threads and their watches; none of them is in the queue.
    parked: RefCell<Vec<(usize, Watch)>>,
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

    /// Park thread `id`, running the turn `key`, until a turn writes a word
    /// of `watch` through MMIO or the run stops. Returns at once if the run
    /// is already stopping.
    pub(super) fn park(&self, id: usize, key: u64, watch: Watch) -> Wake {
        if self.stop_query(key) {
            return Wake::Stop(if self.panicked.get() { key } else { self.nd_last_key.get() });
        }
        self.parked.borrow_mut().push((id, watch));
        self.threads[id].coro.suspend();
        self.threads[id].woken.take().expect("a parked thread resumes only when woken")
    }

    /// The turn `key` wrote `addr` through MMIO: wake every thread parked
    /// on a watch that covers it.
    pub(super) fn on_mmio_write(&self, addr: Addr, key: u64) {
        let mut parked = self.parked.borrow_mut();
        let mut i = 0;
        while i < parked.len() {
            if parked[i].1.covers(addr) {
                let (id, _) = parked.swap_remove(i);
                self.wake(id, Wake::Write(key));
            } else {
                i += 1;
            }
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
        for (id, _) in self.parked.take() {
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
                    panic_note: Cell::new(None),
                    woken: Cell::new(None),
                }
            })
            .collect(),
        nd_live: Cell::new(non_daemons),
        nd_last_key: Cell::new(0),
        panicked: Cell::new(false),
        after_stop: Cell::new(0),
        parked: RefCell::new(Vec::new()),
        last_reset: Cell::new(0),
    });

    while let Some((id, key)) = sched.next() {
        let t = &sched.threads[id];
        if let Some(Err(p)) = t.coro.resume() {
            t.panic_note.set(Some(format!(
                "'{}' panicked at simulated cycle {}: {}",
                t.name,
                t.final_clock.get(),
                panic_message(p.as_ref())
            )));
            sched.panicked.set(true);
            sched.wake_all(Wake::Stop(key));
        }
    }
    assert!(sched.parked.borrow().is_empty(), "a thread was still parked when the run ended");

    let notes: Vec<String> = sched.threads.iter().filter_map(|t| t.panic_note.take()).collect();
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
        let w = Watch { base: 1024, stride: 64, count: 3 };
        assert!(w.covers(1024) && w.covers(1088) && w.covers(1152));
        assert!(!w.covers(1016) && !w.covers(1032) && !w.covers(1216));
    }
}
