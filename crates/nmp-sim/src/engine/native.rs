//! Native (real-thread) execution over a machine's [`crate::backend::Ram`].
//!
//! A [`NativeRun`] mirrors the [`Simulation`] worker-spawning surface — the
//! same [`ThreadCtx`] handed to each body — but every logical thread is a
//! free-running OS thread. There is no scheduler, no cycle
//! accounting, and no region-policy interception: the [`ThreadCtx`]
//! accessors perform only their data op, the same one a simulation performs
//! on the same words, and here the acquire/release orderings of the
//! publication-list ctrl-word protocol are what orders the threads (see
//! [`crate::backend`]). The simulator remains the correctness oracle; a
//! native run serves the same structure code at hardware speed.
//!
//! What a native run does *not* have is an NMP processor, and so no daemon
//! threads either: its threads are host workers and nothing else. In a
//! simulation an NMP core is a logical thread with its own clock and its own
//! vault shard; natively it would be one more OS thread competing with the
//! host threads for the same CPUs, and every offload would cost two handoffs
//! to it. [`Spawner::nmp_cores`] is how service-spawning code learns which of
//! the two it is attached to: it hands back the simulation to put the flat
//! combiners' daemons on, or `None` when combining is work the posting host
//! thread does itself (`hybrids::publist`).
//!
//! [`Spawner`] is the object-safe common denominator of both run types, so
//! service-spawning code can be written once and attached to either.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use parking_lot::Mutex;

use crate::mem::MemorySystem;

use super::barrier;
use super::core::{
    panic_message, EngineShared, Simulation, ThreadCtx, ThreadFn, ThreadKind, ThreadShared,
};

/// Object-safe spawning surface shared by [`Simulation`] and [`NativeRun`]:
/// code that installs service threads (combiners, worker pools) can take
/// `&mut impl Spawner` and run unchanged on either engine.
pub trait Spawner {
    /// Add a logical worker thread; the run ends when all workers return.
    fn spawn_boxed(&mut self, name: String, kind: ThreadKind, f: ThreadFn);

    /// The simulation whose NMP cores are processors of their own, on which
    /// an NMP-side service is a [`ThreadKind::Nmp`] daemon
    /// ([`Simulation::spawn_daemon`]). `None` means the run has only its
    /// host threads: NMP-side work must be done by whichever of them asks
    /// for it.
    fn nmp_cores(&mut self) -> Option<&mut Simulation>;
}

impl Spawner for Simulation {
    fn spawn_boxed(&mut self, name: String, kind: ThreadKind, f: ThreadFn) {
        self.spawn(name, kind, f);
    }

    fn nmp_cores(&mut self) -> Option<&mut Simulation> {
        Some(self)
    }
}

/// A native run: real OS threads over a machine's memory.
///
/// Threads start executing the moment they are spawned (there is no
/// deferred `run()`); [`NativeRun::finish`] joins them and propagates the
/// first panic.
pub struct NativeRun {
    mem: Arc<MemorySystem>,
    eng: Arc<EngineShared>,
    cpu_step: u64,
    next_id: usize,
    workers: Vec<JoinHandle<()>>,
    panics: Arc<Mutex<Vec<String>>>,
}

impl NativeRun {
    /// Start a run over `mem`.
    pub fn new(mem: Arc<MemorySystem>) -> Self {
        let cpu_step = mem.config().cpu_step_cycles;
        NativeRun {
            mem,
            eng: Arc::new(EngineShared {
                engine_thread: Mutex::new(None),
                stop: AtomicBool::new(false),
            }),
            cpu_step,
            next_id: 0,
            workers: Vec::new(),
            panics: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The memory system this run's threads access.
    pub fn mem(&self) -> Arc<MemorySystem> {
        Arc::clone(&self.mem)
    }

    /// Add (and immediately start) a worker thread.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        kind: ThreadKind,
        f: impl FnOnce(&mut ThreadCtx) + Send + 'static,
    ) {
        self.spawn_boxed(name.into(), kind, Box::new(f));
    }

    /// Join every thread and propagate the first panic raised in any.
    pub fn finish(self) {
        for j in self.workers {
            let _ = j.join();
        }
        let notes = std::mem::take(&mut *self.panics.lock());
        if !notes.is_empty() {
            panic!("native thread(s) panicked: {}", notes.join("; "));
        }
    }
}

impl Spawner for NativeRun {
    fn spawn_boxed(&mut self, name: String, kind: ThreadKind, f: ThreadFn) {
        let ts = Arc::new(ThreadShared::new(name.clone(), kind, false, self.mem.config()));
        let id = self.next_id;
        self.next_id += 1;
        let eng = Arc::clone(&self.eng);
        let mem = Arc::clone(&self.mem);
        let cpu_step = self.cpu_step;
        let panics = Arc::clone(&self.panics);
        let join = thread::Builder::new()
            .name(format!("native-{name}"))
            .spawn(move || {
                let mut ctx = ThreadCtx {
                    kind,
                    id,
                    ts,
                    eng: Arc::clone(&eng),
                    mem,
                    clock: 0,
                    pending: 0,
                    cpu_step,
                    rt: None,
                    my_shard: 0,
                    next_gate: barrier::GATE_NONE,
                };
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)));
                if let Err(p) = result {
                    let msg = panic_message(p.as_ref());
                    panics.lock().push(format!("'{name}' panicked: {msg}"));
                    // Release every worker polling stop, so the run can be
                    // joined instead of hanging.
                    eng.stop.store(true, Ordering::Release);
                }
            })
            .expect("spawn native thread");
        self.workers.push(join);
    }

    fn nmp_cores(&mut self) -> Option<&mut Simulation> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::machine::Machine;

    #[test]
    fn native_threads_share_memory() {
        let m = Machine::new(Config::tiny());
        let addr = m.host_arena().alloc(8);
        m.ram().write_u64(addr, 41);
        let mut run = m.native_run();
        run.spawn("t", ThreadKind::Host { core: 0 }, move |ctx| {
            let v = ctx.read_u64(addr);
            ctx.write_u64(addr, v + 1);
        });
        run.finish();
        assert_eq!(m.ram().read_u64(addr), 42);
    }

    #[test]
    fn native_cas_is_atomic_across_threads() {
        let m = Machine::new(Config::tiny());
        let addr = m.host_arena().alloc(8);
        let mut run = m.native_run();
        for core in 0..4 {
            run.spawn(format!("t{core}"), ThreadKind::Host { core }, move |ctx| {
                for _ in 0..10_000 {
                    loop {
                        let cur = ctx.read_u64(addr);
                        if ctx.cas_u64(addr, cur, cur + 1).is_ok() {
                            break;
                        }
                    }
                }
            });
        }
        run.finish();
        assert_eq!(m.ram().read_u64(addr), 40_000);
    }

    #[test]
    #[should_panic(expected = "native thread(s) panicked")]
    fn native_panic_propagates() {
        let m = Machine::new(Config::tiny());
        let mut run = m.native_run();
        // A sibling that would serve forever: the panic is what stops it.
        run.spawn("serving", ThreadKind::Host { core: 1 }, |ctx| {
            while !ctx.stop_requested() {
                ctx.idle(16);
            }
        });
        run.spawn("bad", ThreadKind::Host { core: 0 }, |_ctx| panic!("boom"));
        run.finish();
    }

    /// One machine, one RAM: a simulation and a native run over the same
    /// machine see each other's stores.
    #[test]
    fn one_machine_serves_both_engines() {
        let m = Machine::new(Config::tiny());
        let addr = m.host_arena().alloc(8);
        let mut sim = m.simulation();
        sim.spawn("sim", ThreadKind::Host { core: 0 }, move |ctx| {
            ctx.write_u32_release(addr + 4, 7)
        });
        sim.run();
        let mut run = m.native_run();
        run.spawn("native", ThreadKind::Host { core: 0 }, move |ctx| {
            assert_eq!(ctx.read_u32_acquire(addr + 4), 7);
            assert_eq!(ctx.cas_u32(addr, 0, 9), Ok(()));
        });
        run.finish();
        assert_eq!(m.ram().read_u64(addr), (7 << 32) | 9);
    }
}
