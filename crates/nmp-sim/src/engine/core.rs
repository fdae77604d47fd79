//! Deterministic discrete-event engine with logical threads.
//!
//! Each logical thread (a host hardware thread or an NMP core) runs real
//! Rust code on its own OS thread, and the scheduler (`engine/shard.rs`)
//! resumes threads in `(local clock, spawn id)` order: **effects on shared
//! words apply exactly as if one logical thread executed at a time**, the
//! runnable thread with the smallest key first. Every timed memory
//! operation is a yield point, so threads interleave at memory-access
//! granularity — the granularity at which concurrent data-structure races
//! actually occur — and, because all latencies are deterministic functions
//! of simulator state, an entire simulation is bit-for-bit reproducible.
//!
//! Memory operations take effect at their *completion* time: the issuing
//! thread charges the latency, sleeps, and applies the data-plane effect
//! when it is next scheduled (at which point its key is below every key
//! that could still touch the same words, so effects are applied in global
//! simulated-time order — a sequentially-consistent execution).
//!
//! This file holds the thread-side half: [`ThreadCtx`] and its accessors,
//! the [`Simulation`] builder, and the worker wrapper every logical thread
//! runs in.

use std::panic::{self, AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};

use parking_lot::Mutex;

use crate::analysis::MemOp;
use crate::backend::Ram;
use crate::config::Config;
use crate::mem::{Addr, MemorySystem, Region};

use super::barrier;
use super::inbox;
use super::shard::{self, ShardedRt};

/// Latency charged to an access that violates the region policy while an
/// analysis is attached (the real machine path does not exist; this keeps
/// negative fixtures making simulated-time progress).
const POLICY_FALLBACK_LAT: u64 = 100;

pub(super) const ST_INIT: u32 = 0;
pub(super) const ST_GO: u32 = 1;
pub(super) const ST_YIELD: u32 = 2;
pub(super) const ST_DONE: u32 = 3;

/// What kind of processor a logical thread models; decides how its memory
/// accesses are routed and priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadKind {
    /// A host hardware thread pinned to `core` (owns that core's L1).
    Host {
        /// Index of the host core this thread is pinned to.
        core: usize,
    },
    /// The NMP core coupled to partition `part`.
    Nmp {
        /// Index of the partition (and NMP core) this thread runs on.
        part: usize,
    },
}

pub(super) struct ThreadShared {
    pub(super) name: String,
    pub(super) kind: ThreadKind,
    pub(super) daemon: bool,
    pub(super) state: AtomicU32,
    pub(super) clock: AtomicU64,
    pub(super) handle: Mutex<Option<Thread>>,
    pub(super) panicked: AtomicBool,
    /// "'name' panicked at simulated cycle N: message", captured by the
    /// worker wrapper for the engine to surface in its own panic.
    pub(super) panic_note: Mutex<Option<String>>,
    /// Cross-shard gate of the pending (yet-to-apply) effect; read by the
    /// shard scheduler before resuming this thread.
    pub(super) gate: AtomicU32,
    /// Deferred trace/analysis log, stashed by the worker wrapper and merged
    /// after the run drains.
    pub(super) deferred: Mutex<Option<inbox::ThreadLog>>,
}

impl ThreadShared {
    /// Shared state of a not-yet-started logical thread on a `cfg` machine.
    ///
    /// # Panics
    /// If `kind` names a host core or NMP partition `cfg` does not have.
    pub(super) fn new(name: String, kind: ThreadKind, daemon: bool, cfg: &Config) -> Self {
        match kind {
            ThreadKind::Host { core } => {
                assert!(core < cfg.host_cores, "core {core} out of range")
            }
            ThreadKind::Nmp { part } => {
                assert!(part < cfg.nmp_partitions(), "partition {part} out of range")
            }
        }
        ThreadShared {
            name,
            kind,
            daemon,
            state: AtomicU32::new(ST_INIT),
            clock: AtomicU64::new(0),
            handle: Mutex::new(None),
            panicked: AtomicBool::new(false),
            panic_note: Mutex::new(None),
            gate: AtomicU32::new(barrier::GATE_NONE),
            deferred: Mutex::new(None),
        }
    }
}

pub(super) struct EngineShared {
    pub(super) engine_thread: Mutex<Option<Thread>>,
    pub(super) stop: AtomicBool,
}

/// How long to busy-spin before parking/yielding. On a single-CPU machine a
/// spin can never observe the other thread's store, so spinning is pure
/// waste — park immediately instead.
pub(super) fn spin_budget() -> u32 {
    static BUDGET: OnceLock<u32> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        if thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            128
        } else {
            0
        }
    })
}

pub(super) fn spin_wait<F: Fn() -> bool>(cond: F) {
    let budget = spin_budget();
    let mut spins = 0u32;
    while !cond() {
        spins += 1;
        if spins < budget {
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

pub(super) fn unpark(slot: &Mutex<Option<Thread>>) {
    if let Some(t) = slot.lock().as_ref() {
        t.unpark();
    }
}

/// Best-effort extraction of a panic payload's message (the payload itself
/// cannot cross the engine boundary usefully, but its text can).
pub(super) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Execution context handed to each logical thread's closure. All timed
/// memory operations go through here.
pub struct ThreadCtx {
    pub(super) kind: ThreadKind,
    pub(super) id: usize,
    pub(super) ts: Arc<ThreadShared>,
    pub(super) eng: Arc<EngineShared>,
    pub(super) mem: Arc<MemorySystem>,
    pub(super) clock: u64,
    pub(super) pending: u64,
    pub(super) cpu_step: u64,
    /// The simulation's scheduler. `None` ⇔ native mode (see
    /// [`crate::engine::NativeRun`]): the thread is a free running OS
    /// thread, every accessor performs only its data op on the [`Ram`] (no
    /// timing, no engine yield, no tracing), and `idle` is an OS-level yield.
    pub(super) rt: Option<Arc<ShardedRt>>,
    /// Index of the shard that owns this thread (0 in a native run).
    pub(super) my_shard: usize,
    /// Gate of the effect the next `sleep` leaves pending; consumed by the
    /// yield and handed to the shard scheduler through `ThreadShared::gate`.
    pub(super) next_gate: u32,
}

impl ThreadCtx {
    /// Current simulated time of this thread in cycles (including any
    /// accrued-but-uncommitted compute time).
    pub fn now(&self) -> u64 {
        self.clock + self.pending
    }

    /// What kind of processor this thread models (host core or NMP core).
    pub fn kind(&self) -> ThreadKind {
        self.kind
    }

    /// Engine-assigned thread id (spawn order, daemons included).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The memory system this thread's accesses are routed through.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// True for a thread of a [`crate::engine::NativeRun`]: a free-running
    /// OS thread with no scheduler, no timing and no region policy, on which
    /// a host context may also do an NMP core's work (there is no NMP
    /// processor to hand it to).
    #[inline]
    pub fn is_native(&self) -> bool {
        self.rt.is_none()
    }

    /// Accrue `cycles` of local compute time. Cheap (no scheduler
    /// round-trip); committed at the next timed operation.
    pub fn advance(&mut self, cycles: u64) {
        self.pending += cycles;
    }

    /// Accrue one configured CPU step (e.g. a key comparison).
    pub fn step(&mut self) {
        self.pending += self.cpu_step;
    }

    /// Commit accrued time plus `extra_lat` and hand control back to the
    /// scheduler; returns when this thread is next due to run. Simulated
    /// threads only.
    ///
    /// The handoff is peer-to-peer: the yielding thread runs its shard's
    /// scheduling step itself — when its own new key is still the shard
    /// minimum it resumes immediately with no OS round-trip at all (the
    /// common case for vault-local bursts).
    fn sleep(&mut self, extra_lat: u64) {
        debug_assert!(extra_lat >= 1, "timed ops must advance time");
        let rt = self.rt.as_deref().expect("native threads never reach the scheduler");
        self.clock += self.pending + extra_lat;
        self.pending = 0;
        let gate = std::mem::replace(&mut self.next_gate, barrier::GATE_NONE);
        self.ts.clock.store(self.clock, Ordering::Release);
        self.ts.gate.store(gate, Ordering::Relaxed);
        self.ts.state.store(ST_YIELD, Ordering::Release);
        if rt.sched_step(self.my_shard, Some(self.id)) != Some(self.id) {
            spin_wait(|| self.ts.state.load(Ordering::Acquire) == ST_GO);
        }
        inbox::set_clock(self.clock);
    }

    /// Yield a full poll interval (used by spin/poll loops so they always
    /// make simulated-time progress). In native mode there is no simulated
    /// time to burn; the poll loop yields the OS thread instead (and the
    /// local clock still advances so `now`-based heuristics stay monotone).
    pub fn idle(&mut self, cycles: u64) {
        if self.is_native() {
            self.clock += self.pending + cycles.max(1);
            self.pending = 0;
            thread::yield_now();
            return;
        }
        self.sleep(cycles.max(1));
    }

    /// True once every non-daemon thread has finished; daemon loops (NMP
    /// cores) should exit promptly when they observe this.
    pub fn stop_requested(&self) -> bool {
        match &self.rt {
            // The keyed stop query answers "had every non-daemon finished
            // when the sequential order scheduled this turn?".
            Some(rt) => rt.ctl().stop_query(barrier::pack(self.clock, self.id)),
            None => self.eng.stop.load(Ordering::Acquire),
        }
    }

    /// Cross-shard gate for a policy-clean access about to be issued. The
    /// scratchpads are the only region shared between shards (host MMIO on
    /// one side, the owning NMP core on the other); everything else is
    /// shard-local — and so is a scratchpad whose other side lives in this
    /// thread's own shard (always, under the single-loop topology).
    fn gate_for(&self, addr: Addr) -> u32 {
        let rt = self.rt.as_deref().expect("native threads never reach the scheduler");
        let peer = match (self.kind, self.mem.map().region_of(addr)) {
            (ThreadKind::Host { .. }, Region::Spad(p)) => rt.shard_of_part(p),
            (ThreadKind::Nmp { .. }, Region::Spad(_)) => shard::HOST_SHARD,
            _ => return barrier::GATE_NONE,
        };
        if peer == self.my_shard {
            barrier::GATE_NONE
        } else {
            barrier::gate_on(peer)
        }
    }

    /// Price an access about to be issued: the region-policy check first
    /// (with an analysis attached, a violation is recorded and charged a
    /// fallback latency instead of panicking inside the memory system), then
    /// the timing model — the MMIO window if `mmio`, else this thread kind's
    /// direct path.
    fn route(
        &mut self,
        addr: Addr,
        is_write: bool,
        mmio: bool,
        site: &'static Location<'static>,
    ) -> u64 {
        assert!(!mmio || matches!(self.kind, ThreadKind::Host { .. }), "MMIO is a host-side path");
        let now = self.now();
        if let Some(a) = self.mem.analysis() {
            if a.check_policy(self.id, self.kind, addr, is_write, mmio, now, site) {
                // The access escapes the ownership map; gate on every shard
                // so the effect is still applied in global key order.
                self.next_gate = barrier::GATE_ALL;
                return POLICY_FALLBACK_LAT;
            }
        }
        let lat = match self.kind {
            _ if mmio => self.mem.mmio_access(now, addr, is_write),
            ThreadKind::Host { core } => self.mem.host_access(core, now, addr, is_write),
            ThreadKind::Nmp { part } => self.mem.nmp_access(part, now, addr, is_write),
        };
        self.next_gate = self.gate_for(addr);
        lat
    }

    /// The one access path behind every public accessor. `data` is the
    /// access itself, on the machine's [`Ram`]: a native thread does nothing
    /// else; a simulated thread first prices it, sleeps until its completion
    /// time and then applies it, so effects land in global simulated-time
    /// order. `data` names the [`MemOp`] it performed next to its value (a
    /// CAS only knows afterwards) for the attached analysis, which is fed at
    /// that same completion time — the engine's single serialization point —
    /// so the race detector sees the global sequentially-consistent order.
    #[inline]
    fn access<T>(
        &mut self,
        addr: Addr,
        bytes: u32,
        is_write: bool,
        mmio: bool,
        site: &'static Location<'static>,
        data: impl FnOnce(&Ram) -> (MemOp, T),
    ) -> T {
        if self.is_native() {
            return data(self.mem.ram()).1;
        }
        let lat = self.route(addr, is_write, mmio, site);
        self.sleep(lat);
        let (op, out) = data(self.mem.ram());
        if let Some(a) = self.mem.analysis() {
            a.on_access(self.id, self.clock, addr, bytes, op, mmio, site);
        }
        out
    }

    /// Timed 64-bit load.
    #[track_caller]
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        let site = Location::caller();
        self.access(addr, 8, false, false, site, |ram| (MemOp::Read, ram.read_u64(addr)))
    }

    /// Timed 64-bit store.
    #[track_caller]
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        let site = Location::caller();
        self.access(addr, 8, true, false, site, |ram| (MemOp::Write, ram.write_u64(addr, value)))
    }

    /// Timed 32-bit load.
    #[track_caller]
    pub fn read_u32(&mut self, addr: Addr) -> u32 {
        let site = Location::caller();
        self.access(addr, 4, false, false, site, |ram| (MemOp::Read, ram.read_u32(addr)))
    }

    /// Timed 32-bit store.
    #[track_caller]
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        let site = Location::caller();
        self.access(addr, 4, true, false, site, |ram| (MemOp::Write, ram.write_u32(addr, value)))
    }

    /// Timed 64-bit load with *acquire* ordering: everything the releasing
    /// thread did before its matching release-store happens-before the code
    /// after this load. Identical timing to [`ThreadCtx::read_u64`]; the
    /// ordering is real on the [`Ram`] and tells the race detector that this
    /// is a synchronization read.
    #[track_caller]
    pub fn read_u64_acquire(&mut self, addr: Addr) -> u64 {
        let site = Location::caller();
        self.access(addr, 8, false, false, site, |ram| {
            (MemOp::ReadAcquire, ram.read_u64_acquire(addr))
        })
    }

    /// Timed 64-bit store with *release* ordering (see
    /// [`ThreadCtx::read_u64_acquire`]).
    #[track_caller]
    pub fn write_u64_release(&mut self, addr: Addr, value: u64) {
        let site = Location::caller();
        self.access(addr, 8, true, false, site, |ram| {
            (MemOp::WriteRelease, ram.write_u64_release(addr, value))
        })
    }

    /// Timed 32-bit acquire load (see [`ThreadCtx::read_u64_acquire`]).
    #[track_caller]
    pub fn read_u32_acquire(&mut self, addr: Addr) -> u32 {
        let site = Location::caller();
        self.access(addr, 4, false, false, site, |ram| {
            (MemOp::ReadAcquire, ram.read_u32_acquire(addr))
        })
    }

    /// Timed 32-bit release store (see [`ThreadCtx::read_u64_acquire`]).
    #[track_caller]
    pub fn write_u32_release(&mut self, addr: Addr, value: u32) {
        let site = Location::caller();
        self.access(addr, 4, true, false, site, |ram| {
            (MemOp::WriteRelease, ram.write_u32_release(addr, value))
        })
    }

    /// Timed *speculative* 64-bit load: an optimistic read under a seqlock
    /// whose value is validated (and discarded on conflict) by re-reading
    /// the sequence word. The race detector neither checks nor orders it.
    #[track_caller]
    pub fn read_u64_speculative(&mut self, addr: Addr) -> u64 {
        let site = Location::caller();
        self.access(addr, 8, false, false, site, |ram| (MemOp::ReadSpeculative, ram.read_u64(addr)))
    }

    /// Timed speculative 32-bit load (see
    /// [`ThreadCtx::read_u64_speculative`]).
    #[track_caller]
    pub fn read_u32_speculative(&mut self, addr: Addr) -> u32 {
        let site = Location::caller();
        self.access(addr, 4, false, false, site, |ram| (MemOp::ReadSpeculative, ram.read_u32(addr)))
    }

    /// Timed atomic compare-and-swap on a 64-bit word. Returns `Ok(())` on
    /// success, `Err(actual)` on mismatch. Applied instantaneously at the
    /// operation's completion time. A CAS is always a synchronization
    /// operation for the race detector: acquire, plus release on success.
    #[track_caller]
    pub fn cas_u64(&mut self, addr: Addr, expect: u64, new: u64) -> Result<(), u64> {
        let site = Location::caller();
        self.access(addr, 8, true, false, site, |ram| {
            let result = ram.cas_u64(addr, expect, new);
            (MemOp::Cas { success: result.is_ok() }, result)
        })
    }

    /// Timed atomic compare-and-swap on a 32-bit word.
    #[track_caller]
    pub fn cas_u32(&mut self, addr: Addr, expect: u32, new: u32) -> Result<(), u32> {
        let site = Location::caller();
        self.access(addr, 4, true, false, site, |ram| {
            let result = ram.cas_u32(addr, expect, new);
            (MemOp::Cas { success: result.is_ok() }, result)
        })
    }

    /// Timed host MMIO load from a scratchpad word (host threads only).
    #[track_caller]
    pub fn mmio_read_u64(&mut self, addr: Addr) -> u64 {
        let site = Location::caller();
        self.access(addr, 8, false, true, site, |ram| (MemOp::Read, ram.read_u64(addr)))
    }

    /// Timed host MMIO store to a scratchpad word (host threads only).
    #[track_caller]
    pub fn mmio_write_u64(&mut self, addr: Addr, value: u64) {
        let site = Location::caller();
        self.access(addr, 8, true, true, site, |ram| (MemOp::Write, ram.write_u64(addr, value)))
    }

    /// Timed MMIO acquire load (the host side of the publication-slot
    /// control-word handoff; see [`ThreadCtx::read_u64_acquire`]).
    #[track_caller]
    pub fn mmio_read_u64_acquire(&mut self, addr: Addr) -> u64 {
        let site = Location::caller();
        self.access(addr, 8, false, true, site, |ram| {
            (MemOp::ReadAcquire, ram.read_u64_acquire(addr))
        })
    }

    /// Timed MMIO release store (publishes a publication-slot request; see
    /// [`ThreadCtx::read_u64_acquire`]).
    #[track_caller]
    pub fn mmio_write_u64_release(&mut self, addr: Addr, value: u64) {
        let site = Location::caller();
        self.access(addr, 8, true, true, site, |ram| {
            (MemOp::WriteRelease, ram.write_u64_release(addr, value))
        })
    }
}

/// A boxed logical-thread body, as accepted by the object-safe spawning
/// surface ([`crate::engine::Spawner`]) shared by simulated and native runs.
pub type ThreadFn = Box<dyn FnOnce(&mut ThreadCtx) + Send + 'static>;

/// Outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Final clock of each logical thread, in spawn order.
    pub clocks: Vec<u64>,
    /// Thread names, in spawn order.
    pub names: Vec<String>,
    /// Whether each thread was a daemon.
    pub daemons: Vec<bool>,
}

impl SimOutcome {
    /// Largest final clock among non-daemon threads: the makespan of the
    /// measured work.
    pub fn makespan(&self) -> u64 {
        self.clocks
            .iter()
            .zip(&self.daemons)
            .filter(|(_, d)| !**d)
            .map(|(c, _)| *c)
            .max()
            .unwrap_or(0)
    }
}

/// A configured simulation: a memory system plus logical threads to run.
pub struct Simulation {
    mem: Arc<MemorySystem>,
    eng: Arc<EngineShared>,
    threads: Vec<Arc<ThreadShared>>,
    bodies: Vec<ThreadFn>,
    cpu_step: u64,
}

impl Simulation {
    /// Build a simulation with a fresh memory system for `cfg`.
    pub fn new(cfg: Config) -> Self {
        Self::with_memory(Arc::new(MemorySystem::new(cfg)))
    }

    /// Build a simulation around an existing memory system (lets callers
    /// pre-populate structures through the untimed data plane first).
    pub fn with_memory(mem: Arc<MemorySystem>) -> Self {
        let cpu_step = mem.config().cpu_step_cycles;
        Simulation {
            mem,
            eng: Arc::new(EngineShared {
                engine_thread: Mutex::new(None),
                stop: AtomicBool::new(false),
            }),
            threads: Vec::new(),
            bodies: Vec::new(),
            cpu_step,
        }
    }

    /// Shared handle to the simulation's memory system.
    pub fn mem(&self) -> Arc<MemorySystem> {
        Arc::clone(&self.mem)
    }

    /// Add a logical thread. The simulation ends when all non-daemon
    /// threads return.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        kind: ThreadKind,
        f: impl FnOnce(&mut ThreadCtx) + Send + 'static,
    ) {
        self.spawn_inner(name.into(), kind, false, Box::new(f));
    }

    /// Add a daemon thread (an NMP core service loop): it must poll
    /// [`ThreadCtx::stop_requested`] and return promptly once it is set.
    pub fn spawn_daemon(
        &mut self,
        name: impl Into<String>,
        kind: ThreadKind,
        f: impl FnOnce(&mut ThreadCtx) + Send + 'static,
    ) {
        self.spawn_inner(name.into(), kind, true, Box::new(f));
    }

    fn spawn_inner(&mut self, name: String, kind: ThreadKind, daemon: bool, f: ThreadFn) {
        self.threads.push(Arc::new(ThreadShared::new(name, kind, daemon, self.mem.config())));
        self.bodies.push(f);
    }

    /// Run to completion on the calling thread; returns per-thread clocks.
    /// Propagates the first panic raised inside any logical thread.
    pub fn run(self) -> SimOutcome {
        let Simulation { mem, eng, threads, bodies, cpu_step } = self;
        assert!(!threads.is_empty(), "no threads spawned");
        *eng.engine_thread.lock() = Some(thread::current());

        if let Some(a) = mem.analysis() {
            let roster: Vec<(String, ThreadKind)> =
                threads.iter().map(|t| (t.name.clone(), t.kind)).collect();
            a.on_sim_start(&roster);
        }

        if let Some(t) = mem.tracer() {
            let roster: Vec<(String, ThreadKind)> =
                threads.iter().map(|t| (t.name.clone(), t.kind)).collect();
            t.on_sim_start(&roster);
        }

        shard::run(mem, eng, threads, bodies, cpu_step)
    }
}

/// Spawn one OS thread per logical thread, each running the worker protocol
/// of scheduler `rt`: announce, wait for the first GO, install the deferral
/// context, run the body, and hand the shard's token on at exit.
pub(super) fn spawn_workers(
    mem: &Arc<MemorySystem>,
    eng: &Arc<EngineShared>,
    threads: &[Arc<ThreadShared>],
    bodies: Vec<ThreadFn>,
    cpu_step: u64,
    rt: &Arc<ShardedRt>,
) -> Vec<thread::JoinHandle<()>> {
    let mut joins = Vec::with_capacity(bodies.len());
    for (id, (ts, body)) in threads.iter().cloned().zip(bodies).enumerate() {
        let eng2 = Arc::clone(eng);
        let mem2 = Arc::clone(mem);
        let rt = Arc::clone(rt);
        joins.push(
            thread::Builder::new()
                .name(format!("sim-{}", ts.name))
                .spawn(move || {
                    *ts.handle.lock() = Some(thread::current());
                    // Announce readiness and wait for the first GO.
                    ts.state.store(ST_YIELD, Ordering::Release);
                    unpark(&eng2.engine_thread);
                    {
                        let ts2 = Arc::clone(&ts);
                        spin_wait(move || ts2.state.load(Ordering::Acquire) == ST_GO);
                    }
                    let my_shard = rt.shard_of(ts.kind);
                    inbox::begin_thread(id, my_shard, rt.ctl_arc());
                    let mut ctx = ThreadCtx {
                        kind: ts.kind,
                        id,
                        ts: Arc::clone(&ts),
                        eng: Arc::clone(&eng2),
                        mem: mem2,
                        clock: ts.clock.load(Ordering::Acquire),
                        pending: 0,
                        cpu_step,
                        rt: Some(Arc::clone(&rt)),
                        my_shard,
                        next_gate: barrier::GATE_NONE,
                    };
                    inbox::set_clock(ctx.clock);
                    let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                    // Start cycle of the turn the body returned in: the key
                    // at which the sequential order observes ST_DONE.
                    let final_turn = ctx.clock;
                    let final_clock = ctx.clock + ctx.pending;
                    ctx.ts.clock.store(final_clock, Ordering::Release);
                    if let Err(p) = result {
                        let msg = panic_message(p.as_ref());
                        *ts.panic_note.lock() = Some(format!(
                            "'{}' panicked at simulated cycle {final_clock}: {msg}",
                            ts.name
                        ));
                        ts.panicked.store(true, Ordering::Release);
                        rt.ctl().flag_panic();
                    }
                    if !ts.daemon {
                        rt.ctl().non_daemon_done(barrier::pack(final_turn, id));
                    }
                    ts.state.store(ST_DONE, Ordering::Release);
                    // Hand the shard's scheduling token to the next pending
                    // thread (and republish the frontiers).
                    rt.sched_step(my_shard, Some(id));
                    *ts.deferred.lock() = Some(inbox::end_thread());
                })
                .expect("spawn sim thread"),
        );
    }
    joins
}

/// Wait until every worker has announced readiness (left `ST_INIT`).
pub(super) fn await_announcements(threads: &[Arc<ThreadShared>]) {
    for ts in threads {
        let ts2 = Arc::clone(ts);
        spin_wait(move || ts2.state.load(Ordering::Acquire) != ST_INIT);
    }
}

/// Propagate the first panic of the (already joined) workers, or build the
/// outcome.
pub(super) fn finish(threads: &[Arc<ThreadShared>]) -> SimOutcome {
    if threads.iter().any(|t| t.panicked.load(Ordering::Acquire)) {
        let notes: Vec<String> = threads
            .iter()
            .filter(|t| t.panicked.load(Ordering::Acquire))
            .map(|t| {
                t.panic_note.lock().take().unwrap_or_else(|| format!("'{}' (message lost)", t.name))
            })
            .collect();
        panic!("simulated thread(s) panicked: {}", notes.join("; "));
    }
    SimOutcome {
        clocks: threads.iter().map(|t| t.clock.load(Ordering::Acquire)).collect(),
        names: threads.iter().map(|t| t.name.clone()).collect(),
        daemons: threads.iter().map(|t| t.daemon).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn tiny_sim() -> Simulation {
        Simulation::new(Config::tiny())
    }

    #[test]
    fn single_thread_reads_what_it_wrote() {
        let mut sim = tiny_sim();
        let base = sim.mem().map().host_base;
        sim.spawn("t0", ThreadKind::Host { core: 0 }, move |ctx| {
            ctx.write_u64(base, 42);
            assert_eq!(ctx.read_u64(base), 42);
        });
        let out = sim.run();
        assert!(out.makespan() > 0);
    }

    #[test]
    fn clock_advances_by_latency() {
        let mut sim = tiny_sim();
        let base = sim.mem().map().host_base;
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        sim.spawn("t0", ThreadKind::Host { core: 0 }, move |ctx| {
            let t0 = ctx.now();
            let _ = ctx.read_u64(base); // cold: L1+L2+DRAM
            seen2.store(ctx.now() - t0, Ordering::Relaxed);
        });
        sim.run();
        let lat = seen.load(Ordering::Relaxed);
        assert!(lat > 22, "cold read should cost more than L1+L2 ({lat})");
    }

    #[test]
    fn min_clock_scheduling_orders_effects() {
        // Thread A writes at t=10 (after a cheap advance); thread B writes
        // at t=1000. Final value must be B's.
        let mut sim = tiny_sim();
        let base = sim.mem().map().host_base;
        sim.spawn("a", ThreadKind::Host { core: 0 }, move |ctx| {
            ctx.advance(10);
            ctx.write_u64(base, 1);
        });
        sim.spawn("b", ThreadKind::Host { core: 1 }, move |ctx| {
            ctx.advance(1000);
            ctx.write_u64(base, 2);
        });
        let mem = sim.mem();
        sim.run();
        assert_eq!(mem.ram().read_u64(base), 2);
    }

    #[test]
    fn cas_succeeds_once_across_threads() {
        let mut sim = tiny_sim();
        let base = sim.mem().map().host_base;
        let wins = Arc::new(AtomicUsize::new(0));
        for core in 0..4 {
            let wins = Arc::clone(&wins);
            sim.spawn(format!("t{core}"), ThreadKind::Host { core }, move |ctx| {
                if ctx.cas_u64(base, 0, core as u64 + 1).is_ok() {
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        sim.run();
        assert_eq!(wins.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn deterministic_makespan() {
        let run = || {
            let mut sim = tiny_sim();
            let base = sim.mem().map().host_base;
            for core in 0..4 {
                sim.spawn(format!("t{core}"), ThreadKind::Host { core }, move |ctx| {
                    for i in 0..50u32 {
                        let a = base + ((i * 7919 + core as u32 * 104729) % 1024) * 8;
                        if i % 3 == 0 {
                            ctx.write_u64(a, i as u64);
                        } else {
                            let _ = ctx.read_u64(a);
                        }
                        ctx.step();
                    }
                });
            }
            sim.run().makespan()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn daemon_exits_on_stop() {
        let mut sim = tiny_sim();
        let polls = Arc::new(AtomicUsize::new(0));
        let polls2 = Arc::clone(&polls);
        sim.spawn_daemon("nmp0", ThreadKind::Nmp { part: 0 }, move |ctx| {
            while !ctx.stop_requested() {
                polls2.fetch_add(1, Ordering::Relaxed);
                ctx.idle(16);
            }
        });
        let base = sim.mem().map().host_base;
        sim.spawn("host", ThreadKind::Host { core: 0 }, move |ctx| {
            for i in 0..20 {
                let _ = ctx.read_u64(base + i * 8);
            }
        });
        let out = sim.run();
        assert!(polls.load(Ordering::Relaxed) > 0);
        assert!(out.makespan() > 0);
    }

    #[test]
    fn makespan_ignores_daemons() {
        let mut sim = tiny_sim();
        sim.spawn_daemon("nmp0", ThreadKind::Nmp { part: 0 }, |ctx| {
            while !ctx.stop_requested() {
                ctx.idle(1000);
            }
        });
        let base = sim.mem().map().host_base;
        sim.spawn("host", ThreadKind::Host { core: 0 }, move |ctx| {
            let _ = ctx.read_u64(base);
        });
        let out = sim.run();
        // daemon clock may be far past host's; makespan must track host.
        let host_clock = out.clocks[1];
        assert_eq!(out.makespan(), host_clock);
    }

    #[test]
    #[should_panic(expected = "simulated thread(s) panicked")]
    fn worker_panic_propagates() {
        let mut sim = tiny_sim();
        sim.spawn("bad", ThreadKind::Host { core: 0 }, |_ctx| {
            panic!("boom");
        });
        sim.spawn("good", ThreadKind::Host { core: 1 }, |ctx| {
            ctx.idle(5);
        });
        sim.run();
    }

    #[test]
    fn worker_panic_carries_name_clock_and_message() {
        let mut sim = tiny_sim();
        sim.spawn("exploder", ThreadKind::Host { core: 0 }, |ctx| {
            ctx.advance(123);
            ctx.idle(7);
            panic!("kaboom {}", 42);
        });
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("simulated thread(s) panicked"), "{msg}");
        assert!(msg.contains("'exploder'"), "missing thread name: {msg}");
        assert!(msg.contains("simulated cycle 130"), "missing clock: {msg}");
        assert!(msg.contains("kaboom 42"), "missing payload message: {msg}");
    }

    #[test]
    fn nmp_thread_accesses_its_partition() {
        let mut sim = tiny_sim();
        let part0 = sim.mem().map().part_base(0);
        sim.spawn("nmp0", ThreadKind::Nmp { part: 0 }, move |ctx| {
            ctx.write_u64(part0, 7);
            assert_eq!(ctx.read_u64(part0), 7);
        });
        sim.run();
    }

    #[test]
    fn mmio_visible_between_host_and_nmp() {
        let mut sim = tiny_sim();
        let spad = sim.mem().map().spad_base(0);
        sim.spawn_daemon("nmp0", ThreadKind::Nmp { part: 0 }, move |ctx| {
            loop {
                let v = ctx.read_u64(spad);
                if v == 1 {
                    ctx.write_u64(spad + 8, 99);
                    break;
                }
                if ctx.stop_requested() {
                    return;
                }
                ctx.idle(16);
            }
            while !ctx.stop_requested() {
                ctx.idle(16);
            }
        });
        sim.spawn("host", ThreadKind::Host { core: 0 }, move |ctx| {
            ctx.mmio_write_u64(spad, 1);
            loop {
                if ctx.mmio_read_u64(spad + 8) == 99 {
                    break;
                }
                ctx.idle(40);
            }
        });
        sim.run();
    }

    #[test]
    fn advance_is_lazy_but_counted() {
        let mut sim = tiny_sim();
        let base = sim.mem().map().host_base;
        let end = Arc::new(AtomicU64::new(0));
        let end2 = Arc::clone(&end);
        sim.spawn("t", ThreadKind::Host { core: 0 }, move |ctx| {
            ctx.advance(500);
            let _ = ctx.read_u64(base);
            end2.store(ctx.now(), Ordering::Relaxed);
        });
        sim.run();
        assert!(end.load(Ordering::Relaxed) >= 500);
    }
}
