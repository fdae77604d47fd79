//! Publication list and flat-combining offload protocol (§3.2).
//!
//! Each NMP core owns a scratchpad that is memory-mapped into the host
//! address space. A fixed array of 64-byte slots lives there: slot
//! `core * max_inflight + lane` belongs to host thread `core`'s lane
//! `lane`. To offload an operation, the host writes the request words, then
//! the control word with the valid bit set — each an MMIO write — and waits
//! for the NMP core to clear the valid bit. The NMP core (the *combiner*)
//! repeatedly scans all slots of its partition, executing every posted
//! operation one at a time.
//!
//! Who runs a combining pass depends on the run type, and on nothing else.
//! A [`nmp_sim::Simulation`] models each NMP core as a processor of its
//! own, so [`spawn_combiners`] gives every partition a daemon that loops
//! over `Combiner::combine_pass`; between passes the daemon parks
//! ([`ThreadCtx::park`]) until a host posts into its list, and resumes at
//! the first scan that would have seen the post. The waiting host parks the
//! same way: the model is a host that polls the control word by MMIO every
//! `host_poll_interval_cycles` ([`PubLists::wait_response`]), but it takes
//! no turn until the combiner writes the word, and resumes at the poll that
//! would have seen it, with the skipped polls counted. A [`nmp_sim::NativeRun`]
//! has no such processor: a combiner thread there would be a cost with no
//! model behind it (two OS-thread handoffs per offload), so nothing is
//! spawned and the *posting* host thread combines — classic flat
//! combining. The host side of the protocol ([`PubLists::try_response`])
//! try-locks the partition's combiner and, if it wins, runs one pass over
//! every posted slot, its own included; a loser finds its response already
//! written by the winner, or retries. The lock's release/acquire orders
//! successive combiners' plain accesses to the partition's memory; the
//! ctrl-word protocol below is the same in both cases.
//!
//! Slot layout (8 words):
//!
//! ```text
//! w0  ctrl: VALID | RETRY | RET_OK | LOCK_PATH | opcode<<8
//!     (high half reserved, always zero)
//! w1  key (lo) | value (hi)
//! w2  begin-NMP-traversal ptr (lo) | host node ptr (hi)
//! w3  aux: parent seqnum (B+ tree) or node height (skiplist)
//! w4  result: value (lo) | new NMP node ptr (hi)
//! w5  result: split key (lo) | new child ptr (hi)
//! w6  reserved
//! w7  reserved
//! ```

use std::sync::{Arc, Mutex, OnceLock, TryLockError};

use nmp_sim::{Addr, EffectSpec, Machine, Policy, Resume, Spawner, ThreadCtx, ThreadKind, NULL};
use workloads::{Key, Value};

use crate::offload::policy::{coalesce_run_len, sort_batch, Backoff};

/// Slot size in bytes (one NMP-buffer block would be 2 slots; slots are
/// scratchpad-resident so only MMIO pricing applies).
pub const SLOT_BYTES: u32 = 64;

/// Operation codes (3 bits in the paper; we use a byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Point lookup.
    Read = 0,
    /// In-place value update of an existing key.
    Update = 1,
    /// Insert a new key (fails if present).
    Insert = 2,
    /// Remove a key.
    Remove = 3,
    /// B+ tree: complete an insert whose host-side path is now locked.
    ResumeInsert = 4,
    /// B+ tree: abandon a LOCK_PATH insert (host failed to lock its path).
    UnlockPath = 5,
    /// Range scan within the partition (extension; YCSB-E).
    Scan = 6,
    /// Priority queue: pop the partition's minimum key (extension; §6.3).
    PopMin = 7,
}

impl OpCode {
    fn from_bits(b: u64) -> OpCode {
        match b & 0x7 {
            0 => OpCode::Read,
            1 => OpCode::Update,
            2 => OpCode::Insert,
            3 => OpCode::Remove,
            4 => OpCode::ResumeInsert,
            5 => OpCode::UnlockPath,
            6 => OpCode::Scan,
            _ => OpCode::PopMin,
        }
    }
}

const CTRL_VALID: u64 = 1 << 0;
const CTRL_RETRY: u64 = 1 << 1;
const CTRL_RET_OK: u64 = 1 << 2;
const CTRL_LOCK_PATH: u64 = 1 << 3;

/// An offloaded operation request, as written by the host thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Requested operation.
    pub op: OpCode,
    /// Target key.
    pub key: Key,
    /// Value to insert/update (ignored by reads and removes).
    pub value: Value,
    /// Begin-NMP-traversal node (§3.2 item 3); NULL = partition sentinel.
    pub begin: Addr,
    /// Host-side counterpart node, if any (hybrid skiplist tall inserts).
    pub host_ptr: Addr,
    /// Parent sequence number (hybrid B+ tree) or node height (skiplist).
    pub aux: u32,
}

impl Request {
    /// Request with no begin pointer, host pointer, or aux word.
    pub fn new(op: OpCode, key: Key, value: Value) -> Self {
        Request { op, key, value, begin: NULL, host_ptr: NULL, aux: 0 }
    }
}

/// The NMP core's reply, as written back into the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Response {
    /// Begin-NMP-traversal node was stale; host must retry from scratch.
    pub retry: bool,
    /// Success/failure bit.
    pub ok: bool,
    /// B+ tree: host must lock its path and send RESUME_INSERT.
    pub lock_path: bool,
    /// Associated value (reads) or host pointer of the target (updates).
    pub value: u32,
    /// Node created in the NMP partition (inserts).
    pub new_ptr: Addr,
    /// B+ tree RESUME_INSERT: dividing key pushed up to the host.
    pub split_key: u32,
    /// B+ tree RESUME_INSERT: new child (split-off NMP node).
    pub new_child: Addr,
}

impl Response {
    /// Stale begin pointer: host must retry from scratch.
    pub fn retry() -> Self {
        Response { retry: true, ..Default::default() }
    }

    /// Success carrying `value`.
    pub fn ok_value(value: u32) -> Self {
        Response { ok: true, value, ..Default::default() }
    }

    /// Completed without effect (key absent on read/remove, present on insert).
    pub fn fail() -> Self {
        Response::default()
    }

    /// B+ tree: ask the host to lock its path and send `ResumeInsert`.
    pub fn lock_path() -> Self {
        Response { lock_path: true, ..Default::default() }
    }
}

/// One partition's combining pass with its executor type erased
/// ([`PubLists`] is not generic over the executor).
type ErasedPass = dyn FnMut(&PubLists, &mut ThreadCtx) + Send;

/// Failed polls a native waiter spins through before it starts yielding the
/// CPU (so a preempted lock holder can finish even on a single CPU).
const NATIVE_SPINS: u32 = 64;

/// Give up a wait for `what` (e.g. "partition 1 slot 3"): the run is
/// stopping because a thread panicked, and the answer may never come.
pub(crate) fn stopping(what: &str) -> ! {
    panic!("{what}: the run is stopping (a thread panicked) with the request still unanswered")
}

/// The publication lists of every NMP partition for one structure.
pub struct PubLists {
    machine: Arc<Machine>,
    slots_per_part: usize,
    max_inflight: usize,
    /// Per-partition combiners of a native run, each behind the try-lock
    /// that elects the posting thread that combines; installed by
    /// [`spawn_combiners`], never set under simulation.
    caller_combiners: OnceLock<Vec<Mutex<Box<ErasedPass>>>>,
}

impl PubLists {
    /// Provision `host_cores * max_inflight` slots in each partition's
    /// scratchpad.
    pub fn new(machine: Arc<Machine>, max_inflight: usize) -> Self {
        let cores = machine.config().host_cores;
        let slots = cores * max_inflight;
        let need = slots as u32 * SLOT_BYTES;
        assert!(
            need <= machine.config().scratchpad_bytes,
            "publication list ({need} B) exceeds scratchpad"
        );
        // Zero all slots (valid bits clear).
        for p in 0..machine.partitions() {
            for s in 0..slots {
                let a = machine.map().spad_base(p) + s as u32 * SLOT_BYTES;
                for w in 0..8 {
                    // xtask: allow(raw-mem) — pre-simulation zeroing of the runtime's own slots
                    machine.ram().write_u64(a + w * 8, 0);
                }
            }
        }
        PubLists { machine, slots_per_part: slots, max_inflight, caller_combiners: OnceLock::new() }
    }

    /// The machine these lists live on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Per-core lane count (§3.5 non-blocking depth).
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Slots in each partition's list (`host_cores * max_inflight`).
    pub fn slots_per_part(&self) -> usize {
        self.slots_per_part
    }

    /// Slot index owned by host `core`'s lane `lane`.
    pub fn slot_of(&self, core: usize, lane: usize) -> usize {
        assert!(lane < self.max_inflight, "lane {lane} out of range");
        core * self.max_inflight + lane
    }

    fn slot_addr(&self, part: usize, slot: usize) -> Addr {
        debug_assert!(slot < self.slots_per_part);
        self.machine.map().spad_base(part) + slot as u32 * SLOT_BYTES
    }

    // ---- host side (MMIO) ----

    /// Post a request into `slot` of partition `part`: three MMIO data
    /// writes followed by the control-word write that publishes it.
    pub fn post(&self, ctx: &mut ThreadCtx, part: usize, slot: usize, req: &Request) {
        debug_assert!(matches!(ctx.kind(), ThreadKind::Host { .. }));
        let a = self.slot_addr(part, slot);
        ctx.mmio_write_u64(a + 8, (req.key as u64) | ((req.value as u64) << 32));
        ctx.mmio_write_u64(a + 16, (req.begin as u64) | ((req.host_ptr as u64) << 32));
        ctx.mmio_write_u64(a + 24, req.aux as u64);
        // Release: publishes the data words above to the scanning NMP core.
        ctx.mmio_write_u64_release(a, CTRL_VALID | ((req.op as u64) << 8));
    }

    /// One poll: if the request in `slot` has been served, read the
    /// response words and return them. On a native run an unserved request
    /// makes the caller try for the partition's combiner first: if it wins
    /// the lock it serves every posted slot, its own included.
    pub fn try_response(&self, ctx: &mut ThreadCtx, part: usize, slot: usize) -> Option<Response> {
        if let Some(resp) = self.read_response(ctx, part, slot) {
            return Some(resp);
        }
        if !self.combine_as_caller(ctx, part, slot) {
            return None;
        }
        // The pass just run served every slot posted before it.
        self.read_response(ctx, part, slot)
    }

    /// If the valid bit of `slot` is clear, read the response words.
    fn read_response(&self, ctx: &mut ThreadCtx, part: usize, slot: usize) -> Option<Response> {
        let a = self.slot_addr(part, slot);
        // Acquire: pairs with the combiner's release in `complete`.
        let ctrl = ctx.mmio_read_u64_acquire(a);
        if ctrl & CTRL_VALID != 0 {
            return None;
        }
        let mut resp = Response {
            retry: ctrl & CTRL_RETRY != 0,
            ok: ctrl & CTRL_RET_OK != 0,
            lock_path: ctrl & CTRL_LOCK_PATH != 0,
            ..Default::default()
        };
        if resp.retry || resp.lock_path {
            return Some(resp);
        }
        let w4 = ctx.mmio_read_u64(a + 32);
        resp.value = w4 as u32;
        resp.new_ptr = (w4 >> 32) as Addr;
        let w5 = ctx.mmio_read_u64(a + 40);
        resp.split_key = w5 as u32;
        resp.new_child = (w5 >> 32) as Addr;
        Some(resp)
    }

    /// Where the posting threads combine (a native run): try-lock partition
    /// `part`'s combiner and, on winning, run one pass on the caller's own
    /// context. Returns whether a pass ran. `slot` is the caller's own,
    /// named when the partition turns out to be dead.
    fn combine_as_caller(&self, ctx: &mut ThreadCtx, part: usize, slot: usize) -> bool {
        let Some(combiners) = self.caller_combiners.get() else { return false };
        match combiners[part].try_lock() {
            Ok(mut pass) => {
                pass(self, ctx);
                true
            }
            Err(TryLockError::WouldBlock) => false,
            // A combining thread panicked inside its pass: requests it had
            // collected are lost and the partition's memory may be half
            // updated, so nobody may combine here again.
            Err(TryLockError::Poisoned(_)) => panic!(
                "partition {part} slot {slot}: a combining thread panicked mid-pass, \
                 the request cannot be answered"
            ),
        }
    }

    /// Blocking wait: poll until the response arrives, idling the host
    /// thread by the configured poll interval between polls. A simulated
    /// waiter parks after a failed poll instead ([`ThreadCtx::park`] with
    /// that interval as a constant idle) and resumes at the poll that sees
    /// the combiner's write. A native waiter (another thread holds the
    /// partition's combiner) spins briefly, then yields. Either gives up
    /// with a panic once the run is stopping, which means a thread has died
    /// and the answer may never come.
    pub fn wait_response(&self, ctx: &mut ThreadCtx, part: usize, slot: usize) -> Response {
        let interval = self.machine.config().host_poll_interval_cycles;
        let mut polls = 0u32;
        loop {
            if let Some(r) = self.try_response(ctx, part, slot) {
                return r;
            }
            if !ctx.is_native() {
                // The failed poll and this park share a turn, so no write
                // can land between them.
                let ctrl = [self.slot_addr(part, slot)];
                if let Resume::Stop { .. } = ctx.park(&ctrl, interval, &mut { interval }) {
                    stopping(&format!("partition {part} slot {slot}"));
                }
                continue;
            }
            if ctx.stop_requested() {
                stopping(&format!("partition {part} slot {slot}"));
            }
            polls += 1;
            if polls < NATIVE_SPINS {
                std::hint::spin_loop();
            } else {
                ctx.idle(interval);
            }
        }
    }

    /// The control word of `slot` in partition `part` while it holds a
    /// posted request the combiner has not answered yet, peeked untimed: a
    /// host's decision to park on it, not a modeled access.
    pub(crate) fn unanswered_ctrl(&self, part: usize, slot: usize) -> Option<Addr> {
        let a = self.slot_addr(part, slot);
        // xtask: allow(raw-mem) — the park decision peeks, it does not poll
        (self.machine.ram().read_u64(a) & CTRL_VALID != 0).then_some(a)
    }

    // ---- NMP side (scratchpad-local) ----

    /// Scan one slot; if a valid request is published, read and return it.
    /// NMP cores scan; a host thread may only when it is native, where it
    /// combines in the place of the NMP core the run does not have.
    pub fn scan(&self, ctx: &mut ThreadCtx, part: usize, slot: usize) -> Option<Request> {
        debug_assert!(
            matches!(ctx.kind(), ThreadKind::Nmp { .. }) || ctx.is_native(),
            "a simulated host thread scanned a publication list"
        );
        let a = self.slot_addr(part, slot);
        // Acquire: pairs with the host's release in `post`.
        let ctrl = ctx.read_u64_acquire(a);
        if ctrl & CTRL_VALID == 0 {
            return None;
        }
        let w1 = ctx.read_u64(a + 8);
        let w2 = ctx.read_u64(a + 16);
        let w3 = ctx.read_u64(a + 24);
        Some(Request {
            op: OpCode::from_bits(ctrl >> 8),
            key: w1 as u32,
            value: (w1 >> 32) as u32,
            begin: w2 as Addr,
            host_ptr: (w2 >> 32) as Addr,
            aux: w3 as u32,
        })
    }

    /// Whether any slot of partition `part` holds a posted request, read
    /// untimed: the combiner's decision to park, not a modeled access.
    fn any_posted(&self, part: usize) -> bool {
        (0..self.slots_per_part).any(|slot| {
            // xtask: allow(raw-mem) — the park decision peeks, it does not scan
            self.machine.ram().read_u64(self.slot_addr(part, slot)) & CTRL_VALID != 0
        })
    }

    /// The control words a pass of partition `part`'s combiner reads, in
    /// order: what [`ThreadCtx::park`] fast-forwards it over.
    fn ctrl_words(&self, part: usize) -> Vec<Addr> {
        (0..self.slots_per_part).map(|slot| self.slot_addr(part, slot)).collect()
    }

    /// Write the response words, then clear the valid bit (publishing the
    /// completion to the polling host thread). Combiner side, like `scan`.
    pub fn complete(&self, ctx: &mut ThreadCtx, part: usize, slot: usize, resp: &Response) {
        let a = self.slot_addr(part, slot);
        if !(resp.retry || resp.lock_path) {
            ctx.write_u64(a + 32, (resp.value as u64) | ((resp.new_ptr as u64) << 32));
            ctx.write_u64(a + 40, (resp.split_key as u64) | ((resp.new_child as u64) << 32));
        }
        let mut ctrl = 0;
        if resp.retry {
            ctrl |= CTRL_RETRY;
        }
        if resp.ok {
            ctrl |= CTRL_RET_OK;
        }
        if resp.lock_path {
            ctrl |= CTRL_LOCK_PATH;
        }
        // Release: publishes the response words to the polling host thread.
        ctx.write_u64_release(a, ctrl);
    }
}

/// An NMP-side operation executor: applies one published request to the
/// partition's portion of the data structure.
pub trait NmpExec: Send + Sync + 'static {
    /// Cross-request state the combiner keeps per slot (e.g. the locked
    /// path of a B+ tree insert awaiting RESUME_INSERT).
    type SlotState: Default + Send;

    /// Apply one published request to partition `part`'s portion of the
    /// structure.
    fn exec(
        &self,
        ctx: &mut ThreadCtx,
        part: usize,
        req: &Request,
        state: &mut Self::SlotState,
    ) -> Response;

    /// The NMP half of the structure's declared memory-effect plan: per
    /// op code, everything `exec` may touch (on top of the publication-list
    /// protocol itself, [`crate::effects::NMP_PROTOCOL`]). The combiner
    /// scopes conformance checking to the op being served, so an executor
    /// straying outside this plan is blamed with the exact op and site.
    fn effect_spec(&self) -> EffectSpec;

    /// Op codes whose `exec` is a pure function of the request and the
    /// partition state — no partition-memory writes, no slot-state use —
    /// and may therefore be key-range coalesced under `Policy::Adaptive`:
    /// identical concurrent requests share one descent, followers receive
    /// a replica of the lead's response.
    /// [`crate::effects::assert_coalescible_ops`] statically cross-checks
    /// every declared op against the effect spec at combiner-spawn time.
    /// Default: nothing coalesces.
    fn coalescible_ops(&self) -> &'static [OpCode] {
        &[]
    }
}

/// One partition's flat combiner: the executor, the cross-request state it
/// keeps per slot, and the reusable batch buffer of a pass. A simulated NMP
/// daemon owns one; on a native run it sits behind the partition's try-lock
/// in [`PubLists`].
struct Combiner<E: NmpExec> {
    exec: Arc<E>,
    part: usize,
    policy: Policy,
    coalescible: &'static [OpCode],
    states: Vec<E::SlotState>,
    batch: Vec<(usize, Request)>,
}

impl<E: NmpExec> Combiner<E> {
    fn new(
        lists: &PubLists,
        exec: Arc<E>,
        part: usize,
        policy: Policy,
        coalescible: &'static [OpCode],
    ) -> Self {
        let mut states = Vec::new();
        states.resize_with(lists.slots_per_part(), Default::default);
        let batch = Vec::with_capacity(lists.slots_per_part());
        Combiner { exec, part, policy, coalescible, states, batch }
    }

    /// One batched flat-combining pass: a scan over the partition's
    /// publication list collects *all* currently-published requests, then
    /// executes them back-to-back, amortizing the scan cost over the whole
    /// batch instead of re-scanning after every request. Returns the batch
    /// size, which also feeds the combined-per-pass histogram in
    /// [`nmp_sim::OffloadStats`].
    fn combine_pass(&mut self, lists: &PubLists, ctx: &mut ThreadCtx) -> usize {
        let pass_start = ctx.now();
        self.combine_from(lists, ctx, 0, pass_start)
    }

    /// [`Combiner::combine_pass`] picked up at its scan of `first_slot`, in
    /// a pass that began at cycle `pass_start`: where a parked combiner
    /// resumes.
    fn combine_from(
        &mut self,
        lists: &PubLists,
        ctx: &mut ThreadCtx,
        first_slot: usize,
        pass_start: u64,
    ) -> usize {
        let part = self.part;
        let mem = lists.machine.mem();
        self.batch.clear();
        for slot in first_slot..lists.slots_per_part() {
            if let Some(req) = lists.scan(ctx, part, slot) {
                self.batch.push((slot, req));
            }
            ctx.step();
        }
        mem.note_offload_pass(part, self.batch.len());
        if self.batch.is_empty() {
            return 0;
        }
        if self.policy == Policy::Adaptive {
            // Key-range coalescing: order the pass by (key, slot) so
            // identical requests form contiguous runs; the run order is the
            // serve order, preserving a deterministic per-request response
            // mapping.
            sort_batch(&mut self.batch);
        }
        let mut i = 0;
        while i < self.batch.len() {
            let (slot, req) = self.batch[i];
            let run = coalesce_run_len(&self.batch, i, self.coalescible);
            let mut resp = Response::default();
            // The lead runs the descent; followers of a coalesced run hold
            // the identical request against unchanged partition state, so
            // they get a replica of its response without a second descent.
            for (n, &(served, _)) in self.batch[i..i + run].iter().enumerate() {
                let start = ctx.now();
                // Scope conformance checking to the op being served so
                // blame reports name it; the scan pass above runs unscoped
                // (checked against the protocol union).
                if let Some(a) = mem.analysis() {
                    a.set_current_op(ctx.id(), Some(req.op as u8));
                }
                if n == 0 {
                    resp = self.exec.exec(ctx, part, &req, &mut self.states[slot]);
                }
                lists.complete(ctx, part, served, &resp);
                if n > 0 {
                    mem.note_offload_coalesced(part);
                }
                if let Some(a) = mem.analysis() {
                    a.set_current_op(ctx.id(), None);
                }
                if let Some(t) = mem.tracer() {
                    t.note_exec(part, served, start, ctx.now());
                }
                ctx.step();
            }
            i += run;
        }
        if let Some(t) = mem.tracer() {
            t.note_batch(part, pass_start, ctx.now(), self.batch.len() as u64);
        }
        self.batch.len()
    }
}

/// Attach one flat combiner per partition to the run `sim`, executing
/// requests through `exec`.
///
/// Generic over the run type ([`Spawner`]). Where the run models NMP cores
/// ([`Spawner::nmp_cores`] hands back the [`nmp_sim::Simulation`]) each
/// combiner is a daemon on its partition's NMP core, looping over
/// `Combiner::combine_pass` and parking between passes (polling on when a
/// request was posted after its slot's scan). Where it does not (a
/// [`nmp_sim::NativeRun`]) **no thread is spawned**: the combiners are
/// installed in `lists` and the posting host threads run the passes
/// themselves (see the module docs).
pub fn spawn_combiners<S: Spawner, E: NmpExec>(sim: &mut S, lists: Arc<PubLists>, exec: Arc<E>) {
    let base_idle = lists.machine.config().nmp_idle_poll_cycles;
    let policy = lists.machine.config().policy;
    // Under the adaptive policy a pass replicates responses across
    // coalesced runs; statically prove every declared-coalescible op's NMP
    // plan is partition-read-only before any pass runs.
    let coalescible: &'static [OpCode] = match policy {
        Policy::Fixed => &[],
        Policy::Adaptive => {
            crate::effects::assert_coalescible_ops(&exec.effect_spec(), exec.coalescible_ops());
            exec.coalescible_ops()
        }
    };
    let combiners = (0..lists.machine.partitions())
        .map(|part| Combiner::new(&lists, Arc::clone(&exec), part, policy, coalescible));
    match sim.nmp_cores() {
        Some(sim) => {
            for mut combiner in combiners {
                let lists = Arc::clone(&lists);
                let part = combiner.part;
                sim.spawn_daemon(format!("nmp-{part}"), ThreadKind::Nmp { part }, move |ctx| {
                    let mut idle = Backoff::combiner(policy, base_idle);
                    let ctrl_words = lists.ctrl_words(part);
                    let mut served = combiner.combine_pass(&lists, ctx);
                    loop {
                        // The gap before the next pass: none after work,
                        // the back-off after a pass that found nothing.
                        let gap = if served > 0 {
                            idle.rearm();
                            0
                        } else if ctx.stop_requested() {
                            return;
                        } else {
                            idle.next_idle()
                        };
                        if lists.any_posted(part) {
                            // Posted after its slot's scan: the next pass
                            // sees it, so this gap is taken as polled.
                            if gap > 0 {
                                ctx.idle(gap);
                            }
                            served = combiner.combine_pass(&lists, ctx);
                            continue;
                        }
                        let mem = lists.machine.mem();
                        match ctx.park(&ctrl_words, gap, &mut idle) {
                            Resume::Scan { word, pass_start, empty_passes } => {
                                mem.note_offload_empty_passes(part, empty_passes);
                                served = combiner.combine_from(&lists, ctx, word, pass_start);
                            }
                            Resume::Stop { empty_passes } => {
                                mem.note_offload_empty_passes(part, empty_passes);
                                return;
                            }
                        }
                    }
                });
            }
        }
        None => {
            let installed = lists.caller_combiners.set(
                combiners
                    .map(|mut c| {
                        let pass: Box<ErasedPass> =
                            Box::new(move |lists: &PubLists, ctx: &mut ThreadCtx| {
                                c.combine_pass(lists, ctx);
                            });
                        Mutex::new(pass)
                    })
                    .collect(),
            );
            assert!(installed.is_ok(), "combiners attached twice to one set of publication lists");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_sim::Config;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn machine() -> Arc<Machine> {
        Machine::new(Config::tiny())
    }

    #[test]
    fn slot_indexing_disjoint() {
        let l = PubLists::new(machine(), 4);
        let mut seen = std::collections::HashSet::new();
        for core in 0..4 {
            for lane in 0..4 {
                assert!(seen.insert(l.slot_of(core, lane)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds scratchpad")]
    fn oversized_publist_rejected() {
        let _ = PubLists::new(machine(), 64);
    }

    /// Protocol-only spec for executors that touch no data region.
    fn protocol_only(name: &'static str) -> EffectSpec {
        EffectSpec::new(name)
            .op(crate::effects::protocol_op(OpCode::Read, "Read"))
            .op(crate::effects::protocol_op(OpCode::Update, "Update"))
            .op(crate::effects::protocol_op(OpCode::Insert, "Insert"))
    }

    /// Echo executor: replies with ok and value = key + 1.
    struct Echo;
    impl NmpExec for Echo {
        type SlotState = ();
        fn exec(&self, _ctx: &mut ThreadCtx, _part: usize, req: &Request, _s: &mut ()) -> Response {
            Response::ok_value(req.key + 1)
        }
        fn effect_spec(&self) -> EffectSpec {
            protocol_only("echo")
        }
    }

    #[test]
    fn round_trip_through_combiner() {
        let m = machine();
        let lists = Arc::new(PubLists::new(Arc::clone(&m), 1));
        let mut sim = m.simulation();
        spawn_combiners(&mut sim, Arc::clone(&lists), Arc::new(Echo));
        let results = Arc::new(AtomicU32::new(0));
        for core in 0..2 {
            let lists = Arc::clone(&lists);
            let results = Arc::clone(&results);
            sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
                let slot = lists.slot_of(core, 0);
                let part = core % 2;
                let req = Request::new(OpCode::Read, 100 + core as u32, 0);
                lists.post(ctx, part, slot, &req);
                let resp = lists.wait_response(ctx, part, slot);
                assert!(resp.ok);
                assert_eq!(resp.value, 101 + core as u32);
                results.fetch_add(1, Ordering::Relaxed);
            });
        }
        sim.run();
        assert_eq!(results.load(Ordering::Relaxed), 2);
    }

    /// Scanning is the NMP core's half of the protocol. Only a native host
    /// thread may do it (it combines in the NMP core's place); a simulated
    /// one reaching `scan` is a bug the thread-class check must still catch.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a simulated host thread scanned a publication list")]
    fn simulated_host_thread_may_not_scan() {
        let m = machine();
        let lists = Arc::new(PubLists::new(Arc::clone(&m), 1));
        let mut sim = m.simulation();
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
            lists.scan(ctx, 0, 0);
        });
        sim.run();
    }

    /// A host waits on a slot whose executor panics: the run ends at once,
    /// the executor's panic first, then the waiter's give-up.
    #[test]
    fn a_waiter_on_a_panicking_executor_gives_up() {
        struct Explodes;
        impl NmpExec for Explodes {
            type SlotState = ();
            fn exec(&self, _: &mut ThreadCtx, _: usize, _: &Request, _: &mut ()) -> Response {
                panic!("the executor exploded");
            }
            fn effect_spec(&self) -> EffectSpec {
                protocol_only("explodes")
            }
        }
        let m = machine();
        let lists = Arc::new(PubLists::new(Arc::clone(&m), 1));
        let mut sim = m.simulation();
        // The waiter has the lower id, so only panic order puts it second.
        let l2 = Arc::clone(&lists);
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
            l2.post(ctx, 1, 0, &Request::new(OpCode::Read, 5, 0));
            l2.wait_response(ctx, 1, 0);
        });
        spawn_combiners(&mut sim, lists, Arc::new(Explodes));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run())).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        let cause = msg.find("the executor exploded").expect(&msg);
        let waiter = msg
            .find("'h0' panicked at simulated cycle")
            .and_then(|at| {
                msg[at..].contains("partition 1 slot 0: the run is stopping").then_some(at)
            })
            .expect(&msg);
        assert!(cause < waiter, "the executor's panic must come first: {msg}");
    }

    /// A host waits on a partition that has no combiner: nothing will ever
    /// answer, and the run ends with a deadlock report naming the waiter
    /// and the word it waits on.
    #[test]
    fn a_waiter_on_a_partition_without_a_combiner_is_a_deadlock() {
        let m = machine();
        let lists = Arc::new(PubLists::new(Arc::clone(&m), 1));
        let ctrl = lists.slot_addr(1, 2);
        let mut sim = m.simulation();
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
            lists.post(ctx, 1, 2, &Request::new(OpCode::Read, 5, 0));
            lists.wait_response(ctx, 1, 2);
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run())).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("deadlock"), "{msg}");
        assert!(msg.contains(&format!("'h0' watching [\n    {ctrl:#x},\n]")), "{msg}");
    }

    #[test]
    fn many_ops_per_slot_sequential() {
        let m = machine();
        let lists = Arc::new(PubLists::new(Arc::clone(&m), 1));
        let mut sim = m.simulation();
        spawn_combiners(&mut sim, Arc::clone(&lists), Arc::new(Echo));
        let lists2 = Arc::clone(&lists);
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
            for i in 0..50u32 {
                let slot = lists2.slot_of(0, 0);
                lists2.post(ctx, 1, slot, &Request::new(OpCode::Update, i, i));
                let resp = lists2.wait_response(ctx, 1, slot);
                assert_eq!(resp.value, i + 1);
            }
        });
        sim.run();
    }

    #[test]
    fn retry_response_skips_result_words() {
        struct AlwaysRetry;
        impl NmpExec for AlwaysRetry {
            type SlotState = ();
            fn exec(&self, _: &mut ThreadCtx, _: usize, _: &Request, _: &mut ()) -> Response {
                Response::retry()
            }
            fn effect_spec(&self) -> EffectSpec {
                protocol_only("always-retry")
            }
        }
        let m = machine();
        let lists = Arc::new(PubLists::new(Arc::clone(&m), 1));
        let mut sim = m.simulation();
        spawn_combiners(&mut sim, Arc::clone(&lists), Arc::new(AlwaysRetry));
        let lists2 = Arc::clone(&lists);
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
            lists2.post(ctx, 0, 0, &Request::new(OpCode::Insert, 5, 6));
            let resp = lists2.wait_response(ctx, 0, 0);
            assert!(resp.retry);
            assert!(!resp.ok);
        });
        sim.run();
    }

    #[test]
    fn request_fields_roundtrip() {
        let m = machine();
        let lists = Arc::new(PubLists::new(Arc::clone(&m), 2));
        struct Check;
        impl NmpExec for Check {
            type SlotState = ();
            fn exec(&self, _: &mut ThreadCtx, _: usize, req: &Request, _: &mut ()) -> Response {
                assert_eq!(req.op, OpCode::Insert);
                assert_eq!(req.key, 0xAABB);
                assert_eq!(req.value, 0xCCDD);
                assert_eq!(req.begin, 0x1000);
                assert_eq!(req.host_ptr, 0x2000);
                assert_eq!(req.aux, 17);
                Response {
                    ok: true,
                    new_ptr: 0x3000,
                    split_key: 9,
                    new_child: 0x4000,
                    ..Default::default()
                }
            }
            fn effect_spec(&self) -> EffectSpec {
                protocol_only("check")
            }
        }
        let mut sim = m.simulation();
        spawn_combiners(&mut sim, Arc::clone(&lists), Arc::new(Check));
        let l2 = Arc::clone(&lists);
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
            let req = Request {
                op: OpCode::Insert,
                key: 0xAABB,
                value: 0xCCDD,
                begin: 0x1000,
                host_ptr: 0x2000,
                aux: 17,
            };
            l2.post(ctx, 1, 3, &req);
            let resp = l2.wait_response(ctx, 1, 3);
            assert!(resp.ok);
            assert_eq!(resp.new_ptr, 0x3000);
            assert_eq!(resp.split_key, 9);
            assert_eq!(resp.new_child, 0x4000);
        });
        sim.run();
    }
}
