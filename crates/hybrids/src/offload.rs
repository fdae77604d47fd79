//! Shared offload runtime: the host↔NMP request lifecycle, in one place.
//!
//! Every hybrid structure offloads operations the same way (§3.2, §3.5):
//! run a host-side phase (traversal/classification), post a request into a
//! publication-list slot, wait for or poll the combiner's response, retry
//! when the NMP side reports a stale begin node, fall back to a host-locked
//! path on LOCK_PATH, and possibly post follow-up requests. This module owns
//! that state machine once; structures implement only the structure-specific
//! decisions through [`OffloadClient`]:
//!
//! * `advance` — run the host phase and decide: finish on the host
//!   ([`Step::Done`]), publish a request ([`Step::Post`]), or yield and try
//!   again later ([`Step::Stall`], e.g. a bounded seqlock descent that hit
//!   its patience limit). `advance` is also where retries restart: the
//!   runtime re-invokes it after every retry response, so a client's host
//!   phase is automatically its retry path.
//! * `complete` — interpret a non-retry response: finish ([`Step::Done`]),
//!   or continue the operation with a follow-up request ([`Step::Post`] —
//!   partition-hopping scans, the B+ tree RESUME_INSERT / UNLOCK_PATH
//!   dance) or a host-side fallback ([`Step::Stall`]).
//!
//! The runtime provisions the publication lists, attaches the batching flat
//! combiners ([`crate::publist::spawn_combiners`]), allocates slots
//! (`core * max_inflight + lane`), and records per-partition/per-lane
//! telemetry (posts, retries, lock-path falls) into
//! [`nmp_sim::OffloadStats`] as a side effect of driving the lifecycle —
//! structures cannot forget to count.
//!
//! The lifecycle is the same on both engines; what differs is who answers.
//! Under simulation a combiner daemon on the partition's NMP core does. A
//! native run has no NMP processor, so [`OffloadRuntime::execute`] and
//! [`OffloadRuntime::poll`] answer through the host side of the protocol
//! itself: the thread that finds its request unserved takes the partition's
//! combiner, if it is free, and serves every posted slot (see
//! [`crate::publist`]). A native offload therefore costs the work it asks
//! for — no other thread is involved, let alone woken.

pub mod policy;

use std::sync::Arc;

use nmp_sim::{Addr, EffectSpec, Machine, Simulation, ThreadCtx};
use workloads::Op;

use crate::api::{host_core, Issued, OpResult, PollOutcome, SimIndex};
use crate::publist::{self, NmpExec, PubLists, Request, Response};

/// Op-kind byte used by the trace subsystem's per-kind aggregation (see
/// `nmp_sim::trace::kind_label` for the label table).
pub fn op_kind(op: Op) -> u8 {
    match op {
        Op::Read(_) => 0,
        Op::Insert(_, _) => 1,
        Op::Remove(_) => 2,
        Op::Update(_, _) => 3,
        Op::Scan(_, _) => 4,
        Op::ExtractMin => 5,
    }
}

/// Host-side cycle-attribution state for one in-flight op.
///
/// A cursor (`cursor`) tracks the last attributed cycle; every runtime entry
/// and exit moves it forward, crediting the elapsed segment to exactly one
/// of `host` / `post` / `wait` — so the three always tile `[start, now]`
/// with no gaps or double counting.
struct OpTrace {
    id: u64,
    kind: u8,
    start: u64,
    cursor: u64,
    host: u64,
    post: u64,
    wait: u64,
    queue: u64,
    exec: u64,
    drain: u64,
    legs: u32,
}

impl OpTrace {
    /// Attribute the gap since the last runtime exit: queueing for a posted
    /// op, host-side scheduling otherwise.
    fn enter(&mut self, now: u64, posted: bool) {
        if posted {
            self.mark_wait(now);
        } else {
            self.mark_host(now);
        }
    }

    fn mark_host(&mut self, now: u64) {
        self.host += now - self.cursor;
        self.cursor = now;
    }

    fn mark_post(&mut self, now: u64) {
        self.post += now - self.cursor;
        self.cursor = now;
    }

    fn mark_wait(&mut self, now: u64) {
        self.wait += now - self.cursor;
        self.cursor = now;
    }
}

/// What a client wants the runtime to do next with an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The operation is finished (host-served, or response fully applied).
    Done(OpResult),
    /// Publish `req` to partition `part` and await its response.
    Post {
        /// Target NMP partition.
        part: usize,
        /// The request to publish.
        req: Request,
    },
    /// The host phase could not make progress (e.g. contended host levels);
    /// the runtime will re-invoke `advance` on the next poll.
    Stall,
}

/// Structure-specific half of the offload lifecycle. One operation's state
/// lives in an `OpState`; the runtime threads it through `advance` /
/// `complete` until one of them returns [`Step::Done`].
pub trait OffloadClient: Send + Sync + 'static {
    /// Per-operation state (host-side nodes held across the offload, scan
    /// cursors, lock-path phase). `Default` must be the fresh-operation
    /// state.
    type OpState: Default + Send + 'static;

    /// Run the host phase of `op` (initially, after a [`Step::Stall`], and
    /// after every retry response) and decide the next step.
    fn advance(&self, ctx: &mut ThreadCtx, op: Op, st: &mut Self::OpState) -> Step;

    /// Apply a non-retry response (including LOCK_PATH responses) and
    /// decide the next step.
    fn complete(
        &self,
        ctx: &mut ThreadCtx,
        op: Op,
        resp: &Response,
        st: &mut Self::OpState,
    ) -> Step;

    /// The host half of the structure's declared memory-effect plan: per
    /// op code, everything `advance`/`complete` may touch (on top of the
    /// publication-list protocol itself,
    /// [`crate::effects::HOST_PROTOCOL`]). Merged with the executor's
    /// [`NmpExec::effect_spec`] half at registration time.
    fn effect_spec(&self) -> EffectSpec;
}

/// A structure whose every operation runs through an [`OffloadRuntime`]:
/// naming the runtime and the NMP-side executor is all it takes to be a
/// [`SimIndex`] (the blanket impl below).
pub trait Offloaded: OffloadClient {
    /// NMP-side executor the combiners run requests through.
    type Exec: NmpExec;

    /// The runtime driving this structure's offloads.
    fn runtime(&self) -> &OffloadRuntime;

    /// The executor handed to the combiners.
    fn executor(&self) -> &Arc<Self::Exec>;
}

/// Register `index`'s merged effect spec and attach its combiners to any run
/// type — daemons of a cycle-accurate [`Simulation`], or, on a real-thread
/// [`nmp_sim::NativeRun`], combiners the posting threads run themselves (no
/// thread is spawned). [`SimIndex::spawn_services`] delegates here.
pub fn spawn_services_on<T: Offloaded, S: nmp_sim::Spawner>(index: &Arc<T>, sp: &mut S) {
    index.runtime().register_spec(&SimIndex::effect_spec(&**index));
    index.runtime().spawn_combiners(sp, Arc::clone(index.executor()));
}

impl<T: Offloaded> SimIndex for T {
    type Pending = PendingOp<T::OpState>;

    fn execute(&self, ctx: &mut ThreadCtx, op: Op) -> OpResult {
        self.runtime().execute(ctx, self, op)
    }

    fn issue(&self, ctx: &mut ThreadCtx, lane: usize, op: Op) -> Issued<Self::Pending> {
        self.runtime().issue(ctx, self, lane, op)
    }

    fn poll(&self, ctx: &mut ThreadCtx, pending: &mut Self::Pending) -> PollOutcome {
        self.runtime().poll(ctx, self, pending)
    }

    fn awaited_word(&self, pending: &Self::Pending) -> Option<Addr> {
        self.runtime().awaited_word(pending)
    }

    fn effect_spec(&self) -> EffectSpec {
        OffloadClient::effect_spec(self).merged(self.executor().effect_spec())
    }

    fn spawn_services(self: &Arc<Self>, sim: &mut Simulation) {
        spawn_services_on(self, sim);
    }

    fn max_inflight(&self) -> usize {
        self.runtime().max_inflight()
    }
}

/// A pending offloaded operation: the paper's "operation ID" (§3.5), owned
/// by the issuing host thread and bound to one publication-list slot.
pub struct PendingOp<S> {
    op: Op,
    slot: usize,
    part: usize,
    posted: bool,
    state: S,
    tr: Option<OpTrace>,
}

/// The per-structure offload runtime: publication lists plus the shared
/// pipeline state machine driving them.
pub struct OffloadRuntime {
    machine: Arc<Machine>,
    lists: Arc<PubLists>,
}

impl OffloadRuntime {
    /// Provision publication lists with `max_inflight` lanes per host
    /// thread on `machine`.
    pub fn new(machine: Arc<Machine>, max_inflight: usize) -> Self {
        let lists = Arc::new(PubLists::new(Arc::clone(&machine), max_inflight));
        OffloadRuntime { machine, lists }
    }

    /// The machine this runtime posts to.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Publication-list lanes per host thread.
    pub fn max_inflight(&self) -> usize {
        self.lists.max_inflight()
    }

    /// Statically verify `spec` against this runtime's machine topology
    /// (panicking on failure, with zero simulation cycles) and install it
    /// for spec-conformance checking. Structures call this from
    /// `spawn_services` with their merged client + executor spec.
    pub fn register_spec(&self, spec: &EffectSpec) {
        crate::effects::register_effect_spec(&self.machine, spec);
    }

    /// Attach the flat combiners (one per partition) executing requests
    /// through `exec`: daemons of a [`nmp_sim::Simulation`], caller-run
    /// passes on a [`nmp_sim::NativeRun`]
    /// ([`crate::publist::spawn_combiners`]).
    pub fn spawn_combiners<S: nmp_sim::Spawner, E: NmpExec>(&self, sim: &mut S, exec: Arc<E>) {
        publist::spawn_combiners(sim, Arc::clone(&self.lists), exec);
    }

    fn new_pending<S: Default>(&self, ctx: &ThreadCtx, op: Op, slot: usize) -> PendingOp<S> {
        PendingOp {
            op,
            slot,
            part: 0,
            posted: false,
            state: S::default(),
            tr: self.begin_trace(ctx, op),
        }
    }

    fn begin_trace(&self, ctx: &ThreadCtx, op: Op) -> Option<OpTrace> {
        let t = self.machine.mem().tracer()?;
        let now = ctx.now();
        let kind = op_kind(op);
        let id = t.op_begin(host_core(ctx), kind, now);
        Some(OpTrace {
            id,
            kind,
            start: now,
            cursor: now,
            host: 0,
            post: 0,
            wait: 0,
            queue: 0,
            exec: 0,
            drain: 0,
            legs: 0,
        })
    }

    /// Close the op's trace record at completion. The final cursor position
    /// is the completion cycle: every lifecycle path marks the cursor up to
    /// `ctx.now()` before a `Step::Done` can surface here.
    fn finish_trace<S>(&self, ctx: &ThreadCtx, pend: &mut PendingOp<S>) {
        if let Some(tr) = pend.tr.take() {
            if let Some(t) = self.machine.mem().tracer() {
                t.op_end(
                    host_core(ctx),
                    nmp_sim::trace::OpRecord {
                        op: tr.id,
                        kind: tr.kind,
                        start: tr.start,
                        end: tr.cursor,
                        host: tr.host,
                        post: tr.post,
                        wait: tr.wait,
                        queue: tr.queue,
                        exec: tr.exec,
                        drain: tr.drain,
                        legs: tr.legs,
                    },
                );
            }
        }
    }

    fn apply_step<S>(
        &self,
        ctx: &mut ThreadCtx,
        pend: &mut PendingOp<S>,
        step: Step,
    ) -> Option<OpResult> {
        match step {
            Step::Done(r) => {
                if let Some(tr) = pend.tr.as_mut() {
                    tr.mark_host(ctx.now());
                }
                Some(r)
            }
            Step::Stall => {
                if let Some(tr) = pend.tr.as_mut() {
                    tr.mark_host(ctx.now());
                }
                pend.posted = false;
                None
            }
            Step::Post { part, req } => {
                let post_start = {
                    if let Some(tr) = pend.tr.as_mut() {
                        tr.mark_host(ctx.now());
                    }
                    ctx.now()
                };
                self.lists.post(ctx, part, pend.slot, &req);
                self.machine.mem().note_offload_post(part, pend.slot % self.lists.max_inflight());
                pend.part = part;
                pend.posted = true;
                if let Some(tr) = pend.tr.as_mut() {
                    let now = ctx.now();
                    tr.mark_post(now);
                    tr.legs += 1;
                    if let Some(t) = self.machine.mem().tracer() {
                        t.note_post(host_core(ctx), part, pend.slot, tr.id, post_start, now);
                    }
                }
                None
            }
        }
    }

    fn on_response<C: OffloadClient>(
        &self,
        ctx: &mut ThreadCtx,
        client: &C,
        pend: &mut PendingOp<C::OpState>,
        resp: &Response,
    ) -> Option<OpResult> {
        if let Some(tr) = pend.tr.as_mut() {
            let now = ctx.now();
            tr.mark_wait(now);
            if let Some(t) = self.machine.mem().tracer() {
                if let Some((q, e, d)) = t.leg_observed(pend.part, pend.slot, now) {
                    tr.queue += q;
                    tr.exec += e;
                    tr.drain += d;
                }
                if resp.retry {
                    t.instant(nmp_sim::trace::Track::Host(host_core(ctx)), "retry", now);
                }
            }
        }
        let step = if resp.retry {
            self.machine.mem().note_offload_retry(pend.part);
            client.advance(ctx, pend.op, &mut pend.state)
        } else {
            if resp.lock_path {
                self.machine.mem().note_offload_lock_path(pend.part);
            }
            client.complete(ctx, pend.op, resp, &mut pend.state)
        };
        self.apply_step(ctx, pend, step)
    }

    /// Execute `op` to completion with blocking NMP calls on lane 0.
    pub fn execute<C: OffloadClient>(&self, ctx: &mut ThreadCtx, client: &C, op: Op) -> OpResult {
        let slot = self.lists.slot_of(host_core(ctx), 0);
        let mut pend = self.new_pending::<C::OpState>(ctx, op, slot);
        let step = client.advance(ctx, op, &mut pend.state);
        if let Some(r) = self.apply_step(ctx, &mut pend, step) {
            self.finish_trace(ctx, &mut pend);
            return r;
        }
        let interval = self.machine.config().host_poll_interval_cycles;
        loop {
            if pend.posted {
                let resp = self.lists.wait_response(ctx, pend.part, pend.slot);
                if let Some(r) = self.on_response(ctx, client, &mut pend, &resp) {
                    self.finish_trace(ctx, &mut pend);
                    return r;
                }
            } else {
                ctx.idle(interval);
                let step = client.advance(ctx, pend.op, &mut pend.state);
                if let Some(r) = self.apply_step(ctx, &mut pend, step) {
                    self.finish_trace(ctx, &mut pend);
                    return r;
                }
            }
        }
    }

    /// Start `op` non-blockingly on publication-list lane `lane` (§3.5).
    pub fn issue<C: OffloadClient>(
        &self,
        ctx: &mut ThreadCtx,
        client: &C,
        lane: usize,
        op: Op,
    ) -> Issued<PendingOp<C::OpState>> {
        let slot = self.lists.slot_of(host_core(ctx), lane);
        let mut pend = self.new_pending::<C::OpState>(ctx, op, slot);
        let step = client.advance(ctx, op, &mut pend.state);
        match self.apply_step(ctx, &mut pend, step) {
            Some(r) => {
                self.finish_trace(ctx, &mut pend);
                Issued::Done(r)
            }
            None => Issued::Pending(pend),
        }
    }

    /// The control word `pend` waits on, if it is posted and unanswered
    /// ([`SimIndex::awaited_word`]).
    fn awaited_word<S>(&self, pend: &PendingOp<S>) -> Option<Addr> {
        pend.posted.then(|| self.lists.unanswered_ctrl(pend.part, pend.slot)).flatten()
    }

    /// Poll a pending operation: drain a ready response (driving retries,
    /// follow-up posts, and host fallbacks through the client), or re-run a
    /// stalled host phase. Never blocks.
    pub fn poll<C: OffloadClient>(
        &self,
        ctx: &mut ThreadCtx,
        client: &C,
        pend: &mut PendingOp<C::OpState>,
    ) -> PollOutcome {
        if let Some(tr) = pend.tr.as_mut() {
            tr.enter(ctx.now(), pend.posted);
        }
        if !pend.posted {
            let step = client.advance(ctx, pend.op, &mut pend.state);
            return match self.apply_step(ctx, pend, step) {
                Some(r) => {
                    self.finish_trace(ctx, pend);
                    PollOutcome::Done(r)
                }
                None => PollOutcome::Pending,
            };
        }
        match self.lists.try_response(ctx, pend.part, pend.slot) {
            None => {
                if let Some(tr) = pend.tr.as_mut() {
                    tr.mark_wait(ctx.now());
                }
                PollOutcome::Pending
            }
            Some(resp) => match self.on_response(ctx, client, pend, &resp) {
                Some(r) => {
                    self.finish_trace(ctx, pend);
                    PollOutcome::Done(r)
                }
                None => PollOutcome::Pending,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publist::OpCode;
    use nmp_sim::{Config, ThreadKind};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn machine() -> Arc<Machine> {
        Machine::new(Config::tiny())
    }

    /// Echo executor: ok, value = key + 1; retries first attempt per slot
    /// when `retry_once` is set.
    struct Echo {
        retry_once: bool,
    }
    impl NmpExec for Echo {
        type SlotState = u32;
        fn exec(
            &self,
            ctx: &mut ThreadCtx,
            _part: usize,
            req: &Request,
            tries: &mut u32,
        ) -> Response {
            // Modest execution cost so pipelined posts pile up behind the
            // in-progress request and the next scan pass batches them.
            ctx.idle(300);
            *tries += 1;
            if self.retry_once && *tries == 1 {
                return Response::retry();
            }
            Response::ok_value(req.key + 1)
        }
        fn effect_spec(&self) -> EffectSpec {
            EffectSpec::new("echo").op(crate::effects::protocol_op(OpCode::Read, "Read"))
        }
    }

    /// Client routing every op to partition key % parts.
    struct ModClient {
        parts: usize,
    }
    impl OffloadClient for ModClient {
        type OpState = ();
        fn advance(&self, _ctx: &mut ThreadCtx, op: Op, _st: &mut ()) -> Step {
            let key = op.key();
            Step::Post { part: key as usize % self.parts, req: Request::new(OpCode::Read, key, 0) }
        }
        fn complete(&self, _ctx: &mut ThreadCtx, _op: Op, resp: &Response, _st: &mut ()) -> Step {
            Step::Done(OpResult { ok: resp.ok, value: resp.value })
        }
        fn effect_spec(&self) -> EffectSpec {
            EffectSpec::new("mod-client").op(crate::effects::protocol_op(OpCode::Read, "Read"))
        }
    }

    #[test]
    fn execute_round_trip_and_telemetry() {
        let m = machine();
        let rt = Arc::new(OffloadRuntime::new(Arc::clone(&m), 1));
        let client = Arc::new(ModClient { parts: m.partitions() });
        let mut sim = m.simulation();
        rt.spawn_combiners(&mut sim, Arc::new(Echo { retry_once: false }));
        let done = Arc::new(AtomicU32::new(0));
        for core in 0..2 {
            let rt = Arc::clone(&rt);
            let client = Arc::clone(&client);
            let done = Arc::clone(&done);
            sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
                let r = rt.execute(ctx, &*client, Op::Read(10 + core as u32));
                assert!(r.ok);
                assert_eq!(r.value, 11 + core as u32);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        sim.run();
        assert_eq!(done.load(Ordering::Relaxed), 2);
        let o = m.mem().snapshot().offload;
        assert_eq!(o.posted_total(), 2);
        assert_eq!(o.completed_total(), 2, "every post executed exactly once");
        assert_eq!(o.retries_total(), 0);
    }

    #[test]
    fn retry_reposts_through_advance() {
        let m = machine();
        let rt = Arc::new(OffloadRuntime::new(Arc::clone(&m), 1));
        let client = Arc::new(ModClient { parts: m.partitions() });
        let mut sim = m.simulation();
        rt.spawn_combiners(&mut sim, Arc::new(Echo { retry_once: true }));
        let rt2 = Arc::clone(&rt);
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
            let r = rt2.execute(ctx, &*client, Op::Read(7));
            assert!(r.ok);
            assert_eq!(r.value, 8);
        });
        sim.run();
        let o = m.mem().snapshot().offload;
        assert_eq!(o.retries_total(), 1);
        assert_eq!(o.posted_total(), 2, "retry causes one repost");
    }

    #[test]
    fn pipelined_lanes_post_to_distinct_slots() {
        let m = machine();
        let rt = Arc::new(OffloadRuntime::new(Arc::clone(&m), 4));
        let client = Arc::new(ModClient { parts: m.partitions() });
        let mut sim = m.simulation();
        rt.spawn_combiners(&mut sim, Arc::new(Echo { retry_once: false }));
        let rt2 = Arc::clone(&rt);
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
            let mut pending = Vec::new();
            for lane in 0..4 {
                // Same partition so one combiner pass can batch them.
                match rt2.issue(ctx, &*client, lane, Op::Read(2 * lane as u32)) {
                    Issued::Pending(p) => pending.push(p),
                    Issued::Done(_) => unreachable!("ModClient always posts"),
                }
            }
            let mut results = vec![None; pending.len()];
            while results.iter().any(Option::is_none) {
                let mut progressed = false;
                for (i, p) in pending.iter_mut().enumerate() {
                    if results[i].is_none() {
                        if let PollOutcome::Done(r) = rt2.poll(ctx, &*client, p) {
                            results[i] = Some(r);
                            progressed = true;
                        }
                    }
                }
                if !progressed {
                    ctx.idle(16);
                }
            }
            for (lane, r) in results.iter().enumerate() {
                assert_eq!(r.unwrap().value, 2 * lane as u32 + 1);
            }
        });
        sim.run();
        let o = m.mem().snapshot().offload;
        assert_eq!(o.posted_total(), 4);
        // All four keys are even -> partition 0; 4 distinct lanes used.
        assert!(o.lane_posted[..4].iter().all(|&c| c == 1), "lanes: {:?}", o.lane_posted);
        assert!(o.passes_with(2) > 0, "combiner should batch concurrent lane posts");
    }
}
