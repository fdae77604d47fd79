//! Hybrid B+ tree (§3.4): sequence-locked host-managed top levels, locked
//! single-threaded NMP-managed lower levels, synchronized across the
//! host-NMP boundary by the parent-seqnum protocol and the
//! LOCK_PATH / RESUME_INSERT dance of Listings 3–5.
//!
//! * The tree is bulk-built in host memory, the split point is chosen so
//!   the top levels fit the LLC, and lower subtrees are pushed down into
//!   NMP partitions at contiguous key-range boundaries ([`super::build`]).
//! * Every operation traverses the host levels optimistically
//!   (Listing 4), then offloads with the begin-NMP-traversal child and the
//!   parent's observed seqnum. The NMP core validates the parent seqnum
//!   against the one recorded in the begin node (Listing 5, lines 2–8):
//!   greater-recorded ⇒ the begin node has been split ⇒ host retry;
//!   smaller-recorded ⇒ a sibling split bumped the parent ⇒ adopt.
//! * An NMP insert locks its path bottom-up. If even the top NMP node must
//!   split, the NMP core keeps the path locked and replies LOCK_PATH; the
//!   host locks its own path (seqnum CAS) and sends RESUME_INSERT (the
//!   split-off child then propagates into the locked host path), or fails
//!   to lock and sends UNLOCK_PATH and retries from the root.
//! * Removals that meet a locked leaf abort and retry (§3.4); reads and
//!   value updates proceed.

use std::sync::Arc;

use nmp_sim::analysis::RegionClass;
use nmp_sim::{Addr, EffectSpec, Machine, Region, ThreadCtx, NULL};
use workloads::{Key, Op, Value};

use crate::api::OpResult;
use crate::effects::{protocol_op, AccessDecl};
use crate::offload::{OffloadClient, OffloadRuntime, Offloaded, Step};
use crate::publist::{NmpExec, OpCode, Request, Response};

use super::build;
use super::host_only::{apply_insert, InsertSeed};
use super::node::{self, INNER_MAX};
use super::traverse::try_descend;

/// NMP-side executor of the hybrid B+ tree.
pub struct BtreeExec {
    machine: Arc<Machine>,
}

/// A cross-boundary insert parked between LOCK_PATH and RESUME_INSERT /
/// UNLOCK_PATH: the NMP path stays locked meanwhile (Listing 5).
pub struct ParkedInsert {
    key: Key,
    value: Value,
    locked: Vec<Addr>,
    begin: Addr,
    parent_seq: u32,
}

impl NmpExec for BtreeExec {
    type SlotState = Option<ParkedInsert>;

    // Deliberately NOT coalescible (the `NmpExec` default, `&[]`): even
    // the Read path may write partition memory — sequence-number adoption
    // stores `req.aux` into the node when the recorded seqnum lags — so
    // replicating a response across requests would skip a state change.
    // `effects::assert_coalescible_ops` would reject a Read declaration
    // here anyway.

    fn exec(
        &self,
        ctx: &mut ThreadCtx,
        part: usize,
        req: &Request,
        state: &mut Option<ParkedInsert>,
    ) -> Response {
        match req.op {
            OpCode::ResumeInsert => {
                let p = state.take().expect("RESUME_INSERT without a parked insert");
                let mut locked = p.locked;
                let carry = apply_insert(
                    ctx,
                    self.machine.part_arena(part),
                    &mut locked,
                    0,
                    InsertSeed::Leaf(p.key, p.value),
                );
                let (div, new_child) = carry.expect("a parked insert always splits its top node");
                // The begin node and its split-off sibling will see their
                // host parent unlock at parent_seq + 2 (lock + unlock).
                node::write_seq(ctx, p.begin, p.parent_seq + 2);
                node::write_seq(ctx, new_child, p.parent_seq + 2);
                for &n in &locked {
                    let m = node::read_meta(ctx, n);
                    node::write_meta(ctx, n, node::Meta { locked: false, ..m });
                }
                Response { ok: true, split_key: div, new_child, ..Default::default() }
            }
            OpCode::UnlockPath => {
                let p = state.take().expect("UNLOCK_PATH without a parked insert");
                for &n in &p.locked {
                    let m = node::read_meta(ctx, n);
                    node::write_meta(ctx, n, node::Meta { locked: false, ..m });
                }
                Response { ok: true, ..Default::default() }
            }
            _ => self.exec_main(ctx, part, req, state),
        }
    }

    fn effect_spec(&self) -> EffectSpec {
        // NMP half: non-scan ops acquire-read the begin node's parent
        // seqnum and may release-store it back on sibling-split adoption;
        // mutators additionally write node contents (Part regions are
        // single-core, so the annotations are same-thread no-ops).
        let check = [
            AccessDecl::read(RegionClass::Part).acquire(),
            AccessDecl::read(RegionClass::Part),
            AccessDecl::write(RegionClass::Part).release(),
        ];
        let mutate = [
            AccessDecl::read(RegionClass::Part).acquire(),
            AccessDecl::read(RegionClass::Part),
            AccessDecl::write(RegionClass::Part),
            AccessDecl::write(RegionClass::Part).release(),
        ];
        let walk = [AccessDecl::read(RegionClass::Part)];
        // Splits replicate the original's seq word (acquire read + release
        // store), so the resumed insert reads seqnums as well as contents.
        let resume = [
            AccessDecl::read(RegionClass::Part).acquire(),
            AccessDecl::read(RegionClass::Part),
            AccessDecl::write(RegionClass::Part),
            AccessDecl::write(RegionClass::Part).release(),
        ];
        let unlock = [AccessDecl::read(RegionClass::Part), AccessDecl::write(RegionClass::Part)];
        EffectSpec::new("hybrid-btree")
            .op(protocol_op(OpCode::Read, "Read").nmp_all(&check))
            .op(protocol_op(OpCode::Scan, "Scan").nmp_all(&walk))
            .op(protocol_op(OpCode::Update, "Update").nmp_all(&mutate))
            .op(protocol_op(OpCode::Insert, "Insert").nmp_all(&mutate))
            .op(protocol_op(OpCode::Remove, "Remove").nmp_all(&mutate))
            .op(protocol_op(OpCode::ResumeInsert, "ResumeInsert").nmp_all(&resume))
            .op(protocol_op(OpCode::UnlockPath, "UnlockPath").nmp_all(&unlock))
    }
}

impl BtreeExec {
    fn exec_main(
        &self,
        ctx: &mut ThreadCtx,
        part: usize,
        req: &Request,
        state: &mut Option<ParkedInsert>,
    ) -> Response {
        let begin = req.begin;
        debug_assert_ne!(begin, NULL);
        // Host-NMP boundary synchronization (Listing 5, lines 2-8).
        // Scans carry the remaining length in `aux` instead of the parent
        // seqnum and skip the check: a begin node is never deleted, and a
        // concurrent split at worst makes the (non-atomic) scan continue
        // from a slightly stale leaf.
        if req.op != OpCode::Scan {
            let recorded = node::read_seq(ctx, begin);
            if recorded > req.aux {
                return Response::retry(); // begin node was split by an earlier op
            }
            if recorded < req.aux {
                node::write_seq(ctx, begin, req.aux); // sibling split: adopt
            }
        }
        // Descend from the begin node, recording the path.
        let bm = node::read_meta(ctx, begin);
        let mut path: Vec<Addr> = vec![NULL; bm.level as usize + 1];
        path[bm.level as usize] = begin;
        let mut curr = begin;
        let mut meta = bm;
        while meta.level > 0 {
            let idx = node::find_child_idx(ctx, curr, meta.slotuse, req.key);
            curr = node::read_payload(ctx, curr, idx);
            meta = node::read_meta(ctx, curr);
            path[meta.level as usize] = curr;
        }
        let leaf = curr;
        let lm = meta;
        match req.op {
            OpCode::Scan => {
                // Walk the partition-local leaf chain from `key`, reading up
                // to `aux` pairs with keys <= `value` (the subtree bound the
                // host computed; 0 = unbounded).
                let bound = req.value;
                let mut remaining = req.aux;
                let mut count = 0u32;
                let mut from = req.key;
                let mut node_ptr = leaf;
                'walk: while remaining > 0 && node_ptr != NULL {
                    let m = node::read_meta(ctx, node_ptr);
                    for i in 0..m.slotuse.min(node::LEAF_MAX) {
                        ctx.step();
                        let k = node::read_key(ctx, node_ptr, i);
                        if k < from {
                            continue;
                        }
                        if bound != 0 && k > bound {
                            break 'walk;
                        }
                        let _ = node::read_payload(ctx, node_ptr, i);
                        count += 1;
                        remaining -= 1;
                        if remaining == 0 {
                            break 'walk;
                        }
                    }
                    from = 0;
                    node_ptr = ctx.read_u32(node_ptr + 120);
                }
                // split_key = 1 signals the chain ended inside the bound
                // (global end if the bound was unbounded).
                Response {
                    ok: true,
                    value: count,
                    split_key: (node_ptr == NULL) as u32,
                    ..Default::default()
                }
            }
            OpCode::Read => match node::leaf_find(ctx, leaf, lm.slotuse, req.key) {
                Some(i) => Response::ok_value(node::read_payload(ctx, leaf, i)),
                None => Response::fail(),
            },
            OpCode::Update => match node::leaf_find(ctx, leaf, lm.slotuse, req.key) {
                Some(i) => {
                    node::write_payload(ctx, leaf, i, req.value);
                    Response { ok: true, ..Default::default() }
                }
                None => Response::fail(),
            },
            OpCode::Remove => {
                if lm.locked {
                    // Leaf reserved by a parked insert: abort & retry (§3.4).
                    return Response::retry();
                }
                match node::leaf_find(ctx, leaf, lm.slotuse, req.key) {
                    Some(i) => {
                        node::leaf_remove_at(ctx, leaf, i);
                        Response { ok: true, ..Default::default() }
                    }
                    None => Response::fail(),
                }
            }
            OpCode::Insert => {
                if node::leaf_find(ctx, leaf, lm.slotuse, req.key).is_some() {
                    return Response::fail(); // duplicate
                }
                // Lock the path bottom-up until a non-full node absorbs
                // (Listing 5, lines 13-24).
                let mut locked: Vec<Addr> = Vec::new();
                let mut locked_all = false;
                for lvl in 0..=bm.level {
                    let n = path[lvl as usize];
                    let m = node::read_meta(ctx, n);
                    if m.locked {
                        // Reserved by another parked insert: back off.
                        for &x in &locked {
                            let xm = node::read_meta(ctx, x);
                            node::write_meta(ctx, x, node::Meta { locked: false, ..xm });
                        }
                        return Response::retry();
                    }
                    node::write_meta(ctx, n, node::Meta { locked: true, ..m });
                    locked.push(n);
                    let max = if lvl == 0 { node::LEAF_MAX } else { INNER_MAX };
                    if m.slotuse < max {
                        locked_all = true;
                        break;
                    }
                }
                if locked_all {
                    let carry = apply_insert(
                        ctx,
                        self.machine.part_arena(part),
                        &mut locked,
                        0,
                        InsertSeed::Leaf(req.key, req.value),
                    );
                    debug_assert!(carry.is_none(), "absorbed insert cannot escape");
                    for &n in &locked {
                        let m = node::read_meta(ctx, n);
                        node::write_meta(ctx, n, node::Meta { locked: false, ..m });
                    }
                    Response { ok: true, ..Default::default() }
                } else {
                    // Even the top NMP node must split: park the insert with
                    // its path locked and ask the host to lock its side.
                    *state = Some(ParkedInsert {
                        key: req.key,
                        value: req.value,
                        locked,
                        begin,
                        parent_seq: req.aux,
                    });
                    Response::lock_path()
                }
            }
            _ => unreachable!(),
        }
    }
}

/// The hybrid B+ tree.
pub struct HybridBTree {
    machine: Arc<Machine>,
    runtime: OffloadRuntime,
    exec: Arc<BtreeExec>,
    root_word: Addr,
    last_host_level: u32,
}

impl HybridBTree {
    /// Bulk-build over ascending `pairs`, choose the host-NMP split from
    /// the LLC size (budget 1.25× L2, mirroring the paper's 1.14 MB host
    /// portion over a 1 MB LLC), and push the lower levels down into the
    /// NMP partitions.
    pub fn new(
        machine: Arc<Machine>,
        pairs: &[(Key, Value)],
        fill: f64,
        max_inflight: usize,
    ) -> Arc<Self> {
        let budget = machine.config().l2.size_bytes as u64 * 5 / 4;
        Self::with_budget(machine, pairs, fill, max_inflight, budget)
    }

    /// As [`Self::new`] with an explicit host-portion byte budget.
    pub fn with_budget(
        machine: Arc<Machine>,
        pairs: &[(Key, Value)],
        fill: f64,
        max_inflight: usize,
        budget_bytes: u64,
    ) -> Arc<Self> {
        let (root, height) = build::bulk_build(&machine, machine.host_arena(), pairs, fill);
        let counts = build::level_counts(&machine, root, height);
        let last_host_level = build::choose_split(&counts, budget_bytes);
        build::push_down(&machine, root, height, last_host_level);
        let root_word = machine.host_arena().alloc(8);
        node::raw_set_root(machine.ram(), root_word, root);
        let runtime = OffloadRuntime::new(Arc::clone(&machine), max_inflight);
        let exec = Arc::new(BtreeExec { machine: Arc::clone(&machine) });
        Arc::new(HybridBTree { machine, runtime, exec, root_word, last_host_level })
    }

    /// The machine the tree lives on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Current root node address.
    pub fn root(&self) -> Addr {
        node::raw_root(self.machine.ram(), self.root_word)
    }

    /// Current tree height (levels, root included).
    pub fn height(&self) -> u32 {
        node::raw_meta(self.machine.ram(), self.root()).level + 1
    }

    /// The lowest host-managed level (children of these nodes are the top
    /// NMP-managed nodes).
    pub fn last_host_level(&self) -> u32 {
        self.last_host_level
    }

    fn part_of(&self, begin: Addr) -> usize {
        match self.machine.map().region_of(begin) {
            Region::Part(p) => p,
            r => panic!("begin-NMP-traversal node {begin:#x} not in an NMP partition ({r:?})"),
        }
    }

    fn opcode(op: Op) -> OpCode {
        match op {
            Op::Read(_) => OpCode::Read,
            Op::Insert(..) => OpCode::Insert,
            Op::Remove(_) => OpCode::Remove,
            Op::Update(..) => OpCode::Update,
            Op::Scan(..) => OpCode::Scan,
            Op::ExtractMin => unreachable!("extract-min never reaches the offload path"),
        }
    }

    /// Next subtree request of a range scan (extension; YCSB-E): iterate
    /// begin-child subtrees left to right. Each offload scans one subtree's
    /// worth of the partition-local leaf chain, bounded by the subtree's
    /// dividing key; the host then continues at `bound + 1`, which routes
    /// to the next subtree (possibly in the next partition). The descent is
    /// bounded, so a seqlock held by a sibling lane never wedges the scan —
    /// it stalls and retries on the next poll.
    fn scan_step(&self, ctx: &mut ThreadCtx, st: &mut BtOpState) -> Step {
        if st.remaining == 0 {
            return Step::Done(OpResult { ok: st.count > 0, value: st.count });
        }
        let Some(d) = try_descend(ctx, self.root_word, st.from, self.last_host_level, PATIENCE)
        else {
            return Step::Stall;
        };
        let (_, begin) = d.picked.expect("hybrid descent always picks an NMP child");
        let part = self.part_of(begin);
        st.hi = d.picked_hi;
        let mut req = Request::new(OpCode::Scan, st.from, d.picked_hi);
        req.begin = begin;
        req.aux = st.remaining;
        Step::Post { part, req }
    }

    /// Host traversal + offload request (Listing 4 lines 4-24). Bounded:
    /// gives up (stalls) after a few seqlock waits so a pipelined host
    /// thread never spins on a lock that one of its *own* in-flight
    /// operations holds.
    fn offload_step(&self, ctx: &mut ThreadCtx, op: Op, st: &mut BtOpState) -> Step {
        let key = op.key();
        let Some(d) = try_descend(ctx, self.root_word, key, self.last_host_level, PATIENCE) else {
            return Step::Stall;
        };
        let (_, begin) = d.picked.expect("hybrid descent always picks an NMP child");
        let part = self.part_of(begin);
        let value = match op {
            Op::Insert(_, v) | Op::Update(_, v) => v,
            _ => 0,
        };
        let mut req = Request::new(Self::opcode(op), key, value);
        req.begin = begin;
        req.aux = d.bottom().1; // parent's observed (even) seqnum
        st.saved = SavedDescent { path: d.path, root_level: d.root_level };
        st.part = part;
        Step::Post { part, req }
    }

    /// LOCK_PATH arrived: lock the recorded host path from the last host
    /// level upward until a non-full node (Listing 4 lines 26-35).
    fn try_lock_host_path(&self, ctx: &mut ThreadCtx, saved: &SavedDescent) -> Option<Vec<Addr>> {
        let mut locked = Vec::new();
        for &(n, s) in saved.path.iter() {
            if !node::try_lock_seq(ctx, n, s) {
                for &l in locked.iter().rev() {
                    node::unlock_seq(ctx, l);
                }
                return None;
            }
            locked.push(n);
            if node::read_meta(ctx, n).slotuse < INNER_MAX {
                break;
            }
        }
        Some(locked)
    }

    /// Complete the host side of a cross-boundary insert: graft the
    /// split-off NMP child into the locked host path, growing a new root
    /// if every host level split, then unlock.
    fn finish_resume(
        &self,
        ctx: &mut ThreadCtx,
        mut locked: Vec<Addr>,
        root_level: u32,
        split_key: Key,
        new_child: Addr,
    ) {
        let top_of_path = *locked.last().unwrap();
        let carry = apply_insert(
            ctx,
            self.machine.host_arena(),
            &mut locked,
            self.last_host_level,
            InsertSeed::Child(split_key, new_child),
        );
        if let Some((div, right)) = carry {
            let nr = node::alloc_node(self.machine.host_arena());
            node::init_node(ctx, nr, root_level + 1, 1);
            node::write_key(ctx, nr, 0, div);
            node::write_payload(ctx, nr, 0, top_of_path);
            node::write_payload(ctx, nr, 1, right);
            // Release: publishes the new root to optimistic descents.
            ctx.write_u32_release(self.root_word, nr);
        }
        for &l in locked.iter().rev() {
            node::unlock_seq(ctx, l);
        }
    }

    fn to_result(op: Op, resp: &Response) -> OpResult {
        match op {
            Op::Read(_) => OpResult { ok: resp.ok, value: resp.value },
            _ => OpResult { ok: resp.ok, value: 0 },
        }
    }

    // ---- untimed inspection ----

    /// All `(key, value)` pairs, validating tree ordering on the way.
    pub fn collect(&self) -> Vec<(Key, Value)> {
        build::check_and_collect(&self.machine, self.root(), 0, 0)
    }

    /// Structural invariants at quiescence: ordering (via collect), region
    /// placement per level, all host seqlocks even, all NMP locks clear,
    /// and begin-node parent seqnums never ahead of their parents.
    pub fn check_invariants(&self) {
        let ram = self.machine.ram();
        let _ = self.collect();
        let root = self.root();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let m = node::raw_meta(ram, n);
            let region = self.machine.map().region_of(n);
            if m.level >= self.last_host_level {
                assert_eq!(region, Region::Host, "host-level node in wrong region");
                assert_eq!(node::raw_seq(ram, n) % 2, 0, "host node {n:#x} left locked");
            } else {
                assert!(matches!(region, Region::Part(_)), "NMP node {n:#x} in wrong region");
                assert!(!m.locked, "NMP node {n:#x} left locked");
            }
            if !m.is_leaf() {
                for i in 0..=m.slotuse {
                    let c = node::raw_payload(ram, n, i);
                    if m.level == self.last_host_level {
                        let ps = node::raw_seq(ram, c);
                        let s = node::raw_seq(ram, n);
                        assert!(ps <= s, "child {c:#x} parent_seqnum {ps} ahead of parent {s}");
                        assert!(matches!(self.machine.map().region_of(c), Region::Part(_)));
                    }
                    stack.push(c);
                }
            }
        }
    }
}

/// Seqlock waits a bounded host descent tolerates before giving up, so a
/// pipelined host thread never spins on a lock that one of its *own*
/// in-flight operations holds.
const PATIENCE: u32 = 8;

/// Host traversal snapshot kept while an operation is in flight.
#[derive(Default)]
pub struct SavedDescent {
    path: Vec<(Addr, u32)>,
    root_level: u32,
}

/// Which request the operation currently awaits a response to.
#[derive(Default, PartialEq, Eq)]
enum BtPhase {
    /// The main operation (or, for a stalled descent, none yet).
    #[default]
    Main,
    /// RESUME_INSERT (host path locked, held in `BtOpState::locked`).
    Resume,
    /// UNLOCK_PATH acknowledgment before retrying from the root.
    AwaitUnlock,
}

/// Per-operation offload state: the recorded host descent, the lock-path
/// phase, and the subtree-hopping scan cursor.
#[derive(Default)]
pub struct BtOpState {
    saved: SavedDescent,
    phase: BtPhase,
    locked: Vec<Addr>,
    /// Partition of the main request's begin node; RESUME_INSERT /
    /// UNLOCK_PATH must go to the same combiner (it holds the parked
    /// insert in that slot's state).
    part: usize,
    started: bool,
    from: Key,
    remaining: u32,
    count: u32,
    hi: Key,
}

impl OffloadClient for HybridBTree {
    type OpState = BtOpState;

    fn advance(&self, ctx: &mut ThreadCtx, op: Op, st: &mut BtOpState) -> Step {
        if let Op::Scan(k, len) = op {
            if !st.started {
                st.started = true;
                st.from = k;
                st.remaining = len as u32;
            }
            return self.scan_step(ctx, st);
        }
        if matches!(op, Op::ExtractMin) {
            // Not a search-tree operation (priority queues only).
            return Step::Done(OpResult::fail());
        }
        // Initial attempt, stalled-descent retry, or NMP-side retry
        // (stale begin node / locked leaf): redo the optimistic descent.
        st.phase = BtPhase::Main;
        self.offload_step(ctx, op, st)
    }

    fn complete(&self, ctx: &mut ThreadCtx, op: Op, resp: &Response, st: &mut BtOpState) -> Step {
        if matches!(op, Op::Scan(..)) {
            st.count += resp.value;
            st.remaining = st.remaining.saturating_sub(resp.value);
            if st.remaining == 0 || st.hi == 0 {
                // Either length satisfied, or the rightmost (unbounded)
                // subtree served everything it could: global end.
                return Step::Done(OpResult { ok: st.count > 0, value: st.count });
            }
            st.from = st.hi + 1;
            return self.scan_step(ctx, st);
        }
        match st.phase {
            BtPhase::Resume => {
                debug_assert!(resp.ok, "RESUME_INSERT is guaranteed to succeed");
                let locked = std::mem::take(&mut st.locked);
                self.finish_resume(
                    ctx,
                    locked,
                    st.saved.root_level,
                    resp.split_key,
                    resp.new_child,
                );
                Step::Done(OpResult::ok(0))
            }
            BtPhase::AwaitUnlock => {
                // Retry the whole insert from the root (Listing 4 line 33).
                st.phase = BtPhase::Main;
                self.offload_step(ctx, op, st)
            }
            BtPhase::Main => {
                if resp.lock_path {
                    return match self.try_lock_host_path(ctx, &st.saved) {
                        Some(locked) => {
                            st.locked = locked;
                            st.phase = BtPhase::Resume;
                            Step::Post {
                                part: st.part,
                                req: Request::new(OpCode::ResumeInsert, op.key(), 0),
                            }
                        }
                        None => {
                            st.phase = BtPhase::AwaitUnlock;
                            Step::Post {
                                part: st.part,
                                req: Request::new(OpCode::UnlockPath, op.key(), 0),
                            }
                        }
                    };
                }
                Step::Done(Self::to_result(op, resp))
            }
        }
    }

    fn effect_spec(&self) -> EffectSpec {
        // Host half: every op performs the optimistic seqlock descent
        // (acquire seqnum reads + speculative content reads); inserts may
        // additionally seqnum-CAS-lock the host path, graft the split-off
        // child (plain reads/writes) and release-publish a new root.
        let descend = [
            AccessDecl::read(RegionClass::Host).acquire(),
            AccessDecl::read(RegionClass::Host).speculative(),
        ];
        let graft = [
            AccessDecl::read(RegionClass::Host).acquire(),
            AccessDecl::read(RegionClass::Host).speculative(),
            AccessDecl::read(RegionClass::Host),
            AccessDecl::write(RegionClass::Host),
            AccessDecl::write(RegionClass::Host).cas(),
            AccessDecl::write(RegionClass::Host).release(),
        ];
        let resume = [
            AccessDecl::read(RegionClass::Host).acquire(),
            AccessDecl::read(RegionClass::Host),
            AccessDecl::write(RegionClass::Host),
            AccessDecl::write(RegionClass::Host).release(),
        ];
        EffectSpec::new("hybrid-btree")
            .op(protocol_op(OpCode::Read, "Read").host_all(&descend))
            .op(protocol_op(OpCode::Scan, "Scan").host_all(&descend))
            .op(protocol_op(OpCode::Update, "Update").host_all(&descend))
            .op(protocol_op(OpCode::Insert, "Insert").host_all(&graft))
            .op(protocol_op(OpCode::Remove, "Remove").host_all(&descend))
            .op(protocol_op(OpCode::ResumeInsert, "ResumeInsert").host_all(&resume))
            .op(protocol_op(OpCode::UnlockPath, "UnlockPath").host_all(&descend))
    }
}

impl Offloaded for HybridBTree {
    type Exec = BtreeExec;

    fn runtime(&self) -> &OffloadRuntime {
        &self.runtime
    }

    fn executor(&self) -> &Arc<BtreeExec> {
        &self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Issued, PollOutcome, SimIndex};
    use crate::offload::PendingOp;
    use nmp_sim::{Config, ThreadKind};
    use std::collections::BTreeMap;

    fn setup(n: u32, fill: f64, budget: u64) -> (Arc<Machine>, Arc<HybridBTree>) {
        let m = Machine::new(Config::tiny());
        let pairs: Vec<(Key, Value)> = (1..=n).map(|k| (k * 8, k)).collect();
        let t = HybridBTree::with_budget(Arc::clone(&m), &pairs, fill, 4, budget);
        (m, t)
    }

    fn run_hosts(
        m: &Arc<Machine>,
        t: &Arc<HybridBTree>,
        threads: usize,
        f: impl Fn(&mut ThreadCtx, &HybridBTree, usize) + Send + Sync + 'static,
    ) {
        let mut sim = m.simulation();
        t.spawn_services(&mut sim);
        let f = Arc::new(f);
        for core in 0..threads {
            let t = Arc::clone(t);
            let f = Arc::clone(&f);
            sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| f(ctx, &t, core));
        }
        sim.run();
    }

    #[test]
    fn construction_splits_tree() {
        let (_m, t) = setup(2000, 0.5, 8 * 1024);
        assert!(t.last_host_level() >= 1);
        assert!(t.last_host_level() < t.height());
        t.check_invariants();
        assert_eq!(t.collect().len(), 2000);
    }

    #[test]
    fn point_ops_roundtrip() {
        let (m, t) = setup(2000, 0.5, 8 * 1024);
        run_hosts(&m, &t, 1, |ctx, t, _| {
            assert_eq!(t.execute(ctx, Op::Read(800)), OpResult::ok(100));
            assert!(!t.execute(ctx, Op::Read(801)).ok);
            assert!(t.execute(ctx, Op::Insert(801, 5)).ok);
            assert!(!t.execute(ctx, Op::Insert(801, 6)).ok, "duplicate");
            assert_eq!(t.execute(ctx, Op::Read(801)), OpResult::ok(5));
            assert!(t.execute(ctx, Op::Update(801, 7)).ok);
            assert_eq!(t.execute(ctx, Op::Read(801)), OpResult::ok(7));
            assert!(t.execute(ctx, Op::Remove(801)).ok);
            assert!(!t.execute(ctx, Op::Remove(801)).ok);
        });
        t.check_invariants();
    }

    #[test]
    fn split_heavy_inserts_cross_boundary() {
        // Full leaves + sequential keys at one spot force LOCK_PATH /
        // RESUME_INSERT cascades through the host boundary.
        let (m, t) = setup(2000, 1.0, 8 * 1024);
        run_hosts(&m, &t, 1, |ctx, t, _| {
            for i in 0..300u32 {
                assert!(t.execute(ctx, Op::Insert(16001 + i, i)).ok, "insert {i}");
            }
        });
        t.check_invariants();
        assert_eq!(t.collect().len(), 2300);
    }

    #[test]
    fn concurrent_split_heavy_inserts() {
        let (m, t) = setup(2000, 1.0, 8 * 1024);
        run_hosts(&m, &t, 4, |ctx, t, core| {
            for i in 0..60u32 {
                let key = 16001 + core as u32 * 1000 + i;
                assert!(t.execute(ctx, Op::Insert(key, i)).ok, "core {core} insert {i}");
            }
        });
        t.check_invariants();
        assert_eq!(t.collect().len(), 2240);
    }

    #[test]
    fn concurrent_disjoint_ops_match_model() {
        let (m, t) = setup(2000, 0.5, 8 * 1024);
        run_hosts(&m, &t, 4, |ctx, t, core| {
            for k in 1..=2000u32 {
                if k as usize % 4 != core {
                    continue;
                }
                match k % 4 {
                    0 => assert!(t.execute(ctx, Op::Remove(k * 8)).ok, "remove {k}"),
                    1 => assert!(t.execute(ctx, Op::Update(k * 8, k + 9)).ok),
                    2 => assert!(t.execute(ctx, Op::Insert(k * 8 + 3, k)).ok),
                    _ => assert!(t.execute(ctx, Op::Read(k * 8)).ok),
                }
            }
        });
        t.check_invariants();
        let mut model = BTreeMap::new();
        for k in 1..=2000u32 {
            match k % 4 {
                0 => {}
                1 => {
                    model.insert(k * 8, k + 9);
                }
                2 => {
                    model.insert(k * 8, k);
                    model.insert(k * 8 + 3, k);
                }
                _ => {
                    model.insert(k * 8, k);
                }
            }
        }
        let got: BTreeMap<_, _> = t.collect().into_iter().collect();
        assert_eq!(got, model);
    }

    #[test]
    fn remove_retries_past_parked_insert() {
        // Concurrent split-heavy inserts and removes in the same key range:
        // removes must survive hitting locked leaves.
        let (m, t) = setup(500, 1.0, 4 * 1024);
        run_hosts(&m, &t, 4, |ctx, t, core| {
            for i in 0..40u32 {
                if core % 2 == 0 {
                    let key = 4001 + core as u32 * 500 + i;
                    assert!(t.execute(ctx, Op::Insert(key, i)).ok);
                } else {
                    let key = ((i * 13 + core as u32) % 500 + 1) * 8;
                    let _ = t.execute(ctx, Op::Remove(key));
                }
            }
        });
        t.check_invariants();
    }

    #[test]
    fn nonblocking_pipeline_with_lock_path() {
        let (m, t) = setup(500, 1.0, 4 * 1024);
        run_hosts(&m, &t, 2, |ctx, t, core| {
            let mut lanes: Vec<Option<PendingOp<BtOpState>>> = (0..2).map(|_| None).collect();
            let mut issued = 0u32;
            let mut done = 0u32;
            let total = 50u32;
            while done < total {
                for (lane, slot) in lanes.iter_mut().enumerate() {
                    match slot.take() {
                        None if issued < total => {
                            let key = 4001 + core as u32 * 500 + issued;
                            issued += 1;
                            match t.issue(ctx, lane, Op::Insert(key, key)) {
                                Issued::Done(r) => {
                                    assert!(r.ok);
                                    done += 1;
                                }
                                Issued::Pending(p) => *slot = Some(p),
                            }
                        }
                        None => {}
                        Some(mut p) => match t.poll(ctx, &mut p) {
                            PollOutcome::Done(r) => {
                                assert!(r.ok);
                                done += 1;
                            }
                            PollOutcome::Pending => *slot = Some(p),
                        },
                    }
                }
                ctx.idle(20);
            }
        });
        t.check_invariants();
        assert_eq!(t.collect().len(), 600);
    }

    #[test]
    fn sibling_split_updates_recorded_seq() {
        // After a cross-boundary split bumps the parent seq, operations on
        // *sibling* begin nodes (recorded < offloaded) must still succeed.
        let (m, t) = setup(500, 1.0, 4 * 1024);
        run_hosts(&m, &t, 1, |ctx, t, _| {
            // Force splits in one area...
            for i in 0..60u32 {
                // Gap keys (never multiples of 8): each lands in a full
                // leaf and forces a split.
                assert!(t.execute(ctx, Op::Insert(2001 + 8 * i, i)).ok, "insert {i}");
            }
            // ...then read everywhere else (siblings of the split child).
            for k in 1..=500u32 {
                assert!(t.execute(ctx, Op::Read(k * 8)).ok, "read {k}");
            }
        });
        t.check_invariants();
    }

    #[test]
    fn deterministic_replay() {
        let world = || {
            let (m, t) = setup(500, 0.7, 4 * 1024);
            let mut sim = m.simulation();
            t.spawn_services(&mut sim);
            for core in 0..3usize {
                let t = Arc::clone(&t);
                sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
                    for i in 0..40u32 {
                        let key = ((i * 31 + core as u32 * 17) % 600 + 1) * 8;
                        match i % 3 {
                            0 => drop(t.execute(ctx, Op::Insert(key + 1, i))),
                            1 => drop(t.execute(ctx, Op::Remove(key))),
                            _ => drop(t.execute(ctx, Op::Read(key))),
                        }
                    }
                });
            }
            let out = sim.run();
            (out.makespan(), t.collect())
        };
        assert_eq!(world(), world());
    }
}
