//! NMP-based flat-combining skiplist — the prior-work baseline
//! (Liu et al. SPAA '17 \[44\], Choe et al. SPAA '19 \[16\]).
//!
//! The entire skiplist lives in NMP memory, range-partitioned across the
//! NMP vaults. Host threads do **no** traversal at all: they post each
//! operation to the target partition's publication list and the partition's
//! NMP core (the combiner) executes it against its partition-local,
//! single-threaded skiplist. All traversals start at the partition
//! sentinel — the begin-NMP-traversal shortcut of the hybrid design does
//! not exist here.

use std::sync::Arc;

use nmp_sim::analysis::RegionClass;
use nmp_sim::{Addr, EffectSpec, Machine, ThreadCtx, NULL};
use workloads::{Key, KeySpace, Op, Value};

use crate::api::OpResult;
use crate::effects::{protocol_op, AccessDecl};
use crate::offload::{OffloadClient, OffloadRuntime, Offloaded, Step};
use crate::publist::{NmpExec, OpCode, Request, Response};

use super::{node, seq};

/// Shared NMP-side executor for skiplist portions (used by both the
/// NMP-based baseline and the NMP-managed portion of the hybrid skiplist).
pub struct SkiplistExec {
    machine: Arc<Machine>,
    heads: Vec<Addr>,
    levels: u32,
}

impl SkiplistExec {
    /// Executor over the per-partition head sentinels in `heads`.
    pub fn new(machine: Arc<Machine>, heads: Vec<Addr>, levels: u32) -> Self {
        SkiplistExec { machine, heads, levels }
    }
}

impl NmpExec for SkiplistExec {
    type SlotState = ();

    // Reads are a pure tower descent (`seq::read`); the begin-node
    // deleted check only turns into a retry response, never a partition
    // write — safe to key-range coalesce.
    fn coalescible_ops(&self) -> &'static [OpCode] {
        &[OpCode::Read]
    }

    fn exec(&self, ctx: &mut ThreadCtx, part: usize, req: &Request, _s: &mut ()) -> Response {
        // Resolve the traversal start: the begin-NMP-traversal node if the
        // host supplied one (and it is still alive), else the sentinel.
        let start = if req.begin != NULL {
            let hdr = node::read_header(ctx, req.begin);
            if hdr.deleted {
                // Stale shortcut: removed by an operation processed earlier
                // in this combiner (Listing 2, lines 7-10).
                return Response::retry();
            }
            req.begin
        } else {
            self.heads[part]
        };
        match req.op {
            OpCode::Read => match seq::read(ctx, start, self.levels, req.key) {
                Some(v) => Response::ok_value(v),
                None => Response::fail(),
            },
            OpCode::Update => {
                match seq::update(ctx, start, self.levels, req.key, req.value) {
                    // Return the host-side counterpart so the host can
                    // propagate the new value (§3.3).
                    Some(host_ptr) => Response { ok: true, value: host_ptr, ..Default::default() },
                    None => Response::fail(),
                }
            }
            OpCode::Insert => {
                let arena = self.machine.part_arena(part);
                match seq::insert(
                    ctx,
                    arena,
                    start,
                    self.levels,
                    req.key,
                    req.value,
                    req.aux, // full height
                    req.host_ptr,
                ) {
                    Some(n) => Response { ok: true, new_ptr: n, ..Default::default() },
                    None => Response::fail(), // duplicate
                }
            }
            OpCode::Remove => {
                if seq::remove(ctx, start, self.levels, req.key) {
                    Response { ok: true, ..Default::default() }
                } else {
                    Response::fail()
                }
            }
            OpCode::Scan => {
                // req.aux = remaining length; the level-0 chain is
                // partition-local, so the walk stops at the boundary.
                let count = seq::scan(ctx, start, self.levels, req.key, req.aux);
                Response { ok: true, value: count, ..Default::default() }
            }
            op => panic!("skiplist executor received B+ tree opcode {op:?}"),
        }
    }

    fn effect_spec(&self) -> EffectSpec {
        // NMP half, shared by the baseline and the hybrid's bottom portion:
        // every op walks the partition-local run; insert/remove splice it,
        // update release-stores the value word (paired host-side in the
        // hybrid, partition-exempt here).
        let walk = [AccessDecl::read(RegionClass::Part)];
        let splice = [AccessDecl::read(RegionClass::Part), AccessDecl::write(RegionClass::Part)];
        let publish =
            [AccessDecl::read(RegionClass::Part), AccessDecl::write(RegionClass::Part).release()];
        EffectSpec::new("skiplist-exec")
            .op(protocol_op(OpCode::Read, "Read").nmp_all(&walk))
            .op(protocol_op(OpCode::Scan, "Scan").nmp_all(&walk))
            .op(protocol_op(OpCode::Update, "Update").nmp_all(&publish))
            .op(protocol_op(OpCode::Insert, "Insert").nmp_all(&splice))
            .op(protocol_op(OpCode::Remove, "Remove").nmp_all(&splice))
    }
}

/// Per-operation offload state: only scans carry state (their
/// partition-hopping cursor); point operations are single requests.
#[derive(Default)]
pub struct NmpOpState {
    started: bool,
    part: usize,
    from: Key,
    remaining: u32,
    count: u32,
}

/// The NMP-based skiplist baseline.
pub struct NmpSkipList {
    machine: Arc<Machine>,
    runtime: OffloadRuntime,
    exec: Arc<SkiplistExec>,
    heads: Vec<Addr>,
    levels: u32,
    ks: KeySpace,
    seed: u64,
}

impl NmpSkipList {
    /// `levels` is the per-partition level count (≈ log2(N / partitions)).
    pub fn new(
        machine: Arc<Machine>,
        ks: KeySpace,
        levels: u32,
        seed: u64,
        max_inflight: usize,
    ) -> Arc<Self> {
        assert_eq!(machine.partitions() as u32, ks.parts, "partition counts must agree");
        let heads: Vec<Addr> = (0..machine.partitions())
            .map(|p| seq::make_sentinel(machine.part_arena(p), machine.ram(), levels))
            .collect();
        let runtime = OffloadRuntime::new(Arc::clone(&machine), max_inflight);
        let exec = Arc::new(SkiplistExec::new(Arc::clone(&machine), heads.clone(), levels));
        Arc::new(NmpSkipList { machine, runtime, exec, heads, levels, ks, seed })
    }

    /// Levels of every per-partition skiplist.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Untimed bulk population from ascending `(key, value)` pairs.
    pub fn populate(&self, pairs: impl IntoIterator<Item = (Key, Value)>) {
        let ram = self.machine.ram();
        let mut last: Vec<Vec<Addr>> =
            self.heads.iter().map(|&h| vec![h; self.levels as usize]).collect();
        for (key, value) in pairs {
            let part = self.ks.partition_of(key) as usize;
            let h = node::height_for_key(key, self.seed, self.levels);
            let n = node::alloc_node(self.machine.part_arena(part), h);
            node::raw_init(ram, n, key, value, h, h, NULL);
            for l in 0..h {
                node::raw_set_next(ram, last[part][l as usize], l, n, false);
                last[part][l as usize] = n;
            }
        }
    }

    fn request_for(&self, op: Op) -> (usize, Request) {
        let part = self.ks.partition_of(op.key()) as usize;
        let req = match op {
            Op::Read(k) => Request::new(OpCode::Read, k, 0),
            Op::Update(k, v) => Request::new(OpCode::Update, k, v),
            Op::Remove(k) => Request::new(OpCode::Remove, k, 0),
            Op::Insert(k, v) => {
                let mut r = Request::new(OpCode::Insert, k, v);
                r.aux = node::height_for_key(k, self.seed, self.levels);
                r
            }
            Op::Scan(..) => unreachable!("scans are driven by the scan cursor in advance"),
            Op::ExtractMin => unreachable!("extract-min never reaches the offload path"),
        };
        (part, req)
    }

    /// Next partition-local scan request of a multi-partition range scan
    /// (offloaded left to right until the length or key space is exhausted).
    fn scan_step(&self, st: &NmpOpState) -> Step {
        if st.remaining == 0 || st.part >= self.ks.parts as usize {
            return Step::Done(OpResult { ok: st.count > 0, value: st.count });
        }
        let mut req = Request::new(OpCode::Scan, st.from, 0);
        req.aux = st.remaining;
        Step::Post { part: st.part, req }
    }

    fn to_result(op: Op, resp: &Response) -> OpResult {
        match op {
            Op::Read(_) => OpResult { ok: resp.ok, value: resp.value },
            _ => OpResult { ok: resp.ok, value: 0 },
        }
    }

    /// Live `(key, value)` pairs across all partitions, in key order.
    pub fn collect(&self) -> Vec<(Key, Value)> {
        let ram = self.machine.ram();
        let mut out = Vec::new();
        for &head in &self.heads {
            let (mut cur, _) = node::raw_next(ram, head, 0);
            while cur != NULL {
                let hdr = node::raw_header(ram, cur);
                if !hdr.deleted {
                    out.push((hdr.key, node::raw_value(ram, cur)));
                }
                let (nxt, _) = node::raw_next(ram, cur, 0);
                cur = nxt;
            }
        }
        out
    }

    /// Per-partition skiplist property check (call at quiescence).
    pub fn check_invariants(&self) {
        let ram = self.machine.ram();
        for (p, &head) in self.heads.iter().enumerate() {
            let level_keys = |l: u32| {
                let mut keys = Vec::new();
                let (mut cur, _) = node::raw_next(ram, head, l);
                while cur != NULL {
                    keys.push(node::raw_header(ram, cur).key);
                    let (nxt, _) = node::raw_next(ram, cur, l);
                    cur = nxt;
                }
                keys
            };
            let mut below = level_keys(0);
            assert!(below.windows(2).all(|w| w[0] < w[1]), "partition {p} level 0 unsorted");
            for k in &below {
                assert_eq!(self.ks.partition_of(*k) as usize, p, "key {k} in wrong partition");
            }
            for l in 1..self.levels {
                let this = level_keys(l);
                let set: std::collections::HashSet<_> = below.iter().copied().collect();
                for k in &this {
                    assert!(set.contains(k), "partition {p}: level {l} key {k} not below");
                }
                below = this;
            }
        }
    }
}

impl OffloadClient for NmpSkipList {
    type OpState = NmpOpState;

    fn advance(&self, _ctx: &mut ThreadCtx, op: Op, st: &mut NmpOpState) -> Step {
        if let Op::Scan(k, len) = op {
            if !st.started {
                st.started = true;
                st.part = self.ks.partition_of(k) as usize;
                st.from = k;
                st.remaining = len as u32;
            }
            return self.scan_step(st);
        }
        if matches!(op, Op::ExtractMin) {
            // Not a search-tree operation (priority queues only).
            return Step::Done(OpResult::fail());
        }
        let (part, req) = self.request_for(op);
        Step::Post { part, req }
    }

    fn complete(&self, _ctx: &mut ThreadCtx, op: Op, resp: &Response, st: &mut NmpOpState) -> Step {
        if matches!(op, Op::Scan(..)) {
            st.count += resp.value;
            st.remaining = st.remaining.saturating_sub(resp.value);
            st.part += 1;
            if st.part < self.ks.parts as usize {
                st.from = self.ks.part_base(st.part as u32);
            }
            return self.scan_step(st);
        }
        Step::Done(Self::to_result(op, resp))
    }

    fn effect_spec(&self) -> EffectSpec {
        // Host half: the baseline does no host-side traversal at all — the
        // host phase is exactly the publication-list protocol round trip.
        EffectSpec::new("nmp-skiplist")
            .op(protocol_op(OpCode::Read, "Read"))
            .op(protocol_op(OpCode::Scan, "Scan"))
            .op(protocol_op(OpCode::Update, "Update"))
            .op(protocol_op(OpCode::Insert, "Insert"))
            .op(protocol_op(OpCode::Remove, "Remove"))
    }
}

impl Offloaded for NmpSkipList {
    type Exec = SkiplistExec;

    fn runtime(&self) -> &OffloadRuntime {
        &self.runtime
    }

    fn executor(&self) -> &Arc<SkiplistExec> {
        &self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Issued, PollOutcome, SimIndex};
    use nmp_sim::{Config, ThreadKind};
    use std::collections::BTreeMap;

    fn setup() -> (Arc<Machine>, Arc<NmpSkipList>, KeySpace) {
        let m = Machine::new(Config::tiny());
        let ks = KeySpace::new(256, 2, 64);
        let sl = NmpSkipList::new(Arc::clone(&m), ks, 7, 42, 2);
        (m, sl, ks)
    }

    fn run_hosts(
        m: &Arc<Machine>,
        sl: &Arc<NmpSkipList>,
        threads: usize,
        f: impl Fn(&mut ThreadCtx, &NmpSkipList, usize) + Send + Sync + 'static,
    ) {
        let mut sim = m.simulation();
        sl.spawn_services(&mut sim);
        let f = Arc::new(f);
        for core in 0..threads {
            let sl = Arc::clone(sl);
            let f = Arc::clone(&f);
            sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| f(ctx, &sl, core));
        }
        sim.run();
    }

    #[test]
    fn blocking_ops_roundtrip() {
        let (m, sl, ks) = setup();
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
        run_hosts(&m, &sl, 1, |ctx, sl, _| {
            let k0 = 8; // first initial key
            assert_eq!(sl.execute(ctx, Op::Read(k0)), OpResult::ok(0));
            assert!(sl.execute(ctx, Op::Insert(k0 + 1, 7)).ok);
            assert!(!sl.execute(ctx, Op::Insert(k0 + 1, 8)).ok, "duplicate");
            assert_eq!(sl.execute(ctx, Op::Read(k0 + 1)), OpResult::ok(7));
            assert!(sl.execute(ctx, Op::Update(k0 + 1, 9)).ok);
            assert_eq!(sl.execute(ctx, Op::Read(k0 + 1)), OpResult::ok(9));
            assert!(sl.execute(ctx, Op::Remove(k0 + 1)).ok);
            assert!(!sl.execute(ctx, Op::Read(k0 + 1)).ok);
        });
        sl.check_invariants();
    }

    #[test]
    fn keys_route_to_correct_partition() {
        let (m, sl, ks) = setup();
        let hi_key = ks.initial_key(ks.total_initial() - 1); // partition 1
        let lo_key = ks.initial_key(0); // partition 0
        run_hosts(&m, &sl, 1, move |ctx, sl, _| {
            assert!(sl.execute(ctx, Op::Insert(lo_key, 1)).ok);
            assert!(sl.execute(ctx, Op::Insert(hi_key, 2)).ok);
        });
        let ram = m.ram();
        for (p, key) in [(0usize, lo_key), (1, hi_key)] {
            let (n, _) = node::raw_next(ram, sl.heads[p], 0);
            assert_ne!(n, NULL);
            assert_eq!(node::raw_header(ram, n).key, key);
        }
    }

    #[test]
    fn concurrent_disjoint_threads_match_model() {
        let (m, sl, ks) = setup();
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), 0)));
        run_hosts(&m, &sl, 4, move |ctx, sl, core| {
            for i in 0..ks.total_initial() {
                if i as usize % 4 != core {
                    continue;
                }
                let key = ks.initial_key(i);
                if i % 3 == 0 {
                    assert!(sl.execute(ctx, Op::Remove(key)).ok);
                } else {
                    assert!(sl.execute(ctx, Op::Update(key, i)).ok);
                }
            }
        });
        sl.check_invariants();
        let mut model = BTreeMap::new();
        for i in 0..ks.total_initial() {
            if i % 3 != 0 {
                model.insert(ks.initial_key(i), i);
            }
        }
        let got: BTreeMap<_, _> = sl.collect().into_iter().collect();
        assert_eq!(got, model);
    }

    #[test]
    fn nonblocking_pipeline_completes() {
        let (m, sl, ks) = setup();
        run_hosts(&m, &sl, 2, move |ctx, sl, core| {
            let keys: Vec<Key> = (0..20u32).map(|i| ks.initial_key(i * 2 + core as u32)).collect();
            let mut pending = Vec::new();
            for chunk in keys.chunks(2) {
                for (lane, &k) in chunk.iter().enumerate() {
                    match sl.issue(ctx, lane, Op::Insert(k, k)) {
                        Issued::Pending(p) => pending.push(p),
                        Issued::Done(_) => {}
                    }
                }
                for mut p in pending.drain(..) {
                    loop {
                        match sl.poll(ctx, &mut p) {
                            PollOutcome::Done(r) => {
                                assert!(r.ok);
                                break;
                            }
                            PollOutcome::Pending => ctx.idle(40),
                        }
                    }
                }
            }
        });
        sl.check_invariants();
        assert_eq!(sl.collect().len(), 40);
    }

    #[test]
    fn deterministic_replay() {
        let world = || {
            let (m, sl, ks) = setup();
            sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), 0)));
            let mut sim = m.simulation();
            sl.spawn_services(&mut sim);
            for core in 0..3usize {
                let sl = Arc::clone(&sl);
                sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
                    for i in 0..30u32 {
                        let key = ks.initial_key((i * 7 + core as u32 * 13) % ks.total_initial());
                        match i % 3 {
                            0 => drop(sl.execute(ctx, Op::Remove(key))),
                            1 => drop(sl.execute(ctx, Op::Insert(key, i))),
                            _ => drop(sl.execute(ctx, Op::Read(key))),
                        }
                    }
                });
            }
            let out = sim.run();
            (out.makespan(), sl.collect())
        };
        assert_eq!(world(), world());
    }
}
