//! Hybrid priority queue: host-merged partition minima on top,
//! NMP-managed per-partition sorted runs on the bottom (§6.3
//! generalization of the host-top/NMP-bottom split).
//!
//! Keys are range-partitioned across vaults exactly like the hybrid
//! skiplist (`KeySpace::partition_of`), and each partition holds its live
//! keys in a sequential skiplist (reusing `skiplist::{node, seq}`) owned
//! by that partition's flat combiner — so every structural mutation is
//! single-owner and race-free by construction (the SynCron discipline).
//!
//! The *host* side keeps one 8-byte **minimum cache word per partition** in
//! host memory (LLC-resident: `parts * 8` bytes). `insert` routes to the
//! owning partition's combiner; `extract_min` merges the cached minima,
//! posts a `POP_MIN` to the argmin partition, and the combiner's response
//! carries back that partition's *new* minimum, which the host publishes to
//! the cache with a release store. Cache words are sync cells
//! (release/acquire), so concurrent refreshes are last-writer-wins and
//! never race; a stale word only costs an extra hop:
//!
//! * stale-nonempty → the combiner answers "empty", the host marks the
//!   partition tried and re-merges (a multi-`POST` operation, like B+ tree
//!   resumes);
//! * stale-empty → before failing an `extract_min`, the host probes every
//!   not-yet-tried partition through its combiner, so "queue empty" is
//!   only reported after each partition confirmed it within the op.
//!
//! Linearization points: `insert` at the combiner's execution of the
//! `INSERT` request; a successful `extract_min` at the combiner's `POP_MIN`
//! execution (per-partition pop order is exactly combiner order, which
//! `verify_extract_order` replays against a model); a failed `extract_min`
//! at its last empty probe. Extract-min returns the *popped key* as the
//! operation value. Point reads, removes, updates, and scans are outside
//! the interface and fail host-side.

pub mod cells;

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use nmp_sim::analysis::RegionClass;
use nmp_sim::{Addr, EffectSpec, Machine, Region, ThreadCtx, NULL};
use workloads::{Key, KeySpace, Op, Value};

use crate::api::OpResult;
use crate::effects::{protocol_op, AccessDecl};
use crate::offload::{OffloadClient, OffloadRuntime, Offloaded, Step};
use crate::publist::{NmpExec, OpCode, Request, Response};
use crate::skiplist::{node, seq};

/// One combiner-ordered event, recorded when the queue is built with
/// [`HybridPqueue::with_exec_log`]; consumed by `verify_extract_order`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PqEvent {
    /// An `INSERT` the combiner applied.
    Insert {
        /// Inserted key.
        key: Key,
        /// Inserted value.
        value: Value,
        /// Whether the insert took effect (false = duplicate).
        ok: bool,
    },
    /// A `POP_MIN` the combiner applied.
    Pop {
        /// The extracted minimum, or `None` on an empty partition.
        popped: Option<(Key, Value)>,
    },
}

/// NMP-side executor: applies `INSERT` / `POP_MIN` to the partition's
/// sorted run and reports the partition's resulting minimum.
pub struct PqExec {
    machine: Arc<Machine>,
    heads: Vec<Addr>,
    levels: u32,
    /// Per-partition event log (test instrumentation; untimed, outside
    /// simulated memory, so it cannot perturb determinism).
    log: Option<Vec<Mutex<Vec<PqEvent>>>>,
}

impl PqExec {
    /// `(min key, present)` of `part` after the current request.
    fn current_min(&self, ctx: &mut ThreadCtx, part: usize) -> (Key, u32) {
        let (first, _) = node::read_next(ctx, self.heads[part], 0);
        if first == NULL {
            (0, 0)
        } else {
            (node::read_header(ctx, first).key, 1)
        }
    }

    fn note(&self, part: usize, ev: PqEvent) {
        if let Some(log) = &self.log {
            log[part].lock().push(ev);
        }
    }
}

impl NmpExec for PqExec {
    type SlotState = ();

    // Deliberately NOT coalescible (the `NmpExec` default, `&[]`): every
    // pqueue op mutates the partition (Insert links nodes, PopMin unlinks
    // the minimum), so two identical requests must run two descents.

    fn exec(&self, ctx: &mut ThreadCtx, part: usize, req: &Request, _s: &mut ()) -> Response {
        let arena = self.machine.part_arena(part);
        match req.op {
            OpCode::Insert => {
                let n = seq::insert(
                    ctx,
                    arena,
                    self.heads[part],
                    self.levels,
                    req.key,
                    req.value,
                    req.aux, // key height, computed host-side
                    NULL,
                );
                self.note(
                    part,
                    PqEvent::Insert { key: req.key, value: req.value, ok: n.is_some() },
                );
                let (min_key, present) = self.current_min(ctx, part);
                Response {
                    ok: n.is_some(),
                    new_ptr: n.unwrap_or(NULL),
                    split_key: min_key,
                    new_child: present,
                    ..Default::default()
                }
            }
            OpCode::PopMin => {
                // The minimum is the sentinel's level-0 successor, and —
                // being the smallest key — the sentinel's successor at
                // every level it occupies, so unlinking never needs a find.
                let (first, _) = node::read_next(ctx, self.heads[part], 0);
                if first == NULL {
                    self.note(part, PqEvent::Pop { popped: None });
                    return Response::fail(); // new_child == 0: partition empty
                }
                let hdr = node::read_header(ctx, first);
                let value = node::read_value(ctx, first);
                let stored = ((ctx.read_u64(first + 16) >> 32) & 0xFF) as u32;
                for l in 0..stored {
                    let (succ, _) = node::read_next(ctx, first, l);
                    node::write_next(ctx, self.heads[part], l, succ, false);
                }
                node::free_node(arena, first, stored);
                self.note(part, PqEvent::Pop { popped: Some((hdr.key, value)) });
                let (min_key, present) = self.current_min(ctx, part);
                Response {
                    ok: true,
                    value: hdr.key,
                    new_ptr: value,
                    split_key: min_key,
                    new_child: present,
                    ..Default::default()
                }
            }
            op => panic!("pqueue executor received opcode {op:?}"),
        }
    }

    fn effect_spec(&self) -> EffectSpec {
        // NMP half: both ops walk and splice the partition's sorted run.
        let run = [AccessDecl::read(RegionClass::Part), AccessDecl::write(RegionClass::Part)];
        EffectSpec::new("hybrid-pqueue")
            .op(protocol_op(OpCode::Insert, "Insert").nmp_all(&run))
            .op(protocol_op(OpCode::PopMin, "PopMin").nmp_all(&run))
    }
}

/// Host-side per-op state of an in-flight `extract_min`.
#[derive(Default)]
pub struct PqState {
    /// Bitmask of partitions that answered "empty" within this op.
    tried: u32,
    /// Partition the current `POP_MIN` was posted to.
    target: usize,
}

/// The hybrid priority queue.
pub struct HybridPqueue {
    machine: Arc<Machine>,
    runtime: OffloadRuntime,
    exec: Arc<PqExec>,
    /// Per-partition sentinel of the sorted run.
    heads: Vec<Addr>,
    /// Host-resident minimum cache base (`parts * 8` bytes).
    minima: Addr,
    levels: u32,
    ks: KeySpace,
    seed: u64,
}

impl HybridPqueue {
    /// Build an empty queue with `levels` skiplist levels per partition
    /// run and `max_inflight` offload lanes per host core.
    pub fn new(
        machine: Arc<Machine>,
        ks: KeySpace,
        levels: u32,
        seed: u64,
        max_inflight: usize,
    ) -> Arc<Self> {
        Self::build(machine, ks, levels, seed, max_inflight, false)
    }

    /// Like [`new`](Self::new), but records every combiner event so tests
    /// can call [`verify_extract_order`](Self::verify_extract_order).
    pub fn with_exec_log(
        machine: Arc<Machine>,
        ks: KeySpace,
        levels: u32,
        seed: u64,
        max_inflight: usize,
    ) -> Arc<Self> {
        Self::build(machine, ks, levels, seed, max_inflight, true)
    }

    fn build(
        machine: Arc<Machine>,
        ks: KeySpace,
        levels: u32,
        seed: u64,
        max_inflight: usize,
        log: bool,
    ) -> Arc<Self> {
        let parts = machine.partitions();
        assert_eq!(ks.parts as usize, parts, "key space must match machine partitions");
        assert!(ks.parts <= 32, "tried-mask holds at most 32 partitions");
        assert!(levels >= 1);
        let ram = machine.ram();
        let heads: Vec<Addr> =
            (0..parts).map(|p| seq::make_sentinel(machine.part_arena(p), ram, levels)).collect();
        let minima = machine.host_arena().alloc_aligned(parts as u32 * 8, 128);
        for p in 0..parts {
            cells::raw_set(ram, minima, p, cells::pack(0, false));
        }
        let runtime = OffloadRuntime::new(Arc::clone(&machine), max_inflight);
        let exec = Arc::new(PqExec {
            machine: Arc::clone(&machine),
            heads: heads.clone(),
            levels,
            log: log.then(|| (0..parts).map(|_| Mutex::new(Vec::new())).collect()),
        });
        Arc::new(HybridPqueue { machine, runtime, exec, heads, minima, levels, ks, seed })
    }

    /// Publish a combiner-reported partition minimum to the host cache.
    fn refresh_cache(&self, ctx: &mut ThreadCtx, part: usize, resp: &Response) {
        cells::publish(ctx, self.minima, part, cells::pack(resp.split_key, resp.new_child != 0));
        ctx.step();
    }

    /// Merge the cached minima over partitions not yet tried by this op and
    /// post a `POP_MIN` to the best candidate. When the cache claims every
    /// remaining partition is empty, probe one anyway — the cache may be
    /// stale, and an `extract_min` may fail only once every partition
    /// confirmed emptiness within the op.
    fn merge_step(&self, ctx: &mut ThreadCtx, st: &mut PqState) -> Step {
        let mut best: Option<(Key, usize)> = None;
        let mut first_untried = None;
        for p in 0..self.ks.parts as usize {
            if st.tried & (1 << p) != 0 {
                continue;
            }
            if first_untried.is_none() {
                first_untried = Some(p);
            }
            let w = cells::load(ctx, self.minima, p);
            ctx.step();
            if w & cells::PRESENT != 0 {
                let k = w as u32;
                if best.is_none_or(|(bk, _)| k < bk) {
                    best = Some((k, p));
                }
            }
        }
        let target = match (best, first_untried) {
            (Some((_, p)), _) => p,
            (None, Some(p)) => p,
            (None, None) => return Step::Done(OpResult::fail()),
        };
        st.target = target;
        Step::Post { part: target, req: Request::new(OpCode::PopMin, 0, 0) }
    }

    /// Untimed bulk population from unique keys (pre-simulation).
    pub fn populate(&self, pairs: &[(Key, Value)]) {
        let ram = self.machine.ram();
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        let mut last: Vec<Vec<Addr>> =
            self.heads.iter().map(|&h| vec![h; self.levels as usize]).collect();
        let mut prev = None;
        for &(key, value) in &sorted {
            assert_ne!(prev, Some(key), "duplicate key {key} in populate");
            prev = Some(key);
            let p = self.ks.partition_of(key) as usize;
            let height = node::height_for_key(key, self.seed, self.levels);
            let stored = height.min(self.levels);
            let n = node::alloc_node(self.machine.part_arena(p), stored);
            node::raw_init(ram, n, key, value, height, stored, NULL);
            for l in 0..stored {
                node::raw_set_next(ram, last[p][l as usize], l, n, false);
                last[p][l as usize] = n;
            }
        }
        for p in 0..self.ks.parts as usize {
            let (first, _) = node::raw_next(ram, self.heads[p], 0);
            let word = if first == NULL {
                cells::pack(0, false)
            } else {
                cells::pack(node::raw_header(ram, first).key, true)
            };
            cells::raw_set(ram, self.minima, p, word);
        }
    }

    fn collect_partition(&self, p: usize) -> Vec<(Key, Value)> {
        let ram = self.machine.ram();
        let mut out = Vec::new();
        let (mut cur, _) = node::raw_next(ram, self.heads[p], 0);
        while cur != NULL {
            out.push((node::raw_header(ram, cur).key, node::raw_value(ram, cur)));
            cur = node::raw_next(ram, cur, 0).0;
        }
        out
    }

    /// Live `(key, value)` pairs in ascending key order (range partitioning
    /// makes the per-partition concatenation globally sorted).
    pub fn collect(&self) -> Vec<(Key, Value)> {
        (0..self.ks.parts as usize).flat_map(|p| self.collect_partition(p)).collect()
    }

    /// Structural invariants (call at quiescence): per-partition runs are
    /// strictly sorted, contained in their partition's region and key
    /// range, and upper levels are sublists of level 0.
    pub fn check_invariants(&self) {
        let ram = self.machine.ram();
        for p in 0..self.ks.parts as usize {
            let head = self.heads[p];
            let mut level0 = std::collections::HashSet::new();
            let mut prev: Option<Key> = None;
            let (mut cur, _) = node::raw_next(ram, head, 0);
            while cur != NULL {
                assert_eq!(self.machine.map().region_of(cur), Region::Part(p));
                let key = node::raw_header(ram, cur).key;
                if let Some(pk) = prev {
                    assert!(pk < key, "level-0 keys not strictly ascending in part {p}");
                }
                assert_eq!(self.ks.partition_of(key) as usize, p, "key {key} in wrong partition");
                prev = Some(key);
                level0.insert(cur);
                cur = node::raw_next(ram, cur, 0).0;
            }
            for l in 1..self.levels {
                let (mut cur, _) = node::raw_next(ram, head, l);
                let mut prev: Option<Key> = None;
                while cur != NULL {
                    assert!(level0.contains(&cur), "level-{l} node missing from level 0");
                    assert!(node::raw_levels(ram, cur) > l);
                    let key = node::raw_header(ram, cur).key;
                    if let Some(pk) = prev {
                        assert!(pk < key, "level-{l} keys not strictly ascending");
                    }
                    prev = Some(key);
                    cur = node::raw_next(ram, cur, l).0;
                }
            }
        }
    }

    /// Replay the combiner event log (requires [`with_exec_log`]) against a
    /// per-partition model seeded with `initial`: every successful pop must
    /// have taken the partition's minimum at its combiner slot, every empty
    /// pop must have seen a truly empty partition, and the final model must
    /// match the live structure.
    ///
    /// [`with_exec_log`]: Self::with_exec_log
    pub fn verify_extract_order(&self, initial: &[(Key, Value)]) {
        let log = self.exec.log.as_ref().expect("build with with_exec_log to verify");
        for (p, part_log) in log.iter().enumerate() {
            let mut model: BTreeMap<Key, Value> = initial
                .iter()
                .copied()
                .filter(|&(k, _)| self.ks.partition_of(k) as usize == p)
                .collect();
            for ev in part_log.lock().iter() {
                match *ev {
                    PqEvent::Insert { key, value, ok } => {
                        if ok {
                            assert!(
                                model.insert(key, value).is_none(),
                                "insert-ok of already-present key {key}"
                            );
                        } else {
                            assert!(model.contains_key(&key), "insert-fail of absent key {key}");
                        }
                    }
                    PqEvent::Pop { popped: Some((key, value)) } => {
                        let (&mk, &mv) = model.first_key_value().expect("pop from empty partition");
                        assert_eq!((mk, mv), (key, value), "pop was not the partition minimum");
                        model.remove(&mk);
                    }
                    PqEvent::Pop { popped: None } => {
                        assert!(model.is_empty(), "empty pop while partition {p} held keys");
                    }
                }
            }
            assert_eq!(
                self.collect_partition(p),
                model.into_iter().collect::<Vec<_>>(),
                "final partition {p} contents diverge from the replayed log"
            );
        }
    }
}

impl OffloadClient for HybridPqueue {
    type OpState = PqState;

    fn advance(&self, ctx: &mut ThreadCtx, op: Op, st: &mut PqState) -> Step {
        match op {
            Op::Insert(k, v) => {
                let mut req = Request::new(OpCode::Insert, k, v);
                req.aux = node::height_for_key(k, self.seed, self.levels);
                Step::Post { part: self.ks.partition_of(k) as usize, req }
            }
            Op::ExtractMin => self.merge_step(ctx, st),
            // A priority queue has no point lookups or scans.
            Op::Read(_) | Op::Remove(_) | Op::Update(..) | Op::Scan(..) => {
                Step::Done(OpResult::fail())
            }
        }
    }

    fn complete(&self, ctx: &mut ThreadCtx, op: Op, resp: &Response, st: &mut PqState) -> Step {
        match op {
            Op::Insert(k, _) => {
                self.refresh_cache(ctx, self.ks.partition_of(k) as usize, resp);
                Step::Done(OpResult { ok: resp.ok, value: 0 })
            }
            Op::ExtractMin => {
                self.refresh_cache(ctx, st.target, resp);
                if resp.ok {
                    // Extract-min reports the popped key.
                    Step::Done(OpResult { ok: true, value: resp.value })
                } else {
                    // The minima cache claimed this partition had (or might
                    // have) a key, but the probe found it empty: a stale
                    // probe (ROADMAP §4.6).
                    self.machine.mem().note_pqueue_stale(st.target, ctx.now());
                    st.tried |= 1 << st.target;
                    self.merge_step(ctx, st)
                }
            }
            op => unreachable!("pqueue completed unsupported op {op:?}"),
        }
    }

    fn effect_spec(&self) -> EffectSpec {
        // Host half: completions publish the partition's new minimum with a
        // release store; the merge step acquire-loads every untried cell.
        let refresh = AccessDecl::write(RegionClass::Host).release().sync("minima");
        let merge = AccessDecl::read(RegionClass::Host).acquire().sync("minima");
        EffectSpec::new("hybrid-pqueue")
            .op(protocol_op(OpCode::Insert, "Insert").host(refresh))
            .op(protocol_op(OpCode::PopMin, "PopMin").host_all(&[merge, refresh]))
    }
}

impl Offloaded for HybridPqueue {
    type Exec = PqExec;

    fn runtime(&self) -> &OffloadRuntime {
        &self.runtime
    }

    fn executor(&self) -> &Arc<PqExec> {
        &self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SimIndex;
    use nmp_sim::{Config, ThreadKind};

    fn keyspace() -> KeySpace {
        KeySpace::new(128, 2, 64)
    }

    fn setup(log: bool) -> (Arc<Machine>, Arc<HybridPqueue>) {
        let m = Machine::new(Config::tiny());
        let build = if log { HybridPqueue::with_exec_log } else { HybridPqueue::new };
        let pq = build(Arc::clone(&m), keyspace(), 6, 7, 2);
        (m, pq)
    }

    fn run_hosts(
        m: &Arc<Machine>,
        pq: &Arc<HybridPqueue>,
        threads: usize,
        f: impl Fn(&mut ThreadCtx, &HybridPqueue, usize) + Send + Sync + 'static,
    ) {
        let mut sim = m.simulation();
        pq.spawn_services(&mut sim);
        let f = Arc::new(f);
        for core in 0..threads {
            let pq = Arc::clone(pq);
            let f = Arc::clone(&f);
            sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| f(ctx, &pq, core));
        }
        sim.run();
    }

    #[test]
    fn insert_then_extract_sorted() {
        let (m, pq) = setup(true);
        // Keys deliberately posted out of order, straddling both partitions.
        let keys = [901u32, 3, 514, 77, 600, 12, 999, 450];
        run_hosts(&m, &pq, 1, move |ctx, pq, _| {
            for &k in &keys {
                assert!(pq.execute(ctx, Op::Insert(k, k + 1)).ok);
            }
            assert!(!pq.execute(ctx, Op::Insert(77, 5)).ok, "duplicate");
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            for &k in &sorted {
                assert_eq!(pq.execute(ctx, Op::ExtractMin), OpResult::ok(k));
            }
            assert!(!pq.execute(ctx, Op::ExtractMin).ok, "drained");
            // Unsupported point ops fail host-side without posting.
            assert!(!pq.execute(ctx, Op::Read(3)).ok);
            assert!(!pq.execute(ctx, Op::Remove(3)).ok);
            assert!(!pq.execute(ctx, Op::Update(3, 1)).ok);
            assert!(!pq.execute(ctx, Op::Scan(3, 4)).ok);
        });
        pq.check_invariants();
        pq.verify_extract_order(&[]);
        assert!(pq.collect().is_empty());
    }

    #[test]
    fn populate_matches_extract_order() {
        let (m, pq) = setup(true);
        let ks = keyspace();
        let initial: Vec<(Key, Value)> = (0..64).map(|i| (ks.initial_key(i * 2), i + 1)).collect();
        pq.populate(&initial);
        pq.check_invariants();
        let mut expect = initial.clone();
        expect.sort_unstable();
        assert_eq!(pq.collect(), expect);
        let first = expect[0];
        run_hosts(&m, &pq, 1, move |ctx, pq, _| {
            assert_eq!(pq.execute(ctx, Op::ExtractMin), OpResult::ok(first.0));
        });
        pq.verify_extract_order(&initial);
        assert_eq!(pq.collect(), expect[1..]);
    }

    #[test]
    fn concurrent_extracts_are_locally_ascending() {
        let (m, pq) = setup(true);
        let ks = keyspace();
        let initial: Vec<(Key, Value)> = ks.initial_keys().iter().map(|&k| (k, k)).collect();
        pq.populate(&initial);
        let per_thread = initial.len() / 4;
        let popped: Arc<Mutex<Vec<Vec<Key>>>> = Arc::new(Mutex::new(vec![Vec::new(); 4]));
        let sink = Arc::clone(&popped);
        run_hosts(&m, &pq, 4, move |ctx, pq, core| {
            let mut mine = Vec::new();
            for _ in 0..per_thread {
                let r = pq.execute(ctx, Op::ExtractMin);
                assert!(r.ok);
                mine.push(r.value);
            }
            sink.lock()[core] = mine;
        });
        pq.check_invariants();
        pq.verify_extract_order(&initial);
        assert!(pq.collect().is_empty());
        let popped = popped.lock();
        let mut all: Vec<Key> = popped.iter().flatten().copied().collect();
        for thread_pops in popped.iter() {
            // Stale cache words may route a pop to a non-argmin partition,
            // so global per-thread monotonicity is not guaranteed — but a
            // shrinking partition's minimum only grows, so each thread's
            // pops from any one partition must ascend.
            for p in 0..ks.parts {
                let from_p: Vec<Key> =
                    thread_pops.iter().copied().filter(|&k| ks.partition_of(k) == p).collect();
                assert!(from_p.windows(2).all(|w| w[0] < w[1]), "per-partition pops ascend");
            }
        }
        all.sort_unstable();
        assert_eq!(all, initial.iter().map(|&(k, _)| k).collect::<Vec<_>>());
    }

    #[test]
    fn mixed_concurrent_inserts_and_extracts_conserve_keys() {
        let (m, pq) = setup(true);
        let ks = keyspace();
        let initial: Vec<(Key, Value)> = (0..32).map(|i| (ks.initial_key(i * 4), i)).collect();
        pq.populate(&initial);
        run_hosts(&m, &pq, 4, move |ctx, pq, core| {
            for i in 0..30u32 {
                if i % 3 == 0 {
                    let _ = pq.execute(ctx, Op::ExtractMin);
                } else {
                    let k = ks.initial_key((i * 4 + core as u32) % 128) + 1 + core as u32;
                    let _ = pq.execute(ctx, Op::Insert(k, i));
                }
            }
        });
        pq.check_invariants();
        // The replay asserts per-partition pop ordering AND that the final
        // structure equals initial + successful inserts - pops.
        pq.verify_extract_order(&initial);
    }

    #[test]
    fn deterministic_replay() {
        let world = || {
            let (m, pq) = setup(false);
            let ks = keyspace();
            pq.populate(&(0..32).map(|i| (ks.initial_key(i * 4), i)).collect::<Vec<_>>());
            let mut sim = m.simulation();
            pq.spawn_services(&mut sim);
            for core in 0..3usize {
                let pq = Arc::clone(&pq);
                sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
                    for i in 0..25u32 {
                        if i % 2 == 0 {
                            let _ = pq.execute(ctx, Op::ExtractMin);
                        } else {
                            let _ = pq.execute(ctx, Op::Insert(i * 31 + core as u32 * 7 + 1, i));
                        }
                    }
                });
            }
            let out = sim.run();
            (out.makespan(), pq.collect())
        };
        assert_eq!(world(), world());
    }
}
