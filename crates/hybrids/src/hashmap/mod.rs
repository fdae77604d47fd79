//! Hybrid hash map: host-resident bucket directory, NMP-managed bucket
//! chains (§6.3 generalization of the host-top/NMP-bottom split).
//!
//! The *directory* is a fixed array of `buckets` routing words in host
//! memory, sized to fit the LLC (asserted at construction). Entry `b` packs
//! the partition owning bucket `b` and the simulated address of the
//! bucket's head slot inside that partition. Buckets are assigned to
//! partitions by contiguous *hash ranges* (`part = b / buckets_per_part`),
//! the hash-space analogue of the paper's key-range partitioning — every
//! chain of a bucket range lives in one vault, served by that vault's
//! single-owner combiner.
//!
//! The directory is **resize-free and read-only after construction** (v1):
//! host threads route with one timed read that, in steady state, hits the
//! LLC, and a cached routing word can never be stale — so the hash map
//! needs no RETRY path at all. (Caching chain *heads* host-side instead
//! would be unsound: insert-at-head makes cached heads miss newer nodes.
//! Routing words never change, so they are the only thing worth pinning in
//! cache.) All chain mutation happens partition-locally on the NMP side,
//! where the flat combiner serializes it; operations linearize at the
//! combiner's execution, which the conformance harness checks per key.
//!
//! Scans and extract-min are outside a hash map's interface and complete
//! host-side as failures.

use std::sync::Arc;

use nmp_sim::analysis::RegionClass;
use nmp_sim::{Addr, EffectSpec, Machine, Region, ThreadCtx, NULL};
use workloads::{mix64, Key, Op, Value};

use crate::api::OpResult;
use crate::effects::{protocol_op, AccessDecl};
use crate::offload::{OffloadClient, OffloadRuntime, Offloaded, Step};
use crate::publist::{NmpExec, OpCode, Request, Response};

pub mod node;

/// NMP-side executor: applies one published request to the bucket chain
/// whose head slot the host resolved through the directory (`req.begin`).
pub struct HashMapExec {
    machine: Arc<Machine>,
}

impl HashMapExec {
    /// Walk the chain headed at `slot` for `key`; returns
    /// `(predecessor, node)` with `NULL` predecessor for the head node.
    fn find(ctx: &mut ThreadCtx, slot: Addr, key: Key) -> (Addr, Addr) {
        let mut prev = NULL;
        let mut cur = ctx.read_u64(slot) as Addr;
        while cur != NULL {
            if node::read_key(ctx, cur) == key {
                return (prev, cur);
            }
            ctx.step();
            prev = cur;
            cur = node::read_next(ctx, cur);
        }
        (prev, NULL)
    }
}

impl NmpExec for HashMapExec {
    type SlotState = ();

    // Reads are a pure bucket-chain walk (`find` + value load): no
    // partition writes, no slot state — safe to key-range coalesce.
    fn coalescible_ops(&self) -> &'static [OpCode] {
        &[OpCode::Read]
    }

    fn exec(&self, ctx: &mut ThreadCtx, part: usize, req: &Request, _s: &mut ()) -> Response {
        let slot = req.begin;
        match req.op {
            OpCode::Read => match Self::find(ctx, slot, req.key) {
                (_, n) if n != NULL => Response::ok_value(node::read_value(ctx, n)),
                _ => Response::fail(),
            },
            OpCode::Update => match Self::find(ctx, slot, req.key) {
                (_, n) if n != NULL => {
                    node::write_value(ctx, n, req.value);
                    Response { ok: true, ..Default::default() }
                }
                _ => Response::fail(),
            },
            OpCode::Insert => {
                if Self::find(ctx, slot, req.key).1 != NULL {
                    return Response::fail(); // duplicate key
                }
                let head = ctx.read_u64(slot) as Addr;
                let n = node::alloc_node(self.machine.part_arena(part));
                node::init_node(ctx, n, req.key, req.value, head);
                ctx.write_u64(slot, n as u64); // insert at head
                Response { ok: true, new_ptr: n, ..Default::default() }
            }
            OpCode::Remove => {
                let (prev, n) = Self::find(ctx, slot, req.key);
                if n == NULL {
                    return Response::fail();
                }
                let next = node::read_next(ctx, n);
                if prev == NULL {
                    ctx.write_u64(slot, next as u64);
                } else {
                    node::write_next(ctx, prev, next);
                }
                // Safe to free immediately: no host pointer ever refers to
                // a chain node (begin pointers are head-slot addresses).
                node::free_node(self.machine.part_arena(part), n);
                Response { ok: true, ..Default::default() }
            }
            op => panic!("hash map executor received opcode {op:?}"),
        }
    }

    fn effect_spec(&self) -> EffectSpec {
        // NMP half: head-slot and chain-node traffic is partition-local;
        // mutating ops additionally store (head slot, node fields).
        let chase = [AccessDecl::read(RegionClass::Part)];
        let mutate = [AccessDecl::read(RegionClass::Part), AccessDecl::write(RegionClass::Part)];
        EffectSpec::new("hybrid-hashmap")
            .op(protocol_op(OpCode::Read, "Read").nmp_all(&chase))
            .op(protocol_op(OpCode::Update, "Update").nmp_all(&mutate))
            .op(protocol_op(OpCode::Insert, "Insert").nmp_all(&mutate))
            .op(protocol_op(OpCode::Remove, "Remove").nmp_all(&mutate))
    }
}

/// Directory word: head-slot address (lo 32) | owning partition (hi 32).
fn pack_dir(slot: Addr, part: usize) -> u64 {
    slot as u64 | ((part as u64) << 32)
}

/// The hybrid hash map.
pub struct HybridHashMap {
    machine: Arc<Machine>,
    runtime: OffloadRuntime,
    exec: Arc<HashMapExec>,
    /// Host-resident bucket directory base.
    dir: Addr,
    buckets: u32,
    buckets_per_part: u32,
    /// Per-partition base of the bucket head-slot array.
    part_heads: Vec<Addr>,
    seed: u64,
}

impl HybridHashMap {
    /// Build a map with `buckets` fixed buckets (a multiple of the machine's
    /// partition count; directory must fit the LLC).
    pub fn new(machine: Arc<Machine>, buckets: u32, seed: u64, max_inflight: usize) -> Arc<Self> {
        let parts = machine.partitions() as u32;
        assert!(
            buckets > 0 && buckets.is_multiple_of(parts),
            "buckets must split evenly across partitions"
        );
        assert!(
            buckets as u64 * 8 <= machine.config().l2.size_bytes as u64,
            "bucket directory ({buckets} x 8 B) must fit the LLC"
        );
        let buckets_per_part = buckets / parts;
        let ram = machine.ram();
        let part_heads: Vec<Addr> = (0..parts as usize)
            .map(|p| {
                let base = machine.part_arena(p).alloc_aligned(buckets_per_part * 8, 128);
                for i in 0..buckets_per_part {
                    node::raw_set_head(ram, base + i * 8, NULL);
                }
                base
            })
            .collect();
        let dir = machine.host_arena().alloc_aligned(buckets * 8, 128);
        for b in 0..buckets {
            let part = (b / buckets_per_part) as usize;
            let slot = part_heads[part] + (b % buckets_per_part) * 8;
            node::raw_set_route(ram, dir, b, pack_dir(slot, part));
        }
        let runtime = OffloadRuntime::new(Arc::clone(&machine), max_inflight);
        let exec = Arc::new(HashMapExec { machine: Arc::clone(&machine) });
        Arc::new(HybridHashMap {
            machine,
            runtime,
            exec,
            dir,
            buckets,
            buckets_per_part,
            part_heads,
            seed,
        })
    }

    /// Number of buckets (fixed at construction).
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// Which bucket `key` hashes into.
    pub fn bucket_of(&self, key: Key) -> u32 {
        (mix64(self.seed ^ key as u64) % self.buckets as u64) as u32
    }

    fn slot_of_bucket(&self, b: u32) -> (usize, Addr) {
        let part = (b / self.buckets_per_part) as usize;
        (part, self.part_heads[part] + (b % self.buckets_per_part) * 8)
    }

    /// Untimed bulk population from unique `(key, value)` pairs.
    pub fn populate(&self, pairs: impl IntoIterator<Item = (Key, Value)>) {
        let ram = self.machine.ram();
        for (key, value) in pairs {
            let (part, slot) = self.slot_of_bucket(self.bucket_of(key));
            let head = node::raw_head(ram, slot);
            let n = node::alloc_node(self.machine.part_arena(part));
            node::raw_init(ram, n, key, value, head);
            node::raw_set_head(ram, slot, n);
        }
    }

    /// Live `(key, value)` pairs across all buckets, in key order.
    pub fn collect(&self) -> Vec<(Key, Value)> {
        let ram = self.machine.ram();
        let mut out = Vec::new();
        for b in 0..self.buckets {
            let (_, slot) = self.slot_of_bucket(b);
            let mut cur = node::raw_head(ram, slot);
            while cur != NULL {
                out.push((node::raw_key(ram, cur), node::raw_value(ram, cur)));
                cur = node::raw_next(ram, cur);
            }
        }
        out.sort_unstable();
        out
    }

    /// [`crate::offload::spawn_services_on`] as a method, for the native
    /// serving path (`hybrids-server`), which attaches to a
    /// [`nmp_sim::NativeRun`] instead of a simulation (and there spawns no
    /// thread: the posting threads combine).
    pub fn spawn_services_on<S: nmp_sim::Spawner>(self: &Arc<Self>, sp: &mut S) {
        crate::offload::spawn_services_on(self, sp);
    }

    /// Structural invariants (call at quiescence): every chain node hashes
    /// to its bucket, lives in the bucket's partition, appears once, and no
    /// key is stored twice.
    pub fn check_invariants(&self) {
        let ram = self.machine.ram();
        let mut seen_nodes = std::collections::HashSet::new();
        let mut seen_keys = std::collections::HashSet::new();
        for b in 0..self.buckets {
            let (part, slot) = self.slot_of_bucket(b);
            assert_eq!(self.machine.map().region_of(slot), Region::Part(part));
            let mut cur = node::raw_head(ram, slot);
            while cur != NULL {
                assert!(seen_nodes.insert(cur), "node {cur:#x} linked twice (cycle?)");
                assert_eq!(self.machine.map().region_of(cur), Region::Part(part));
                let key = node::raw_key(ram, cur);
                assert_eq!(self.bucket_of(key), b, "key {key} chained in wrong bucket");
                assert!(seen_keys.insert(key), "key {key} stored twice");
                cur = node::raw_next(ram, cur);
            }
        }
    }
}

impl OffloadClient for HybridHashMap {
    type OpState = ();

    fn advance(&self, ctx: &mut ThreadCtx, op: Op, _st: &mut ()) -> Step {
        let (code, key, value) = match op {
            Op::Read(k) => (OpCode::Read, k, 0),
            Op::Insert(k, v) => (OpCode::Insert, k, v),
            Op::Remove(k) => (OpCode::Remove, k, 0),
            Op::Update(k, v) => (OpCode::Update, k, v),
            // A hash map is unordered: no scans, no extract-min.
            Op::Scan(..) | Op::ExtractMin => return Step::Done(OpResult::fail()),
        };
        let b = self.bucket_of(key);
        // The whole host phase: one directory read (LLC-resident routing).
        let w = ctx.read_u64(self.dir + b * 8);
        ctx.step();
        let mut req = Request::new(code, key, value);
        req.begin = w as Addr;
        req.aux = b;
        Step::Post { part: (w >> 32) as usize, req }
    }

    fn complete(&self, _ctx: &mut ThreadCtx, op: Op, resp: &Response, _st: &mut ()) -> Step {
        Step::Done(match op {
            Op::Read(_) => OpResult { ok: resp.ok, value: resp.value },
            _ => OpResult { ok: resp.ok, value: 0 },
        })
    }

    fn effect_spec(&self) -> EffectSpec {
        // Host half: the entire host phase is one directory routing read in
        // host memory (LLC-resident), then the protocol round trip.
        let route = [AccessDecl::read(RegionClass::Host)];
        EffectSpec::new("hybrid-hashmap")
            .op(protocol_op(OpCode::Read, "Read").host_all(&route))
            .op(protocol_op(OpCode::Update, "Update").host_all(&route))
            .op(protocol_op(OpCode::Insert, "Insert").host_all(&route))
            .op(protocol_op(OpCode::Remove, "Remove").host_all(&route))
    }
}

impl Offloaded for HybridHashMap {
    type Exec = HashMapExec;

    fn runtime(&self) -> &OffloadRuntime {
        &self.runtime
    }

    fn executor(&self) -> &Arc<HashMapExec> {
        &self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SimIndex;
    use nmp_sim::{Config, ThreadKind};
    use std::collections::BTreeMap;

    fn setup() -> (Arc<Machine>, Arc<HybridHashMap>) {
        let m = Machine::new(Config::tiny());
        let hm = HybridHashMap::new(Arc::clone(&m), 64, 42, 2);
        (m, hm)
    }

    fn run_hosts(
        m: &Arc<Machine>,
        hm: &Arc<HybridHashMap>,
        threads: usize,
        f: impl Fn(&mut ThreadCtx, &HybridHashMap, usize) + Send + Sync + 'static,
    ) {
        let mut sim = m.simulation();
        hm.spawn_services(&mut sim);
        let f = Arc::new(f);
        for core in 0..threads {
            let hm = Arc::clone(hm);
            let f = Arc::clone(&f);
            sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| f(ctx, &hm, core));
        }
        sim.run();
    }

    #[test]
    fn blocking_ops_roundtrip() {
        let (m, hm) = setup();
        run_hosts(&m, &hm, 1, |ctx, hm, _| {
            assert!(!hm.execute(ctx, Op::Read(10)).ok);
            assert!(hm.execute(ctx, Op::Insert(10, 7)).ok);
            assert!(!hm.execute(ctx, Op::Insert(10, 8)).ok, "duplicate");
            assert_eq!(hm.execute(ctx, Op::Read(10)), OpResult::ok(7));
            assert!(hm.execute(ctx, Op::Update(10, 9)).ok);
            assert_eq!(hm.execute(ctx, Op::Read(10)), OpResult::ok(9));
            assert!(hm.execute(ctx, Op::Remove(10)).ok);
            assert!(!hm.execute(ctx, Op::Remove(10)).ok);
            assert!(!hm.execute(ctx, Op::Read(10)).ok);
            // Unsupported ops fail host-side.
            assert!(!hm.execute(ctx, Op::Scan(0, 5)).ok);
            assert!(!hm.execute(ctx, Op::ExtractMin).ok);
        });
        hm.check_invariants();
        assert!(hm.collect().is_empty());
    }

    #[test]
    fn chains_hold_colliding_keys() {
        let (m, hm) = setup();
        // Many more keys than buckets forces multi-node chains.
        run_hosts(&m, &hm, 1, |ctx, hm, _| {
            for k in 1..=300u32 {
                assert!(hm.execute(ctx, Op::Insert(k, k * 2)).ok);
            }
            for k in 1..=300u32 {
                assert_eq!(hm.execute(ctx, Op::Read(k)), OpResult::ok(k * 2));
            }
        });
        hm.check_invariants();
        assert_eq!(hm.collect().len(), 300);
    }

    #[test]
    fn populate_matches_execute_view() {
        let (m, hm) = setup();
        let pairs: Vec<(Key, Value)> = (1..=100u32).map(|k| (k * 3, k)).collect();
        hm.populate(pairs.clone());
        hm.check_invariants();
        assert_eq!(hm.collect(), pairs);
        run_hosts(&m, &hm, 1, |ctx, hm, _| {
            assert_eq!(hm.execute(ctx, Op::Read(3)), OpResult::ok(1));
            assert_eq!(hm.execute(ctx, Op::Read(300)), OpResult::ok(100));
        });
    }

    #[test]
    fn concurrent_disjoint_threads_match_model() {
        let (m, hm) = setup();
        hm.populate((1..=200u32).map(|k| (k, 0)));
        run_hosts(&m, &hm, 4, |ctx, hm, core| {
            for k in 1..=200u32 {
                if k as usize % 4 != core {
                    continue;
                }
                if k % 3 == 0 {
                    assert!(hm.execute(ctx, Op::Remove(k)).ok);
                } else {
                    assert!(hm.execute(ctx, Op::Update(k, k + 1)).ok);
                }
            }
        });
        hm.check_invariants();
        let model: BTreeMap<Key, Value> =
            (1..=200u32).filter(|k| k % 3 != 0).map(|k| (k, k + 1)).collect();
        assert_eq!(hm.collect().into_iter().collect::<BTreeMap<_, _>>(), model);
    }

    #[test]
    fn directory_fits_llc_enforced() {
        let m = Machine::new(Config::tiny()); // 16 kB LLC
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = HybridHashMap::new(Arc::clone(&m), 4096, 1, 1); // 32 kB directory
        }));
        assert!(r.is_err(), "oversized directory must be rejected");
    }

    #[test]
    fn deterministic_replay() {
        let world = || {
            let (m, hm) = setup();
            hm.populate((1..=64u32).map(|k| (k, k)));
            let mut sim = m.simulation();
            hm.spawn_services(&mut sim);
            for core in 0..3usize {
                let hm = Arc::clone(&hm);
                sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
                    for i in 0..40u32 {
                        let key = (i * 7 + core as u32 * 13) % 96 + 1;
                        match i % 3 {
                            0 => drop(hm.execute(ctx, Op::Remove(key))),
                            1 => drop(hm.execute(ctx, Op::Insert(key, i))),
                            _ => drop(hm.execute(ctx, Op::Read(key))),
                        }
                    }
                });
            }
            let out = sim.run();
            (out.makespan(), hm.collect())
        };
        assert_eq!(world(), world());
    }

    #[test]
    fn native_backend_serves_same_semantics() {
        // The exact blocking-op contract, but executed by real OS threads
        // under the native engine (DESIGN.md §4.11): the host threads
        // hit the same offload client and run the combining passes too.
        let m = Machine::new(Config::tiny());
        let hm = HybridHashMap::new(Arc::clone(&m), 64, 42, 2);
        let mut run = m.native_run();
        hm.spawn_services_on(&mut run);
        for core in 0..4usize {
            let hm = Arc::clone(&hm);
            run.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
                let base = 1_000 * (core as Key + 1);
                for i in 0..50u32 {
                    assert!(hm.execute(ctx, Op::Insert(base + i, i + 1)).ok);
                    assert!(!hm.execute(ctx, Op::Insert(base + i, 9)).ok, "duplicate");
                }
                for i in 0..50u32 {
                    assert_eq!(hm.execute(ctx, Op::Read(base + i)), OpResult::ok(i + 1));
                }
                for i in 0..25u32 {
                    assert!(hm.execute(ctx, Op::Remove(base + 2 * i)).ok);
                }
            });
        }
        run.finish();
        hm.check_invariants();
        assert_eq!(hm.collect().len(), 4 * 25);
    }
}
