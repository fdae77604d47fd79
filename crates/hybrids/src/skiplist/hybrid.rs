//! Hybrid skiplist (§3.3): the paper's cache-conscious NMP skiplist.
//!
//! The skiplist is split at level `nmp_height`:
//!
//! * **Host-managed portion** — every node whose height exceeds
//!   `nmp_height` has a host-side counterpart storing its upper levels,
//!   organized as a lock-free skiplist ([`LockFreeSkipList`]). This portion
//!   is sized to fit the last-level cache, effectively pinning it there.
//! * **NMP-managed portion** — *all* keys have a node in the NMP partition
//!   owning their key range, storing levels `0..nmp_height`, maintained
//!   single-threadedly by the partition's NMP core via flat combining.
//!
//! A host-side traversal ends at the bottom host level; its predecessor's
//! `nmp_ptr` becomes the *begin-NMP-traversal node* — a shortcut deep into
//! the NMP-managed lower levels (Listing 1). The NMP core detects stale
//! shortcuts through the logical-deletion flag (Listing 2) and asks the
//! host to retry.
//!
//! Ordering rules for coherence across the split (§3.3): insertions apply
//! NMP-side first, then link the host side; removals apply host-side first,
//! then NMP-side. An insertion/removal linearizes when the NMP portion
//! changes; reads of keys resident in the host portion linearize at the
//! host-side value read.

use std::sync::Arc;

use nmp_sim::analysis::RegionClass;
use nmp_sim::{Addr, EffectSpec, Machine, ThreadCtx, NULL};
use workloads::{Key, KeySpace, Op, Value};

use crate::api::OpResult;
use crate::effects::{protocol_op, AccessDecl};
use crate::offload::{OffloadClient, OffloadRuntime, Offloaded, Step};
use crate::publist::{OpCode, Request, Response};

use super::nmp_based::SkiplistExec;
use super::{node, seq, LockFreeSkipList};

/// Hybrid skiplist handle.
pub struct HybridSkipList {
    machine: Arc<Machine>,
    runtime: OffloadRuntime,
    exec: Arc<SkiplistExec>,
    host: LockFreeSkipList,
    nmp_heads: Vec<Addr>,
    nmp_height: u32,
    total_levels: u32,
    ks: KeySpace,
    seed: u64,
}

/// Choose `(total_levels, nmp_height)` for `n` initial keys and an LLC of
/// `llc_bytes`, following §3.3: the host-managed portion holds the top
/// levels whose cumulative size (≈ `(n >> nmp_height) * 128` bytes,
/// using the paper's 128 B/node estimate) fits the last-level cache.
pub fn split_for(n: u64, llc_bytes: u64) -> (u32, u32) {
    let total = (64 - (n - 1).leading_zeros()).max(4); // ceil(log2 n)
    let mut nh = 1;
    while nh < total - 2 && (n >> nh) * 128 > llc_bytes {
        nh += 1;
    }
    (total, nh)
}

impl HybridSkipList {
    /// Build an empty hybrid skiplist: keys of height `> total_levels -
    /// nmp_height` get a host portion; every key gets an NMP node in the
    /// partition `ks` maps it to.
    pub fn new(
        machine: Arc<Machine>,
        ks: KeySpace,
        total_levels: u32,
        nmp_height: u32,
        seed: u64,
        max_inflight: usize,
    ) -> Arc<Self> {
        assert!(nmp_height >= 1 && nmp_height < total_levels);
        assert_eq!(machine.partitions() as u32, ks.parts);
        let host = LockFreeSkipList::new(Arc::clone(&machine), total_levels - nmp_height, seed);
        let nmp_heads: Vec<Addr> = (0..machine.partitions())
            .map(|p| seq::make_sentinel(machine.part_arena(p), machine.ram(), nmp_height))
            .collect();
        let runtime = OffloadRuntime::new(Arc::clone(&machine), max_inflight);
        let exec = Arc::new(SkiplistExec::new(Arc::clone(&machine), nmp_heads.clone(), nmp_height));
        Arc::new(HybridSkipList {
            machine,
            runtime,
            exec,
            host,
            nmp_heads,
            nmp_height,
            total_levels,
            ks,
            seed,
        })
    }

    /// Levels managed by the NMP side (the paper's split point).
    pub fn nmp_height(&self) -> u32 {
        self.nmp_height
    }

    /// Total levels across both portions.
    pub fn total_levels(&self) -> u32 {
        self.total_levels
    }

    /// Levels managed by the host side (`total - nmp_height`).
    pub fn host_levels(&self) -> u32 {
        self.total_levels - self.nmp_height
    }

    /// Full (global) height drawn for `key`.
    pub fn height_of(&self, key: Key) -> u32 {
        node::height_for_key(key, self.seed, self.total_levels)
    }

    /// Bytes of host-managed nodes currently allocated (for checking the
    /// host portion against the LLC size).
    pub fn host_bytes(&self) -> u64 {
        self.machine.host_arena().live_bytes()
    }

    /// Untimed bulk population from ascending `(key, value)` pairs.
    pub fn populate(&self, pairs: impl IntoIterator<Item = (Key, Value)>) {
        let ram = self.machine.ram();
        let nh = self.nmp_height;
        let mut nmp_last: Vec<Vec<Addr>> =
            self.nmp_heads.iter().map(|&h| vec![h; nh as usize]).collect();
        let mut host_last = vec![self.host.head(); self.host_levels() as usize];
        for (key, value) in pairs {
            let part = self.ks.partition_of(key) as usize;
            let h = self.height_of(key);
            let stored = h.min(nh);
            let n = node::alloc_node(self.machine.part_arena(part), stored);
            node::raw_init(ram, n, key, value, h, stored, NULL);
            for l in 0..stored {
                node::raw_set_next(ram, nmp_last[part][l as usize], l, n, false);
                nmp_last[part][l as usize] = n;
            }
            if h > nh {
                let hl = h - nh;
                let hn = node::alloc_node(self.machine.host_arena(), hl);
                node::raw_init(ram, hn, key, value, h, hl, n);
                for l in 0..hl {
                    node::raw_set_next(ram, host_last[l as usize], l, hn, false);
                    host_last[l as usize] = hn;
                }
                node::raw_set_cross(ram, n, hn);
            }
        }
    }

    /// Begin-NMP-traversal pointer for an operation on `key` whose
    /// bottom-host-level predecessor is `pred0` (Listing 1, lines 14-15):
    /// usable only when the predecessor lives in the same partition.
    fn begin_for(&self, ctx: &mut ThreadCtx, pred0: Addr, key: Key) -> Addr {
        if pred0 == self.host.head() {
            return NULL;
        }
        let hdr = node::read_header(ctx, pred0);
        ctx.step();
        if self.ks.partition_of(hdr.key) == self.ks.partition_of(key) {
            node::read_cross(ctx, pred0)
        } else {
            NULL
        }
    }

    /// Host phase of an operation: traverse the host portion, apply any
    /// host-first effects, and either finish host-side or build the request
    /// to offload. Returns `Err(result)` when completed host-side.
    fn host_phase(
        &self,
        ctx: &mut ThreadCtx,
        op: Op,
        host_node: &mut Addr,
    ) -> Result<(usize, Request), OpResult> {
        match op {
            Op::Read(key) => {
                let (pred0, found) = self.host.read_with_pred(ctx, key);
                if let Some((_, v)) = found {
                    // Served entirely from the (cache-resident) host portion.
                    return Err(OpResult::ok(v));
                }
                let begin = self.begin_for(ctx, pred0, key);
                let mut req = Request::new(OpCode::Read, key, 0);
                req.begin = begin;
                Ok((self.ks.partition_of(key) as usize, req))
            }
            Op::Update(key, value) => {
                let (pred0, _) = self.host.read_with_pred(ctx, key);
                let begin = self.begin_for(ctx, pred0, key);
                let mut req = Request::new(OpCode::Update, key, value);
                req.begin = begin;
                Ok((self.ks.partition_of(key) as usize, req))
            }
            Op::Insert(key, value) => {
                let f = self.host.find(ctx, key);
                if f.found.is_some() {
                    self.release_host_node(ctx, host_node, key);
                    return Err(OpResult::fail()); // duplicate visible host-side
                }
                let h = self.height_of(key);
                if h > self.nmp_height && *host_node == NULL {
                    let stored = h - self.nmp_height;
                    *host_node = node::alloc_node(self.machine.host_arena(), stored);
                    node::init_node(ctx, *host_node, key, value, h, stored, NULL);
                }
                let begin = self.begin_for(ctx, f.preds[0], key);
                let mut req = Request::new(OpCode::Insert, key, value);
                req.begin = begin;
                req.host_ptr = *host_node;
                req.aux = h;
                Ok((self.ks.partition_of(key) as usize, req))
            }
            Op::Remove(key) => {
                let f = self.host.find(ctx, key);
                if f.found.is_some() {
                    // Removals are applied host-side first (§3.3).
                    self.host.remove(ctx, key);
                }
                let begin = self.begin_for(ctx, f.preds[0], key);
                let mut req = Request::new(OpCode::Remove, key, 0);
                req.begin = begin;
                Ok((self.ks.partition_of(key) as usize, req))
            }
            Op::Scan(..) => unreachable!("scans are driven by the scan cursor in advance"),
            // Not a search-tree operation (priority queues only).
            Op::ExtractMin => Err(OpResult::fail()),
        }
    }

    /// Next partition-local request of a multi-partition range scan over the
    /// NMP-managed bottom level (the authoritative key sequence), using a
    /// begin-node shortcut where the host portion provides one. Re-invoked
    /// by the runtime on retry (stale begin node), which naturally redoes
    /// the host traversal for the current partition.
    fn scan_step(&self, ctx: &mut ThreadCtx, st: &HyOpState) -> Step {
        if st.remaining == 0 || st.part >= self.ks.parts as usize {
            return Step::Done(OpResult { ok: st.count > 0, value: st.count });
        }
        let (pred0, _) = self.host.read_with_pred(ctx, st.from);
        let begin = self.begin_for(ctx, pred0, st.from);
        let mut req = Request::new(OpCode::Scan, st.from, 0);
        req.begin = begin;
        req.aux = st.remaining;
        Step::Post { part: st.part, req }
    }

    fn release_host_node(&self, _ctx: &mut ThreadCtx, host_node: &mut Addr, key: Key) {
        if *host_node != NULL {
            let stored = self.height_of(key) - self.nmp_height;
            node::free_node(self.machine.host_arena(), *host_node, stored);
            *host_node = NULL;
        }
    }

    /// Host-side completion after the NMP response (Listing 1, lines 20-29).
    fn finish(
        &self,
        ctx: &mut ThreadCtx,
        op: Op,
        resp: &Response,
        host_node: &mut Addr,
    ) -> OpResult {
        match op {
            Op::Read(_) => OpResult { ok: resp.ok, value: resp.value },
            Op::Update(key, value) => {
                if resp.ok && resp.value != NULL {
                    // Propagate the new value into the host-side node so
                    // future host-served reads observe it (§3.3).
                    node::write_value(ctx, resp.value, value);
                    let _ = key;
                }
                OpResult { ok: resp.ok, value: 0 }
            }
            Op::Scan(..) | Op::ExtractMin => unreachable!("never offloaded, never reach finish()"),
            Op::Insert(key, _) => {
                if !resp.ok {
                    self.release_host_node(ctx, host_node, key);
                    return OpResult::fail();
                }
                if *host_node != NULL {
                    node::write_cross(ctx, *host_node, resp.new_ptr);
                    let stored = self.height_of(key) - self.nmp_height;
                    self.host.link_node(ctx, *host_node, stored, key);
                    *host_node = NULL;
                }
                OpResult { ok: true, value: 0 }
            }
            Op::Remove(_) => OpResult { ok: resp.ok, value: 0 },
        }
    }

    // ---- untimed inspection ----

    /// Live `(key, value)` pairs (the NMP-managed portion is the source of
    /// truth), ascending.
    pub fn collect(&self) -> Vec<(Key, Value)> {
        let ram = self.machine.ram();
        let mut out = Vec::new();
        for &head in &self.nmp_heads {
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

    /// Structural invariants at quiescence:
    /// * skiplist property in the host portion and in each partition,
    /// * partition containment of NMP keys,
    /// * host↔NMP cross-pointer agreement (every live host node points to a
    ///   live NMP node with the same key, which points back),
    /// * the host portion holds exactly the live keys taller than
    ///   `nmp_height`.
    pub fn check_invariants(&self) {
        let ram = self.machine.ram();
        self.host.check_invariants();
        let mut tall_live = Vec::new();
        for (p, &head) in self.nmp_heads.iter().enumerate() {
            let mut prev = 0;
            let (mut cur, _) = node::raw_next(ram, head, 0);
            while cur != NULL {
                let hdr = node::raw_header(ram, cur);
                assert!(!hdr.deleted, "deleted node still linked in partition {p}");
                assert!(hdr.key > prev, "partition {p} unsorted");
                prev = hdr.key;
                assert_eq!(self.ks.partition_of(hdr.key) as usize, p, "key in wrong partition");
                if hdr.height > self.nmp_height {
                    tall_live.push((hdr.key, cur, node::raw_cross(ram, cur)));
                }
                let (nxt, _) = node::raw_next(ram, cur, 0);
                cur = nxt;
            }
        }
        // Host portion = exactly the live tall keys, with matching pointers.
        let host_pairs = self.host.collect();
        let host_keys: Vec<Key> = host_pairs.iter().map(|&(k, _)| k).collect();
        let tall_keys: Vec<Key> = tall_live.iter().map(|&(k, _, _)| k).collect();
        assert_eq!(host_keys, tall_keys, "host portion diverges from tall live keys");
        for &(key, nmp_node, host_ptr) in &tall_live {
            assert_ne!(host_ptr, NULL, "tall NMP node {key} lacks host back-pointer");
            let hh = node::raw_header(ram, host_ptr);
            assert_eq!(hh.key, key, "host counterpart key mismatch");
            assert_eq!(node::raw_cross(ram, host_ptr), nmp_node, "host nmp_ptr mismatch");
        }
    }
}

/// Per-operation offload state: the host-side node held across an insert
/// offload (NULL when none) plus the partition-hopping scan cursor.
#[derive(Default)]
pub struct HyOpState {
    host_node: Addr,
    started: bool,
    part: usize,
    from: Key,
    remaining: u32,
    count: u32,
}

impl OffloadClient for HybridSkipList {
    type OpState = HyOpState;

    fn advance(&self, ctx: &mut ThreadCtx, op: Op, st: &mut HyOpState) -> Step {
        if let Op::Scan(k, len) = op {
            if !st.started {
                st.started = true;
                st.part = self.ks.partition_of(k) as usize;
                st.from = k;
                st.remaining = len as u32;
            }
            return self.scan_step(ctx, st);
        }
        match self.host_phase(ctx, op, &mut st.host_node) {
            Err(done) => Step::Done(done),
            Ok((part, req)) => Step::Post { part, req },
        }
    }

    fn complete(&self, ctx: &mut ThreadCtx, op: Op, resp: &Response, st: &mut HyOpState) -> Step {
        if matches!(op, Op::Scan(..)) {
            st.count += resp.value;
            st.remaining = st.remaining.saturating_sub(resp.value);
            st.part += 1;
            if st.part < self.ks.parts as usize {
                st.from = self.ks.part_base(st.part as u32);
            }
            return self.scan_step(ctx, st);
        }
        Step::Done(self.finish(ctx, op, resp, &mut st.host_node))
    }

    fn effect_spec(&self) -> EffectSpec {
        // Host half: every op traverses the lock-free host portion, whose
        // find may help-unlink marked nodes with a CAS; inserts build and
        // link the host counterpart; updates release-store its value word
        // (observed by the CAS-carrying traversals, hence untagged pairing).
        let walk =
            [AccessDecl::read(RegionClass::Host), AccessDecl::write(RegionClass::Host).cas()];
        let link = [
            AccessDecl::read(RegionClass::Host),
            AccessDecl::write(RegionClass::Host),
            AccessDecl::write(RegionClass::Host).cas(),
        ];
        let publish = [
            AccessDecl::read(RegionClass::Host),
            AccessDecl::write(RegionClass::Host).cas(),
            AccessDecl::write(RegionClass::Host).release(),
        ];
        EffectSpec::new("hybrid-skiplist")
            .op(protocol_op(OpCode::Read, "Read").host_all(&walk))
            .op(protocol_op(OpCode::Scan, "Scan").host_all(&walk))
            .op(protocol_op(OpCode::Update, "Update").host_all(&publish))
            .op(protocol_op(OpCode::Insert, "Insert").host_all(&link))
            .op(protocol_op(OpCode::Remove, "Remove").host_all(&walk))
    }
}

impl Offloaded for HybridSkipList {
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
    use crate::offload::PendingOp;
    use nmp_sim::{Config, ThreadKind};
    use std::collections::BTreeMap;

    const TOTAL: u32 = 10;
    const NH: u32 = 4;

    fn setup() -> (Arc<Machine>, Arc<HybridSkipList>, KeySpace) {
        let m = Machine::new(Config::tiny());
        let ks = KeySpace::new(256, 2, 64);
        let sl = HybridSkipList::new(Arc::clone(&m), ks, TOTAL, NH, 42, 2);
        (m, sl, ks)
    }

    fn run_hosts(
        m: &Arc<Machine>,
        sl: &Arc<HybridSkipList>,
        threads: usize,
        f: impl Fn(&mut ThreadCtx, &HybridSkipList, usize) + Send + Sync + 'static,
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

    /// Find an initial key with height > NH (tall) and one with height <=
    /// NH (short) under the test seed.
    fn tall_and_short(sl: &HybridSkipList, ks: &KeySpace) -> (Key, Key) {
        let mut tall = None;
        let mut short = None;
        for i in 0..ks.total_initial() {
            let k = ks.initial_key(i);
            if sl.height_of(k) > NH {
                tall.get_or_insert(k);
            } else {
                short.get_or_insert(k);
            }
        }
        (tall.expect("no tall key"), short.expect("no short key"))
    }

    #[test]
    fn split_for_matches_paper_scale() {
        // 2^22 keys, 1 MB LLC -> 22 levels total, top 13 host-managed.
        let (total, nh) = split_for(1 << 22, 1 << 20);
        assert_eq!(total, 22);
        assert_eq!(total - nh, 13);
    }

    #[test]
    fn populate_splits_by_height() {
        let (m, sl, ks) = setup();
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i)));
        sl.check_invariants();
        assert_eq!(sl.collect().len(), ks.total_initial() as usize);
        let (tall, _short) = tall_and_short(&sl, &ks);
        // Tall key visible in the host portion.
        assert!(sl.host.collect().iter().any(|&(k, _)| k == tall));
        let _ = m;
    }

    #[test]
    fn read_tall_key_is_host_served() {
        let (m, sl, ks) = setup();
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), i + 1)));
        let (tall, short) = tall_and_short(&sl, &ks);
        run_hosts(&m, &sl, 1, move |ctx, sl, _| {
            let before = ctx.mem().snapshot().mmio_writes;
            let r = sl.execute(ctx, Op::Read(tall));
            assert!(r.ok);
            let after_tall = ctx.mem().snapshot().mmio_writes;
            assert_eq!(before, after_tall, "tall read must not offload");
            let r = sl.execute(ctx, Op::Read(short));
            assert!(r.ok);
            let after_short = ctx.mem().snapshot().mmio_writes;
            assert!(after_short > after_tall, "short read must offload");
        });
    }

    #[test]
    fn insert_read_remove_roundtrip_tall_and_short() {
        let (m, sl, ks) = setup();
        sl.populate((0..64).map(|i| (ks.initial_key(i), 0)));
        run_hosts(&m, &sl, 1, move |ctx, sl, _| {
            // Find gap keys of both classes.
            let mut tall = None;
            let mut short = None;
            for i in 0..64u32 {
                let k = ks.initial_key(i) + 1;
                if sl.height_of(k) > NH {
                    tall.get_or_insert(k);
                } else {
                    short.get_or_insert(k);
                }
            }
            for key in [tall.unwrap(), short.unwrap()] {
                assert!(sl.execute(ctx, Op::Insert(key, key)).ok, "insert {key}");
                assert!(!sl.execute(ctx, Op::Insert(key, 0)).ok, "dup {key}");
                assert_eq!(sl.execute(ctx, Op::Read(key)), OpResult::ok(key));
                assert!(sl.execute(ctx, Op::Update(key, key + 1)).ok);
                assert_eq!(sl.execute(ctx, Op::Read(key)), OpResult::ok(key + 1));
                assert!(sl.execute(ctx, Op::Remove(key)).ok);
                assert!(!sl.execute(ctx, Op::Remove(key)).ok);
                assert!(!sl.execute(ctx, Op::Read(key)).ok);
            }
        });
        sl.check_invariants();
    }

    #[test]
    fn update_propagates_to_host_copy() {
        let (m, sl, ks) = setup();
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), 5)));
        let (tall, _) = tall_and_short(&sl, &ks);
        run_hosts(&m, &sl, 1, move |ctx, sl, _| {
            assert!(sl.execute(ctx, Op::Update(tall, 99)).ok);
            // Host-served read must observe the updated value.
            let before = ctx.mem().snapshot().mmio_writes;
            assert_eq!(sl.execute(ctx, Op::Read(tall)), OpResult::ok(99));
            assert_eq!(ctx.mem().snapshot().mmio_writes, before);
        });
        sl.check_invariants();
    }

    #[test]
    fn stale_begin_node_triggers_retry() {
        use crate::publist::NmpExec;
        // Drive the executor directly: a request whose begin node is
        // logically deleted must come back with the retry flag.
        let (m, sl, ks) = setup();
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), 0)));
        let (tall, _) = tall_and_short(&sl, &ks);
        let part = ks.partition_of(tall) as usize;
        // Locate the tall key's NMP node and mark it deleted.
        let ram = m.ram();
        let (mut cur, _) = node::raw_next(ram, sl.nmp_heads[part], 0);
        let mut target = NULL;
        while cur != NULL {
            if node::raw_header(ram, cur).key == tall {
                target = cur;
                break;
            }
            cur = node::raw_next(ram, cur, 0).0;
        }
        assert_ne!(target, NULL);
        ram.write_u64(target, ram.read_u64(target) | (1 << 40)); // deleted flag
        let exec = Arc::clone(&sl.exec);
        let mut sim = m.simulation();
        sim.spawn("nmp", ThreadKind::Nmp { part }, move |ctx| {
            let mut req = Request::new(OpCode::Read, tall + 2, 0);
            req.begin = target;
            let resp = exec.exec(ctx, part, &req, &mut ());
            assert!(resp.retry, "stale begin node must request a retry");
        });
        sim.run();
    }

    #[test]
    fn concurrent_disjoint_ops_match_model() {
        let (m, sl, ks) = setup();
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), 0)));
        run_hosts(&m, &sl, 4, move |ctx, sl, core| {
            for i in 0..ks.total_initial() {
                if i as usize % 4 != core {
                    continue;
                }
                let key = ks.initial_key(i);
                match i % 4 {
                    0 => assert!(sl.execute(ctx, Op::Remove(key)).ok),
                    1 => assert!(sl.execute(ctx, Op::Update(key, i)).ok),
                    2 => assert!(sl.execute(ctx, Op::Insert(key + 1, i)).ok),
                    _ => assert!(sl.execute(ctx, Op::Read(key)).ok),
                }
            }
        });
        sl.check_invariants();
        let mut model = BTreeMap::new();
        for i in 0..ks.total_initial() {
            match i % 4 {
                0 => {}
                1 => {
                    model.insert(ks.initial_key(i), i);
                }
                2 => {
                    model.insert(ks.initial_key(i), 0);
                    model.insert(ks.initial_key(i) + 1, i);
                }
                _ => {
                    model.insert(ks.initial_key(i), 0);
                }
            }
        }
        let got: BTreeMap<_, _> = sl.collect().into_iter().collect();
        assert_eq!(got, model);
    }

    #[test]
    fn concurrent_same_key_insert_one_winner() {
        let (m, sl, ks) = setup();
        let key = ks.initial_key(10);
        let wins = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut sim = m.simulation();
        sl.spawn_services(&mut sim);
        for core in 0..4usize {
            let sl = Arc::clone(&sl);
            let wins = Arc::clone(&wins);
            sim.spawn(format!("h{core}"), ThreadKind::Host { core }, move |ctx| {
                if sl.execute(ctx, Op::Insert(key, core as u32)).ok {
                    wins.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
        sim.run();
        assert_eq!(wins.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(sl.collect().len(), 1);
        sl.check_invariants();
    }

    #[test]
    fn nonblocking_pipeline_mixed_ops() {
        let (m, sl, ks) = setup();
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), 1)));
        run_hosts(&m, &sl, 2, move |ctx, sl, core| {
            let mut lanes: Vec<Option<PendingOp<HyOpState>>> = vec![None, None];
            let mut issued = 0u32;
            let mut done = 0u32;
            let total = 40u32;
            while done < total {
                for (lane, slot) in lanes.iter_mut().enumerate() {
                    match slot.take() {
                        None if issued < total => {
                            let i = issued * 2 + core as u32;
                            let key = ks.initial_key(i % ks.total_initial());
                            let op = match issued % 3 {
                                0 => Op::Read(key),
                                1 => Op::Update(key, issued),
                                _ => Op::Insert(key + 3 + core as u32, issued),
                            };
                            issued += 1;
                            match sl.issue(ctx, lane, op) {
                                Issued::Done(_) => done += 1,
                                Issued::Pending(p) => *slot = Some(p),
                            }
                        }
                        None => {}
                        Some(mut p) => match sl.poll(ctx, &mut p) {
                            PollOutcome::Done(_) => done += 1,
                            PollOutcome::Pending => *slot = Some(p),
                        },
                    }
                }
                ctx.idle(20);
            }
        });
        sl.check_invariants();
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
                    for i in 0..25u32 {
                        let key = ks.initial_key((i * 11 + core as u32 * 5) % ks.total_initial());
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

    #[test]
    fn hybrid_reads_fewer_dram_reads_than_nmp_traversal() {
        // Sanity of the core claim at unit scale: with the host portion
        // warm, a host-served read touches no DRAM at all.
        let (m, sl, ks) = setup();
        sl.populate((0..ks.total_initial()).map(|i| (ks.initial_key(i), 1)));
        let (tall, _) = tall_and_short(&sl, &ks);
        run_hosts(&m, &sl, 1, move |ctx, sl, _| {
            let _ = sl.execute(ctx, Op::Read(tall)); // warm
            let before = ctx.mem().snapshot().dram_reads();
            let _ = sl.execute(ctx, Op::Read(tall));
            let after = ctx.mem().snapshot().dram_reads();
            assert_eq!(before, after, "warm host-served read hits caches only");
        });
    }
}
