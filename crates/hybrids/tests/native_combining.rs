//! Caller-combines on the native engine (`hybrids::publist`): a
//! `NativeRun` has no NMP processor, so the posting host threads run the
//! flat-combining passes themselves behind a per-partition try-lock.
//!
//! * attaching a structure's services to a native run spawns no thread;
//! * a combining thread that dies takes the run down with it — its
//!   siblings panic instead of waiting forever on a dead partition;
//! * a contended mix of blocking and lane-pipelined operations is
//!   linearizable (Wing & Gong checker over ticket-stamped histories), every
//!   post is executed exactly once, and one pass serves every posted slot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use hybrids::driver::record_completion;
use hybrids::hashmap::HybridHashMap;
use hybrids::publist::{spawn_combiners, NmpExec, OpCode, PubLists, Request, Response};
use hybrids::{Issued, OpResult, PollOutcome, SimIndex};
use nmp_sim::analysis::HistoryRecorder;
use nmp_sim::{
    Config, EffectSpec, Machine, NativeRun, Simulation, Spawner, ThreadCtx, ThreadFn, ThreadKind,
};
use workloads::{Key, Op, Rng};

/// A native run that counts the threads spawned through its [`Spawner`]
/// surface (what service-spawning code sees).
struct CountingRun {
    run: NativeRun,
    spawned: usize,
}

impl Spawner for CountingRun {
    fn spawn_boxed(&mut self, name: String, kind: ThreadKind, f: ThreadFn) {
        self.spawned += 1;
        self.run.spawn_boxed(name, kind, f);
    }

    fn nmp_cores(&mut self) -> Option<&mut Simulation> {
        self.run.nmp_cores()
    }
}

#[test]
fn attaching_services_to_a_native_run_spawns_no_thread() {
    let machine = Machine::new(Config::tiny());
    let map = HybridHashMap::new(Arc::clone(&machine), 64, 42, 2);
    let mut counting = CountingRun { run: machine.native_run(), spawned: 0 };
    map.spawn_services_on(&mut counting);
    assert_eq!(counting.spawned, 0, "a native run has no NMP core to put a combiner on");
    // The map is served all the same, by the thread that asks.
    let served = Arc::clone(&map);
    counting.run.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
        assert!(served.execute(ctx, Op::Insert(7, 70)).ok);
        assert_eq!(served.execute(ctx, Op::Read(7)), OpResult::ok(70));
    });
    counting.run.finish();
    assert_eq!(map.collect(), vec![(7, 70)]);
}

/// Executor that dies on one key (as `HashMapExec` does when an `Insert`
/// exhausts the partition's arena) and echoes every other.
struct DiesOn(Key);

impl NmpExec for DiesOn {
    type SlotState = ();

    fn exec(&self, _ctx: &mut ThreadCtx, _part: usize, req: &Request, _s: &mut ()) -> Response {
        assert_ne!(req.key, self.0, "executor hit the fatal key");
        Response::ok_value(req.key)
    }

    fn effect_spec(&self) -> EffectSpec {
        EffectSpec::new("dies-on").op(hybrids::effects::protocol_op(OpCode::Read, "Read"))
    }
}

/// Whoever answers partition 0 dies on the fatal key. The other thread
/// still has, or will post, a request to that partition that can never be
/// answered; it must fail too, so that `finish` joins everyone and
/// re-raises, instead of spinning on its slot forever (which is what it did
/// when the answerer was a combiner daemon).
#[test]
fn dead_answerer_fails_the_run_instead_of_hanging_its_posters() {
    const FATAL: Key = 0xDEAD;
    let machine = Machine::new(Config::tiny());
    let lists = Arc::new(PubLists::new(Arc::clone(&machine), 1));
    let mut run = machine.native_run();
    spawn_combiners(&mut run, Arc::clone(&lists), Arc::new(DiesOn(FATAL)));
    // The sibling's first round trip completes before the fatal post, so it
    // is certainly mid-stream (not yet started, or already gone) when the
    // partition dies.
    let sibling_is_posting = Arc::new(Barrier::new(2));
    {
        let (lists, ready) = (Arc::clone(&lists), Arc::clone(&sibling_is_posting));
        run.spawn("sibling", ThreadKind::Host { core: 1 }, move |ctx| {
            let slot = lists.slot_of(1, 0);
            for key in 1.. {
                lists.post(ctx, 0, slot, &Request::new(OpCode::Read, key, 0));
                assert_eq!(lists.wait_response(ctx, 0, slot).value, key);
                if key == 1 {
                    ready.wait();
                }
            }
        });
    }
    {
        let (lists, ready) = (Arc::clone(&lists), sibling_is_posting);
        run.spawn("doomed", ThreadKind::Host { core: 0 }, move |ctx| {
            ready.wait();
            let slot = lists.slot_of(0, 0);
            lists.post(ctx, 0, slot, &Request::new(OpCode::Read, FATAL, 0));
            lists.wait_response(ctx, 0, slot);
        });
    }
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.finish()));
        let _ = tx.send(outcome);
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("finish() still blocked after 5 s: a poster is waiting on the dead partition");
    let panic = outcome.expect_err("the run must fail");
    let msg = panic.downcast_ref::<String>().expect("finish panics with a formatted message");
    assert!(msg.contains("native thread(s) panicked"), "{msg}");
    // Either thread may be the one whose pass picks the fatal request up;
    // the other then finds the partition dead and says where it was waiting.
    assert!(msg.contains("executor hit the fatal key"), "first panic is reported: {msg}");
    assert!(msg.contains("panicked: partition 0 slot "), "the survivor names its slot: {msg}");
}

const THREADS: usize = 4;
const LANES: usize = 4;
const ROUNDS: usize = 250;
const HOT_KEYS: usize = 8;

/// Everything one stress thread shares with the others.
struct Stress {
    map: Arc<HybridHashMap>,
    recorder: HistoryRecorder,
    /// One ticket counter stamps every invocation and response, so stamps
    /// are totally ordered across threads the way real time is.
    ticket: AtomicU64,
    /// The hot keys, grouped by the partition they hash to.
    by_part: Vec<Vec<Key>>,
}

impl Stress {
    fn stamp(&self) -> u64 {
        self.ticket.fetch_add(1, Ordering::SeqCst)
    }

    /// A random point operation on a random hot key of partition `part`.
    fn random_op(&self, rng: &mut Rng, part: usize) -> Op {
        let keys = &self.by_part[part];
        let key = keys[rng.below(keys.len() as u64) as usize];
        // Written values are unique, so a read pins the write it saw.
        let value = self.stamp() as u32 + 1;
        match rng.below(8) {
            0 | 1 => Op::Insert(key, value),
            2 | 3 => Op::Remove(key),
            4 | 5 => Op::Update(key, value),
            _ => Op::Read(key),
        }
    }

    fn blocking(&self, ctx: &mut ThreadCtx, thread: usize, op: Op) {
        let inv = self.stamp();
        let r = self.map.execute(ctx, op);
        record_completion(Some((&self.recorder, thread)), op, r, inv, self.stamp());
    }

    /// Issue one operation per lane, all to keys of partition `part` and all
    /// before the first poll, then poll the lanes to completion.
    fn burst(&self, ctx: &mut ThreadCtx, thread: usize, rng: &mut Rng, part: usize) {
        let mut lanes = Vec::with_capacity(LANES);
        for lane in 0..LANES {
            let op = self.random_op(rng, part);
            let inv = self.stamp();
            match self.map.issue(ctx, lane, op) {
                Issued::Pending(p) => lanes.push((op, inv, p)),
                Issued::Done(_) => unreachable!("every hash-map point op is offloaded"),
            }
        }
        while !lanes.is_empty() {
            let before = lanes.len();
            lanes.retain_mut(|(op, inv, pending)| match self.map.poll(ctx, pending) {
                PollOutcome::Done(r) => {
                    record_completion(Some((&self.recorder, thread)), *op, r, *inv, self.stamp());
                    false
                }
                PollOutcome::Pending => true,
            });
            if lanes.len() == before {
                ctx.idle(16);
            }
        }
    }
}

#[test]
fn contended_native_ops_are_linearizable_and_batched() {
    let machine = Machine::new(Config::tiny());
    let parts = machine.partitions();
    let map = HybridHashMap::new(Arc::clone(&machine), 64, 42, LANES);
    let part_of = |key: Key| (map.bucket_of(key) / (map.buckets() / parts as u32)) as usize;
    // The first keys that hash to each partition, in equal shares.
    let mut by_part = vec![Vec::new(); parts];
    for key in 1.. {
        let keys: &mut Vec<Key> = &mut by_part[part_of(key)];
        if keys.len() < HOT_KEYS / parts {
            keys.push(key);
        } else if by_part.iter().all(|keys| keys.len() == HOT_KEYS / parts) {
            break;
        }
    }
    // Half the hot keys start present, so all four op kinds can succeed.
    let initial: Vec<(Key, u32)> =
        by_part.iter().flat_map(|keys| keys.iter().step_by(2).map(|&k| (k, 5))).collect();
    map.populate(initial.iter().copied());

    let shared = Arc::new(Stress {
        map: Arc::clone(&map),
        recorder: HistoryRecorder::new(),
        ticket: AtomicU64::new(0),
        by_part,
    });
    let mut run = machine.native_run();
    map.spawn_services_on(&mut run);
    // Thread 0 opens alone with one burst: nobody else can serve it, so its
    // first poll finds lane 0 unserved, takes the partition and must serve
    // all four lanes in that one pass.
    let opened = Arc::new(Barrier::new(THREADS));
    for thread in 0..THREADS {
        let (shared, opened) = (Arc::clone(&shared), Arc::clone(&opened));
        run.spawn(format!("h{thread}"), ThreadKind::Host { core: thread }, move |ctx| {
            let mut rng = Rng::new(0x5EED + thread as u64);
            if thread == 0 {
                shared.burst(ctx, thread, &mut rng, 0);
            }
            opened.wait();
            for round in 0..ROUNDS {
                for _ in 0..LANES {
                    let part = rng.below(parts as u64) as usize;
                    let op = shared.random_op(&mut rng, part);
                    shared.blocking(ctx, thread, op);
                }
                shared.burst(ctx, thread, &mut rng, (round + thread) % parts);
            }
        });
    }
    run.finish();

    let expected = THREADS * ROUNDS * 2 * LANES + LANES;
    assert_eq!(shared.recorder.len(), expected);
    shared
        .recorder
        .check_linearizable(|k| initial.iter().find(|(key, _)| *key == k).map(|(_, v)| *v))
        .unwrap_or_else(|e| panic!("{e}"));
    map.check_invariants();
    let offload = machine.mem().snapshot().offload;
    assert_eq!(offload.posted_total(), expected as u64, "one post per point op");
    assert_eq!(offload.completed_total(), offload.posted_total(), "every post executed once");
    assert!(
        offload.passes_with(LANES) > 0,
        "the opening burst is one pass over four posted slots: {:?}",
        offload.combined_hist
    );
}
