//! Parked pollers, held against the polling loops they stand in for: NMP
//! daemons first, then hosts (further down).
//!
//! Each daemon case runs one host script twice: once against an NMP daemon that
//! polls its scratchpad words pass after pass, idling between empty
//! passes, and once against the same daemon that parks after an empty pass
//! ([`ThreadCtx::park`]). The two runs must agree on every thread's final
//! clock, on every response and when the host saw it, on the cycle each
//! non-empty pass began, on the stats snapshot (the empty-pass histogram
//! bucket included) and on the analysis report — under a constant idle and
//! under a doubling one.

use std::sync::{Arc, Mutex};

use nmp_sim::{
    Addr, Config, IdleSequence, Machine, MemorySystem, Resume, Simulation, ThreadCtx, ThreadKind,
};

/// Scratchpad words one daemon pass reads (64 bytes apart, like
/// publication-list control words).
const WORDS: usize = 8;
const STRIDE: u32 = 64;

/// The idle a test daemon takes after an empty pass.
#[derive(Debug, Clone, Copy)]
enum Idle {
    /// Always `base`.
    Fixed(u64),
    /// Starts at `max(base/4, 1)`, doubles up to `8 * base`, re-armed at
    /// the start by a pass that found work.
    Doubling { base: u64, cur: u64 },
}

impl Idle {
    fn doubling(base: u64) -> Self {
        Idle::Doubling { base, cur: (base / 4).max(1) }
    }

    fn rearm(&mut self) {
        if let Idle::Doubling { base, cur } = self {
            *cur = (*base / 4).max(1);
        }
    }
}

impl IdleSequence for Idle {
    fn next_idle(&mut self) -> u64 {
        match self {
            Idle::Fixed(base) => *base,
            Idle::Doubling { base, cur } => {
                let v = *cur;
                *cur = (*cur * 2).min(8 * *base);
                v
            }
        }
    }

    fn settled(&self) -> bool {
        match *self {
            Idle::Fixed(_) => true,
            Idle::Doubling { base, cur } => cur == 8 * base,
        }
    }
}

/// What the two runs of a case must agree on.
#[derive(Default)]
struct Log {
    /// `(daemon part, cycle)` each non-empty pass began.
    passes: Vec<(usize, u64)>,
    /// `(host, post index, response, cycle the host saw it)`.
    responses: Vec<(usize, usize, u64, u64)>,
    /// Completion cycle of every scan read (not compared: a parked daemon
    /// skips most of them).
    scans: Vec<u64>,
}

type Shared = Arc<Mutex<Log>>;

/// One post: the host's control-word write completes at cycle `at` (or as
/// soon after as the host can issue it), into word `word` of partition
/// `part`'s scratchpad.
#[derive(Debug, Clone, Copy)]
struct Post {
    at: u64,
    part: usize,
    word: usize,
}

fn word_addr(mem: &MemorySystem, part: usize, word: usize) -> Addr {
    mem.map().spad_base(part) + word as u32 * STRIDE
}

/// The daemon of partition `part`: each pass reads every word (acquire),
/// then serves the set ones by writing `3 * value` one word later and
/// clearing the word (release). Between passes it idles (after a pass that
/// found nothing) or goes straight on (after one that found work); when
/// `park`, it parks there instead unless a word is already set.
fn daemon(
    ctx: &mut ThreadCtx,
    mem: &MemorySystem,
    part: usize,
    mut idle: Idle,
    park: bool,
    log: &Shared,
) {
    let base = word_addr(mem, part, 0);
    let poll: Vec<Addr> = (0..WORDS).map(|w| word_addr(mem, part, w)).collect();
    let (mut first, mut start) = (0, ctx.now());
    let mut batch = Vec::new();
    loop {
        for w in first..WORDS {
            let v = ctx.read_u64_acquire(base + w as u32 * STRIDE);
            log.lock().unwrap().scans.push(ctx.now());
            if v != 0 {
                batch.push((w, v));
            }
            ctx.step();
        }
        mem.note_offload_pass(part, batch.len());
        let gap = if !batch.is_empty() {
            log.lock().unwrap().passes.push((part, start));
            for (w, v) in batch.drain(..) {
                let a = base + w as u32 * STRIDE;
                ctx.write_u64(a + 8, 3 * v);
                ctx.write_u64_release(a, 0);
                ctx.step();
            }
            idle.rearm();
            0
        } else if ctx.stop_requested() {
            return;
        } else {
            idle.next_idle()
        };
        if !park || (0..WORDS).any(|w| mem.ram().read_u64(base + w as u32 * STRIDE) != 0) {
            if gap > 0 {
                ctx.idle(gap);
            }
            (first, start) = (0, ctx.now());
            continue;
        }
        match ctx.park(&poll, gap, &mut idle) {
            Resume::Scan { word, pass_start, empty_passes } => {
                mem.note_offload_empty_passes(part, empty_passes);
                (first, start) = (word, pass_start);
            }
            Resume::Stop { empty_passes } => {
                mem.note_offload_empty_passes(part, empty_passes);
                return;
            }
        }
    }
}

/// A host that makes `posts` in order, each waiting for its response, then
/// idles `linger` cycles and ends. Resets the memory system's counters
/// before post `reset_before`, if any.
fn host(
    ctx: &mut ThreadCtx,
    mem: &MemorySystem,
    me: usize,
    posts: &[Post],
    reset_before: Option<usize>,
    linger: u64,
    log: &Shared,
) {
    let mmio_write = mem.config().cycles(mem.config().mmio_write_ns);
    for (i, p) in posts.iter().enumerate() {
        if reset_before == Some(i) {
            ctx.reset_stats();
        }
        let a = word_addr(mem, p.part, p.word);
        // Data word, then the control word: two MMIO writes.
        ctx.advance(p.at.saturating_sub(ctx.now() + 2 * mmio_write));
        ctx.mmio_write_u64(a + 16, i as u64);
        ctx.mmio_write_u64_release(a, 1 + me as u64 * 1000 + i as u64);
        loop {
            if ctx.mmio_read_u64_acquire(a) == 0 {
                let r = ctx.mmio_read_u64(a + 8);
                log.lock().unwrap().responses.push((me, i, r, ctx.now()));
                break;
            }
            ctx.idle(40);
        }
    }
    ctx.idle(linger.max(1));
}

/// One case: which partitions have daemons, the daemons' idle, each host's
/// posts, and whether the daemons are spawned before the hosts (a
/// same-cycle write then comes from a higher id than the daemon's read).
#[derive(Clone)]
struct Case {
    parts: Vec<usize>,
    idle: Idle,
    hosts: Vec<Vec<Post>>,
    daemons_first: bool,
    reset_before: Option<usize>,
    linger: u64,
    analysis: bool,
}

impl Case {
    fn new(idle: Idle, hosts: Vec<Vec<Post>>) -> Self {
        Case {
            parts: vec![0],
            idle,
            hosts,
            daemons_first: false,
            reset_before: None,
            linger: 1,
            analysis: false,
        }
    }

    /// Run with polling (`park = false`) or parking daemons; returns the
    /// fingerprint of everything the two must agree on, and the log.
    fn run(&self, park: bool) -> (String, Log) {
        let machine = Machine::new(Config::tiny());
        let analysis = self.analysis.then(|| machine.attach_analysis());
        let mut sim = machine.simulation();
        let log: Shared = Arc::default();
        if self.daemons_first {
            self.spawn_daemons(&mut sim, park, &log);
        }
        for (me, posts) in self.hosts.iter().enumerate() {
            let (mem, posts, log) = (sim.mem(), posts.clone(), Arc::clone(&log));
            let (reset, linger) = ((me == 0).then_some(self.reset_before).flatten(), self.linger);
            sim.spawn(format!("h{me}"), ThreadKind::Host { core: me }, move |ctx| {
                host(ctx, &mem, me, &posts, reset, linger, &log);
            });
        }
        if !self.daemons_first {
            self.spawn_daemons(&mut sim, park, &log);
        }
        let outcome = sim.run();
        let log = Arc::try_unwrap(log).ok().unwrap().into_inner().unwrap();
        let fp = format!(
            "clocks={:?}\npasses={:?}\nresponses={:?}\nsnapshot={:?}\nreport={:?}\n",
            outcome.clocks,
            log.passes,
            log.responses,
            machine.mem().snapshot(),
            analysis.map(|a| a.report()),
        );
        (fp, log)
    }

    fn spawn_daemons(&self, sim: &mut Simulation, park: bool, log: &Shared) {
        for &part in &self.parts {
            let (mem, log, idle) = (sim.mem(), Arc::clone(log), self.idle);
            sim.spawn_daemon(format!("nmp{part}"), ThreadKind::Nmp { part }, move |ctx| {
                daemon(ctx, &mem, part, idle, park, &log);
            });
        }
    }

    /// The parked run reproduces the polling run.
    fn check(&self) {
        let (polled, _) = self.run(false);
        let (parked, _) = self.run(true);
        assert_eq!(parked, polled, "the parked daemons diverge from the polling ones");
        assert!(polled.contains("responses=[("), "the case served nothing:\n{polled}");
    }
}

/// Both idle shapes, with the base the stock configurations use.
fn idles() -> [Idle; 2] {
    let base = Config::tiny().nmp_idle_poll_cycles;
    [Idle::Fixed(base), Idle::doubling(base)]
}

/// Completion cycles of the scan reads of partition 0's polling daemon
/// before any post, as long as a host that posts nothing at `quiet` lives.
fn quiet_scans(idle: Idle, quiet: u64) -> Vec<u64> {
    let case = Case::new(idle, vec![vec![]]);
    let case = Case { linger: quiet, ..case };
    case.run(false).1.scans
}

/// A post whose control-word write lands one cycle before, exactly at, and
/// one cycle after a scan of its word, with the writer's id below and above
/// the daemon's.
#[test]
fn post_lands_before_at_and_after_the_scan_of_its_word() {
    for idle in idles() {
        let scans = quiet_scans(idle, 3_000);
        // Word 5 of the fourth pass, the last word of the fifth (its stop
        // check's cycle) and word 0 of the sixth (a pass start).
        for (pass, word) in [(3, 5), (5, 0), (4, WORDS - 1)] {
            let scan = scans[pass * WORDS + word];
            for offset in [-1i64, 0, 1] {
                for daemons_first in [false, true] {
                    let at = (scan as i64 + offset) as u64;
                    let posts =
                        vec![Post { at, part: 0, word }, Post { at: at + 700, part: 0, word: 2 }];
                    Case { daemons_first, ..Case::new(idle, vec![posts]) }.check();
                }
            }
        }
    }
}

/// Two hosts post to one partition before the woken daemon runs: in the
/// same cycle (from ids on both sides of the daemon's), and a cycle apart.
#[test]
fn two_posts_to_one_partition_before_the_wake_runs() {
    for idle in idles() {
        let scans = quiet_scans(idle, 3_000);
        let at = scans[4 * WORDS + 3];
        for (gap, daemons_first) in [(0, false), (0, true), (1, false), (2, true)] {
            let hosts = vec![
                vec![Post { at, part: 0, word: 1 }],
                vec![Post { at: at + gap, part: 0, word: 6 }],
            ];
            Case { daemons_first, ..Case::new(idle, hosts) }.check();
        }
    }
}

/// The last host ends while the daemons are parked: each stops at the
/// empty-pass check the polling loop would have stopped at.
#[test]
fn stop_arrives_while_parked() {
    for idle in idles() {
        for linger in [1, 77, 2_000, 9_999] {
            let posts =
                vec![Post { at: 500, part: 0, word: 4 }, Post { at: 1_300, part: 1, word: 0 }];
            let case = Case { parts: vec![0, 1], linger, ..Case::new(idle, vec![posts]) };
            case.check();
        }
    }
}

/// Two partitions parked at once, woken by posts to either and to both.
#[test]
fn two_partitions_parked_at_once() {
    for idle in idles() {
        let hosts = vec![
            vec![Post { at: 900, part: 0, word: 0 }, Post { at: 2_500, part: 1, word: 7 }],
            vec![Post { at: 900, part: 1, word: 3 }, Post { at: 4_000, part: 1, word: 3 }],
            vec![Post { at: 3_100, part: 0, word: 2 }],
        ];
        let case = Case { parts: vec![0, 1], linger: 1_500, ..Case::new(idle, hosts) };
        case.check();
        Case { daemons_first: true, ..case }.check();
    }
}

/// Many posts at pseudo-random times from three hosts to two partitions,
/// with the counters reset mid-run and the race detector attached.
#[test]
fn random_posts_with_a_mid_run_reset_and_analysis() {
    for idle in idles() {
        for seed in 1..=4u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |n: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n
            };
            let hosts: Vec<Vec<Post>> = (0..3)
                .map(|h| {
                    let mut at = 0;
                    (0..25)
                        .map(|_| {
                            at += next(2_500);
                            Post { at, part: next(2) as usize, word: h * 2 + next(2) as usize }
                        })
                        .collect()
                })
                .collect();
            let case = Case {
                parts: vec![0, 1],
                reset_before: Some(10),
                linger: next(3_000),
                analysis: true,
                daemons_first: seed % 2 == 0,
                ..Case::new(idle, hosts)
            };
            case.check();
        }
    }
}

/// Parking saves turns: over a long quiet stretch the parked daemon reads
/// its scratchpad a handful of times, the polling one hundreds.
#[test]
fn a_parked_daemon_skips_its_empty_scans() {
    for idle in idles() {
        let case = Case {
            linger: 20_000,
            ..Case::new(idle, vec![vec![Post { at: 100, part: 0, word: 1 }]])
        };
        let (polled, polled_log) = case.run(false);
        let (parked, parked_log) = case.run(true);
        assert_eq!(parked, polled);
        let (polled, parked) = (polled_log.scans.len(), parked_log.scans.len());
        assert!(polled > 50 * WORDS, "the polling daemon read {polled} words");
        assert!(parked <= 5 * WORDS, "the parked daemon read {parked} words (polling: {polled})");
    }
}

// ---- Parked hosts ----
//
// The same check from the other side: a host that posts into scratchpad
// words and polls them by MMIO, round after round, against the same host
// parking after a round that saw no answer. The answers come from scripted
// NMP threads that write a word's response and then clear the word at a
// chosen cycle, so a case can put an answer one cycle before, at or after
// a poll. The two runs must agree on every thread's final clock, on every
// response and when the host read it, on the stats snapshot (`mmio_reads`
// included) and on the analysis report. Every poll the parked host makes,
// the one it resumes with first, must be a poll the polling host made: the
// same word at the same cycle.

/// What a host case logs.
#[derive(Default)]
struct HostLog {
    /// `(word index, cycle)` of every control-word poll.
    polls: Vec<(usize, u64)>,
    /// `(word index, response, cycle the host read it)`.
    responses: Vec<(usize, u64, u64)>,
    /// Times the parked host was woken by a write.
    wakes: usize,
}

type HostShared = Arc<Mutex<HostLog>>;

/// The host under test: post a request into each of `words`, then poll the
/// unanswered ones round by round until every one is answered. A round
/// reads each unanswered word in order (MMIO acquire) and, on a cleared
/// one, reads its response one word later. After a round that saw no
/// answer the host idles the next value of `idle`; when `park`, it parks on
/// the unanswered words instead, unless one was answered after its poll.
fn poller(
    ctx: &mut ThreadCtx,
    mem: &MemorySystem,
    words: &[Addr],
    mut idle: Idle,
    park: bool,
    log: &HostShared,
) {
    for (i, &a) in words.iter().enumerate() {
        ctx.mmio_write_u64_release(a, 1 + i as u64);
    }
    let mut unanswered: Vec<usize> = (0..words.len()).collect();
    let mut first = 0;
    while !unanswered.is_empty() {
        let mut answered = false;
        let mut k = std::mem::take(&mut first);
        while k < unanswered.len() {
            let (w, a) = (unanswered[k], words[unanswered[k]]);
            let ctrl = ctx.mmio_read_u64_acquire(a);
            log.lock().unwrap().polls.push((w, ctx.now()));
            if ctrl != 0 {
                k += 1;
                continue;
            }
            let r = ctx.mmio_read_u64(a + 8);
            log.lock().unwrap().responses.push((w, r, ctx.now()));
            unanswered.remove(k);
            answered = true;
        }
        if answered {
            idle.rearm();
            continue;
        }
        let gap = idle.next_idle();
        let watch: Vec<Addr> = unanswered.iter().map(|&w| words[w]).collect();
        if !park || watch.iter().any(|&a| mem.ram().read_u64(a) == 0) {
            ctx.idle(gap);
            continue;
        }
        match ctx.park(&watch, gap, &mut idle) {
            Resume::Scan { word, .. } => {
                log.lock().unwrap().wakes += 1;
                first = word;
            }
            Resume::Stop { .. } => panic!("a host is stopped only by a panic"),
        }
    }
}

/// One host case: the host's words as `(partition, slot word)`, the cycle
/// each is answered, and who else runs.
#[derive(Clone)]
struct HostCase {
    words: Vec<(usize, usize)>,
    answers: Vec<u64>,
    idle: Idle,
    /// Spawn the answering threads before the host (a same-cycle write
    /// then comes from a lower id than the host's poll).
    answerers_first: bool,
    /// A second host resets the counters at this cycle...
    reset_at: Option<u64>,
    /// ...spawned before the host under test.
    resetter_first: bool,
    analysis: bool,
}

impl HostCase {
    fn new(idle: Idle, words: Vec<(usize, usize)>, answers: Vec<u64>) -> Self {
        HostCase {
            words,
            answers,
            idle,
            answerers_first: false,
            reset_at: None,
            resetter_first: false,
            analysis: false,
        }
    }

    fn run(&self, park: bool) -> (String, HostLog) {
        let machine = Machine::new(Config::tiny());
        let analysis = self.analysis.then(|| machine.attach_analysis());
        let mut sim = machine.simulation();
        let mem = sim.mem();
        let log: HostShared = Arc::default();
        let words: Vec<Addr> = self.words.iter().map(|&(p, w)| word_addr(&mem, p, w)).collect();
        if self.answerers_first {
            self.spawn_answerers(&mut sim, &words);
        }
        let reset = self.reset_at.map(|at| {
            move |ctx: &mut ThreadCtx| {
                ctx.idle(at - ctx.now());
                ctx.reset_stats();
            }
        });
        if let (Some(r), true) = (reset, self.resetter_first) {
            sim.spawn("resetter", ThreadKind::Host { core: 1 }, r);
        }
        let (host_mem, host_words, host_log, idle) =
            (sim.mem(), words.clone(), Arc::clone(&log), self.idle);
        sim.spawn("h0", ThreadKind::Host { core: 0 }, move |ctx| {
            poller(ctx, &host_mem, &host_words, idle, park, &host_log);
        });
        if let (Some(r), false) = (reset, self.resetter_first) {
            sim.spawn("resetter", ThreadKind::Host { core: 1 }, r);
        }
        if !self.answerers_first {
            self.spawn_answerers(&mut sim, &words);
        }
        let outcome = sim.run();
        let log = Arc::try_unwrap(log).ok().unwrap().into_inner().unwrap();
        let fp = format!(
            "clocks={:?}\nresponses={:?}\nsnapshot={:?}\nreport={:?}\n",
            outcome.clocks,
            log.responses,
            machine.mem().snapshot(),
            analysis.map(|a| a.report()),
        );
        (fp, log)
    }

    /// One NMP thread per word, on the word's partition: it writes the
    /// response (`7 * (index + 1)`) and then clears the word, the clear
    /// completing at the word's answer cycle.
    fn spawn_answerers(&self, sim: &mut Simulation, words: &[Addr]) {
        for (i, (&(part, _), &a)) in self.words.iter().zip(words).enumerate() {
            let at = self.answers[i];
            sim.spawn(format!("a{i}"), ThreadKind::Nmp { part }, move |ctx| {
                ctx.advance(at - 2 - ctx.now());
                ctx.write_u64(a + 8, 7 * (i as u64 + 1));
                ctx.write_u64_release(a, 0);
                assert_eq!(ctx.now(), at);
            });
        }
    }

    /// The parked host reproduces the polling one.
    fn check(&self) {
        let (polled, polled_log) = self.run(false);
        let (parked, parked_log) = self.run(true);
        assert_eq!(parked, polled, "the parked host diverges from the polling one");
        assert_eq!(polled_log.responses.len(), self.words.len(), "{polled}");
        assert!(parked_log.wakes > 0, "the host never parked:\n{parked}");
        for poll in &parked_log.polls {
            assert!(polled_log.polls.contains(poll), "the parked host polled {poll:?} off-beat");
        }
    }
}

/// One word; three words, in both partitions and out of address order.
fn word_sets() -> [Vec<(usize, usize)>; 2] {
    [vec![(1, 3)], vec![(1, 5), (0, 2), (1, 0)]]
}

/// A constant idle, and a doubling one that settles at its cap, with the
/// stock host poll interval as base.
fn host_idles() -> [Idle; 2] {
    let base = Config::tiny().host_poll_interval_cycles;
    [Idle::Fixed(base), Idle::doubling(base)]
}

/// `(word index, completion cycle)` of the polls of a host that waits on
/// `words` with nothing answered until long after.
fn quiet_polls(idle: Idle, words: &[(usize, usize)]) -> Vec<(usize, u64)> {
    let answers = (0..words.len()).map(|i| 40_000 + 100 * i as u64).collect();
    HostCase::new(idle, words.to_vec(), answers).run(false).1.polls
}

/// An answer that lands one cycle before, at and one cycle after a poll of
/// its word, early (before a doubling idle settles) and late, from answering
/// threads spawned on both sides of the host; the other words are answered
/// later, one at a time.
#[test]
fn host_answer_lands_before_at_and_after_a_poll() {
    for idle in host_idles() {
        for words in word_sets() {
            let polls = quiet_polls(idle, &words);
            for target in [0, words.len() - 1] {
                let mine: Vec<u64> = polls.iter().filter(|p| p.0 == target).map(|p| p.1).collect();
                for round in [2, 9] {
                    for offset in [-1i64, 0, 1] {
                        for answerers_first in [false, true] {
                            let at = (mine[round] as i64 + offset) as u64;
                            let answers = (0..words.len())
                                .map(|i| if i == target { at } else { at + 700 * (i as u64 + 1) })
                                .collect();
                            let case = HostCase {
                                answerers_first,
                                ..HostCase::new(idle, words.clone(), answers)
                            };
                            case.check();
                        }
                    }
                }
            }
        }
    }
}

/// A second host resets the counters while the host under test is parked:
/// around the issue of a poll (one cycle before, at, after), while that
/// poll is in flight, and in the cycle the answer it sees lands, from ids
/// on both sides, with the race detector attached.
#[test]
fn host_mid_run_reset_with_analysis() {
    let cfg = Config::tiny();
    let read = cfg.cycles(cfg.mmio_read_ns);
    for idle in host_idles() {
        for words in word_sets() {
            let polls = quiet_polls(idle, &words);
            let last = words.len() - 1;
            let done = polls.iter().filter(|p| p.0 == last).map(|p| p.1).nth(6).unwrap();
            let issue = done - read;
            for reset_at in [issue - 1, issue, issue + 1, issue + read / 2, done - 1, done] {
                for (resetter_first, answerers_first) in [(false, false), (true, true)] {
                    let answers = (0..words.len())
                        .map(|i| if i == last { done - 1 } else { done + 900 * (i as u64 + 1) })
                        .collect();
                    let case = HostCase {
                        reset_at: Some(reset_at),
                        resetter_first,
                        answerers_first,
                        analysis: true,
                        ..HostCase::new(idle, words.clone(), answers)
                    };
                    case.check();
                }
            }
        }
    }
}

/// Parking saves turns: over a long wait the parked host polls a handful
/// of times, the polling one hundreds.
#[test]
fn a_parked_host_skips_its_polls() {
    for idle in host_idles() {
        let case = HostCase::new(idle, vec![(0, 1)], vec![30_000]);
        let (polled, polled_log) = case.run(false);
        let (parked, parked_log) = case.run(true);
        assert_eq!(parked, polled);
        let (polled, parked) = (polled_log.polls.len(), parked_log.polls.len());
        assert!(polled > 50, "the polling host polled {polled} times");
        assert!(parked <= 3, "the parked host polled {parked} times (polling: {polled})");
    }
}
