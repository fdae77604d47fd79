//! Figure 4 — blocking vs. non-blocking NMP calls.
//!
//! Reproduces the schedule illustration of §3.5 as a measured trace: one
//! host thread issues a burst of hybrid-skiplist operations with blocking
//! calls (each offload stalls the host) and with up to 4 non-blocking calls
//! in flight (offloads overlap). Prints per-operation issue/complete times
//! and the resulting makespans.

use std::sync::Arc;

use hybrids::api::{Issued, PollOutcome, SimIndex};
use nmp_sim::{Machine, ThreadKind};
use workloads::Op;

use crate::{hybrid_skiplist, Results, Scale};

fn trace(scale: &Scale, inflight: usize) -> (Vec<(u64, u64)>, u64) {
    let mut scale = scale.clone();
    scale.skiplist_keys = scale.skiplist_keys.min(1 << 14);
    let ks = scale.skiplist_keyspace();
    let machine = Machine::new(scale.cfg.clone());
    let sl = hybrid_skiplist(&machine, ks, inflight);
    let ops: Vec<Op> = (0..8u32).map(|i| Op::Read(ks.initial_key(i * 37 + 5))).collect();
    let spans = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut sim = machine.simulation();
    sl.spawn_services(&mut sim);
    {
        let sl = Arc::clone(&sl);
        let spans = Arc::clone(&spans);
        sim.spawn("host-0", ThreadKind::Host { core: 0 }, move |ctx| {
            if inflight <= 1 {
                for &op in &ops {
                    let t0 = ctx.now();
                    let _ = sl.execute(ctx, op);
                    spans.lock().push((t0, ctx.now()));
                }
            } else {
                let mut lanes: Vec<Option<(u64, _)>> = (0..inflight).map(|_| None).collect();
                let mut next = 0;
                let mut done = 0;
                while done < ops.len() {
                    for (lane, slot) in lanes.iter_mut().enumerate() {
                        match slot.take() {
                            None if next < ops.len() => {
                                let t0 = ctx.now();
                                match sl.issue(ctx, lane, ops[next]) {
                                    Issued::Done(_) => {
                                        spans.lock().push((t0, ctx.now()));
                                        done += 1;
                                    }
                                    Issued::Pending(p) => *slot = Some((t0, p)),
                                }
                                next += 1;
                            }
                            None => {}
                            Some((t0, mut p)) => match sl.poll(ctx, &mut p) {
                                PollOutcome::Done(_) => {
                                    spans.lock().push((t0, ctx.now()));
                                    done += 1;
                                }
                                PollOutcome::Pending => *slot = Some((t0, p)),
                            },
                        }
                    }
                    ctx.idle(16);
                }
            }
        });
    }
    let out = sim.run();
    let spans = spans.lock().clone();
    (spans, out.makespan())
}

fn render(label: &str, spans: &[(u64, u64)], makespan: u64) {
    println!("\n{label}: makespan = {makespan} cycles");
    let t0 = spans.iter().map(|s| s.0).min().unwrap_or(0);
    let t1 = spans.iter().map(|s| s.1).max().unwrap_or(1);
    let width = 64usize;
    let scale = ((t1 - t0).max(1)) as f64 / width as f64;
    for (i, &(a, b)) in spans.iter().enumerate() {
        let s = ((a - t0) as f64 / scale) as usize;
        let e = (((b - t0) as f64 / scale) as usize).clamp(s + 1, width);
        let mut bar = vec![b' '; width];
        for c in bar.iter_mut().take(e).skip(s) {
            *c = b'#';
        }
        println!("  op{i:<2} |{}| {a:>8} -> {b:>8}", String::from_utf8(bar).unwrap());
    }
}

pub fn run(scale: &Scale) -> Results {
    println!("fig4: blocking vs non-blocking NMP calls (scale = {})", scale.name);
    let (b_spans, b_make) = trace(scale, 1);
    render("(a) blocking NMP calls", &b_spans, b_make);
    let (n_spans, n_make) = trace(scale, 4);
    render("(b) non-blocking NMP calls (4 in flight)", &n_spans, n_make);
    println!(
        "\nnon-blocking speedup on this burst: {:.2}x (overlap visible above)",
        b_make as f64 / n_make as f64
    );
    assert!(n_make <= b_make, "non-blocking must not be slower on an offload-bound burst");
    Results::default()
}
