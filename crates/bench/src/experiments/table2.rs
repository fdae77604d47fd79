//! Table 2 — delays in offloading operation requests to NMP cores.
//!
//! Measures, across repeated single-operation offloads on an otherwise idle
//! machine (the paper's methodology): the host-side request-write delay,
//! the time until the NMP core notices the request, the time for the host
//! to notice completion, and the full round trip excluding NMP-side work.
//! The paper's observation to reproduce: request + response communication
//! alone costs on the order of 1–2 LLC-miss delays.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hybrids::publist::{spawn_combiners, NmpExec, OpCode, PubLists, Request, Response};
use nmp_sim::{Machine, ThreadCtx, ThreadKind};

use crate::{Results, Scale};

/// No-op executor that records when the NMP core picked the request up.
struct Probe {
    noticed: Arc<AtomicU64>,
    finished: Arc<AtomicU64>,
}

impl NmpExec for Probe {
    type SlotState = ();
    fn exec(&self, ctx: &mut ThreadCtx, _part: usize, _req: &Request, _s: &mut ()) -> Response {
        self.noticed.store(ctx.now(), Ordering::Relaxed);
        ctx.advance(1); // negligible NMP-side work
        self.finished.store(ctx.now(), Ordering::Relaxed);
        Response::ok_value(0)
    }

    fn effect_spec(&self) -> nmp_sim::EffectSpec {
        // Pure protocol probe: no data-structure memory is touched.
        nmp_sim::EffectSpec::new("offload-probe")
            .op(hybrids::effects::protocol_op(OpCode::Read, "Read"))
    }
}

pub fn run(scale: &Scale) -> Results {
    let machine = Machine::new(scale.cfg.clone());
    let lists = Arc::new(PubLists::new(Arc::clone(&machine), 1));
    let noticed = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicU64::new(0));
    let iterations = 50u32;

    // Collected per-iteration samples (cycles):
    // (request write, notice delay, response notice delay, round trip).
    type Sample = (u64, u64, u64, u64);
    let samples: Arc<parking_lot::Mutex<Vec<Sample>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));

    let mut sim = machine.simulation();
    spawn_combiners(
        &mut sim,
        Arc::clone(&lists),
        Arc::new(Probe { noticed: Arc::clone(&noticed), finished: Arc::clone(&finished) }),
    );
    {
        let lists = Arc::clone(&lists);
        let noticed = Arc::clone(&noticed);
        let finished = Arc::clone(&finished);
        let samples = Arc::clone(&samples);
        sim.spawn("host-0", ThreadKind::Host { core: 0 }, move |ctx| {
            for i in 0..iterations {
                let t_start = ctx.now();
                lists.post(ctx, 0, 0, &Request::new(OpCode::Read, 100 + i, 0));
                let t_posted = ctx.now();
                let _ = lists.wait_response(ctx, 0, 0);
                let t_done = ctx.now();
                let t_noticed = noticed.load(Ordering::Relaxed);
                let t_finished = finished.load(Ordering::Relaxed);
                samples.lock().push((
                    t_posted - t_start,                 // request write (4 MMIO stores)
                    t_noticed.saturating_sub(t_posted), // until combiner picks it up
                    t_done.saturating_sub(t_finished),  // completion -> host notices
                    t_done - t_start,                   // full round trip
                ));
                ctx.idle(200); // let the combiner go idle between iterations
            }
        });
    }
    sim.run();

    let samples = samples.lock();
    let avg = |f: fn(&(u64, u64, u64, u64)) -> u64| {
        samples.iter().map(f).sum::<u64>() as f64 / samples.len() as f64
    };
    let llc = scale.cfg.llc_miss_cycles() as f64;
    println!("table2: NMP offload delays (scale = {}, {} iterations)", scale.name, samples.len());
    println!("  {:<38} {:>10} {:>12}", "component", "cycles", "LLC misses");
    let rows = [
        ("write op request (host MMIO stores)", avg(|s| s.0)),
        ("request noticed by NMP core", avg(|s| s.1)),
        ("completion noticed by host (poll)", avg(|s| s.2)),
        ("full round trip (incl. 1-cycle work)", avg(|s| s.3)),
    ];
    for (name, cycles) in rows {
        println!("  {name:<38} {cycles:>10.1} {:>12.2}", cycles / llc);
    }
    println!(
        "\n  one LLC miss = {llc:.0} cycles; paper: request+response communication \
         sums to ~1-2 LLC miss delays"
    );
    let comm = avg(|s| s.0) + avg(|s| s.2);
    println!("  measured request+response communication = {:.2} LLC misses", comm / llc);
    Results::default()
}
