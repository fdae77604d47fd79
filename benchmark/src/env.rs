//! Measurement environment: CPU pinning, the environment record written
//! beside every result, and the process's peak resident set.
//!
//! Every simulated memory access and every serve hop is a cross-thread
//! handoff whose cost depends on where the scheduler put the two threads;
//! confined to one CPU the same work repeats to within a percent (see
//! README.md, "Sizing runs"). So the parent pins itself to the first CPU
//! of its allowed set before it spawns anything; children and every
//! thread `Server::start` / `Simulation::run` spawns inherit the mask.

use serde::Value;

/// `cpu_set_t` as the kernel sees it: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs this process may run on.
fn allowed_cpus() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable buffer of exactly the
    // `size_of::<CpuSet>()` bytes passed as its length; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Pin the calling thread (and so everything it later spawns) to the first
/// CPU of its allowed set. Returns the CPU on success; on failure the
/// benchmark still runs, records `"pinned": false`, and warns that bounds
/// may not hold.
pub fn pin_to_first_cpu() -> Option<usize> {
    let set = allowed_cpus()?;
    let cpu = (0..1024).find(|c| set[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid buffer of the length passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Number of CPUs in the allowed set right now (1 once pinned).
pub fn allowed_cpu_count() -> usize {
    allowed_cpus().map_or(0, |s| s.iter().map(|w| w.count_ones() as usize).sum())
}

/// First line of `cmd`'s standard output, or `"unknown"`.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The environment record: what a reader needs to judge whether two
/// result files are comparable.
pub fn record(pinned_cpu: Option<usize>, nproc: usize) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    Value::Object(vec![
        ("pinned".into(), Value::Bool(pinned_cpu.is_some())),
        ("pinned_cpu".into(), pinned_cpu.map_or(Value::Null, |c| Value::UInt(c as u64))),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("cpu_model".into(), Value::Str(cpu_model)),
        ("kernel".into(), Value::Str(kernel)),
        ("rustc".into(), Value::Str(first_line_of("rustc", &["-V"]))),
        // "unknown" in a checkout that is not a git repository.
        ("git_commit".into(), Value::Str(first_line_of("git", &["rev-parse", "HEAD"]))),
    ])
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
