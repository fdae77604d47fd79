//! The repository's benchmark: six fixed-size workloads over the figure
//! harness and the cache server, pinned to one CPU, each checked by an
//! oracle. See README.md in this directory.
//!
//! ```text
//! hybrids-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! hybrids-benchmark run --seed <n> --out <file> [--seconds <s>] [--repeat <k>] [--smoke]
//! hybrids-benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one pass of one
//! workload, its result as the last line of standard output. Every pass
//! runs in a re-exec'd child process, so a workload's peak memory is its
//! own and a panic or hang fails that pass instead of the whole run.

mod compare;
mod env;
mod jsoncheck;
mod measure;
mod probes;
mod replay;
mod serve;
mod shadow;
mod sim;
mod spans;
mod spec;
mod stats;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use spec::{Length, MetricDef, WorkloadDef, END_TO_END, PER_LAYER, WORKLOADS};

/// `--seconds` when `run` is not told otherwise; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: u32 = 8;

/// A child pass that has not finished after this long is killed and
/// counted as failed (the contract allows a run 180 s).
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

/// `serde::Value` has no `Serialize` of its own.
pub(crate) struct Json(pub(crate) Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

pub(crate) fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A JSON number as `f64` (the stand-in parser reads integral floats back
/// as integers).
pub(crate) fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(x) => Some(x),
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        _ => None,
    }
}

/// What the parent learned from one child pass.
struct Pass {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value)` in catalogue order; empty if the child died.
    metrics: Vec<(String, f64)>,
}

/// The contract's result object.
fn result_json(pass: &Pass, catalogue: &[MetricDef]) -> String {
    let metrics = pass
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = catalogue.iter().find(|m| m.name == name).map_or("", |m| m.unit);
            (
                name.clone(),
                obj(vec![("value", Value::Float(*value)), ("unit", Value::Str(unit.into()))]),
            )
        })
        .collect();
    let v = obj(vec![
        ("correct", Value::Bool(pass.correct)),
        ("attempted", Value::UInt(pass.attempted)),
        ("failed", Value::UInt(pass.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&Json(v)).expect("finite numbers serialize")
}

fn parse_pass(line: &str) -> Option<Pass> {
    let v = serde_json::parse_value_str(line).ok()?;
    let uint = |name: &str| match v.field(name) {
        Ok(&Value::UInt(n)) => Some(n),
        _ => None,
    };
    let Value::Object(metrics) = v.field("metrics").ok()? else { return None };
    let metrics = metrics
        .iter()
        .map(|(name, m)| Some((name.clone(), number(m.field("value").ok()?)?)))
        .collect::<Option<Vec<_>>>()?;
    Some(Pass {
        correct: v.field("correct").ok()? == &Value::Bool(true),
        attempted: uint("attempted")?,
        failed: uint("failed")?,
        metrics,
    })
}

/// Inside the child: run the pass, print remarks and the result line.
fn child_main(w: &WorkloadDef, seed: u64, len: Length) -> ExitCode {
    let outcome = measure::measure(w, seed, len);
    for note in &outcome.notes {
        println!("# {note}");
    }
    let catalogue = if len.traced { PER_LAYER } else { END_TO_END };
    let pass = Pass {
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    };
    println!("{}", result_json(&pass, catalogue));
    ExitCode::SUCCESS
}

/// Run one pass of `w` in a child process of this same executable.
/// Prints the child's remarks; a child that dies, hangs or prints no
/// result fails the whole pass.
fn run_child(w: &WorkloadDef, seed: u64, len: Length) -> Pass {
    let whole_pass_failed = |why: &str| {
        eprintln!("{}: {why}; the whole pass counts as failed", w.name);
        let attempted = u64::from(len.ops(w)).max(1);
        Pass { correct: false, attempted, failed: attempted, metrics: Vec::new() }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return whole_pass_failed(&format!("cannot find own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &len.seconds.to_string()])
        .args(["--trace", if len.traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if len.smoke {
        cmd.arg("--smoke");
    }
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => return whole_pass_failed(&format!("cannot start the child: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    for line in text.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    match status {
        None => whole_pass_failed("the child hung and was killed"),
        Some(s) if !s.success() => whole_pass_failed(&format!("the child exited with {s}")),
        Some(_) => text
            .lines()
            .last()
            .and_then(parse_pass)
            .unwrap_or_else(|| whole_pass_failed("the child printed no result")),
    }
}

/// Print every metric of a pass by name with unit, direction and bound.
fn print_table(w: &WorkloadDef, pass: &Pass, catalogue: &[MetricDef]) {
    println!("== {} — {}", w.name, w.why);
    println!(
        "== {} : attempted {} failed {} (failed_share {:.6}) {}",
        w.name,
        pass.attempted,
        pass.failed,
        pass.failed as f64 / pass.attempted.max(1) as f64,
        if pass.correct { "correct" } else { "INCORRECT" }
    );
    for (name, value) in &pass.metrics {
        let Some(def) = catalogue.iter().find(|m| m.name == name) else { continue };
        let bound = def.bound.map_or(String::new(), |b| format!(", may worsen {:.0} %", b * 100.0));
        println!(
            "  {:<32} {:>18.6} {:<10} ({} is better{bound}) — {}",
            def.name,
            value,
            def.unit,
            def.better.label(),
            def.what
        );
    }
}

/// `run`: every workload untraced (`repeat` times), then every workload
/// traced, into one result file.
fn run_all(
    seed: u64,
    seconds: u32,
    smoke: bool,
    repeat: usize,
    out: &str,
    environment: Value,
) -> ExitCode {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let len = Length { seconds, smoke, traced: false };
        let passes: Vec<Pass> = (0..repeat).map(|_| run_child(w, seed, len)).collect();
        print_table(w, &passes[0], END_TO_END);
        let end_to_end = END_TO_END
            .iter()
            .map(|def| {
                let values = passes
                    .iter()
                    .filter_map(|p| p.metrics.iter().find(|(n, _)| n == def.name))
                    .map(|(_, v)| Value::Float(*v))
                    .collect();
                let entry = obj(vec![
                    ("unit", Value::Str(def.unit.into())),
                    ("values", Value::Array(values)),
                ]);
                (def.name.to_owned(), entry)
            })
            .collect();
        all_correct &= passes.iter().all(|p| p.correct);
        workloads.push(vec![
            ("name", Value::Str(w.name.into())),
            ("correct", Value::Bool(passes.iter().all(|p| p.correct))),
            ("attempted", Value::UInt(passes.iter().map(|p| p.attempted).sum())),
            ("failed", Value::UInt(passes.iter().map(|p| p.failed).sum())),
            ("end_to_end", Value::Object(end_to_end)),
        ]);
    }
    for (w, entry) in WORKLOADS.iter().zip(&mut workloads) {
        let pass = run_child(w, seed, Length { seconds, smoke, traced: true });
        print_table(w, &pass, PER_LAYER);
        let per_layer = pass
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = PER_LAYER.iter().find(|m| m.name == name).map_or("", |m| m.unit);
                let entry =
                    obj(vec![("unit", Value::Str(unit.into())), ("value", Value::Float(*value))]);
                (name.clone(), entry)
            })
            .collect();
        all_correct &= pass.correct;
        entry.push(("per_layer", Value::Object(per_layer)));
        entry.push((
            "traced",
            obj(vec![
                ("correct", Value::Bool(pass.correct)),
                ("attempted", Value::UInt(pass.attempted)),
                ("failed", Value::UInt(pass.failed)),
            ]),
        ));
    }
    let file = obj(vec![
        ("schema", Value::Str("hybrids-benchmark/1".into())),
        ("env", environment),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::UInt(seconds.into())),
        ("smoke", Value::Bool(smoke)),
        ("repeat", Value::UInt(repeat as u64)),
        ("workloads", Value::Array(workloads.into_iter().map(obj).collect())),
    ]);
    let text = serde_json::to_string_pretty(&Json(file)).expect("finite numbers serialize");
    if let Err(e) = std::fs::write(out, text + "\n") {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::parse_value_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))
}

/// Command-line flags (`--name value`, plus the bare `--child` / `--smoke`).
struct Flags(Vec<String>);

impl Flags {
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name} wants a number, got {v:?}")))
            .transpose()
    }
}

const USAGE: &str = "usage:
  hybrids-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  hybrids-benchmark run --seed <n> --out <file> [--seconds <s>] [--repeat <k>] [--smoke]
  hybrids-benchmark compare <A.json> <B.json>";

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else { return Err(USAGE.into()) };
        let any_worse = compare::compare(&load(a)?, &load(b)?);
        return Ok(if any_worse { ExitCode::FAILURE } else { ExitCode::SUCCESS });
    }
    let flags = Flags(args);
    let seed: u64 = flags.number("--seed")?.ok_or(USAGE)?;
    let smoke = flags.has("--smoke");

    if flags.has("--child") || flags.has("--workload") {
        let name = flags.value("--workload").ok_or(USAGE)?;
        let w = spec::workload(name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; the workloads are {}", names.join(", "))
        })?;
        let seconds = flags.number("--seconds")?.ok_or(USAGE)?;
        let traced = match flags.value("--trace") {
            Some("0") => false,
            Some("1") => true,
            _ => return Err(USAGE.into()),
        };
        let len = Length { seconds, smoke, traced };
        if flags.has("--child") {
            return Ok(child_main(w, seed, len));
        }
        pin();
        let pass = run_child(w, seed, len);
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        print_table(w, &pass, catalogue);
        if pass.metrics.is_empty() {
            // The child died: there is nothing measured to report.
            return Ok(ExitCode::FAILURE);
        }
        println!("{}", result_json(&pass, catalogue));
        return Ok(ExitCode::SUCCESS);
    }

    if flags.0.first().map(String::as_str) == Some("run") {
        let out = flags.value("--out").ok_or(USAGE)?;
        let seconds = flags.number("--seconds")?.unwrap_or(DEFAULT_SECONDS);
        let repeat = flags.number("--repeat")?.unwrap_or(1usize).max(1);
        let nproc = env::allowed_cpu_count();
        let pinned = pin();
        return Ok(run_all(seed, seconds, smoke, repeat, out, env::record(pinned, nproc)));
    }
    Err(USAGE.into())
}

/// Pin this process (children inherit the mask); warn if that fails.
fn pin() -> Option<usize> {
    let pinned = env::pin_to_first_cpu();
    if pinned.is_none() {
        eprintln!(
            "warning: sched_setaffinity failed; running unpinned (\"pinned\": false) — \
             run-to-run spread is several times wider and the bounds may not hold"
        );
    }
    pinned
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
