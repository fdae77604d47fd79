//! `compare A.json B.json`: one row per (workload, end-to-end metric) of
//! two result files written by `run`, with a verdict against the metric's
//! regression bound.

use serde::Value;

use crate::spec::{Better, MetricDef, Runs, END_TO_END, WORKLOADS};
use crate::stats::median;

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Worse by more than the bound, but a side's own run-to-run spread
    /// is wider than the bound: not resolvable from these runs.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Whether `metric` repeats exactly on `runs` for a given seed (simulated
/// results do; anything timed on the host does not).
pub fn is_exact(metric: &str, runs: Runs) -> bool {
    matches!(runs, Runs::Sim(_))
        && matches!(metric, "throughput_ops_per_s" | "latency_p50_us" | "latency_p95_us")
}

/// Distance between the first and third quartile as a share of the
/// median (Python's `statistics.quantiles(values, n=4)`, exclusive
/// method); 0 with fewer than two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quantile(3) - quantile(1)).abs() / m.abs()
    }
}

/// Judge B against A on one metric.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let worse_by = match def.better {
        Better::Higher => (ma - mb) / ma.abs(),
        Better::Lower => (mb - ma) / ma.abs(),
    };
    let verdict = if ma == 0.0 || worse_by <= bound {
        Verdict::Ok
    } else if quartile_spread(a) > bound || quartile_spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    };
    (worse_by, verdict)
}

/// The entry of `workload` in a result file.
fn entry<'a>(file: &'a Value, workload: &str) -> Option<&'a Value> {
    let Value::Array(workloads) = file.field("workloads").ok()? else { return None };
    workloads.iter().find(|w| w.field("name").ok() == Some(&Value::Str(workload.into())))
}

fn values_of(file: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let metric = entry(file, workload)?.field("end_to_end").ok()?.field(metric).ok()?;
    let Value::Array(values) = metric.field("values").ok()? else { return None };
    values.iter().map(crate::number).collect()
}

/// Operations that failed the oracle in either pass.
fn failed_of(file: &Value, workload: &str) -> Option<u64> {
    let w = entry(file, workload)?;
    match (w.field("failed").ok()?, w.field("traced").ok()?.field("failed").ok()?) {
        (Value::UInt(a), Value::UInt(b)) => Some(a + b),
        _ => None,
    }
}

/// Print the comparison; returns whether any row is `worse` (or a run
/// failed its oracle).
pub fn compare(a: &Value, b: &Value) -> bool {
    let same_seed = a.field("seed").ok() == b.field("seed").ok()
        && a.field("seconds").ok() == b.field("seconds").ok()
        && a.field("smoke").ok() == b.field("smoke").ok();
    if !same_seed {
        println!("note: seed / length differ between the files, so exact metrics are compared by bound only");
    }
    println!(
        "{:<22} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound"
    );
    let mut any_worse = false;
    for w in WORKLOADS {
        for def in END_TO_END {
            let (Some(va), Some(vb)) =
                (values_of(a, w.name, def.name), values_of(b, w.name, def.name))
            else {
                println!("{:<22} {:<22} missing from a file", w.name, def.name);
                any_worse = true;
                continue;
            };
            let (worse_by, verdict) = judge(def, &va, &vb);
            let (ma, mb) = (median(&va), median(&vb));
            let exact = same_seed && is_exact(def.name, w.runs);
            let remark = match (exact, ma == mb) {
                (true, true) => " (exact: identical)",
                (true, false) => " (exact: CHANGED)",
                _ => "",
            };
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<22} {:<22} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}%  {}{}",
                w.name,
                def.name,
                ma,
                mb,
                worse_by * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.label(),
                remark
            );
        }
        for (side, file) in [("A", a), ("B", b)] {
            match failed_of(file, w.name) {
                Some(0) => {}
                Some(n) => {
                    println!("{:<22} {side}: {n} operations FAILED the oracle", w.name);
                    any_worse = true;
                }
                None => {
                    println!("{:<22} {side}: no failure count in the file", w.name);
                    any_worse = true;
                }
            }
        }
    }
    any_worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef { name: "m", unit: "u", better, bound: Some(bound), what: "" }
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 30.0 / 20.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let higher = def(Better::Higher, 0.05);
        assert_eq!(judge(&higher, &[100.0], &[96.0]).1, Verdict::Ok);
        assert_eq!(judge(&higher, &[100.0], &[94.0]).1, Verdict::Worse);
        assert_eq!(judge(&higher, &[100.0], &[150.0]).1, Verdict::Ok);
        let lower = def(Better::Lower, 0.10);
        assert_eq!(judge(&lower, &[10.0], &[10.9]).1, Verdict::Ok);
        assert_eq!(judge(&lower, &[10.0], &[11.5]).1, Verdict::Worse);
        assert_eq!(judge(&lower, &[10.0], &[5.0]).1, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_worse() {
        let lower = def(Better::Lower, 0.05);
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&lower, &noisy, &[12.0, 12.1, 11.9, 12.0, 12.0]).1, Verdict::Unresolved);
        let steady = [10.0, 10.1, 9.9, 10.0, 10.0];
        assert_eq!(judge(&lower, &steady, &[12.0, 12.1, 11.9, 12.0, 12.0]).1, Verdict::Worse);
    }

    #[test]
    fn only_simulated_results_are_exact() {
        use crate::serve::ServeKind;
        use crate::sim::SimKind;
        assert!(is_exact("throughput_ops_per_s", Runs::Sim(SimKind::BtreeSplits)));
        assert!(!is_exact("host_us_per_op", Runs::Sim(SimKind::BtreeSplits)));
        assert!(!is_exact("throughput_ops_per_s", Runs::Serve(ServeKind::Get)));
    }
}
