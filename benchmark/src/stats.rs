//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! "ten samples beyond" rule for the highest percentile a sample
//! supports, medians and quartile spread.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The candidates for "highest percentile", most extreme first, each with
/// the `k` of its "one sample in `k` lies beyond" tail.
const TAILS: [(f64, usize); 4] = [(0.9999, 10_000), (0.999, 1_000), (0.99, 100), (0.9, 10)];

/// The highest of p99.99 / p99.9 / p99 / p90 that has at least ten
/// samples beyond it in a sample of `n` (`None` under 100 samples: not
/// even p90 is supported).
pub fn highest_supported(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&(_, k)| n / k >= 10).map(|(q, _)| q)
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median wall time per iteration, in nanoseconds, over `batches` timed
/// batches of `iters` calls each — how every "wall" per-layer probe is
/// reported.
pub fn median_ns_per_iter(batches: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let per_iter: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_iter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.50), 50);
        assert_eq!(nearest_rank(&s, 0.99), 99);
        assert_eq!(nearest_rank(&s, 1.0), 100);
        assert_eq!(nearest_rank(&s, 0.0), 1);
        // Five samples: p50 is the third, p90 the fifth (ceil(4.5) = 5).
        let s = [10, 20, 30, 40, 50];
        assert_eq!(nearest_rank(&s, 0.5), 30);
        assert_eq!(nearest_rank(&s, 0.9), 50);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(99_999), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
