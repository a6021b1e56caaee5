//! Order statistics over small sample sets.

/// The `rank`-th smallest value (1-based) of `values`.
pub fn nth_smallest(values: &[f64], rank: usize) -> f64 {
    assert!(rank >= 1 && rank <= values.len(), "rank {rank} outside 1..={}", values.len());
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank - 1]
}

/// 1-based rank of the median: the middle sample, the lower of the two
/// middle ones for an even count. 31 samples → the 16th.
pub fn p50_rank(n: usize) -> usize {
    n.div_ceil(2).max(1)
}

/// 1-based rank of the two-thirds point. With 31 samples this is the 21st
/// smallest, which leaves ten samples beyond it — the highest percentile
/// the choosing-metrics guide lets a 31-sample run report.
pub fn p67_rank(n: usize) -> usize {
    (2 * n).div_ceil(3).max(1)
}

/// The conventional median (mean of the two middle values for an even
/// count), as Python's `statistics.median` — used across runs, where the
/// driver uses it; within a run the median pass is the [`p50_rank`]-th.
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    (nth_smallest(values, n.div_ceil(2).max(1)) + nth_smallest(values, n / 2 + 1)) / 2.0
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the driver computes its spreads with that function, so
/// `selfcheck` must too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_one_samples_pick_the_16th_and_the_21st() {
        assert_eq!(p50_rank(31), 16);
        assert_eq!(p67_rank(31), 21);
        // Shuffled 1..=31: the rank is the value.
        let values: Vec<f64> = (0..31).map(|i| ((i * 7) % 31 + 1) as f64).collect();
        assert_eq!(nth_smallest(&values, p50_rank(31)), 16.0);
        assert_eq!(nth_smallest(&values, p67_rank(31)), 21.0);
        assert_eq!(31 - p67_rank(31), 10, "ten samples beyond the reported tail");
    }

    #[test]
    fn small_counts_stay_in_range() {
        for n in 1..40 {
            assert!((1..=n).contains(&p50_rank(n)));
            assert!((p50_rank(n)..=n).contains(&p67_rank(n)));
        }
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
    }
}
