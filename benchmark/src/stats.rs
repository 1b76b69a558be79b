//! Order statistics used by every reported figure.

/// Median (mean of the two middle values for an even count). `NaN` for an
/// empty slice, which the result gate then refuses.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 100]: the smallest sample with at
/// least `p` % of the samples at or below it. With fewer than `100 / (100
/// - p)` samples this is the maximum.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a report may quote, most demanding first, in tenths of
/// a percent (whole numbers keep the rank arithmetic exact).
const QUOTABLE: [usize; 4] = [999, 990, 900, 500];

/// The highest quotable percentile that still has at least ten samples
/// beyond it — the tail figure a sample of this size supports. `None`
/// below twenty samples, where not even the median qualifies.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    QUOTABLE
        .into_iter()
        .find(|permille| samples >= (samples * permille).div_ceil(1000) + 10)
        .map(|permille| permille as f64 / 10.0)
}

/// First quartile, median, third quartile by the exclusive method — the
/// same cut points Python's `statistics.quantiles(values, n=4)` returns,
/// so `--compare` reports the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let cut = |k: usize| {
        // position k·(n+1)/4, 1-based; at the ends Python extrapolates
        // from the outermost pair, and so does this
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        // too few samples for a p99: it is the slowest one
        assert_eq!(percentile(&[5.0, 9.0, 7.0], 99.0), 9.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        // 200 closes × 5 reps: p99 leaves exactly ten beyond it
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
    }
}
