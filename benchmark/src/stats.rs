//! Order statistics over timing samples.

/// Sorted copy of `samples` (total order, so NaNs cannot panic).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for even counts).
///
/// # Panics
/// Panics on an empty slice: every caller takes at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it (`q` in `0.0..=1.0`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "percentile of no samples");
    v[nearest_rank(v.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n >= 1` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// The highest of p99.9 / p99 / p90 that still has at least ten samples
/// beyond it, or `None` below 100 samples — the rule a tail percentile
/// must meet before it is worth reporting.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the driver uses.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    assert!(v.len() >= 2, "quartiles need two samples");
    let m = v.len() + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the driver holds against each metric's bound.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(iqr_share(&v), 1.0);
    }
}
