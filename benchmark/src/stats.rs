//! Order statistics used everywhere a list of samples becomes one number.
//!
//! `quartiles` follows Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the statistic the driver
//! applies to ten runs of this benchmark.

/// Sorted copy with NaNs dropped.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were dropped"));
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty list.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them: position `i·(n+1)/4` in the sorted list, interpolated linearly
/// and clamped to the ends. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Middle-half spread as a share of the median: `(q3 − q1) / median`.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` and the number of samples
/// strictly beyond it, from an already sorted slice.
pub fn percentile_sorted(v: &[u32], p: f64) -> (u32, usize) {
    if v.is_empty() {
        return (0, 0);
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    (v[idx], v.len() - 1 - idx)
}

/// `(min, max)` of a list; zeros when empty.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    (v.first().copied().unwrap_or(0.0), v.last().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[f64::NAN, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_reports_samples_beyond() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), (500, 500));
        assert_eq!(percentile_sorted(&v, 99.0), (990, 10));
        assert_eq!(percentile_sorted(&v, 100.0), (1000, 0));
        assert_eq!(percentile_sorted(&[], 99.0), (0, 0));
    }
}
