//! Estimators: percentiles within a window, and the median over windows.

/// The `p`-th percentile (0 < p <= 100) of an ascending slice, by nearest
/// rank: the smallest element with at least `p` % of the sample at or
/// below it. Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). Panics on an empty slice.
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

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the driver's definition of spread.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale; like Python, the segment
        // is clamped into the sample but the offset is not (tiny samples
        // extrapolate).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// A metric over windows (or over runs): the median, the inter-quartile
/// distance as a share of the median, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub spread: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let m = median(values);
        let (q1, q3) = quartiles(values);
        Summary {
            median: m,
            spread: if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() },
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7u32], 99.0), 7);
        let v: Vec<u32> = (1..=1000).collect();
        // Ten samples lie beyond the 99th percentile of a thousand.
        assert_eq!(percentile(&v, 99.0), 990);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_windows_ignores_a_stalled_window() {
        let mut windows = vec![100.0; 9];
        windows.push(10.0); // one window hit by a host stall
        let s = Summary::of(&windows);
        assert_eq!((s.median, s.spread, s.n), (100.0, 0.0, 10));
        // Stalls in fewer than half of the windows do not move the figure.
        let mut windows = vec![100.0; 6];
        windows.extend([60.0; 4]);
        assert_eq!(Summary::of(&windows).median, 100.0);
    }
}
