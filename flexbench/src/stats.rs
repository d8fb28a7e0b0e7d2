//! Summary statistics for timing samples.

/// The median of `values` (the mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`q` in `[0, 1]`) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual reporting percentiles that has at least ten
/// samples above it among `n` samples, or `None` when even the median
/// lacks them.
pub fn highest_backed_percentile(n: usize) -> Option<f64> {
    [999u32, 990, 950, 900, 500]
        .into_iter()
        .find(|&permille| n * (1000 - permille as usize) >= 10_000)
        .map(|permille| f64::from(permille) / 10.0)
}

/// The geometric mean of positive `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 99.0);
        assert_eq!(quantile(&hundred, 0.5), 50.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(highest_backed_percentile(15), None);
        assert_eq!(highest_backed_percentile(20), Some(50.0));
        assert_eq!(highest_backed_percentile(1000), Some(99.0));
        assert_eq!(highest_backed_percentile(10_000), Some(99.9));
    }
}
