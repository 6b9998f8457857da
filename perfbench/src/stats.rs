//! Order statistics for the benchmark's reports: medians, nearest-rank
//! percentiles, and the rule for how high a percentile a sample supports.

/// Percentiles the reports may quote, lowest first.
pub const PERCENTILES: [f64; 5] = [0.50, 0.90, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile before the sample supports
/// quoting it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `p`-quantile in a sorted sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding of `p` (0.9999 * 1e5 is not
    // exactly 99990) from bumping the rank up by one.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank `p`-quantile (`0 < p <= 1`) of `sorted`, which must be
/// sorted ascending. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p)])
}

/// Nearest-rank `p`-quantile of an unsorted sample; `None` when empty.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, p)
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The tracing overhead: median of the traced values minus median of
/// the untraced ones, or 0 when either side is empty.
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    match (median(traced), median(untraced)) {
        (Some(t), Some(u)) => t - u,
        _ => 0.0,
    }
}

/// `num / den`, or 0 when nothing moved.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Samples strictly above the nearest-rank `p`-quantile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it in a sample of `n`, or `None` when even the median is not
/// supported.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of an unsorted sample: the middle value, or the mean of the
/// two middle values of an even-sized sample. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Sort ascending (samples are finite; NaN would sort last).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 1.0), Some(3.0));
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.5), 50);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
        // Every supported percentile really has ten samples beyond it.
        for n in [20usize, 150, 1000, 4321, 99_999] {
            let p = highest_supported(n).expect("supported");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }
}
