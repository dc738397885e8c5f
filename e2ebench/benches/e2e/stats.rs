//! Order statistics the benchmark reports.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p · n` samples at or below it — the convention of
/// `RunSummary::latency_percentile`. `NaN` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile whose nearest rank leaves at least `beyond` of
/// `n` samples above it, `(n − beyond) / n`; `None` with `n ≤ beyond`.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<f64> {
    (n > beyond).then(|| (n - beyond) as f64 / n as f64)
}

/// The three quartiles of `values`, by the method of Python's
/// `statistics.quantiles(values, n=4)` (linear interpolation between
/// ranks `i·(n+1)/4`). `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    Some([1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        // Negative when the clamp moved `j` up: Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
