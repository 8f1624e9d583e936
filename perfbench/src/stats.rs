//! Order statistics over timing samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`: the sample at sorted index `n - 11`, whose
/// percentile is `100 (n - 10) / n`. With ten samples or fewer no such
/// percentile exists and the maximum is reported at percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n <= 10 {
        return (100.0, v.last().copied().unwrap_or(0.0));
    }
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}
