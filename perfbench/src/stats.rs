//! Order statistics for the reported metrics.

/// The value at quantile `q` of an ascending slice (nearest rank); 0 when
/// empty.
pub fn pick(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)] as f64
}

fn rank(len: usize, q: f64) -> usize {
    ((len - 1) as f64 * q).round() as usize
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), q)]
}
