//! Order statistics for timing samples.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `xs`; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile with the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this benchmark reports match the ones anyone
/// computes from its outputs.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile of an already sorted slice (`p` in 0..=100).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles this benchmark reports, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples strictly above its rank, as `(percentile, value, beyond)`.
/// `None` when even the median has fewer than ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        (beyond >= 10).then(|| (p, v[rank - 1], beyond))
    })
}

/// One line describing timing samples: count, median, quartiles and the
/// highest percentile with at least ten samples beyond it, each value
/// multiplied by `scale` and labelled with `unit`.
pub fn summary(xs: &[f64], scale: f64, unit: &str) -> String {
    if xs.is_empty() {
        return "n=0".to_string();
    }
    let mut out = format!("n={} median={:.4}{unit}", xs.len(), median(xs) * scale);
    if xs.len() >= 2 {
        let [q1, _, q3] = quartiles(xs);
        out += &format!(" q1={:.4}{unit} q3={:.4}{unit}", q1 * scale, q3 * scale);
    }
    if let Some((p, v, beyond)) = tail(xs) {
        out += &format!(" p{p}={:.4}{unit} ({beyond} beyond)", v * scale);
    }
    out
}
