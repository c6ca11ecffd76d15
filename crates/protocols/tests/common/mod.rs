//! Statistics helpers shared by the protocol law tests.

/// The Wilson score interval of `wins / trials` at normal quantile `z`.
pub fn wilson(wins: u64, trials: u64, z: f64) -> (f64, f64) {
    let n = trials as f64;
    let p = wins as f64 / n;
    let z2 = z * z;
    let denominator = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denominator;
    let half_width = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denominator;
    (center - half_width, center + half_width)
}

/// Two-sample Kolmogorov–Smirnov statistic `sup |F₁ − F₂|`; sorts both
/// samples in place.
pub fn ks_statistic(xs: &mut [u64], ys: &mut [u64]) -> f64 {
    xs.sort_unstable();
    ys.sort_unstable();
    let (m, n) = (xs.len(), ys.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < m && j < n {
        let t = xs[i].min(ys[j]);
        while i < m && xs[i] == t {
            i += 1;
        }
        while j < n && ys[j] == t {
            j += 1;
        }
        d = d.max((i as f64 / m as f64 - j as f64 / n as f64).abs());
    }
    d
}
