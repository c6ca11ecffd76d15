//! Shared `ln n!` machinery behind every sampling kernel.
//!
//! All the rejection samplers and inverse-transform walks of the workspace
//! (BTRS and PTRS here, the hypergeometric kernels of `lv-protocols`) price
//! pmf values through `ln n!`. The hot loops resolve it in two tiers: a
//! process-wide lookup table for small arguments and a Stirling series —
//! one `ln` call per evaluation — beyond.

use std::sync::OnceLock;

/// Arguments below this bound resolve `ln n!` by table lookup — sized so
/// every `Θ(√n)`-scale argument of an epoch (batch lengths up to `2ℓ`) hits
/// the table even at `n = 10⁷`, leaving only the `O(1)` population-sized
/// arguments to the Stirling series.
pub(crate) const LN_FACTORIAL_TABLE: usize = 8192;

/// `½·ln(2π)`, the constant term of the Stirling series.
const HALF_LN_TAU: f64 = 0.918_938_533_204_672_7;

/// The process-wide `ln n!` table. Samplers fetch it **once per call** and
/// thread the slice through [`ln_factorial_from`] — `get_or_init` costs an
/// atomic load, and a single hypergeometric draw evaluates `ln n!` up to a
/// dozen times.
pub fn ln_factorial_table() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = vec![0.0f64; LN_FACTORIAL_TABLE];
        for i in 2..LN_FACTORIAL_TABLE {
            table[i] = table[i - 1] + (i as f64).ln();
        }
        table
    })
}

/// Stirling series for `ln x!` (relative error `< 1e-12` for `x ≥ 8192`),
/// arranged around a single `ln` call:
/// `(x + ½)·ln x − x + ½·ln 2π + 1/12x − 1/360x³ + 1/1260x⁵`.
pub(crate) fn ln_factorial_stirling(x: f64) -> f64 {
    let inv = 1.0 / x;
    let inv3 = inv * inv * inv;
    (x + 0.5) * x.ln() - x + HALF_LN_TAU + inv / 12.0 - inv3 / 360.0 + inv3 * inv * inv / 1260.0
}

/// `ln n!` against an already-fetched [`ln_factorial_table`] slice — the
/// hot-loop form.
#[inline]
pub fn ln_factorial_from(table: &[f64], n: u64) -> f64 {
    if let Some(&value) = table.get(n as usize) {
        value
    } else {
        ln_factorial_stirling(n as f64)
    }
}

/// Natural log of `n!`: table lookup for `n < 8192`, Stirling series (error
/// `< 1e-12` relative) beyond.
pub fn ln_factorial(n: u64) -> f64 {
    ln_factorial_from(ln_factorial_table(), n)
}

/// `ln C(n, k)` via [`ln_factorial`].
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    debug_assert!(k <= n);
    let t = ln_factorial_table();
    ln_factorial_from(t, n) - ln_factorial_from(t, k) - ln_factorial_from(t, n - k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_matches_direct_summation() {
        for n in [0u64, 1, 2, 10, 32, 33, 100, 10_000] {
            let direct: f64 = (2..=n).map(|i| (i as f64).ln()).sum();
            let approx = ln_factorial(n);
            assert!(
                (approx - direct).abs() <= 1e-9 * direct.max(1.0),
                "ln {n}! = {approx}, direct {direct}"
            );
        }
    }

    #[test]
    fn stirling_agrees_with_the_table_at_the_boundary() {
        // The series must hand over smoothly where the table ends.
        let at_boundary = ln_factorial(LN_FACTORIAL_TABLE as u64 - 1);
        let by_series = ln_factorial_stirling((LN_FACTORIAL_TABLE - 1) as f64);
        assert!(
            (at_boundary - by_series).abs() < 1e-9 * at_boundary,
            "table {at_boundary} vs series {by_series}"
        );
    }
}
