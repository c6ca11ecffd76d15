//! The exact rejection kernels that price pmf values through `ln n!`: the
//! binomial (BTRS) and the shared `ln n!` table. They are public through
//! [`crate::distributions`]; the hypergeometric kernels of `lv-protocols`
//! build on the same table and the same walk-leakage rule.

pub(crate) mod binomial;
pub(crate) mod lnfact;

/// Attributes the float-leakage residual of an inverse-transform walk (the
/// event `u ≥ acc` after both frontiers stopped, probability `≲ 1e-12`) to
/// the nearest *unexhausted* support end — never back to the mode, so tail
/// mass is never silently moved to the center of the distribution.
///
/// `lo`/`hi` are the walk frontiers (already accumulated), `min_k`/`max_k`
/// the support ends, `p_lo`/`p_hi` the frontier pmf values. When a tail is
/// still open the residual belongs just past its frontier; when the support
/// was fully enumerated it belongs to the heavier end.
pub fn leak_to_support_end(lo: u64, hi: u64, min_k: u64, max_k: u64, p_lo: f64, p_hi: f64) -> u64 {
    match (lo > min_k, hi < max_k) {
        (false, false) => {
            if p_hi >= p_lo {
                max_k
            } else {
                min_k
            }
        }
        (true, false) => lo - 1,
        (false, true) => hi + 1,
        (true, true) => {
            if p_hi >= p_lo {
                hi + 1
            } else {
                lo - 1
            }
        }
    }
}
