//! Hypergeometric sampling: constant-expected-time rejection (HRUA) with a
//! reusable prepared-sampler API.
//!
//! The batched epoch of [`crate::CountedSimulation`] is a chain of
//! hypergeometric draws, so this file carries the hot path of the whole
//! batched execution mode. A draw dispatches over four kernels after the
//! complement/colour symmetry reductions:
//!
//! * **Constant** — degenerate urns (no draws, no successes, no failures);
//! * **Sequential** — at most [`SEQUENTIAL_MAX_DRAWS`] draws: exact integer
//!   without-replacement draws;
//! * **Walk** — small-variance urns: inverse transform outward from the
//!   mode, `O(sd)` pmf terms expected;
//! * **HRUA** — everything else: Stadlober's ratio-of-uniforms rejection
//!   sampler (the H2PE-family algorithm used by numpy), whose expected
//!   number of iterations is a constant `≈ 1.33` *independent of the urn* —
//!   this is what makes the epoch cost `O(1)` per draw instead of
//!   `O(√draws)`.
//!
//! [`HypergeometricSampler`] performs the reduction and all setup (mode,
//! ln-pmf at the mode, hat and squeeze constants) once and can then be
//! sampled repeatedly; [`CachedHypergeometric`] revalidates a prepared
//! sampler against the current urn parameters so epoch loops pay setup only
//! when the counts actually changed.

use lv_crn::distributions::{
    leak_to_support_end, ln_factorial_from as lf, ln_factorial_table as table,
};
use rand::Rng;

/// Draw counts at or below this bound use exact sequential integer draws —
/// cheaper than any setup at this size.
pub(crate) const SEQUENTIAL_MAX_DRAWS: u64 = 16;

/// Urn variance at or below this bound uses the inverse-transform walk: the
/// expected number of pmf terms is `O(sd) ≤ 4`, below HRUA's fixed
/// per-iteration cost.
pub(crate) const WALK_MAX_VARIANCE: f64 = 16.0;

/// HRUA hat-width constant `√(8/e)`.
const HRUA_D1: f64 = 1.715_527_769_921_413_5;

/// HRUA hat-offset constant `3 − 2·√(3/e)`.
const HRUA_D2: f64 = 0.898_916_162_058_898_8;

/// Probabilities below this are treated as fully underflowed by the walk
/// kernels: a tail frontier this small can never be reached by an `f64`
/// uniform draw.
const WALK_UNDERFLOW: f64 = 1e-300;

/// Exact sequential without-replacement draws (integer arithmetic only).
fn sample_sequential<R: Rng + ?Sized>(
    rng: &mut R,
    mut successes: u64,
    mut total: u64,
    draws: u64,
) -> u64 {
    let mut hits = 0;
    for _ in 0..draws {
        if rng.gen_range(0..total) < successes {
            hits += 1;
            successes -= 1;
            if successes == 0 {
                break;
            }
        }
        total -= 1;
    }
    hits
}

/// Cached setup of the inverse-transform walk from the mode (reduced
/// parameter space: `successes ≤ failures`, `2·draws ≤ total`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct WalkSetup {
    successes: u64,
    failures: u64,
    draws: u64,
    min_k: u64,
    max_k: u64,
    mode: u64,
    p_mode: f64,
}

impl WalkSetup {
    fn new(successes: u64, failures: u64, draws: u64) -> WalkSetup {
        let t = table();
        let total = successes + failures;
        let min_k = draws.saturating_sub(failures);
        let max_k = draws.min(successes);
        let mode =
            ((((draws + 1) as f64) * ((successes + 1) as f64)) / ((total + 2) as f64)) as u64;
        let mode = mode.clamp(min_k, max_k);
        // ln pmf(mode) = ln C(s, m) + ln C(f, d−m) − ln C(s+f, d).
        let ln_p_mode = lf(t, successes) - lf(t, mode) - lf(t, successes - mode) + lf(t, failures)
            - lf(t, draws - mode)
            - lf(t, failures - (draws - mode))
            - (lf(t, total) - lf(t, draws) - lf(t, total - draws));
        WalkSetup {
            successes,
            failures,
            draws,
            min_k,
            max_k,
            mode,
            p_mode: ln_p_mode.exp(),
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.invert(rng.gen())
    }

    /// Inverse transform of the uniform `u`, accumulating pmf mass outward
    /// from the mode so the expected number of terms visited is `O(sd)`.
    fn invert(&self, u: f64) -> u64 {
        let mut acc = self.p_mode;
        if u < acc {
            return self.mode;
        }
        let (sf, ff, df) = (
            self.successes as f64,
            self.failures as f64,
            self.draws as f64,
        );
        let (mut lo, mut hi) = (self.mode, self.mode);
        let (mut p_lo, mut p_hi) = (self.p_mode, self.p_mode);
        loop {
            let up = hi < self.max_k && p_hi >= WALK_UNDERFLOW;
            let down = lo > self.min_k && p_lo >= WALK_UNDERFLOW;
            if !up && !down {
                // Support exhausted (or both tails underflowed) with `u` in
                // the float-leakage residual `1 − acc`.
                return leak_to_support_end(lo, hi, self.min_k, self.max_k, p_lo, p_hi);
            }
            if up {
                let k = hi as f64;
                p_hi *= (sf - k) * (df - k) / ((k + 1.0) * (ff - df + k + 1.0));
                hi += 1;
                acc += p_hi;
                if u < acc {
                    return hi;
                }
            }
            if down {
                let k = lo as f64;
                p_lo *= k * (ff - df + k) / ((sf - k + 1.0) * (df - k + 1.0));
                lo -= 1;
                acc += p_lo;
                if u < acc {
                    return lo;
                }
            }
        }
    }
}

/// Cached setup of the HRUA ratio-of-uniforms rejection sampler (reduced
/// parameter space: `successes ≤ failures`, `2·draws ≤ total`). Field names
/// follow Stadlober's derivation as used by numpy.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HruaSetup {
    successes: u64,
    failures: u64,
    draws: u64,
    /// Hat center `d·(s/pop) + ½`.
    d6: f64,
    /// Hat half-width `D1·sd + D2`.
    d8: f64,
    /// `ln n!`-weight of the pmf at the mode (the acceptance reference).
    d10: f64,
    /// Support cutoff `min(min(d, s) + 1, ⌊d6 + 16·d7⌋)`.
    d11: f64,
}

impl HruaSetup {
    fn new(successes: u64, failures: u64, draws: u64) -> HruaSetup {
        let t = table();
        let pop = successes + failures;
        let d4 = successes as f64 / pop as f64;
        let d5 = 1.0 - d4;
        let df = draws as f64;
        let d6 = df * d4 + 0.5;
        let d7 = (((pop - draws) as f64) * df * d4 * d5 / ((pop - 1) as f64) + 0.5).sqrt();
        let d8 = HRUA_D1 * d7 + HRUA_D2;
        let d9 = ((draws + 1) as f64 * (successes + 1) as f64 / (pop + 2) as f64) as u64;
        let d10 =
            lf(t, d9) + lf(t, successes - d9) + lf(t, draws - d9) + lf(t, failures - draws + d9);
        let d11 = ((draws.min(successes) + 1) as f64).min((d6 + 16.0 * d7).floor());
        HruaSetup {
            successes,
            failures,
            draws,
            d6,
            d8,
            d10,
            d11,
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let t = table();
        loop {
            let x: f64 = rng.gen();
            let y: f64 = rng.gen();
            let w = self.d6 + self.d8 * (y - 0.5) / x;
            // Also rejects the NaN/∞ that `x == 0` produces.
            if !(w >= 0.0 && w < self.d11) {
                continue;
            }
            let z = w as u64;
            let reference = self.d10
                - (lf(t, z)
                    + lf(t, self.successes - z)
                    + lf(t, self.draws - z)
                    + lf(t, self.failures - self.draws + z));
            // Squeeze acceptance: skips both `ln` calls on most iterations.
            if x * (4.0 - x) - 3.0 <= reference {
                return z;
            }
            // Squeeze rejection.
            if x * (x - reference) >= 1.0 {
                continue;
            }
            // Exact acceptance.
            if 2.0 * x.ln() <= reference {
                return z;
            }
        }
    }
}

/// The post-reduction sampling kernel of a [`HypergeometricSampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    /// Degenerate urn: the reduced draw is this constant (consumes no
    /// randomness).
    Constant(u64),
    /// Exact sequential integer draws for tiny draw counts.
    Sequential {
        successes: u64,
        total: u64,
        draws: u64,
    },
    /// Inverse-transform walk for small-variance urns.
    Walk(WalkSetup),
    /// Ratio-of-uniforms rejection, constant expected iterations.
    Hrua(HruaSetup),
}

/// A prepared hypergeometric sampler: all setup — symmetry reduction, mode,
/// ln-pmf at the mode, hat/squeeze constants — is paid once in
/// [`HypergeometricSampler::new`], after which every
/// [`sample`](HypergeometricSampler::sample) runs in constant expected time.
///
/// Equal in distribution (and, at equal seeds, bit-equal in RNG stream) to
/// the one-shot [`sample_hypergeometric`], which simply delegates here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypergeometricSampler {
    successes: u64,
    failures: u64,
    draws: u64,
    /// Affine map from the reduced draw back to the original support:
    /// `k = offset + sign·k_reduced` (composition of the complement and
    /// colour symmetries applied during setup).
    offset: i64,
    sign: i64,
    kernel: Kernel,
}

impl HypergeometricSampler {
    /// Prepares a sampler for the number of successes when drawing `draws`
    /// items without replacement from an urn of `successes + failures`.
    ///
    /// # Panics
    ///
    /// Panics if `draws > successes + failures`.
    pub fn new(successes: u64, failures: u64, draws: u64) -> Self {
        let total = successes + failures;
        assert!(
            draws <= total,
            "cannot draw {draws} items from an urn of {total}"
        );
        let mut offset = 0i64;
        let mut sign = 1i64;
        let (mut s, mut f, mut d) = (successes, failures, draws);
        let kernel = loop {
            if d == 0 || s == 0 {
                break Kernel::Constant(0);
            }
            if f == 0 {
                break Kernel::Constant(d);
            }
            let tot = s + f;
            // Complement symmetry: the successes drawn and the successes
            // left behind partition `s`, so sampling the smaller "sample"
            // side is equivalent.
            if 2 * d > tot {
                offset += sign * s as i64;
                sign = -sign;
                d = tot - d;
                continue;
            }
            // Colour symmetry: count the rarer colour so the support stays
            // short.
            if s > f {
                offset += sign * d as i64;
                sign = -sign;
                std::mem::swap(&mut s, &mut f);
                continue;
            }
            if d <= SEQUENTIAL_MAX_DRAWS {
                break Kernel::Sequential {
                    successes: s,
                    total: tot,
                    draws: d,
                };
            }
            let totf = tot as f64;
            let variance = d as f64
                * (s as f64 / totf)
                * (f as f64 / totf)
                * ((tot - d) as f64 / (totf - 1.0));
            if variance <= WALK_MAX_VARIANCE {
                break Kernel::Walk(WalkSetup::new(s, f, d));
            }
            break Kernel::Hrua(HruaSetup::new(s, f, d));
        };
        HypergeometricSampler {
            successes,
            failures,
            draws,
            offset,
            sign,
            kernel,
        }
    }

    /// The urn parameters `(successes, failures, draws)` this sampler was
    /// prepared for.
    pub fn parameters(&self) -> (u64, u64, u64) {
        (self.successes, self.failures, self.draws)
    }

    /// Whether this sampler was prepared for exactly these urn parameters.
    #[inline]
    pub fn matches(&self, successes: u64, failures: u64, draws: u64) -> bool {
        self.successes == successes && self.failures == failures && self.draws == draws
    }

    /// Draws one sample. Constant expected time; degenerate urns consume no
    /// randomness.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let reduced = match &self.kernel {
            Kernel::Constant(value) => *value,
            Kernel::Sequential {
                successes,
                total,
                draws,
            } => sample_sequential(rng, *successes, *total, *draws),
            Kernel::Walk(setup) => setup.sample(rng),
            Kernel::Hrua(setup) => setup.sample(rng),
        };
        (self.offset + self.sign * reduced as i64) as u64
    }
}

/// A [`HypergeometricSampler`] slot keyed on its urn parameters: `sample`
/// reuses the prepared setup whenever the parameters repeat and rebuilds it
/// (storing the new setup) when they changed. This is the scratch-state form
/// [`crate::CountedSimulation::step_epoch`] holds per draw site, so a
/// slowly-changing population pays sampler setup only when its counts
/// actually moved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CachedHypergeometric {
    prepared: Option<HypergeometricSampler>,
}

impl CachedHypergeometric {
    /// An empty slot (first use always prepares).
    pub fn new() -> Self {
        CachedHypergeometric::default()
    }

    /// Samples for the given urn, reusing the prepared setup on parameter
    /// hits. Identical in RNG stream to [`sample_hypergeometric`].
    ///
    /// # Panics
    ///
    /// Panics if `draws > successes + failures`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        successes: u64,
        failures: u64,
        draws: u64,
    ) -> u64 {
        match &self.prepared {
            Some(sampler) if sampler.matches(successes, failures, draws) => sampler.sample(rng),
            _ => {
                let sampler = HypergeometricSampler::new(successes, failures, draws);
                let value = sampler.sample(rng);
                self.prepared = Some(sampler);
                value
            }
        }
    }
}

/// Samples the number of successes when drawing `draws` items without
/// replacement from an urn of `successes + failures` items, in constant
/// expected time (one-shot convenience over [`HypergeometricSampler`];
/// repeated draws from the same urn should prepare the sampler once).
///
/// # Panics
///
/// Panics if `draws > successes + failures`.
pub fn sample_hypergeometric<R: Rng + ?Sized>(
    rng: &mut R,
    successes: u64,
    failures: u64,
    draws: u64,
) -> u64 {
    HypergeometricSampler::new(successes, failures, draws).sample(rng)
}

/// The pre-HRUA reference sampler: symmetry reductions, then exact
/// sequential draws for tiny draw counts and the inverse-transform walk —
/// `O(sd)` pmf terms — for everything else. Retained for χ² cross-checks of
/// the rejection kernel and for the old-vs-new `sampling_kernels`
/// microbenches; new code should use [`sample_hypergeometric`].
///
/// # Panics
///
/// Panics if `draws > successes + failures`.
pub fn sample_hypergeometric_by_inversion<R: Rng + ?Sized>(
    rng: &mut R,
    successes: u64,
    failures: u64,
    draws: u64,
) -> u64 {
    let total = successes + failures;
    assert!(
        draws <= total,
        "cannot draw {draws} items from an urn of {total}"
    );
    if draws == 0 || successes == 0 {
        return 0;
    }
    if failures == 0 {
        return draws;
    }
    if 2 * draws > total {
        return successes
            - sample_hypergeometric_by_inversion(rng, successes, failures, total - draws);
    }
    if successes > failures {
        return draws - sample_hypergeometric_by_inversion(rng, failures, successes, draws);
    }
    if draws <= SEQUENTIAL_MAX_DRAWS {
        return sample_sequential(rng, successes, total, draws);
    }
    WalkSetup::new(successes, failures, draws).sample(rng)
}

/// Splits a without-replacement sample of `draws` items across the urn
/// described by `counts`, writing the per-category sample sizes into `out`
/// (a chain of univariate hypergeometric draws).
///
/// # Panics
///
/// Panics if `out.len() != counts.len()` or `draws` exceeds the urn size.
pub fn sample_counts_without_replacement<R: Rng + ?Sized>(
    rng: &mut R,
    counts: &[u64],
    draws: u64,
    out: &mut [u64],
) {
    assert_eq!(counts.len(), out.len(), "mismatched category counts");
    let mut remaining_total: u64 = counts.iter().sum();
    assert!(
        draws <= remaining_total,
        "cannot draw {draws} items from an urn of {remaining_total}"
    );
    let mut remaining_draws = draws;
    for (slot, &category) in out.iter_mut().zip(counts) {
        if remaining_draws == 0 {
            *slot = 0;
            continue;
        }
        let take =
            sample_hypergeometric(rng, category, remaining_total - category, remaining_draws);
        *slot = take;
        remaining_draws -= take;
        remaining_total -= category;
    }
    debug_assert_eq!(remaining_draws, 0);
}

/// [`sample_counts_without_replacement`] with one [`CachedHypergeometric`]
/// slot per category: each link of the chain reuses its prepared sampler
/// when the urn it sees is unchanged since the previous call. Identical in
/// RNG stream to the uncached version at equal seeds.
///
/// # Panics
///
/// Panics if `out.len() != counts.len()`, `slots.len() != counts.len()`, or
/// `draws` exceeds the urn size.
pub fn sample_counts_without_replacement_cached<R: Rng + ?Sized>(
    rng: &mut R,
    counts: &[u64],
    draws: u64,
    out: &mut [u64],
    slots: &mut [CachedHypergeometric],
) {
    assert_eq!(counts.len(), out.len(), "mismatched category counts");
    assert_eq!(counts.len(), slots.len(), "one cache slot per category");
    let mut remaining_total: u64 = counts.iter().sum();
    assert!(
        draws <= remaining_total,
        "cannot draw {draws} items from an urn of {remaining_total}"
    );
    let mut remaining_draws = draws;
    for ((slot, &category), cache) in out.iter_mut().zip(counts).zip(slots.iter_mut()) {
        if remaining_draws == 0 {
            *slot = 0;
            continue;
        }
        let take = cache.sample(rng, category, remaining_total - category, remaining_draws);
        *slot = take;
        remaining_draws -= take;
        remaining_total -= category;
    }
    debug_assert_eq!(remaining_draws, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_crn::distributions::ln_factorial;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ln_choose(n: u64, k: u64) -> f64 {
        ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn hypergeometric_respects_support() {
        let mut r = rng(1);
        for (s, f, d) in [(5u64, 95, 50), (60, 40, 70), (3, 3, 6), (1000, 1000, 900)] {
            for _ in 0..200 {
                let k = sample_hypergeometric(&mut r, s, f, d);
                assert!(k <= d.min(s), "k = {k} from ({s}, {f}, {d})");
                assert!(k >= d.saturating_sub(f), "k = {k} from ({s}, {f}, {d})");
            }
        }
    }

    #[test]
    fn hypergeometric_degenerate_cases() {
        let mut r = rng(2);
        assert_eq!(sample_hypergeometric(&mut r, 0, 10, 5), 0);
        assert_eq!(sample_hypergeometric(&mut r, 10, 0, 5), 5);
        assert_eq!(sample_hypergeometric(&mut r, 10, 10, 0), 0);
        assert_eq!(sample_hypergeometric(&mut r, 10, 10, 20), 10);
    }

    #[test]
    fn hypergeometric_moments_match_theory() {
        // Large enough that the HRUA path is exercised.
        let (s, f, d) = (400u64, 600u64, 250u64);
        let total = (s + f) as f64;
        let mean_theory = d as f64 * s as f64 / total;
        let var_theory = d as f64
            * (s as f64 / total)
            * (f as f64 / total)
            * ((total - d as f64) / (total - 1.0));
        let mut r = rng(3);
        let trials = 40_000;
        let samples: Vec<u64> = (0..trials)
            .map(|_| sample_hypergeometric(&mut r, s, f, d))
            .collect();
        let mean: f64 = samples.iter().map(|&k| k as f64).sum::<f64>() / trials as f64;
        let var: f64 = samples
            .iter()
            .map(|&k| (k as f64 - mean).powi(2))
            .sum::<f64>()
            / trials as f64;
        assert!(
            (mean - mean_theory).abs() < 0.1,
            "mean {mean} vs {mean_theory}"
        );
        assert!(
            (var - var_theory).abs() < 0.05 * var_theory.max(1.0),
            "var {var} vs {var_theory}"
        );
    }

    /// χ²-style check of the dispatching sampler against exact pmf values
    /// on a support small enough to enumerate.
    #[test]
    fn hypergeometric_distribution_matches_exact_pmf() {
        let (s, f, d) = (30u64, 70u64, 40u64);
        // Exact pmf by the multiplicative recurrence from k = 0 upward
        // (support is 0..=30 here).
        let mut pmf = vec![0.0f64; (d.min(s) + 1) as usize];
        pmf[0] = (ln_choose(f, d) - ln_choose(s + f, d)).exp();
        for k in 1..pmf.len() {
            let km1 = (k - 1) as f64;
            pmf[k] = pmf[k - 1] * (s as f64 - km1) * (d as f64 - km1)
                / (k as f64 * (f as f64 - d as f64 + km1 + 1.0));
        }
        let trials = 60_000u64;
        let mut observed = vec![0u64; pmf.len()];
        let mut r = rng(4);
        for _ in 0..trials {
            observed[sample_hypergeometric(&mut r, s, f, d) as usize] += 1;
        }
        let mut chi2 = 0.0;
        let mut dof = 0usize;
        for (k, &p) in pmf.iter().enumerate() {
            let expected = p * trials as f64;
            if expected >= 5.0 {
                chi2 += (observed[k] as f64 - expected).powi(2) / expected;
                dof += 1;
            }
        }
        // Generous bound: P(χ²_{dof} > 2·dof + 20) is far below 1e-3.
        assert!(
            chi2 < 2.0 * dof as f64 + 20.0,
            "χ² = {chi2} over {dof} cells"
        );
    }

    #[test]
    fn prepared_sampler_matches_one_shot_stream_bit_for_bit() {
        for (s, f, d) in [
            (30u64, 70, 40),
            (500, 500, 300),
            (5, 95, 50),
            (1000, 3, 900),
        ] {
            let sampler = HypergeometricSampler::new(s, f, d);
            assert!(sampler.matches(s, f, d));
            assert_eq!(sampler.parameters(), (s, f, d));
            let mut r1 = rng(77);
            let mut r2 = rng(77);
            for _ in 0..500 {
                assert_eq!(
                    sampler.sample(&mut r1),
                    sample_hypergeometric(&mut r2, s, f, d)
                );
            }
        }
    }

    #[test]
    fn cached_slot_revalidates_on_parameter_change() {
        let mut slot = CachedHypergeometric::new();
        let mut r1 = rng(5);
        let mut r2 = rng(5);
        // Alternate two urns through one slot: every draw must still match
        // the one-shot stream exactly.
        for i in 0..200u64 {
            let (s, f, d) = if i % 3 == 0 {
                (400u64, 600u64, 250u64)
            } else {
                (50u64, 50u64, 30u64)
            };
            assert_eq!(
                slot.sample(&mut r1, s, f, d),
                sample_hypergeometric(&mut r2, s, f, d)
            );
        }
    }

    #[test]
    fn multivariate_draw_partitions_the_sample() {
        let counts = [5u64, 0, 17, 40, 3];
        let mut out = [0u64; 5];
        let mut r = rng(5);
        for draws in [0u64, 1, 10, 65] {
            sample_counts_without_replacement(&mut r, &counts, draws, &mut out);
            assert_eq!(out.iter().sum::<u64>(), draws);
            for (o, c) in out.iter().zip(&counts) {
                assert!(o <= c, "drew {o} from a category of {c}");
            }
        }
    }

    #[test]
    fn cached_multivariate_draw_matches_uncached_stream() {
        let counts = [500u64, 300, 0, 200];
        let mut out_plain = [0u64; 4];
        let mut out_cached = [0u64; 4];
        let mut slots = [CachedHypergeometric::new(); 4];
        let mut r1 = rng(6);
        let mut r2 = rng(6);
        for draws in [0u64, 1, 17, 300, 900] {
            sample_counts_without_replacement(&mut r1, &counts, draws, &mut out_plain);
            sample_counts_without_replacement_cached(
                &mut r2,
                &counts,
                draws,
                &mut out_cached,
                &mut slots,
            );
            assert_eq!(out_plain, out_cached, "draws = {draws}");
        }
    }

    #[test]
    fn walk_leakage_goes_to_the_support_ends_not_the_mode() {
        // Force the leakage branch by inverting u = 1.0, which no
        // accumulated pmf sum can reach.
        let setup = WalkSetup::new(30, 70, 40);
        let leaked = setup.invert(1.0);
        assert!(
            leaked == setup.min_k || leaked == setup.max_k,
            "leak went to {leaked}, support [{}, {}], mode {}",
            setup.min_k,
            setup.max_k,
            setup.mode
        );
        assert_ne!(leaked, setup.mode, "tail mass moved to the center");
    }

    #[test]
    fn walk_leakage_residual_is_bounded() {
        // The walk's accumulated mass over the full support must leave a
        // residual far below any resolvable uniform (≲ 1e-12).
        let setup = WalkSetup::new(30, 70, 40);
        let mut acc = setup.p_mode;
        let (sf, ff, df) = (30f64, 70f64, 40f64);
        let (mut lo, mut hi) = (setup.mode, setup.mode);
        let (mut p_lo, mut p_hi) = (setup.p_mode, setup.p_mode);
        while hi < setup.max_k {
            let k = hi as f64;
            p_hi *= (sf - k) * (df - k) / ((k + 1.0) * (ff - df + k + 1.0));
            hi += 1;
            acc += p_hi;
        }
        while lo > setup.min_k {
            let k = lo as f64;
            p_lo *= k * (ff - df + k) / ((sf - k + 1.0) * (df - k + 1.0));
            lo -= 1;
            acc += p_lo;
        }
        assert!(
            (1.0 - acc).abs() < 1e-10,
            "walk leakage {} too large",
            1.0 - acc
        );
    }

    #[test]
    fn leak_attribution_prefers_open_tails() {
        // Fully enumerated support: heavier end wins.
        assert_eq!(leak_to_support_end(0, 30, 0, 30, 1e-20, 1e-18), 30);
        assert_eq!(leak_to_support_end(0, 30, 0, 30, 1e-18, 1e-20), 0);
        // One tail still open: the residual sits just past its frontier.
        assert_eq!(leak_to_support_end(3, 30, 0, 30, 1e-305, 1e-320), 2);
        assert_eq!(leak_to_support_end(0, 25, 0, 30, 1e-320, 1e-305), 26);
        // Both open: nearer (heavier) frontier.
        assert_eq!(leak_to_support_end(3, 25, 0, 30, 1e-310, 1e-305), 26);
        assert_eq!(leak_to_support_end(3, 25, 0, 30, 1e-305, 1e-310), 2);
    }

    #[test]
    fn inversion_reference_agrees_in_moments() {
        let (s, f, d) = (400u64, 600u64, 250u64);
        let mean_theory = d as f64 * s as f64 / (s + f) as f64;
        let mut r = rng(8);
        let trials = 40_000;
        let mean: f64 = (0..trials)
            .map(|_| sample_hypergeometric_by_inversion(&mut r, s, f, d) as f64)
            .sum::<f64>()
            / trials as f64;
        assert!((mean - mean_theory).abs() < 0.15, "mean {mean}");
    }
}
