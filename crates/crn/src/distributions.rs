//! The sampling kernels of the workspace.
//!
//! The workspace deliberately restricts third-party dependencies to a small
//! offline set; `rand_distr` is not among them, so the distributions the
//! simulators need are implemented here, each once: exponential waiting
//! times for Gillespie-style methods, Poisson event counts for tau-leaping
//! (PTRS), and the geometric, binomial (BTRS), gamma (Marsaglia–Tsang) and
//! negative binomial draws that let a simulator skip a run of events whose
//! law is known — the diffusion bridge and thinning windows of
//! `lv-protocols` and the competition runs of `lv-lotka`'s jump chain. Every
//! kernel is exact in law; the `ln n!` table behind the rejection samplers is
//! shared with the hypergeometric kernels of `lv-protocols`.

use crate::sampling::lnfact::ln_factorial_stirling;
use rand::Rng;

pub use crate::sampling::binomial::{
    sample_binomial, sample_binomial_by_inversion, BinomialSampler, CachedBinomial,
};
pub use crate::sampling::lnfact::ln_factorial;
// The hypergeometric kernels of `lv-protocols` share the `ln n!` table and
// the walk-leakage rule; they are implementation details, not API.
#[doc(hidden)]
pub use crate::sampling::leak_to_support_end;
#[doc(hidden)]
pub use crate::sampling::lnfact::{ln_factorial_from, ln_factorial_table};

/// Samples an exponential random variable with the given rate via inverse
/// transform sampling.
///
/// Returns `f64::INFINITY` when `rate <= 0`, mirroring the convention that a
/// reaction with zero propensity never fires.
///
/// # Panics
///
/// Panics if `rate` is NaN.
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = lv_crn::distributions::sample_exponential(&mut rng, 2.0);
/// assert!(x >= 0.0);
/// ```
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(!rate.is_nan(), "exponential rate must not be NaN");
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    // u ∈ (0, 1]: avoid ln(0).
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// Samples the number of *failures* before the first success of Bernoulli
/// trials with success probability `q`: the run of steps a simulator can
/// skip before the next one that matters. Exact inverse transform; `q ≥ 1`
/// returns 0 without a draw.
///
/// # Panics
///
/// Panics (in debug builds) if `q <= 0` while `q < 1`.
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert_eq!(lv_crn::distributions::sample_geometric(&mut rng, 1.0), 0);
/// ```
pub fn sample_geometric<R: Rng + ?Sized>(rng: &mut R, q: f64) -> u64 {
    if q >= 1.0 {
        return 0;
    }
    debug_assert!(q > 0.0, "the success probability must be positive");
    let u: f64 = rng.gen();
    // P(G ≥ g) = (1−q)^g, so G = ⌊ln(1−u)/ln(1−q)⌋.
    let g = (1.0 - u).ln() / (-q).ln_1p();
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64
    }
}

/// Means at or above this bound use the PTRS rejection sampler; below it
/// Knuth's product-of-uniforms loop is both exact and cheaper (its expected
/// iteration count is `mean + 1`).
const PTRS_MIN_MEAN: f64 = 10.0;

/// `ln k!` for the PTRS acceptance test: the shared table below 1024, the
/// Stirling series — one `ln` call, relative error `< 1e-12` — beyond. This
/// is the split the sampler was written with, so its draws stay the same.
fn ptrs_ln_factorial(k: u64) -> f64 {
    if k < 1024 {
        ln_factorial(k)
    } else {
        ln_factorial_stirling(k as f64)
    }
}

/// Samples a Poisson random variable with the given mean, exact in law at
/// **all** means: Knuth's product-of-uniforms method below mean 10 and the
/// PTRS transformed-rejection sampler (Hörmann) — constant expected
/// iterations, no normal approximation — above.
///
/// One-shot convenience over [`PoissonSampler`]; tau-leaping loops that draw
/// many counts at slowly-changing propensities should prepare the sampler
/// once per distinct mean.
///
/// # Panics
///
/// Panics if `mean` is negative or NaN.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    PoissonSampler::new(mean).sample(rng)
}

/// The per-mean kernel of a [`PoissonSampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum PoissonKernel {
    /// `mean == 0`: always zero, consumes no randomness.
    Zero,
    /// Knuth's product-of-uniforms loop with the cached threshold
    /// `e^{-mean}`.
    Knuth { threshold: f64 },
    /// Hörmann's PTRS transformed rejection (mean ≥ 10): constant expected
    /// iterations independent of the mean.
    Ptrs {
        mean: f64,
        log_mean: f64,
        /// Hat slope parameter.
        a: f64,
        /// Hat width parameter `0.931 + 2.53·√mean`.
        b: f64,
        /// Inverse hat normalization `1.1239 + 1.1328/(b − 3.4)`.
        inv_alpha: f64,
        /// Squeeze acceptance bound on `v`.
        v_r: f64,
    },
}

/// A prepared Poisson sampler: the kernel choice and its setup constants
/// (threshold for Knuth, hat/squeeze parameters for PTRS) are computed once
/// in [`PoissonSampler::new`], after which every
/// [`sample`](PoissonSampler::sample) runs in constant expected time for
/// means ≥ 10 and `O(mean)` below. Equal in distribution — and bit-equal in
/// RNG stream — to the one-shot [`sample_poisson`], which delegates here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonSampler {
    mean: f64,
    kernel: PoissonKernel,
}

impl PoissonSampler {
    /// Prepares a sampler for `Poisson(mean)`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or NaN.
    pub fn new(mean: f64) -> Self {
        assert!(mean >= 0.0, "Poisson mean must be non-negative");
        let kernel = if mean == 0.0 {
            PoissonKernel::Zero
        } else if mean < PTRS_MIN_MEAN {
            PoissonKernel::Knuth {
                threshold: (-mean).exp(),
            }
        } else {
            let b = 0.931 + 2.53 * mean.sqrt();
            PoissonKernel::Ptrs {
                mean,
                log_mean: mean.ln(),
                a: -0.059 + 0.02483 * b,
                b,
                inv_alpha: 1.1239 + 1.1328 / (b - 3.4),
                v_r: 0.9277 - 3.6224 / (b - 2.0),
            }
        };
        PoissonSampler { mean, kernel }
    }

    /// The mean this sampler was prepared for.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Whether this sampler was prepared for exactly this mean.
    #[inline]
    pub fn matches(&self, mean: f64) -> bool {
        self.mean == mean
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self.kernel {
            PoissonKernel::Zero => 0,
            PoissonKernel::Knuth { threshold } => {
                // Knuth: multiply uniforms until the product drops below
                // e^{-mean}.
                let mut count = 0u64;
                let mut product = 1.0;
                loop {
                    product *= rng.gen::<f64>();
                    if product <= threshold {
                        return count;
                    }
                    count += 1;
                }
            }
            PoissonKernel::Ptrs {
                mean,
                log_mean,
                a,
                b,
                inv_alpha,
                v_r,
            } => loop {
                let u: f64 = rng.gen::<f64>() - 0.5;
                let v: f64 = rng.gen();
                let us = 0.5 - u.abs();
                let kf = ((2.0 * a / us + b) * u + mean + 0.43).floor();
                // Squeeze acceptance: most iterations end here.
                if us >= 0.07 && v <= v_r {
                    return kf as u64;
                }
                if kf < 0.0 || (us < 0.013 && v > us) {
                    continue;
                }
                let k = kf as u64;
                if (v * inv_alpha / (a / (us * us) + b)).ln()
                    <= kf * log_mean - mean - ptrs_ln_factorial(k)
                {
                    return k;
                }
            },
        }
    }
}

/// Samples a `Gamma(shape, 1)` random variable, exact in law: the
/// Marsaglia–Tsang squeeze-and-reject method for `shape ≥ 1` (one normal and
/// one uniform per iteration, about 1.05 iterations at any shape), and for
/// `shape < 1` the boost `Gamma(shape + 1)·U^{1/shape}`.
///
/// # Panics
///
/// Panics if `shape` is not positive and finite.
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(
        shape > 0.0 && shape.is_finite(),
        "gamma shape must be positive and finite"
    );
    if shape < 1.0 {
        // u ∈ (0, 1] keeps the power finite and positive.
        let u: f64 = 1.0 - rng.gen::<f64>();
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen();
        let x2 = x * x;
        // Squeeze acceptance: most iterations end here, without a log.
        if u < 1.0 - 0.0331 * x2 * x2 {
            return d * v;
        }
        if u > 0.0 && u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Samples the number of *failures* before the `successes`-th success of
/// Bernoulli trials with success probability `q`: the negative binomial
/// `NegBin(successes, q)`, i.e. the sum of `successes` independent
/// [`sample_geometric`] draws, in constant expected time at any size. It
/// is drawn as a gamma–Poisson mixture, `Poisson(Gamma(successes)·(1−q)/q)`,
/// exact in law. `successes == 0` or `q ≥ 1` returns 0 without a draw.
///
/// # Panics
///
/// Panics if `q` is not positive (or is NaN).
pub fn sample_negative_binomial<R: Rng + ?Sized>(rng: &mut R, successes: u64, q: f64) -> u64 {
    assert!(q > 0.0, "the success probability must be positive");
    if successes == 0 || q >= 1.0 {
        return 0;
    }
    let rate = sample_gamma(rng, successes as f64) * ((1.0 - q) / q);
    sample_poisson(rng, rate)
}

/// Samples a standard normal random variable using the Box–Muller transform,
/// redrawing the rare `u₁ = 0` so that `ln u₁` is finite.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 > 0.0 {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Samples an index proportionally to the given non-negative weights.
///
/// Returns `None` if all weights are zero (or the slice is empty).
pub fn sample_weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let target = rng.gen::<f64>() * total;
    let mut acc = 0.0;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            acc += w;
            last_positive = Some(i);
            if target < acc {
                return Some(i);
            }
        }
    }
    last_positive
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = rng(11);
        let rate = 4.0;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut r, rate))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "empirical mean {mean} far from {}",
            1.0 / rate
        );
    }

    #[test]
    fn exponential_zero_rate_is_infinite() {
        let mut r = rng(1);
        assert!(sample_exponential(&mut r, 0.0).is_infinite());
        assert!(sample_exponential(&mut r, -1.0).is_infinite());
    }

    #[test]
    fn exponential_samples_are_non_negative() {
        let mut r = rng(2);
        for _ in 0..1000 {
            assert!(sample_exponential(&mut r, 0.5) >= 0.0);
        }
    }

    #[test]
    fn poisson_small_mean_matches_moments() {
        let mut r = rng(3);
        let mean = 3.5;
        let n = 20_000;
        let samples: Vec<u64> = (0..n).map(|_| sample_poisson(&mut r, mean)).collect();
        let m: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / n as f64;
        assert!((m - mean).abs() < 0.1, "mean {m}");
        assert!((var - mean).abs() < 0.25, "variance {var}");
    }

    #[test]
    fn poisson_large_mean_matches_moments_through_ptrs() {
        let mut r = rng(4);
        let mean = 400.0;
        let n = 5_000;
        let samples: Vec<u64> = (0..n).map(|_| sample_poisson(&mut r, mean)).collect();
        let m: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / n as f64;
        assert!((m - mean).abs() < 3.0, "mean {m}");
        assert!((var - mean).abs() < 0.1 * mean, "variance {var}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut r = rng(5);
        assert_eq!(sample_poisson(&mut r, 0.0), 0);
    }

    /// χ² of the sampler against the exact pmf at means straddling the
    /// Knuth → PTRS threshold (10), pinning both kernels to the same law.
    #[test]
    fn poisson_distribution_matches_exact_pmf_across_the_kernel_threshold() {
        for (seed, mean) in [(21u64, 8.0f64), (22, 10.0), (23, 12.0), (24, 40.0)] {
            let mut r = rng(seed);
            let trials = 60_000u64;
            let cap = (mean + 10.0 * mean.sqrt()) as usize + 2;
            let mut observed = vec![0u64; cap];
            for _ in 0..trials {
                let k = sample_poisson(&mut r, mean) as usize;
                if k < cap {
                    observed[k] += 1;
                }
            }
            // pmf by the recurrence p(k) = p(k−1)·mean/k from p(0) = e^{−mean}.
            let mut chi2 = 0.0;
            let mut dof = 0usize;
            let mut pmf = (-mean).exp();
            for (k, &count) in observed.iter().enumerate() {
                if k > 0 {
                    pmf *= mean / k as f64;
                }
                let expected = pmf * trials as f64;
                if expected >= 5.0 {
                    chi2 += (count as f64 - expected).powi(2) / expected;
                    dof += 1;
                }
            }
            assert!(
                chi2 < 2.0 * dof as f64 + 20.0,
                "mean {mean}: χ² = {chi2} over {dof} cells"
            );
        }
    }

    #[test]
    fn prepared_poisson_matches_one_shot_stream_bit_for_bit() {
        for mean in [0.0f64, 3.5, 9.9, 10.0, 400.0] {
            let sampler = PoissonSampler::new(mean);
            assert!(sampler.matches(mean));
            assert_eq!(sampler.mean(), mean);
            let mut r1 = rng(31);
            let mut r2 = rng(31);
            for _ in 0..500 {
                assert_eq!(sampler.sample(&mut r1), sample_poisson(&mut r2, mean));
            }
        }
    }

    /// Sample mean and (unbiased) variance.
    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn gamma_matches_its_first_three_moments_across_the_boost() {
        // Gamma(k, 1): mean k, variance k, skewness 2/√k. Shapes below 1 take
        // the boost, 1 is the exponential, the rest Marsaglia–Tsang proper.
        for (seed, shape) in [(41u64, 0.3f64), (42, 1.0), (43, 3.7), (44, 250.0)] {
            let mut r = rng(seed);
            let trials = 80_000usize;
            let samples: Vec<f64> = (0..trials).map(|_| sample_gamma(&mut r, shape)).collect();
            assert!(samples.iter().all(|&x| x > 0.0), "shape {shape}");
            let (mean, var) = moments(&samples);
            let se_mean = (shape / trials as f64).sqrt();
            // Var of the sample variance for Gamma(k): (2k² + 6k)/trials.
            let se_var = ((2.0 * shape * shape + 6.0 * shape) / trials as f64).sqrt();
            assert!(
                (mean - shape).abs() < 5.0 * se_mean,
                "shape {shape}: mean {mean}"
            );
            assert!(
                (var - shape).abs() < 5.0 * se_var,
                "shape {shape}: variance {var}"
            );
            let skew = samples
                .iter()
                .map(|x| ((x - mean) / var.sqrt()).powi(3))
                .sum::<f64>()
                / trials as f64;
            let theory = 2.0 / shape.sqrt();
            assert!(
                (skew - theory).abs() < 0.1 * theory.max(1.0),
                "shape {shape}: skewness {skew} vs {theory}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "gamma shape must be positive")]
    fn gamma_rejects_non_positive_shapes() {
        let _ = sample_gamma(&mut rng(45), 0.0);
    }

    /// χ² of the negative binomial sampler against its exact pmf
    /// `C(k + m − 1, k)·q^m·(1 − q)^k`, from one geometric (`m = 1`) to
    /// gamma shapes deep in the Marsaglia–Tsang regime and Poisson means on
    /// both sides of the PTRS threshold.
    #[test]
    fn negative_binomial_matches_its_exact_pmf() {
        for (seed, m, q) in [
            (51u64, 1u64, 0.3f64),
            (52, 3, 0.3),
            (53, 20, 0.7),
            (54, 40, 0.2),
        ] {
            let mut r = rng(seed);
            let trials = 60_000u64;
            let mean = m as f64 * (1.0 - q) / q;
            let cap = (mean + 12.0 * (mean / q).sqrt()) as usize + 4;
            let mut observed = vec![0u64; cap];
            for _ in 0..trials {
                let k = sample_negative_binomial(&mut r, m, q) as usize;
                if k < cap {
                    observed[k] += 1;
                }
            }
            // pmf by p(k) = p(k−1)·(1 − q)·(k + m − 1)/k from p(0) = q^m.
            let mut pmf = q.powi(m as i32);
            let (mut chi2, mut dof) = (0.0, 0usize);
            for (k, &count) in observed.iter().enumerate() {
                if k > 0 {
                    pmf *= (1.0 - q) * (k as f64 + m as f64 - 1.0) / k as f64;
                }
                let expected = pmf * trials as f64;
                if expected >= 5.0 {
                    chi2 += (count as f64 - expected).powi(2) / expected;
                    dof += 1;
                }
            }
            assert!(
                chi2 < 2.0 * dof as f64 + 20.0,
                "NegBin({m}, {q}): χ² = {chi2} over {dof} cells"
            );
        }
    }

    #[test]
    fn negative_binomial_matches_its_moments_at_thinning_scales() {
        // The thinning kernel's shape: thousands of candidates at a small
        // candidate probability, so the mean is in the millions.
        let (m, q) = (5_000u64, 1e-3f64);
        let mut r = rng(55);
        let trials = 4_000usize;
        let samples: Vec<f64> = (0..trials)
            .map(|_| sample_negative_binomial(&mut r, m, q) as f64)
            .collect();
        let (mean, var) = moments(&samples);
        let theory_mean = m as f64 * (1.0 - q) / q;
        let theory_var = theory_mean / q;
        assert!(
            (mean - theory_mean).abs() < 5.0 * (theory_var / trials as f64).sqrt(),
            "mean {mean} vs {theory_mean}"
        );
        assert!(
            (var / theory_var - 1.0).abs() < 0.12,
            "variance {var} vs {theory_var}"
        );
        assert_eq!(sample_negative_binomial(&mut r, 0, 0.5), 0);
        assert_eq!(sample_negative_binomial(&mut r, 7, 1.0), 0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng(6);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let m: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = rng(7);
        let weights = [1.0, 0.0, 3.0];
        let n = 40_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[sample_weighted_index(&mut r, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac0 = counts[0] as f64 / n as f64;
        assert!((frac0 - 0.25).abs() < 0.02, "fraction {frac0}");
    }

    #[test]
    fn weighted_index_none_for_zero_weights() {
        let mut r = rng(8);
        assert_eq!(sample_weighted_index(&mut r, &[0.0, 0.0]), None);
        assert_eq!(sample_weighted_index(&mut r, &[]), None);
    }
}
