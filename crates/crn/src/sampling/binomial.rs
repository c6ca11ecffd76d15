//! Binomial sampling: BTRS transformed rejection with a reusable
//! prepared-sampler API.
//!
//! `lv-protocols`' diffusion bridge consumes this for every block split —
//! the binomial displacement of a bridged block and the chained-multinomial
//! splits of the k ≥ 3 walk — and `lv-lotka`'s jump chain for the victims
//! of a run of non-self-destructive competitions, so draws must be **exact
//! in law at every size**: there is no normal-approximation branch anywhere
//! in this file. Dispatch after
//! the `p → 1 − p` flip (so the worked probability is `≤ ½`):
//!
//! * **Constant** — `n = 0` or `p ∈ {0, 1}`: no randomness consumed;
//! * **Walk** — small mean (`n·p < 10`): inverse transform outward from the
//!   mode;
//! * **BTRS** — everything else: Hörmann's transformed rejection with
//!   squeeze, constant expected iterations (`≈ 1.15`) independent of `n`.
//!
//! [`BinomialSampler`] pays the setup (mode, `t0` log-pmf reference, hat and
//! squeeze constants) once; the one-shot [`sample_binomial`] delegates to it
//! and is bit-equal in RNG stream.

use super::leak_to_support_end;
use super::lnfact::ln_choose;
use rand::Rng;

/// Below this worked mean (`n·min(p, 1−p)`), the inverse-transform walk
/// visits fewer expected pmf terms than one BTRS iteration costs; it is also
/// the classical validity floor of the BTRS hat.
const BTRS_MIN_MEAN: f64 = 10.0;

/// Probabilities below this are fully underflowed for the walk frontiers.
const WALK_UNDERFLOW: f64 = 1e-300;

/// `stirling_approx_tail(k)`: the error `ln k! − [Stirling]` used by BTRS,
/// tabulated for `k < 10` and by asymptotic series beyond.
fn stirling_tail(k: u64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_2,
        0.041_340_695_955_409_2,
        0.027_677_925_684_998_3,
        0.020_790_672_103_765_09,
        0.016_644_691_189_821_1,
        0.013_876_128_823_070_7,
        0.011_896_709_945_891_7,
        0.010_411_265_261_972_0,
        0.009_255_462_182_712_73,
        0.008_330_563_433_362_87,
    ];
    if let Some(&value) = TABLE.get(k as usize) {
        value
    } else {
        let kp1 = (k + 1) as f64;
        let kp1sq = kp1 * kp1;
        (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) / kp1
    }
}

/// Cached setup of the small-mean inverse-transform walk (worked
/// probability `p ≤ ½`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct WalkSetup {
    n: u64,
    /// Odds `p / (1 − p)` of the worked probability.
    odds: f64,
    mode: u64,
    p_mode: f64,
}

impl WalkSetup {
    fn new(n: u64, p: f64) -> WalkSetup {
        let mode = (((n + 1) as f64) * p) as u64;
        let mode = mode.min(n);
        let ln_p_mode =
            ln_choose(n, mode) + mode as f64 * p.ln() + (n - mode) as f64 * (1.0 - p).ln();
        WalkSetup {
            n,
            odds: p / (1.0 - p),
            mode,
            p_mode: ln_p_mode.exp(),
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.invert(rng.gen())
    }

    /// Inverse transform of the uniform `u` outward from the mode; the
    /// expected number of pmf terms is `O(sd)` of the worked distribution.
    fn invert(&self, u: f64) -> u64 {
        let mut acc = self.p_mode;
        if u < acc {
            return self.mode;
        }
        let nf = self.n as f64;
        let (mut lo, mut hi) = (self.mode, self.mode);
        let (mut p_lo, mut p_hi) = (self.p_mode, self.p_mode);
        loop {
            let up = hi < self.n && p_hi >= WALK_UNDERFLOW;
            let down = lo > 0 && p_lo >= WALK_UNDERFLOW;
            if !up && !down {
                // Float-leakage residual: attribute to the nearest
                // unexhausted support end, never back to the mode.
                return leak_to_support_end(lo, hi, 0, self.n, p_lo, p_hi);
            }
            if up {
                let k = hi as f64;
                p_hi *= (nf - k) / (k + 1.0) * self.odds;
                hi += 1;
                acc += p_hi;
                if u < acc {
                    return hi;
                }
            }
            if down {
                let k = lo as f64;
                p_lo *= k / ((nf - k + 1.0) * self.odds);
                lo -= 1;
                acc += p_lo;
                if u < acc {
                    return lo;
                }
            }
        }
    }
}

/// Cached setup of Hörmann's BTRS transformed rejection (worked probability
/// `p ≤ ½`, mean `n·p ≥ 10`). Names follow the original derivation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BtrsSetup {
    n: u64,
    /// Hat slope parameter.
    a: f64,
    /// Hat width parameter `1.15 + 2.53·√(npq)`.
    b: f64,
    /// Hat center `n·p + ½`.
    c: f64,
    /// Squeeze acceptance bound on `v`.
    v_r: f64,
    /// Hat normalization `(2.83 + 5.1/b)·√(npq)`.
    alpha: f64,
    /// Odds `p / (1 − p)`.
    odds: f64,
    /// Mode `⌊(n + 1)·p⌋`.
    mode: u64,
    /// Log-pmf reference at the mode (precomputed acceptance constant).
    t0: f64,
}

impl BtrsSetup {
    fn new(n: u64, p: f64) -> BtrsSetup {
        let nf = n as f64;
        let spq = (nf * p * (1.0 - p)).sqrt();
        let b = 1.15 + 2.53 * spq;
        let a = -0.0873 + 0.0248 * b + 0.01 * p;
        let c = nf * p + 0.5;
        let v_r = 0.92 - 4.2 / b;
        let odds = p / (1.0 - p);
        let alpha = (2.83 + 5.1 / b) * spq;
        let mode = ((nf + 1.0) * p) as u64;
        let mf = mode as f64;
        let t0 = (mf + 0.5) * ((mf + 1.0) / (odds * (nf - mf + 1.0))).ln()
            + stirling_tail(mode)
            + stirling_tail(n - mode);
        BtrsSetup {
            n,
            a,
            b,
            c,
            v_r,
            alpha,
            odds,
            mode,
            t0,
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let nf = self.n as f64;
        let mf = self.mode as f64;
        loop {
            let u: f64 = rng.gen::<f64>() - 0.5;
            let v: f64 = rng.gen();
            let us = 0.5 - u.abs();
            let kf = (2.0 * self.a / us + self.b) * u + self.c;
            // Squeeze acceptance — checked *before* the support bounds, so
            // the saturating cast plus `.min(n)` keeps the value legal.
            if us >= 0.07 && v <= self.v_r {
                return (kf as u64).min(self.n);
            }
            if kf < 0.0 || kf > nf {
                continue;
            }
            let k = kf as u64;
            let kff = k as f64;
            let threshold = self.t0
                + (nf + 1.0) * ((nf - mf + 1.0) / (nf - kff + 1.0)).ln()
                + (kff + 0.5) * ((self.odds * (nf - kff + 1.0)) / (kff + 1.0)).ln()
                - stirling_tail(k)
                - stirling_tail(self.n - k);
            if (v * self.alpha / (self.a / (us * us) + self.b)).ln() <= threshold {
                return k;
            }
        }
    }
}

/// The post-flip sampling kernel of a [`BinomialSampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    /// Degenerate parameters: the worked draw is this constant (consumes no
    /// randomness).
    Constant(u64),
    /// Inverse-transform walk for small worked means.
    Walk(WalkSetup),
    /// Transformed rejection, constant expected iterations.
    Btrs(BtrsSetup),
}

/// A prepared binomial sampler: the `p → 1 − p` flip, mode, log-pmf
/// reference, and hat/squeeze constants are computed once in
/// [`BinomialSampler::new`]; every
/// [`sample`](BinomialSampler::sample) then runs in constant expected time,
/// exact in law at **all** `n` (no normal approximation at any size).
///
/// The one-shot [`sample_binomial`] delegates here and is bit-equal in RNG
/// stream at equal seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinomialSampler {
    n: u64,
    p: f64,
    /// Whether the worked probability is `1 − p` (result is mapped back as
    /// `n − k`).
    flipped: bool,
    kernel: Kernel,
}

impl BinomialSampler {
    /// Prepares a sampler for `Binomial(n, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p = {p} is not a probability");
        let flipped = p > 0.5;
        let pp = if flipped { 1.0 - p } else { p };
        let kernel = if n == 0 || pp == 0.0 {
            Kernel::Constant(0)
        } else if n as f64 * pp < BTRS_MIN_MEAN {
            Kernel::Walk(WalkSetup::new(n, pp))
        } else {
            Kernel::Btrs(BtrsSetup::new(n, pp))
        };
        BinomialSampler {
            n,
            p,
            flipped,
            kernel,
        }
    }

    /// The `(n, p)` this sampler was prepared for.
    pub fn parameters(&self) -> (u64, f64) {
        (self.n, self.p)
    }

    /// Whether this sampler was prepared for exactly these parameters.
    #[inline]
    pub fn matches(&self, n: u64, p: f64) -> bool {
        self.n == n && self.p == p
    }

    /// Draws one sample. Constant expected time; degenerate parameters
    /// consume no randomness.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let worked = match &self.kernel {
            Kernel::Constant(value) => *value,
            Kernel::Walk(setup) => setup.sample(rng),
            Kernel::Btrs(setup) => setup.sample(rng),
        };
        if self.flipped {
            self.n - worked
        } else {
            worked
        }
    }
}

/// A [`BinomialSampler`] slot keyed on its parameters: `sample` reuses the
/// prepared setup whenever `(n, p)` repeats and rebuilds (storing the new
/// setup) when they changed — the form the k ≥ 3 bridged walk holds per
/// split site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CachedBinomial {
    prepared: Option<BinomialSampler>,
}

impl CachedBinomial {
    /// An empty slot (first use always prepares).
    pub fn new() -> Self {
        CachedBinomial::default()
    }

    /// Samples `Binomial(n, p)`, reusing the prepared setup on parameter
    /// hits. Identical in RNG stream to [`sample_binomial`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, n: u64, p: f64) -> u64 {
        match &self.prepared {
            Some(sampler) if sampler.matches(n, p) => sampler.sample(rng),
            _ => {
                let sampler = BinomialSampler::new(n, p);
                let value = sampler.sample(rng);
                self.prepared = Some(sampler);
                value
            }
        }
    }
}

/// Samples `Binomial(n, p)` in constant expected time, exact in law at all
/// `n` (one-shot convenience over [`BinomialSampler`]; repeated draws at
/// fixed parameters should prepare the sampler once).
///
/// # Panics
///
/// Panics if `p` is not a probability.
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    BinomialSampler::new(n, p).sample(rng)
}

/// The pre-BTRS reference sampler: `p`-flip plus the inverse-transform walk
/// at any mean. Retained for χ² cross-checks of the rejection kernel and
/// the old-vs-new `sampling_kernels` microbenches; new code should use
/// [`sample_binomial`].
///
/// # Panics
///
/// Panics if `p` is not a probability.
pub fn sample_binomial_by_inversion<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p = {p} is not a probability");
    let flipped = p > 0.5;
    let pp = if flipped { 1.0 - p } else { p };
    let worked = if n == 0 || pp == 0.0 {
        0
    } else {
        WalkSetup::new(n, pp).sample(rng)
    };
    if flipped {
        n - worked
    } else {
        worked
    }
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
    fn binomial_respects_support_and_moments() {
        let mut r = rng(3);
        // Spans walk (small mean), BTRS, the flip, and huge n — all exact
        // in law now, no normal branch anywhere.
        for (n, p) in [
            (1u64, 0.5f64),
            (40, 0.35),
            (1000, 0.002),
            (1000, 0.998),
            (1 << 20, 0.5),
            (1 << 30, 0.2),
        ] {
            let trials = 4000;
            let mut sum = 0.0;
            for _ in 0..trials {
                let k = sample_binomial(&mut r, n, p);
                assert!(k <= n, "k = {k} from ({n}, {p})");
                sum += k as f64;
            }
            let mean = sum / trials as f64;
            let mean_theory = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt().max(1.0);
            assert!(
                (mean - mean_theory).abs() < 6.0 * sd / (trials as f64).sqrt(),
                "mean {mean} vs {mean_theory} at ({n}, {p})"
            );
        }
    }

    #[test]
    fn binomial_degenerate_cases() {
        let mut r = rng(9);
        assert_eq!(sample_binomial(&mut r, 0, 0.3), 0);
        assert_eq!(sample_binomial(&mut r, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut r, 100, 1.0), 100);
    }

    #[test]
    fn binomial_exact_path_matches_pmf() {
        use super::super::lnfact::ln_choose;
        let (n, p) = (40u64, 0.35f64);
        let trials = 60_000u64;
        let mut observed = vec![0u64; (n + 1) as usize];
        let mut r = rng(4);
        for _ in 0..trials {
            observed[sample_binomial(&mut r, n, p) as usize] += 1;
        }
        let mut chi2 = 0.0;
        let mut dof = 0usize;
        for (k, &count) in observed.iter().enumerate() {
            let ln_pmf =
                ln_choose(n, k as u64) + k as f64 * p.ln() + (n - k as u64) as f64 * (1.0 - p).ln();
            let expected = ln_pmf.exp() * trials as f64;
            if expected >= 5.0 {
                chi2 += (count as f64 - expected).powi(2) / expected;
                dof += 1;
            }
        }
        assert!(
            chi2 < 2.0 * dof as f64 + 20.0,
            "χ² = {chi2} over {dof} cells"
        );
    }

    #[test]
    fn prepared_sampler_matches_one_shot_stream_bit_for_bit() {
        for (n, p) in [(40u64, 0.35f64), (1 << 20, 0.5), (1000, 0.002), (64, 0.9)] {
            let sampler = BinomialSampler::new(n, p);
            assert!(sampler.matches(n, p));
            assert_eq!(sampler.parameters(), (n, p));
            let mut r1 = rng(42);
            let mut r2 = rng(42);
            for _ in 0..500 {
                assert_eq!(sampler.sample(&mut r1), sample_binomial(&mut r2, n, p));
            }
        }
    }

    #[test]
    fn cached_slot_revalidates_on_parameter_change() {
        let mut slot = CachedBinomial::new();
        let mut r1 = rng(11);
        let mut r2 = rng(11);
        for i in 0..200u64 {
            let (n, p) = if i % 3 == 0 {
                (512u64, 0.5f64)
            } else {
                (40u64, 0.35f64)
            };
            assert_eq!(slot.sample(&mut r1, n, p), sample_binomial(&mut r2, n, p));
        }
    }

    #[test]
    fn walk_leakage_goes_to_the_support_ends_not_the_mode() {
        let setup = WalkSetup::new(40, 0.35);
        let leaked = setup.invert(1.0);
        assert!(
            leaked == 0 || leaked == setup.n,
            "leak went to {leaked}, mode {}",
            setup.mode
        );
        assert_ne!(leaked, setup.mode, "tail mass moved to the center");
    }

    #[test]
    fn huge_n_walk_leaks_to_the_open_frontier_not_across_the_support() {
        // n = 2^40 with a tiny mean: the upper tail underflows long before
        // the support end, so the residual must attribute just past the
        // frontier — never teleport to k = n.
        let setup = WalkSetup::new(1 << 40, 4.0 / (1u64 << 40) as f64);
        let leaked = setup.invert(1.0);
        assert!(
            leaked < 2048,
            "leak teleported across the support to {leaked}"
        );
    }

    #[test]
    fn inversion_reference_agrees_in_moments() {
        let (n, p) = (4096u64, 0.3f64);
        let mut r = rng(13);
        let trials = 20_000;
        let mean: f64 = (0..trials)
            .map(|_| sample_binomial_by_inversion(&mut r, n, p) as f64)
            .sum::<f64>()
            / trials as f64;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (mean - n as f64 * p).abs() < 6.0 * sd / (trials as f64).sqrt(),
            "mean {mean}"
        );
    }
}
