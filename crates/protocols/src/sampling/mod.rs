//! Sampling kernels behind the count-based batched protocol engine.
//!
//! The batched stepper of [`crate::CountedSimulation`] replaces per-agent
//! simulation with a handful of distributional draws per *epoch* of
//! `Θ(√n)` interactions, and [`crate::bridge`] compresses whole blocks of
//! the conversion walk into single draws — so these samplers are the hot
//! path of both accelerated execution modes. Every kernel runs in
//! **constant expected time** (rejection sampling: HRUA for the
//! hypergeometric, BTRS for the binomial, PTRS for the Poisson) and exposes
//! a **prepared-sampler** API that caches the setup constants — mode,
//! ln-pmf at the mode, hat and squeeze parameters — keyed on the urn
//! parameters, so repeated draws from a slowly-changing population pay
//! setup only when the counts actually change:
//!
//! * [`sample_batch_length`] / [`BatchLengthSampler`] — the birthday-bound
//!   distribution of the number of consecutive collision-free interactions;
//! * [`sample_hypergeometric`] / [`HypergeometricSampler`] — exact
//!   without-replacement draws used to pick the interacting agents by
//!   *state counts* instead of identities;
//! * [`sample_counts_without_replacement`] — the multivariate version
//!   (a chain of univariate draws), with
//!   [`sample_counts_without_replacement_cached`] reusing per-category
//!   [`CachedHypergeometric`] slots across epochs;
//! * [`sample_binomial`] / [`BinomialSampler`] — exact at **all** `n`
//!   (no normal-approximation branch), used for every bridged block split;
//!   re-exported from [`lv_crn::distributions`], where `lv-lotka`'s jump
//!   chain also draws from it;
//! * [`sample_poisson`] / [`PoissonSampler`] — re-exported from
//!   [`lv_crn::distributions`], where tau-leaping consumes it directly.
//!
//! All samplers consume randomness only through the passed [`rand::Rng`]
//! and are exact up to `f64` rounding of the pmf (relative error `≲ 1e-8`
//! at populations of `10⁷`), which is the "statistical, not bit-exact"
//! agreement contract of the batched execution mode. One-shot functions
//! delegate to their prepared samplers, so the two forms are bit-equal in
//! RNG stream at equal seeds.

mod batch;
mod hypergeometric;

pub use batch::{sample_batch_length, BatchLengthSampler};
pub use hypergeometric::{
    sample_counts_without_replacement, sample_counts_without_replacement_cached,
    sample_hypergeometric, sample_hypergeometric_by_inversion, CachedHypergeometric,
    HypergeometricSampler,
};

/// The binomial, Poisson and `ln n!` kernels live in `lv-crn` (tau-leaping
/// and the two-species jump chain draw from them below this crate);
/// re-exported here so the sampling layer is one import surface.
pub use lv_crn::distributions::{
    ln_factorial, sample_binomial, sample_binomial_by_inversion, sample_poisson, BinomialSampler,
    CachedBinomial, PoissonSampler,
};
