//! Diffusion-bridged first-passage sampling for the conversion dynamics.
//!
//! The Czyzowicz-style conversion dynamics (`(i, j) → (i, i)` for `i ≠ j`)
//! cost `Θ(n²)` *interactions* per trial near a tie, so even the `o(1)`-per-
//! interaction batched stepper of [`crate::CountedSimulation`] leaves trials
//! at `n = 10⁷` out of reach. This module breaks that wall by simulating the
//! *count chain* directly instead of the interaction chain:
//!
//! * **Active steps only.** Between conversions the counts do not move, and
//!   an interaction is a conversion with probability
//!   `q = D/(n(n−1))` where `D = n² − Σᵢ cᵢ²` is twice the number of
//!   cross-species ordered pairs. For two species the direction of each
//!   conversion is a *fair coin independent of the state* (the ordered pairs
//!   `(A, B)` and `(B, A)` are equally likely), so the A-count performs an
//!   unbiased ±1 random walk — the gambler's ruin with exit probability
//!   exactly `a/n`.
//! * **Bridged blocks.** Away from the boundaries the walk is advanced `L`
//!   conversions at a time: the block's net displacement is
//!   `2·Binomial(L, ½) − L`, sampled **exactly at every block length**
//!   through the constant-time BTRS rejection kernel of [`crate::sampling`]
//!   (there is no normal-approximation branch for the displacement at any
//!   size). The block length obeys the *boundary-proximity band*
//!   `BAND·sd(L) ≤ min(a, n − a)`, so the chance that the unobserved path
//!   crossed a boundary inside a block is at most `2·exp(−BAND²/2) ≈ 4·10⁻²²`
//!   (Hoeffding) — below the resolution of any `f64` uniform draw — and the
//!   sampled endpoint is *rejected* outright if it escapes the open
//!   interval, so absorption is never approximated.
//! * **Boundary-exact band.** Once `L` would fall under [`MIN_BLOCK`] the
//!   walk single-steps *exactly*: one `Geometric(q)` inert stretch plus one
//!   fair-coin conversion per step, which is the interaction chain in
//!   distribution (the state does not change during inert interactions, so
//!   truncating a stretch at the event budget is exact too).
//! * **Interaction clock.** Each block also advances the interaction count:
//!   the inert interactions interleaved between the `L` conversions form a
//!   sum of `L` geometrics whose rate drifts with the path; the sum is
//!   sampled from its CLT limit with mean and variance taken as the
//!   trapezoid average of `1/q` and `(1−q)/q²` between the block's start
//!   and end states. In the band the clock is exact (per-step geometrics).
//! * **`k` opinions.** The `(k−1)`-dimensional count walk of the `k`-opinion
//!   dynamics is bridged per unordered species pair: the block's `L`
//!   conversions are split across pairs by a multinomial at the block-start
//!   pair intensities `2cᵢcⱼ/D` (chained binomials) and each pair's net
//!   transfer is its own `2·Binomial(Lᵢⱼ, ½) − Lᵢⱼ` bridge, under a
//!   per-species band constraint `BAND²·Var(Δcₘ) ≤ cₘ²` so no species can
//!   be driven into (or through) extinction inside a block.
//!
//! The displacement bridge is *exact in law* for any block length — the
//! conversion directions are iid fair coins and every binomial draw (the
//! fair-coin bridge and the `k ≥ 3` pair splits alike) uses the exact
//! rejection sampler; the clock and the `k ≥ 3`
//! frozen-intensity split are statistical approximations of the same order
//! as the batched stepper's contract — equal outcome laws, different RNG
//! stream — and are cross-validated against the exact counted stepper in
//! `tests/bridge_agreement.rs`. Expected work per trial is
//! `O(BAND²·log n)` blocks plus an `O(BAND⁴)` exact tail, i.e.
//! `Õ(poly log n)` instead of `Θ(n²)`.

use crate::sampling::CachedBinomial;
use rand::Rng;

pub use crate::sampling::sample_binomial;
pub use lv_crn::distributions::{sample_geometric, sample_standard_normal};

/// The boundary-proximity band constant `c`: blocks keep
/// `c · sd(displacement) ≤ distance-to-boundary`, so a mid-block boundary
/// crossing has probability `≤ 2·exp(−c²/2) ≈ 4·10⁻²²`.
pub const BAND: u64 = 10;

/// Blocks shorter than this are not worth their sampling overhead; the walk
/// falls back to exact band stepping instead.
pub const MIN_BLOCK: u64 = 32;

/// What one [`BridgedConversionWalk::advance`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeStep {
    /// A bridged block: `fired` interactions (conversions plus their inert
    /// interleavings) advanced in one aggregated jump.
    Block {
        /// Interactions represented by the block.
        fired: u64,
    },
    /// One boundary-exact step: a geometric inert stretch plus one
    /// conversion `(attacker, victim) → (attacker, attacker)`.
    Exact {
        /// Interactions consumed: the inert stretch plus the conversion.
        fired: u64,
        /// Species index of the converting initiator.
        attacker: usize,
        /// Species index of the converted responder.
        victim: usize,
    },
    /// The interaction budget ran out inside an inert stretch: `fired`
    /// inert interactions were consumed and **no state changed** — exact,
    /// because the geometric stretch is memoryless and counts are frozen
    /// between conversions.
    Truncated {
        /// Inert interactions consumed (the entire remaining budget).
        fired: u64,
    },
}

impl BridgeStep {
    /// Interactions consumed by this step.
    pub fn fired(&self) -> u64 {
        match *self {
            BridgeStep::Block { fired }
            | BridgeStep::Exact { fired, .. }
            | BridgeStep::Truncated { fired } => fired,
        }
    }
}

/// The bridged execution engine for the `k`-opinion conversion dynamics
/// (`k = 2` is the two-state Czyzowicz protocol): per-species counts
/// advanced by diffusion-bridged blocks away from the boundaries and by
/// exact geometric-plus-coin steps inside the band (see the
/// [module docs](self)).
///
/// ```
/// use lv_protocols::BridgedConversionWalk;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// // 60% A, 40% B: A wins with probability exactly 0.6.
/// let mut walk = BridgedConversionWalk::new(&[600, 400]);
/// while !walk.is_absorbed() {
///     walk.advance(&mut rng, u64::MAX);
/// }
/// let counts = walk.counts();
/// assert!(counts[0] == 1_000 || counts[1] == 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct BridgedConversionWalk {
    counts: Vec<u64>,
    n: u64,
    interactions: u64,
    /// Scratch: proposed per-species deltas of a block.
    deltas: Vec<i64>,
    /// Prepared binomial samplers for the `k ≥ 3` chained-multinomial pair
    /// splits, one per unordered species pair (row-major over `i < j`).
    split_slots: Vec<CachedBinomial>,
    /// Prepared binomial samplers for each pair's fair-coin displacement
    /// bridge `Binomial(Lᵢⱼ, ½)`.
    coin_slots: Vec<CachedBinomial>,
}

impl BridgedConversionWalk {
    /// A walk over `counts[i]` agents of opinion `i`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two species are given.
    pub fn new(counts: &[u64]) -> Self {
        assert!(counts.len() >= 2, "conversion dynamics need two opinions");
        let n: u64 = counts.iter().sum();
        // Keeps D = n² − Σc² (≤ n²) representable in the u64 draws of the
        // exact stepper.
        assert!(n < (1 << 32), "populations beyond 2^32 are unsupported");
        let pairs = counts.len() * (counts.len() - 1) / 2;
        BridgedConversionWalk {
            counts: counts.to_vec(),
            n,
            interactions: 0,
            deltas: vec![0; counts.len()],
            split_slots: vec![CachedBinomial::new(); pairs],
            coin_slots: vec![CachedBinomial::new(); pairs],
        }
    }

    /// The per-opinion agent counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of agents (invariant: conversions conserve the population).
    pub fn total(&self) -> u64 {
        self.n
    }

    /// Interactions represented so far (inert ones included).
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Whether the dynamics are absorbed: at most one opinion left alive
    /// (an extinct opinion can never be re-seeded — conversions only copy
    /// the initiator).
    pub fn is_absorbed(&self) -> bool {
        self.counts.iter().filter(|&&c| c > 0).count() <= 1
    }

    /// Twice the number of cross-species ordered pairs,
    /// `D = n² − Σᵢ cᵢ²`; the activity rate is `q = D/(n(n−1))`.
    fn cross_pairs(&self) -> u128 {
        let n = self.n as u128;
        n * n
            - self
                .counts
                .iter()
                .map(|&c| (c as u128) * (c as u128))
                .sum::<u128>()
    }

    /// Advances the walk by one bridged block if the state is deep enough
    /// inside the simplex and the budget allows, otherwise by one
    /// boundary-exact step (possibly truncated at the budget). Never
    /// consumes more than `max_interactions` interactions.
    ///
    /// # Panics
    ///
    /// Panics if the walk is absorbed, the population is smaller than two,
    /// or `max_interactions == 0`.
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R, max_interactions: u64) -> BridgeStep {
        assert!(max_interactions >= 1, "a step consumes interactions");
        if let Some(fired) = self.try_block(rng, max_interactions) {
            return BridgeStep::Block { fired };
        }
        self.step_exact(rng, max_interactions)
    }

    /// Attempts one bridged block of conversions within `max_interactions`.
    ///
    /// Returns the interactions consumed, or `None` — with **no state
    /// touched** — when the band, the [`MIN_BLOCK`] floor or the budget
    /// refuses the block (the caller then steps exactly; a sampled block
    /// discarded for overrunning the budget introduces no bias into the
    /// truncated prefix, because the run ends within the budget either way).
    pub fn try_block<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        max_interactions: u64,
    ) -> Option<u64> {
        let n = self.n;
        let cross = self.cross_pairs();
        if cross == 0 {
            return None;
        }
        let pairs_total = (n as u128) * ((n - 1) as u128);
        let q_start = cross as f64 / pairs_total as f64;
        // Band bound per live species m: BAND²·Var(Δc_m) ≤ c_m² with
        // Var(Δc_m) = L·2c_m(n−c_m)/D, i.e. L ≤ c_m·D/(2·BAND²·(n−c_m)).
        let mut band_bound = u128::MAX;
        for &c in &self.counts {
            if c == 0 {
                continue;
            }
            let bound = (c as u128) * cross / (2 * (BAND * BAND) as u128 * ((n - c) as u128));
            band_bound = band_bound.min(bound);
        }
        // Budget bound: aim the block's *expected* total interactions
        // (≈ L/q) at three quarters of the budget so the sampled total
        // rarely overruns and gets refused.
        let budget_bound = (0.75 * max_interactions as f64 * q_start) as u128;
        let len = band_bound.min(budget_bound).min(u64::MAX as u128 / 4) as u64;
        if len < MIN_BLOCK {
            return None;
        }
        // Per-pair displacement bridging into the scratch deltas.
        self.deltas.fill(0);
        let k = self.counts.len();
        let mut remaining_len = len;
        let mut remaining_weight = cross;
        let mut pair = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                let slot = pair;
                pair += 1;
                if self.counts[i] == 0 || self.counts[j] == 0 || remaining_len == 0 {
                    continue;
                }
                // Twice c_i·c_j ordered pairs convert between i and j.
                let weight = 2 * (self.counts[i] as u128) * (self.counts[j] as u128);
                let events = if weight >= remaining_weight {
                    remaining_len
                } else {
                    self.split_slots[slot].sample(
                        rng,
                        remaining_len,
                        (weight as f64 / remaining_weight as f64).min(1.0),
                    )
                };
                remaining_len -= events;
                remaining_weight -= weight;
                if events == 0 {
                    continue;
                }
                // Within the pair each conversion favours i or j with equal
                // probability: the fair-coin bridge (exact at any length).
                let towards_i = self.coin_slots[slot].sample(rng, events, 0.5);
                let net = 2 * towards_i as i64 - events as i64;
                self.deltas[i] += net;
                self.deltas[j] -= net;
            }
        }
        // Reject any endpoint outside the *open* simplex: a block may never
        // absorb (or overshoot) a species — the band makes this a
        // ≤ 2·exp(−BAND²/2) tail event, and the exact fallback handles it.
        let mut sum_sq_end = 0u128;
        for (m, &c) in self.counts.iter().enumerate() {
            let after = c as i64 + self.deltas[m];
            if c > 0 && (after <= 0 || after as u64 >= n) {
                return None;
            }
            sum_sq_end += (after as u128) * (after as u128);
        }
        let cross_end = (n as u128) * (n as u128) - sum_sq_end;
        let q_end = cross_end as f64 / pairs_total as f64;
        // Clock: the inert interleavings are a sum of `len` geometrics; CLT
        // with trapezoid-averaged mean Σ(1/q − 1) and variance Σ(1−q)/q².
        let inv_q = 0.5 * (1.0 / q_start + 1.0 / q_end);
        let variance = len as f64
            * 0.5
            * ((1.0 - q_start) / (q_start * q_start) + (1.0 - q_end) / (q_end * q_end));
        let mean_inert = len as f64 * (inv_q - 1.0);
        let inert = (mean_inert + variance.sqrt() * sample_standard_normal(rng))
            .round()
            .max(0.0);
        if inert + len as f64 > max_interactions as f64 {
            return None;
        }
        let fired = len + inert as u64;
        if fired > max_interactions {
            return None;
        }
        for (m, count) in self.counts.iter_mut().enumerate() {
            *count = (*count as i64 + self.deltas[m]) as u64;
        }
        self.interactions += fired;
        Some(fired)
    }

    /// One boundary-exact step: samples the `Geometric(q)` inert stretch
    /// before the next conversion and the conversion itself — the
    /// interaction chain in distribution. If the stretch does not fit in
    /// `max_interactions`, exactly the remaining budget of inert
    /// interactions is consumed and no state changes
    /// ([`BridgeStep::Truncated`]), which is exact because the counts are
    /// frozen between conversions.
    ///
    /// # Panics
    ///
    /// Panics if the walk is absorbed or `max_interactions == 0`.
    pub fn step_exact<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        max_interactions: u64,
    ) -> BridgeStep {
        assert!(max_interactions >= 1, "a step consumes interactions");
        let n = self.n;
        let cross = self.cross_pairs();
        assert!(cross > 0, "the walk is absorbed; no conversion can fire");
        let pairs_total = (n as u128) * ((n - 1) as u128);
        let q = cross as f64 / pairs_total as f64;
        let stretch = sample_geometric(rng, q);
        if stretch >= max_interactions {
            self.interactions += max_interactions;
            return BridgeStep::Truncated {
                fired: max_interactions,
            };
        }
        // The active ordered pair: initiator species i with probability
        // c_i(n−c_i)/D, then responder species j ≠ i with probability
        // c_j/(n−c_i).
        let mut pick = rng.gen_range(0..cross as u64) as u128;
        let mut attacker = usize::MAX;
        for (i, &c) in self.counts.iter().enumerate() {
            let weight = (c as u128) * ((n - c) as u128);
            if pick < weight {
                attacker = i;
                break;
            }
            pick -= weight;
        }
        let others = n - self.counts[attacker];
        let mut pick = rng.gen_range(0..others);
        let mut victim = usize::MAX;
        for (j, &c) in self.counts.iter().enumerate() {
            if j == attacker {
                continue;
            }
            if pick < c {
                victim = j;
                break;
            }
            pick -= c;
        }
        self.counts[attacker] += 1;
        self.counts[victim] -= 1;
        self.interactions += stretch + 1;
        BridgeStep::Exact {
            fired: stretch + 1,
            attacker,
            victim,
        }
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
    fn standard_normal_moments() {
        let mut r = rng(1);
        let trials = 100_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| sample_standard_normal(&mut r))
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / trials as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn geometric_matches_its_mean() {
        let mut r = rng(2);
        for q in [0.9, 0.5, 0.05, 1e-4] {
            let trials = 40_000;
            let mean = (0..trials)
                .map(|_| sample_geometric(&mut r, q) as f64)
                .sum::<f64>()
                / trials as f64;
            let theory = (1.0 - q) / q;
            assert!(
                (mean - theory).abs() < 0.05 * theory.max(1.0),
                "q = {q}: mean {mean} vs {theory}"
            );
        }
        assert_eq!(sample_geometric(&mut r, 1.0), 0);
    }

    #[test]
    fn reexported_binomial_is_exact_at_bridge_scales() {
        // The χ² and prepared-sampler suites live with the kernel in
        // `lv_crn::distributions`; here we only pin that the bridge's binomial
        // *is* that exact kernel, at a block size the old code would have
        // routed through the retired normal approximation.
        let mut r = rng(3);
        let (n, p) = (1u64 << 30, 0.2f64);
        let trials = 2_000;
        let mean: f64 = (0..trials)
            .map(|_| sample_binomial(&mut r, n, p) as f64)
            .sum::<f64>()
            / trials as f64;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (mean - n as f64 * p).abs() < 6.0 * sd / (trials as f64).sqrt(),
            "mean {mean}"
        );
    }

    #[test]
    fn walk_reaches_consensus_and_conserves_agents() {
        let mut r = rng(5);
        let mut walk = BridgedConversionWalk::new(&[700, 300]);
        while !walk.is_absorbed() {
            let step = walk.advance(&mut r, u64::MAX);
            assert!(step.fired() >= 1);
            assert_eq!(walk.counts().iter().sum::<u64>(), 1_000);
        }
        let counts = walk.counts();
        assert!(counts[0] == 1_000 || counts[1] == 1_000, "{counts:?}");
        assert!(walk.interactions() > 0);
    }

    #[test]
    fn blocks_fire_away_from_the_boundary_and_refuse_near_it() {
        let mut r = rng(6);
        // Deep interior at n = 10⁶: the first advance must be a block.
        let mut walk = BridgedConversionWalk::new(&[500_000, 500_000]);
        assert!(matches!(
            walk.advance(&mut r, u64::MAX),
            BridgeStep::Block { .. }
        ));
        // In the band (d = 20 < BAND·√MIN_BLOCK) blocks refuse and the walk
        // steps exactly.
        let mut walk = BridgedConversionWalk::new(&[999_980, 20]);
        assert_eq!(walk.try_block(&mut r, u64::MAX), None);
        assert!(matches!(
            walk.advance(&mut r, u64::MAX),
            BridgeStep::Exact { .. }
        ));
    }

    #[test]
    fn tiny_budgets_truncate_without_state_changes() {
        let mut r = rng(7);
        // q is tiny here (d = 1 at n = 10⁶), so the geometric stretch
        // dwarfs a budget of 1 with overwhelming probability.
        let mut walk = BridgedConversionWalk::new(&[999_999, 1]);
        let before = walk.counts().to_vec();
        let step = walk.advance(&mut r, 1);
        assert_eq!(step, BridgeStep::Truncated { fired: 1 });
        assert_eq!(walk.counts(), &before[..], "truncation froze the state");
        assert_eq!(walk.interactions(), 1);
    }

    #[test]
    fn k_opinion_walk_conserves_and_absorbs() {
        let mut r = rng(8);
        let mut walk = BridgedConversionWalk::new(&[40_000, 35_000, 25_000]);
        while !walk.is_absorbed() {
            walk.advance(&mut r, u64::MAX);
            assert_eq!(walk.counts().iter().sum::<u64>(), 100_000);
            assert!(walk.counts().iter().all(|&c| c <= 100_000));
        }
        assert_eq!(
            walk.counts().iter().filter(|&&c| c > 0).count(),
            1,
            "consensus on one opinion"
        );
    }

    #[test]
    fn two_species_win_probability_follows_the_proportional_law() {
        // The headline law: P(A wins) = a/n exactly. n = 2048 is large
        // enough that bridged blocks do essentially all the work. (The
        // heavier Wilson-bound agreement suite lives in
        // tests/bridge_agreement.rs.)
        let trials = 600;
        let (a, n) = (1_536u64, 2_048u64);
        let mut wins = 0u64;
        for seed in 0..trials {
            let mut r = rng(1_000 + seed);
            let mut walk = BridgedConversionWalk::new(&[a, n - a]);
            while !walk.is_absorbed() {
                walk.advance(&mut r, u64::MAX);
            }
            if walk.counts()[0] == n {
                wins += 1;
            }
        }
        let p = wins as f64 / trials as f64;
        let expected = a as f64 / n as f64;
        // 95% half-width at p = 0.75 over 600 trials ≈ 0.035.
        assert!(
            (p - expected).abs() < 0.045,
            "A won {p}, proportional law says {expected}"
        );
    }

    #[test]
    fn absorbed_walks_panic_on_stepping() {
        let walk = BridgedConversionWalk::new(&[10, 0]);
        assert!(walk.is_absorbed());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut walk = walk.clone();
            walk.step_exact(&mut rng(9), u64::MAX)
        }));
        assert!(result.is_err(), "stepping an absorbed walk must panic");
    }
}
