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
//! * **Boundary-exact band: thinning windows.** Once `L` would fall under
//!   [`MIN_BLOCK`] the walk advances by exact *thinning windows*
//!   ([`BridgedConversionWalk::step_window`]), which are also the kernel
//!   of the exact conversion backends (next to counted epochs at large
//!   `n`). A window fixes a box in which
//!   every live count stays within `±w` (`w` = the smallest live count over
//!   [`WINDOW_FRACTION`], at least 1) and bounds `q` over it by `q̄`. It
//!   then draws *candidates*: each interaction is a candidate with
//!   probability `q̄`, and a candidate converts with probability `q/q̄`
//!   (one exact integer draw below `D̄`, no logarithm), so every
//!   interaction converts with probability `q` — the interaction chain in
//!   law. A conversion picks its ordered species pair in proportion to
//!   `cᵢ·cⱼ` (for two species the same draw decides the direction). The
//!   window ends when a count leaves the box, a species dies out or
//!   [`WINDOW_LOG`] candidates are logged, and charges its inert
//!   interactions in one draw: the non-candidates before its `m`-th
//!   candidate are `NegBin(m, q̄)`, independent of what the candidates did.
//!   A window that would cross the event budget keeps the
//!   `Hypergeometric(m − 1, F, r)` candidates that fall inside it (`F`
//!   non-candidates drawn, `r` interactions left) and replays its log up to
//!   there, so truncated runs are exact too.
//! * **Interaction clock.** Each block also advances the interaction count:
//!   the inert interactions interleaved between the `L` conversions form a
//!   sum of `L` geometrics whose rate drifts with the path; the sum is
//!   sampled from its CLT limit with mean and variance taken as the
//!   trapezoid average of `1/q` and `(1−q)/q²` between the block's start
//!   and end states. In the band the clock is exact (the windows' negative
//!   binomials).
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
//! `O(BAND²·log n)` blocks plus an exact tail: a walk visits a count `c`
//! below the band edge `c* ≈ BAND·√MIN_BLOCK` about `2c` times, so the tail
//! holds `O(c*²) = O(BAND²·MIN_BLOCK)` conversions (a few thousand at the
//! defaults), resolved a window of `O(w²)` of them at a time. That is
//! `Õ(poly log n)` per trial instead of `Θ(n²)`.

use crate::sampling::{sample_hypergeometric, CachedBinomial};
use lv_crn::distributions::sample_negative_binomial;
use rand::Rng;

pub use crate::sampling::sample_binomial;
pub use lv_crn::distributions::{sample_geometric, sample_standard_normal};

/// The boundary-proximity band constant `c`: blocks keep
/// `c · sd(displacement) ≤ distance-to-boundary`, so a mid-block boundary
/// crossing has probability `≤ 2·exp(−c²/2) ≈ 4·10⁻²²`.
pub const BAND: u64 = 10;

/// Blocks shorter than this are not worth their sampling overhead; the walk
/// falls back to exact thinning windows instead.
pub const MIN_BLOCK: u64 = 32;

/// A thinning window's box radius is the smallest live count divided by
/// this (at least 1): wide enough that a window holds about `w²`
/// conversions, narrow enough that `q/q̄` stays near 1 (at least 0.88 for
/// two species).
pub const WINDOW_FRACTION: u64 = 8;

/// The most candidates one thinning window logs before it ends.
pub const WINDOW_LOG: usize = 1 << 12;

/// What one [`BridgedConversionWalk::advance`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeStep {
    /// A bridged block: `fired` interactions (conversions plus their inert
    /// interleavings) advanced in one aggregated jump.
    Block {
        /// Interactions represented by the block.
        fired: u64,
    },
    /// One exact thinning window: `conversions` conversions among `fired`
    /// interactions (its conversions are
    /// [`BridgedConversionWalk::window_conversions`]). A window cut at the
    /// budget has `fired` equal to it.
    Window {
        /// Interactions consumed: the conversions and the inert ones.
        fired: u64,
        /// Conversions applied.
        conversions: u64,
    },
    /// The interaction budget ran out before the window's first
    /// conversion: `fired` inert interactions were consumed and **no state
    /// changed**.
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
            | BridgeStep::Window { fired, .. }
            | BridgeStep::Truncated { fired } => fired,
        }
    }
}

/// The bridged execution engine for the `k`-opinion conversion dynamics
/// (`k = 2` is the two-state Czyzowicz protocol): per-species counts
/// advanced by diffusion-bridged blocks away from the boundaries and by
/// exact thinning windows inside the band (see the [module docs](self)).
/// The windows alone ([`step_window`](Self::step_window)) are an exact
/// kernel for the whole dynamics.
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
    /// Scratch: the counts at the start of the current thinning window.
    start: Vec<u64>,
    /// The current thinning window's candidates, in order: `REJECTED` or a
    /// conversion's pair code.
    log: Vec<u32>,
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
        // Keeps n² and D = n² − Σc² representable in the u64 draws of the
        // thinning windows.
        assert!(n < (1 << 32), "populations beyond 2^32 are unsupported");
        let pairs = counts.len() * (counts.len() - 1) / 2;
        BridgedConversionWalk {
            counts: counts.to_vec(),
            n,
            interactions: 0,
            deltas: vec![0; counts.len()],
            split_slots: vec![CachedBinomial::new(); pairs],
            coin_slots: vec![CachedBinomial::new(); pairs],
            start: vec![0; counts.len()],
            log: Vec::new(),
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

    /// Replaces the per-opinion counts, keeping the population size and the
    /// interaction count: hands a configuration over from another stepper
    /// of the same dynamics.
    ///
    /// # Panics
    ///
    /// Panics if the opinion count or the population size differs.
    pub fn set_counts(&mut self, counts: &[u64]) {
        assert_eq!(
            counts.iter().sum::<u64>(),
            self.n,
            "conversions conserve the population"
        );
        self.counts.copy_from_slice(counts);
    }

    /// The share of interactions a [`step_window`](Self::step_window) call
    /// from the current counts draws as candidates, `D̄/(n(n−1))`: its
    /// expected candidates per interaction.
    pub fn candidate_rate(&self) -> f64 {
        let (_, bound) = self.window_box(self.cross_pairs() as u64);
        bound as f64 / (self.n * (self.n - 1)) as f64
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
    /// inside the simplex and the budget allows, otherwise by one thinning
    /// window (possibly truncated at the budget). Never consumes more than
    /// `max_interactions` interactions.
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
        self.step_window(rng, max_interactions)
    }

    /// Attempts one bridged block of conversions within `max_interactions`.
    ///
    /// Returns the interactions consumed, or `None` — with **no state
    /// touched** — when the band, the [`MIN_BLOCK`] floor or the budget
    /// refuses the block (the caller then runs a window; a sampled block
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

    /// One exact thinning window (see the [module docs](self)): draws
    /// conversion candidates at the box's bound `q̄` until a count leaves
    /// the box, a species dies out or [`WINDOW_LOG`] candidates are logged,
    /// then charges the window's inert interactions in one negative
    /// binomial draw. The final counts and the interaction count are the
    /// interaction chain's in law.
    ///
    /// If the window would overrun `max_interactions`, exactly the budget is
    /// consumed and the counts are those after the conversions that fall
    /// inside it, placed exactly (a hypergeometric draw, then a replay of
    /// the window's log). Returns [`BridgeStep::Truncated`] when none does.
    ///
    /// # Panics
    ///
    /// Panics if the walk is absorbed or `max_interactions == 0`.
    pub fn step_window<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        max_interactions: u64,
    ) -> BridgeStep {
        assert!(max_interactions >= 1, "a step consumes interactions");
        let n = self.n;
        let cross = self.cross_pairs() as u64;
        assert!(cross > 0, "the walk is absorbed; no conversion can fire");
        let pairs = n * (n - 1);
        let (radius, bound) = self.window_box(cross);
        // Lemire's rejection zone for exact uniform draws below `bound`.
        let zone = bound.wrapping_neg() % bound;
        self.start.copy_from_slice(&self.counts);
        self.log.clear();
        let conversions = if self.counts.len() == 2 {
            self.window_two(rng, bound, zone, radius)
        } else {
            self.window_k(rng, bound, zone, radius, cross)
        };
        let candidates = self.log.len() as u64;
        // Every interaction is a candidate with probability q̄, independently
        // of what the candidates did, so the window's non-candidates are the
        // failures before its `candidates`-th success.
        let inert = sample_negative_binomial(rng, candidates, bound as f64 / pairs as f64);
        let fired = candidates.saturating_add(inert);
        if fired <= max_interactions {
            self.interactions += fired;
            return BridgeStep::Window { fired, conversions };
        }
        // The budget ends inside the window. Given its `inert`
        // non-candidates, the first `candidates − 1` candidates sit
        // uniformly among the first `candidates − 1 + inert` interactions
        // (the last candidate closes the window), so the budget keeps a
        // hypergeometric number of them: replay those from the start.
        let kept = sample_hypergeometric(rng, candidates - 1, inert, max_interactions) as usize;
        self.counts.copy_from_slice(&self.start);
        self.log.truncate(kept);
        let mut conversions = 0;
        for index in 0..kept {
            let code = self.log[index];
            if code != REJECTED {
                let (attacker, victim) = self.decode(code);
                self.counts[attacker] += 1;
                self.counts[victim] -= 1;
                conversions += 1;
            }
        }
        self.interactions += max_interactions;
        if conversions == 0 {
            BridgeStep::Truncated {
                fired: max_interactions,
            }
        } else {
            BridgeStep::Window {
                fired: max_interactions,
                conversions,
            }
        }
    }

    /// The conversions `(attacker, victim)` of the last
    /// [`step_window`](Self::step_window) call, in order (only those inside
    /// the budget when it truncated).
    pub fn window_conversions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.log
            .iter()
            .filter(|&&code| code != REJECTED)
            .map(|&code| self.decode(code))
    }

    /// The window's box radius `w` and the bound `D̄ ≥ D` over every state
    /// whose live counts are within `±w` of the current ones.
    ///
    /// With `Σδ = 0` and `|δᵢ| ≤ w`, for any `m`,
    /// `Σ(cᵢ + δᵢ)² ≥ Σcᵢ² + 2Σ(cᵢ − m)δᵢ ≥ Σcᵢ² − 2w·Σ|cᵢ − m|`, so
    /// `D̄ = D + 2w·minₘ Σ|cᵢ − m|` (`m` over the live counts), capped at
    /// `n(n−1)`, which no `D` exceeds.
    fn window_box(&self, cross: u64) -> (u64, u64) {
        let live = || self.counts.iter().copied().filter(|&c| c > 0);
        let smallest = live().min().expect("a live walk has live species");
        let radius = (smallest / WINDOW_FRACTION).max(1);
        let spread = live()
            .map(|m| live().map(|c| c.abs_diff(m)).sum::<u64>())
            .min()
            .expect("a live walk has live species");
        let bound = cross
            .saturating_add(radius.saturating_mul(2 * spread))
            .min(self.n * (self.n - 1));
        (radius, bound)
    }

    /// The candidate loop for two species. One exact uniform draw `u` below
    /// `D̄` decides each candidate: `u < a·b` is an A-initiated conversion,
    /// `a·b ≤ u < 2a·b` a B-initiated one, anything above inert.
    fn window_two<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        bound: u64,
        zone: u64,
        radius: u64,
    ) -> u64 {
        let n = self.n;
        let start = self.counts[0];
        let (low, high) = (start.saturating_sub(radius), start + radius);
        let mut a = start;
        let mut conversions = 0;
        while self.log.len() < WINDOW_LOG {
            let u = uniform_below(rng, bound, zone);
            let pairs = a * (n - a);
            // Branch-free: the direction is a fair coin, which no branch
            // predictor can learn.
            let up = u < pairs;
            let down = !up & (u < 2 * pairs);
            a = a + up as u64 - down as u64;
            self.log
                .push(up as u32 * A_CONVERTS_B + down as u32 * B_CONVERTS_A);
            conversions += (up | down) as u64;
            if a < low || a > high || a == 0 || a == n {
                break;
            }
        }
        self.counts[0] = a;
        self.counts[1] = n - a;
        conversions
    }

    /// The candidate loop for `k ≥ 3` species: an accepted draw `u < D` is
    /// uniform below `D`, so it also picks the ordered pair `(i, j)` in
    /// proportion to `cᵢ·cⱼ`.
    fn window_k<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        bound: u64,
        zone: u64,
        radius: u64,
        mut cross: u64,
    ) -> u64 {
        let k = self.counts.len();
        let mut conversions = 0;
        while self.log.len() < WINDOW_LOG {
            let u = uniform_below(rng, bound, zone);
            if u >= cross {
                self.log.push(REJECTED);
                continue;
            }
            let (attacker, victim) = self.pick_pair(u);
            let (ca, cv) = (self.counts[attacker], self.counts[victim]);
            self.counts[attacker] = ca + 1;
            self.counts[victim] = cv - 1;
            // Σc² grows by (2cₐ + 1) + (1 − 2c_v).
            cross = cross.wrapping_add(2 * cv).wrapping_sub(2 * ca + 2);
            self.log.push((attacker * k + victim) as u32 + 1);
            conversions += 1;
            if cv == 1
                || self.counts[attacker] > self.start[attacker] + radius
                || self.counts[victim] + radius < self.start[victim]
            {
                break;
            }
        }
        conversions
    }

    /// The ordered species pair of cross pair number `u < D`: initiators
    /// `i` by weight `cᵢ(n − cᵢ)`, then responders `j ≠ i` by `cᵢ·cⱼ`.
    /// Branch-free: the index of the block holding `u` is the number of
    /// prefix sums at or below it, since the pair is a coin no branch
    /// predictor can learn.
    fn pick_pair(&self, u: u64) -> (usize, usize) {
        let n = self.n;
        let (mut end, mut below, mut attacker) = (0u64, 0u64, 0usize);
        for &c in &self.counts {
            let weight = c * (n - c);
            end += weight;
            let passed = (end <= u) as u64;
            below += weight * passed;
            attacker += passed as usize;
        }
        let rest = u - below;
        let ca = self.counts[attacker];
        let (mut end, mut victim) = (0u64, 0usize);
        for (j, &c) in self.counts.iter().enumerate() {
            end += ca * c * (j != attacker) as u64;
            victim += (end <= rest) as usize;
        }
        (attacker, victim)
    }

    /// The `(attacker, victim)` pair of a non-rejected log code.
    fn decode(&self, code: u32) -> (usize, usize) {
        let k = self.counts.len();
        let pair = (code - 1) as usize;
        (pair / k, pair % k)
    }
}

/// Log code of a rejected (inert) candidate; a conversion of species `j` by
/// species `i` is logged as `i·k + j + 1`.
const REJECTED: u32 = 0;
/// `(0, 1)`: an A initiator converts a B responder (`k = 2`).
const A_CONVERTS_B: u32 = 2;
/// `(1, 0)`: a B initiator converts an A responder (`k = 2`).
const B_CONVERTS_A: u32 = 3;

/// An exact uniform draw below `bound`: Lemire's widening multiply,
/// redrawing when the low word falls in the rejection zone
/// `(2⁶⁴ − bound) mod bound`, which the caller computes once per window.
#[inline]
pub(crate) fn uniform_below<R: Rng + ?Sized>(rng: &mut R, bound: u64, zone: u64) -> u64 {
    loop {
        let wide = (rng.next_u64() as u128) * (bound as u128);
        if wide as u64 >= zone {
            return (wide >> 64) as u64;
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
        // runs an exact thinning window.
        let mut walk = BridgedConversionWalk::new(&[999_980, 20]);
        assert_eq!(walk.try_block(&mut r, u64::MAX), None);
        assert!(matches!(
            walk.advance(&mut r, u64::MAX),
            BridgeStep::Window { .. }
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
            walk.step_window(&mut rng(9), u64::MAX)
        }));
        assert!(result.is_err(), "stepping an absorbed walk must panic");
    }
}
