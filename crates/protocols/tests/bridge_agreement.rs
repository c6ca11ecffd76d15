//! Distributional cross-validation of the diffusion-bridged first-passage
//! sampler against the exact counted stepper.
//!
//! Bridging replaces both the RNG stream and the per-interaction resolution,
//! so the contract is *statistical* agreement with the exact dynamics: the
//! win probability must follow the proportional law `P(A wins) = a/n`
//! (checked through Wilson 95% intervals), and the first-passage-time law —
//! the total interaction count at absorption, the quantity the CLT clock
//! reconstructs — must agree with the exact counted stepper's under a
//! two-sample Kolmogorov–Smirnov bound at `n ∈ {64, 256, 1024}`.
//! Conservation, in-band exactness and budget honesty are property-tested
//! over random configurations.

mod common;

use common::{ks_statistic, wilson};
use lv_protocols::bridge::MIN_BLOCK;
use lv_protocols::{BridgeStep, BridgedConversionWalk, CountedDynamics, CountedSimulation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Runs one bridged trial to absorption; returns (A won, interactions).
fn bridged_run(a: u64, b: u64, seed: u64) -> (bool, u64) {
    let mut r = rng(seed);
    let mut walk = BridgedConversionWalk::new(&[a, b]);
    while !walk.is_absorbed() {
        walk.advance(&mut r, u64::MAX);
    }
    (walk.counts()[0] > 0, walk.interactions())
}

/// Runs one exact counted trial (batched epochs, exact in distribution) to
/// absorption; returns (A won, interactions).
fn counted_run(dynamics: &CountedDynamics, a: u64, b: u64, seed: u64) -> (bool, u64) {
    let mut r = rng(seed);
    let mut sim = CountedSimulation::new(dynamics, &[a, b]);
    while !sim.is_absorbed() {
        if sim.step_epoch(&mut r, u64::MAX).is_none() {
            sim.step(&mut r);
        }
    }
    (sim.counts()[0] > 0, sim.interactions())
}

#[test]
fn bridged_win_probability_sits_in_the_wilson_interval_of_the_proportional_law() {
    // P(A wins) = a/n exactly for the conversion dynamics; the bridged
    // sampler must keep each empirical Wilson interval on the law. Three
    // starts share a 10⁻³ family false-alarm rate (Bonferroni: z = 3.59 per
    // start), and 2 700 trials per start keep each interval no wider than a
    // 95% one over 800 trials: (3.59 / 1.96)² × 800 ≈ 2 700.
    for (a, n, seed_base) in [
        (512u64, 1_024u64, 10_000u64), // tie: blocks do all the work
        (768, 1_024, 20_000),          // 3:1, mixed block/band regime
        (992, 1_024, 30_000),          // near-boundary start
    ] {
        let trials = 2_700u64;
        let wins = (0..trials)
            .filter(|&seed| bridged_run(a, n - a, seed_base + seed).0)
            .count() as u64;
        let (lo, hi) = wilson(wins, trials, 3.59);
        let law = a as f64 / n as f64;
        assert!(
            lo <= law && law <= hi,
            "start ({a}, {}): Wilson z = 3.59 [{lo:.4}, {hi:.4}] misses a/n = {law:.4}",
            n - a
        );
    }
}

#[test]
fn first_passage_times_match_the_exact_stepper_in_ks_distance() {
    // The interaction clock is the only approximated observable at k = 2
    // (displacement bridging is exact), so the absorption-time law is the
    // sharp test. n = 64 stays entirely in the boundary-exact band, n = 256
    // mixes regimes and n = 1024 is block-dominated.
    let dynamics = CountedDynamics::k_opinion_czyzowicz(2);
    for (n, trials, bound) in [
        (64u64, 400usize, 0.15f64),
        (256, 300, 0.17),
        (1_024, 200, 0.2),
    ] {
        let a = 3 * n / 4;
        let mut bridged: Vec<u64> = (0..trials)
            .map(|seed| bridged_run(a, n - a, 40_000 + seed as u64).1)
            .collect();
        let mut exact: Vec<u64> = (0..trials)
            .map(|seed| counted_run(&dynamics, a, n - a, 50_000 + seed as u64).1)
            .collect();
        let d = ks_statistic(&mut bridged, &mut exact);
        // The α = 0.01 two-sample threshold is 1.63·√(2/trials); the bounds
        // above sit at or above it, leaving room for the CLT clock's
        // small-sample bias without masking a broken clock (which shifts
        // the whole distribution and pushes D towards 1).
        assert!(
            d <= bound,
            "n = {n}: KS distance {d:.3} > {bound} between bridged and exact FPT laws"
        );
    }
}

#[test]
fn k_opinion_bridged_runs_follow_the_k_species_proportional_law() {
    // Per-pair bridging must preserve the k-species proportional law
    // P(species m wins) = c_m/n: species 0 holds half the agents. A 99.9%
    // interval over 2 400 trials is narrower than a 95% one over 600 and
    // fails a correct sampler once in a thousand streams, not once in
    // twenty.
    let trials = 2_400u64;
    let wins = (0..trials)
        .filter(|&seed| {
            let mut r = rng(60_000 + seed);
            let mut walk = BridgedConversionWalk::new(&[1_500, 750, 750]);
            while !walk.is_absorbed() {
                walk.advance(&mut r, u64::MAX);
            }
            walk.counts()[0] > 0
        })
        .count() as u64;
    let (lo, hi) = wilson(wins, trials, 3.29);
    assert!(
        lo <= 0.5 && 0.5 <= hi,
        "Wilson 99.9% [{lo:.4}, {hi:.4}] misses the 0.5 proportional law"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bridged advances conserve the population, keep every count within
    /// `[0, n]` and never absorb inside a block (a block endpoint on the
    /// boundary is rejected, so absorption always happens in an exact
    /// thinning window).
    #[test]
    fn bridged_walks_conserve_and_absorb_only_on_exact_steps(
        counts in proptest::collection::vec(1u64..30_000, 2..5),
        seed in 0u64..1_000_000,
    ) {
        let n: u64 = counts.iter().sum();
        prop_assume!(n >= 2);
        let mut walk = BridgedConversionWalk::new(&counts);
        let mut r = rng(seed);
        for _ in 0..200 {
            if walk.is_absorbed() {
                break;
            }
            let step = walk.advance(&mut r, u64::MAX);
            prop_assert_eq!(walk.counts().iter().sum::<u64>(), n);
            prop_assert!(walk.counts().iter().all(|&c| c <= n));
            if matches!(step, BridgeStep::Block { .. }) {
                prop_assert!(
                    !walk.is_absorbed(),
                    "a bridged block crossed the boundary: {:?}",
                    walk.counts()
                );
            }
        }
    }

    /// Inside the boundary-proximity band (`min count < √MIN_BLOCK·BAND`,
    /// conservatively `min count ≤ 32` here) blocks always refuse, so every
    /// step near absorption is exact.
    #[test]
    fn blocks_refuse_inside_the_band(
        minority in 1u64..=32,
        seed in 0u64..1_000_000,
    ) {
        let n = 100_000u64;
        let mut walk = BridgedConversionWalk::new(&[n - minority, minority]);
        // d = minority ≤ 32 ⟹ band bound ≈ d²/BAND² ≤ 10.2 < MIN_BLOCK.
        prop_assert!(minority * minority / 100 < MIN_BLOCK);
        prop_assert_eq!(walk.try_block(&mut rng(seed), u64::MAX), None);
    }

    /// One advance never consumes more than the budget, and a truncated
    /// advance consumes *exactly* the budget while freezing the state.
    #[test]
    fn advances_respect_the_interaction_budget_exactly(
        a in 1u64..50_000,
        b in 1u64..50_000,
        budget in 1u64..10_000,
        seed in 0u64..1_000_000,
    ) {
        let mut walk = BridgedConversionWalk::new(&[a, b]);
        let before = walk.counts().to_vec();
        let step = walk.advance(&mut rng(seed), budget);
        prop_assert!(step.fired() <= budget, "{step:?} overran budget {budget}");
        prop_assert_eq!(walk.interactions(), step.fired());
        if let BridgeStep::Truncated { fired } = step {
            prop_assert_eq!(fired, budget, "truncation must consume the budget");
            prop_assert_eq!(walk.counts(), &before[..], "truncation froze the state");
        }
    }
}
