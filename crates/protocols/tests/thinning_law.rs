//! Law tests of the exact thinning windows: the conversion walk's
//! (`BridgedConversionWalk::step_window`), the kernel of the conversion
//! backends, and the counted engine's (`CountedSimulation::step_window`),
//! which the approximate-majority, exact-majority and annihilation backends
//! step by wherever they beat a batched epoch.
//!
//! The windows skip inert interactions by thinning and charge them in one
//! negative binomial draw per window, so they consume a different RNG stream
//! than a per-interaction stepper and agree with it only in law: the
//! proportional win laws `P(species i wins) = cᵢ/n` (99.9% Wilson
//! intervals), the exact mean absorption time `Σₓ G(a, x)/q(x)`, and, when
//! the event budget binds, the joint law of the final counts (two-sample χ²)
//! and of the interactions (two-sample Kolmogorov–Smirnov) against a
//! `CountedSimulation::step` loop. Every assertion holds a correct sampler
//! to a false-alarm rate of 10⁻³.

mod common;

use common::{ks_statistic, wilson};
use lv_protocols::{
    ApproximateMajority, BridgedConversionWalk, CountedDynamics, CountedSimulation,
    ExactMajority4State, SelfDestructiveLvProtocol,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Runs windows from `counts` until absorption or `budget` interactions;
/// returns the final counts and the interactions.
fn window_run(counts: &[u64], budget: u64, seed: u64) -> (Vec<u64>, u64) {
    let mut r = rng(seed);
    let mut walk = BridgedConversionWalk::new(counts);
    while !walk.is_absorbed() && walk.interactions() < budget {
        walk.step_window(&mut r, budget - walk.interactions());
    }
    assert!(walk.interactions() <= budget, "a window overran the budget");
    assert_eq!(walk.counts().iter().sum::<u64>(), walk.total());
    (walk.counts().to_vec(), walk.interactions())
}

/// The same run on the exact per-interaction stepper.
fn step_run(counts: &[u64], budget: u64, seed: u64) -> (Vec<u64>, u64) {
    let dynamics = CountedDynamics::k_opinion_czyzowicz(counts.len());
    let mut r = rng(seed);
    let mut sim = CountedSimulation::new(&dynamics, counts);
    while !sim.is_absorbed() && sim.interactions() < budget {
        sim.step(&mut r);
    }
    (sim.counts().to_vec(), sim.interactions())
}

/// Checks every species' win frequency against `cᵢ/n`.
fn assert_proportional_law(counts: &[u64], trials: u64, seed_base: u64) {
    let n: u64 = counts.iter().sum();
    let mut wins = vec![0u64; counts.len()];
    for seed in 0..trials {
        let (end, _) = window_run(counts, u64::MAX, seed_base + seed);
        let winner = end.iter().position(|&c| c == n).expect("absorbed");
        wins[winner] += 1;
    }
    for (species, (&won, &count)) in wins.iter().zip(counts).enumerate() {
        let (lo, hi) = wilson(won, trials, 3.29);
        let law = count as f64 / n as f64;
        assert!(
            lo <= law && law <= hi,
            "{counts:?}: species {species} won {won}/{trials}, 99.9% Wilson \
             [{lo:.4}, {hi:.4}] misses {law:.4}"
        );
    }
}

#[test]
fn two_species_win_rate_follows_the_proportional_law() {
    for (counts, trials, seed_base) in [
        ([32u64, 32], 4_000u64, 100_000u64),
        ([48, 16], 4_000, 200_000),
        ([61, 3], 4_000, 300_000),
        ([800, 200], 500, 400_000),
    ] {
        assert_proportional_law(&counts, trials, seed_base);
    }
}

#[test]
fn three_species_win_rates_follow_the_proportional_law() {
    assert_proportional_law(&[45, 27, 18], 3_000, 500_000);
    assert_proportional_law(&[500, 300, 200], 300, 600_000);
}

#[test]
fn mean_interactions_match_the_exact_absorption_time() {
    // Two species: the A-count is a ±1 walk on conversions that visits x
    // G(a, x) = 2·min(a, x)·(n − max(a, x))/n times on average, each visit
    // waiting 1/q(x) interactions, q(x) = 2x(n − x)/(n(n − 1)). The budget
    // never binds.
    for (a, n, trials, seed_base) in [
        (32u64, 64u64, 4_000u64, 700_000u64),
        (56, 64, 4_000, 800_000),
        (800, 1_000, 400, 900_000),
    ] {
        let exact: f64 = (1..n)
            .map(|x| {
                let visits = 2.0 * a.min(x) as f64 * (n - a.max(x)) as f64 / n as f64;
                let q = 2.0 * x as f64 * (n - x) as f64 / (n as f64 * (n - 1) as f64);
                visits / q
            })
            .sum();
        let times: Vec<f64> = (0..trials)
            .map(|seed| window_run(&[a, n - a], u64::MAX, seed_base + seed).1 as f64)
            .collect();
        let mean = times.iter().sum::<f64>() / trials as f64;
        let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
        let z = (mean - exact) / (var / trials as f64).sqrt();
        assert!(
            z.abs() < 4.0,
            "({a}, {}): mean interactions {mean:.0} vs exact {exact:.0} (z = {z:.2})",
            n - a
        );
    }
}

/// The 99.9% quantile of χ² with `dof` degrees of freedom
/// (Wilson–Hilferty).
fn chi2_999(dof: usize) -> f64 {
    let d = dof as f64;
    let h = 2.0 / (9.0 * d);
    d * (1.0 - h + 3.09 * h.sqrt()).powi(3)
}

/// Two-sample χ² between two equally sized samples of final count vectors,
/// pooling the cells with fewer than 10 observations between them.
fn two_sample_chi2(x: &[Vec<u64>], y: &[Vec<u64>]) -> (f64, usize) {
    let mut cells: BTreeMap<&[u64], (u64, u64)> = BTreeMap::new();
    for counts in x {
        cells.entry(counts).or_default().0 += 1;
    }
    for counts in y {
        cells.entry(counts).or_default().1 += 1;
    }
    let (mut pooled, mut chi2, mut dof) = ((0u64, 0u64), 0.0, 0usize);
    let mut add = |(a, b): (u64, u64)| {
        chi2 += (a as f64 - b as f64).powi(2) / (a + b) as f64;
        dof += 1;
    };
    for &(a, b) in cells.values() {
        if a + b >= 10 {
            add((a, b));
        } else {
            pooled = (pooled.0 + a, pooled.1 + b);
        }
    }
    if pooled.0 + pooled.1 > 0 {
        add(pooled);
    }
    (chi2, dof - 1)
}

#[test]
fn budget_bound_runs_match_the_step_loop_in_law() {
    // Budgets near the median absorption time, so about half the runs are
    // cut: the final counts then come from the hypergeometric placement of
    // the budget inside a window and the replay of its log.
    for (counts, budget, trials) in [
        (vec![14u64, 10], 350u64, 4_000u64),
        (vec![9, 6, 5], 180, 4_000),
    ] {
        let mut windows: Vec<(Vec<u64>, u64)> = (0..trials)
            .map(|seed| window_run(&counts, budget, 1_000_000 + seed))
            .collect();
        let mut steps: Vec<(Vec<u64>, u64)> = (0..trials)
            .map(|seed| step_run(&counts, budget, 2_000_000 + seed))
            .collect();
        let cut = windows.iter().filter(|(_, t)| *t == budget).count() as u64;
        assert!(
            cut > trials / 5 && cut < trials * 4 / 5,
            "{counts:?}: the budget binds in {cut} of {trials} runs"
        );
        let ends = |runs: &[(Vec<u64>, u64)]| runs.iter().map(|r| r.0.clone()).collect::<Vec<_>>();
        let (chi2, dof) = two_sample_chi2(&ends(&windows), &ends(&steps));
        assert!(
            chi2 < chi2_999(dof),
            "{counts:?}: final counts χ² = {chi2:.1} over {dof} dof (99.9% {:.1})",
            chi2_999(dof)
        );
        let mut xs: Vec<u64> = windows.iter_mut().map(|r| r.1).collect();
        let mut ys: Vec<u64> = steps.iter_mut().map(|r| r.1).collect();
        let d = ks_statistic(&mut xs, &mut ys);
        // The α = 0.001 two-sample threshold is 1.95·√(2/trials).
        let bound = 1.95 * (2.0 / trials as f64).sqrt();
        assert!(
            d <= bound,
            "{counts:?}: interactions KS distance {d:.4} > {bound:.4}"
        );
    }
}

/// Runs compiled dynamics from `counts` until absorption or `budget`
/// interactions, by counted thinning windows or by single steps; returns
/// the final state counts and the interactions.
fn counted_run(
    dynamics: &CountedDynamics,
    counts: &[u64],
    budget: u64,
    seed: u64,
    windows: bool,
) -> (Vec<u64>, u64) {
    let mut r = rng(seed);
    let mut sim = CountedSimulation::new(dynamics, counts);
    while !sim.is_absorbed() && sim.interactions() < budget {
        if windows {
            sim.step_window(&mut r, budget - sim.interactions());
        } else {
            sim.step(&mut r);
        }
    }
    assert!(sim.interactions() <= budget, "a window overran the budget");
    (sim.counts().to_vec(), sim.interactions())
}

#[test]
fn counted_windows_match_the_step_loop_in_law() {
    // Budgets at the step loop's median absorption time, so about half the
    // runs are cut inside a window. Final state counts: two-sample χ² at
    // its 99.9% quantile; interactions: two-sample KS at α = 10⁻³.
    let cases = [
        (
            "approx-majority",
            CountedDynamics::from_protocol(&ApproximateMajority::new()),
            vec![14u64, 10],
            200u64,
        ),
        (
            "exact-majority",
            CountedDynamics::from_protocol(&ExactMajority4State::new()),
            vec![9, 6],
            113,
        ),
        (
            "annihilation-lv",
            CountedDynamics::from_protocol(&SelfDestructiveLvProtocol::new()),
            vec![12, 9],
            97,
        ),
    ];
    let trials = 4_000u64;
    for (name, dynamics, counts, budget) in cases {
        let mut windows: Vec<(Vec<u64>, u64)> = (0..trials)
            .map(|seed| counted_run(&dynamics, &counts, budget, 3_000_000 + seed, true))
            .collect();
        let mut steps: Vec<(Vec<u64>, u64)> = (0..trials)
            .map(|seed| counted_run(&dynamics, &counts, budget, 4_000_000 + seed, false))
            .collect();
        let cut = windows.iter().filter(|(_, t)| *t == budget).count() as u64;
        assert!(
            cut > trials / 5 && cut < trials * 4 / 5,
            "{name}: the budget binds in {cut} of {trials} runs"
        );
        let ends = |runs: &[(Vec<u64>, u64)]| runs.iter().map(|r| r.0.clone()).collect::<Vec<_>>();
        let (chi2, dof) = two_sample_chi2(&ends(&windows), &ends(&steps));
        assert!(
            chi2 < chi2_999(dof),
            "{name}: final counts χ² = {chi2:.1} over {dof} dof (99.9% {:.1})",
            chi2_999(dof)
        );
        let mut xs: Vec<u64> = windows.iter_mut().map(|r| r.1).collect();
        let mut ys: Vec<u64> = steps.iter_mut().map(|r| r.1).collect();
        let d = ks_statistic(&mut xs, &mut ys);
        let bound = 1.95 * (2.0 / trials as f64).sqrt();
        assert!(
            d <= bound,
            "{name}: interactions KS distance {d:.4} > {bound:.4}"
        );
    }
}

#[test]
fn counted_windows_decide_approximate_majority_like_the_step_loop() {
    // Unbudgeted runs to absorption at a population where one window holds
    // thousands of candidates: the win frequencies of windows and of the
    // step loop must agree (two-sample z at 3.29, α = 10⁻³).
    let dynamics = CountedDynamics::from_protocol(&ApproximateMajority::new());
    let counts = [262u64, 238];
    let trials = 1_500u64;
    let wins = |windows: bool, base: u64| {
        (0..trials)
            .filter(|&seed| {
                let (end, _) = counted_run(&dynamics, &counts, u64::MAX, base + seed, windows);
                end[0] == 500
            })
            .count() as u64
    };
    let (window_wins, step_wins) = (wins(true, 5_000_000), wins(false, 6_000_000));
    let (p, q) = (
        window_wins as f64 / trials as f64,
        step_wins as f64 / trials as f64,
    );
    let pooled = (p + q) / 2.0;
    let se = (2.0 * pooled * (1.0 - pooled) / trials as f64).sqrt();
    assert!(
        (p - q).abs() <= 3.29 * se,
        "windows won {p:.4}, the step loop {q:.4} (z = {:.2})",
        (p - q) / se
    );
}

#[test]
fn windows_conserve_agents_and_log_their_conversions() {
    let mut r = rng(17);
    for counts in [vec![600u64, 400], vec![50, 30, 20, 1]] {
        let mut walk = BridgedConversionWalk::new(&counts);
        while !walk.is_absorbed() {
            let before = walk.counts().to_vec();
            let step = walk.step_window(&mut r, u64::MAX);
            let mut replayed = before;
            let mut conversions = 0;
            for (attacker, victim) in walk.window_conversions() {
                assert_ne!(attacker, victim);
                replayed[attacker] += 1;
                replayed[victim] -= 1;
                conversions += 1;
            }
            assert_eq!(replayed, walk.counts(), "the log replays the window");
            match step {
                lv_protocols::BridgeStep::Window {
                    fired,
                    conversions: c,
                } => {
                    assert_eq!(c, conversions);
                    assert!(fired >= c);
                }
                other => panic!("an unbudgeted window returned {other:?}"),
            }
        }
    }
}
