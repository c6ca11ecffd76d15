//! Distributional cross-validation of the count-based steppers against the
//! agent-list stepper.
//!
//! Batching replaces the RNG stream, so the contract is *statistical* — not
//! bit-exact — agreement: at equal configurations, the agent-list stepper,
//! the exact counted single-stepper and the batched counted stepper must
//! induce the same outcome distribution (total-variation bound over fixed
//! seed sets) and compatible interaction counts. Conservation invariants are
//! property-tested over random configurations.

use lv_protocols::{
    ApproximateMajority, CountedDynamics, CountedSimulation, CzyzowiczLvProtocol,
    EnumerableProtocol, ExactMajority4State, PopulationProtocol, ProtocolSimulation,
    SelfDestructiveLvProtocol,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of one run: committed-A win, committed-B win, or no decision
/// within the interaction budget (deadlock or truncation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunOutcome {
    AWins,
    BWins,
    Undecided,
}

/// Runs the agent-list stepper until a committed count hits zero (the engine
/// backends' stop criterion) or the budget is exhausted.
fn agent_list_run<P: PopulationProtocol>(
    protocol: &P,
    a: u64,
    b: u64,
    seed: u64,
    budget: u64,
) -> (RunOutcome, u64) {
    let mut sim = ProtocolSimulation::new(protocol, a, b);
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let (x, y) = sim.opinion_counts();
        if y == 0 && x > 0 {
            return (RunOutcome::AWins, sim.interactions());
        }
        if x == 0 && y > 0 {
            return (RunOutcome::BWins, sim.interactions());
        }
        if (x == 0 && y == 0) || sim.interactions() >= budget {
            return (RunOutcome::Undecided, sim.interactions());
        }
        sim.step(&mut rng);
    }
}

/// How a counted run steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stepper {
    /// `CountedSimulation::step`.
    Single,
    /// Birthday-bound epochs, single steps where one would overrun the
    /// budget.
    Batched,
    /// Exact thinning windows.
    Windowed,
}

/// Runs a counted simulation with the same stop criterion.
fn counted_run(
    dynamics: &CountedDynamics,
    a: u64,
    b: u64,
    seed: u64,
    budget: u64,
    stepper: Stepper,
) -> (RunOutcome, u64) {
    let mut sim = CountedSimulation::new(dynamics, &[a, b]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opinions = [0u64; 2];
    loop {
        sim.opinion_counts_into(&mut opinions);
        let [x, y] = opinions;
        if y == 0 && x > 0 {
            return (RunOutcome::AWins, sim.interactions());
        }
        if x == 0 && y > 0 {
            return (RunOutcome::BWins, sim.interactions());
        }
        if (x == 0 && y == 0) || sim.interactions() >= budget || sim.is_absorbed() {
            return (RunOutcome::Undecided, sim.interactions());
        }
        let remaining = budget - sim.interactions();
        match stepper {
            Stepper::Windowed => {
                sim.step_window(&mut rng, remaining);
            }
            Stepper::Batched if sim.step_epoch(&mut rng, remaining).is_some() => {}
            _ => {
                sim.step(&mut rng);
            }
        }
    }
}

/// Outcome frequencies and mean interactions over `trials` seeded runs.
fn frequencies(mut run: impl FnMut(u64) -> (RunOutcome, u64), trials: u64) -> ([f64; 3], f64) {
    let mut counts = [0u64; 3];
    let mut interactions = 0u64;
    for seed in 0..trials {
        let (outcome, steps) = run(seed);
        let slot = match outcome {
            RunOutcome::AWins => 0,
            RunOutcome::BWins => 1,
            RunOutcome::Undecided => 2,
        };
        counts[slot] += 1;
        interactions += steps;
    }
    (
        counts.map(|c| c as f64 / trials as f64),
        interactions as f64 / trials as f64,
    )
}

fn total_variation(p: &[f64; 3], q: &[f64; 3]) -> f64 {
    p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0
}

/// One cross-validation: agent-list vs counted single-step vs counted
/// batched vs counted windowed, on outcome frequencies (TVD) and mean
/// interaction counts.
fn cross_validate<P: EnumerableProtocol>(
    protocol: &P,
    name: &str,
    a: u64,
    b: u64,
    budget: u64,
    trials: u64,
    tvd_bound: f64,
) {
    let dynamics = CountedDynamics::from_protocol(protocol);
    let (agent_freq, agent_mean) =
        frequencies(|seed| agent_list_run(protocol, a, b, seed, budget), trials);
    let (single_freq, single_mean) = frequencies(
        |seed| counted_run(&dynamics, a, b, 1_000_000 + seed, budget, Stepper::Single),
        trials,
    );
    let (batch_freq, batch_mean) = frequencies(
        |seed| counted_run(&dynamics, a, b, 2_000_000 + seed, budget, Stepper::Batched),
        trials,
    );
    let (window_freq, window_mean) = frequencies(
        |seed| counted_run(&dynamics, a, b, 3_000_000 + seed, budget, Stepper::Windowed),
        trials,
    );
    for (other, freq) in [
        ("counted", &single_freq),
        ("batched", &batch_freq),
        ("windowed", &window_freq),
    ] {
        let tvd = total_variation(&agent_freq, freq);
        assert!(
            tvd <= tvd_bound,
            "{name}: agent-list {agent_freq:?} vs {other} {freq:?}, TVD {tvd:.4} > {tvd_bound}"
        );
    }
    // Interaction counts agree up to sampling noise plus the ≤ one-epoch
    // (Θ(√n)) absorption-detection overshoot of the batched mode (windows
    // end exactly where a committed count empties).
    for (other, mean) in [
        ("counted", single_mean),
        ("batched", batch_mean),
        ("windowed", window_mean),
    ] {
        assert!(
            (mean - agent_mean).abs() <= 0.15 * agent_mean.max(1.0),
            "{name}: mean interactions agent-list {agent_mean:.1} vs {other} {mean:.1}"
        );
    }
}

#[test]
fn approximate_majority_steppers_agree() {
    cross_validate(
        &ApproximateMajority::new(),
        "approx",
        55,
        45,
        60_000,
        1_200,
        0.07,
    );
}

#[test]
fn czyzowicz_steppers_agree() {
    cross_validate(
        &CzyzowiczLvProtocol::new(),
        "czyzowicz",
        60,
        40,
        200_000,
        1_000,
        0.08,
    );
}

#[test]
fn exact_majority_steppers_agree() {
    cross_validate(
        &ExactMajority4State::new(),
        "exact",
        36,
        18,
        200_000,
        400,
        0.10,
    );
}

#[test]
fn self_destructive_steppers_agree() {
    cross_validate(
        &SelfDestructiveLvProtocol::new(),
        "self-destructive",
        54,
        46,
        60_000,
        1_200,
        0.07,
    );
}

#[test]
fn k2_czyzowicz_dynamics_follow_the_proportional_law_batched() {
    // The k-opinion table at k = 2 is the Czyzowicz protocol; batched runs
    // must reproduce the exact proportional law P(A wins) = a/n.
    let dynamics = CountedDynamics::k_opinion_czyzowicz(2);
    let trials = 1_200;
    let (freq, _) = frequencies(
        |seed| counted_run(&dynamics, 150, 50, seed, 50_000_000, Stepper::Batched),
        trials,
    );
    assert!(freq[2] < 0.01, "runs truncated: {freq:?}");
    assert!(
        (freq[0] - 0.75).abs() < 0.05,
        "A won {} of batched runs, proportional law says 0.75",
        freq[0]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched epochs conserve the population and never overdraw a state
    /// count, for every compiled protocol over random configurations.
    #[test]
    fn epochs_conserve_the_population(
        a in 1u64..500,
        b in 1u64..500,
        which in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let dynamics = match which {
            0 => CountedDynamics::from_protocol(&ApproximateMajority::new()),
            1 => CountedDynamics::from_protocol(&CzyzowiczLvProtocol::new()),
            2 => CountedDynamics::from_protocol(&ExactMajority4State::new()),
            _ => CountedDynamics::from_protocol(&SelfDestructiveLvProtocol::new()),
        };
        let n = a + b;
        prop_assume!(n >= 2);
        let mut sim = CountedSimulation::new(&dynamics, &[a, b]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fired_total = 0u64;
        for _ in 0..12 {
            if sim.is_absorbed() {
                break;
            }
            if let Some(fired) = sim.step_epoch(&mut rng, u64::MAX) {
                prop_assert!(fired >= 2);
                fired_total += fired;
            }
            let total: u64 = sim.counts().iter().sum();
            prop_assert_eq!(total, n, "population changed");
            prop_assert!(sim.counts().iter().all(|&c| c <= n));
            let opinions = sim.opinion_counts();
            prop_assert!(opinions.iter().sum::<u64>() <= n);
        }
        prop_assert_eq!(sim.interactions(), fired_total);
    }

    /// The k-opinion Czyzowicz dynamics conserve every agent across epochs
    /// for random k-species configurations.
    #[test]
    fn k_opinion_epochs_conserve_the_population(
        counts in proptest::collection::vec(0u64..300, 2..6),
        seed in 0u64..1_000_000,
    ) {
        let k = counts.len();
        let n: u64 = counts.iter().sum();
        prop_assume!(n >= 2);
        let dynamics = CountedDynamics::k_opinion_czyzowicz(k);
        let mut sim = CountedSimulation::new(&dynamics, &counts);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..12 {
            if sim.is_absorbed() {
                break;
            }
            if sim.step_epoch(&mut rng, u64::MAX).is_none() {
                sim.step(&mut rng);
            }
            let total: u64 = sim.counts().iter().sum();
            prop_assert_eq!(total, n, "conversions must conserve agents");
            // Opinion counts and state counts coincide for these dynamics.
            prop_assert_eq!(sim.opinion_counts(), sim.counts().to_vec());
        }
    }
}
