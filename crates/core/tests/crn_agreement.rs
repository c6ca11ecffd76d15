//! The specialised `LvJumpChain` must agree with the generic CRN jump chain
//! built from `LvModel::to_reaction_network` — same transition probabilities
//! state by state, and statistically indistinguishable outcomes.

use lv_crn::simulators::{JumpChain, StochasticSimulator};
use lv_crn::State;
use lv_lotka::{run_majority, CompetitionKind, LvConfiguration, LvJumpChain, LvModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Steps the generic jump chain from `(a, b)` until a species is extinct,
/// `max_events` events have fired, or it is absorbed.
fn generic_run(
    net: &lv_crn::ValidatedNetwork,
    (a, b): (u64, u64),
    max_events: u64,
    seed: u64,
) -> JumpChain<'_, StdRng> {
    let mut sim = JumpChain::new(net, State::from(vec![a, b]), rng(seed));
    while !sim.state().any_extinct() && sim.events() < max_events && sim.step().is_some() {}
    sim
}

#[test]
fn transition_probabilities_match_the_generic_crn() {
    for kind in [
        CompetitionKind::SelfDestructive,
        CompetitionKind::NonSelfDestructive,
    ] {
        let model = LvModel::with_intraspecific(kind, 1.2, 0.7, 0.9, 0.4);
        let net = model.to_reaction_network().unwrap();
        for (a, b) in [(1u64, 1u64), (5, 3), (12, 12), (40, 2)] {
            let fast = LvJumpChain::new(model, LvConfiguration::new(a, b));
            let total_fast: f64 = fast.transition_probabilities().iter().sum();
            let mut generic = JumpChain::new(&net, State::from(vec![a, b]), rng(0));
            let total_generic: f64 = generic.transition_probabilities().iter().sum();
            assert!((total_fast - 1.0).abs() < 1e-12);
            assert!((total_generic - 1.0).abs() < 1e-12);
            // Compare total propensities too (the normalising constants).
            let phi_fast = model.total_propensity(LvConfiguration::new(a, b));
            let phi_generic = lv_crn::total_propensity(&net, &State::from(vec![a, b]));
            assert!(
                (phi_fast - phi_generic).abs() < 1e-9,
                "{kind:?} ({a},{b}): {phi_fast} vs {phi_generic}"
            );
        }
    }
}

#[test]
fn majority_probability_agrees_between_fast_and_generic_simulators() {
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let net = model.to_reaction_network().unwrap();
    let (a, b) = (40u64, 25u64);
    let trials = 400u64;

    let mut wins_fast = 0u64;
    for t in 0..trials {
        let outcome = run_majority(&model, a, b, &mut rng(t), 1_000_000);
        if outcome.majority_won() {
            wins_fast += 1;
        }
    }
    let p_fast = wins_fast as f64 / trials as f64;

    let mut wins_generic = 0u64;
    for t in 0..trials {
        let sim = generic_run(&net, (a, b), 1_000_000, 10_000 + t);
        let counts = sim.state().counts();
        if counts[0] > 0 && counts[1] == 0 {
            wins_generic += 1;
        }
    }
    let p_generic = wins_generic as f64 / trials as f64;

    assert!(
        (p_fast - p_generic).abs() < 0.1,
        "fast {p_fast} vs generic {p_generic}"
    );
    assert!(p_fast > 0.6);
}

#[test]
fn consensus_time_distribution_agrees_between_simulators() {
    let model = LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 2.0);
    let net = model.to_reaction_network().unwrap();
    let (a, b) = (60u64, 40u64);
    let trials = 200u64;

    let mean_fast: f64 = (0..trials)
        .map(|t| run_majority(&model, a, b, &mut rng(t), 10_000_000).events as f64)
        .sum::<f64>()
        / trials as f64;

    let mean_generic: f64 = (0..trials)
        .map(|t| generic_run(&net, (a, b), 10_000_000, 20_000 + t).events() as f64)
        .sum::<f64>()
        / trials as f64;

    let relative = (mean_fast - mean_generic).abs() / mean_fast.max(mean_generic);
    assert!(
        relative < 0.15,
        "mean consensus time differs: fast {mean_fast}, generic {mean_generic}"
    );
}
