//! Integration coverage for the `StopCondition` combinators across *all three*
//! stochastic simulators: `or`-composition, the `max_events`/`max_time`
//! interaction, and predicate conditions must be honored identically no
//! matter which simulator drives the run.

use lv_crn::prelude::*;
use lv_crn::{RunOutcome, SpeciesId, StopCondition, StopReason};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Two-species self-destructive LV network with unit rates.
fn lv_network() -> ValidatedNetwork {
    let mut net = ReactionNetwork::new();
    let x0 = net.add_species("X0");
    let x1 = net.add_species("X1");
    for (a, b) in [(x0, x1), (x1, x0)] {
        net.add_reaction(Reaction::new(1.0).reactant(a, 1).product(a, 2));
        net.add_reaction(Reaction::new(1.0).reactant(a, 1));
        net.add_reaction(Reaction::new(1.0).reactant(a, 1).reactant(b, 1));
    }
    net.validate().unwrap()
}

/// Supercritical single-species birth–death network (grows on average).
fn growth_network() -> ValidatedNetwork {
    let mut net = ReactionNetwork::new();
    let a = net.add_species("A");
    net.add_reaction(Reaction::new(2.0).reactant(a, 1).product(a, 2));
    net.add_reaction(Reaction::new(1.0).reactant(a, 1));
    net.validate().unwrap()
}

/// Runs `stop` on every simulator over `network` from `initial` and returns
/// `(simulator name, outcome)` for each.
fn run_all(
    network: &ValidatedNetwork,
    initial: &[u64],
    stop: &StopCondition,
    seed: u64,
) -> Vec<(&'static str, RunOutcome)> {
    let state = || State::from(initial.to_vec());
    vec![
        (
            "jump-chain",
            JumpChain::new(network, state(), rng(seed)).run(stop),
        ),
        (
            "gillespie-direct",
            GillespieDirect::new(network, state(), rng(seed)).run(stop),
        ),
        (
            "tau-leaping",
            TauLeaping::new(network, state(), 1e-3, rng(seed)).run(stop),
        ),
    ]
}

#[test]
fn or_composition_stops_every_simulator_at_the_first_met_condition() {
    // Consensus OR population explosion: each simulator must terminate with
    // `ConditionMet` and a final state satisfying the disjunction.
    let network = lv_network();
    let stop = StopCondition::any_species_extinct()
        .or(StopCondition::total_at_least(400))
        .with_max_events(10_000_000);
    for (name, outcome) in run_all(&network, &[60, 40], &stop, 1) {
        assert_eq!(outcome.reason, StopReason::ConditionMet, "{name}");
        let state = &outcome.final_state;
        assert!(
            state.any_extinct() || state.total() >= 400,
            "{name} stopped in {state} with neither condition met"
        );
        assert!(stop.is_met(state), "{name} outcome contradicts is_met");
    }
}

#[test]
fn or_composition_takes_the_tighter_budget_on_every_simulator() {
    // `or` keeps the minimum of both event budgets: 40, not 5000.
    let network = lv_network();
    let a = StopCondition::any_species_extinct().with_max_events(5_000);
    let b = StopCondition::total_at_least(1_000_000).with_max_events(40);
    let stop = a.or(b);
    assert_eq!(stop.max_events(), Some(40));
    for (name, outcome) in run_all(&network, &[500, 500], &stop, 2) {
        assert_eq!(outcome.reason, StopReason::MaxEventsReached, "{name}");
        assert!(
            outcome.events >= 40,
            "{name} stopped after only {} events",
            outcome.events
        );
        if name != "tau-leaping" {
            // Exact simulators fire one reaction per step, so the budget is
            // exact; tau-leaping may overshoot within its final leap.
            assert_eq!(outcome.events, 40, "{name}");
        }
    }
}

#[test]
fn max_events_and_max_time_interact_first_budget_wins() {
    let network = growth_network();
    // Generous time, tight events: the event budget binds.
    let stop = StopCondition::never()
        .with_max_events(25)
        .with_max_time(1e9);
    for (name, outcome) in run_all(&network, &[100], &stop, 3) {
        assert_eq!(outcome.reason, StopReason::MaxEventsReached, "{name}");
        assert!(outcome.truncated(), "{name}");
    }
    // Generous events, vanishing time: the time budget binds. (The jump
    // chain's clock counts events, so time 1e-9 < 1 stops it after its first
    // pre-step check; continuous simulators accumulate real waiting times.)
    let stop = StopCondition::never()
        .with_max_events(1_000_000)
        .with_max_time(1e-9);
    for (name, outcome) in run_all(&network, &[100], &stop, 4) {
        assert_eq!(outcome.reason, StopReason::MaxTimeReached, "{name}");
        assert!(outcome.truncated(), "{name}");
        assert!(
            outcome.events <= 1,
            "{name} fired {} events before a 1e-9 time budget",
            outcome.events
        );
    }
}

#[test]
fn predicate_conditions_are_honored_by_every_simulator() {
    let network = growth_network();
    let threshold = 200u64;
    let stop =
        StopCondition::predicate(move |state: &State| state.count(SpeciesId::new(0)) >= threshold)
            .with_max_events(10_000_000);
    for (name, outcome) in run_all(&network, &[100], &stop, 5) {
        assert_eq!(outcome.reason, StopReason::ConditionMet, "{name}");
        assert!(
            outcome.final_state.count(SpeciesId::new(0)) >= threshold,
            "{name} stopped below the predicate threshold at {}",
            outcome.final_state
        );
    }
}

#[test]
fn predicate_or_extinction_whichever_happens_first() {
    // Subcritical death-dominated network: extinction wins the race against
    // an unreachable growth predicate, on every simulator.
    let mut net = ReactionNetwork::new();
    let a = net.add_species("A");
    net.add_reaction(Reaction::new(0.2).reactant(a, 1).product(a, 2));
    net.add_reaction(Reaction::new(2.0).reactant(a, 1));
    let network = net.validate().unwrap();
    let stop = StopCondition::predicate(|state: &State| state.count(SpeciesId::new(0)) >= 10_000)
        .or(StopCondition::any_species_extinct())
        .with_max_events(1_000_000);
    for (name, outcome) in run_all(&network, &[50], &stop, 6) {
        assert_eq!(outcome.reason, StopReason::ConditionMet, "{name}");
        assert!(outcome.final_state.any_extinct(), "{name}");
    }
}

#[test]
fn never_with_budgets_only_truncates() {
    let network = lv_network();
    let stop = StopCondition::never().with_max_events(10);
    for (name, outcome) in run_all(&network, &[30, 30], &stop, 7) {
        assert!(
            outcome.truncated(),
            "{name} ended with {:?} instead of truncation",
            outcome.reason
        );
    }
}
