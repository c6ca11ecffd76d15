//! The `StopCondition` combinators on the three CRN backends, which step
//! lv-crn's simulators through the engine's one run loop: `or`-composition,
//! the `max_events`/`max_time` interaction and predicate conditions must be
//! honored identically whichever simulator steps the run.

use lv_crn::{SpeciesId, State, StopCondition, StopReason};
use lv_engine::{backend, RunReport, Scenario};
use lv_lotka::{CompetitionKind, LvModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `stop` on every CRN backend over `model` from `initial` and returns
/// `(backend name, report)` for each.
fn run_all(
    model: LvModel,
    initial: (u64, u64),
    stop: &StopCondition,
    seed: u64,
) -> Vec<(&'static str, RunReport)> {
    let scenario = Scenario::new(model, initial).with_stop(stop.clone());
    ["jump-chain", "gillespie-direct", "tau-leaping"]
        .into_iter()
        .map(|name| {
            let report = backend(name)
                .unwrap()
                .run(&scenario, &mut StdRng::seed_from_u64(seed));
            (name, report)
        })
        .collect()
}

/// The self-destructive LV model with unit rates.
fn lv_model() -> LvModel {
    LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0)
}

/// Supercritical birth–death without competition (grows on average).
fn growth_model() -> LvModel {
    LvModel::no_competition(2.0, 1.0)
}

#[test]
fn or_composition_stops_every_simulator_at_the_first_met_condition() {
    // Consensus OR population explosion: each run must end with
    // `ConditionMet` and a final state satisfying the disjunction.
    let stop = StopCondition::any_species_extinct()
        .or(StopCondition::total_at_least(400))
        .with_max_events(10_000_000);
    for (name, report) in run_all(lv_model(), (60, 40), &stop, 1) {
        assert_eq!(report.reason, StopReason::ConditionMet, "{name}");
        let state = State::from(report.final_state.counts());
        assert!(
            state.any_extinct() || state.total() >= 400,
            "{name} stopped in {state} with neither condition met"
        );
        assert!(stop.is_met(&state), "{name} report contradicts is_met");
    }
}

#[test]
fn or_composition_takes_the_tighter_budget_on_every_simulator() {
    // `or` keeps the minimum of both event budgets: 40, not 5000.
    let a = StopCondition::any_species_extinct().with_max_events(5_000);
    let b = StopCondition::total_at_least(1_000_000).with_max_events(40);
    let stop = a.or(b);
    assert_eq!(stop.max_events(), Some(40));
    for (name, report) in run_all(lv_model(), (500, 500), &stop, 2) {
        assert_eq!(report.reason, StopReason::MaxEventsReached, "{name}");
        assert!(
            report.events >= 40,
            "{name} stopped after only {} events",
            report.events
        );
        if name != "tau-leaping" {
            // Exact simulators fire one reaction per step, so the budget is
            // exact; tau-leaping may overshoot within its final leap.
            assert_eq!(report.events, 40, "{name}");
        }
    }
}

#[test]
fn max_events_and_max_time_interact_first_budget_wins() {
    // Generous time, tight events: the event budget binds.
    let stop = StopCondition::never()
        .with_max_events(25)
        .with_max_time(1e9);
    for (name, report) in run_all(growth_model(), (100, 0), &stop, 3) {
        assert_eq!(report.reason, StopReason::MaxEventsReached, "{name}");
        assert!(report.truncated(), "{name}");
    }
    // Generous events, vanishing time: the time budget binds. (The jump
    // chain's clock counts events, so time 1e-9 < 1 stops it after its first
    // pre-step check; continuous simulators accumulate real waiting times.)
    let stop = StopCondition::never()
        .with_max_events(1_000_000)
        .with_max_time(1e-9);
    for (name, report) in run_all(growth_model(), (100, 0), &stop, 4) {
        assert_eq!(report.reason, StopReason::MaxTimeReached, "{name}");
        assert!(report.truncated(), "{name}");
        assert!(
            report.events <= 1,
            "{name} fired {} events before a 1e-9 time budget",
            report.events
        );
    }
}

#[test]
fn predicate_conditions_are_honored_by_every_simulator() {
    let threshold = 200u64;
    let stop =
        StopCondition::predicate(move |state: &State| state.count(SpeciesId::new(0)) >= threshold)
            .with_max_events(10_000_000);
    for (name, report) in run_all(growth_model(), (100, 0), &stop, 5) {
        assert_eq!(report.reason, StopReason::ConditionMet, "{name}");
        assert!(
            report.final_state.count(0) >= threshold,
            "{name} stopped below the predicate threshold at {:?}",
            report.final_state
        );
    }
}

#[test]
fn predicate_or_extinction_whichever_happens_first() {
    // Subcritical death-dominated populations: extinction wins the race
    // against an unreachable growth predicate, on every simulator.
    let stop = StopCondition::predicate(|state: &State| state.count(SpeciesId::new(0)) >= 10_000)
        .or(StopCondition::any_species_extinct())
        .with_max_events(1_000_000);
    for (name, report) in run_all(LvModel::no_competition(0.2, 2.0), (50, 50), &stop, 6) {
        assert_eq!(report.reason, StopReason::ConditionMet, "{name}");
        assert!(report.final_state.counts().contains(&0), "{name}");
    }
}

#[test]
fn never_with_budgets_only_truncates() {
    let stop = StopCondition::never().with_max_events(10);
    for (name, report) in run_all(lv_model(), (30, 30), &stop, 7) {
        assert!(
            report.truncated(),
            "{name} ended with {:?} instead of truncation",
            report.reason
        );
    }
}
