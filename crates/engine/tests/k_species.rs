//! `k`-species engine tests: the acceptance end-to-end run on every
//! Lotka–Volterra backend, property-based invariants across backends and
//! species counts, and the regression pinning the two-species jump-chain
//! path bit-identical to the pre-refactor `run_majority` loop.

use lv_engine::{backend, BackendRegistry, ObserverSpec, Scenario};
use lv_lotka::{run_majority_with_trajectory, CompetitionKind, LvModel, MultiLvModel, Population};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Acceptance criterion: a k = 3 scenario runs end-to-end on every LV
/// backend via `Scenario` and yields a `PluralityOutcome`.
#[test]
fn k3_scenario_runs_end_to_end_on_every_lv_backend() {
    let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
    let scenario =
        Scenario::plurality(model, vec![120, 40, 40]).observe(ObserverSpec::GapTrajectory);
    let k3_backends: Vec<_> = BackendRegistry::global().iter_supporting(3).collect();
    // Four LV kernels plus the Czyzowicz conversion baseline, in both
    // thinned and diffusion-bridged execution.
    assert_eq!(k3_backends.len(), 6);
    let lv_backends: Vec<_> = k3_backends
        .into_iter()
        .filter(|b| b.models_kinetics())
        .collect();
    assert_eq!(lv_backends.len(), 4);
    for backend in lv_backends {
        let report = backend.run(&scenario, &mut rng(2));
        assert_eq!(report.backend, backend.name());
        assert_eq!(report.species_count(), 3);
        let outcome = report.to_plurality_outcome();
        assert_eq!(outcome.initial_leader, Some(0), "{}", backend.name());
        assert!(
            outcome.consensus_reached,
            "{} did not reach plurality consensus: {outcome:?}",
            backend.name()
        );
        // A 3:1 planted majority wins on every kernel (seed-checked).
        assert_eq!(outcome.winner, Some(0), "{}", backend.name());
        assert!(outcome.margin > 0, "{}", backend.name());
        assert!(outcome.plurality_won(), "{}", backend.name());
        // The margin trajectory starts at the planted lead.
        assert_eq!(
            report.gap_trajectory().unwrap()[0],
            80,
            "{}",
            backend.name()
        );
    }
}

/// The cyclic three-species model ends with a single survivor (or truncates
/// honestly) on the exact kernels: once a species dies its predator is safe
/// and the chase collapses.
#[test]
fn cyclic_competition_collapses_to_one_survivor() {
    let model = MultiLvModel::cyclic(CompetitionKind::NonSelfDestructive, 3, 1.0, 1.0, 1.0);
    let scenario = Scenario::plurality(model, vec![40, 30, 30]);
    for name in ["jump-chain", "gillespie-direct"] {
        let report = backend(name).unwrap().run(&scenario, &mut rng(4));
        let outcome = report.to_plurality_outcome();
        assert!(
            outcome.consensus_reached || outcome.truncated,
            "{name}: {outcome:?}"
        );
        if outcome.consensus_reached {
            assert!(outcome.final_state.alive_count() <= 1, "{name}");
        }
    }
}

fn proptest_model(kind: CompetitionKind, k: usize, alpha: f64) -> MultiLvModel {
    MultiLvModel::symmetric(kind, k, 1.0, 1.0, alpha)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariants that must hold for every backend on every k-species run:
    /// the final population has the scenario's dimension, the total never
    /// exceeds the observed max population, a winner (if any) is a live
    /// species with index < k, and event counts respect the budget
    /// accounting.
    #[test]
    fn k_species_runs_preserve_invariants(
        k in 2usize..5,
        seed in 0u64..1_000,
        leader_count in 20u64..60,
        other_count in 1u64..20,
        alpha in 0.5f64..2.0,
        self_destructive in prop_oneof![Just(true), Just(false)],
    ) {
        let kind = if self_destructive {
            CompetitionKind::SelfDestructive
        } else {
            CompetitionKind::NonSelfDestructive
        };
        let mut counts = vec![other_count; k];
        counts[0] = leader_count;
        let initial = Population::new(counts);
        let scenario = Scenario::plurality(proptest_model(kind, k, alpha), initial.clone())
            .with_tau(0.01);
        let budget = scenario.stop().max_events().unwrap();
        for backend in BackendRegistry::global().iter_supporting(k) {
            let report = backend.run(&scenario, &mut rng(seed));
            let name = backend.name();
            prop_assert_eq!(report.species_count(), k, "{}", name);
            prop_assert_eq!(report.initial.counts(), initial.counts(), "{}", name);
            let max_population = report.max_population().unwrap();
            prop_assert!(
                report.final_state.total() <= max_population,
                "{}: final total above observed max",
                name
            );
            prop_assert!(max_population >= initial.total(), "{}", name);
            if let Some(winner) = report.final_state.winner() {
                prop_assert!(winner < k, "{}: winner index out of range", name);
                prop_assert!(report.final_state.count(winner) > 0, "{}", name);
                prop_assert!(report.consensus_reached(), "{}", name);
            }
            let counts = report.event_counts().unwrap();
            prop_assert_eq!(
                counts.individual + counts.competitive + counts.unclassified,
                report.events,
                "{}: event classes must partition the firings",
                name
            );
            if name != "tau-leaping" && name != "ode" {
                prop_assert!(report.events <= budget, "{}: budget overshot", name);
            }
            // The derived view is total (never panics) for any k.
            let outcome = report.to_plurality_outcome();
            prop_assert_eq!(outcome.events, report.events, "{}", name);
        }
    }

    /// Regression: the two-species jump-chain path — states, events, margin
    /// trajectory and every derived observable — is bit-identical to the
    /// pre-refactor `lv_lotka::run_majority` loop on the same seed.
    #[test]
    fn two_species_jump_chain_is_bit_identical_to_the_legacy_loop(
        seed in 0u64..10_000,
        a in 1u64..120,
        b in 1u64..120,
        self_destructive in prop_oneof![Just(true), Just(false)],
    ) {
        let kind = if self_destructive {
            CompetitionKind::SelfDestructive
        } else {
            CompetitionKind::NonSelfDestructive
        };
        let model = LvModel::neutral(kind, 1.0, 1.0, 1.0);
        let budget = lv_engine::default_majority_budget(a + b);
        let (legacy, legacy_trajectory) =
            run_majority_with_trajectory(&model, a, b, &mut rng(seed), budget);
        let scenario = Scenario::majority(model, a, b).observe(ObserverSpec::GapTrajectory);
        let report = backend("jump-chain").unwrap().run(&scenario, &mut rng(seed));
        prop_assert_eq!(report.to_majority_outcome(), legacy);
        prop_assert_eq!(report.gap_trajectory().unwrap(), legacy_trajectory.as_slice());
    }
}
