//! Streaming-vs-batch pinning: the streaming estimators must be
//! bit-identical to the old materialising implementations (collect every
//! outcome into a `Vec`, aggregate afterwards) for fixed trial counts, on
//! every backend, at every thread count — and early stopping must never
//! report a wider confidence interval than requested.

use lv_engine::{PluralityOutcome, Scenario};
use lv_lotka::{CompetitionKind, LvModel, MajorityOutcome, MultiLvModel};
use lv_sim::{stats, ConsensusStats, EarlyStop, MonteCarlo, PluralityStats, Seed};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn model() -> LvModel {
    LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0)
}

/// The pre-streaming `ConsensusStats::from_outcomes`, replicated verbatim as
/// the reference the streaming accumulator is pinned against.
fn reference_consensus_stats(outcomes: &[MajorityOutcome]) -> ConsensusStats {
    let completed: Vec<&MajorityOutcome> =
        outcomes.iter().filter(|o| o.consensus_reached).collect();
    let truncated = outcomes.iter().filter(|o| o.truncated).count() as u64;
    let events: Vec<f64> = completed.iter().map(|o| o.events as f64).collect();
    let noise: Vec<f64> = completed.iter().map(|o| o.noise.total() as f64).collect();
    let fraction = |count: usize| {
        if completed.is_empty() {
            0.0
        } else {
            count as f64 / completed.len() as f64
        }
    };
    ConsensusStats {
        trials: outcomes.len() as u64,
        completed: completed.len() as u64,
        truncated,
        majority_fraction: fraction(completed.iter().filter(|o| o.majority_won()).count()),
        both_extinct_fraction: fraction(completed.iter().filter(|o| o.winner.is_none()).count()),
        mean_events: stats::mean(&events),
        max_events: completed.iter().map(|o| o.events).max().unwrap_or(0),
        mean_individual_events: stats::mean(
            &completed
                .iter()
                .map(|o| o.individual_events as f64)
                .collect::<Vec<_>>(),
        ),
        mean_competitive_events: stats::mean(
            &completed
                .iter()
                .map(|o| o.competitive_events as f64)
                .collect::<Vec<_>>(),
        ),
        mean_bad_events: stats::mean(
            &completed
                .iter()
                .map(|o| o.bad_noncompetitive_events as f64)
                .collect::<Vec<_>>(),
        ),
        max_bad_events: completed
            .iter()
            .map(|o| o.bad_noncompetitive_events)
            .max()
            .unwrap_or(0),
        mean_noise: stats::mean(&noise),
        noise_std_dev: stats::std_dev(&noise),
        mean_competitive_noise: stats::mean(
            &completed
                .iter()
                .map(|o| o.noise.competitive as f64)
                .collect::<Vec<_>>(),
        ),
    }
}

/// The pre-streaming `PluralityStats::from_outcomes`, replicated verbatim.
fn reference_plurality_stats(species: usize, outcomes: &[PluralityOutcome]) -> PluralityStats {
    let completed: Vec<&PluralityOutcome> =
        outcomes.iter().filter(|o| o.consensus_reached).collect();
    let truncated = outcomes.iter().filter(|o| o.truncated).count() as u64;
    let fraction = |count: usize| {
        if completed.is_empty() {
            0.0
        } else {
            count as f64 / completed.len() as f64
        }
    };
    let win_fractions = (0..species)
        .map(|i| fraction(completed.iter().filter(|o| o.winner == Some(i)).count()))
        .collect();
    PluralityStats {
        species,
        trials: outcomes.len() as u64,
        completed: completed.len() as u64,
        truncated,
        win_fractions,
        no_survivor_fraction: fraction(completed.iter().filter(|o| o.winner.is_none()).count()),
        leader_win_fraction: fraction(completed.iter().filter(|o| o.plurality_won()).count()),
        mean_events: stats::mean(
            &completed
                .iter()
                .map(|o| o.events as f64)
                .collect::<Vec<_>>(),
        ),
        mean_margin: stats::mean(
            &completed
                .iter()
                .map(|o| o.margin as f64)
                .collect::<Vec<_>>(),
        ),
        max_population: outcomes.iter().map(|o| o.max_population).max().unwrap_or(0),
    }
}

/// Materialises the batch the old way: one report per trial on the trial's
/// own RNG stream, collected in order.
fn materialise(mc: &MonteCarlo, scenario: &Scenario) -> Vec<lv_engine::RunReport> {
    let backend = lv_engine::backend(mc.backend()).unwrap();
    if backend.deterministic() {
        let report = backend.run(scenario, &mut mc.seed().rng_for_trial(0));
        return (0..mc.trials()).map(|_| report.clone()).collect();
    }
    (0..mc.trials())
        .map(|trial| backend.run(scenario, &mut mc.seed().rng_for_trial(trial)))
        .collect()
}

#[test]
fn streamed_success_probability_is_bit_identical_on_every_backend_and_thread_count() {
    for backend in [
        "jump-chain",
        "gillespie-direct",
        "next-reaction",
        "tau-leaping",
        "ode",
        "approx-majority",
    ] {
        let mc = MonteCarlo::new(48, Seed::from(31)).with_backend(backend);
        let scenario = Scenario::new(model(), (60, 40))
            .with_stop(lv_crn::StopCondition::any_species_extinct().with_max_events(100_000));
        let reference = materialise(&mc, &scenario)
            .iter()
            .filter(|r| r.majority_won())
            .count() as u64;
        for threads in THREAD_COUNTS {
            let estimate = mc
                .with_threads(threads)
                .success_probability(&model(), 60, 40);
            assert_eq!(estimate.successes(), reference, "{backend} × {threads}");
            assert_eq!(estimate.trials(), 48, "{backend} × {threads}");
        }
    }
}

#[test]
fn streamed_consensus_stats_match_the_materialising_reference() {
    for backend in ["jump-chain", "gillespie-direct", "tau-leaping"] {
        let mc = MonteCarlo::new(60, Seed::from(32)).with_backend(backend);
        let scenario = Scenario::majority(model(), 70, 50);
        let outcomes: Vec<MajorityOutcome> = materialise(&mc, &scenario)
            .iter()
            .map(|r| r.to_majority_outcome())
            .collect();
        let reference = reference_consensus_stats(&outcomes);
        for threads in THREAD_COUNTS {
            let streamed = mc.with_threads(threads).consensus_stats_scenario(&scenario);
            // Every count, fraction, mean and max is a running sum in trial
            // order: exactly the reference's bits.
            assert_eq!(streamed.trials, reference.trials, "{backend} × {threads}");
            assert_eq!(streamed.completed, reference.completed);
            assert_eq!(streamed.truncated, reference.truncated);
            assert_eq!(streamed.majority_fraction, reference.majority_fraction);
            assert_eq!(
                streamed.both_extinct_fraction,
                reference.both_extinct_fraction
            );
            assert_eq!(streamed.mean_events, reference.mean_events);
            assert_eq!(streamed.max_events, reference.max_events);
            assert_eq!(
                streamed.mean_individual_events,
                reference.mean_individual_events
            );
            assert_eq!(
                streamed.mean_competitive_events,
                reference.mean_competitive_events
            );
            assert_eq!(streamed.mean_bad_events, reference.mean_bad_events);
            assert_eq!(streamed.max_bad_events, reference.max_bad_events);
            assert_eq!(streamed.mean_noise, reference.mean_noise);
            assert_eq!(
                streamed.mean_competitive_noise,
                reference.mean_competitive_noise
            );
            // The one deliberate numeric change: the streamed standard
            // deviation comes from exact integer moments (single final
            // rounding) instead of a two-pass float sum, so it can differ
            // from the old reference in the last ulp — and no more.
            let error = (streamed.noise_std_dev - reference.noise_std_dev).abs();
            assert!(
                error <= 1e-12 * reference.noise_std_dev.max(1.0),
                "{backend} × {threads}: std dev {} vs reference {}",
                streamed.noise_std_dev,
                reference.noise_std_dev
            );
        }
    }
}

#[test]
fn streamed_plurality_stats_match_the_materialising_reference() {
    let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
    let scenario = Scenario::plurality(model, vec![50, 30, 20]);
    for backend in ["jump-chain", "next-reaction"] {
        let mc = MonteCarlo::new(40, Seed::from(33)).with_backend(backend);
        let outcomes: Vec<PluralityOutcome> = materialise(&mc, &scenario)
            .iter()
            .map(|r| r.to_plurality_outcome())
            .collect();
        let reference = reference_plurality_stats(3, &outcomes);
        for threads in THREAD_COUNTS {
            let streamed = mc.with_threads(threads).plurality_stats(&scenario);
            assert_eq!(streamed, reference, "{backend} × {threads}");
        }
    }
}

#[test]
fn shard_size_never_changes_results() {
    let scenario = Scenario::majority(model(), 60, 50);
    let reference = MonteCarlo::new(64, Seed::from(34))
        .with_threads(1)
        .consensus_stats_scenario(&scenario);
    for threads in [2, 3, 4, 8] {
        let scheduled = MonteCarlo::new(64, Seed::from(34))
            .with_threads(threads)
            .consensus_stats_scenario(&scenario);
        assert_eq!(scheduled, reference, "{threads} threads");
    }
}

#[test]
fn early_stopping_meets_its_half_width_target() {
    // Across a spread of margins (easy to near-critical), the early-stopped
    // estimate's actual Wilson half-width must be at most the target.
    for (a, b, seed) in [(80u64, 20u64, 1u64), (60, 40, 2), (55, 50, 3)] {
        for target in [0.12, 0.08] {
            let rule = EarlyStop::at_half_width(target).with_min_trials(8);
            let mc = MonteCarlo::new(200_000, Seed::from(seed));
            let estimate = mc.success_probability_until(&model(), a, b, rule);
            let (low, high) = estimate.wilson_interval(1.96);
            let half_width = (high - low) / 2.0;
            assert!(
                half_width <= target + 1e-12,
                "({a}, {b}) target {target}: stopped at {} trials with half-width {half_width}",
                estimate.trials()
            );
            assert!(
                estimate.trials() < 200_000,
                "({a}, {b}) target {target}: the rule never fired"
            );
        }
    }
}

#[test]
fn early_stopped_runs_report_their_actual_trial_count_thread_invariantly() {
    let rule = EarlyStop::at_half_width(0.1).with_min_trials(8);
    let reference = MonteCarlo::new(100_000, Seed::from(35))
        .with_threads(1)
        .success_probability_until(&model(), 70, 50, rule);
    assert!(
        reference.trials() > 8 && reference.trials() < 100_000,
        "unexpected stop point {}",
        reference.trials()
    );
    for threads in [2, 8] {
        let estimate = MonteCarlo::new(100_000, Seed::from(35))
            .with_threads(threads)
            .success_probability_until(&model(), 70, 50, rule);
        assert_eq!(estimate, reference, "{threads} threads");
    }
}

#[test]
fn early_stopping_respects_the_configured_trial_budget() {
    // An unreachable target: the stream must end at the configured budget
    // and report exactly that many trials.
    let rule = EarlyStop::at_half_width(1e-6);
    let mc = MonteCarlo::new(64, Seed::from(36));
    let estimate = mc.success_probability_until(&model(), 60, 40, rule);
    assert_eq!(estimate.trials(), 64);
    assert_eq!(estimate, mc.success_probability(&model(), 60, 40));
}
