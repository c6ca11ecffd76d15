//! Cross-backend integration tests: one `Scenario` description must run
//! unmodified on every registered backend, the jump-chain backend must
//! reproduce the legacy `lv_lotka::run_majority` loop bit for bit, and all
//! backends must honor the same stop conditions identically.

use lv_crn::{StopCondition, StopReason};
use lv_engine::{backend, BackendRegistry, ObserverSpec, RunReport, Scenario};
use lv_lotka::{run_majority, CompetitionKind, LvJumpChain, LvModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The acceptance criterion of the redesign: the same scenario value runs on
/// every backend through the registry — the four LV kernels plus the
/// protocol baselines — and every model-faithful
/// backend agrees on the qualitative outcome (a 4:1 majority wins).
#[test]
fn one_scenario_runs_on_every_backend() {
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let scenario = Scenario::majority(model, 400, 100).observe(ObserverSpec::GapTrajectory);
    let registry = BackendRegistry::global();
    assert_eq!(registry.names().len(), 9);
    // The Czyzowicz conversion baselines follow the proportional law (a 4:1
    // majority wins only 80% of runs) and need ~n² interactions, so neither
    // a win nor consensus within the default budget is guaranteed for them —
    // for every other backend both are.
    let proportional = ["czyzowicz-lv", "czyzowicz-lv-bridged"];
    for backend in registry.iter() {
        let report = backend.run(&scenario, &mut rng(11));
        assert_eq!(report.backend, backend.name());
        if !proportional.contains(&backend.name()) {
            assert!(
                report.majority_won(),
                "backend {} did not reach majority consensus: {report:?}",
                backend.name()
            );
        }
        let trajectory = report.gap_trajectory().expect("trajectory was observed");
        assert_eq!(trajectory[0], 300, "backend {}", backend.name());
    }
}

/// The jump-chain backend is the migration of the bespoke `run_majority`
/// loop: on the same RNG stream every derived observable must be identical.
#[test]
fn jump_chain_backend_reproduces_run_majority_bit_for_bit() {
    let models = [
        LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
        LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0),
        LvModel::with_intraspecific(CompetitionKind::SelfDestructive, 1.0, 0.5, 1.0, 2.0),
        LvModel::balanced_intra_inter(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0),
    ];
    let backend = backend("jump-chain").unwrap();
    for (m, model) in models.iter().enumerate() {
        for seed in 0..10u64 {
            let (a, b) = (60 + m as u64, 40);
            let budget = lv_engine::default_majority_budget(a + b);
            let legacy = run_majority(model, a, b, &mut rng(seed), budget);
            let scenario = Scenario::majority(*model, a, b);
            let report = backend.run(&scenario, &mut rng(seed));
            assert_eq!(
                report.to_majority_outcome(),
                legacy,
                "model {m} seed {seed} diverged"
            );
        }
    }
}

/// The jump-chain backend's report of `scenario` as given, and with an
/// observer attached, which keeps the run on the per-step driver path; both
/// on the same seed.
fn tight_and_per_step(scenario: &Scenario, seed: u64) -> (RunReport, RunReport) {
    let backend = backend("jump-chain").unwrap();
    let plain = backend.run(scenario, &mut rng(seed));
    let observed = scenario.clone().observe(ObserverSpec::MaxPopulation);
    (plain, backend.run(&observed, &mut rng(seed)))
}

/// Observer-free two-species scenarios that stop on the first extinction
/// run as one `LvJumpChain::run_to_consensus` call, and equal a direct call
/// bit for bit. That kernel is exact in law, not draw for draw: models
/// with intraspecific competition still step, so they reproduce the
/// per-step driver path exactly; neutral models skip competition runs, so
/// their win frequency and mean event count agree with the per-step path
/// within 4 standard errors over 2 000 seeds.
#[test]
fn jump_chain_tight_loop_matches_the_per_step_path() {
    let models = [
        LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
        LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0),
        LvModel::with_intraspecific(CompetitionKind::SelfDestructive, 1.0, 0.5, 1.0, 2.0),
        LvModel::balanced_intra_inter(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0),
    ];
    for (m, model) in models.iter().enumerate() {
        let stepping = !model.rates().has_no_intraspecific();
        let (a, b) = (52 + m as u64, 48);
        let budget = lv_engine::default_majority_budget(a + b);
        for (shape, stop) in [
            ("extinct", StopCondition::any_species_extinct()),
            ("consensus", StopCondition::consensus()),
        ] {
            let scenario = Scenario::new(*model, (a, b)).with_stop(stop.with_max_events(budget));
            let seeds: u64 = if stepping { 10 } else { 2_000 };
            // [wins, Σ events, Σ events²] of the kernel and per-step paths.
            let mut sums = [[0.0f64; 3]; 2];
            for seed in 0..seeds {
                let label = format!("model {m} seed {seed} {shape}");
                let (plain, stepped) = tight_and_per_step(&scenario, seed);
                assert_eq!(plain.reason, StopReason::ConditionMet, "{label}");
                assert_eq!(stepped.reason, StopReason::ConditionMet, "{label}");
                let mut chain = LvJumpChain::new(*model, (a, b).into());
                let events = chain.run_to_consensus(budget, &mut rng(seed));
                let (x0, x1) = chain.state().counts();
                assert_eq!(plain.final_state.counts(), &[x0, x1], "{label}");
                assert_eq!((plain.events, plain.steps), (events, events), "{label}");
                assert_eq!(plain.time.to_bits(), (events as f64).to_bits(), "{label}");
                if stepping {
                    assert_eq!(plain.final_state, stepped.final_state, "{label}");
                    assert_eq!(plain.events, stepped.events, "{label}");
                    continue;
                }
                for (sum, report) in sums.iter_mut().zip([&plain, &stepped]) {
                    let events = report.events as f64;
                    sum[0] += f64::from(u8::from(report.majority_won()));
                    sum[1] += events;
                    sum[2] += events * events;
                }
            }
            if stepping {
                continue;
            }
            let n = seeds as f64;
            // (mean, variance) of the win indicator and of the events.
            let [kernel, per_step] = sums.map(|[wins, e, ee]| {
                let (p, mean) = (wins / n, e / n);
                [(p, p * (1.0 - p)), (mean, ee / n - mean * mean)]
            });
            for (what, at) in [("win frequency", 0), ("mean events", 1)] {
                let ((tight, var_tight), (stepped, var_stepped)) = (kernel[at], per_step[at]);
                let se = ((var_tight + var_stepped) / n).sqrt();
                assert!(
                    (tight - stepped).abs() <= 4.0 * se,
                    "model {m} {shape}: {what} {tight:.4} vs {stepped:.4} (se {se:.4})"
                );
            }
        }
    }
}

/// The kernel path's budgets, degenerate starts and absorption end with the
/// per-step path's stop reason and, where the budget or the start fixes it,
/// its exact event count; `or`-composed conditions stay on the per-step
/// path and still end by the condition.
#[test]
fn jump_chain_tight_loop_matches_the_per_step_path_at_the_edges() {
    let model = LvModel::default();
    let extinct = StopCondition::any_species_extinct;
    let cases = [
        (
            "max_events(16)",
            (5_000, 4_990),
            extinct().with_max_events(16),
        ),
        (
            "max_time(1e-7)",
            (2_000, 1_990),
            extinct().with_max_events(1_000_000).with_max_time(1e-7),
        ),
        (
            "max_time(7.5)",
            (2_000, 1_990),
            extinct().with_max_time(7.5),
        ),
        (
            "max_events(8) = max_time(8)",
            (2_000, 1_990),
            extinct().with_max_events(8).with_max_time(8.0),
        ),
        ("tie", (25, 25), extinct().with_max_events(100_000)),
        ("(10, 0)", (10, 0), extinct().with_max_events(100_000)),
        ("(0, 0)", (0, 0), extinct().with_max_events(100_000)),
    ];
    let expected = [
        (StopReason::MaxEventsReached, Some(16)),
        (StopReason::MaxTimeReached, Some(1)),
        (StopReason::MaxTimeReached, Some(8)),
        (StopReason::MaxEventsReached, Some(8)),
        (StopReason::ConditionMet, None),
        (StopReason::ConditionMet, Some(0)),
        (StopReason::ConditionMet, Some(0)),
    ];
    for ((label, start, stop), (reason, events)) in cases.into_iter().zip(expected) {
        for seed in 0..10u64 {
            let scenario = Scenario::new(model, start).with_stop(stop.clone());
            let (plain, stepped) = tight_and_per_step(&scenario, seed);
            for report in [&plain, &stepped] {
                assert_eq!(report.reason, reason, "{label} seed {seed}");
                assert_eq!(report.steps, report.events, "{label} seed {seed}");
                assert_eq!(report.time, report.events as f64, "{label} seed {seed}");
                if let Some(events) = events {
                    assert_eq!(report.events, events, "{label} seed {seed}");
                }
            }
            if events == Some(0) {
                assert_eq!(plain.final_state, stepped.final_state, "{label}");
            }
        }
    }

    // A model with no positive rate is absorbed at once.
    let frozen = Scenario::new(LvModel::no_competition(0.0, 0.0), (5, 5));
    let (plain, stepped) = tight_and_per_step(&frozen, 1);
    for report in [plain, stepped] {
        assert_eq!(report.reason, StopReason::Absorbed);
        assert_eq!(report.events, 0);
        assert_eq!(report.final_state.counts(), &[5, 5]);
    }

    // Consensus OR a population threshold: supercritical growth ends on
    // the threshold, through the per-step path either way.
    let growth = LvModel::no_competition(2.0, 1.0);
    let stop = extinct()
        .or(StopCondition::total_at_least(5_000))
        .with_max_events(10_000_000);
    for seed in 0..10u64 {
        let scenario = Scenario::new(growth, (100, 100)).with_stop(stop.clone());
        let (plain, stepped) = tight_and_per_step(&scenario, seed);
        // Both runs step: the same draws, the same report.
        assert_eq!(plain.final_state, stepped.final_state, "seed {seed}");
        assert_eq!(
            (plain.events, plain.steps, plain.time.to_bits()),
            (stepped.events, stepped.steps, stepped.time.to_bits()),
            "seed {seed}"
        );
        assert_eq!(plain.reason, StopReason::ConditionMet, "seed {seed}");
        let state = &plain.final_state;
        assert!(
            state.is_consensus() || state.total() >= 5_000,
            "seed {seed}"
        );
    }
}

/// A tie start and an immediate-consensus start behave like `run_majority`.
#[test]
fn degenerate_starts_match_legacy_semantics() {
    let model = LvModel::default();
    let backend = backend("jump-chain").unwrap();
    for (a, b) in [(25, 25), (10, 0), (0, 0)] {
        let legacy = run_majority(&model, a, b, &mut rng(3), 100_000);
        let report = backend.run(
            &Scenario::majority(model, a, b)
                .with_stop(StopCondition::any_species_extinct().with_max_events(100_000)),
            &mut rng(3),
        );
        assert_eq!(report.to_majority_outcome(), legacy, "start ({a}, {b})");
    }
}

/// Every backend stops immediately (zero steps) when the stop condition
/// already holds in the initial configuration.
#[test]
fn all_backends_stop_immediately_when_condition_already_met() {
    let model = LvModel::default();
    let scenario = Scenario::new(model, (40, 0));
    for backend in BackendRegistry::global().iter() {
        let report = backend.run(&scenario, &mut rng(5));
        assert_eq!(
            report.reason,
            StopReason::ConditionMet,
            "{}",
            backend.name()
        );
        assert_eq!(report.steps, 0, "{}", backend.name());
        assert_eq!(report.final_state.counts(), &[40, 0], "{}", backend.name());
    }
}

/// An `or`-composed condition (consensus OR total ≥ threshold) is honored by
/// every model-simulating backend: each run ends in a state satisfying the
/// disjunction, never by budget exhaustion. (The protocol baseline ignores
/// the model's growth rates, so it is exercised separately.)
#[test]
fn all_backends_honor_or_composed_conditions_identically() {
    let model = LvModel::no_competition(2.0, 1.0); // supercritical growth
    let stop = StopCondition::any_species_extinct()
        .or(StopCondition::total_at_least(5_000))
        .with_max_events(10_000_000);
    let scenario = Scenario::new(model, (100, 100)).with_stop(stop.clone());
    for backend in BackendRegistry::global()
        .iter()
        .filter(|b| b.models_kinetics())
    {
        if backend.name() == "ode" {
            // The deterministic mean-field of a no-competition model grows
            // exponentially; it hits the population threshold too.
            let report = backend.run(&scenario, &mut rng(6));
            assert_eq!(report.reason, StopReason::ConditionMet);
            assert!(report.final_state.total() >= 5_000);
            continue;
        }
        let report = backend.run(&scenario, &mut rng(6));
        assert_eq!(
            report.reason,
            StopReason::ConditionMet,
            "{}",
            backend.name()
        );
        let state = &report.final_state;
        assert!(
            state.is_consensus() || state.total() >= 5_000,
            "backend {} stopped in {state:?} without meeting either condition",
            backend.name()
        );
    }
}

/// `max_events` truncation: with a tiny event budget every stochastic
/// backend stops with `MaxEventsReached` without overshooting the budget by
/// more than one step's worth of firings.
#[test]
fn all_backends_honor_the_event_budget() {
    let model = LvModel::default();
    let stop = StopCondition::any_species_extinct().with_max_events(16);
    let scenario = Scenario::new(model, (5_000, 4_990)).with_stop(stop);
    for name in [
        "jump-chain",
        "gillespie-direct",
        "approx-majority",
        "exact-majority",
        "czyzowicz-lv",
        "czyzowicz-lv-bridged",
    ] {
        let report = backend(name).unwrap().run(&scenario, &mut rng(7));
        assert_eq!(report.reason, StopReason::MaxEventsReached, "{name}");
        assert_eq!(report.events, 16, "{name}");
        assert!(report.truncated(), "{name}");
    }
    // Tau-leaping fires whole leaps, so the budget check happens between
    // leaps: the final count is at least the budget.
    let report = backend("tau-leaping").unwrap().run(&scenario, &mut rng(7));
    assert_eq!(report.reason, StopReason::MaxEventsReached);
    assert!(report.events >= 16);
}

/// `max_time` truncation for the continuous-clock backends, and the
/// interaction rule: whichever budget binds first wins.
#[test]
fn continuous_backends_honor_the_time_budget() {
    let model = LvModel::default();
    let tight_time = StopCondition::any_species_extinct()
        .with_max_events(1_000_000)
        .with_max_time(1e-7);
    let scenario = Scenario::new(model, (2_000, 1_990)).with_stop(tight_time);
    for name in ["gillespie-direct", "tau-leaping", "ode"] {
        let report = backend(name).unwrap().run(&scenario, &mut rng(8));
        assert_eq!(report.reason, StopReason::MaxTimeReached, "{name}");
        assert!(report.truncated(), "{name}");
    }
    // The jump chain's clock is its event count; the budget check runs
    // before each step (and time starts at 0), so exactly one event fires
    // before a 1e-7 time budget binds. The protocol baselines use the same
    // interaction-count clock — including the batched ones, which translate
    // the time budget into an interaction cap instead of overshooting by an
    // epoch.
    for name in [
        "jump-chain",
        "approx-majority",
        "exact-majority",
        "czyzowicz-lv",
        "annihilation-lv",
        "czyzowicz-lv-bridged",
    ] {
        let report = backend(name).unwrap().run(&scenario, &mut rng(8));
        assert_eq!(report.reason, StopReason::MaxTimeReached, "{name}");
        assert_eq!(report.events, 1, "{name}");
    }
}

/// Predicate stop conditions run on every model-simulating backend.
#[test]
fn all_backends_honor_predicate_conditions() {
    let model = LvModel::no_competition(2.0, 1.0);
    // Stop once species 0 at least doubles.
    let stop = StopCondition::predicate(|state: &lv_crn::State| {
        state.count(lv_crn::SpeciesId::new(0)) >= 400
    })
    .with_max_events(10_000_000);
    let scenario = Scenario::new(model, (200, 200)).with_stop(stop);
    for backend in BackendRegistry::global()
        .iter()
        .filter(|b| b.models_kinetics())
    {
        let report = backend.run(&scenario, &mut rng(9));
        assert_eq!(
            report.reason,
            StopReason::ConditionMet,
            "{}",
            backend.name()
        );
        assert!(report.final_state.count(0) >= 400, "{}", backend.name());
    }
}

/// Seeded runs are reproducible per backend (same seed, same report).
#[test]
fn seeded_runs_are_reproducible_on_every_backend() {
    let scenario = Scenario::majority(LvModel::default(), 80, 60);
    for backend in BackendRegistry::global().iter() {
        let a = backend.run(&scenario, &mut rng(42));
        let b = backend.run(&scenario, &mut rng(42));
        assert_eq!(a, b, "{}", backend.name());
    }
}

/// The exact backends agree with each other *in distribution*: the majority
/// win rate over a batch of seeds differs by at most a few percentage
/// points between the jump chain and the direct method (they simulate the
/// same chain with different clocks).
#[test]
fn exact_backends_agree_in_distribution() {
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let scenario = Scenario::majority(model, 33, 27);
    let trials = 300u64;
    let mut rates = Vec::new();
    for name in ["jump-chain", "gillespie-direct"] {
        let backend = backend(name).unwrap();
        let wins = (0..trials)
            .filter(|&seed| backend.run(&scenario, &mut rng(seed)).majority_won())
            .count();
        rates.push(wins as f64 / trials as f64);
    }
    for pair in rates.windows(2) {
        assert!(
            (pair[0] - pair[1]).abs() < 0.12,
            "win rates diverged: {rates:?}"
        );
    }
}

/// The ODE backend has no reaction events, so a scenario's `max_events`
/// budget bounds its integration steps instead of being a silent no-op.
#[test]
fn ode_backend_applies_the_event_budget_to_steps() {
    // Stable coexistence regime (γ' > α' after mapping): the mean field
    // never reaches rounded extinction, so only the budget can stop it.
    let model =
        LvModel::with_intraspecific(CompetitionKind::NonSelfDestructive, 2.0, 1.0, 0.1, 2.0);
    let stop = StopCondition::any_species_extinct().with_max_events(25);
    let scenario = Scenario::new(model, (500, 400)).with_stop(stop);
    let report = backend("ode").unwrap().run(&scenario, &mut rng(10));
    assert_eq!(report.reason, StopReason::MaxEventsReached);
    assert_eq!(report.steps, 25);
    assert_eq!(report.events, 0);
    assert!(report.truncated());
}

/// Tau-leaping reports leap-aggregated noise as `unclassified` instead of
/// corrupting the `F_ind`/`F_comp` split, and the telescoping identity
/// `F_total = ∆_0 − ∆_T` still holds over all three buckets.
#[test]
fn tau_leaping_noise_stays_honest() {
    let model = LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0);
    let scenario = Scenario::majority(model, 300, 240).with_tau(0.02);
    let report = backend("tau-leaping").unwrap().run(&scenario, &mut rng(12));
    assert!(report.consensus_reached());
    let noise = report.noise().unwrap();
    assert_ne!(
        noise.unclassified, 0,
        "leaps produced no unclassified noise"
    );
    let counts = report.final_state.counts();
    let delta_final = counts[0] as i64 - counts[1] as i64;
    assert_eq!(noise.total(), 60 - delta_final);
}
