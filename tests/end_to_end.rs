//! End-to-end integration tests exercising the public facade crate the way a
//! downstream user would: build models, run experiments, and check the
//! paper's qualitative claims across crate boundaries.

use lv_consensus::chains::{empirical_dominance, run_to_extinction};
use lv_consensus::lotka::{run_majority, CompetitionKind, LvModel};
use lv_consensus::sim::experiments::{self, ExperimentConfig};
use lv_consensus::sim::{MonteCarlo, ScalingLaw, Seed, ThresholdSearch};

#[test]
fn facade_reexports_compose() {
    // A model built through the facade can be simulated by the CRN layer,
    // dominated by the chains layer and estimated by the sim layer.
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let network = model.to_reaction_network().unwrap();
    assert_eq!(network.species_count(), 2);
    assert!(model.dominating_chain().is_some());
    let estimate = MonteCarlo::new(100, Seed::from(1)).success_probability(&model, 120, 80);
    assert!(estimate.point() > 0.5);
}

#[test]
fn table1_row1_separation_is_visible_at_moderate_scale() {
    // The central qualitative claim of Table 1 row 1, measured end-to-end
    // through the threshold search: at n = 2048 the self-destructive
    // threshold is far below the non-self-destructive one.
    let n = 2_048;
    let search = ThresholdSearch::new(120, Seed::from(2));
    let sd = search
        .find(
            &LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
            n,
        )
        .threshold;
    let nsd = search
        .find(
            &LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0),
            n,
        )
        .threshold;
    assert!(
        nsd as f64 >= 2.5 * sd as f64,
        "no clear separation: SD threshold {sd}, NSD threshold {nsd}"
    );
    // And the SD threshold is in the polylogarithmic ballpark while the NSD
    // one is in the √n ballpark.
    assert!((sd as f64) < 3.0 * ScalingLaw::Log2N.eval(n as f64));
    assert!((nsd as f64) > 0.3 * ScalingLaw::SqrtN.eval(n as f64));
}

#[test]
fn chain_domination_holds_across_crates() {
    // Lemma 9 checked with uncoupled samples: consensus times of the
    // two-species chain are stochastically dominated by extinction times of
    // the dominating chain from lv-chains.
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 2.0);
    let chain = model.dominating_chain().unwrap();
    let (a, b) = (330u64, 270u64);
    let runs = 250u64;
    let seed = Seed::from(3);
    let mut consensus_times = Vec::new();
    let mut bad_events = Vec::new();
    let mut extinction_times = Vec::new();
    let mut births = Vec::new();
    for trial in 0..runs {
        let mut rng = seed.rng_for_trial(trial);
        let outcome = run_majority(&model, a, b, &mut rng, 100_000_000);
        assert!(outcome.consensus_reached);
        consensus_times.push(outcome.events);
        bad_events.push(outcome.bad_noncompetitive_events);
        let run = run_to_extinction(&chain, b, &mut rng, 100_000_000).unwrap();
        extinction_times.push(run.steps);
        births.push(run.births);
    }
    let time = empirical_dominance(&consensus_times, &extinction_times);
    assert!(
        time.is_dominated(time.default_tolerance()),
        "T(S) not dominated by E(N): violation {}",
        time.max_violation
    );
    let events = empirical_dominance(&bad_events, &births);
    assert!(
        events.is_dominated(events.default_tolerance()),
        "J(S) not dominated by B(N): violation {}",
        events.max_violation
    );
}

#[test]
fn quick_experiment_suite_runs_and_reports() {
    // Run three representative experiments in the quick profile end to end
    // and sanity-check their reports. (The full suite is exercised by the
    // `experiments` binary.)
    let config = ExperimentConfig::quick(17);
    for id in ["e3", "e6", "e13"] {
        let report = experiments::run_by_id(id, config).expect("known experiment id");
        assert!(!report.tables.is_empty(), "{id} produced no tables");
        let text = report.to_string();
        assert!(text.contains("==="), "{id} report lacks a header");
    }
    assert!(experiments::run_by_id("nonsense", config).is_none());
}

#[test]
fn proportional_law_regimes_agree_between_exact_and_monte_carlo() {
    // Exact solver (lv-lotka) and Monte-Carlo (lv-sim) must agree on the
    // balanced self-destructive regime through the public API.
    let model = LvModel::balanced_intra_inter(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let residual = lv_consensus::lotka::exact::proportional_law_residual(
        &model,
        20,
        10,
        lv_consensus::lotka::exact::SolverOptions {
            cap: 120,
            ..Default::default()
        },
    );
    assert!(residual.abs() < 5e-3, "exact residual {residual}");
    let mc_score = MonteCarlo::new(2_000, Seed::from(5)).proportional_score(&model, 20, 10);
    assert!(
        (mc_score - 2.0 / 3.0).abs() < 0.03,
        "Monte-Carlo score {mc_score}"
    );
}
