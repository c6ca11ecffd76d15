//! Smoke tests of the public API surface: everything a downstream user
//! reaches through `lv_consensus` should be constructible and usable without
//! touching crate internals.

use lv_consensus::chains::{BirthDeathChain, DominatingChain, FnChain, NiceChainWitness};
use lv_consensus::crn::prelude::*;
use lv_consensus::crn::StopCondition;
use lv_consensus::lotka::{CompetitionKind, LvConfiguration, LvJumpChain, LvModel, SpeciesIndex};
use lv_consensus::ode::{CompetitiveLv, OdeIntegrator, Rk4, Rkf45};
use lv_consensus::protocols::{run_protocol, ApproximateMajority, ExactMajority4State, Opinion};
use lv_consensus::sim::{MonteCarlo, ScalingFit, Seed, SuccessEstimate};
use rand::SeedableRng;

#[test]
fn crn_layer_is_usable_directly() {
    let mut net = ReactionNetwork::new();
    let a = net.add_species("A");
    let b = net.add_species("B");
    net.add_reaction(
        Reaction::new(1.0)
            .reactant(a, 1)
            .reactant(b, 1)
            .product(a, 1),
    );
    net.add_reaction(Reaction::new(0.5).reactant(b, 1).product(b, 2));
    let net = net.validate().unwrap();
    let mut sim = JumpChain::new(
        &net,
        State::from(vec![50, 50]),
        rand::rngs::StdRng::seed_from_u64(1),
    );
    let stop = StopCondition::any_species_extinct();
    while !stop.is_met(sim.state()) && sim.events() < 100_000 && sim.step().is_some() {}
    assert!(sim.events() > 0);
}

#[test]
fn chains_layer_is_usable_directly() {
    let dominating = DominatingChain::from_lv_rates(1.0, 1.0, 1.0, 1.0);
    assert!(dominating.birth_probability(100) < dominating.death_probability(100));
    let witness: NiceChainWitness = dominating.nice_witness();
    assert_eq!(witness.verify(&dominating, 1_000), None);
    let custom = FnChain::new(
        |n| if n == 0 { 0.0 } else { 0.1 },
        |n| if n == 0 { 0.0 } else { 0.4 },
    );
    assert!(custom.is_valid_at(10));
}

#[test]
fn lotka_layer_types_compose() {
    let model =
        LvModel::with_intraspecific(CompetitionKind::NonSelfDestructive, 1.0, 0.5, 1.0, 0.2);
    let mut chain = LvJumpChain::new(model, LvConfiguration::new(40, 30));
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    while !chain.state().is_consensus() {
        chain.step(&mut rng);
    }
    let winner = chain.state().winner();
    assert!(winner == Some(SpeciesIndex::Zero) || winner == Some(SpeciesIndex::One));
}

#[test]
fn ode_layer_integrators_agree() {
    let system = CompetitiveLv::new(1.0, 0.01, 0.002);
    let rk4 = Rk4::new(0.01).integrate(&system, [3.0, 2.0], 0.0, 5.0);
    let rkf = Rkf45::new(1e-9).integrate(&system, [3.0, 2.0], 0.0, 5.0);
    let a = rk4.last_state();
    let b = rkf.last_state();
    assert!((a[0] - b[0]).abs() < 1e-3 && (a[1] - b[1]).abs() < 1e-3);
}

#[test]
fn protocols_layer_runs_baselines() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let approx = run_protocol(&ApproximateMajority::new(), 80, 20, &mut rng, 1_000_000);
    assert!(approx.decision.is_some());
    let exact = run_protocol(&ExactMajority4State::new(), 26, 24, &mut rng, 10_000_000);
    assert_eq!(exact.decision, Some(Opinion::A));
}

#[test]
fn protocols_layer_exposes_the_counted_batch_engine() {
    use lv_consensus::protocols::{CountedDynamics, CountedSimulation};
    let dynamics = CountedDynamics::from_protocol(&ApproximateMajority::new());
    let mut sim = CountedSimulation::new(&dynamics, &[6_000, 4_000]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    while !sim.is_absorbed() {
        if sim.step_epoch(&mut rng, u64::MAX).is_none() {
            sim.step(&mut rng);
        }
    }
    let opinions = sim.opinion_counts();
    assert!(opinions[0] == 10_000 || opinions[1] == 10_000);
    // The batched backends resolve through the facade registry too, and
    // retired names resolve to the row with the same law.
    for (name, row) in [
        ("annihilation-lv", "annihilation-lv"),
        ("czyzowicz-lv-k", "czyzowicz-lv"),
        ("czyzowicz-lv-bridged", "czyzowicz-lv-bridged"),
        ("czyzowicz-lv-k-bridged", "czyzowicz-lv-bridged"),
        ("approx-majority-agents", "approx-majority"),
    ] {
        let backend = lv_consensus::engine::backend(name).unwrap();
        assert_eq!(backend.name(), row);
    }
    assert!(lv_consensus::engine::backend("approx-majority")
        .unwrap()
        .batched());
}

/// The checked-in `API.txt` must match what `lv-analyze` renders from the
/// crate roots — the same check the `api-snapshot` pass gates CI on, run
/// here in-process so `cargo test` catches drift without the binary.
#[test]
fn api_snapshot_matches_checked_in_api_txt() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let ws = lv_analyze::source::Workspace::load(root).expect("workspace loads");
    let rendered = lv_analyze::passes::render_api(&ws);
    let checked_in = std::fs::read_to_string(root.join(lv_analyze::passes::SNAPSHOT_PATH))
        .expect("API.txt is checked in");
    assert_eq!(
        checked_in, rendered,
        "API.txt is stale; regenerate with `cargo run -p lv-analyze -- --update-api`"
    );
}

#[test]
fn sim_layer_estimates_and_fits() {
    let estimate = SuccessEstimate::new(90, 100);
    assert!(estimate.wilson_interval(1.96).0 > 0.8);
    let mc = MonteCarlo::new(50, Seed::from(4)).with_threads(1);
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let p = mc.success_probability(&model, 90, 10);
    assert_eq!(p.trials(), 50);
    let fit = ScalingFit::fit(&[100.0, 1_000.0, 10_000.0], &[10.0, 31.6, 100.0]);
    assert_eq!(fit.best().0, lv_consensus::sim::ScalingLaw::SqrtN);
}
