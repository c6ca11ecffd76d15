//! Protocol-baseline backends vs the raw `lv_protocols` steppers: the
//! batched backends must agree *statistically* (same outcome distributions;
//! the RNG stream differs by design) with hand-driven `ProtocolSimulation`
//! loops, the agent-list test oracle. The Czyzowicz backend and the raw
//! stepper must both reproduce the proportional law `P(A wins) = a/n`.

use lv_crn::StopCondition;
use lv_engine::{backend, Scenario};
use lv_lotka::LvModel;
use lv_protocols::{
    ApproximateMajority, CzyzowiczLvProtocol, PopulationProtocol, ProtocolSimulation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drives `ProtocolSimulation` by hand with the backend's stop semantics:
/// stop as soon as a committed-opinion count hits zero (the two-species
/// "any species extinct" condition over the reported counts), or once the
/// interaction budget is exhausted — checked *before* each step, in the
/// driver's order (state condition first, then the event budget).
fn reference_run<P: PopulationProtocol>(
    protocol: &P,
    a: u64,
    b: u64,
    seed: u64,
    max_interactions: u64,
) -> ([u64; 2], u64) {
    let mut sim = ProtocolSimulation::new(protocol, a, b);
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let (x, y) = sim.opinion_counts();
        if x == 0 || y == 0 || sim.interactions() >= max_interactions {
            return ([x, y], sim.interactions());
        }
        sim.step(&mut rng);
    }
}

/// The fraction of `trials` runs of backend `name` from `(a, b)`, on seeds
/// `offset..`, that opinion A wins; every run must reach consensus.
fn backend_win_rate(name: &str, (a, b): (u64, u64), trials: u64, offset: u64) -> f64 {
    let backend = backend(name).unwrap();
    let scenario = Scenario::new(LvModel::default(), (a, b))
        .with_stop(StopCondition::any_species_extinct().with_max_events(BUDGET));
    let wins = (0..trials)
        .filter(|&seed| {
            let report = backend.run(&scenario, &mut StdRng::seed_from_u64(offset + seed));
            assert!(report.consensus_reached(), "{name}: seed {seed} truncated");
            report.final_state.winner() == Some(0)
        })
        .count();
    wins as f64 / trials as f64
}

/// [`backend_win_rate`] for hand-driven [`reference_run`]s of the
/// agent-list oracle.
fn agent_list_win_rate<P: PopulationProtocol>(
    protocol: &P,
    (a, b): (u64, u64),
    trials: u64,
    offset: u64,
) -> f64 {
    let wins = (0..trials)
        .filter(|&seed| {
            let ([x, y], _) = reference_run(protocol, a, b, offset + seed, BUDGET);
            assert!(x == 0 || y == 0, "oracle: seed {seed} truncated");
            x > 0 && y == 0
        })
        .count();
    wins as f64 / trials as f64
}

/// The interaction budget of every run here: far above what consensus
/// needs at these populations.
const BUDGET: u64 = 10_000_000;

/// The Czyzowicz dynamics are a fair gambler's ruin in the count of A, so
/// the majority wins with probability *exactly* `a/n` — the statistical
/// check behind the backend's linear-gap threshold scaling. The batched
/// backend and the raw agent-list stepper must both reproduce it.
#[test]
fn czyzowicz_backends_follow_the_proportional_law() {
    for (a, b) in [(30u64, 10u64), (10, 30)] {
        let expected = a as f64 / (a + b) as f64;
        let trials = 400;
        for (mode, fraction) in [
            (
                "czyzowicz-lv",
                backend_win_rate("czyzowicz-lv", (a, b), trials, 0),
            ),
            (
                "CzyzowiczLvProtocol",
                agent_list_win_rate(&CzyzowiczLvProtocol::new(), (a, b), trials, 0),
            ),
        ] {
            assert!(
                (fraction - expected).abs() < 0.07,
                "{mode}: A won {fraction} of runs from ({a}, {b}); the proportional law \
                 says {expected}"
            );
        }
    }
}

/// Batched execution and the agent-list oracle of the same protocol agree
/// on the outcome distribution at equal configurations — the registry-level
/// view of the distributional cross-validation (the stepper-level TVD tests
/// live in `lv-protocols`). At this population the count-space backends
/// step by thinning windows throughout.
///
/// Two two-sample z tests at z = 3.48 (two-sided 5·10⁻⁴ each, so the test
/// fails a correct sampler at most once in 10³ streams). At 510 trials per
/// arm the z bound is at most 3.48·√(2·¼/510) = 0.109, inside the
/// |Δp| < 0.11 this test held before, so it detects every deviation it did.
#[test]
fn batched_backends_match_agent_list_win_rates() {
    let trials = 510;
    let start = (110, 90);
    for (batched, p_agents) in [
        (
            "approx-majority",
            agent_list_win_rate(&ApproximateMajority::new(), start, trials, 20_000),
        ),
        (
            "czyzowicz-lv",
            agent_list_win_rate(&CzyzowiczLvProtocol::new(), start, trials, 20_000),
        ),
    ] {
        let p_batched = backend_win_rate(batched, start, trials, 10_000);
        let pooled = (p_batched + p_agents) / 2.0;
        let bound = 3.48 * (2.0 * pooled * (1.0 - pooled) / trials as f64).sqrt();
        assert!(
            (p_batched - p_agents).abs() <= bound,
            "{batched} won {p_batched} vs the agent-list oracle {p_agents} (bound {bound:.4})"
        );
    }
}

/// Batched backends do far fewer driver steps than events on large
/// populations — the structural property the ≥50× speedup comes from.
#[test]
fn batched_backends_aggregate_steps() {
    let scenario = Scenario::new(LvModel::default(), (3_000, 2_000))
        .with_stop(StopCondition::any_species_extinct().with_max_events(100_000_000));
    let report = backend("approx-majority")
        .unwrap()
        .run(&scenario, &mut StdRng::seed_from_u64(5));
    assert!(report.consensus_reached());
    assert!(
        report.steps * 20 < report.events,
        "expected ≳√n-fold aggregation, got {} steps for {} events",
        report.steps,
        report.events
    );
}
