//! Protocol-baseline backends vs the raw `lv_protocols` steppers: the
//! `-agents` legacy backends must be thin drivers around
//! `ProtocolSimulation` — bit-identical to a hand-written stepper loop on
//! the same RNG stream — while the batched default backends must agree with
//! them *statistically* (same outcome distributions; the RNG stream differs
//! by design). The Czyzowicz backends must reproduce the proportional law
//! `P(A wins) = a/n` in both modes.

use lv_crn::StopCondition;
use lv_engine::{backend, Scenario};
use lv_lotka::LvModel;
use lv_protocols::{
    ApproximateMajority, CzyzowiczLvProtocol, ExactMajority4State, PopulationProtocol,
    ProtocolSimulation,
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

fn backend_run(name: &str, a: u64, b: u64, seed: u64, max_interactions: u64) -> ([u64; 2], u64) {
    let scenario = Scenario::new(LvModel::default(), (a, b))
        .with_stop(StopCondition::any_species_extinct().with_max_events(max_interactions));
    let report = backend(name)
        .unwrap()
        .run(&scenario, &mut StdRng::seed_from_u64(seed));
    (
        [report.final_state.count(0), report.final_state.count(1)],
        report.events,
    )
}

/// The `-agents` backends consume randomness only through
/// `ProtocolSimulation::step`, so on the same seed they must reproduce a
/// hand-driven stepper loop bit for bit — final committed counts and
/// interaction counts alike. (The batched defaults deliberately do not:
/// their RNG stream is a different object; see the statistical tests below.)
#[test]
fn agent_list_backends_match_a_direct_stepper_loop_bit_for_bit() {
    for seed in 0..8u64 {
        for (a, b) in [(30u64, 20u64), (25, 25), (40, 8)] {
            let budget = 500_000;
            assert_eq!(
                backend_run("approx-majority-agents", a, b, seed, budget),
                reference_run(&ApproximateMajority::new(), a, b, seed, budget),
                "approx-majority-agents diverged at seed {seed}, ({a}, {b})"
            );
            assert_eq!(
                backend_run("czyzowicz-lv-agents", a, b, seed, budget),
                reference_run(&CzyzowiczLvProtocol::new(), a, b, seed, budget),
                "czyzowicz-lv-agents diverged at seed {seed}, ({a}, {b})"
            );
            if a != b {
                // Ties can absorb all-weak without any count reaching zero;
                // the reference loop does not model that, so pin the
                // non-degenerate starts only.
                assert_eq!(
                    backend_run("exact-majority-agents", a, b, seed, budget),
                    reference_run(&ExactMajority4State::new(), a, b, seed, budget),
                    "exact-majority-agents diverged at seed {seed}, ({a}, {b})"
                );
            }
        }
    }
}

/// The Czyzowicz dynamics are a fair gambler's ruin in the count of A, so
/// the majority wins with probability *exactly* `a/n` — the statistical
/// check behind the backend's linear-gap threshold scaling. Both execution
/// modes must reproduce it.
#[test]
fn czyzowicz_backends_follow_the_proportional_law() {
    for name in ["czyzowicz-lv", "czyzowicz-lv-agents"] {
        let czyzowicz = backend(name).unwrap();
        for (a, b) in [(30u64, 10u64), (10, 30)] {
            let n = a + b;
            let scenario = Scenario::new(LvModel::default(), (a, b))
                .with_stop(StopCondition::any_species_extinct().with_max_events(10_000_000));
            let trials = 400u64;
            let wins = (0..trials)
                .filter(|&seed| {
                    let report = czyzowicz.run(&scenario, &mut StdRng::seed_from_u64(seed));
                    assert!(report.consensus_reached(), "{name}: seed {seed} truncated");
                    report.final_state.winner() == Some(0)
                })
                .count();
            let fraction = wins as f64 / trials as f64;
            let expected = a as f64 / n as f64;
            assert!(
                (fraction - expected).abs() < 0.07,
                "{name}: A won {fraction} of runs from ({a}, {b}); the proportional law \
                 says {expected}"
            );
        }
    }
}

/// Batched and agent-list execution of the same protocol agree on the
/// outcome distribution at equal configurations — the registry-level view
/// of the distributional cross-validation (the stepper-level TVD tests live
/// in `lv-protocols`). At this population the count-space backends step by
/// thinning windows throughout.
///
/// Two two-sample z tests at z = 3.48 (two-sided 5·10⁻⁴ each, so the test
/// fails a correct sampler at most once in 10³ streams). At 510 trials per
/// arm the z bound is at most 3.48·√(2·¼/510) = 0.109, inside the
/// |Δp| < 0.11 this test held before, so it detects every deviation it did.
#[test]
fn batched_backends_match_agent_list_win_rates() {
    let trials = 510u64;
    let scenario = Scenario::new(LvModel::default(), (110, 90))
        .with_stop(StopCondition::any_species_extinct().with_max_events(10_000_000));
    for (batched, agents) in [
        ("approx-majority", "approx-majority-agents"),
        ("czyzowicz-lv", "czyzowicz-lv-agents"),
    ] {
        let rate = |name: &str, offset: u64| {
            let b = backend(name).unwrap();
            (0..trials)
                .filter(|&seed| {
                    b.run(&scenario, &mut StdRng::seed_from_u64(offset + seed))
                        .final_state
                        .winner()
                        == Some(0)
                })
                .count() as f64
                / trials as f64
        };
        let p_batched = rate(batched, 10_000);
        let p_agents = rate(agents, 20_000);
        let pooled = (p_batched + p_agents) / 2.0;
        let bound = 3.48 * (2.0 * pooled * (1.0 - pooled) / trials as f64).sqrt();
        assert!(
            (p_batched - p_agents).abs() <= bound,
            "{batched} won {p_batched} vs {agents} {p_agents} (bound {bound:.4})"
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
