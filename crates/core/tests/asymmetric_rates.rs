//! The paper's upper bounds (Theorems 14 and 18, via the dominating-chain
//! construction of Section 5) explicitly allow *asymmetric* interspecific
//! competition `α_0 ≠ α_1` — in particular the initial minority species may be
//! the stronger competitor. These tests exercise that regime.

use lv_lotka::{run_majority, CompetitionKind, LvModel, LvRates, SpeciesIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn asymmetric_model(kind: CompetitionKind, alpha_majority: f64, alpha_minority: f64) -> LvModel {
    LvModel::new(
        kind,
        LvRates {
            beta: 1.0,
            delta: 1.0,
            // alpha[0] is the rate at which species 0 (the initial majority)
            // attacks species 1; alpha[1] the reverse.
            alpha: [alpha_majority, alpha_minority],
            gamma: [0.0, 0.0],
        },
    )
}

fn majority_probability(model: &LvModel, a: u64, b: u64, trials: u64, seed: u64) -> f64 {
    let mut wins = 0u64;
    for t in 0..trials {
        let outcome = run_majority(model, a, b, &mut rng(seed + t), 10_000_000);
        assert!(outcome.consensus_reached);
        if outcome.majority_won() {
            wins += 1;
        }
    }
    wins as f64 / trials as f64
}

#[test]
fn dominating_chain_exists_for_asymmetric_rates() {
    for kind in [
        CompetitionKind::SelfDestructive,
        CompetitionKind::NonSelfDestructive,
    ] {
        let model = asymmetric_model(kind, 0.3, 1.7);
        let chain = model.dominating_chain().expect("alpha_min > 0");
        assert_eq!(chain.alpha_min(), 0.3);
        assert_eq!(chain.alpha(), 2.0);
        // The chain is still nice, so the Section 4 bounds apply.
        assert_eq!(chain.nice_witness().verify(&chain, 5_000), None);
    }
}

#[test]
fn self_destructive_majority_wins_despite_stronger_minority_competitor() {
    // Under self-destructive competition the competition events still remove
    // one individual of each species regardless of who initiates, so even a
    // minority that attacks five times more often cannot overcome a decent
    // gap (Theorem 14 holds for any α_0, α_1 > 0).
    let model = asymmetric_model(CompetitionKind::SelfDestructive, 0.25, 1.25);
    let p = majority_probability(&model, 600, 400, 300, 1);
    assert!(
        p > 0.9,
        "majority probability {p} too low under asymmetric self-destructive competition"
    );
}

#[test]
fn non_self_destructive_asymmetry_biases_the_competition_noise() {
    // Under non-self-destructive competition every competitive event kills an
    // individual of exactly one species, chosen with probability
    // α_i/(α_0 + α_1); an asymmetry therefore adds a *constant drift per
    // competition event*, and there are Θ(n) competition events before
    // consensus. Empirically this means:
    //
    // * a stronger-competitor **majority** turns the drift in its favour and
    //   wins easily from a √(n log n) gap;
    // * a stronger-competitor **minority** accumulates a Θ(n) advantage, so a
    //   √(n log n) gap is hopeless — only near-linear gaps can compensate.
    //
    // (The neutral case, drift zero, is the Θ(√n·log n)-threshold regime of
    // Theorem 18; this test pins down the deviation for minority-favouring
    // asymmetry.)
    let n: u64 = 2_000;
    let gap = ((n as f64) * (n as f64).ln()).sqrt() as u64;
    let a = (n + gap) / 2;
    let b = n - a;

    let majority_stronger = asymmetric_model(CompetitionKind::NonSelfDestructive, 1.2, 0.8);
    let p_strong_majority = majority_probability(&majority_stronger, a, b, 200, 7);
    assert!(
        p_strong_majority > 0.95,
        "stronger-competitor majority won only {p_strong_majority} at a sqrt(n log n) gap"
    );

    let minority_stronger = asymmetric_model(CompetitionKind::NonSelfDestructive, 0.8, 1.2);
    let p_weak_majority = majority_probability(&minority_stronger, a, b, 200, 11);
    assert!(
        p_weak_majority < 0.2,
        "stronger-competitor minority should usually win here, majority won {p_weak_majority}"
    );

    // A near-linear gap restores majority consensus even against the stronger
    // minority competitor (the drift advantage is bounded by the number of
    // competition events, which the large gap now exceeds).
    let p_large_gap = majority_probability(&minority_stronger, 1_800, 200, 200, 13);
    assert!(
        p_large_gap > 0.9,
        "a near-linear gap should beat the asymmetry, got {p_large_gap}"
    );
}

#[test]
fn winner_statistics_remain_consistent_under_asymmetry() {
    let model = asymmetric_model(CompetitionKind::NonSelfDestructive, 1.5, 0.5);
    for seed in 0..20 {
        let outcome = run_majority(&model, 50, 30, &mut rng(100 + seed), 10_000_000);
        assert!(outcome.consensus_reached);
        assert_eq!(
            outcome.events,
            outcome.individual_events + outcome.competitive_events
        );
        match outcome.winner {
            Some(SpeciesIndex::Zero) => assert!(outcome.final_state.count(SpeciesIndex::Zero) > 0),
            Some(SpeciesIndex::One) => assert!(outcome.final_state.count(SpeciesIndex::One) > 0),
            None => assert_eq!(outcome.final_state.counts(), (0, 0)),
        }
    }
}
