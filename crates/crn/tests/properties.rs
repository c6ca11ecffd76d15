//! Property-based tests for the CRN substrate.

use lv_crn::prelude::*;
use lv_crn::{propensity, total_propensity};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy for small two-species Lotka–Volterra-like networks with arbitrary
/// non-negative rates.
fn lv_rates() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (0.0f64..5.0, 0.0f64..5.0, 0.0f64..5.0, 0.0f64..5.0)
}

fn build_lv(beta: f64, delta: f64, alpha: f64, gamma: f64) -> ValidatedNetwork {
    let mut net = ReactionNetwork::new();
    let x0 = net.add_species("X0");
    let x1 = net.add_species("X1");
    for (a, b) in [(x0, x1), (x1, x0)] {
        net.add_reaction(Reaction::new(beta).reactant(a, 1).product(a, 2));
        net.add_reaction(Reaction::new(delta).reactant(a, 1));
        net.add_reaction(Reaction::new(alpha).reactant(a, 1).reactant(b, 1));
        net.add_reaction(Reaction::new(gamma).reactant(a, 2));
    }
    net.validate().expect("generated network is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Propensities are always non-negative and finite.
    #[test]
    fn propensities_are_non_negative((beta, delta, alpha, gamma) in lv_rates(),
                                     a in 0u64..500, b in 0u64..500) {
        let net = build_lv(beta, delta, alpha, gamma);
        let state = State::from(vec![a, b]);
        for reaction in net.reactions() {
            let p = propensity(reaction, &state);
            prop_assert!(p >= 0.0 && p.is_finite());
        }
        let total = total_propensity(&net, &state);
        prop_assert!(total >= 0.0 && total.is_finite());
    }

    /// The total propensity matches the closed-form φ(x0, x1) of Section 1.3.
    #[test]
    fn total_propensity_matches_closed_form((beta, delta, alpha, gamma) in lv_rates(),
                                            a in 0u64..300, b in 0u64..300) {
        let net = build_lv(beta, delta, alpha, gamma);
        let state = State::from(vec![a, b]);
        let (af, bf) = (a as f64, b as f64);
        let expected = 2.0 * alpha * af * bf
            + (beta + delta) * (af + bf)
            + gamma * (af * (af - 1.0) + bf * (bf - 1.0)) / 2.0;
        let actual = total_propensity(&net, &state);
        prop_assert!((actual - expected).abs() <= 1e-9 * expected.max(1.0),
                     "actual {} expected {}", actual, expected);
    }

    /// Jump-chain transition probabilities form a probability distribution in
    /// every non-absorbing state.
    #[test]
    fn jump_chain_probabilities_normalise((beta, delta, alpha, gamma) in lv_rates(),
                                          a in 1u64..200, b in 1u64..200) {
        // Ensure at least one reaction has positive rate so the state is not absorbing.
        prop_assume!(beta + delta + alpha + gamma > 0.0);
        let net = build_lv(beta.max(0.01), delta, alpha, gamma);
        let mut sim = JumpChain::new(&net, State::from(vec![a, b]), StdRng::seed_from_u64(0));
        let probs = sim.transition_probabilities();
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {}", sum);
        prop_assert!(probs.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
    }

    /// Applying any enabled reaction preserves non-negativity, and the state
    /// change matches the reaction's net stoichiometry.
    #[test]
    fn reaction_application_is_consistent(a in 0u64..100, b in 0u64..100, idx in 0usize..8) {
        let net = build_lv(1.0, 1.0, 1.0, 1.0);
        let state = State::from(vec![a, b]);
        let reaction = &net.reactions()[idx];
        if state.can_apply(reaction) {
            let next = state.applying(reaction).unwrap();
            for sp in [SpeciesId::new(0), SpeciesId::new(1)] {
                let before = state.count(sp) as i64;
                let after = next.count(sp) as i64;
                prop_assert_eq!(after - before, reaction.net_change(sp));
                prop_assert!(after >= 0);
            }
        } else {
            prop_assert!(state.applying(reaction).is_err());
            prop_assert_eq!(propensity(reaction, &state), 0.0);
        }
    }

    /// A jump-chain step loop with an event budget never exceeds the budget
    /// and never produces negative counts.
    #[test]
    fn jump_chain_respects_budget_and_positivity(seed in 0u64..1000,
                                                 a in 1u64..100, b in 1u64..100) {
        let net = build_lv(1.0, 1.0, 1.0, 0.0);
        let mut sim = JumpChain::new(&net, State::from(vec![a, b]), StdRng::seed_from_u64(seed));
        while !sim.state().any_extinct() && sim.events() < 500 {
            prop_assert!(sim.step().is_some(), "a living LV population was absorbed");
        }
        prop_assert!(sim.events() <= 500);
        prop_assert!(sim.state().counts().iter().all(|&c| c < u64::MAX / 2));
        prop_assert!(sim.state().any_extinct() || sim.events() == 500);
    }

    /// Exponential samples are non-negative; Poisson samples have the right
    /// support.
    #[test]
    fn distribution_samples_have_correct_support(seed in 0u64..1000, rate in 0.01f64..100.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = lv_crn::distributions::sample_exponential(&mut rng, rate);
        prop_assert!(e >= 0.0);
        let p = lv_crn::distributions::sample_poisson(&mut rng, rate);
        prop_assert!(p < u64::MAX);
    }
}
