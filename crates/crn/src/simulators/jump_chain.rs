use crate::network::ValidatedNetwork;
use crate::propensity::{PropensityCache, ReactionDependencies};
use crate::reaction::ReactionId;
use crate::simulators::{Event, StochasticSimulator};
use crate::state::State;
use rand::Rng;
use std::fmt;

/// The embedded discrete-time jump chain of the stochastic kinetics.
///
/// This is the chain `S = (S_t)_{t ≥ 0}` the paper analyses (Section 1.3): at
/// each step the next reaction `R` is chosen with probability
/// `φ_R(x)/φ(x)`, without sampling the exponential holding time. The
/// [`time`](StochasticSimulator::time) of this simulator is therefore the
/// number of reactions fired so far — `S_t` represents the counts after `t`
/// reactions.
///
/// Jump-chain sampling and the Gillespie direct method visit the same sequence
/// of states in distribution; only the clock differs. For questions about the
/// *number of events* before consensus (the paper's `T(S)`, `I(S)`, `K(S)`,
/// `J(S)`), the jump chain is the natural simulator and is what `lv-lotka`
/// uses by default.
///
/// Propensity maintenance is *reaction-local* (Gibson–Bruck style), exactly
/// as in [`GillespieDirect`](crate::simulators::GillespieDirect): after a
/// firing only the propensities in the fired reaction's
/// [`ReactionDependencies`] set are recomputed, which is bit-identical to a
/// full recomputation and therefore perturbs no RNG stream.
pub struct JumpChain<'a, R> {
    network: &'a ValidatedNetwork,
    state: State,
    events: u64,
    rng: R,
    cache: PropensityCache,
    dependencies: ReactionDependencies,
    /// The reaction fired by the previous step, whose dependency set is the
    /// only part of the cache that can be stale. `None` before the first
    /// step (full refresh required).
    last_fired: Option<usize>,
}

impl<'a, R: fmt::Debug> fmt::Debug for JumpChain<'a, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JumpChain")
            .field("state", &self.state)
            .field("events", &self.events)
            .finish()
    }
}

impl<'a, R: Rng> JumpChain<'a, R> {
    /// Creates a jump-chain simulator for the network starting in `initial`.
    ///
    /// # Panics
    ///
    /// Panics if the state dimension does not match the network.
    pub fn new(network: &'a ValidatedNetwork, initial: State, rng: R) -> Self {
        network
            .check_state(&initial)
            .expect("initial state must match the network dimension");
        JumpChain {
            network,
            state: initial,
            events: 0,
            rng,
            cache: PropensityCache::new(),
            dependencies: ReactionDependencies::new(network),
            last_fired: None,
        }
    }

    /// The network being simulated.
    pub fn network(&self) -> &'a ValidatedNetwork {
        self.network
    }

    /// The transition probability `P(x, ·)` of each reaction from the current
    /// state, in network reaction order. All zeros when the state is
    /// absorbing.
    pub fn transition_probabilities(&mut self) -> Vec<f64> {
        let total = self.cache.refresh(self.network, &self.state);
        if total <= 0.0 {
            return vec![0.0; self.network.reaction_count()];
        }
        self.cache.values().iter().map(|v| v / total).collect()
    }
}

impl<'a, R: Rng> StochasticSimulator for JumpChain<'a, R> {
    fn state(&self) -> &State {
        &self.state
    }

    /// For the jump chain, time is the number of steps taken.
    fn time(&self) -> f64 {
        self.events as f64
    }

    fn events(&self) -> u64 {
        self.events
    }

    fn step(&mut self) -> Option<Event> {
        let total = match self.last_fired {
            Some(fired) => self.cache.refresh_affected(
                self.network,
                &self.state,
                self.dependencies.affected(fired),
            ),
            None => self.cache.refresh(self.network, &self.state),
        };
        if total <= 0.0 {
            return None;
        }
        let target = self.rng.gen::<f64>() * total;
        let index = self.cache.select(target)?;
        let reaction = &self.network.reactions()[index];
        self.state
            .apply(reaction)
            .expect("selected reaction must be applicable: propensity was positive");
        self.last_fired = Some(index);
        self.events += 1;
        Some(Event::fired(ReactionId::new(index), self.events as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReactionNetwork;
    use crate::reaction::Reaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Two-species self-destructive LV network with unit rates.
    fn lv_network() -> crate::ValidatedNetwork {
        let mut net = ReactionNetwork::new();
        let x0 = net.add_species("X0");
        let x1 = net.add_species("X1");
        for (a, b) in [(x0, x1), (x1, x0)] {
            net.add_reaction(Reaction::new(1.0).reactant(a, 1).product(a, 2));
            net.add_reaction(Reaction::new(1.0).reactant(a, 1));
            net.add_reaction(Reaction::new(1.0).reactant(a, 1).reactant(b, 1));
        }
        net.validate().unwrap()
    }

    #[test]
    fn time_equals_event_count() {
        // Start large enough that no species can go extinct within the 50
        // observed steps (each event removes at most two individuals), so the
        // test is robust to the RNG stream.
        let net = lv_network();
        let mut sim = JumpChain::new(&net, State::from(vec![300, 200]), rng(1));
        for expected in 1..=50u64 {
            let event = sim.step().unwrap();
            assert_eq!(event.time, expected as f64);
            assert_eq!(sim.events(), expected);
            assert_eq!(sim.time(), expected as f64);
        }
    }

    #[test]
    fn transition_probabilities_sum_to_one() {
        let net = lv_network();
        let mut sim = JumpChain::new(&net, State::from(vec![10, 7]), rng(2));
        let probs = sim.transition_probabilities();
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum {sum}");
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn transition_probabilities_zero_in_absorbing_state() {
        let net = lv_network();
        let mut sim = JumpChain::new(&net, State::from(vec![0, 0]), rng(3));
        let probs = sim.transition_probabilities();
        assert!(probs.iter().all(|&p| p == 0.0));
        assert!(sim.step().is_none());
    }

    #[test]
    fn per_step_transition_probabilities_match_paper_formula() {
        // In state (a, b) with all rates one:
        //   birth of X0: a / φ, death of X0: a / φ, competition (X0+X1): ab / φ, ...
        // with φ = 2(a + b) + 2ab.
        let net = lv_network();
        let mut sim = JumpChain::new(&net, State::from(vec![6, 3]), rng(4));
        let probs = sim.transition_probabilities();
        let (a, b) = (6.0, 3.0);
        let phi = 2.0 * (a + b) + 2.0 * a * b;
        // Reaction order: birth0, death0, comp01, birth1, death1, comp10.
        let expected = [a / phi, a / phi, a * b / phi, b / phi, b / phi, a * b / phi];
        for (p, e) in probs.iter().zip(expected.iter()) {
            assert!((p - e).abs() < 1e-12, "probability {p} expected {e}");
        }
    }

    #[test]
    fn reaches_consensus_from_unbalanced_start() {
        let net = lv_network();
        let mut sim = JumpChain::new(&net, State::from(vec![200, 2]), rng(5));
        while !sim.state().any_extinct() {
            sim.step().expect("a living LV population is not absorbed");
        }
        assert!(sim.events() > 0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let net = lv_network();
        let run = |seed| {
            let mut sim = JumpChain::new(&net, State::from(vec![40, 30]), rng(seed));
            while !sim.state().any_extinct() && sim.events() < 100_000 && sim.step().is_some() {}
            (sim.events(), sim.state().clone())
        };
        assert_eq!(run(7), run(7));
    }

    /// The reaction-local propensity path must be bit-identical to a naive
    /// full-recompute reference on the same RNG stream (the same pinning the
    /// direct method carries).
    #[test]
    fn reaction_local_updates_match_full_recompute_reference() {
        let mut net = ReactionNetwork::new();
        let species: Vec<_> = (0..4).map(|i| net.add_species(format!("X{i}"))).collect();
        for (i, &s) in species.iter().enumerate() {
            net.add_reaction(Reaction::new(1.0).reactant(s, 1).product(s, 2));
            net.add_reaction(Reaction::new(1.0).reactant(s, 1));
            let other = species[(i + 1) % 4];
            net.add_reaction(Reaction::new(0.5).reactant(s, 1).reactant(other, 1));
        }
        let net = net.validate().unwrap();

        // Reference: full refresh before every step, same sampling order.
        let mut reference_rng = rng(42);
        let mut reference_state = State::from(vec![30, 25, 20, 15]);
        let mut reference_cache = crate::propensity::PropensityCache::new();
        let mut reference: Vec<usize> = Vec::new();
        for _ in 0..500 {
            let total = reference_cache.refresh(&net, &reference_state);
            if total <= 0.0 {
                break;
            }
            let target = reference_rng.gen::<f64>() * total;
            let Some(index) = reference_cache.select(target) else {
                break;
            };
            reference_state.apply(&net.reactions()[index]).unwrap();
            reference.push(index);
        }
        assert!(reference.len() > 100, "reference run ended early");

        let mut sim = JumpChain::new(&net, State::from(vec![30, 25, 20, 15]), rng(42));
        for (step, &expected_reaction) in reference.iter().enumerate() {
            let event = sim.step().expect("simulator died before the reference");
            assert_eq!(
                event.reaction,
                Some(ReactionId::new(expected_reaction)),
                "diverged at step {step}"
            );
        }
        assert_eq!(sim.state(), &reference_state);
    }
}
