use crate::distributions::sample_exponential;
use crate::network::ValidatedNetwork;
use crate::propensity::{PropensityCache, ReactionDependencies};
use crate::reaction::ReactionId;
use crate::simulators::{Event, StochasticSimulator};
use crate::state::State;
use rand::Rng;
use std::fmt;

/// The Gillespie direct method: exact continuous-time stochastic simulation.
///
/// At each step the simulator samples an exponential waiting time with rate
/// equal to the total propensity `φ(x)` and selects the firing reaction with
/// probability proportional to its propensity (Section 1.3 of the paper;
/// Gillespie 1977). Propensity maintenance is *reaction-local*: after a
/// firing, only the propensities in the fired reaction's
/// [`ReactionDependencies`] set are recomputed — bit-identical to a full
/// recomputation (unaffected propensities are pure functions of unchanged
/// counts, and the total is re-summed in index order), so seeded runs produce
/// exactly the same trajectories as the naive implementation.
///
/// ```
/// use lv_crn::{ReactionNetwork, Reaction, State, StopCondition};
/// use lv_crn::simulators::{GillespieDirect, StochasticSimulator};
/// use rand::SeedableRng;
///
/// let mut net = ReactionNetwork::new();
/// let a = net.add_species("A");
/// net.add_reaction(Reaction::new(1.0).reactant(a, 1)); // pure death
/// let net = net.validate()?;
/// let mut sim = GillespieDirect::new(&net, State::from(vec![10]),
///     rand::rngs::StdRng::seed_from_u64(1));
/// let stop = StopCondition::any_species_extinct();
/// while !stop.is_met(sim.state()) && sim.step().is_some() {}
/// assert_eq!(sim.events(), 10);
/// # Ok::<(), lv_crn::CrnError>(())
/// ```
pub struct GillespieDirect<'a, R> {
    network: &'a ValidatedNetwork,
    state: State,
    time: f64,
    events: u64,
    rng: R,
    cache: PropensityCache,
    dependencies: ReactionDependencies,
    /// The reaction fired by the previous step, whose dependency set is the
    /// only part of the cache that can be stale. `None` before the first
    /// step (full refresh required).
    last_fired: Option<usize>,
}

impl<'a, R: fmt::Debug> fmt::Debug for GillespieDirect<'a, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GillespieDirect")
            .field("state", &self.state)
            .field("time", &self.time)
            .field("events", &self.events)
            .finish()
    }
}

impl<'a, R: Rng> GillespieDirect<'a, R> {
    /// Creates a simulator for the network starting in `initial` at time 0.
    ///
    /// # Panics
    ///
    /// Panics if the state dimension does not match the network; use
    /// [`ValidatedNetwork::check_state`] to validate states from untrusted
    /// input first.
    pub fn new(network: &'a ValidatedNetwork, initial: State, rng: R) -> Self {
        network
            .check_state(&initial)
            .expect("initial state must match the network dimension");
        GillespieDirect {
            network,
            state: initial,
            time: 0.0,
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
}

impl<'a, R: Rng> StochasticSimulator for GillespieDirect<'a, R> {
    fn state(&self) -> &State {
        &self.state
    }

    fn time(&self) -> f64 {
        self.time
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
        let wait = sample_exponential(&mut self.rng, total);
        let target = self.rng.gen::<f64>() * total;
        let index = self.cache.select(target)?;
        let reaction = &self.network.reactions()[index];
        self.state
            .apply(reaction)
            .expect("selected reaction must be applicable: propensity was positive");
        self.last_fired = Some(index);
        self.time += wait;
        self.events += 1;
        Some(Event::fired(ReactionId::new(index), self.time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReactionNetwork;
    use crate::reaction::Reaction;
    use crate::species::SpeciesId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Immigration–death process A: ∅ -> A at rate λ, A -> ∅ at rate μ per
    /// capita. Stationary distribution is Poisson(λ/μ).
    fn immigration_death(lambda: f64, mu: f64) -> (crate::ValidatedNetwork, SpeciesId) {
        let mut net = ReactionNetwork::new();
        let a = net.add_species("A");
        net.add_reaction(Reaction::new(lambda).product(a, 1));
        net.add_reaction(Reaction::new(mu).reactant(a, 1));
        (net.validate().unwrap(), a)
    }

    #[test]
    fn pure_death_takes_exactly_n_events() {
        let mut net = ReactionNetwork::new();
        let a = net.add_species("A");
        net.add_reaction(Reaction::new(2.0).reactant(a, 1));
        let net = net.validate().unwrap();
        let mut sim = GillespieDirect::new(&net, State::from(vec![25]), rng(1));
        while sim.step().is_some() {}
        assert_eq!(sim.events(), 25);
        assert_eq!(sim.state().counts(), &[0]);
        assert!(sim.time() > 0.0);
    }

    #[test]
    fn time_advances_monotonically() {
        let (net, _) = immigration_death(3.0, 1.0);
        let mut sim = GillespieDirect::new(&net, State::from(vec![0]), rng(2));
        let mut last = 0.0;
        for _ in 0..200 {
            let event = sim.step().unwrap();
            assert!(event.time > last);
            last = event.time;
        }
        assert_eq!(sim.events(), 200);
    }

    #[test]
    fn immigration_death_stationary_mean_matches() {
        // With λ = 8, μ = 1 the stationary mean is 8. Run long, then
        // time-average the count.
        let (net, a) = immigration_death(8.0, 1.0);
        let mut sim = GillespieDirect::new(&net, State::from(vec![0]), rng(3));
        // Burn in.
        for _ in 0..2_000 {
            sim.step();
        }
        let mut weighted = 0.0;
        let mut duration = 0.0;
        let mut last_time = sim.time();
        let mut last_count = sim.state().count(a) as f64;
        for _ in 0..30_000 {
            let event = sim.step().unwrap();
            weighted += last_count * (event.time - last_time);
            duration += event.time - last_time;
            last_time = event.time;
            last_count = sim.state().count(a) as f64;
        }
        let mean = weighted / duration;
        assert!((mean - 8.0).abs() < 0.6, "time-averaged mean {mean}");
    }

    #[test]
    fn absorbed_process_returns_none_and_keeps_state() {
        let mut net = ReactionNetwork::new();
        let a = net.add_species("A");
        net.add_reaction(Reaction::new(1.0).reactant(a, 2)); // needs two individuals
        let net = net.validate().unwrap();
        let mut sim = GillespieDirect::new(&net, State::from(vec![1]), rng(4));
        assert!(sim.step().is_none());
        assert_eq!(sim.state().counts(), &[1]);
        assert_eq!(sim.events(), 0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let (net, _) = immigration_death(2.0, 1.0);
        let run = |seed| {
            let mut sim = GillespieDirect::new(&net, State::from(vec![5]), rng(seed));
            while sim.events() < 500 && sim.step().is_some() {}
            (sim.events(), sim.state().clone(), sim.time())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).2, run(100).2);
    }

    #[test]
    #[should_panic(expected = "initial state must match")]
    fn mismatched_state_dimension_panics() {
        let (net, _) = immigration_death(1.0, 1.0);
        let _ = GillespieDirect::new(&net, State::from(vec![1, 2]), rng(5));
    }

    /// The reaction-local propensity path must be bit-identical to a naive
    /// full-recompute reference on the same RNG stream.
    #[test]
    fn reaction_local_updates_match_full_recompute_reference() {
        let mut net = ReactionNetwork::new();
        let species: Vec<_> = (0..3).map(|i| net.add_species(format!("X{i}"))).collect();
        for (i, &s) in species.iter().enumerate() {
            net.add_reaction(Reaction::new(1.0).reactant(s, 1).product(s, 2));
            net.add_reaction(Reaction::new(1.0).reactant(s, 1));
            let other = species[(i + 1) % 3];
            net.add_reaction(Reaction::new(0.5).reactant(s, 1).reactant(other, 1));
        }
        let net = net.validate().unwrap();

        // Reference: full refresh before every step, same sampling order.
        let mut reference_rng = rng(42);
        let mut reference_state = State::from(vec![30, 25, 20]);
        let mut reference_cache = crate::propensity::PropensityCache::new();
        let mut reference: Vec<(usize, u64)> = Vec::new();
        let mut reference_time = 0.0f64;
        for _ in 0..500 {
            let total = reference_cache.refresh(&net, &reference_state);
            if total <= 0.0 {
                break;
            }
            let wait = crate::distributions::sample_exponential(&mut reference_rng, total);
            let target = reference_rng.gen::<f64>() * total;
            let Some(index) = reference_cache.select(target) else {
                break;
            };
            reference_state.apply(&net.reactions()[index]).unwrap();
            reference_time += wait;
            reference.push((index, reference_time.to_bits()));
        }
        assert!(reference.len() > 100, "reference run ended early");

        let mut sim = GillespieDirect::new(&net, State::from(vec![30, 25, 20]), rng(42));
        for &(expected_reaction, expected_time) in &reference {
            let event = sim.step().expect("simulator died before the reference");
            assert_eq!(event.reaction, Some(ReactionId::new(expected_reaction)));
            assert_eq!(event.time.to_bits(), expected_time);
        }
        assert_eq!(sim.state(), &reference_state);
    }
}
