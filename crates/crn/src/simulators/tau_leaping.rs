use crate::distributions::{sample_exponential, sample_poisson};
use crate::network::ValidatedNetwork;
use crate::propensity::propensity;
use crate::reaction::ReactionId;
use crate::simulators::{Event, StochasticSimulator};
use crate::state::State;
use rand::Rng;
use std::fmt;

/// Approximate accelerated simulation via (explicit) tau-leaping.
///
/// In each leap of length `tau` every reaction fires a Poisson-distributed
/// number of times with mean `propensity · tau`, and all firings are applied
/// at once. This trades exactness for speed and is useful for very large
/// populations where the exact methods would need millions of events.
///
/// Two safeguards keep the approximation sane for the small-count regimes the
/// paper cares about (where a species is close to extinction):
///
/// * if a leap would drive any species count negative, the leap is rejected
///   and retried with `tau/2` (down to a minimum of 1/64 of the configured
///   leap, after which the simulator falls back to a single exact
///   Gillespie-style event: an exponential holding time with rate equal to
///   the total propensity, then a propensity-proportional reaction choice —
///   so event-time statistics stay unbiased near absorbing boundaries);
/// * a species whose count is zero never gains a "negative" contribution —
///   counts are saturating at zero only via the rejection rule above, never by
///   clamping, so population totals stay consistent.
///
/// An accepted leap in which *zero* reactions fired still advances the clock
/// by `tau`, but is reported as an empty [`Event`] (`reaction: None`) rather
/// than a spurious firing of reaction 0, so observers never see phantom
/// reactions.
///
/// The [`events`](StochasticSimulator::events) counter reports the total
/// number of reaction firings (not the number of leaps), so downstream code
/// can compare event counts against exact simulators.
pub struct TauLeaping<'a, R> {
    network: &'a ValidatedNetwork,
    state: State,
    time: f64,
    events: u64,
    tau: f64,
    rng: R,
}

impl<'a, R: fmt::Debug> fmt::Debug for TauLeaping<'a, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TauLeaping")
            .field("state", &self.state)
            .field("time", &self.time)
            .field("events", &self.events)
            .field("tau", &self.tau)
            .finish()
    }
}

impl<'a, R: Rng> TauLeaping<'a, R> {
    /// Creates a tau-leaping simulator with the given leap length.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not a positive finite number or if the state
    /// dimension does not match the network.
    pub fn new(network: &'a ValidatedNetwork, initial: State, tau: f64, rng: R) -> Self {
        assert!(
            tau.is_finite() && tau > 0.0,
            "tau must be a positive finite number"
        );
        network
            .check_state(&initial)
            .expect("initial state must match the network dimension");
        TauLeaping {
            network,
            state: initial,
            time: 0.0,
            events: 0,
            tau,
            rng,
        }
    }

    /// The configured leap length.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The network being simulated.
    pub fn network(&self) -> &'a ValidatedNetwork {
        self.network
    }

    /// Attempts one leap of length `tau`; returns the sampled firing counts if
    /// the leap keeps every species count non-negative.
    fn try_leap(&mut self, tau: f64) -> Option<Vec<u64>> {
        let reactions = self.network.reactions();
        let mut firings = Vec::with_capacity(reactions.len());
        for reaction in reactions {
            let a = propensity(reaction, &self.state);
            let k = if a > 0.0 {
                sample_poisson(&mut self.rng, a * tau)
            } else {
                0
            };
            firings.push(k);
        }
        // Check that the aggregate update keeps all counts non-negative.
        let mut net: Vec<i64> = vec![0; self.state.species_count()];
        for (reaction, &k) in reactions.iter().zip(firings.iter()) {
            if k == 0 {
                continue;
            }
            for (species_index, entry) in net.iter_mut().enumerate() {
                let change = reaction.net_change(crate::species::SpeciesId::new(species_index));
                *entry += change * k as i64;
            }
        }
        for (index, delta) in net.iter().enumerate() {
            let current = self.state.counts()[index] as i64;
            if current + delta < 0 {
                return None;
            }
        }
        Some(firings)
    }

    fn apply_leap(&mut self, firings: &[u64]) -> u64 {
        let reactions = self.network.reactions();
        let mut total = 0u64;
        let mut counts: Vec<i64> = self.state.counts().iter().map(|&c| c as i64).collect();
        for (reaction, &k) in reactions.iter().zip(firings.iter()) {
            if k == 0 {
                continue;
            }
            total += k;
            for (species_index, count) in counts.iter_mut().enumerate() {
                *count +=
                    reaction.net_change(crate::species::SpeciesId::new(species_index)) * k as i64;
            }
        }
        let new_counts: Vec<u64> = counts
            .into_iter()
            .map(|c| u64::try_from(c).expect("leap acceptance guarantees non-negative counts"))
            .collect();
        self.state = State::new(new_counts);
        total
    }

    /// Falls back to one exact jump-chain event when the leap keeps being
    /// rejected (this only happens very close to an absorbing boundary).
    fn exact_fallback_step(&mut self) -> Option<usize> {
        let weights: Vec<f64> = self
            .network
            .reactions()
            .iter()
            .map(|r| propensity(r, &self.state))
            .collect();
        let index = crate::distributions::sample_weighted_index(&mut self.rng, &weights)?;
        self.state
            .apply(&self.network.reactions()[index])
            .expect("selected reaction must be applicable");
        Some(index)
    }
}

impl<'a, R: Rng> StochasticSimulator for TauLeaping<'a, R> {
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
        let total_propensity: f64 = self
            .network
            .reactions()
            .iter()
            .map(|r| propensity(r, &self.state))
            .sum();
        if total_propensity <= 0.0 {
            return None;
        }
        let mut tau = self.tau;
        let min_tau = self.tau / 64.0;
        loop {
            if let Some(firings) = self.try_leap(tau) {
                let fired = self.apply_leap(&firings);
                self.time += tau;
                self.events += fired;
                if fired == 0 {
                    // An honest empty leap: the clock advanced, nothing
                    // fired. Reporting `Some` (not `None`) keeps the run
                    // driver's time-budget checks engaged.
                    return Some(Event::empty(self.time));
                }
                // Report the first reaction that fired in this leap as the
                // representative reaction for the Event record.
                let representative = firings
                    .iter()
                    .position(|&k| k > 0)
                    .expect("a non-empty leap has a fired reaction");
                return Some(Event::fired(ReactionId::new(representative), self.time));
            }
            tau /= 2.0;
            if tau < min_tau {
                // Exact Gillespie-style fallback: the holding time in the
                // current state is exponential with rate equal to the total
                // propensity — advancing by the fixed `min_tau` instead
                // would bias event-time statistics near absorbing
                // boundaries (the states where the fallback fires).
                let wait = sample_exponential(&mut self.rng, total_propensity);
                let index = self.exact_fallback_step()?;
                self.time += wait;
                self.events += 1;
                return Some(Event::fired(ReactionId::new(index), self.time));
            }
        }
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

    fn birth_death(beta: f64, delta: f64) -> crate::ValidatedNetwork {
        let mut net = ReactionNetwork::new();
        let a = net.add_species("A");
        net.add_reaction(Reaction::new(beta).reactant(a, 1).product(a, 2));
        net.add_reaction(Reaction::new(delta).reactant(a, 1));
        net.validate().unwrap()
    }

    #[test]
    #[should_panic(expected = "tau must be a positive finite number")]
    fn rejects_non_positive_tau() {
        let net = birth_death(1.0, 1.0);
        let _ = TauLeaping::new(&net, State::from(vec![10]), 0.0, rng(1));
    }

    #[test]
    fn counts_never_go_negative() {
        let net = birth_death(0.2, 2.0);
        let mut sim = TauLeaping::new(&net, State::from(vec![50]), 0.5, rng(2));
        // A negative count would panic inside `step`; the run must reach 0.
        while sim.events() < 100_000 && sim.step().is_some() {}
        assert_eq!(sim.state().counts(), &[0]);
    }

    #[test]
    fn absorbed_at_zero_population() {
        let net = birth_death(1.0, 1.0);
        let mut sim = TauLeaping::new(&net, State::from(vec![0]), 0.1, rng(3));
        assert!(sim.step().is_none());
    }

    #[test]
    fn mean_growth_matches_exponential_phase() {
        // Pure birth at rate 1: E[X_t] = X_0 e^t. Simulate to t = 2 with small
        // leaps and compare against the deterministic mean across trials.
        let net = birth_death(1.0, 0.0);
        let trials = 50;
        let mut total = 0.0;
        for t in 0..trials {
            let mut sim = TauLeaping::new(&net, State::from(vec![200]), 0.01, rng(100 + t));
            while sim.time() < 2.0 {
                sim.step().expect("pure birth is never absorbed");
            }
            total += sim.state().counts()[0] as f64;
        }
        let mean = total / trials as f64;
        let expected = 200.0 * (2.0f64).exp();
        let relative = (mean - expected).abs() / expected;
        assert!(relative < 0.1, "mean {mean} expected {expected}");
    }

    #[test]
    fn event_counter_counts_firings_not_leaps() {
        let net = birth_death(0.0, 1.0);
        // Pure death from 100: exactly 100 firings must be recorded in total
        // regardless of how they are grouped into leaps.
        let mut sim = TauLeaping::new(&net, State::from(vec![100]), 0.05, rng(4));
        while sim.step().is_some() {}
        assert_eq!(sim.state().counts(), &[0]);
        assert_eq!(sim.events(), 100);
    }

    #[test]
    fn time_advances_by_tau_per_accepted_leap() {
        let net = birth_death(1.0, 0.1);
        let mut sim = TauLeaping::new(&net, State::from(vec![1_000]), 0.25, rng(5));
        let before = sim.time();
        sim.step().unwrap();
        assert!(sim.time() >= before + 0.25 / 64.0);
    }

    /// Regression test: the exact fallback must advance the clock by an
    /// exponential holding time with rate equal to the total propensity, not
    /// by the fixed `min_tau`. The catalysed death A + B → B with B = 1000
    /// rejects every leap down to `min_tau` (the Poisson mean stays ≥ 10, so
    /// two or more firings of a reaction that can fire at most once are
    /// sampled almost surely), forcing the fallback; the extinction time of
    /// the single A is then Exp(1000) with mean 1/1000 — the old fixed
    /// advance reported `min_tau = 0.01` on every trial, ten times too long.
    #[test]
    fn exact_fallback_samples_the_holding_time() {
        let mut net = ReactionNetwork::new();
        let a = net.add_species("A");
        let b = net.add_species("B");
        net.add_reaction(
            Reaction::new(1.0)
                .reactant(a, 1)
                .reactant(b, 1)
                .product(b, 1),
        );
        let net = net.validate().unwrap();
        let trials = 400;
        let mut total_time = 0.0;
        let mut saw_sub_min_tau = false;
        for t in 0..trials {
            let mut sim = TauLeaping::new(&net, State::from(vec![1, 1_000]), 0.64, rng(7_000 + t));
            while !sim.state().any_extinct() {
                sim.step().expect("A + B → B fires while A lives");
            }
            total_time += sim.time();
            saw_sub_min_tau |= sim.time() < 0.64 / 64.0;
        }
        let mean = total_time / trials as f64;
        // Exp(1000) mean is 1e-3; the old biased clock reported 1e-2 exactly.
        assert!(
            (0.0005..0.002).contains(&mean),
            "mean extinction time {mean} is biased"
        );
        assert!(
            saw_sub_min_tau,
            "no holding time ever undercut min_tau: the clock is still quantised"
        );
    }

    /// Regression test: an accepted leap in which zero reactions fired must
    /// be reported as an empty event (no phantom firing of reaction 0), while
    /// still advancing the clock so time budgets keep working.
    #[test]
    fn empty_leaps_are_reported_without_a_phantom_reaction() {
        // Birth propensity 1e-6: a 0.1-leap samples Poisson(1e-7) ≈ 0 firings.
        let net = birth_death(1e-6, 0.0);
        let mut sim = TauLeaping::new(&net, State::from(vec![1]), 0.1, rng(6));
        let event = sim.step().expect("positive propensity cannot absorb");
        assert_eq!(event.reaction, None, "phantom reaction reported");
        assert_eq!(sim.events(), 0);
        assert_eq!(sim.state().counts(), &[1]);
        assert!((sim.time() - 0.1).abs() < 1e-12);

        // Empty leaps keep advancing the clock, so a loop that stops on a
        // time budget terminates instead of spinning.
        let mut sim = TauLeaping::new(&net, State::from(vec![1]), 0.1, rng(8));
        while sim.time() < 1.0 {
            sim.step().expect("positive propensity cannot absorb");
        }
        assert!(sim.time() >= 1.0);
        assert!(sim.events() < 5, "{} firings at rate 1e-6", sim.events());
    }
}
