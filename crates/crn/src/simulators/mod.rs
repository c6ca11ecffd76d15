//! Stochastic simulators for validated reaction networks.
//!
//! Three simulators are provided, all driving the same network formalism:
//!
//! * [`GillespieDirect`] — the exact continuous-time stochastic simulation
//!   algorithm (Gillespie 1977 direct method): exponential waiting times and
//!   propensity-proportional reaction selection.
//! * [`JumpChain`] — the embedded discrete-time jump chain
//!   `P(x, y) = Q(x, y)/φ(x)`, which is the object the paper actually
//!   analyses; it tracks the number of reactions, not continuous time.
//! * [`TauLeaping`] — approximate accelerated simulation firing Poisson
//!   numbers of reactions per fixed leap; useful for very large populations
//!   where exact methods are too slow.
//!
//! All simulators implement [`StochasticSimulator`], which supplies the
//! high-level [`run`](StochasticSimulator::run) /
//! [`run_recording`](StochasticSimulator::run_recording) drivers on top of the
//! single-step primitive.

mod direct;
mod jump_chain;
mod tau_leaping;

pub use direct::GillespieDirect;
pub use jump_chain::JumpChain;
pub use tau_leaping::TauLeaping;

use crate::reaction::ReactionId;
use crate::state::State;
use crate::stop::{RunOutcome, StopCondition, StopReason};
use crate::trajectory::Trajectory;

/// A single simulated event: which reaction fired and at what time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// The reaction that fired. `None` marks an *empty step*: an accepted
    /// tau-leap in which no reaction fired, which advances the clock but
    /// changes no counts. Per-event simulators always report `Some`.
    pub reaction: Option<ReactionId>,
    /// The simulation time immediately after the event. For discrete-time
    /// simulators this is the event index.
    pub time: f64,
}

impl Event {
    /// An event reporting a firing of `reaction` at `time`.
    pub fn fired(reaction: ReactionId, time: f64) -> Event {
        Event {
            reaction: Some(reaction),
            time,
        }
    }

    /// An empty step (no reaction fired; the clock advanced to `time`).
    pub fn empty(time: f64) -> Event {
        Event {
            reaction: None,
            time,
        }
    }
}

/// Common interface of all stochastic simulators.
///
/// A simulator owns a current [`State`], a clock and a random number
/// generator; [`step`](StochasticSimulator::step) advances the simulation by
/// one event (or one leap for tau-leaping) and returns `None` when the process
/// is absorbed (no reaction has positive propensity).
pub trait StochasticSimulator {
    /// The current configuration.
    fn state(&self) -> &State;

    /// The current simulation time. Continuous-time simulators report
    /// physical time; the jump chain reports the number of steps taken.
    fn time(&self) -> f64;

    /// The number of reaction events fired so far.
    fn events(&self) -> u64;

    /// Advances the simulation by one event.
    ///
    /// Returns the event that fired, or `None` if the process is absorbed
    /// (every reaction has zero propensity), in which case the state is left
    /// unchanged.
    fn step(&mut self) -> Option<Event>;

    /// Runs the simulation until the stop condition triggers, the process is
    /// absorbed, or an event/time budget is exhausted.
    fn run(&mut self, stop: &StopCondition) -> RunOutcome
    where
        Self: Sized,
    {
        self.run_with_observer(stop, |_, _| {})
    }

    /// Like [`run`](StochasticSimulator::run), but also records the full
    /// trajectory (initial state plus the state after every event).
    fn run_recording(&mut self, stop: &StopCondition) -> (RunOutcome, Trajectory)
    where
        Self: Sized,
    {
        let mut trajectory = Trajectory::new();
        trajectory.push(self.time(), self.state().clone());
        let outcome = self.run_with_observer(stop, |time, state| {
            trajectory.push(time, state.clone());
        });
        (outcome, trajectory)
    }

    /// Like [`run`](StochasticSimulator::run), invoking `observe(time, state)`
    /// after every event. This is the allocation-free way to compute custom
    /// statistics along a run.
    fn run_with_observer<F>(&mut self, stop: &StopCondition, mut observe: F) -> RunOutcome
    where
        F: FnMut(f64, &State),
        Self: Sized,
    {
        let start_events = self.events();
        loop {
            if stop.is_met(self.state()) {
                return self.outcome(StopReason::ConditionMet, start_events);
            }
            if let Some(max_events) = stop.max_events() {
                if self.events() - start_events >= max_events {
                    return self.outcome(StopReason::MaxEventsReached, start_events);
                }
            }
            if let Some(max_time) = stop.max_time() {
                if self.time() >= max_time {
                    return self.outcome(StopReason::MaxTimeReached, start_events);
                }
            }
            match self.step() {
                Some(event) => observe(event.time, self.state()),
                None => return self.outcome(StopReason::Absorbed, start_events),
            }
        }
    }

    /// Builds the outcome summary for the current simulator state.
    #[doc(hidden)]
    fn outcome(&self, reason: StopReason, start_events: u64) -> RunOutcome {
        RunOutcome {
            reason,
            events: self.events() - start_events,
            time: self.time(),
            final_state: self.state().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ReactionNetwork, ValidatedNetwork};
    use crate::reaction::Reaction;
    use crate::species::SpeciesId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Pure-death network: a single species that only dies. Every simulator
    /// must drive it to extinction in exactly `n` events.
    fn pure_death() -> ValidatedNetwork {
        let mut net = ReactionNetwork::new();
        let a = net.add_species("A");
        net.add_reaction(Reaction::new(1.0).reactant(a, 1));
        net.validate().unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn run_stops_immediately_if_condition_already_met() {
        let net = pure_death();
        let mut sim = GillespieDirect::new(&net, State::from(vec![0]), rng(1));
        let outcome = sim.run(&StopCondition::any_species_extinct());
        assert_eq!(outcome.reason, StopReason::ConditionMet);
        assert_eq!(outcome.events, 0);
    }

    #[test]
    fn run_reports_absorption_when_no_reaction_can_fire() {
        let net = pure_death();
        // Condition never met, but the chain is absorbed at zero.
        let mut sim = GillespieDirect::new(&net, State::from(vec![3]), rng(2));
        let outcome = sim.run(&StopCondition::total_at_least(100));
        assert_eq!(outcome.reason, StopReason::Absorbed);
        assert_eq!(outcome.events, 3);
        assert_eq!(outcome.final_state.counts(), &[0]);
    }

    #[test]
    fn run_respects_event_budget() {
        let net = pure_death();
        let mut sim = GillespieDirect::new(&net, State::from(vec![100]), rng(3));
        let outcome = sim.run(&StopCondition::any_species_extinct().with_max_events(10));
        assert_eq!(outcome.reason, StopReason::MaxEventsReached);
        assert_eq!(outcome.events, 10);
        assert_eq!(outcome.final_state.counts(), &[90]);
    }

    #[test]
    fn run_respects_time_budget() {
        let net = pure_death();
        let mut sim = GillespieDirect::new(&net, State::from(vec![1_000]), rng(4));
        let outcome = sim.run(&StopCondition::any_species_extinct().with_max_time(1e-6));
        assert_eq!(outcome.reason, StopReason::MaxTimeReached);
        assert!(outcome.events < 1_000);
    }

    #[test]
    fn run_recording_captures_every_event() {
        let net = pure_death();
        let mut sim = JumpChain::new(&net, State::from(vec![5]), rng(5));
        let (outcome, trajectory) = sim.run_recording(&StopCondition::any_species_extinct());
        assert_eq!(outcome.events, 5);
        // Initial state plus one point per event.
        assert_eq!(trajectory.len(), 6);
        let series = trajectory.species_series(SpeciesId::new(0));
        let counts: Vec<u64> = series.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn observer_sees_monotone_event_times() {
        let net = pure_death();
        let mut sim = GillespieDirect::new(&net, State::from(vec![50]), rng(6));
        let mut last = 0.0;
        let outcome = sim.run_with_observer(&StopCondition::any_species_extinct(), |t, _| {
            assert!(t >= last);
            last = t;
        });
        assert!(outcome.stopped_by_condition());
        assert!(last > 0.0);
    }
}
