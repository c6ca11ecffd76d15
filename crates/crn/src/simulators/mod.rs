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
//! All simulators implement [`StochasticSimulator`]: they are steppers that
//! fire one event (or one leap) per [`step`](StochasticSimulator::step).
//! Stop conditions, budgets and observers live with the caller; the
//! `lv-engine` backends drive every simulator through one loop.

mod direct;
mod jump_chain;
mod tau_leaping;

pub use direct::GillespieDirect;
pub use jump_chain::JumpChain;
pub use tau_leaping::TauLeaping;

use crate::reaction::ReactionId;
use crate::state::State;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ReactionNetwork, ValidatedNetwork};
    use crate::reaction::Reaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Pure-death network: a single species that only dies, so every run
    /// from `n` fires exactly `n` events and is then absorbed.
    fn pure_death() -> ValidatedNetwork {
        let mut net = ReactionNetwork::new();
        let a = net.add_species("A");
        net.add_reaction(Reaction::new(1.0).reactant(a, 1));
        net.validate().unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Runs `body` on each simulator over `net` from `initial`, labelled
    /// and flagged exact (one firing per step) or not.
    fn each_simulator(
        net: &ValidatedNetwork,
        initial: u64,
        seed: u64,
        mut body: impl FnMut(&str, bool, &mut dyn StochasticSimulator),
    ) {
        let state = || State::from(vec![initial]);
        body(
            "gillespie-direct",
            true,
            &mut GillespieDirect::new(net, state(), rng(seed)),
        );
        body(
            "jump-chain",
            true,
            &mut JumpChain::new(net, state(), rng(seed)),
        );
        body(
            "tau-leaping",
            false,
            &mut TauLeaping::new(net, state(), 0.1, rng(seed)),
        );
    }

    /// A run of pure death ends in absorption: exact simulators count down
    /// one death per step, tau-leaping in leaps, and once the population is
    /// gone `step` returns `None` and leaves the state alone.
    #[test]
    fn run_reports_absorption_when_no_reaction_can_fire() {
        each_simulator(&pure_death(), 5, 2, |name, exact, sim| {
            let mut counts = vec![sim.state().counts()[0]];
            while sim.step().is_some() {
                counts.push(sim.state().counts()[0]);
            }
            assert_eq!(counts.last(), Some(&0), "{name}");
            assert_eq!(sim.events(), 5, "{name}");
            if exact {
                assert_eq!(counts, [5, 4, 3, 2, 1, 0], "{name}");
            } else {
                assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{name}");
            }
            let time = sim.time();
            assert!(sim.step().is_none(), "{name}");
            assert_eq!(sim.state().counts(), &[0], "{name}");
            assert_eq!((sim.events(), sim.time()), (5, time), "{name}");
        });
    }

    /// Recording a stepped run until extinction keeps the initial point and
    /// one point per event, each at the time its event reports.
    #[test]
    fn run_recording_captures_every_event() {
        let net = pure_death();
        let stop = crate::stop::StopCondition::any_species_extinct();
        let mut sim = JumpChain::new(&net, State::from(vec![5]), rng(5));
        let mut recorded = vec![(sim.time(), sim.state().counts()[0])];
        while !stop.is_met(sim.state()) {
            let event = sim.step().expect("a live population can always die");
            recorded.push((event.time, sim.state().counts()[0]));
        }
        assert_eq!(sim.events(), 5);
        assert_eq!(recorded.len(), 6);
        let counts: Vec<u64> = recorded.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![5, 4, 3, 2, 1, 0]);
        let times: Vec<f64> = recorded.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    /// Every event reports the clock after it, and the clock never runs
    /// backwards.
    #[test]
    fn event_times_never_decrease() {
        each_simulator(&pure_death(), 50, 6, |name, _, sim| {
            let mut last = sim.time();
            assert_eq!(last, 0.0, "{name}");
            while let Some(event) = sim.step() {
                assert!(event.time >= last, "{name}: {} after {last}", event.time);
                assert_eq!(event.time, sim.time(), "{name}");
                last = event.time;
            }
            assert!(last > 0.0, "{name}");
        });
    }
}
