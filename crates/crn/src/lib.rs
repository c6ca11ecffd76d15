//! # lv-crn — chemical reaction networks with stochastic mass-action kinetics
//!
//! This crate implements the chemical-reaction-network (CRN) substrate used by
//! the reproduction of *“Majority consensus thresholds in competitive
//! Lotka–Volterra populations”* (Függer, Nowak, Rybicki; PODC 2024).
//!
//! The paper formalises its population models as CRNs with mass-action
//! stochastic kinetics (Section 1.3): in a configuration `x`, every reaction
//! `R` has a *propensity* `φ_R(x)`; the time to the next reaction is
//! exponential with rate `φ(x) = Σ_R φ_R(x)` and reaction `R` fires next with
//! probability `φ_R(x)/φ(x)`. The paper then analyses the embedded
//! discrete-time *jump chain*. This crate provides:
//!
//! * the network formalism ([`ReactionNetwork`], [`Reaction`], [`Species`],
//!   [`State`]) with validation and mass-action [`propensity`] evaluation;
//! * exact simulators: the Gillespie direct method
//!   ([`simulators::GillespieDirect`]) and the discrete-time jump chain
//!   ([`simulators::JumpChain`]);
//! * an approximate tau-leaping simulator ([`simulators::TauLeaping`]) for
//!   large populations;
//! * stop conditions ([`StopCondition`]) and the small sampling utilities
//!   the simulators need ([`distributions`]).
//!
//! The simulators are steppers: each
//! [`step`](simulators::StochasticSimulator::step) fires one event (or one
//! leap) and reports it. They hold no run loop; `lv-engine`'s backends drive
//! them, evaluating the [`StopCondition`] and its budgets between steps.
//!
//! # Example
//!
//! Build the self-destructive Lotka–Volterra network of Eq. (1) in the paper
//! and step its jump chain until one species goes extinct:
//!
//! ```
//! use lv_crn::{ReactionNetwork, Reaction, State, StopCondition};
//! use lv_crn::simulators::{JumpChain, StochasticSimulator};
//! use rand::SeedableRng;
//!
//! let mut net = ReactionNetwork::new();
//! let x0 = net.add_species("X0");
//! let x1 = net.add_species("X1");
//! let (beta, delta, alpha) = (1.0, 1.0, 1.0);
//! for (s, o) in [(x0, x1), (x1, x0)] {
//!     net.add_reaction(Reaction::new(beta).reactant(s, 1).product(s, 2));
//!     net.add_reaction(Reaction::new(delta).reactant(s, 1));
//!     net.add_reaction(Reaction::new(alpha).reactant(s, 1).reactant(o, 1));
//! }
//! let net = net.validate().expect("well-formed network");
//!
//! let rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut sim = JumpChain::new(&net, State::from(vec![60, 40]), rng);
//! let stop = StopCondition::any_species_extinct();
//! while !stop.is_met(sim.state()) && sim.step().is_some() {}
//! assert!(sim.state().count(x0) == 0 || sim.state().count(x1) == 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distributions;
mod error;
mod network;
mod propensity;
mod reaction;
mod sampling;
pub mod simulators;
mod species;
mod state;
mod stop;

pub use error::{CrnError, Result};
pub use network::{ReactionNetwork, ValidatedNetwork};
pub use propensity::{propensity, total_propensity, PropensityCache, ReactionDependencies};
pub use reaction::{Reaction, ReactionId, Stoichiometry};
pub use species::{Species, SpeciesId};
pub use state::State;
pub use stop::{StopCondition, StopReason};

/// Convenience prelude importing the most commonly used items.
pub mod prelude {
    pub use crate::simulators::{GillespieDirect, JumpChain, StochasticSimulator, TauLeaping};
    pub use crate::{
        propensity, total_propensity, Reaction, ReactionId, ReactionNetwork, Species, SpeciesId,
        State, StopCondition, ValidatedNetwork,
    };
}
