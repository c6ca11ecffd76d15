//! # lv-consensus
//!
//! A reproduction of *“Majority consensus thresholds in competitive
//! Lotka–Volterra populations”* (Függer, Nowak, Rybicki; PODC 2024).
//!
//! This facade crate re-exports the member crates of the workspace so that a
//! downstream user can depend on a single crate:
//!
//! * [`crn`] — chemical reaction networks with mass-action stochastic kinetics
//!   (Gillespie direct method, jump chain, tau-leaping).
//! * [`chains`] — single-species birth–death chains, the “nice chain”
//!   abstraction, the dominating chain of §5.2 and the asynchronous
//!   pseudo-coupling of §5.1.
//! * [`lotka`] — the competitive Lotka–Volterra models: the paper's
//!   two-species models of §1.3, the general `k`-species
//!   [`lotka::MultiLvModel`] (k×k attack matrix) with the dense
//!   [`lotka::Population`] state, and the majority/plurality observables
//!   (consensus time, winner, margin trajectory, noise decomposition).
//! * [`ode`] — the deterministic competitive Lotka–Volterra ODE (Eq. 4), its
//!   `k`-species generalisation with the Champagnat–Jabin–Raoul interior
//!   equilibrium solver, and in-repo Runge–Kutta integrators.
//! * [`engine`] — the unified simulation API: a `k`-species
//!   [`engine::Scenario`] description (model + initial population + stop
//!   condition + observers) executed by any [`engine::Backend`] from the
//!   string-keyed registry of nine rows, one per law (`"jump-chain"`,
//!   `"gillespie-direct"`, `"tau-leaping"`, `"ode"`, the count-based
//!   protocol baselines `"approx-majority"`, `"exact-majority"`,
//!   `"czyzowicz-lv"` — any `k ≥ 2` opinions — and `"annihilation-lv"`, and
//!   the diffusion-bridged conversion backend `"czyzowicz-lv-bridged"`;
//!   retired names such as `"next-reaction"` or `"czyzowicz-lv-k"` stay
//!   aliases), plus named multi-species scenario presets
//!   ([`engine::presets`]).
//! * [`protocols`] — baseline protocols from related work (3-state approximate
//!   majority, 4-state exact majority, Czyzowicz et al. LV population
//!   protocol, the self-destructive annihilation dynamics, Andaur et al.
//!   resource-consumer model), with the count-based batched simulation
//!   engine ([`protocols::CountedDynamics`] / [`protocols::CountedSimulation`]
//!   and the birthday-bound/hypergeometric samplers in
//!   [`protocols::sampling`]) that pushes protocol runs to `n = 10⁷⁺`, and
//!   the diffusion-bridged first-passage sampler
//!   ([`protocols::BridgedConversionWalk`]) that collapses the `Θ(n²)`
//!   interactions of a conversion trial into `Õ(poly log n)` bridge blocks,
//!   and whose exact thinning windows skip the inert interactions of the
//!   conversion dynamics.
//! * [`server`] — the threshold-surface service: a memoized sweep server
//!   ([`server::ThresholdService`]) over a versioned length-prefixed wire
//!   format (TCP or Unix sockets), with incremental Wilson refinement,
//!   single-flight request coalescing, bilinear off-lattice interpolation,
//!   snapshot warm starts and an optional multi-process
//!   [`server::WorkerPool`] that shards trial ranges bit-identically across
//!   spawned worker processes (binaries `lv-serve` / `lv-client`).
//! * [`sim`] — Monte-Carlo engine over scenario batches, estimators
//!   (including `k`-species [`sim::PluralityStats`]), the backend-generic
//!   adaptive threshold search ([`sim::ThresholdSearch`] over
//!   [`sim::GapScenario`] factories), scaling fits and the experiment suite
//!   that regenerates Table 1 of the paper plus the multi-species plurality
//!   suite, the per-backend threshold-scaling comparison and the large-`n`
//!   batched protocol sweeps (E16).
//!
//! # Quick start
//!
//! Estimate a success probability through the Monte-Carlo layer (which runs
//! every trial through the engine's jump-chain backend):
//!
//! ```
//! use lv_consensus::lotka::{CompetitionKind, LvModel};
//! use lv_consensus::sim::{MonteCarlo, Seed};
//!
//! // Neutral self-destructive Lotka–Volterra system with initial state (550, 450).
//! let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
//! let mc = MonteCarlo::new(200, Seed::from(42));
//! let estimate = mc.success_probability(&model, 550, 450);
//! assert!(estimate.point() > 0.5);
//! ```
//!
//! Or describe the run once as a [`engine::Scenario`] and execute it on any
//! backend from the registry:
//!
//! ```
//! use lv_consensus::engine::{backend, ObserverSpec, Scenario};
//! use lv_consensus::lotka::{CompetitionKind, LvModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
//! let scenario = Scenario::majority(model, 550, 450).observe(ObserverSpec::GapTrajectory);
//! for name in ["jump-chain", "gillespie-direct", "tau-leaping"] {
//!     let mut rng = StdRng::seed_from_u64(42);
//!     let report = backend(name).unwrap().run(&scenario, &mut rng);
//!     assert!(report.consensus_reached(), "{name}");
//!     // The derived view reproduces the classic MajorityOutcome fields.
//!     let outcome = report.to_majority_outcome();
//!     assert_eq!(outcome.consensus_reached, true);
//! }
//! ```

#![forbid(unsafe_code)]

pub use lv_chains as chains;
pub use lv_crn as crn;
pub use lv_engine as engine;
pub use lv_lotka as lotka;
pub use lv_ode as ode;
pub use lv_protocols as protocols;
pub use lv_server as server;
pub use lv_sim as sim;
