//! # lv-engine — one scenario description, nine execution backends
//!
//! Every experiment in the reproduction of *“Majority consensus thresholds
//! in competitive Lotka–Volterra populations”* (Függer, Nowak, Rybicki; PODC
//! 2024) reduces to the same shape: *run a model under some kinetics until a
//! stop condition, collect observables, aggregate over trials*. This crate
//! is that shape, made explicit — over populations of any `k ≥ 2` species:
//!
//! * [`Scenario`] — the *what*: a model (the paper's two-species
//!   [`lv_lotka::LvModel`] or the general `k`-species
//!   [`lv_lotka::MultiLvModel`]), an initial [`lv_lotka::Population`], a
//!   [`lv_crn::StopCondition`] and a set of composable [`ObserverSpec`]s;
//! * [`Backend`] — the *how*: an object-safe execution engine. Nine are
//!   built in, one per law — the exact specialised jump chain (the paper's
//!   chain `S`), the Gillespie direct method, tau-leaping, the
//!   deterministic mean-field ODE, four count-based population-protocol
//!   baselines (3-state approximate majority, 4-state exact majority and
//!   the self-destructive annihilation dynamics in batched epochs; the
//!   Czyzowicz et al. discrete LV conversion dynamics over any `k ≥ 2`
//!   opinions in exact thinning windows that skip inert interactions) and
//!   the diffusion-bridged conversion backend (`"czyzowicz-lv-bridged"`,
//!   which samples the conversion count walk in first-passage bridge
//!   blocks at `Õ(poly log n)` per trial);
//! * [`BackendRegistry`] — string-keyed backend selection for CLIs and
//!   benches (`"jump-chain"`, `"gillespie-direct"`, `"tau-leaping"`,
//!   `"ode"`, `"approx-majority"`, `"exact-majority"`, `"czyzowicz-lv"`,
//!   `"annihilation-lv"`, `"czyzowicz-lv-bridged"`, plus aliases — among
//!   them the retired names `"next-reaction"`, `"czyzowicz-lv-k"`,
//!   `"czyzowicz-lv-k-bridged"` and the `-agents` names, each resolving to
//!   the row with the same law): a read-only view of one static table with
//!   a row per built-in backend;
//! * [`presets`] — named multi-species scenario presets (3-species cyclic
//!   competition, planted `k`-species plurality, two-vs-many coalition);
//! * [`RunReport`] — the uniform result: summary fields plus one
//!   [`Observation`] per observer, with
//!   [`RunReport::to_plurality_outcome`] as the derived plurality-consensus
//!   view and [`RunReport::to_majority_outcome`] as its two-species
//!   projection;
//! * [`stream`] — streaming batch execution: a lock-free [`ShardQueue`]
//!   handing out one trial per claim, a [`ReportStream`] running trials on
//!   its consumer and a process-wide helper pool and yielding reports in
//!   trial order as trials finish, [`OnlineAccumulator`]s folded
//!   incrementally (no batch is ever materialised) and [`EarlyStop`], a
//!   sequential stopping rule on the success-probability confidence width.
//!
//! The Monte-Carlo layer (`lv_sim::MonteCarlo`), the experiment suite and
//! the benchmark harness are all thin adapters over scenario batches, so a
//! new kind of kinetics — or a new `k`-species workload — is *one new
//! backend or preset*, not a new bespoke simulation loop.
//!
//! # Example: one scenario, every backend
//!
//! ```
//! use lv_engine::{BackendRegistry, Scenario};
//! use lv_lotka::{CompetitionKind, LvModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
//! let scenario = Scenario::majority(model, 80, 20);
//! for backend in BackendRegistry::global().iter() {
//!     let mut rng = StdRng::seed_from_u64(7);
//!     let report = backend.run(&scenario, &mut rng);
//!     // Every backend — LV kernels and protocol baselines alike — drives
//!     // the run to consensus. (Who wins is another matter: the Czyzowicz
//!     // baseline follows the proportional law, so a 4:1 majority only
//!     // wins 80% of its runs.)
//!     assert!(report.consensus_reached(), "{}", backend.name());
//! }
//! ```
//!
//! # Example: a three-species plurality contest
//!
//! ```
//! use lv_engine::{backend, Scenario};
//! use lv_lotka::{CompetitionKind, MultiLvModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
//! let scenario = Scenario::plurality(model, vec![70, 20, 10]);
//! let mut rng = StdRng::seed_from_u64(1);
//! let outcome = backend("jump-chain")
//!     .unwrap()
//!     .run(&scenario, &mut rng)
//!     .to_plurality_outcome();
//! assert_eq!(outcome.initial_leader, Some(0));
//! assert!(outcome.consensus_reached);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod backends;
mod observer;
pub mod presets;
mod protocol_backend;
mod registry;
mod report;
mod scenario;
pub mod stream;
pub mod wilson;

pub use backend::Backend;
pub use backends::mean_field_system;
pub use observer::{
    EventCounts, NoiseObservation, Observation, Observer, ObserverSpec, StepRecord,
};
pub use presets::{preset, ScenarioPreset};
pub use registry::{backend, BackendRegistry};
pub use report::{PluralityOutcome, RunReport};
pub use scenario::{default_majority_budget, majority_budget, Scenario, ScenarioModel};
pub use stream::{
    EarlyStop, OnlineAccumulator, PluralityTally, Progress, ReportStream, RunMoments, ShardQueue,
    StreamConfig, SuccessTally, TrialRngFactory, Welford,
};
