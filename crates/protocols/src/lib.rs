//! # lv-protocols — baseline majority-consensus protocols
//!
//! The paper positions its Lotka–Volterra results against several baselines
//! from the distributed-computing literature (Sections 1.1, 2.2 and the last
//! two rows of Table 1). This crate implements those baselines so the
//! benchmark harness can reproduce the comparisons:
//!
//! * [`ApproximateMajority`] — the 3-state approximate-majority population
//!   protocol of Angluin, Aspnes and Eisenstat \[8\]: succeeds with high
//!   probability when the initial gap is `Ω(√n·log n)` and converges in
//!   `O(n log n)` interactions.
//! * [`ExactMajority4State`] — the 4-state exact-majority protocol of
//!   Draief–Vojnović / Mertzios et al. \[31, 61\]: always correct for any
//!   positive gap, but needs `Θ(n²)` expected interactions.
//! * [`CzyzowiczLvProtocol`] — the two-species discrete Lotka–Volterra-like
//!   population protocol dynamics studied by Czyzowicz et al. \[24\]
//!   (`X + Y → X + X`), which requires a *linear* gap for majority consensus.
//! * [`AndaurResourceModel`] — the resource-consumer model of Andaur et
//!   al. \[6\]: bounded (non-mass-action) growth, no individual deaths and
//!   non-self-destructive interference competition; its majority-consensus
//!   threshold is `O(√n·log n)`.
//! * [`SelfDestructiveLvProtocol`] — the self-destructive counterpart of the
//!   Czyzowicz dynamics (`X + Y → ∅ + ∅` on a static scheduler): the gap is
//!   invariant, so any non-zero gap decides correctly in `Θ(n log n)`
//!   interactions — the discrete rendition of the paper's self-destructive
//!   competition mechanism.
//!
//! All population protocols implement the [`PopulationProtocol`] trait and are
//! run with [`run_protocol`], which pairs agents uniformly at random (the
//! standard random scheduler) until consensus or an interaction budget is
//! exhausted.
//!
//! # Count-based batched simulation
//!
//! Every protocol here is anonymous with an `O(1)` state space, so the
//! [`counted`] module simulates populations as state → count maps instead of
//! agent lists: [`CountedDynamics`] compiles a protocol (any
//! [`EnumerableProtocol`], or the `k`-opinion Czyzowicz dynamics) into a
//! dense transition table, and [`CountedSimulation`] steps it in three
//! ways, all equal in distribution to the agent-list stepper: one exact
//! interaction at a time; in collision-free *batches* of `Θ(√n)`
//! interactions sampled by the birthday-bound and hypergeometric draws of
//! [`sampling`]; or in exact *thinning windows* that draw only candidates
//! for the interactions that change a state and charge the inert ones in
//! one negative binomial draw. The sampling layer's rejection kernels
//! ([`HypergeometricSampler`], [`BinomialSampler`]) run in constant
//! expected time with per-urn cached setup, so each epoch costs `O(1)`
//! draws of `O(1)` work — `o(1)` per interaction with small constants — and
//! a window costs `O(1)` per candidate, which is cheaper still wherever few
//! pairs react. This is the engine behind the count-space protocol backends
//! and the `n = 10⁷` threshold sweeps.
//!
//! # Diffusion-bridged first-passage sampling
//!
//! Batched epochs make each interaction `o(1)`, but the conversion dynamics
//! still *perform* `Θ(n²)` interactions per trial near a tie. The [`bridge`]
//! module removes that wall for the Czyzowicz conversion dynamics:
//! [`BridgedConversionWalk`] advances the count chain in diffusion-bridged
//! blocks (binomial displacement bridges that are exact in law at *every*
//! block size — no normal-approximation branch — a CLT interaction clock,
//! and a boundary-exact band), bringing per-trial cost down to
//! `Õ(poly log n)` so linear-law sweeps reach `n = 10⁷`. Its exact
//! *thinning windows* ([`BridgedConversionWalk::step_window`]) resolve the
//! band and are the kernel of the exact conversion backends (which switch
//! to counted epochs in the near-tie phase of large populations): they
//! draw only conversion candidates and charge the inert interactions
//! between them in one negative binomial draw per window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod andaur;
mod approximate_majority;
pub mod bridge;
pub mod counted;
mod czyzowicz;
mod exact_majority;
mod protocol;
pub mod sampling;
mod self_destructive;

pub use andaur::{AndaurOutcome, AndaurResourceModel};
pub use approximate_majority::{ApproximateMajority, TriState};
pub use bridge::{BridgeStep, BridgedConversionWalk};
pub use counted::{CountedDynamics, CountedSimulation, EnumerableProtocol};
pub use czyzowicz::CzyzowiczLvProtocol;
pub use exact_majority::{ExactMajority4State, FourState};
pub use protocol::{
    run_protocol, Interaction, Opinion, PopulationProtocol, ProtocolOutcome, ProtocolSimulation,
};
pub use sampling::{BinomialSampler, HypergeometricSampler};
pub use self_destructive::{SdState, SelfDestructiveLvProtocol};
