//! # lv-server — the threshold-surface service
//!
//! A long-running server that answers success-probability and threshold
//! queries over the competitive Lotka-Volterra simulator, memoizing every
//! `(model-fingerprint, n, gap)` cell it ever measures:
//!
//! * a repeated query is served from cache with **zero fresh trials**;
//! * a *tighter* re-query spends only the **incremental** trials — the
//!   cell's RNG stream is resumed at its current trial index, never
//!   restarted, so the refined posterior is exactly what one uninterrupted
//!   run would have produced;
//! * concurrent identical queries **coalesce** behind one in-flight
//!   computation;
//! * trial execution is pluggable: in-process streaming
//!   ([`InProcessExecutor`]) or a multi-process [`WorkerPool`] fanning
//!   trial ranges out over spawned `lv-serve --worker` processes —
//!   bit-identical to in-process at any worker count, because every trial
//!   `i` draws from `seed.rng_for_trial(i)` wherever it runs.
//!
//! The crate layers bottom-up: [`wire`] (length-prefixed frames) →
//! [`proto`] (versioned messages) → [`spec`]/[`cache`] (fingerprints and
//! the surface memo) → [`exec`] (trial executors) → [`service`] (the
//! memoized request brain) → [`server`]/[`client`] (sockets). See
//! `PROTOCOL.md` for the wire contract.

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod error;
pub mod exec;
pub mod flight;
pub mod proto;
pub mod server;
pub mod service;
pub mod spec;
pub mod sync;
pub mod wire;

pub use cache::{CellStats, SurfaceSnapshot, ThresholdSurface};
pub use client::Client;
pub use error::ServiceError;
pub use exec::{run_worker, InProcessExecutor, TrialExecutor, WorkerPool};
pub use flight::SingleFlight;
pub use proto::{
    CacheStatsResponse, EstimateRequest, EstimateResponse, Hello, Request, Response,
    StatusResponse, SurfaceCell, SurfaceResponse, SweepRequest, ThresholdRequest,
    ThresholdResponse, SCHEMA_VERSION,
};
pub use server::{BindAddr, Server};
pub use service::{ServiceConfig, ThresholdService};
pub use spec::{GapFamily, ModelSpec, ScenarioSpec};
