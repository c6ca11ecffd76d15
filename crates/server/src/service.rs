//! The memoized threshold-surface service.
//!
//! [`ThresholdService`] owns the [`ThresholdSurface`] cache, a
//! [`SingleFlight`] table and a [`TrialExecutor`], and answers the protocol
//! requests with three invariants:
//!
//! * **cache monotonicity** — a cell's Wilson half-width never widens:
//!   refinement appends trials until the request's target is met, and a
//!   budget-exhausted refinement keeps appending small batches while the
//!   interval is wider than it was at entry;
//! * **incremental spending** — a refinement resumes the cell's RNG stream
//!   at trial index `trials` (never restarts it), so a tighter re-query
//!   spends exactly the difference and repeated queries spend nothing;
//! * **coalescing** — concurrent identical requests serialize behind one
//!   leader per cell; followers wake to a tight cache and spend nothing.
//!
//! Cell randomness is derived from the *spec fingerprint* alone
//! (`Seed(fingerprint).derive("surface").derive("n=…").derive("gap=…")`),
//! never from request parameters, so every request type shares one
//! posterior per cell and results are reproducible across server restarts.

use crate::cache::{CellStats, SurfaceSnapshot, ThresholdSurface};
use crate::error::ServiceError;
use crate::exec::TrialExecutor;
use crate::flight::SingleFlight;
use crate::proto::{
    CacheStatsResponse, EstimateRequest, EstimateResponse, Request, Response, StatusResponse,
    SurfaceCell, SurfaceResponse, SweepRequest, ThresholdRequest, ThresholdResponse,
    SCHEMA_VERSION,
};
use crate::spec::{fingerprint_hex, ScenarioSpec};
use crate::sync;
use lv_engine::wilson;
use lv_sim::{lattice_search, Seed, ThresholdSearch};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tunables of a [`ThresholdService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Default cap on fresh trials per `Estimate`/sweep cell when the
    /// request leaves `max_trials` at 0.
    pub default_max_trials: u64,
    /// Default per-probe trial budget for `Threshold` searches when the
    /// request leaves `trials` at 0.
    pub probe_trials: u64,
    /// The Wilson critical value (default [`wilson::Z95`]).
    pub z: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            default_max_trials: 65_536,
            probe_trials: 400,
            z: wilson::Z95,
        }
    }
}

/// The service: cache + single-flight + executor.
pub struct ThresholdService {
    config: ServiceConfig,
    executor: Box<dyn TrialExecutor>,
    surface: Mutex<ThresholdSurface>,
    flight: SingleFlight,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    interpolated: AtomicU64,
    served: AtomicU64,
}

/// A refined cell plus the accounting of how it was obtained.
struct Refined {
    stats: CellStats,
    fresh: u64,
    coalesced: bool,
}

impl ThresholdService {
    /// A service over the given executor.
    pub fn new(executor: Box<dyn TrialExecutor>, config: ServiceConfig) -> Self {
        ThresholdService {
            config,
            executor,
            surface: Mutex::new(ThresholdSurface::new()),
            flight: SingleFlight::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            interpolated: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// Warm-starts the cache from a snapshot (mismatched records are
    /// dropped by [`ThresholdSurface::restore`]).
    pub fn with_snapshot(self, snapshot: &SurfaceSnapshot) -> Self {
        *sync::lock(&self.surface) = ThresholdSurface::restore(snapshot);
        self
    }

    /// Serializes the current cache.
    pub fn snapshot(&self) -> SurfaceSnapshot {
        sync::lock(&self.surface).snapshot(SCHEMA_VERSION)
    }

    /// The deterministic RNG root of one cell, derived from the spec
    /// fingerprint only — request parameters never shift trial streams.
    fn cell_seed(fingerprint: u64, n: u64, gap: u64) -> Seed {
        // lv-analyze::allow(rng-discipline, reason = "the canonical cell-seed derivation site: the root seed is the spec fingerprint itself, so every request type and server restart shares one stream per cell")
        Seed::new(fingerprint)
            .derive("surface")
            .derive(&format!("n={n}"))
            .derive(&format!("gap={gap}"))
    }

    /// The single-flight key of one cell.
    fn cell_key(fingerprint: u64, n: u64, gap: u64) -> u64 {
        let mut hash = fingerprint ^ 0xcbf2_9ce4_8422_2325;
        for word in [n, gap] {
            for byte in word.to_be_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    fn cell(&self, fingerprint: u64, n: u64, gap: u64) -> CellStats {
        sync::lock(&self.surface)
            .cell(fingerprint, n, gap)
            .unwrap_or_default()
    }

    /// Runs `batch` fresh trials of a cell, appending to its RNG stream at
    /// the current trial count, and banks the outcome.
    fn extend_cell(
        &self,
        spec: &ScenarioSpec,
        fingerprint: u64,
        n: u64,
        gap: u64,
        batch: u64,
    ) -> Result<CellStats, ServiceError> {
        let stats = self.cell(fingerprint, n, gap);
        let seed = Self::cell_seed(fingerprint, n, gap);
        let bits =
            self.executor
                .run_range(spec, n, gap, seed, stats.trials, stats.trials + batch)?;
        let successes = bits.iter().filter(|&&b| b).count() as u64;
        Ok(sync::lock(&self.surface).record(fingerprint, spec, n, gap, successes, batch))
    }

    /// The next batch size toward a target half-width: the Wald sample-size
    /// estimate for the current point, clamped to sane increments and to
    /// the remaining budget.
    fn plan_batch(&self, stats: CellStats, target_ci: f64, remaining: u64) -> u64 {
        let p = stats.point();
        let variance = (p * (1.0 - p)).max(1.0 / (stats.trials + 4) as f64);
        let needed =
            (self.config.z * self.config.z * variance / (target_ci * target_ci)).ceil() as u64 + 1;
        needed
            .saturating_sub(stats.trials)
            .clamp(32, 8_192)
            .min(remaining.max(1))
    }

    /// Refines one feasible cell until its Wilson half-width reaches
    /// `target_ci`, spending at most `max_trials` fresh trials — except
    /// that a budget-exhausted refinement keeps appending small batches
    /// while the interval is wider than it was at entry, so the cache
    /// never widens.
    fn refine_cell(
        &self,
        spec: &ScenarioSpec,
        fingerprint: u64,
        n: u64,
        gap: u64,
        target_ci: f64,
        max_trials: u64,
    ) -> Result<Refined, ServiceError> {
        let guard = self.flight.acquire(Self::cell_key(fingerprint, n, gap));
        let entry_hw = self.cell(fingerprint, n, gap).half_width(self.config.z);
        let mut fresh = 0u64;
        loop {
            let stats = self.cell(fingerprint, n, gap);
            let hw = stats.half_width(self.config.z);
            if hw <= target_ci {
                return Ok(Refined {
                    stats,
                    fresh,
                    coalesced: guard.waited(),
                });
            }
            let batch = if fresh >= max_trials {
                if hw <= entry_hw {
                    // Budget spent and no wider than at entry: the honest
                    // best-effort answer.
                    return Ok(Refined {
                        stats,
                        fresh,
                        coalesced: guard.waited(),
                    });
                }
                // Mid-refinement the interval can sit wider than at entry
                // (the point estimate moved toward ½ before the count
                // caught up); keep appending minimal batches until cache
                // monotonicity is restored.
                32
            } else {
                self.plan_batch(stats, target_ci, max_trials - fresh)
            };
            self.extend_cell(spec, fingerprint, n, gap, batch)?;
            fresh += batch;
        }
    }

    /// Refines one cell until its Wilson interval clears the decision
    /// boundary `target` (or the probe budget runs out), mirroring the
    /// adaptive probes of [`lv_sim::ThresholdSearch`] cell by cell.
    fn probe_cell(
        &self,
        spec: &ScenarioSpec,
        fingerprint: u64,
        n: u64,
        gap: u64,
        target: f64,
        budget: u64,
    ) -> Result<(CellStats, u64), ServiceError> {
        let _guard = self.flight.acquire(Self::cell_key(fingerprint, n, gap));
        let min_trials = 8.min(budget);
        let mut fresh = 0u64;
        loop {
            let stats = self.cell(fingerprint, n, gap);
            let decided = stats.trials >= min_trials
                && wilson::decides(stats.successes, stats.trials, self.config.z, target);
            if decided || stats.trials >= budget {
                return Ok((stats, fresh));
            }
            // Geometric batches emulate the streaming early-stopper: cheap
            // first looks far from the boundary, budget-bounded near it.
            let batch = (stats.trials / 2)
                .clamp(min_trials.max(8), 1_024)
                .min(budget - stats.trials);
            self.extend_cell(spec, fingerprint, n, gap, batch)?;
            fresh += batch;
        }
    }

    /// Answers an `Estimate`.
    pub fn estimate(&self, request: &EstimateRequest) -> Result<EstimateResponse, ServiceError> {
        if !(request.target_ci > 0.0 && request.target_ci.is_finite()) {
            return Err(ServiceError::bad_request(format!(
                "target_ci must be a positive finite number, got {}",
                request.target_ci
            )));
        }
        let spec = request.spec.clone().validated()?;
        let family = spec.family(request.n)?;
        let fingerprint = spec.fingerprint();

        if !family.feasible(request.gap) {
            // Off the lattice: answer by interpolation from cached
            // neighbours, or explain what would be feasible.
            let interpolated = sync::lock(&self.surface).interpolate(
                fingerprint,
                request.n,
                request.gap,
                self.config.z,
            );
            return match interpolated {
                Some(answer) => {
                    self.interpolated.fetch_add(1, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Ok(EstimateResponse {
                        fingerprint: fingerprint_hex(fingerprint),
                        n: request.n,
                        gap: request.gap,
                        successes: 0,
                        trials: 0,
                        point: answer.point,
                        ci_low: (answer.point - answer.half_width).max(0.0),
                        ci_high: (answer.point + answer.half_width).min(1.0),
                        half_width: answer.half_width,
                        cache_hit: true,
                        fresh_trials: 0,
                        interpolated: true,
                        coalesced: false,
                    })
                }
                None => Err(ServiceError::new(
                    "off-lattice",
                    format!(
                        "gap {} is off the feasible lattice at n = {} (nearest feasible: {}) \
                         and no cached neighbours bracket it for interpolation",
                        request.gap,
                        request.n,
                        family.snap(request.gap)
                    ),
                )),
            };
        }

        let max_trials = if request.max_trials == 0 {
            self.config.default_max_trials
        } else {
            request.max_trials
        };
        let refined = self.refine_cell(
            &spec,
            fingerprint,
            request.n,
            request.gap,
            request.target_ci,
            max_trials,
        )?;
        if refined.coalesced {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        if refined.fresh == 0 {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let stats = refined.stats;
        let (ci_low, ci_high) = wilson::interval(stats.successes, stats.trials, self.config.z);
        Ok(EstimateResponse {
            fingerprint: fingerprint_hex(fingerprint),
            n: request.n,
            gap: request.gap,
            successes: stats.successes,
            trials: stats.trials,
            point: stats.point(),
            ci_low,
            ci_high,
            half_width: stats.half_width(self.config.z),
            cache_hit: refined.fresh == 0,
            fresh_trials: refined.fresh,
            interpolated: false,
            coalesced: refined.coalesced,
        })
    }

    /// Answers a `Threshold`: the lattice walk of [`lv_sim::lattice_search`]
    /// (the one [`ThresholdSearch::find_gap`] runs), with every probe
    /// memoized as a surface cell — a repeated search re-reads its probes
    /// from cache.
    pub fn threshold(&self, request: &ThresholdRequest) -> Result<ThresholdResponse, ServiceError> {
        let spec = request.spec.clone().validated()?;
        let family = spec.family(request.n)?;
        let fingerprint = spec.fingerprint();
        let budget = if request.trials == 0 {
            self.config.probe_trials
        } else {
            request.trials
        };
        if budget <= 3 {
            return Err(ServiceError::bad_request(format!(
                "a threshold search needs more than 3 trials per probe, got {budget}"
            )));
        }
        let n = request.n;
        let target = if request.target == 0.0 {
            ThresholdSearch::default_target(n, budget)
        } else if request.target > 0.0 && request.target < 1.0 {
            request.target
        } else {
            return Err(ServiceError::bad_request(format!(
                "target must lie in (0, 1), got {}",
                request.target
            )));
        };

        let mut fresh_trials = 0u64;
        let result = lattice_search(&family, &spec.backend, target, |gap| {
            let (stats, fresh) = self.probe_cell(&spec, fingerprint, n, gap, target, budget)?;
            fresh_trials += fresh;
            Ok::<_, ServiceError>((stats.successes, stats.trials))
        })?;
        self.count_request(fresh_trials);
        Ok(ThresholdResponse {
            fingerprint: fingerprint_hex(fingerprint),
            result,
            fresh_trials,
        })
    }

    /// Answers a `SweepSurface`: every requested `(n, gap)` snapped to the
    /// feasible lattice and refined to the target width, deduplicated.
    pub fn sweep(&self, request: &SweepRequest) -> Result<SurfaceResponse, ServiceError> {
        if !(request.target_ci > 0.0 && request.target_ci.is_finite()) {
            return Err(ServiceError::bad_request(format!(
                "target_ci must be a positive finite number, got {}",
                request.target_ci
            )));
        }
        if request.n_lattice.is_empty() || request.gap_lattice.is_empty() {
            return Err(ServiceError::bad_request(
                "n_lattice and gap_lattice must be non-empty",
            ));
        }
        let spec = request.spec.clone().validated()?;
        let fingerprint = spec.fingerprint();
        // Snap every requested pair; remember which requested gap each
        // distinct cell first answered.
        let mut cells: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for &n in &request.n_lattice {
            let family = spec.family(n)?;
            for &gap in &request.gap_lattice {
                cells.entry((n, family.snap(gap))).or_insert(gap);
            }
        }
        let mut fresh_total = 0u64;
        let mut rows = Vec::with_capacity(cells.len());
        for (&(n, gap), &requested_gap) in &cells {
            let refined = self.refine_cell(
                &spec,
                fingerprint,
                n,
                gap,
                request.target_ci,
                self.config.default_max_trials,
            )?;
            fresh_total += refined.fresh;
            rows.push(SurfaceCell {
                n,
                gap,
                requested_gap,
                successes: refined.stats.successes,
                trials: refined.stats.trials,
                point: refined.stats.point(),
                half_width: refined.stats.half_width(self.config.z),
            });
        }
        self.count_request(fresh_total);
        Ok(SurfaceResponse {
            fingerprint: fingerprint_hex(fingerprint),
            cells: rows,
            fresh_trials: fresh_total,
        })
    }

    fn count_request(&self, fresh: u64) {
        if fresh == 0 {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Answers a `Status`.
    pub fn status(&self) -> StatusResponse {
        StatusResponse {
            schema_version: SCHEMA_VERSION,
            executor: self.executor.describe(),
            served: self.served.load(Ordering::Relaxed),
        }
    }

    /// Answers a `CacheStats`.
    pub fn cache_stats(&self) -> CacheStatsResponse {
        let surface = sync::lock(&self.surface);
        CacheStatsResponse {
            entries: surface.entry_count(),
            cells: surface.cell_count(),
            trials: surface.total_trials(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            interpolated: self.interpolated.load(Ordering::Relaxed),
        }
    }

    /// Dispatches one request to one response. Never panics outward: a
    /// panic anywhere in a handler becomes an `internal` error response,
    /// so one poisoned request cannot take the server down.
    pub fn handle(&self, request: &Request) -> Response {
        self.served.fetch_add(1, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| match request {
            Request::Estimate(r) => self.estimate(r).map(Response::Estimate),
            Request::Threshold(r) => self.threshold(r).map(Response::Threshold),
            Request::SweepSurface(r) => self.sweep(r).map(Response::Surface),
            Request::Status => Ok(Response::Status(self.status())),
            Request::CacheStats => Ok(Response::CacheStats(self.cache_stats())),
            Request::Shutdown => Ok(Response::ShuttingDown),
        }));
        match outcome {
            Ok(Ok(response)) => response,
            Ok(Err(e)) => Response::Error(e.into()),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "request handler panicked".to_string());
                Response::Error(ServiceError::internal(message).into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::InProcessExecutor;
    use lv_lotka::{CompetitionKind, LvModel};
    use std::sync::Arc;
    use std::thread;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::two_species(
            LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
            "jump-chain",
        )
    }

    fn estimate_request() -> EstimateRequest {
        EstimateRequest {
            spec: spec(),
            n: 64,
            gap: 8,
            target_ci: 0.2,
            max_trials: 64,
        }
    }

    fn service() -> ThresholdService {
        ThresholdService::new(
            Box::new(InProcessExecutor::new(1)),
            ServiceConfig::default(),
        )
    }

    /// A request that panics mid-handler (poisoning the surface lock in the
    /// worst case) must cost only itself: the next request over the same
    /// service still gets a real answer, not a propagated panic.
    #[test]
    fn poisoned_surface_lock_does_not_kill_the_service() {
        let service = Arc::new(service());
        let poisoner = Arc::clone(&service);
        let _ = thread::spawn(move || {
            let _guard = poisoner.surface.lock().unwrap();
            panic!("poison the surface cache mid-request");
        })
        .join();
        assert!(service.surface.is_poisoned());

        match service.handle(&Request::CacheStats) {
            Response::CacheStats(stats) => assert_eq!(stats.cells, 0),
            other => panic!("expected CacheStats, got {other:?}"),
        }
        match service.handle(&Request::Estimate(estimate_request())) {
            Response::Estimate(estimate) => {
                assert!(estimate.trials > 0, "refinement ran through the poison")
            }
            other => panic!("expected Estimate, got {other:?}"),
        }
        assert!(service.surface.is_poisoned(), "recovery does not unpoison");
        assert!(!service.snapshot().entries.is_empty());
    }

    /// A panic inside a handler becomes an `internal` error response and the
    /// service keeps serving.
    #[test]
    fn handler_panics_become_internal_error_responses() {
        struct PanickingExecutor;
        impl TrialExecutor for PanickingExecutor {
            fn run_range(
                &self,
                _spec: &ScenarioSpec,
                _n: u64,
                _gap: u64,
                _seed: Seed,
                _lo: u64,
                _hi: u64,
            ) -> Result<Vec<bool>, ServiceError> {
                panic!("executor exploded")
            }
            fn describe(&self) -> String {
                "panicking".to_string()
            }
        }
        let service = ThresholdService::new(Box::new(PanickingExecutor), ServiceConfig::default());
        match service.handle(&Request::Estimate(estimate_request())) {
            Response::Error(e) => {
                assert_eq!(e.code, "internal");
                assert!(e.message.contains("executor exploded"));
            }
            other => panic!("expected an error response, got {other:?}"),
        }
        match service.handle(&Request::Status) {
            Response::Status(status) => assert_eq!(status.served, 2),
            other => panic!("expected Status, got {other:?}"),
        }
    }
}
