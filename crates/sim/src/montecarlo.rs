use crate::estimate::SuccessEstimate;
use crate::seed::Seed;
use lv_crn::StopCondition;
use lv_engine::stream::{
    EarlyStop, OnlineAccumulator, Progress, ReportStream, StreamConfig, SuccessTally,
    TrialRngFactory,
};
use lv_engine::{default_majority_budget, RunReport, Scenario};
use lv_lotka::LvModel;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Aggregate statistics of the majority-consensus observables over a batch of
/// trials (the quantities bounded by Theorem 13).
///
/// All fractions and means aggregate over the *completed* (non-truncated)
/// trials only. When every trial was truncated ([`ConsensusStats::completed`]
/// is zero) the aggregates are reported as `0.0` — never `NaN` — and
/// [`ConsensusStats::has_completed_trials`] lets callers distinguish "no
/// majority wins" from "nothing finished".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsensusStats {
    /// Total number of trials run.
    pub trials: u64,
    /// Number of completed (non-truncated) trials; every aggregate below is
    /// over these.
    pub completed: u64,
    /// Number of truncated trials.
    pub truncated: u64,
    /// Fraction of completed trials in which the initial majority won.
    pub majority_fraction: f64,
    /// Fraction of completed trials ending with both species extinct.
    pub both_extinct_fraction: f64,
    /// Mean consensus time `T(S)` in events.
    pub mean_events: f64,
    /// Maximum consensus time observed.
    pub max_events: u64,
    /// Mean number of individual reactions `I(S)`.
    pub mean_individual_events: f64,
    /// Mean number of competitive reactions `K(S)`.
    pub mean_competitive_events: f64,
    /// Mean number of bad non-competitive reactions `J(S)`.
    pub mean_bad_events: f64,
    /// Maximum number of bad non-competitive reactions observed.
    pub max_bad_events: u64,
    /// Mean total noise `F`.
    pub mean_noise: f64,
    /// Standard deviation of the total noise `F`.
    pub noise_std_dev: f64,
    /// Mean competitive-noise component `F_comp`.
    pub mean_competitive_noise: f64,
}

impl ConsensusStats {
    /// Whether any trial completed (reached consensus within its budget).
    /// When this is `false` every fraction and mean in the struct is a
    /// placeholder `0.0`, not a measurement.
    pub fn has_completed_trials(&self) -> bool {
        self.completed > 0
    }
}

/// Streaming accumulator behind [`MonteCarlo::consensus_stats`]: folds one
/// [`RunReport`] at a time into the running sums a [`ConsensusStats`] needs,
/// so no batch of outcomes is ever materialised.
///
/// Every mean is a running left-to-right sum over the completed trials in
/// trial order — bit-identical to collecting the outcomes into a `Vec` and
/// averaging it, at every thread count (the [`ReportStream`] delivers trials
/// in index order). The noise standard deviation is computed from *exact*
/// integer moments (`Σv`, `Σv²` in 128-bit integers — noise totals are
/// integers), making it deterministic and order-independent with a single
/// final rounding; a two-pass float reference agrees to within an ulp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConsensusAccumulator {
    trials: u64,
    completed: u64,
    // Count actual budget exhaustions, not merely "did not reach consensus":
    // a custom stop condition can end a trial legitimately (ConditionMet)
    // without either consensus or truncation.
    truncated: u64,
    majority_wins: u64,
    both_extinct: u64,
    sum_events: f64,
    max_events: u64,
    sum_individual: f64,
    sum_competitive: f64,
    sum_bad: f64,
    max_bad: u64,
    sum_noise: f64,
    noise_sum: i128,
    noise_sum_sq: i128,
    sum_competitive_noise: f64,
}

impl ConsensusAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        ConsensusAccumulator::default()
    }

    fn fraction(&self, count: u64) -> f64 {
        // 0.0 over the empty sample, so a fully-truncated batch yields
        // finite (if vacuous) aggregates.
        if self.completed == 0 {
            0.0
        } else {
            count as f64 / self.completed as f64
        }
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            sum / self.completed as f64
        }
    }

    /// The population standard deviation of the noise totals from the exact
    /// integer moments: `n·Σv² − (Σv)²` is computed without rounding, so the
    /// result is independent of accumulation order.
    fn noise_std_dev(&self) -> f64 {
        if self.completed < 2 {
            return 0.0;
        }
        let n = self.completed as i128;
        let numerator = n * self.noise_sum_sq - self.noise_sum * self.noise_sum;
        let n = self.completed as f64;
        ((numerator as f64) / (n * n)).sqrt()
    }
}

impl OnlineAccumulator for ConsensusAccumulator {
    type Output = ConsensusStats;

    fn record(&mut self, _trial: u64, report: &RunReport) {
        debug_assert_eq!(report.species_count(), 2);
        self.trials += 1;
        if report.truncated() {
            self.truncated += 1;
        }
        if !report.consensus_reached() {
            return;
        }
        self.completed += 1;
        if report.majority_won() {
            self.majority_wins += 1;
        }
        if report.final_state.winner().is_none() {
            self.both_extinct += 1;
        }
        self.sum_events += report.events as f64;
        self.max_events = self.max_events.max(report.events);
        let counts = report.event_counts().unwrap_or_default();
        self.sum_individual += counts.individual as f64;
        self.sum_competitive += counts.competitive as f64;
        self.sum_bad += counts.bad_noncompetitive as f64;
        self.max_bad = self.max_bad.max(counts.bad_noncompetitive);
        let noise = report.noise().unwrap_or_default().classified;
        let total = noise.total();
        self.sum_noise += total as f64;
        self.noise_sum += i128::from(total);
        self.noise_sum_sq += i128::from(total) * i128::from(total);
        self.sum_competitive_noise += noise.competitive as f64;
    }

    fn trials(&self) -> u64 {
        self.trials
    }

    fn successes(&self) -> Option<u64> {
        Some(self.majority_wins)
    }

    fn finish(self) -> ConsensusStats {
        ConsensusStats {
            trials: self.trials,
            completed: self.completed,
            truncated: self.truncated,
            majority_fraction: self.fraction(self.majority_wins),
            both_extinct_fraction: self.fraction(self.both_extinct),
            mean_events: self.mean(self.sum_events),
            max_events: self.max_events,
            mean_individual_events: self.mean(self.sum_individual),
            mean_competitive_events: self.mean(self.sum_competitive),
            mean_bad_events: self.mean(self.sum_bad),
            max_bad_events: self.max_bad,
            mean_noise: self.mean(self.sum_noise),
            noise_std_dev: self.noise_std_dev(),
            mean_competitive_noise: self.mean(self.sum_competitive_noise),
        }
    }
}

impl fmt::Display for ConsensusStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trials {} (completed {}, truncated {}), majority wins {:.3}, both extinct {:.3}",
            self.trials,
            self.completed,
            self.truncated,
            self.majority_fraction,
            self.both_extinct_fraction
        )?;
        writeln!(
            f,
            "T(S): mean {:.1} max {}; I(S) {:.1}; K(S) {:.1}; J(S) mean {:.2} max {}",
            self.mean_events,
            self.max_events,
            self.mean_individual_events,
            self.mean_competitive_events,
            self.mean_bad_events,
            self.max_bad_events
        )?;
        write!(
            f,
            "noise F: mean {:.2} sd {:.2}; F_comp mean {:.2}",
            self.mean_noise, self.noise_std_dev, self.mean_competitive_noise
        )
    }
}

/// Aggregate statistics of plurality-consensus observables over a batch of
/// `k`-species trials — the multi-species counterpart of
/// [`ConsensusStats`].
///
/// All fractions and means aggregate over the *completed* (consensus-
/// reaching) trials only; [`PluralityStats::has_completed_trials`]
/// distinguishes "species 0 never won" from "nothing finished".
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PluralityStats {
    /// Number of species `k`.
    pub species: usize,
    /// Total number of trials run.
    pub trials: u64,
    /// Number of completed (consensus-reaching) trials.
    pub completed: u64,
    /// Number of truncated trials.
    pub truncated: u64,
    /// Per-species fraction of completed trials won, indexed by species.
    pub win_fractions: Vec<f64>,
    /// Fraction of completed trials ending with *every* species extinct.
    pub no_survivor_fraction: f64,
    /// Fraction of completed trials won by the initial plurality leader.
    pub leader_win_fraction: f64,
    /// Mean consensus time `T(S)` in events over completed trials.
    pub mean_events: f64,
    /// Mean final plurality margin over completed trials.
    pub mean_margin: f64,
    /// Largest total population observed over all trials.
    pub max_population: u64,
}

impl PluralityStats {
    /// Whether any trial completed. When `false`, every fraction and mean is
    /// a placeholder `0.0`, not a measurement.
    pub fn has_completed_trials(&self) -> bool {
        self.completed > 0
    }
}

/// Streaming accumulator behind [`MonteCarlo::plurality_stats`]: the
/// `k`-species counterpart of [`ConsensusAccumulator`], folding one
/// [`RunReport`] at a time so no batch of outcomes is ever materialised.
///
/// The win/truncation bookkeeping *is* the engine's
/// [`PluralityTally`](lv_engine::stream::PluralityTally), so the two
/// accumulators can never diverge; this type adds the event/margin running
/// sums and the max-population watermark that [`PluralityStats`] reports.
/// All means are running sums over completed trials in trial order,
/// bit-identical to the materialising implementation at every thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PluralityAccumulator {
    tally: lv_engine::stream::PluralityTally,
    sum_events: f64,
    sum_margin: f64,
    /// Over *all* trials, not just completed ones.
    max_population: u64,
}

impl PluralityAccumulator {
    /// An empty accumulator over `species` species.
    pub fn new(species: usize) -> Self {
        PluralityAccumulator {
            tally: lv_engine::stream::PluralityTally::new(species),
            sum_events: 0.0,
            sum_margin: 0.0,
            max_population: 0,
        }
    }

    fn fraction(&self, count: u64) -> f64 {
        if self.tally.completed() == 0 {
            0.0
        } else {
            count as f64 / self.tally.completed() as f64
        }
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.tally.completed() == 0 {
            0.0
        } else {
            sum / self.tally.completed() as f64
        }
    }
}

impl OnlineAccumulator for PluralityAccumulator {
    type Output = PluralityStats;

    fn record(&mut self, trial: u64, report: &RunReport) {
        self.tally.record(trial, report);
        self.max_population = self
            .max_population
            .max(report.max_population().unwrap_or(0));
        if report.consensus_reached() {
            self.sum_events += report.events as f64;
            self.sum_margin += report.final_state.margin() as f64;
        }
    }

    fn trials(&self) -> u64 {
        self.tally.trials()
    }

    fn successes(&self) -> Option<u64> {
        Some(self.tally.leader_wins())
    }

    fn finish(self) -> PluralityStats {
        let win_fractions = self
            .tally
            .wins()
            .iter()
            .map(|&w| self.fraction(w))
            .collect();
        PluralityStats {
            species: self.tally.species(),
            trials: self.tally.trials(),
            completed: self.tally.completed(),
            truncated: self.tally.truncated(),
            win_fractions,
            no_survivor_fraction: self.fraction(self.tally.no_survivor()),
            leader_win_fraction: self.fraction(self.tally.leader_wins()),
            mean_events: self.mean(self.sum_events),
            mean_margin: self.mean(self.sum_margin),
            max_population: self.max_population,
        }
    }
}

impl fmt::Display for PluralityStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "k = {}: trials {} (completed {}, truncated {}), leader wins {:.3}, none survive {:.3}",
            self.species,
            self.trials,
            self.completed,
            self.truncated,
            self.leader_win_fraction,
            self.no_survivor_fraction
        )?;
        write!(f, "wins by species: [")?;
        for (i, w) in self.win_fractions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w:.3}")?;
        }
        write!(
            f,
            "]; T(S) mean {:.1}; margin mean {:.1}; max pop {}",
            self.mean_events, self.mean_margin, self.max_population
        )
    }
}

/// A seeded Monte-Carlo runner over [`Scenario`] batches.
///
/// All estimates are reproducible given the seed: trial `i` always uses the
/// RNG stream [`Seed::rng_for_trial`]`(i)`, independent of threading.
/// Every batch executes through the engine's streaming executor
/// ([`ReportStream`], the only batch executor): worker threads claim trials
/// one at a time from a lock-free queue and reports are folded into
/// [`OnlineAccumulator`]s *in trial order, as trials finish* — no estimator
/// materialises a batch, and every result is bit-identical for every thread
/// count (the default uses all available cores). The `_until` estimator
/// variants add sequential early stopping: they end the stream once the
/// success-probability confidence interval is tight enough and report the
/// actual number of trials spent. Custom statistics implement an
/// [`OnlineAccumulator`] for [`MonteCarlo::fold`], or iterate
/// [`MonteCarlo::stream`] directly.
///
/// Every trial executes through the engine [`Backend`](lv_engine::Backend)
/// selected with [`MonteCarlo::with_backend`] (default: the exact
/// `"jump-chain"` backend, the paper's chain `S`), so the same estimator runs
/// unmodified on Gillespie direct, tau-leaping, the deterministic ODE or a
/// protocol baseline.
// No `Deserialize`: `backend` is a `&'static str` registry key, which real
// serde cannot deserialize into (the compat shims must stay swappable for
// the real crates without code changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MonteCarlo {
    trials: u64,
    seed: Seed,
    threads: usize,
    backend: &'static str,
}

impl MonteCarlo {
    /// Creates a runner with the given number of trials per estimate, using
    /// all available CPU cores and the exact jump-chain backend.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn new(trials: u64, seed: Seed) -> Self {
        assert!(trials > 0, "at least one trial is required");
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        MonteCarlo {
            trials,
            seed,
            threads,
            backend: "jump-chain",
        }
    }

    /// Restricts the runner to a fixed number of worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        self.threads = threads;
        self
    }

    /// Selects the engine backend (by registry name or alias) that executes
    /// every trial.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the
    /// [`BackendRegistry`](lv_engine::BackendRegistry).
    pub fn with_backend(mut self, name: &str) -> Self {
        let backend = lv_engine::backend(name)
            .unwrap_or_else(|| panic!("unknown backend {name:?}; see BackendRegistry::names()"));
        self.backend = backend.name();
        self
    }

    /// The number of trials per estimate.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The root seed.
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// The canonical name of the backend trials run on.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The majority scenario for `(a, b)` under the default event budget,
    /// with the observers needed by the derived `MajorityOutcome` view.
    fn majority_scenario(&self, model: &LvModel, a: u64, b: u64) -> Scenario {
        Scenario::majority(*model, a, b).with_stop(
            StopCondition::any_species_extinct().with_max_events(default_majority_budget(a + b)),
        )
    }

    /// A lean consensus scenario (no observers) for estimates that only need
    /// the run summary — winner, consensus, truncation.
    fn lean_scenario(&self, model: &LvModel, a: u64, b: u64) -> Scenario {
        Scenario::new(*model, (a, b)).with_stop(
            StopCondition::any_species_extinct().with_max_events(default_majority_budget(a + b)),
        )
    }

    /// The resolved backend for this runner.
    fn resolved_backend(&self) -> &'static dyn lv_engine::Backend {
        lv_engine::backend(self.backend).expect("constructor validated the backend name")
    }

    /// The streaming configuration for this runner's trial/thread settings.
    fn stream_config(&self) -> StreamConfig {
        StreamConfig::new(self.trials).with_threads(self.threads)
    }

    /// The per-trial RNG factory: exactly [`Seed::rng_for_trial`], the
    /// reproducibility contract every estimator relies on.
    fn rng_factory(&self) -> TrialRngFactory {
        let seed = self.seed;
        Arc::new(move |trial| seed.rng_for_trial(trial))
    }

    /// Streams this runner's batch of the scenario: an iterator yielding
    /// `(trial, RunReport)` pairs in trial order as trials finish on the
    /// worker pool. This is the primitive every estimator below folds over.
    pub fn stream(&self, scenario: &Scenario) -> ReportStream {
        ReportStream::new(
            scenario,
            self.resolved_backend(),
            self.stream_config(),
            self.rng_factory(),
        )
    }

    /// Folds the streamed batch into the accumulator — the allocation-free
    /// way to compute custom statistics over a batch.
    pub fn fold<A: OnlineAccumulator>(&self, scenario: &Scenario, accumulator: A) -> A {
        self.stream(scenario).fold(accumulator)
    }

    /// Like [`MonteCarlo::fold`], with a sequential early-stopping rule and
    /// a per-trial progress callback. When the rule fires, remaining trials
    /// are discarded and the accumulator's
    /// [`trials`](OnlineAccumulator::trials) reports the actual count.
    pub fn fold_with<A, P>(
        &self,
        scenario: &Scenario,
        accumulator: A,
        early: Option<EarlyStop>,
        progress: P,
    ) -> A
    where
        A: OnlineAccumulator,
        P: FnMut(Progress),
    {
        self.stream(scenario)
            .fold_with(accumulator, early, progress)
    }

    /// Estimates the probability that the initial majority species wins
    /// majority consensus from `(a, b)` under the given model.
    pub fn success_probability(&self, model: &LvModel, a: u64, b: u64) -> SuccessEstimate {
        let scenario = self.lean_scenario(model, a, b);
        let tally = self.fold(&scenario, SuccessTally::new());
        SuccessEstimate::new(tally.successes(), tally.trials())
    }

    /// Like [`MonteCarlo::success_probability`], but with sequential early
    /// stopping: the batch ends as soon as the rule's confidence half-width
    /// target is met (or after this runner's configured trial budget,
    /// whichever comes first), and the estimate reports the number of
    /// trials actually spent. Bit-identical at every thread count.
    pub fn success_probability_until(
        &self,
        model: &LvModel,
        a: u64,
        b: u64,
        rule: EarlyStop,
    ) -> SuccessEstimate {
        let scenario = self.lean_scenario(model, a, b);
        let tally = self.fold_with(&scenario, SuccessTally::new(), Some(rule), |_| {});
        SuccessEstimate::new(tally.successes(), tally.trials())
    }

    /// Estimates the probability that the *initial plurality leader* wins
    /// consensus in the given scenario — the scenario-level generalisation
    /// of [`MonteCarlo::success_probability`] that works for any species
    /// count and any registered backend.
    ///
    /// # Panics
    ///
    /// Panics if the configured backend does not support the scenario's
    /// species count.
    pub fn scenario_success_probability(&self, scenario: &Scenario) -> SuccessEstimate {
        self.assert_backend_supports(scenario);
        let tally = self.fold(scenario, SuccessTally::new());
        SuccessEstimate::new(tally.successes(), tally.trials())
    }

    /// Like [`MonteCarlo::scenario_success_probability`], but with
    /// sequential early stopping: the batch ends as soon as the rule fires —
    /// on its Wilson half-width target, or, in
    /// [`boundary`](EarlyStop::with_boundary) mode, as soon as the interval
    /// stops straddling the decision boundary — and the estimate reports
    /// the trials actually spent. Bit-identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the configured backend does not support the scenario's
    /// species count.
    pub fn scenario_success_probability_until(
        &self,
        scenario: &Scenario,
        rule: EarlyStop,
    ) -> SuccessEstimate {
        self.assert_backend_supports(scenario);
        let tally = self.fold_with(scenario, SuccessTally::new(), Some(rule), |_| {});
        SuccessEstimate::new(tally.successes(), tally.trials())
    }

    fn assert_backend_supports(&self, scenario: &Scenario) {
        assert!(
            self.resolved_backend()
                .supports_species(scenario.species_count()),
            "backend {:?} does not support {}-species scenarios",
            self.backend,
            scenario.species_count()
        );
    }

    /// Estimates the paper's proportional-law score
    /// `P(majority wins) + ½·P(both species extinct)` (see `lv_lotka::exact`).
    pub fn proportional_score(&self, model: &LvModel, a: u64, b: u64) -> f64 {
        let scenario = self.lean_scenario(model, a, b);
        let score = self.fold(&scenario, ProportionalScore::default());
        score.sum / score.trials as f64
    }

    /// Collects the full observable statistics of Theorem 13 over the trials.
    pub fn consensus_stats(&self, model: &LvModel, a: u64, b: u64) -> ConsensusStats {
        self.consensus_stats_scenario(&self.majority_scenario(model, a, b))
    }

    /// Like [`MonteCarlo::consensus_stats`], but over an explicit scenario
    /// (which should carry the event-count, noise and max-population
    /// observers — [`Scenario::majority`] does).
    ///
    /// # Panics
    ///
    /// Panics if the scenario has more than two species; use
    /// [`MonteCarlo::plurality_stats`] there.
    pub fn consensus_stats_scenario(&self, scenario: &Scenario) -> ConsensusStats {
        assert_eq!(
            scenario.species_count(),
            2,
            "consensus_stats_scenario requires a two-species scenario; use plurality_stats"
        );
        self.fold(scenario, ConsensusAccumulator::new()).finish()
    }

    /// Collects plurality-consensus statistics over a batch of trials of a
    /// `k`-species scenario (which should carry the observers
    /// [`Scenario::plurality`] attaches).
    ///
    /// # Panics
    ///
    /// Panics if the configured backend does not support the scenario's
    /// species count (e.g. `"approx-majority"` on a `k > 2` scenario).
    pub fn plurality_stats(&self, scenario: &Scenario) -> PluralityStats {
        self.assert_backend_supports(scenario);
        self.fold(
            scenario,
            PluralityAccumulator::new(scenario.species_count()),
        )
        .finish()
    }
}

/// Running proportional-law score: `1` per majority win, `½` per mutual
/// extinction, folded in trial order (sums of halves are exact in `f64`, so
/// the mean is bit-identical to the materialising implementation).
#[derive(Debug, Clone, Copy, Default)]
struct ProportionalScore {
    trials: u64,
    sum: f64,
}

impl OnlineAccumulator for ProportionalScore {
    type Output = ProportionalScore;

    fn record(&mut self, _trial: u64, report: &RunReport) {
        self.trials += 1;
        self.sum += if report.majority_won() {
            1.0
        } else if report.consensus_reached() && report.final_state.winner().is_none() {
            0.5
        } else {
            0.0
        };
    }

    fn trials(&self) -> u64 {
        self.trials
    }

    fn finish(self) -> ProportionalScore {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_lotka::CompetitionKind;

    fn model() -> LvModel {
        LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0)
    }

    #[test]
    fn estimates_are_reproducible_across_thread_counts() {
        let mc1 = MonteCarlo::new(200, Seed::from(5)).with_threads(1);
        let mc2 = MonteCarlo::new(200, Seed::from(5)).with_threads(4);
        let e1 = mc1.success_probability(&model(), 60, 40);
        let e2 = mc2.success_probability(&model(), 60, 40);
        assert_eq!(e1, e2);
    }

    #[test]
    fn estimates_are_reproducible_across_thread_counts_on_every_backend() {
        for name in lv_engine::BackendRegistry::global().names() {
            let mc1 = MonteCarlo::new(64, Seed::from(5))
                .with_threads(1)
                .with_backend(name);
            let mc2 = MonteCarlo::new(64, Seed::from(5))
                .with_threads(4)
                .with_backend(name);
            assert_eq!(
                mc1.success_probability(&model(), 60, 40),
                mc2.success_probability(&model(), 60, 40),
                "backend {name} is thread-count sensitive"
            );
        }
    }

    #[test]
    fn clear_majorities_win_almost_always() {
        let mc = MonteCarlo::new(150, Seed::from(1));
        let estimate = mc.success_probability(&model(), 300, 100);
        assert!(estimate.point() > 0.95, "estimate {estimate}");
    }

    #[test]
    fn proportional_score_matches_theory_for_balanced_model() {
        let balanced =
            LvModel::balanced_intra_inter(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let mc = MonteCarlo::new(1_500, Seed::from(2));
        let score = mc.proportional_score(&balanced, 30, 20);
        assert!((score - 0.6).abs() < 0.05, "score {score}");
    }

    #[test]
    fn consensus_stats_are_internally_consistent() {
        let mc = MonteCarlo::new(100, Seed::from(3));
        let stats = mc.consensus_stats(&model(), 80, 60);
        assert_eq!(stats.trials, 100);
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.truncated, 0);
        assert!(stats.has_completed_trials());
        assert!(stats.mean_events > 0.0);
        assert!(stats.mean_events >= stats.mean_individual_events);
        assert!(
            (stats.mean_events - stats.mean_individual_events - stats.mean_competitive_events)
                .abs()
                < 1e-9
        );
        assert!(stats.max_events as f64 >= stats.mean_events);
        // Self-destructive competition: no competitive noise.
        assert_eq!(stats.mean_competitive_noise, 0.0);
        let text = stats.to_string();
        assert!(text.contains("majority wins"));
    }

    #[test]
    fn fully_truncated_batches_report_honest_nan_free_stats() {
        // Regression test: a budget of 10 events cannot reach consensus from
        // (5000, 4990), so *every* trial truncates; the old implementation's
        // `count.max(1)` divisor silently fabricated fractions here.
        let mc = MonteCarlo::new(20, Seed::from(4));
        let scenario = Scenario::majority(model(), 5_000, 4_990)
            .with_stop(StopCondition::any_species_extinct().with_max_events(10));
        let stats = mc.consensus_stats_scenario(&scenario);
        assert_eq!(stats.trials, 20);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.truncated, 20);
        assert!(!stats.has_completed_trials());
        for value in [
            stats.majority_fraction,
            stats.both_extinct_fraction,
            stats.mean_events,
            stats.mean_individual_events,
            stats.mean_competitive_events,
            stats.mean_bad_events,
            stats.mean_noise,
            stats.noise_std_dev,
            stats.mean_competitive_noise,
        ] {
            assert!(value.is_finite(), "non-finite aggregate {value}");
            assert_eq!(value, 0.0);
        }
        assert_eq!(stats.max_events, 0);
        assert!(stats.to_string().contains("completed 0"));
    }

    #[test]
    fn non_consensus_condition_stops_are_not_counted_as_truncated() {
        // A population-threshold stop ends every trial with ConditionMet but
        // without consensus: such trials are neither completed nor truncated.
        let growth = LvModel::no_competition(2.0, 1.0);
        let mc = MonteCarlo::new(10, Seed::from(8));
        let scenario = Scenario::majority(growth, 50, 50)
            .with_stop(StopCondition::total_at_least(500).with_max_events(1_000_000));
        let stats = mc.consensus_stats_scenario(&scenario);
        assert_eq!(stats.trials, 10);
        assert_eq!(stats.completed, 0);
        assert_eq!(
            stats.truncated, 0,
            "ConditionMet stops mislabeled as truncated"
        );
    }

    #[test]
    fn plurality_stats_cover_k_species_batches() {
        use lv_lotka::MultiLvModel;
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![60, 20, 20]);
        let mc = MonteCarlo::new(60, Seed::from(11));
        let stats = mc.plurality_stats(&scenario);
        assert_eq!(stats.species, 3);
        assert_eq!(stats.trials, 60);
        assert!(stats.has_completed_trials());
        assert_eq!(stats.win_fractions.len(), 3);
        let total_wins: f64 = stats.win_fractions.iter().sum::<f64>() + stats.no_survivor_fraction;
        assert!((total_wins - 1.0).abs() < 1e-9, "win fractions {stats:?}");
        // A 3:1 planted majority wins most of the time.
        assert!(
            stats.leader_win_fraction > 0.7,
            "leader won only {}",
            stats.leader_win_fraction
        );
        assert!(stats.mean_events > 0.0);
        assert!(stats.max_population >= 100);
        assert!(stats.to_string().contains("k = 3"));
    }

    #[test]
    fn k3_batches_run_on_all_five_lv_backends() {
        use lv_lotka::MultiLvModel;
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![60, 20, 20]).with_tau(0.01);
        // `next-reaction` is an alias of `gillespie-direct` (one row per
        // law); it stays listed so the retired name keeps running.
        for name in [
            "jump-chain",
            "gillespie-direct",
            "next-reaction",
            "tau-leaping",
            "ode",
        ] {
            let mc = MonteCarlo::new(16, Seed::from(14)).with_backend(name);
            let stats = mc.plurality_stats(&scenario);
            assert_eq!(stats.species, 3, "{name}");
            assert_eq!(stats.trials, 16, "{name}");
            assert!(stats.has_completed_trials(), "{name}: nothing finished");
            assert!(
                stats.leader_win_fraction > 0.5,
                "{name}: planted 3:1 majority won only {}",
                stats.leader_win_fraction
            );
        }
    }

    #[test]
    fn plurality_stats_are_reproducible_across_thread_counts() {
        use lv_lotka::MultiLvModel;
        let model = MultiLvModel::cyclic(CompetitionKind::NonSelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![30, 25, 25]);
        let a = MonteCarlo::new(40, Seed::from(12))
            .with_threads(1)
            .plurality_stats(&scenario);
        let b = MonteCarlo::new(40, Seed::from(12))
            .with_threads(4)
            .plurality_stats(&scenario);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "requires a two-species scenario")]
    fn consensus_stats_reject_k_species_scenarios_up_front() {
        use lv_lotka::MultiLvModel;
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![10, 10, 10]);
        let _ = MonteCarlo::new(5, Seed::from(15)).consensus_stats_scenario(&scenario);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn plurality_stats_reject_unsupported_backends() {
        use lv_lotka::MultiLvModel;
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![10, 10, 10]);
        let _ = MonteCarlo::new(5, Seed::from(13))
            .with_backend("approx-majority")
            .plurality_stats(&scenario);
    }

    #[test]
    fn deterministic_backends_run_once_per_batch() {
        // The ODE backend ignores the RNG, so a batch folds one run through
        // every trial slot; the estimate is still over `trials` trials.
        let mc = MonteCarlo::new(10_000, Seed::from(9)).with_backend("ode");
        let estimate = mc.success_probability(&model(), 60, 40);
        assert_eq!(estimate.trials(), 10_000);
        assert!(estimate.point() == 0.0 || estimate.point() == 1.0);
    }

    #[test]
    fn early_stopped_estimates_report_actual_trials_and_meet_the_target() {
        let rule = EarlyStop::at_half_width(0.1).with_min_trials(8);
        let mc = MonteCarlo::new(100_000, Seed::from(21));
        let estimate = mc.success_probability_until(&model(), 80, 20, rule);
        assert!(estimate.trials() >= 8);
        assert!(estimate.trials() < 100_000, "the rule never fired");
        let (low, high) = estimate.wilson_interval(1.96);
        assert!((high - low) / 2.0 <= 0.1 + 1e-12);
    }

    #[test]
    fn scenario_estimator_matches_the_model_level_estimator() {
        let mc = MonteCarlo::new(120, Seed::from(24));
        let scenario = Scenario::new(model(), (60, 40)).with_stop(
            StopCondition::any_species_extinct()
                .with_max_events(lv_engine::default_majority_budget(100)),
        );
        assert_eq!(
            mc.scenario_success_probability(&scenario),
            mc.success_probability(&model(), 60, 40)
        );
    }

    #[test]
    fn scenario_estimator_with_boundary_stops_once_decided() {
        // An 80:20 majority wins nearly always; the interval clears a 0.6
        // boundary after a couple dozen trials instead of the 50 000 cap.
        let mc = MonteCarlo::new(50_000, Seed::from(25));
        let scenario = Scenario::new(model(), (80, 20)).with_stop(
            StopCondition::any_species_extinct()
                .with_max_events(lv_engine::default_majority_budget(100)),
        );
        let rule = EarlyStop::at_half_width(0.001)
            .with_boundary(0.6)
            .with_min_trials(8);
        let estimate = mc.scenario_success_probability_until(&scenario, rule);
        assert!(estimate.trials() >= 8);
        assert!(
            estimate.trials() <= 64,
            "decision probe spent {} trials",
            estimate.trials()
        );
        assert!(estimate.point() > 0.6);
    }

    #[test]
    fn scenario_estimators_run_k_species_scenarios() {
        use lv_lotka::MultiLvModel;
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![60, 20, 20]);
        let estimate = MonteCarlo::new(40, Seed::from(26)).scenario_success_probability(&scenario);
        assert!(
            estimate.point() > 0.5,
            "planted 3:1 leader lost: {estimate}"
        );
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn scenario_estimators_reject_unsupported_backends() {
        use lv_lotka::MultiLvModel;
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![10, 10, 10]);
        let _ = MonteCarlo::new(5, Seed::from(27))
            .with_backend("exact-majority")
            .scenario_success_probability(&scenario);
    }

    #[test]
    fn czyzowicz_backend_probability_is_proportional_through_the_estimator() {
        // The proportional law through the Monte-Carlo layer: from (30, 10)
        // the majority wins with probability exactly 3/4.
        let mc = MonteCarlo::new(300, Seed::from(28)).with_backend("czyzowicz-lv");
        let estimate = mc.success_probability(&model(), 30, 10);
        assert!(
            (estimate.point() - 0.75).abs() < 0.08,
            "measured {estimate}, proportional law says 0.75"
        );
    }

    #[test]
    fn streamed_reports_arrive_in_trial_order() {
        let mc = MonteCarlo::new(64, Seed::from(22)).with_threads(4);
        let scenario = Scenario::majority(model(), 60, 40);
        let trials: Vec<u64> = mc.stream(&scenario).map(|(trial, _)| trial).collect();
        assert_eq!(trials, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn custom_accumulators_fold_over_the_stream() {
        // Max consensus time via a closure-free accumulator: the same
        // statistic as folding the reports by hand.
        #[derive(Default)]
        struct MaxEvents {
            trials: u64,
            max: u64,
        }
        impl OnlineAccumulator for MaxEvents {
            type Output = u64;
            fn record(&mut self, _trial: u64, report: &RunReport) {
                self.trials += 1;
                self.max = self.max.max(report.events);
            }
            fn trials(&self) -> u64 {
                self.trials
            }
            fn finish(self) -> u64 {
                self.max
            }
        }
        let mc = MonteCarlo::new(32, Seed::from(23)).with_threads(4);
        let scenario = Scenario::majority(model(), 50, 40);
        let max = mc.fold(&scenario, MaxEvents::default()).finish();
        let reference = Iterator::fold(mc.stream(&scenario), 0, |acc, (_, report)| {
            acc.max(report.events)
        });
        assert_eq!(max, reference);
        assert!(max > 0);
    }

    #[test]
    fn backend_selection_resolves_aliases() {
        let mc = MonteCarlo::new(10, Seed::from(6)).with_backend("ssa");
        assert_eq!(mc.backend(), "gillespie-direct");
    }

    #[test]
    #[should_panic(expected = "unknown backend")]
    fn unknown_backends_are_rejected() {
        let _ = MonteCarlo::new(10, Seed::from(7)).with_backend("quantum");
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = MonteCarlo::new(0, Seed::from(1));
    }
}
