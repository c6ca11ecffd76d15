//! Streaming batch execution: run a [`Scenario`] many times and consume the
//! [`RunReport`]s *as trials finish*, without ever materialising a batch.
//!
//! The pieces compose bottom-up:
//!
//! * [`ShardQueue`] — a lock-free dispenser of trial indices: runners
//!   claim the next trial, one per claim and in index order, instead of
//!   being pinned to a static range, so stragglers (trials that run long)
//!   never leave cores idle, and an early stop wastes at most the trials
//!   already running;
//! * [`ReportStream`] — an iterator over `(trial, RunReport)` pairs in
//!   strict trial order, whatever order trials finish in (see *Parallel
//!   execution* below). Trial `i` always uses the RNG the factory returns
//!   for `i`, and results are always folded `0, 1, 2, …`, so every
//!   downstream fold is bit-identical at every thread count;
//! * [`OnlineAccumulator`] — a statistic folded one report at a time:
//!   [`SuccessTally`] (win counts), [`RunMoments`] (Welford mean/variance
//!   of consensus event counts and extinction times), [`PluralityTally`]
//!   (per-species win counts for `k`-species scenarios);
//! * [`EarlyStop`] — a sequential stopping rule: end the stream as soon as
//!   the Wilson confidence half-width of the success probability drops to a
//!   target, so batches near the critical margin spend trials only until
//!   the estimate is tight enough; an optional decision
//!   [`boundary`](EarlyStop::with_boundary) instead stops as soon as the
//!   interval clears a success-probability boundary (how threshold probes
//!   avoid spending the full budget far from the threshold);
//! * [`ReportStream::fold_with`] — the driver tying them together, with a
//!   [`Progress`] callback per folded trial.
//!
//! # Parallel execution
//!
//! A stream with `t` [effective workers](StreamConfig::effective_workers)
//! runs trials on its consuming thread and on `t − 1` helpers invited from
//! one process-wide pool: spawned lazily, parked while idle, and at most
//! `available_parallelism − 1` of them. The consumer runs the next unclaimed
//! trial itself whenever its next in-order report is not ready, and parks
//! only when nothing is left to claim, so a stream always progresses on its
//! own caller, even while every helper serves another stream. Each report
//! goes into a slot indexed by its trial as it finishes, so delivery needs
//! no batching threshold (nor a guess at a trial's cost); claims stay
//! within a fixed window of the consumer's next trial, which bounds the
//! slots, and a helper wakes the consumer only when it is parked on that
//! very trial.
//!
//! ```
//! use lv_engine::stream::{ReportStream, StreamConfig, SuccessTally};
//! use lv_engine::{backend, Scenario};
//! use lv_lotka::{CompetitionKind, LvModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
//! let scenario = Scenario::majority(model, 80, 40);
//! let stream = ReportStream::new(
//!     &scenario,
//!     backend("jump-chain").unwrap(),
//!     StreamConfig::new(64).with_threads(4),
//!     Arc::new(|trial| StdRng::seed_from_u64(0xC0FFEE ^ trial)),
//! );
//! let tally = stream.fold(SuccessTally::new());
//! assert_eq!(tally.trials(), 64);
//! assert!(tally.successes() > 32, "a 2:1 majority mostly wins");
//! ```

use crate::backend::Backend;
use crate::report::RunReport;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Derives the per-trial random number generator. Trial `i` must always
/// receive the same stream regardless of scheduling — this is the whole
/// reproducibility contract of the streaming executor (the Monte-Carlo layer
/// passes `Seed::rng_for_trial`).
pub type TrialRngFactory = Arc<dyn Fn(u64) -> StdRng + Send + Sync>;

/// How a [`ReportStream`] schedules its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    trials: u64,
    threads: usize,
}

impl StreamConfig {
    /// A configuration running `trials` trials on all available cores.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn new(trials: u64) -> Self {
        assert!(trials > 0, "at least one trial is required");
        StreamConfig {
            trials,
            threads: cores(),
        }
    }

    /// Restricts execution to `threads` threads running trials, the
    /// consuming thread included.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        self.threads = threads;
        self
    }

    /// The number of trials to run.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The configured thread count, the consuming thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The threads that run trials for `scheduled` trials, the consuming
    /// thread included: the configured count, clamped to the machine's
    /// cores and to `scheduled`. With one, the stream runs sequentially on
    /// the consumer; with `t > 1` it asks the pool for `t − 1` helpers.
    pub fn effective_workers(&self, scheduled: u64) -> usize {
        self.threads
            .min(cores())
            .min(scheduled.min(usize::MAX as u64) as usize)
            .max(1)
    }
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How far past the consumer's next trial a parallel stream may claim: the
/// bound on the finished reports it holds, whatever its consumer's speed.
const WINDOW: u64 = 128;

/// A lock-free dispenser of trial indices.
///
/// Runners repeatedly [`claim`](ShardQueue::claim) the next trial index,
/// one per claim and in increasing order, until the queue is exhausted or
/// [`halt`](ShardQueue::halt)ed. A runner that finishes early simply claims
/// more work, and a halt leaves only the trials already claimed to run: by
/// the time trial `i` is claimed, every trial before it has been claimed.
#[derive(Debug)]
pub struct ShardQueue {
    next: AtomicU64,
    trials: u64,
    halted: AtomicBool,
}

impl ShardQueue {
    /// A queue over trials `0..trials`.
    pub fn new(trials: u64) -> Self {
        ShardQueue {
            next: AtomicU64::new(0),
            trials,
            halted: AtomicBool::new(false),
        }
    }

    /// Claims the next trial index, or `None` when the queue is exhausted or
    /// halted.
    pub fn claim(&self) -> Option<u64> {
        self.claim_below(self.trials)
    }

    /// Claims the next trial index if it is below `bound`.
    fn claim_below(&self, bound: u64) -> Option<u64> {
        let bound = bound.min(self.trials);
        let step = |next: u64| (next < bound).then_some(next + 1);
        if self.is_halted() {
            return None;
        }
        self.next
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, step)
            .ok()
    }

    /// Whether no trial is left to claim, at any bound.
    fn drained(&self) -> bool {
        self.is_halted() || self.next.load(Ordering::Acquire) >= self.trials
    }

    /// Stops the queue: every subsequent [`claim`](ShardQueue::claim)
    /// returns `None`. Used by early stopping.
    pub fn halt(&self) {
        self.halted.store(true, Ordering::Release);
    }

    /// Whether the queue has been halted.
    pub fn is_halted(&self) -> bool {
        self.halted.load(Ordering::Acquire)
    }
}

/// A statistic over a stream of [`RunReport`]s, folded one trial at a time —
/// the streaming replacement for materialising a `Vec` of outcomes and
/// aggregating it afterwards.
///
/// Implementations must be insensitive to *when* trials arrive but may (and
/// the built-in ones do) depend on their *order*; [`ReportStream`] always
/// delivers trials in index order, so any accumulator folded over it is
/// bit-identical at every thread count.
pub trait OnlineAccumulator {
    /// The finished statistic.
    type Output;

    /// Folds one trial's report into the statistic.
    fn record(&mut self, trial: u64, report: &RunReport);

    /// Number of trials folded so far.
    fn trials(&self) -> u64;

    /// The running success count, when this statistic tracks one — this is
    /// what [`EarlyStop`] watches. The default (`None`) disables early
    /// stopping for the accumulator.
    fn successes(&self) -> Option<u64> {
        None
    }

    /// Finalises the statistic.
    fn finish(self) -> Self::Output;
}

/// Success tallies: how many trials reached consensus with the initial
/// leader winning ([`RunReport::plurality_won`]) — the streaming core of
/// `success_probability`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuccessTally {
    trials: u64,
    successes: u64,
}

impl SuccessTally {
    /// An empty tally.
    pub fn new() -> Self {
        SuccessTally::default()
    }

    /// Number of successful trials so far.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials folded so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }
}

impl OnlineAccumulator for SuccessTally {
    type Output = SuccessTally;

    fn record(&mut self, _trial: u64, report: &RunReport) {
        self.trials += 1;
        self.successes += u64::from(report.plurality_won());
    }

    fn trials(&self) -> u64 {
        self.trials
    }

    fn successes(&self) -> Option<u64> {
        Some(self.successes)
    }

    fn finish(self) -> SuccessTally {
        self
    }
}

/// Welford's online mean and variance: numerically stable single-pass
/// moments, the building block of the streaming accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty aggregate.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean (`0.0` over the empty sample, matching the
    /// workspace's batch statistics convention).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The population variance (`0.0` for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// The sample (Bessel-corrected) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Welford moments of the consensus observables over a streamed batch:
/// event counts (the paper's consensus time `T(S)`) and extinction times
/// (the backend clock at the stop), over completed trials.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunMoments {
    trials: u64,
    completed: u64,
    truncated: u64,
    events: Welford,
    time: Welford,
}

impl RunMoments {
    /// An empty aggregate.
    pub fn new() -> Self {
        RunMoments::default()
    }

    /// Number of trials folded so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of completed (consensus-reaching) trials.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of truncated trials.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Moments of the consensus event count over completed trials.
    pub fn events(&self) -> &Welford {
        &self.events
    }

    /// Moments of the stop-time (extinction time for consensus runs) over
    /// completed trials.
    pub fn time(&self) -> &Welford {
        &self.time
    }
}

impl OnlineAccumulator for RunMoments {
    type Output = RunMoments;

    fn record(&mut self, _trial: u64, report: &RunReport) {
        self.trials += 1;
        if report.truncated() {
            self.truncated += 1;
        }
        if report.consensus_reached() {
            self.completed += 1;
            self.events.push(report.events as f64);
            self.time.push(report.time);
        }
    }

    fn trials(&self) -> u64 {
        self.trials
    }

    fn finish(self) -> RunMoments {
        self
    }
}

/// Per-species plurality tallies over a streamed `k`-species batch: who won
/// each completed trial, how often the initial leader prevailed, how often
/// nobody survived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PluralityTally {
    species: usize,
    trials: u64,
    completed: u64,
    truncated: u64,
    wins: Vec<u64>,
    no_survivor: u64,
    leader_wins: u64,
}

impl PluralityTally {
    /// An empty tally over `species` species.
    pub fn new(species: usize) -> Self {
        PluralityTally {
            species,
            wins: vec![0; species],
            ..PluralityTally::default()
        }
    }

    /// Number of species.
    pub fn species(&self) -> usize {
        self.species
    }

    /// Number of trials folded so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of completed (consensus-reaching) trials.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of truncated trials.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Completed trials won by each species, indexed by species.
    pub fn wins(&self) -> &[u64] {
        &self.wins
    }

    /// Completed trials in which every species went extinct.
    pub fn no_survivor(&self) -> u64 {
        self.no_survivor
    }

    /// Completed trials won by the initial plurality leader.
    pub fn leader_wins(&self) -> u64 {
        self.leader_wins
    }
}

impl OnlineAccumulator for PluralityTally {
    type Output = PluralityTally;

    fn record(&mut self, _trial: u64, report: &RunReport) {
        debug_assert_eq!(report.species_count(), self.species);
        self.trials += 1;
        if report.truncated() {
            self.truncated += 1;
        }
        if report.consensus_reached() {
            self.completed += 1;
            match report.final_state.winner() {
                Some(winner) => self.wins[winner] += 1,
                None => self.no_survivor += 1,
            }
            if report.plurality_won() {
                self.leader_wins += 1;
            }
        }
    }

    fn trials(&self) -> u64 {
        self.trials
    }

    fn successes(&self) -> Option<u64> {
        Some(self.leader_wins)
    }

    fn finish(self) -> PluralityTally {
        self
    }
}

/// A sequential early-stopping rule: end the stream once the Wilson score
/// confidence interval of the success probability is narrower than a target
/// half-width, or — when a decision [`boundary`](EarlyStop::with_boundary)
/// is set — once the interval clears that boundary entirely.
///
/// The rule is evaluated after every folded trial, in trial order, so the
/// stopping point — and therefore the reported estimate — is identical at
/// every thread count. Because the Wilson half-width at the moment the rule
/// fires is at most the target, an early-stopped estimate never reports a
/// wider interval than requested.
///
/// The boundary mode is what adaptive threshold probes use: a probe far
/// from the threshold has a success probability far from the target, so the
/// interval stops straddling the boundary after a handful of trials, while
/// a probe near the threshold keeps sampling until the width target or the
/// trial budget binds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    target_half_width: f64,
    min_trials: u64,
    boundary: Option<f64>,
}

impl EarlyStop {
    /// Stop once the Wilson half-width at `z = 1.96` (95%) is at most
    /// `target_half_width`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_half_width < 1`.
    pub fn at_half_width(target_half_width: f64) -> Self {
        assert!(
            target_half_width > 0.0 && target_half_width < 1.0,
            "the target half-width must be in (0, 1)"
        );
        EarlyStop {
            target_half_width,
            min_trials: 1,
            boundary: None,
        }
    }

    /// Additionally stop as soon as the Wilson interval lies entirely above
    /// or entirely below `boundary` — i.e. as soon as the sample *decides*
    /// whether the success probability clears the boundary, regardless of
    /// how wide the interval still is.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < boundary < 1`.
    pub fn with_boundary(mut self, boundary: f64) -> Self {
        assert!(
            boundary > 0.0 && boundary < 1.0,
            "the decision boundary must be in (0, 1)"
        );
        self.boundary = Some(boundary);
        self
    }

    /// Requires at least `min_trials` trials before the rule may fire.
    pub fn with_min_trials(mut self, min_trials: u64) -> Self {
        self.min_trials = min_trials.max(1);
        self
    }

    /// The target half-width.
    pub fn target_half_width(&self) -> f64 {
        self.target_half_width
    }

    /// The decision boundary, when one is set.
    pub fn boundary(&self) -> Option<f64> {
        self.boundary
    }

    /// The Wilson score half-width of `successes / trials` at `z = 1.96`
    /// (the same interval `lv_sim::SuccessEstimate` reports).
    pub fn half_width(&self, successes: u64, trials: u64) -> f64 {
        crate::wilson::half_width(successes, trials, crate::wilson::Z95)
    }

    /// The Wilson score interval of `successes / trials` at `z = 1.96`,
    /// clamped to `[0, 1]` (`(0, 1)` over the empty sample).
    pub fn interval(&self, successes: u64, trials: u64) -> (f64, f64) {
        crate::wilson::interval(successes, trials, crate::wilson::Z95)
    }

    /// Whether the rule fires for the given running tally: the half-width
    /// target is met, or (in boundary mode) the interval no longer
    /// straddles the decision boundary.
    pub fn satisfied(&self, successes: u64, trials: u64) -> bool {
        if trials < self.min_trials {
            return false;
        }
        if self.half_width(successes, trials) <= self.target_half_width {
            return true;
        }
        match self.boundary {
            Some(boundary) => {
                let (low, high) = self.interval(successes, trials);
                low > boundary || high < boundary
            }
            None => false,
        }
    }
}

/// A progress snapshot handed to the callback of
/// [`ReportStream::fold_with`] after every folded trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Trials folded so far.
    pub trials: u64,
    /// Trials originally scheduled (early stopping may end the stream
    /// before reaching this).
    pub scheduled: u64,
    /// The running success count, when the accumulator tracks one.
    pub successes: Option<u64>,
}

type Payload = Box<dyn std::any::Any + Send>;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// What running one trial needs.
struct Trials {
    scenario: Scenario,
    backend: &'static dyn Backend,
    rng_for_trial: TrialRngFactory,
}

impl Trials {
    /// Runs `trial`, catching a panic so the stream re-raises it there.
    fn run(&self, trial: u64) -> Result<RunReport, Payload> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = (self.rng_for_trial)(trial);
            self.backend.run(&self.scenario, &mut rng)
        }))
    }
}

/// A parallel stream's state, shared by its consumer and its helpers.
struct Shared {
    trials: Trials,
    queue: ShardQueue,
    state: Mutex<State>,
    /// Wakes whoever is parked: the consumer (on its next trial, or on the
    /// last helper leaving) and helpers (on room in the window).
    changed: Condvar,
}

#[derive(Default)]
struct State {
    /// Finished trials not yet taken, at `trial % reports.len()`; claims
    /// stay below `next + reports.len()`, the consumer's next trial plus
    /// the window, so outstanding trials never share a slot.
    reports: Vec<Option<Result<RunReport, Payload>>>,
    next: u64,
    /// Helpers inside [`Shared::help`], and threads parked on `changed`.
    helpers: usize,
    parked: usize,
}

impl Shared {
    /// Claims the next trial within the window of the consumer's.
    fn claim(&self, state: &State) -> Option<u64> {
        let window = state.reports.len() as u64;
        self.queue.claim_below(state.next + window)
    }

    fn park<'a>(&self, mut state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        state.parked += 1;
        state = wait(&self.changed, state);
        state.parked -= 1;
        state
    }

    fn wake(&self, state: &State) {
        if state.parked > 0 {
            self.changed.notify_all();
        }
    }

    /// Runs `trial` without holding the lock, then hands it to the consumer.
    fn run<'a>(&'a self, state: MutexGuard<'a, State>, trial: u64) -> MutexGuard<'a, State> {
        drop(state);
        let result = self.trials.run(trial);
        if result.is_err() {
            // Stop new claims at once; every trial before this one was
            // claimed earlier, so it still runs and is folded first.
            self.queue.halt();
        }
        let mut state = lock(&self.state);
        let slot = (trial % state.reports.len() as u64) as usize;
        state.reports[slot] = Some(result);
        if trial == state.next {
            self.wake(&state);
        }
        state
    }

    /// The consumer's side: the report of its next trial, `trial`, running
    /// trials itself while that report is not ready.
    fn take(&self, trial: u64) -> Result<RunReport, Payload> {
        let mut state = lock(&self.state);
        let slot = (trial % state.reports.len() as u64) as usize;
        let result = loop {
            if let Some(result) = state.reports[slot].take() {
                break result;
            }
            state = match self.claim(&state) {
                Some(own) => self.run(state, own),
                None => self.park(state),
            };
        };
        state.next = trial + 1;
        self.wake(&state);
        result
    }

    /// A helper's side: runs this stream's trials until none is left to
    /// claim, parking while the window is full.
    fn help(&self) {
        let mut state = lock(&self.state);
        state.helpers += 1;
        while !self.queue.drained() {
            state = match self.claim(&state) {
                Some(trial) => self.run(state, trial),
                None => self.park(state),
            };
        }
        state.helpers -= 1;
        self.wake(&state);
    }
}

const HELPER_NAME: &str = "lv-stream-helper";

/// The process-wide helper pool: one invitation per helper a stream asked
/// for, and the number of helpers spawned; helpers park on `INVITED`.
static POOL: Mutex<(VecDeque<Arc<Shared>>, usize)> = Mutex::new((VecDeque::new(), 0));
static INVITED: Condvar = Condvar::new();

/// Asks for `count` helpers on `shared`, first growing the pool to `count`
/// helpers (never beyond `cores() − 1`).
fn invite(shared: &Arc<Shared>, count: usize) {
    let mut pool = lock(&POOL);
    let (invitations, helpers) = &mut *pool;
    invitations.extend(std::iter::repeat_with(|| Arc::clone(shared)).take(count));
    // A helper that fails to spawn leaves the stream to its consumer.
    let builder = || std::thread::Builder::new().name(HELPER_NAME.into());
    while *helpers < count.min(cores() - 1) && builder().spawn(serve).is_ok() {
        *helpers += 1;
    }
    (0..count).for_each(|_| INVITED.notify_one());
}

/// A helper thread's body: take an invitation and help; park while there
/// is none.
fn serve() {
    let mut pool = lock(&POOL);
    loop {
        pool = match pool.0.pop_front() {
            Some(shared) => {
                drop(pool);
                shared.help();
                lock(&POOL)
            }
            None => wait(&INVITED, pool),
        };
    }
}

enum StreamInner {
    /// Single-threaded: trials run lazily, one per `next()` call.
    Sequential(Trials),
    /// A deterministic backend yields the same report every trial: run it
    /// once, replicate the report (matching the batch runner's behaviour of
    /// executing deterministic backends a single time).
    Deterministic { report: RunReport },
    /// Trials run on the consuming thread and on pool helpers.
    Parallel(Arc<Shared>),
}

/// An iterator over `(trial, RunReport)` pairs of a streamed batch, in
/// strict trial order.
///
/// Trials are claimed one at a time, in index order, from a [`ShardQueue`]
/// by the consuming thread and by pool helpers (see the [module
/// docs](self)); with the per-trial RNG contract of [`TrialRngFactory`],
/// every fold over the stream is bit-identical at any thread count. No
/// batch is ever materialised: claims stay within a fixed window of the
/// consumer's next trial, however slow the consumer.
///
/// Halting the stream (an early stop, or dropping it) stops new claims;
/// trials already claimed finish and are discarded, and `drop` returns only
/// once they have. A panic in a trial, on a helper or on the consumer,
/// halts the queue too, and is re-raised on the consuming thread at the
/// panicked trial, after exactly the trials before it (all claimed
/// earlier) are folded.
pub struct ReportStream {
    inner: StreamInner,
    /// Next trial index to yield.
    next: u64,
    /// Total trials scheduled.
    scheduled: u64,
    /// Set once the stream has been halted (early stop).
    halted: bool,
}

impl std::fmt::Debug for ReportStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportStream")
            .field("next", &self.next)
            .field("scheduled", &self.scheduled)
            .field("halted", &self.halted)
            .finish()
    }
}

impl ReportStream {
    /// Starts streaming `config.trials()` runs of the scenario on the given
    /// backend. Trial `i` draws its randomness from `rng_for_trial(i)`.
    ///
    /// Deterministic backends (the ODE) execute once — on
    /// `rng_for_trial(0)`, which they ignore — and the single report is
    /// yielded for every trial slot. Single-threaded configurations run
    /// trials lazily on the consuming thread, one per `next()` call.
    pub fn new(
        scenario: &Scenario,
        backend: &'static dyn Backend,
        config: StreamConfig,
        rng_for_trial: TrialRngFactory,
    ) -> Self {
        let scheduled = config.trials();
        let inner = if backend.deterministic() {
            let mut rng = rng_for_trial(0);
            StreamInner::Deterministic {
                report: backend.run(scenario, &mut rng),
            }
        } else {
            let trials = Trials {
                scenario: scenario.clone(),
                backend,
                rng_for_trial,
            };
            match config.effective_workers(scheduled) {
                1 => StreamInner::Sequential(trials),
                workers => {
                    let shared = Arc::new(Shared {
                        trials,
                        queue: ShardQueue::new(scheduled),
                        state: Mutex::new(State {
                            reports: (0..WINDOW.min(scheduled)).map(|_| None).collect(),
                            ..State::default()
                        }),
                        changed: Condvar::new(),
                    });
                    invite(&shared, workers - 1);
                    StreamInner::Parallel(shared)
                }
            }
        };
        ReportStream {
            inner,
            next: 0,
            scheduled,
            halted: false,
        }
    }

    /// Trials originally scheduled.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Trials yielded so far.
    pub fn yielded(&self) -> u64 {
        self.next
    }

    /// Stops the stream: in-flight and unclaimed trials are discarded and
    /// the iterator ends. Used by early stopping; idempotent.
    pub fn halt(&mut self) {
        self.halted = true;
        if let StreamInner::Parallel(shared) = &self.inner {
            shared.queue.halt();
        }
    }

    /// Folds the whole stream into the accumulator.
    pub fn fold<A: OnlineAccumulator>(self, accumulator: A) -> A {
        self.fold_with(accumulator, None, |_| {})
    }

    /// Folds the stream into the accumulator with an optional early-stopping
    /// rule and a per-trial progress callback.
    ///
    /// The rule is checked after every folded trial against the
    /// accumulator's [`successes`](OnlineAccumulator::successes) tally (it
    /// never fires for accumulators that report `None`); when it fires the
    /// stream is halted and the accumulator — whose
    /// [`trials`](OnlineAccumulator::trials) then reports the *actual* trial
    /// count — is returned.
    pub fn fold_with<A, P>(
        mut self,
        mut accumulator: A,
        early: Option<EarlyStop>,
        mut progress: P,
    ) -> A
    where
        A: OnlineAccumulator,
        P: FnMut(Progress),
    {
        let scheduled = self.scheduled;
        while let Some((trial, report)) = self.next() {
            accumulator.record(trial, &report);
            progress(Progress {
                trials: accumulator.trials(),
                scheduled,
                successes: accumulator.successes(),
            });
            if let (Some(rule), Some(successes)) = (&early, accumulator.successes()) {
                if rule.satisfied(successes, accumulator.trials()) {
                    self.halt();
                    break;
                }
            }
        }
        accumulator
    }
}

impl Iterator for ReportStream {
    type Item = (u64, RunReport);

    fn next(&mut self) -> Option<(u64, RunReport)> {
        if self.halted || self.next >= self.scheduled {
            return None;
        }
        let trial = self.next;
        let result = match &self.inner {
            StreamInner::Sequential(trials) => trials.run(trial),
            StreamInner::Deterministic { report } => Ok(report.clone()),
            StreamInner::Parallel(shared) => shared.take(trial),
        };
        match result {
            Ok(report) => {
                self.next += 1;
                Some((trial, report))
            }
            Err(payload) => {
                // A caller that catches the panic sees an ended stream.
                self.halted = true;
                std::panic::resume_unwind(payload)
            }
        }
    }
}

impl Drop for ReportStream {
    /// Stops new claims; returns once no helper runs this stream's trials.
    fn drop(&mut self) {
        if let StreamInner::Parallel(shared) = &self.inner {
            shared.queue.halt();
            lock(&POOL)
                .0
                .retain(|invited| !Arc::ptr_eq(invited, shared));
            let mut state = lock(&shared.state);
            shared.wake(&state);
            while state.helpers > 0 {
                state = shared.park(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::backend;
    use lv_lotka::{CompetitionKind, LvModel};
    use rand::SeedableRng;
    use std::sync::atomic::AtomicUsize;

    fn factory(root: u64) -> TrialRngFactory {
        Arc::new(move |trial| StdRng::seed_from_u64(root ^ (trial.wrapping_mul(0x9E37_79B9))))
    }

    fn scenario() -> Scenario {
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        Scenario::majority(model, 60, 40)
    }

    #[test]
    fn shard_queue_hands_out_every_trial_exactly_once() {
        let queue = ShardQueue::new(103);
        let mut seen = [false; 103];
        let mut last = None;
        while let Some(trial) = queue.claim() {
            assert!(!seen[trial as usize], "trial {trial} claimed twice");
            assert!(last < Some(trial), "trial {trial} claimed out of order");
            seen[trial as usize] = true;
            last = Some(trial);
        }
        assert!(seen.iter().all(|&s| s), "some trial was never claimed");
    }

    #[test]
    fn halted_queue_stops_claiming() {
        let queue = ShardQueue::new(100);
        assert_eq!(queue.claim(), Some(0));
        queue.halt();
        assert!(queue.is_halted());
        assert!(queue.claim().is_none());
    }

    #[test]
    fn stream_yields_trials_in_order_at_every_thread_count() {
        let scenario = scenario();
        let backend = backend("jump-chain").unwrap();
        let sequential: Vec<(u64, RunReport)> = ReportStream::new(
            &scenario,
            backend,
            StreamConfig::new(24).with_threads(1),
            factory(1),
        )
        .collect();
        assert_eq!(sequential.len(), 24);
        for threads in [2, 3, 4, 8] {
            let parallel: Vec<(u64, RunReport)> = ReportStream::new(
                &scenario,
                backend,
                StreamConfig::new(24).with_threads(threads),
                factory(1),
            )
            .collect();
            assert_eq!(parallel, sequential, "{threads} threads diverged");
        }
        for (index, (trial, _)) in sequential.iter().enumerate() {
            assert_eq!(*trial, index as u64);
        }
    }

    #[test]
    fn deterministic_backends_run_once_and_replicate() {
        let stream = ReportStream::new(
            &scenario(),
            backend("ode").unwrap(),
            StreamConfig::new(50).with_threads(8),
            factory(2),
        );
        let reports: Vec<(u64, RunReport)> = stream.collect();
        assert_eq!(reports.len(), 50);
        assert!(reports.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn welford_matches_two_pass_reference() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut welford = Welford::new();
        for v in values {
            welford.push(v);
        }
        assert!((welford.mean() - 5.0).abs() < 1e-12);
        assert!((welford.variance() - 4.0).abs() < 1e-12);
        assert!((welford.std_dev() - 2.0).abs() < 1e-12);
        assert!((welford.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(Welford::new().mean(), 0.0);
        assert_eq!(Welford::new().variance(), 0.0);
    }

    #[test]
    fn run_moments_track_completed_trials() {
        let stream = ReportStream::new(
            &scenario(),
            backend("jump-chain").unwrap(),
            StreamConfig::new(32).with_threads(4),
            factory(3),
        );
        let moments = stream.fold(RunMoments::new());
        assert_eq!(moments.trials(), 32);
        assert_eq!(moments.completed(), 32);
        assert_eq!(moments.truncated(), 0);
        assert!(moments.events().mean() > 0.0);
        assert!(moments.events().variance() > 0.0);
        assert_eq!(moments.events().count(), 32);
    }

    #[test]
    fn early_stop_halts_the_stream_and_meets_its_target() {
        // A 4:1 majority wins essentially always: the half-width shrinks
        // fast, so a loose target stops long before 100 000 trials.
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let scenario = Scenario::majority(model, 80, 20);
        let rule = EarlyStop::at_half_width(0.08).with_min_trials(8);
        let stream = ReportStream::new(
            &scenario,
            backend("jump-chain").unwrap(),
            StreamConfig::new(100_000).with_threads(4),
            factory(4),
        );
        let tally = stream.fold_with(SuccessTally::new(), Some(rule), |_| {});
        assert!(tally.trials() >= 8);
        assert!(
            tally.trials() < 1_000,
            "early stopping never fired ({} trials)",
            tally.trials()
        );
        assert!(rule.half_width(tally.successes(), tally.trials()) <= 0.08);
    }

    #[test]
    fn early_stopped_trial_count_is_thread_invariant() {
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let scenario = Scenario::majority(model, 60, 50);
        let rule = EarlyStop::at_half_width(0.15).with_min_trials(4);
        let run = |threads| {
            ReportStream::new(
                &scenario,
                backend("jump-chain").unwrap(),
                StreamConfig::new(50_000).with_threads(threads),
                factory(5),
            )
            .fold_with(SuccessTally::new(), Some(rule), |_| {})
        };
        let single = run(1);
        assert_eq!(single, run(2));
        assert_eq!(single, run(8));
        assert!(single.trials() < 50_000, "rule never fired");
    }

    #[test]
    fn progress_callback_sees_every_folded_trial() {
        let stream = ReportStream::new(
            &scenario(),
            backend("jump-chain").unwrap(),
            StreamConfig::new(16).with_threads(2),
            factory(6),
        );
        let mut seen = Vec::new();
        let _ = stream.fold_with(SuccessTally::new(), None, |p| seen.push(p));
        assert_eq!(seen.len(), 16);
        assert_eq!(seen.last().unwrap().trials, 16);
        assert!(seen.iter().all(|p| p.scheduled == 16));
        assert!(seen.windows(2).all(|w| w[1].trials == w[0].trials + 1));
    }

    #[test]
    fn plurality_tally_counts_wins_per_species() {
        use lv_lotka::MultiLvModel;
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![60, 20, 20]);
        let stream = ReportStream::new(
            &scenario,
            backend("jump-chain").unwrap(),
            StreamConfig::new(40).with_threads(4),
            factory(7),
        );
        let tally = stream.fold(PluralityTally::new(3));
        assert_eq!(tally.trials(), 40);
        assert_eq!(tally.species(), 3);
        assert_eq!(
            tally.wins().iter().sum::<u64>() + tally.no_survivor(),
            tally.completed()
        );
        assert!(tally.leader_wins() > tally.completed() / 2);
    }

    #[test]
    fn halt_mid_iteration_discards_the_tail() {
        let mut stream = ReportStream::new(
            &scenario(),
            backend("jump-chain").unwrap(),
            StreamConfig::new(1_000).with_threads(4),
            factory(8),
        );
        for _ in 0..5 {
            assert!(stream.next().is_some());
        }
        stream.halt();
        assert_eq!(stream.next(), None);
        assert_eq!(stream.yielded(), 5);
        assert_eq!(stream.scheduled(), 1_000);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = StreamConfig::new(0);
    }

    /// Whether the current thread is a pool helper.
    fn on_helper() -> bool {
        std::thread::current().name() == Some(HELPER_NAME)
    }

    /// Folds `stream` until a panic, returning the trials folded before it
    /// and the panic message.
    fn fold_until_panic(stream: ReportStream) -> (u64, String) {
        let mut folded = 0u64;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in stream {
                folded += 1;
            }
        }));
        let payload = result.expect_err("the panic must reach the consumer");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_default();
        (folded, message)
    }

    #[test]
    fn worker_panics_halt_the_queue_and_reach_the_consumer() {
        struct Exploding;
        impl Backend for Exploding {
            fn name(&self) -> &'static str {
                "exploding-test"
            }
            fn description(&self) -> &'static str {
                "panics on every run"
            }
            fn run(&self, _scenario: &Scenario, _rng: &mut StdRng) -> RunReport {
                panic!("backend exploded")
            }
        }
        let exploding: &'static dyn Backend = Box::leak(Box::new(Exploding));
        let mut stream = ReportStream::new(
            &scenario(),
            exploding,
            StreamConfig::new(10_000).with_threads(4),
            factory(9),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stream.next()));
        let payload = result.expect_err("the worker panic must reach the consumer");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"backend exploded"),
            "unexpected panic payload"
        );
        // The queue was halted by the panicking runner, so the others did
        // not burn through (and buffer) the remaining trials.
        assert!(stream.next().is_none());

        // A panic on a helper, then one on the consumer: each is raised at
        // the lowest trial that panicked, after exactly the trials before it.
        let scenario = Scenario::majority(
            LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
            300,
            200,
        );
        let jump_chain = backend("jump-chain").unwrap();
        let config = StreamConfig::new(64).with_threads(2);
        for on_the_helper in [true, false] {
            if on_the_helper && config.effective_workers(64) == 1 {
                continue;
            }
            for p in [1u64, 9, 20] {
                let panicked = Arc::new(AtomicU64::new(u64::MAX));
                let seen = Arc::clone(&panicked);
                let inner = factory(p);
                let rng_for_trial: TrialRngFactory = Arc::new(move |trial| {
                    if trial >= p && on_helper() == on_the_helper {
                        seen.fetch_min(trial, Ordering::SeqCst);
                        panic!("refused trial {trial}");
                    }
                    if trial >= p {
                        // Hold this side back so the other side claims a
                        // trial at or after `p` (bounded: a helper busy
                        // elsewhere still fails the test rather than hang).
                        for _ in 0..10_000 {
                            if seen.load(Ordering::SeqCst) != u64::MAX {
                                break;
                            }
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    }
                    inner(trial)
                });
                let stream = ReportStream::new(&scenario, jump_chain, config, rng_for_trial);
                let (folded, message) = fold_until_panic(stream);
                let at = panicked.load(Ordering::SeqCst);
                assert_eq!(message, format!("refused trial {at}"));
                assert_eq!(
                    folded,
                    at,
                    "panic on the {}: folded {folded} trials before the panic at {at}",
                    if on_the_helper { "helper" } else { "consumer" }
                );
            }
        }
    }

    #[test]
    fn concurrent_streams_each_fold_their_own_bits() {
        let scenario = scenario();
        let backend = backend("jump-chain").unwrap();
        let collect = |root: u64, threads: usize| -> Vec<(u64, RunReport)> {
            ReportStream::new(
                &scenario,
                backend,
                StreamConfig::new(300).with_threads(threads),
                factory(root),
            )
            .collect()
        };
        let alone = [collect(21, 1), collect(22, 1)];
        let together = std::thread::scope(|scope| {
            let other = scope.spawn(|| collect(22, 4));
            [collect(21, 4), other.join().unwrap()]
        });
        assert_eq!(together, alone);
    }

    /// A backend whose runs block until the gate opens.
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
        inside: AtomicUsize,
    }

    impl Backend for Gate {
        fn name(&self) -> &'static str {
            "gate-test"
        }
        fn description(&self) -> &'static str {
            "blocks every run until opened"
        }
        fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
            self.inside.fetch_add(1, Ordering::SeqCst);
            let mut open = lock(&self.open);
            while !*open {
                open = wait(&self.opened, open);
            }
            drop(open);
            backend("jump-chain").unwrap().run(scenario, rng)
        }
    }

    #[test]
    fn a_stream_completes_while_another_holds_every_helper() {
        let gate: &'static Gate = Box::leak(Box::new(Gate {
            open: Mutex::new(false),
            opened: Condvar::new(),
            inside: AtomicUsize::new(0),
        }));
        let scenario = scenario();
        let config = StreamConfig::new(64).with_threads(cores());
        let runners = config.effective_workers(64);
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| {
                ReportStream::new(&scenario, gate, config, factory(23)).fold(SuccessTally::new())
            });
            // Every helper the pool has, and the blocked stream's own
            // consumer, sit inside a gated run.
            while gate.inside.load(Ordering::SeqCst) < runners {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let jump_chain = backend("jump-chain").unwrap();
            let run = |threads| {
                ReportStream::new(
                    &scenario,
                    jump_chain,
                    StreamConfig::new(200).with_threads(threads),
                    factory(24),
                )
                .fold(RunMoments::new())
            };
            assert_eq!(run(4), run(1));
            *lock(&gate.open) = true;
            gate.opened.notify_all();
            assert_eq!(blocked.join().unwrap().trials(), 64);
        });
    }

    #[test]
    fn dropping_a_half_folded_stream_waits_for_its_trials() {
        struct Counting {
            started: AtomicU64,
            running: AtomicU64,
        }
        impl Backend for Counting {
            fn name(&self) -> &'static str {
                "counting-test"
            }
            fn description(&self) -> &'static str {
                "counts runs started and running"
            }
            fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
                self.started.fetch_add(1, Ordering::SeqCst);
                self.running.fetch_add(1, Ordering::SeqCst);
                let report = backend("jump-chain").unwrap().run(scenario, rng);
                self.running.fetch_sub(1, Ordering::SeqCst);
                report
            }
        }
        let counting: &'static Counting = Box::leak(Box::new(Counting {
            started: AtomicU64::new(0),
            running: AtomicU64::new(0),
        }));
        let scenario = Scenario::majority(
            LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
            300,
            200,
        );
        for folded in [0, 1, 40] {
            let mut stream = ReportStream::new(
                &scenario,
                counting,
                StreamConfig::new(100_000).with_threads(4),
                factory(25),
            );
            for _ in 0..folded {
                assert!(stream.next().is_some());
            }
            drop(stream);
            assert_eq!(counting.running.load(Ordering::SeqCst), 0);
            let started = counting.started.load(Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(counting.started.load(Ordering::SeqCst), started);
            assert!(started < 100_000, "the dropped stream ran to the end");
        }
    }

    #[test]
    fn a_worker_panic_is_raised_after_exactly_the_trials_before_it() {
        // The RNG factory panics at trial `p`, inside the second worker's
        // first trials. Every trial before `p` was claimed before it, so it
        // must run and reach the consumer, even when its worker is still
        // busy when the panic halts the queue: the consumer folds exactly
        // trials 0..p, then sees the panic.
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let scenario = Scenario::majority(model, 300, 200);
        let backend = backend("jump-chain").unwrap();
        for threads in [2, 4] {
            for p in 9..=14u64 {
                for round in 0..8 {
                    let inner = factory(round);
                    let rng_for_trial: TrialRngFactory = Arc::new(move |trial| {
                        assert_ne!(trial, p, "rng factory refused trial {p}");
                        inner(trial)
                    });
                    let stream = ReportStream::new(
                        &scenario,
                        backend,
                        StreamConfig::new(64).with_threads(threads),
                        rng_for_trial,
                    );
                    let (folded, message) = fold_until_panic(stream);
                    assert!(
                        message.contains("refused trial"),
                        "unexpected panic payload {message:?}"
                    );
                    assert_eq!(
                        folded, p,
                        "{threads} threads, round {round}: folded {folded} trials before the panic at {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_rule_fires_once_the_interval_clears_the_boundary() {
        let rule = EarlyStop::at_half_width(0.001)
            .with_boundary(0.9)
            .with_min_trials(4);
        // 2/10: the interval is far below 0.9 — decided, even though the
        // half-width target is nowhere near met.
        assert!(rule.satisfied(2, 10));
        // 9/10: the interval straddles 0.9 — undecided.
        assert!(!rule.satisfied(9, 10));
        // 100/100: entirely above 0.9 — decided.
        assert!(rule.satisfied(100, 100));
        // Below min_trials the rule never fires.
        assert!(!rule.satisfied(0, 3));
        // The interval accessor brackets the boundary exactly when the rule
        // holds off.
        let (low, high) = rule.interval(9, 10);
        assert!(low < 0.9 && high > 0.9);
        assert_eq!(rule.boundary(), Some(0.9));
        assert_eq!(EarlyStop::at_half_width(0.1).boundary(), None);
    }

    #[test]
    fn boundary_probe_spends_few_trials_far_from_the_threshold() {
        // A 4:1 majority wins nearly always, so an interval that only needs
        // to clear a 0.6 boundary decides within a couple dozen trials.
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let scenario = Scenario::majority(model, 80, 20);
        let rule = EarlyStop::at_half_width(0.001)
            .with_boundary(0.6)
            .with_min_trials(8);
        let stream = ReportStream::new(
            &scenario,
            backend("jump-chain").unwrap(),
            StreamConfig::new(100_000).with_threads(4),
            factory(11),
        );
        let tally = stream.fold_with(SuccessTally::new(), Some(rule), |_| {});
        assert!(tally.trials() >= 8);
        assert!(
            tally.trials() <= 64,
            "decision probe burned {} trials",
            tally.trials()
        );
    }

    #[test]
    #[should_panic(expected = "decision boundary")]
    fn out_of_range_boundaries_are_rejected() {
        let _ = EarlyStop::at_half_width(0.1).with_boundary(1.0);
    }

    #[test]
    fn early_stop_half_width_matches_wilson_formula() {
        let rule = EarlyStop::at_half_width(0.05);
        // 75/100 at z = 1.96: compare against the direct formula.
        let (s, n) = (75u64, 100u64);
        let z = 1.96f64;
        let p = s as f64 / n as f64;
        let denom = 1.0 + z * z / n as f64;
        let expected =
            (z / denom) * (p * (1.0 - p) / n as f64 + z * z / (4.0 * n as f64 * n as f64)).sqrt();
        assert!((rule.half_width(s, n) - expected).abs() < 1e-15);
        assert_eq!(rule.half_width(0, 0), f64::INFINITY);
        assert!(!rule.satisfied(0, 0));
    }
}
