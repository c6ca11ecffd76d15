//! The [`Backend`] trait and the shared run driver every backend uses.

use crate::observer::{Observer, ObserverSpec, StepRecord};
use crate::report::RunReport;
use crate::scenario::Scenario;
use lv_crn::{State, StopCondition, StopReason};
use lv_lotka::{Population, PopulationEvent};
use rand::rngs::StdRng;

/// A pluggable execution engine for [`Scenario`]s.
///
/// The trait is object-safe so backends can live behind the string-keyed
/// [`registry`](crate::BackendRegistry) and be selected at runtime (CLI
/// flags, bench parameters, config files). All stochastic backends draw
/// every random decision from the `rng` argument, so a fixed seed fully
/// determines a run.
pub trait Backend: Send + Sync {
    /// The canonical registry name (kebab-case, e.g. `"jump-chain"`).
    fn name(&self) -> &'static str;

    /// Alternative registry names accepted by lookup.
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line human description shown by CLI listings.
    fn description(&self) -> &'static str;

    /// Whether this backend ignores the RNG (same scenario, same report,
    /// every run). Batch runners use this to execute deterministic backends
    /// once instead of once per trial.
    fn deterministic(&self) -> bool {
        false
    }

    /// Whether this backend can run scenarios over `species` species. The
    /// five Lotka–Volterra backends support any `k ≥ 2`; protocol baselines
    /// like `"approx-majority"` are two-opinion only.
    fn supports_species(&self, species: usize) -> bool {
        species >= 2
    }

    /// Whether this backend simulates the scenario's kinetic *model*.
    /// Protocol-baseline backends use only the initial configuration and
    /// the stop budgets; model-sensitive comparisons should skip them.
    fn models_kinetics(&self) -> bool {
        true
    }

    /// Whether this backend executes in count-based *batches* (epochs of
    /// `Θ(√n)` collision-free interactions applied as count deltas, thinning
    /// windows or bridged blocks of the conversion dynamics) rather than
    /// resolving every event individually. Batched backends agree with
    /// their per-event counterparts *statistically* — equal outcome
    /// distributions — but not bit-for-bit: the RNG stream differs, steps
    /// aggregate many firings (`StepRecord::firings > 1`, `event = None`),
    /// and absorption is detected at epoch granularity. Every built-in
    /// protocol baseline is batched; its per-event counterpart is
    /// `lv_protocols::ProtocolSimulation`, which tests drive directly.
    fn batched(&self) -> bool {
        false
    }

    /// Executes the scenario to completion.
    ///
    /// The deterministic ODE backend accepts the RNG for interface uniformity
    /// and ignores it.
    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport;
}

/// Shared driver state: stop-condition evaluation, observer dispatch and
/// report assembly. Backends own the stepping; everything else lives here so
/// every backend honors a scenario identically.
pub(crate) struct Driver<'a> {
    scenario: &'a Scenario,
    observers: Vec<(ObserverSpec, Box<dyn Observer>)>,
    /// Scratch state kept in sync with `state` so the CRN
    /// [`StopCondition`] can be evaluated without
    /// per-step allocation.
    scratch: State,
    /// Current counts, one per species.
    state: Vec<u64>,
    /// Staging buffer for the after-step counts (swapped with `state` after
    /// observers run, so recording never allocates).
    staging: Vec<u64>,
    events: u64,
    steps: u64,
    time: f64,
}

impl<'a> Driver<'a> {
    pub(crate) fn new(scenario: &'a Scenario) -> Self {
        let initial = scenario.initial();
        let mut observers: Vec<(ObserverSpec, Box<dyn Observer>)> = scenario
            .observers()
            .iter()
            .map(|spec| (*spec, spec.build()))
            .collect();
        for (_, observer) in &mut observers {
            observer.on_start(initial);
        }
        let counts = initial.counts().to_vec();
        Driver {
            scenario,
            observers,
            scratch: State::from(initial.counts()),
            staging: counts.clone(),
            state: counts,
            events: 0,
            steps: 0,
            time: 0.0,
        }
    }

    /// Reaction firings so far.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// Driver steps so far (leaps/integration steps for aggregating
    /// backends).
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Checks the scenario's stop condition and budgets before each step:
    /// the state condition first, then the event budget, then the time
    /// budget, so a run that meets its condition exactly as a budget binds
    /// reports [`StopReason::ConditionMet`]. This is the one run loop's stop
    /// rule, the paper's consensus time `T(S) = inf{t : S_t has reached
    /// consensus}` under budgets; backends that skip it on a fast path (the
    /// jump chain's `run_to_consensus`) report in the same order.
    pub(crate) fn check_stop(&self) -> Option<StopReason> {
        let stop = self.scenario.stop();
        if stop.is_met(&self.scratch) {
            return Some(StopReason::ConditionMet);
        }
        if let Some(max_events) = stop.max_events() {
            if self.events >= max_events {
                return Some(StopReason::MaxEventsReached);
            }
        }
        if let Some(max_time) = stop.max_time() {
            if self.time >= max_time {
                return Some(StopReason::MaxTimeReached);
            }
        }
        None
    }

    /// Events the scenario's budgets still allow (see [`event_budget`]), for
    /// backends whose clock is their event count: at least one while
    /// [`Driver::check_stop`] passes.
    pub(crate) fn events_left(&self) -> u64 {
        event_budget(self.scenario.stop()).saturating_sub(self.events)
    }

    /// Records one completed step: advances the clocks, updates the tracked
    /// state and notifies every observer.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `after` has the wrong species count.
    pub(crate) fn record(
        &mut self,
        event: Option<PopulationEvent>,
        after: &[u64],
        time: f64,
        firings: u64,
    ) {
        debug_assert_eq!(after.len(), self.state.len());
        self.staging.copy_from_slice(after);
        let record = StepRecord {
            event,
            before: &self.state,
            after: &self.staging,
            time,
            firings,
        };
        for (_, observer) in &mut self.observers {
            observer.on_step(&record);
        }
        std::mem::swap(&mut self.state, &mut self.staging);
        for (index, &count) in self.state.iter().enumerate() {
            self.scratch.set_count(lv_crn::SpeciesId::new(index), count);
        }
        self.events += firings;
        self.steps += 1;
        self.time = time;
    }

    /// Finalizes every observer and assembles the report.
    pub(crate) fn finish(mut self, backend: &'static str, reason: StopReason) -> RunReport {
        let observations = self
            .observers
            .iter_mut()
            .map(|(spec, observer)| (*spec, observer.finish()))
            .collect();
        RunReport::new(
            backend,
            self.scenario.initial().clone(),
            Population::new(self.state),
            reason,
            self.events,
            self.steps,
            self.time,
            observations,
        )
    }
}

/// The event count at which `stop`'s budgets bind for a backend whose clock
/// is its event count: the event budget, or the first `e` with
/// `e as f64 >= max_time` (the time check [`Driver::check_stop`] makes),
/// whichever is smaller. A NaN time budget never binds.
pub(crate) fn event_budget(stop: &StopCondition) -> u64 {
    let time_budget = match stop.max_time() {
        Some(max_time) if !max_time.is_nan() => {
            // Saturating: non-positive budgets bind at once, budgets beyond
            // `u64::MAX` never. Past 2^53, where `f64` no longer holds every
            // integer, this may bind a rounding step late: beyond any real
            // run.
            max_time.ceil() as u64
        }
        _ => u64::MAX,
    };
    stop.max_events().unwrap_or(u64::MAX).min(time_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_lotka::{CompetitionKind, LvModel, MultiLvModel};

    #[test]
    fn scenario_crn_form_event_map_matches_network_reaction_order() {
        let model =
            LvModel::with_intraspecific(CompetitionKind::SelfDestructive, 1.0, 0.5, 2.0, 1.0);
        let scenario = Scenario::new(model, (5, 5));
        let crn = scenario.crn_form();
        assert_eq!(crn.events.len(), crn.network.reaction_count());
        // Spot-check against the names lv-lotka assigns.
        for (event, reaction) in crn.events.iter().zip(crn.network.reactions()) {
            let name = reaction.name().expect("lv-lotka names every reaction");
            let expected = match event {
                PopulationEvent::Birth(_) => "birth",
                PopulationEvent::Death(_) => "death",
                PopulationEvent::Interspecific { .. } => "interspecific",
                PopulationEvent::Intraspecific(_) => "intraspecific",
            };
            assert!(
                name.starts_with(expected),
                "event {event:?} mapped to reaction {name}"
            );
        }
    }

    #[test]
    fn driver_tracks_multi_species_state_and_stops_at_consensus() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![4, 2, 0]);
        let mut driver = Driver::new(&scenario);
        // Not yet consensus: two species alive.
        assert_eq!(driver.check_stop(), None);
        driver.record(
            Some(PopulationEvent::Interspecific {
                attacker: 0,
                victim: 1,
            }),
            &[3, 1, 0],
            1.0,
            1,
        );
        assert_eq!(driver.check_stop(), None);
        driver.record(
            Some(PopulationEvent::Interspecific {
                attacker: 0,
                victim: 1,
            }),
            &[2, 0, 0],
            2.0,
            1,
        );
        assert_eq!(driver.check_stop(), Some(StopReason::ConditionMet));
        assert_eq!(driver.events(), 2);
        assert_eq!(driver.steps(), 2);
        let report = driver.finish("test", StopReason::ConditionMet);
        assert_eq!(report.final_state.counts(), &[2, 0, 0]);
        assert_eq!(report.final_state.winner(), Some(0));
    }
}
