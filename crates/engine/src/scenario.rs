//! The [`Scenario`] description: *what* to simulate, independent of *how*.

use crate::observer::ObserverSpec;
use lv_crn::{StopCondition, ValidatedNetwork};
use lv_lotka::{LvModel, MultiLvModel, Population, PopulationEvent};
use std::sync::{Arc, OnceLock};

/// The model a scenario simulates: the paper's two-species model, or the
/// general `k`-species model.
///
/// The two-species variant is kept distinct (rather than eagerly embedded
/// into [`MultiLvModel`]) so backends with a specialised two-species path —
/// the exact jump chain — can keep using it bit-for-bit; the CRN form of an
/// embedded two-species model is identical either way, so the generic
/// backends do not care.
#[derive(Debug, Clone)]
pub enum ScenarioModel {
    /// The paper's two-species competitive Lotka–Volterra model.
    TwoSpecies(LvModel),
    /// A general `k`-species competitive Lotka–Volterra model.
    MultiSpecies(MultiLvModel),
}

impl ScenarioModel {
    /// Number of species of the model.
    pub fn species_count(&self) -> usize {
        match self {
            ScenarioModel::TwoSpecies(_) => 2,
            ScenarioModel::MultiSpecies(model) => model.species_count(),
        }
    }

    /// The two-species model, when this is one.
    pub fn as_two_species(&self) -> Option<&LvModel> {
        match self {
            ScenarioModel::TwoSpecies(model) => Some(model),
            ScenarioModel::MultiSpecies(_) => None,
        }
    }

    /// The `k`-species model, when this is one.
    pub fn as_multi_species(&self) -> Option<&MultiLvModel> {
        match self {
            ScenarioModel::MultiSpecies(model) => Some(model),
            ScenarioModel::TwoSpecies(_) => None,
        }
    }

    /// The `k`-species view of the model (the exact embedding for the
    /// two-species variant).
    pub fn to_multi(&self) -> MultiLvModel {
        match self {
            ScenarioModel::TwoSpecies(model) => MultiLvModel::from(*model),
            ScenarioModel::MultiSpecies(model) => model.clone(),
        }
    }
}

impl From<LvModel> for ScenarioModel {
    fn from(model: LvModel) -> Self {
        ScenarioModel::TwoSpecies(model)
    }
}

impl From<MultiLvModel> for ScenarioModel {
    fn from(model: MultiLvModel) -> Self {
        ScenarioModel::MultiSpecies(model)
    }
}

/// The CRN form of a scenario's model: the validated network plus the
/// reaction-index → event map, built once per scenario and shared by every
/// run (Monte-Carlo batches run thousands of trials against one scenario).
#[derive(Debug)]
pub(crate) struct CrnForm {
    pub(crate) network: ValidatedNetwork,
    pub(crate) events: Vec<PopulationEvent>,
}

/// A complete, backend-independent description of one simulation run: a
/// model over `k ≥ 2` species, an initial [`Population`], a
/// [`StopCondition`] and a set of observers.
///
/// The same `Scenario` value runs unmodified on every registered
/// [`Backend`](crate::Backend) — the exact jump chain, the Gillespie direct
/// method, tau-leaping, the deterministic ODE and the protocol baselines —
/// which is what lets the Monte-Carlo layer, the experiment suite and the
/// benchmarks share one execution path.
///
/// ```
/// use lv_engine::{backend, Scenario};
/// use lv_lotka::{CompetitionKind, LvModel};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
/// let scenario = Scenario::majority(model, 60, 40);
/// let mut rng = StdRng::seed_from_u64(7);
/// let report = backend("jump-chain").unwrap().run(&scenario, &mut rng);
/// assert!(report.final_state.is_consensus());
/// ```
///
/// `k`-species scenarios are built the same way from a
/// [`MultiLvModel`]:
///
/// ```
/// use lv_engine::{backend, Scenario};
/// use lv_lotka::{CompetitionKind, MultiLvModel};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
/// let scenario = Scenario::plurality(model, vec![70, 20, 10]);
/// let mut rng = StdRng::seed_from_u64(7);
/// let report = backend("jump-chain").unwrap().run(&scenario, &mut rng);
/// assert!(report.to_plurality_outcome().consensus_reached);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    model: ScenarioModel,
    initial: Population,
    stop: StopCondition,
    observers: Vec<ObserverSpec>,
    tau: f64,
    /// Lazily-built CRN form shared across runs (cloning a scenario shares
    /// the already-built network through the `Arc`).
    crn: OnceLock<Arc<CrnForm>>,
}

/// Event budget for a consensus run over total population `n`:
/// `events_per_individual · max(n, 16)` events, at least 100 000 — the one
/// formula [`Scenario::majority`], [`Scenario::plurality`] and the
/// server's per-request budgets derive from.
pub fn majority_budget(n: u64, events_per_individual: u64) -> u64 {
    events_per_individual.saturating_mul(n.max(16)).max(100_000)
}

/// Default event budget for [`Scenario::majority`] and
/// [`Scenario::plurality`]: [`majority_budget`]`(n, 200)`, generous relative
/// to the `O(n)` consensus time of Theorem 13.
pub fn default_majority_budget(n: u64) -> u64 {
    majority_budget(n, 200)
}

impl Scenario {
    /// Creates a scenario with the given model and initial population.
    ///
    /// The default stop condition is consensus (at most one species alive;
    /// for two species this is the paper's "any species extinct"); no
    /// observers are attached.
    ///
    /// # Panics
    ///
    /// Panics if the initial population's species count differs from the
    /// model's.
    pub fn new(model: impl Into<ScenarioModel>, initial: impl Into<Population>) -> Self {
        let model = model.into();
        let initial = initial.into();
        assert_eq!(
            initial.species_count(),
            model.species_count(),
            "initial population must have one count per model species"
        );
        Scenario {
            model,
            initial,
            stop: StopCondition::consensus(),
            observers: Vec::new(),
            tau: 1e-3,
            crn: OnceLock::new(),
        }
    }

    /// The cached CRN form of the model (network + reaction → event map),
    /// built on first use.
    ///
    /// # Panics
    ///
    /// Panics if every rate of the model is zero (no reaction network
    /// exists); such a model cannot be simulated by any CRN backend.
    pub(crate) fn crn_form(&self) -> Arc<CrnForm> {
        Arc::clone(self.crn.get_or_init(|| {
            let multi = self.model.to_multi();
            let network = multi
                .to_reaction_network()
                .expect("a model with at least one positive rate has a valid network");
            let events = multi.reaction_events();
            debug_assert_eq!(events.len(), network.reaction_count());
            Arc::new(CrnForm { network, events })
        }))
    }

    /// The standard majority-consensus scenario from `(a, b)`: run until one
    /// species is extinct (with the default event budget of
    /// [`default_majority_budget`]), observing event counts, the noise
    /// decomposition and the maximum population — everything
    /// [`RunReport::to_majority_outcome`](crate::RunReport::to_majority_outcome)
    /// needs.
    pub fn majority(model: LvModel, a: u64, b: u64) -> Self {
        // The two-species special case of the plurality scenario: for k = 2,
        // "at most one species alive" is exactly "any species extinct".
        Scenario::plurality(model, (a, b))
    }

    /// The `k`-species plurality-consensus scenario: run until at most one
    /// species is alive (with the default event budget), observing
    /// everything
    /// [`RunReport::to_plurality_outcome`](crate::RunReport::to_plurality_outcome)
    /// uses — the `k`-species generalisation of [`Scenario::majority`].
    pub fn plurality(model: impl Into<ScenarioModel>, initial: impl Into<Population>) -> Self {
        let scenario = Scenario::new(model, initial);
        let budget = default_majority_budget(scenario.initial.total());
        scenario
            .with_stop(StopCondition::consensus().with_max_events(budget))
            .observe(ObserverSpec::EventCounts)
            .observe(ObserverSpec::NoiseDecomposition)
            .observe(ObserverSpec::MaxPopulation)
    }

    /// Replaces the stop condition.
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Adds an observer (duplicates are ignored).
    pub fn observe(mut self, spec: ObserverSpec) -> Self {
        if !self.observers.contains(&spec) {
            self.observers.push(spec);
        }
        self
    }

    /// Sets the leap length used by the tau-leaping backend.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not a positive finite number.
    pub fn with_tau(mut self, tau: f64) -> Self {
        assert!(tau.is_finite() && tau > 0.0, "tau must be positive");
        self.tau = tau;
        self
    }

    /// The model to simulate.
    pub fn model(&self) -> &ScenarioModel {
        &self.model
    }

    /// Number of species in the scenario.
    pub fn species_count(&self) -> usize {
        self.model.species_count()
    }

    /// The initial population.
    pub fn initial(&self) -> &Population {
        &self.initial
    }

    /// The stop condition.
    pub fn stop(&self) -> &StopCondition {
        &self.stop
    }

    /// The attached observer specs.
    pub fn observers(&self) -> &[ObserverSpec] {
        &self.observers
    }

    /// The tau-leaping leap length.
    pub fn tau(&self) -> f64 {
        self.tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_lotka::CompetitionKind;

    #[test]
    fn majority_scenario_attaches_the_derived_view_observers() {
        let scenario = Scenario::majority(LvModel::default(), 60, 40);
        assert_eq!(scenario.initial().counts(), &[60, 40]);
        assert_eq!(scenario.species_count(), 2);
        assert_eq!(scenario.observers().len(), 3);
        assert_eq!(scenario.stop().max_events(), Some(100_000));
        assert!(scenario.model().as_two_species().is_some());
    }

    #[test]
    fn plurality_scenario_covers_k_species() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 4, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![40, 20, 20, 20]);
        assert_eq!(scenario.species_count(), 4);
        assert_eq!(scenario.initial().counts(), &[40, 20, 20, 20]);
        assert_eq!(scenario.observers().len(), 3);
        assert_eq!(scenario.stop().max_events(), Some(100_000));
        assert!(scenario.model().as_multi_species().is_some());
        assert!(scenario.model().as_two_species().is_none());
    }

    #[test]
    fn crn_form_of_an_embedded_model_matches_the_two_species_network() {
        let model = LvModel::default();
        let scenario = Scenario::new(model, (10, 10));
        let form = scenario.crn_form();
        assert_eq!(&form.network, &model.to_reaction_network().unwrap());
        assert_eq!(form.events.len(), form.network.reaction_count());
    }

    #[test]
    fn observe_deduplicates() {
        let scenario = Scenario::new(LvModel::default(), (10, 10))
            .observe(ObserverSpec::GapTrajectory)
            .observe(ObserverSpec::GapTrajectory);
        assert_eq!(scenario.observers(), &[ObserverSpec::GapTrajectory]);
    }

    #[test]
    fn budget_grows_with_population() {
        assert_eq!(default_majority_budget(0), 100_000);
        assert_eq!(default_majority_budget(1_000), 200_000);
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn invalid_tau_is_rejected() {
        let _ = Scenario::new(LvModel::default(), (1, 1)).with_tau(0.0);
    }

    #[test]
    #[should_panic(expected = "one count per model species")]
    fn mismatched_initial_dimension_is_rejected() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let _ = Scenario::new(model, (10, 10));
    }
}
