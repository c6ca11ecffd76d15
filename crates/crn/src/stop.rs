use crate::species::SpeciesId;
use crate::state::State;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A condition under which a simulation run stops.
///
/// Stop conditions are evaluated after every simulated event. Several simple
/// conditions are provided; arbitrary predicates over the state can be
/// supplied with [`StopCondition::predicate`], and conditions can be combined
/// with [`StopCondition::or`].
///
/// The paper's central stopping time is the *consensus time*
/// `T(S) = inf{t : S_t has reached consensus}`, i.e. the first time some
/// species count hits zero — that is [`StopCondition::any_species_extinct`].
#[derive(Clone)]
pub struct StopCondition {
    kinds: Vec<StopKind>,
    max_events: Option<u64>,
    max_time: Option<f64>,
}

#[derive(Clone)]
enum StopKind {
    AnySpeciesExtinct,
    SpeciesExtinct(SpeciesId),
    TotalAtLeast(u64),
    AtMostOneAlive,
    Predicate(Arc<dyn Fn(&State) -> bool + Send + Sync>),
}

impl fmt::Debug for StopCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StopCondition")
            .field("conditions", &self.kinds.len())
            .field("max_events", &self.max_events)
            .field("max_time", &self.max_time)
            .finish()
    }
}

impl StopCondition {
    fn from_kind(kind: StopKind) -> Self {
        StopCondition {
            kinds: vec![kind],
            max_events: None,
            max_time: None,
        }
    }

    /// Stop as soon as any species count reaches zero (the paper's consensus
    /// time).
    pub fn any_species_extinct() -> Self {
        StopCondition::from_kind(StopKind::AnySpeciesExtinct)
    }

    /// Stop as soon as the given species count reaches zero.
    pub fn species_extinct(species: SpeciesId) -> Self {
        StopCondition::from_kind(StopKind::SpeciesExtinct(species))
    }

    /// Stop as soon as the total population reaches at least `threshold`.
    pub fn total_at_least(threshold: u64) -> Self {
        StopCondition::from_kind(StopKind::TotalAtLeast(threshold))
    }

    /// Stop as soon as at most one species is still alive — *plurality
    /// consensus* for `k`-species populations. For two species this is
    /// equivalent to [`StopCondition::any_species_extinct`]; for `k > 2` a
    /// single extinction does not end the contest, this condition does.
    pub fn consensus() -> Self {
        StopCondition::from_kind(StopKind::AtMostOneAlive)
    }

    /// Stop when the given predicate over the state becomes true.
    pub fn predicate(f: impl Fn(&State) -> bool + Send + Sync + 'static) -> Self {
        StopCondition::from_kind(StopKind::Predicate(Arc::new(f)))
    }

    /// A condition that never triggers on the state; combine with
    /// [`with_max_events`](StopCondition::with_max_events) or
    /// [`with_max_time`](StopCondition::with_max_time) to build pure budget
    /// limits.
    pub fn never() -> Self {
        StopCondition {
            kinds: Vec::new(),
            max_events: None,
            max_time: None,
        }
    }

    /// Additionally stop after at most `events` simulated events (a safety
    /// budget; the run is then marked as truncated).
    pub fn with_max_events(mut self, events: u64) -> Self {
        self.max_events = Some(events);
        self
    }

    /// Additionally stop once the simulated (continuous) time exceeds `time`.
    pub fn with_max_time(mut self, time: f64) -> Self {
        self.max_time = Some(time);
        self
    }

    /// Combines two conditions; the run stops when either triggers.
    pub fn or(mut self, other: StopCondition) -> Self {
        self.kinds.extend(other.kinds);
        self.max_events = match (self.max_events, other.max_events) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max_time = match (self.max_time, other.max_time) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// Whether the state-based part of the condition holds in `state`.
    pub fn is_met(&self, state: &State) -> bool {
        self.kinds.iter().any(|kind| match kind {
            StopKind::AnySpeciesExtinct => state.any_extinct(),
            StopKind::SpeciesExtinct(s) => state.is_extinct(*s),
            StopKind::TotalAtLeast(t) => state.total() >= *t,
            StopKind::AtMostOneAlive => {
                state.counts().iter().filter(|&&count| count > 0).count() <= 1
            }
            StopKind::Predicate(f) => f(state),
        })
    }

    /// Whether the state-based part of the condition is exactly "some
    /// species is extinct" for a state of `species` species: a single
    /// [`any_species_extinct`](StopCondition::any_species_extinct), or a
    /// single [`consensus`](StopCondition::consensus) when `species == 2`.
    /// Budgets are ignored; predicates and `or`-composed conditions answer
    /// `false`. Simulators use this to recognise runs they can drive to
    /// consensus without evaluating the condition after every event.
    pub fn is_first_extinction(&self, species: usize) -> bool {
        match self.kinds.as_slice() {
            [StopKind::AnySpeciesExtinct] => true,
            [StopKind::AtMostOneAlive] => species == 2,
            _ => false,
        }
    }

    /// The event budget, if any.
    pub fn max_events(&self) -> Option<u64> {
        self.max_events
    }

    /// The simulated-time budget, if any.
    pub fn max_time(&self) -> Option<f64> {
        self.max_time
    }
}

/// Why a simulation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The state-based stop condition was met.
    ConditionMet,
    /// The event budget was exhausted before the condition was met.
    MaxEventsReached,
    /// The simulated-time budget was exhausted before the condition was met.
    MaxTimeReached,
    /// The process became absorbed: no reaction has positive propensity.
    Absorbed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_species_extinct_triggers_on_zero_count() {
        let cond = StopCondition::any_species_extinct();
        assert!(!cond.is_met(&State::from(vec![2, 3])));
        assert!(cond.is_met(&State::from(vec![0, 3])));
    }

    #[test]
    fn species_extinct_targets_one_species() {
        let cond = StopCondition::species_extinct(SpeciesId::new(1));
        assert!(!cond.is_met(&State::from(vec![0, 3])));
        assert!(cond.is_met(&State::from(vec![5, 0])));
    }

    #[test]
    fn total_at_least_and_total_extinction() {
        assert!(StopCondition::total_at_least(10).is_met(&State::from(vec![6, 4])));
        assert!(!StopCondition::total_at_least(11).is_met(&State::from(vec![6, 4])));
        // Total extinction is the complement of `total_at_least(1)`.
        assert!(!StopCondition::total_at_least(1).is_met(&State::from(vec![0, 0])));
        assert!(StopCondition::total_at_least(1).is_met(&State::from(vec![0, 1])));
    }

    #[test]
    fn consensus_triggers_when_at_most_one_species_lives() {
        let cond = StopCondition::consensus();
        assert!(!cond.is_met(&State::from(vec![2, 3])));
        assert!(cond.is_met(&State::from(vec![0, 3])));
        // For k > 2 a single extinction is not consensus.
        assert!(!cond.is_met(&State::from(vec![0, 3, 1])));
        assert!(cond.is_met(&State::from(vec![0, 3, 0])));
        assert!(cond.is_met(&State::from(vec![0, 0, 0])));
    }

    #[test]
    fn predicate_condition() {
        let cond = StopCondition::predicate(|s: &State| s.count(SpeciesId::new(0)) > 100);
        assert!(!cond.is_met(&State::from(vec![100])));
        assert!(cond.is_met(&State::from(vec![101])));
    }

    #[test]
    fn never_condition_with_budgets() {
        let cond = StopCondition::never()
            .with_max_events(10)
            .with_max_time(2.0);
        assert!(!cond.is_met(&State::from(vec![0, 0])));
        assert_eq!(cond.max_events(), Some(10));
        assert_eq!(cond.max_time(), Some(2.0));
    }

    #[test]
    fn or_combines_conditions_and_tightens_budgets() {
        let a = StopCondition::any_species_extinct().with_max_events(100);
        let b = StopCondition::total_at_least(1000)
            .with_max_events(50)
            .with_max_time(7.0);
        let combined = a.or(b);
        assert!(combined.is_met(&State::from(vec![0, 5])));
        assert!(combined.is_met(&State::from(vec![600, 500])));
        assert!(!combined.is_met(&State::from(vec![600, 300])));
        assert_eq!(combined.max_events(), Some(50));
        assert_eq!(combined.max_time(), Some(7.0));
    }

    #[test]
    fn first_extinction_shape_is_recognised() {
        assert!(StopCondition::any_species_extinct().is_first_extinction(2));
        assert!(StopCondition::any_species_extinct()
            .with_max_events(9)
            .with_max_time(1.0)
            .is_first_extinction(3));
        assert!(StopCondition::consensus().is_first_extinction(2));
        assert!(!StopCondition::consensus().is_first_extinction(3));
        assert!(!StopCondition::never().is_first_extinction(2));
        assert!(!StopCondition::species_extinct(SpeciesId::new(0)).is_first_extinction(2));
        assert!(!StopCondition::predicate(|s: &State| s.any_extinct()).is_first_extinction(2));
        assert!(!StopCondition::any_species_extinct()
            .or(StopCondition::total_at_least(10))
            .is_first_extinction(2));
    }

    #[test]
    fn stop_condition_debug_is_nonempty() {
        let cond = StopCondition::any_species_extinct().with_max_events(3);
        let text = format!("{cond:?}");
        assert!(text.contains("StopCondition"));
    }
}
