use crate::config::LvConfiguration;
use crate::events::LvEvent;
use crate::model::{propensity, LvModel};
use crate::rates::CompetitionKind;
use lv_crn::distributions::{sample_binomial, sample_geometric};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The number of reactions of a two-species model (the length of
/// [`LvModel::propensities`]).
const REACTIONS: usize = 8;

/// Every reaction slot, in [`LvModel::propensities`] order.
const ALL_SLOTS: [usize; REACTIONS] = [0, 1, 2, 3, 4, 5, 6, 7];

/// The slots of a model without intraspecific competition (`γ = 0`). The
/// two intraspecific reactions have rate zero there, and a zero-rate term
/// changes no partial sum of the propensity fold, so leaving them out keeps
/// every draw bit-identical. It saves two of eight propensity evaluations
/// per event.
const INTERSPECIFIC_SLOTS: [usize; 6] = [0, 1, 2, 4, 5, 6];

/// The births and deaths of both species: the events that end a run of
/// interspecific competitions.
const ESCAPE_SLOTS: [usize; 4] = [0, 1, 4, 5];

/// The two interspecific competition reactions.
const COMPETITION_SLOTS: [usize; 2] = [2, 6];

/// While both counts are at least this large,
/// [`LvJumpChain::run_to_consensus`] skips runs of competitions; below it,
/// where a window of `⌊min(a, b)/2⌋` steps is too short to pay for its
/// draws, it takes exact [`step`](LvJumpChain::step)s.
const RUN_MIN_COUNT: u64 = 16;

/// The model compiled once per chain: each reaction's rate and event in
/// [`LvModel::propensities`] order, whether any intraspecific reaction has
/// positive rate, and the probability that an interspecific competition
/// kills an individual of species 0.
#[derive(Debug, Clone, Copy)]
struct ReactionTable {
    rates: [f64; REACTIONS],
    events: [LvEvent; REACTIONS],
    intraspecific: bool,
    /// `α_1/(α_0 + α_1)` (NaN without interspecific competition).
    victim_zero: f64,
}

impl ReactionTable {
    fn compile(model: &LvModel) -> Self {
        let rates = model.slot_rates();
        let competition: f64 = COMPETITION_SLOTS.iter().map(|&slot| rates[slot]).sum();
        ReactionTable {
            rates,
            events: ALL_SLOTS.map(LvModel::event_for_index),
            intraspecific: !model.rates().has_no_intraspecific(),
            // Attacker 1 (slot 6) kills an individual of species 0.
            victim_zero: rates[6] / competition,
        }
    }

    /// Whether [`LvJumpChain::run_to_consensus`] can skip runs of
    /// competitions: interspecific competition only (`γ = 0`, `α_0 + α_1 > 0`).
    fn skips_competitions(&self) -> bool {
        !self.intraspecific && self.rates[2] + self.rates[6] > 0.0
    }

    /// The probability `q(a, b)` that the next event in `(a, b)` is a birth or
    /// a death rather than a competition. It decreases in both counts.
    fn escape_probability(&self, a: u64, b: u64) -> f64 {
        let (x0, x1) = (a as f64, b as f64);
        let escape = self.total(&ESCAPE_SLOTS, x0, x1);
        escape / (escape + self.total(&COMPETITION_SLOTS, x0, x1))
    }

    /// The propensity of reaction `slot` in the state `(x0, x1)`, through
    /// the same function as [`LvModel::propensities`].
    #[inline(always)]
    fn propensity(&self, slot: usize, x0: f64, x1: f64) -> f64 {
        propensity(slot, self.rates[slot], x0, x1)
    }

    /// The total propensity of `slots` in `(x0, x1)`, folded left to right.
    fn total(&self, slots: &[usize], x0: f64, x1: f64) -> f64 {
        slots
            .iter()
            .map(|&slot| self.propensity(slot, x0, x1))
            .sum()
    }

    /// Draws one of `slots` (at most eight) with probability proportional
    /// to its propensity in `(x0, x1)`, or `None` when every propensity is
    /// zero (no draw is made then).
    ///
    /// The total is the left fold of the propensities in slot order; the
    /// reaction chosen is the first of positive propensity whose running
    /// prefix sum of that fold exceeds the target `u · total`, or the last
    /// of positive propensity when rounding leaves the target at or above
    /// every prefix sum. Every draw of the chain goes through here.
    #[inline(always)]
    fn choose<R: Rng + ?Sized>(
        &self,
        slots: &[usize],
        x0: f64,
        x1: f64,
        rng: &mut R,
    ) -> Option<usize> {
        let mut propensities = [0.0f64; REACTIONS];
        let mut total = 0.0;
        for (p, &slot) in propensities.iter_mut().zip(slots) {
            *p = self.propensity(slot, x0, x1);
            total += *p;
        }
        if total <= 0.0 {
            return None;
        }
        let target = rng.gen::<f64>() * total;
        let mut acc = 0.0;
        let mut chosen = None;
        for (&slot, &p) in slots.iter().zip(&propensities) {
            if p > 0.0 {
                acc += p;
                chosen = Some(slot);
                if target < acc {
                    break;
                }
            }
        }
        chosen
    }
}

/// The embedded discrete-time jump chain of a two-species Lotka–Volterra
/// model, specialised for speed.
///
/// This simulator works directly on the `(x_0, x_1)` configuration and the
/// reaction propensities of the model; it is the chain `S = (S_t)_{t ≥ 0}`
/// the paper analyses, and it is statistically identical to running
/// [`lv_crn::simulators::JumpChain`] on [`LvModel::to_reaction_network`]
/// (the integration tests cross-check this). The Monte-Carlo experiment
/// harness uses this type in its inner loop.
///
/// [`new`](LvJumpChain::new) compiles the model once into a table of its
/// reaction rates and events, leaving out the intraspecific reactions when
/// their rate is zero. Every single-event draw — [`step`](LvJumpChain::step)
/// and the class-conditioned steps of the pseudo-coupling — goes through
/// one selection routine over that table: the left fold of the propensities
/// in [`LvModel::propensities`] order and a walk of its running prefix sums,
/// so they consume the RNG stream identically.
///
/// [`run_to_consensus`](LvJumpChain::run_to_consensus) is **exact in law**
/// but not draw for draw: for models with interspecific competition only it
/// skips whole runs of competitions, so it ends in the same distribution of
/// states and event counts as a loop of `step` calls, on a different RNG
/// stream.
///
/// ```
/// use lv_lotka::{CompetitionKind, LvJumpChain, LvModel};
/// use rand::SeedableRng;
///
/// let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
/// let mut chain = LvJumpChain::new(model, (80, 20).into());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// while !chain.state().is_consensus() {
///     chain.step(&mut rng);
/// }
/// assert!(chain.state().is_consensus());
///
/// // The same chain run to consensus without a per-event loop in the
/// // caller: another sample of the same law.
/// let mut fast = LvJumpChain::new(model, (80, 20).into());
/// let events = fast.run_to_consensus(u64::MAX, &mut rng);
/// assert!(fast.state().is_consensus());
/// assert_eq!(fast.steps(), events);
/// ```
#[derive(Clone)]
pub struct LvJumpChain {
    model: LvModel,
    state: LvConfiguration,
    steps: u64,
    table: ReactionTable,
}

/// The serialized form of an [`LvJumpChain`]: the compiled table is derived
/// from the model, so it is rebuilt on deserialization rather than stored.
#[derive(Serialize, Deserialize)]
struct PersistedChain {
    model: LvModel,
    state: LvConfiguration,
    steps: u64,
}

impl Serialize for LvJumpChain {
    fn serialize<O: serde::Output>(&self, out: &mut O) {
        PersistedChain {
            model: self.model,
            state: self.state,
            steps: self.steps,
        }
        .serialize(out);
    }
}

impl<'de> Deserialize<'de> for LvJumpChain {
    fn deserialize(de: &mut serde::Deserializer<'de>) -> Result<Self, serde::Error> {
        let persisted = PersistedChain::deserialize(de)?;
        let mut chain = LvJumpChain::new(persisted.model, persisted.state);
        chain.steps = persisted.steps;
        Ok(chain)
    }
}

impl fmt::Debug for LvJumpChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LvJumpChain")
            .field("model", &self.model)
            .field("state", &self.state)
            .field("steps", &self.steps)
            .finish()
    }
}

impl LvJumpChain {
    /// Creates the chain in the given initial configuration, compiling the
    /// model's positive-rate reactions once.
    pub fn new(model: LvModel, initial: LvConfiguration) -> Self {
        LvJumpChain {
            model,
            state: initial,
            steps: 0,
            table: ReactionTable::compile(&model),
        }
    }

    /// The model being simulated.
    pub fn model(&self) -> &LvModel {
        &self.model
    }

    /// The current configuration.
    pub fn state(&self) -> LvConfiguration {
        self.state
    }

    /// The number of steps (reactions) taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the chain is absorbed: no reaction has positive propensity.
    pub fn is_absorbed(&self) -> bool {
        let (x0, x1) = self.state.counts();
        self.table.total(&ALL_SLOTS, x0 as f64, x1 as f64) <= 0.0
    }

    /// Samples and applies one reaction. Returns the event, or `None` if the
    /// chain is absorbed (the state is then left unchanged).
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<LvEvent> {
        // Each branch hands the selection a constant slot list, so the
        // compiler evaluates the propensities without a table walk.
        if self.table.intraspecific {
            self.step_within(&ALL_SLOTS, rng)
        } else {
            self.step_within(&INTERSPECIFIC_SLOTS, rng)
        }
    }

    /// Steps until some species is extinct, the chain is absorbed, or
    /// `max_events` events have fired, whichever comes first, and returns
    /// the number of events fired. Nothing is checked or recorded per event
    /// beyond the state itself. A start at consensus or a zero budget fires
    /// nothing and draws nothing.
    ///
    /// The result is exact in law: the final state and the event count have
    /// the distribution of calling [`step`](LvJumpChain::step) in a loop
    /// guarded by `!state().is_consensus()` and the event budget, but the RNG
    /// stream is consumed differently. Models with intraspecific competition
    /// or without interspecific competition run exactly that loop. For the
    /// others, while both counts are at least 16, whole runs of competitions
    /// are skipped: an event in `(a, b)` is a birth or death ("escape") with
    /// probability `q(a, b) = e(a+b)/(c·ab + e(a+b))`, where `e = β + δ` and
    /// `c = α_0 + α_1`. This `q` decreases in both counts, and over a window
    /// of `w = min(⌊min(a, b)/2⌋, events left)` steps no competition lowers
    /// a count by more than `w`, so `q(a − w, b − w)` bounds every escape
    /// probability in the window. Escape candidates are drawn by thinning
    /// against that bound, a `Geometric` gap then acceptance with
    /// probability `q/bound`. The steps in between are competitions: `(−m,
    /// −m)` under self-destructive competition, and under non-self-destructive
    /// competition `Binomial(m, α_1/c)` deaths of species 0. An accepted
    /// escape is drawn from the birth and death propensities and starts a
    /// new window. Windows never cross the event budget, so a truncated run
    /// is exact too. So a trial costs `O(log n)` draws instead of `Θ(n)`.
    pub fn run_to_consensus<R: Rng + ?Sized>(&mut self, max_events: u64, rng: &mut R) -> u64 {
        let mut events = if self.table.skips_competitions() {
            self.run_competitions(max_events, rng)
        } else {
            0
        };
        while events < max_events && !self.state.is_consensus() && self.step(rng).is_some() {
            events += 1;
        }
        events
    }

    /// The competition-run kernel of
    /// [`run_to_consensus`](LvJumpChain::run_to_consensus): fires events in
    /// windows while both counts are at least [`RUN_MIN_COUNT`] and the
    /// budget lasts, and returns the number fired.
    fn run_competitions<R: Rng + ?Sized>(&mut self, max_events: u64, rng: &mut R) -> u64 {
        let (mut a, mut b) = self.state.counts();
        let mut events = 0;
        while a.min(b) >= RUN_MIN_COUNT && events < max_events {
            let window = (a.min(b) / 2).min(max_events - events);
            let bound = self.table.escape_probability(a - window, b - window);
            let mut left = window;
            // Every pass after the first follows a rejected candidate, which
            // is a competition too: it is applied with that pass's run, so
            // under NSD one binomial draws both.
            let mut rejected = 0;
            loop {
                // The steps before the next escape candidate are competitions.
                let run = if bound > 0.0 {
                    sample_geometric(rng, bound).min(left)
                } else {
                    left
                };
                self.compete(rejected + run, &mut a, &mut b, rng);
                left -= run;
                if left == 0 {
                    break;
                }
                left -= 1;
                if rng.gen::<f64>() * bound < self.table.escape_probability(a, b) {
                    let (x0, x1) = (a as f64, b as f64);
                    let slot = self
                        .table
                        .choose(&ESCAPE_SLOTS, x0, x1, rng)
                        .expect("an accepted escape has positive propensity");
                    let state = LvConfiguration::new(a, b);
                    (a, b) = self.table.events[slot]
                        .apply(self.model.kind(), state)
                        .counts();
                    break;
                }
                rejected = 1;
            }
            events += window - left;
        }
        self.state = LvConfiguration::new(a, b);
        self.steps += events;
        events
    }

    /// Applies `m` interspecific competitions to `(a, b)`.
    fn compete<R: Rng + ?Sized>(&self, m: u64, a: &mut u64, b: &mut u64, rng: &mut R) {
        match self.model.kind() {
            CompetitionKind::SelfDestructive => {
                *a -= m;
                *b -= m;
            }
            CompetitionKind::NonSelfDestructive => {
                // Each victim is of species 0 with the state-free chance
                // α_1/(α_0 + α_1).
                let zero = sample_binomial(rng, m, self.table.victim_zero);
                *a -= zero;
                *b -= m - zero;
            }
        }
    }

    /// Samples one reaction **conditioned on** it belonging to the given set
    /// of propensity indices (used by the pseudo-coupling, which needs to
    /// sample within an event class). Returns `None` if no reaction in the set
    /// has positive propensity.
    #[inline(always)]
    pub(crate) fn step_within<R: Rng + ?Sized>(
        &mut self,
        indices: &[usize],
        rng: &mut R,
    ) -> Option<LvEvent> {
        let (x0, x1) = self.state.counts();
        let slot = self.table.choose(indices, x0 as f64, x1 as f64, rng)?;
        let event = self.table.events[slot];
        self.state = event.apply(self.model.kind(), self.state);
        self.steps += 1;
        Some(event)
    }

    /// The per-reaction transition probabilities `P(x, ·)` from the current
    /// state (all zeros when absorbed), in the order of
    /// [`LvModel::propensities`].
    pub fn transition_probabilities(&self) -> [f64; 8] {
        let (x0, x1) = self.state.counts();
        let (x0, x1) = (x0 as f64, x1 as f64);
        let total = self.table.total(&ALL_SLOTS, x0, x1);
        if total <= 0.0 {
            return [0.0; REACTIONS];
        }
        ALL_SLOTS.map(|slot| self.table.propensity(slot, x0, x1) / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::{LvRates, SpeciesIndex};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn step_counts_and_state_updates() {
        let model = LvModel::default();
        let mut chain = LvJumpChain::new(model, LvConfiguration::new(20, 10));
        let mut r = rng(1);
        let before = chain.state().total();
        let event = chain.step(&mut r).unwrap();
        assert_eq!(chain.steps(), 1);
        let after = chain.state().total();
        // Every event changes the total population by at most 2.
        assert!(before.abs_diff(after) <= 2, "event {event}");
    }

    #[test]
    fn absorbed_chain_does_not_move() {
        let model = LvModel::default();
        let mut chain = LvJumpChain::new(model, LvConfiguration::new(0, 0));
        assert!(chain.is_absorbed());
        assert!(chain.step(&mut rng(2)).is_none());
        assert_eq!(chain.steps(), 0);
    }

    #[test]
    fn transition_probabilities_sum_to_one() {
        let model =
            LvModel::with_intraspecific(CompetitionKind::NonSelfDestructive, 1.0, 2.0, 0.5, 0.25);
        let chain = LvJumpChain::new(model, LvConfiguration::new(9, 6));
        let probs = chain.transition_probabilities();
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let absorbed = LvJumpChain::new(model, LvConfiguration::new(0, 0));
        assert_eq!(absorbed.transition_probabilities(), [0.0; 8]);
    }

    #[test]
    fn event_frequencies_match_propensities() {
        // In state (a, b) with unit neutral rates the probability of a
        // competition event is 2·(α/2)·ab/φ = ab/φ.
        let model = LvModel::default();
        let state = LvConfiguration::new(10, 10);
        let phi = model.total_propensity(state);
        let expected_competitive = 100.0 / phi;
        let mut r = rng(3);
        let trials = 50_000;
        let mut competitive = 0u64;
        for _ in 0..trials {
            let mut chain = LvJumpChain::new(model, state);
            if chain.step(&mut r).unwrap().is_competitive() {
                competitive += 1;
            }
        }
        let frac = competitive as f64 / trials as f64;
        assert!(
            (frac - expected_competitive).abs() < 0.01,
            "competitive fraction {frac} expected {expected_competitive}"
        );
    }

    #[test]
    fn step_within_only_fires_selected_reactions() {
        let model = LvModel::default();
        let mut r = rng(4);
        for _ in 0..200 {
            let mut chain = LvJumpChain::new(model, LvConfiguration::new(15, 8));
            // Only birth (index 0) and death (index 1) of species 0.
            let event = chain.step_within(&[0, 1], &mut r).unwrap();
            match event {
                LvEvent::Birth(SpeciesIndex::Zero) | LvEvent::Death(SpeciesIndex::Zero) => {}
                other => panic!("unexpected event {other}"),
            }
        }
    }

    #[test]
    fn step_within_empty_class_returns_none() {
        // No intraspecific competition in the default model, so that class is
        // empty.
        let model = LvModel::default();
        let mut chain = LvJumpChain::new(model, LvConfiguration::new(15, 8));
        assert!(chain.step_within(&[3, 7], &mut rng(5)).is_none());
        assert_eq!(chain.steps(), 0);
    }

    #[test]
    fn self_destructive_competition_preserves_gap() {
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 5.0);
        let mut chain = LvJumpChain::new(model, LvConfiguration::new(500, 480));
        let mut r = rng(6);
        for _ in 0..2_000 {
            let before = chain.state().gap();
            if let Some(event) = chain.step(&mut r) {
                let after = chain.state().gap();
                if event.is_competitive() {
                    assert_eq!(before, after, "competition changed the gap");
                } else {
                    assert_eq!((before - after).abs(), 1);
                }
            }
            if chain.state().is_consensus() {
                break;
            }
        }
    }

    /// The uncompiled selection the table replaced: all eight propensities
    /// of [`LvModel::propensities`], restricted to `indices`, scanned in
    /// order. The compiled routine must draw the same reaction from the
    /// same stream.
    fn reference_step(
        model: &LvModel,
        state: LvConfiguration,
        indices: &[usize],
        rng: &mut StdRng,
    ) -> Option<LvEvent> {
        let propensities = model.propensities(state);
        let total: f64 = indices.iter().map(|&i| propensities[i]).sum();
        if total <= 0.0 {
            return None;
        }
        let target = rng.gen::<f64>() * total;
        let mut acc = 0.0;
        let mut chosen = None;
        for &i in indices {
            let p = propensities[i];
            if p > 0.0 {
                acc += p;
                chosen = Some(i);
                if target < acc {
                    break;
                }
            }
        }
        chosen.map(LvModel::event_for_index)
    }

    fn models() -> Vec<LvModel> {
        use CompetitionKind::*;
        vec![
            LvModel::neutral(SelfDestructive, 1.0, 1.0, 1.0),
            LvModel::neutral(NonSelfDestructive, 1.0, 1.0, 1.0),
            LvModel::with_intraspecific(SelfDestructive, 1.0, 0.5, 1.0, 2.0),
            LvModel::balanced_intra_inter(NonSelfDestructive, 1.0, 1.0, 1.0),
            LvModel::cho_et_al(1.0, 3.0),
            LvModel::no_competition(2.0, 1.0),
            LvModel::intraspecific_only(NonSelfDestructive, 0.5, 1.0, 2.0),
        ]
    }

    #[test]
    fn compiled_selection_matches_the_uncompiled_scan_bit_for_bit() {
        let classes: [&[usize]; 4] = [&[0, 1, 2, 3, 4, 5, 6, 7], &[1, 4], &[2, 6, 7], &[5, 0, 3]];
        for (m, model) in models().into_iter().enumerate() {
            for (a, b) in [(1, 1), (0, 3), (2, 0), (17, 9), (400, 399), (0, 0)] {
                for indices in classes {
                    let state = LvConfiguration::new(a, b);
                    let mut fast = rng(m as u64);
                    let mut slow = rng(m as u64);
                    let mut chain = LvJumpChain::new(model, state);
                    for _ in 0..50 {
                        let expected = reference_step(&model, chain.state(), indices, &mut slow);
                        assert_eq!(chain.step_within(indices, &mut fast), expected);
                    }
                    // Same stream position afterwards: no extra or missing draw.
                    assert_eq!(fast.gen::<u64>(), slow.gen::<u64>());
                }
                let mut chain = LvJumpChain::new(model, LvConfiguration::new(a, b));
                let (mut fast, mut slow) = (rng(m as u64), rng(m as u64));
                for _ in 0..200 {
                    let expected = reference_step(&model, chain.state(), classes[0], &mut slow);
                    assert_eq!(chain.step(&mut fast), expected);
                }
                assert_eq!(fast.gen::<u64>(), slow.gen::<u64>());
            }
        }
    }

    #[test]
    fn transition_probabilities_and_absorption_follow_the_model() {
        for model in models() {
            for (a, b) in [(0, 0), (1, 0), (1, 1), (12, 7), (3, 30)] {
                let state = LvConfiguration::new(a, b);
                let chain = LvJumpChain::new(model, state);
                let propensities = model.propensities(state);
                let total = model.total_propensity(state);
                assert_eq!(chain.is_absorbed(), total <= 0.0);
                let expected = if total <= 0.0 {
                    [0.0; 8]
                } else {
                    propensities.map(|p| p / total)
                };
                assert_eq!(chain.transition_probabilities(), expected);
            }
        }
    }

    /// A plain `step` loop with the guard of `run_to_consensus`.
    fn step_loop(
        model: LvModel,
        start: LvConfiguration,
        budget: u64,
        r: &mut StdRng,
    ) -> LvJumpChain {
        let mut chain = LvJumpChain::new(model, start);
        while chain.steps() < budget && !chain.state().is_consensus() && chain.step(r).is_some() {}
        chain
    }

    /// `run_to_consensus` from `start`; its return value must be the steps.
    fn run(model: LvModel, start: LvConfiguration, budget: u64, r: &mut StdRng) -> LvJumpChain {
        let mut chain = LvJumpChain::new(model, start);
        let events = chain.run_to_consensus(budget, r);
        assert_eq!(events, chain.steps());
        chain
    }

    /// Models with interspecific competition only, which skip competition
    /// runs: neutral SD and NSD, and one of each kind with `β ≠ δ` and
    /// `α_0 ≠ α_1`.
    fn skipping_models() -> [LvModel; 4] {
        use CompetitionKind::*;
        let asymmetric = |kind, beta, delta, alpha| {
            LvModel::new(
                kind,
                LvRates {
                    beta,
                    delta,
                    alpha,
                    gamma: [0.0, 0.0],
                },
            )
        };
        [
            LvModel::neutral(SelfDestructive, 1.0, 1.0, 1.0),
            LvModel::neutral(NonSelfDestructive, 1.0, 1.0, 1.0),
            asymmetric(SelfDestructive, 1.5, 0.5, [0.7, 1.3]),
            asymmetric(NonSelfDestructive, 0.8, 1.2, [1.4, 0.6]),
        ]
    }

    /// The starts of the law tests: a clear majority, a near tie and a
    /// lopsided start, all with both counts large enough to skip runs.
    const STARTS: [(u64, u64); 3] = [(60, 40), (52, 48), (90, 30)];

    /// The two-sample Kolmogorov–Smirnov statistic of two samples.
    fn ks_statistic(mut x: Vec<u64>, mut y: Vec<u64>) -> f64 {
        x.sort_unstable();
        y.sort_unstable();
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < x.len() && j < y.len() {
            let value = x[i].min(y[j]);
            while i < x.len() && x[i] == value {
                i += 1;
            }
            while j < y.len() && y[j] == value {
                j += 1;
            }
            d = d.max((i as f64 / x.len() as f64 - j as f64 / y.len() as f64).abs());
        }
        d
    }

    #[test]
    fn run_to_consensus_matches_a_step_loop() {
        // Without competition runs to skip, the loop is the step loop: the
        // same states on the same draws.
        for model in models() {
            if ReactionTable::compile(&model).skips_competitions() {
                continue;
            }
            for (a, b) in [(60, 40), (25, 25), (10, 0), (0, 0), (3, 200)] {
                for budget in [0, 1, 16, 100_000] {
                    let start = LvConfiguration::new(a, b);
                    let (mut r, mut t) = (rng(9), rng(9));
                    let stepped = step_loop(model, start, budget, &mut r);
                    let tight = run(model, start, budget, &mut t);
                    assert_eq!(tight.state(), stepped.state(), "{model} from {start}");
                    assert_eq!(tight.steps(), stepped.steps(), "{model} from {start}");
                    assert_eq!(t.gen::<u64>(), r.gen::<u64>(), "stream position");
                }
            }
        }
        // With them, the events per trial have the step loop's law: a
        // two-sample KS test at level 1e-6 on 10 000 trials a side.
        let trials = 10_000;
        let critical = (-(0.5e-6f64).ln() / 2.0).sqrt() * (2.0 / trials as f64).sqrt();
        for (m, model) in skipping_models().into_iter().enumerate() {
            for (a, b) in STARTS {
                let start = LvConfiguration::new(a, b);
                let (mut r, mut t) = (rng(100 + m as u64), rng(200 + m as u64));
                let stepped: Vec<u64> = (0..trials)
                    .map(|_| step_loop(model, start, u64::MAX, &mut r).steps())
                    .collect();
                let fast: Vec<u64> = (0..trials)
                    .map(|_| run(model, start, u64::MAX, &mut t).steps())
                    .collect();
                let d = ks_statistic(stepped, fast);
                assert!(
                    d <= critical,
                    "{model} from {start}: KS D = {d:.4} > {critical:.4}"
                );
            }
        }
    }

    #[test]
    fn run_to_consensus_wins_with_the_exact_probability() {
        // ρ_0 from the exact first-step recurrence (cap 3n), against 40 000
        // trials of the kernel per start: |z| ≤ 4, with a continuity
        // correction, since a clear majority under self-destructive
        // competition loses with probability 2·10⁻⁶ from (60, 40) and
        // 10⁻¹⁵ from (90, 30).
        let trials = 40_000u64;
        let check = |m: usize, model: LvModel| {
            let options = crate::exact::SolverOptions {
                cap: 360,
                ..Default::default()
            };
            let exact = crate::exact::solve_absorption(&model, options);
            assert!(exact.converged(), "{model}");
            for (a, b) in STARTS {
                assert!(3 * (a + b) <= options.cap);
                let rho = exact.probability(a, b);
                let start = LvConfiguration::new(a, b);
                let mut r = rng(300 + m as u64);
                let wins = (0..trials)
                    .filter(|_| {
                        run(model, start, u64::MAX, &mut r).state().winner()
                            == Some(SpeciesIndex::Zero)
                    })
                    .count() as f64;
                let n = trials as f64;
                let sd = (n * rho * (1.0 - rho)).sqrt();
                let excess = ((wins - n * rho).abs() - 0.5).max(0.0);
                assert!(
                    excess <= 4.0 * sd,
                    "{model} from {start}: {wins} wins of {trials}, exact ρ = {rho:.6}, z = {:.2}",
                    excess / sd
                );
            }
        };
        // One thread per model: the exact solves dominate a debug run.
        std::thread::scope(|scope| {
            for (m, model) in skipping_models().into_iter().enumerate() {
                scope.spawn(move || check(m, model));
            }
        });
    }

    #[test]
    fn run_to_consensus_honours_the_event_budget_exactly() {
        // Windows never cross the budget: from (60, 40) no 16 events can
        // reach consensus, so exactly 16 fire; a zero budget draws nothing.
        for model in skipping_models() {
            let start = LvConfiguration::new(60, 40);
            for seed in 0..20 {
                let chain = run(model, start, 16, &mut rng(seed));
                assert_eq!(chain.steps(), 16, "{model}");
                let (a, b) = chain.state().counts();
                assert!(a >= 44 && b >= 24, "{model}: {a}, {b}");
            }
            let mut r = rng(1);
            assert_eq!(run(model, start, 0, &mut r).state(), start);
            assert_eq!(r.gen::<u64>(), rng(1).gen::<u64>(), "a zero budget drew");
            for (a, b) in [(10, 0), (0, 0)] {
                let start = LvConfiguration::new(a, b);
                let mut r = rng(2);
                assert_eq!(run(model, start, 100, &mut r).state(), start);
                assert_eq!(
                    r.gen::<u64>(),
                    rng(2).gen::<u64>(),
                    "a consensus start drew"
                );
            }
        }
        // No positive rate: absorbed at once.
        let frozen = LvModel::no_competition(0.0, 0.0);
        let mut chain = LvJumpChain::new(frozen, LvConfiguration::new(5, 5));
        assert_eq!(chain.run_to_consensus(100, &mut rng(1)), 0);
        assert_eq!(chain.state(), LvConfiguration::new(5, 5));
        // No births or deaths: the escape bound is zero and every event is
        // a competition, so SD from (100, 60) ends at (40, 0) in 60 events.
        let duel = LvModel::neutral(CompetitionKind::SelfDestructive, 0.0, 0.0, 1.0);
        let chain = run(duel, LvConfiguration::new(100, 60), u64::MAX, &mut rng(4));
        assert_eq!(chain.state(), LvConfiguration::new(40, 0));
        assert_eq!(chain.steps(), 60);
    }

    #[test]
    fn run_to_consensus_stays_exact_beyond_f64_integers() {
        // Counts above 2^53 are not all representable in f64; the state
        // stays in u64, so every competition is counted exactly.
        let big = 1u64 << 53;
        let start = LvConfiguration::new(big + 10, big);
        for model in skipping_models() {
            let chain = run(model, start, 20, &mut rng(3));
            assert_eq!(chain.steps(), 20);
            let (a, b) = chain.state().counts();
            // An escape has probability below 10⁻¹⁴ per event here.
            match model.kind() {
                CompetitionKind::SelfDestructive => {
                    assert_eq!((a, b), (big - 10, big - 20), "{model}")
                }
                CompetitionKind::NonSelfDestructive => {
                    assert_eq!(a + b, 2 * big + 10 - 20, "{model}")
                }
            }
        }
        // Pure growth has no competition to skip: integer steps.
        let growth = LvModel::no_competition(1.0, 0.0);
        let chain = run(growth, LvConfiguration::new(big, big - 3), 20, &mut rng(2));
        assert_eq!(chain.state().total(), 2 * big - 3 + 20);
    }

    #[test]
    fn serialization_rebuilds_the_compiled_table() {
        let model =
            LvModel::with_intraspecific(CompetitionKind::SelfDestructive, 1.0, 0.5, 1.0, 2.0);
        let mut chain = LvJumpChain::new(model, LvConfiguration::new(30, 20));
        chain.step(&mut rng(3));
        let text = serde::json::to_string(&chain);
        let mut restored: LvJumpChain = serde::json::from_str(&text).unwrap();
        assert_eq!(restored.model(), chain.model());
        assert_eq!((restored.state(), restored.steps()), (chain.state(), 1));
        assert_eq!(restored.step(&mut rng(4)), chain.step(&mut rng(4)));
        assert_eq!(restored.state(), chain.state());
    }
}
