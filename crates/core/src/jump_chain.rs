use crate::config::LvConfiguration;
use crate::events::LvEvent;
use crate::model::{propensity, LvModel};
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
/// per event: perf-snapshot's `jump_chain_skipped_slots_vs_all_slots`.
const INTERSPECIFIC_SLOTS: [usize; 6] = [0, 1, 2, 4, 5, 6];

/// Counts below this are exact in `f64`, so the tight loop can keep the
/// state in floating point and skip the integer-to-float conversions and
/// the event decoding of [`LvJumpChain::step`]: perf-snapshot's
/// `jump_chain_tight_loop_vs_step_loop`.
const EXACT_COUNTS: f64 = (1u64 << f64::MANTISSA_DIGITS) as f64;

/// The model compiled once per chain: each reaction's rate, event and
/// `(Δx_0, Δx_1)` delta in [`LvModel::propensities`] order, and whether any
/// intraspecific reaction has positive rate.
#[derive(Debug, Clone, Copy)]
struct ReactionTable {
    rates: [f64; REACTIONS],
    deltas: [(f64, f64); REACTIONS],
    events: [LvEvent; REACTIONS],
    intraspecific: bool,
}

impl ReactionTable {
    fn compile(model: &LvModel) -> Self {
        let events: [LvEvent; REACTIONS] = ALL_SLOTS.map(LvModel::event_for_index);
        ReactionTable {
            rates: model.slot_rates(),
            deltas: events.map(|event| {
                let (d0, d1) = event.delta(model.kind());
                (d0 as f64, d1 as f64)
            }),
            events,
            intraspecific: !model.rates().has_no_intraspecific(),
        }
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
/// reaction rates and `(Δx_0, Δx_1)` deltas, leaving out the intraspecific
/// reactions when their rate is zero. Every draw — [`step`](LvJumpChain::step),
/// the class-conditioned steps of the pseudo-coupling, and
/// [`run_to_consensus`](LvJumpChain::run_to_consensus) — goes through one
/// selection routine over that table: the left fold of the propensities in
/// [`LvModel::propensities`] order and a walk of its running prefix sums.
/// So all of them consume the RNG stream identically, and
/// `run_to_consensus` visits exactly the states of a loop of `step` calls,
/// only without a per-event callback (and with the state held in `f64`,
/// exact below 2^53 individuals).
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
/// // The same run without a per-event loop in the caller.
/// let mut tight = LvJumpChain::new(model, (80, 20).into());
/// let events = tight.run_to_consensus(u64::MAX, &mut rand::rngs::StdRng::seed_from_u64(5));
/// assert_eq!((tight.state(), events), (chain.state(), chain.steps()));
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
    fn to_value(&self) -> serde::Value {
        PersistedChain {
            model: self.model,
            state: self.state,
            steps: self.steps,
        }
        .to_value()
    }
}

impl<'de> Deserialize<'de> for LvJumpChain {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let persisted = PersistedChain::from_value(value)?;
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
        // Constant slot lists, as in `run_to_consensus`.
        if self.table.intraspecific {
            self.step_within(&ALL_SLOTS, rng)
        } else {
            self.step_within(&INTERSPECIFIC_SLOTS, rng)
        }
    }

    /// Steps until some species is extinct, the chain is absorbed, or
    /// `max_events` events have fired, whichever comes first, and returns
    /// the number of events fired. Nothing is checked or recorded per event
    /// beyond the state itself.
    ///
    /// On the same RNG stream this visits exactly the states of calling
    /// [`step`](LvJumpChain::step) in a loop guarded by
    /// `!state().is_consensus()` and the event budget: the budget and
    /// extinction are checked before each draw, so a start at consensus or
    /// a zero budget fires nothing and draws nothing.
    pub fn run_to_consensus<R: Rng + ?Sized>(&mut self, max_events: u64, rng: &mut R) -> u64 {
        // Each branch hands the loop a constant slot list, so the compiler
        // evaluates the propensities without a table walk.
        let mut events = if self.table.intraspecific {
            self.run_exact_f64(&ALL_SLOTS, max_events, rng)
        } else {
            self.run_exact_f64(&INTERSPECIFIC_SLOTS, max_events, rng)
        };
        // Populations of 2^53 and more continue on exact integer steps.
        while events < max_events && !self.state.is_consensus() && self.step(rng).is_some() {
            events += 1;
        }
        events
    }

    /// The body of [`run_to_consensus`](LvJumpChain::run_to_consensus)
    /// while the total population is below [`EXACT_COUNTS`], with the state
    /// held in `f64`, where every count and delta is exact.
    #[inline(always)]
    fn run_exact_f64<R: Rng + ?Sized>(
        &mut self,
        slots: &[usize],
        max_events: u64,
        rng: &mut R,
    ) -> u64 {
        let (x0, x1) = self.state.counts();
        if x0.saturating_add(x1) >= EXACT_COUNTS as u64 {
            return 0;
        }
        let (mut y0, mut y1) = (x0 as f64, x1 as f64);
        let mut events = 0;
        while events < max_events && y0 != 0.0 && y1 != 0.0 && y0 + y1 < EXACT_COUNTS {
            let Some(slot) = self.table.choose(slots, y0, y1, rng) else {
                break;
            };
            let (d0, d1) = self.table.deltas[slot];
            y0 += d0;
            y1 += d1;
            events += 1;
        }
        self.state = LvConfiguration::new(y0 as u64, y1 as u64);
        self.steps += events;
        events
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
    use crate::rates::{CompetitionKind, SpeciesIndex};
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

    /// The tight loop against a plain `step` loop with the same guard.
    fn assert_run_matches_step_loop(model: LvModel, start: LvConfiguration, budget: u64) {
        let mut stepped = LvJumpChain::new(model, start);
        let mut r = rng(9);
        while stepped.steps() < budget
            && !stepped.state().is_consensus()
            && stepped.step(&mut r).is_some()
        {}
        let mut tight = LvJumpChain::new(model, start);
        let mut t = rng(9);
        let events = tight.run_to_consensus(budget, &mut t);
        assert_eq!(tight.state(), stepped.state(), "{model} from {start}");
        assert_eq!((events, tight.steps()), (stepped.steps(), stepped.steps()));
        assert_eq!(t.gen::<u64>(), r.gen::<u64>(), "stream position");
    }

    #[test]
    fn run_to_consensus_matches_a_step_loop() {
        for model in models() {
            for (a, b) in [(60, 40), (25, 25), (10, 0), (0, 0), (3, 200)] {
                for budget in [0, 1, 16, 100_000] {
                    assert_run_matches_step_loop(model, LvConfiguration::new(a, b), budget);
                }
            }
        }
        // No positive rate: absorbed at once.
        let frozen = LvModel::no_competition(0.0, 0.0);
        let mut chain = LvJumpChain::new(frozen, LvConfiguration::new(5, 5));
        assert_eq!(chain.run_to_consensus(100, &mut rng(1)), 0);
        assert_eq!(chain.state(), LvConfiguration::new(5, 5));
    }

    #[test]
    fn run_to_consensus_stays_exact_beyond_f64_integers() {
        // Pure growth from just below 2^53 crosses into the range where f64
        // no longer holds every count; the loop hands over to integer steps.
        let growth = LvModel::no_competition(1.0, 0.0);
        let edge = 1u64 << 52;
        assert_run_matches_step_loop(growth, LvConfiguration::new(edge, edge - 3), 20);
        assert_run_matches_step_loop(growth, LvConfiguration::new(1 << 60, 1 << 60), 20);
        let mut chain = LvJumpChain::new(growth, LvConfiguration::new(edge, edge - 3));
        chain.run_to_consensus(20, &mut rng(2));
        assert_eq!(chain.state().total(), 2 * edge - 3 + 20);
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
