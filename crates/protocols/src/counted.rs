//! Count-based protocol simulation: populations as state → count maps.
//!
//! Every protocol in this crate is *anonymous* with an `O(1)` state space, so
//! a configuration of `n` agents is fully described by one count per state —
//! `O(#states)` memory instead of the `O(n)` agent list of
//! [`ProtocolSimulation`](crate::ProtocolSimulation). On top of that
//! representation this module offers two steppers:
//!
//! * an **exact single-step** mode ([`CountedSimulation::step`]): the
//!   scheduled (initiator, responder) states are drawn directly from the
//!   counts (`P(initiator in s) = c_s/n`,
//!   `P(responder in t | initiator in s) = (c_t − [t = s])/(n−1)`), which is
//!   exactly the distribution the agent-list stepper induces — used for
//!   cross-validation and as the fallback where batches degenerate;
//! * a **batched** mode ([`CountedSimulation::step_epoch`]): one *epoch*
//!   draws a collision-free batch length `ℓ` from the birthday-bound
//!   distribution (`E[ℓ] = Θ(√n)`), picks the `2ℓ` interacting agents by
//!   hypergeometric count splits (without replacement), applies the
//!   protocol's transition function to *count deltas* — the `ℓ` pairs are
//!   disjoint, so their transitions commute — and finishes with the one
//!   colliding interaction drawn exactly from the touched/untouched urns.
//!   The epoch is *equal in distribution* to `ℓ + 1` agent-list steps; only
//!   the RNG stream differs (statistical, not bit-exact, agreement).
//!
//! Protocol rules enter through [`CountedDynamics`], a dense transition
//! table built either from any [`EnumerableProtocol`] (the crate's
//! two-opinion baselines) or directly, as for the `k`-opinion
//! Czyzowicz-style dynamics of [`CountedDynamics::k_opinion_czyzowicz`].

use crate::protocol::{Interaction, Opinion, PopulationProtocol};
use crate::sampling::{
    sample_counts_without_replacement_cached, BatchLengthSampler, CachedHypergeometric,
};
use rand::Rng;
use std::sync::Arc;

/// A [`PopulationProtocol`] whose full state space can be enumerated — the
/// requirement for building the dense transition table of
/// [`CountedDynamics`]. All the crate's baselines have 2–4 states.
pub trait EnumerableProtocol: PopulationProtocol {
    /// The full per-agent state space, in a fixed canonical order. Every
    /// state reachable from [`PopulationProtocol::initial_state`] through
    /// [`PopulationProtocol::transition`] must be listed.
    fn state_space(&self) -> Vec<Self::State>;
}

/// A population protocol compiled to a dense index-level transition table:
/// states are `0..state_count()`, opinions are species indices
/// `0..species_count()`. This is the form the count-based steppers execute —
/// one array lookup per transition, no trait dispatch in the hot loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountedDynamics {
    state_count: usize,
    species: usize,
    /// Row-major `state_count × state_count` table of
    /// `(initiator', responder')` pairs.
    transitions: Vec<(u16, u16)>,
    /// Output species per state (`None` = undecided).
    outputs: Vec<Option<u16>>,
    /// Initial state per input species.
    initial: Vec<u16>,
    /// Whether *every* pair initiated by this state is inert — such rows
    /// need no pairing draws in a batch (their participants pass through
    /// unchanged), e.g. Blank-initiated pairs in approximate majority.
    inert_row: Vec<bool>,
}

impl CountedDynamics {
    /// Compiles a two-opinion [`EnumerableProtocol`] into its transition
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if the state space is empty, exceeds `u16::MAX` states, or a
    /// transition leaves the enumerated space.
    pub fn from_protocol<P: EnumerableProtocol>(protocol: &P) -> CountedDynamics {
        let states = protocol.state_space();
        assert!(!states.is_empty(), "protocols need at least one state");
        assert!(states.len() <= u16::MAX as usize, "state space too large");
        let index_of = |state: &P::State| -> u16 {
            states
                .iter()
                .position(|s| s == state)
                .expect("transition left the enumerated state space") as u16
        };
        let mut transitions = Vec::with_capacity(states.len() * states.len());
        for &initiator in &states {
            for &responder in &states {
                let (i_after, r_after) = protocol.transition(initiator, responder);
                transitions.push((index_of(&i_after), index_of(&r_after)));
            }
        }
        let outputs = states
            .iter()
            .map(|&s| {
                protocol.output(s).map(|o| match o {
                    Opinion::A => 0u16,
                    Opinion::B => 1u16,
                })
            })
            .collect();
        let initial = vec![
            index_of(&protocol.initial_state(Opinion::A)),
            index_of(&protocol.initial_state(Opinion::B)),
        ];
        let inert_row = inert_rows(states.len(), &transitions);
        CountedDynamics {
            state_count: states.len(),
            species: 2,
            transitions,
            outputs,
            initial,
            inert_row,
        }
    }

    /// The `k`-opinion generalisation of the Czyzowicz et al. discrete
    /// Lotka–Volterra dynamics: one state per opinion, and an initiator of a
    /// different opinion converts the responder
    /// (`(i, j) → (i, i)` for `i ≠ j`). Every state outputs its own opinion.
    ///
    /// On a static population each pairwise conversion is an unbiased step
    /// in the pair's counts, so species `i` wins the plurality contest with
    /// probability exactly `cᵢ/n` — the `k`-species proportional law.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > u16::MAX`.
    pub fn k_opinion_czyzowicz(k: usize) -> CountedDynamics {
        assert!(k >= 2, "the k-opinion dynamics need at least two opinions");
        assert!(k <= u16::MAX as usize, "too many opinions");
        let mut transitions = Vec::with_capacity(k * k);
        for i in 0..k as u16 {
            for j in 0..k as u16 {
                transitions.push(if i == j { (i, j) } else { (i, i) });
            }
        }
        let inert_row = inert_rows(k, &transitions);
        CountedDynamics {
            state_count: k,
            species: k,
            transitions,
            outputs: (0..k as u16).map(Some).collect(),
            initial: (0..k as u16).collect(),
            inert_row,
        }
    }

    /// Number of per-agent states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Number of input species / output opinions.
    pub fn species_count(&self) -> usize {
        self.species
    }

    /// The joint transition on state indices.
    #[inline]
    pub fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        let (i, r) = self.transitions[initiator * self.state_count + responder];
        (i as usize, r as usize)
    }

    /// The output species of a state (`None` = undecided).
    #[inline]
    pub fn output(&self, state: usize) -> Option<usize> {
        self.outputs[state].map(|s| s as usize)
    }

    /// The initial state of an agent of the given input species.
    pub fn initial_state(&self, species: usize) -> usize {
        self.initial[species] as usize
    }

    /// Whether the ordered pair `(initiator, responder)` leaves both states
    /// unchanged.
    #[inline]
    pub fn is_inert(&self, initiator: usize, responder: usize) -> bool {
        self.transitions[initiator * self.state_count + responder]
            == (initiator as u16, responder as u16)
    }
}

/// Rows of the transition table where every pair is inert.
fn inert_rows(state_count: usize, transitions: &[(u16, u16)]) -> Vec<bool> {
    (0..state_count)
        .map(|s| (0..state_count).all(|t| transitions[s * state_count + t] == (s as u16, t as u16)))
        .collect()
}

/// Picks the category of the `target`-th agent in a count vector
/// (`target < Σ counts`).
fn pick_weighted(counts: &[u64], mut target: u64) -> usize {
    for (index, &count) in counts.iter().enumerate() {
        if target < count {
            return index;
        }
        target -= count;
    }
    unreachable!("target index beyond the total count")
}

/// A count-based protocol simulation under the uniformly random pairwise
/// scheduler: `O(#states)` memory, with exact single-step and batched epoch
/// stepping (see the [module docs](self)).
///
/// ```
/// use lv_protocols::{ApproximateMajority, CountedDynamics, CountedSimulation};
/// use rand::SeedableRng;
///
/// let dynamics = CountedDynamics::from_protocol(&ApproximateMajority::new());
/// // 600 opinion-A agents, 400 opinion-B agents.
/// let mut sim = CountedSimulation::new(&dynamics, &[600, 400]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// while !sim.is_absorbed() {
///     sim.step_epoch(&mut rng, u64::MAX);
/// }
/// let opinions = sim.opinion_counts();
/// assert!(opinions[0] == 1_000 || opinions[1] == 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct CountedSimulation<'a> {
    dynamics: &'a CountedDynamics,
    /// Agents per state.
    counts: Vec<u64>,
    total: u64,
    interactions: u64,
    // Scratch buffers so an epoch never allocates.
    drawn: Vec<u64>,
    initiators: Vec<u64>,
    responders: Vec<u64>,
    row: Vec<u64>,
    touched: Vec<u64>,
    /// Prepared hypergeometric samplers, one slot per draw site of the
    /// epoch's count-split chains: slots `0..k` split the population,
    /// `k..2k` split the participants into initiators, and
    /// `(2+i)·k..(3+i)·k` pair initiator state `i`'s responders. Between
    /// consecutive epochs the urns a site sees often repeat (counts move by
    /// `O(√n)` out of `n`), and even on a miss the rebuilt rejection-sampler
    /// setup is `O(1)` — this is what turns the epoch's ~10 draws into
    /// constant-time work.
    hyper_slots: Vec<CachedHypergeometric>,
    /// Cached batch-length inverse-transform table, shared process-wide
    /// through [`BatchLengthSampler::shared`] — a sweep runs millions of
    /// trials at one population size and must not rebuild the `O(√n)` table
    /// per trial. Protocol transitions conserve agents, so one table serves
    /// the whole run (re-fetched lazily if the population ever changed).
    batch_lengths: Option<Arc<BatchLengthSampler>>,
}

impl<'a> CountedSimulation<'a> {
    /// Creates a simulation with `species_counts[i]` agents of input species
    /// `i` (each starting in `dynamics.initial_state(i)`).
    ///
    /// # Panics
    ///
    /// Panics if the species count mismatches the dynamics.
    pub fn new(dynamics: &'a CountedDynamics, species_counts: &[u64]) -> Self {
        assert_eq!(
            species_counts.len(),
            dynamics.species_count(),
            "one count per input species"
        );
        let mut counts = vec![0u64; dynamics.state_count()];
        for (species, &count) in species_counts.iter().enumerate() {
            counts[dynamics.initial_state(species)] += count;
        }
        let total = counts.iter().sum();
        let k = dynamics.state_count();
        CountedSimulation {
            dynamics,
            counts,
            total,
            interactions: 0,
            drawn: vec![0; k],
            initiators: vec![0; k],
            responders: vec![0; k],
            row: vec![0; k],
            touched: vec![0; k],
            hyper_slots: vec![CachedHypergeometric::new(); (2 + k) * k],
            batch_lengths: None,
        }
    }

    /// The per-state agent counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of agents.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of interactions performed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Writes the per-species committed-opinion counts into `out`
    /// (undecided agents are in no count). `O(#states)`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != species_count()`.
    pub fn opinion_counts_into(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.dynamics.species_count());
        out.fill(0);
        for (state, &count) in self.counts.iter().enumerate() {
            if let Some(species) = self.dynamics.output(state) {
                out[species] += count;
            }
        }
    }

    /// The per-species committed-opinion counts (allocating convenience for
    /// [`CountedSimulation::opinion_counts_into`]).
    pub fn opinion_counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.dynamics.species_count()];
        self.opinion_counts_into(&mut out);
        out
    }

    /// Whether the configuration is *absorbed*: no schedulable ordered pair
    /// of distinct agents can change any state. `O(#states²)` — this is the
    /// count-level replacement for the `O(n)` convergence scans of the
    /// agent-list path, and it subsumes the protocol-specific absorption
    /// monitors (committed consensus, exhausted strong tokens, …).
    pub fn is_absorbed(&self) -> bool {
        let k = self.dynamics.state_count();
        for initiator in 0..k {
            if self.counts[initiator] == 0 {
                continue;
            }
            for responder in 0..k {
                let schedulable = if responder == initiator {
                    self.counts[initiator] >= 2
                } else {
                    self.counts[responder] > 0
                };
                if schedulable && !self.dynamics.is_inert(initiator, responder) {
                    return false;
                }
            }
        }
        true
    }

    /// The consensus opinion, if every agent outputs the same species (and
    /// none is undecided).
    pub fn decision(&self) -> Option<usize> {
        let mut consensus = None;
        for (state, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            match (self.dynamics.output(state), consensus) {
                (None, _) => return None,
                (Some(species), None) => consensus = Some(species),
                (Some(species), Some(current)) if species != current => return None,
                _ => {}
            }
        }
        consensus
    }

    /// Schedules one uniformly random ordered pair of distinct agents and
    /// applies the transition — exactly the agent-list stepper's
    /// distribution, in `O(#states)` per interaction.
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than two.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Interaction<usize> {
        assert!(self.total >= 2, "pairwise scheduling needs two agents");
        let initiator = pick_weighted(&self.counts, rng.gen_range(0..self.total));
        self.counts[initiator] -= 1;
        let responder = pick_weighted(&self.counts, rng.gen_range(0..self.total - 1));
        self.counts[responder] -= 1;
        let (i_after, r_after) = self.dynamics.transition(initiator, responder);
        self.counts[i_after] += 1;
        self.counts[r_after] += 1;
        self.interactions += 1;
        Interaction {
            initiator_before: initiator,
            responder_before: responder,
            initiator_after: i_after,
            responder_after: r_after,
        }
    }

    /// Runs one batched epoch: a collision-free batch of `ℓ` interactions
    /// applied as count deltas plus the one colliding interaction that ends
    /// the epoch, for `ℓ + 1` interactions total — equal in distribution to
    /// `ℓ + 1` calls of [`CountedSimulation::step`].
    ///
    /// Returns the number of interactions performed, or `None` without
    /// touching any state when the sampled epoch would exceed
    /// `max_interactions` — the caller should then fall back to single
    /// stepping (the run ends within the cap either way, so the discarded
    /// draw introduces no bias into the truncated prefix).
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than two or
    /// `max_interactions == 0`.
    pub fn step_epoch<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        max_interactions: u64,
    ) -> Option<u64> {
        assert!(self.total >= 2, "pairwise scheduling needs two agents");
        assert!(max_interactions >= 1, "an epoch performs interactions");
        let n = self.total;
        if self
            .batch_lengths
            .as_ref()
            .is_none_or(|sampler| sampler.population() != n)
        {
            self.batch_lengths = Some(BatchLengthSampler::shared(n));
        }
        let len = self
            .batch_lengths
            .as_ref()
            .expect("just installed")
            .sample(rng);
        if len > max_interactions - 1 {
            return None;
        }
        let k = self.dynamics.state_count();
        // The 2ℓ distinct participants, by state, removed from the urn.
        sample_counts_without_replacement_cached(
            rng,
            &self.counts,
            2 * len,
            &mut self.drawn,
            &mut self.hyper_slots[..k],
        );
        for state in 0..k {
            self.counts[state] -= self.drawn[state];
        }
        // A uniformly random half of the participants initiate; the pairing
        // between initiator and responder multisets is a uniform bijection,
        // realised as per-initiator-state hypergeometric splits over the
        // remaining responder pool.
        sample_counts_without_replacement_cached(
            rng,
            &self.drawn,
            len,
            &mut self.initiators,
            &mut self.hyper_slots[k..2 * k],
        );
        for state in 0..k {
            self.responders[state] = self.drawn[state] - self.initiators[state];
        }
        self.touched.fill(0);
        // Reactive rows first (the hypergeometric row conditionals are
        // exchangeable, so processing order is free); fully inert rows need
        // no pairing draws at all — their initiators and whatever responders
        // remain afterwards pass through unchanged.
        for initiator in 0..k {
            let matches = self.initiators[initiator];
            if matches == 0 || self.dynamics.inert_row[initiator] {
                continue;
            }
            sample_counts_without_replacement_cached(
                rng,
                &self.responders,
                matches,
                &mut self.row,
                &mut self.hyper_slots[(2 + initiator) * k..(3 + initiator) * k],
            );
            for responder in 0..k {
                let fired = self.row[responder];
                if fired == 0 {
                    continue;
                }
                self.responders[responder] -= fired;
                let (i_after, r_after) = self.dynamics.transition(initiator, responder);
                self.touched[i_after] += fired;
                self.touched[r_after] += fired;
            }
        }
        for state in 0..k {
            if self.dynamics.inert_row[state] {
                self.touched[state] += self.initiators[state];
            }
            // Responders not consumed by a reactive row were matched to
            // inert initiators: unchanged.
            self.touched[state] += self.responders[state];
            self.responders[state] = 0;
        }
        // The colliding interaction: an ordered pair of distinct agents
        // conditioned on *not* being two untouched agents, drawn exactly
        // from the touched (post-transition) and untouched urns.
        let touched_total = 2 * len;
        let untouched_total = n - touched_total;
        let weight_tt = touched_total * (touched_total - 1);
        let weight_tu = touched_total * untouched_total;
        let pick = rng.gen_range(0..weight_tt + 2 * weight_tu);
        let (initiator_touched, responder_touched) = if pick < weight_tt {
            (true, true)
        } else if pick < weight_tt + weight_tu {
            (true, false)
        } else {
            (false, true)
        };
        let initiator = self.remove_one(rng, initiator_touched);
        let responder = self.remove_one(rng, responder_touched);
        let (i_after, r_after) = self.dynamics.transition(initiator, responder);
        self.touched[i_after] += 1;
        self.touched[r_after] += 1;
        // Merge the touched agents back into the population.
        for state in 0..k {
            self.counts[state] += self.touched[state];
        }
        debug_assert_eq!(self.counts.iter().sum::<u64>(), n, "agents conserved");
        self.interactions += len + 1;
        Some(len + 1)
    }

    /// Removes one uniformly random agent from the touched urn (`true`) or
    /// the untouched urn (`false`) and returns its state.
    fn remove_one<R: Rng + ?Sized>(&mut self, rng: &mut R, touched: bool) -> usize {
        let urn = if touched {
            &mut self.touched
        } else {
            &mut self.counts
        };
        let total: u64 = urn.iter().sum();
        let state = pick_weighted(urn, rng.gen_range(0..total));
        urn[state] -= 1;
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApproximateMajority, CzyzowiczLvProtocol, ExactMajority4State};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn dynamics_compile_the_approximate_majority_table() {
        let d = CountedDynamics::from_protocol(&ApproximateMajority::new());
        assert_eq!(d.state_count(), 3);
        assert_eq!(d.species_count(), 2);
        // States are in state_space order: [A, B, Blank].
        assert_eq!(d.output(0), Some(0));
        assert_eq!(d.output(1), Some(1));
        assert_eq!(d.output(2), None);
        assert_eq!(d.initial_state(0), 0);
        assert_eq!(d.initial_state(1), 1);
        // (A, B) → (A, Blank); (A, Blank) → (A, A); (A, A) inert.
        assert_eq!(d.transition(0, 1), (0, 2));
        assert_eq!(d.transition(0, 2), (0, 0));
        assert!(d.is_inert(0, 0));
        assert!(!d.is_inert(0, 1));
    }

    #[test]
    fn k_opinion_czyzowicz_converts_the_responder() {
        let d = CountedDynamics::k_opinion_czyzowicz(4);
        assert_eq!(d.state_count(), 4);
        assert_eq!(d.species_count(), 4);
        for i in 0..4 {
            assert_eq!(d.output(i), Some(i));
            for j in 0..4 {
                if i == j {
                    assert!(d.is_inert(i, j));
                } else {
                    assert_eq!(d.transition(i, j), (i, i));
                }
            }
        }
    }

    #[test]
    fn k2_czyzowicz_matches_the_two_opinion_protocol_table() {
        let generic = CountedDynamics::k_opinion_czyzowicz(2);
        let compiled = CountedDynamics::from_protocol(&CzyzowiczLvProtocol::new());
        assert_eq!(generic, compiled);
    }

    #[test]
    fn single_steps_conserve_agents_and_count_interactions() {
        let d = CountedDynamics::from_protocol(&ApproximateMajority::new());
        let mut sim = CountedSimulation::new(&d, &[30, 20]);
        assert_eq!(sim.total(), 50);
        let mut r = rng(1);
        for _ in 0..500 {
            sim.step(&mut r);
            assert_eq!(sim.counts().iter().sum::<u64>(), 50);
        }
        assert_eq!(sim.interactions(), 500);
        let opinions = sim.opinion_counts();
        assert!(opinions[0] + opinions[1] <= 50);
    }

    #[test]
    fn batched_epochs_conserve_agents_and_reach_consensus() {
        let d = CountedDynamics::from_protocol(&ApproximateMajority::new());
        let mut sim = CountedSimulation::new(&d, &[700, 300]);
        let mut r = rng(2);
        while !sim.is_absorbed() {
            let fired = sim.step_epoch(&mut r, u64::MAX).expect("no cap");
            assert!(fired >= 2, "an epoch is at least one pair plus collision");
            assert_eq!(sim.counts().iter().sum::<u64>(), 1_000);
        }
        assert!(sim.decision().is_some());
        let opinions = sim.opinion_counts();
        assert!(opinions[0] == 1_000 || opinions[1] == 1_000, "{opinions:?}");
    }

    #[test]
    fn absorbed_detects_exact_majority_weak_deadlock() {
        let d = CountedDynamics::from_protocol(&ExactMajority4State::new());
        // state_space order: [StrongA, StrongB, WeakA, WeakB].
        let mut sim = CountedSimulation::new(&d, &[1, 1]);
        // Hand-build the all-weak mixed configuration through a cancellation:
        // (StrongA, StrongB) → (WeakA, WeakB).
        let mut r = rng(3);
        while !sim.is_absorbed() {
            sim.step(&mut r);
        }
        let opinions = sim.opinion_counts();
        assert_eq!(opinions[0] + opinions[1], 2, "agents never disappear");
        assert_eq!(sim.decision(), None, "a tie deadlocks without consensus");
    }

    #[test]
    fn epoch_cap_defers_to_single_stepping() {
        let d = CountedDynamics::from_protocol(&CzyzowiczLvProtocol::new());
        let mut sim = CountedSimulation::new(&d, &[600, 400]);
        let mut r = rng(4);
        // A cap of 1 can never fit an epoch (ℓ + 1 ≥ 2).
        assert_eq!(sim.step_epoch(&mut r, 1), None);
        assert_eq!(sim.interactions(), 0, "a refused epoch must not step");
        assert_eq!(sim.counts().iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn decision_requires_full_output_consensus() {
        let d = CountedDynamics::from_protocol(&ApproximateMajority::new());
        let sim = CountedSimulation::new(&d, &[5, 0]);
        assert_eq!(sim.decision(), Some(0));
        let sim = CountedSimulation::new(&d, &[5, 3]);
        assert_eq!(sim.decision(), None);
    }

    #[test]
    #[should_panic(expected = "one count per input species")]
    fn mismatched_species_counts_are_rejected() {
        let d = CountedDynamics::from_protocol(&ApproximateMajority::new());
        let _ = CountedSimulation::new(&d, &[5, 3, 2]);
    }
}
