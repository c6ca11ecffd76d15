//! Count-based protocol simulation: populations as state → count maps.
//!
//! Every protocol in this crate is *anonymous* with an `O(1)` state space, so
//! a configuration of `n` agents is fully described by one count per state —
//! `O(#states)` memory instead of the `O(n)` agent list of
//! [`ProtocolSimulation`](crate::ProtocolSimulation). On top of that
//! representation this module offers three steppers:
//!
//! * an **exact single-step** mode ([`CountedSimulation::step`]): the
//!   scheduled (initiator, responder) states are drawn directly from the
//!   counts (`P(initiator in s) = c_s/n`,
//!   `P(responder in t | initiator in s) = (c_t − [t = s])/(n−1)`), which is
//!   exactly the distribution the agent-list stepper induces — the
//!   reference the other two are cross-validated against;
//! * a **batched** mode ([`CountedSimulation::step_epoch`]): one *epoch*
//!   draws a collision-free batch length `ℓ` from the birthday-bound
//!   distribution (`E[ℓ] = Θ(√n)`), picks the `2ℓ` interacting agents by
//!   hypergeometric count splits (without replacement), applies the
//!   protocol's transition function to *count deltas* — the `ℓ` pairs are
//!   disjoint, so their transitions commute — and finishes with the one
//!   colliding interaction drawn exactly from the touched/untouched urns.
//!   The epoch is *equal in distribution* to `ℓ + 1` agent-list steps; only
//!   the RNG stream differs (statistical, not bit-exact, agreement);
//! * exact **thinning windows** ([`CountedSimulation::step_window`]), which
//!   skip the inert interactions instead of simulating them: a window
//!   bounds the productive ordered-pair weight `W = Σ cᵢ(cⱼ − [i = j])`
//!   over the reactive pairs by `W̄`, draws only *candidates* (one exact
//!   uniform draw below `W̄` each, productive with probability `W/W̄`, the
//!   pair picked in proportion to its weight) and charges the interactions
//!   between them in one negative binomial draw. A window costs `O(1)` per
//!   candidate and `W̄/(n(n−1))` candidates per interaction, so it beats
//!   an epoch wherever few pairs react — near consensus, and at every stage
//!   of a run at small `n`. The counted backends choose between the two
//!   before every step by an expected-cost rule.
//!
//! Protocol rules enter through [`CountedDynamics`], a dense transition
//! table built either from any [`EnumerableProtocol`] (the crate's
//! two-opinion baselines) or directly, as for the `k`-opinion
//! Czyzowicz-style dynamics of [`CountedDynamics::k_opinion_czyzowicz`].

use crate::bridge::{uniform_below, WINDOW_LOG};
use crate::protocol::{Interaction, Opinion, PopulationProtocol};
use crate::sampling::{
    sample_counts_without_replacement_cached, sample_hypergeometric, BatchLengthSampler,
    CachedHypergeometric,
};
use lv_crn::distributions::sample_negative_binomial;
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
    /// The reactive ordered pairs, in row-major table order: the pairs a
    /// thinning window draws.
    reactions: Vec<Reaction>,
    /// Row-major `(reactions + 1) × state_count` wrapping per-state count
    /// changes of each reactive pair, then a zero row for an inert
    /// candidate.
    deltas: Vec<u64>,
    /// The [`Compiled`] code of the reactive pairs, when they fit one.
    pair_code: Option<u64>,
}

/// One reactive ordered pair of a transition table: at least one of the two
/// states changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reaction {
    initiator: u16,
    responder: u16,
    initiator_after: u16,
    responder_after: u16,
}

impl Reaction {
    fn interaction(self) -> Interaction<usize> {
        Interaction {
            initiator_before: self.initiator as usize,
            responder_before: self.responder as usize,
            initiator_after: self.initiator_after as usize,
            responder_after: self.responder_after as usize,
        }
    }
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
        let reactions = reactions(states.len(), &transitions);
        let (deltas, pair_code) = window_tables(states.len(), &reactions);
        CountedDynamics {
            state_count: states.len(),
            species: 2,
            transitions,
            outputs,
            initial,
            inert_row,
            reactions,
            deltas,
            pair_code,
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
        let reactions = reactions(k, &transitions);
        let (deltas, pair_code) = window_tables(k, &reactions);
        CountedDynamics {
            state_count: k,
            species: k,
            transitions,
            outputs: (0..k as u16).map(Some).collect(),
            initial: (0..k as u16).collect(),
            inert_row,
            reactions,
            deltas,
            pair_code,
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

/// The thinning windows' tables of a list of reactive pairs: the
/// per-slot count changes (see `CountedDynamics::deltas`) and the
/// [`Compiled`] code, if every state index fits a nibble and every pair a
/// byte of it.
fn window_tables(state_count: usize, reactions: &[Reaction]) -> (Vec<u64>, Option<u64>) {
    let mut deltas = vec![0u64; (reactions.len() + 1) * state_count];
    for (slot, reaction) in reactions.iter().enumerate() {
        let row = &mut deltas[slot * state_count..(slot + 1) * state_count];
        for (state, step) in [
            (reaction.initiator, u64::MAX),
            (reaction.responder, u64::MAX),
            (reaction.initiator_after, 1),
            (reaction.responder_after, 1),
        ] {
            row[state as usize] = row[state as usize].wrapping_add(step);
        }
    }
    let pairs: Vec<(u64, u64)> = reactions
        .iter()
        .map(|r| (r.initiator as u64, r.responder as u64))
        .collect();
    let code = (state_count <= 16 && pairs.len() <= 8).then(|| pair_code(&pairs));
    (deltas, code)
}

/// The reactive ordered pairs of a transition table, row-major.
fn reactions(state_count: usize, transitions: &[(u16, u16)]) -> Vec<Reaction> {
    let mut reactions = Vec::new();
    for initiator in 0..state_count as u16 {
        for responder in 0..state_count as u16 {
            let (initiator_after, responder_after) =
                transitions[initiator as usize * state_count + responder as usize];
            if (initiator_after, responder_after) != (initiator, responder) {
                reactions.push(Reaction {
                    initiator,
                    responder,
                    initiator_after,
                    responder_after,
                });
            }
        }
    }
    reactions
}

/// The reactive pairs of a candidate loop: the dynamics' own list, or a
/// [`Compiled`] copy of it.
trait ReactionTable: Copy {
    /// The initiator and responder states of reactive pair `slot`.
    fn pair(self, slot: usize) -> (usize, usize);
}

impl ReactionTable for &[Reaction] {
    #[inline(always)]
    fn pair(self, slot: usize) -> (usize, usize) {
        (self[slot].initiator as usize, self[slot].responder as usize)
    }
}

/// A reaction table fixed at compile time: `R` pairs, pair `r`'s initiator
/// and responder states in the low and high nibble of byte `r` of `CODE`.
/// Every count index in the candidate loop is then a constant, so the
/// counts stay in registers instead of making each candidate wait on a
/// store and a reload.
#[derive(Debug, Clone, Copy)]
struct Compiled<const CODE: u64, const R: usize>;

impl<const CODE: u64, const R: usize> ReactionTable for Compiled<CODE, R> {
    #[inline(always)]
    fn pair(self, slot: usize) -> (usize, usize) {
        let byte = CODE >> (8 * slot);
        ((byte & 0xF) as usize, (byte >> 4 & 0xF) as usize)
    }
}

/// The [`Compiled`] code of a list of `(initiator, responder)` pairs.
const fn pair_code(pairs: &[(u64, u64)]) -> u64 {
    let mut code = 0;
    let mut slot = 0;
    while slot < pairs.len() {
        code |= (pairs[slot].0 | pairs[slot].1 << 4) << (8 * slot);
        slot += 1;
    }
    code
}

/// Approximate majority over `[A, B, Blank]`: `(A, B)`, `(A, Blank)`,
/// `(B, A)`, `(B, Blank)`.
const APPROXIMATE_MAJORITY: u64 = pair_code(&[(0, 1), (0, 2), (1, 0), (1, 2)]);
/// Exact majority over `[StrongA, StrongB, WeakA, WeakB]`: the two
/// cancellations and the four recruitments of a weak agent.
const EXACT_MAJORITY: u64 = pair_code(&[(0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (3, 0)]);
/// Annihilation over `[A, B, Dead]`: `(A, B)` and `(B, A)`.
const ANNIHILATION: u64 = pair_code(&[(0, 1), (1, 0)]);

/// The ordered pairs of distinct agents in states `(i, j)`,
/// `cᵢ(cⱼ − [i = j])`.
#[inline(always)]
fn pair_weight(counts: &[u64], (i, j): (usize, usize)) -> u64 {
    // At cᵢ = cⱼ = 0 the wrapped factor is multiplied by zero.
    counts[i] * counts[j].wrapping_sub((i == j) as u64)
}

/// Writes the cumulative weights of the reactive pairs into `prefix` and
/// returns their total, the productive ordered-pair weight
/// `W = Σ cᵢ(cⱼ − [i = j])`: the number of ordered pairs of distinct agents
/// whose interaction changes a state.
#[inline(always)]
fn fill_prefix<T: ReactionTable>(table: T, counts: &[u64], prefix: &mut [u64]) -> u64 {
    let mut end = 0u64;
    for (slot, cumulative) in prefix.iter_mut().enumerate() {
        end += pair_weight(counts, table.pair(slot));
        *cumulative = end;
    }
    end
}

/// The candidate loop of a thinning window (see
/// [`CountedSimulation::step_window`]): logs each candidate's slot, a
/// reactive pair or one past the last for an inert one, and applies the
/// productive ones to `counts` through the `deltas` rows (`K` wrapping
/// per-state changes per slot, the inert row zero).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn candidate_loop<Rn: Rng + ?Sized, T: ReactionTable>(
    rng: &mut Rn,
    table: T,
    counts: &mut [u64],
    prefix: &mut [u64],
    deltas: &[u64],
    log: &mut Vec<u32>,
    bound: u64,
    zone: u64,
) {
    let k = counts.len();
    fill_prefix(table, counts, prefix);
    while log.len() < WINDOW_LOG {
        let u = uniform_below(rng, bound, zone);
        // The slot holding `u` is the number of cumulative weights at or
        // below it (past the last one: inert). Branch-free: which slot it
        // is is a coin no branch predictor can learn.
        let slot: usize = prefix.iter().map(|&end| (end <= u) as usize).sum();
        let mut emptied = false;
        for (count, &change) in counts.iter_mut().zip(&deltas[slot * k..(slot + 1) * k]) {
            let after = count.wrapping_add(change);
            emptied |= (after == 0) & (*count != 0);
            *count = after;
        }
        log.push(slot as u32);
        let weight = fill_prefix(table, counts, prefix);
        if emptied | (weight > bound) | (weight == 0) {
            break;
        }
    }
}

/// [`candidate_loop`] over a [`Compiled`] table, on a fixed-size copy of
/// the counts.
#[allow(clippy::too_many_arguments)]
fn compiled_loop<Rn: Rng + ?Sized, const K: usize, const CODE: u64, const R: usize>(
    rng: &mut Rn,
    state: &mut [u64],
    deltas: &[u64],
    log: &mut Vec<u32>,
    bound: u64,
    zone: u64,
) {
    let mut counts = [0u64; K];
    counts.copy_from_slice(state);
    let mut prefix = [0u64; R];
    let table = Compiled::<CODE, R>;
    candidate_loop(
        rng,
        table,
        &mut counts,
        &mut prefix,
        deltas,
        log,
        bound,
        zone,
    );
    state.copy_from_slice(&counts);
}

/// A thinning window's bound is `W̄ = W + W/WINDOW_SLACK` (at most
/// `n(n−1)`): a candidate is productive with probability at least 32/33,
/// and the window runs until the weight climbs past the bound.
const WINDOW_SLACK: u64 = 32;

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
    /// Candidates drawn by thinning windows so far.
    candidates: u64,
    /// Window scratch: the counts at the start of the current window, the
    /// cumulative reaction weights, and the window's candidates in order
    /// (a reactive pair's index, or the pair count for an inert one).
    window_start: Vec<u64>,
    prefix: Vec<u64>,
    log: Vec<u32>,
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
            candidates: 0,
            window_start: vec![0; k],
            prefix: vec![0; dynamics.reactions.len()],
            log: Vec::new(),
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

    /// Number of candidates the thinning windows have drawn so far (the
    /// work of [`CountedSimulation::step_window`], one uniform draw each).
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Replaces the per-state counts, keeping the population size and the
    /// interaction count: hands a configuration over from another stepper
    /// of the same dynamics.
    ///
    /// # Panics
    ///
    /// Panics if the state count or the population size differs.
    pub fn set_counts(&mut self, counts: &[u64]) {
        assert_eq!(
            counts.iter().sum::<u64>(),
            self.total,
            "protocol transitions conserve the population"
        );
        self.counts.copy_from_slice(counts);
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
    /// `max_interactions` — the caller should then finish with a thinning
    /// window, which cuts itself at the cap, or with single steps (the run
    /// ends within the cap either way, so the discarded draw introduces no
    /// bias into the truncated prefix).
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
        let len = self.batch_lengths().sample(rng);
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

    /// The expected interactions of one [`CountedSimulation::step_epoch`]
    /// call, `E[ℓ] + 1`, from the batch-length table of this population.
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than two.
    pub fn mean_epoch_interactions(&mut self) -> f64 {
        self.batch_lengths().mean() + 1.0
    }

    /// The share of interactions a [`CountedSimulation::step_window`] call
    /// from the current configuration draws as candidates, `W̄/(n(n−1))`:
    /// its expected candidates per interaction, i.e. its cost per
    /// interaction in units of one candidate.
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than two or at least `2³²`.
    pub fn candidate_rate(&self) -> f64 {
        let pairs = self.ordered_pairs();
        let reactions = self.dynamics.reactions.as_slice();
        let weight = (0..reactions.len())
            .map(|slot| pair_weight(&self.counts, reactions.pair(slot)))
            .sum();
        window_bound(weight, pairs) as f64 / pairs as f64
    }

    /// One exact **thinning window**: every interaction is a *candidate*
    /// with probability `W̄/(n(n−1))`, and a candidate is the reactive pair
    /// `(i, j)` with probability `cᵢ(cⱼ − [i = j])/W̄` and inert otherwise,
    /// so every interaction is that pair with probability
    /// `cᵢ(cⱼ − [i = j])/(n(n−1))` — the per-interaction chain in law — as
    /// long as the productive weight `W` stays at most the bound `W̄`. Each
    /// candidate costs one exact uniform draw below `W̄`; a productive one
    /// picks its pair by a branch-free count of the cumulative weights at or
    /// below the draw.
    ///
    /// The window ends after the candidate that lifts `W` above `W̄`,
    /// empties a state (so a committed opinion reaching zero, and
    /// absorption, end it exactly there) or fills the log of
    /// [`WINDOW_LOG`](crate::bridge::WINDOW_LOG) candidates. Its inert
    /// interactions are then charged in one draw: the non-candidates before
    /// its `m`-th candidate are `NegBin(m, W̄/(n(n−1)))`, independent of what
    /// the candidates did.
    ///
    /// Returns the interactions consumed. If the window would overrun
    /// `max_interactions`, exactly the budget is consumed: the first `m − 1`
    /// candidates sit uniformly among the window's first interactions, so a
    /// hypergeometric draw counts those inside the budget, and the counts
    /// are the window's start counts with those candidates replayed. Its
    /// productive interactions are [`CountedSimulation::window_interactions`].
    ///
    /// # Panics
    ///
    /// Panics if no interaction can change a state, if the population is
    /// smaller than two or at least `2³²`, or if `max_interactions == 0`.
    pub fn step_window<R: Rng + ?Sized>(&mut self, rng: &mut R, max_interactions: u64) -> u64 {
        assert!(max_interactions >= 1, "a window performs interactions");
        let pairs = self.ordered_pairs();
        let dynamics = self.dynamics;
        let reactions = dynamics.reactions.as_slice();
        let weight = fill_prefix(reactions, &self.counts, &mut self.prefix);
        assert!(
            weight > 0,
            "the configuration is absorbed; no interaction can fire"
        );
        let bound = window_bound(weight, pairs);
        // Lemire's rejection zone for exact uniform draws below `bound`.
        let zone = bound.wrapping_neg() % bound;
        self.window_start.copy_from_slice(&self.counts);
        self.log.clear();
        let (counts, log, deltas) = (&mut self.counts, &mut self.log, &dynamics.deltas);
        match (counts.len(), reactions.len(), dynamics.pair_code) {
            (3, 4, Some(APPROXIMATE_MAJORITY)) => compiled_loop::<_, 3, APPROXIMATE_MAJORITY, 4>(
                rng, counts, deltas, log, bound, zone,
            ),
            (4, 6, Some(EXACT_MAJORITY)) => {
                compiled_loop::<_, 4, EXACT_MAJORITY, 6>(rng, counts, deltas, log, bound, zone)
            }
            (3, 2, Some(ANNIHILATION)) => {
                compiled_loop::<_, 3, ANNIHILATION, 2>(rng, counts, deltas, log, bound, zone)
            }
            _ => candidate_loop(
                rng,
                reactions,
                counts,
                &mut self.prefix,
                deltas,
                log,
                bound,
                zone,
            ),
        }
        let candidates = self.log.len() as u64;
        self.candidates += candidates;
        let inert = sample_negative_binomial(rng, candidates, bound as f64 / pairs as f64);
        let fired = candidates.saturating_add(inert);
        if fired <= max_interactions {
            self.interactions += fired;
            return fired;
        }
        // The budget ends inside the window: given its `inert`
        // non-candidates, the first `candidates − 1` candidates sit
        // uniformly among the first `candidates − 1 + inert` interactions
        // (the last candidate closes the window), so the budget keeps a
        // hypergeometric number of them. Replay those from the start.
        let kept = sample_hypergeometric(rng, candidates - 1, inert, max_interactions) as usize;
        self.log.truncate(kept);
        self.counts.copy_from_slice(&self.window_start);
        let k = self.counts.len();
        for &slot in &self.log {
            let row = &dynamics.deltas[slot as usize * k..(slot as usize + 1) * k];
            for (count, &change) in self.counts.iter_mut().zip(row) {
                *count = count.wrapping_add(change);
            }
        }
        self.interactions += max_interactions;
        max_interactions
    }

    /// The productive interactions of the last
    /// [`CountedSimulation::step_window`] call, in order (only those inside
    /// the budget when it was cut).
    pub fn window_interactions(&self) -> impl Iterator<Item = Interaction<usize>> + '_ {
        let reactions = &self.dynamics.reactions;
        self.log
            .iter()
            .filter_map(move |&slot| reactions.get(slot as usize))
            .map(|reaction| reaction.interaction())
    }

    /// `n(n − 1)`, the number of ordered pairs of distinct agents.
    fn ordered_pairs(&self) -> u64 {
        let n = self.total;
        assert!(n >= 2, "pairwise scheduling needs two agents");
        // Keeps n(n − 1) and every pair weight representable in the u64
        // draws of the thinning windows.
        assert!(
            n < (1 << 32),
            "thinning windows need populations below 2^32"
        );
        n * (n - 1)
    }

    /// The shared batch-length table of this population, fetched on first
    /// use (and again if the population ever changed).
    fn batch_lengths(&mut self) -> &BatchLengthSampler {
        let n = self.total;
        if self
            .batch_lengths
            .as_ref()
            .is_none_or(|sampler| sampler.population() != n)
        {
            self.batch_lengths = Some(BatchLengthSampler::shared(n));
        }
        self.batch_lengths.as_ref().expect("just installed")
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

/// The bound `W̄` of a thinning window opened at productive weight `W`.
fn window_bound(weight: u64, pairs: u64) -> u64 {
    weight.saturating_add(weight / WINDOW_SLACK).min(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ApproximateMajority, CzyzowiczLvProtocol, ExactMajority4State, SelfDestructiveLvProtocol,
    };
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
    fn the_baselines_run_compiled_candidate_loops() {
        // The codes are written out by hand; each baseline's compiled table
        // must match its code, or its windows silently fall back to the
        // runtime loop.
        let code = |d: CountedDynamics| (d.state_count(), d.reactions.len(), d.pair_code);
        assert_eq!(
            code(CountedDynamics::from_protocol(&ApproximateMajority::new())),
            (3, 4, Some(APPROXIMATE_MAJORITY))
        );
        assert_eq!(
            code(CountedDynamics::from_protocol(&ExactMajority4State::new())),
            (4, 6, Some(EXACT_MAJORITY))
        );
        assert_eq!(
            code(CountedDynamics::from_protocol(
                &SelfDestructiveLvProtocol::new()
            )),
            (3, 2, Some(ANNIHILATION))
        );
    }

    #[test]
    fn compiled_and_runtime_windows_agree_draw_for_draw() {
        for (compiled, counts) in [
            (
                CountedDynamics::from_protocol(&ApproximateMajority::new()),
                [520u64, 480],
            ),
            (
                CountedDynamics::from_protocol(&ExactMajority4State::new()),
                [60, 40],
            ),
            (
                CountedDynamics::from_protocol(&SelfDestructiveLvProtocol::new()),
                [300, 200],
            ),
        ] {
            let runtime = CountedDynamics {
                pair_code: None,
                ..compiled.clone()
            };
            let run = |dynamics: &CountedDynamics| {
                let mut sim = CountedSimulation::new(dynamics, &counts);
                let mut r = rng(21);
                let mut trace = Vec::new();
                while !sim.is_absorbed() && sim.interactions() < 20_000 {
                    sim.step_window(&mut r, 20_000 - sim.interactions());
                    trace.push((sim.counts().to_vec(), sim.interactions()));
                }
                trace
            };
            assert_eq!(run(&compiled), run(&runtime));
        }
    }

    #[test]
    fn windows_conserve_agents_and_replay_their_log() {
        let mut r = rng(22);
        for dynamics in [
            CountedDynamics::from_protocol(&ApproximateMajority::new()),
            CountedDynamics::from_protocol(&ExactMajority4State::new()),
            CountedDynamics::k_opinion_czyzowicz(4),
        ] {
            let species = dynamics.species_count() as u64;
            let counts: Vec<u64> = (0..species).map(|i| 300 + 40 * i).collect();
            let mut sim = CountedSimulation::new(&dynamics, &counts);
            while !sim.is_absorbed() {
                let before = sim.counts().to_vec();
                let rate = sim.candidate_rate();
                assert!(rate > 0.0 && rate <= 1.0, "candidate rate {rate}");
                let fired = sim.step_window(&mut r, u64::MAX);
                let mut replayed = before;
                let mut productive = 0;
                for interaction in sim.window_interactions() {
                    assert!(interaction.changed());
                    replayed[interaction.initiator_before] -= 1;
                    replayed[interaction.responder_before] -= 1;
                    replayed[interaction.initiator_after] += 1;
                    replayed[interaction.responder_after] += 1;
                    productive += 1;
                }
                assert_eq!(replayed, sim.counts(), "the log replays the window");
                assert!(fired >= productive);
                assert_eq!(sim.total(), sim.counts().iter().sum::<u64>());
            }
            assert!(sim.candidates() > 0);
        }
    }

    #[test]
    fn windows_stop_where_a_state_empties() {
        // Every window ends at the interaction that empties a state, so a
        // committed opinion never dies out mid-window: runs stopped at the
        // first extinction see it exactly.
        let d = CountedDynamics::from_protocol(&ApproximateMajority::new());
        for seed in 0..20 {
            let mut sim = CountedSimulation::new(&d, &[40, 30]);
            let mut r = rng(100 + seed);
            loop {
                let start = sim.counts().to_vec();
                sim.step_window(&mut r, u64::MAX);
                let mut counts = start.clone();
                let productive: Vec<_> = sim.window_interactions().collect();
                for (index, interaction) in productive.iter().enumerate() {
                    counts[interaction.initiator_before] -= 1;
                    counts[interaction.responder_before] -= 1;
                    counts[interaction.initiator_after] += 1;
                    counts[interaction.responder_after] += 1;
                    let emptied = (0..3).any(|s| counts[s] == 0 && start[s] > 0);
                    assert!(!emptied || index + 1 == productive.len(), "seed {seed}");
                }
                let opinions = sim.opinion_counts();
                if opinions.contains(&0) {
                    break;
                }
            }
        }
    }

    #[test]
    fn windows_cut_at_the_budget_exactly() {
        let d = CountedDynamics::from_protocol(&ExactMajority4State::new());
        let mut r = rng(23);
        for budget in [1u64, 2, 7, 100] {
            let mut sim = CountedSimulation::new(&d, &[500, 480]);
            let fired = sim.step_window(&mut r, budget);
            assert!(fired <= budget);
            assert_eq!(sim.interactions(), fired);
            assert_eq!(sim.counts().iter().sum::<u64>(), 980);
        }
        // A window that would run past a budget of one keeps at most the
        // one interaction it allows.
        let d = CountedDynamics::from_protocol(&ApproximateMajority::new());
        let mut sim = CountedSimulation::new(&d, &[999_999, 1]);
        assert_eq!(sim.step_window(&mut r, 1), 1);
        assert_eq!(sim.interactions(), 1);
    }

    #[test]
    #[should_panic(expected = "absorbed")]
    fn absorbed_configurations_refuse_windows() {
        let d = CountedDynamics::from_protocol(&ApproximateMajority::new());
        let mut sim = CountedSimulation::new(&d, &[10, 0]);
        sim.step_window(&mut rng(24), u64::MAX);
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
