//! The asynchronous pseudo-coupling of Section 5.1.
//!
//! The paper couples the two-species Lotka–Volterra chain `S` with a
//! dominating single-species birth–death chain `N` using one shared uniform
//! random variable `ξ_t ∈ [0, 1)` per step:
//!
//! 1. the single-species chain births if `ξ_t < p(m)`, dies if
//!    `ξ_t ≥ 1 − q(m)` and holds otherwise;
//! 2. the two-species chain only advances on steps where
//!    `min Ŝ_t = N̂_t`; on those steps it performs a *bad non-competitive*
//!    event if `ξ_t < P(a, b)`, a *good competitive* event if
//!    `ξ_t ≥ 1 − Q(a, b)` and some other event otherwise.
//!
//! Under the domination conditions (D1) `P(a,b) ≤ p(min{a,b})` and (D2)
//! `Q(a,b) ≥ q(min{a,b})`, Lemma 10 shows the invariants
//! `min Ŝ_t ≤ N̂_t` and `J_t(Ŝ) ≤ B_t(N̂)` hold almost surely, which yields
//! the chain-domination lemma (Lemma 9): `T(S) ⪯ E(N)` and `J(S) ⪯ B(N)`.
//!
//! [`PseudoCoupling`] is an operational implementation of exactly this joint
//! chain, so the invariants and the domination conditions can be checked
//! empirically (experiment E13 of `lv-sim`'s experiment suite).

use crate::chain::BirthDeathChain;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three event classes rule (2) of the pseudo-coupling distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// A non-competitive (individual birth/death) event that decreases the
    /// gap between the current majority and minority species.
    BadNonCompetitive,
    /// A competitive interaction in which the current minority species loses
    /// an individual.
    GoodCompetitive,
    /// Any other event.
    Other,
}

/// A two-species process that can be driven by the pseudo-coupling.
///
/// `lv-lotka` implements this for its Lotka–Volterra jump chains. The
/// probabilities correspond to the paper's `P(a, b)` (bad non-competitive
/// reaction) and `Q(a, b)` (good competitive reaction); the remaining
/// probability mass is the "other" class.
pub trait TwoSpeciesProcess {
    /// Current counts `(x_0, x_1)` of the two species.
    fn counts(&self) -> (u64, u64);

    /// The probability `P(a, b)` that the next event is a bad non-competitive
    /// reaction (conditioned on the current state).
    fn bad_noncompetitive_probability(&self) -> f64;

    /// The probability `Q(a, b)` that the next event is a good competitive
    /// reaction (conditioned on the current state).
    fn good_competitive_probability(&self) -> f64;

    /// Advances the process by one event sampled *conditioned on* the given
    /// event class, using `rng` for any remaining randomness.
    fn step_conditioned<R: Rng + ?Sized>(&mut self, class: EventClass, rng: &mut R);

    /// Whether the process has reached consensus (some species is extinct).
    fn has_reached_consensus(&self) -> bool {
        let (a, b) = self.counts();
        a == 0 || b == 0
    }

    /// The smaller of the two counts.
    fn min_count(&self) -> u64 {
        let (a, b) = self.counts();
        a.min(b)
    }
}

/// Record of one pseudo-coupling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CouplingRecord {
    /// Total joint steps taken.
    pub steps: u64,
    /// Steps on which the two-species process advanced (i.e. `min Ŝ = N̂`).
    pub synchronized_steps: u64,
    /// Births of the dominating chain (`B_t(N̂)`).
    pub births_in_dominating: u64,
    /// Bad non-competitive events of the two-species process (`J_t(Ŝ)`).
    pub bad_events_in_process: u64,
    /// Final state of the dominating chain.
    pub dominating_state: u64,
    /// Final minimum count of the two-species process.
    pub process_min_count: u64,
    /// Whether the invariant `min Ŝ_t ≤ N̂_t` held at every step.
    pub min_invariant_held: bool,
    /// Whether the invariant `J_t(Ŝ) ≤ B_t(N̂)` held at every step.
    pub count_invariant_held: bool,
    /// Whether the domination conditions (D1)/(D2) held at every synchronized
    /// step that was actually visited.
    pub domination_conditions_held: bool,
    /// Whether the dominating chain reached its absorbing state 0.
    pub dominating_absorbed: bool,
    /// Whether the two-species process reached consensus.
    pub process_reached_consensus: bool,
}

/// The joint Markov chain `(Ŝ, N̂)` of Section 5.1.
pub struct PseudoCoupling<P, C> {
    process: P,
    chain: C,
    chain_state: u64,
    steps: u64,
    synchronized_steps: u64,
    births: u64,
    bad_events: u64,
    min_invariant_held: bool,
    count_invariant_held: bool,
    domination_conditions_held: bool,
}

impl<P: fmt::Debug, C> fmt::Debug for PseudoCoupling<P, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PseudoCoupling")
            .field("process", &self.process)
            .field("chain_state", &self.chain_state)
            .field("steps", &self.steps)
            .field("births", &self.births)
            .field("bad_events", &self.bad_events)
            .finish()
    }
}

impl<P: TwoSpeciesProcess, C: BirthDeathChain> PseudoCoupling<P, C> {
    /// Creates the joint chain. Following Lemma 9 the dominating chain starts
    /// at `chain_initial ≥ min Ŝ_0`; this is asserted.
    ///
    /// # Panics
    ///
    /// Panics if `chain_initial < min Ŝ_0`.
    pub fn new(process: P, chain: C, chain_initial: u64) -> Self {
        assert!(
            chain_initial >= process.min_count(),
            "the dominating chain must start at or above the minimum species count"
        );
        PseudoCoupling {
            process,
            chain,
            chain_state: chain_initial,
            steps: 0,
            synchronized_steps: 0,
            births: 0,
            bad_events: 0,
            min_invariant_held: true,
            count_invariant_held: true,
            domination_conditions_held: true,
        }
    }

    /// The two-species process.
    pub fn process(&self) -> &P {
        &self.process
    }

    /// Current state of the dominating chain.
    pub fn chain_state(&self) -> u64 {
        self.chain_state
    }

    /// Births of the dominating chain so far.
    pub fn births(&self) -> u64 {
        self.births
    }

    /// Bad non-competitive events of the two-species process so far.
    pub fn bad_events(&self) -> u64 {
        self.bad_events
    }

    /// Performs one joint step with a shared uniform variable.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let xi: f64 = rng.gen();
        let m = self.chain_state;
        let p = self.chain.birth_probability(m);
        let q = self.chain.death_probability(m);

        let synchronized = self.process.min_count() == m && !self.process.has_reached_consensus();

        // Rule (1): update the dominating chain from ξ.
        if xi < p {
            self.chain_state = m + 1;
            self.births += 1;
        } else if xi >= 1.0 - q {
            self.chain_state = m.saturating_sub(1);
        }

        // Rule (2): update the two-species process only on synchronized steps.
        if synchronized {
            self.synchronized_steps += 1;
            let (a, b) = self.process.counts();
            let big_p = self.process.bad_noncompetitive_probability();
            let big_q = self.process.good_competitive_probability();
            // Empirically track whether (D1)/(D2) hold at this visited state.
            if big_p > p + 1e-12 || big_q < q - 1e-12 {
                self.domination_conditions_held = false;
            }
            debug_assert!(big_p + big_q <= 1.0 + 1e-9, "P({a},{b}) + Q({a},{b}) > 1");
            let class = if xi < big_p {
                EventClass::BadNonCompetitive
            } else if xi >= 1.0 - big_q {
                EventClass::GoodCompetitive
            } else {
                EventClass::Other
            };
            if class == EventClass::BadNonCompetitive {
                self.bad_events += 1;
            }
            self.process.step_conditioned(class, rng);
        }

        self.steps += 1;
        if self.process.min_count() > self.chain_state {
            self.min_invariant_held = false;
        }
        if self.bad_events > self.births {
            self.count_invariant_held = false;
        }
    }

    /// Runs until the dominating chain is absorbed at zero (or `max_steps`
    /// elapse) and returns the record of the run.
    pub fn run<R: Rng + ?Sized>(mut self, rng: &mut R, max_steps: u64) -> CouplingRecord {
        while self.chain_state > 0 && self.steps < max_steps {
            self.step(rng);
        }
        CouplingRecord {
            steps: self.steps,
            synchronized_steps: self.synchronized_steps,
            births_in_dominating: self.births,
            bad_events_in_process: self.bad_events,
            dominating_state: self.chain_state,
            process_min_count: self.process.min_count(),
            min_invariant_held: self.min_invariant_held,
            count_invariant_held: self.count_invariant_held,
            domination_conditions_held: self.domination_conditions_held,
            dominating_absorbed: self.chain_state == 0,
            process_reached_consensus: self.process.has_reached_consensus(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominating::DominatingChain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// A minimal neutral self-destructive Lotka–Volterra process with unit
    /// rates, implemented directly for the tests of this module (the real
    /// implementation lives in `lv-lotka`).
    #[derive(Debug, Clone)]
    struct ToyLv {
        a: u64,
        b: u64,
    }

    impl ToyLv {
        fn phi(&self) -> f64 {
            let (a, b) = (self.a as f64, self.b as f64);
            2.0 * a * b + 2.0 * (a + b)
        }
    }

    impl TwoSpeciesProcess for ToyLv {
        fn counts(&self) -> (u64, u64) {
            (self.a, self.b)
        }

        fn bad_noncompetitive_probability(&self) -> f64 {
            // A bad non-competitive event decreases the gap: birth of the
            // minority or death of the majority. With β = δ = 1 this has
            // probability (min + max)/φ = (a + b)/φ.
            if self.a == 0 || self.b == 0 {
                return 0.0;
            }
            (self.a + self.b) as f64 / self.phi()
        }

        fn good_competitive_probability(&self) -> f64 {
            if self.a == 0 || self.b == 0 {
                return 0.0;
            }
            // Self-destructive competition removes one of each species, so
            // every competition event decreases the minority count:
            // probability 2ab/φ (both directed reactions).
            2.0 * (self.a * self.b) as f64 / self.phi()
        }

        fn step_conditioned<R: Rng + ?Sized>(&mut self, class: EventClass, rng: &mut R) {
            let majority_is_a = self.a >= self.b;
            match class {
                EventClass::BadNonCompetitive => {
                    // Either the minority births or the majority dies; both
                    // have equal conditional probability here (rates equal).
                    if rng.gen::<bool>() {
                        if majority_is_a {
                            self.b += 1;
                        } else {
                            self.a += 1;
                        }
                    } else if majority_is_a {
                        self.a -= 1;
                    } else {
                        self.b -= 1;
                    }
                }
                EventClass::GoodCompetitive => {
                    // Self-destructive competition: both species lose one.
                    self.a = self.a.saturating_sub(1);
                    self.b = self.b.saturating_sub(1);
                }
                EventClass::Other => {
                    // Majority birth or minority death, equal conditional
                    // probability.
                    if rng.gen::<bool>() {
                        if majority_is_a {
                            self.a += 1;
                        } else {
                            self.b += 1;
                        }
                    } else if majority_is_a && self.b > 0 {
                        self.b -= 1;
                    } else if !majority_is_a && self.a > 0 {
                        self.a -= 1;
                    }
                }
            }
        }
    }

    fn dominating_for_toy() -> DominatingChain {
        DominatingChain::from_lv_rates(1.0, 1.0, 1.0, 1.0)
    }

    #[test]
    fn invariants_hold_for_dominated_process() {
        // Lemma 10: with a valid dominating chain, both invariants hold on
        // every run.
        for seed in 0..30 {
            let process = ToyLv { a: 80, b: 50 };
            let chain = dominating_for_toy();
            let coupling = PseudoCoupling::new(process, chain, 50);
            let record = coupling.run(&mut rng(seed), 1_000_000);
            assert!(record.dominating_absorbed, "budget too small");
            assert!(
                record.min_invariant_held,
                "min invariant failed (seed {seed})"
            );
            assert!(
                record.count_invariant_held,
                "count invariant failed (seed {seed})"
            );
            assert!(
                record.domination_conditions_held,
                "domination conditions failed (seed {seed})"
            );
            // Lemma 9(a): once N is absorbed, the process must have reached
            // consensus (min Ŝ ≤ N̂ = 0).
            assert!(record.process_reached_consensus);
            assert!(record.bad_events_in_process <= record.births_in_dominating);
        }
    }

    #[test]
    fn coupling_counts_births_and_bad_events() {
        let process = ToyLv { a: 30, b: 20 };
        let chain = dominating_for_toy();
        let coupling = PseudoCoupling::new(process, chain, 20);
        let record = coupling.run(&mut rng(1), 1_000_000);
        assert!(record.steps > 0);
        assert!(record.synchronized_steps > 0);
        assert!(record.steps >= record.synchronized_steps);
    }

    #[test]
    #[should_panic(expected = "must start at or above")]
    fn chain_must_start_at_least_at_min_count() {
        let process = ToyLv { a: 30, b: 20 };
        let chain = dominating_for_toy();
        let _ = PseudoCoupling::new(process, chain, 10);
    }

    #[test]
    fn violating_chain_is_detected() {
        // A "dominating" chain whose birth probability is far too small
        // violates (D1); the coupling must notice.
        let process = ToyLv { a: 12, b: 12 };
        let bad_chain = crate::chain::FnChain::new(
            |n| if n == 0 { 0.0 } else { 1e-9 },
            |n| if n == 0 { 0.0 } else { 0.9 },
        );
        let coupling = PseudoCoupling::new(process, bad_chain, 12);
        let record = coupling.run(&mut rng(3), 1_000_000);
        assert!(!record.domination_conditions_held);
    }

    #[test]
    fn accessors_reflect_progress() {
        let process = ToyLv { a: 10, b: 8 };
        let chain = dominating_for_toy();
        let mut coupling = PseudoCoupling::new(process, chain, 8);
        assert_eq!(coupling.chain_state(), 8);
        assert_eq!(coupling.births(), 0);
        assert_eq!(coupling.bad_events(), 0);
        let mut r = rng(4);
        for _ in 0..100 {
            coupling.step(&mut r);
        }
        assert!(coupling.process().counts().0 > 0 || coupling.process().counts().1 > 0);
    }
}
