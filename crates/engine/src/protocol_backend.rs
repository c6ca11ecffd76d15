//! Protocol baselines as backends: the run fns of the population protocols
//! registered next to the Lotka–Volterra kernels, so protocol-vs-LV
//! comparisons (E11, E15/E16 threshold sweeps) run through one registry and
//! one Monte-Carlo harness.
//!
//! A protocol backend is a baseline, not a Lotka–Volterra simulator: it
//! reads only the scenario's initial configuration — `cᵢ` agents with
//! opinion `i` — and its stop budgets; the model's rates are ignored
//! ([`Backend::models_kinetics`](crate::Backend::models_kinetics) is
//! `false`). Each pairwise interaction counts as one event and one unit of
//! time, and the reported state is the vector of *committed* opinion counts
//! (undecided or destroyed agents are internal). A committed count hitting
//! zero is irrevocable in every built-in protocol, so the consensus
//! semantics of the stop conditions carry over: the survivor is the
//! protocol's decision.
//!
//! # Count-space execution
//!
//! The two-opinion protocol backends (`approx-majority`, `exact-majority`,
//! `annihilation-lv`) execute **in count space**
//! ([`lv_protocols::CountedSimulation`]) with two exact steppers:
//!
//! - a batched *epoch* samples a collision-free batch of `Θ(√n)`
//!   interactions from the birthday-bound distribution, applies the
//!   transitions as count deltas via hypergeometric splits, and resolves
//!   the one colliding interaction exactly;
//! - a *thinning window* draws only candidates for the interactions that
//!   change a state (`W̄/(n(n−1))` of them per interaction, `W̄` a bound on
//!   the productive ordered-pair weight) and charges the inert ones in one
//!   negative binomial draw.
//!
//! Before every step [`window_pays`] compares their expected costs per
//! interaction — one deterministic rule, calibrated by `perf-snapshot` — so
//! small populations and near-consensus states run windows, and the
//! near-tie phase of large populations runs epochs. Both are equal *in
//! distribution* to the same number of per-interaction steps of an agent
//! list ([`lv_protocols::ProtocolSimulation`], kept as the test oracle) but
//! consume a different RNG stream and report aggregated [`StepRecord`]s
//! (`event = None`, `firings` = their interactions — the same vocabulary as
//! tau-leaping), so agreement with the agent-list stepper is statistical,
//! not bit-exact; with observers attached, a window is replayed as one
//! classified record per productive interaction. Absorption — no
//! schedulable pair can change any state — is detected by an
//! `O(#states²)` count check between steps, and a window ends on the
//! interaction that empties a state, so a committed opinion's extinction
//! stops a run exactly there.
//!
//! The Czyzowicz conversion dynamics (`czyzowicz-lv` and
//! `czyzowicz-lv-bridged`, both over any `k ≥ 2` opinions) run on
//! [`lv_protocols::BridgedConversionWalk`] instead: only a cross-opinion
//! pair changes state there, so the walk's own thinning windows skip the
//! inert interactions, the exact row hands the counts to a counted epoch
//! wherever the same rule picks one, and the bridged row adds
//! diffusion-bridged blocks away from the boundaries (see
//! [`run_conversion`]). They report aggregated records too.
//!
//! Every protocol row is batched
//! ([`Backend::batched`](crate::Backend::batched)); the retired agent-list
//! names (`-agents`) are aliases of the batched rows.
//!
//! [`StepRecord`]: crate::StepRecord

use crate::backend::Driver;
use crate::report::RunReport;
use crate::scenario::Scenario;
use lv_crn::StopReason;
use lv_lotka::PopulationEvent;
use lv_protocols::sampling::BatchLengthSampler;
use lv_protocols::{
    ApproximateMajority, BridgedConversionWalk, CountedDynamics, CountedSimulation,
    ExactMajority4State, SelfDestructiveLvProtocol,
};
use rand::rngs::StdRng;

/// The cost of one batched epoch in units of one thinning-window
/// candidate, `C_epoch/C_cand` (see [`window_pays`]), as measured by
/// `perf-snapshot`'s `protocol_windows` section on a 2-vCPU x86-64 host in
/// full mode, over the first 2n interactions of approximate-majority
/// trials: 1017 ns per epoch against 9.27 ns per candidate at n = 10⁵
/// (ratio 110), 894 ns against 9.63 ns at n = 10⁴ (ratio 93). The n = 10⁵
/// ratio is the one that decides anything: at n = 10⁴ an epoch holds
/// `E[ℓ] + 1 ≈ 64` interactions, so any ratio above 64 runs windows
/// throughout.
const EPOCH_COST_IN_CANDIDATES: f64 = 110.0;

/// The window-or-epoch rule of the count-space backends: a thinning window
/// costs about `C_cand` per candidate and draws `candidate_rate` candidates
/// per interaction, an epoch costs about `C_epoch` for its
/// `epoch_interactions = E[ℓ] + 1` interactions, so the window is the
/// cheaper step per interaction iff
/// `C_cand · candidate_rate < C_epoch/(E[ℓ] + 1)`. Deterministic: it reads
/// only the configuration and the population size, never a clock.
fn window_pays(candidate_rate: f64, epoch_interactions: f64) -> bool {
    candidate_rate * epoch_interactions < EPOCH_COST_IN_CANDIDATES
}

/// Runs compiled [`CountedDynamics`] as an execution backend on count-based
/// state, choosing before every step between a batched epoch
/// ([`CountedSimulation::step_epoch`]) and an exact thinning window
/// ([`CountedSimulation::step_window`]) by [`window_pays`]. A window also
/// takes over whenever a sampled epoch would overrun the event budget: it
/// cuts itself at the budget exactly.
///
/// Epochs report one aggregated record (`event = None`, `firings` = epoch
/// length), and so do windows on observer-free runs. With observers
/// attached, each window is replayed as one classified record per
/// productive interaction (a cancellation is an `Interspecific` attack, a
/// recruitment a `Birth`) plus one `event = None` record for its inert
/// interactions, all stamped with the window's end time.
fn run_counted(
    dynamics: &CountedDynamics,
    name: &'static str,
    scenario: &Scenario,
    rng: &mut StdRng,
) -> RunReport {
    assert_eq!(
        scenario.species_count(),
        dynamics.species_count(),
        "the {name} backend cannot run {}-species scenarios",
        scenario.species_count()
    );
    let mut driver = Driver::new(scenario);
    if let Some(reason) = driver.check_stop() {
        return driver.finish(name, reason);
    }
    let initial = scenario.initial();
    if initial.total() < 2 {
        return driver.finish(name, StopReason::Absorbed);
    }
    let mut sim = CountedSimulation::new(dynamics, initial.counts());
    let epoch_interactions = sim.mean_epoch_interactions();
    // Where even a window that draws every interaction as a candidate pays,
    // the rule needs no evaluation.
    let always_windows = window_pays(1.0, epoch_interactions);
    let per_interaction = !scenario.observers().is_empty();
    let mut opinions = vec![0u64; dynamics.species_count()];
    sim.opinion_counts_into(&mut opinions);
    loop {
        if let Some(reason) = driver.check_stop() {
            return driver.finish(name, reason);
        }
        if sim.is_absorbed() {
            return driver.finish(name, StopReason::Absorbed);
        }
        let budget = driver.events_left();
        if !always_windows && !window_pays(sim.candidate_rate(), epoch_interactions) {
            if let Some(fired) = sim.step_epoch(rng, budget) {
                sim.opinion_counts_into(&mut opinions);
                driver.record(None, &opinions, sim.interactions() as f64, fired);
                continue;
            }
        }
        let fired = sim.step_window(rng, budget);
        let time = sim.interactions() as f64;
        if !per_interaction {
            sim.opinion_counts_into(&mut opinions);
            driver.record(None, &opinions, time, fired);
            continue;
        }
        let mut inert = fired;
        for interaction in sim.window_interactions() {
            for (before, after) in [
                (interaction.initiator_before, interaction.initiator_after),
                (interaction.responder_before, interaction.responder_after),
            ] {
                if let Some(species) = dynamics.output(before) {
                    opinions[species] -= 1;
                }
                if let Some(species) = dynamics.output(after) {
                    opinions[species] += 1;
                }
            }
            let event = classify(
                dynamics.output(interaction.initiator_before),
                dynamics.output(interaction.initiator_after),
                dynamics.output(interaction.responder_before),
                dynamics.output(interaction.responder_after),
            );
            driver.record(event, &opinions, time, 1);
            inert -= 1;
        }
        if inert > 0 {
            driver.record(None, &opinions, time, inert);
        }
    }
}

/// The Czyzowicz conversion dynamics (`(i, j) → (i, i)` for `i ≠ j`) over
/// any `k ≥ 2` species, on [`BridgedConversionWalk`]: the run fn of
/// `"czyzowicz-lv"` and, with `bridged`, of `"czyzowicz-lv-bridged"`.
///
/// The rows step by exact **thinning windows**
/// ([`BridgedConversionWalk::step_window`]): the inert interactions — 70–80%
/// of them near a tie — are never simulated one by one but charged per
/// window in one negative binomial draw, and a window cut at the event
/// budget keeps exactly the conversions inside it, so `max_events` is
/// honoured to the interaction. Final counts and interaction counts are the
/// interaction chain's in law (the proportional law `P(A wins) = a/n`, and
/// `cᵢ/n` over `k` species), on a different RNG stream than a per-interaction
/// stepper. A window ends at every extinction, so extinction and consensus
/// stops are checked exactly; other count conditions are checked at window
/// ends, as at epoch boundaries.
///
/// The exact row applies [`window_pays`] before every step and hands the
/// counts to a batched epoch of [`CountedDynamics::k_opinion_czyzowicz`]
/// where it picks one: a window draws a candidate for about half of the
/// interactions near a tie, so past `n ≈ 10⁵` an epoch's `Θ(√n)`
/// interactions for a constant number of draws are cheaper. Below
/// `n ≈ 3·10⁴`, where even a window drawing every interaction is cheaper
/// than an epoch, the rule is not evaluated and the stream is the windows'.
///
/// The bridged row instead first tries a diffusion-bridged block
/// ([`BridgedConversionWalk::try_block`]) and falls back to a window inside
/// the boundary-proximity band. Blocks bridge the displacement exactly but
/// reconstruct the interaction clock from its CLT limit, so their cost per
/// trial is `Õ(poly log n)` instead of the windows' `Θ(n²)` conversions,
/// which is what pushes the linear-gap-law sweeps of E16 to `n = 10⁷`.
///
/// Observer-free runs (the threshold searches) record one aggregated
/// [`StepRecord`](crate::StepRecord) per window, epoch or block (`event =
/// None`, `firings` = its interactions). With observers attached, each
/// window is replayed from its log as one competitive-attack record per
/// conversion plus one `event = None` record for its inert interactions,
/// all stamped with the window's end time, so event counts and the noise
/// decomposition see every conversion the windows resolve.
fn run_conversion(
    name: &'static str,
    scenario: &Scenario,
    rng: &mut StdRng,
    bridged: bool,
) -> RunReport {
    let mut driver = Driver::new(scenario);
    if let Some(reason) = driver.check_stop() {
        return driver.finish(name, reason);
    }
    let initial = scenario.initial();
    if initial.total() < 2 {
        return driver.finish(name, StopReason::Absorbed);
    }
    let mut walk = BridgedConversionWalk::new(initial.counts());
    let per_conversion = !scenario.observers().is_empty();
    let mut counts = initial.counts().to_vec();
    // The exact rows hand the counts to a batched epoch wherever
    // `window_pays` picks one (blocks play that part on the bridged rows).
    // Where even a window that draws every interaction as a candidate pays,
    // the rule needs no evaluation and no epoch engine.
    let epochs_may_pay = !bridged && {
        let epoch_interactions = BatchLengthSampler::shared(initial.total()).mean() + 1.0;
        !window_pays(1.0, epoch_interactions)
    };
    let dynamics =
        epochs_may_pay.then(|| CountedDynamics::k_opinion_czyzowicz(scenario.species_count()));
    let mut epochs: Option<CountedSimulation> = None;
    let mut elapsed = 0u64;
    loop {
        if let Some(reason) = driver.check_stop() {
            return driver.finish(name, reason);
        }
        if walk.is_absorbed() {
            return driver.finish(name, StopReason::Absorbed);
        }
        let budget = driver.events_left();
        if bridged {
            if let Some(fired) = walk.try_block(rng, budget) {
                elapsed += fired;
                driver.record(None, walk.counts(), elapsed as f64, fired);
                continue;
            }
        }
        if let Some(dynamics) = &dynamics {
            let sim = epochs.get_or_insert_with(|| CountedSimulation::new(dynamics, walk.counts()));
            if !window_pays(walk.candidate_rate(), sim.mean_epoch_interactions()) {
                sim.set_counts(walk.counts());
                if let Some(fired) = sim.step_epoch(rng, budget) {
                    walk.set_counts(sim.counts());
                    elapsed += fired;
                    driver.record(None, walk.counts(), elapsed as f64, fired);
                    continue;
                }
            }
        }
        counts.copy_from_slice(walk.counts());
        let fired = walk.step_window(rng, budget).fired();
        elapsed += fired;
        let time = elapsed as f64;
        if !per_conversion {
            driver.record(None, walk.counts(), time, fired);
            continue;
        }
        let mut inert = fired;
        for (attacker, victim) in walk.window_conversions() {
            counts[attacker] += 1;
            counts[victim] -= 1;
            let event = PopulationEvent::Interspecific { attacker, victim };
            driver.record(Some(event), &counts, time, 1);
            inert -= 1;
        }
        if inert > 0 {
            driver.record(None, walk.counts(), time, inert);
        }
    }
}

/// Maps one interaction onto the LV event vocabulary by output transitions
/// (species indices): cancellation and direct conversion are competitive
/// attacks, recruitment of an undecided agent is a birth, death of a
/// committed agent against a rival (the annihilation dynamics) is also a
/// competitive attack, anything else unclassified. Whichever agent's output
/// changed determines the class — the other agent is the attacker/recruiter
/// — so conversions count identically no matter which of the pair the
/// scheduler drew as initiator.
fn classify(
    initiator_before: Option<usize>,
    initiator_after: Option<usize>,
    responder_before: Option<usize>,
    responder_after: Option<usize>,
) -> Option<PopulationEvent> {
    if responder_before != responder_after {
        classify_transition(initiator_before, responder_before, responder_after)
    } else if initiator_before != initiator_after {
        classify_transition(responder_before, initiator_before, initiator_after)
    } else {
        None
    }
}

/// Classifies one agent's output transition given the unchanged `other`
/// agent of the pair.
fn classify_transition(
    other: Option<usize>,
    before: Option<usize>,
    after: Option<usize>,
) -> Option<PopulationEvent> {
    match (other, before, after) {
        // (X, Y) → (X, blank): X cancelled Y.
        (Some(attacker), Some(victim), None) if attacker != victim => {
            Some(PopulationEvent::Interspecific { attacker, victim })
        }
        // (X, blank) → (X, X): X recruited a blank.
        (Some(opinion), None, Some(recruited)) if opinion == recruited => {
            Some(PopulationEvent::Birth(opinion))
        }
        // (X, Y) → (X, X): X converted Y directly (Czyzowicz predation, the
        // exact-majority strong-recruits-weak rule).
        (Some(attacker), Some(victim), Some(converted))
            if attacker != victim && converted == attacker =>
        {
            Some(PopulationEvent::Interspecific { attacker, victim })
        }
        _ => None,
    }
}

/// `"approx-majority"`: the 3-state approximate-majority protocol of
/// Angluin–Aspnes–Eisenstat, batched.
pub(crate) fn approx_majority(
    name: &'static str,
    scenario: &Scenario,
    rng: &mut StdRng,
) -> RunReport {
    let dynamics = CountedDynamics::from_protocol(&ApproximateMajority::new());
    run_counted(&dynamics, name, scenario, rng)
}

/// `"exact-majority"`: the 4-state exact-majority protocol of
/// Draief–Vojnović / Mertzios et al., batched.
///
/// The strong-token difference is invariant, so the protocol decides the
/// true initial majority for *any* non-zero gap — there is no threshold to
/// find — but pays `Θ(n²)` expected interactions when the gap is small
/// (Table 1, Section 2.2). A tied start can exhaust its strong tokens and
/// freeze in a mixed weak configuration, which the count-level absorption
/// check reports as an absorbed (non-consensus) run.
pub(crate) fn exact_majority(
    name: &'static str,
    scenario: &Scenario,
    rng: &mut StdRng,
) -> RunReport {
    let dynamics = CountedDynamics::from_protocol(&ExactMajority4State::new());
    run_counted(&dynamics, name, scenario, rng)
}

/// `"czyzowicz-lv"`: the discrete Lotka–Volterra conversion dynamics of
/// Czyzowicz et al. over **any** `k ≥ 2` opinions, in exact thinning
/// windows ([`run_conversion`]).
///
/// One state per opinion; an initiator of a different opinion converts the
/// responder (`(A, B) → (A, A)`, `(B, A) → (B, B)` for two). Each pairwise
/// conversion between species `i` and `j` is an unbiased step in their
/// counts, so species `i` wins with probability exactly `cᵢ/n` — the
/// proportional law, `a/n` for two species — and high-probability majority
/// (or plurality) consensus needs a gap *linear* in `n`: the baseline
/// E15/E16's threshold sweeps contrast with the paper's polylogarithmic
/// self-destructive threshold.
pub(crate) fn czyzowicz_lv(name: &'static str, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
    run_conversion(name, scenario, rng, false)
}

/// `"annihilation-lv"`: the *self-destructive* discrete Lotka–Volterra
/// dynamics (`(A, B) → (∅, ∅)`), batched.
///
/// Pairwise annihilation preserves the signed gap `a − b`, so the initial
/// majority wins for **any** non-zero gap — the population-protocol
/// rendition of the paper's claim that self-destructive interference
/// collapses the consensus threshold — and consensus (the minority's
/// committed count reaching zero) takes only `Θ(n log n)` interactions,
/// which keeps threshold sweeps tractable at `n = 10⁷` under batching,
/// unlike the `Θ(n²)` conversion dynamics of `"czyzowicz-lv"`. Destroyed
/// agents have no output, so a tied start annihilates completely (both
/// committed counts reach zero — mutual extinction, exactly like the
/// continuous model's `δ = 0` cancellation).
pub(crate) fn annihilation_lv(
    name: &'static str,
    scenario: &Scenario,
    rng: &mut StdRng,
) -> RunReport {
    let dynamics = CountedDynamics::from_protocol(&SelfDestructiveLvProtocol::new());
    run_counted(&dynamics, name, scenario, rng)
}

/// `"czyzowicz-lv-bridged"`: [`run_conversion`] with bridged blocks over
/// any `k ≥ 2` species. For `k > 2` the `(k−1)`-dimensional count walk is
/// bridged per unordered species pair (a multinomial split of each block's
/// conversions at the block-start pair intensities, then a fair-coin
/// binomial bridge per pair) under a per-species boundary band.
pub(crate) fn czyzowicz_lv_bridged(
    name: &'static str,
    scenario: &Scenario,
    rng: &mut StdRng,
) -> RunReport {
    run_conversion(name, scenario, rng, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use lv_crn::StopCondition;
    use lv_lotka::LvModel;
    use lv_protocols::{CzyzowiczLvProtocol, PopulationProtocol, ProtocolSimulation};
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn backend(name: &str) -> &'static dyn Backend {
        crate::backend(name).unwrap()
    }

    /// Every protocol backend: the rows that ignore the model's kinetics.
    fn all_protocol_backends() -> Vec<&'static dyn Backend> {
        crate::BackendRegistry::global()
            .iter()
            .filter(|b| !b.models_kinetics())
            .collect()
    }

    #[test]
    fn clear_majority_wins_and_reports_interactions() {
        let scenario = Scenario::majority(LvModel::default(), 400, 100);
        let report = backend("approx-majority").run(&scenario, &mut rng(1));
        assert_eq!(report.backend, "approx-majority");
        assert!(report.consensus_reached());
        assert!(report.majority_won());
        assert!(report.events > 0);
        assert!(report.to_majority_outcome().majority_won());
        // The counted path replays its windows for observers: one
        // classified record per productive interaction and one aggregated
        // record per window for the inert ones.
        let counts = report.event_counts().unwrap();
        assert!(counts.individual > 0, "recruitments happened");
        assert!(counts.competitive > 0, "cancellations happened");
        assert!(counts.unclassified > 0, "inert interactions happened");
        assert_eq!(
            counts.individual + counts.competitive + counts.unclassified,
            report.events
        );
        assert!(report.steps < report.events);
        // Without observers every step aggregates: far fewer steps than
        // events.
        let unobserved = Scenario::new(LvModel::default(), (400, 100));
        let report = backend("approx-majority").run(&unobserved, &mut rng(1));
        assert!(report.majority_won());
        assert!(
            report.steps < report.events / 4,
            "batching did not aggregate: {} steps for {} events",
            report.steps,
            report.events
        );
    }

    #[test]
    fn nan_time_budgets_never_bind_and_keep_batching() {
        // A NaN time budget never stops a run (`time >= NaN` is false), so
        // it must not cap epochs either.
        let scenario = Scenario::new(LvModel::default(), (5_000, 4_900))
            .with_stop(StopCondition::any_species_extinct().with_max_time(f64::NAN));
        let report = backend("approx-majority").run(&scenario, &mut rng(15));
        assert!(report.consensus_reached());
        assert!(
            report.steps < report.events / 4,
            "batching did not aggregate: {} steps for {} events",
            report.steps,
            report.events
        );
    }

    #[test]
    fn committed_counts_never_exceed_the_population() {
        let scenario = Scenario::majority(LvModel::default(), 30, 20);
        let report = backend("approx-majority").run(&scenario, &mut rng(2));
        assert!(report.max_population().unwrap() <= 50);
        assert!(report.final_state.total() <= 50);
    }

    #[test]
    fn event_budget_truncates_runs_exactly() {
        // Also on the count-space paths: a thinning window that would
        // overrun the budget is cut at it, with or without observers, so
        // the event count is exact, not window- or epoch-granular.
        let scenario = Scenario::new(LvModel::default(), (500, 480))
            .with_stop(StopCondition::any_species_extinct().with_max_events(25));
        let observed = scenario.clone().observe(crate::ObserverSpec::EventCounts);
        for (backend, scenario) in [
            (backend("approx-majority"), &scenario),
            (backend("czyzowicz-lv"), &scenario),
            (backend("czyzowicz-lv-bridged"), &scenario),
            (backend("czyzowicz-lv"), &observed),
            (backend("czyzowicz-lv-bridged"), &observed),
        ] {
            let report = backend.run(scenario, &mut rng(3));
            assert_eq!(
                report.reason,
                StopReason::MaxEventsReached,
                "{}",
                backend.name()
            );
            assert_eq!(report.events, 25, "{}", backend.name());
            if backend.name().starts_with("czyzowicz") {
                assert_eq!(report.final_state.total(), 980, "{}", backend.name());
            }
        }
    }

    #[test]
    fn observed_conversion_runs_record_every_conversion() {
        // With observers attached each window is replayed one conversion
        // at a time: every event is either a classified conversion or an
        // inert interaction, and the conversions account for the net change
        // of the A-count (at least 40 of them when A wins, and the same
        // parity as the net change).
        let scenario = Scenario::majority(LvModel::default(), 60, 40);
        for name in ["czyzowicz-lv", "czyzowicz-lv-bridged"] {
            let report = backend(name).run(&scenario, &mut rng(16));
            assert!(report.consensus_reached(), "{name}");
            let counts = report.event_counts().unwrap();
            assert_eq!(counts.individual, 0, "{name}");
            assert_eq!(
                counts.competitive + counts.unclassified,
                report.events,
                "{name}"
            );
            let net = report.final_state.count(0).abs_diff(60);
            assert!(counts.competitive >= net, "{name}");
            assert_eq!((counts.competitive - net) % 2, 0, "{name}");
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let scenario = Scenario::majority(LvModel::default(), 60, 40);
        for backend in all_protocol_backends() {
            let a = backend.run(&scenario, &mut rng(4));
            let b = backend.run(&scenario, &mut rng(4));
            assert_eq!(a, b, "{}", backend.name());
        }
    }

    #[test]
    fn converged_runs_absorb_under_unsatisfiable_stop_conditions() {
        // Committed counts are capped at the population, so total ≥ 1000 can
        // never hold; once the protocol converges every interaction is inert
        // and the run must end as absorbed rather than spinning forever.
        let scenario = Scenario::new(LvModel::default(), (60, 40))
            .with_stop(StopCondition::total_at_least(1_000));
        let report = backend("approx-majority").run(&scenario, &mut rng(7));
        assert_eq!(report.reason, StopReason::Absorbed);
        assert!(report.final_state.is_consensus());
        assert_eq!(report.final_state.total(), 100, "everyone committed");
    }

    #[test]
    fn sub_scheduler_populations_absorb_instead_of_panicking() {
        // Fewer than two agents and a stop condition that is not already
        // met: the scheduler can never fire an interaction, so the run is
        // absorbed (not a panic, unlike the steppers' constructors).
        let scenario =
            Scenario::new(LvModel::default(), (1, 0)).with_stop(StopCondition::total_at_least(10));
        for backend in all_protocol_backends() {
            let report = backend.run(&scenario, &mut rng(6));
            assert_eq!(report.reason, StopReason::Absorbed, "{}", backend.name());
            assert_eq!(report.events, 0, "{}", backend.name());
            assert_eq!(report.final_state.counts(), &[1, 0], "{}", backend.name());
        }
    }

    #[test]
    fn capability_flags_mark_the_baselines() {
        for backend in all_protocol_backends() {
            assert!(backend.supports_species(2), "{}", backend.name());
            assert!(!backend.models_kinetics(), "{}", backend.name());
            assert!(!backend.deterministic(), "{}", backend.name());
        }
        // Two-opinion protocols are two-species only; the conversion
        // dynamics run any k.
        assert!(!backend("approx-majority").supports_species(3));
        assert!(!backend("exact-majority").supports_species(3));
        assert!(!backend("annihilation-lv").supports_species(3));
        for name in ["czyzowicz-lv", "czyzowicz-lv-bridged"] {
            assert!(backend(name).supports_species(3), "{name}");
            assert!(backend(name).supports_species(6), "{name}");
        }
        // Every protocol row runs in count space.
        for backend in all_protocol_backends() {
            assert!(backend.batched(), "{}", backend.name());
        }
    }

    #[test]
    #[should_panic(expected = "cannot run 3-species")]
    fn k_species_scenarios_are_rejected_by_two_opinion_backends() {
        use lv_lotka::{CompetitionKind, MultiLvModel};
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![10, 10, 10]);
        let _ = backend("approx-majority").run(&scenario, &mut rng(5));
    }

    #[test]
    fn exact_majority_decides_the_true_majority_even_for_tiny_gaps() {
        // The defining property: the strong-token difference is invariant,
        // so any non-zero gap decides correctly — no threshold exists.
        let scenario = Scenario::majority(LvModel::default(), 26, 25);
        for seed in 0..10 {
            let report = backend("exact-majority").run(&scenario, &mut rng(seed));
            assert_eq!(report.backend, "exact-majority");
            assert!(report.consensus_reached(), "seed {seed} truncated");
            assert!(report.majority_won(), "seed {seed} decided the minority");
        }
    }

    #[test]
    fn annihilation_decides_any_gap_and_preserves_it() {
        let scenario = Scenario::majority(LvModel::default(), 51, 50);
        for seed in 0..10 {
            let report = backend("annihilation-lv").run(&scenario, &mut rng(seed));
            assert!(report.consensus_reached(), "seed {seed} truncated");
            assert!(report.majority_won(), "seed {seed} decided the minority");
            // The gap is invariant: exactly ∆ majority agents survive.
            assert_eq!(report.final_state.counts(), &[1, 0], "seed {seed}");
        }
    }

    #[test]
    fn tied_annihilation_runs_end_in_mutual_extinction() {
        let scenario = Scenario::majority(LvModel::default(), 40, 40);
        let report = backend("annihilation-lv").run(&scenario, &mut rng(8));
        assert!(report.consensus_reached());
        assert_eq!(
            report.final_state.counts(),
            &[0, 0],
            "complete annihilation"
        );
        assert_eq!(report.final_state.winner(), None);
    }

    #[test]
    fn conversions_are_classified_whichever_agent_the_scheduler_flips() {
        // Responder-side conversion: (StrongA, WeakB) → (StrongA, WeakA).
        let responder_side = classify(Some(0), Some(0), Some(1), Some(0));
        // Initiator-side conversion: (WeakB, StrongA) → (WeakA, StrongA) —
        // the regression case: the weak agent is the scheduled initiator,
        // so *its* output flips while the responder is unchanged.
        let initiator_side = classify(Some(1), Some(0), Some(0), Some(0));
        let expected = Some(PopulationEvent::Interspecific {
            attacker: 0,
            victim: 1,
        });
        assert_eq!(responder_side, expected);
        assert_eq!(initiator_side, expected, "initiator-side conversion lost");
        // Cancellation leaves both outputs unchanged: unclassified.
        assert_eq!(classify(Some(0), Some(0), Some(1), Some(1)), None);
        // Approx-majority shapes are untouched: cancel and recruit.
        assert_eq!(
            classify(Some(0), Some(0), Some(1), None),
            Some(PopulationEvent::Interspecific {
                attacker: 0,
                victim: 1
            })
        );
        assert_eq!(
            classify(Some(1), Some(1), None, Some(1)),
            Some(PopulationEvent::Birth(1))
        );
    }

    #[test]
    fn exact_majority_counts_conversions_from_both_scheduling_orders() {
        // Statistical regression for the initiator-side classification: to
        // reach consensus from (a, b), every one of the b minority agents
        // (and the majority agents weakened by cancellation) must be
        // converted individually, and roughly half of those conversions
        // schedule the weak agent as initiator. Consensus from (40, 20)
        // needs at least 20 + 2·(cancellations) conversions; with only
        // responder-side events classified the count halves, so requiring
        // the full minimum catches the regression deterministically. The
        // scenario has observers, so the counted path replays every
        // productive interaction of its windows through `classify`.
        let scenario = Scenario::majority(LvModel::default(), 40, 20);
        for seed in 0..5 {
            let report = backend("exact-majority").run(&scenario, &mut rng(seed));
            assert!(report.consensus_reached(), "seed {seed}");
            let outcome = report.to_majority_outcome();
            assert!(
                outcome.competitive_events >= 20,
                "seed {seed}: only {} conversions classified — initiator-side \
                 conversions are being dropped",
                outcome.competitive_events
            );
        }
    }

    #[test]
    fn exact_majority_classifies_conversions_as_competitive() {
        let scenario = Scenario::majority(LvModel::default(), 40, 20);
        let report = backend("exact-majority").run(&scenario, &mut rng(9));
        let outcome = report.to_majority_outcome();
        // Cancellations leave both outputs unchanged (strong → weak of the
        // same opinion), so the competitive events are the conversions.
        assert!(
            outcome.competitive_events > 0,
            "strong-recruits-weak conversions are competitive"
        );
        // The 4-state protocol never creates agents from blanks.
        assert_eq!(outcome.individual_events, 0);
    }

    #[test]
    fn tied_exact_majority_runs_absorb_when_the_tokens_run_out() {
        // From a tie the strong difference is 0: cancellations can exhaust
        // every token and freeze a mixed weak configuration. Without the
        // pair-inertness count check this would spin forever on the
        // unsatisfiable stop condition below.
        let scenario = Scenario::new(LvModel::default(), (20, 20))
            .with_stop(StopCondition::total_at_least(1_000));
        let report = backend("exact-majority").run(&scenario, &mut rng(10));
        assert_eq!(report.reason, StopReason::Absorbed);
        assert_eq!(report.final_state.total(), 40, "agents never disappear");
    }

    #[test]
    fn czyzowicz_conversions_preserve_the_population() {
        let scenario = Scenario::majority(LvModel::default(), 30, 20);
        let report = backend("czyzowicz-lv").run(&scenario, &mut rng(11));
        assert_eq!(report.backend, "czyzowicz-lv");
        assert!(report.consensus_reached());
        assert_eq!(report.final_state.total(), 50, "conversions preserve n");
        let outcome = report.to_majority_outcome();
        assert!(outcome.competitive_events > 0, "conversions are attacks");
        assert_eq!(
            outcome.individual_events, 0,
            "no births in a static population"
        );
    }

    #[test]
    fn czyzowicz_minority_can_win() {
        // The proportional law: from (30, 20) the minority wins 40% of runs,
        // so some seed in a small window must decide B.
        let scenario = Scenario::majority(LvModel::default(), 30, 20);
        let minority_wins = (0..20)
            .filter(|&seed| {
                let report = backend("czyzowicz-lv").run(&scenario, &mut rng(100 + seed));
                report.consensus_reached() && report.final_state.winner() == Some(1)
            })
            .count();
        assert!(minority_wins > 0, "no minority win in 20 seeded runs");
    }

    #[test]
    fn k_opinion_backend_runs_plurality_scenarios() {
        use lv_lotka::{CompetitionKind, MultiLvModel};
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![120, 40, 40]);
        let report = backend("czyzowicz-lv").run(&scenario, &mut rng(12));
        assert_eq!(report.backend, "czyzowicz-lv");
        assert!(report.consensus_reached());
        assert_eq!(
            report.final_state.total(),
            200,
            "conversions preserve the population"
        );
        assert!(report.final_state.is_consensus());
    }

    #[test]
    fn k_opinion_backend_follows_the_k_species_proportional_law() {
        use lv_lotka::{CompetitionKind, MultiLvModel};
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        // Species 0 holds half the population: it should win half the runs.
        let scenario = Scenario::plurality(model, vec![60, 30, 30])
            .with_stop(StopCondition::consensus().with_max_events(10_000_000));
        let trials = 300u64;
        let wins = (0..trials)
            .filter(|&seed| {
                let report = backend("czyzowicz-lv").run(&scenario, &mut rng(300 + seed));
                assert!(report.consensus_reached(), "seed {seed} truncated");
                report.final_state.winner() == Some(0)
            })
            .count();
        let fraction = wins as f64 / trials as f64;
        assert!(
            (fraction - 0.5).abs() < 0.09,
            "leader won {fraction}, k-species proportional law says 0.5"
        );
    }

    /// The fraction of `trials` hand-driven runs of the agent-list oracle
    /// [`ProtocolSimulation`] from `(a, b)`, on seeds `offset..`, that opinion
    /// A wins (a run stops once a committed count hits zero).
    fn agent_list_win_rate<P: PopulationProtocol>(
        protocol: &P,
        (a, b): (u64, u64),
        trials: u64,
        offset: u64,
    ) -> f64 {
        let wins = (0..trials)
            .filter(|&seed| {
                let mut sim = ProtocolSimulation::new(protocol, a, b);
                let mut r = rng(offset + seed);
                loop {
                    match sim.opinion_counts() {
                        (_, 0) => return true,
                        (0, _) => return false,
                        _ => sim.step(&mut r),
                    };
                }
            })
            .count();
        wins as f64 / trials as f64
    }

    #[test]
    fn batched_runs_match_agent_list_runs_statistically() {
        // The engine-level distributional cross-validation: batched
        // backends and the agent-list oracle must estimate the same win
        // probability. Three two-sample z tests at z = 3.59 (two-sided
        // 3.3·10⁻⁴ each, so the test fails a correct sampler at most once in
        // 10³ streams). At 650 trials per arm the z bound is at most
        // 3.59·√(2·¼/650) = 0.0996, inside the |Δp| < 0.1 this test held
        // before, so it detects every deviation it did.
        let scenario = Scenario::new(LvModel::default(), (90, 70))
            .with_stop(StopCondition::any_species_extinct().with_max_events(10_000_000));
        let trials = 650u64;
        let p_approx = agent_list_win_rate(&ApproximateMajority::new(), (90, 70), trials, 2_000);
        let p_czyzowicz = agent_list_win_rate(&CzyzowiczLvProtocol::new(), (90, 70), trials, 2_000);
        for (batched, p_agents) in [
            (backend("approx-majority"), p_approx),
            (backend("czyzowicz-lv"), p_czyzowicz),
            (backend("czyzowicz-lv-bridged"), p_czyzowicz),
        ] {
            let p_batched = (0..trials)
                .filter(|&seed| {
                    let report = batched.run(&scenario, &mut rng(1_000 + seed));
                    report.final_state.winner() == Some(0)
                })
                .count() as f64
                / trials as f64;
            let pooled = (p_batched + p_agents) / 2.0;
            let bound = 3.59 * (2.0 * pooled * (1.0 - pooled) / trials as f64).sqrt();
            assert!(
                (p_batched - p_agents).abs() <= bound,
                "{}: batched {p_batched} vs agent-list {p_agents} (bound {bound:.4})",
                batched.name()
            );
        }
    }

    #[test]
    fn conversion_rows_keep_windows_at_the_sweep_points() {
        // protocol-sweep's exact conversion points: `czyzowicz-lv` at
        // n = 1000 and `czyzowicz-lv-k` at n = 999 over three opinions. An
        // epoch holds so few interactions there that even a window drawing
        // every interaction as a candidate is cheaper, so the rule keeps
        // windows for whole runs and the rows draw exactly what a bare
        // window loop draws.
        for n in [1_000u64, 999] {
            let epoch = BatchLengthSampler::shared(n).mean() + 1.0;
            assert!(window_pays(1.0, epoch), "n = {n}: E[ℓ] + 1 = {epoch:.1}");
        }
        use lv_lotka::{CompetitionKind, MultiLvModel};
        let k3 = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let points = [
            (
                "czyzowicz-lv",
                Scenario::new(LvModel::default(), (850, 150)).with_stop(
                    StopCondition::any_species_extinct().with_max_events(4 * 1_000 * 1_000),
                ),
            ),
            (
                "czyzowicz-lv-k",
                Scenario::new(k3, vec![799, 100, 100])
                    .with_stop(StopCondition::consensus().with_max_events(4 * 999 * 999)),
            ),
        ];
        for (name, scenario) in points {
            let budget = scenario.stop().max_events().unwrap();
            for seed in 0..4 {
                let report = backend(name).run(&scenario, &mut rng(seed));
                let mut r = rng(seed);
                let mut walk = BridgedConversionWalk::new(scenario.initial().counts());
                while !walk.is_absorbed() && walk.interactions() < budget {
                    walk.step_window(&mut r, budget - walk.interactions());
                }
                assert_eq!(report.final_state.counts(), walk.counts(), "{name}");
                assert_eq!(report.events, walk.interactions(), "{name}");
            }
        }
    }

    #[test]
    fn large_populations_hand_over_between_epochs_and_windows() {
        // At n = 10⁶ an epoch holds ~600 interactions, so the rule starts
        // every row below on epochs; a budget cut lands exactly on the
        // budget either way, and agents are conserved across the hand-overs.
        let scenario = Scenario::new(LvModel::default(), (520_000, 480_000))
            .with_stop(StopCondition::any_species_extinct().with_max_events(123_457));
        for name in [
            "approx-majority",
            "exact-majority",
            "annihilation-lv",
            "czyzowicz-lv",
        ] {
            let report = backend(name).run(&scenario, &mut rng(17));
            assert_eq!(report.reason, StopReason::MaxEventsReached, "{name}");
            assert_eq!(report.events, 123_457, "{name}");
            assert!(
                report.steps * 100 < report.events,
                "{name}: {} steps",
                report.steps
            );
            if name.starts_with("czyzowicz") {
                assert_eq!(report.final_state.total(), 1_000_000, "{name}");
            }
        }
        // Near consensus the windows take over, and a window ends on the
        // interaction that empties the minority: the run stops right there,
        // with the blanks it has not yet recruited.
        let endgame = Scenario::new(LvModel::default(), (999_990, 10));
        let report = backend("approx-majority").run(&endgame, &mut rng(18));
        assert!(report.consensus_reached());
        assert_eq!(report.final_state.count(1), 0);
        assert!(report.final_state.count(0) < 1_000_000);
    }

    #[test]
    fn bridged_backend_preserves_the_population_and_decides() {
        // Large enough that block bridging (not just band stepping) carries
        // most of the run.
        let scenario = Scenario::new(LvModel::default(), (60_000, 40_000))
            .with_stop(StopCondition::any_species_extinct().with_max_events(u64::MAX / 2));
        let report = backend("czyzowicz-lv-bridged").run(&scenario, &mut rng(13));
        assert_eq!(report.backend, "czyzowicz-lv-bridged");
        assert!(report.consensus_reached());
        assert_eq!(
            report.final_state.total(),
            100_000,
            "conversions preserve n"
        );
        // A conversion trial near this gap needs Ω(n) interactions but the
        // bridged walk resolves them in very few recorded steps.
        assert!(report.events >= 100_000, "{} interactions", report.events);
        assert!(
            report.steps < 100_000,
            "bridging did not aggregate: {} steps for {} events",
            report.steps,
            report.events
        );
    }

    #[test]
    fn bridged_event_budget_is_exact_even_on_the_block_path() {
        // The budget is far above MIN_BLOCK so bridge blocks really fire,
        // yet truncation must land on the exact event count: oversized
        // blocks are refused (falling back to exact thinning windows), never
        // clipped or overshot.
        let scenario = Scenario::new(LvModel::default(), (500_000, 480_000))
            .with_stop(StopCondition::any_species_extinct().with_max_events(123_456));
        let report = backend("czyzowicz-lv-bridged").run(&scenario, &mut rng(14));
        assert_eq!(report.reason, StopReason::MaxEventsReached);
        assert_eq!(report.events, 123_456);
    }

    #[test]
    fn bridged_backend_follows_the_proportional_law() {
        // P(A wins) = a/n exactly for the conversion dynamics; at n = 1000
        // the bridged walk mixes block and band regimes. 300 trials at
        // p = 0.6 give a ~±0.055 (2σ) band.
        let scenario = Scenario::new(LvModel::default(), (600, 400))
            .with_stop(StopCondition::any_species_extinct().with_max_events(u64::MAX / 2));
        let trials = 300u64;
        let wins = (0..trials)
            .filter(|&seed| {
                let report = backend("czyzowicz-lv-bridged").run(&scenario, &mut rng(500 + seed));
                assert!(report.consensus_reached(), "seed {seed} truncated");
                report.final_state.winner() == Some(0)
            })
            .count();
        let fraction = wins as f64 / trials as f64;
        assert!(
            (fraction - 0.6).abs() < 0.09,
            "majority won {fraction}, proportional law says 0.6"
        );
    }

    #[test]
    fn k_bridged_backend_follows_the_k_species_proportional_law() {
        use lv_lotka::{CompetitionKind, MultiLvModel};
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![300, 150, 150])
            .with_stop(StopCondition::consensus().with_max_events(u64::MAX / 2));
        let trials = 300u64;
        let wins = (0..trials)
            .filter(|&seed| {
                let report = backend("czyzowicz-lv-bridged").run(&scenario, &mut rng(700 + seed));
                assert!(report.consensus_reached(), "seed {seed} truncated");
                report.final_state.winner() == Some(0)
            })
            .count();
        let fraction = wins as f64 / trials as f64;
        assert!(
            (fraction - 0.5).abs() < 0.09,
            "leader won {fraction}, k-species proportional law says 0.5"
        );
    }
}
