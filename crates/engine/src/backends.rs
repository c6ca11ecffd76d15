//! The run fns of the Lotka–Volterra backends: one exact specialised jump
//! chain, two generic CRN simulators, and the deterministic ODE — all
//! defined over `k`-species scenarios. Their registry rows are in
//! `registry.rs`.

use crate::backend::{event_budget, Driver};
use crate::report::RunReport;
use crate::scenario::{Scenario, ScenarioModel};
use lv_crn::simulators::{GillespieDirect, JumpChain, StochasticSimulator, TauLeaping};
use lv_crn::{State, StopReason};
use lv_lotka::{CompetitionKind, LvJumpChain, LvModel, MultiLvModel, Population, PopulationEvent};
use lv_ode::{CompetitiveLv, CompetitiveLvK, DynRk4, OdeSystem, Rk4};
use rand::rngs::StdRng;

/// `"jump-chain"`: the exact discrete-time jump chain (the paper's chain
/// `S = (S_t)`).
///
/// Two-species scenarios run on [`LvJumpChain`], the bespoke specialised
/// stepper migrated from `lv_lotka::run_majority`: on the same RNG stream its
/// per-step path visits exactly the same states, so the reports of observed
/// scenarios reproduce `run_majority` bit for bit. `k`-species scenarios run
/// the same embedded jump chain through the generic CRN simulator
/// ([`lv_crn::simulators::JumpChain`]) on the model's reaction network.
///
/// A two-species scenario with no observers whose state condition is
/// exactly "a species is extinct" (see
/// [`StopCondition::is_first_extinction`](lv_crn::StopCondition::is_first_extinction))
/// runs as one call of [`LvJumpChain::run_to_consensus`], with the budgets
/// turned into one event budget (the chain's clock is its event count). For
/// models with interspecific competition only, that kernel skips whole runs
/// of competitions, so its report — final state, events, steps, time and
/// stop reason — is **exact in law**: it has the per-step path's
/// distribution, on a different RNG stream. Budget stops keep the per-step
/// path's reason and event count exactly. Models with intraspecific
/// competition still step inside the kernel and reproduce the per-step path
/// bit for bit. Every other two-species scenario (any observer, predicate,
/// population threshold or `or`-composed condition) steps through the
/// shared driver.
pub(crate) fn jump_chain(name: &'static str, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
    let model = match scenario.model() {
        ScenarioModel::TwoSpecies(model) => model,
        ScenarioModel::MultiSpecies(_) => {
            // The generic CRN jump chain simulates the identical embedded
            // chain; only the two-species case has a faster specialised
            // stepper.
            let crn = scenario.crn_form();
            let mut sim = JumpChain::new(&crn.network, initial_state(scenario), rng);
            return drive_crn(name, scenario, &mut sim, &crn.events);
        }
    };
    let initial = scenario
        .initial()
        .as_lv_configuration()
        .expect("two-species model has a two-species initial population");
    let mut chain = LvJumpChain::new(*model, initial);
    let stop = scenario.stop();
    if scenario.observers().is_empty() && stop.is_first_extinction(2) {
        let events = chain.run_to_consensus(event_budget(stop), rng);
        let time = events as f64;
        // The per-step path's order: state condition, then events, then
        // time; a run that ends short of all three was absorbed.
        let reason = if chain.state().is_consensus() {
            StopReason::ConditionMet
        } else if events >= stop.max_events().unwrap_or(u64::MAX) {
            StopReason::MaxEventsReached
        } else if stop.max_time().is_some_and(|max_time| time >= max_time) {
            StopReason::MaxTimeReached
        } else {
            StopReason::Absorbed
        };
        let (x0, x1) = chain.state().counts();
        return RunReport::new(
            name,
            scenario.initial().clone(),
            Population::new(vec![x0, x1]),
            reason,
            events,
            events,
            time,
            Vec::new(),
        );
    }
    let mut driver = Driver::new(scenario);
    loop {
        if let Some(reason) = driver.check_stop() {
            return driver.finish(name, reason);
        }
        match chain.step(rng) {
            Some(event) => {
                let time = (driver.events() + 1) as f64;
                let (x0, x1) = chain.state().counts();
                driver.record(Some(event.into()), &[x0, x1], time, 1);
            }
            None => return driver.finish(name, StopReason::Absorbed),
        }
    }
}

/// `"gillespie-direct"`: exact continuous-time simulation with
/// reaction-local propensity updates.
pub(crate) fn gillespie_direct(
    name: &'static str,
    scenario: &Scenario,
    rng: &mut StdRng,
) -> RunReport {
    let crn = scenario.crn_form();
    let mut sim = GillespieDirect::new(&crn.network, initial_state(scenario), rng);
    drive_crn(name, scenario, &mut sim, &crn.events)
}

/// `"tau-leaping"`: approximate explicit tau-leaping with the leap length
/// [`Scenario::tau`].
pub(crate) fn tau_leaping(name: &'static str, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
    let crn = scenario.crn_form();
    let mut sim = TauLeaping::new(&crn.network, initial_state(scenario), scenario.tau(), rng);
    drive_crn(name, scenario, &mut sim, &crn.events)
}

/// Drives any generic CRN simulator through the shared [`Driver`].
fn drive_crn<S: StochasticSimulator>(
    name: &'static str,
    scenario: &Scenario,
    sim: &mut S,
    event_map: &[PopulationEvent],
) -> RunReport {
    let mut driver = Driver::new(scenario);
    loop {
        if let Some(reason) = driver.check_stop() {
            return driver.finish(name, reason);
        }
        let events_before = sim.events();
        match sim.step() {
            Some(event) => {
                let firings = sim.events() - events_before;
                // A step representing exactly one firing is a resolved event;
                // multi-firing leaps (and empty leaps, which report no
                // reaction at all) stay unclassified.
                let lv_event = match event.reaction {
                    Some(reaction) if firings == 1 => Some(event_map[reaction.index()]),
                    _ => None,
                };
                driver.record(lv_event, sim.state().counts(), sim.time(), firings);
            }
            None => return driver.finish(name, StopReason::Absorbed),
        }
    }
}

fn initial_state(scenario: &Scenario) -> State {
    State::from(scenario.initial().counts())
}

/// The two-species mean-field ODE of a model: the symmetric competitive
/// Lotka–Volterra system of Eq. 4 that the `"ode"` backend integrates.
///
/// Densities map to the symmetric ODE coefficients as follows
/// (neutral-rate interpretation; per-event population loss divided by the
/// event rate):
///
/// | competition | `α′` | `γ′` |
/// |---|---|---|
/// | self-destructive | `α_0 + α_1` | `(γ_0 + γ_1)/2` |
/// | non-self-destructive | `(α_0 + α_1)/2` | `(γ_0 + γ_1)/4` |
pub fn mean_field_system(model: &LvModel) -> CompetitiveLv {
    let rates = model.rates();
    let (alpha_factor, gamma_factor) = match model.kind() {
        CompetitionKind::SelfDestructive => (1.0, 0.5),
        CompetitionKind::NonSelfDestructive => (0.5, 0.25),
    };
    CompetitiveLv::new(
        rates.beta - rates.delta,
        alpha_factor * rates.alpha_total(),
        gamma_factor * rates.gamma_total(),
    )
}

/// The `k`-species mean-field ODE for a multi-species model:
/// `dx_i/dt = x_i (r_i − Σ_j a_ij x_j)` with `r` the per-species growth
/// rates and `a` the [`MultiLvModel::mean_field_matrix`], the per-entry
/// generalisation of [`mean_field_system`]'s mapping.
fn mean_field_system_k(model: &MultiLvModel) -> CompetitiveLvK {
    CompetitiveLvK::new(model.growth_rates(), model.mean_field_matrix())
}

fn rounded_count(v: f64) -> u64 {
    if v <= 0.0 {
        0
    } else {
        v.round() as u64
    }
}

/// The shared adaptive-step control: bound the per-step *relative* change of
/// every species to ~5% (mass-action propensities scale with population
/// products, so a fixed step would be unstable for large populations).
fn adaptive_step(y: &[f64], dy: &[f64], step_cap: f64, remaining: f64) -> f64 {
    let mut rate = 0.0f64;
    for (value, slope) in y.iter().zip(dy) {
        rate = rate.max(slope.abs() / value.max(1.0));
    }
    let h = if rate > 0.0 {
        (0.05 / rate).min(step_cap)
    } else {
        step_cap
    };
    h.min(remaining)
}

/// `"ode"`: integrates the mean-field ODE ([`mean_field_system`], or its
/// `k`-species generalisation on [`CompetitiveLvK`]) with RK4 and reports
/// the rounded trajectory through the same scenario interface.
///
/// The backend is deterministic: the RNG argument is ignored, `events` stays
/// zero and `steps` counts integration steps. Because no reactions fire, a
/// scenario's `max_events` budget is applied to integration *steps* instead,
/// so every budgeted scenario still terminates (and truncates) on this
/// backend like on the stochastic ones. Step sizes adapt to the local
/// dynamics (at most ~5% relative change per species per step, capped at
/// [`ODE_MAX_STEP`]), which keeps the integration stable for the large
/// mass-action propensities of big populations. A species is considered
/// extinct when its density drops below one half (the rounded count hits
/// zero). When the stop condition has no `max_time`, integration stops at
/// [`ODE_HORIZON`].
pub(crate) fn ode(name: &'static str, scenario: &Scenario, _rng: &mut StdRng) -> RunReport {
    match scenario.model() {
        ScenarioModel::TwoSpecies(model) => {
            let system = mean_field_system(model);
            let sys = &system;
            run_ode(
                name,
                scenario,
                |y, dy| {
                    let d = sys.derivative(&[y[0], y[1]]);
                    dy.copy_from_slice(&d);
                },
                |y, h| {
                    let next = Rk4::single_step(sys, [y[0], y[1]], h);
                    y.copy_from_slice(&next);
                },
            )
        }
        ScenarioModel::MultiSpecies(model) => {
            let system = mean_field_system_k(model);
            let mut stepper = DynRk4::new(model.species_count());
            let sys = &system;
            run_ode(
                name,
                scenario,
                |y, dy| sys.derivative_into(y, dy),
                |y, h| stepper.step(sys, y, h),
            )
        }
    }
}

/// The ODE backend's maximum integration step.
const ODE_MAX_STEP: f64 = 0.5;

/// The ODE backend's time horizon for stop conditions without `max_time`.
const ODE_HORIZON: f64 = 1_000.0;

/// The shared ODE driver loop, parameterised over the derivative and the
/// RK4 step (two-species const-generic path vs `k`-species dynamic path —
/// identical control flow, so both truncate, adapt and round the same way).
fn run_ode(
    name: &'static str,
    scenario: &Scenario,
    mut derivative: impl FnMut(&[f64], &mut [f64]),
    mut rk4_step: impl FnMut(&mut [f64], f64),
) -> RunReport {
    let horizon = scenario.stop().max_time().unwrap_or(ODE_HORIZON);
    let mut y: Vec<f64> = scenario
        .initial()
        .counts()
        .iter()
        .map(|&c| c as f64)
        .collect();
    let mut dy = vec![0.0; y.len()];
    let mut counts = vec![0u64; y.len()];
    let mut t = 0.0;
    let mut driver = Driver::new(scenario);
    loop {
        if let Some(reason) = driver.check_stop() {
            return driver.finish(name, reason);
        }
        // No reactions fire here, so the event budget (always vacuous on
        // `driver.events()`) bounds integration steps instead — without
        // this a scenario budgeted only by `max_events` would silently
        // run to the horizon.
        if let Some(max_events) = scenario.stop().max_events() {
            if driver.steps() >= max_events {
                return driver.finish(name, StopReason::MaxEventsReached);
            }
        }
        if t >= horizon {
            return driver.finish(name, StopReason::MaxTimeReached);
        }
        derivative(&y, &mut dy);
        let h = adaptive_step(&y, &dy, ODE_MAX_STEP, horizon - t);
        rk4_step(&mut y, h);
        for value in y.iter_mut() {
            *value = value.max(0.0);
        }
        t += h;
        for (count, &value) in counts.iter_mut().zip(&y) {
            *count = rounded_count(value);
        }
        driver.record(None, &counts, t, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::ObserverSpec;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Runs `scenario` on the registered backend `name`.
    fn run(name: &str, scenario: &Scenario, seed: u64) -> RunReport {
        crate::backend(name).unwrap().run(scenario, &mut rng(seed))
    }

    #[test]
    fn jump_chain_backend_reaches_consensus() {
        let scenario = Scenario::majority(LvModel::default(), 60, 40);
        let report = run("jump-chain", &scenario, 1);
        assert!(report.consensus_reached());
        assert!(!report.truncated());
        assert_eq!(report.events, report.steps);
        assert_eq!(report.time, report.events as f64);
        let counts = report.event_counts().unwrap();
        assert_eq!(counts.individual + counts.competitive, report.events);
        assert_eq!(counts.unclassified, 0);
    }

    #[test]
    fn jump_chain_backend_runs_three_species_scenarios() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![60, 25, 15]);
        let report = run("jump-chain", &scenario, 5);
        assert_eq!(report.species_count(), 3);
        assert!(report.consensus_reached());
        assert_eq!(report.events, report.steps);
        // Jump-chain clock: time is the event count.
        assert_eq!(report.time, report.events as f64);
        let outcome = report.to_plurality_outcome();
        assert_eq!(outcome.initial_leader, Some(0));
        assert!(outcome.winner.is_some() || outcome.final_state.total() == 0);
    }

    #[test]
    fn continuous_backends_report_physical_time() {
        let scenario = Scenario::majority(LvModel::default(), 30, 20);
        let report = run("gillespie-direct", &scenario, 2);
        assert!(report.consensus_reached());
        assert!(report.time > 0.0);
        assert_eq!(report.events, report.steps);
    }

    #[test]
    fn tau_leaping_counts_firings_not_leaps() {
        let scenario = Scenario::majority(LvModel::default(), 400, 300).with_tau(0.05);
        let report = run("tau-leaping", &scenario, 3);
        assert!(report.consensus_reached());
        assert!(
            report.steps < report.events,
            "leaps {} should aggregate firings {}",
            report.steps,
            report.events
        );
    }

    #[test]
    fn ode_backend_is_deterministic_and_picks_the_majority() {
        let scenario =
            Scenario::majority(LvModel::default(), 600, 400).observe(ObserverSpec::GapTrajectory);
        let a = run("ode", &scenario, 4);
        let b = run("ode", &scenario, 999);
        assert_eq!(a, b, "ODE backend must ignore the RNG");
        assert!(a.consensus_reached());
        assert_eq!(a.final_state.winner(), a.initial.leader());
        assert_eq!(a.events, 0);
        assert!(a.steps > 0);
        // The recorded trajectory starts at the initial gap.
        assert_eq!(a.gap_trajectory().unwrap()[0], 200);
    }

    #[test]
    fn ode_backend_integrates_k_species_mean_field() {
        // Symmetric competitive exclusion: the planted 3-species majority
        // deterministically wins under the mean field.
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![500, 300, 200]);
        let a = run("ode", &scenario, 6);
        let b = run("ode", &scenario, 77);
        assert_eq!(a, b, "ODE backend must ignore the RNG");
        assert!(a.consensus_reached());
        assert_eq!(a.final_state.winner(), Some(0));
        assert_eq!(a.events, 0);
        assert!(a.steps > 0);
    }

    #[test]
    fn ode_backend_mean_field_mapping_matches_kind() {
        let sd = mean_field_system(&LvModel::neutral(
            CompetitionKind::SelfDestructive,
            1.0,
            0.25,
            2.0,
        ));
        assert_eq!(sd.growth_rate(), 0.75);
        assert_eq!(sd.interspecific(), 2.0);
        let nsd = mean_field_system(&LvModel::neutral(
            CompetitionKind::NonSelfDestructive,
            1.0,
            0.25,
            2.0,
        ));
        assert_eq!(nsd.interspecific(), 1.0);
    }

    #[test]
    fn two_species_mean_field_agrees_with_the_multi_mapping() {
        // For a neutral model the symmetric two-species system and the k = 2
        // multi mapping must be the same ODE.
        for kind in [
            CompetitionKind::SelfDestructive,
            CompetitionKind::NonSelfDestructive,
        ] {
            let model = LvModel::with_intraspecific(kind, 1.0, 0.5, 2.0, 1.0);
            let symmetric = mean_field_system(&model);
            let multi = mean_field_system_k(&MultiLvModel::from(model));
            let y = [7.0, 3.0];
            let reference = symmetric.derivative(&y);
            let mut out = [0.0; 2];
            multi.derivative_into(&y, &mut out);
            assert!(
                (out[0] - reference[0]).abs() < 1e-12 && (out[1] - reference[1]).abs() < 1e-12,
                "{kind:?}: {out:?} vs {reference:?}"
            );
        }
    }
}
