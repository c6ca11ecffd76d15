//! Cross-simulator integration tests: the exact simulators must agree in
//! distribution, and the approximate one must agree on coarse statistics.

use lv_crn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The self-destructive Lotka–Volterra network of Eq. (1) with unit rates and
/// no intraspecific competition.
fn lv_self_destructive() -> (ValidatedNetwork, SpeciesId, SpeciesId) {
    let mut net = ReactionNetwork::new();
    let x0 = net.add_species("X0");
    let x1 = net.add_species("X1");
    for (a, b) in [(x0, x1), (x1, x0)] {
        net.add_reaction(Reaction::new(1.0).reactant(a, 1).product(a, 2));
        net.add_reaction(Reaction::new(1.0).reactant(a, 1));
        net.add_reaction(Reaction::new(1.0).reactant(a, 1).reactant(b, 1));
    }
    (net.validate().unwrap(), x0, x1)
}

/// Steps `sim` until a species is extinct, `max_events` events have fired,
/// or the process is absorbed.
fn run_to_extinction(sim: &mut impl StochasticSimulator, max_events: u64) {
    while !sim.state().any_extinct() && sim.events() < max_events && sim.step().is_some() {}
}

/// Estimates the probability that species `x0` wins majority consensus from
/// the initial state `(a, b)` under the given simulator constructor.
fn majority_probability<F>(trials: u64, a: u64, b: u64, mut run: F) -> f64
where
    F: FnMut(State, StdRng) -> State,
{
    let mut wins = 0u64;
    for t in 0..trials {
        let final_state = run(State::from(vec![a, b]), rng(10_000 + t));
        if final_state.count(SpeciesId::new(0)) > 0 && final_state.count(SpeciesId::new(1)) == 0 {
            wins += 1;
        }
    }
    wins as f64 / trials as f64
}

#[test]
fn direct_and_jump_chain_agree_on_majority_probability() {
    let (net, _, _) = lv_self_destructive();
    let trials = 300;

    let p_direct = majority_probability(trials, 30, 20, |initial, r| {
        let mut sim = GillespieDirect::new(&net, initial, r);
        run_to_extinction(&mut sim, 1_000_000);
        sim.state().clone()
    });
    let p_jump = majority_probability(trials, 30, 20, |initial, r| {
        let mut sim = JumpChain::new(&net, initial, r);
        run_to_extinction(&mut sim, 1_000_000);
        sim.state().clone()
    });

    assert!(
        (p_direct - p_jump).abs() < 0.12,
        "direct {p_direct} vs jump chain {p_jump}"
    );
    // Majority should win well over half the time with a 50% relative gap.
    assert!(
        p_direct > 0.6,
        "direct method majority probability {p_direct}"
    );
    assert!(p_jump > 0.6, "jump chain majority probability {p_jump}");
}

/// Both exact simulators count every reaction, so their mean event counts
/// to consensus agree.
#[test]
fn jump_chain_agrees_with_direct_on_consensus_events() {
    let (net, _, _) = lv_self_destructive();
    let trials = 200;

    let mean_events = |which: &str| -> f64 {
        let mut total = 0u64;
        for t in 0..trials {
            let initial = State::from(vec![25, 15]);
            total += match which {
                "direct" => {
                    let mut sim = GillespieDirect::new(&net, initial, rng(500 + t));
                    run_to_extinction(&mut sim, 1_000_000);
                    sim.events()
                }
                _ => {
                    let mut sim = JumpChain::new(&net, initial, rng(500 + t));
                    run_to_extinction(&mut sim, 1_000_000);
                    sim.events()
                }
            };
        }
        total as f64 / trials as f64
    };

    let direct = mean_events("direct");
    let jump = mean_events("jump");
    let relative = (direct - jump).abs() / direct.max(jump);
    assert!(
        relative < 0.15,
        "mean consensus events differ: direct {direct}, jump chain {jump}"
    );
}

#[test]
fn tau_leaping_tracks_exact_mean_population() {
    // Logistic-like growth: birth plus intraspecific death keeps the
    // population near a carrying capacity; tau-leaping should agree with the
    // exact simulator on the mean population at a fixed time.
    let mut net = ReactionNetwork::new();
    let a = net.add_species("A");
    net.add_reaction(Reaction::new(1.0).reactant(a, 1).product(a, 2));
    net.add_reaction(Reaction::new(0.002).reactant(a, 2).product(a, 1));
    let net = net.validate().unwrap();

    let horizon = 5.0;
    let trials = 40;
    let count_at = |sim: &mut dyn StochasticSimulator| {
        while sim.time() < horizon && sim.step().is_some() {}
        sim.state().counts()[0] as f64
    };
    let mean_final = |exact: bool| -> f64 {
        let mut total = 0.0;
        for t in 0..trials {
            let initial = State::from(vec![50]);
            total += if exact {
                count_at(&mut GillespieDirect::new(&net, initial, rng(900 + t)))
            } else {
                count_at(&mut TauLeaping::new(&net, initial, 0.02, rng(900 + t)))
            };
        }
        total / trials as f64
    };

    let exact = mean_final(true);
    let approx = mean_final(false);
    let relative = (exact - approx).abs() / exact;
    assert!(
        relative < 0.1,
        "exact mean {exact} vs tau-leaping mean {approx}"
    );
}

#[test]
fn trajectory_gap_series_starts_at_initial_gap() {
    let (net, x0, x1) = lv_self_destructive();
    let mut sim = JumpChain::new(&net, State::from(vec![70, 30]), rng(42));
    let gap = |state: &State| state.count(x0) as i64 - state.count(x1) as i64;
    let mut gaps = vec![gap(sim.state())];
    while !sim.state().any_extinct() && sim.step().is_some() {
        gaps.push(gap(sim.state()));
    }
    assert_eq!(gaps[0], 40);
    assert_eq!(gaps.len() as u64, sim.events() + 1);
    // The gap changes by at most 1 per event under self-destructive
    // competition with individual births/deaths.
    for w in gaps.windows(2) {
        assert!((w[0] - w[1]).abs() <= 1);
    }
}
