//! Tour of the unified `Scenario`/`Backend` API: describe one majority-
//! consensus run, then execute it on every backend in the registry — the
//! exact jump chain, the Gillespie direct method, tau-leaping, the
//! deterministic mean-field ODE and the protocol baselines — and compare
//! what each one reports.
//!
//! ```sh
//! cargo run --release --example backend_tour
//! ```

use lv_consensus::engine::{BackendRegistry, ObserverSpec, Scenario};
use lv_consensus::lotka::{CompetitionKind, LvModel};
use lv_consensus::sim::{MonteCarlo, Seed};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let (a, b) = (550u64, 450u64);

    // One description of *what* to simulate...
    let scenario = Scenario::majority(model, a, b).observe(ObserverSpec::GapTrajectory);

    println!("scenario: {model}, initial ({a}, {b}), stop at consensus\n");
    println!(
        "{:>17} | {:>8} | {:>9} | {:>10} | winner",
        "backend", "events", "steps", "clock"
    );
    println!("{}", "-".repeat(62));

    // ...executed by every *how* in the registry.
    for backend in BackendRegistry::global().iter() {
        let mut rng = StdRng::seed_from_u64(2024);
        let report = backend.run(&scenario, &mut rng);
        println!(
            "{:>17} | {:>8} | {:>9} | {:>10.4} | {:?}",
            backend.name(),
            report.events,
            report.steps,
            report.time,
            report.final_state.winner(),
        );
    }

    // The derived majority view carries the paper's per-run observables.
    let jump = BackendRegistry::global().get("jump-chain").unwrap();
    let outcome = jump
        .run(&scenario, &mut StdRng::seed_from_u64(2024))
        .to_majority_outcome();
    println!(
        "\njump chain observables: T(S) = {}, I(S) = {}, K(S) = {}, J(S) = {}, F = {}",
        outcome.events,
        outcome.individual_events,
        outcome.competitive_events,
        outcome.bad_noncompetitive_events,
        outcome.noise.total(),
    );

    // And the Monte-Carlo layer estimates over scenario batches on any
    // backend — seeded, thread-count independent.
    for name in ["jump-chain", "tau-leaping"] {
        let mc = MonteCarlo::new(400, Seed::from(7)).with_backend(name);
        let rho = mc.success_probability(&model, a, b);
        println!("rho({a}, {b}) on {name:>11}: {:.4}", rho.point());
    }
}
