//! A two-strain bioreactor consortium, simulated with the full chemical
//! reaction network machinery (continuous time) rather than the specialised
//! jump chain.
//!
//! The scenario follows the paper's biological interpretation (Section 1.3):
//! two engineered E. coli strains in a well-mixed bioreactor during the
//! exponential growth phase, with a lysis-based (self-destructive)
//! interference circuit. We step the Gillespie direct method by hand to
//! track simulated time, record the trajectory as we go, and demonstrate
//! what happens when the
//! strains additionally carry an intraspecific-competition circuit (Table 1
//! row 2: the amplification property collapses).
//!
//! ```sh
//! cargo run --release --example bioreactor_consortium
//! ```

use lv_consensus::crn::prelude::*;
use lv_consensus::lotka::{CompetitionKind, LvModel};
use lv_consensus::sim::{MonteCarlo, Seed};
use rand::SeedableRng;

fn main() {
    // Strain parameters: doubling every ~30 min ⇒ β ≈ 1.4 h⁻¹; a small basal
    // death rate; a lysis-mediated interference circuit.
    let (beta, delta, alpha) = (1.4, 0.1, 0.002);
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, beta, delta, alpha);
    let network = model
        .to_reaction_network()
        .expect("the model has positive rates");
    let x0 = network.species_by_name("X0").unwrap();
    let x1 = network.species_by_name("X1").unwrap();

    // Inoculate with 620 vs 580 cells (a ~3% difference) and step until one
    // strain is extinct (at most 5·10⁶ reactions), recording
    // `(time, X0, X1)` before the first reaction and after every one.
    let initial = State::from(vec![620, 580]);
    let rng = rand::rngs::StdRng::seed_from_u64(33);
    let mut sim = GillespieDirect::new(&network, initial, rng);
    let point = |time: f64, state: &State| (time, state.count(x0), state.count(x1));
    let mut points = vec![point(sim.time(), sim.state())];
    while !sim.state().any_extinct() && sim.events() < 5_000_000 && sim.step().is_some() {
        points.push(point(sim.time(), sim.state()));
    }

    println!("bioreactor run ({}):", model);
    println!(
        "  consensus after {:.2} simulated hours and {} reactions",
        sim.time(),
        sim.events()
    );
    println!(
        "  final composition: X0 = {}, X1 = {}",
        sim.state().count(x0),
        sim.state().count(x1)
    );

    // Print a coarse time series of the two strains.
    println!("  time series (every ~tenth of the run):");
    for &(time, a, b) in points.iter().step_by((points.len() / 10).max(1)) {
        println!(
            "    t = {:6.2} h   X0 = {:6}   X1 = {:6}   gap = {:5}",
            time,
            a,
            b,
            a as i64 - b as i64
        );
    }

    // How reliable is the 3% read-out? Compare against the same circuit with
    // an added intraspecific-competition plasmid (the regime of Theorem 20).
    let trials = 200;
    let mc = MonteCarlo::new(trials, Seed::from(9));
    let p_clean = mc.success_probability(&model, 620, 580).point();
    let with_intra = LvModel::with_intraspecific(
        CompetitionKind::SelfDestructive,
        beta,
        delta,
        alpha,
        2.0 * alpha,
    );
    let p_intra = mc.success_probability(&with_intra, 620, 580).point();
    println!("\nreliability of the 3% differential read-out over {trials} runs:");
    println!("  interspecific interference only : {p_clean:.3}");
    println!(
        "  + balanced intraspecific circuit: {p_intra:.3} (collapses towards a/(a+b) = 0.517)"
    );
}
