//! Large-`n` protocol threshold sweeps on the count-based batched backends —
//! an E16-style run at population sizes the agent-list stepper could never
//! afford interactively.
//!
//! ```text
//! cargo run --release --example large_n_thresholds
//! ```
//!
//! Four demonstrations:
//!
//! 1. the adaptive threshold search for the batched 3-state approximate-
//!    majority backend at `n = 10⁵` and `n = 10⁶` (each probe runs whole
//!    epochs of `Θ(√n)` interactions per handful of hypergeometric draws);
//! 2. the Czyzowicz conversion dynamics at smaller `n` for the linear-law
//!    contrast (their `Θ(n²)` interactions per trial — not the simulator —
//!    are what caps the counted stepper's size);
//! 3. the *diffusion-bridged* Czyzowicz backend carrying that same linear
//!    law to `n = 10⁷`: whole stretches of the count random walk are
//!    sampled from their binomial/Gaussian bridge (exact stepping inside a
//!    boundary band, so absorption is never approximated), collapsing the
//!    `Θ(n²)` interactions per trial into polylog-many block draws;
//! 4. a certification that the self-destructive annihilation dynamics
//!    decide correctly at `n = 10⁶` (gap invariance: no threshold exists).
//!
//! Batched and bridged backends agree with the agent-list stepper
//! (`lv_protocols::ProtocolSimulation`, the test oracle) statistically —
//! same outcome distributions — but not bit-for-bit (the RNG stream
//! differs).

use lv_consensus::engine::stream::EarlyStop;
use lv_consensus::lotka::LvModel;
use lv_consensus::sim::{
    GapScenario, MonteCarlo, ScalingFit, Seed, ThresholdSearch, TwoSpeciesGap,
};

fn nlogn_budget(n: u64) -> u64 {
    (40.0 * n as f64 * (n as f64).ln()).ceil() as u64
}

fn main() {
    let seed = Seed::from(0xE16);

    // 1. Approximate majority, batched, at 10⁵ and 10⁶.
    println!("== batched approx-majority threshold sweep ==");
    let search = ThresholdSearch::new(16, seed).with_backend("approx-majority");
    let mut ns = Vec::new();
    let mut thresholds = Vec::new();
    for n in [100_000u64, 1_000_000] {
        let factory = TwoSpeciesGap::new(LvModel::default(), n).with_max_events(nlogn_budget(n));
        let result = search.find_gap(&factory);
        println!("{result}");
        ns.push(n as f64);
        thresholds.push(result.threshold as f64);
    }

    // 2. The Czyzowicz conversion dynamics need linear gaps — and Θ(n²)
    // interactions per trial, which is why their sizes stay smaller.
    println!("\n== batched czyzowicz-lv threshold sweep (linear law) ==");
    let czyzowicz = ThresholdSearch::new(20, seed.derive("cz")).with_backend("czyzowicz-lv");
    for n in [1_000u64, 3_000] {
        let factory = TwoSpeciesGap::new(LvModel::default(), n).with_max_events(4 * n * n);
        let result = czyzowicz.find_gap(&factory);
        println!("{result}");
        ns.push(n as f64);
        thresholds.push(result.threshold as f64);
        let fraction = result.threshold as f64 / n as f64;
        println!("   threshold/n = {fraction:.2} — a constant fraction of n");
    }

    // The approximate-majority points alone: sub-linear growth.
    let fit = ScalingFit::fit(&ns[..2], &thresholds[..2]);
    let (law, coefficient, _) = fit.best();
    println!("\napprox-majority threshold fits {coefficient:.3} x {law}");

    // 3. The diffusion-bridged backend runs the same conversion dynamics
    // with whole bridge blocks instead of resolved interactions, so the
    // linear-law sweep continues three decades past the counted stepper —
    // a near-tie trial at n = 10⁷ traverses ~10¹³ interactions in
    // milliseconds.
    println!("\n== bridged czyzowicz-lv threshold sweep to n = 10^7 ==");
    let bridged =
        ThresholdSearch::new(20, seed.derive("cz-bridged")).with_backend("czyzowicz-lv-bridged");
    let mut bridged_ns = Vec::new();
    let mut bridged_thresholds = Vec::new();
    for n in [100_000u64, 1_000_000, 10_000_000] {
        let factory = TwoSpeciesGap::new(LvModel::default(), n).with_max_events(4 * n * n);
        let result = bridged.find_gap(&factory);
        println!("{result}");
        bridged_ns.push(n as f64);
        bridged_thresholds.push(result.threshold as f64);
    }
    let fit = ScalingFit::fit(&bridged_ns, &bridged_thresholds);
    let (law, coefficient, _) = fit.best();
    println!("bridged czyzowicz threshold fits {coefficient:.3} x {law}");
    assert_eq!(
        law,
        lv_consensus::sim::ScalingLaw::Linear,
        "the conversion dynamics must keep their linear gap law at n = 10^7"
    );

    // 4. Gap invariance at n = 10⁶: the annihilation dynamics decide any
    // non-zero gap correctly — certified with an early-stopped probe.
    println!("\n== annihilation-lv certification at n = 10^6 ==");
    let n = 1_000_000u64;
    let mc = MonteCarlo::new(16, seed.derive("sd")).with_backend("annihilation-lv");
    let factory = TwoSpeciesGap::new(LvModel::default(), n).with_max_events(nlogn_budget(n));
    let scenario = factory.scenario(n / 2);
    let rule = EarlyStop::at_half_width(1.0 / 16.0)
        .with_boundary(1.0 - 3.0 / 16.0)
        .with_min_trials(8);
    let estimate = mc.scenario_success_probability_until(&scenario, rule);
    println!(
        "gap n/2 at n = 10^6: {}/{} majority wins (gap-invariant, always correct)",
        estimate.successes(),
        estimate.trials()
    );
    assert_eq!(
        estimate.point(),
        1.0,
        "annihilation must decide every run correctly"
    );
}
