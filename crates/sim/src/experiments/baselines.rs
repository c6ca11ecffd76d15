//! Experiment E11: the population-protocol baselines of Section 2.2.

use super::{ExperimentConfig, ExperimentReport, Profile};
use crate::estimate::SuccessEstimate;
use crate::montecarlo::MonteCarlo;
use crate::report::Table;
use crate::scaling::ScalingLaw;
use crate::seed::Seed;
use crate::threshold::TwoSpeciesGap;
use lv_crn::StopCondition;
use lv_engine::Scenario;
use lv_lotka::{CompetitionKind, LvModel};

/// **E11 — baselines: 3-state approximate majority, 4-state exact majority and
/// the two-state Czyzowicz-style LV protocol.**
///
/// The table reports, per population size, the success probability of each
/// baseline at a gap of `√(n log n)` (the classical approximate-majority
/// threshold) and at a polylogarithmic gap `log² n`, each rounded down onto
/// the feasible lattice `∆ ≡ n (mod 2)` and printed as run, next to the paper's
/// self-destructive Lotka–Volterra model at the same gaps. The qualitative
/// picture of Sections 1.1/2.2: the polylog gap is enough for the paper's
/// model, is *not* enough for the approximate-majority protocol or the
/// two-state LV protocol, while the exact-majority protocol always succeeds
/// but pays quadratically many interactions.
///
/// Every protocol column runs on a registered batched backend:
/// `approx-majority` under a budget of `400·n·(⌊log₂ n⌋ + 1)` interactions
/// (it converges in `O(n log n)`), `exact-majority` and the
/// diffusion-bridged `czyzowicz-lv-bridged` under `200·n²`. The two-state conversion walk needs
/// `Θ(n²)` interactions (about `n² ln 2` on average from near a tie), so
/// that budget does not bind and the column measures the proportional law
/// `a/n`, not truncation.
pub fn e11_population_protocols(config: ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E11",
        "population-protocol baselines vs the self-destructive Lotka–Volterra model",
    );
    let sizes: Vec<u64> = match config.profile {
        Profile::Quick => vec![256, 1_024],
        Profile::Full => vec![256, 1_024, 4_096, 16_384],
    };
    let trials = config.trials();
    let lv = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);

    for (gap_label, gap_law) in [
        ("log² n", ScalingLaw::Log2N),
        ("√(n log n)", ScalingLaw::SqrtNLogN),
    ] {
        let mut table = Table::new(
            format!("success probability at gap ∆ = {gap_label}"),
            &[
                "n",
                "∆",
                "LV self-destructive",
                "3-state approx. majority",
                "2-state LV protocol",
                "4-state exact majority",
            ],
        );
        for &n in &sizes {
            let family = TwoSpeciesGap::new(lv, n);
            let gap = family.lattice_gap(gap_law.eval(n as f64) as u64);
            let (a, b) = family.counts(gap);
            let seed = |tag: &str| config.seed_for(&format!("e11-{tag}-{n}-{gap_label}"));

            let mc = MonteCarlo::new(trials, seed("lv"));
            let p_lv = mc.success_probability(&lv, a, b).point();

            let budget = 400 * n * (64 - n.leading_zeros() as u64);
            let p_approx =
                protocol_success("approx-majority", (a, b), budget, trials, seed("am")).point();
            let p_czyzowicz = two_state_lv((a, b), trials, seed("cz")).point();

            // The exact protocol needs Θ(n²) interactions for small gaps; keep
            // it to the smaller sizes so the experiment stays tractable.
            let p_exact = if n <= 1_024 {
                let estimate = protocol_success(
                    "exact-majority",
                    (a, b),
                    200 * n * n,
                    trials.min(60),
                    seed("ex"),
                );
                format!("{:.4}", estimate.point())
            } else {
                "(skipped)".to_string()
            };

            table.push_row(&[
                n.to_string(),
                gap.to_string(),
                format!("{p_lv:.4}"),
                format!("{p_approx:.4}"),
                format!("{p_czyzowicz:.4}"),
                p_exact,
            ]);
        }
        report.push_table(table);
    }
    report.push_finding(
        "at the polylogarithmic gap only the self-destructive LV model (and the always-correct exact protocol) reach high success probability",
    );
    report.push_finding(
        "at the √(n log n) gap the 3-state approximate-majority protocol catches up, while the two-state LV protocol still follows the proportional law",
    );
    report
}

/// The probability that the majority opinion of `(a, b)` wins on a
/// registered two-species protocol backend within `budget` interactions.
fn protocol_success(
    backend: &str,
    (a, b): (u64, u64),
    budget: u64,
    trials: u64,
    seed: Seed,
) -> SuccessEstimate {
    let scenario = Scenario::new(LvModel::default(), (a, b))
        .with_stop(StopCondition::any_species_extinct().with_max_events(budget));
    MonteCarlo::new(trials, seed)
        .with_backend(backend)
        .scenario_success_probability(&scenario)
}

/// E11's two-state LV protocol column: the diffusion-bridged Czyzowicz
/// dynamics under a `200·n²` budget that does not bind.
fn two_state_lv((a, b): (u64, u64), trials: u64, seed: Seed) -> SuccessEstimate {
    let n = a + b;
    protocol_success("czyzowicz-lv-bridged", (a, b), 200 * n * n, trials, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_report_covers_both_gap_regimes() {
        let report = e11_population_protocols(ExperimentConfig::quick(5));
        assert_eq!(report.tables.len(), 2);
        let text = report.to_string();
        assert!(text.contains("log² n"));
        assert!(text.contains("√(n log n)"));
    }

    #[test]
    fn printed_gaps_are_the_gaps_run() {
        // E11 and E5's Andaur column take their gaps from fixed laws, and
        // run the split a = (n + ∆)/2, b = n − a. Every printed ∆ must be
        // a − b of that split: √(n log n) is 37 at n = 256, which the split
        // would run as 36.
        let config = ExperimentConfig::quick(5);
        let e11 = e11_population_protocols(config);
        let e5 = super::super::table1::e5_delta_zero(config);
        let columns = e11.tables.iter().map(|table| (table, "∆")).chain([
            (&e5.tables[1], "∆ ≈ √(n log n)"),
            (&e5.tables[1], "∆ ≈ √n/4"),
        ]);
        let mut checked = 0;
        for (table, header) in columns {
            let sizes = table.column("n").expect("an n column");
            let gaps = table.column(header).expect("a gap column");
            for (n, gap) in sizes.into_iter().zip(gaps) {
                let (n, gap): (u64, u64) = (n.parse().unwrap(), gap.parse().unwrap());
                let a = (n + gap) / 2;
                assert_eq!(a - (n - a), gap, "{header} printed at n = {n}");
                checked += 1;
            }
        }
        assert_eq!(checked, 4 + 2 * 3);
    }

    #[test]
    fn two_state_column_follows_the_proportional_law_at_n_4096() {
        // The full-profile cell at n = 4096 and gap log² n, on its own seed.
        // The conversion dynamics win with probability exactly a/n; a budget
        // that truncated runs before absorption would drag the estimate
        // below it (a budget of 400·n·(⌊log₂ n⌋ + 1) measured 0.4450
        // against a/n = 0.508 here).
        let config = ExperimentConfig::full(1);
        let n = 4_096u64;
        let family = TwoSpeciesGap::new(LvModel::default(), n);
        let (a, b) = family.counts(family.lattice_gap(ScalingLaw::Log2N.eval(n as f64) as u64));
        let seed = config.seed_for(&format!("e11-cz-{n}-log² n"));
        let estimate = two_state_lv((a, b), config.trials(), seed);
        let proportional = a as f64 / n as f64;
        let (low, high) = estimate.wilson_interval(1.96);
        assert!(
            low <= proportional && proportional <= high,
            "measured {estimate}, proportional law says {proportional:.4}"
        );
    }
}
