//! The experiment suite (E1–E16); README's "Reproducing the paper" section
//! summarises what it shows.
//!
//! Every experiment regenerates one artefact of the paper's evaluation —
//! a row of Table 1, a theorem's quantitative claim, or a supporting scaling
//! curve — and returns an [`ExperimentReport`] that renders as plain text.
//! The `experiments` binary in the `lv-bench` crate runs any subset of them
//! from the command line.
//!
//! | id | paper artefact | function |
//! |----|----------------|----------|
//! | E1 | Table 1 row 1, self-destructive threshold | [`table1::e1_self_destructive_threshold`] |
//! | E2 | Table 1 row 1, non-self-destructive threshold | [`table1::e2_non_self_destructive_threshold`] |
//! | E3 | Table 1 row 2 + Theorems 20/23 | [`table1::e3_intra_and_inter`] |
//! | E4 | Table 1 row 3 + Theorem 25 | [`table1::e4_intraspecific_only`] |
//! | E5 | Table 1 row 4 (δ = 0, Cho et al.; Andaur et al.) | [`table1::e5_delta_zero`] |
//! | E6 | Table 1 row 5 (no competition) | [`table1::e6_no_competition`] |
//! | E7 | Theorem 13 (consensus time, bad events) | [`scaling::e7_consensus_time_scaling`] |
//! | E8 | Lemmas 5–8 (nice chains) | [`scaling::e8_nice_chain_bounds`] |
//! | E9 | §1.4 separation: ρ vs ∆ curves | [`curves::e9_separation_curves`] |
//! | E10 | §2.1 deterministic comparison | [`curves::e10_ode_vs_stochastic`] |
//! | E11 | §2.2 population-protocol baselines | [`baselines::e11_population_protocols`] |
//! | E12 | §1.6 ablation: γ/α sweep | [`ablation::e12_gamma_sweep`] |
//! | E13 | §5.1 pseudo-coupling domination | [`ablation::e13_pseudo_coupling`] |
//! | E14 | k-species plurality consensus (beyond the paper) | [`multispecies::e14_multispecies_plurality`] |
//! | E15 | threshold scaling per backend + plurality margins | [`thresholds::e15_threshold_scaling_backends`] |
//! | E16 | large-n batched protocol threshold sweeps | [`thresholds::e16_large_n_protocol_sweeps`] |

pub mod ablation;
pub mod baselines;
pub mod curves;
pub mod multispecies;
pub mod scaling;
pub mod table1;
pub mod thresholds;

use crate::report::Table;
use crate::seed::Seed;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How much work an experiment run should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Profile {
    /// Small population sizes and trial counts — seconds per experiment, used
    /// by tests and the `experiments` binary's default run.
    Quick,
    /// The paper-scale population sizes and trial counts — minutes per
    /// experiment.
    Full,
}

/// Shared configuration of every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Work profile.
    pub profile: Profile,
    /// Root seed; every experiment derives its own sub-seed from it.
    pub seed: Seed,
}

impl ExperimentConfig {
    /// A quick configuration with the given seed.
    pub fn quick(seed: u64) -> Self {
        ExperimentConfig {
            profile: Profile::Quick,
            // lv-analyze::allow(rng-discipline, reason = "entry point wrapping a caller-provided root seed; no seed is invented here")
            seed: Seed::from(seed),
        }
    }

    /// A full configuration with the given seed.
    pub fn full(seed: u64) -> Self {
        ExperimentConfig {
            profile: Profile::Full,
            // lv-analyze::allow(rng-discipline, reason = "entry point wrapping a caller-provided root seed; no seed is invented here")
            seed: Seed::from(seed),
        }
    }

    /// Population sizes for threshold sweeps.
    pub fn sweep_sizes(&self) -> Vec<u64> {
        match self.profile {
            Profile::Quick => vec![256, 1_024, 4_096],
            Profile::Full => vec![256, 1_024, 4_096, 16_384, 65_536],
        }
    }

    /// Trials per probed configuration.
    pub fn trials(&self) -> u64 {
        match self.profile {
            Profile::Quick => 120,
            Profile::Full => 400,
        }
    }

    /// The seed for a particular experiment id, so experiments never share
    /// RNG streams.
    pub fn seed_for(&self, experiment: &str) -> Seed {
        self.seed.derive(experiment)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::quick(20_240_506)
    }
}

/// The rendered result of one experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E1"`.
    pub id: String,
    /// Human-readable title naming the paper artefact being reproduced.
    pub title: String,
    /// Result tables (one per series).
    pub tables: Vec<Table>,
    /// Key findings as sentences (the experiment's qualitative checks).
    pub findings: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            tables: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Adds a table.
    pub fn push_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Adds a finding sentence.
    pub fn push_finding(&mut self, finding: impl Into<String>) {
        self.findings.push(finding.into());
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        for table in &self.tables {
            writeln!(f, "{table}")?;
        }
        if !self.findings.is_empty() {
            writeln!(f, "Findings:")?;
            for finding in &self.findings {
                writeln!(f, "  * {finding}")?;
            }
        }
        Ok(())
    }
}

/// Runs every experiment in order and returns the reports.
pub fn run_all(config: ExperimentConfig) -> Vec<ExperimentReport> {
    vec![
        table1::e1_self_destructive_threshold(config),
        table1::e2_non_self_destructive_threshold(config),
        table1::e3_intra_and_inter(config),
        table1::e4_intraspecific_only(config),
        table1::e5_delta_zero(config),
        table1::e6_no_competition(config),
        scaling::e7_consensus_time_scaling(config),
        scaling::e8_nice_chain_bounds(config),
        curves::e9_separation_curves(config),
        curves::e10_ode_vs_stochastic(config),
        baselines::e11_population_protocols(config),
        ablation::e12_gamma_sweep(config),
        ablation::e13_pseudo_coupling(config),
        multispecies::e14_multispecies_plurality(config),
        thresholds::e15_threshold_scaling_backends(config),
        thresholds::e16_large_n_protocol_sweeps(config),
    ]
}

/// Runs a single experiment by id (case-insensitive, e.g. `"e3"`); returns
/// `None` for an unknown id.
pub fn run_by_id(id: &str, config: ExperimentConfig) -> Option<ExperimentReport> {
    let report = match id.to_ascii_lowercase().as_str() {
        "e1" => table1::e1_self_destructive_threshold(config),
        "e2" => table1::e2_non_self_destructive_threshold(config),
        "e3" => table1::e3_intra_and_inter(config),
        "e4" => table1::e4_intraspecific_only(config),
        "e5" => table1::e5_delta_zero(config),
        "e6" => table1::e6_no_competition(config),
        "e7" => scaling::e7_consensus_time_scaling(config),
        "e8" => scaling::e8_nice_chain_bounds(config),
        "e9" => curves::e9_separation_curves(config),
        "e10" => curves::e10_ode_vs_stochastic(config),
        "e11" => baselines::e11_population_protocols(config),
        "e12" => ablation::e12_gamma_sweep(config),
        "e13" => ablation::e13_pseudo_coupling(config),
        "e14" => multispecies::e14_multispecies_plurality(config),
        "e15" => thresholds::e15_threshold_scaling_backends(config),
        "e16" => thresholds::e16_large_n_protocol_sweeps(config),
        _ => return None,
    };
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_profiles_differ_in_scale() {
        let quick = ExperimentConfig::quick(1);
        let full = ExperimentConfig::full(1);
        assert!(quick.sweep_sizes().len() < full.sweep_sizes().len());
        assert!(quick.trials() < full.trials());
        assert_ne!(quick.seed_for("e1"), quick.seed_for("e2"));
    }

    #[test]
    fn report_display_includes_tables_and_findings() {
        let mut report = ExperimentReport::new("E0", "smoke");
        let mut table = Table::new("series", &["x", "y"]);
        table.push(&[1, 2]);
        report.push_table(table);
        report.push_finding("it works");
        let text = report.to_string();
        assert!(text.contains("=== E0"));
        assert!(text.contains("series"));
        assert!(text.contains("* it works"));
    }

    #[test]
    fn unknown_experiment_id_is_rejected() {
        assert!(run_by_id("e99", ExperimentConfig::quick(1)).is_none());
    }
}
