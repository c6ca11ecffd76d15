//! The experiment harness: regenerates every table and series of the paper's
//! evaluation (Table 1 rows plus the supporting theorem/lemma checks). The
//! experiments live in `lv_sim::experiments`, whose module doc maps each to
//! the paper artefact it reproduces.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p lv-bench --bin experiments -- [--exp e1,...|all] [--profile quick|full] [--seed N]
//! cargo run --release -p lv-bench --bin experiments -- --help
//! ```

use lv_sim::experiments::{self, ExperimentConfig, Profile};
use lv_sim::Seed;
use std::process::ExitCode;

struct Args {
    experiments: Vec<String>,
    profile: Profile,
    seed: u64,
}

/// Parses the command line: `Ok(None)` asks for the usage (`--help`).
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        experiments: vec!["all".to_string()],
        profile: Profile::Quick,
        seed: 20_240_506,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--exp" => {
                let value = iter
                    .next()
                    .ok_or("--exp needs a value (e.g. e1,e2 or all)")?;
                args.experiments = value.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--profile" => {
                let value = iter.next().ok_or("--profile needs a value (quick|full)")?;
                args.profile = match value.as_str() {
                    "quick" => Profile::Quick,
                    "full" => Profile::Full,
                    other => return Err(format!("unknown profile {other:?}")),
                };
            }
            "--seed" => {
                let value = iter.next().ok_or("--seed needs a value")?;
                args.seed = value
                    .parse()
                    .map_err(|_| format!("seed {value:?} is not an integer"))?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(args))
}

const USAGE: &str = "usage: experiments [--exp e1,e2,...|all] [--profile quick|full] [--seed N]\n\
         \n\
         Experiments (crates/sim/src/experiments/mod.rs maps each to the paper):\n\
         \te1   Table 1 row 1, self-destructive threshold sweep\n\
         \te2   Table 1 row 1, non-self-destructive threshold sweep\n\
         \te3   Table 1 row 2, balanced inter+intra competition (Theorems 20/23)\n\
         \te4   Table 1 row 3, intraspecific only (Theorem 25)\n\
         \te5   Table 1 row 4, delta = 0 (Cho et al.) and Andaur et al.\n\
         \te6   Table 1 row 5, no competition\n\
         \te7   Theorem 13 consensus-time / bad-event scaling\n\
         \te8   Lemmas 5-8 nice-chain bounds\n\
         \te9   rho-vs-gap separation curves\n\
         \te10  deterministic ODE vs stochastic\n\
         \te11  population-protocol baselines\n\
         \te12  gamma/alpha ablation\n\
         \te13  pseudo-coupling domination\n\
         \te14  k-species plurality presets across backends\n\
         \te15  threshold scaling per backend + k-species plurality margins\n\
         \te16  large-n batched protocol threshold sweeps (10^4 .. 10^7)";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = ExperimentConfig {
        profile: args.profile,
        seed: Seed::from(args.seed),
    };
    println!(
        "# Experiment run: profile {:?}, seed {}\n",
        args.profile, args.seed
    );

    let run_all = args.experiments.iter().any(|e| e == "all");
    let reports = if run_all {
        experiments::run_all(config)
    } else {
        let mut reports = Vec::new();
        for id in &args.experiments {
            match experiments::run_by_id(id, config) {
                Some(report) => reports.push(report),
                None => {
                    eprintln!("error: unknown experiment id {id:?}\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
        reports
    };

    for report in &reports {
        println!("{report}");
    }
    println!("# Completed {} experiment(s).", reports.len());
    ExitCode::SUCCESS
}
