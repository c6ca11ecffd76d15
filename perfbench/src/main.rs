//! `lv-perfbench` — the end-to-end and per-layer benchmark of the
//! lv-consensus workspace.
//!
//! ```text
//! lv-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//! lv-perfbench --self-check [--scratch DIR]
//! lv-perfbench --worker --threads N        # worker-pool child process
//! ```
//!
//! One process runs one workload. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--self-check` runs every workload at a tiny size against
//! its true reference and against a deliberately wrong one, and fails
//! unless only the wrong one trips the output checks.

mod harness;
mod serve;
mod sim;

use harness::{peak_rss_mb, Checks, HostProbe, Metrics, Trace};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "paper-threshold",
    "protocol-sweep",
    "serve-cold",
    "serve-hot",
];

/// The end-to-end metrics every untraced run prints, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
];

/// The per-layer metrics every traced run prints, with units. A layer the
/// workload does not exercise is reported from a tiny traced run of the
/// workload that does (see [`fill_layers`]).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut list: Vec<(String, &'static str)> = [
        ("host.ref_loop_ms", "ms"),
        ("search.probes", "count"),
        ("search.trials", "count"),
        ("search.self_ms", "ms"),
        ("stream.self_ms", "ms"),
        ("stream.runs_per_trial", "ratio"),
        ("stream.busy_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kernel in sim::KERNELS {
        list.push((format!("kernel.{kernel}.events"), "count"));
        list.push((format!("kernel.{kernel}.run_ms"), "ms"));
        list.push((format!("kernel.{kernel}.ns_per_event"), "ns"));
    }
    list.extend(
        [
            ("sampling.hypergeometric_ns", "ns"),
            ("sampling.binomial_ns", "ns"),
            ("exec.calls", "count"),
            ("exec.trials", "count"),
            ("exec.ms_per_call", "ms"),
            ("exec.pool_overhead_ms", "ms"),
            ("service.hit_us", "us"),
            ("service.miss_self_ms", "ms"),
            ("service.calls_per_miss", "count"),
            ("cache.hit_ratio", "ratio"),
            ("spec.check_us", "us"),
            ("wire.encode_us", "us"),
            ("wire.decode_us", "us"),
            ("wire.bytes_per_req", "bytes"),
            ("edge.self_us", "us"),
            ("edge.connect_ms", "ms"),
            ("residual_ms", "ms"),
            ("trace.overhead_ratio", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    list
}

/// How one run is sized and seeded.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    /// The self-check's tiny sizes instead of the benchmark's.
    pub tiny: bool,
    /// Check outputs against a deliberately wrong reference.
    pub wrong_reference: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Minimum timed sweeps of the simulation workloads.
    pub min_reps: usize,
    /// Minimum timed requests of the serving workloads.
    pub min_requests: usize,
    /// Where sockets and span files go.
    pub scratch: PathBuf,
}

/// Per-layer metrics by name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            per_layer().iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        assert!(value.is_finite(), "per-layer metric {name} is not finite");
        self.values.insert(name, value);
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    checks: Checks,
    e2e: Vec<(&'static str, f64)>,
    layers: Layers,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(checks: Checks) -> Self {
        Outcome {
            checks,
            e2e: Vec::new(),
            layers: Layers::default(),
            notes: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

fn run_workload(
    workload: &str,
    config: &RunConfig,
    trace: Option<&'static Trace>,
) -> Result<Outcome, String> {
    match (workload, trace) {
        ("paper-threshold" | "protocol-sweep", None) => Ok(sim::run(workload, config)),
        ("paper-threshold" | "protocol-sweep", Some(trace)) => {
            sim::run_traced(workload, config, trace)
        }
        ("serve-cold" | "serve-hot", None) => serve::run(serve::Temperature::of(workload), config),
        ("serve-cold" | "serve-hot", Some(trace)) => {
            serve::run_traced(serve::Temperature::of(workload), config, trace)
        }
        _ => Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
    worker: bool,
    threads: usize,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 30.0,
        trace: false,
        self_check: false,
        worker: false,
        threads: 1,
        scratch: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--scratch" => args.scratch = PathBuf::from(value()?),
            "--self-check" => args.self_check = true,
            "--worker" => args.worker = true,
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn config_for(workload: &str, args: &Args, tiny: bool, wrong_reference: bool) -> RunConfig {
    let hot = workload == "serve-hot";
    RunConfig {
        seed: args.seed,
        seconds: if tiny { 0.01 } else { args.seconds },
        tiny,
        wrong_reference,
        setup_reps: match (tiny, hot) {
            (true, _) => 1,
            (false, true) => 3,
            (false, false) => 5,
        },
        min_reps: match (tiny, workload) {
            (true, _) => 1,
            (false, "protocol-sweep") => 4,
            (false, _) => 3,
        },
        min_requests: match (tiny, hot) {
            (true, true) => 200,
            (true, false) => 10,
            (false, true) => 20_000,
            (false, false) => 100,
        },
        scratch: args.scratch.clone(),
    }
}

/// Fills the layers the traced workload did not exercise from tiny traced
/// runs (the self-check's sizes) of the other workloads, each into a trace
/// of its own, so every traced run prints a measured value for every layer.
/// Their output checks count towards the run's; a replay mismatch fails it.
fn fill_layers(
    workload: &str,
    args: &Args,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Result<Vec<String>, String> {
    let mut sources = Vec::new();
    for other in WORKLOADS.iter().filter(|&&w| w != workload) {
        if per_layer()
            .iter()
            .all(|(name, _)| layers.values.contains_key(name))
        {
            break;
        }
        let config = config_for(other, args, true, false);
        let probe = run_workload(other, &config, Some(Box::leak(Box::default())))?;
        checks.record(probe.checks.attempted(), probe.checks.failed(), || {
            format!("tiny {other} probe")
        });
        let mut filled = Vec::new();
        for (name, value) in probe.layers.values {
            if let std::collections::btree_map::Entry::Vacant(slot) = layers.values.entry(name) {
                filled.push(slot.key().clone());
                slot.insert(value);
            }
        }
        if !filled.is_empty() {
            sources.push(format!("from a tiny {other} run: {}", filled.join(", ")));
        }
    }
    Ok(sources)
}

/// Runs every workload tiny against the true and a wrong reference.
fn self_check(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        for wrong in [false, true] {
            let config = config_for(workload, args, true, wrong);
            let verdict = match run_workload(workload, &config, None) {
                Ok(outcome) => {
                    let caught = outcome.checks.failed() > 0;
                    let pass = caught == wrong;
                    println!(
                        "self-check {workload:<16} {} reference: ok_rate {:.4} ({} of {} failed) — {}",
                        if wrong { "wrong" } else { "true " },
                        outcome.checks.ok_rate(),
                        outcome.checks.failed(),
                        outcome.checks.attempted(),
                        if pass { "as expected" } else { "UNEXPECTED" }
                    );
                    pass
                }
                Err(e) => {
                    println!("self-check {workload}: run failed: {e}");
                    false
                }
            };
            ok &= verdict;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lv-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.worker {
        return match lv_server::run_worker(args.threads) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("lv-perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.self_check {
        return self_check(&args);
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("lv-perfbench: --workload is required (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    let config = config_for(&workload, &args, false, false);
    let trace: Option<&'static Trace> = args.trace.then(|| &*Box::leak(Box::default()));

    let mut host = HostProbe::default();
    host.sample();
    let outcome = run_workload(&workload, &config, trace);
    host.sample();
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("lv-perfbench {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace.is_some() {
        match fill_layers(&workload, &args, &mut outcome.layers, &mut outcome.checks) {
            Ok(sources) => outcome.notes.extend(sources),
            Err(e) => {
                eprintln!("lv-perfbench {workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut metrics = Metrics::default();
    match trace {
        None => {
            for (name, value) in &outcome.e2e {
                let unit = END_TO_END
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, u)| u)
                    .expect("workloads report declared end-to-end metrics");
                metrics.put(*name, *value, unit);
            }
            metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
            metrics.put("ok_rate", outcome.checks.ok_rate(), "ratio");
        }
        Some(trace) => {
            let mut layers = outcome.layers;
            layers.put("host.ref_loop_ms", host.ref_loop_ms());
            for (name, unit) in per_layer() {
                let value = layers.values.get(&name).copied();
                metrics.put(name.as_str(), value.expect("every layer is measured"), unit);
            }
            let path = config
                .scratch
                .join(format!("trace-{workload}-seed{}.jsonl", config.seed));
            match trace.write_jsonl(&path) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => eprintln!(
                    "lv-perfbench: could not write spans to {}: {e}",
                    path.display()
                ),
            }
        }
    }
    println!(
        "# {workload} seed={} host.ref_loop_ms={:.3}",
        config.seed,
        host.ref_loop_ms()
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", metrics.result_json(&outcome.checks));
    if outcome.checks.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
