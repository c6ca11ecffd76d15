//! The simulation workloads: the paper's threshold sweep (`paper-threshold`)
//! and the E16-style protocol sweep (`protocol-sweep`).
//!
//! Untraced runs time whole `ThresholdSearch::find_gap` sweeps. Traced runs
//! run the sweep once, then replay every reported probe through
//! `ReportStream` with the seed the search derives and a timing wrapper
//! around the backend, and require the replay to reproduce each probe's
//! trials and successes exactly.

use crate::harness::{median, ms_since, Checks, Deadline, Trace};
use crate::{Layers, Outcome, RunConfig};
use lv_engine::stream::{EarlyStop, ReportStream, StreamConfig, SuccessTally};
use lv_engine::{Backend, RunReport, Scenario};
use lv_lotka::{CompetitionKind, LvModel, MultiLvModel};
use lv_sim::{GapScenario, PluralityGap, Seed, ThresholdResult, ThresholdSearch, TwoSpeciesGap};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The backends whose kernels the simulation workloads time.
pub const KERNELS: [&str; 5] = [
    "jump-chain",
    "approx-majority",
    "czyzowicz-lv-bridged",
    "czyzowicz-lv",
    "czyzowicz-lv-k",
];

#[derive(Debug, Clone)]
enum Family {
    Two(TwoSpeciesGap),
    Plurality(PluralityGap),
}

impl Family {
    fn as_dyn(&self) -> &dyn GapScenario {
        match self {
            Family::Two(f) => f,
            Family::Plurality(f) => f,
        }
    }
}

/// One `(backend, model, n)` search of a sweep, with the band its threshold
/// must fall in.
#[derive(Debug, Clone)]
struct Point {
    label: &'static str,
    backend: &'static str,
    family: Family,
    band: (u64, u64),
}

impl Point {
    fn n(&self) -> u64 {
        self.family.as_dyn().population()
    }

    fn find(&self, search: &ThresholdSearch) -> ThresholdResult {
        match &self.family {
            Family::Two(f) => search.find_gap(f),
            Family::Plurality(f) => search.find_gap(f),
        }
    }
}

struct Sweep {
    trials: u64,
    threads: usize,
    points: Vec<Point>,
    /// Check that NSD thresholds exceed SD ones at every shared `n`.
    paper_separation: bool,
}

fn nlogn_budget(n: u64) -> u64 {
    ((40.0 * n as f64 * (n as f64).ln()).ceil() as u64).max(100_000)
}

fn conversion_budget(n: u64) -> u64 {
    (4 * n * n).max(100_000)
}

fn paper_sweep(tiny: bool) -> Sweep {
    let sd = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let nsd = LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0);
    // Bands around the thresholds recorded over seeds 1..=8 of this code,
    // three repetitions each (SD 12–20 at every n; NSD 66–92, 142–196 and
    // 258–388), widened about twofold so that thousands of searches per
    // benchmark campaign stay inside: SD thresholds are polylogarithmic, NSD
    // ones grow like √n.
    let full: [(&'static str, LvModel, u64, (u64, u64)); 7] = [
        ("SD", sd, 1_024, (4, 40)),
        ("SD", sd, 4_096, (4, 40)),
        ("SD", sd, 16_384, (4, 40)),
        ("SD", sd, 65_536, (4, 40)),
        ("NSD", nsd, 1_024, (40, 160)),
        ("NSD", nsd, 4_096, (80, 320)),
        ("NSD", nsd, 16_384, (160, 640)),
    ];
    // The tiny sizes' bands: thresholds recorded over seeds 0..600 at 64
    // trials per probe (SD 6–12; NSD 18–38 and 34–72), widened the same way.
    let tiny_points: [(&'static str, LvModel, u64, (u64, u64)); 4] = [
        ("SD", sd, 256, (4, 40)),
        ("SD", sd, 1_024, (4, 40)),
        ("NSD", nsd, 256, (9, 120)),
        ("NSD", nsd, 1_024, (17, 200)),
    ];
    let chosen: &[(&'static str, LvModel, u64, (u64, u64))] =
        if tiny { &tiny_points } else { &full };
    Sweep {
        trials: if tiny { 64 } else { 400 },
        threads: 1,
        points: chosen
            .iter()
            .map(|&(label, model, n, band)| Point {
                label,
                backend: "jump-chain",
                family: Family::Two(TwoSpeciesGap::new(model, n)),
                band,
            })
            .collect(),
        paper_separation: true,
    }
}

fn protocol_sweep(tiny: bool) -> Sweep {
    let two = |backend, n: u64, budget: u64, band| Point {
        label: backend,
        backend,
        family: Family::Two(TwoSpeciesGap::new(LvModel::default(), n).with_max_events(budget)),
        band,
    };
    let k3 = |n: u64, band| Point {
        label: "czyzowicz-lv-k",
        backend: "czyzowicz-lv-k",
        family: Family::Plurality(
            PluralityGap::new(
                MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0),
                n,
            )
            .with_max_events(conversion_budget(n)),
        ),
        band,
    };
    // Bands around the thresholds recorded over seeds 1..=8 of this code,
    // four repetitions each (approximate majority 98–172 and 322–520; the
    // conversion dynamics 0.65n–0.95n), widened about twofold: approximate
    // majority is sub-linear, the conversion dynamics need gaps linear in n
    // (the upper ends are the largest feasible gaps). The tiny sizes' bands
    // come from seeds 0..600 at 32 trials per probe (approximate majority
    // 18–60; the conversion dynamics 0.41n–0.94n). Fewer trials per probe
    // would make the clamped target 1 − 3/trials so low that a probe far
    // below the threshold (success ≈ ½) passes by chance in about one search
    // in ten, and a smaller n would let the largest gap fall short of it.
    let points = if tiny {
        vec![
            two("approx-majority", 1_000, nlogn_budget(1_000), (2, 400)),
            two(
                "czyzowicz-lv-bridged",
                10_000,
                conversion_budget(10_000),
                (100, 9_998),
            ),
            two("czyzowicz-lv", 300, conversion_budget(300), (60, 298)),
            k3(297, (97, 294)),
        ]
    } else {
        vec![
            two("approx-majority", 10_000, nlogn_budget(10_000), (50, 400)),
            two(
                "approx-majority",
                100_000,
                nlogn_budget(100_000),
                (150, 1_200),
            ),
            two(
                "czyzowicz-lv-bridged",
                100_000,
                conversion_budget(100_000),
                (50_000, 99_998),
            ),
            two(
                "czyzowicz-lv-bridged",
                1_000_000,
                conversion_budget(1_000_000),
                (500_000, 999_998),
            ),
            two(
                "czyzowicz-lv-bridged",
                10_000_000,
                conversion_budget(10_000_000),
                (5_000_000, 9_999_998),
            ),
            two("czyzowicz-lv", 1_000, conversion_budget(1_000), (500, 998)),
            k3(999, (500, 996)),
        ]
    };
    Sweep {
        trials: if tiny { 32 } else { 48 },
        threads: 2,
        points,
        paper_separation: false,
    }
}

fn sweep_for(workload: &str, tiny: bool) -> Sweep {
    match workload {
        "paper-threshold" => paper_sweep(tiny),
        "protocol-sweep" => protocol_sweep(tiny),
        other => unreachable!("not a simulation workload: {other}"),
    }
}

/// The search seed of repetition `rep`: the run seed itself first, then
/// labelled derivations of it, so every repetition searches fresh inputs.
fn rep_seed(seed: u64, rep: usize) -> Seed {
    if rep == 0 {
        Seed::new(seed)
    } else {
        Seed::new(seed).derive(&format!("rep={rep}"))
    }
}

fn search_for(sweep: &Sweep, point: &Point, seed: Seed) -> ThresholdSearch {
    ThresholdSearch::new(sweep.trials, seed)
        .with_threads(sweep.threads)
        .with_backend(point.backend)
}

/// Everything before the first timed search: the factories and one untimed
/// trial per `(backend, n)`, which fills the backends' lazy tables. The
/// trials draw from a fixed seed, so every run sets up the same work.
fn set_up(workload: &str, tiny: bool) -> Sweep {
    let sweep = sweep_for(workload, tiny);
    let mut rng = Seed::new(0).derive("setup").rng_for_trial(0);
    for point in &sweep.points {
        let family = point.family.as_dyn();
        let backend = lv_engine::backend(point.backend).expect("registered backend");
        let report = backend.run(&family.scenario(family.min_gap()), &mut rng);
        std::hint::black_box(report.events);
    }
    sweep
}

fn check_sweep(sweep: &Sweep, results: &[ThresholdResult], wrong: bool, checks: &mut Checks) {
    for (point, result) in sweep.points.iter().zip(results) {
        let (lo, hi) = if wrong {
            // The self-check's deliberately wrong reference: a band no
            // threshold of this population can reach.
            (point.n() + 1, point.n() + 2)
        } else {
            point.band
        };
        checks.check(
            !result.saturated && result.threshold >= lo && result.threshold <= hi,
            || {
                format!(
                    "{} n = {}: threshold {} (saturated {}) outside [{lo}, {hi}]",
                    point.label,
                    point.n(),
                    result.threshold,
                    result.saturated
                )
            },
        );
    }
    if sweep.paper_separation {
        for (sd, sd_result) in sweep.points.iter().zip(results) {
            if sd.label != "SD" {
                continue;
            }
            for (nsd, nsd_result) in sweep.points.iter().zip(results) {
                if nsd.label == "NSD" && nsd.n() == sd.n() {
                    checks.check(nsd_result.threshold > sd_result.threshold, || {
                        format!(
                            "n = {}: NSD threshold {} does not exceed SD threshold {}",
                            sd.n(),
                            nsd_result.threshold,
                            sd_result.threshold
                        )
                    });
                }
            }
        }
    }
}

/// Runs the untraced workload: repeated whole sweeps until the deadline.
pub fn run(workload: &str, config: &RunConfig) -> Outcome {
    let mut setups = Vec::new();
    let mut sweep = None;
    for _ in 0..config.setup_reps {
        let start = Instant::now();
        sweep = Some(set_up(workload, config.tiny));
        setups.push(start.elapsed().as_secs_f64());
    }
    let sweep = sweep.expect("at least one set-up");

    let mut checks = Checks::default();
    let mut sweep_s = Vec::new();
    let mut point_s: Vec<Vec<f64>> = vec![Vec::new(); sweep.points.len()];
    let mut trials = 0u64;
    let mut thresholds: Vec<Vec<u64>> = vec![Vec::new(); sweep.points.len()];
    let deadline = Deadline::after_secs(config.seconds);
    let mut rep = 0;
    while rep < config.min_reps || !deadline.passed() {
        let seed = rep_seed(config.seed, rep);
        let start = Instant::now();
        let mut results = Vec::new();
        for (point, times) in sweep.points.iter().zip(&mut point_s) {
            let search = search_for(&sweep, point, seed);
            let found = Instant::now();
            results.push(point.find(&search));
            times.push(found.elapsed().as_secs_f64());
        }
        sweep_s.push(start.elapsed().as_secs_f64());
        trials += results
            .iter()
            .map(ThresholdResult::trials_spent)
            .sum::<u64>();
        check_sweep(&sweep, &results, config.wrong_reference, &mut checks);
        for (found, result) in thresholds.iter_mut().zip(&results) {
            found.push(result.threshold);
        }
        rep += 1;
    }
    let timed_s: f64 = sweep_s.iter().sum();
    let searches = sweep_s.len() * sweep.points.len();
    let mut outcome = Outcome::new(checks);
    outcome.e2e("setup_s", median(&setups));
    outcome.e2e("solve_s", median(&sweep_s));
    outcome.e2e("throughput_per_s", searches as f64 / timed_s);
    outcome.note(format!(
        "solve_s is the median of {} sweeps; throughput_per_s counts {searches} searches; {trials} trials",
        sweep_s.len()
    ));
    let per_point: Vec<String> = sweep
        .points
        .iter()
        .zip(&point_s)
        .zip(&thresholds)
        .map(|((point, times), found)| {
            format!(
                "{} n={}: median {:.3} s, thresholds {found:?}",
                point.label,
                point.n(),
                median(times)
            )
        })
        .collect();
    outcome.note(per_point.join("; "));
    outcome
}

/// A backend wrapper that times every `run` and counts its events, for the
/// traced replay. Spans go to the trace under the stream span named by
/// `parent`.
struct TimedBackend {
    inner: &'static dyn Backend,
    trace: &'static Trace,
    span_name: String,
    parent: AtomicU64,
    request: AtomicU64,
    runs: AtomicU64,
    events: AtomicU64,
}

impl Backend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.inner.aliases()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn supports_species(&self, species: usize) -> bool {
        self.inner.supports_species(species)
    }

    fn models_kinetics(&self) -> bool {
        self.inner.models_kinetics()
    }

    fn batched(&self) -> bool {
        self.inner.batched()
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        let span = self.trace.open(
            self.span_name.as_str(),
            self.parent.load(Ordering::Relaxed),
            self.request.load(Ordering::Relaxed),
        );
        let report = self.inner.run(scenario, rng);
        self.trace.close(span);
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(report.events, Ordering::Relaxed);
        report
    }
}

/// Runs the traced workload: one sweep, then a replay of every probe.
///
/// Returns an error (and no numbers) when a replayed probe does not
/// reproduce the search's trials and successes.
pub fn run_traced(
    workload: &str,
    config: &RunConfig,
    trace: &'static Trace,
) -> Result<Outcome, String> {
    let sweep = set_up(workload, config.tiny);
    let seed = rep_seed(config.seed, 0);
    let mut find_ms = Vec::new();
    let mut results = Vec::new();
    for point in &sweep.points {
        let search = search_for(&sweep, point, seed);
        let start = Instant::now();
        results.push(point.find(&search));
        find_ms.push(ms_since(start));
    }
    let mut checks = Checks::default();
    check_sweep(&sweep, &results, config.wrong_reference, &mut checks);

    let timed: Vec<&'static TimedBackend> = KERNELS
        .iter()
        .map(|&name| {
            &*Box::leak(Box::new(TimedBackend {
                inner: lv_engine::backend(name).expect("registered backend"),
                trace,
                span_name: format!("kernel.{name}"),
                parent: AtomicU64::new(0),
                request: AtomicU64::new(0),
                runs: AtomicU64::new(0),
                events: AtomicU64::new(0),
            }))
        })
        .collect();
    let mut probes = 0u64;
    let mut replayed_trials = 0u64;
    let mut stream_capacity_ms = 0.0;
    for (index, (point, result)) in sweep.points.iter().zip(&results).enumerate() {
        let backend = timed[KERNELS
            .iter()
            .position(|&k| k == point.backend)
            .expect("sweep backends are timed")];
        let request = index as u64;
        let root = trace.open("search", 0, request);
        let family = point.family.as_dyn();
        let search = search_for(&sweep, point, seed);
        for probe in &result.probes {
            let target = search.target(point.n());
            let scenario = family.scenario(probe.gap);
            let probe_seed = seed
                .derive("threshold")
                .derive(&format!("n={}", point.n()))
                .derive(&format!("gap={}", probe.gap));
            let rule = EarlyStop::at_half_width((1.0 / sweep.trials as f64).min(0.25))
                .with_boundary(target)
                .with_min_trials(8.min(sweep.trials));
            let stream_config = StreamConfig::new(sweep.trials).with_threads(sweep.threads);
            let workers = stream_config.effective_workers(sweep.trials);
            let span = trace
                .open("stream", root.id(), request)
                .with_workers(workers);
            backend.parent.store(span.id(), Ordering::Relaxed);
            backend.request.store(request, Ordering::Relaxed);
            let tally = ReportStream::new(
                &scenario,
                backend,
                stream_config,
                Arc::new(move |trial| probe_seed.rng_for_trial(trial)),
            )
            .fold_with(SuccessTally::new(), Some(rule), |_| {});
            let stream_ms = trace.close(span);
            stream_capacity_ms += stream_ms * workers as f64;
            if tally.trials() != probe.trials || tally.successes() != probe.successes {
                return Err(format!(
                    "replay mismatch: {} n = {} gap {}: search {}/{} vs replay {}/{}",
                    point.label,
                    point.n(),
                    probe.gap,
                    probe.successes,
                    probe.trials,
                    tally.successes(),
                    tally.trials()
                ));
            }
            probes += 1;
            replayed_trials += tally.trials();
        }
        trace.close(root);
    }

    let selves = trace.self_ms();
    let totals = trace.total_ms();
    let self_of = |name: &str| selves.get(name).copied().unwrap_or(0.0);
    let total_of = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let mut layers = Layers::default();
    layers.put("search.probes", probes as f64);
    layers.put("search.trials", replayed_trials as f64);
    layers.put("search.self_ms", self_of("search"));
    layers.put("stream.self_ms", self_of("stream"));
    let runs: u64 = timed.iter().map(|t| t.runs.load(Ordering::Relaxed)).sum();
    layers.put(
        "stream.runs_per_trial",
        runs as f64 / replayed_trials as f64,
    );
    let mut busy_ms = 0.0;
    let mut attributed_ms = 0.0;
    for (name, backend) in KERNELS.iter().zip(&timed) {
        let events = backend.events.load(Ordering::Relaxed);
        if backend.runs.load(Ordering::Relaxed) == 0 {
            continue;
        }
        let run_ms = total_of(&backend.span_name);
        busy_ms += run_ms;
        attributed_ms += self_of(&backend.span_name);
        layers.put(format!("kernel.{name}.events"), events as f64);
        layers.put(format!("kernel.{name}.run_ms"), run_ms);
        layers.put(
            format!("kernel.{name}.ns_per_event"),
            run_ms * 1e6 / events.max(1) as f64,
        );
    }
    layers.put("stream.busy_ratio", busy_ms / stream_capacity_ms);
    let e2e_ms: f64 = find_ms.iter().sum();
    let layered_ms = self_of("search") + self_of("stream") + attributed_ms;
    layers.put("residual_ms", e2e_ms - layered_ms);
    layers.put("trace.overhead_ratio", total_of("search") / e2e_ms);
    if workload == "protocol-sweep" {
        sampling_costs(&mut layers, config.tiny);
    }
    let mut outcome = Outcome::new(checks);
    outcome.layers = layers;
    Ok(outcome)
}

/// Per-draw cost of the prepared urn samplers at urn shapes the
/// protocol-sweep epochs draw from (approximate majority at n = 10⁵ and the
/// bridged conversion walk's block splits). Not additive: the samplers run
/// inside the kernel time above.
fn sampling_costs(layers: &mut Layers, tiny: bool) {
    use lv_protocols::{BinomialSampler, HypergeometricSampler};
    use rand::SeedableRng;
    let draws: u64 = if tiny { 20_000 } else { 400_000 };
    let per_draw_ns = |mut draw: Box<dyn FnMut(&mut StdRng) -> u64>| {
        let samples: Vec<f64> = (0..5)
            .map(|rep| {
                let mut rng = StdRng::seed_from_u64(0x5eed + rep);
                let start = Instant::now();
                let mut acc = 0u64;
                for _ in 0..draws {
                    acc = acc.wrapping_add(draw(&mut rng));
                }
                std::hint::black_box(acc);
                start.elapsed().as_secs_f64() * 1e9 / draws as f64
            })
            .collect();
        median(&samples)
    };
    let hyper_urns = [
        (50_000u64, 50_000u64, 560u64),
        (30_000, 20_000, 280),
        (600, 600, 400),
    ];
    let hyper: Vec<f64> = hyper_urns
        .iter()
        .map(|&(s, f, d)| {
            let sampler = HypergeometricSampler::new(s, f, d);
            per_draw_ns(Box::new(move |rng| sampler.sample(rng)))
        })
        .collect();
    let binomial_urns = [(1_000_000u64, 0.5f64), (65_536, 0.3)];
    let binomial: Vec<f64> = binomial_urns
        .iter()
        .map(|&(n, p)| {
            let sampler = BinomialSampler::new(n, p);
            per_draw_ns(Box::new(move |rng| sampler.sample(rng)))
        })
        .collect();
    layers.put(
        "sampling.hypergeometric_ns",
        hyper.iter().sum::<f64>() / hyper.len() as f64,
    );
    layers.put(
        "sampling.binomial_ns",
        binomial.iter().sum::<f64>() / binomial.len() as f64,
    );
}
