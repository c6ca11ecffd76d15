//! `perf-snapshot` — the repo's perf trajectory, as a machine-readable
//! artifact.
//!
//! Runs the paper's two-species jump-chain kernel
//! (`two_species_jump_chain`), every registered backend on one n = 512
//! majority scenario to consensus (`simulator_kernels`), the fixed-work
//! kernels (`simulator_kernels_k6`, `batch_streaming`, `stream_cheap_trials`,
//! `sampling_kernels`, `protocol_batching`, `protocol_windows`,
//! `protocol_bridging`), an
//! early-stopped threshold probe on the parallel stream
//! (`stream_early_stop`) plus the threshold-surface server's cache hit
//! in process, through the frame codec alone and over a Unix socket
//! (`server_roundtrip`) with a plain wall-clock timer and writes the results to `BENCH_8.json`,
//! so the performance trajectory of the hot paths is recorded per revision
//! instead of living only in scrollback. CI runs `--quick` mode on every
//! push, which keeps the artifact (and the kernels behind it) from rotting.
//!
//! ```text
//! perf-snapshot [--quick] [--out PATH]
//! ```
//!
//! `--quick` runs 8 instead of 32 jump-chain trials per point, shrinks the
//! protocol-batching kernel from `n ∈ {10⁶, 10⁷}` to `n = 10⁵`, the
//! bridging kernels to `n = 10⁴`, and trims repetitions; the JSON records
//! which mode produced it. The headline `speedups` entries are the
//! acceptance comparisons:
//!
//! - `two_species_jump_chain`: the jump-chain backend's observer-free
//!   competition-run kernel vs a `step` loop and vs the per-step driver
//!   path, on the same trial seeds at the largest paper-threshold points,
//!   timed interleaved. The kernel is exact in law, so its events per trial
//!   are checked against the step loop's in law, and it must beat the step
//!   loop by 5× or more.
//! - `protocol_batching`: batched vs agent-list approximate-majority
//!   convergence at equal `n` (the agent list is the test oracle
//!   `lv_protocols::ProtocolSimulation`, driven directly) — the batched
//!   per-interaction-equivalent cost *falls* with `n` (one epoch of Θ(√n)
//!   interactions costs a constant number of draws) while the agent-list
//!   cost rises once its state array outgrows the cache.
//! - `protocol_windows`: approximate majority's thinning windows vs its
//!   batched epochs vs the backend's window-or-epoch rule, on
//!   `protocol-sweep`'s own points (`n = 10⁴` and `10⁵`), timed interleaved
//!   on the same trial seeds; interactions per trial are checked in law, and
//!   the windows must beat the epochs by 2× or more at `n = 10⁴` at equal
//!   work (also in `--quick` mode, which runs the same points on fewer
//!   trials). The section also prints the rule's two cost constants,
//!   nanoseconds per candidate and per epoch.
//! - `protocol_bridging`: the conversion dynamics. First the exact
//!   thinning-window kernel (`czyzowicz-lv`) against the batched counted
//!   epoch on `protocol-sweep`'s own conversion points (`n = 1000` and
//!   `n = 999` over three opinions), timed interleaved; the
//!   kernel must beat the epoch by 2× or more at `n = 1000`. Then
//!   diffusion-bridged vs thinned at equal `n`: the bridged sampler runs
//!   the Θ(n²)-interaction first passage to absorption at every `n`
//!   (polylog-many blocks); the thinned kernel pays Θ(1) per *conversion*,
//!   so beyond `n = 10⁴` it is measured under an interaction budget and
//!   projected to the bridged run's interaction count for an equal-work
//!   wall-clock ratio.
//!
//! A direction guard that fails does not stop the run: every section runs,
//! the JSON is written, and the tool then exits with status 1 naming every
//! failed guard.

use lv_engine::{backend, Backend, BackendRegistry, RunReport, Scenario};
use lv_lotka::{CompetitionKind, LvModel, MultiLvModel};
use lv_sim::{MonteCarlo, Seed, ThresholdSearch};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn seed() -> Seed {
    Seed::from(0xBEEF)
}

/// Median wall-clock milliseconds of `reps` runs of `f` (after one warmup).
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Median wall-clock milliseconds of each arm over `reps` repetitions
/// (after one warmup of each), timed interleaved: every repetition runs
/// each arm once, starting from a different arm each time, so a slow phase
/// of a shared host slows every arm alike.
fn time_interleaved_ms<const N: usize>(reps: usize, arms: [&dyn Fn(); N]) -> [f64; N] {
    for arm in arms {
        arm();
    }
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for rep in 0..reps.max(1) {
        for offset in 0..N {
            let slot = (rep + offset) % N;
            let start = Instant::now();
            arms[slot]();
            samples[slot].push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples.map(|mut arm| {
        arm.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        arm[arm.len() / 2]
    })
}

/// Runs the agent-list oracle [`ProtocolSimulation`] from `(a, b)` with the
/// backends' stop order — a committed count at zero first, then the
/// interaction budget — and returns the interactions it ran.
///
/// [`ProtocolSimulation`]: lv_protocols::ProtocolSimulation
fn agent_list_interactions<P: lv_protocols::PopulationProtocol>(
    protocol: &P,
    (a, b): (u64, u64),
    budget: u64,
    rng: &mut StdRng,
) -> u64 {
    let mut sim = lv_protocols::ProtocolSimulation::new(protocol, a, b);
    while !matches!(sim.opinion_counts(), (0, _) | (_, 0)) && sim.interactions() < budget {
        sim.step(rng);
    }
    sim.interactions()
}

/// Asserts that two samples of events per trial agree in law: their means
/// and their standard deviations each within 4 standard errors.
fn assert_events_agree_in_law(label: &str, x: &[u64], y: &[u64]) {
    let moments = |sample: &[u64]| {
        let n = sample.len() as f64;
        let mean = sample.iter().map(|&e| e as f64).sum::<f64>() / n;
        let var = sample
            .iter()
            .map(|&e| (e as f64 - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        (n, mean, var)
    };
    let ((nx, mx, vx), (ny, my, vy)) = (moments(x), moments(y));
    let mean_se = (vx / nx + vy / ny).sqrt();
    // The standard error of a sample SD is about SD/√(2(n − 1)).
    let sd_se = (vx / (2.0 * (nx - 1.0)) + vy / (2.0 * (ny - 1.0))).sqrt();
    assert!(
        (mx - my).abs() <= 4.0 * mean_se,
        "{label}: mean events per trial {mx:.0} vs {my:.0} (se {mean_se:.0})"
    );
    assert!(
        (vx.sqrt() - vy.sqrt()).abs() <= 4.0 * sd_se,
        "{label}: events per trial SD {:.0} vs {:.0} (se {sd_se:.0})",
        vx.sqrt(),
        vy.sqrt()
    );
}

struct Kernel {
    name: String,
    wall_ms: f64,
    /// Events (reaction firings / interactions) the kernel represents, for
    /// per-event normalisation; 0 when not event-shaped.
    events: u64,
}

/// One headline acceleration comparison: the baseline and accelerated
/// wall-clock times for the *same* amount of work (projected to equal event
/// counts where the baseline runs under a budget).
struct Speedup {
    name: String,
    baseline_ms: f64,
    accelerated_ms: f64,
}

impl Speedup {
    fn ratio(&self) -> f64 {
        self.baseline_ms / self.accelerated_ms
    }
}

/// One early-stopped probe on the streaming executor: its wall time, the
/// trials it folded, and the backend runs it paid per folded trial.
struct StreamProbe {
    name: String,
    wall_ms: f64,
    folded: u64,
    runs_per_trial: f64,
}

/// A backend wrapper counting `Backend::run` calls, including the ones a
/// stream makes for trials it never folds.
struct CountingBackend {
    inner: &'static dyn Backend,
    runs: AtomicU64,
}

impl Backend for CountingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
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
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.inner.run(scenario, rng)
    }
}

/// Records a failed direction guard; `main` reports them all at the end.
fn guard(failed: &mut Vec<String>, holds: bool, message: impl FnOnce() -> String) {
    if !holds {
        let message = message();
        eprintln!("guard failed: {message}");
        failed.push(message);
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_8.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: perf-snapshot [--quick] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let reps = if quick { 3 } else { 10 };
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut speedups: Vec<Speedup> = Vec::new();
    let mut failed: Vec<String> = Vec::new();

    // ---- batch_streaming: a fixed Monte-Carlo batch on the parallel
    // streaming executor, 1 and 4 threads. The two arms are timed
    // interleaved — one batch of each per repetition, in alternating order —
    // so a slow phase of a shared host slows both arms alike instead of
    // whichever block it happened to hit. The section runs first: on a
    // 2-vCPU virtual machine, seconds of single-threaded work just before it
    // (the sections below) left the parallel arm 1.25–1.45× slower for the
    // next few hundred milliseconds, and half a second of pure arithmetic
    // did the same, so that slowdown belongs to the host's scheduling of
    // the idle vCPU, not to the executor.
    let stream_trials: u64 = if quick { 128 } else { 512 };
    let stream_reps = if quick { 101 } else { 301 };
    let lv = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let arms =
        [1usize, 4].map(|threads| MonteCarlo::new(stream_trials, seed()).with_threads(threads));
    let run_arm = |slot: usize| {
        let estimate = arms[slot].success_probability(&lv, 282, 230);
        assert_eq!(estimate.trials(), stream_trials);
    };
    let stream_ms = time_interleaved_ms(stream_reps, [&|| run_arm(0), &|| run_arm(1)]);
    for (slot, threads) in [1usize, 4].into_iter().enumerate() {
        kernels.push(Kernel {
            name: format!(
                "batch_streaming/success_probability_{stream_trials}trials_{threads}threads"
            ),
            wall_ms: stream_ms[slot],
            events: 0,
        });
    }
    // Direction guard: asking for more threads must never *lose* to one
    // thread. The executor clamps its thread count to the machine's cores,
    // and the extra threads are parked pool helpers joining a consumer that
    // runs trials itself, so a thin batch costs at most a helper's wake-up
    // (the BENCH_7 regression: 4.25 ms at 4 threads vs 3.97 ms at 1). Allow
    // 25% noise between the interleaved medians.
    guard(&mut failed, stream_ms[1] <= stream_ms[0] * 1.25, || {
        format!(
            "multi-thread streaming regressed vs single-thread: {:.3} ms at 4 threads vs {:.3} ms at 1",
            stream_ms[1], stream_ms[0],
        )
    });

    // ---- stream_cheap_trials: the shape of a server cache miss, one
    // stream of 400 observer-free SD jump-chain trials at n = 1024 (about
    // 2–3 µs each), at 1 and 2 threads, timed interleaved like
    // `batch_streaming` and right after it. Direction guard: 2 threads
    // never lose to 1 beyond the same 25% allowance.
    let cheap_trials: u64 = 400;
    let cheap_arms =
        [1usize, 2].map(|threads| MonteCarlo::new(cheap_trials, seed()).with_threads(threads));
    let run_cheap = |slot: usize| {
        let estimate = cheap_arms[slot].success_probability(&lv, 516, 508);
        assert_eq!(estimate.trials(), cheap_trials);
    };
    let cheap_ms = time_interleaved_ms(stream_reps, [&|| run_cheap(0), &|| run_cheap(1)]);
    for (slot, threads) in [1usize, 2].into_iter().enumerate() {
        kernels.push(Kernel {
            name: format!(
                "stream_cheap_trials/sd_jump_chain_n1024_{cheap_trials}trials_{threads}threads"
            ),
            wall_ms: cheap_ms[slot],
            events: 0,
        });
    }
    guard(&mut failed, cheap_ms[1] <= cheap_ms[0] * 1.25, || {
        format!(
            "cheap-trial streaming regressed vs single-thread: {:.3} ms at 2 threads vs {:.3} ms at 1",
            cheap_ms[1], cheap_ms[0],
        )
    });

    // ---- simulator_kernels: every registered backend runs the same
    // observer-free SD majority scenario (n = 512, split 281/231) to
    // consensus, so the entries compare the execution engines themselves.
    // Each row draws seven trials, seeded by the row's name (so adding,
    // removing or reordering rows moves no other row's trials), and times
    // the one with the median event count: a typical trial, picked the same
    // way on every run, so its events never change between runs.
    let consensus = Scenario::new(lv, (281, 231))
        .with_stop(lv_crn::StopCondition::any_species_extinct().with_max_events(100_000_000))
        .with_tau(1e-3);
    for engine in BackendRegistry::global().iter() {
        let row_seed = seed().derive(engine.name());
        let run = |trial| {
            engine
                .run(&consensus, &mut row_seed.rng_for_trial(trial))
                .events
        };
        let mut by_events: Vec<(u64, u64)> = (0..7).map(|trial| (run(trial), trial)).collect();
        by_events.sort_unstable();
        let (events, trial) = by_events[by_events.len() / 2];
        let wall_ms = time_ms(reps, || {
            std::hint::black_box(run(trial));
        });
        kernels.push(Kernel {
            name: format!("simulator_kernels/{}_to_consensus_n512", engine.name()),
            wall_ms,
            events,
        });
    }

    // ---- simulator_kernels_k6: 5000 exact CRN events on a symmetric
    // 6-species network, per simulator.
    let k = 6usize;
    let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, k, 1.0, 1.0, 1.0);
    let k6_scenario = Scenario::new(model, vec![5_000u64; k])
        .with_stop(lv_crn::StopCondition::consensus().with_max_events(5_000));
    for name in ["jump-chain", "gillespie-direct"] {
        let engine = backend(name).expect("builtin backend");
        let wall_ms = time_ms(reps, || {
            let mut rng = seed().rng_for_trial(1);
            let report = engine.run(&k6_scenario, &mut rng);
            assert_eq!(report.events, 5_000);
        });
        kernels.push(Kernel {
            name: format!("simulator_kernels_k6/{name}_5000events"),
            wall_ms,
            events: 5_000,
        });
    }

    // ---- two_species_jump_chain: the paper's kernel. Observer-free
    // jump-chain trials at the largest `paper-threshold` points (neutral SD
    // at n = 65 536, gap 18; NSD at n = 16 384, gap 302), built exactly as
    // the threshold search builds them, on the same trial seeds in three
    // variants:
    //
    // - `per_step_driver`: the per-event driver path. The stop is written
    //   "species 0 extinct or species 1 extinct", which the backend does not
    //   recognise as a first extinction (asserted).
    // - `step_loop`: `LvJumpChain::step` in a caller loop, no driver. It
    //   draws exactly as the driver path does (equal events asserted).
    // - `kernel`: the backend's path, `run_to_consensus`, which skips runs
    //   of competitions. It is exact in law, not draw for draw, so its
    //   events per trial are checked against the step loop's in law: mean
    //   and standard deviation within 4 standard errors.
    //
    // The three variants are timed interleaved, one batch of each per
    // repetition in rotating order, as `batch_streaming` is. Direction
    // guard: the kernel's median must beat the step loop's by 5× or more.
    {
        use lv_crn::{SpeciesId, StopCondition};
        use lv_lotka::LvJumpChain;
        use lv_sim::{GapScenario, TwoSpeciesGap};
        let trials: u64 = if quick { 8 } else { 32 };
        let jump_reps = if quick { 21 } else { 51 };
        let engine = backend("jump-chain").expect("builtin backend");
        let run_trials = |scenario: &Scenario| -> Vec<u64> {
            (0..trials)
                .map(|trial| {
                    engine
                        .run(scenario, &mut seed().rng_for_trial(trial))
                        .events
                })
                .collect()
        };
        let step_loop = |scenario: &Scenario, model: LvModel| -> Vec<u64> {
            let initial = scenario
                .initial()
                .as_lv_configuration()
                .expect("two species");
            let budget = scenario
                .stop()
                .max_events()
                .expect("the search sets a budget");
            (0..trials)
                .map(|trial| {
                    let mut rng = seed().rng_for_trial(trial);
                    let mut chain = LvJumpChain::new(model, initial);
                    while chain.steps() < budget
                        && !chain.state().is_consensus()
                        && chain.step(&mut rng).is_some()
                    {}
                    chain.steps()
                })
                .collect()
        };
        let points = [
            (
                "sd_n65536_gap18",
                CompetitionKind::SelfDestructive,
                65_536,
                18,
            ),
            (
                "nsd_n16384_gap302",
                CompetitionKind::NonSelfDestructive,
                16_384,
                302,
            ),
        ];
        for (label, kind, n, gap) in points {
            let model = LvModel::neutral(kind, 1.0, 1.0, 1.0);
            let tight = TwoSpeciesGap::new(model, n).scenario(gap);
            let budget = tight.stop().max_events().expect("the search sets a budget");
            let extinct = |species| StopCondition::species_extinct(SpeciesId::new(species));
            let per_step = tight
                .clone()
                .with_stop(extinct(0).or(extinct(1)).with_max_events(budget));
            assert!(tight.stop().is_first_extinction(2));
            assert!(!per_step.stop().is_first_extinction(2));
            let stepped = step_loop(&tight, model);
            assert_eq!(run_trials(&per_step), stepped, "{label}: paths diverged");
            let skipped = run_trials(&tight);
            assert_events_agree_in_law(label, &skipped, &stepped);
            let events: u64 = stepped.iter().sum();
            let [driver_ms, step_ms, kernel_ms] = time_interleaved_ms(
                jump_reps,
                [
                    &|| assert_eq!(run_trials(&per_step), stepped),
                    &|| assert_eq!(step_loop(&tight, model), stepped),
                    &|| assert_eq!(run_trials(&tight).len() as u64, trials),
                ],
            );
            for (variant, wall_ms, events) in [
                ("per_step_driver", driver_ms, events),
                ("step_loop", step_ms, events),
                ("kernel", kernel_ms, skipped.iter().sum()),
            ] {
                kernels.push(Kernel {
                    name: format!("two_species_jump_chain/{label}_{trials}trials_{variant}"),
                    wall_ms,
                    events,
                });
            }
            for (comparison, baseline_ms, accelerated_ms) in [
                ("kernel_vs_per_step", driver_ms, kernel_ms),
                ("kernel_vs_step_loop", step_ms, kernel_ms),
                ("step_loop_vs_per_step", driver_ms, step_ms),
            ] {
                speedups.push(Speedup {
                    name: format!("jump_chain_{comparison}_{label}"),
                    baseline_ms,
                    accelerated_ms,
                });
            }
            guard(&mut failed, step_ms >= 5.0 * kernel_ms, || {
                format!(
                    "{label}: the competition-run kernel is not 5x the step loop: \
                     {kernel_ms:.3} ms vs {step_ms:.3} ms per {trials} trials"
                )
            });
        }
    }

    // ---- stream_early_stop: one probe shaped like the E16 protocol sweep's
    // (approximate majority at n = 10⁴, 48 trials, the boundary rule
    // `ThresholdSearch` builds for that budget), at 1 and 2 threads. The
    // probe's gap lies just below the threshold, so the rule stops it early
    // but well past its 8-trial minimum (33 folded trials on this stream;
    // gaps up to 104 stop at the minimum, 120 runs all 48); a
    // counting wrapper around the backend records `Backend::run` calls per
    // folded trial, i.e. how many trials the parallel stream ran past the
    // stop. Both thread counts must fold the same tally.
    let mut stream_probes: Vec<StreamProbe> = Vec::new();
    {
        use lv_engine::stream::{EarlyStop, ReportStream, StreamConfig, SuccessTally};
        use lv_sim::{GapScenario, TwoSpeciesGap};
        use std::sync::Arc;
        let counting: &'static CountingBackend = Box::leak(Box::new(CountingBackend {
            inner: backend("approx-majority").expect("builtin backend"),
            runs: AtomicU64::new(0),
        }));
        let (n, gap, trials) = (10_000u64, 112u64, 48u64);
        let budget = (40.0 * n as f64 * (n as f64).ln()).ceil() as u64;
        let scenario = TwoSpeciesGap::new(LvModel::default(), n)
            .with_max_events(budget)
            .scenario(gap);
        let target = ThresholdSearch::default_target(n, trials);
        let rule = EarlyStop::at_half_width(1.0 / trials as f64)
            .with_boundary(target)
            .with_min_trials(8);
        let probe = |threads: usize| {
            ReportStream::new(
                &scenario,
                counting,
                StreamConfig::new(trials).with_threads(threads),
                Arc::new(|trial| seed().rng_for_trial(trial)),
            )
            .fold_with(SuccessTally::new(), Some(rule), |_| {})
        };
        let sequential = probe(1);
        assert!(
            sequential.trials() < trials,
            "the probe at gap {gap} never stopped early"
        );
        for threads in [1usize, 2] {
            assert_eq!(
                probe(threads),
                sequential,
                "{threads} threads changed the tally"
            );
            counting.runs.store(0, Ordering::Relaxed);
            let wall_ms = time_ms(reps, || assert_eq!(probe(threads), sequential));
            // `time_ms` runs the probe once more than `reps` (its warmup).
            let folded = (reps.max(1) as u64 + 1) * sequential.trials();
            stream_probes.push(StreamProbe {
                name: format!(
                    "stream_early_stop/approx_majority_n{n}_gap{gap}_{trials}trials_{threads}threads"
                ),
                wall_ms,
                folded: sequential.trials(),
                runs_per_trial: counting.runs.load(Ordering::Relaxed) as f64 / folded as f64,
            });
        }
    }

    // ---- sampling_kernels: per-draw cost of the urn samplers, retired
    // inversion walk vs the constant-expected-time rejection kernels, at the
    // urn shapes the k = 3 batched epoch actually draws from. The binomial
    // comparison is pinned at n = 2¹⁶ where the *old* implementation was
    // still exact (beyond that it switched to a normal approximation, so
    // timing it there would compare different distributions). The prepared
    // entries re-use a cached sampler across draws — the per-epoch pattern
    // in `CountedSimulation` and `BridgedConversionWalk`.
    {
        use lv_protocols::sampling::{
            sample_binomial, sample_binomial_by_inversion, sample_hypergeometric,
            sample_hypergeometric_by_inversion, BinomialSampler, HypergeometricSampler,
        };
        use rand::{Rng, SeedableRng};
        let draws: u64 = if quick { 50_000 } else { 200_000 };
        let hyper_urns: &[(&str, u64, u64, u64)] = &[
            ("population_split_n1e6", 500_000, 500_000, 1_772),
            ("initiator_split_n1e6", 300_000, 200_000, 886),
            ("small_urn", 600, 600, 400),
        ];
        for &(label, s, f, d) in hyper_urns {
            let old_ms = time_ms(reps, || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
                let mut acc = 0u64;
                for _ in 0..draws {
                    acc = acc.wrapping_add(sample_hypergeometric_by_inversion(&mut rng, s, f, d));
                }
                std::hint::black_box(acc);
            });
            let new_ms = time_ms(reps, || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
                let mut acc = 0u64;
                for _ in 0..draws {
                    acc = acc.wrapping_add(sample_hypergeometric(&mut rng, s, f, d));
                }
                std::hint::black_box(acc);
            });
            let prepared_ms = time_ms(reps, || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
                let sampler = HypergeometricSampler::new(s, f, d);
                let mut acc = 0u64;
                for _ in 0..draws {
                    acc = acc.wrapping_add(sampler.sample(&mut rng));
                }
                std::hint::black_box(acc);
            });
            for (variant, ms) in [
                ("inversion", old_ms),
                ("rejection", new_ms),
                ("rejection_prepared", prepared_ms),
            ] {
                kernels.push(Kernel {
                    name: format!("sampling_kernels/hypergeometric_{label}_{variant}"),
                    wall_ms: ms,
                    events: draws,
                });
            }
            speedups.push(Speedup {
                name: format!("hypergeometric_rejection_vs_inversion_{label}"),
                baseline_ms: old_ms,
                accelerated_ms: new_ms,
            });
        }
        let (n, p) = (65_536u64, 0.5f64);
        let old_ms = time_ms(reps, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
            let mut acc = 0u64;
            for _ in 0..draws {
                acc = acc.wrapping_add(sample_binomial_by_inversion(&mut rng, n, p));
            }
            std::hint::black_box(acc);
        });
        let new_ms = time_ms(reps, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
            let mut acc = 0u64;
            for _ in 0..draws {
                acc = acc.wrapping_add(sample_binomial(&mut rng, n, p));
            }
            std::hint::black_box(acc);
        });
        let prepared_ms = time_ms(reps, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
            let sampler = BinomialSampler::new(n, p);
            let mut acc = 0u64;
            for _ in 0..draws {
                acc = acc.wrapping_add(sampler.sample(&mut rng));
            }
            std::hint::black_box(acc);
        });
        for (variant, ms) in [
            ("inversion", old_ms),
            ("btrs", new_ms),
            ("btrs_prepared", prepared_ms),
        ] {
            kernels.push(Kernel {
                name: format!("sampling_kernels/binomial_n65536_p05_{variant}"),
                wall_ms: ms,
                events: draws,
            });
        }
        speedups.push(Speedup {
            name: "binomial_btrs_vs_inversion_n65536".to_string(),
            baseline_ms: old_ms,
            accelerated_ms: new_ms,
        });
        // Poisson: the retired Knuth product-of-uniforms at mean 50 (O(mean)
        // uniforms per draw) vs the PTRS rejection kernel (O(1)).
        let mean = 50.0f64;
        let knuth_ms = time_ms(reps, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
            let threshold = (-mean).exp();
            let mut acc = 0u64;
            for _ in 0..draws {
                let mut k = 0u64;
                let mut product: f64 = 1.0;
                loop {
                    product *= rng.gen::<f64>();
                    if product <= threshold {
                        break;
                    }
                    k += 1;
                }
                acc = acc.wrapping_add(k);
            }
            std::hint::black_box(acc);
        });
        let ptrs_ms = time_ms(reps, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
            let mut acc = 0u64;
            for _ in 0..draws {
                acc = acc.wrapping_add(lv_crn::distributions::sample_poisson(&mut rng, mean));
            }
            std::hint::black_box(acc);
        });
        for (variant, ms) in [("knuth", knuth_ms), ("ptrs", ptrs_ms)] {
            kernels.push(Kernel {
                name: format!("sampling_kernels/poisson_mean50_{variant}"),
                wall_ms: ms,
                events: draws,
            });
        }
        speedups.push(Speedup {
            name: "poisson_ptrs_vs_knuth_mean50".to_string(),
            baseline_ms: knuth_ms,
            accelerated_ms: ptrs_ms,
        });
    }

    // ---- protocol_batching: approximate-majority convergence, batched vs
    // agent-list at equal n — the batching acceptance comparison. The
    // batched per-interaction-equivalent cost *falls* with n (o(1): one
    // epoch of Θ(√n) interactions costs a constant number of draws), while
    // the agent-list cost *rises* with n (its per-agent state array stops
    // fitting in cache), so the speedup grows by an order of magnitude per
    // decade of n.
    let sizes: &[u64] = if quick {
        &[100_000]
    } else {
        &[1_000_000, 10_000_000]
    };
    let batched = backend("approx-majority").expect("builtin backend");
    for &n in sizes {
        let a = n * 55 / 100;
        let scenario = Scenario::new(LvModel::default(), (a, n - a))
            .with_stop(lv_crn::StopCondition::any_species_extinct().with_max_events(u64::MAX / 2));
        let mut interactions = 0u64;
        let batched_ms = time_ms(reps, || {
            let mut rng = seed().rng_for_trial(2);
            let report = batched.run(&scenario, &mut rng);
            assert!(report.consensus_reached());
            interactions = report.events;
        });
        kernels.push(Kernel {
            name: format!("protocol_batching/approx_majority_batched_n{n}"),
            wall_ms: batched_ms,
            events: interactions,
        });
        // One agent-list repetition: the n = 10⁷ run alone walks ~2×10⁸
        // interactions over an 80 MB working set.
        let agent_reps = if quick || n >= 10_000_000 { 1 } else { 2 };
        let mut agent_interactions = 0u64;
        let agents_ms = time_ms(agent_reps, || {
            let mut rng = seed().rng_for_trial(2);
            let protocol = lv_protocols::ApproximateMajority::new();
            agent_interactions =
                agent_list_interactions(&protocol, (a, n - a), u64::MAX / 2, &mut rng);
        });
        kernels.push(Kernel {
            name: format!("protocol_batching/approx_majority_agents_n{n}"),
            wall_ms: agents_ms,
            events: agent_interactions,
        });
        speedups.push(Speedup {
            name: format!("approx_majority_batched_vs_agents_n{n}"),
            baseline_ms: agents_ms,
            accelerated_ms: batched_ms,
        });
    }

    // ---- protocol_batching/k3 epoch cost: the per-epoch price of the
    // k = 3 chained-hypergeometric split, with the process-wide
    // `BatchLengthSampler` cache warm — the alias tables behind the epoch
    // draw are built once per population size, not once per simulation, so
    // this measures the steady-state sampling cost alone.
    {
        use lv_protocols::{CountedDynamics, CountedSimulation};
        use rand::SeedableRng;
        let epochs: u64 = if quick { 20_000 } else { 100_000 };
        let dynamics = CountedDynamics::k_opinion_czyzowicz(3);
        let epoch_ms = time_ms(reps, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
            let mut sim = CountedSimulation::new(&dynamics, &[500_000, 300_000, 200_000]);
            for _ in 0..epochs {
                if sim.step_epoch(&mut rng, u64::MAX).is_none() {
                    sim.step(&mut rng);
                }
            }
            assert!(!sim.is_absorbed());
        });
        kernels.push(Kernel {
            name: format!("protocol_batching/k3_hypergeometric_epoch_cost_{epochs}epochs"),
            wall_ms: epoch_ms,
            events: epochs,
        });
    }

    // ---- protocol_windows: the approximate-majority backend's two steppers
    // on `protocol-sweep`'s own points (n = 10⁴ and 10⁵, at gaps inside the
    // sweep's threshold bands), built as the threshold search builds them.
    // Three arms run the same trial seeds to the search's stop, timed
    // interleaved: exact thinning windows alone
    // (`CountedSimulation::step_window`), batched epochs alone
    // (`step_epoch`, single steps where an epoch would overrun the budget),
    // and the backend itself, which picks one of the two before every step
    // by its window-or-epoch rule. Interactions per trial must agree in law.
    // Absorption times differ per stream, so the comparisons project the
    // epochs' per-interaction cost onto the other arm's interaction count.
    // Direction guard: at n = 10⁴ the windows must beat the epochs by 2× or
    // more at equal work.
    //
    // Then the rule's two cost constants: nanoseconds per window candidate
    // (`C_cand`) and per epoch (`C_epoch`), each stepper alone over the
    // first 2n interactions of the same trials, timed interleaved. That is
    // the near-tie phase (W̄/N ≈ 0.5) where the rule's choice is closest;
    // later in a run epochs get cheaper (the counts barely move, so their
    // cached urn samplers hit), but there the windows are cheaper still.
    // The backend's `EPOCH_COST_IN_CANDIDATES` is `C_epoch/C_cand`.
    {
        use lv_protocols::{ApproximateMajority, CountedDynamics, CountedSimulation};
        use lv_sim::{GapScenario, TwoSpeciesGap};
        let trials: u64 = if quick { 8 } else { 32 };
        let window_reps = if quick { 5 } else { 21 };
        let dynamics = CountedDynamics::from_protocol(&ApproximateMajority::new());
        let engine = backend("approx-majority").expect("builtin backend");
        for (n, gap) in [(10_000u64, 130u64), (100_000, 480)] {
            let budget = (40.0 * n as f64 * (n as f64).ln()).ceil() as u64;
            let scenario = TwoSpeciesGap::new(LvModel::default(), n)
                .with_max_events(budget)
                .scenario(gap);
            // One stepper alone until the search's stop or `limit`
            // interactions: interactions per trial, and the stepper's work
            // units (candidates for windows, epochs for epochs).
            let alone = |windows: bool, limit: u64| -> (Vec<u64>, u64) {
                let limit = limit.min(budget);
                let mut work = 0u64;
                let events = (0..trials)
                    .map(|trial| {
                        let mut rng = seed().rng_for_trial(trial);
                        let mut sim =
                            CountedSimulation::new(&dynamics, scenario.initial().counts());
                        let mut opinions = [0u64; 2];
                        loop {
                            sim.opinion_counts_into(&mut opinions);
                            if opinions.contains(&0) || sim.interactions() >= limit {
                                break;
                            }
                            let left = limit - sim.interactions();
                            if windows {
                                sim.step_window(&mut rng, left);
                            } else if sim.step_epoch(&mut rng, left).is_some() {
                                work += 1;
                            } else {
                                sim.step(&mut rng);
                            }
                        }
                        work += sim.candidates();
                        sim.interactions()
                    })
                    .collect();
                (events, work)
            };
            let rule = || -> Vec<u64> {
                (0..trials)
                    .map(|trial| {
                        engine
                            .run(&scenario, &mut seed().rng_for_trial(trial))
                            .events
                    })
                    .collect()
            };
            let (window_events, _) = alone(true, budget);
            let (epoch_events, _) = alone(false, budget);
            let rule_events = rule();
            let label = format!("approx_majority_n{n}_gap{gap}");
            assert_events_agree_in_law(&label, &window_events, &epoch_events);
            assert_events_agree_in_law(&label, &rule_events, &epoch_events);
            let [window_ms, epoch_ms, rule_ms] = time_interleaved_ms(
                window_reps,
                [
                    &|| assert_eq!(alone(true, budget).0, window_events),
                    &|| assert_eq!(alone(false, budget).0, epoch_events),
                    &|| assert_eq!(rule(), rule_events),
                ],
            );
            let work = |events: &[u64]| events.iter().sum::<u64>();
            for (variant, wall_ms, events) in [
                ("windows", window_ms, work(&window_events)),
                ("epochs", epoch_ms, work(&epoch_events)),
                ("rule", rule_ms, work(&rule_events)),
            ] {
                kernels.push(Kernel {
                    name: format!("protocol_windows/{label}_{trials}trials_{variant}"),
                    wall_ms,
                    events,
                });
            }
            let per_interaction_epoch_ms = epoch_ms / work(&epoch_events) as f64;
            let projected = |events: &[u64]| per_interaction_epoch_ms * work(events) as f64;
            for (variant, accelerated_ms, events) in [
                ("windows", window_ms, &window_events),
                ("rule", rule_ms, &rule_events),
            ] {
                speedups.push(Speedup {
                    name: format!("approx_majority_{variant}_vs_epochs_n{n}"),
                    baseline_ms: projected(events),
                    accelerated_ms,
                });
            }
            if n == 10_000 {
                let baseline_ms = projected(&window_events);
                guard(&mut failed, baseline_ms >= 2.0 * window_ms, || {
                    format!(
                        "{label}: thinning windows are not 2x the epochs at equal work: \
                         {window_ms:.3} ms vs {baseline_ms:.3} ms"
                    )
                });
            }

            let segment = 2 * n;
            let (_, candidates) = alone(true, segment);
            let (_, epochs) = alone(false, segment);
            let [candidate_ms, epochs_ms] = time_interleaved_ms(
                window_reps,
                [&|| assert_eq!(alone(true, segment).1, candidates), &|| {
                    assert_eq!(alone(false, segment).1, epochs)
                }],
            );
            for (unit, wall_ms, events) in [
                ("candidate", candidate_ms, candidates),
                ("epoch", epochs_ms, epochs),
            ] {
                kernels.push(Kernel {
                    name: format!("protocol_windows/{unit}_cost_n{n}_first_{segment}"),
                    wall_ms,
                    events,
                });
            }
            let c_cand = candidate_ms * 1e6 / candidates as f64;
            let c_epoch = epochs_ms * 1e6 / epochs as f64;
            println!(
                "protocol_windows/n{n}: C_cand {c_cand:.2} ns per candidate, C_epoch {c_epoch:.0} ns \
                 per epoch, C_epoch/C_cand {:.0}",
                c_epoch / c_cand
            );
        }
    }

    // ---- protocol_bridging/thinning: the conversion backend's exact
    // thinning windows vs the batched counted epoch (`CountedSimulation`,
    // which the backend hands the counts to only past n ≈ 3·10⁴) on
    // `protocol-sweep`'s own conversion points: `czyzowicz-lv` at n = 1000
    // and at n = 999 over three opinions (the latter under its retired
    // name `czyzowicz-lv-k` there), built as the threshold search builds
    // them, at a gap inside the sweep's threshold band. The two arms run
    // the same trials on their own RNG streams, timed interleaved; their
    // interactions per trial must agree in law. Absorption times are
    // heavy-tailed, so two streams' batches of trials hold different
    // amounts of work: the comparison projects the epoch's per-interaction
    // cost onto the kernel's interaction count.
    // Direction guard: at n = 1000 the kernel must beat the epoch by 2× or
    // more at equal work.
    {
        use lv_protocols::{CountedDynamics, CountedSimulation};
        use lv_sim::{GapScenario, PluralityGap, TwoSpeciesGap};
        let trials: u64 = if quick { 8 } else { 32 };
        let thin_reps = if quick { 5 } else { 21 };
        let budget = |n: u64| 4 * n * n;
        let k3 = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let points = [
            (
                "czyzowicz-lv",
                "n1000_gap700",
                TwoSpeciesGap::new(LvModel::default(), 1_000)
                    .with_max_events(budget(1_000))
                    .scenario(700),
            ),
            (
                "czyzowicz-lv",
                "k3_n999_gap699",
                PluralityGap::new(k3, 999)
                    .with_max_events(budget(999))
                    .scenario(699),
            ),
        ];
        for (name, label, scenario) in points {
            let engine = backend(name).expect("builtin backend");
            let max_events = scenario.stop().max_events().expect("a budget");
            let dynamics = CountedDynamics::k_opinion_czyzowicz(scenario.species_count());
            let thinned = || -> Vec<u64> {
                (0..trials)
                    .map(|trial| {
                        engine
                            .run(&scenario, &mut seed().rng_for_trial(trial))
                            .events
                    })
                    .collect()
            };
            let epochs = || -> Vec<u64> {
                (0..trials)
                    .map(|trial| {
                        let mut rng = seed().rng_for_trial(trial);
                        let mut sim =
                            CountedSimulation::new(&dynamics, scenario.initial().counts());
                        while !sim.is_absorbed() && sim.interactions() < max_events {
                            let left = max_events - sim.interactions();
                            if sim.step_epoch(&mut rng, left).is_none() {
                                sim.step(&mut rng);
                            }
                        }
                        sim.interactions()
                    })
                    .collect()
            };
            let (thinned_events, epoch_events) = (thinned(), epochs());
            assert_events_agree_in_law(label, &thinned_events, &epoch_events);
            let [thinned_ms, epoch_ms] = time_interleaved_ms(
                thin_reps,
                [&|| assert_eq!(thinned(), thinned_events), &|| {
                    assert_eq!(epochs(), epoch_events)
                }],
            );
            for (variant, wall_ms, events) in [
                ("thinned", thinned_ms, &thinned_events),
                ("counted_epoch", epoch_ms, &epoch_events),
            ] {
                kernels.push(Kernel {
                    name: format!("protocol_bridging/{label}_{trials}trials_{variant}"),
                    wall_ms,
                    events: events.iter().sum(),
                });
            }
            let work = |events: &[u64]| events.iter().sum::<u64>() as f64;
            let projected_epoch_ms = epoch_ms / work(&epoch_events) * work(&thinned_events);
            speedups.push(Speedup {
                name: format!("czyzowicz_thinned_vs_counted_epoch_{label}"),
                baseline_ms: projected_epoch_ms,
                accelerated_ms: thinned_ms,
            });
            if scenario.initial().total() == 1_000 {
                guard(&mut failed, projected_epoch_ms >= 2.0 * thinned_ms, || {
                    format!(
                        "{label}: the thinning kernel is not 2x the counted epoch at equal \
                         work: {thinned_ms:.3} ms vs {projected_epoch_ms:.3} ms"
                    )
                });
            }
        }
    }

    // ---- protocol_bridging: conversion dynamics first passage, diffusion-
    // bridged vs exact thinned vs agent-list. The bridged sampler reaches
    // absorption at every n — that is the tentpole claim: Θ(n²) interactions
    // compressed into polylog-many bridge blocks — so it is always timed to
    // absorption. The exact steppers pay Θ(1) per conversion or interaction,
    // so they run to absorption only at n = 10⁴ and under an interaction
    // budget beyond that; the `speedups` entry projects the thinned
    // per-interaction cost onto the bridged run's interaction count for an
    // equal-work ratio.
    {
        let bridge_sizes: &[u64] = if quick {
            &[10_000]
        } else {
            &[10_000, 100_000, 1_000_000, 10_000_000]
        };
        /// Interaction budget for the exact steppers beyond n = 10⁴ (the
        /// full first passage there would take hours at n = 10⁶).
        const EXACT_BUDGET: u64 = 2_000_000;
        let bridged = backend("czyzowicz-lv-bridged").expect("builtin backend");
        let thinned = backend("czyzowicz-lv").expect("builtin backend");
        for &n in bridge_sizes {
            let a = n * 55 / 100;
            let to_absorption = Scenario::new(LvModel::default(), (a, n - a)).with_stop(
                lv_crn::StopCondition::any_species_extinct().with_max_events(u64::MAX / 2),
            );
            let exact_full = n <= 10_000;

            let mut bridged_events = 0u64;
            let bridged_ms = time_ms(reps, || {
                let mut rng = seed().rng_for_trial(3);
                let report = bridged.run(&to_absorption, &mut rng);
                assert!(report.consensus_reached());
                bridged_events = report.events;
            });
            kernels.push(Kernel {
                name: format!("protocol_bridging/czyzowicz_bridged_n{n}"),
                wall_ms: bridged_ms,
                events: bridged_events,
            });

            let exact_scenario = if exact_full {
                to_absorption.clone()
            } else {
                Scenario::new(LvModel::default(), (a, n - a)).with_stop(
                    lv_crn::StopCondition::any_species_extinct().with_max_events(EXACT_BUDGET),
                )
            };
            let mut thinned_events = 0u64;
            let thinned_ms = time_ms(if exact_full { reps.min(2) } else { reps.min(3) }, || {
                let mut rng = seed().rng_for_trial(3);
                let report = thinned.run(&exact_scenario, &mut rng);
                thinned_events = report.events;
            });
            kernels.push(Kernel {
                name: format!(
                    "protocol_bridging/czyzowicz_thinned_n{n}{}",
                    if exact_full { "" } else { "_budget" }
                ),
                wall_ms: thinned_ms,
                events: thinned_events,
            });

            let mut agent_events = 0u64;
            let cz_agents_ms = time_ms(1, || {
                let mut rng = seed().rng_for_trial(3);
                let protocol = lv_protocols::CzyzowiczLvProtocol::new();
                let budget = if exact_full {
                    u64::MAX / 2
                } else {
                    EXACT_BUDGET
                };
                agent_events = agent_list_interactions(&protocol, (a, n - a), budget, &mut rng);
            });
            kernels.push(Kernel {
                name: format!(
                    "protocol_bridging/czyzowicz_agents_n{n}{}",
                    if exact_full { "" } else { "_budget" }
                ),
                wall_ms: cz_agents_ms,
                events: agent_events,
            });

            // Equal-work ratio: the thinned kernel's measured
            // per-interaction cost, projected onto the interaction count the
            // bridged run actually traversed.
            let projected_thinned_ms = thinned_ms / thinned_events as f64 * bridged_events as f64;
            speedups.push(Speedup {
                name: format!("czyzowicz_bridged_vs_thinned_n{n}"),
                baseline_ms: projected_thinned_ms,
                accelerated_ms: bridged_ms,
            });
        }
    }

    // ---- server_roundtrip: the threshold-surface service answering a
    // cached cell, (a) as a direct in-process call, (b) the frame codec of
    // its request and response alone and (c) as a full wire round trip over
    // a Unix socket — the price of a cache hit with and without framing,
    // codec and socket in the path.
    {
        use lv_server::wire::{read_message, write_message, MAX_FRAME_BYTES};
        use lv_server::{
            BindAddr, Client, EstimateRequest, InProcessExecutor, Request, Response, ScenarioSpec,
            Server, ServiceConfig, ThresholdService,
        };
        let requests: u64 = if quick { 50 } else { 200 };
        let spec = ScenarioSpec::two_species(
            LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
            "jump-chain",
        );
        let request = EstimateRequest {
            spec: spec.clone(),
            n: 256,
            gap: 8,
            target_ci: 0.08,
            max_trials: 0,
        };

        let service = ThresholdService::new(
            Box::new(InProcessExecutor::new(1)),
            ServiceConfig::default(),
        );
        let warm = service.estimate(&request).expect("warm the cell");
        assert!(warm.fresh_trials > 0);
        let in_process_ms = time_ms(reps, || {
            for _ in 0..requests {
                let hit = service.estimate(&request).expect("cached estimate");
                assert!(hit.cache_hit);
            }
        });
        kernels.push(Kernel {
            name: format!("server_roundtrip/estimate_cache_hit_in_process_{requests}req"),
            wall_ms: in_process_ms,
            events: requests,
        });

        // The codec alone: encode and decode of the request and of its
        // cache-hit response, as the client and the server each do once
        // per round trip.
        let request_message = Request::Estimate(request.clone());
        let response_message =
            Response::Estimate(service.estimate(&request).expect("cached estimate"));
        let round_trips: [(&str, &dyn Fn()); 2] = [
            ("request", &|| {
                let mut frame = Vec::new();
                write_message(&mut frame, &request_message).expect("encode");
                let back: Request =
                    read_message(&mut frame.as_slice(), MAX_FRAME_BYTES).expect("decode");
                assert_eq!(back, request_message);
            }),
            ("response", &|| {
                let mut frame = Vec::new();
                write_message(&mut frame, &response_message).expect("encode");
                let back: Response =
                    read_message(&mut frame.as_slice(), MAX_FRAME_BYTES).expect("decode");
                assert_eq!(back, response_message);
            }),
        ];
        for (label, round_trip) in round_trips {
            let codec_ms = time_ms(reps, || {
                for _ in 0..requests {
                    round_trip();
                }
            });
            kernels.push(Kernel {
                name: format!("server_roundtrip/codec_estimate_{label}_{requests}x"),
                wall_ms: codec_ms,
                events: requests,
            });
        }

        let socket =
            std::env::temp_dir().join(format!("lv-perf-snapshot-{}.sock", std::process::id()));
        let server =
            Server::bind(service, &BindAddr::Unix(socket.clone())).expect("bind perf socket");
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        let mut client = Client::connect_unix(&socket).expect("connect");
        let wire_ms = time_ms(reps, || {
            for _ in 0..requests {
                let hit = client.estimate(request.clone()).expect("cached estimate");
                assert!(hit.cache_hit);
            }
        });
        kernels.push(Kernel {
            name: format!("server_roundtrip/estimate_cache_hit_unix_socket_{requests}req"),
            wall_ms: wire_ms,
            events: requests,
        });
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    }

    // ---- Emit BENCH_8.json (no serde_json in the offline workspace; the
    // format is flat enough to print directly).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"lv-consensus-perf-v2\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, kernel) in kernels.iter().enumerate() {
        let per_event = if kernel.events > 0 {
            format!(
                ", \"per_event_ns\": {:.2}",
                kernel.wall_ms * 1e6 / kernel.events as f64
            )
        } else {
            String::new()
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"events\": {}{}}}{}\n",
            json_escape(&kernel.name),
            kernel.wall_ms,
            kernel.events,
            per_event,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"stream_early_stop\": [\n");
    for (i, p) in stream_probes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"folded_trials\": {}, \
             \"runs_per_trial\": {:.3}}}{}\n",
            json_escape(&p.name),
            p.wall_ms,
            p.folded,
            p.runs_per_trial,
            if i + 1 < stream_probes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"speedups\": [\n");
    for (i, s) in speedups.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_ms\": {:.3}, \"accelerated_ms\": {:.3}, \
             \"speedup\": {:.2}}}{}\n",
            json_escape(&s.name),
            s.baseline_ms,
            s.accelerated_ms,
            s.ratio(),
            if i + 1 < speedups.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("could not write {out_path}: {e}"));
    println!("{json}");
    for p in &stream_probes {
        println!("{}: {:.3} runs per folded trial", p.name, p.runs_per_trial);
    }
    for s in &speedups {
        println!("{}: {:.1}x", s.name, s.ratio());
    }
    println!("wrote {out_path}");
    if !failed.is_empty() {
        eprintln!("{} direction guard(s) failed:", failed.len());
        for message in &failed {
            eprintln!("  - {message}");
        }
        std::process::exit(1);
    }
}
