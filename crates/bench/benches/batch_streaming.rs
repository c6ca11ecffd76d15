//! Throughput of the streaming batch executor: the same Monte-Carlo batch
//! folded sequentially, on the work-stealing worker pool, and with early
//! stopping — the numbers show the parallel stream's scaling and how many
//! trials the sequential stopping rule saves on an easy margin.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_bench::{bench_seed, BENCH_N};
use lv_lotka::{CompetitionKind, LvModel};
use lv_sim::{EarlyStop, MonteCarlo};
use std::hint::black_box;

/// Enough trials that worker spawn/teardown amortises and the parallel
/// stream's scaling is visible (the per-trial kernel is a few microseconds).
const STREAM_TRIALS: u64 = 512;

fn bench(c: &mut Criterion) {
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let a = BENCH_N * 55 / 100;
    let b_count = BENCH_N - a;

    let mut group = c.benchmark_group("batch_streaming");
    group.sample_size(10);

    // Direction to watch: the 4-thread kernel must not trail the 1-thread
    // kernel by more than scheduling noise. On a box with ≥ 4 physical cores
    // it should be markedly *faster*; on an oversubscribed (1-core) box the
    // executor's worker clamp (`effective_workers`: min of configured
    // threads, physical cores and scheduled flush chunks) collapses both
    // configurations onto the same sequential plan, so the two should be
    // indistinguishable. A persistent multi-×-percent gap means the clamp
    // has regressed or per-trial channel traffic has crept back into the
    // worker loop (trials this cheap must travel `FLUSH_TRIALS` to a
    // message; only long trials, past the executor's event quantum, go out
    // one by one).
    // `perf-snapshot` asserts this direction on every run.
    for threads in [1usize, 4] {
        let mc = MonteCarlo::new(STREAM_TRIALS, bench_seed()).with_threads(threads);
        group.bench_function(
            format!("success_probability_{STREAM_TRIALS}trials_{threads}threads"),
            |b| {
                b.iter(|| {
                    black_box(mc.success_probability(&model, black_box(a), black_box(b_count)))
                })
            },
        );
    }

    // Early stopping on a clear majority: the Wilson half-width target is
    // reached long before the trial cap, so the measured time is the cost of
    // "run until the estimate is tight" rather than a fixed batch.
    let mc = MonteCarlo::new(100_000, bench_seed()).with_threads(4);
    let rule = EarlyStop::at_half_width(0.05).with_min_trials(16);
    group.bench_function("success_probability_until_hw0.05_4threads", |b| {
        b.iter(|| {
            black_box(mc.success_probability_until(
                &model,
                black_box(BENCH_N * 3 / 4),
                black_box(BENCH_N / 4),
                rule,
            ))
        })
    });

    // An adaptive threshold probe far from the threshold: the decision
    // boundary at the search target lets the Wilson interval clear it after
    // a handful of trials, so this measures the early-stopping win the
    // threshold search banks on at every doubling probe (contrast with the
    // fixed STREAM_TRIALS batch above, which runs all 512 trials).
    let target = 1.0 - 1.0 / BENCH_N as f64;
    let probe_rule = EarlyStop::at_half_width(1.0 / STREAM_TRIALS as f64)
        .with_boundary(target)
        .with_min_trials(8);
    let mc = MonteCarlo::new(STREAM_TRIALS, bench_seed()).with_threads(4);
    group.bench_function("adaptive_threshold_probe_far_gap_4threads", |b| {
        b.iter(|| {
            black_box(mc.success_probability_until(
                &model,
                // Gap 2, far below the self-destructive threshold: ρ ≈ 1/2,
                // nowhere near the 1 − 1/n target, so the interval clears
                // the boundary almost immediately.
                black_box(BENCH_N / 2 + 1),
                black_box(BENCH_N / 2 - 1),
                probe_rule,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
