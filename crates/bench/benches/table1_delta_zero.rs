//! E5 kernels: the δ = 0 regimes of Table 1 row 4 — the Cho et al. special
//! case of the self-destructive model and the Andaur et al. resource model.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_bench::{bench_seed, BENCH_N, BENCH_TRIALS};
use lv_lotka::LvModel;
use lv_protocols::AndaurResourceModel;
use lv_sim::ThresholdSearch;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_delta_zero");
    group.sample_size(10);

    let cho = LvModel::cho_et_al(1.0, 1.0);
    let search = ThresholdSearch::new(BENCH_TRIALS, bench_seed()).with_threads(1);
    group.bench_function(format!("cho_threshold_search_n{BENCH_N}"), |b| {
        b.iter(|| black_box(search.find(&cho, black_box(BENCH_N))))
    });

    let andaur = AndaurResourceModel::for_population(BENCH_N);
    let gap = ((BENCH_N as f64) * (BENCH_N as f64).ln()).sqrt() as u64;
    let a = (BENCH_N + gap) / 2;
    let b_count = BENCH_N - a;
    group.bench_function(format!("andaur_success_probability_n{BENCH_N}"), |b| {
        b.iter(|| {
            let seed = bench_seed();
            black_box(
                (0..BENCH_TRIALS)
                    .filter(|&trial| {
                        andaur
                            .run_majority(
                                black_box(a),
                                black_box(b_count),
                                &mut seed.rng_for_trial(trial),
                                400 * BENCH_N,
                            )
                            .majority_won
                    })
                    .count(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
