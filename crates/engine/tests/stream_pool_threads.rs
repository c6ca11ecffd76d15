//! The parallel stream's helpers come from one process-wide pool: however
//! many streams a process opens, its thread count never grows beyond the
//! pool. This is the only test in its binary, so no other test's threads
//! move the count.

use lv_engine::stream::{ReportStream, StreamConfig, SuccessTally, TrialRngFactory};
use lv_engine::{backend, Scenario};
use lv_lotka::{CompetitionKind, LvModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The `Threads:` line of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_thousand_streams_never_grow_the_thread_count_beyond_the_pool() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = process_threads();
    // Sampled inside every eighth trial, while the stream's runners exist,
    // not only between streams.
    let peak = Arc::new(AtomicUsize::new(before));
    let sampled = Arc::clone(&peak);
    let rng_for_trial: TrialRngFactory = Arc::new(move |trial| {
        if trial % 8 == 7 {
            sampled.fetch_max(process_threads(), Ordering::SeqCst);
        }
        StdRng::seed_from_u64(trial)
    });
    let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
    let scenario = Scenario::majority(model, 150, 100);
    let jump_chain = backend("jump-chain").unwrap();
    for _ in 0..1_000 {
        let stream = ReportStream::new(
            &scenario,
            jump_chain,
            StreamConfig::new(32).with_threads(4),
            Arc::clone(&rng_for_trial),
        );
        assert_eq!(stream.fold(SuccessTally::new()).trials(), 32);
    }
    let pool = cores - 1;
    let after = process_threads();
    assert!(
        after <= before + pool,
        "{before} threads before 1000 streams, {after} after (pool of {pool})"
    );
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        peak <= before + pool,
        "{before} threads before 1000 streams, {peak} at the peak (pool of {pool})"
    );
}
