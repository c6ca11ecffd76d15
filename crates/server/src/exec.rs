//! Trial execution strategies behind one [`TrialExecutor`] face.
//!
//! Both executors answer the same question — "of trials `lo..hi` of this
//! cell, which succeeded?" — and both derive trial `i`'s randomness from
//! `seed.rng_for_trial(i)` with `i` the *absolute* trial index, so the
//! answer is a pure function of `(spec, n, gap, seed, lo, hi)`:
//!
//! * [`InProcessExecutor`] runs the range on the embedded
//!   [`ReportStream`](lv_engine::stream::ReportStream) streaming executor;
//! * [`WorkerPool`] chunks the range across spawned worker *processes*
//!   (the `lv-serve --worker` mode of the same binary) speaking the wire
//!   protocol over stdio. A worker that dies mid-range costs nothing but
//!   a retry: its chunk is requeued on the survivors.
//!
//! Because success bits are keyed by absolute trial index, the two are
//! bit-identical at any worker count, thread count or chunking.

use crate::error::ServiceError;
use crate::proto::{Hello, RunOutcome, RunRange};
use crate::spec::ScenarioSpec;
use crate::sync;
use crate::wire::{read_message, write_message, WireError, MAX_FRAME_BYTES};
use lv_engine::stream::{ReportStream, StreamConfig};
use lv_sim::{GapScenario, Seed};
use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};

/// Test hook: a worker exits after serving this many ranges. The pool
/// forwards it to the *first* worker only, so survivors always remain to
/// absorb the requeued chunks.
pub const WORKER_EXIT_AFTER_ENV: &str = "LV_WORKER_EXIT_AFTER";

/// Runs trial ranges of a threshold-surface cell.
pub trait TrialExecutor: Send + Sync {
    /// Runs trials `lo..hi`, returning one success bit per trial in trial
    /// order (`result[0]` is trial `lo`).
    fn run_range(
        &self,
        spec: &ScenarioSpec,
        n: u64,
        gap: u64,
        seed: Seed,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<bool>, ServiceError>;

    /// A human-readable description for `Status` responses.
    fn describe(&self) -> String;
}

/// Runs ranges on the embedded streaming executor.
pub struct InProcessExecutor {
    threads: usize,
}

impl InProcessExecutor {
    /// An executor using `threads` worker threads (`0` = all cores).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        InProcessExecutor { threads }
    }
}

impl TrialExecutor for InProcessExecutor {
    fn run_range(
        &self,
        spec: &ScenarioSpec,
        n: u64,
        gap: u64,
        seed: Seed,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<bool>, ServiceError> {
        if hi <= lo {
            return Ok(Vec::new());
        }
        let family = spec.family(n)?;
        if !family.feasible(gap) {
            return Err(ServiceError::new(
                "off-lattice",
                format!("gap {gap} is off the feasible lattice at n = {n}"),
            ));
        }
        let scenario = family.scenario(gap);
        let backend = lv_engine::backend(&spec.backend).ok_or_else(|| {
            ServiceError::new(
                "unknown-backend",
                format!("unknown backend {:?}", spec.backend),
            )
        })?;
        let stream = ReportStream::new(
            &scenario,
            backend,
            StreamConfig::new(hi - lo).with_threads(self.threads),
            std::sync::Arc::new(move |trial| seed.rng_for_trial(lo + trial)),
        );
        let mut bits = Vec::with_capacity((hi - lo) as usize);
        for (trial, report) in stream {
            debug_assert_eq!(trial, bits.len() as u64);
            bits.push(report.plurality_won());
        }
        Ok(bits)
    }

    fn describe(&self) -> String {
        format!("in-process({} threads)", self.threads)
    }
}

/// Fans trial ranges out across spawned worker processes.
pub struct WorkerPool {
    program: PathBuf,
    workers: usize,
    threads_per_worker: usize,
}

impl WorkerPool {
    /// A pool of `workers` processes of `program` (normally the running
    /// `lv-serve` binary, relaunched with `--worker`).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(program: impl Into<PathBuf>, workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        WorkerPool {
            program: program.into(),
            workers,
            threads_per_worker: 1,
        }
    }

    /// Threads each worker process may use (default 1: the pool already
    /// provides the process-level parallelism).
    pub fn with_threads_per_worker(mut self, threads: usize) -> Self {
        self.threads_per_worker = threads.max(1);
        self
    }

    fn spawn_worker(&self, index: usize) -> Result<WorkerConn, ServiceError> {
        let mut command = Command::new(&self.program);
        command
            .arg("--worker")
            .arg("--threads")
            .arg(self.threads_per_worker.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if index != 0 {
            // The exit-after death hook applies to the first worker only,
            // so the pool always keeps survivors.
            command.env_remove(WORKER_EXIT_AFTER_ENV);
        }
        let mut child = command
            .spawn()
            .map_err(|e| ServiceError::new("worker", format!("spawn failed: {e}")))?;
        let Some(mut stdin) = child.stdin.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(ServiceError::new(
                "worker",
                "spawned worker has no piped stdin",
            ));
        };
        let Some(mut stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(ServiceError::new(
                "worker",
                "spawned worker has no piped stdout",
            ));
        };
        let handshake = (|| -> Result<(), WireError> {
            write_message(&mut stdin, &Hello::current())?;
            let hello: Hello = read_message(&mut stdout, MAX_FRAME_BYTES)?;
            hello
                .check()
                .map_err(|e| WireError::Codec(serde::Error::custom(e.message())))
        })();
        if let Err(e) = handshake {
            let _ = child.kill();
            let _ = child.wait();
            return Err(ServiceError::new(
                "worker",
                format!("handshake failed: {e}"),
            ));
        }
        Ok(WorkerConn {
            child,
            stdin,
            stdout,
        })
    }
}

/// The chunks of one `run_range` call not yet executed.
struct Chunks {
    pending: VecDeque<(u64, u64)>,
    /// Chunks taken by a worker and not yet finished or given back.
    in_flight: usize,
}

impl Chunks {
    /// The next chunk to run, or `None` once none is pending or in flight.
    /// A worker that finds the queue empty waits while others still run
    /// chunks, because one of them may die and give its chunk back.
    fn take(queue: &Mutex<Chunks>, returned: &Condvar) -> Option<(u64, u64)> {
        let mut chunks = sync::lock(queue);
        loop {
            if let Some(chunk) = chunks.pending.pop_front() {
                chunks.in_flight += 1;
                return Some(chunk);
            }
            if chunks.in_flight == 0 {
                return None;
            }
            chunks = sync::wait(returned, chunks);
        }
    }

    /// Ends a taken chunk: finished, or given back to run elsewhere.
    fn give_back(queue: &Mutex<Chunks>, returned: &Condvar, requeue: Option<(u64, u64)>) {
        {
            let mut chunks = sync::lock(queue);
            chunks.in_flight -= 1;
            chunks.pending.extend(requeue);
        }
        returned.notify_all();
    }
}

struct WorkerConn {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: std::process::ChildStdout,
}

impl WorkerConn {
    fn run(&mut self, range: &RunRange) -> Result<RunOutcome, WireError> {
        write_message(&mut self.stdin, range)?;
        read_message(&mut self.stdout, MAX_FRAME_BYTES)
    }
}

impl Drop for WorkerConn {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl TrialExecutor for WorkerPool {
    fn run_range(
        &self,
        spec: &ScenarioSpec,
        n: u64,
        gap: u64,
        seed: Seed,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<bool>, ServiceError> {
        if hi <= lo {
            return Ok(Vec::new());
        }
        let total = hi - lo;
        // Around four chunks per worker balances straggler smoothing
        // against per-message overhead; any chunking is bit-identical.
        let chunk = (total.div_ceil(self.workers as u64 * 4)).max(1);
        let queue = Mutex::new(Chunks {
            pending: (0..total.div_ceil(chunk))
                .map(|i| (lo + i * chunk, (lo + (i + 1) * chunk).min(hi)))
                .collect(),
            in_flight: 0,
        });
        let returned = Condvar::new();
        let done: Mutex<Vec<(u64, Vec<bool>)>> = Mutex::new(Vec::new());
        let failures: Mutex<Vec<ServiceError>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for index in 0..self.workers {
                let (queue, returned, done, failures) = (&queue, &returned, &done, &failures);
                scope.spawn(move || {
                    let mut conn = match self.spawn_worker(index) {
                        Ok(conn) => conn,
                        Err(e) => {
                            sync::lock(failures).push(e);
                            return;
                        }
                    };
                    while let Some((chunk_lo, chunk_hi)) = Chunks::take(queue, returned) {
                        let range = RunRange {
                            spec: spec.clone(),
                            n,
                            gap,
                            seed: seed.value(),
                            lo: chunk_lo,
                            hi: chunk_hi,
                        };
                        let failure = match conn.run(&range) {
                            Ok(outcome) => match outcome.decode() {
                                Ok(bits) => {
                                    sync::lock(done).push((range.lo, bits));
                                    None
                                }
                                // The worker reported a semantic error; a
                                // retry would deterministically fail the
                                // same way, so surface it.
                                Err(e) => Some(e),
                            },
                            // The worker died mid-range: requeue the chunk
                            // for the survivors and bow out.
                            Err(e) => Some(ServiceError::new("worker", e)),
                        };
                        let requeue = failure.is_some().then_some((chunk_lo, chunk_hi));
                        Chunks::give_back(queue, returned, requeue);
                        if let Some(e) = failure {
                            sync::lock(failures).push(e);
                            return;
                        }
                    }
                });
            }
        });

        let mut pieces = sync::into_inner(done);
        let collected: u64 = pieces.iter().map(|(_, bits)| bits.len() as u64).sum();
        if collected < total {
            let failures = sync::into_inner(failures);
            let detail = failures
                .first()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "no worker output".to_string());
            return Err(ServiceError::new(
                "worker",
                format!(
                    "{} of {} trials unexecuted after worker failures: {}",
                    total - collected,
                    total,
                    detail
                ),
            ));
        }
        pieces.sort_by_key(|&(chunk_lo, _)| chunk_lo);
        let mut bits = Vec::with_capacity(total as usize);
        for (chunk_lo, piece) in pieces {
            debug_assert_eq!(chunk_lo, lo + bits.len() as u64, "chunk coverage gap");
            bits.extend(piece);
        }
        Ok(bits)
    }

    fn describe(&self) -> String {
        format!(
            "worker-pool({} processes x {} threads)",
            self.workers, self.threads_per_worker
        )
    }
}

/// The worker side of the pool: serves [`RunRange`] requests over stdio
/// until the parent closes the pipe. This is what `lv-serve --worker` runs.
pub fn run_worker(threads: usize) -> Result<(), ServiceError> {
    let exit_after: Option<u64> = std::env::var(WORKER_EXIT_AFTER_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();

    let hello: Hello = read_message(&mut reader, MAX_FRAME_BYTES)?;
    hello.check()?;
    write_message(&mut writer, &Hello::current())?;

    let executor = InProcessExecutor::new(threads);
    let mut served = 0u64;
    loop {
        if exit_after.is_some_and(|limit| served >= limit) {
            // Simulated crash for the death-retry tests: vanish without a
            // goodbye, exactly like a killed process.
            let _ = writer.flush();
            return Ok(());
        }
        let range: RunRange = match read_message(&mut reader, MAX_FRAME_BYTES) {
            Ok(range) => range,
            Err(WireError::Eof) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let outcome = match executor.run_range(
            &range.spec,
            range.n,
            range.gap,
            // lv-analyze::allow(rng-discipline, reason = "reconstructs the pool's wire-carried root seed verbatim; the worker derives no seed of its own")
            Seed::new(range.seed),
            range.lo,
            range.hi,
        ) {
            Ok(bits) => RunOutcome::ok(range.lo, &bits),
            Err(e) => RunOutcome::err(range.lo, &e),
        };
        write_message(&mut writer, &outcome)?;
        served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_lotka::{CompetitionKind, LvModel};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::two_species(
            LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
            "jump-chain",
        )
    }

    #[test]
    fn in_process_ranges_compose() {
        let executor = InProcessExecutor::new(2);
        let seed = Seed::new(41);
        let whole = executor.run_range(&spec(), 64, 8, seed, 0, 40).unwrap();
        assert_eq!(whole.len(), 40);
        let front = executor.run_range(&spec(), 64, 8, seed, 0, 17).unwrap();
        let back = executor.run_range(&spec(), 64, 8, seed, 17, 40).unwrap();
        let stitched: Vec<bool> = front.into_iter().chain(back).collect();
        assert_eq!(stitched, whole, "range splits must not change outcomes");
        assert!(executor
            .run_range(&spec(), 64, 8, seed, 5, 5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn in_process_rejects_off_lattice_and_bad_backends() {
        let executor = InProcessExecutor::new(1);
        let seed = Seed::new(1);
        let err = executor.run_range(&spec(), 64, 7, seed, 0, 4).unwrap_err();
        assert_eq!(err.code(), "off-lattice");
        let mut bad = spec();
        bad.backend = "no-such-backend".to_string();
        let err = executor.run_range(&bad, 64, 8, seed, 0, 4).unwrap_err();
        assert_eq!(err.code(), "unknown-backend");
    }

    #[test]
    fn idle_workers_wait_for_chunks_still_in_flight() {
        // The queue is empty but one chunk is out: another worker must wait
        // for it instead of leaving, and run it if its holder gives it back.
        let queue = Mutex::new(Chunks {
            pending: VecDeque::from([(0, 5)]),
            in_flight: 0,
        });
        let returned = Condvar::new();
        let held = Chunks::take(&queue, &returned);
        assert_eq!(held, Some((0, 5)));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| Chunks::take(&queue, &returned));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!waiter.is_finished(), "left while a chunk was in flight");
            Chunks::give_back(&queue, &returned, held);
            assert_eq!(waiter.join().unwrap(), Some((0, 5)));
        });
        Chunks::give_back(&queue, &returned, None);
        assert_eq!(Chunks::take(&queue, &returned), None);
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let seed = Seed::new(99);
        let one = InProcessExecutor::new(1)
            .run_range(&spec(), 80, 10, seed, 3, 67)
            .unwrap();
        let four = InProcessExecutor::new(4)
            .run_range(&spec(), 80, 10, seed, 3, 67)
            .unwrap();
        assert_eq!(one, four);
    }
}
