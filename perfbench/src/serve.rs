//! The serving workloads: `serve-cold` (every request misses the cache and
//! runs trials through a two-process `WorkerPool`) and `serve-hot` (every
//! request is answered from a warmed cache by an `InProcessExecutor`
//! server).
//!
//! Both drive a `Server` on a Unix socket with closed-loop `Client`
//! connections. Traced runs send a prefix of the same request sequence
//! over the socket once plainly and once with a timing wrapper around the
//! executor, then replay it in-process (`wire` codec, `ScenarioSpec` check,
//! `ThresholdService::handle`) from the same cache snapshot, and require
//! identical responses and identical executor ranges and bits.

use crate::harness::{median, ms_since, Checks, Deadline, Histogram, Trace};
use crate::{Layers, Outcome, RunConfig};
use lv_lotka::{CompetitionKind, LvModel};
use lv_server::proto::{EstimateRequest, EstimateResponse, Request, Response, ThresholdRequest};
use lv_server::wire::{read_message, write_message, MAX_FRAME_BYTES};
use lv_server::{
    BindAddr, Client, InProcessExecutor, ScenarioSpec, Server, ServiceConfig, ServiceError,
    ThresholdService, TrialExecutor, WorkerPool,
};
use lv_sim::Seed;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Requests per timed block; `solve_s` is the median block wall time.
const COLD_BLOCK: usize = 10;
const HOT_BLOCK: usize = 1_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temperature {
    Cold,
    Hot,
}

impl Temperature {
    pub fn of(workload: &str) -> Self {
        match workload {
            "serve-cold" => Temperature::Cold,
            "serve-hot" => Temperature::Hot,
            other => unreachable!("not a serving workload: {other}"),
        }
    }
}

/// The scenario every request asks about. The seed enters through the
/// event budget (generous enough never to bind), which changes the spec
/// fingerprint and with it every cell's trial stream.
fn spec_for(seed: u64) -> ScenarioSpec {
    ScenarioSpec::two_species(
        LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
        "jump-chain",
    )
    .with_events_per_individual(200 + seed % 1_000)
}

/// The `i`-th request of the cold sequence: nine `estimate` misses on
/// distinct lattice cells at n ∈ {1024, 4096}, then one `threshold` search
/// at an odd population (so none of its probes is an estimate cell) that no
/// earlier request used. Strided walks (37 over 500 even gaps, 97 over 256
/// odd populations) spread cheap and costly cells evenly over any window of
/// the sequence, so every block costs about the same however many a run
/// completes. After 1000 estimates the populations move up by 2.
fn cold_request(spec: &ScenarioSpec, seed: u64, i: usize, tiny: bool) -> Request {
    let block = (i / COLD_BLOCK) as u64;
    let slot = (i % COLD_BLOCK) as u64;
    if slot == COLD_BLOCK as u64 - 1 {
        return Request::Threshold(ThresholdRequest {
            spec: spec.clone(),
            n: if tiny { 129 } else { 513 } + 2 * (block * 97 % 256) + 1024 * (block / 256),
            target: 0.0,
            trials: if tiny { 32 } else { 128 },
        });
    }
    let j = block * (COLD_BLOCK as u64 - 1) + slot;
    let (cycle, k) = (j / 1_000, j % 1_000);
    let n = if tiny {
        [128u64, 256]
    } else {
        [1_024u64, 4_096]
    }[(k % 2) as usize]
        + 2 * cycle;
    let gaps = if tiny { 60 } else { 500 };
    let gap = 2 + 2 * ((k / 2 * 37 + seed) % gaps);
    Request::Estimate(EstimateRequest {
        spec: spec.clone(),
        n,
        gap,
        target_ci: if tiny { 0.1 } else { 0.03 },
        max_trials: 0,
    })
}

/// The hot set: warm-up requests that fill the cache, and the repeating
/// request pattern served from it (16 on-lattice estimates, 2 off-lattice
/// interpolated estimates, 2 threshold re-reads per 20 requests).
struct HotSet {
    warm: Vec<Request>,
    pattern: Vec<Request>,
}

fn hot_set(spec: &ScenarioSpec, tiny: bool) -> HotSet {
    let ns: [u64; 2] = if tiny { [64, 128] } else { [512, 1_024] };
    let estimate = |n, gap| {
        Request::Estimate(EstimateRequest {
            spec: spec.clone(),
            n,
            gap,
            target_ci: 0.05,
            max_trials: 0,
        })
    };
    let threshold = |n| {
        Request::Threshold(ThresholdRequest {
            spec: spec.clone(),
            n,
            target: 0.0,
            trials: 64,
        })
    };
    let lattice: Vec<Request> = ns
        .iter()
        .flat_map(|&n| (1..=8u64).map(move |k| (n, 2 * k)))
        .map(|(n, gap)| estimate(n, gap))
        .collect();
    let mut warm = lattice.clone();
    warm.extend(ns.iter().map(|&n| threshold(n)));
    let mut pattern = lattice;
    pattern.push(estimate(ns[0], 5));
    pattern.push(estimate(ns[1], 11));
    pattern.extend(ns.iter().map(|&n| threshold(n)));
    HotSet { warm, pattern }
}

/// A recorded executor call: the range, its bits and its duration.
#[derive(Debug, Clone, PartialEq)]
struct Call {
    request: u64,
    key: (u64, u64, u64, u64, u64, u64),
    bits: Vec<bool>,
    ms: f64,
}

/// A `TrialExecutor` wrapper that times and records every `run_range`.
struct TimedExecutor {
    inner: Box<dyn TrialExecutor>,
    trace: &'static Trace,
    span_name: &'static str,
    parent: Arc<AtomicU64>,
    request: Arc<AtomicU64>,
    calls: Arc<Mutex<Vec<Call>>>,
}

impl TrialExecutor for TimedExecutor {
    fn run_range(
        &self,
        spec: &ScenarioSpec,
        n: u64,
        gap: u64,
        seed: Seed,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<bool>, ServiceError> {
        let request = self.request.load(Ordering::SeqCst);
        let span = self
            .trace
            .open(self.span_name, self.parent.load(Ordering::SeqCst), request);
        let bits = self.inner.run_range(spec, n, gap, seed, lo, hi)?;
        let ms = self.trace.close(span);
        self.calls
            .lock()
            .expect("call log poisoned by a panicking executor")
            .push(Call {
                request,
                key: (spec.fingerprint(), n, gap, seed.value(), lo, hi),
                bits: bits.clone(),
                ms,
            });
        Ok(bits)
    }

    fn describe(&self) -> String {
        format!("timed {}", self.inner.describe())
    }
}

/// Shared handles into a `TimedExecutor` after it moved into a service.
#[derive(Clone)]
struct Probe {
    parent: Arc<AtomicU64>,
    request: Arc<AtomicU64>,
    calls: Arc<Mutex<Vec<Call>>>,
}

impl Probe {
    fn wrap(
        inner: Box<dyn TrialExecutor>,
        trace: &'static Trace,
        span_name: &'static str,
    ) -> (Box<dyn TrialExecutor>, Probe) {
        let probe = Probe {
            parent: Arc::new(AtomicU64::new(0)),
            request: Arc::new(AtomicU64::new(0)),
            calls: Arc::new(Mutex::new(Vec::new())),
        };
        let executor = TimedExecutor {
            inner,
            trace,
            span_name,
            parent: Arc::clone(&probe.parent),
            request: Arc::clone(&probe.request),
            calls: Arc::clone(&probe.calls),
        };
        (Box::new(executor), probe)
    }

    fn calls(&self) -> Vec<Call> {
        self.calls
            .lock()
            .expect("call log poisoned by a panicking executor")
            .clone()
    }
}

/// A running `Server` on a Unix socket, stopped and joined on drop.
struct Running {
    path: PathBuf,
    service: Arc<ThresholdService>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<(), ServiceError>>>,
}

impl Running {
    fn start(executor: Box<dyn TrialExecutor>, scratch: &std::path::Path) -> Running {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = scratch.join(format!(
            "perfbench-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let service = ThresholdService::new(executor, ServiceConfig::default());
        let server = Server::bind(service, &BindAddr::Unix(path.clone())).expect("bind the socket");
        let service = server.service();
        let stop = server.stop_handle();
        let thread = Some(std::thread::spawn(move || server.serve()));
        Running {
            path,
            service,
            stop,
            thread,
        }
    }

    fn connect(&self) -> Client<UnixStream> {
        Client::connect_unix(&self.path).expect("connect and handshake")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("server ended with an error: {e}"),
                Err(_) => eprintln!("server thread panicked"),
            }
        }
    }
}

fn pool() -> Box<dyn TrialExecutor> {
    let program = std::env::current_exe().expect("the benchmark binary hosts the workers");
    Box::new(WorkerPool::new(program, 2).with_threads_per_worker(1))
}

fn executor(temperature: Temperature) -> Box<dyn TrialExecutor> {
    match temperature {
        Temperature::Cold => pool(),
        Temperature::Hot => Box::new(InProcessExecutor::new(2)),
    }
}

fn fresh_trials(response: &Response) -> Option<u64> {
    match response {
        Response::Estimate(r) => Some(r.fresh_trials),
        Response::Threshold(r) => Some(r.fresh_trials),
        _ => None,
    }
}

/// A served server: the running server, one connected client, and for the
/// hot workload the expected answer of every pattern request.
struct Served {
    running: Running,
    client: Client<UnixStream>,
    expected: Vec<Response>,
}

/// Everything before the first timed request: bind, connect, handshake,
/// then a pool spawn (cold) or the cache warm-up (hot). Fails when the
/// warm-up does not leave every pattern request a cache hit.
fn set_up(
    temperature: Temperature,
    executor: Box<dyn TrialExecutor>,
    config: &RunConfig,
    hot: &HotSet,
) -> Result<Served, String> {
    let running = Running::start(executor, &config.scratch);
    let mut client = running.connect();
    let mut expected = Vec::new();
    match temperature {
        Temperature::Cold => {
            // Spawn and handshake both workers once, outside the service's
            // cache, so a broken pool fails set-up instead of the first
            // timed request.
            let spec = spec_for(config.seed);
            let bits = pool()
                .run_range(&spec, 64, 2, Seed::new(config.seed).derive("setup"), 0, 2)
                .map_err(|e| format!("worker pool warm-up failed: {e}"))?;
            std::hint::black_box(bits);
        }
        Temperature::Hot => {
            for request in &hot.warm {
                if let Response::Error(e) = client.request(request).map_err(|e| e.to_string())? {
                    return Err(format!("warm-up request failed: {}", e.message));
                }
            }
            for request in &hot.pattern {
                let response = client.request(request).map_err(|e| e.to_string())?;
                if fresh_trials(&response) != Some(0) {
                    return Err(format!("pattern request is not a warm hit: {response:?}"));
                }
                expected.push(response);
            }
        }
    }
    Ok(Served {
        running,
        client,
        expected,
    })
}

fn set_up_repeated(
    temperature: Temperature,
    config: &RunConfig,
    hot: &HotSet,
) -> Result<(Served, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..config.setup_reps {
        drop(served.take());
        let start = Instant::now();
        served = Some(set_up(temperature, executor(temperature), config, hot)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    Ok((served.expect("at least one set-up"), setups))
}

/// Per-request latencies of one closed-loop connection, with its responses.
struct Loop {
    latencies: Histogram,
    block_s: Vec<f64>,
    responses: Vec<Response>,
}

fn closed_loop(
    client: &mut Client<UnixStream>,
    next: impl Fn(usize) -> Request,
    deadline: Deadline,
    min_requests: usize,
    block: usize,
    keep_responses: bool,
    mut check: impl FnMut(usize, &Response),
) -> Result<Loop, String> {
    let mut out = Loop {
        latencies: Histogram::default(),
        block_s: Vec::new(),
        responses: Vec::new(),
    };
    let mut block_start = Instant::now();
    let mut i = 0;
    while i < min_requests || !deadline.passed() || i % block != 0 {
        let request = next(i);
        let start = Instant::now();
        let response = client.request(&request).map_err(|e| e.to_string())?;
        out.latencies.record(ms_since(start));
        check(i, &response);
        if keep_responses {
            out.responses.push(response);
        }
        i += 1;
        if i % block == 0 {
            out.block_s.push(block_start.elapsed().as_secs_f64());
            block_start = Instant::now();
        }
    }
    Ok(out)
}

/// The fields of a cold response that the in-process reference must
/// reproduce: (successes, trials) per answered cell, plus the threshold.
fn cold_key(response: &Response) -> Option<Vec<u64>> {
    match response {
        Response::Estimate(r) => Some(vec![r.successes, r.trials]),
        Response::Threshold(r) => {
            let mut key = vec![r.result.threshold];
            for probe in &r.result.probes {
                key.extend([probe.gap, probe.successes, probe.trials]);
            }
            Some(key)
        }
        _ => None,
    }
}

/// Replays the request sequence on a fresh in-process service and checks
/// every socket response against it. The self-check's wrong reference adds
/// one success to every reference answer.
fn check_cold(
    requests: &[Request],
    responses: &[Response],
    config: &RunConfig,
    checks: &mut Checks,
) {
    let reference = ThresholdService::new(
        Box::new(InProcessExecutor::new(2)),
        ServiceConfig::default(),
    );
    for (i, (request, response)) in requests.iter().zip(responses).enumerate() {
        let mut expected = cold_key(&reference.handle(request));
        if config.wrong_reference {
            if let Some(key) = expected.as_mut() {
                key[0] += 1;
            }
        }
        let got = cold_key(response);
        checks.check(
            got.is_some() && got == expected && fresh_trials(response).unwrap_or(0) > 0,
            || format!("cold request {i}: response {response:?} differs from the in-process reference {expected:?}"),
        );
    }
}

/// Whether a hot response is an unchanged cache hit: equal to the expected
/// answer recorded after warm-up, apart from the `coalesced` flag (which
/// only says whether the request waited on another one in flight).
fn check_hot(expected: &[Response], index: usize, response: &Response, wrong: bool) -> bool {
    // The self-check's wrong reference is the next pattern entry.
    let want = &expected[(index + usize::from(wrong)) % expected.len()];
    let same = match (response, want) {
        (Response::Estimate(got), Response::Estimate(want)) => {
            &EstimateResponse {
                coalesced: want.coalesced,
                ..got.clone()
            } == want
        }
        (got, want) => got == want,
    };
    same && fresh_trials(response) == Some(0)
}

/// Runs the untraced workload.
pub fn run(temperature: Temperature, config: &RunConfig) -> Result<Outcome, String> {
    let spec = spec_for(config.seed);
    let hot = hot_set(&spec, config.tiny);
    let (served, setups) = set_up_repeated(temperature, config, &hot)?;
    let Served {
        running,
        mut client,
        expected,
    } = served;
    let mut checks = Checks::default();
    let mut outcome = match temperature {
        Temperature::Cold => {
            let deadline = Deadline::after_secs(config.seconds);
            let start = Instant::now();
            let done = closed_loop(
                &mut client,
                |i| cold_request(&spec, config.seed, i, config.tiny),
                deadline,
                config.min_requests,
                COLD_BLOCK,
                true,
                |_, _| {},
            )?;
            let wall_s = start.elapsed().as_secs_f64();
            drop(client);
            drop(running);
            let requests: Vec<Request> = (0..done.responses.len())
                .map(|i| cold_request(&spec, config.seed, i, config.tiny))
                .collect();
            check_cold(&requests, &done.responses, config, &mut checks);
            let fresh: u64 = done.responses.iter().filter_map(fresh_trials).sum();
            let mut outcome = Outcome::new(checks);
            outcome.e2e("setup_s", median(&setups));
            outcome.e2e("solve_s", median(&done.block_s));
            outcome.e2e("throughput_per_s", done.latencies.count() as f64 / wall_s);
            outcome.note(latency_note(&done.latencies));
            outcome.note(format!(
                "fresh_trials_per_s={:.1}; solve_s is the median of {} blocks of {COLD_BLOCK} requests",
                fresh as f64 / wall_s,
                done.block_s.len()
            ));
            outcome
        }
        Temperature::Hot => {
            let deadline = Deadline::after_secs(config.seconds);
            let pattern = &hot.pattern;
            let wrong = config.wrong_reference;
            let (mut attempted, mut failed) = (0u64, 0u64);
            let start = Instant::now();
            let done = closed_loop(
                &mut client,
                |i| pattern[i % pattern.len()].clone(),
                deadline,
                config.min_requests,
                HOT_BLOCK,
                false,
                |i, response| {
                    attempted += 1;
                    if !check_hot(&expected, i, response, wrong) {
                        failed += 1;
                    }
                },
            )?;
            let wall_s = start.elapsed().as_secs_f64();
            drop(client);
            drop(running);
            checks.record(attempted, failed, || {
                "hot responses that were not unchanged cache hits".to_string()
            });
            let (latencies, blocks) = (done.latencies, done.block_s);
            let mut outcome = Outcome::new(checks);
            outcome.e2e("setup_s", median(&setups));
            outcome.e2e("solve_s", median(&blocks));
            outcome.e2e("throughput_per_s", latencies.count() as f64 / wall_s);
            outcome.note(latency_note(&latencies));
            outcome.note(format!(
                "req_per_s={:.1}; solve_s is the median of {} blocks of {HOT_BLOCK} requests",
                latencies.count() as f64 / wall_s,
                blocks.len()
            ));
            outcome
        }
    };
    outcome.note(format!("setup_s is the median of {} set-ups", setups.len()));
    Ok(outcome)
}

fn latency_note(latencies: &Histogram) -> String {
    let mut note = format!(
        "requests={} req_p50_ms={:.4} req_p90_ms={:.4}",
        latencies.count(),
        latencies.quantile(0.5),
        latencies.quantile(0.9)
    );
    // Only percentiles with at least ten samples beyond them.
    if latencies.count() >= 1_000 {
        note.push_str(&format!(" req_p99_ms={:.4}", latencies.quantile(0.99)));
    }
    note
}

/// One request of the in-process replay, timed layer by layer.
#[derive(Debug, Default, Clone, Copy)]
struct Replayed {
    encode_ms: f64,
    decode_ms: f64,
    spec_ms: f64,
    handle_ms: f64,
    exec_ms: f64,
    bytes: usize,
    hit: bool,
}

/// Runs the traced workload. Returns an error (and no numbers) when the
/// in-process replay does not reproduce the socket responses, or the
/// executor ranges differ between the socket server and the replay.
pub fn run_traced(
    temperature: Temperature,
    config: &RunConfig,
    trace: &'static Trace,
) -> Result<Outcome, String> {
    let spec = spec_for(config.seed);
    let hot = hot_set(&spec, config.tiny);
    let count = match (temperature, config.tiny) {
        (Temperature::Cold, false) => 5 * COLD_BLOCK,
        (Temperature::Cold, true) => COLD_BLOCK,
        (Temperature::Hot, false) => 20 * HOT_BLOCK,
        (Temperature::Hot, true) => 2 * HOT_BLOCK / 10,
    };
    let requests: Vec<Request> = (0..count)
        .map(|i| match temperature {
            Temperature::Cold => cold_request(&spec, config.seed, i, config.tiny),
            Temperature::Hot => hot.pattern[i % hot.pattern.len()].clone(),
        })
        .collect();

    // Pass A: the plain socket pass, the reference for tracing overhead.
    let mut plain = set_up(temperature, executor(temperature), config, &hot)?;
    let start = Instant::now();
    for request in &requests {
        plain.client.request(request).map_err(|e| e.to_string())?;
    }
    let plain_ms = ms_since(start);
    drop(plain);

    // Pass B: the same requests with the executor timed and each round
    // trip recorded as a span.
    let (timed, socket_probe) = Probe::wrap(executor(temperature), trace, "exec");
    let Served {
        running,
        mut client,
        expected,
    } = set_up(temperature, timed, config, &hot)?;
    let snapshot = running.service.snapshot();
    socket_probe
        .calls
        .lock()
        .expect("call log poisoned by a panicking executor")
        .clear();
    let mut round_trip_ms = Vec::new();
    let mut responses = Vec::new();
    let mut checks = Checks::default();
    let start = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        let span = trace.open("edge.round_trip", 0, i as u64);
        socket_probe.parent.store(span.id(), Ordering::SeqCst);
        socket_probe.request.store(i as u64, Ordering::SeqCst);
        let response = client.request(request).map_err(|e| e.to_string())?;
        round_trip_ms.push(trace.close(span));
        match temperature {
            Temperature::Hot => checks.check(
                check_hot(&expected, i, &response, config.wrong_reference),
                || format!("hot request {i} was not an unchanged cache hit"),
            ),
            // Cold responses are checked against the in-process replay
            // below, which must reproduce them exactly.
            Temperature::Cold => checks.check(fresh_trials(&response).unwrap_or(0) > 0, || {
                format!("cold request {i} was not a miss: {response:?}")
            }),
        }
        responses.push(response);
    }
    let socket_ms = ms_since(start);
    let connect_ms: Vec<f64> = (0..10)
        .map(|_| {
            let start = Instant::now();
            drop(running.connect());
            ms_since(start)
        })
        .collect();
    drop(client);
    drop(running);

    // Pass C: the in-process replay from the same cache snapshot.
    let (timed, replay_probe) =
        Probe::wrap(Box::new(InProcessExecutor::new(2)), trace, "replay.exec");
    let service = ThresholdService::new(timed, ServiceConfig::default()).with_snapshot(&snapshot);
    let mut replayed = Vec::new();
    for (i, (request, socket_response)) in requests.iter().zip(&responses).enumerate() {
        let request_id = i as u64;
        let root = trace.open("request", 0, request_id);
        let mut step = Replayed::default();
        let mut bytes = Vec::new();
        let span = trace.open("wire.encode", root.id(), request_id);
        write_message(&mut bytes, request).map_err(|e| e.to_string())?;
        step.encode_ms += trace.close(span);
        let span = trace.open("wire.decode", root.id(), request_id);
        let decoded: Request =
            read_message(&mut bytes.as_slice(), MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
        step.decode_ms += trace.close(span);
        step.bytes += bytes.len();
        let span = trace.open("spec.check", root.id(), request_id);
        if let Request::Estimate(EstimateRequest { spec, .. })
        | Request::Threshold(ThresholdRequest { spec, .. }) = &decoded
        {
            let valid = spec.clone().validated().map_err(|e| e.to_string())?;
            std::hint::black_box(valid.fingerprint());
        }
        step.spec_ms += trace.close(span);
        let span = trace.open("service.handle", root.id(), request_id);
        replay_probe.parent.store(span.id(), Ordering::SeqCst);
        replay_probe.request.store(request_id, Ordering::SeqCst);
        let response = service.handle(&decoded);
        step.handle_ms += trace.close(span);
        let mut out = Vec::new();
        let span = trace.open("wire.encode", root.id(), request_id);
        write_message(&mut out, &response).map_err(|e| e.to_string())?;
        step.encode_ms += trace.close(span);
        let span = trace.open("wire.decode", root.id(), request_id);
        let echoed: Response =
            read_message(&mut out.as_slice(), MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
        step.decode_ms += trace.close(span);
        step.bytes += out.len();
        trace.close(root);
        if &echoed != socket_response {
            return Err(format!(
                "replay mismatch at request {i}: socket {socket_response:?} vs in-process {echoed:?}"
            ));
        }
        step.hit = fresh_trials(&echoed) == Some(0);
        replayed.push(step);
    }
    let socket_calls = socket_probe.calls();
    let replay_calls = replay_probe.calls();
    let same_ranges = socket_calls.len() == replay_calls.len()
        && socket_calls
            .iter()
            .zip(&replay_calls)
            .all(|(a, b)| a.key == b.key && a.bits == b.bits && a.request == b.request);
    if !same_ranges {
        return Err(format!(
            "executor replay mismatch: {} socket calls vs {} in-process calls, or differing ranges or bits",
            socket_calls.len(),
            replay_calls.len()
        ));
    }
    for call in &replay_calls {
        replayed[call.request as usize].exec_ms += call.ms;
    }
    let mut socket_exec_ms = vec![0.0; requests.len()];
    for call in &socket_calls {
        socket_exec_ms[call.request as usize] += call.ms;
    }

    let n = requests.len() as f64;
    let calls = socket_calls.len() as f64;
    let trials: u64 = socket_calls.iter().map(|c| c.key.5 - c.key.4).sum();
    let pool_ms: f64 = socket_calls.iter().map(|c| c.ms).sum();
    let in_process_ms: f64 = replay_calls.iter().map(|c| c.ms).sum();
    let service_self = |r: &Replayed| r.handle_ms - r.exec_ms - r.spec_ms;
    let (hits, misses): (Vec<&Replayed>, Vec<&Replayed>) = replayed.iter().partition(|r| r.hit);
    let mean_us = |group: &[&Replayed]| {
        1e3 * group.iter().map(|r| service_self(r)).sum::<f64>() / group.len() as f64
    };
    // Only the layers this workload exercises: no executor call or miss on
    // serve-hot, no hit on serve-cold.
    let mut layers = Layers::default();
    layers.put("exec.calls", calls);
    layers.put("exec.trials", trials as f64);
    if calls > 0.0 {
        layers.put("exec.ms_per_call", pool_ms / calls);
        layers.put("exec.pool_overhead_ms", (pool_ms - in_process_ms) / calls);
    }
    if !hits.is_empty() {
        layers.put("service.hit_us", mean_us(&hits));
    }
    if !misses.is_empty() {
        layers.put("service.miss_self_ms", mean_us(&misses) / 1e3);
        layers.put("service.calls_per_miss", calls / misses.len() as f64);
    }
    layers.put("cache.hit_ratio", hits.len() as f64 / n);
    layers.put(
        "spec.check_us",
        1e3 * replayed.iter().map(|r| r.spec_ms).sum::<f64>() / n,
    );
    layers.put(
        "wire.encode_us",
        1e3 * replayed.iter().map(|r| r.encode_ms).sum::<f64>() / n,
    );
    layers.put(
        "wire.decode_us",
        1e3 * replayed.iter().map(|r| r.decode_ms).sum::<f64>() / n,
    );
    layers.put(
        "wire.bytes_per_req",
        replayed.iter().map(|r| r.bytes as f64).sum::<f64>() / n,
    );
    // The edge is what a round trip spends outside the codec, the service
    // and the executor: socket I/O, framing syscalls and the connection
    // thread hand-off.
    let edge_ms: f64 = replayed
        .iter()
        .zip(&round_trip_ms)
        .zip(&socket_exec_ms)
        .map(|((r, rt), exec)| rt - service_self(r) - r.spec_ms - r.encode_ms - r.decode_ms - exec)
        .sum();
    layers.put("edge.self_us", 1e3 * edge_ms / n);
    layers.put("edge.connect_ms", median(&connect_ms));
    layers.put("residual_ms", socket_ms - round_trip_ms.iter().sum::<f64>());
    layers.put("trace.overhead_ratio", socket_ms / plain_ms);
    let mut outcome = Outcome::new(checks);
    outcome.layers = layers;
    Ok(outcome)
}
