//! Measurement plumbing shared by every workload: order statistics, the
//! host reference loop, peak memory, output checks, the metric list and the
//! in-memory span recorder of traced runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The median of the samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "order statistic of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    sorted
}

/// A latency histogram with logarithmic buckets 1% wide, from 1 µs up: a
/// fixed few kilobytes however many requests a run completes, so the
/// benchmark's own memory does not grow with the server's speed.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const BUCKET_RATIO: f64 = 1.01;
const BUCKET_FLOOR_MS: f64 = 1e-3;
const BUCKETS: usize = 2_000;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, ms: f64) {
        let index = ((ms / BUCKET_FLOOR_MS).max(1.0).ln() / BUCKET_RATIO.ln()) as usize;
        self.counts[index.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q`-quantile, as its bucket's geometric midpoint.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return BUCKET_FLOOR_MS * BUCKET_RATIO.powf(index as f64 + 0.5);
            }
        }
        0.0
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One timing of the fixed integer/float reference loop, in milliseconds.
///
/// The loop touches no memory and calls nothing from the workspace, so its
/// time moves only with the host: printing it next to every run separates
/// host drift from program change.
fn ref_loop_once() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut f = 1.0f64;
    for i in 0..std::hint::black_box(20_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        f = f * 1.000_000_1 + (x & 0xff) as f64 * 1e-9;
        if i & 1023 == 0 {
            f = f.sqrt();
        }
    }
    std::hint::black_box(x ^ f.to_bits());
    ms_since(start)
}

/// Reference-loop samples: call before set-up and again after teardown.
#[derive(Debug, Default)]
pub struct HostProbe {
    samples: Vec<f64>,
}

impl HostProbe {
    pub fn sample(&mut self) {
        for _ in 0..3 {
            self.samples.push(ref_loop_once());
        }
    }

    pub fn ref_loop_ms(&self) -> f64 {
        median(&self.samples)
    }
}

/// Output checks behind `ok_rate`: every checked operation counts as
/// attempted, every failed check as failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one checked operation; `detail` is printed on failure.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 8 {
                eprintln!("check failed: {}", detail());
            }
        }
    }

    /// Records `attempted` operations checked elsewhere, `failed` of
    /// which failed.
    pub fn record(&mut self, attempted: u64, failed: u64, detail: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            eprintln!("check failed ({failed} of {attempted}): {}", detail());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn ok_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn result_json(&self, checks: &Checks) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.failed() == 0 && checks.attempted() > 0,
            checks.attempted(),
            checks.failed(),
            metrics.join(", ")
        )
    }
}

/// One traced interval. `parent == 0` marks a root; `workers` is how many
/// threads the span's children ran on (their busy time is divided by it
/// when the span's self time is computed).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub workers: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The in-memory span recorder of a traced run. Spans are only recorded
/// around calls into the workspace's public functions, from this crate.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// An open span; [`Trace::close`] records it.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: u64,
    name: String,
    request: u64,
    start_ns: u64,
    workers: u32,
}

impl OpenSpan {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1) as u32;
        self
    }
}

impl Trace {
    pub fn open(&self, name: impl Into<String>, parent: u64, request: u64) -> OpenSpan {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        OpenSpan {
            id,
            parent,
            name: name.into(),
            request,
            start_ns: now_ns(),
            workers: 1,
        }
    }

    /// Closes the span and returns its duration in milliseconds.
    pub fn close(&self, span: OpenSpan) -> f64 {
        let closed = Span {
            id: span.id,
            parent: span.parent,
            name: span.name,
            request: span.request,
            start_ns: span.start_ns,
            end_ns: now_ns(),
            workers: span.workers,
        };
        let ms = closed.ms();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking workload")
            .push(closed);
        ms
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking workload")
            .clone()
    }

    /// Wall-attributed self time per span name in milliseconds: a span's
    /// duration minus its children's busy time divided by its worker count,
    /// itself divided by its parent's worker count (time on `w` parallel
    /// workers covers `1/w` of the consuming thread's wall). Summed over all
    /// names this equals the roots' total duration.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let workers: BTreeMap<u64, f64> =
            spans.iter().map(|s| (s.id, f64::from(s.workers))).collect();
        let mut children_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for span in &spans {
            if span.parent != 0 {
                *children_ms.entry(span.parent).or_default() += span.ms();
            }
        }
        let mut selves: BTreeMap<String, f64> = BTreeMap::new();
        for span in &spans {
            let children = children_ms.get(&span.id).copied().unwrap_or(0.0);
            let own = span.ms() - children / f64::from(span.workers);
            let share = workers.get(&span.parent).copied().unwrap_or(1.0);
            *selves.entry(span.name.clone()).or_default() += own / share;
        }
        selves
    }

    /// Total duration per span name in milliseconds.
    pub fn total_ms(&self) -> BTreeMap<String, f64> {
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        for span in self.spans() {
            *totals.entry(span.name.clone()).or_default() += span.ms();
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}, \"workers\": {}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns, s.workers
            )?;
        }
        out.flush()
    }
}

/// A deadline for a timed phase of `seconds` seconds.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    pub fn after_secs(seconds: f64) -> Self {
        Deadline {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
        }
    }

    pub fn passed(&self) -> bool {
        self.start.elapsed() >= self.budget
    }
}
