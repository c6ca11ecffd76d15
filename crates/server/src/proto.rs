//! The versioned request/response vocabulary.
//!
//! Every connection opens with a [`Hello`] exchange negotiating
//! [`SCHEMA_VERSION`]; after that, clients send [`Request`] frames and
//! receive exactly one [`Response`] frame per request. Workers speak the
//! same wire format with the [`RunRange`]/[`RunOutcome`] pair. Enum
//! envelopes serialize as `{"type": ..., "body": ...}` tagged maps; see
//! `PROTOCOL.md` for the full byte-level story.

use crate::error::ServiceError;
use crate::spec::ScenarioSpec;
use lv_sim::ThresholdResult;
use serde::{Deserialize, Serialize};

/// The JSON schema version this build speaks. Bump on any incompatible
/// message change; the `Hello` exchange rejects mismatched peers.
pub const SCHEMA_VERSION: u32 = 1;

/// The handshake message, sent first by each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// The sender's [`SCHEMA_VERSION`].
    pub schema_version: u32,
}

impl Hello {
    /// A handshake advertising this build's version.
    pub fn current() -> Self {
        Hello {
            schema_version: SCHEMA_VERSION,
        }
    }

    /// Rejects a peer speaking a different schema version.
    pub fn check(&self) -> Result<(), ServiceError> {
        if self.schema_version == SCHEMA_VERSION {
            Ok(())
        } else {
            Err(ServiceError::new(
                "version-mismatch",
                format!(
                    "peer speaks schema version {}, this build speaks {}",
                    self.schema_version, SCHEMA_VERSION
                ),
            ))
        }
    }
}

/// An `Estimate` request: the success probability of one `(n, gap)` cell,
/// to a requested confidence width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateRequest {
    /// The scenario specification.
    pub spec: ScenarioSpec,
    /// Total initial population.
    pub n: u64,
    /// Initial gap (two species) or plurality margin (`k` species). Off the
    /// feasible lattice, the server answers by bilinear interpolation from
    /// cached neighbours instead of running trials.
    pub gap: u64,
    /// Target Wilson 95% half-width. The cache serves directly when its
    /// posterior is already at least this tight.
    pub target_ci: f64,
    /// Cap on fresh trials this request may spend (`0` = server default).
    pub max_trials: u64,
}

/// A `Threshold` request: the full adaptive gap search at one `n`,
/// memoized cell by cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdRequest {
    /// The scenario specification.
    pub spec: ScenarioSpec,
    /// Total initial population.
    pub n: u64,
    /// Success-probability target; `0.0` selects the search default
    /// `min(1 − 1/n, 1 − 3/trials)`.
    pub target: f64,
    /// Per-probe trial cap (`0` = server default).
    pub trials: u64,
}

/// A `SweepSurface` request: estimate a whole lattice of cells (requested
/// gaps snap to the nearest feasible lattice point per `n`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRequest {
    /// The scenario specification.
    pub spec: ScenarioSpec,
    /// Population sizes to probe.
    pub n_lattice: Vec<u64>,
    /// Gaps to probe at every `n` (snapped to feasibility).
    pub gap_lattice: Vec<u64>,
    /// Target Wilson 95% half-width per cell.
    pub target_ci: f64,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Estimate one cell.
    Estimate(EstimateRequest),
    /// Search the threshold at one `n`.
    Threshold(ThresholdRequest),
    /// Estimate a lattice of cells.
    SweepSurface(SweepRequest),
    /// Server liveness/identity.
    Status,
    /// Cache counters.
    CacheStats,
    /// Graceful shutdown: drain in-flight requests, snapshot, exit.
    Shutdown,
}

/// The response to an `Estimate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateResponse {
    /// The spec's cache fingerprint (hex).
    pub fingerprint: String,
    /// Population of the answered cell.
    pub n: u64,
    /// Gap of the answered cell.
    pub gap: u64,
    /// Successes accumulated in the cell (0 for interpolated answers).
    pub successes: u64,
    /// Trials accumulated in the cell (0 for interpolated answers).
    pub trials: u64,
    /// Point estimate of the success probability.
    pub point: f64,
    /// Wilson 95% lower bound.
    pub ci_low: f64,
    /// Wilson 95% upper bound.
    pub ci_high: f64,
    /// Wilson 95% half-width (widened for interpolated answers).
    pub half_width: f64,
    /// Whether the answer was served without running any fresh trial.
    pub cache_hit: bool,
    /// Fresh trials this request scheduled (incremental, never a restart).
    pub fresh_trials: u64,
    /// Whether the answer is a bilinear interpolation between lattice cells.
    pub interpolated: bool,
    /// Whether this request waited on an identical in-flight computation.
    pub coalesced: bool,
}

/// The response to a `Threshold`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdResponse {
    /// The spec's cache fingerprint (hex).
    pub fingerprint: String,
    /// The search result, probe log included.
    pub result: ThresholdResult,
    /// Fresh trials this request scheduled across all probes.
    pub fresh_trials: u64,
}

/// One cell of a sweep surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfaceCell {
    /// Population of the cell.
    pub n: u64,
    /// The feasible gap actually probed.
    pub gap: u64,
    /// The gap the client asked for (before lattice snapping).
    pub requested_gap: u64,
    /// Successes accumulated in the cell.
    pub successes: u64,
    /// Trials accumulated in the cell.
    pub trials: u64,
    /// Point estimate.
    pub point: f64,
    /// Wilson 95% half-width.
    pub half_width: f64,
}

/// The response to a `SweepSurface`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfaceResponse {
    /// The spec's cache fingerprint (hex).
    pub fingerprint: String,
    /// One row per distinct probed cell, in `(n, gap)` order.
    pub cells: Vec<SurfaceCell>,
    /// Fresh trials this request scheduled across all cells.
    pub fresh_trials: u64,
}

/// The response to a `Status`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusResponse {
    /// The server's schema version.
    pub schema_version: u32,
    /// Human-readable executor description (threads / worker processes).
    pub executor: String,
    /// Requests served since startup.
    pub served: u64,
}

/// Cache counters (also the `CacheStats` response body).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStatsResponse {
    /// Distinct model fingerprints cached.
    pub entries: u64,
    /// Distinct `(n, gap)` cells cached.
    pub cells: u64,
    /// Total trials banked across all cells.
    pub trials: u64,
    /// Requests answered without fresh trials.
    pub hits: u64,
    /// Requests that scheduled fresh trials.
    pub misses: u64,
    /// Requests that waited on an identical in-flight computation.
    pub coalesced: u64,
    /// Off-lattice requests answered by interpolation.
    pub interpolated: u64,
}

/// An error response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Machine-readable code (see [`ServiceError`]).
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

impl From<ServiceError> for ErrorResponse {
    fn from(e: ServiceError) -> Self {
        ErrorResponse {
            code: e.code().to_string(),
            message: e.message().to_string(),
        }
    }
}

impl From<ErrorResponse> for ServiceError {
    fn from(e: ErrorResponse) -> Self {
        ServiceError::new(&e.code, e.message)
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Estimate`].
    Estimate(EstimateResponse),
    /// Answer to [`Request::Threshold`].
    Threshold(ThresholdResponse),
    /// Answer to [`Request::SweepSurface`].
    Surface(SurfaceResponse),
    /// Answer to [`Request::Status`].
    Status(StatusResponse),
    /// Answer to [`Request::CacheStats`].
    CacheStats(CacheStatsResponse),
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// Any failure.
    Error(ErrorResponse),
}

/// A trial-range assignment sent to a worker process: rebuild the scenario
/// from the spec and run trials `[lo, hi)` of the cell's RNG stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRange {
    /// The scenario specification to rebuild.
    pub spec: ScenarioSpec,
    /// Population of the cell.
    pub n: u64,
    /// Gap of the cell.
    pub gap: u64,
    /// Root seed of the cell's RNG stream (trial `i` uses
    /// `Seed::rng_for_trial(i)`).
    pub seed: u64,
    /// First trial index (inclusive).
    pub lo: u64,
    /// Last trial index (exclusive).
    pub hi: u64,
}

/// A worker's answer to a [`RunRange`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Echo of the range start.
    pub lo: u64,
    /// One `'1'`/`'0'` per trial in `[lo, hi)`, in trial order
    /// (`'1'` = the initial leader won).
    pub bits: String,
    /// Set when the worker failed to execute the range.
    pub error: Option<String>,
}

impl RunOutcome {
    /// A successful outcome carrying the range's success bits.
    pub fn ok(lo: u64, bits: &[bool]) -> Self {
        RunOutcome {
            lo,
            bits: bits.iter().map(|&b| if b { '1' } else { '0' }).collect(),
            error: None,
        }
    }

    /// A failed outcome carrying the error's display form.
    pub fn err(lo: u64, error: &ServiceError) -> Self {
        RunOutcome {
            lo,
            bits: String::new(),
            error: Some(error.to_string()),
        }
    }

    /// Decodes the success bits, surfacing a reported worker error.
    pub fn decode(&self) -> Result<Vec<bool>, ServiceError> {
        if let Some(message) = &self.error {
            return Err(ServiceError::new("worker", message));
        }
        self.bits
            .chars()
            .map(|c| match c {
                '1' => Ok(true),
                '0' => Ok(false),
                other => Err(ServiceError::new(
                    "worker",
                    format!("invalid outcome bit {other:?}"),
                )),
            })
            .collect()
    }
}

/// Writes an adjacently tagged envelope, `{"<tag_key>":"<tag>",
/// "<body_key>":<body>}`.
pub(crate) fn write_tagged<O: serde::Output, T: Serialize + ?Sized>(
    out: &mut O,
    (tag_key, tag): (&str, &str),
    (body_key, body): (&str, &T),
) {
    out.write(b"{");
    serde::json::write_str(out, tag_key);
    out.write(b":");
    serde::json::write_str(out, tag);
    out.write(b",");
    serde::json::write_str(out, body_key);
    out.write(b":");
    body.serialize(out);
    out.write(b"}");
}

/// Reads an adjacently tagged envelope with its keys in either order:
/// `variant(tag, de)` reads the body. A body that precedes its tag is
/// captured and read again once the tag is known; an absent body reads as
/// `null`. As for any map, unknown keys are skipped and the first of
/// duplicate keys wins.
pub(crate) fn read_tagged<'de, T>(
    de: &mut serde::Deserializer<'de>,
    tag_key: &str,
    body_key: &str,
    mut variant: impl FnMut(&str, &mut serde::Deserializer<'de>) -> Result<T, serde::Error>,
) -> Result<T, serde::Error> {
    let (mut tag, mut body, mut early) = (None, None, None);
    de.map(|de, key| {
        if key == tag_key && tag.is_none() {
            let text = de.str("a string");
            tag = Some(text.map_err(|e| serde::Error::custom(format!("field `{key}`: {e}")))?);
        } else if key == body_key && body.is_none() && early.is_none() {
            match &tag {
                Some(tag) => body = Some(variant(tag, de)?),
                None => early = Some(de.capture()?),
            }
        } else {
            de.skip()?;
        }
        Ok(())
    })?;
    let tag = tag.ok_or_else(|| serde::Error::missing_field(tag_key))?;
    match body {
        Some(value) => Ok(value),
        None => variant(&tag, &mut early.unwrap_or_else(serde::Deserializer::null)),
    }
}

/// Implements the `{"type": tag, "body": payload}` envelope (unit variants
/// carry a `null` body).
macro_rules! tagged_enum_serde {
    ($name:ident { $($variant:ident ($inner:ty) => $tag:literal,)* ; $($unit:ident => $unit_tag:literal,)* }) => {
        impl Serialize for $name {
            fn serialize<O: serde::Output>(&self, out: &mut O) {
                match self {
                    $($name::$variant(inner) => write_tagged(out, ("type", $tag), ("body", inner)),)*
                    $($name::$unit => write_tagged(out, ("type", $unit_tag), ("body", &())),)*
                }
            }
        }

        impl<'de> Deserialize<'de> for $name {
            fn deserialize(de: &mut serde::Deserializer<'de>) -> Result<Self, serde::Error> {
                read_tagged(de, "type", "body", |tag, body| match tag {
                    $($tag => <$inner>::deserialize(body).map($name::$variant),)*
                    $($unit_tag => body.skip().map(|()| $name::$unit),)*
                    other => Err(serde::Error::unknown_variant(other)),
                })
            }
        }
    };
}

tagged_enum_serde!(Request {
    Estimate(EstimateRequest) => "estimate",
    Threshold(ThresholdRequest) => "threshold",
    SweepSurface(SweepRequest) => "sweep_surface",
    ;
    Status => "status",
    CacheStats => "cache_stats",
    Shutdown => "shutdown",
});

tagged_enum_serde!(Response {
    Estimate(EstimateResponse) => "estimate",
    Threshold(ThresholdResponse) => "threshold",
    Surface(SurfaceResponse) => "surface",
    Status(StatusResponse) => "status",
    CacheStats(CacheStatsResponse) => "cache_stats",
    Error(ErrorResponse) => "error",
    ;
    ShuttingDown => "shutting_down",
});

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
    fn requests_round_trip() {
        let requests = [
            Request::Estimate(EstimateRequest {
                spec: spec(),
                n: 200,
                gap: 10,
                target_ci: 0.05,
                max_trials: 0,
            }),
            Request::Threshold(ThresholdRequest {
                spec: spec(),
                n: 100,
                target: 0.0,
                trials: 64,
            }),
            Request::SweepSurface(SweepRequest {
                spec: spec(),
                n_lattice: vec![50, 100],
                gap_lattice: vec![2, 4, 8],
                target_ci: 0.1,
            }),
            Request::Status,
            Request::CacheStats,
            Request::Shutdown,
        ];
        for request in requests {
            let text = serde::json::to_string(&request);
            let back: Request = serde::json::from_str(&text).unwrap();
            assert_eq!(back, request, "{text}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Estimate(EstimateResponse {
                fingerprint: "00ff".to_string(),
                n: 100,
                gap: 4,
                successes: 90,
                trials: 100,
                point: 0.9,
                ci_low: 0.82,
                ci_high: 0.95,
                half_width: 0.06,
                cache_hit: true,
                fresh_trials: 0,
                interpolated: false,
                coalesced: false,
            }),
            Response::Status(StatusResponse {
                schema_version: SCHEMA_VERSION,
                executor: "in-process".to_string(),
                served: 3,
            }),
            Response::ShuttingDown,
            Response::Error(ErrorResponse {
                code: "bad-request".to_string(),
                message: "nope".to_string(),
            }),
        ];
        for response in responses {
            let text = serde::json::to_string(&response);
            let back: Response = serde::json::from_str(&text).unwrap();
            assert_eq!(back, response, "{text}");
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let result: Result<Request, _> =
            serde::json::from_str(r#"{"type":"frobnicate","body":null}"#);
        assert!(result.is_err());
    }

    #[test]
    fn worker_messages_round_trip() {
        let run = RunRange {
            spec: spec(),
            n: 64,
            gap: 4,
            seed: 1234,
            lo: 10,
            hi: 20,
        };
        let text = serde::json::to_string(&run);
        assert_eq!(serde::json::from_str::<RunRange>(&text).unwrap(), run);
        let outcome = RunOutcome {
            lo: 10,
            bits: "1011011101".to_string(),
            error: None,
        };
        let text = serde::json::to_string(&outcome);
        assert_eq!(serde::json::from_str::<RunOutcome>(&text).unwrap(), outcome);
    }
}
