//! Golden bytes of the JSON codec.
//!
//! Fingerprints, cache keys, cell RNG streams and on-disk snapshots all
//! derive from the exact JSON text the codec writes, so that text is
//! pinned here byte for byte: every `Request`/`Response` variant, the
//! worker pair, a cache snapshot, sweep artifacts holding non-finite
//! floats, and a persisted jump chain. Each text must also decode back to
//! an equal value and re-encode to the same bytes.

use lv_lotka::{CompetitionKind, LvConfiguration, LvJumpChain, LvModel, MultiLvModel};
use lv_server::proto::{ErrorResponse, RunOutcome, RunRange};
use lv_server::{
    CacheStatsResponse, EstimateRequest, EstimateResponse, InProcessExecutor, Request, Response,
    ScenarioSpec, ServiceConfig, StatusResponse, SurfaceCell, SurfaceResponse, SurfaceSnapshot,
    SweepRequest, ThresholdRequest, ThresholdResponse, ThresholdService,
};
use lv_sim::{GapProbe, ScalingFit, ThresholdResult};

fn sd_spec() -> ScenarioSpec {
    ScenarioSpec::two_species(
        LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
        "jump-chain",
    )
}

fn budget_spec() -> ScenarioSpec {
    sd_spec().with_events_per_individual(207)
}

fn multi_spec() -> ScenarioSpec {
    ScenarioSpec::multi_species(
        MultiLvModel::symmetric(CompetitionKind::NonSelfDestructive, 3, 1.0, 0.5, 2.0),
        "gillespie-direct",
    )
}

fn threshold_result() -> ThresholdResult {
    ThresholdResult {
        n: 1024,
        species: 2,
        backend: "jump-chain".to_string(),
        threshold: 12,
        target: 1.0 - 1.0 / 1024.0,
        success_at_threshold: f64::NAN,
        saturated: false,
        probes: vec![
            GapProbe {
                gap: 2,
                trials: 64,
                successes: 33,
                estimate: 33.0 / 64.0,
                reached_target: false,
            },
            GapProbe {
                gap: 12,
                trials: 400,
                successes: 400,
                estimate: f64::NEG_INFINITY,
                reached_target: true,
            },
        ],
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Estimate(EstimateRequest {
            spec: budget_spec(),
            n: 512,
            gap: 2,
            target_ci: 0.05,
            max_trials: 0,
        }),
        Request::Threshold(ThresholdRequest {
            spec: sd_spec(),
            n: 1024,
            target: 0.0,
            trials: 64,
        }),
        Request::SweepSurface(SweepRequest {
            spec: multi_spec(),
            n_lattice: vec![60, 120],
            gap_lattice: vec![3, 6, 9],
            target_ci: 0.1,
        }),
        Request::Status,
        Request::CacheStats,
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Estimate(EstimateResponse {
            fingerprint: "0123456789abcdef".to_string(),
            n: 512,
            gap: 2,
            successes: 301,
            trials: 512,
            point: 301.0 / 512.0,
            ci_low: 0.5447,
            ci_high: 0.6301,
            half_width: 0.0427,
            cache_hit: true,
            fresh_trials: 0,
            interpolated: false,
            coalesced: true,
        }),
        Response::Threshold(ThresholdResponse {
            fingerprint: "fedcba9876543210".to_string(),
            result: threshold_result(),
            fresh_trials: 464,
        }),
        Response::Surface(SurfaceResponse {
            fingerprint: "00000000000000ff".to_string(),
            cells: vec![SurfaceCell {
                n: 60,
                gap: 3,
                requested_gap: 4,
                successes: 7,
                trials: 10,
                point: 0.7,
                half_width: f64::INFINITY,
            }],
            fresh_trials: 10,
        }),
        Response::Status(StatusResponse {
            schema_version: 1,
            executor: "in-process \"2\" threads\n\u{1}é".to_string(),
            served: 3,
        }),
        Response::CacheStats(CacheStatsResponse {
            entries: 1,
            cells: 2,
            trials: 3,
            hits: 4,
            misses: 5,
            coalesced: 6,
            interpolated: 7,
        }),
        Response::ShuttingDown,
        Response::Error(ErrorResponse {
            code: "bad-request".to_string(),
            message: "target_ci must be a positive finite number, got NaN".to_string(),
        }),
    ]
}

/// Asserts `value` writes exactly `golden`, and that `golden` reads back
/// to a value that writes the same bytes again.
fn pin<T>(value: &T, golden: &str)
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let text = serde::json::to_string(value);
    assert_eq!(text, golden);
    let back: T = serde::json::from_str(golden).unwrap();
    assert_eq!(serde::json::to_string(&back), golden);
}

#[test]
fn requests_keep_their_bytes() {
    let golden = [
        r#"{"type":"estimate","body":{"spec":{"model":{"kind":"two","model":{"kind":"SelfDestructive","rates":{"beta":1.0,"delta":1.0,"alpha":[0.5,0.5],"gamma":[0.0,0.0]}}},"backend":"jump-chain","events_per_individual":207},"n":512,"gap":2,"target_ci":0.05,"max_trials":0}}"#,
        r#"{"type":"threshold","body":{"spec":{"model":{"kind":"two","model":{"kind":"SelfDestructive","rates":{"beta":1.0,"delta":1.0,"alpha":[0.5,0.5],"gamma":[0.0,0.0]}}},"backend":"jump-chain","events_per_individual":0},"n":1024,"target":0.0,"trials":64}}"#,
        r#"{"type":"sweep_surface","body":{"spec":{"model":{"kind":"multi","model":{"kind":"NonSelfDestructive","beta":[1.0,1.0,1.0],"delta":[0.5,0.5,0.5],"alpha":[0.0,1.0,1.0,1.0,0.0,1.0,1.0,1.0,0.0],"gamma":[0.0,0.0,0.0]}},"backend":"gillespie-direct","events_per_individual":0},"n_lattice":[60,120],"gap_lattice":[3,6,9],"target_ci":0.1}}"#,
        r#"{"type":"status","body":null}"#,
        r#"{"type":"cache_stats","body":null}"#,
        r#"{"type":"shutdown","body":null}"#,
    ];
    let requests = requests();
    assert_eq!(requests.len(), golden.len());
    for (request, golden) in requests.iter().zip(golden) {
        pin(request, golden);
    }
}

#[test]
fn responses_keep_their_bytes() {
    let golden = [
        r#"{"type":"estimate","body":{"fingerprint":"0123456789abcdef","n":512,"gap":2,"successes":301,"trials":512,"point":0.587890625,"ci_low":0.5447,"ci_high":0.6301,"half_width":0.0427,"cache_hit":true,"fresh_trials":0,"interpolated":false,"coalesced":true}}"#,
        r#"{"type":"threshold","body":{"fingerprint":"fedcba9876543210","result":{"n":1024,"species":2,"backend":"jump-chain","threshold":12,"target":0.9990234375,"success_at_threshold":NaN,"saturated":false,"probes":[{"gap":2,"trials":64,"successes":33,"estimate":0.515625,"reached_target":false},{"gap":12,"trials":400,"successes":400,"estimate":-Infinity,"reached_target":true}]},"fresh_trials":464}}"#,
        r#"{"type":"surface","body":{"fingerprint":"00000000000000ff","cells":[{"n":60,"gap":3,"requested_gap":4,"successes":7,"trials":10,"point":0.7,"half_width":Infinity}],"fresh_trials":10}}"#,
        "{\"type\":\"status\",\"body\":{\"schema_version\":1,\"executor\":\"in-process \\\"2\\\" threads\\n\\u0001é\",\"served\":3}}",
        r#"{"type":"cache_stats","body":{"entries":1,"cells":2,"trials":3,"hits":4,"misses":5,"coalesced":6,"interpolated":7}}"#,
        r#"{"type":"shutting_down","body":null}"#,
        r#"{"type":"error","body":{"code":"bad-request","message":"target_ci must be a positive finite number, got NaN"}}"#,
    ];
    let responses = responses();
    assert_eq!(responses.len(), golden.len());
    for (response, golden) in responses.iter().zip(golden) {
        // NaN != NaN, so compare re-encoded bytes rather than values.
        pin(response, golden);
    }
}

#[test]
fn worker_messages_keep_their_bytes() {
    pin(
        &RunRange {
            spec: budget_spec(),
            n: 64,
            gap: 4,
            seed: u64::MAX,
            lo: 10,
            hi: 20,
        },
        r#"{"spec":{"model":{"kind":"two","model":{"kind":"SelfDestructive","rates":{"beta":1.0,"delta":1.0,"alpha":[0.5,0.5],"gamma":[0.0,0.0]}}},"backend":"jump-chain","events_per_individual":207},"n":64,"gap":4,"seed":18446744073709551615,"lo":10,"hi":20}"#,
    );
    pin(
        &RunOutcome::ok(10, &[true, false, true]),
        r#"{"lo":10,"bits":"101","error":null}"#,
    );
    pin(
        &RunOutcome {
            lo: 0,
            bits: String::new(),
            error: Some("worker: boom".to_string()),
        },
        r#"{"lo":0,"bits":"","error":"worker: boom"}"#,
    );
}

#[test]
fn sweep_artifacts_with_non_finite_floats_keep_their_bytes() {
    pin(
        &threshold_result(),
        r#"{"n":1024,"species":2,"backend":"jump-chain","threshold":12,"target":0.9990234375,"success_at_threshold":NaN,"saturated":false,"probes":[{"gap":2,"trials":64,"successes":33,"estimate":0.515625,"reached_target":false},{"gap":12,"trials":400,"successes":400,"estimate":-Infinity,"reached_target":true}]}"#,
    );
    // A single-sample fit: every standard error is infinite.
    pin(
        &ScalingFit::fit(&[1_000.0], &[50.0]),
        r#"{"fits":[["SqrtLogN",19.02398665508126,0.0],["LogN",7.238241365054198,1.4210854715202004e-16],["Log2N",1.0478427611756331,1.4210854715202004e-16],["SqrtN",1.5811388300841895,1.4210854715202004e-16],["SqrtNLogN",0.6015912800670484,0.0],["Linear",0.05,0.0]],"std_errors":[Infinity,Infinity,Infinity,Infinity,Infinity,Infinity]}"#,
    );
}

#[test]
fn persisted_jump_chains_keep_their_bytes() {
    let model = LvModel::with_intraspecific(CompetitionKind::SelfDestructive, 1.0, 0.5, 1.0, 2.0);
    let chain = LvJumpChain::new(model, LvConfiguration::new(30, 20));
    let golden = r#"{"model":{"kind":"SelfDestructive","rates":{"beta":1.0,"delta":0.5,"alpha":[0.5,0.5],"gamma":[1.0,1.0]}},"state":{"counts":[30,20]},"steps":0}"#;
    assert_eq!(serde::json::to_string(&chain), golden);
    let back: LvJumpChain = serde::json::from_str(golden).unwrap();
    assert_eq!((back.model(), back.state()), (chain.model(), chain.state()));
    assert_eq!(serde::json::to_string(&back), golden);
}

#[test]
fn fingerprints_do_not_move() {
    assert_eq!(sd_spec().fingerprint(), 0x70282cf316173822);
    assert_eq!(budget_spec().fingerprint(), 0x2f43c1c3b8e71523);
    assert_eq!(multi_spec().fingerprint(), 0x84260e647bde4041);
}

/// A snapshot written by the server before the streaming codec: it must
/// keep restoring to the same cache and re-serialise to the same bytes.
const SNAPSHOT: &str = include_str!("fixtures/snapshot_v1.json");

#[test]
fn a_snapshot_from_the_value_codec_restores_identically() {
    let snapshot: SurfaceSnapshot = serde::json::from_str(SNAPSHOT).unwrap();
    assert_eq!(serde::json::to_string(&snapshot), SNAPSHOT.trim_end());
    let service = ThresholdService::new(
        Box::new(InProcessExecutor::new(1)),
        ServiceConfig::default(),
    )
    .with_snapshot(&snapshot);
    assert_eq!(
        service.cache_stats(),
        CacheStatsResponse {
            entries: 2,
            cells: 6,
            trials: 192,
            hits: 0,
            misses: 0,
            coalesced: 0,
            interpolated: 0,
        }
    );
    assert_eq!(
        serde::json::to_string(&service.snapshot()),
        SNAPSHOT.trim_end()
    );
}
