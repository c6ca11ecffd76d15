//! End-to-end server hardening: a live server must survive truncated,
//! oversized, garbage and wrong-version frames — each malformed peer costs
//! one connection (answered with a typed error where possible), never the
//! server — and a graceful shutdown must drain and snapshot.

use lv_lotka::{CompetitionKind, LvModel};
use lv_server::wire::{read_message, write_frame, write_message, MAGIC, MAX_FRAME_BYTES};
use lv_server::{
    BindAddr, Client, EstimateRequest, Hello, InProcessExecutor, Request, Response, ScenarioSpec,
    Server, ServiceConfig, ServiceError, SweepRequest, ThresholdService, TrialExecutor,
};
use std::io::Write;
use std::net::TcpStream;

fn spec() -> ScenarioSpec {
    ScenarioSpec::two_species(
        LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
        "jump-chain",
    )
}

fn estimate_request() -> Request {
    Request::Estimate(EstimateRequest {
        spec: spec(),
        n: 64,
        gap: 4,
        target_ci: 0.2,
        max_trials: 0,
    })
}

/// Starts a TCP server on an ephemeral port, returning its address and the
/// serving thread (joined by sending `Shutdown`).
fn start_server() -> (String, std::thread::JoinHandle<()>) {
    let service = ThresholdService::new(
        Box::new(InProcessExecutor::new(2)),
        ServiceConfig::default(),
    );
    let server = Server::bind(service, &BindAddr::Tcp("127.0.0.1:0".to_string())).unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect_tcp(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Sends raw bytes after a valid handshake and returns whatever single
/// response (if any) comes back before the server drops the connection.
fn send_raw_after_handshake(addr: &str, payload: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_message(&mut stream, &Hello::current()).unwrap();
    let _server_hello: Hello = read_message(&mut stream, MAX_FRAME_BYTES).unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    read_message::<_, Response>(&mut stream, MAX_FRAME_BYTES).ok()
}

#[test]
fn malformed_frames_drop_the_connection_not_the_server() {
    let (addr, handle) = start_server();

    // 1. Garbage bytes instead of a frame (bad magic).
    let response = send_raw_after_handshake(&addr, b"\xde\xad\xbe\xefgarbage");
    if let Some(Response::Error(e)) = response {
        assert_eq!(e.code, "io");
    }

    // 2. An oversized length declaration.
    let mut oversized = Vec::from(MAGIC);
    oversized.extend_from_slice(&u32::MAX.to_be_bytes());
    let response = send_raw_after_handshake(&addr, &oversized);
    if let Some(Response::Error(e)) = response {
        assert_eq!(e.code, "io");
    }

    // 3. A truncated frame: header promises more payload than arrives.
    let mut truncated = Vec::new();
    write_frame(&mut truncated, b"0123456789").unwrap();
    truncated.truncate(truncated.len() - 4);
    let response = send_raw_after_handshake(&addr, &truncated);
    if let Some(Response::Error(e)) = response {
        assert_eq!(e.code, "io");
    }

    // 4. A well-framed payload that is not valid JSON.
    let mut garbage_json = Vec::new();
    write_frame(&mut garbage_json, b"{\"type\": not json").unwrap();
    let response = send_raw_after_handshake(&addr, &garbage_json);
    match response {
        Some(Response::Error(e)) => assert_eq!(e.code, "codec"),
        other => panic!("expected a codec error response, got {other:?}"),
    }

    // 5. Valid JSON, unknown request tag.
    let mut unknown = Vec::new();
    write_frame(&mut unknown, br#"{"type":"frobnicate","body":null}"#).unwrap();
    let response = send_raw_after_handshake(&addr, &unknown);
    match response {
        Some(Response::Error(e)) => assert_eq!(e.code, "codec"),
        other => panic!("expected a codec error response, got {other:?}"),
    }

    // After all that abuse, a fresh well-behaved client is served normally.
    let mut client = Client::connect_tcp(&addr).unwrap();
    let status = client.status().unwrap();
    assert!(status.served >= 1);
    match client.request(&estimate_request()).unwrap() {
        Response::Estimate(r) => assert!(r.trials > 0),
        other => panic!("expected an estimate, got {other:?}"),
    }
    shutdown(&addr, handle);
}

#[test]
fn wrong_schema_versions_are_rejected_with_a_typed_error() {
    let (addr, handle) = start_server();
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_message(&mut stream, &Hello { schema_version: 99 }).unwrap();
    let server_hello: Hello = read_message(&mut stream, MAX_FRAME_BYTES).unwrap();
    assert_eq!(server_hello, Hello::current());
    let response: Response = read_message(&mut stream, MAX_FRAME_BYTES).unwrap();
    match response {
        Response::Error(e) => assert_eq!(e.code, "version-mismatch"),
        other => panic!("expected a version-mismatch error, got {other:?}"),
    }
    // The connection is dropped afterwards...
    assert!(read_message::<_, Response>(&mut stream, MAX_FRAME_BYTES).is_err());
    // ...but the server still serves compliant clients.
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.status().unwrap();
    shutdown(&addr, handle);
}

#[test]
fn unix_socket_serving_cache_and_graceful_snapshot() {
    let dir = std::env::temp_dir().join(format!("lv-server-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("lv.sock");
    let snapshot_path = dir.join("surface.json");

    let service = ThresholdService::new(
        Box::new(InProcessExecutor::new(2)),
        ServiceConfig::default(),
    );
    let server = Server::bind(service, &BindAddr::Unix(socket.clone()))
        .unwrap()
        .with_snapshot_path(&snapshot_path);
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let mut client = Client::connect_unix(&socket).unwrap();
    let request = EstimateRequest {
        spec: spec(),
        n: 96,
        gap: 6,
        target_ci: 0.1,
        max_trials: 0,
    };
    let first = client.estimate(request.clone()).unwrap();
    assert!(!first.cache_hit);
    let second = client.estimate(request.clone()).unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.fresh_trials, 0);

    let sweep = client
        .sweep(SweepRequest {
            spec: spec(),
            n_lattice: vec![64],
            gap_lattice: vec![2, 4],
            target_ci: 0.2,
        })
        .unwrap();
    assert_eq!(sweep.cells.len(), 2);

    client.shutdown().unwrap();
    handle.join().unwrap();
    assert!(!socket.exists(), "socket file must be removed on shutdown");

    // The snapshot was written on shutdown; a warm restart serves the same
    // cell from cache.
    let text = std::fs::read_to_string(&snapshot_path).unwrap();
    let snapshot: lv_server::SurfaceSnapshot = serde::json::from_str(&text).unwrap();
    let warm_service = ThresholdService::new(
        Box::new(InProcessExecutor::new(2)),
        ServiceConfig::default(),
    )
    .with_snapshot(&snapshot);
    let warm = Server::bind(warm_service, &BindAddr::Unix(socket.clone())).unwrap();
    let warm_handle = std::thread::spawn(move || warm.serve().unwrap());
    let mut client = Client::connect_unix(&socket).unwrap();
    let replay = client.estimate(request).unwrap();
    assert!(
        replay.cache_hit,
        "warm restart must serve from the snapshot"
    );
    assert_eq!(replay.trials, first.trials);
    client.shutdown().unwrap();
    warm_handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unreadable snapshot is moved aside at startup, so the snapshot the
/// server writes at shutdown does not destroy it.
#[test]
fn unreadable_snapshot_bytes_survive_a_start_stop_cycle() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("lv-server-quarantine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("lv.sock");
    let snapshot_path = dir.join("surface.json");
    let aside = dir.join("surface.json.unreadable");
    let _ = std::fs::remove_file(&aside);
    let garbage: &[u8] = b"{\"schema_version\": 1, \"entries\": [\xff truncated";
    std::fs::write(&snapshot_path, garbage).unwrap();

    let mut server = Command::new(env!("CARGO_BIN_EXE_lv-serve"))
        .arg("--unix")
        .arg(&socket)
        .arg("--cache-snapshot")
        .arg(&snapshot_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.starts_with("listening on"), "server said {line:?}");
    Client::connect_unix(&socket).unwrap().shutdown().unwrap();
    assert!(server.wait().unwrap().success());

    assert_eq!(
        std::fs::read(&aside).expect("the unreadable snapshot was not moved aside"),
        garbage
    );
    let text = std::fs::read_to_string(&snapshot_path).unwrap();
    let fresh: Result<lv_server::SurfaceSnapshot, _> = serde::json::from_str(&text);
    assert!(fresh.is_ok(), "shutdown wrote an unreadable snapshot");
    assert!(
        !dir.join("surface.json.tmp").exists(),
        "temporary file left behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Delegates to the in-process executor except at `gap == 2`, where it
/// panics mid-request — simulating a handler blowing up while the service
/// holds internal locks.
struct PanicAtGapTwo(InProcessExecutor);

impl TrialExecutor for PanicAtGapTwo {
    fn run_range(
        &self,
        spec: &ScenarioSpec,
        n: u64,
        gap: u64,
        seed: lv_sim::Seed,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<bool>, ServiceError> {
        if gap == 2 {
            panic!("executor panic injected by test");
        }
        self.0.run_range(spec, n, gap, seed, lo, hi)
    }

    fn describe(&self) -> String {
        "panic-at-gap-two".to_string()
    }
}

/// A request whose handler panics costs that request an `internal` error
/// frame — not the connection, not the server: the same client and a
/// fresh client are both served real answers afterwards.
#[test]
fn handler_panic_answers_an_error_frame_and_keeps_serving() {
    let service = ThresholdService::new(
        Box::new(PanicAtGapTwo(InProcessExecutor::new(2))),
        ServiceConfig::default(),
    );
    let server = Server::bind(service, &BindAddr::Tcp("127.0.0.1:0".to_string())).unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let mut client = Client::connect_tcp(&addr).unwrap();
    let poisoned = EstimateRequest {
        spec: spec(),
        n: 64,
        gap: 2,
        target_ci: 0.2,
        max_trials: 0,
    };
    let err = client.estimate(poisoned).unwrap_err();
    assert_eq!(err.code(), "internal");
    assert!(err.message().contains("executor panic injected by test"));

    // The same connection keeps working...
    match client.request(&estimate_request()).unwrap() {
        Response::Estimate(r) => assert!(r.trials > 0),
        other => panic!("expected an estimate, got {other:?}"),
    }
    // ...and so does a fresh one.
    let mut fresh = Client::connect_tcp(&addr).unwrap();
    match fresh.request(&estimate_request()).unwrap() {
        Response::Estimate(r) => assert!(r.trials > 0),
        other => panic!("expected an estimate, got {other:?}"),
    }
    shutdown(&addr, handle);
}

#[test]
fn concurrent_clients_share_one_coalesced_computation() {
    let (addr, handle) = start_server();
    let request = EstimateRequest {
        spec: spec(),
        n: 100,
        gap: 4,
        target_ci: 0.08,
        max_trials: 0,
    };
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let request = request.clone();
                scope.spawn(move || {
                    Client::connect_tcp(&addr)
                        .unwrap()
                        .estimate(request)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        responses.iter().filter(|r| r.fresh_trials > 0).count(),
        1,
        "exactly one of the concurrent clients does the work"
    );
    for response in &responses {
        assert_eq!(response.trials, responses[0].trials);
        assert_eq!(response.successes, responses[0].successes);
    }
    shutdown(&addr, handle);
}
