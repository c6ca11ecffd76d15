//! The acceptor blocks in `accept` instead of polling: a connect is
//! answered at once, and the stop handle still ends `serve()` promptly.
//! These tests time the server, so they live in their own binary, where no
//! sibling test competes for the cores.

use lv_server::{BindAddr, Client, InProcessExecutor, Server, ServiceConfig, ThresholdService};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

#[test]
fn connections_are_accepted_without_a_poll_delay() {
    let dir = std::env::temp_dir().join(format!("lv-server-accept-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("lv.sock");
    let service = ThresholdService::new(
        Box::new(InProcessExecutor::new(2)),
        ServiceConfig::default(),
    );
    let server = Server::bind(service, &BindAddr::Unix(socket.clone())).unwrap();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    drop(Client::connect_unix(&socket).unwrap());
    // A 5 ms accept poll costs about 2.5–5 ms per connect: ~50 ms for ten.
    let start = Instant::now();
    for _ in 0..10 {
        drop(Client::connect_unix(&socket).unwrap());
    }
    let elapsed = start.elapsed();
    stop.store(true, Ordering::SeqCst);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        elapsed < Duration::from_millis(25),
        "ten connects and handshakes took {elapsed:?}"
    );
}

#[test]
fn the_stop_handle_ends_a_blocked_accept_within_a_second() {
    let service = ThresholdService::new(
        Box::new(InProcessExecutor::new(2)),
        ServiceConfig::default(),
    );
    let server = Server::bind(service, &BindAddr::Tcp("127.0.0.1:0".to_string())).unwrap();
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let (done, ended) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.serve().unwrap();
        let _ = done.send(());
    });
    // One idle client stays connected: the drain must not wait on it either.
    let _idle = Client::connect_tcp(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::SeqCst);
    ended
        .recv_timeout(Duration::from_secs(1))
        .expect("serve() did not return within a second of the stop flag");
}
