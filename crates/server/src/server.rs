//! The serving loop: TCP or Unix-socket listener, thread-per-connection,
//! graceful drain on shutdown.
//!
//! Connection lifecycle: the client opens with a `Hello` frame; the server
//! always answers with its own `Hello` (so a mismatched client can read
//! why), rejects mismatched schema versions with an error response, then
//! serves one response per request frame until the client closes. A
//! malformed frame — bad magic, oversized declaration, truncation, broken
//! JSON — costs that connection an error response and a drop; the listener
//! and every other connection keep serving.
//!
//! A `Shutdown` request flips the stop flag: the acceptor stops accepting,
//! in-flight connections drain, and (when configured) the cache is written
//! to the snapshot path for the next warm start: to a temporary file first,
//! then renamed over the old snapshot, so a crash mid-write loses nothing.

use crate::error::ServiceError;
use crate::proto::{Hello, Request, Response};
use crate::service::ThresholdService;
use crate::wire::{read_message, write_message, WireError, MAX_FRAME_BYTES};
use std::fs::File;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where a server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// A TCP address like `127.0.0.1:7878` (port 0 picks an ephemeral one).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A bound, not-yet-serving server.
pub struct Server {
    service: Arc<ThresholdService>,
    listener: Listener,
    snapshot_path: Option<PathBuf>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener (Unix sockets: a stale socket file is removed
    /// first).
    pub fn bind(service: ThresholdService, addr: &BindAddr) -> Result<Self, ServiceError> {
        let listener = match addr {
            BindAddr::Tcp(spec) => Listener::Tcp(TcpListener::bind(spec)?),
            BindAddr::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                Listener::Unix(UnixListener::bind(path)?, path.clone())
            }
        };
        Ok(Server {
            service: Arc::new(service),
            listener,
            snapshot_path: None,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Writes the cache to `path` on graceful shutdown (via a temporary
    /// file renamed over `path`).
    pub fn with_snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    /// The bound address, rendered (useful after binding port 0).
    pub fn local_addr(&self) -> String {
        match &self.listener {
            Listener::Tcp(listener) => listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_default(),
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    /// A handle that flips the server's stop flag from another thread.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The shared service (for warm-path testing against the same cache).
    pub fn service(&self) -> Arc<ThresholdService> {
        Arc::clone(&self.service)
    }

    /// Serves until a `Shutdown` request (or the stop handle) flips the
    /// stop flag, then drains in-flight connections and snapshots.
    ///
    /// The acceptor blocks in `accept`; a watcher thread checks the stop
    /// flag every `STOP_POLL` (10 ms) and, once it flips, connects to the
    /// listener itself so the blocked `accept` returns.
    pub fn serve(self) -> Result<(), ServiceError> {
        let workers: Mutex<Vec<std::thread::JoinHandle<()>>> = Mutex::new(Vec::new());
        let (serving, ended) = mpsc::channel::<()>();
        let watcher = {
            let stop = Arc::clone(&self.stop);
            let wake = self.wake_addr();
            std::thread::spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = ended.recv_timeout(STOP_POLL) {
                    // Retried every poll until the acceptor sees the flag.
                    if stop.load(Ordering::SeqCst) && wake.connect() {
                        return;
                    }
                }
            })
        };
        let served = self.accept_until_stopped(&workers);
        drop(serving);
        let _ = watcher.join();
        served?;
        // Drain: every accepted connection finishes its in-flight work.
        for handle in crate::sync::into_inner(workers) {
            let _ = handle.join();
        }
        if let Some(path) = &self.snapshot_path {
            let text = serde::json::to_string(&self.service.snapshot());
            write_replacing(path, text.as_bytes())?;
        }
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Accepts connections, one thread each, until the stop flag is set.
    fn accept_until_stopped(
        &self,
        workers: &Mutex<Vec<std::thread::JoinHandle<()>>>,
    ) -> Result<(), ServiceError> {
        loop {
            // Connection reads poll the stop flag between frames, so an
            // idle keep-alive client cannot stall a graceful drain.
            let accepted: std::io::Result<Box<dyn Conn>> = match &self.listener {
                Listener::Tcp(listener) => listener.accept().map(|(stream, _)| {
                    let _ = stream.set_read_timeout(Some(IDLE_POLL));
                    Box::new(stream) as Box<dyn Conn>
                }),
                Listener::Unix(listener, _) => listener.accept().map(|(stream, _)| {
                    let _ = stream.set_read_timeout(Some(IDLE_POLL));
                    Box::new(stream) as Box<dyn Conn>
                }),
            };
            // Checked after `accept` returns: the watcher's wake-up
            // connection, or any connection racing the stop, is dropped.
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match accepted {
                Ok(conn) => {
                    let service = Arc::clone(&self.service);
                    let stop = Arc::clone(&self.stop);
                    let handle = std::thread::spawn(move || {
                        serve_connection(conn, &service, &stop);
                    });
                    let mut workers = crate::sync::lock(workers);
                    workers.push(handle);
                    workers.retain(|h| !h.is_finished());
                }
                Err(e) if is_transient_accept_error(&e) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Where the stop watcher connects to wake the acceptor.
    fn wake_addr(&self) -> WakeAddr {
        match &self.listener {
            Listener::Tcp(listener) => match listener.local_addr() {
                Ok(mut addr) => {
                    if addr.ip().is_unspecified() {
                        addr.set_ip(match addr {
                            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                        });
                    }
                    WakeAddr::Tcp(Some(addr))
                }
                Err(_) => WakeAddr::Tcp(None),
            },
            Listener::Unix(_, path) => WakeAddr::Unix(path.clone()),
        }
    }
}

/// How often the stop watcher checks the stop flag.
const STOP_POLL: Duration = Duration::from_millis(10);

/// The listener's own address, as the stop watcher dials it.
enum WakeAddr {
    Tcp(Option<SocketAddr>),
    Unix(PathBuf),
}

impl WakeAddr {
    /// Opens (and drops) one connection to the listener; `false` when the
    /// listener cannot be reached.
    fn connect(&self) -> bool {
        match self {
            WakeAddr::Tcp(addr) => addr.is_some_and(|addr| TcpStream::connect(addr).is_ok()),
            WakeAddr::Unix(path) => UnixStream::connect(path).is_ok(),
        }
    }
}

/// Writes `bytes` to `<path>.tmp`, syncs it and renames it over `path`, so
/// a crash mid-write leaves the previous file whole.
fn write_replacing(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// How often an idle connection wakes to poll the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Accept errors that condemn one pending connection, not the listener.
fn is_transient_accept_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
    )
}

/// The read+write face of one accepted connection.
trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// Serves one connection to completion. All failure paths degrade to "send
/// an error response if possible, then drop this connection" — never to a
/// panic or a dead server. `Idle` wakeups (the stream's read timeout at a
/// frame boundary) re-check the stop flag, so a client that holds its
/// connection open without sending cannot stall the drain.
fn serve_connection(mut conn: Box<dyn Conn>, service: &ThresholdService, stop: &AtomicBool) {
    // Handshake: read the client's Hello, always answer with ours.
    let hello = loop {
        match read_message::<_, Hello>(&mut conn, MAX_FRAME_BYTES) {
            Ok(hello) => break hello,
            Err(WireError::Idle) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) => {
                let _ = write_message(&mut conn, &Response::Error(ServiceError::from(e).into()));
                return;
            }
        }
    };
    if write_message(&mut conn, &Hello::current()).is_err() {
        return;
    }
    if let Err(e) = hello.check() {
        let _ = write_message(&mut conn, &Response::Error(e.into()));
        return;
    }

    loop {
        let request: Request = match read_message(&mut conn, MAX_FRAME_BYTES) {
            Ok(request) => request,
            Err(WireError::Eof) => return,
            Err(WireError::Idle) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) => {
                // Malformed frame: answer with a typed error, drop the
                // connection, keep the server alive.
                let _ = write_message(&mut conn, &Response::Error(ServiceError::from(e).into()));
                return;
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        let response = service.handle(&request);
        if write_message(&mut conn, &response).is_err() {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}
