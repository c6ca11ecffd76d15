//! `lv-serve` — the threshold-surface server binary.
//!
//! ```text
//! lv-serve --tcp 127.0.0.1:7878            # serve over TCP
//! lv-serve --unix /tmp/lv.sock             # serve over a Unix socket
//!          --workers 4                     # multi-process trial execution
//!          --threads 8                     # in-process executor threads
//!          --cache-snapshot surface.json   # warm-start + save on shutdown
//!                                          # (an unreadable file is moved
//!                                          # to surface.json.unreadable)
//! lv-serve --worker [--threads 1]          # worker mode (spawned by pools)
//! ```

use lv_server::{
    BindAddr, InProcessExecutor, Server, ServiceConfig, SurfaceSnapshot, ThresholdService,
    TrialExecutor, WorkerPool,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    bind: Option<BindAddr>,
    workers: usize,
    threads: usize,
    snapshot: Option<PathBuf>,
    worker_mode: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: lv-serve (--tcp ADDR | --unix PATH) [--workers N] [--threads N] \
         [--cache-snapshot FILE]\n       lv-serve --worker [--threads N]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        bind: None,
        workers: 0,
        threads: 0,
        snapshot: None,
        worker_mode: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_for(flag));
        match arg.as_str() {
            "--tcp" => options.bind = Some(BindAddr::Tcp(value("--tcp"))),
            "--unix" => options.bind = Some(BindAddr::Unix(PathBuf::from(value("--unix")))),
            "--workers" => options.workers = parse_number(&value("--workers"), "--workers"),
            "--threads" => options.threads = parse_number(&value("--threads"), "--threads"),
            "--cache-snapshot" => options.snapshot = Some(PathBuf::from(value("--cache-snapshot"))),
            "--worker" => options.worker_mode = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    options
}

fn usage_for(flag: &str) -> ! {
    eprintln!("{flag} needs a value");
    usage();
}

fn parse_number(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a number, got {text:?}");
        usage();
    })
}

/// Reads the snapshot at `path`: `None` when there is no file yet, an error
/// when the file exists but cannot be read or parsed.
fn read_snapshot(path: &Path) -> Result<Option<SurfaceSnapshot>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    serde::json::from_str(&text)
        .map(Some)
        .map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let options = parse_options();

    if options.worker_mode {
        return match lv_server::run_worker(options.threads.max(1)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("worker failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let Some(bind) = options.bind else {
        usage();
    };
    let executor: Box<dyn TrialExecutor> = if options.workers > 0 {
        let program = match std::env::current_exe() {
            Ok(path) => path,
            Err(e) => {
                eprintln!("cannot locate own binary for worker spawning: {e}");
                return ExitCode::FAILURE;
            }
        };
        Box::new(WorkerPool::new(program, options.workers))
    } else {
        Box::new(InProcessExecutor::new(options.threads))
    };

    let mut service = ThresholdService::new(executor, ServiceConfig::default());
    if let Some(path) = &options.snapshot {
        match read_snapshot(path) {
            Ok(Some(snapshot)) => {
                service = service.with_snapshot(&snapshot);
                eprintln!("warm-started cache from {}", path.display());
            }
            Ok(None) => eprintln!("no snapshot at {} yet; starting cold", path.display()),
            Err(e) => {
                // Shutdown writes a fresh snapshot to `path`: move the
                // unreadable one aside first so its bytes survive.
                let mut aside = path.as_os_str().to_owned();
                aside.push(".unreadable");
                if let Err(move_error) = std::fs::rename(path, &aside) {
                    eprintln!(
                        "snapshot {} is unreadable ({e}) and cannot be moved aside: {move_error}",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "moved unreadable snapshot {0} to {0}.unreadable ({e}); starting cold",
                    path.display()
                );
            }
        }
    }

    let server = match Server::bind(service, &bind) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match &options.snapshot {
        Some(path) => server.with_snapshot_path(path),
        None => server,
    };
    println!("listening on {}", server.local_addr());
    match server.serve() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server failed: {e}");
            ExitCode::FAILURE
        }
    }
}
