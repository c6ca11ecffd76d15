//! The command lines of the two lv-bench binaries: help goes to stdout with
//! status 0, a bad argument gets the usage on stderr and status 2.

use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("could not start {binary}: {e}"))
}

#[test]
fn experiments_help_exits_zero_and_lists_every_experiment() {
    for flag in ["--help", "-h"] {
        let out = run(env!("CARGO_BIN_EXE_experiments"), &[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 usage");
        assert!(stdout.starts_with("usage: experiments"), "{stdout}");
        for id in 1..=16 {
            assert!(
                stdout.contains(&format!("\te{id} ")),
                "{flag}: e{id} missing"
            );
        }
    }
}

#[test]
fn experiments_rejects_unknown_flags_with_the_usage_on_stderr() {
    for flag in ["--list", "--bogus"] {
        let out = run(env!("CARGO_BIN_EXE_experiments"), &[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
        assert!(stderr.contains("unknown argument"), "{stderr}");
        assert!(stderr.contains("usage: experiments"), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag}: nothing on stdout");
    }
}

#[test]
fn perf_snapshot_rejects_unknown_flags() {
    let out = run(env!("CARGO_BIN_EXE_perf-snapshot"), &["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
    assert!(stderr.contains("usage: perf-snapshot"), "{stderr}");
}
