//! Argument handling of the `figures` binary: a bad value flag is a usage
//! error (exit 2), never a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_usage_error(args: &[&str]) {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?} exited {code:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
}

#[test]
fn value_flag_without_a_value_is_a_usage_error() {
    for flag in [
        "--bf-sample",
        "--sa-cap",
        "--threads",
        "--node-budget",
        "--fallback-samples",
        "--only",
        "--telemetry",
        "--order",
    ] {
        assert_usage_error(&[flag]);
    }
}

#[test]
fn numeric_flag_with_a_non_number_is_a_usage_error() {
    for flag in [
        "--bf-sample",
        "--sa-cap",
        "--threads",
        "--node-budget",
        "--fallback-samples",
    ] {
        assert_usage_error(&[flag, "x"]);
    }
}
