//! Argument handling of the `figures` binary: a bad value flag is a usage
//! error (exit 2), never a panic, and flags compose in any order.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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

#[test]
fn smoke_keeps_the_sweep_flags_given_before_it() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_smoke_threads.json");
    let path = path.to_str().expect("utf-8 temp path");
    let (code, stderr) = run(&[
        "--threads",
        "2",
        "--smoke",
        "--only",
        "fig1",
        "--telemetry",
        path,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let text = std::fs::read_to_string(path).expect("telemetry written");
    let doc = dp_telemetry::parse_and_validate(&text).expect("schema-valid report");
    let reports = doc
        .get("reports")
        .and_then(|r| r.as_arr())
        .expect("reports");
    assert!(!reports.is_empty());
    for report in reports {
        let threads = report
            .get("execution")
            .and_then(|e| e.get("threads"))
            .and_then(|t| t.as_u64());
        assert_eq!(threads, Some(2), "--smoke dropped --threads 2");
    }
}

#[test]
fn only_with_an_unknown_section_is_a_usage_error() {
    for only in ["fig9", "fig1,fig9", ""] {
        let args = ["--smoke", "--only", only];
        assert_usage_error(&args);
        let (_, stderr) = run(&args);
        assert!(
            stderr.contains("fig1,fig2,"),
            "{args:?} lists no sections: {stderr}"
        );
    }
}
