//! The `figures` and `validate-report` subcommands of `diffprop`: one
//! argument grammar (a bad value is a usage error, exit 2, never a panic;
//! flags compose in any order and in either `--flag value` or
//! `--flag=value` form), the figure sections against the committed golden,
//! and the report checker's verdicts. Also the `atpg` and `redundancy`
//! stdout against committed goldens (their timing goes to stderr).

use std::collections::BTreeMap;
use std::process::{Command, Output};

use diffprop::telemetry::json::JsonValue;

fn diffprop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diffprop"))
        .args(args)
        .output()
        .expect("run diffprop")
}

/// Stdout of a run that must succeed; stderr is shown if it did not.
fn stdout(args: &[&str]) -> String {
    let out = diffprop(args);
    assert!(
        out.status.success(),
        "{args:?} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn assert_usage_error(args: &[&str]) -> String {
    let out = diffprop(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.contains("usage: diffprop"), "{args:?}: {stderr}");
    stderr
}

fn temp_path(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"))
}

fn repo_path(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Figure output keyed by section title (`=== title ===` lines).
fn sections(text: &str) -> BTreeMap<String, String> {
    text.split("\n=== ")
        .skip(1)
        .map(|s| {
            let (title, body) = s.split_once(" ===\n").expect("a section header");
            (title.to_string(), body.to_string())
        })
        .collect()
}

#[test]
fn flag_order_never_changes_figures_output() {
    let before = stdout(&["figures", "--sa-cap", "5", "--smoke", "--only", "fig1"]);
    assert!(before.contains("[c95] (5 faults)"), "{before}");
    for args in [
        &["figures", "--smoke", "--sa-cap", "5", "--only", "fig1"][..],
        &["figures", "--only=fig1", "--sa-cap=5", "--smoke"],
    ] {
        assert_eq!(stdout(args), before, "{args:?}");
    }
}

#[test]
fn figures_sections_match_the_golden() {
    let golden = std::fs::read_to_string(repo_path("tests/golden/figures_smoke.txt"))
        .expect("figures golden");
    let golden = sections(&golden);
    let printed = stdout(&["figures", "--smoke", "--only", "fig1,fig4,fig6,models"]);
    let printed = sections(&printed);
    assert_eq!(printed.len(), 4, "{:?}", printed.keys());
    for (title, body) in &printed {
        assert_eq!(Some(body), golden.get(title), "section `{title}`");
    }
    // A run without `--only` prints exactly the golden's sections: the
    // ablation counters print only when named.
    let plain = stdout(&["figures", "--smoke", "--sa-cap", "0", "--bf-sample", "0"]);
    assert!(sections(&plain).keys().eq(golden.keys()), "{plain}");
    // Every ablation row pins its own order, so the sweep's does not matter.
    let ablations = std::fs::read_to_string(repo_path("tests/golden/figures_ablations.txt"))
        .expect("ablations golden");
    for order in ["identity", "auto"] {
        let printed = stdout(&["figures", "--only", "ablations", "--order", order]);
        assert_eq!(printed, ablations, "--order {order}");
    }
}

#[test]
fn circuit_subcommand_stdout_matches_the_goldens() {
    for (command, circuit) in [
        ("atpg", "c95"),
        ("atpg", "alu74181"),
        ("redundancy", "c95"),
        ("stats", "c95"),
        ("bridges", "c95"),
    ] {
        let golden =
            std::fs::read_to_string(repo_path(&format!("tests/golden/{command}_{circuit}.txt")))
                .expect("subcommand golden");
        assert_eq!(stdout(&[command, circuit]), golden, "{command} {circuit}");
    }
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
        assert_usage_error(&["figures", flag]);
    }
    assert_usage_error(&["validate-report", "--max-unique-ratio"]);
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
        assert_usage_error(&["figures", flag, "x"]);
        assert_usage_error(&["figures", &format!("{flag}=")]);
    }
    let report = repo_path("baselines/pr7_alu74181_serial.json");
    for ratio in ["x", "0", "-1"] {
        assert_usage_error(&[
            "validate-report",
            "--max-unique-ratio",
            ratio,
            &report,
            &report,
        ]);
    }
}

#[test]
fn only_with_an_unknown_section_is_a_usage_error() {
    for only in ["fig9", "fig1,fig9", ""] {
        let stderr = assert_usage_error(&["figures", "--smoke", "--only", only]);
        assert!(
            stderr.contains("fig1,fig2,"),
            "--only {only:?} lists no sections: {stderr}"
        );
    }
}

#[test]
fn smoke_keeps_the_sweep_flags_wherever_they_stand() {
    for (name, args) in [
        ("before", &["--threads", "2", "--smoke"][..]),
        ("after", &["--smoke", "--threads=2"]),
    ] {
        let path = temp_path(&format!("figures_smoke_threads_{name}.json"));
        stdout(&[&["figures", "--only", "fig1", "--telemetry", &path], args].concat());
        let text = std::fs::read_to_string(&path).expect("telemetry written");
        let doc = diffprop::telemetry::parse_and_validate(&text).expect("schema-valid report");
        let reports = doc
            .get("reports")
            .and_then(JsonValue::as_arr)
            .expect("reports");
        assert!(!reports.is_empty());
        for report in reports {
            let threads = report
                .get("execution")
                .and_then(|e| e.get("threads"))
                .and_then(JsonValue::as_u64);
            assert_eq!(threads, Some(2), "{args:?} dropped --threads 2");
        }
        let verdict = stdout(&["validate-report", &path]);
        assert!(verdict.contains(": valid (schema_version"), "{verdict}");
    }
}

#[test]
fn validate_report_exits_0_valid_1_invalid_2_usage() {
    let valid = repo_path("baselines/pr7_alu74181_serial.json");
    let text = std::fs::read_to_string(&valid).expect("baseline report");
    let corrupt = temp_path("validate_report_corrupt.json");
    std::fs::write(&corrupt, &text[..text.len() / 2]).expect("write a truncated copy");
    let missing = temp_path("validate_report_missing.json");

    let code = |args: &[&str]| {
        diffprop(&[&["validate-report"], args].concat())
            .status
            .code()
    };
    assert_eq!(code(&[&valid]), Some(0));
    assert_eq!(code(&[&valid, &valid]), Some(0));
    assert_eq!(code(&[&corrupt]), Some(1));
    assert_eq!(code(&[&valid, &missing]), Some(1));
    // The lookup bound: a report against itself passes at ratio 1 and fails
    // below it; a corrupt side fails before any comparison.
    assert_eq!(code(&["--max-unique-ratio", "1", &valid, &valid]), Some(0));
    assert_eq!(code(&["--max-unique-ratio=0.5", &valid, &valid]), Some(1));
    assert_eq!(
        code(&["--max-unique-ratio", "1", &valid, &corrupt]),
        Some(1)
    );
    assert_usage_error(&["validate-report"]);
    assert_usage_error(&["validate-report", "--max-unique-ratio", "1", &valid]);
}

#[test]
fn validate_report_ratio_mode_requires_equal_results() {
    let baseline = repo_path("baselines/pr7_alu74181_serial.json");
    let text = std::fs::read_to_string(&baseline).expect("baseline report");
    for (name, from, to, field) in [
        (
            "fnv",
            "\"summaries_fnv\": \"e1adf99f1a207b56\"",
            "\"summaries_fnv\": \"e1adf99f1a207b57\"",
            "summaries_fnv",
        ),
        (
            "circuit",
            "\"circuit\": \"alu74181\"",
            "\"circuit\": \"alu74182\"",
            "circuit",
        ),
    ] {
        assert_eq!(text.matches(from).count(), 1, "{from}");
        let changed = temp_path(&format!("validate_report_changed_{name}.json"));
        std::fs::write(&changed, text.replace(from, to)).expect("write a changed copy");
        // The changed copy is schema-valid and has the baseline's lookups,
        // so only the result comparison can fail it.
        assert!(diffprop(&["validate-report", &changed]).status.success());
        let out = diffprop(&[
            "validate-report",
            "--max-unique-ratio",
            "1",
            &baseline,
            &changed,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("report 0: {field} ")),
            "{name}: {stderr}"
        );
    }
}
