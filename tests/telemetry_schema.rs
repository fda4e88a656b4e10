//! Schema stability for `sweep_report.json`.
//!
//! Two layers:
//!
//! * A golden key-path snapshot: the set of distinct JSON key paths in a
//!   real report (values and array multiplicity erased) is pinned in
//!   `tests/golden/sweep_report_schema.txt`. Renaming, moving, or deleting
//!   a field fails here; so does adding one — deliberate additive changes
//!   regenerate the file with `DP_UPDATE_GOLDEN=1` (and stay within
//!   [`SCHEMA_VERSION`]; incompatible changes must bump it).
//! * A differential check: re-running the same sweep with different thread
//!   counts (and so different derived chunk sizes) may change `execution.*`
//!   freely, but must leave the
//!   whole `result` subtree — fault counts, class structure, exact/bounded
//!   split, and the FNV digest of every summary line — identical.

mod common;

use common::stuck_at_universe;
use diffprop::core::{sweep_report, sweep_universe, Parallelism, SweepConfig};
use diffprop::netlist::generators::c95;
use diffprop::telemetry::{key_paths, parse_and_validate, ReportFile, SweepReport};

const SCHEMA_GOLDEN_PATH: &str = "tests/golden/sweep_report_schema.txt";

/// A real end-to-end report: c95's collapsed checkpoint universe, swept by
/// the work-stealing path so `execution.shards` has several entries.
fn real_report(parallelism: Parallelism) -> SweepReport {
    let circuit = c95();
    let faults = stuck_at_universe(&circuit);
    let config = SweepConfig {
        parallelism,
        ..Default::default()
    };
    let sweep = sweep_universe(&circuit, &faults, &config);
    sweep_report(circuit.name(), "stuck-at", &sweep)
}

#[test]
fn report_schema_matches_golden_key_paths() {
    let mut file = ReportFile::new("tests/telemetry_schema");
    file.reports.push(real_report(Parallelism::Threads(2)));
    let text = file.to_pretty_string();

    // The serialised document must satisfy its own validator.
    let doc = parse_and_validate(&text).expect("emitted report failed schema validation");

    let lines: Vec<String> = key_paths(&doc);
    if std::env::var_os("DP_UPDATE_GOLDEN").is_some() {
        std::fs::write(SCHEMA_GOLDEN_PATH, lines.join("\n") + "\n").expect("write schema golden");
        return;
    }
    let golden = std::fs::read_to_string(SCHEMA_GOLDEN_PATH)
        .expect("schema golden missing; run with DP_UPDATE_GOLDEN=1 to capture");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden, lines,
        "sweep_report.json key paths drifted; if the change is a deliberate \
         additive evolution, regenerate with DP_UPDATE_GOLDEN=1 (incompatible \
         changes must bump SCHEMA_VERSION)"
    );
}

#[test]
fn result_subtree_is_invariant_under_scheduling_changes() {
    let baseline = real_report(Parallelism::Serial);
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(3),
    ] {
        let other = real_report(parallelism);
        assert_eq!(
            baseline.result, other.result,
            "result subtree changed under {parallelism:?}"
        );
        // The execution record is the part that is *supposed* to move.
        assert_eq!(other.execution.threads, parallelism.workers().max(1) as u32);
    }
}
