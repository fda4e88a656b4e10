//! Validates `sweep_report.json` documents against the current schema.
//!
//! Usage:
//!
//! ```text
//! validate_sweep_report FILE [FILE ...]
//! validate_sweep_report --max-unique-ratio R BASELINE OTHER
//! ```
//!
//! Exits 0 when every file parses and validates, 1 otherwise (with one
//! diagnostic per failing file on stderr). CI runs this over the telemetry
//! artifacts produced by the c95 sweep.
//!
//! `--max-unique-ratio R` additionally compares two reports of the *same*
//! workload: the cumulative unique-table lookups of `OTHER` (summed over
//! every report's `execution.totals` section) must be at most `R` times
//! those of `BASELINE`. The CI `shared-manager` job uses this to assert
//! that a 4-thread shared-snapshot sweep does not rebuild the good
//! functions per worker — its lookup total stays within a few percent of
//! the serial run's instead of multiplying with the thread count.

use std::process::ExitCode;

use dp_telemetry::json::JsonValue;

fn usage() -> ExitCode {
    eprintln!(
        "usage: validate_sweep_report FILE [FILE ...]\n\
         \x20      validate_sweep_report --max-unique-ratio R BASELINE OTHER"
    );
    ExitCode::FAILURE
}

/// Cumulative unique-table lookups summed over every report in the file.
fn total_unique_lookups(doc: &JsonValue) -> Option<u64> {
    let reports = doc.get("reports")?.as_arr()?;
    let mut total = 0u64;
    for report in reports {
        total += report
            .get("execution")?
            .get("totals")?
            .get("counters")?
            .get("unique_lookups")?
            .as_u64()?;
    }
    Some(total)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_ratio: Option<f64> = None;
    if let Some(pos) = args.iter().position(|a| a == "--max-unique-ratio") {
        if pos + 1 >= args.len() {
            return usage();
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        match value.parse::<f64>() {
            Ok(r) if r > 0.0 => max_ratio = Some(r),
            _ => {
                eprintln!("--max-unique-ratio: `{value}` is not a positive number");
                return usage();
            }
        }
        if args.len() != 2 {
            eprintln!("--max-unique-ratio compares exactly two files (BASELINE OTHER)");
            return usage();
        }
    }
    if args.is_empty() {
        return usage();
    }
    let mut failed = false;
    let mut docs = Vec::new();
    for path in &args {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        match dp_telemetry::parse_and_validate(&text) {
            Ok(doc) => {
                let reports = doc
                    .get("reports")
                    .and_then(|r| r.as_arr())
                    .map_or(0, |r| r.len());
                println!(
                    "{path}: valid (schema_version {}, {} report{})",
                    dp_telemetry::SCHEMA_VERSION,
                    reports,
                    if reports == 1 { "" } else { "s" }
                );
                docs.push(doc);
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if let (Some(ratio), false) = (max_ratio, failed) {
        let totals: Vec<Option<u64>> = docs.iter().map(total_unique_lookups).collect();
        match (totals[0], totals[1]) {
            (Some(baseline), Some(other)) => {
                let bound = baseline as f64 * ratio;
                if other as f64 <= bound {
                    println!("unique lookups: {other} <= {ratio} x {baseline} (baseline) — ok");
                } else {
                    eprintln!(
                        "unique lookups: {other} exceeds {ratio} x {baseline} (baseline); \
                         the sweep is rebuilding shared state per worker"
                    );
                    failed = true;
                }
            }
            _ => {
                eprintln!("cannot read execution.totals.counters.unique_lookups from both files");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
