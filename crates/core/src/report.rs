//! Bridging a [`SweepResult`] into the versioned `sweep_report.json`
//! schema of [`dp_telemetry`].
//!
//! The schema splits every report into a scheduling-invariant `result`
//! section and a timing-laden `execution` section. The `result` side is
//! pinned by a digest over the fault summaries: [`summaries_digest`]
//! renders each summary into one canonical text line (`f64`s as exact bit
//! patterns, so the digest inherits the sweep's bit-for-bit determinism)
//! and folds the lines through FNV-1a. Two sweeps of the same universe
//! with different thread counts, chunk sizes, or telemetry levels must
//! produce the same digest — the schema-stability tests enforce exactly
//! that.

use std::fmt::Write as _;

use dp_telemetry::{fnv1a64, ShardExecution, SweepExecution, SweepOutcome, SweepReport};

use crate::parallel::{FaultOutcome, FaultSummary, SweepResult};

/// One canonical text line per summary (exact: `f64`s by bit pattern) — the
/// input to [`summaries_digest`], and the wire rendering a streamed sweep
/// frames per record so concatenated stream output is byte-identical to the
/// batch rendering of [`SweepResult::summaries`].
pub fn summary_line(index: usize, s: &FaultSummary) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "{index}\t{}\t{:016x}\t",
        s.fault,
        s.detectability.to_bits()
    );
    match s.test_count {
        Some(n) => {
            let _ = write!(line, "{n}");
        }
        None => line.push('-'),
    }
    line.push('\t');
    for &b in &s.observable_outputs {
        line.push(if b { '1' } else { '0' });
    }
    let _ = write!(line, "\t{}", u8::from(s.site_function_constant));
    match s.adherence {
        Some(a) => {
            let _ = write!(line, "\t{:016x}", a.to_bits());
        }
        None => line.push_str("\t-"),
    }
    match s.outcome {
        FaultOutcome::Exact => line.push_str("\texact"),
        FaultOutcome::Bounded { samples } => {
            let _ = write!(line, "\tbounded:{samples}");
        }
        FaultOutcome::Oscillating { density_bits } => {
            let _ = write!(line, "\toscillating:{density_bits:016x}");
        }
    }
    line
}

/// FNV-1a digest over the canonical rendering of every summary, newline
/// separated. Identical across thread counts, chunk sizes, collapsing
/// settings, and telemetry levels — any scheduling sensitivity in the
/// summaries shows up as a digest mismatch.
pub fn summaries_digest(summaries: &[FaultSummary]) -> u64 {
    let mut text = String::new();
    for (i, s) in summaries.iter().enumerate() {
        text.push_str(&summary_line(i, s));
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// Renders a finished sweep as one schema-versioned [`SweepReport`], ready
/// to be appended to a [`dp_telemetry::ReportFile`].
pub fn sweep_report(circuit: &str, fault_model: &str, result: &SweepResult) -> SweepReport {
    let exact = result
        .summaries
        .iter()
        .filter(|s| s.outcome.is_exact())
        .count();
    let oscillating = result
        .summaries
        .iter()
        .filter(|s| s.outcome.is_oscillating())
        .count();
    SweepReport {
        circuit: circuit.to_string(),
        fault_model: fault_model.to_string(),
        result: SweepOutcome {
            faults: result.collapse.faults as u64,
            classes: result.collapse.classes as u64,
            singleton_classes: result.collapse.singleton_classes as u64,
            largest_class: result.collapse.largest_class as u64,
            exact: exact as u64,
            bounded: (result.summaries.len() - exact - oscillating) as u64,
            oscillating: oscillating as u64,
            summaries_fnv: summaries_digest(&result.summaries),
        },
        execution: SweepExecution {
            threads: result.workers as u32,
            chunk: result.chunk as u32,
            collapse: result.collapsed,
            order: result.order.clone(),
            wall_nanos: result.wall.as_nanos().min(u64::MAX as u128) as u64,
            totals: result.totals.clone(),
            shards: result
                .shards
                .iter()
                .map(|s| ShardExecution {
                    shard: s.shard as u32,
                    panicked: !s.panics.is_empty(),
                    busy_nanos: s.busy.as_nanos().min(u64::MAX as u128) as u64,
                    telemetry: s.telemetry.clone(),
                })
                .collect(),
        },
        // Batch reports carry no stream section; a server wraps the sweep
        // and fills this in from its framing tallies.
        stream: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{sweep_universe, Parallelism, SweepConfig};
    use dp_faults::{checkpoint_faults, Fault};
    use dp_netlist::generators::c17;

    #[test]
    fn digest_is_sensitive_to_every_summary_field() {
        let c = c17();
        let faults: Vec<Fault> = checkpoint_faults(&c).into_iter().map(Fault::from).collect();
        let sweep = sweep_universe(&c, &faults, &SweepConfig::default());
        let base = summaries_digest(&sweep.summaries);
        let mut tweaked = sweep.summaries.clone();
        tweaked[0].detectability += 1e-9;
        assert_ne!(base, summaries_digest(&tweaked));
        let mut tweaked = sweep.summaries.clone();
        tweaked[0].test_count = None;
        assert_ne!(base, summaries_digest(&tweaked));
        let mut tweaked = sweep.summaries.clone();
        tweaked.swap(0, 1);
        assert_ne!(
            base,
            summaries_digest(&tweaked),
            "order is part of the digest"
        );
    }

    #[test]
    fn report_round_trips_through_the_schema_validator() {
        let c = c17();
        let faults: Vec<Fault> = checkpoint_faults(&c).into_iter().map(Fault::from).collect();
        let sweep = sweep_universe(
            &c,
            &faults,
            &SweepConfig {
                parallelism: Parallelism::Threads(2),
                ..Default::default()
            },
        );
        let mut file = dp_telemetry::ReportFile::new("dp-core-test");
        file.reports
            .push(sweep_report(c.name(), "stuck-at", &sweep));
        let text = file.to_pretty_string();
        let parsed = dp_telemetry::parse_and_validate(&text).expect("schema-valid");
        drop(parsed);
    }

    #[test]
    fn result_section_is_scheduling_invariant() {
        let c = c17();
        let faults: Vec<Fault> = checkpoint_faults(&c).into_iter().map(Fault::from).collect();
        let serial = sweep_universe(&c, &faults, &SweepConfig::default());
        let threaded = sweep_universe(
            &c,
            &faults,
            &SweepConfig {
                parallelism: Parallelism::Threads(3),
                ..Default::default()
            },
        );
        let a = sweep_report(c.name(), "stuck-at", &serial);
        let b = sweep_report(c.name(), "stuck-at", &threaded);
        assert_eq!(a.result, b.result);
        assert_ne!(a.execution.threads, b.execution.threads);
    }
}
