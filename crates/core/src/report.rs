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

use dp_faults::Fault;
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

/// The inverse of [`summary_line`] against the fault list the line indexes:
/// reads the line's own index, requires it to name a fault of `faults` and
/// the fault column to be that fault's rendering, and rebuilds every scalar
/// from its bit pattern, so the summary renders back to the identical line.
/// Any other line is an `Err` naming what is wrong, never a panic.
pub fn summary_from_line(line: &str, faults: &[Fault]) -> Result<(usize, FaultSummary), String> {
    let fields: Vec<&str> = line.split('\t').collect();
    let [index, name, det, count, obs, sfc, adh, outcome] = fields.as_slice() else {
        return Err(format!("expected 8 tab-separated fields: {line:?}"));
    };
    let index: usize = index
        .parse()
        .map_err(|_| format!("bad record index `{index}`"))?;
    let n = faults.len();
    let fault = faults
        .get(index)
        .ok_or_else(|| format!("record index {index} is outside the {n} faults"))?;
    if fault.to_string() != *name {
        return Err(format!("record {index} names `{name}`, not `{fault}`"));
    }
    let bits = |s: &str, what: &str| {
        u64::from_str_radix(s, 16).map_err(|_| format!("bad {what} bit pattern `{s}`"))
    };
    let outcome = match *outcome {
        "exact" => FaultOutcome::Exact,
        other => match (
            other.strip_prefix("bounded:"),
            other.strip_prefix("oscillating:"),
        ) {
            (Some(s), _) => FaultOutcome::Bounded {
                samples: s.parse().map_err(|_| format!("bad outcome `{other}`"))?,
            },
            (_, Some(d)) => FaultOutcome::Oscillating {
                density_bits: bits(d, "oscillation density")?,
            },
            _ => return Err(format!("bad outcome `{other}`")),
        },
    };
    let summary = FaultSummary {
        fault: fault.clone(),
        detectability: f64::from_bits(bits(det, "detectability")?),
        test_count: match *count {
            "-" => None,
            n => Some(n.parse().map_err(|_| format!("bad test count `{n}`"))?),
        },
        observable_outputs: obs
            .chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                _ => Err(format!("bad observability flag `{c}`")),
            })
            .collect::<Result<_, _>>()?,
        site_function_constant: match *sfc {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad site-constant flag `{other}`")),
        },
        adherence: match *adh {
            "-" => None,
            a => Some(f64::from_bits(bits(a, "adherence")?)),
        },
        outcome,
    };
    Ok((index, summary))
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
    use crate::EngineConfig;
    use dp_bdd::BudgetConfig;
    use dp_faults::{checkpoint_faults, enumerate_bridges, BridgeKind, BridgeTopology};
    use dp_netlist::generators::{c17, c95};

    /// Every summary of three sweeps, one per outcome kind (exact c95
    /// checkpoint faults, budget-bounded ones, and c17 feedback bridges,
    /// some of which oscillate), with the faults each line indexes.
    fn every_outcome() -> Vec<(Vec<Fault>, Vec<FaultSummary>)> {
        let c95 = c95();
        let stuck: Vec<Fault> = checkpoint_faults(&c95)
            .into_iter()
            .map(Fault::from)
            .collect();
        let exact = sweep_universe(&c95, &stuck, &SweepConfig::default());
        let budgeted = SweepConfig {
            engine: EngineConfig {
                budget: BudgetConfig::with_max_nodes(48),
                ..Default::default()
            },
            ..Default::default()
        };
        let bounded = sweep_universe(&c95, &stuck[..24], &budgeted);
        let c17 = c17();
        let bridges: Vec<Fault> =
            enumerate_bridges(&c17, BridgeKind::And, BridgeTopology::Feedback)
                .into_iter()
                .map(Fault::from)
                .collect();
        let feedback = sweep_universe(&c17, &bridges, &SweepConfig::default());
        vec![
            (stuck.clone(), exact.summaries),
            (stuck, bounded.summaries),
            (bridges, feedback.summaries),
        ]
    }

    #[test]
    fn every_summary_line_reparses_to_the_identical_line() {
        let sweeps = every_outcome();
        let outcomes: Vec<&FaultOutcome> = sweeps
            .iter()
            .flat_map(|(_, summaries)| summaries.iter().map(|s| &s.outcome))
            .collect();
        assert!(outcomes.iter().any(|o| o.is_exact()));
        assert!(outcomes.iter().any(|o| o.is_oscillating()));
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, FaultOutcome::Bounded { .. })));
        for (faults, summaries) in &sweeps {
            for (i, s) in summaries.iter().enumerate() {
                let line = summary_line(i, s);
                let (index, parsed) = summary_from_line(&line, faults).expect(&line);
                assert_eq!(index, i);
                assert_eq!(parsed.fault, faults[i]);
                assert_eq!(summary_line(index, &parsed), line, "byte-identical");
            }
        }
    }

    #[test]
    fn a_line_that_does_not_name_its_fault_is_an_error() {
        let c = c17();
        let faults: Vec<Fault> = checkpoint_faults(&c).into_iter().map(Fault::from).collect();
        let sweep = sweep_universe(&c, &faults, &SweepConfig::default());
        let line = summary_line(3, &sweep.summaries[3]);
        let fault = faults[3].to_string();
        let bad = [
            // An index outside the fault list, and one past its end.
            (line.replacen("3\t", "999\t", 1), "outside the"),
            (
                line.replacen("3\t", &format!("{}\t", faults.len()), 1),
                "outside the",
            ),
            // The right index with another fault's name.
            (line.replace(&fault, &faults[4].to_string()), "names"),
            (line.replace(&fault, ""), "names"),
        ];
        for (line, why) in bad {
            let e = summary_from_line(&line, &faults).expect_err(&line);
            assert!(e.contains(why), "{line:?}: {e}");
        }
        assert!(summary_from_line(&line, &faults[..3]).is_err());
        assert!(summary_from_line(&line, &faults).is_ok());
    }

    #[test]
    fn every_malformed_field_is_an_error() {
        let c = c17();
        let faults: Vec<Fault> = checkpoint_faults(&c).into_iter().map(Fault::from).collect();
        let sweep = sweep_universe(&c, &faults, &SweepConfig::default());
        let line = summary_line(2, &sweep.summaries[2]);
        let fields: Vec<&str> = line.split('\t').collect();
        let with = |at: usize, value: &str| {
            let mut f = fields.clone();
            f[at] = value;
            f.join("\t")
        };
        let bad = [
            (String::new(), "8 tab-separated"),
            (fields[..7].join("\t"), "8 tab-separated"),
            (format!("{line}\texact"), "8 tab-separated"),
            (with(0, "x"), "record index"),
            (with(0, "-1"), "record index"),
            (with(2, "zz"), "detectability"),
            (with(2, "1ffffffffffffffff"), "detectability"),
            (with(3, "1.5"), "test count"),
            (with(4, "10x"), "observability"),
            (with(5, "2"), "site-constant"),
            (with(6, "q"), "adherence"),
            (with(7, "approx"), "outcome"),
            (with(7, "bounded:"), "outcome"),
            (with(7, "bounded:-3"), "outcome"),
            (with(7, "oscillating:xyz"), "oscillation density"),
        ];
        for (line, why) in bad {
            let e = summary_from_line(&line, &faults).expect_err(&line);
            assert!(e.contains(why), "{line:?}: {e}");
        }
    }

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
