//! Golden-file helpers shared by the integration test binaries.
//!
//! `tests/golden/universe_summaries.tsv` pins the engine's output
//! bit-for-bit: every `f64` is recorded via `to_bits`, so matching the file
//! proves a refactor left the analysis byte-identical — not merely "close".
//! `tests/differential.rs` owns the file (and its regeneration switch);
//! `tests/telemetry_invariance.rs` replays the same universes with
//! collectors attached to prove telemetry is observation-only.

// Each test binary compiles its own copy of this module and uses a subset
// of the helpers.
#![allow(dead_code)]

use diffprop::core::{sweep_universe, FaultOutcome, FaultSummary, SweepConfig};
use diffprop::faults::{
    checkpoint_faults, enumerate_bridges, enumerate_nfbfs, pair_multis, BridgeKind, BridgeTopology,
    Fault,
};
use diffprop::netlist::generators::{c17, c95, full_adder};
use diffprop::netlist::Circuit;
use diffprop::sim::ternary_exhaustive_detectability;

/// Where the golden summaries live, relative to the workspace root (the
/// working directory of integration tests).
pub const GOLDEN_PATH: &str = "tests/golden/universe_summaries.tsv";

/// One summary, serialised losslessly (f64s as hex bit patterns).
pub fn summary_line(circuit: &str, model: &str, idx: usize, s: &FaultSummary) -> String {
    let obs: String = s
        .observable_outputs
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    let adherence = match s.adherence {
        Some(a) => format!("{:016x}", a.to_bits()),
        None => "-".to_string(),
    };
    let count = match s.test_count {
        Some(c) => c.to_string(),
        None => "-".to_string(),
    };
    let outcome = match s.outcome {
        FaultOutcome::Exact => "exact".to_string(),
        FaultOutcome::Bounded { samples } => format!("bounded:{samples}"),
        FaultOutcome::Oscillating { density_bits } => {
            format!("oscillating:{density_bits:016x}")
        }
    };
    format!(
        "{circuit}\t{model}\t{idx}\t{}\t{count}\t{:016x}\t{adherence}\t{obs}\t{}\t{outcome}",
        s.fault,
        s.detectability.to_bits(),
        s.site_function_constant as u8
    )
}

/// The collapsed checkpoint stuck-at universe of a circuit.
pub fn stuck_at_universe(circuit: &Circuit) -> Vec<Fault> {
    checkpoint_faults(circuit)
        .into_iter()
        .map(Fault::from)
        .collect()
}

/// AND and OR NFBFs, capped per kind. Deterministic enumeration order makes
/// the capped slice stable.
pub fn bridging_universe(circuit: &Circuit, cap: usize) -> Vec<Fault> {
    let mut faults = Vec::new();
    for kind in [BridgeKind::And, BridgeKind::Or] {
        faults.extend(
            enumerate_nfbfs(circuit, kind)
                .into_iter()
                .take(cap)
                .map(Fault::from),
        );
    }
    faults
}

/// AND and OR *feedback* bridges — one wire in the other's fanout cone —
/// capped per kind. The engine routes these through its ternary fixpoint.
pub fn feedback_universe(circuit: &Circuit, cap: usize) -> Vec<Fault> {
    let mut faults = Vec::new();
    for kind in [BridgeKind::And, BridgeKind::Or] {
        faults.extend(
            enumerate_bridges(circuit, kind, BridgeTopology::Feedback)
                .into_iter()
                .take(cap)
                .map(Fault::from),
        );
    }
    faults
}

/// Double stuck-at faults from the all-pairs checkpoint universe, capped.
/// `pair_multis` enumerates deterministically, so the capped slice is
/// stable.
pub fn multi_universe(circuit: &Circuit, cap: usize) -> Vec<Fault> {
    pair_multis(circuit)
        .into_iter()
        .take(cap)
        .map(Fault::from)
        .collect()
}

/// The golden circuit set by name (the TSV's first column).
pub fn golden_circuit(name: &str) -> Circuit {
    match name {
        "c17" => c17(),
        "full_adder" => full_adder(),
        "c95" => c95(),
        other => panic!("unknown golden circuit {other}"),
    }
}

/// Every `(circuit, model, universe)` triple recorded in the golden file,
/// in file order.
pub fn golden_universes() -> Vec<(String, &'static str, Vec<Fault>)> {
    let mut out = Vec::new();
    for circuit in [c17(), full_adder(), c95()] {
        let name = circuit.name().to_string();
        out.push((name.clone(), "stuck", stuck_at_universe(&circuit)));
        // Same deterministic cap as the oracle tests keeps this fast on c95.
        let cap = if circuit.num_inputs() > 8 {
            120
        } else {
            usize::MAX
        };
        out.push((name.clone(), "bridge", bridging_universe(&circuit, cap)));
        // The extended models ride the same file: feedback bridges pin the
        // ternary fixpoint (including each oscillation density, via the
        // outcome column), double stuck-ats pin multi-fault composition.
        let fb_cap = if circuit.num_inputs() > 8 {
            40
        } else {
            usize::MAX
        };
        out.push((name.clone(), "fbridge", feedback_universe(&circuit, fb_cap)));
        let multi_cap = if circuit.num_inputs() > 8 {
            120
        } else {
            usize::MAX
        };
        out.push((name, "multi", multi_universe(&circuit, multi_cap)));
    }
    out
}

/// Sweeps every golden universe under `config` (its `parallelism`,
/// `telemetry`, collapse setting, ... all apply) and serialises the
/// summaries as golden TSV lines.
pub fn current_golden_lines(config: &SweepConfig) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, model, faults) in golden_universes() {
        let circuit = golden_circuit(&name);
        let sweep = sweep_universe(&circuit, &faults, config);
        for (idx, summary) in sweep.summaries.iter().enumerate() {
            lines.push(summary_line(&name, model, idx, summary));
        }
    }
    lines
}

/// Model-generic oracle check: sweeps `faults` under `config` and demands
/// that every summary — detectability, exact test count, and (for feedback
/// bridges) the oscillation density — equals what the independent packed
/// ternary simulator computes by exhausting all `2^n` vectors.
///
/// The simulator shares no code with the engine's BDD path and converges to
/// the same least fixpoint per vector, so agreement here pins every fault
/// model (single/multiple stuck-at, non-feedback and feedback bridges) to
/// one reference semantics.
pub fn assert_matches_ternary_oracle(circuit: &Circuit, faults: &[Fault], config: &SweepConfig) {
    assert!(!faults.is_empty(), "empty universe on {}", circuit.name());
    let total = 1u128 << circuit.num_inputs();
    let sweep = sweep_universe(circuit, faults, config);
    assert_eq!(sweep.summaries.len(), faults.len());
    for (fault, s) in faults.iter().zip(&sweep.summaries) {
        let t = ternary_exhaustive_detectability(circuit, fault);
        assert_eq!(
            s.test_count,
            Some(u128::from(t.detected)),
            "test_count for {fault} on {}",
            circuit.name()
        );
        // count / 2^n is exact in f64 at these sizes: demand bit equality.
        assert_eq!(
            s.detectability.to_bits(),
            (t.detected as f64 / total as f64).to_bits(),
            "detectability for {fault} on {}",
            circuit.name()
        );
        match s.outcome {
            FaultOutcome::Exact => {
                assert_eq!(
                    t.oscillating, 0,
                    "{fault}: simulator saw oscillation, engine none"
                );
            }
            FaultOutcome::Oscillating { density_bits } => {
                assert!(
                    t.oscillating > 0,
                    "{fault}: engine oscillates, simulator settles"
                );
                assert_eq!(
                    density_bits,
                    (t.oscillating as f64 / total as f64).to_bits(),
                    "oscillation density for {fault} on {}",
                    circuit.name()
                );
            }
            FaultOutcome::Bounded { .. } => {
                panic!("{fault}: bounded summary in an unbudgeted oracle sweep")
            }
        }
    }
}

/// Asserts `lines` equals the committed golden file, line by line.
pub fn assert_matches_golden(lines: &[String]) {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; run with DP_UPDATE_GOLDEN=1 to capture");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        lines.len(),
        "universe size changed; engine no longer enumerates the golden faults"
    );
    for (want, got) in golden.iter().zip(lines) {
        assert_eq!(want, got, "summary drifted from the committed golden file");
    }
}
