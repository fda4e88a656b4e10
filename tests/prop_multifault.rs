//! Property layer for the extended fault models.
//!
//! Three families of invariants pin the new machinery to the old:
//!
//! * **Degeneracy** — a multiplicity-1 multiple stuck-at fault *is* the
//!   single stuck-at fault: every scalar the engine reports must be
//!   bit-identical between the two encodings, for every checkpoint fault.
//! * **Fixpoint conservatism** — running a *non-feedback* bridge through
//!   the feedback fixpoint must reproduce the one-pass NFBF analysis
//!   exactly (the loop converges in two sweeps to the same canonical
//!   OBDDs), with a zero oscillation residual.
//! * **Schedule invariance** — feedback-bridge and multi-fault sweeps are
//!   bit-identical across thread counts and batch sizes;
//!   the new models inherit the determinism contract of the sweep layer.
//! * **Frontier economy** — the fixpoint's event-driven frontier never
//!   evaluates more gates than a dense sweep of both wires' fanout cones
//!   per iteration, and evaluates fewer on real feedback bridges.

mod common;

use common::{feedback_universe, multi_universe, summary_line};
use diffprop::analysis::fault_model_universe;
use diffprop::core::{sweep_universe, DiffProp, Parallelism, SweepConfig};
use diffprop::faults::{checkpoint_faults, enumerate_nfbfs, BridgeKind, Fault, MultiStuckAt};
use diffprop::netlist::generators::{alu74181, c17, c432_surrogate, c95};
use diffprop::netlist::{Circuit, NetId, Reachability};

/// Every checkpoint fault, analysed both as a plain stuck-at and as a
/// multiplicity-1 multiple fault, must yield bit-identical scalars.
#[test]
fn multiplicity_one_multi_equals_single_stuck_at() {
    for circuit in [c17(), c95()] {
        let mut dp = DiffProp::new(&circuit);
        for f in checkpoint_faults(&circuit) {
            let single = dp.analyze(&Fault::StuckAt(f));
            let multi = dp.analyze(&Fault::MultiStuckAt(MultiStuckAt::new(vec![f])));
            assert_eq!(
                single.test_count,
                multi.test_count,
                "test_count for {f:?} on {}",
                circuit.name()
            );
            assert_eq!(
                single.detectability.to_bits(),
                multi.detectability.to_bits(),
                "detectability for {f:?} on {}",
                circuit.name()
            );
            assert_eq!(
                single.observable_outputs,
                multi.observable_outputs,
                "observability for {f:?} on {}",
                circuit.name()
            );
            assert_eq!(multi.fixpoint_iterations, 0, "acyclic model iterated");
            assert_eq!(multi.oscillation_density.to_bits(), 0f64.to_bits());
        }
    }
}

/// The feedback fixpoint is conservative: fed a bridge with *no* feedback
/// path, it converges to the exact same analysis as the one-pass NFBF
/// route — OBDD canonicity makes "the same" bit-for-bit.
#[test]
fn fixpoint_on_nonfeedback_bridge_equals_one_pass_analysis() {
    for circuit in [c17(), c95()] {
        let mut dp = DiffProp::new(&circuit);
        for kind in [BridgeKind::And, BridgeKind::Or] {
            for bridge in enumerate_nfbfs(&circuit, kind).into_iter().take(40) {
                let direct = dp
                    .try_analyze(&Fault::Bridging(bridge))
                    .expect("one-pass NFBF analysis failed");
                let fixed = dp
                    .try_analyze_bridge_fixpoint(&bridge)
                    .expect("fixpoint analysis of an acyclic bridge failed");
                assert_eq!(
                    direct.test_count,
                    fixed.test_count,
                    "test_count for {bridge:?} on {}",
                    circuit.name()
                );
                assert_eq!(
                    direct.detectability.to_bits(),
                    fixed.detectability.to_bits(),
                    "detectability for {bridge:?} on {}",
                    circuit.name()
                );
                assert_eq!(
                    direct.observable_outputs,
                    fixed.observable_outputs,
                    "observability for {bridge:?} on {}",
                    circuit.name()
                );
                assert_eq!(
                    direct.site_function_constant,
                    fixed.site_function_constant,
                    "site flag for {bridge:?} on {}",
                    circuit.name()
                );
                // No loop, no residual: the wired value settles everywhere,
                // and monotone convergence from all-X needs exactly two
                // sweeps (one to fill, one to confirm).
                assert_eq!(fixed.oscillation_density.to_bits(), 0f64.to_bits());
                assert!(
                    fixed.fixpoint_iterations >= 2,
                    "fixpoint claims convergence without a confirming sweep"
                );
            }
        }
    }
}

/// Renders a whole sweep as golden-format lines (losslessly, outcome
/// column included) for whole-universe comparison.
fn sweep_lines(
    circuit: &diffprop::netlist::Circuit,
    faults: &[Fault],
    config: &SweepConfig,
) -> Vec<String> {
    sweep_universe(circuit, faults, config)
        .summaries
        .iter()
        .enumerate()
        .map(|(idx, s)| summary_line(circuit.name(), "x", idx, s))
        .collect()
}

/// The determinism contract, extended to the new models: every schedule —
/// serial or threaded, batched or not — produces byte-identical summaries,
/// oscillation densities included.
#[test]
fn extended_models_are_schedule_invariant() {
    for circuit in [c17(), c95()] {
        let mut faults = feedback_universe(&circuit, 30);
        faults.extend(multi_universe(&circuit, 60));
        let baseline = sweep_lines(
            &circuit,
            &faults,
            &SweepConfig {
                parallelism: Parallelism::Serial,
                batch: 1,
                ..Default::default()
            },
        );
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            for batch in [1, 8] {
                let config = SweepConfig {
                    parallelism,
                    batch,
                    ..Default::default()
                };
                assert_eq!(
                    baseline,
                    sweep_lines(&circuit, &faults, &config),
                    "summaries drift on {} under {parallelism:?}/batch {batch}",
                    circuit.name()
                );
            }
        }
    }
}

/// The gate evaluations of a dense fixpoint that re-sweeps every net of
/// both wires' fanout cones (the wires themselves excluded) per iteration.
fn dense_sweep_gates(
    circuit: &Circuit,
    reach: &Reachability,
    fault: &Fault,
    iterations: u32,
) -> u64 {
    let Fault::Bridging(b) = fault else {
        panic!("{fault} is not a bridge")
    };
    let cone = (0..circuit.num_nets())
        .map(NetId::from_index)
        .filter(|&n| reach.reaches(b.a, n) || reach.reaches(b.b, n))
        .count() as u64;
    u64::from(iterations) * (cone - 2)
}

/// A seeded sample of `per_kind` AND and `per_kind` OR feedback bridges.
fn feedback_sample(circuit: &Circuit, per_kind: usize, seed: u64) -> Vec<Fault> {
    let mut faults = Vec::new();
    for model in ["fbridge-and", "fbridge-or"] {
        faults.extend(fault_model_universe(circuit, model, Some(per_kind), seed).unwrap());
    }
    faults
}

/// The fixpoint re-evaluates a gate only when one of its fanin rails
/// changed, so it never does more gate work than the dense sweep — checked
/// on every feedback bridge of c95 and on seeded alu74181 and c432s
/// samples. The saving needs a gate whose changed fanin is masked by its
/// other inputs on every vector where the change happens. c95 and
/// alu74181 have no such gate in any feedback bridge's cone: every bridge
/// converges in two sweeps and every cone net changes in both. c432s, with
/// its redundant logic, does, and there the frontier must do strictly less.
#[test]
fn fixpoint_frontier_never_exceeds_the_dense_sweep() {
    let c95 = c95();
    let alu = alu74181();
    let c432 = c432_surrogate();
    let cases = [
        (&c95, feedback_universe(&c95, usize::MAX)),
        (&alu, feedback_sample(&alu, 16, 4)),
        (&c432, feedback_sample(&c432, 8, 4)),
    ];
    let mut strictly_lower = 0;
    for (circuit, faults) in cases {
        assert!(
            !faults.is_empty(),
            "no feedback bridges on {}",
            circuit.name()
        );
        let reach = Reachability::compute(circuit);
        let mut dp = DiffProp::new(circuit);
        for fault in &faults {
            let a = dp.analyze(fault);
            assert!(a.fixpoint_iterations > 0, "{fault} skipped the fixpoint");
            let dense = dense_sweep_gates(circuit, &reach, fault, a.fixpoint_iterations);
            let got = u64::from(a.gates_propagated);
            assert!(
                got <= dense,
                "{fault} on {}: {got} gate evaluations, dense sweep {dense}",
                circuit.name()
            );
            if got < dense {
                strictly_lower += 1;
            }
        }
    }
    assert!(strictly_lower > 0, "the frontier never skipped a gate");
}
