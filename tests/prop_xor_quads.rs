//! The XOR-quad shortcut against independent references: on NAND-expanded
//! circuits, where the default engine propagates each four-NAND XOR with no
//! fault site inside as one XOR gate, every fault model's exact counts must
//! still equal brute-force simulation — for faults inside quads (which run
//! gate by gate) and outside them alike.

use diffprop::core::{DiffProp, EngineConfig};
use diffprop::faults::{
    checkpoint_faults, enumerate_nfbfs, BridgeKind, Fault, FaultSite, MultiStuckAt,
};
use diffprop::netlist::generators::{c95, full_adder, random_circuit, RandomCircuitConfig};
use diffprop::netlist::{expand_xor_to_nand, find_xor_quads, Circuit, NetId, XorQuads};
use diffprop::sim::exhaustive_detectability;
use proptest::prelude::*;

fn inside(quads: &XorQuads, n: NetId) -> bool {
    quads.owner_of(n).is_some()
}

/// Checks the default engine against exhaustive simulation on `circuit`:
/// every checkpoint stuck-at (quad-internal branches included), AND and
/// OR non-feedback bridges (every one touching a quad's internal net, and
/// up to `outside_cap` of the rest per kind), and every adjacent pair of
/// checkpoint faults as a double stuck-at.
///
/// Returns how many faults propagated through fewer gates than the
/// gate-by-gate (`table1: false`) engine, i.e. took the shortcut.
fn check_against_simulation(circuit: &Circuit, outside_cap: usize) -> usize {
    let quads = find_xor_quads(circuit);
    let mut dp = DiffProp::new(circuit);
    let mut gate_by_gate = DiffProp::with_config(
        circuit,
        EngineConfig {
            table1: false,
            ..Default::default()
        },
    );
    let mut shortcuts = 0;
    let mut check = |fault: &Fault, det: u64, total: u64| {
        let a = dp.analyze(fault);
        assert_eq!(
            a.test_count,
            Some(det as u128),
            "{fault} on {}",
            circuit.name()
        );
        assert!((a.detectability - det as f64 / total as f64).abs() < 1e-12);
        let b = gate_by_gate.analyze(fault);
        assert_eq!(a.observable_outputs, b.observable_outputs, "{fault}");
        if a.gates_propagated < b.gates_propagated {
            shortcuts += 1;
        }
    };

    let stuck = checkpoint_faults(circuit);
    for &f in &stuck {
        let fault = Fault::from(f);
        let (det, total) = exhaustive_detectability(circuit, &fault);
        check(&fault, det, total);
    }
    for kind in [BridgeKind::And, BridgeKind::Or] {
        let (internal, outside): (Vec<_>, Vec<_>) = enumerate_nfbfs(circuit, kind)
            .into_iter()
            .partition(|f| inside(&quads, f.a) || inside(&quads, f.b));
        for f in internal
            .into_iter()
            .chain(outside.into_iter().take(outside_cap))
        {
            let fault = Fault::from(f);
            let (det, total) = exhaustive_detectability(circuit, &fault);
            check(&fault, det, total);
        }
    }
    for w in stuck.windows(2) {
        if w[0].site == w[1].site {
            continue;
        }
        let fault = Fault::MultiStuckAt(MultiStuckAt::new(w.to_vec()));
        let (det, total) = exhaustive_detectability(circuit, &fault);
        check(&fault, det, total);
    }
    shortcuts
}

#[test]
fn expanded_full_adder_and_c95_match_simulation() {
    for base in [full_adder(), c95()] {
        let expanded = expand_xor_to_nand(&base).unwrap();
        let quads = find_xor_quads(&expanded);
        assert!(!quads.is_empty(), "{} has XORs to expand", base.name());
        // Checkpoint faults sit both inside quads (branches into t1/t2/t3)
        // and outside them.
        let in_quad: Vec<bool> = checkpoint_faults(&expanded)
            .iter()
            .map(|f| match f.site {
                FaultSite::Net(n) => inside(&quads, n),
                FaultSite::Branch(b) => quads.member(b.sink).is_some(),
            })
            .collect();
        assert!(in_quad.contains(&true) && in_quad.contains(&false));
        let shortcuts = check_against_simulation(&expanded, 200);
        assert!(shortcuts > 0, "{}: the shortcut never ran", base.name());
    }
}

#[test]
fn stats_counts_the_xor_quads() {
    for (circuit, quads) in [("c499s", 0), ("c1355s", 157), ("c1908s", 84)] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_diffprop"))
            .args(["stats", circuit])
            .output()
            .expect("diffprop runs");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(
            stdout.contains(&format!("\n  xor quads: {quads}\n")),
            "{stdout}"
        );
    }
}

fn config_strategy() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (any::<u64>(), (2usize..=6, 4usize..=20, 2usize..=3)).prop_map(
        |(seed, (inputs, gates, max_fanin))| {
            (
                seed,
                RandomCircuitConfig {
                    inputs,
                    gates,
                    max_fanin,
                },
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn expanded_random_circuits_match_simulation((seed, cfg) in config_strategy()) {
        let expanded = expand_xor_to_nand(&random_circuit(seed, cfg)).unwrap();
        check_against_simulation(&expanded, 30);
    }
}
