//! ATPG: compact deterministic test generation from complete test sets,
//! with exact redundancy identification — the application the paper's §3
//! positions Difference Propagation for.
//!
//! Run with: `cargo run --release --example atpg [circuit]`

use diffprop::core::generate_tests;
use diffprop::faults::{checkpoint_faults, enumerate_nfbfs, BridgeKind, Fault};
use diffprop::netlist::generators;
use diffprop::sim::detects;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "alu74181".into());
    let circuit = generators::by_name(&arg).unwrap_or_else(|| panic!("unknown circuit {arg}"));
    println!(
        "=== ATPG via Difference Propagation: {} ===\n",
        circuit.name()
    );

    // Target list: all checkpoint stuck-at faults plus the small-circuit
    // bridging sets (mixed fault models in one run — DP does not care).
    let mut faults: Vec<Fault> = checkpoint_faults(&circuit)
        .into_iter()
        .map(Fault::from)
        .collect();
    let num_stuck = faults.len();
    if circuit.num_gates() <= 150 {
        for kind in [BridgeKind::And, BridgeKind::Or] {
            faults.extend(enumerate_nfbfs(&circuit, kind).into_iter().map(Fault::from));
        }
    }
    println!(
        "targets: {} faults ({} stuck-at, {} bridging)",
        faults.len(),
        num_stuck,
        faults.len() - num_stuck
    );

    let t = std::time::Instant::now();
    let tests = generate_tests(&circuit, &faults);
    println!("generation time: {:?}", t.elapsed());
    println!(
        "result: {} vectors cover {}/{} faults; {} proven undetectable",
        tests.vectors.len(),
        tests.covered,
        faults.len(),
        tests.undetectable.len()
    );
    println!(
        "compaction: {:.1} faults per vector",
        tests.covered as f64 / tests.vectors.len().max(1) as f64
    );

    // Independent verification with the bit-parallel fault simulator.
    let mut verified = 0;
    for f in &faults {
        if tests.undetectable.contains(f) {
            continue;
        }
        assert!(
            tests.vectors.iter().any(|v| detects(&circuit, f, v)),
            "{f} missed by the generated set"
        );
        verified += 1;
    }
    println!("verified by simulation: {verified} faults covered ✓");

    for f in &tests.undetectable {
        println!("undetectable (redundant logic): {f}");
    }

    println!("\nfirst vectors:");
    for v in tests.vectors.iter().take(10) {
        let s: String = v.iter().map(|&b| if b { '1' } else { '0' }).collect();
        println!("  {s}");
    }
}
