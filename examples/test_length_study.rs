//! Test-planning study: what exact detectabilities buy a test engineer.
//!
//! 1. Predicts pseudo-random test length requirements in closed form from
//!    Difference Propagation's exact detection probabilities (no fault
//!    simulation), and cross-checks one point by simulation.
//! 2. Reproduces the Hughes–McCluskey experiment (the paper's reference
//!    [2]): the multiple-stuck-at coverage of a complete single-stuck-at
//!    test set.
//!
//! Run with: `cargo run --release --example test_length_study [circuit]`

use diffprop::analysis::coverage::{double_fault_coverage, expected_random_coverage};
use diffprop::analysis::{analyze_faults, stuck_at_universe};
use diffprop::netlist::generators;
use diffprop::sim::sampled_fault_estimate;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "alu74181".into());
    let circuit = generators::by_name(&arg).unwrap_or_else(|| panic!("unknown circuit {arg}"));
    println!("=== test-length study: {} ===\n", circuit.name());

    let faults = stuck_at_universe(&circuit, true);
    let records = analyze_faults(&circuit, &faults);
    println!("collapsed checkpoint faults: {}", records.len());

    println!("\nexpected pseudo-random coverage (closed form from exact detectabilities):");
    let lengths = [1, 4, 16, 64, 256, 1024, 4096];
    for (k, cov) in expected_random_coverage(&records, &lengths) {
        let bar = "#".repeat((cov * 50.0).round() as usize);
        println!("  {k:>5} vectors: {:6.2}% {bar}", cov * 100.0);
    }

    // Cross-check one point by actual random simulation.
    let k = 256;
    let hits = faults
        .iter()
        .filter(|f| sampled_fault_estimate(&circuit, f, k, 99).detected > 0)
        .count();
    println!(
        "\nsimulated {k}-vector random coverage: {:.2}% (prediction above: closed form)",
        100.0 * hits as f64 / faults.len() as f64
    );

    println!("\nHughes–McCluskey: double-fault coverage of a complete single-fault set");
    let result = double_fault_coverage(&circuit, 200, 1990);
    println!(
        "  test set: {} vectors; sampled {} double faults ({} detectable)",
        result.test_vectors, result.sampled, result.detectable
    );
    println!(
        "  detected by the single-fault set: {} ({:.1}%)",
        result.detected,
        100.0 * result.coverage()
    );
    println!(
        "\nThe same machinery answers the bridging-fault version of this \
         question — see `bridging_analysis` and the Figure 5 data."
    );
}
