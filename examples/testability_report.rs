//! Testability report: the paper's §4.1 analyses for one circuit, ending in
//! a design-for-testability recommendation.
//!
//! Run with: `cargo run --release --example testability_report [circuit|file.bench]`
//!
//! `circuit` is one of the built-in benchmarks (`c17`, `full_adder`, `c95`,
//! `alu74181`, `c432s`, `c499s`, `c1355s`, `c1908s`; default `alu74181`),
//! or a path to an ISCAS-85 `.bench` netlist.

use diffprop::analysis::topology::{
    detectability_vs_pi_distance, detectability_vs_po_distance, pos_fed_vs_observed, render_curve,
};
use diffprop::analysis::{analyze_faults, stuck_at_universe, Histogram};
use diffprop::netlist::{generators, parse_bench, Circuit};

fn load(arg: &str) -> Circuit {
    generators::by_name(arg).unwrap_or_else(|| {
        let src = std::fs::read_to_string(arg).unwrap_or_else(|e| panic!("cannot read {arg}: {e}"));
        parse_bench(&src, arg).unwrap_or_else(|e| panic!("cannot parse {arg}: {e}"))
    })
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "alu74181".into());
    let circuit = load(&arg);
    println!(
        "=== testability report: {} ({} PIs, {} POs, {} gates) ===\n",
        circuit.name(),
        circuit.num_inputs(),
        circuit.num_outputs(),
        circuit.num_gates()
    );

    let faults = stuck_at_universe(&circuit, true);
    println!("collapsed checkpoint faults: {}", faults.len());
    let records = analyze_faults(&circuit, &faults);

    let detectable = records.iter().filter(|r| r.is_detectable()).count();
    println!(
        "detectable: {detectable}/{} ({} redundant)\n",
        records.len(),
        records.len() - detectable
    );

    println!("detection probability profile (fault proportions):");
    let h = Histogram::from_values(20, records.iter().map(|r| r.detectability));
    println!("{h}");

    println!("adherence profile (how tight the syndrome bound is):");
    let a = Histogram::from_values(20, records.iter().filter_map(|r| r.adherence));
    println!("{a}");

    println!("detectability vs max levels to PO (the bathtub curve):");
    let po_curve = detectability_vs_po_distance(&records);
    println!("{}", render_curve(&po_curve, "levels to PO"));

    println!("detectability vs levels from PI (for comparison):");
    let pi_curve = detectability_vs_pi_distance(&records);
    println!("{}", render_curve(&pi_curve, "levels from PI"));

    let (equal, total) = pos_fed_vs_observed(&records);
    println!(
        "faults observable at every PO they feed: {equal}/{total} ({:.1}%)\n",
        100.0 * equal as f64 / total.max(1) as f64
    );

    // DFT recommendation, per the paper's conclusions: target the circuit
    // middle, and prefer observation points over control points.
    if let Some(worst) = po_curve
        .iter()
        .filter(|b| b.faults >= 3)
        .min_by(|a, b| a.mean_detectability.total_cmp(&b.mean_detectability))
    {
        println!(
            "DFT recommendation: the hardest faults sit {} levels from the POs \
             (mean detectability {:.4} over {} faults).",
            worst.distance, worst.mean_detectability, worst.faults
        );
        println!(
            "The paper's data (and this circuit's) favour adding OBSERVATION \
             points at that depth rather than control points: detectability \
             correlates with PO distance, not PI distance."
        );
    }
}
