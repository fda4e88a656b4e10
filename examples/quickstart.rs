//! Quickstart: exact fault analysis of C17 with Difference Propagation.
//!
//! Run with: `cargo run --example quickstart`

use diffprop::core::{sweep_universe, DiffProp, Parallelism, SweepConfig};
use diffprop::faults::{checkpoint_faults, enumerate_nfbfs, BridgeKind, Fault};
use diffprop::netlist::generators::c17;

fn main() {
    let circuit = c17();
    println!(
        "circuit {}: {} inputs, {} outputs, {} gates\n",
        circuit.name(),
        circuit.num_inputs(),
        circuit.num_outputs(),
        circuit.num_gates()
    );

    let mut dp = DiffProp::new(&circuit);

    // --- A stuck-at fault -------------------------------------------------
    let stuck = Fault::from(checkpoint_faults(&circuit)[0]);
    let analysis = dp.analyze(&stuck);
    println!("fault: {stuck}");
    println!("  detectable:      {}", analysis.is_detectable());
    println!("  detectability:   {:.4}", analysis.detectability);
    println!("  exact tests:     {:?}", analysis.test_count);
    println!(
        "  observable POs:  {}/{}",
        analysis.num_observable(),
        circuit.num_outputs()
    );
    if let Some(bound) = dp.detectability_bound(&stuck) {
        println!("  syndrome bound:  {bound:.4}");
    }
    if let Some(adherence) = dp.adherence(&analysis) {
        println!("  adherence:       {adherence:.4}");
    }
    println!(
        "  complete test set as cubes over inputs {:?}:",
        circuit
            .inputs()
            .iter()
            .map(|&n| circuit.net_name(n))
            .collect::<Vec<_>>()
    );
    for cube in dp.test_cubes(&analysis) {
        println!("    {cube}  ({} vectors)", cube.num_minterms());
    }

    // --- A bridging fault -------------------------------------------------
    let bridge = Fault::from(enumerate_nfbfs(&circuit, BridgeKind::And)[0]);
    let analysis = dp.analyze(&bridge);
    println!("\nfault: {bridge}");
    println!("  detectability:   {:.4}", analysis.detectability);
    println!("  stuck-at-like:   {}", analysis.site_function_constant);
    if let Some(vector) = dp.pick_test(&analysis) {
        println!("  one test vector: {vector:?}");
        assert!(diffprop::sim::detects(&circuit, &bridge, &vector));
        println!("  (verified against the bit-parallel fault simulator)");
    }

    // --- A whole universe, sharded over worker threads --------------------
    // `sweep_universe` collapses the fault list, builds the good functions
    // once, and hands work-stealing worker threads a delta manager each over
    // that shared snapshot, merging per-fault results in fault order. The
    // summaries are bit-identical to a serial sweep; only the wall-clock and
    // the per-shard manager statistics change.
    let universe: Vec<Fault> = checkpoint_faults(&circuit)
        .into_iter()
        .map(Fault::from)
        .collect();
    let sweep = sweep_universe(
        &circuit,
        &universe,
        &SweepConfig {
            parallelism: Parallelism::Threads(2),
            ..Default::default()
        },
    );
    let serial = sweep_universe(&circuit, &universe, &SweepConfig::default());
    assert_eq!(sweep.summaries, serial.summaries);
    println!("\nsharded sweep over {} checkpoint faults:", universe.len());
    for report in &sweep.shards {
        println!(
            "  worker {}: {} faults ({} classes) in {} chunks, unique-table hit rate {:.1}%, peak {} nodes",
            report.shard,
            report.faults_done,
            report.classes_done,
            report.chunks_claimed,
            100.0 * report.stats.unique.hit_rate(),
            report.stats.peak_nodes
        );
    }
    let detected = sweep
        .summaries
        .iter()
        .filter(|s| s.detectability > 0.0)
        .count();
    println!(
        "  {detected}/{} faults detectable (identical to serial)",
        universe.len()
    );
}
