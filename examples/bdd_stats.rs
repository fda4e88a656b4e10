//! Dumps BDD manager statistics for the full stuck-at sweeps used in the
//! EXPERIMENTS.md node-count / cache-hit-rate table.
//!
//! ```text
//! cargo run --release --example bdd_stats
//! ```
//!
//! For c95 and the 74181 ALU, runs a serial Difference Propagation sweep
//! over **every** stuck-at fault (`all_stuck_faults`) and prints the
//! manager counters that the complement-edge refactor targets: peak node
//! count, final node count, unique-table pressure and per-family op-cache
//! hit rates.

use diffprop::core::{sweep_universe, SweepConfig};
use diffprop::faults::{all_stuck_faults, Fault};
use diffprop::netlist::generators::{alu74181, c95};

fn main() {
    for circuit in [c95(), alu74181()] {
        let faults: Vec<Fault> = all_stuck_faults(&circuit)
            .into_iter()
            .map(Fault::from)
            .collect();
        let sweep = sweep_universe(&circuit, &faults, &SweepConfig::default());
        let stats = sweep.merged_stats();
        let detected = sweep.summaries.iter().filter(|s| s.is_detectable()).count();
        println!(
            "== {} | {} stuck-at faults | {} detectable ==",
            circuit.name(),
            faults.len(),
            detected
        );
        println!("peak nodes: {}", stats.peak_nodes);
        println!(
            "unique table: {} lookups, {:.2}% hit",
            stats.unique.lookups,
            100.0 * stats.unique.hit_rate()
        );
        let total = stats.op_cumulative_total();
        println!(
            "op cache:     {} lookups, {:.2}% hit",
            total.lookups,
            100.0 * total.hit_rate()
        );
        println!("{}", stats);
    }
}
