//! The perf contract of structural fault collapsing, measured on the paper's
//! two benchmark circuits (c95 and the 74181 ALU) over the full pin-level
//! stuck-at universe: both polarities on every net and on every fanout
//! branch — every gate input pin and gate output is a distinct site, exactly
//! the universe the classic collapsing literature quotes its ratios for.
//!
//! The headline assertion is the acceptance bar of the cone-aware-sweeps
//! work: collapsing cuts the number of BDD propagation passes (one per
//! equivalence class instead of one per fault, counted by the sweep's
//! per-shard `classes_done` telemetry) by at least 30% across the c95/74181
//! stuck-at universe, with bit-identical summaries. Per circuit the ratio
//! is topology-dependent — the gate-rich 74181 clears 30% on its own, while
//! c95's XOR-heavy, reconvergent carry-lookahead tree tops out just above
//! 29% (XOR pins never collapse and high-fanout stems block net
//! forwarding), so c95 carries a 25% floor and the 30% bar is asserted on
//! the two-circuit suite.
//!
//! The saved passes must also show up as saved *work* in the managers' own
//! [`ManagerStats`] counters (`unique.lookups` and
//! `op_cumulative_total()`), which are cumulative and survive every gc, so
//! a sweep-end reading covers the whole run no matter how often the
//! adaptive gc fired. These sweeps run one class per pass (`batch: 1`), so
//! they measure collapsing alone: the uncollapsed 74181 sweep then
//! re-derives every duplicate fault's deltas; collapsing removes that
//! recomputation and both the cumulative unique-table and op-cache traffic
//! drop by over 20% (c95 is small enough that one warm cache absorbs its
//! whole universe, so only a strict decrease is asserted there). At the
//! default batch a region pass already shares one fanout-free region's
//! inversion front among the duplicate faults inside it, so there only a
//! strict decrease is asserted.

use diffprop::core::{sweep_universe, SweepConfig, SweepResult};
use diffprop::faults::{all_stuck_faults, Fault, FaultSite, StuckAtFault};
use diffprop::netlist::generators::{alu74181, c95};
use diffprop::netlist::Circuit;

/// Both polarities on every net plus both polarities on every fanout branch.
fn pin_universe(circuit: &Circuit) -> Vec<Fault> {
    let mut faults = all_stuck_faults(circuit);
    for branch in circuit.fanout_branches() {
        for value in [false, true] {
            faults.push(StuckAtFault {
                site: FaultSite::Branch(branch),
                value,
            });
        }
    }
    faults.into_iter().map(Fault::from).collect()
}

/// One serial sweep over the (uncollapsed) pin-level stuck-at universe
/// under the default engine config, one class per propagation pass unless
/// `batch` says otherwise.
fn sweep(circuit: &Circuit, collapse: bool) -> SweepResult {
    sweep_batched(circuit, collapse, 1)
}

fn sweep_batched(circuit: &Circuit, collapse: bool, batch: usize) -> SweepResult {
    let faults = pin_universe(circuit);
    let result = sweep_universe(
        circuit,
        &faults,
        &SweepConfig {
            collapse,
            batch,
            ..Default::default()
        },
    );
    assert!(result.is_complete());
    assert_eq!(result.summaries.len(), faults.len());
    result
}

/// BDD propagation passes the sweep actually ran, from the per-shard
/// telemetry (cross-checked against the partition's class count).
fn propagations(sweep: &SweepResult) -> usize {
    let done: usize = sweep.shards.iter().map(|s| s.classes_done).sum();
    assert_eq!(done, sweep.classes, "one pass per equivalence class");
    done
}

fn fraction_cut(off: u64, on: u64) -> f64 {
    1.0 - on as f64 / off as f64
}

/// Off/on work counters for one circuit, all cumulative across gc.
struct Measurement {
    passes_off: usize,
    passes_on: usize,
    unique_off: u64,
    unique_on: u64,
    ops_off: u64,
    ops_on: u64,
}

/// Off/on measurement for one circuit with the bit-identity cross-check.
fn measure(circuit: &Circuit) -> Measurement {
    let off = sweep(circuit, false);
    let on = sweep(circuit, true);
    // Identical scalars first — a fast cross-check of the bit-identity
    // contract before we talk about speed.
    assert_eq!(off.summaries, on.summaries);
    let m = Measurement {
        passes_off: propagations(&off),
        passes_on: propagations(&on),
        unique_off: off.merged_stats().unique.lookups,
        unique_on: on.merged_stats().unique.lookups,
        ops_off: off.merged_stats().op_cumulative_total().lookups,
        ops_on: on.merged_stats().op_cumulative_total().lookups,
    };
    eprintln!(
        "{}: {} -> {} propagations ({:.1}% cut), {} -> {} unique-table lookups ({:.1}% cut), \
         {} -> {} op-cache lookups ({:.1}% cut)",
        circuit.name(),
        m.passes_off,
        m.passes_on,
        100.0 * fraction_cut(m.passes_off as u64, m.passes_on as u64),
        m.unique_off,
        m.unique_on,
        100.0 * fraction_cut(m.unique_off, m.unique_on),
        m.ops_off,
        m.ops_on,
        100.0 * fraction_cut(m.ops_off, m.ops_on)
    );
    m
}

#[test]
fn collapsing_cuts_propagations_by_30_percent_on_the_paper_suite() {
    let c95_m = measure(&c95());
    let alu_m = measure(&alu74181());

    // The 74181 clears the bar on its own; c95's XOR-heavy lookahead tree
    // is the structural worst case and still must cut by a quarter.
    assert!(
        fraction_cut(alu_m.passes_off as u64, alu_m.passes_on as u64) >= 0.30,
        "74181: expected >= 30% fewer propagations, got {} -> {}",
        alu_m.passes_off,
        alu_m.passes_on
    );
    assert!(
        fraction_cut(c95_m.passes_off as u64, c95_m.passes_on as u64) >= 0.25,
        "c95: expected >= 25% fewer propagations, got {} -> {}",
        c95_m.passes_off,
        c95_m.passes_on
    );

    // The acceptance bar: >= 30% fewer BDD propagations across the
    // c95/74181 stuck-at universe.
    let cut = fraction_cut(
        (c95_m.passes_off + alu_m.passes_off) as u64,
        (c95_m.passes_on + alu_m.passes_on) as u64,
    );
    assert!(
        cut >= 0.30,
        "suite: expected >= 30% fewer propagations, got {:.1}%",
        100.0 * cut
    );

    // The managers must witness real saved work, not just bookkeeping:
    // strictly fewer unique-table and op-cache probes on both circuits
    // (cumulative across gc), and >= 20% cuts on the 74181 where duplicate
    // re-derivation dominates.
    assert!(
        c95_m.unique_on < c95_m.unique_off,
        "c95: collapsing must reduce unique-table work"
    );
    assert!(
        c95_m.ops_on < c95_m.ops_off,
        "c95: collapsing must reduce op-cache work"
    );
    assert!(
        alu_m.unique_on < alu_m.unique_off,
        "74181: collapsing must reduce unique-table work"
    );
    let alu_unique_cut = fraction_cut(alu_m.unique_off, alu_m.unique_on);
    assert!(
        alu_unique_cut >= 0.20,
        "74181: expected >= 20% fewer unique-table lookups, got {:.1}%",
        100.0 * alu_unique_cut
    );
    let alu_op_cut = fraction_cut(alu_m.ops_off, alu_m.ops_on);
    assert!(
        alu_op_cut >= 0.20,
        "74181: expected >= 20% fewer op-cache lookups, got {:.1}%",
        100.0 * alu_op_cut
    );

    // At the default batch, region passes share work among duplicates in
    // the uncollapsed sweep too; collapsing must still save some.
    let batch = SweepConfig::default().batch;
    for circuit in [c95(), alu74181()] {
        let off = sweep_batched(&circuit, false, batch).merged_stats();
        let on = sweep_batched(&circuit, true, batch).merged_stats();
        assert!(
            on.unique.lookups < off.unique.lookups,
            "{}: collapsing must reduce unique-table work at the default batch",
            circuit.name()
        );
        assert!(
            on.op_cumulative_total().lookups < off.op_cumulative_total().lookups,
            "{}: collapsing must reduce op-cache work at the default batch",
            circuit.name()
        );
    }
}
