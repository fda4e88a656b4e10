//! Shared-manager snapshot layer: scheduling and order invariance.
//!
//! Shared-manager parallelism must be a pure execution-strategy change: the
//! golden TSV (`tests/golden/universe_summaries.tsv`, f64s as bit patterns)
//! has to come out byte-identical when workers run delta managers over one
//! frozen snapshot, at any thread count, under any variable-order strategy.
//! A white-box layer then pins the freeze contract itself: the frozen base
//! is immutable — its node count and table digest are unchanged after
//! engines have analysed whole universes on top of it.

mod common;

use common::{assert_matches_golden, current_golden_lines, stuck_at_universe};
use diffprop::core::{DiffProp, EngineConfig, OrderStrategy, Parallelism, SweepConfig};
use diffprop::netlist::generators::{c1355_surrogate, c1908_surrogate, c499_surrogate, c95};
use diffprop::netlist::Circuit;

fn config(parallelism: Parallelism, order: OrderStrategy) -> SweepConfig {
    SweepConfig {
        engine: EngineConfig {
            order,
            ..Default::default()
        },
        parallelism,
        ..Default::default()
    }
}

/// The full cross product: {serial, 2T, 4T} × {identity, fanin-dfs, auto}
/// all reproduce the committed golden file byte for byte.
#[test]
fn golden_summaries_are_invariant_under_threads_and_order() {
    for order in [
        OrderStrategy::Identity,
        OrderStrategy::FaninDfs,
        OrderStrategy::Auto,
    ] {
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            assert_matches_golden(&current_golden_lines(&config(parallelism, order)));
        }
    }
}

/// White-box freeze contract: workers hammering delta managers on top of
/// one snapshot never change the frozen base — same node count, same
/// FNV digest over the node array, before and after.
#[test]
fn frozen_base_is_immutable_while_workers_analyze() {
    let circuit = c95();
    let snapshot = DiffProp::build_snapshot(&circuit, EngineConfig::default()).unwrap();
    let nodes_before = snapshot.num_nodes();
    let digest_before = snapshot.table_digest();
    let faults = stuck_at_universe(&circuit);

    std::thread::scope(|scope| {
        for w in 0..4 {
            let snapshot = &snapshot;
            let faults = &faults;
            let circuit = &circuit;
            scope.spawn(move || {
                let mut dp = DiffProp::from_snapshot(circuit, snapshot, EngineConfig::default());
                // Alternating shares so every worker allocates delta nodes
                // and garbage-collects over the same base concurrently.
                for fault in faults.iter().skip(w).step_by(2) {
                    let analysis = dp.analyze(fault);
                    assert!(analysis.test_count.is_some(), "exact analysis expected");
                }
                let stats = dp.good().manager().stats();
                assert!(stats.base_hits > 0, "worker never resolved from the base");
                assert_eq!(stats.unique.lookups, stats.base_hits + stats.delta_lookups);
            });
        }
    });

    assert_eq!(snapshot.num_nodes(), nodes_before, "frozen base grew");
    assert_eq!(
        snapshot.table_digest(),
        digest_before,
        "frozen base nodes were rewritten"
    );
}

/// Builds `circuit`'s `auto` snapshot and checks it against its pins: the
/// sift's final order and the closing collection fix the frozen arena, so
/// its digest, the sift's reclaimed count and swap count, and the frozen
/// bytes are exact. The sift never rewrites dead nodes, so the build's
/// arena peaks within twice the frozen table; a sift that carried its
/// garbage along (an earlier design peaked at 6.7x on c1908s) fails.
fn assert_auto_build(circuit: &Circuit, digest: u64, reclaimed: u64, swaps: u64, bytes: usize) {
    let config = EngineConfig {
        order: OrderStrategy::Auto,
        ..Default::default()
    };
    let snapshot = DiffProp::build_snapshot(circuit, config).expect("unlimited budget");
    let build = snapshot.frozen().build_stats();
    assert_eq!(snapshot.table_digest(), digest);
    assert_eq!(build.sift_runs, 1);
    assert_eq!(build.sift_nodes_reclaimed, reclaimed);
    assert_eq!(build.sift_swaps, swaps);
    assert_eq!(snapshot.frozen().approx_bytes(), bytes);
    assert!(
        build.peak_nodes <= 2 * snapshot.num_nodes(),
        "build peaked at {} nodes for a {}-node frozen table",
        build.peak_nodes,
        snapshot.num_nodes()
    );
}

/// The `auto` builds of c1908s, c499s and c1355s, pinned. The digests and
/// reclaimed counts are those of the uncapped walk: the sift's growth cap
/// must not move any of these orders. The swap counts are those of the
/// capped, pruned walk (the full walk made 1,153 and 3,229 swaps on c1908s
/// and c499s, the uncapped pruned walk 647 and 1,763), and the frozen bytes
/// are those of a closing table sized at twice the frozen node count.
#[test]
fn c1908s_auto_build_is_pinned() {
    assert_auto_build(
        &c1908_surrogate(),
        0xcfca_1c67_8f59_2213,
        3970,
        525,
        452_268,
    );
}

#[test]
fn c499s_auto_build_is_pinned() {
    assert_auto_build(
        &c499_surrogate(),
        0x9dd9_1eb8_cf70_a046,
        12_218,
        1499,
        859_092,
    );
}

/// Slower than the rest of this file together (about 6 s in a debug
/// build on a 2-vCPU host): CI runs it in release with `--ignored`.
#[test]
#[ignore]
fn c1355s_auto_build_is_pinned() {
    assert_auto_build(
        &c1355_surrogate(),
        0x7ad1_0bcb_9f48_6f8d,
        42_422,
        1381,
        2_121_536,
    );
}
