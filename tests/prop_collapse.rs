//! Property tests for structural fault collapsing.
//!
//! The collapser's claim is *equivalence*, not mere dominance: every member
//! of a class has the same faulty behaviour at every primary output. On a
//! shared BDD manager with gc suppressed (so `NodeId`s stay valid across
//! analyses) OBDD canonicity turns that into a machine-checkable identity —
//! each member's complete test set must hash-cons to the **same node** as
//! its representative's, per output and in union. On top of the node-level
//! identity, the sweep's expanded summaries must match a direct
//! fault-by-fault analysis bit for bit (f64s via `to_bits`), including the
//! per-member adherence that is *not* shared across a class.

use diffprop::core::{sweep_universe, DiffProp, EngineConfig, SweepConfig};
use diffprop::faults::{collapse_faults, Fault, FaultSite, StuckAtFault};
use diffprop::netlist::generators::{random_circuit, RandomCircuitConfig};
use diffprop::netlist::Circuit;
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (any::<u64>(), (2usize..=6, 4usize..=20, 2usize..=4)).prop_map(
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

/// Both polarities on every net and every fanout branch — the universe with
/// the densest equivalence structure.
fn pin_universe(circuit: &Circuit) -> Vec<Fault> {
    let mut faults = Vec::new();
    for net in circuit.nets() {
        for value in [false, true] {
            faults.push(Fault::from(StuckAtFault {
                site: FaultSite::Net(net),
                value,
            }));
        }
    }
    for branch in circuit.fanout_branches() {
        for value in [false, true] {
            faults.push(Fault::from(StuckAtFault {
                site: FaultSite::Branch(branch),
                value,
            }));
        }
    }
    faults
}

/// An engine that never garbage-collects, so `NodeId`s from earlier
/// analyses remain comparable.
fn gc_free_engine(circuit: &Circuit) -> DiffProp<'_> {
    DiffProp::with_config(
        circuit,
        EngineConfig {
            gc_threshold: usize::MAX,
            gc_growth: f64::INFINITY,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Node-level equivalence: same manager, no gc — every member's test
    /// set is the *same BDD node* as its representative's, at every output.
    #[test]
    fn class_members_share_the_representatives_test_set_node(
        (seed, cfg) in config_strategy()
    ) {
        let circuit = random_circuit(seed, cfg);
        let faults = pin_universe(&circuit);
        let collapsed = collapse_faults(&circuit, &faults);
        prop_assert_eq!(collapsed.num_faults, faults.len());
        let mut dp = gc_free_engine(&circuit);
        for class in &collapsed.classes {
            let rep = dp.analyze(&faults[class.representative]);
            for &m in &class.members {
                let member = dp.analyze(&faults[m]);
                prop_assert_eq!(
                    member.test_set, rep.test_set,
                    "test set of {} differs from representative {}",
                    faults[m], faults[class.representative]
                );
                prop_assert_eq!(
                    &member.po_deltas, &rep.po_deltas,
                    "a PO delta of {} differs from representative {}",
                    faults[m], faults[class.representative]
                );
            }
        }
    }

    /// Summary-level identity: the collapsed sweep's expanded rows equal a
    /// direct per-fault analysis, bit for bit — adherence included.
    #[test]
    fn expanded_summaries_match_direct_analysis((seed, cfg) in config_strategy()) {
        let circuit = random_circuit(seed, cfg);
        let faults = pin_universe(&circuit);
        let sweep = sweep_universe(&circuit, &faults, &SweepConfig::default());
        prop_assert!(sweep.classes <= faults.len());
        prop_assert_eq!(sweep.summaries.len(), faults.len());
        let mut dp = DiffProp::new(&circuit);
        for (fault, summary) in faults.iter().zip(&sweep.summaries) {
            let direct = dp.analyze(fault);
            prop_assert_eq!(&summary.fault, fault);
            prop_assert_eq!(
                summary.detectability.to_bits(),
                direct.detectability.to_bits(),
                "detectability of {}", fault
            );
            prop_assert_eq!(summary.test_count, direct.test_count, "{}", fault);
            prop_assert_eq!(
                &summary.observable_outputs,
                &direct.observable_outputs,
                "{}", fault
            );
            prop_assert_eq!(summary.site_function_constant, direct.site_function_constant);
            let adherence = dp.adherence(&direct);
            prop_assert_eq!(
                summary.adherence.map(f64::to_bits),
                adherence.map(f64::to_bits),
                "adherence of {}", fault
            );
        }
    }
}
