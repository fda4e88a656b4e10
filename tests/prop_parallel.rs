//! Property tests for the sharded sweep driver and the manager counters.
//!
//! On random circuits, `sweep_universe` must return **byte-identical**
//! per-fault summaries for `Serial` and `Threads(n)`, n ∈ {1, 2, 4} — f64
//! fields compared via `to_bits`, not tolerance. The per-shard
//! `ManagerStats` must also be internally consistent: independently
//! incremented hit/miss/lookup counters that sum up, and a peak node count
//! that brackets what the unique table ever created.

use diffprop::bdd::OpKind;
use diffprop::core::{sweep_universe, DiffProp, Parallelism, SweepConfig, SweepResult};
use diffprop::faults::{checkpoint_faults, enumerate_nfbfs, BridgeKind, Fault};
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

/// Both fault models, deterministically capped.
fn mixed_universe(circuit: &Circuit) -> Vec<Fault> {
    let mut faults: Vec<Fault> = checkpoint_faults(circuit)
        .into_iter()
        .map(Fault::from)
        .collect();
    for kind in [BridgeKind::And, BridgeKind::Or] {
        faults.extend(
            enumerate_nfbfs(circuit, kind)
                .into_iter()
                .take(15)
                .map(Fault::from),
        );
    }
    faults
}

fn assert_stats_consistent(sweep: &SweepResult) {
    for report in &sweep.shards {
        let s = &report.stats;
        if report.chunks_claimed == 0 {
            // Work stealing can starve a worker entirely; it then never
            // builds an engine and its counters are all default.
            assert_eq!(report.faults_done, 0);
            continue;
        }
        assert_eq!(
            s.unique.hits + s.unique.misses,
            s.unique.lookups,
            "unique counters of shard {}",
            report.shard
        );
        for kind in OpKind::ALL {
            let c = s[kind];
            assert_eq!(
                c.hits + c.misses,
                c.lookups,
                "{kind:?} counters of shard {}",
                report.shard
            );
        }
        let total = s.op_cumulative_total();
        assert_eq!(total.hits + total.misses, total.lookups);
        // Every unique-table miss allocates exactly one node and nothing
        // else does, so the peak is bracketed by the starting table (the
        // frozen base for a shared-snapshot worker, the lone terminal
        // otherwise) plus the total ever allocated — and equals it while no
        // gc compacted.
        let floor = s.base_nodes.max(1) as u64;
        assert!(
            s.peak_nodes as u64 >= floor,
            "peak below the starting table"
        );
        assert!(s.peak_nodes as u64 <= floor + s.unique.misses);
        if s.gc_runs == 0 {
            assert_eq!(s.peak_nodes as u64, floor + s.unique.misses);
        }
    }
}

/// Two poisoned classes at distant queue positions in one worker's queue:
/// the old `Option<String>` shard field kept only the first panic message,
/// so the second death was invisible. `ShardReport::panics` must record
/// both class ids with their messages, and neither as the unattributed
/// worker-level sentinel.
#[test]
fn every_panicked_class_is_reported() {
    use diffprop::core::WORKER_PANIC;
    use diffprop::netlist::generators::alu74181;

    let circuit = random_circuit(
        7,
        RandomCircuitConfig {
            inputs: 4,
            gates: 12,
            max_fanin: 3,
        },
    );
    let mut faults = mixed_universe(&circuit);
    let healthy = faults.len();
    // Faults referencing nets of a *different* circuit panic the engine
    // (index out of bounds) — one at each end of the queue, so a serial
    // sweep sees the second panic long after the first.
    let alu = alu74181();
    let mut foreign = checkpoint_faults(&alu);
    let f1 = Fault::from(foreign.pop().expect("alu has faults"));
    let f2 = Fault::from(foreign.pop().expect("alu has more faults"));
    faults.insert(0, f1);
    faults.push(f2);

    let sweep = sweep_universe(&circuit, &faults, &SweepConfig::default());
    assert!(!sweep.is_complete());
    let panics = sweep.panicked_classes();
    assert_eq!(
        panics.len(),
        2,
        "both poisoned classes reported: {panics:?}"
    );
    assert_ne!(panics[0].0, panics[1].0, "distinct class ids");
    for (id, msg) in panics {
        assert_ne!(*id, WORKER_PANIC, "panic attributed to its class");
        assert!(!msg.is_empty(), "panic message captured");
    }
    // Every healthy fault still has its summary.
    assert_eq!(sweep.summaries.len(), healthy);
}

/// A branch fault whose sink is the circuit's last gate but whose stem is
/// no net of the circuit: analysing it panics the engine.
fn foreign_stem_branch(circuit: &Circuit) -> Fault {
    use diffprop::faults::{FaultSite, StuckAtFault};
    use diffprop::netlist::{FanoutBranch, NetId};

    Fault::StuckAt(StuckAtFault {
        site: FaultSite::Branch(FanoutBranch {
            stem: NetId::from_index(100_000),
            sink: circuit.gates().last().expect("the circuit has gates"),
            pin: 0,
        }),
        value: false,
    })
}

/// c95's foreign-stem branch must be the only class lost: the sweep keeps
/// it out of every fused batch, and every healthy summary stays exact and
/// bit-identical to a clean sweep, at one worker and at two.
#[test]
fn foreign_stem_branch_loses_only_its_own_class() {
    use diffprop::netlist::generators::c95;

    let circuit = c95();
    let healthy: Vec<Fault> = checkpoint_faults(&circuit)
        .into_iter()
        .map(Fault::from)
        .collect();
    let clean = sweep_universe(&circuit, &healthy, &SweepConfig::default());
    let mut faults = healthy.clone();
    faults.push(foreign_stem_branch(&circuit));
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        let sweep = sweep_universe(
            &circuit,
            &faults,
            &SweepConfig {
                parallelism,
                ..Default::default()
            },
        );
        let panics = sweep.panicked_classes();
        assert_eq!(panics.len(), 1, "{parallelism:?}: {panics:?}");
        assert_eq!(panics[0].0, sweep.classes - 1, "{parallelism:?}");
        assert_eq!(sweep.summaries.len(), healthy.len(), "{parallelism:?}");
        for (s, c) in sweep.summaries.iter().zip(&clean.summaries) {
            assert!(
                s.outcome.is_exact(),
                "{parallelism:?}: {} is {:?}",
                s.fault,
                s.outcome
            );
            assert_eq!(s, c, "{parallelism:?}");
            assert_eq!(s.detectability.to_bits(), c.detectability.to_bits());
            assert_eq!(s.adherence.map(f64::to_bits), c.adherence.map(f64::to_bits));
        }
    }
}

/// The engine a panic drops takes its counters with it unless the worker
/// folds them into its report first: a serial sweep that loses one class
/// three faults from the end must still count (nearly) all the unique-table
/// work of the clean sweep, not only what its rebuilt engine did.
#[test]
fn a_panicked_engine_keeps_its_counters() {
    use diffprop::netlist::generators::c95;

    let circuit = c95();
    let healthy: Vec<Fault> = checkpoint_faults(&circuit)
        .into_iter()
        .map(Fault::from)
        .collect();
    let clean = sweep_universe(&circuit, &healthy, &SweepConfig::default());
    let mut faults = healthy.clone();
    faults.insert(faults.len() - 3, foreign_stem_branch(&circuit));
    let poisoned = sweep_universe(&circuit, &faults, &SweepConfig::default());
    assert_eq!(poisoned.panicked_classes().len(), 1);
    let (got, want) = (
        poisoned.merged_stats().unique.lookups,
        clean.merged_stats().unique.lookups,
    );
    assert!(
        got * 10 >= want * 9,
        "poisoned sweep counted {got} unique lookups, clean sweep {want}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_sweeps_are_byte_identical((seed, cfg) in config_strategy()) {
        let circuit = random_circuit(seed, cfg);
        let faults = mixed_universe(&circuit);
        let serial = sweep_universe(&circuit, &faults, &SweepConfig::default());
        prop_assert_eq!(serial.summaries.len(), faults.len());
        assert_stats_consistent(&serial);
        for n in [1usize, 2, 4] {
            let config = SweepConfig {
                parallelism: Parallelism::Threads(n),
                ..Default::default()
            };
            let sharded = sweep_universe(&circuit, &faults, &config);
            prop_assert_eq!(sharded.summaries.len(), faults.len(), "threads={}", n);
            for (s, t) in serial.summaries.iter().zip(&sharded.summaries) {
                prop_assert_eq!(s.fault, t.fault, "threads={}", n);
                prop_assert_eq!(
                    s.detectability.to_bits(),
                    t.detectability.to_bits(),
                    "detectability of {} at threads={}", s.fault, n
                );
                prop_assert_eq!(s.test_count, t.test_count, "threads={}", n);
                prop_assert_eq!(
                    &s.observable_outputs,
                    &t.observable_outputs,
                    "threads={}", n
                );
                prop_assert_eq!(s.site_function_constant, t.site_function_constant);
                prop_assert_eq!(
                    s.adherence.map(f64::to_bits),
                    t.adherence.map(f64::to_bits),
                    "adherence of {} at threads={}", s.fault, n
                );
            }
            // Workers partition the universe without loss: every fault is
            // summarised once, every class propagated once.
            prop_assert_eq!(
                sharded.shards.iter().map(|r| r.faults_done).sum::<usize>(),
                faults.len()
            );
            prop_assert_eq!(
                sharded.shards.iter().map(|r| r.classes_done).sum::<usize>(),
                sharded.classes
            );
            assert_stats_consistent(&sharded);
        }
    }

    #[test]
    fn engine_manager_stats_stay_consistent((seed, cfg) in config_strategy()) {
        let circuit = random_circuit(seed, cfg);
        let mut dp = DiffProp::new(&circuit);
        for fault in mixed_universe(&circuit).into_iter().take(10) {
            let _ = dp.analyze(&fault);
        }
        let manager = dp.good().manager();
        let s = manager.stats();
        prop_assert_eq!(s.unique.hits + s.unique.misses, s.unique.lookups);
        for kind in OpKind::ALL {
            let c = s[kind];
            prop_assert_eq!(c.hits + c.misses, c.lookups);
        }
        // The live node table can never exceed the recorded peak.
        prop_assert!(s.peak_nodes >= manager.num_nodes());
    }
}
