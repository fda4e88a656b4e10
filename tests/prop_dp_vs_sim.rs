//! Cross-crate property tests: on random circuits, Difference Propagation's
//! exact counts must equal brute-force exhaustive fault simulation for every
//! fault model — the central correctness claim of the reproduction.

use diffprop::core::{DiffProp, EngineConfig};
use diffprop::faults::{checkpoint_faults, enumerate_nfbfs, BridgeKind, Fault};
use diffprop::netlist::generators::{random_circuit, RandomCircuitConfig};
use diffprop::sim::exhaustive_detectability;
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (any::<u64>(), (2usize..=6, 4usize..=25, 2usize..=4)).prop_map(
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stuck_at_counts_match_simulation((seed, cfg) in config_strategy()) {
        let circuit = random_circuit(seed, cfg);
        let mut dp = DiffProp::new(&circuit);
        for f in checkpoint_faults(&circuit) {
            let fault = Fault::from(f);
            let analysis = dp.analyze(&fault);
            let (det, total) = exhaustive_detectability(&circuit, &fault);
            prop_assert_eq!(analysis.test_count, Some(det as u128), "{} on {}", fault, circuit.name());
            prop_assert!((analysis.detectability - det as f64 / total as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn bridging_counts_match_simulation((seed, cfg) in config_strategy()) {
        let circuit = random_circuit(seed, cfg);
        let mut dp = DiffProp::new(&circuit);
        for kind in [BridgeKind::And, BridgeKind::Or] {
            // Cap per circuit to keep runtime bounded; determinism of the
            // enumeration makes the slice stable.
            for f in enumerate_nfbfs(&circuit, kind).into_iter().take(40) {
                let fault = Fault::from(f);
                let analysis = dp.analyze(&fault);
                let (det, _) = exhaustive_detectability(&circuit, &fault);
                prop_assert_eq!(analysis.test_count, Some(det as u128), "{} on {}", fault, circuit.name());
            }
        }
    }

    #[test]
    fn picked_tests_detect_and_non_tests_do_not((seed, cfg) in config_strategy()) {
        let circuit = random_circuit(seed, cfg);
        let mut dp = DiffProp::new(&circuit);
        let n = circuit.num_inputs();
        for f in checkpoint_faults(&circuit).into_iter().take(6) {
            let fault = Fault::from(f);
            let analysis = dp.analyze(&fault);
            // The test-set BDD must classify every input vector exactly as
            // the simulator does.
            for bits in 0u32..(1u32 << n) {
                let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let dp_says = dp.good().manager().eval(analysis.test_set, &v);
                let sim_says = diffprop::sim::detects(&circuit, &fault, &v);
                prop_assert_eq!(dp_says, sim_says, "{} at {:?}", fault, v);
            }
        }
    }

    #[test]
    fn engine_modes_agree((seed, cfg) in config_strategy()) {
        let circuit = random_circuit(seed, cfg);
        let mut default_dp = DiffProp::new(&circuit);
        let mut naive_dp = DiffProp::with_config(
            &circuit,
            EngineConfig { table1: false, selective_trace: false, ..Default::default() },
        );
        for f in checkpoint_faults(&circuit).into_iter().take(8) {
            let fault = Fault::from(f);
            let a = default_dp.analyze(&fault);
            let b = naive_dp.analyze(&fault);
            prop_assert_eq!(a.test_count, b.test_count, "{}", fault);
            prop_assert_eq!(a.observable_outputs, b.observable_outputs);
        }
    }

    #[test]
    fn adherence_and_syndrome_bounds_hold((seed, cfg) in config_strategy()) {
        let circuit = random_circuit(seed, cfg);
        let mut dp = DiffProp::new(&circuit);
        for f in checkpoint_faults(&circuit) {
            let fault = Fault::from(f);
            let analysis = dp.analyze(&fault);
            let bound = dp.detectability_bound(&fault).expect("stuck-at");
            prop_assert!(
                analysis.detectability <= bound + 1e-12,
                "{}: detectability {} exceeds syndrome bound {}",
                fault, analysis.detectability, bound
            );
            if let Some(a) = dp.adherence(&analysis) {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&a));
            }
        }
    }
}
