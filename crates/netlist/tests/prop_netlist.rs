//! Property tests over random circuits: transforms preserve functions,
//! `.bench` round-trips preserve everything, and structural queries are
//! mutually consistent.

use dp_netlist::generators::{random_circuit, RandomCircuitConfig};
use dp_netlist::{
    decompose_two_input, expand_xor_to_nand, parse_bench, write_bench, Driver, GateKind, Placement,
    Scoap,
};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (any::<u64>(), (1usize..=6, 1usize..=30, 2usize..=5)).prop_map(
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

fn exhaustive_outputs(c: &dp_netlist::Circuit) -> Vec<Vec<bool>> {
    let n = c.num_inputs();
    (0u32..1 << n)
        .map(|bits| {
            let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            c.eval(&v)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decompose_preserves_function((seed, cfg) in arb_config()) {
        let c = random_circuit(seed, cfg);
        let d = decompose_two_input(&c).expect("decompose");
        prop_assert_eq!(exhaustive_outputs(&c), exhaustive_outputs(&d));
        for g in d.gates() {
            if let Driver::Gate { fanins, .. } = d.driver(g) {
                prop_assert!(fanins.len() <= 2);
            }
        }
    }

    #[test]
    fn xor_expansion_preserves_function((seed, cfg) in arb_config()) {
        let c = random_circuit(seed, cfg);
        let e = expand_xor_to_nand(&c).expect("expand");
        prop_assert_eq!(exhaustive_outputs(&c), exhaustive_outputs(&e));
        for g in e.gates() {
            if let Driver::Gate { kind, .. } = e.driver(g) {
                prop_assert!(!matches!(kind, GateKind::Xor | GateKind::Xnor));
            }
        }
    }

    #[test]
    fn bench_roundtrip_preserves_everything((seed, cfg) in arb_config()) {
        let c = random_circuit(seed, cfg);
        let text = write_bench(&c);
        let back = parse_bench(&text, c.name()).expect("own output parses");
        prop_assert_eq!(c.num_inputs(), back.num_inputs());
        prop_assert_eq!(c.num_outputs(), back.num_outputs());
        prop_assert_eq!(c.num_gates(), back.num_gates());
        prop_assert_eq!(exhaustive_outputs(&c), exhaustive_outputs(&back));
    }

    #[test]
    fn structural_queries_are_consistent((seed, cfg) in arb_config()) {
        let c = random_circuit(seed, cfg);
        let levels = c.levels_from_inputs();
        let to_po = c.max_levels_to_output();
        for n in c.nets() {
            // Fanin cone of n contains n and only shallower-or-equal nets.
            for m in c.fanin_cone(n) {
                prop_assert!(levels[m.index()] <= levels[n.index()]);
            }
            // Fanout and fanin cones agree: m ∈ fanout(n) ⇔ n ∈ fanin(m).
            for m in c.fanout_cone(n) {
                prop_assert!(c.fanin_cone(m).contains(&n));
            }
            // Every net either reaches a PO or has MAX distance.
            let reaches = !c.reachable_outputs(n).is_empty();
            prop_assert_eq!(reaches, to_po[n.index()] != u32::MAX);
        }
    }

    #[test]
    fn scoap_costs_are_finite_where_observable((seed, cfg) in arb_config()) {
        let c = random_circuit(seed, cfg);
        let s = Scoap::compute(&c);
        for n in c.nets() {
            prop_assert!(s.cc0(n) >= 1);
            prop_assert!(s.cc1(n) >= 1);
            let reaches = !c.reachable_outputs(n).is_empty();
            prop_assert_eq!(reaches, s.co(n) != u32::MAX, "net {}", c.net_name(n));
        }
    }

    #[test]
    fn placement_respects_levels((seed, cfg) in arb_config()) {
        let c = random_circuit(seed, cfg);
        let p = Placement::estimate(&c);
        let levels = c.levels_from_inputs();
        for n in c.nets() {
            prop_assert_eq!(p.point(n).x, levels[n.index()] as f64);
        }
        // Y stays within the PI band (averages cannot escape the hull).
        let max_y = (c.num_inputs() - 1) as f64;
        for n in c.nets() {
            let y = p.point(n).y;
            prop_assert!((0.0..=max_y.max(0.0)).contains(&y), "y = {}", y);
        }
    }
}
