//! End-to-end pipeline tests: format round-trips, transforms, and analysis
//! interplay across all crates.

use diffprop::core::{generate_tests, DiffProp};
use diffprop::faults::{checkpoint_faults, Fault};
use diffprop::netlist::{
    decompose_two_input, expand_xor_to_nand, generators, parse_bench, write_bench,
};
use diffprop::sim::{detects, exhaustive_detectability};

/// `.bench` round-trips preserve fault analysis results bit-for-bit.
#[test]
fn bench_roundtrip_preserves_fault_analysis() {
    let original = generators::c95();
    let text = write_bench(&original);
    let reparsed = parse_bench(&text, "c95").expect("own output parses");

    let mut dp1 = DiffProp::new(&original);
    let mut dp2 = DiffProp::new(&reparsed);
    for (f1, f2) in checkpoint_faults(&original)
        .into_iter()
        .zip(checkpoint_faults(&reparsed))
    {
        let a1 = dp1.analyze(&Fault::from(f1));
        let a2 = dp2.analyze(&Fault::from(f2));
        assert_eq!(a1.test_count, a2.test_count);
    }
}

/// Netlist transforms keep primary-input faults' detectability intact:
/// a PI stuck-at sees the same function before and after restructuring.
#[test]
fn transforms_preserve_pi_fault_detectability() {
    let original = generators::alu74181();
    let narrowed = decompose_two_input(&original).expect("decompose");
    let nanded = expand_xor_to_nand(&original).expect("expand");
    let mut dp_o = DiffProp::new(&original);
    let mut dp_n = DiffProp::new(&narrowed);
    let mut dp_x = DiffProp::new(&nanded);
    for (i, &pi) in original.inputs().iter().enumerate() {
        for value in [false, true] {
            let mk = |c: &diffprop::netlist::Circuit| {
                Fault::from(diffprop::faults::StuckAtFault {
                    site: diffprop::faults::FaultSite::Net(c.inputs()[i]),
                    value,
                })
            };
            let a = dp_o.analyze(&mk(&original));
            let b = dp_n.analyze(&mk(&narrowed));
            let c = dp_x.analyze(&mk(&nanded));
            assert_eq!(a.test_count, b.test_count, "PI {pi} decompose");
            assert_eq!(a.test_count, c.test_count, "PI {pi} xor-expand");
        }
    }
}

/// The 74181's full checkpoint set: DP equals exhaustive simulation on a
/// real mid-size circuit (14 inputs, 16384 vectors per fault).
#[test]
fn alu74181_stuck_at_cross_validation() {
    let circuit = generators::alu74181();
    let mut dp = DiffProp::new(&circuit);
    for f in checkpoint_faults(&circuit) {
        let fault = Fault::from(f);
        let analysis = dp.analyze(&fault);
        let (det, _) = exhaustive_detectability(&circuit, &fault);
        assert_eq!(analysis.test_count, Some(det as u128), "{fault}");
    }
}

/// ATPG on the C432 surrogate: full stuck-at coverage with a compact set,
/// verified by simulation (spot-checked; the full verify lives in the
/// example binary).
#[test]
fn atpg_covers_c432_surrogate() {
    let circuit = generators::c432_surrogate();
    let faults: Vec<Fault> = checkpoint_faults(&circuit)
        .into_iter()
        .map(Fault::from)
        .collect();
    let tests = generate_tests(&circuit, &faults);
    assert_eq!(tests.covered + tests.undetectable.len(), faults.len());
    assert!(
        tests.vectors.len() < faults.len() / 2,
        "compaction too weak"
    );
    for f in faults.iter().step_by(7) {
        if tests.undetectable.contains(f) {
            continue;
        }
        assert!(tests.vectors.iter().any(|v| detects(&circuit, f, v)), "{f}");
    }
}

/// The C1355 surrogate relationship: functionally identical to C499's, so
/// PI faults have identical complete test sets while the netlist is much
/// larger — the exact setup behind the paper's Figure 2 comparison.
#[test]
fn c499_c1355_share_pi_fault_test_sets() {
    let c499 = generators::c499_surrogate();
    let c1355 = generators::c1355_surrogate();
    assert!(c1355.num_gates() > 2 * c499.num_gates());
    let mut dp_a = DiffProp::new(&c499);
    let mut dp_b = DiffProp::new(&c1355);
    for i in [0usize, 7, 33, 40] {
        for value in [false, true] {
            let fa = Fault::from(diffprop::faults::StuckAtFault {
                site: diffprop::faults::FaultSite::Net(c499.inputs()[i]),
                value,
            });
            let fb = Fault::from(diffprop::faults::StuckAtFault {
                site: diffprop::faults::FaultSite::Net(c1355.inputs()[i]),
                value,
            });
            let a = dp_a.analyze(&fa);
            let b = dp_b.analyze(&fb);
            assert_eq!(a.test_count, b.test_count, "PI {i} s-a-{value}");
        }
    }
}

/// Loading a transformed netlist from `.bench` text and analysing it gives
/// the same results as analysing the in-memory transform.
#[test]
fn serialized_transform_pipeline() {
    let base = generators::full_adder();
    let expanded = expand_xor_to_nand(&base).expect("expand");
    let text = write_bench(&expanded);
    let loaded = parse_bench(&text, "fa_nand").expect("parses");
    let mut dp1 = DiffProp::new(&expanded);
    let mut dp2 = DiffProp::new(&loaded);
    for (f1, f2) in checkpoint_faults(&expanded)
        .into_iter()
        .zip(checkpoint_faults(&loaded))
    {
        let a1 = dp1.analyze(&Fault::from(f1));
        let a2 = dp2.analyze(&Fault::from(f2));
        assert_eq!(a1.test_count, a2.test_count);
    }
}
