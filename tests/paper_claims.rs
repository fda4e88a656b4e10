//! Qualitative reproduction of the paper's §4 findings, asserted as tests.
//!
//! These are shape claims, not absolute numbers: the large ISCAS circuits
//! are surrogates (DESIGN.md §4), so what must hold is *who wins and in
//! which direction*, which is what the paper's figures argue.

//!
//! Every claim reads the same `Lab` drivers and record cache that
//! `diffprop figures` prints from.

use diffprop::analysis::figures::{ExperimentConfig, Lab};
use diffprop::faults::BridgeKind;
use diffprop::netlist::generators::{alu74181, c17, c95, full_adder};
use diffprop::netlist::Circuit;

fn lab(suite: Vec<Circuit>) -> Lab {
    let config = ExperimentConfig {
        bins: 20,
        bf_sample: 150,
        sa_cap: usize::MAX,
        seed: 1990,
        ..Default::default()
    };
    Lab::new(config, suite)
}

/// Figure 2's direction: PO-normalised mean detectability decreases from the
/// small circuits to the larger ones.
#[test]
fn normalized_detectability_decreases_with_size() {
    let points = lab(vec![c17(), c95(), alu74181()]).fig2_sa_trend();
    let c17_norm = points[0].normalized_detectability;
    let alu_norm = points[2].normalized_detectability;
    assert!(
        alu_norm < c17_norm,
        "expected decreasing: c17 {c17_norm} vs alu {alu_norm}"
    );
}

/// Figure 4's shape: adherence histograms have a sharp rise at 1.0 — "an
/// unexpectedly large proportion" of faults use every excitation minterm.
#[test]
fn adherence_spikes_at_one() {
    let h = lab(vec![alu74181()]).fig4_adherence_histogram("alu74181");
    let props = h.proportions();
    let last = props[props.len() - 1];
    // "Sharp rise at one": the 1.0 bin towers over the bins just below it.
    let shoulder: f64 = props[props.len() - 5..props.len() - 1].iter().sum::<f64>() / 4.0;
    assert!(last > 0.0, "no mass at adherence 1.0");
    assert!(
        last > 4.0 * shoulder,
        "no sharp rise at 1.0: last bin {last}, shoulder mean {shoulder}"
    );
}

/// Figure 5's direction: the proportion of NFBFs with stuck-at behaviour is
/// generally low (the paper's agreement with Inductive Fault Analysis).
#[test]
fn stuck_at_equivalent_bridges_are_a_minority() {
    let rows = lab(vec![c95(), alu74181()]).fig5_stuck_behaviour();
    for row in rows {
        assert!(
            row.and_proportion < 0.5,
            "{}: AND proportion {} not a minority",
            row.name,
            row.and_proportion
        );
        assert!(row.or_proportion < 0.5);
    }
}

/// Figures 6/7's observation: AND and OR NFBF detectability distributions
/// are close — "the logic dominance value ... is of little consequence".
#[test]
fn and_or_bridges_have_similar_means() {
    let mut lab = lab(vec![c95()]);
    let mut mean = |kind| {
        let detectable: Vec<f64> = lab
            .bf_records("c95", kind)
            .iter()
            .filter(|r| r.is_detectable())
            .map(|r| r.detectability)
            .collect();
        detectable.iter().sum::<f64>() / detectable.len() as f64
    };
    let and_mean = mean(BridgeKind::And);
    let or_mean = mean(BridgeKind::Or);
    assert!(
        (and_mean - or_mean).abs() < 0.15,
        "AND {and_mean} vs OR {or_mean} diverge"
    );
}

/// §4.1's observation: fed POs and observable POs almost always coincide.
#[test]
fn pos_fed_equals_pos_observed_almost_always() {
    let rows = lab(vec![c17(), full_adder(), c95(), alu74181()]).obs_pos_fed_vs_observed();
    for (name, equal, total) in rows {
        assert!(
            equal as f64 >= 0.9 * total as f64,
            "{name}: only {equal}/{total}"
        );
    }
}

/// Figure 3's bathtub: faults adjacent to the POs are easier to detect than
/// the mid-circuit faults.
#[test]
fn po_adjacent_faults_are_easier_than_mid_circuit() {
    let (curve, _) = lab(vec![alu74181()]).fig3_sa_distance("alu74181");
    assert!(curve.len() >= 3, "need depth for a bathtub");
    let nearest = curve.first().unwrap().mean_detectability;
    let middle = curve[curve.len() / 2].mean_detectability;
    assert!(
        nearest > middle,
        "no PO-side bathtub wall: near {nearest} vs middle {middle}"
    );
}

/// Bridging faults' mean detectability is slightly higher than stuck-at
/// means (paper §4.2, Figure 7 vs Figure 2).
#[test]
fn bridging_means_exceed_stuck_at_means() {
    let mut lab = lab(vec![c95()]);
    let sa = lab.sa_records("c95");
    let sa_mean: f64 = sa.iter().map(|r| r.detectability).sum::<f64>() / sa.len() as f64;
    let mut bf = lab.bf_records("c95", BridgeKind::And).to_vec();
    bf.extend_from_slice(lab.bf_records("c95", BridgeKind::Or));
    let bf_mean: f64 = bf.iter().map(|r| r.detectability).sum::<f64>() / bf.len() as f64;
    assert!(
        bf_mean > sa_mean * 0.9,
        "bridging mean {bf_mean} unexpectedly far below stuck-at mean {sa_mean}"
    );
}
