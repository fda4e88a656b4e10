//! Correlating exact detectabilities with classical testability estimates.
//!
//! The paper argues (§4.1) that "detectability seems more closely correlated
//! with observability than with controllability", reading PI/PO *level
//! distance* curves. This module asks the sharper question with the
//! classical SCOAP estimates ([`dp_netlist::Scoap`]): Spearman rank
//! correlations between Difference Propagation's exact detectabilities and
//! the SCOAP costs at the fault sites.
//!
//! A reproducible refinement falls out (see the `diffprop figures` output and
//! `EXPERIMENTS.md`): on checkpoint fault sets — which are PI-and-branch
//! heavy, i.e. skewed towards the controllable end of the circuit — the
//! *combined* SCOAP cost anticorrelates with exact detectability as
//! expected, but the observability component alone is a weak (sometimes
//! positive) predictor, while excitation controllability carries most of
//! the signal on the arithmetic benchmarks. The paper's distance-based
//! observation concerns a different marginal (mean detectability per PO
//! distance bucket, Figure 3), which [`crate::topology`] reproduces.

use dp_faults::{Fault, FaultSite};
use dp_netlist::{Circuit, Scoap};

use crate::records::FaultRecord;

/// Spearman rank correlation coefficient of two equal-length samples, with
/// average ranks for ties. Returns `None` for fewer than two points or a
/// constant sample.
///
/// # Examples
///
/// ```
/// use dp_analysis::correlation::spearman;
/// let rho = spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]).unwrap();
/// assert!((rho - 1.0).abs() < 1e-12);
/// let rho = spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]).unwrap();
/// assert!((rho + 1.0).abs() < 1e-12);
/// ```
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

/// Average ranks (1-based) with tie handling.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Rank correlations between exact stuck-at detectability and the SCOAP
/// estimates at the fault sites. SCOAP costs grow as faults get *harder*,
/// so the expected correlations are negative; the paper's claim is
/// `|det_vs_observability| > |det_vs_controllability|`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoapCorrelation {
    /// Spearman ρ between detectability and site observability `CO`.
    pub det_vs_observability: Option<f64>,
    /// Spearman ρ between detectability and the excitation controllability
    /// (`CC1` for stuck-at-0, `CC0` for stuck-at-1).
    pub det_vs_controllability: Option<f64>,
    /// Spearman ρ between detectability and the combined SCOAP cost.
    pub det_vs_combined: Option<f64>,
    /// Number of stuck-at records used.
    pub samples: usize,
}

/// Computes [`ScoapCorrelation`] for the stuck-at records of a circuit.
/// Bridging-fault records are skipped (SCOAP has no bridge model).
pub fn scoap_correlation(circuit: &Circuit, records: &[FaultRecord]) -> ScoapCorrelation {
    let scoap = Scoap::compute(circuit);
    let mut det = Vec::new();
    let mut co = Vec::new();
    let mut cc = Vec::new();
    let mut combined = Vec::new();
    for r in records {
        let Fault::StuckAt(f) = r.fault else {
            continue;
        };
        let net = match f.site {
            FaultSite::Net(n) => n,
            FaultSite::Branch(b) => b.stem,
        };
        if scoap.co(net) == u32::MAX {
            continue;
        }
        det.push(r.detectability);
        co.push(scoap.co(net) as f64);
        cc.push(if f.value {
            scoap.cc0(net) as f64
        } else {
            scoap.cc1(net) as f64
        });
        combined.push(scoap.stuck_at_cost(net, f.value) as f64);
    }
    ScoapCorrelation {
        det_vs_observability: spearman(&det, &co),
        det_vs_controllability: spearman(&det, &cc),
        det_vs_combined: spearman(&det, &combined),
        samples: det.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{analyze_faults, stuck_at_universe};
    use dp_netlist::generators::{alu74181, c95};

    #[test]
    fn ranks_handle_ties() {
        assert_eq!(ranks(&[10.0, 10.0, 20.0]), vec![1.5, 1.5, 3.0]);
        assert_eq!(ranks(&[3.0, 1.0, 2.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn spearman_edge_cases() {
        assert_eq!(spearman(&[1.0], &[2.0]), None);
        assert_eq!(spearman(&[1.0, 1.0], &[1.0, 2.0]), None); // constant xs
        assert_eq!(spearman(&[1.0, 2.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn spearman_is_rank_invariant() {
        // Monotone transforms of either sample do not change rho.
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0];
        let ys = [0.3, 0.9, 0.1, 0.8, 0.5];
        let xs2: Vec<f64> = xs.iter().map(|x: &f64| x.exp()).collect();
        let a = spearman(&xs, &ys).unwrap();
        let b = spearman(&xs2, &ys).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn combined_scoap_cost_anticorrelates_on_the_alu() {
        // The robust direction: harder (costlier) faults have lower exact
        // detectability. Individual components are circuit-dependent — see
        // the module docs.
        let c = alu74181();
        let records = analyze_faults(&c, &stuck_at_universe(&c, true));
        let rho = scoap_correlation(&c, &records);
        assert!(rho.samples > 100);
        let combined = rho.det_vs_combined.expect("non-constant");
        assert!(combined < -0.1, "cost rho {combined} not clearly negative");
        // Bounds sanity.
        for r in [
            rho.det_vs_observability,
            rho.det_vs_controllability,
            rho.det_vs_combined,
        ]
        .into_iter()
        .flatten()
        {
            assert!((-1.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn controllability_carries_the_signal_on_checkpoint_sets() {
        // The refinement documented in the module docs: checkpoint sets are
        // PI-skewed, so excitation controllability anticorrelates strongly
        // on the arithmetic benchmarks.
        let c = c95();
        let records = analyze_faults(&c, &stuck_at_universe(&c, true));
        let rho = scoap_correlation(&c, &records);
        let cc = rho.det_vs_controllability.expect("non-constant");
        assert!(cc < -0.3, "CC rho {cc} not strongly negative");
    }

    #[test]
    fn correlation_is_deterministic() {
        let c = c95();
        let records = analyze_faults(&c, &stuck_at_universe(&c, true));
        let r1 = scoap_correlation(&c, &records);
        let r2 = scoap_correlation(&c, &records);
        assert_eq!(r1, r2);
    }
}
