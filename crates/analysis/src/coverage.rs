//! Test-length and cross-model coverage studies built on exact
//! detectabilities.
//!
//! Two companion studies the paper's introduction leans on:
//!
//! * **pseudo-random test length** — with the exact detectability `d` of
//!   every fault in hand, the expected coverage of `k` random vectors is
//!   `mean(1 − (1 − d)^k)`, no simulation needed
//!   ([`expected_random_coverage`]);
//! * **multiple-fault coverage of single-fault test sets** — the
//!   Hughes–McCluskey question (the paper's reference \[2\]): how many double
//!   stuck-at faults does a complete single-stuck-at test set catch?
//!   ([`double_fault_coverage`]).

use dp_core::generate_tests;
use dp_faults::{checkpoint_faults, Fault, MultiStuckAt};
use dp_netlist::Circuit;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::records::FaultRecord;

/// Expected stuck-at coverage of `k` uniformly random vectors, for each `k`
/// in `lengths`, computed in closed form from exact detectabilities.
///
/// Undetectable faults count against coverage (they can never be hit), so
/// the curve saturates at the detectable fraction.
///
/// # Examples
///
/// ```
/// use dp_analysis::{analyze_faults, stuck_at_universe};
/// use dp_analysis::coverage::expected_random_coverage;
/// use dp_netlist::generators::c17;
///
/// let c = c17();
/// let records = analyze_faults(&c, &stuck_at_universe(&c, true));
/// let curve = expected_random_coverage(&records, &[1, 8, 64]);
/// assert!(curve[0].1 < curve[2].1); // longer tests cover more
/// assert!(curve[2].1 <= 1.0);
/// ```
pub fn expected_random_coverage(records: &[FaultRecord], lengths: &[usize]) -> Vec<(usize, f64)> {
    lengths
        .iter()
        .map(|&k| {
            let sum: f64 = records
                .iter()
                .map(|r| 1.0 - (1.0 - r.detectability).powi(k as i32))
                .sum();
            (k, sum / records.len().max(1) as f64)
        })
        .collect()
}

/// The outcome of a double-fault coverage experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleFaultCoverage {
    /// Size of the complete single-stuck-at test set used.
    pub test_vectors: usize,
    /// Double faults sampled.
    pub sampled: usize,
    /// Of those, detected by the single-fault test set.
    pub detected: usize,
    /// Of those, detectable at all (non-zero exact detectability).
    pub detectable: usize,
}

impl DoubleFaultCoverage {
    /// Detected / detectable — the headline coverage number.
    pub fn coverage(&self) -> f64 {
        if self.detectable == 0 {
            1.0
        } else {
            self.detected as f64 / self.detectable as f64
        }
    }
}

/// Generates a compact complete test set for the circuit's single checkpoint
/// faults, then measures how many random **double** stuck-at faults it
/// detects (Hughes & McCluskey's experiment, the paper's reference \[2\]).
///
/// Detectability of each sampled double fault is established exactly with
/// Difference Propagation; detection by the test set is established by
/// simulation.
pub fn double_fault_coverage(circuit: &Circuit, samples: usize, seed: u64) -> DoubleFaultCoverage {
    let singles = checkpoint_faults(circuit);
    let targets: Vec<Fault> = singles.iter().copied().map(Fault::from).collect();
    let tests = generate_tests(circuit, &targets);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut dp = dp_core::DiffProp::new(circuit);
    let mut sampled = 0;
    let mut detected = 0;
    let mut detectable = 0;
    let mut attempts = 0;
    while sampled < samples && attempts < samples * 20 {
        attempts += 1;
        let a = singles[rng.random_range(0..singles.len())];
        let b = singles[rng.random_range(0..singles.len())];
        if a.site == b.site {
            continue;
        }
        sampled += 1;
        let pair = Fault::MultiStuckAt(MultiStuckAt::new(vec![a, b]));
        let analysis = dp.analyze(&pair);
        if !analysis.is_detectable() {
            continue;
        }
        detectable += 1;
        if tests
            .vectors
            .iter()
            .any(|v| dp_sim::detects(circuit, &pair, v))
        {
            detected += 1;
        }
    }
    DoubleFaultCoverage {
        test_vectors: tests.vectors.len(),
        sampled,
        detected,
        detectable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{analyze_faults, stuck_at_universe};
    use dp_netlist::generators::{alu74181, c17, c95};

    #[test]
    fn expected_coverage_is_monotone_in_length() {
        let c = c95();
        let records = analyze_faults(&c, &stuck_at_universe(&c, true));
        let curve = expected_random_coverage(&records, &[1, 2, 4, 8, 16, 32, 64, 128]);
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12, "{w:?}");
        }
        assert!(curve.last().unwrap().1 > 0.9, "long random tests cover c95");
    }

    #[test]
    fn expected_coverage_zero_length_edge() {
        let c = c17();
        let records = analyze_faults(&c, &stuck_at_universe(&c, true));
        let curve = expected_random_coverage(&records, &[0]);
        assert_eq!(curve[0].1, 0.0);
    }

    #[test]
    fn double_fault_coverage_is_high_but_imperfect_knowledge() {
        // Hughes–McCluskey: complete single-fault test sets catch most but
        // not necessarily all multiple faults. Assert the direction only.
        let c = alu74181();
        let result = double_fault_coverage(&c, 120, 42);
        assert!(result.sampled > 0);
        assert!(result.detectable > 0);
        assert!(
            result.coverage() > 0.9,
            "single-fault set catches most doubles: {result:?}"
        );
        assert!(result.test_vectors > 0);
    }

    #[test]
    fn double_fault_coverage_deterministic() {
        let c = c17();
        let r1 = double_fault_coverage(&c, 40, 7);
        let r2 = double_fault_coverage(&c, 40, 7);
        assert_eq!(r1, r2);
    }
}
