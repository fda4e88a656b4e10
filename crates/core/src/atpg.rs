//! Deterministic test generation on top of Difference Propagation.
//!
//! The paper introduces Difference Propagation *as a combinational test
//! generator*: the difference function at the POs is the complete test set,
//! so picking any minterm is test generation, and redundancy identification
//! is free (an empty test set proves the fault undetectable — no
//! backtracking, ever).
//!
//! [`generate_tests`] adds the classical greedy compaction: faults are
//! processed in order; a fault already detected by a previously chosen
//! vector (checked by evaluating its complete test set — O(inputs) per
//! check) contributes no new vector.

use dp_faults::Fault;
use dp_netlist::Circuit;

use crate::engine::{DiffProp, EngineConfig};

/// The outcome of a test-generation run.
#[derive(Debug, Clone)]
pub struct TestSet {
    /// The compacted test vectors, in generation order.
    pub vectors: Vec<Vec<bool>>,
    /// Faults proven undetectable (empty complete test set) — exact
    /// redundancy identification, not an abort.
    pub undetectable: Vec<Fault>,
    /// Number of detectable faults covered (always all of them).
    pub covered: usize,
}

impl TestSet {
    /// Fault coverage over the whole fault list: covered / total.
    pub fn coverage(&self, total_faults: usize) -> f64 {
        if total_faults == 0 {
            1.0
        } else {
            self.covered as f64 / total_faults as f64
        }
    }
}

/// Generates a compact test set detecting every detectable fault in
/// `faults`, and proves the rest undetectable.
///
/// Greedy single-pass compaction: each fault's complete test set is first
/// evaluated on the vectors already chosen; only uncovered faults
/// contribute a new vector (one of their tests). The result is typically
/// far smaller than one-vector-per-fault.
///
/// # Examples
///
/// ```
/// use dp_core::generate_tests;
/// use dp_faults::{checkpoint_faults, Fault};
/// use dp_netlist::generators::c17;
///
/// let c = c17();
/// let faults: Vec<Fault> = checkpoint_faults(&c).into_iter().map(Fault::from).collect();
/// let tests = generate_tests(&c, &faults);
/// assert!(tests.undetectable.is_empty()); // c17 is irredundant
/// assert_eq!(tests.covered, faults.len());
/// assert!(tests.vectors.len() < faults.len()); // compaction helps
/// ```
pub fn generate_tests(circuit: &Circuit, faults: &[Fault]) -> TestSet {
    let mut dp = DiffProp::with_config(circuit, EngineConfig::default());
    generate_tests_with(&mut dp, faults)
}

/// As [`generate_tests`], reusing an existing engine (and its good
/// functions).
pub fn generate_tests_with(dp: &mut DiffProp<'_>, faults: &[Fault]) -> TestSet {
    let mut vectors: Vec<Vec<bool>> = Vec::new();
    let mut undetectable = Vec::new();
    let mut covered = 0;
    for fault in faults {
        let analysis = dp.analyze(fault);
        if !analysis.is_detectable() {
            undetectable.push(fault.clone());
            continue;
        }
        covered += 1;
        let manager = dp.good().manager();
        let already = vectors.iter().any(|v| manager.eval(analysis.test_set, v));
        if !already {
            let v = manager
                .pick_minterm(analysis.test_set)
                .expect("detectable fault has a test");
            vectors.push(v);
        }
    }
    TestSet {
        vectors,
        undetectable,
        covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_faults::{checkpoint_faults, enumerate_nfbfs, BridgeKind};
    use dp_netlist::generators::{alu74181, c17, c95, full_adder};

    fn all_stuck(circuit: &Circuit) -> Vec<Fault> {
        checkpoint_faults(circuit)
            .into_iter()
            .map(Fault::from)
            .collect()
    }

    #[test]
    fn generated_vectors_detect_their_faults() {
        let c = c95();
        let faults = all_stuck(&c);
        let tests = generate_tests(&c, &faults);
        assert!(tests.undetectable.is_empty());
        // Every fault is detected by at least one generated vector
        // (verified by independent simulation).
        for f in &faults {
            assert!(
                tests.vectors.iter().any(|v| dp_sim::detects(&c, f, v)),
                "{f} not covered"
            );
        }
    }

    #[test]
    fn compaction_beats_one_per_fault() {
        let c = alu74181();
        let faults = all_stuck(&c);
        let tests = generate_tests(&c, &faults);
        assert!(
            tests.vectors.len() * 3 < faults.len(),
            "{} vectors for {} faults",
            tests.vectors.len(),
            faults.len()
        );
        assert_eq!(tests.coverage(faults.len()), 1.0);
    }

    #[test]
    fn redundant_faults_reported_not_covered() {
        use dp_netlist::{CircuitBuilder, GateKind};
        // o = x OR (x AND y): the AND output stuck-at-0 is redundant.
        let mut b = CircuitBuilder::new("red");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.gate("a", GateKind::And, &[x, y]).unwrap();
        let o = b.gate("o", GateKind::Or, &[x, a]).unwrap();
        b.output(o);
        let c = b.finish().unwrap();
        let fault = Fault::from(dp_faults::StuckAtFault {
            site: dp_faults::FaultSite::Net(a),
            value: false,
        });
        let tests = generate_tests(&c, std::slice::from_ref(&fault));
        assert_eq!(tests.undetectable, vec![fault]);
        assert_eq!(tests.covered, 0);
        assert!(tests.vectors.is_empty());
        assert_eq!(tests.coverage(1), 0.0);
    }

    #[test]
    fn bridging_faults_are_first_class_targets() {
        let c = full_adder();
        let faults: Vec<Fault> = enumerate_nfbfs(&c, BridgeKind::And)
            .into_iter()
            .map(Fault::from)
            .collect();
        let tests = generate_tests(&c, &faults);
        for f in &faults {
            if tests.undetectable.contains(f) {
                continue;
            }
            assert!(tests.vectors.iter().any(|v| dp_sim::detects(&c, f, v)));
        }
    }

    #[test]
    fn mixed_fault_models_in_one_run() {
        let c = c17();
        let mut faults = all_stuck(&c);
        faults.extend(
            enumerate_nfbfs(&c, BridgeKind::Or)
                .into_iter()
                .map(Fault::from),
        );
        let tests = generate_tests(&c, &faults);
        assert_eq!(tests.covered + tests.undetectable.len(), faults.len());
    }
}
