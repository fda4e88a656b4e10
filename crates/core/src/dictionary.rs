//! Fault dictionaries and diagnosis from complete test sets.
//!
//! A classical fault dictionary records, for each modelled fault and each
//! applied test vector, *which outputs fail*. Building one normally costs a
//! full fault simulation per fault and vector; with Difference Propagation
//! the per-output difference functions make it a sequence of BDD
//! evaluations: fault `f` fails output `k` under vector `v` exactly when
//! `Δ_PO_k(v)` holds.
//!
//! [`FaultDictionary`] stores full-response signatures;
//! [`FaultDictionary::diagnose`] ranks modelled faults against an observed
//! tester response (exact matches first, then nearest by Hamming distance) —
//! the use case behind the same/different dictionary literature that grew
//! out of this style of exact analysis.

use dp_faults::Fault;
use dp_netlist::Circuit;

use crate::engine::DiffProp;

/// The full-response signature of one fault: `bits[t][k]` is `true` when
/// test `t` fails at output `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    bits: Vec<Vec<bool>>,
}

impl Signature {
    /// `true` if no test fails anywhere — the fault is not covered by the
    /// dictionary's test set.
    pub fn is_silent(&self) -> bool {
        self.bits.iter().all(|t| t.iter().all(|&b| !b))
    }

    /// Hamming distance to another signature.
    ///
    /// # Panics
    ///
    /// Panics if the signatures come from different-shaped dictionaries.
    pub fn distance(&self, other: &Signature) -> usize {
        assert_eq!(self.bits.len(), other.bits.len(), "shape mismatch");
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| {
                assert_eq!(a.len(), b.len(), "shape mismatch");
                a.iter().zip(b).filter(|(x, y)| x != y).count()
            })
            .sum()
    }

    /// Per-test failing-output rows.
    pub fn rows(&self) -> &[Vec<bool>] {
        &self.bits
    }
}

/// A ranked diagnosis candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Index of the fault in the dictionary's fault list.
    pub fault_index: usize,
    /// The fault itself.
    pub fault: Fault,
    /// Hamming distance between the fault's signature and the observation
    /// (0 = exact match).
    pub distance: usize,
}

/// A precomputed full-response fault dictionary.
///
/// # Examples
///
/// ```
/// use dp_core::FaultDictionary;
/// use dp_faults::{checkpoint_faults, Fault};
/// use dp_netlist::generators::c17;
///
/// let circuit = c17();
/// let faults: Vec<Fault> = checkpoint_faults(&circuit).into_iter().map(Fault::from).collect();
/// // Any test set works; here, four corners of the input space.
/// let tests = vec![
///     vec![false; 5],
///     vec![true; 5],
///     vec![true, false, true, false, true],
///     vec![false, true, false, true, false],
/// ];
/// let dict = FaultDictionary::build(&circuit, &faults, &tests);
/// // Simulate a defect (fault 0) and diagnose from its responses.
/// let observed = dict.signature(0).clone();
/// let ranked = dict.diagnose(&observed);
/// assert_eq!(ranked[0].distance, 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    faults: Vec<Fault>,
    signatures: Vec<Signature>,
    num_tests: usize,
    num_outputs: usize,
}

impl FaultDictionary {
    /// Builds the dictionary: one Difference Propagation pass per fault,
    /// then one BDD evaluation per (test, output).
    pub fn build(circuit: &Circuit, faults: &[Fault], tests: &[Vec<bool>]) -> Self {
        let mut dp = DiffProp::new(circuit);
        let mut signatures = Vec::with_capacity(faults.len());
        for fault in faults {
            let analysis = dp.analyze(fault);
            let manager = dp.good().manager();
            let bits: Vec<Vec<bool>> = tests
                .iter()
                .map(|v| {
                    analysis
                        .po_deltas
                        .iter()
                        .map(|&d| manager.eval(d, v))
                        .collect()
                })
                .collect();
            signatures.push(Signature { bits });
        }
        FaultDictionary {
            faults: faults.to_vec(),
            signatures,
            num_tests: tests.len(),
            num_outputs: circuit.num_outputs(),
        }
    }

    /// Number of faults in the dictionary.
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// Number of test vectors the signatures cover.
    pub fn num_tests(&self) -> usize {
        self.num_tests
    }

    /// Number of primary outputs per row.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The signature of fault `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn signature(&self, i: usize) -> &Signature {
        &self.signatures[i]
    }

    /// The faults, in build order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Ranks all faults against an observed response, nearest first; ties
    /// keep build order. Faults with silent signatures (not covered by the
    /// test set) are still ranked — a silent observation matches them at
    /// distance 0.
    pub fn diagnose(&self, observed: &Signature) -> Vec<Candidate> {
        let mut ranked: Vec<Candidate> = self
            .signatures
            .iter()
            .enumerate()
            .map(|(i, s)| Candidate {
                fault_index: i,
                fault: self.faults[i].clone(),
                distance: s.distance(observed),
            })
            .collect();
        ranked.sort_by_key(|c| c.distance);
        ranked
    }

    /// Diagnostic resolution of the dictionary: the number of equivalence
    /// classes of identical signatures. Higher is better — faults sharing a
    /// signature are indistinguishable by this test set.
    pub fn num_distinguishable_classes(&self) -> usize {
        let mut classes: Vec<&Signature> = Vec::new();
        for s in &self.signatures {
            if !classes.contains(&s) {
                classes.push(s);
            }
        }
        classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::generate_tests;
    use dp_faults::checkpoint_faults;
    use dp_netlist::generators::{c17, c95};

    fn all_faults(c: &Circuit) -> Vec<Fault> {
        checkpoint_faults(c).into_iter().map(Fault::from).collect()
    }

    #[test]
    fn signatures_match_simulation() {
        let c = c17();
        let faults = all_faults(&c);
        let tests: Vec<Vec<bool>> = (0..8u32)
            .map(|bits| (0..5).map(|i| bits >> i & 1 == 1).collect())
            .collect();
        let dict = FaultDictionary::build(&c, &faults, &tests);
        for (i, f) in faults.iter().enumerate() {
            for (t, v) in tests.iter().enumerate() {
                let good = c.eval(v);
                let bad = dp_sim::faulty_outputs(&c, f, v);
                let expect: Vec<bool> = good.iter().zip(&bad).map(|(g, b)| g != b).collect();
                assert_eq!(dict.signature(i).rows()[t], expect, "{f} test {t}");
            }
        }
    }

    #[test]
    fn self_diagnosis_is_exact() {
        let c = c95();
        let faults = all_faults(&c);
        let atpg = generate_tests(&c, &faults);
        let dict = FaultDictionary::build(&c, &faults, &atpg.vectors);
        for i in (0..faults.len()).step_by(5) {
            let ranked = dict.diagnose(dict.signature(i));
            assert_eq!(ranked[0].distance, 0);
            // The true fault is among the distance-0 candidates.
            assert!(ranked
                .iter()
                .take_while(|cand| cand.distance == 0)
                .any(|cand| cand.fault_index == i));
        }
    }

    #[test]
    fn complete_test_set_leaves_no_silent_detectable_fault() {
        let c = c17();
        let faults = all_faults(&c);
        let atpg = generate_tests(&c, &faults);
        assert!(atpg.undetectable.is_empty());
        let dict = FaultDictionary::build(&c, &faults, &atpg.vectors);
        for (i, f) in faults.iter().enumerate() {
            assert!(!dict.signature(i).is_silent(), "{f} silent");
        }
    }

    #[test]
    fn resolution_improves_with_more_tests() {
        let c = c95();
        let faults = all_faults(&c);
        let atpg = generate_tests(&c, &faults);
        let small = FaultDictionary::build(&c, &faults, &atpg.vectors[..2]);
        let full = FaultDictionary::build(&c, &faults, &atpg.vectors);
        assert!(full.num_distinguishable_classes() >= small.num_distinguishable_classes());
        assert!(full.num_distinguishable_classes() > faults.len() / 2);
    }

    #[test]
    fn distance_is_a_metric_on_signatures() {
        let c = c17();
        let faults = all_faults(&c);
        let tests: Vec<Vec<bool>> = (0..4u32)
            .map(|bits| (0..5).map(|i| bits >> i & 1 == 1).collect())
            .collect();
        let dict = FaultDictionary::build(&c, &faults, &tests);
        let a = dict.signature(0);
        let b = dict.signature(1);
        assert_eq!(a.distance(a), 0);
        assert_eq!(a.distance(b), b.distance(a));
    }
}
