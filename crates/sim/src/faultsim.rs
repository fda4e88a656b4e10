//! Fault injection and exhaustive / sampled fault simulation.
//!
//! Every fault model goes through one injection: [`faulty_values`] turns a
//! [`Fault`] into words forced onto nets and gate pins of one
//! [`PackedSim`] sweep. A stuck stem or branch forces its constant, a
//! multiple fault forces every component at once, and a bridge forces
//! both wires to the wired value of their driven values. On top of that
//! injection the API is generic over the fault: [`faulty_outputs`] and
//! [`detects`] answer for one vector, [`exhaustive_detectability`] counts
//! all `2^n`, and [`sampled_fault_estimate`] estimates from random
//! vectors.
//!
//! # Examples
//!
//! A double stuck-at fault on two distinct sites of c17, counted
//! exhaustively and vector by vector:
//!
//! ```
//! use dp_faults::{checkpoint_faults, Fault, MultiStuckAt};
//! use dp_netlist::generators::c17;
//! use dp_sim::{detects, exhaustive_detectability};
//!
//! let c = c17();
//! let faults = checkpoint_faults(&c);
//! // The first two checkpoint sites, both stuck-at-0.
//! let fault = Fault::MultiStuckAt(MultiStuckAt::new(vec![faults[0], faults[2]]));
//! let (det, total) = exhaustive_detectability(&c, &fault);
//! assert_eq!(total, 32);
//! let by_vector = (0..total)
//!     .filter(|v| {
//!         let vector: Vec<bool> = (0..5).map(|i| v >> i & 1 == 1).collect();
//!         detects(&c, &fault, &vector)
//!     })
//!     .count();
//! assert_eq!(by_vector as u64, det);
//! ```

use dp_faults::{BridgeKind, Fault, FaultSite, StuckAtFault};
use dp_netlist::Circuit;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::packed::{exhaustive_blocks, PackedSim};

/// Packed values of every net under `fault`, for the 64 vectors packed in
/// `inputs`: one forced sweep of `sim`.
fn faulty_values<'s>(sim: &'s mut PackedSim<'_>, fault: &Fault, inputs: &[u64]) -> &'s [u64] {
    let stuck = |f: &StuckAtFault| (f.site, if f.value { !0u64 } else { 0u64 });
    match fault {
        Fault::StuckAt(f) => sim.run_forced(inputs, [stuck(f)]),
        Fault::MultiStuckAt(m) => sim.run_forced(inputs, m.components().iter().map(stuck)),
        Fault::Bridging(f) => {
            // Non-feedback guarantees the fanin cones of both wires are
            // fault-free, so the driven values from a clean sweep are exact.
            let driven = sim.run(inputs);
            let (a, b) = (driven[f.a.index()], driven[f.b.index()]);
            let wired = match f.kind {
                BridgeKind::And => a & b,
                BridgeKind::Or => a | b,
            };
            sim.run_forced(
                inputs,
                [(FaultSite::Net(f.a), wired), (FaultSite::Net(f.b), wired)],
            )
        }
    }
}

/// Runs the fault-free sweep of `inputs` and leaves the packed value of
/// every primary output, in PO order, in `good`.
fn good_outputs(sim: &mut PackedSim<'_>, inputs: &[u64], good: &mut Vec<u64>) {
    let outputs = sim.circuit().outputs();
    let values = sim.run(inputs);
    good.clear();
    good.extend(outputs.iter().map(|o| values[o.index()]));
}

/// Output values of the faulted circuit on one input vector.
///
/// # Panics
///
/// Panics if `vector.len()` differs from the circuit's input count.
///
/// # Examples
///
/// ```
/// use dp_faults::{checkpoint_faults, Fault};
/// use dp_netlist::generators::full_adder;
/// use dp_sim::faulty_outputs;
///
/// let c = full_adder();
/// let f = Fault::from(checkpoint_faults(&c)[1]); // input `a` stuck-at-1
/// let out = faulty_outputs(&c, &f, &[false, false, false]);
/// assert_eq!(out, vec![true, false]); // sum sees the stuck 1
/// ```
pub fn faulty_outputs(circuit: &Circuit, fault: &Fault, vector: &[bool]) -> Vec<bool> {
    let inputs: Vec<u64> = vector.iter().map(|&b| u64::from(b)).collect();
    let mut sim = PackedSim::new(circuit);
    let values = faulty_values(&mut sim, fault, &inputs);
    circuit
        .outputs()
        .iter()
        .map(|o| values[o.index()] & 1 == 1)
        .collect()
}

/// Returns `true` when `vector` detects `fault` (some primary output
/// differs between the good and faulted circuit).
///
/// # Panics
///
/// Panics if `vector.len()` differs from the circuit's input count.
pub fn detects(circuit: &Circuit, fault: &Fault, vector: &[bool]) -> bool {
    let good = circuit.eval(vector);
    let bad = faulty_outputs(circuit, fault, vector);
    good != bad
}

/// Exhaustively simulates all `2^n` input vectors and returns
/// `(detecting_vectors, total_vectors)` — the brute-force ground truth for
/// the paper's exact detectabilities, for any acyclic fault model (single
/// or multiple stuck-at, non-feedback bridge).
///
/// # Panics
///
/// Panics if the circuit has more than 30 primary inputs (use Difference
/// Propagation instead — avoiding exactly this wall is the paper's point).
pub fn exhaustive_detectability(circuit: &Circuit, fault: &Fault) -> (u64, u64) {
    let mut sim = PackedSim::new(circuit);
    let mut good = Vec::new();
    let mut detected = 0u64;
    let total = exhaustive_blocks(circuit, |inputs, lanes| {
        good_outputs(&mut sim, inputs, &mut good);
        let faulty = faulty_values(&mut sim, fault, inputs);
        let mut diff = 0u64;
        for (k, &o) in circuit.outputs().iter().enumerate() {
            diff |= good[k] ^ faulty[o.index()];
        }
        detected += (diff & lanes).count_ones() as u64;
    });
    (detected, total)
}

/// A Monte-Carlo fault estimate shaped like the scalar slice of an exact
/// analysis — the degraded-mode stand-in the sweep layer falls back to when
/// a BDD work budget trips (`dp_core::parallel`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledDetectability {
    /// Vectors (of `samples`) on which some primary output differed.
    pub detected: u64,
    /// Vectors actually simulated (`requested` rounded up to a multiple
    /// of 64 — the packed word width).
    pub samples: u64,
    /// Per-output observability flags over the sample, in PO order: `true`
    /// when the fault was visible at that output for some sampled vector.
    /// A sampled `false` may be a false negative; a `true` is certain.
    pub observable_outputs: Vec<bool>,
    /// Whether the faulty site function was constant *across the sample*
    /// (always `true` for stuck-at faults, by definition). As with
    /// observability this is one-sided: `false` is certain, `true` may be
    /// an artefact of the sample.
    pub site_function_constant: bool,
}

impl SampledDetectability {
    /// The estimated detection probability `detected / samples`.
    pub fn detectability(&self) -> f64 {
        self.detected as f64 / self.samples as f64
    }
}

/// Estimates a fault's detectability and observability profile from
/// `samples` random vectors (rounded up to a multiple of 64), with a fixed
/// seed for reproducibility: the per-output flags and site constancy an
/// exact analysis would report, measured on the sample.
pub fn sampled_fault_estimate(
    circuit: &Circuit,
    fault: &Fault,
    samples: u64,
    seed: u64,
) -> SampledDetectability {
    let blocks = samples.div_ceil(64).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = PackedSim::new(circuit);
    let mut detected = 0u64;
    let mut observable = vec![false; circuit.num_outputs()];
    // Wired-site constancy, tracked only for bridges: stays `true` while
    // every sampled vector drives the wired value to the same constant.
    let (mut site_all0, mut site_all1) = (true, true);
    let mut inputs = vec![0u64; circuit.num_inputs()];
    let mut good = Vec::new();
    for _ in 0..blocks {
        for word in inputs.iter_mut() {
            *word = rng.random();
        }
        good_outputs(&mut sim, &inputs, &mut good);
        // Bridges go through the ternary fixpoint: on a non-feedback pair
        // everything settles and the counts are bit-identical to the binary
        // sweep, while a feedback pair gets the loop semantics (definite
        // differences only — an oscillating output is not a detection).
        let mut diff = 0u64;
        let mut note = |k: usize, d: u64| {
            observable[k] |= d != 0;
            diff |= d;
        };
        if let Fault::Bridging(f) = fault {
            let (hi, lo) = crate::ternary::faulty_rails(circuit, fault, &inputs);
            let wire = f.a.index();
            site_all0 &= lo[wire] == !0u64;
            site_all1 &= hi[wire] == !0u64;
            for (k, &o) in circuit.outputs().iter().enumerate() {
                note(k, (hi[o.index()] & !good[k]) | (lo[o.index()] & good[k]));
            }
        } else {
            let faulty = faulty_values(&mut sim, fault, &inputs);
            for (k, &o) in circuit.outputs().iter().enumerate() {
                note(k, good[k] ^ faulty[o.index()]);
            }
        }
        detected += diff.count_ones() as u64;
    }
    let site_function_constant = match fault {
        // Every stuck site — single or multiple — is a constant by
        // definition.
        Fault::StuckAt(_) | Fault::MultiStuckAt(_) => true,
        Fault::Bridging(_) => site_all0 || site_all1,
    };
    SampledDetectability {
        detected,
        samples: blocks * 64,
        observable_outputs: observable,
        site_function_constant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_faults::{checkpoint_faults, enumerate_nfbfs, BridgeKind, BridgingFault, StuckAtFault};
    use dp_netlist::generators::{c17, c95, full_adder};

    #[test]
    fn stuck_pi_detectability_on_c17() {
        let c = c17();
        for f in checkpoint_faults(&c) {
            let (det, total) = exhaustive_detectability(&c, &Fault::from(f));
            assert_eq!(total, 32);
            // Every checkpoint fault of c17 is detectable (c17 is irredundant).
            assert!(det > 0, "{f} undetectable?");
        }
    }

    #[test]
    fn branch_fault_differs_from_stem_fault() {
        // In c17, net 11 fans out to gates 16 and 19; a branch fault on one
        // pin must not equal the stem fault's behaviour everywhere.
        let c = c17();
        let n11 = c.find_net("11").unwrap();
        let branches: Vec<_> = c
            .fanout_branches()
            .into_iter()
            .filter(|b| b.stem == n11)
            .collect();
        assert_eq!(branches.len(), 2);
        let stem_fault = Fault::from(StuckAtFault {
            site: dp_faults::FaultSite::Net(n11),
            value: false,
        });
        let branch_fault = Fault::from(StuckAtFault {
            site: dp_faults::FaultSite::Branch(branches[0]),
            value: false,
        });
        let (stem_det, _) = exhaustive_detectability(&c, &stem_fault);
        let (branch_det, _) = exhaustive_detectability(&c, &branch_fault);
        assert!(stem_det >= branch_det, "stem dominates its branches");
        assert!(branch_det > 0);
    }

    #[test]
    fn bridging_fault_simulation_on_full_adder() {
        let c = full_adder();
        let a = c.find_net("a").unwrap();
        let ab = c.find_net("ab").unwrap();
        let f = Fault::from(BridgingFault::new(a, ab, BridgeKind::And));
        // a=1, b=0: driven a=1, ab=0, bridged AND = 0 -> a reads as 0.
        // sum = 0^0^cin, cout = 0.
        let out = faulty_outputs(&c, &f, &[true, false, false]);
        assert_eq!(out, vec![false, false]);
        let good = c.eval(&[true, false, false]);
        assert_eq!(good, vec![true, false]);
        assert!(detects(&c, &f, &[true, false, false]));
    }

    #[test]
    fn or_bridge_is_dual() {
        let c = full_adder();
        let a = c.find_net("a").unwrap();
        let ab = c.find_net("ab").unwrap();
        let f = Fault::from(BridgingFault::new(a, ab, BridgeKind::Or));
        // a=0, b=1: driven a=0, ab=0 -> OR = 0, nothing changes.
        assert!(!detects(&c, &f, &[false, true, false]));
        // a=1,b=1: driven a=1, ab=1 -> OR = 1, nothing changes either.
        assert!(!detects(&c, &f, &[true, true, false]));
    }

    #[test]
    fn all_nfbfs_have_consistent_exhaustive_counts() {
        let c = full_adder();
        for kind in [BridgeKind::And, BridgeKind::Or] {
            for f in enumerate_nfbfs(&c, kind) {
                let (det, total) = exhaustive_detectability(&c, &Fault::from(f));
                assert_eq!(total, 8);
                assert!(det <= total);
            }
        }
    }

    #[test]
    fn sampled_estimate_tracks_exhaustive_and_is_deterministic() {
        let c = c95();
        let f = Fault::from(checkpoint_faults(&c)[0]);
        let (det, total) = exhaustive_detectability(&c, &f);
        let exact = det as f64 / total as f64;
        let est = sampled_fault_estimate(&c, &f, 4096, 42);
        assert_eq!(est.samples, 4096);
        assert!((exact - est.detectability()).abs() < 0.05);
        assert!(est.site_function_constant, "stuck-at sites are constant");
        // Same seed, same estimate — bit for bit.
        assert_eq!(est, sampled_fault_estimate(&c, &f, 4096, 42));
        // The packed width rounds the sample count up.
        assert_eq!(sampled_fault_estimate(&c, &f, 65, 42).samples, 128);
        assert_eq!(sampled_fault_estimate(&c, &f, 0, 42).samples, 64);
    }

    #[test]
    fn sampled_estimate_observability_flags_are_sound() {
        // A certainly-observed output must agree with the random sweep's
        // detection count; an output with no sampled difference stays false.
        let c = c17();
        for f in checkpoint_faults(&c) {
            let est = sampled_fault_estimate(&c, &Fault::from(f), 512, 7);
            let any = est.observable_outputs.iter().any(|&b| b);
            assert_eq!(any, est.detected > 0, "{f}");
        }
    }

    #[test]
    fn sampled_estimate_detects_nonconstant_bridge_sites() {
        // Bridging x and ¬x is a feedback pair: the ternary fixpoint gives
        // w = x AND NOT w — definite 0 at x=0, oscillating (X) at x=1 — so
        // the site is NOT constant; neither is the non-feedback x·y wire.
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let nx = b.not("nx", x).unwrap();
        let g1 = b.gate("g1", GateKind::And, &[x, y]).unwrap();
        let g2 = b.gate("g2", GateKind::Or, &[nx, y]).unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let feedback = Fault::from(BridgingFault::new(x, nx, BridgeKind::And));
        let est = sampled_fault_estimate(&c, &feedback, 256, 3);
        assert!(!est.site_function_constant, "oscillation at x=1 is not 0");
        let varying = Fault::from(BridgingFault::new(x, y, BridgeKind::And));
        let est2 = sampled_fault_estimate(&c, &varying, 256, 3);
        assert!(!est2.site_function_constant, "x·y is not constant");
    }

    #[test]
    fn undetectable_bridge_counts_zero() {
        // Build x,y into a single AND gate: the AND bridge between the two
        // inputs is undetectable, exhaustive count must be 0.
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let f = Fault::from(BridgingFault::new(x, y, BridgeKind::And));
        let (det, _) = exhaustive_detectability(&c, &f);
        assert_eq!(det, 0);
    }
}
