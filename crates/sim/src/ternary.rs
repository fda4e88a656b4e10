//! Packed **ternary** (0/1/X) fault simulation — the model-generic
//! reference oracle for the differential test harness.
//!
//! The binary fault sweep in `faultsim` is exact for acyclic fault models
//! (stuck-at, multiple stuck-at, non-feedback bridges), but a *feedback*
//! bridge couples a wire to its own fanout cone: the faulted circuit has a
//! structural loop, and a single topological sweep no longer settles it.
//! This module simulates the faulted circuit over the three-valued domain
//! instead: every net carries dual rails — a "definitely 1" word and a
//! "definitely 0" word, 64 vectors per sweep — and the simulator runs
//! Gauss–Seidel sweeps from all-X until nothing changes. The iteration is
//! monotone (rails only gain vectors), so it converges to the **least
//! fixpoint**: exactly the ternary semantics the Difference Propagation
//! engine computes symbolically, which is what makes these routines a
//! trustworthy independent oracle for every fault model at once.
//!
//! Vectors on which the bridged wire never leaves X are *oscillating*: the
//! loop admits no stable assignment (or several, unreachable from X). The
//! reproduction treats them pessimistically — they are reported separately
//! and never counted as detections.

use dp_faults::{BridgeKind, Fault, FaultSite, StuckAtFault};
use dp_netlist::{Circuit, Driver, GateKind};

use crate::packed::{exhaustive_blocks, PackedSim};

/// One ternary value: a definite bit or X (unknown / oscillating).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tern {
    /// Definitely 0.
    Zero,
    /// Definitely 1.
    One,
    /// Unknown — the net never settled on this vector.
    X,
}

impl Tern {
    fn from_rails(hi: bool, lo: bool) -> Tern {
        debug_assert!(!(hi && lo), "a net cannot be definitely 0 and 1 at once");
        match (hi, lo) {
            (true, _) => Tern::One,
            (_, true) => Tern::Zero,
            _ => Tern::X,
        }
    }
}

/// Kleene evaluation of one gate over packed dual rails: the output is
/// definite exactly on the lanes where its inputs force it.
fn eval_ternary(kind: GateKind, his: &[u64], los: &[u64]) -> (u64, u64) {
    match kind {
        GateKind::Not => (los[0], his[0]),
        GateKind::Buf => (his[0], los[0]),
        GateKind::And | GateKind::Nand => {
            let hi = his.iter().fold(!0u64, |acc, &x| acc & x);
            let lo = los.iter().fold(0u64, |acc, &x| acc | x);
            if kind == GateKind::Nand {
                (lo, hi)
            } else {
                (hi, lo)
            }
        }
        GateKind::Or | GateKind::Nor => {
            let hi = his.iter().fold(0u64, |acc, &x| acc | x);
            let lo = los.iter().fold(!0u64, |acc, &x| acc & x);
            if kind == GateKind::Nor {
                (lo, hi)
            } else {
                (hi, lo)
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // Parity is definite only where every input is.
            let defined = his
                .iter()
                .zip(los)
                .fold(!0u64, |acc, (&h, &l)| acc & (h | l));
            let v = his.iter().fold(0u64, |acc, &x| acc ^ x);
            let (hi, lo) = (defined & v, defined & !v);
            if kind == GateKind::Xnor {
                (lo, hi)
            } else {
                (hi, lo)
            }
        }
    }
}

/// Dual rails of every net in the faulted circuit over 64 packed vectors:
/// `(hi, lo)` indexed by net, where bit `j` of `hi[n]` means net `n` is
/// definitely 1 on vector `j` (and symmetrically for `lo`).
///
/// Runs monotone Gauss–Seidel sweeps from all-X to the least fixpoint, so
/// any fault model is handled — including feedback bridges, whose loop may
/// leave residual X (oscillation) on some lanes.
pub(crate) fn faulty_rails(
    circuit: &Circuit,
    fault: &Fault,
    inputs: &[u64],
) -> (Vec<u64>, Vec<u64>) {
    assert_eq!(
        inputs.len(),
        circuit.num_inputs(),
        "packed input count mismatch"
    );
    let nn = circuit.num_nets();
    // Forced rails per net (stuck stems) and per gate pin (stuck branches).
    let mut net_force: Vec<Option<(u64, u64)>> = vec![None; nn];
    let mut pin_force: Vec<(usize, usize, u64, u64)> = Vec::new();
    let mut bridge: Option<(usize, usize, BridgeKind)> = None;
    let stuck_rails = |f: &StuckAtFault| {
        if f.value {
            (!0u64, 0u64)
        } else {
            (0u64, !0u64)
        }
    };
    let mut components: Vec<StuckAtFault> = Vec::new();
    match fault {
        Fault::StuckAt(f) => components.push(*f),
        Fault::MultiStuckAt(m) => components.extend_from_slice(m.components()),
        Fault::Bridging(f) => bridge = Some((f.a.index(), f.b.index(), f.kind)),
    }
    for f in &components {
        let rails = stuck_rails(f);
        match f.site {
            FaultSite::Net(n) => net_force[n.index()] = Some(rails),
            FaultSite::Branch(b) => pin_force.push((b.sink.index(), b.pin, rails.0, rails.1)),
        }
    }
    let mut pi_word: Vec<Option<u64>> = vec![None; nn];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        pi_word[pi.index()] = Some(inputs[i]);
    }

    let mut hi = vec![0u64; nn];
    let mut lo = vec![0u64; nn];
    // Driven (pre-wiring) rails of the two bridged wires, persisted across
    // sweeps so the wired value always uses the freshest of both drivers.
    let mut driven = [(0u64, 0u64); 2];
    let (mut his, mut los): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    // A monotone chaotic iteration settles in at most one sweep per rail
    // bit along the longest loop; this cap is far beyond any real netlist
    // and turns a (impossible, by monotonicity) livelock into a panic.
    let max_sweeps = 2 * nn + 8;
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        assert!(sweeps <= max_sweeps, "ternary sweep failed to converge");
        let mut changed = false;
        for n in circuit.nets() {
            let idx = n.index();
            let (mut dh, mut dl) = if let Some(w) = pi_word[idx] {
                (w, !w)
            } else if let Driver::Gate { kind, fanins } = circuit.driver(n) {
                his.clear();
                los.clear();
                for (pin, f) in fanins.iter().enumerate() {
                    let (mut fh, mut fl) = (hi[f.index()], lo[f.index()]);
                    if let Some(&(_, _, ph, pl)) = pin_force
                        .iter()
                        .find(|&&(sink, p, _, _)| sink == idx && p == pin)
                    {
                        (fh, fl) = (ph, pl);
                    }
                    his.push(fh);
                    los.push(fl);
                }
                eval_ternary(*kind, &his, &los)
            } else {
                continue;
            };
            if let Some((ai, bi, kind)) = bridge {
                if idx == ai || idx == bi {
                    driven[usize::from(idx == bi)] = (dh, dl);
                    let ((ah, al), (bh, bl)) = (driven[0], driven[1]);
                    (dh, dl) = match kind {
                        BridgeKind::And => (ah & bh, al | bl),
                        BridgeKind::Or => (ah | bh, al & bl),
                    };
                }
            }
            if let Some((fh, fl)) = net_force[idx] {
                (dh, dl) = (fh, fl);
            }
            if (dh, dl) != (hi[idx], lo[idx]) {
                // Chaotic iteration from ⊥ of a monotone system: rails only
                // ever gain lanes, which is what guarantees convergence.
                debug_assert_eq!(dh & hi[idx], hi[idx], "hi rail lost a lane");
                debug_assert_eq!(dl & lo[idx], lo[idx], "lo rail lost a lane");
                hi[idx] = dh;
                lo[idx] = dl;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (hi, lo)
}

/// The net whose residual X counts as oscillation: the bridged wire (both
/// carry the same wired value), or `None` for acyclic fault models, which
/// always settle everywhere.
fn oscillation_site(fault: &Fault) -> Option<usize> {
    match fault {
        Fault::Bridging(f) => Some(f.a.index()),
        Fault::StuckAt(_) | Fault::MultiStuckAt(_) => None,
    }
}

/// Exhaustive ternary detectability counts for any fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TernaryDetectability {
    /// Vectors with a *definite* difference at some primary output.
    pub detected: u64,
    /// Vectors on which the fault site never settled (feedback bridges
    /// only; always 0 for acyclic fault models).
    pub oscillating: u64,
    /// Total vectors simulated (`2^n`).
    pub total: u64,
}

/// Simulates all `2^n` vectors through the ternary fixpoint and counts
/// definite detections and oscillating vectors.
///
/// For acyclic fault models every value settles, so `detected` equals
/// [`crate::exhaustive_detectability`]'s count — the cross-check the
/// differential suite leans on. For feedback bridges this is the reference
/// semantics the DP engine must match vector-for-vector.
///
/// # Panics
///
/// Panics if the circuit has more than 30 primary inputs.
pub fn ternary_exhaustive_detectability(circuit: &Circuit, fault: &Fault) -> TernaryDetectability {
    let mut sim = PackedSim::new(circuit);
    let osc_site = oscillation_site(fault);
    let mut detected = 0u64;
    let mut oscillating = 0u64;
    let total = exhaustive_blocks(circuit, |inputs, lanes| {
        let values = sim.run(inputs);
        let (hi, lo) = faulty_rails(circuit, fault, inputs);
        let mut diff = 0u64;
        for &o in circuit.outputs() {
            let good = values[o.index()];
            diff |= (hi[o.index()] & !good) | (lo[o.index()] & good);
        }
        let osc = osc_site.map_or(0, |s| !(hi[s] | lo[s]));
        detected += (diff & lanes).count_ones() as u64;
        oscillating += (osc & lanes).count_ones() as u64;
    });
    TernaryDetectability {
        detected,
        oscillating,
        total,
    }
}

/// Ternary output values of the faulted circuit on one input vector.
///
/// # Panics
///
/// Panics if `vector.len()` differs from the circuit's input count.
pub fn ternary_faulty_outputs(circuit: &Circuit, fault: &Fault, vector: &[bool]) -> Vec<Tern> {
    let inputs: Vec<u64> = vector.iter().map(|&b| u64::from(b)).collect();
    let (hi, lo) = faulty_rails(circuit, fault, &inputs);
    circuit
        .outputs()
        .iter()
        .map(|o| Tern::from_rails(hi[o.index()] & 1 == 1, lo[o.index()] & 1 == 1))
        .collect()
}

/// Returns `true` when `vector` *definitely* detects `fault`: some primary
/// output settles on the opposite of its good value. An output left at X
/// does not count — the pessimistic reading of an oscillating loop.
///
/// # Panics
///
/// Panics if `vector.len()` differs from the circuit's input count.
pub fn ternary_detects(circuit: &Circuit, fault: &Fault, vector: &[bool]) -> bool {
    let good = circuit.eval(vector);
    let bad = ternary_faulty_outputs(circuit, fault, vector);
    good.iter().zip(&bad).any(|(&g, &b)| match b {
        Tern::One => !g,
        Tern::Zero => g,
        Tern::X => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_faults::{
        checkpoint_faults, enumerate_bridges, enumerate_nfbfs, pair_multis, BridgeKind,
        BridgeTopology, BridgingFault,
    };
    use dp_netlist::generators::{c17, c95, full_adder};

    /// On acyclic fault models the ternary oracle settles everywhere and
    /// reproduces the binary sweep exactly.
    #[test]
    fn acyclic_models_match_binary_simulation() {
        let c = c17();
        for f in checkpoint_faults(&c) {
            let fault = Fault::from(f);
            let t = ternary_exhaustive_detectability(&c, &fault);
            let (det, total) = crate::exhaustive_detectability(&c, &fault);
            assert_eq!((t.detected, t.total), (det, total), "{fault}");
            assert_eq!(t.oscillating, 0, "{fault}");
        }
        for kind in [BridgeKind::And, BridgeKind::Or] {
            for f in enumerate_nfbfs(&c, kind) {
                let fault = Fault::from(f);
                let t = ternary_exhaustive_detectability(&c, &fault);
                let (det, _) = crate::exhaustive_detectability(&c, &fault);
                assert_eq!(t.detected, det, "{fault}");
                assert_eq!(t.oscillating, 0, "{fault}");
            }
        }
        // Double stuck-ats force stems and branch pins together: every
        // checkpoint pair of the full adder and of c95.
        for c in [full_adder(), c95()] {
            for m in pair_multis(&c) {
                let fault = Fault::from(m);
                let t = ternary_exhaustive_detectability(&c, &fault);
                let (det, _) = crate::exhaustive_detectability(&c, &fault);
                assert_eq!(t.detected, det, "{fault}");
                assert_eq!(t.oscillating, 0, "{fault}");
            }
        }
    }

    /// An OR-bridge between a wire and its own inverted fanout oscillates
    /// on the vectors where neither side pins the loop: the classic ring
    /// x ─ NOT ─ x.
    #[test]
    fn inverting_loop_oscillates() {
        use dp_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("ring");
        let x = b.input("x");
        let y = b.input("y");
        let nx = b.not("nx", x).unwrap();
        let g = b.gate("g", dp_netlist::GateKind::And, &[nx, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        // Bridge x with g = AND(¬x, y): feedback through the NOT.
        let fault = Fault::from(BridgingFault::new(x, g, BridgeKind::Or));
        let t = ternary_exhaustive_detectability(&c, &fault);
        assert_eq!(t.total, 4);
        // On x=0, y=1 the wired-OR loop w = w ∨ (¬w ∧ 1) admits no stable
        // X-free value reachable from X: the wire oscillates.
        assert!(t.oscillating > 0, "{t:?}");
        // Oscillating vectors are not detections.
        assert!(t.detected + t.oscillating <= t.total);
    }

    /// Every feedback bridge of c17 terminates and reports coherent counts.
    #[test]
    fn feedback_bridges_terminate_on_c17() {
        let c = c17();
        for kind in [BridgeKind::And, BridgeKind::Or] {
            for f in enumerate_bridges(&c, kind, BridgeTopology::Feedback) {
                let fault = Fault::from(f);
                let t = ternary_exhaustive_detectability(&c, &fault);
                assert!(t.detected + t.oscillating <= t.total, "{fault}: {t:?}");
                // Scalar wrapper agrees with the packed count lane-by-lane.
                let mut scalar = 0u64;
                for v in 0..t.total {
                    let vector: Vec<bool> = (0..c.num_inputs()).map(|i| v >> i & 1 == 1).collect();
                    if ternary_detects(&c, &fault, &vector) {
                        scalar += 1;
                    }
                }
                assert_eq!(scalar, t.detected, "{fault}");
            }
        }
    }

    /// Ternary values at the outputs are definite whenever the binary
    /// simulator and the good circuit agree the model is acyclic.
    #[test]
    fn scalar_outputs_are_definite_for_stuck_faults() {
        let c = c95();
        let faults = checkpoint_faults(&c);
        for f in faults.iter().take(6) {
            let fault = Fault::from(*f);
            let vector: Vec<bool> = (0..c.num_inputs()).map(|i| i % 3 == 0).collect();
            let tern = ternary_faulty_outputs(&c, &fault, &vector);
            let binary = crate::faulty_outputs(&c, &fault, &vector);
            for (t, b) in tern.iter().zip(&binary) {
                assert_eq!(*t, if *b { Tern::One } else { Tern::Zero });
            }
        }
    }
}
