//! Checkpoint stuck-at faults and gate-input equivalence collapsing.

use std::fmt;

use dp_netlist::{Circuit, Driver, FanoutBranch, GateKind, NetId};

use crate::collapse::forward_once;

/// Where a stuck-at fault lives: on a whole net (the checkpoint case for
/// primary inputs) or on one fanout branch (a single gate-input pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The entire net is stuck; every consumer sees the faulty value.
    Net(NetId),
    /// Only one branch is stuck; other branches of the same stem see the
    /// good value.
    Branch(FanoutBranch),
}

impl FaultSite {
    /// The net carrying the faulted signal (the stem, for a branch).
    pub fn net(&self) -> NetId {
        match self {
            FaultSite::Net(n) => *n,
            FaultSite::Branch(b) => b.stem,
        }
    }

    /// Where the fault enters the circuit: the net every effect of the
    /// fault flows through — the stuck net itself, or a branch's sink gate.
    pub fn flow_net(&self) -> NetId {
        match self {
            FaultSite::Net(n) => *n,
            FaultSite::Branch(b) => b.sink,
        }
    }
}

/// A single stuck-at fault: the site is permanently at `value`.
///
/// # Examples
///
/// ```
/// use dp_faults::{checkpoint_faults, StuckAtFault};
/// use dp_netlist::generators::full_adder;
///
/// let c = full_adder();
/// let faults = checkpoint_faults(&c);
/// let sa0: Vec<&StuckAtFault> = faults.iter().filter(|f| !f.value).collect();
/// assert_eq!(sa0.len(), faults.len() / 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckAtFault {
    /// The fault location.
    pub site: FaultSite,
    /// The stuck value: `false` for stuck-at-0, `true` for stuck-at-1.
    pub value: bool,
}

impl fmt::Display for StuckAtFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = if self.value { 1 } else { 0 };
        match self.site {
            FaultSite::Net(n) => write!(f, "{n} s-a-{v}"),
            FaultSite::Branch(b) => {
                write!(f, "{}->{}#{} s-a-{v}", b.stem, b.sink, b.pin)
            }
        }
    }
}

/// The checkpoint fault set of a circuit: stuck-at-0 and stuck-at-1 on every
/// primary input and on every fanout branch (Bossen & Hong).
///
/// A test set detecting every checkpoint fault detects every single stuck-at
/// fault of the circuit, so this is the canonical target list. Order is
/// deterministic: PIs in declared order, then branches in topological stem
/// order, stuck-at-0 before stuck-at-1 at each site.
pub fn checkpoint_faults(circuit: &Circuit) -> Vec<StuckAtFault> {
    let mut faults = Vec::new();
    for &pi in circuit.inputs() {
        for value in [false, true] {
            faults.push(StuckAtFault {
                site: FaultSite::Net(pi),
                value,
            });
        }
    }
    for branch in circuit.fanout_branches() {
        for value in [false, true] {
            faults.push(StuckAtFault {
                site: FaultSite::Branch(branch),
                value,
            });
        }
    }
    faults
}

/// The *complete* single stuck-at universe: both polarities on every net
/// (PIs and gate outputs). Superset of [`checkpoint_faults`]; used for
/// redundancy identification, where internal gate-output faults matter.
pub fn all_stuck_faults(circuit: &Circuit) -> Vec<StuckAtFault> {
    let mut faults = Vec::with_capacity(2 * circuit.num_nets());
    for net in circuit.nets() {
        for value in [false, true] {
            faults.push(StuckAtFault {
                site: FaultSite::Net(net),
                value,
            });
        }
    }
    faults
}

/// Collapses a checkpoint fault list by gate-input fault equivalence,
/// keeping one representative per equivalence class (paper §2.1).
///
/// Two checkpoint faults are merged when they assert the *controlling* value
/// on two inputs of the same AND/NAND gate (both equivalent to output
/// stuck-at the controlled value), or dually the OR/NOR case. The rule is
/// one forwarding step of [`crate::collapse_faults`]' walk taken through a
/// controlled gate, so a net-site fault participates only if its net has a
/// single consumer and is not a primary output (otherwise the faulty value
/// is seen along a path the gate's output fault does not corrupt, and the
/// faults are not equivalent).
///
/// The returned list preserves the relative order of the surviving
/// representatives.
pub fn collapse_checkpoint_faults(circuit: &Circuit, faults: &[StuckAtFault]) -> Vec<StuckAtFault> {
    use std::collections::HashSet;
    // Key: the sink gate's output fault. The first fault seen for a key is
    // the representative; later ones collapse into it.
    let mut seen: HashSet<StuckAtFault> = HashSet::new();
    faults
        .iter()
        .copied()
        .filter(|&fault| {
            let key = forward_once(circuit, fault).filter(|out| {
                matches!(
                    circuit.driver(out.site.net()),
                    Driver::Gate {
                        kind: GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor,
                        ..
                    }
                )
            });
            key.is_none_or(|key| seen.insert(key))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_netlist::generators::{c17, full_adder};
    use dp_netlist::CircuitBuilder;

    #[test]
    fn c17_checkpoints() {
        let c = c17();
        let faults = checkpoint_faults(&c);
        // 5 PIs + branches: net 3 fans out to 2 gates, net 11 to 2, net 16
        // to 2 -> 6 branches. (5 + 6) * 2 = 22.
        assert_eq!(faults.len(), 22);
    }

    #[test]
    fn collapse_merges_controlling_values_on_nand() {
        let c = c17();
        let faults = checkpoint_faults(&c);
        let collapsed = collapse_checkpoint_faults(&c, &faults);
        assert!(collapsed.len() < faults.len());
        // Every collapsed fault still appears in the original list.
        for f in &collapsed {
            assert!(faults.contains(f));
        }
        // s-a-1 faults (non-controlling for NAND) all survive.
        let sa1_before = faults.iter().filter(|f| f.value).count();
        let sa1_after = collapsed.iter().filter(|f| f.value).count();
        assert_eq!(sa1_before, sa1_after);
    }

    #[test]
    fn collapse_keeps_xor_inputs() {
        let c = full_adder();
        let faults = checkpoint_faults(&c);
        let collapsed = collapse_checkpoint_faults(&c, &faults);
        // a, b, axb all feed XOR/AND mixes with fanout; the only collapsible
        // pairs are controlling values into the AND gates / OR gate.
        for f in &faults {
            let kept = collapsed.contains(f);
            if let FaultSite::Net(n) = f.site {
                // Multi-fanout PI checkpoints are never collapsed.
                if c.fanout(n).len() > 1 {
                    assert!(kept, "{f} should survive");
                }
            }
        }
    }

    #[test]
    fn single_fanout_pi_collapses_with_branch() {
        // x and y both feed one AND gate; their s-a-0 faults are equivalent.
        let mut b = CircuitBuilder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", dp_netlist::GateKind::And, &[x, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let faults = checkpoint_faults(&c);
        assert_eq!(faults.len(), 4);
        let collapsed = collapse_checkpoint_faults(&c, &faults);
        // x s-a-0 ≡ y s-a-0 -> 3 classes.
        assert_eq!(collapsed.len(), 3);
    }

    #[test]
    fn primary_output_input_keeps_its_own_class() {
        // `a` feeds `g = AND(a, x)` and is also a PO, so `a s-a-0` shows at
        // PO `a` on half the vectors while `x s-a-0` is seen only through
        // `g`: the two are not equivalent and both survive.
        let mut b = CircuitBuilder::new("and_po");
        let a = b.input("a");
        let x = b.input("x");
        let g = b.gate("g", dp_netlist::GateKind::And, &[a, x]).unwrap();
        b.output(a);
        b.output(g);
        let c = b.finish().unwrap();
        let faults = checkpoint_faults(&c);
        assert_eq!(collapse_checkpoint_faults(&c, &faults), faults);
    }

    #[test]
    fn display_formats() {
        let c = c17();
        let faults = checkpoint_faults(&c);
        let s = faults[0].to_string();
        assert!(s.contains("s-a-0"));
    }

    #[test]
    fn site_net_resolves_stem() {
        let c = c17();
        for f in checkpoint_faults(&c) {
            match f.site {
                FaultSite::Net(n) => assert!(c.is_input(n)),
                FaultSite::Branch(b) => {
                    assert_eq!(f.site.net(), b.stem);
                    assert_eq!(f.site.flow_net(), b.sink);
                }
            }
        }
    }
}
