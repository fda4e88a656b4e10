//! Structural fault collapsing: equivalence classes over a fault universe.
//!
//! Two faults are *equivalent* when their faulty circuits compute the same
//! function at every primary output — one complete test set serves both, so
//! an analysis engine only needs to propagate one representative per class.
//! This module computes the classic gate-local equivalences structurally:
//!
//! * **AND/NAND**: stuck-at-0 on a fanout-free input ≡ stuck-at the
//!   controlled value on the output (`0` for AND, `1` for NAND);
//! * **OR/NOR**: stuck-at-1 on a fanout-free input ≡ output stuck-at
//!   (`1` for OR, `0` for NOR);
//! * **BUF/NOT chains**: any stuck-at on a fanout-free input ≡ the same
//!   (BUF) or opposite (NOT) stuck-at on the output.
//!
//! Each rule is applied to a fixpoint, so inverter chains and cascades of
//! controlled gates collapse transitively: `a s-a-0 → g s-a-1 → h s-a-0 →
//! ...` all land on one canonical fault. A *fanout-free input* is either a
//! fanout-branch site (which by definition only feeds its sink pin) or a
//! net site whose net has exactly one consumer **and is not itself a
//! primary output** — if the net fed a second gate or a PO, the input fault
//! would be visible along a path the output fault does not corrupt, and the
//! two would not be equivalent.
//!
//! Soundness is purely functional: forwarding `f` to `g` is performed only
//! when the faulty circuit of `f` and the faulty circuit of `g` assign
//! identical values to every net from `g` onward, and `f`'s site influences
//! nothing except through `g`. OBDD canonicity then guarantees the engine
//! derives *bit-identical* scalars (detectability, test count, per-output
//! observability) for every member — the property pinned by this repo's
//! golden and proptest layers. Adherence is **not** shared: its syndrome
//! bound is a property of the member's own site net, so sweep drivers must
//! recompute it per member.

use dp_netlist::{Circuit, Driver, GateKind};

use crate::stuck::{FaultSite, StuckAtFault};
use crate::Fault;

/// One equivalence class: indices into the fault slice handed to
/// [`collapse_faults`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultClass {
    /// Index of the class representative — the first member in input order.
    /// The engine analyses this fault once for the whole class.
    pub representative: usize,
    /// All member indices, ascending; always contains `representative`.
    pub members: Vec<usize>,
}

/// The partition of a fault universe into equivalence classes, in order of
/// first appearance (class order is representative order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapsedUniverse {
    /// The classes; every input index appears in exactly one class.
    pub classes: Vec<FaultClass>,
    /// Number of faults the partition covers (the input slice length).
    pub num_faults: usize,
}

impl CollapsedUniverse {
    /// Number of equivalence classes (= propagations an engine must run).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Faults merged away: `num_faults - num_classes`.
    pub fn num_collapsed(&self) -> usize {
        self.num_faults - self.classes.len()
    }

    /// Aggregate shape of the partition, for sweep reports.
    pub fn stats(&self) -> CollapseStats {
        CollapseStats {
            faults: self.num_faults,
            classes: self.classes.len(),
            singleton_classes: self.classes.iter().filter(|c| c.members.len() == 1).count(),
            largest_class: self
                .classes
                .iter()
                .map(|c| c.members.len())
                .max()
                .unwrap_or(0),
        }
    }
}

/// Aggregate shape of a [`CollapsedUniverse`]: how much structural collapsing
/// bought. These numbers depend only on the circuit and the fault list —
/// never on scheduling — so sweep reports publish them in their
/// scheduling-invariant `result` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollapseStats {
    /// Faults the partition covers (the input slice length).
    pub faults: usize,
    /// Equivalence classes (= representative propagations required).
    pub classes: usize,
    /// Classes with exactly one member (nothing collapsed into them).
    pub singleton_classes: usize,
    /// Member count of the largest class; `0` for an empty universe.
    pub largest_class: usize,
}

/// Partitions `faults` into structural equivalence classes against
/// `circuit`.
///
/// Stuck-at faults are grouped by their canonical forwarded fault (see
/// [`canonical_stuck_at`]); bridging faults — and any stuck-at fault whose
/// site does not satisfy a collapsing rule — form singleton classes. The
/// function is total: a fault referencing nets outside the circuit is
/// placed in a singleton class rather than rejected, so sweep drivers can
/// keep their per-fault panic isolation.
///
/// # Examples
///
/// ```
/// use dp_faults::{checkpoint_faults, collapse_faults, Fault};
/// use dp_netlist::generators::c17;
///
/// let c = c17();
/// let faults: Vec<Fault> = checkpoint_faults(&c).into_iter().map(Fault::from).collect();
/// let classes = collapse_faults(&c, &faults);
/// assert_eq!(classes.num_faults, faults.len());
/// assert!(classes.num_classes() < faults.len(), "c17 collapses");
/// let covered: usize = classes.classes.iter().map(|c| c.members.len()).sum();
/// assert_eq!(covered, faults.len());
/// ```
pub fn collapse_faults(circuit: &Circuit, faults: &[Fault]) -> CollapsedUniverse {
    use std::collections::{HashMap, HashSet};
    // Nets participating in any bridging pair of this universe. The
    // forwarding equivalence proof assumes every net between a stuck-at
    // site and its canonical site carries the fault-free function of its
    // driver; a bridge elsewhere in the same universe sits exactly on such
    // a net, so collapsing refuses to forward from or into a bridged net
    // rather than assume the models never interact (see DESIGN.md §10).
    let bridged: HashSet<usize> = faults
        .iter()
        .filter_map(|f| match f {
            Fault::Bridging(b) => Some([b.a.index(), b.b.index()]),
            _ => None,
        })
        .flatten()
        .collect();
    // Canonical stuck-at key → position of its class in `classes`.
    let mut index: HashMap<StuckAtFault, usize> = HashMap::new();
    let mut classes: Vec<FaultClass> = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        let key = match fault {
            Fault::StuckAt(f) if site_in_circuit(circuit, f) => {
                Some(canonical_stuck_at_guarded(circuit, *f, &bridged))
            }
            _ => None,
        };
        match key {
            Some(key) => match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    classes[*e.get()].members.push(i);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(classes.len());
                    classes.push(FaultClass {
                        representative: i,
                        members: vec![i],
                    });
                }
            },
            // Bridging faults and out-of-circuit sites: singleton class.
            None => classes.push(FaultClass {
                representative: i,
                members: vec![i],
            }),
        }
    }
    CollapsedUniverse {
        classes,
        num_faults: faults.len(),
    }
}

/// `true` when every net the site mentions exists in `circuit` — guards the
/// structural walk so [`collapse_faults`] stays total on foreign faults.
fn site_in_circuit(circuit: &Circuit, f: &StuckAtFault) -> bool {
    let n = circuit.num_nets();
    match f.site {
        FaultSite::Net(net) => net.index() < n,
        FaultSite::Branch(b) => b.stem.index() < n && b.sink.index() < n,
    }
}

/// The canonical fault of a stuck-at fault's equivalence class: the result
/// of forwarding the fault through fanout-free controlled gates and
/// BUF/NOT links until no rule applies.
///
/// Two faults are structurally equivalent exactly when their canonical
/// faults are equal. The walk terminates because every step moves strictly
/// later in the topological net order.
///
/// # Examples
///
/// ```
/// use dp_faults::{canonical_stuck_at, FaultSite, StuckAtFault};
/// use dp_netlist::{CircuitBuilder, GateKind};
///
/// let mut b = CircuitBuilder::new("and2");
/// let x = b.input("x");
/// let y = b.input("y");
/// let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
/// b.output(g);
/// let c = b.finish().unwrap();
/// // Both input s-a-0 faults forward to the output s-a-0.
/// let gx = canonical_stuck_at(&c, StuckAtFault { site: FaultSite::Net(x), value: false });
/// let gy = canonical_stuck_at(&c, StuckAtFault { site: FaultSite::Net(y), value: false });
/// assert_eq!(gx, StuckAtFault { site: FaultSite::Net(g), value: false });
/// assert_eq!(gx, gy);
/// ```
pub fn canonical_stuck_at(circuit: &Circuit, fault: StuckAtFault) -> StuckAtFault {
    let mut cur = fault;
    while let Some(next) = forward_once(circuit, cur) {
        cur = next;
    }
    cur
}

/// [`canonical_stuck_at`] with the bridged-net guard: the walk never leaves
/// a net that participates in a bridging pair of the universe and never
/// steps onto one.
fn canonical_stuck_at_guarded(
    circuit: &Circuit,
    fault: StuckAtFault,
    bridged: &std::collections::HashSet<usize>,
) -> StuckAtFault {
    let mut cur = fault;
    while !bridged.contains(&cur.site.net().index()) {
        match forward_once(circuit, cur) {
            Some(next) if !bridged.contains(&next.site.net().index()) => cur = next,
            _ => break,
        }
    }
    cur
}

/// One forwarding step, or `None` when the fault is already canonical.
pub(crate) fn forward_once(circuit: &Circuit, fault: StuckAtFault) -> Option<StuckAtFault> {
    // The site must feed exactly one gate pin: a branch feeds its sink by
    // construction; a net qualifies only with a single consumer and no
    // direct PO observation.
    let sink = match fault.site {
        FaultSite::Branch(b) => b.sink,
        FaultSite::Net(n) => {
            if circuit.is_output(n) {
                return None;
            }
            let fo = circuit.fanout(n);
            if fo.len() != 1 {
                return None;
            }
            fo[0].0
        }
    };
    let Driver::Gate { kind, .. } = circuit.driver(sink) else {
        return None;
    };
    let out_value = match kind {
        // A controlling input value forces the controlled output value.
        GateKind::And if !fault.value => false,
        GateKind::Nand if !fault.value => true,
        GateKind::Or if fault.value => true,
        GateKind::Nor if fault.value => false,
        // Unary links always forward.
        GateKind::Buf => fault.value,
        GateKind::Not => !fault.value,
        // XOR/XNOR have no controlling value; non-controlling stuck values
        // are dominated, not equivalent.
        _ => return None,
    };
    Some(StuckAtFault {
        site: FaultSite::Net(sink),
        value: out_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{checkpoint_faults, BridgeKind, BridgingFault};
    use dp_netlist::{CircuitBuilder, NetId};

    fn net(site: NetId, value: bool) -> StuckAtFault {
        StuckAtFault {
            site: FaultSite::Net(site),
            value,
        }
    }

    /// One gate of each controlled kind; asserts which input value forwards.
    #[test]
    fn controlled_gate_rules() {
        for (kind, controlling, out_value) in [
            (GateKind::And, false, false),
            (GateKind::Nand, false, true),
            (GateKind::Or, true, true),
            (GateKind::Nor, true, false),
        ] {
            let mut b = CircuitBuilder::new("g2");
            let x = b.input("x");
            let y = b.input("y");
            let g = b.gate("g", kind, &[x, y]).unwrap();
            b.output(g);
            let c = b.finish().unwrap();
            // Controlling value forwards to the output...
            assert_eq!(
                canonical_stuck_at(&c, net(x, controlling)),
                net(g, out_value),
                "{kind:?}"
            );
            // ...and merges the two inputs into one class with the output.
            assert_eq!(
                canonical_stuck_at(&c, net(y, controlling)),
                canonical_stuck_at(&c, net(g, out_value)),
                "{kind:?}"
            );
            // The non-controlling value stays put (dominance, not
            // equivalence).
            assert_eq!(
                canonical_stuck_at(&c, net(x, !controlling)),
                net(x, !controlling),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn buf_and_not_chains_forward_to_the_end() {
        let mut b = CircuitBuilder::new("chain");
        let x = b.input("x");
        let b1 = b.gate("b1", GateKind::Buf, &[x]).unwrap();
        let n1 = b.not("n1", b1).unwrap();
        let n2 = b.not("n2", n1).unwrap();
        b.output(n2);
        let c = b.finish().unwrap();
        // x s-a-1 → b1 s-a-1 → n1 s-a-0 → n2 s-a-1 (n2 is a PO: stop).
        assert_eq!(canonical_stuck_at(&c, net(x, true)), net(n2, true));
        assert_eq!(canonical_stuck_at(&c, net(n1, false)), net(n2, true));
        // All four sites, matched polarity, share one class per polarity.
        let faults: Vec<Fault> = [x, b1, n1, n2]
            .iter()
            .flat_map(|&n| [net(n, false), net(n, true)])
            .map(Fault::from)
            .collect();
        let classes = collapse_faults(&c, &faults);
        assert_eq!(classes.num_classes(), 2);
        assert_eq!(classes.num_collapsed(), 6);
    }

    #[test]
    fn xor_inputs_never_forward() {
        let mut b = CircuitBuilder::new("xor2");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::Xor, &[x, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        for v in [false, true] {
            assert_eq!(canonical_stuck_at(&c, net(x, v)), net(x, v));
        }
    }

    #[test]
    fn fanout_blocks_net_forwarding_but_not_branches() {
        // x feeds two AND gates: the net fault is NOT equivalent to either
        // gate output fault, but each branch fault is.
        let mut b = CircuitBuilder::new("fan");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let g1 = b.gate("g1", GateKind::And, &[x, y]).unwrap();
        let g2 = b.gate("g2", GateKind::And, &[x, z]).unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        assert_eq!(canonical_stuck_at(&c, net(x, false)), net(x, false));
        for br in c.fanout_branches() {
            let f = StuckAtFault {
                site: FaultSite::Branch(br),
                value: false,
            };
            assert_eq!(
                canonical_stuck_at(&c, f),
                net(br.sink, false),
                "branch into {} forwards",
                br.sink
            );
        }
    }

    #[test]
    fn primary_output_site_blocks_forwarding() {
        // g is both a PO and feeds h: a fault on g is directly observable,
        // so it must not forward into h even though h absorbs it.
        let mut b = CircuitBuilder::new("po");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
        let h = b.not("h", g).unwrap();
        b.output(g);
        b.output(h);
        let c = b.finish().unwrap();
        assert_eq!(canonical_stuck_at(&c, net(g, false)), net(g, false));
        // x still forwards into g (x itself is not a PO).
        assert_eq!(canonical_stuck_at(&c, net(x, false)), net(g, false));
    }

    #[test]
    fn bridging_faults_are_singletons() {
        let mut b = CircuitBuilder::new("mix");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let faults = vec![
            Fault::from(net(x, false)),
            Fault::from(BridgingFault::new(x, y, BridgeKind::And)),
            Fault::from(net(y, false)),
        ];
        let classes = collapse_faults(&c, &faults);
        // The bridge is a singleton, and — because x and y participate in a
        // bridging pair of this universe — the two stuck-at faults no longer
        // forward into g: the bridged-net guard keeps them singletons too.
        assert_eq!(classes.num_classes(), 3);
        assert_eq!(classes.classes[0].members, vec![0]);
        assert_eq!(classes.classes[1].members, vec![1]);
        assert_eq!(classes.classes[1].representative, 1);
        assert_eq!(classes.classes[2].members, vec![2]);
        // Without the bridge in the universe the same stuck-at pair merges.
        let stuck_only = vec![Fault::from(net(x, false)), Fault::from(net(y, false))];
        assert_eq!(collapse_faults(&c, &stuck_only).num_classes(), 1);
    }

    #[test]
    fn bridge_on_a_collapsible_buffer_chain_blocks_forwarding() {
        // x → b1 → m → n2 → PO is one BUF chain: without a bridge all the
        // s-a-0 faults collapse into a single class. A bridge touching the
        // middle net m must split the chain: faults upstream of m stop just
        // before it, m's own fault stays put, faults after m still forward.
        let mut b = CircuitBuilder::new("chain_bridge");
        let x = b.input("x");
        let w = b.input("w");
        let b1 = b.gate("b1", GateKind::Buf, &[x]).unwrap();
        let m = b.gate("m", GateKind::Buf, &[b1]).unwrap();
        let n2 = b.gate("n2", GateKind::Buf, &[m]).unwrap();
        b.output(n2);
        let wo = b.gate("wo", GateKind::Buf, &[w]).unwrap();
        b.output(wo);
        let c = b.finish().unwrap();
        let chain = [x, b1, m, n2];
        let stuck: Vec<Fault> = chain.iter().map(|&n| Fault::from(net(n, false))).collect();
        // Baseline: the whole chain is one class.
        assert_eq!(collapse_faults(&c, &stuck).num_classes(), 1);
        // Same universe plus a bridge on the middle net m.
        let mut with_bridge = stuck.clone();
        with_bridge.push(Fault::from(BridgingFault::new(m, w, BridgeKind::And)));
        let classes = collapse_faults(&c, &with_bridge);
        // {x, b1} stop at b1 (cannot step onto m), {m} is pinned, {n2}
        // forwards freely past the bridge, and the bridge is a singleton.
        assert_eq!(classes.num_classes(), 4);
        assert_eq!(classes.classes[0].members, vec![0, 1]);
        assert_eq!(classes.classes[1].members, vec![2]);
        assert_eq!(classes.classes[2].members, vec![3]);
        assert_eq!(classes.classes[3].members, vec![4]);
    }

    #[test]
    fn multi_stuck_at_faults_are_singletons() {
        let c = dp_netlist::generators::c17();
        let base = checkpoint_faults(&c);
        let faults = vec![
            Fault::from(base[0]),
            Fault::from(crate::MultiStuckAt::new(vec![base[0], base[2]])),
            Fault::from(crate::MultiStuckAt::new(vec![base[0], base[2]])),
        ];
        let classes = collapse_faults(&c, &faults);
        // Identical multis still never merge: the collapsing rules are
        // proven for single stuck-at faults only.
        assert_eq!(classes.num_classes(), 3);
        assert!(classes.classes[1..].iter().all(|cl| cl.members.len() == 1));
    }

    #[test]
    fn foreign_faults_stay_singletons_without_panicking() {
        let small = {
            let mut b = CircuitBuilder::new("tiny");
            let x = b.input("x");
            b.output(x);
            b.finish().unwrap()
        };
        // A fault on a net index far beyond the tiny circuit.
        let foreign = Fault::from(net(NetId::from_index(1000), false));
        let classes = collapse_faults(&small, &[foreign.clone(), foreign]);
        // Totality, not equivalence: each foreign fault is its own class.
        assert_eq!(classes.num_classes(), 2);
    }

    #[test]
    fn checkpoint_classes_partition_the_universe() {
        let c = dp_netlist::generators::c17();
        let faults: Vec<Fault> = checkpoint_faults(&c).into_iter().map(Fault::from).collect();
        let classes = collapse_faults(&c, &faults);
        let mut seen = vec![false; faults.len()];
        for class in &classes.classes {
            assert_eq!(class.members[0], class.representative);
            for w in class.members.windows(2) {
                assert!(w[0] < w[1], "members sorted");
            }
            for &m in &class.members {
                assert!(!seen[m], "fault {m} in two classes");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        // All-NAND c17 collapses every s-a-0 branch/single-fanout-PI fault.
        assert!(classes.num_collapsed() > 0);
    }
}
