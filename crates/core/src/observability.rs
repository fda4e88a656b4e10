//! CATAPULT-style disjoint controllability/observability analysis — the
//! method Difference Propagation was built as an alternative to.
//!
//! The paper (§3): "Unlike CATAPULT, Difference Propagation does not derive
//! its observability functions disjointly from the control information,
//! thus eliminating the need for explicit use of the Boolean difference."
//! This module implements exactly that older scheme, as a second *exact*
//! engine for cross-validation and benchmarking:
//!
//! * the **observability function** of a net is the Boolean difference of
//!   each output with respect to the net, OR-ed over outputs:
//!   `O(x) = ⋁_k ∂PO_k/∂net`, computed by cutting the net (fresh variable
//!   `y`), then `∂PO/∂y = PO|y=0 ⊕ PO|y=1`;
//! * a stuck-at-v test must control the line to `¬v` **and** observe it:
//!   the complete test set is `excite ∧ O`, where `excite` is the net
//!   function (stuck-at-0) or its complement (stuck-at-1).
//!
//! For net-site faults this agrees bit-for-bit with Difference Propagation
//! (asserted in tests); branch faults need the per-pin refinement DP gets
//! for free, which is part of why the paper moved on.

use dp_bdd::{ManagerStats, NodeId};
use dp_netlist::{Circuit, NetId};

use crate::good::GoodFunctions;

/// Exact per-net observability analysis (the CATAPULT-style baseline).
///
/// # Examples
///
/// ```
/// use dp_core::Observability;
/// use dp_netlist::generators::c17;
///
/// let circuit = c17();
/// let mut obs = Observability::new(&circuit);
/// let po = circuit.outputs()[0];
/// // A PO observes itself always.
/// assert_eq!(obs.probability(po), 1.0);
/// ```
#[derive(Debug)]
pub struct Observability<'c> {
    circuit: &'c Circuit,
    /// Exact good functions (for excitation terms).
    good: GoodFunctions,
    /// Counters of every per-net cut build, summed.
    cut_work: ManagerStats,
    /// Observability functions computed so far, by net index. The exact
    /// manager is never collected, so the handles stay valid.
    observed: Vec<Option<NodeId>>,
}

impl<'c> Observability<'c> {
    /// Builds the analysis for a circuit.
    pub fn new(circuit: &'c Circuit) -> Self {
        Observability {
            circuit,
            good: GoodFunctions::build(circuit),
            cut_work: ManagerStats::default(),
            observed: vec![None; circuit.num_nets()],
        }
    }

    /// The observability function of `net` over the primary inputs: true on
    /// the vectors whose outputs are sensitive to the net's value.
    ///
    /// The first call for a net rebuilds the cut functions for it (the cost
    /// CATAPULT pays per line that DP folds into one propagation); both
    /// stuck values of the line then share the result.
    pub fn function(&mut self, net: NetId) -> NodeId {
        if let Some(o) = self.observed[net.index()] {
            return o;
        }
        let o = if self.circuit.is_input(net) {
            self.pi_observability(net)
        } else {
            self.cut_observability(net)
        };
        self.observed[net.index()] = Some(o);
        o
    }

    /// The observability of a gate-driven net: cut it, then OR every
    /// output's Boolean difference with respect to the cut variable.
    fn cut_observability(&mut self, net: NetId) -> NodeId {
        let cut = GoodFunctions::build_with_cuts(self.circuit, &[net]);
        let y = self.circuit.num_inputs() as u32;
        // O = ⋁_k ∂PO_k/∂y, a function of the PIs only.
        let mut sensitive_over_cut = NodeId::FALSE;
        let outputs: Vec<NodeId> = self
            .circuit
            .outputs()
            .iter()
            .map(|o| cut.node(*o))
            .collect();
        let mut cut = cut;
        let m = cut.manager_mut();
        for po in outputs {
            let lo = m.restrict(po, y, false);
            let hi = m.restrict(po, y, true);
            let diff = m.xor(lo, hi);
            sensitive_over_cut = m.or(sensitive_over_cut, diff);
        }
        self.cut_work = self.cut_work.merged(m.stats());
        // Transfer into the exact manager (same PI variable order; the cut
        // manager has one extra trailing variable y, absent from the
        // Boolean difference). Rebuild by cube enumeration would be
        // exponential; instead rebuild structurally.
        transfer(m, sensitive_over_cut, self.good.manager_mut())
    }

    /// Observability of a primary input: the Boolean difference is taken
    /// directly on its variable in the exact manager (no cut needed).
    fn pi_observability(&mut self, pi: NetId) -> NodeId {
        let var = self
            .circuit
            .inputs()
            .iter()
            .position(|&p| p == pi)
            .expect("net is a primary input") as u32;
        let outputs: Vec<NodeId> = self
            .circuit
            .outputs()
            .iter()
            .map(|o| self.good.node(*o))
            .collect();
        let m = self.good.manager_mut();
        let mut acc = NodeId::FALSE;
        for po in outputs {
            let lo = m.restrict(po, var, false);
            let hi = m.restrict(po, var, true);
            let diff = m.xor(lo, hi);
            acc = m.or(acc, diff);
        }
        acc
    }

    /// The observability probability of a net: the fraction of input
    /// vectors under which its value is visible at some PO.
    pub fn probability(&mut self, net: NetId) -> f64 {
        let f = self.function(net);
        self.good.manager().density(f)
    }

    /// The complete test set of a *net-site* stuck-at fault, computed the
    /// CATAPULT way: excitation ∧ observability.
    pub fn stuck_at_test_set(&mut self, net: NetId, stuck_value: bool) -> NodeId {
        let o = self.function(net);
        let f = self.good.node(net);
        let m = self.good.manager_mut();
        let excite = if stuck_value { m.not(f) } else { f };
        m.and(excite, o)
    }

    /// Shared good functions (and the manager owning returned nodes).
    pub fn good(&self) -> &GoodFunctions {
        &self.good
    }

    /// The whole analysis's counters: the exact manager's (good build and
    /// transfers included) merged with every per-net cut build's.
    pub fn stats(&self) -> ManagerStats {
        self.cut_work.merged(self.good.manager().stats())
    }
}

/// Structurally copies a BDD from one manager into another with the same
/// variable semantics for the shared prefix of variables.
fn transfer(src: &dp_bdd::Manager, node: NodeId, dst: &mut dp_bdd::Manager) -> NodeId {
    use std::collections::HashMap;
    fn rec(
        src: &dp_bdd::Manager,
        node: NodeId,
        dst: &mut dp_bdd::Manager,
        memo: &mut HashMap<NodeId, NodeId>,
    ) -> NodeId {
        if node.is_terminal() {
            return node;
        }
        if let Some(&m) = memo.get(&node) {
            return m;
        }
        let var = src.node_var(node);
        let lo = rec(src, src.node_lo(node), dst, memo);
        let hi = rec(src, src.node_hi(node), dst, memo);
        let v = dst.var(var);
        let r = dst.ite(v, hi, lo);
        memo.insert(node, r);
        r
    }
    let mut memo = HashMap::new();
    rec(src, node, dst, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DiffProp;
    use dp_faults::{Fault, FaultSite, StuckAtFault};
    use dp_netlist::generators::{c17, c95, full_adder, random_circuit, RandomCircuitConfig};

    /// The CATAPULT-style test sets must equal DP's for net-site faults.
    fn cross_validate(circuit: &Circuit) {
        let mut obs = Observability::new(circuit);
        let mut dp = DiffProp::new(circuit);
        for net in circuit.nets() {
            for value in [false, true] {
                let catapult_set = obs.stuck_at_test_set(net, value);
                let catapult_count = obs.good().manager().sat_count(catapult_set);
                let fault = Fault::from(StuckAtFault {
                    site: FaultSite::Net(net),
                    value,
                });
                let analysis = dp.analyze(&fault);
                assert_eq!(
                    Some(catapult_count),
                    analysis.test_count,
                    "{} s-a-{} on {}",
                    circuit.net_name(net),
                    value as u8,
                    circuit.name()
                );
            }
        }
    }

    #[test]
    fn matches_dp_on_c17() {
        cross_validate(&c17());
    }

    #[test]
    fn matches_dp_on_full_adder() {
        cross_validate(&full_adder());
    }

    #[test]
    fn matches_dp_on_c95() {
        cross_validate(&c95());
    }

    #[test]
    fn matches_dp_on_random_circuits() {
        for seed in 0..6 {
            let c = random_circuit(
                seed,
                RandomCircuitConfig {
                    inputs: 5,
                    gates: 18,
                    max_fanin: 3,
                },
            );
            cross_validate(&c);
        }
    }

    #[test]
    fn pos_are_always_observable() {
        let c = c95();
        let mut obs = Observability::new(&c);
        for &po in c.outputs() {
            assert_eq!(obs.probability(po), 1.0, "{}", c.net_name(po));
        }
    }

    #[test]
    fn dangling_nets_are_never_observable() {
        use dp_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("dangle");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
        let _dead = b.gate("dead", GateKind::Or, &[x, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let dead = c.find_net("dead").unwrap();
        let mut obs = Observability::new(&c);
        assert_eq!(obs.probability(dead), 0.0);
    }

    #[test]
    fn observability_bounds_detectability() {
        // det(s-a-v) ≤ observability: a fault can only be seen where the
        // line is visible at all.
        let c = c95();
        let mut obs = Observability::new(&c);
        let mut dp = DiffProp::new(&c);
        for net in c.nets().take(12) {
            let o = obs.probability(net);
            for value in [false, true] {
                let fault = Fault::from(StuckAtFault {
                    site: FaultSite::Net(net),
                    value,
                });
                let d = dp.analyze(&fault).detectability;
                assert!(d <= o + 1e-12, "{}: det {} > obs {}", c.net_name(net), d, o);
            }
        }
    }
}
