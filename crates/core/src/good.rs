//! Good (fault-free) net functions as OBDDs, plus syndromes.

use dp_bdd::{BddError, BudgetConfig, FrozenManager, Manager, ManagerStats, NodeId, Var};
use dp_netlist::{Circuit, Driver, GateKind, NetId};

/// The fault-free Boolean function of every net of a circuit, built once and
/// shared by all fault analyses.
///
/// The OBDD variable `i` is the circuit's `i`-th primary input in declared
/// order — the paper's §2.2 argues the benchmark input order is meaningful,
/// and it works well for all generated circuits.
///
/// # Examples
///
/// ```
/// use dp_core::GoodFunctions;
/// use dp_netlist::generators::c17;
///
/// let c = c17();
/// let mut good = GoodFunctions::build(&c);
/// let n22 = c.outputs()[0];
/// // Syndrome: the fraction of input vectors driving the net to 1.
/// let s = good.syndrome(n22);
/// assert!(s > 0.0 && s < 1.0);
/// ```
#[derive(Debug)]
pub struct GoodFunctions {
    manager: Manager,
    funcs: Vec<NodeId>,
}

impl GoodFunctions {
    /// Assembles a `GoodFunctions` from raw parts (a thaw or a decomposed
    /// build).
    pub(crate) fn from_parts(manager: Manager, funcs: Vec<NodeId>) -> Self {
        GoodFunctions { manager, funcs }
    }

    /// Builds the good functions with the declared-input-order variable
    /// assignment.
    pub fn build(circuit: &Circuit) -> Self {
        let order: Vec<Var> = (0..circuit.num_inputs() as Var).collect();
        Self::build_with_order(circuit, &order)
    }

    /// Builds the good functions with an explicit variable order: `order[l]`
    /// is the *input index* (position in [`Circuit::inputs`]) placed at OBDD
    /// level `l`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..num_inputs()`.
    pub fn build_with_order(circuit: &Circuit, order: &[Var]) -> Self {
        Self::try_build_with_order(circuit, order, BudgetConfig::UNLIMITED)
            .expect("unlimited budget cannot trip")
    }

    /// Budgeted variant of [`GoodFunctions::build_with_order`]. Returns
    /// [`BddError::BudgetExceeded`] instead of growing without bound when
    /// the budget trips mid-build. The returned manager keeps `budget` armed
    /// (with a fresh window) so subsequent analyses are bounded by the same
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..num_inputs()`.
    pub fn try_build_with_order(
        circuit: &Circuit,
        order: &[Var],
        budget: BudgetConfig,
    ) -> Result<Self, BddError> {
        Self::try_build_counted(circuit, order, budget).map_err(|(err, _)| err)
    }

    /// [`GoodFunctions::try_build_with_order`], whose error also carries
    /// the counters of the build that tripped, so a sweep can report the
    /// work it spent before giving up.
    pub(crate) fn try_build_counted(
        circuit: &Circuit,
        order: &[Var],
        budget: BudgetConfig,
    ) -> Result<Self, (BddError, Box<ManagerStats>)> {
        assert_eq!(order.len(), circuit.num_inputs(), "order length mismatch");
        let mut manager = Manager::with_order(order).expect("order must be a permutation");
        // Pre-size the unique table from the circuit: net count times a
        // small per-net node estimate kills the rehash storms of a cold
        // table during the build (growth still happens for blow-up-prone
        // circuits, just from a warm start).
        manager.reserve_nodes((circuit.num_nets() * 4).max(1 << 10));
        manager.set_budget(budget);
        let funcs = build_nets(circuit, &mut manager, |_, _, f| f);
        if let Some(err) = manager.budget_exceeded() {
            return Err((err, Box::new(manager.stats().clone())));
        }
        manager.reset_budget_window();
        Ok(GoodFunctions { manager, funcs })
    }

    /// The OBDD of a net's good function.
    pub fn node(&self, n: NetId) -> NodeId {
        self.funcs[n.index()]
    }

    /// All net functions, indexed by [`NetId::index`].
    pub fn nodes(&self) -> &[NodeId] {
        &self.funcs
    }

    /// The syndrome of a net (Savir): the fraction of input vectors that set
    /// it to 1. For a stuck-at-0 fault on the net this upper-bounds the
    /// detectability; for stuck-at-1 the bound is `1 − syndrome`.
    pub fn syndrome(&mut self, n: NetId) -> f64 {
        let node = self.funcs[n.index()];
        self.manager.density(node)
    }

    /// Shared access to the manager (for counting, cube extraction, ...).
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// Mutable access to the manager (difference propagation allocates new
    /// nodes in the same space so the good functions stay shared).
    pub fn manager_mut(&mut self) -> &mut Manager {
        &mut self.manager
    }

    /// Total BDD nodes currently allocated (a cost metric for experiments).
    pub fn num_nodes(&self) -> usize {
        self.manager.num_nodes()
    }

    /// Garbage-collects everything except the good functions themselves.
    /// Any externally held `NodeId` (e.g. in a
    /// [`FaultAnalysis`](crate::FaultAnalysis)) is invalidated.
    pub fn gc(&mut self) {
        let remap = self.manager.gc(&self.funcs.clone());
        for f in &mut self.funcs {
            *f = remap.map(*f);
        }
    }

    /// Runs sifting-based dynamic variable reordering over the good
    /// functions, which leaves only them in the node table. Returns
    /// `(live nodes before, after)`.
    ///
    /// The sift ends with a collection, so net handles are *remapped*, not
    /// stable — this method adopts the remapped ids, and any externally
    /// held analysis `NodeId`s are invalidated.
    pub fn sift(&mut self) -> (usize, usize) {
        let before = self.manager.live_size(&self.funcs);
        let after = self.manager.sift(&mut self.funcs);
        (before, after)
    }

    /// Consumes the good functions and freezes them into an immutable,
    /// shareable [`GoodSnapshot`]. The manager's node table and variable
    /// order are fixed from here on; every [`GoodSnapshot::thaw`] yields a
    /// private delta manager layered on the shared base.
    ///
    /// # Panics
    ///
    /// Panics if the manager already extends a frozen base or has a pending
    /// budget trip (see [`Manager::freeze`]).
    pub fn freeze(self) -> GoodSnapshot {
        GoodSnapshot {
            frozen: self.manager.freeze(),
            funcs: self.funcs,
        }
    }
}

/// An immutable, `Send + Sync` snapshot of built [`GoodFunctions`]:
/// the frozen BDD base plus the per-net function handles.
///
/// Cloning is an `Arc` bump on the node table (the handle vectors are
/// copied). Hand clones to worker threads and [`GoodSnapshot::thaw`] on each
/// to get private delta managers that resolve every good-function node
/// against the shared base with zero synchronisation — the base is never
/// mutated again, which [`GoodSnapshot::table_digest`] lets tests verify.
#[derive(Debug, Clone)]
pub struct GoodSnapshot {
    frozen: FrozenManager,
    funcs: Vec<NodeId>,
}

impl GoodSnapshot {
    /// Reconstructs working [`GoodFunctions`] over a fresh delta manager.
    /// Every `NodeId` in the snapshot stays valid in the thawed copy (delta
    /// managers extend the frozen id space).
    pub fn thaw(&self) -> GoodFunctions {
        GoodFunctions::from_parts(self.frozen.thaw(), self.funcs.clone())
    }

    /// The frozen manager shared by all thawed copies.
    pub fn frozen(&self) -> &FrozenManager {
        &self.frozen
    }

    /// Nodes frozen into the shared base (terminal included).
    pub fn num_nodes(&self) -> usize {
        self.frozen.num_nodes()
    }

    /// FNV-1a digest of the frozen node table — a white-box immutability
    /// probe (see [`FrozenManager::table_digest`]).
    pub fn table_digest(&self) -> u64 {
        self.frozen.table_digest()
    }

    /// Approximate resident size of the snapshot in bytes: the frozen base
    /// (node arena + unique table + order maps) plus the per-net function
    /// handles. The figure a byte-budgeted snapshot cache charges per entry.
    pub fn approx_bytes(&self) -> usize {
        self.frozen.approx_bytes() + self.funcs.len() * std::mem::size_of::<NodeId>()
    }

    /// The building manager's counters at freeze time: the one-off cost of
    /// constructing the shared base, which sweep accounting folds in exactly
    /// once instead of once per worker.
    pub fn build_stats(&self) -> &ManagerStats {
        self.frozen.build_stats()
    }
}

/// The one good-function gate loop: primary input `i` gets variable `i`,
/// then every gate net, in topological order, gets its gate's function over
/// its fanins' — passed through `substitute`, which returns it unchanged
/// except where a decomposed build replaces it with a cut variable.
pub(crate) fn build_nets(
    circuit: &Circuit,
    manager: &mut Manager,
    mut substitute: impl FnMut(&mut Manager, NetId, NodeId) -> NodeId,
) -> Vec<NodeId> {
    let mut funcs = vec![NodeId::FALSE; circuit.num_nets()];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        funcs[pi.index()] = manager.var(i as Var);
    }
    for n in circuit.nets() {
        if let Driver::Gate { kind, fanins } = circuit.driver(n) {
            let inputs: Vec<NodeId> = fanins.iter().map(|f| funcs[f.index()]).collect();
            let f = build_gate(manager, *kind, &inputs);
            funcs[n.index()] = substitute(manager, n, f);
        }
    }
    funcs
}

/// Builds a gate function over already-built fanin BDDs.
pub(crate) fn build_gate(manager: &mut Manager, kind: GateKind, inputs: &[NodeId]) -> NodeId {
    match kind {
        GateKind::Not => manager.not(inputs[0]),
        GateKind::Buf => inputs[0],
        GateKind::And | GateKind::Nand => {
            let mut acc = inputs[0];
            for &x in &inputs[1..] {
                acc = manager.and(acc, x);
            }
            if kind == GateKind::Nand {
                manager.not(acc)
            } else {
                acc
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut acc = inputs[0];
            for &x in &inputs[1..] {
                acc = manager.or(acc, x);
            }
            if kind == GateKind::Nor {
                manager.not(acc)
            } else {
                acc
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = inputs[0];
            for &x in &inputs[1..] {
                acc = manager.xor(acc, x);
            }
            if kind == GateKind::Xnor {
                manager.not(acc)
            } else {
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_netlist::generators::{alu74181, c17, c95, full_adder};

    /// The BDD of every net must agree with direct circuit evaluation.
    fn check_circuit(circuit: &Circuit, vectors: impl Iterator<Item = Vec<bool>>) {
        let good = GoodFunctions::build(circuit);
        for v in vectors {
            let values = circuit.eval_all(&v);
            for n in circuit.nets() {
                assert_eq!(
                    good.manager().eval(good.node(n), &v),
                    values[n.index()],
                    "net {} of {} at {:?}",
                    circuit.net_name(n),
                    circuit.name(),
                    v
                );
            }
        }
    }

    fn exhaustive(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0u32..1 << n).map(move |bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
    }

    #[test]
    fn c17_functions_exact() {
        check_circuit(&c17(), exhaustive(5));
    }

    #[test]
    fn full_adder_functions_exact() {
        check_circuit(&full_adder(), exhaustive(3));
    }

    #[test]
    fn c95_functions_exact() {
        check_circuit(&c95(), exhaustive(9));
    }

    #[test]
    fn alu_functions_sampled() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(181);
        let vectors = (0..200).map(move |_| (0..14).map(|_| rng.random()).collect());
        check_circuit(&alu74181(), vectors);
    }

    #[test]
    fn syndrome_of_inputs_is_half() {
        let c = c17();
        let mut good = GoodFunctions::build(&c);
        for &pi in c.inputs() {
            assert_eq!(good.syndrome(pi), 0.5);
        }
    }

    #[test]
    fn custom_order_same_functions() {
        let c = full_adder();
        let g1 = GoodFunctions::build(&c);
        let g2 = GoodFunctions::build_with_order(&c, &[2, 0, 1]);
        for v in exhaustive(3) {
            for n in c.nets() {
                assert_eq!(
                    g1.manager().eval(g1.node(n), &v),
                    g2.manager().eval(g2.node(n), &v)
                );
            }
        }
    }

    #[test]
    fn sift_preserves_functions_and_may_shrink() {
        let c = alu74181();
        let mut good = GoodFunctions::build(&c);
        let reference: Vec<f64> = c
            .nets()
            .map(|n| good.manager().density(good.node(n)))
            .collect();
        let (before, after) = good.sift();
        assert!(
            after <= before,
            "sift grew the manager: {before} -> {after}"
        );
        let check: Vec<f64> = c
            .nets()
            .map(|n| good.manager().density(good.node(n)))
            .collect();
        assert_eq!(reference, check);
    }

    #[test]
    fn approx_bytes_pins_the_measured_layout_within_2x() {
        // The serve snapshot cache budgets real memory with this figure, so
        // it must track the actual kernel layout: 12-byte arena nodes, a
        // 4-byte-per-slot open-addressing unique table (power-of-two
        // capacity, ≤ 8/3 of the entry count at the 3/4 load bound), 4-byte
        // net handles and order words. A drifting estimate — e.g. one still
        // assuming 17-byte hash-map buckets — would silently over- or
        // under-admit snapshots.
        let c = alu74181();
        let snap = GoodFunctions::build(&c).freeze();
        let nodes = snap.num_nodes();
        // Floor: every component at its minimum footprint (table exactly one
        // slot per stored node).
        let measured_floor = nodes * 12 + (nodes - 1) * 4 + c.num_nets() * 4;
        let reported = snap.approx_bytes();
        assert!(
            reported >= measured_floor,
            "approx_bytes {reported} under-reports the measured floor {measured_floor}"
        );
        assert!(
            reported <= 2 * measured_floor,
            "approx_bytes {reported} exceeds 2x the measured floor {measured_floor}"
        );
    }

    #[test]
    fn gc_preserves_good_functions() {
        let c = c95();
        let mut good = GoodFunctions::build(&c);
        let before: Vec<f64> = c
            .nets()
            .map(|n| good.manager().density(good.node(n)))
            .collect();
        // Allocate garbage.
        let a = good.manager_mut().var(0);
        let b = good.manager_mut().var(5);
        let _t = good.manager_mut().xor(a, b);
        good.gc();
        let after: Vec<f64> = c
            .nets()
            .map(|n| good.manager().density(good.node(n)))
            .collect();
        assert_eq!(before, after);
    }
}
