//! Dynamic variable reordering: adjacent-level swaps and Rudell-style
//! sifting.
//!
//! Variable order dominates OBDD size. [`Manager::swap_adjacent_levels`]
//! exchanges two neighbouring levels *in place* — every externally held
//! [`NodeId`] keeps denoting the same Boolean function — and
//! [`Manager::sift`] walks each variable through all positions, keeping the
//! best, which is the classical greedy minimisation.
//!
//! The in-place swap is sound because a rewritten node keeps its slot (and
//! thus its id) while its decision variable and children change; the
//! functions represented are untouched. See the module tests for the
//! function-preservation properties.
//!
//! Both run on one swap kernel over [`Levels`]: a per-variable list of the
//! counted nodes, a reference count per slot (parents plus root handles)
//! and the running count of live nodes. A swap visits only the nodes of the
//! upper variable and rewrites those with a child on the lower one, so it
//! costs time in the nodes at the two swapped levels, not in the arena.
//! The sift counts only the nodes its roots reach: a slot whose count drops
//! to zero leaves the unique table at once and its slot is handed to the
//! next new node, so dead nodes are never rewritten and the live size at
//! each step is the running count, canonical for the current order. The
//! public swaps pin every stored node instead, so no handle dies.

use crate::manager::{Manager, Node, NodeId, Var};

/// The bookkeeping of one reordering run, kept beside the arena.
struct Levels {
    /// Per slot: edges from counted parents plus root handles (and the
    /// pin, when every node is pinned). Zero for free slots.
    refs: Vec<u32>,
    /// `by_var[v]`: the counted nodes labelled `v`, in no particular order.
    by_var: Vec<Vec<u32>>,
    /// `pos[i]`: the position of slot `i` in its `by_var` list.
    pos: Vec<u32>,
    /// Counted internal nodes: the live size when roots are counted.
    live: usize,
    /// Whether every node — stored or new — holds a pin, so none dies.
    pinned: bool,
    /// Scratch stack of [`Manager::release`].
    stack: Vec<usize>,
}

impl Levels {
    fn link(&mut self, i: usize, var: Var) {
        let list = &mut self.by_var[var as usize];
        self.pos[i] = list.len() as u32;
        list.push(i as u32);
    }

    fn unlink(&mut self, i: usize, var: Var) {
        let list = &mut self.by_var[var as usize];
        let p = self.pos[i] as usize;
        list.swap_remove(p);
        if let Some(&moved) = list.get(p) {
            self.pos[moved as usize] = p as u32;
        }
    }

    fn retain(&mut self, e: NodeId) {
        if !e.is_terminal() {
            self.refs[e.index()] += 1;
        }
    }

    /// Starts counting the node stored at slot `i`: it retains its
    /// children, joins its variable's list and, when pinned, pins itself.
    fn count(&mut self, i: usize, node: Node) {
        self.retain(node.lo);
        self.retain(node.hi);
        self.link(i, node.var);
        self.refs[i] += self.pinned as u32;
        self.live += 1;
    }
}

impl Manager {
    /// Counts the nodes `roots` reach, or with `None` pins every stored
    /// node. Uncounted nodes leave the unique table and their slots join
    /// the free list.
    fn levels(&mut self, roots: Option<&[NodeId]>) -> Levels {
        assert!(
            !self.has_frozen_base(),
            "frozen-base managers have a fixed order; reorder before freezing"
        );
        let len = self.nodes.len();
        let mut lv = Levels {
            refs: vec![0; len],
            by_var: vec![Vec::new(); self.num_vars()],
            pos: vec![0; len],
            live: 0,
            pinned: roots.is_none(),
            stack: Vec::new(),
        };
        let mut counted = vec![lv.pinned; len];
        for &r in roots.unwrap_or_default() {
            lv.retain(r);
            lv.stack.push(r.index());
        }
        while let Some(i) = lv.stack.pop() {
            if i == 0 || std::mem::replace(&mut counted[i], true) {
                continue;
            }
            let node = self.nodes[i];
            lv.stack.extend([node.lo.index(), node.hi.index()]);
        }
        for (i, &counted) in counted.iter().enumerate().skip(1) {
            let node = self.nodes[i];
            if !counted {
                self.unique.remove(&node, &self.nodes, 0);
                self.free.push(i as u32);
                continue;
            }
            lv.count(i, node);
        }
        lv
    }

    /// `mk_raw` under `lv`: a new node is linked, counted and retains its
    /// children. Returns the edge with one reference taken for the caller.
    fn mk_counted(&mut self, lv: &mut Levels, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
        let e = self.mk_raw(var, lo, hi);
        if e.is_terminal() {
            return e;
        }
        let i = e.index();
        if i >= lv.refs.len() {
            lv.refs.resize(i + 1, 0);
            lv.pos.resize(i + 1, 0);
        }
        if lv.refs[i] == 0 {
            // Counted nodes all hold a reference, and uncounted ones left
            // the unique table: a zero here is a node `mk_raw` just made.
            lv.count(i, self.nodes[i]);
        }
        lv.refs[i] += 1;
        e
    }

    /// Drops one reference to `e`. A node whose count reaches zero leaves
    /// the unique table, frees its slot and releases its children in turn.
    fn release(&mut self, lv: &mut Levels, e: NodeId) {
        if e.is_terminal() {
            return;
        }
        lv.stack.push(e.index());
        while let Some(i) = lv.stack.pop() {
            lv.refs[i] -= 1;
            if lv.refs[i] > 0 {
                continue;
            }
            let node = self.nodes[i];
            self.unique.remove(&node, &self.nodes, 0);
            self.free.push(i as u32);
            lv.unlink(i, node.var);
            lv.live -= 1;
            for child in [node.lo, node.hi] {
                if !child.is_terminal() {
                    lv.stack.push(child.index());
                }
            }
        }
    }

    /// The swap kernel: exchanges levels `level` and `level + 1`, rewriting
    /// in place each counted node of the upper variable `u` that has a child
    /// on the lower variable `v`.
    fn swap_counted(&mut self, lv: &mut Levels, level: u32) {
        let u = self.var_at_level(level);
        let v = self.var_at_level(level + 1);
        let on_v = |m: &Manager, x: NodeId| !x.is_terminal() && m.nodes[x.index()].var == v;
        // The u-nodes' parents sit above `level` and are never rewritten
        // here, so no u-node dies mid-swap; the new u-nodes `mk_counted`
        // makes are linked into the emptied list as they appear.
        for idx in std::mem::take(&mut lv.by_var[u as usize]) {
            let idx = idx as usize;
            let old = self.nodes[idx];
            // Stored hi is regular (canonical form); stored lo may carry a
            // complement. Cofactoring goes through the folded accessors so
            // the attributes travel with the functions.
            let (f1, f0) = (old.hi, old.lo);
            if !on_v(self, f1) && !on_v(self, f0) {
                // Independent of v: the node just migrates down with u.
                lv.link(idx, u);
                continue;
            }
            // Cofactors with respect to v.
            let (f11, f10) = if on_v(self, f1) {
                (self.node_hi(f1), self.node_lo(f1))
            } else {
                (f1, f1)
            };
            let (f01, f00) = if on_v(self, f0) {
                (self.node_hi(f0), self.node_lo(f0))
            } else {
                (f0, f0)
            };
            // F = v ? (u ? f11 : f01) : (u ? f10 : f00)
            //
            // f11 is regular (it is either f1 itself or f1's stored hi, both
            // regular), so `hi` below never complement-normalises: the
            // rewritten node keeps a regular hi edge and the in-place
            // identity F(idx) is preserved exactly.
            // Budget-exempt `mk_raw`: a budget trip mid-swap would leave the
            // level half-rewritten with dummy edges — the table must stay
            // canonical whatever the budget state.
            let hi = self.mk_counted(lv, u, f01, f11);
            let lo = self.mk_counted(lv, u, f00, f10);
            debug_assert!(!hi.is_complemented(), "swap lost the hi-edge invariant");
            debug_assert_ne!(hi, lo, "a v-dependent node cannot lose v");
            // Order matters against the arena-keyed table: removal resolves
            // its probe chain by reading node contents out of the arena, so
            // the old entry must leave the table while `nodes[idx]` still
            // holds the old contents — only then may the slot be rewritten
            // and re-inserted under its new identity. (Reorder is rejected on
            // frozen-base managers, so the table offset is always 0 here.)
            let removed = self.unique.remove(&old, &self.nodes, 0);
            debug_assert!(removed, "swapped node was missing from the unique table");
            let new = Node { var: v, lo, hi };
            self.nodes[idx] = new;
            debug_assert!(
                self.unique.get(&new, &self.nodes, 0).is_none(),
                "level swap produced a duplicate node; canonicity violated"
            );
            self.unique.insert(idx, &new, &self.nodes, 0);
            lv.link(idx, v);
            // The new children hold their references, so releasing the old
            // ones frees only nodes the new graph no longer reaches.
            self.release(lv, f1);
            self.release(lv, f0);
        }
        self.swap_order_entries(level);
        self.op_cache.clear();
    }

    /// Moves `var` to `target_level` by adjacent swaps under `lv`.
    fn move_counted(&mut self, lv: &mut Levels, var: Var, target_level: u32) {
        loop {
            let current = self.level_of(var);
            match current.cmp(&target_level) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => self.swap_counted(lv, current),
                std::cmp::Ordering::Greater => self.swap_counted(lv, current - 1),
            }
        }
    }

    /// Swaps the variables at levels `level` and `level + 1` in place.
    ///
    /// All existing [`NodeId`]s continue to denote the same functions. The
    /// operation cache is invalidated; dead nodes may be left behind for a
    /// later [`Manager::gc`].
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 >= num_vars()`, or if this manager extends a
    /// frozen base (the base arena is shared and immutable, so its variable
    /// order is fixed at freeze time).
    pub fn swap_adjacent_levels(&mut self, level: u32) {
        assert!(
            (level as usize) + 1 < self.num_vars(),
            "cannot swap the last level down"
        );
        let mut lv = self.levels(None);
        self.swap_counted(&mut lv, level);
    }

    /// Moves variable `var` to `target_level` by a sequence of adjacent
    /// swaps. All existing [`NodeId`]s stay valid, as for
    /// [`Manager::swap_adjacent_levels`].
    ///
    /// # Panics
    ///
    /// Panics if `var` or `target_level` is out of range, or if this
    /// manager extends a frozen base.
    pub fn move_var_to_level(&mut self, var: Var, target_level: u32) {
        assert!((var as usize) < self.num_vars(), "variable out of range");
        assert!(
            (target_level as usize) < self.num_vars(),
            "level out of range"
        );
        let mut lv = self.levels(None);
        self.move_counted(&mut lv, var, target_level);
    }

    /// Number of internal nodes reachable from `roots` (the live size —
    /// the quantity sifting minimises).
    pub fn live_size(&self, roots: &[NodeId]) -> usize {
        // Dedup by node index (an edge and its complement share one node)
        // via a dense seen-vector: a byte per arena slot beats hashing.
        let mut seen = vec![false; self.num_nodes()];
        let mut count = 0;
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(x) = stack.pop() {
            if x.is_terminal() || std::mem::replace(&mut seen[x.index()], true) {
                continue;
            }
            count += 1;
            let node = self.node_at(x.index());
            stack.push(node.lo);
            stack.push(node.hi);
        }
        count
    }

    /// Rudell's sifting: each variable in turn is moved through every level
    /// and parked where the live size (over `roots`) is smallest. Returns
    /// the final live size.
    ///
    /// Only nodes `roots` reach are kept and rewritten: nodes that die
    /// during the walk are dropped at once and their slots reused, and one
    /// [`Manager::gc`] at the end compacts the arena. That collection
    /// remaps node ids: `roots` is rewritten in place (order preserved) to
    /// the post-sift ids, and every *other* externally held [`NodeId`] is
    /// invalidated — the caller owns the only handles that survive.
    ///
    /// Each run adds one to
    /// [`ManagerStats::sift_runs`](crate::ManagerStats::sift_runs) and its
    /// live-size drop to
    /// [`ManagerStats::sift_nodes_reclaimed`](crate::ManagerStats::sift_nodes_reclaimed).
    ///
    /// # Panics
    ///
    /// Panics if this manager extends a frozen base.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    ///
    /// // A function with a strongly order-sensitive BDD:
    /// // (x0 ∧ x3) ∨ (x1 ∧ x4) ∨ (x2 ∧ x5) under the identity order.
    /// let mut m = Manager::with_order(&[0, 1, 2, 3, 4, 5])?;
    /// let mut f = m.constant(false);
    /// for i in 0..3 {
    ///     let a = m.var(i);
    ///     let b = m.var(i + 3);
    ///     let t = m.and(a, b);
    ///     f = m.or(f, t);
    /// }
    /// let before = m.live_size(&[f]);
    /// let mut roots = [f];
    /// let after = m.sift(&mut roots);
    /// let f = roots[0]; // the post-sift handle
    /// assert!(after < before); // sifting interleaves the pairs
    /// assert_eq!(m.live_size(&[f]), after);
    /// assert_eq!(m.num_nodes(), after + 1); // the arena holds only f
    /// assert_eq!(m.stats().sift_runs, 1);
    /// assert_eq!(m.stats().sift_nodes_reclaimed, (before - after) as u64);
    /// # Ok::<(), dp_bdd::BddError>(())
    /// ```
    pub fn sift(&mut self, roots: &mut [NodeId]) -> usize {
        let mut lv = self.levels(Some(roots));
        let n = self.num_vars() as u32;
        let before = lv.live;
        let mut best_total = before;
        // Sift variables in decreasing order of how many live nodes carry
        // them (the standard heuristic).
        let mut occupancy: Vec<(usize, Var)> =
            (0..n).map(|v| (lv.by_var[v as usize].len(), v)).collect();
        occupancy.sort_by_key(|&(count, _)| std::cmp::Reverse(count));

        for &(_, var) in &occupancy {
            let start = self.level_of(var);
            let mut best_level = start;
            // Walk to the nearer end first, then sweep to the other end.
            let (first_end, second_end) = if start <= n / 2 {
                (0, n - 1)
            } else {
                (n - 1, 0)
            };
            for target in [first_end, second_end] {
                let mut level = self.level_of(var);
                while level != target {
                    let next = if target > level { level + 1 } else { level - 1 };
                    self.move_counted(&mut lv, var, next);
                    level = next;
                    if lv.live < best_total {
                        best_total = lv.live;
                        best_level = level;
                    }
                }
            }
            self.move_counted(&mut lv, var, best_level);
            best_total = lv.live;
        }
        let remap = self.gc(roots);
        for r in roots.iter_mut() {
            *r = remap.map(*r);
        }
        self.stats.sift_runs += 1;
        self.stats.sift_nodes_reclaimed += before.saturating_sub(best_total) as u64;
        best_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the order-sensitive function (x0∧x_k) ∨ (x1∧x_{k+1}) ∨ ... over
    /// 2k variables.
    fn disjoint_pairs(m: &mut Manager, k: u32) -> NodeId {
        let mut f = NodeId::FALSE;
        for i in 0..k {
            let a = m.var(i);
            let b = m.var(i + k);
            let t = m.and(a, b);
            f = m.or(f, t);
        }
        f
    }

    fn eval_all(m: &Manager, f: NodeId, n: usize) -> Vec<bool> {
        (0u32..1 << n)
            .map(|bits| {
                let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                m.eval(f, &v)
            })
            .collect()
    }

    #[test]
    fn swap_preserves_functions() {
        let mut m = Manager::new(6);
        let f = disjoint_pairs(&mut m, 3);
        let a = m.var(1);
        let b = m.var(4);
        let g = m.xor(a, b);
        let before_f = eval_all(&m, f, 6);
        let before_g = eval_all(&m, g, 6);
        for level in [0, 1, 4, 2, 3, 0, 4] {
            m.swap_adjacent_levels(level);
            assert_eq!(eval_all(&m, f, 6), before_f, "f broken at level {level}");
            assert_eq!(eval_all(&m, g, 6), before_g, "g broken at level {level}");
        }
    }

    #[test]
    fn swap_is_involutive_on_order() {
        let mut m = Manager::new(4);
        let order_before = m.order().to_vec();
        m.swap_adjacent_levels(1);
        assert_ne!(m.order(), order_before.as_slice());
        m.swap_adjacent_levels(1);
        assert_eq!(m.order(), order_before.as_slice());
    }

    #[test]
    fn swap_keeps_canonicity() {
        // After swaps, rebuilding the same function must return the same id.
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        m.swap_adjacent_levels(0);
        m.swap_adjacent_levels(2);
        let ab2 = m.and(a, b);
        let f2 = m.or(ab2, c);
        assert_eq!(f, f2);
    }

    #[test]
    fn move_var_walks_both_directions() {
        let mut m = Manager::new(5);
        let f = disjoint_pairs(&mut m, 2);
        let before = eval_all(&m, f, 5);
        m.move_var_to_level(0, 4);
        assert_eq!(m.level_of(0), 4);
        m.move_var_to_level(0, 2);
        assert_eq!(m.level_of(0), 2);
        assert_eq!(eval_all(&m, f, 5), before);
    }

    #[test]
    fn sift_shrinks_disjoint_pairs() {
        // Under the identity order the pairs function needs ~2^k nodes;
        // interleaved it is linear. Sifting must find a big win.
        let mut m = Manager::new(8);
        let f = disjoint_pairs(&mut m, 4);
        let before_eval = eval_all(&m, f, 8);
        let before = m.live_size(&[f]);
        let mut roots = [f];
        let after = m.sift(&mut roots);
        assert!(after < before, "sift did not shrink: {before} -> {after}");
        assert!(after <= 12, "expected near-linear size, got {after}");
        assert_eq!(eval_all(&m, roots[0], 8), before_eval);
    }

    #[test]
    fn sift_then_gc_keeps_roots() {
        let mut m = Manager::new(6);
        let f = disjoint_pairs(&mut m, 3);
        let before = eval_all(&m, f, 6);
        let mut roots = [f];
        m.sift(&mut roots);
        let f = roots[0];
        let remap = m.gc(&[f]);
        let f = remap.map(f);
        assert_eq!(eval_all(&m, f, 6), before);
    }

    #[test]
    fn sift_leaves_only_the_live_nodes() {
        // Dead nodes are never rewritten: a long sift of a function with
        // lots of dead structure ends with an arena of exactly its live
        // nodes, and its peak stays within a small factor of the start.
        let mut m = Manager::new(16);
        let mut f = disjoint_pairs(&mut m, 8);
        // Pile up garbage so the walk starts with plenty of dead nodes.
        for i in 0..8 {
            let v = m.var(i);
            let dead = m.and(f, v);
            let _ = m.xor(dead, v);
        }
        let start = m.num_nodes();
        let count_before = m.sat_count(f);
        let mut roots = [f];
        let live = m.sift(&mut roots);
        f = roots[0];
        assert_eq!(m.sat_count(f), count_before);
        assert_eq!(m.num_nodes(), live + 1, "arena holds more than the live nodes");
        assert!(
            m.stats().peak_nodes <= 2 * start,
            "peak {} nodes sifting a {start}-node arena",
            m.stats().peak_nodes
        );
        assert_eq!(m.stats().gc_runs, 1, "one closing collection");
        m.assert_canonical();
    }

    #[test]
    fn live_size_counts_shared_structure_once() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let nab = m.not(ab);
        assert!(m.live_size(&[ab, nab]) <= m.size(ab) + m.size(nab));
        assert_eq!(m.live_size(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "cannot swap the last level down")]
    fn swap_rejects_last_level() {
        let mut m = Manager::new(3);
        m.swap_adjacent_levels(2);
    }
}
