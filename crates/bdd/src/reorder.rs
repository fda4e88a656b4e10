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
//! Swaps rewrite *every* node of the moving variable — dead ones included,
//! because the arena has no free list and the level invariant must hold
//! for every stored node. Each dead rewrite allocates fresh cofactor
//! nodes, so garbage begets garbage: left unchecked, a full sift grows the
//! arena *exponentially* in the number of swaps (observed: 1.4M
//! allocations sifting a 1.2k-node table). [`Manager::sift`] therefore
//! interleaves garbage collections into the walk to keep the arena within
//! a constant factor of the live size.

use crate::manager::{Manager, NodeId, Var};

impl Manager {
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
            !self.has_frozen_base(),
            "frozen-base managers have a fixed order; reorder before freezing"
        );
        let n = self.num_vars() as u32;
        assert!(level + 1 < n, "cannot swap the last level down");
        let u = self.var_at_level(level);
        let v = self.var_at_level(level + 1);

        // Snapshot the u-nodes; mk() may append new ones (which are v-free
        // and need no rewrite).
        let u_nodes: Vec<usize> = (1..self.nodes.len())
            .filter(|&i| self.nodes[i].var == u)
            .collect();

        for idx in u_nodes {
            let node = self.nodes[idx];
            // Stored hi is regular (canonical form); stored lo may carry a
            // complement. Cofactoring goes through the folded accessors so
            // the attributes travel with the functions.
            let (f1, f0) = (node.hi, node.lo);
            let top_is_v = |m: &Manager, x: NodeId| !x.is_terminal() && m.nodes[x.index()].var == v;
            if !top_is_v(self, f1) && !top_is_v(self, f0) {
                // Independent of v: the node just migrates down with u.
                continue;
            }
            // Cofactors with respect to v.
            let (f11, f10) = if top_is_v(self, f1) {
                (self.node_hi(f1), self.node_lo(f1))
            } else {
                (f1, f1)
            };
            let (f01, f00) = if top_is_v(self, f0) {
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
            let hi = self.mk_raw(u, f01, f11);
            let lo = self.mk_raw(u, f00, f10);
            debug_assert!(!hi.is_complemented(), "swap lost the hi-edge invariant");
            debug_assert_ne!(hi, lo, "a v-dependent node cannot lose v");
            // Order matters against the arena-keyed table: removal resolves
            // its probe chain by reading node contents out of the arena, so
            // the old entry must leave the table while `nodes[idx]` still
            // holds the old contents — only then may the slot be rewritten
            // and re-inserted under its new identity. (Reorder is rejected on
            // frozen-base managers, so the table offset is always 0 here.)
            let old = self.nodes[idx];
            let removed = self.unique.remove(&old, &self.nodes, 0);
            debug_assert!(removed, "swapped node was missing from the unique table");
            let new = crate::manager::Node { var: v, lo, hi };
            self.nodes[idx] = new;
            debug_assert!(
                self.unique.get(&new, &self.nodes, 0).is_none(),
                "level swap produced a duplicate node; canonicity violated"
            );
            self.unique.insert(idx, &new, &self.nodes, 0);
        }

        self.swap_order_entries(level);
        self.op_cache.clear();
    }

    /// Moves variable `var` to `target_level` by a sequence of adjacent
    /// swaps.
    ///
    /// # Panics
    ///
    /// Panics if `var` or `target_level` is out of range.
    pub fn move_var_to_level(&mut self, var: Var, target_level: u32) {
        assert!((var as usize) < self.num_vars(), "variable out of range");
        assert!(
            (target_level as usize) < self.num_vars(),
            "level out of range"
        );
        loop {
            let current = self.level_of(var);
            match current.cmp(&target_level) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => self.swap_adjacent_levels(current),
                std::cmp::Ordering::Greater => self.swap_adjacent_levels(current - 1),
            }
        }
    }

    /// Number of internal nodes reachable from `roots` (the live size —
    /// the quantity sifting minimises).
    pub fn live_size(&self, roots: &[NodeId]) -> usize {
        // Dedup by node index (an edge and its complement share one node)
        // via a dense seen-vector: this walk runs once per candidate
        // position during sifting, and a byte per arena slot beats hashing.
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
    /// Garbage collections are interleaved into the walk: whenever the
    /// arena has outgrown a small multiple of the live size, dead nodes are
    /// collected before the next swap. This caps the otherwise-exponential
    /// garbage compounding (dead nodes of the moving variable are rewritten
    /// too, and every dead rewrite allocates fresh cofactors), so large
    /// tables sift in time proportional to live work.
    ///
    /// Collections remap node ids: `roots` is rewritten in place (order
    /// preserved) to the post-sift ids, and every *other* externally held
    /// [`NodeId`] is invalidated — the caller owns the only handles that
    /// survive.
    ///
    /// Each run adds one to
    /// [`ManagerStats::sift_runs`](crate::ManagerStats::sift_runs) and its
    /// live-size drop to
    /// [`ManagerStats::sift_nodes_reclaimed`](crate::ManagerStats::sift_nodes_reclaimed).
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
    /// assert_eq!(m.stats().sift_runs, 1);
    /// assert_eq!(m.stats().sift_nodes_reclaimed, (before - after) as u64);
    /// # Ok::<(), dp_bdd::BddError>(())
    /// ```
    pub fn sift(&mut self, roots: &mut [NodeId]) -> usize {
        assert!(
            !self.has_frozen_base(),
            "frozen-base managers have a fixed order; sift before freezing"
        );
        let n = self.num_vars() as u32;
        let before = self.live_size(roots);
        let mut best_total = before;
        // Sift variables in decreasing order of how many live nodes carry
        // them (the standard heuristic).
        let mut occupancy: Vec<(usize, Var)> = (0..n)
            .map(|v| (self.live_nodes_with_var(roots, v), v))
            .collect();
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
                    self.move_var_to_level(var, next);
                    level = next;
                    let size = self.live_size(roots);
                    if size < best_total {
                        best_total = size;
                        best_level = level;
                    }
                    self.maybe_compact(roots, size);
                }
            }
            self.move_var_to_level(var, best_level);
            best_total = self.live_size(roots);
            self.maybe_compact(roots, best_total);
        }
        self.stats.sift_runs += 1;
        self.stats.sift_nodes_reclaimed += before.saturating_sub(best_total) as u64;
        best_total
    }

    /// The interleaved collection of [`Manager::sift`]: collect
    /// when the arena exceeds 4× the live size (with a floor, so small
    /// tables never bother), remapping `roots` in place.
    fn maybe_compact(&mut self, roots: &mut [NodeId], live: usize) {
        const GROWTH: usize = 4;
        const FLOOR: usize = 1 << 12;
        if self.num_nodes() <= (GROWTH * live).max(FLOOR) {
            return;
        }
        let remap = self.gc(roots);
        for r in roots.iter_mut() {
            *r = remap.map(*r);
        }
    }

    fn live_nodes_with_var(&self, roots: &[NodeId], var: Var) -> usize {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        let mut count = 0;
        while let Some(x) = stack.pop() {
            if x.is_terminal() || std::mem::replace(&mut seen[x.index()], true) {
                continue;
            }
            let node = self.node_at(x.index());
            if node.var == var {
                count += 1;
            }
            stack.push(node.lo);
            stack.push(node.hi);
        }
        count
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
    fn compacting_sift_bounds_the_arena() {
        // Dead-node rewrites during level swaps compound: a long sift of a
        // function with lots of dead structure must not grow the arena past
        // the compaction threshold (4 x live, floored at 4096), and the
        // remapped roots must still denote the same function.
        let mut m = Manager::new(16);
        let mut f = disjoint_pairs(&mut m, 8);
        // Pile up garbage so the walk starts with plenty of dead nodes.
        for i in 0..8 {
            let v = m.var(i);
            let dead = m.and(f, v);
            let _ = m.xor(dead, v);
        }
        let count_before = m.sat_count(f);
        let mut roots = [f];
        let live = m.sift(&mut roots);
        f = roots[0];
        assert_eq!(m.sat_count(f), count_before);
        let bound = (4 * live.max(1)).max(1 << 12) + (1 << 12);
        assert!(
            m.num_nodes() <= bound,
            "arena {} nodes after compacting sift of {live} live",
            m.num_nodes()
        );
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
