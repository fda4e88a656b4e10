//! Dynamic variable reordering: adjacent-level swaps and Rudell-style
//! sifting.
//!
//! Variable order dominates OBDD size. [`Manager::swap_adjacent_levels`]
//! exchanges two neighbouring levels *in place* — every externally held
//! [`NodeId`] keeps denoting the same Boolean function — and
//! [`Manager::sift`] walks each variable up and down the order, keeping the
//! best position, which is the classical greedy minimisation. A walk stops
//! once the table outgrows the best size by a tenth (Rudell's growth
//! limit) or once an exact lower bound says no further level can beat it.
//!
//! The in-place swap is sound because a rewritten node keeps its slot (and
//! thus its id) while its decision variable and children change; the
//! functions represented are untouched. See the module tests for the
//! function-preservation properties.
//!
//! Both run on one swap kernel over [`Levels`], CUDD's layout: during a
//! run every counted node lives in its variable's own unique subtable,
//! beside a reference count per slot (parents plus root handles) and the
//! running count of live nodes. The global table is cleared when the run
//! starts and refilled once when it ends (after a sift, by the closing
//! collection, at twice the final live count). A swap of `u` over `v` takes out
//! of `u`'s subtable the nodes with a child on `v`, rewrites them into
//! `v`'s subtable and leaves the other `u` nodes where they are, so it
//! costs time in the nodes at the two swapped levels, and its table
//! traffic stays in two small tables instead of the arena-sized one.
//! The sift counts only the nodes its roots reach: a slot whose count drops
//! to zero leaves its subtable at once and its slot is handed to the next
//! new node, so dead nodes are never rewritten and the live size at each
//! step is the running count, canonical for the current order. The public
//! swaps pin every stored node instead, so no handle dies.

use crate::manager::{Manager, Node, NodeId, Var};
use crate::table::UniqueTable;

/// A sift walk stops before its next step away from the variable's start
/// once the live size exceeds the best size so far by more than this
/// ratio, as `(numerator, denominator)`: Rudell's growth limit, CUDD's
/// `maxGrowth`. At 11/10 every sifted surrogate keeps the order of the
/// uncapped walk (`tests/prop_snapshot.rs` pins them); at 1.08 c1908s's
/// already moves.
const MAX_GROWTH: (usize, usize) = (11, 10);

/// The bookkeeping of one reordering run, kept beside the arena.
struct Levels {
    /// Per slot: edges from counted parents plus root handles (and the
    /// pin, when every node is pinned). Zero for free slots.
    refs: Vec<u32>,
    /// `tables[v]`: variable `v`'s unique subtable, holding exactly its
    /// counted nodes.
    tables: Vec<UniqueTable>,
    /// Counted internal nodes: the live size when roots are counted.
    live: usize,
    /// Whether every node — stored or new — holds a pin, so none dies.
    pinned: bool,
    /// Scratch stack of [`Manager::release`].
    stack: Vec<usize>,
    /// Scratch list of the upper-level nodes a swap rewrites.
    movers: Vec<u32>,
}

impl Levels {
    fn retain(&mut self, e: NodeId) {
        if !e.is_terminal() {
            self.refs[e.index()] += 1;
        }
    }

    /// Starts counting the node stored at slot `i`: it retains its
    /// children, joins its variable's subtable and, when pinned, pins
    /// itself.
    fn count(&mut self, i: usize, node: Node, nodes: &[Node]) {
        self.retain(node.lo);
        self.retain(node.hi);
        self.tables[node.var as usize].insert(i, &node, nodes, 0);
        self.refs[i] += self.pinned as u32;
        self.live += 1;
    }
}

/// Which variables share some root's support, as a bit matrix. Sifting
/// never changes a function, so this holds for every order of the run.
struct Interactions {
    words: usize,
    bits: Vec<u64>,
}

impl Interactions {
    /// Whether some root depends on both `a` and `b` (with `a == b`: on
    /// `a` at all).
    fn get(&self, a: Var, b: Var) -> bool {
        let b = b as usize;
        self.bits[a as usize * self.words + b / 64] >> (b % 64) & 1 == 1
    }
}

impl Manager {
    /// Counts the nodes `roots` reach, or with `None` pins every stored
    /// node, and files each in its variable's subtable. Uncounted slots
    /// join the free list, and the global table is emptied until
    /// [`Manager::end_run`].
    fn levels(&mut self, roots: Option<&[NodeId]>) -> Levels {
        assert!(
            !self.has_frozen_base(),
            "frozen-base managers have a fixed order; reorder before freezing"
        );
        let len = self.nodes.len();
        let mut lv = Levels {
            refs: vec![0; len],
            tables: Vec::new(),
            live: 0,
            pinned: roots.is_none(),
            stack: Vec::new(),
            movers: Vec::new(),
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
        let mut sizes = vec![0; self.num_vars()];
        for (i, &counted) in counted.iter().enumerate().skip(1) {
            if counted {
                sizes[self.nodes[i].var as usize] += 1;
            } else {
                self.free.push(i as u32);
            }
        }
        lv.tables = sizes.into_iter().map(UniqueTable::with_capacity).collect();
        for (i, &counted) in counted.iter().enumerate().skip(1) {
            if counted {
                lv.count(i, self.nodes[i], &self.nodes);
            }
        }
        self.unique.clear();
        lv
    }

    /// Ends a pinned run: grows the global table by its own load rule to
    /// hold every counted node (no node dies while pinned, so this is the
    /// run's peak) and refills it with them.
    fn end_pinned_run(&mut self, lv: &Levels) {
        self.unique.grow_to_hold(lv.live, &self.nodes, 0);
        for table in &lv.tables {
            for i in table.iter() {
                self.unique.insert(i, &self.nodes[i], &self.nodes, 0);
            }
        }
    }

    /// The `mk` of a run: the canonical edge for `(var, lo, hi)`, found in
    /// or added to `var`'s subtable, with one reference taken for the
    /// caller (the `lo == hi` reduction included). It counts unique-table
    /// lookups as [`Manager::mk`] does, but never consults the budget: a
    /// trip mid-swap would leave a level half-rewritten.
    fn mk_counted(&mut self, lv: &mut Levels, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            lv.retain(lo);
            return lo;
        }
        let (node, flip) = Node::canonical(var, lo, hi);
        let index = match lv.tables[var as usize].get(&node, &self.nodes, 0) {
            Some(id) => {
                self.stats.unique.hit();
                self.stats.delta_lookups += 1;
                id.index()
            }
            None => {
                let index = self.store(node);
                if index >= lv.refs.len() {
                    lv.refs.resize(index + 1, 0);
                }
                lv.count(index, node, &self.nodes);
                index
            }
        };
        lv.refs[index] += 1;
        let id = NodeId::from_index(index);
        if flip {
            id.complemented()
        } else {
            id
        }
    }

    /// Drops one reference to `e`. A node whose count reaches zero leaves
    /// its subtable, frees its slot and releases its children in turn.
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
            lv.tables[node.var as usize].remove(&node, &self.nodes, 0);
            self.free.push(i as u32);
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
        let on_v = |nodes: &[Node], x: NodeId| !x.is_terminal() && nodes[x.index()].var == v;
        // Take the v-dependent nodes out of u's subtable while the arena
        // still holds their old contents (removal reads the key there).
        // The rest are independent of v and just migrate down with u. The
        // u-nodes' parents sit above `level` and are never rewritten here,
        // so no u-node dies mid-swap.
        let mut movers = std::mem::take(&mut lv.movers);
        let nodes = &self.nodes;
        movers.extend(lv.tables[u as usize].iter().filter_map(|i| {
            let node = nodes[i];
            (on_v(nodes, node.hi) || on_v(nodes, node.lo)).then_some(i as u32)
        }));
        for &idx in &movers {
            let old = self.nodes[idx as usize];
            lv.tables[u as usize].remove(&old, &self.nodes, 0);
        }
        for &idx in &movers {
            let idx = idx as usize;
            let old = self.nodes[idx];
            // Stored hi is regular (canonical form); stored lo may carry a
            // complement. Cofactoring goes through the folded accessors so
            // the attributes travel with the functions.
            let (f1, f0) = (old.hi, old.lo);
            // Cofactors with respect to v.
            let (f11, f10) = if on_v(&self.nodes, f1) {
                (self.node_hi(f1), self.node_lo(f1))
            } else {
                (f1, f1)
            };
            let (f01, f00) = if on_v(&self.nodes, f0) {
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
            let hi = self.mk_counted(lv, u, f01, f11);
            let lo = self.mk_counted(lv, u, f00, f10);
            debug_assert!(!hi.is_complemented(), "swap lost the hi-edge invariant");
            debug_assert_ne!(hi, lo, "a v-dependent node cannot lose v");
            let new = Node { var: v, lo, hi };
            self.nodes[idx] = new;
            debug_assert!(
                lv.tables[v as usize].get(&new, &self.nodes, 0).is_none(),
                "level swap produced a duplicate node; canonicity violated"
            );
            lv.tables[v as usize].insert(idx, &new, &self.nodes, 0);
            // The new children hold their references, so releasing the old
            // ones frees only nodes the new graph no longer reaches.
            self.release(lv, f1);
            self.release(lv, f0);
        }
        movers.clear();
        lv.movers = movers;
        self.swap_order_entries(level);
        self.op_cache.clear();
    }

    /// Moves `var` to `target_level` by adjacent swaps under `lv`. Returns
    /// the number of swaps.
    fn move_counted(&mut self, lv: &mut Levels, var: Var, target_level: u32) -> u64 {
        let mut swaps = 0;
        loop {
            let current = self.level_of(var);
            match current.cmp(&target_level) {
                std::cmp::Ordering::Equal => return swaps,
                std::cmp::Ordering::Less => self.swap_counted(lv, current),
                std::cmp::Ordering::Greater => self.swap_counted(lv, current - 1),
            }
            swaps += 1;
        }
    }

    /// Which variable pairs share some root's support: the support of
    /// every counted node, bottom level first, then each root's support
    /// squared.
    fn interactions(&self, lv: &Levels, roots: &[NodeId]) -> Interactions {
        let n = self.num_vars();
        let words = n.div_ceil(64);
        let mut support = vec![0u64; lv.refs.len() * words];
        for &v in self.order().iter().rev() {
            for i in lv.tables[v as usize].iter() {
                let node = self.nodes[i];
                for w in 0..words {
                    support[i * words + w] =
                        support[node.lo.index() * words + w] | support[node.hi.index() * words + w];
                }
                support[i * words + v as usize / 64] |= 1 << (v % 64);
            }
        }
        let mut bits = vec![0u64; n * words];
        for r in roots {
            let s = &support[r.index() * words..][..words];
            for v in 0..n {
                if s[v / 64] >> (v % 64) & 1 == 1 {
                    for (row, &word) in bits[v * words..][..words].iter_mut().zip(s) {
                        *row |= word;
                    }
                }
            }
        }
        Interactions { words, bits }
    }

    /// Whether no level past `var`'s current one, in the walk direction
    /// `down`, can hold fewer than `best` live nodes: an exact lower bound
    /// on every further position (Drechsler, Günther and Somenzi, "Using
    /// lower bounds during dynamic BDD minimization").
    ///
    /// A level's node count depends only on which variables sit above it
    /// and which below. Walking down, the levels above `var` keep their
    /// counts, and so do the variables `var` has not passed yet. A passed
    /// variable that shares no root with `var` keeps its count too. One
    /// that does keeps at least ⌈c/2⌉ of its `c` nodes: with `var` moved
    /// below it, each of its new nodes `h` stands for at most the two old
    /// nodes `h|var=0` and `h|var=1`. Walking up, the levels below `var`
    /// keep their counts, and each interacting variable passed keeps at
    /// least 1 node. Either way `var` keeps at least 1 node if a root
    /// depends on it. The bound for the far end is the least over the
    /// positions left, since every relaxed term only shrinks.
    fn walk_is_done(
        &self,
        lv: &Levels,
        inter: &Interactions,
        var: Var,
        down: bool,
        best: usize,
    ) -> bool {
        let level = self.level_of(var) as usize;
        let mut bound = lv.live - lv.tables[var as usize].len() + usize::from(inter.get(var, var));
        let passed = if down {
            &self.order()[level + 1..]
        } else {
            &self.order()[..level]
        };
        for &y in passed {
            if inter.get(var, y) {
                let c = lv.tables[y as usize].len();
                bound -= if down { c / 2 } else { c - 1 };
            }
        }
        bound >= best
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
        self.end_pinned_run(&lv);
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
        self.end_pinned_run(&lv);
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

    /// Rudell's sifting: each variable in turn is walked up and down the
    /// order and parked where the live size (over `roots`) is smallest. Returns
    /// the final live size.
    ///
    /// Only nodes `roots` reach are kept and rewritten: nodes that die
    /// during the walk are dropped at once and their slots reused, and one
    /// [`Manager::gc`] at the end compacts the arena. That collection
    /// remaps node ids: `roots` is rewritten in place (order preserved) to
    /// the post-sift ids, and every *other* externally held [`NodeId`] is
    /// invalidated — the caller owns the only handles that survive.
    ///
    /// A walk stops before a step away from the variable's starting level
    /// once the live size exceeds 11/10 of the best so far (Rudell's growth
    /// limit); steps back toward the start are never capped, so where the
    /// first walk ended cannot change what the second visits. The cap is a
    /// heuristic: on every sifted surrogate the capped walk picks the
    /// uncapped walk's order, which `tests/prop_snapshot.rs` pins, but
    /// that is a measurement, not a theorem. A walk also stops once no
    /// further level can hold fewer live nodes than the best so far (see
    /// `walk_is_done`). That pruning is exact: sizes are canonical for each
    /// order, so the decisions are those of the capped walk.
    ///
    /// The closing collection refills a global table sized by the load
    /// rule for twice the final live count, whatever size the walk peaked
    /// at, so its capacity and slot layout depend only on what the sift
    /// keeps.
    ///
    /// Each run adds one to
    /// [`ManagerStats::sift_runs`](crate::ManagerStats::sift_runs), its
    /// adjacent swaps to
    /// [`ManagerStats::sift_swaps`](crate::ManagerStats::sift_swaps) and its
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
        let inter = self.interactions(&lv, roots);
        let n = self.num_vars() as u32;
        let before = lv.live;
        let mut best_total = before;
        let mut swaps = 0;
        // Sift variables in decreasing order of how many live nodes carry
        // them (the standard heuristic).
        let mut occupancy: Vec<(usize, Var)> =
            (0..n).map(|v| (lv.tables[v as usize].len(), v)).collect();
        occupancy.sort_by_key(|&(count, _)| std::cmp::Reverse(count));

        for &(_, var) in &occupancy {
            let start = self.level_of(var);
            let mut best_level = start;
            // Walk to the nearer end first, then sweep to the other end,
            // each until no further level can beat the best size or, on a
            // step away from `start`, the table has outgrown it. Steps back
            // toward `start` revisit measured levels and are not capped, so
            // the bound's early stop on the first walk cannot change what
            // the second one visits.
            let (first_end, second_end) = if start <= n / 2 {
                (0, n - 1)
            } else {
                (n - 1, 0)
            };
            for target in [first_end, second_end] {
                let mut level = self.level_of(var);
                while level != target {
                    let down = target > level;
                    let next = if down { level + 1 } else { level - 1 };
                    let outward = next.abs_diff(start) > level.abs_diff(start);
                    if self.walk_is_done(&lv, &inter, var, down, best_total)
                        || outward && lv.live * MAX_GROWTH.1 > best_total * MAX_GROWTH.0
                    {
                        break;
                    }
                    swaps += self.move_counted(&mut lv, var, next);
                    level = next;
                    if lv.live < best_total {
                        best_total = lv.live;
                        best_level = level;
                    }
                }
            }
            swaps += self.move_counted(&mut lv, var, best_level);
            best_total = lv.live;
        }
        // Twice the kept nodes: a table at the load rule's own size for
        // them made c1908s sweeps over the frozen base slower.
        self.unique = UniqueTable::with_capacity(2 * lv.live);
        let remap = self.gc(roots);
        for r in roots.iter_mut() {
            *r = remap.map(*r);
        }
        self.stats.sift_runs += 1;
        self.stats.sift_swaps += swaps;
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
        assert_eq!(
            m.num_nodes(),
            live + 1,
            "arena holds more than the live nodes"
        );
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
