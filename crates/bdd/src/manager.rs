//! The BDD manager: node storage, unique table, and variable ordering.
//!
//! # Complement edges
//!
//! Since the complement-edge refactor the manager stores **attributed
//! negation** in the edges instead of materialising `¬f` as a second DAG:
//! bit 0 of a [`NodeId`] is a complement flag and the remaining bits index
//! the node table. There is a single terminal node (slot 0, the constant
//! `1`); `⊥` is its complemented edge. Canonicity is preserved by the
//! classical rule (Brace/Rudell/Bryant): **a node's *then* (hi) edge is
//! never complemented**. `mk` normalises — if the requested hi edge is
//! complemented, the node is stored with both children flipped and a
//! complemented edge to it is returned. Consequences:
//!
//! * negation is O(1) (flip bit 0) and allocates nothing,
//! * `f` and `¬f` share every node, roughly halving unique-table pressure
//!   on the negation-heavy Table-1 forms,
//! * structural equality is still functional equality: two edges are equal
//!   iff they denote the same function.
//!
//! The child accessors [`Manager::node_lo`]/[`Manager::node_hi`] fold the
//! parent edge's complement bit into the returned edge, so for every
//! non-terminal edge `n` the Shannon identity
//! `F(n) = ite(var, F(node_hi(n)), F(node_lo(n)))` holds verbatim and
//! generic traversals stay correct without knowing about complements.

use std::fmt;
use std::sync::Arc;

use crate::budget::BudgetConfig;
use crate::error::BddError;
use crate::snapshot::{FrozenBase, FrozenManager};
use crate::stats::ManagerStats;
use crate::table::{OpCache, UniqueTable, DEFAULT_OP_CACHE_CAPACITY, DELTA_OP_CACHE_CAPACITY};

/// A variable index in `0..num_vars`.
///
/// Variable indices are stable names; the *position* of a variable in the
/// order is its level (see [`Manager::level_of`]). For a freshly created
/// manager the order is the identity (variable `i` sits at level `i`).
pub type Var = u32;

/// A handle to a BDD node inside a [`Manager`] — an *edge*: a node-table
/// index plus a complement flag (bit 0).
///
/// Node ids are only meaningful relative to the manager that produced them.
/// Because the unique table hash-conses nodes and the canonical form keeps
/// hi edges regular, two equal `NodeId`s from the same manager always denote
/// the same Boolean function, and conversely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The constant-true terminal: a regular edge to the terminal node.
    pub const TRUE: NodeId = NodeId(0);
    /// The constant-false terminal: the complemented edge to the same node.
    pub const FALSE: NodeId = NodeId(1);

    /// Packs a node-table index into a regular (uncomplemented) edge.
    pub(crate) fn from_index(index: usize) -> NodeId {
        NodeId((index as u32) << 1)
    }

    /// Returns `true` if this edge points at the terminal node.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Returns `true` if this is the constant-false terminal.
    pub fn is_false(self) -> bool {
        self == Self::FALSE
    }

    /// Returns `true` if this is the constant-true terminal.
    pub fn is_true(self) -> bool {
        self == Self::TRUE
    }

    /// Returns `true` if the edge carries the complement attribute.
    ///
    /// `FALSE` is the complemented edge to the terminal, so
    /// `NodeId::FALSE.is_complemented()` is `true`.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same edge with the complement attribute flipped: `¬f` in O(1).
    pub fn complemented(self) -> NodeId {
        NodeId(self.0 ^ 1)
    }

    /// The regular (uncomplemented) edge to the same node.
    pub fn regular(self) -> NodeId {
        NodeId(self.0 & !1)
    }

    /// Raw index into the manager's node table (mostly useful for debugging
    /// and structural bookkeeping; ignores the complement flag).
    pub fn index(self) -> usize {
        (self.0 >> 1) as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NodeId::FALSE => write!(f, "⊥"),
            NodeId::TRUE => write!(f, "⊤"),
            n if n.is_complemented() => write!(f, "¬n{}", n.index()),
            n => write!(f, "n{}", n.index()),
        }
    }
}

/// An internal decision node: `if var then hi else lo`.
///
/// Invariant (checked by [`Manager::assert_canonical`]): `hi` is never
/// complemented; `lo` may be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub var: Var,
    pub lo: NodeId,
    pub hi: NodeId,
}

impl Node {
    /// The stored form of `(var, lo, hi)` when `lo != hi`: if `hi` is
    /// complemented, both children are flipped so the stored hi edge is
    /// regular. Also returns whether the edge to the node must then carry
    /// the complement.
    pub(crate) fn canonical(var: Var, lo: NodeId, hi: NodeId) -> (Node, bool) {
        let flip = hi.is_complemented();
        let (lo, hi) = if flip {
            (lo.complemented(), hi.complemented())
        } else {
            (lo, hi)
        };
        (Node { var, lo, hi }, flip)
    }
}

/// Level sentinel for terminals: below every real variable.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// An ordered-BDD manager: owns the node table, the unique table that
/// guarantees canonicity, and the operation caches.
///
/// All functions produced by one manager share subgraphs; equality of
/// [`NodeId`]s is equality of functions. The manager is deliberately a plain
/// `&mut`-threaded structure (no interior mutability): Difference Propagation
/// is a single-threaded sweep per fault, and keeping the manager simple keeps
/// it fast and auditable.
///
/// # Examples
///
/// ```
/// use dp_bdd::Manager;
///
/// let mut m = Manager::new(2);
/// let a = m.var(0);
/// let b = m.var(1);
/// let f = m.or(a, b);
/// assert_eq!(m.sat_count(f), 3);
/// ```
#[derive(Debug)]
pub struct Manager {
    /// The frozen base this manager extends, if it was produced by
    /// [`FrozenManager::thaw`]. Node indices below the base length resolve
    /// against the shared arena; `nodes`/`unique` then hold only the private
    /// delta. `None` for ordinary (private) managers.
    base: Option<Arc<FrozenBase>>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    /// Arena slots a running [`Manager::sift`] has freed; `store` fills
    /// them before it grows the arena. Empty outside a sift (its closing
    /// [`Manager::gc`] drops them).
    pub(crate) free: Vec<u32>,
    pub(crate) op_cache: OpCache,
    /// `var_to_level[v]` is the position of variable `v` in the order.
    var_to_level: Vec<u32>,
    /// `level_to_var[l]` is the variable sitting at position `l`.
    level_to_var: Vec<Var>,
    pub(crate) stats: ManagerStats,
    /// Active work budget; unlimited by default.
    budget: BudgetConfig,
    /// Operation steps consumed since the last budget-window reset.
    op_steps: u64,
    /// The sticky trip: set by the first budget check that fails, cleared
    /// only by [`Manager::reset_budget_window`]/[`Manager::set_budget`].
    tripped: Option<BddError>,
}

impl Manager {
    /// Creates a manager for `num_vars` variables with the identity order.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds `u32::MAX - 2` (a size no combinational
    /// circuit in this workspace approaches).
    pub fn new(num_vars: usize) -> Self {
        assert!(num_vars < (u32::MAX - 2) as usize, "too many variables");
        let mut m = Manager {
            base: None,
            nodes: Vec::with_capacity(1024),
            unique: UniqueTable::with_capacity(1024),
            free: Vec::new(),
            op_cache: OpCache::with_capacity(DEFAULT_OP_CACHE_CAPACITY),
            var_to_level: (0..num_vars as u32).collect(),
            level_to_var: (0..num_vars as u32).collect(),
            stats: ManagerStats::default(),
            budget: BudgetConfig::UNLIMITED,
            op_steps: 0,
            tripped: None,
        };
        // Slot 0 is the single terminal (constant 1); its stored fields are
        // never read through the usual paths but keep indices aligned.
        m.nodes.push(Node {
            var: u32::MAX,
            lo: NodeId::TRUE,
            hi: NodeId::TRUE,
        });
        m.stats.peak_nodes = m.nodes.len();
        m
    }

    /// Creates a manager with an explicit variable order.
    ///
    /// `order[l]` is the variable placed at level `l` (level 0 is the root
    /// level, tested first). An empty order is valid and yields a zero-var
    /// manager (constants only), matching `Manager::new(0)`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::InvalidOrder`] if `order` is not a permutation of
    /// `0..order.len()` — a duplicated variable or a gap (an entry `>= len`)
    /// would silently corrupt the level maps if accepted.
    pub fn with_order(order: &[Var]) -> Result<Self, BddError> {
        let n = order.len();
        let mut var_to_level = vec![u32::MAX; n];
        for (level, &v) in order.iter().enumerate() {
            if (v as usize) >= n || var_to_level[v as usize] != u32::MAX {
                return Err(BddError::InvalidOrder);
            }
            var_to_level[v as usize] = level as u32;
        }
        let mut m = Manager::new(n);
        m.var_to_level = var_to_level;
        m.level_to_var = order.to_vec();
        Ok(m)
    }

    /// Consumes this manager and freezes its node arena, unique table and
    /// variable order into an immutable, shareable [`FrozenManager`].
    ///
    /// Every [`NodeId`] issued by this manager keeps denoting the same
    /// function in every delta manager thawed from the snapshot.
    ///
    /// # Panics
    ///
    /// Panics if this manager is itself a delta manager (re-freezing would
    /// alias the base arena twice), or if a budget trip is pending (the
    /// table is exact on a trip, but the caller clearly did not finish what
    /// it meant to freeze).
    pub fn freeze(self) -> FrozenManager {
        assert!(
            self.base.is_none(),
            "cannot freeze a delta manager (it already extends a frozen base)"
        );
        assert!(
            self.tripped.is_none(),
            "cannot freeze a manager with a pending budget trip"
        );
        FrozenManager::from_base(FrozenBase {
            nodes: self.nodes,
            unique: self.unique,
            var_to_level: self.var_to_level,
            level_to_var: self.level_to_var,
            build_stats: self.stats,
        })
    }

    /// Constructs a delta manager over `base` (see [`FrozenManager::thaw`]).
    /// Its op cache starts at [`DELTA_OP_CACHE_CAPACITY`], the size an
    /// engine runs it at, so a thaw allocates the cache at most once (and
    /// not at all when a dropped engine left a spare of that size).
    pub(crate) fn thawed(base: Arc<FrozenBase>) -> Manager {
        let mut m = Manager {
            var_to_level: base.var_to_level.clone(),
            level_to_var: base.level_to_var.clone(),
            base: Some(base),
            nodes: Vec::new(),
            unique: UniqueTable::with_capacity(64),
            free: Vec::new(),
            op_cache: OpCache::with_capacity(DELTA_OP_CACHE_CAPACITY),
            stats: ManagerStats::default(),
            budget: BudgetConfig::UNLIMITED,
            op_steps: 0,
            tripped: None,
        };
        m.stats.peak_nodes = m.num_nodes();
        m.stats.base_nodes = m.base_len();
        m
    }

    /// `true` when this manager extends a frozen base (its variable order is
    /// fixed; reordering is rejected).
    pub fn has_frozen_base(&self) -> bool {
        self.base.is_some()
    }

    /// Number of nodes owned by the frozen base (0 for private managers).
    fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.nodes.len())
    }

    /// The stored node at a global index, resolving against the frozen base
    /// for indices below the base length.
    pub(crate) fn node_at(&self, index: usize) -> Node {
        match &self.base {
            Some(base) if index < base.nodes.len() => base.nodes[index],
            Some(base) => self.nodes[index - base.nodes.len()],
            None => self.nodes[index],
        }
    }

    /// Number of variables this manager was created with.
    pub fn num_vars(&self) -> usize {
        self.var_to_level.len()
    }

    /// Total number of nodes currently allocated (including the terminal and
    /// any frozen base this manager extends).
    pub fn num_nodes(&self) -> usize {
        self.base_len() + self.nodes.len()
    }

    /// The level (position in the order) of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn level_of(&self, v: Var) -> u32 {
        self.var_to_level[v as usize]
    }

    /// The variable sitting at level `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn var_at_level(&self, l: u32) -> Var {
        self.level_to_var[l as usize]
    }

    /// The current variable order, as the sequence of variables from the root
    /// level downward.
    pub fn order(&self) -> &[Var] {
        &self.level_to_var
    }

    /// Exchanges the order bookkeeping for `level` and `level + 1` (the node
    /// rewriting lives in the `reorder` module).
    pub(crate) fn swap_order_entries(&mut self, level: u32) {
        let l = level as usize;
        self.level_to_var.swap(l, l + 1);
        let u = self.level_to_var[l];
        let v = self.level_to_var[l + 1];
        self.var_to_level[u as usize] = level;
        self.var_to_level[v as usize] = level + 1;
    }

    /// Level of an edge's node: terminals sit below all variables.
    pub(crate) fn node_level(&self, n: NodeId) -> u32 {
        if n.is_terminal() {
            TERMINAL_LEVEL
        } else {
            self.var_to_level[self.node_at(n.index()).var as usize]
        }
    }

    /// The decision variable of an internal node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is a terminal.
    pub fn node_var(&self, n: NodeId) -> Var {
        assert!(!n.is_terminal(), "terminals have no decision variable");
        self.node_at(n.index()).var
    }

    /// The else-cofactor (`var = 0`) **of the function `n` denotes**: the
    /// stored lo edge with `n`'s complement attribute folded in.
    ///
    /// # Panics
    ///
    /// Panics if `n` is a terminal.
    pub fn node_lo(&self, n: NodeId) -> NodeId {
        assert!(!n.is_terminal(), "terminals have no children");
        let lo = self.node_at(n.index()).lo;
        if n.is_complemented() {
            lo.complemented()
        } else {
            lo
        }
    }

    /// The then-cofactor (`var = 1`) **of the function `n` denotes**: the
    /// stored hi edge (always regular) with `n`'s complement attribute
    /// folded in.
    ///
    /// # Panics
    ///
    /// Panics if `n` is a terminal.
    pub fn node_hi(&self, n: NodeId) -> NodeId {
        assert!(!n.is_terminal(), "terminals have no children");
        let hi = self.node_at(n.index()).hi;
        if n.is_complemented() {
            hi.complemented()
        } else {
            hi
        }
    }

    /// Returns the constant `true` or `false` function.
    pub fn constant(&self, value: bool) -> NodeId {
        if value {
            NodeId::TRUE
        } else {
            NodeId::FALSE
        }
    }

    /// Returns the single-variable function `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&mut self, v: Var) -> NodeId {
        assert!((v as usize) < self.num_vars(), "variable out of range");
        self.mk(v, NodeId::FALSE, NodeId::TRUE)
    }

    /// Returns the negated single-variable function `¬v` (the complemented
    /// edge to the same node [`Manager::var`] returns).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn nvar(&mut self, v: Var) -> NodeId {
        assert!((v as usize) < self.num_vars(), "variable out of range");
        self.mk(v, NodeId::TRUE, NodeId::FALSE)
    }

    /// The `mk` operation: returns the canonical edge for `(var, lo, hi)`,
    /// applying the reduction rule `lo == hi ⇒ lo`, the complement-edge
    /// normalisation (hi must be regular: if it is not, both children are
    /// flipped and the returned edge is complemented), and hash-consing.
    ///
    /// Budget-checked: on a tripped manager this returns a dummy edge
    /// without touching the node table; a unique-table miss that would grow
    /// the table past [`BudgetConfig::max_nodes`] trips the budget instead
    /// of allocating (hash-cons hits are always free).
    pub(crate) fn mk(&mut self, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
        if self.tripped.is_some() {
            return NodeId::TRUE;
        }
        if lo == hi {
            return lo;
        }
        let (node, flip) = Node::canonical(var, lo, hi);
        // Two-level lookup: the frozen base first (immutable, so a present
        // node is always a hit), then the private delta table. Each lookup
        // resolves against exactly one table, keeping
        // `unique.lookups == base_hits + delta_lookups`. Both tables store
        // only arena indices; key comparison reads the arena in place. A
        // node with a delta child cannot be in the base, so the base is
        // probed only when both children are base nodes.
        let base_len = self.base_len();
        let base_hit = self
            .base
            .as_ref()
            .filter(|_| node.lo.index().max(node.hi.index()) < base_len)
            .and_then(|base| base.unique.get(&node, &base.nodes, 0));
        let id = if let Some(id) = base_hit {
            self.stats.unique.hit();
            self.stats.base_hits += 1;
            id
        } else if let Some(id) = self.unique.get(&node, &self.nodes, base_len) {
            self.stats.unique.hit();
            self.stats.delta_lookups += 1;
            id
        } else {
            if self
                .budget
                .max_nodes
                .is_some_and(|max| self.num_nodes() >= max)
            {
                // Trip before counting the miss or allocating, so the stats
                // invariant `peak_nodes ≤ 1 + unique.misses` is untouched.
                self.trip();
                return NodeId::TRUE;
            }
            let index = self.store(node);
            self.unique.insert(index, &node, &self.nodes, base_len);
            NodeId::from_index(index)
        };
        if flip {
            id.complemented()
        } else {
            id
        }
    }

    /// Stores a node every unique table missed and returns its global
    /// index: counts the miss, fills a slot a running sift freed or grows
    /// the arena. The caller files the node in its unique table.
    pub(crate) fn store(&mut self, node: Node) -> usize {
        self.stats.unique.miss();
        self.stats.delta_lookups += 1;
        let base_len = self.base_len();
        let index = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize - base_len] = node;
                slot as usize
            }
            None => {
                self.nodes.push(node);
                self.num_nodes() - 1
            }
        };
        self.stats.peak_nodes = self.stats.peak_nodes.max(self.num_nodes());
        // Keep the lossy op cache tracking the arena (base included —
        // delta recursions memoise base triples too): a memo much
        // smaller than the live table thrashes apply into super-linear
        // recompute.
        self.op_cache.maybe_grow(index + 1);
        index
    }

    /// Installs a work budget and starts a fresh budget window (any pending
    /// trip is cleared, the op-step counter restarts at zero).
    pub fn set_budget(&mut self, budget: BudgetConfig) {
        self.budget = budget;
        self.reset_budget_window();
    }

    /// The currently installed work budget.
    pub fn budget(&self) -> BudgetConfig {
        self.budget
    }

    /// The sticky budget trip, if any check has failed since the last
    /// window reset. While this is `Some`, every edge returned by an
    /// operation is an untrustworthy dummy; results produced in the same
    /// window must be discarded. Node and cache contents stay exact (a
    /// tripped manager neither allocates nor caches), so recovery is just
    /// [`Manager::reset_budget_window`].
    pub fn budget_exceeded(&self) -> Option<BddError> {
        self.tripped
    }

    /// Clears a pending budget trip and restarts the op-step counter —
    /// the per-analysis reset point for engines that apply one budget
    /// window per fault.
    pub fn reset_budget_window(&mut self) {
        self.tripped = None;
        self.op_steps = 0;
    }

    /// Operation steps consumed in the current budget window.
    pub fn op_steps(&self) -> u64 {
        self.op_steps
    }

    fn trip(&mut self) {
        if self.tripped.is_none() {
            self.tripped = Some(BddError::BudgetExceeded {
                nodes: self.num_nodes(),
                op_steps: self.op_steps,
            });
            self.stats.budget_trips += 1;
        }
    }

    /// Counts one memoised operation step against the budget. Returns
    /// `true` when the caller must bail out with a dummy result (the
    /// manager is — or just became — tripped).
    pub(crate) fn charge_op_step(&mut self) -> bool {
        if self.tripped.is_some() {
            return true;
        }
        self.op_steps += 1;
        self.stats.op_steps += 1;
        if self
            .budget
            .max_op_steps
            .is_some_and(|max| self.op_steps > max)
        {
            self.trip();
            return true;
        }
        false
    }

    /// `true` while a budget trip is pending (ops use this to skip cache
    /// inserts of dummy results).
    pub(crate) fn budget_tripped(&self) -> bool {
        self.tripped.is_some()
    }

    /// Evaluates the function under a complete assignment
    /// (`assignment[v]` is the value of variable `v`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than [`Manager::num_vars`].
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    /// let mut m = Manager::new(2);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let f = m.and(a, b);
    /// assert!(m.eval(f, &[true, true]));
    /// assert!(!m.eval(f, &[true, false]));
    /// ```
    pub fn eval(&self, mut n: NodeId, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars(), "assignment too short");
        // Complement parity accumulated along the path; the raw children are
        // followed so each edge's attribute is folded in exactly once.
        let mut parity = false;
        while !n.is_terminal() {
            parity ^= n.is_complemented();
            let node = self.node_at(n.index());
            n = if assignment[node.var as usize] {
                node.hi
            } else {
                node.lo
            };
        }
        n.is_true() ^ parity
    }

    /// Number of internal nodes reachable from `n` (the terminal excluded).
    ///
    /// This is the classical "BDD size" measure. With complement edges the
    /// size is structural: `f` and `¬f` share every node, so
    /// `size(f) == size(not(f))`.
    pub fn size(&self, n: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            if x.is_terminal() || !seen.insert(x.index()) {
                continue;
            }
            let node = self.node_at(x.index());
            stack.push(node.lo);
            stack.push(node.hi);
        }
        seen.len()
    }

    /// The set of variables the function actually depends on, in increasing
    /// variable-index order.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    /// let mut m = Manager::new(3);
    /// let a = m.var(0);
    /// let c = m.var(2);
    /// let f = m.and(a, c);
    /// assert_eq!(m.support(f), vec![0, 2]);
    /// ```
    pub fn support(&self, n: NodeId) -> Vec<Var> {
        let mut present = vec![false; self.num_vars()];
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            if x.is_terminal() || !seen.insert(x.index()) {
                continue;
            }
            let node = self.node_at(x.index());
            present[node.var as usize] = true;
            stack.push(node.lo);
            stack.push(node.hi);
        }
        present
            .iter()
            .enumerate()
            .filter_map(|(v, &p)| p.then_some(v as Var))
            .collect()
    }

    /// Returns `true` if the function is one of the two constants.
    ///
    /// In the paper's §4.2 this is the test for a bridging fault "exhibiting
    /// stuck-at behaviour": the faulty site function has empty support.
    pub fn is_constant(&self, n: NodeId) -> bool {
        n.is_terminal()
    }

    /// Counters describing this manager's work so far (all cumulative; see
    /// [`ManagerStats`]).
    pub fn stats(&self) -> &ManagerStats {
        &self.stats
    }

    /// Drops the operation cache. Node storage is untouched.
    ///
    /// Useful between unrelated workloads to bound memory without the cost of
    /// a full [`Manager::gc`]. Every counter in [`Manager::stats`],
    /// the op-cache ones included, is untouched.
    pub fn clear_op_cache(&mut self) {
        self.op_cache.clear();
    }

    /// Pre-sizes the (private/delta) unique table for `expected` total nodes
    /// so that building up to that many allocates no intermediate tables —
    /// the "rehash storm" killer for circuit-sized workloads whose node count
    /// is roughly known up front. Never shrinks; contents are untouched.
    pub fn reserve_nodes(&mut self, expected: usize) {
        let base_len = self.base_len();
        self.unique.reserve(expected, &self.nodes, base_len);
    }

    /// Slots currently allocated by the (private/delta) unique table — a
    /// memory-accounting figure, not an entry count.
    pub fn unique_table_capacity(&self) -> usize {
        self.unique.capacity()
    }

    /// Replaces the operation cache with an empty one of `capacity` slots
    /// (rounded up to a power of two, floor 1024). The cache is direct-mapped
    /// and lossy, so capacity is a pure speed/memory dial: larger caches
    /// evict less and recompute less, smaller ones bound memory harder.
    /// The value is a starting point, not a ceiling — the kernel doubles
    /// the cache as the node arena outgrows it (bounded by an internal hard
    /// cap), because a memo much smaller than the live table degrades
    /// apply-style recursions to super-linear recompute.
    /// Counters behave as for [`Manager::clear_op_cache`].
    pub fn set_op_cache_capacity(&mut self, capacity: usize) {
        self.op_cache = OpCache::with_capacity(capacity);
    }

    /// Slots in the operation cache right now (the cache grows with the
    /// node arena; see [`Manager::set_op_cache_capacity`]).
    pub fn op_cache_capacity(&self) -> usize {
        self.op_cache.capacity()
    }

    /// Public, budget-checked `mk`: the canonical edge for `(var, lo, hi)`
    /// under the current order. Exposed for white-box kernel tests (the
    /// differential shadow-table proptest) and benchmarks that need to drive
    /// the unique table directly, bypassing the operation layer.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range, or if either child edge sits at or
    /// above `var`'s level (which would break the ordering invariant).
    pub fn make_node(&mut self, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
        assert!((var as usize) < self.num_vars(), "variable out of range");
        let level = self.var_to_level[var as usize];
        assert!(
            self.node_level(lo) > level && self.node_level(hi) > level,
            "make_node children must sit strictly below the decision variable"
        );
        self.mk(var, lo, hi)
    }

    /// Checks the complement-edge canonical form over the whole node table
    /// (debug/test aid):
    ///
    /// * no stored hi edge is complemented,
    /// * no node has `lo == hi`,
    /// * children sit at strictly deeper levels than their parent,
    /// * the unique table maps exactly the stored nodes to regular edges.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation found.
    pub fn assert_canonical(&self) {
        let base_len = self.base_len();
        for i in 1..self.num_nodes() {
            let node = self.node_at(i);
            assert!(
                !node.hi.is_complemented(),
                "node {i}: hi edge {} is complemented",
                node.hi
            );
            assert_ne!(node.lo, node.hi, "node {i}: redundant (lo == hi)");
            let level = self.var_to_level[node.var as usize];
            for child in [node.lo, node.hi] {
                assert!(
                    self.node_level(child) > level,
                    "node {i}: child {child} at level ≤ parent"
                );
            }
            // Each node lives in exactly one unique table: the base holds
            // the frozen slots, the delta the rest (never duplicating a base
            // node, because mk probes the base first).
            let id = if i < base_len {
                let base = self.base.as_ref().unwrap();
                base.unique.get(&node, &base.nodes, 0)
            } else {
                assert!(
                    self.base
                        .as_ref()
                        .is_none_or(|b| b.unique.get(&node, &b.nodes, 0).is_none()),
                    "delta node {i} duplicates a base node"
                );
                self.unique.get(&node, &self.nodes, base_len)
            }
            .unwrap_or_else(|| panic!("node {i} missing from the unique table"));
            assert_eq!(
                id.index(),
                i,
                "unique table maps node {i} to a different slot"
            );
            assert!(
                !id.is_complemented(),
                "unique table stores a complemented edge"
            );
        }
        if let Some(base) = &self.base {
            assert_eq!(
                base.unique.len(),
                base.nodes.len() - 1,
                "base unique table size disagrees with the base node table"
            );
            assert_eq!(
                self.unique.len(),
                self.nodes.len(),
                "delta unique table size disagrees with the delta node table"
            );
        } else {
            assert_eq!(
                self.unique.len(),
                self.nodes.len() - 1,
                "unique table size disagrees with the node table"
            );
        }
    }

    /// Garbage-collects every node not reachable from `roots`, compacting the
    /// node table. Returns the remapping from old to new ids; apply it to any
    /// retained handles via [`Remap::map`] (complement attributes are
    /// preserved across the move).
    ///
    /// The operation cache is invalidated (its counters in
    /// [`Manager::stats`] keep every probe); `gc_runs` is incremented and
    /// all other counters are untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    /// let mut m = Manager::new(2);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let keep = m.and(a, b);
    /// let _garbage = m.xor(a, b);
    /// let remap = m.gc(&[keep]);
    /// let keep = remap.map(keep);
    /// assert_eq!(m.sat_count(keep), 1);
    /// ```
    pub fn gc(&mut self, roots: &[NodeId]) -> Remap {
        // Post-order placement over node *indices*: children are compacted
        // before their parents regardless of slot order. Complement bits
        // live on edges, so the index graph is what gets walked.
        //
        // With a frozen base, only delta slots move: base indices are
        // identity-mapped up front (the base arena is immutable and closed —
        // base nodes only reference base nodes — so the walk never descends
        // into it), and surviving delta nodes compact to the slots directly
        // above the base.
        const UNPLACED: u32 = u32::MAX;
        let base_len = self.base_len();
        let mut map = vec![UNPLACED; self.num_nodes()];
        let mut new_nodes = Vec::new();
        if base_len == 0 {
            // Private manager: the terminal is delta slot 0 and survives.
            new_nodes.push(self.nodes[0]);
            map[0] = 0;
        } else {
            for (i, slot) in map.iter_mut().enumerate().take(base_len) {
                *slot = i as u32;
            }
        }
        let mut stack: Vec<(usize, bool)> = roots.iter().map(|&r| (r.index(), false)).collect();
        while let Some((i, expanded)) = stack.pop() {
            if map[i] != UNPLACED {
                continue;
            }
            let node = self.nodes[i - base_len];
            if expanded {
                let remap_edge = |e: NodeId, map: &[u32]| -> NodeId {
                    let idx = NodeId::from_index(map[e.index()] as usize);
                    if e.is_complemented() {
                        idx.complemented()
                    } else {
                        idx
                    }
                };
                let remapped = Node {
                    var: node.var,
                    lo: remap_edge(node.lo, &map),
                    hi: remap_edge(node.hi, &map),
                };
                map[i] = (base_len + new_nodes.len()) as u32;
                new_nodes.push(remapped);
            } else {
                stack.push((i, true));
                stack.push((node.lo.index(), false));
                stack.push((node.hi.index(), false));
            }
        }
        self.nodes = new_nodes;
        self.free.clear();
        // Rebuild the unique table in place: clear keeps the allocation, so
        // the rebuild is a straight re-insertion pass with no rehash storms
        // (the surviving set is never larger than the pre-gc set).
        self.unique.clear();
        let keep_from = if base_len == 0 { 1 } else { 0 };
        for i in keep_from..self.nodes.len() {
            let node = self.nodes[i];
            self.unique
                .insert(base_len + i, &node, &self.nodes, base_len);
        }
        self.op_cache.clear();
        self.stats.gc_runs += 1;
        Remap { map }
    }

    /// Emits the graph rooted at `n` in Graphviz `dot` syntax (debug aid).
    ///
    /// Edge styling: then (hi) edges are solid, else (lo) edges are dotted,
    /// and **complement arcs are dashed** (a dashed else edge is a
    /// complemented else edge; a dashed entry arc marks a complemented
    /// root). The hi-edge-regular canonical form guarantees no then edge
    /// ever needs the dashed style.
    pub fn to_dot(&self, n: NodeId, name: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  t1 [label=\"1\", shape=box];");
        let label = |x: NodeId| -> String {
            if x.is_terminal() {
                "t1".to_string()
            } else {
                format!("n{}", x.index())
            }
        };
        // Entry arc: dashed when the root edge itself is complemented.
        let _ = writeln!(out, "  f [label=\"{name}\", shape=plaintext];");
        let root_style = if n.is_complemented() {
            " [style=dashed]"
        } else {
            ""
        };
        let _ = writeln!(out, "  f -> {}{root_style};", label(n));
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            if x.is_terminal() || !seen.insert(x.index()) {
                continue;
            }
            let node = self.node_at(x.index());
            let _ = writeln!(out, "  {} [label=\"x{}\"];", label(x), node.var);
            let lo_style = if node.lo.is_complemented() {
                "dashed"
            } else {
                "dotted"
            };
            let _ = writeln!(
                out,
                "  {} -> {} [style={lo_style}];",
                label(x),
                label(node.lo)
            );
            let _ = writeln!(out, "  {} -> {};", label(x), label(node.hi));
            stack.push(node.lo);
            stack.push(node.hi);
        }
        out.push_str("}\n");
        out
    }
}

/// The old-id → new-id mapping produced by [`Manager::gc`].
#[derive(Debug, Clone)]
pub struct Remap {
    /// `map[old_index]` is the new index, or `u32::MAX` if collected.
    map: Vec<u32>,
}

impl Remap {
    /// Translates a pre-collection handle into its post-collection handle,
    /// preserving the complement attribute.
    ///
    /// # Panics
    ///
    /// Panics if `old` was not reachable from the GC roots (its slot was
    /// reclaimed) — with the exception of terminals, which always survive.
    pub fn map(&self, old: NodeId) -> NodeId {
        let new = self.map[old.index()];
        assert!(
            new != u32::MAX,
            "node {old} was collected; include it in the gc roots"
        );
        let id = NodeId::from_index(new as usize);
        if old.is_complemented() {
            id.complemented()
        } else {
            id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let m = Manager::new(4);
        assert!(NodeId::FALSE.is_terminal());
        assert!(NodeId::TRUE.is_terminal());
        assert_eq!(m.constant(false), NodeId::FALSE);
        assert_eq!(m.constant(true), NodeId::TRUE);
        assert_eq!(NodeId::FALSE, NodeId::TRUE.complemented());
        assert_eq!(m.num_nodes(), 1); // one shared terminal node
    }

    #[test]
    fn var_is_hash_consed() {
        let mut m = Manager::new(2);
        let a1 = m.var(0);
        let a2 = m.var(0);
        assert_eq!(a1, a2);
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn nvar_is_complement_edge_to_var() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let na = m.nvar(0);
        assert_eq!(na, a.complemented());
        assert_eq!(na.index(), a.index(), "¬a shares a's node");
        assert_eq!(m.num_nodes(), 2, "no extra node for the negation");
        m.assert_canonical();
    }

    #[test]
    fn mk_reduces_equal_children() {
        let mut m = Manager::new(2);
        let t = NodeId::TRUE;
        assert_eq!(m.mk(0, t, t), t);
    }

    #[test]
    fn mk_normalises_complemented_hi() {
        let mut m = Manager::new(2);
        // (0, ⊤, ⊥) has a complemented hi; the canonical result is the
        // complemented edge to (0, ⊥, ⊤).
        let n = m.mk(0, NodeId::TRUE, NodeId::FALSE);
        assert!(n.is_complemented());
        let a = m.mk(0, NodeId::FALSE, NodeId::TRUE);
        assert_eq!(n, a.complemented());
        m.assert_canonical();
    }

    #[test]
    fn eval_var_and_nvar() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let na = m.nvar(0);
        assert!(m.eval(a, &[true, false]));
        assert!(!m.eval(a, &[false, false]));
        assert!(!m.eval(na, &[true, false]));
        assert!(m.eval(na, &[false, false]));
    }

    #[test]
    fn with_order_accepts_permutation() {
        let m = Manager::with_order(&[2, 0, 1]).unwrap();
        assert_eq!(m.level_of(2), 0);
        assert_eq!(m.level_of(0), 1);
        assert_eq!(m.level_of(1), 2);
        assert_eq!(m.var_at_level(0), 2);
        assert_eq!(m.order(), &[2, 0, 1]);
    }

    #[test]
    fn with_order_rejects_duplicates_with_typed_error() {
        // A duplicate would map two levels to one variable and leave another
        // at the u32::MAX sentinel — must be a typed error, not corruption.
        assert_eq!(
            Manager::with_order(&[0, 0, 1]).unwrap_err(),
            BddError::InvalidOrder
        );
        assert_eq!(
            Manager::with_order(&[2, 1, 2]).unwrap_err(),
            BddError::InvalidOrder
        );
    }

    #[test]
    fn with_order_rejects_gaps_with_typed_error() {
        // An out-of-range entry means some in-range variable never gets a
        // level (a gap in the permutation).
        assert_eq!(
            Manager::with_order(&[0, 3, 1]).unwrap_err(),
            BddError::InvalidOrder
        );
        assert_eq!(
            Manager::with_order(&[u32::MAX]).unwrap_err(),
            BddError::InvalidOrder
        );
    }

    #[test]
    fn with_order_accepts_empty_order() {
        // Empty is the vacuous permutation: a constants-only manager,
        // equivalent to `Manager::new(0)`.
        let m = Manager::with_order(&[]).unwrap();
        assert_eq!(m.num_vars(), 0);
        assert!(m.order().is_empty());
        assert!(m.eval(NodeId::TRUE, &[]));
        assert!(!m.eval(NodeId::FALSE, &[]));
    }

    #[test]
    fn support_reports_dependencies() {
        let mut m = Manager::new(4);
        let b = m.var(1);
        let d = m.var(3);
        let f = m.or(b, d);
        assert_eq!(m.support(f), vec![1, 3]);
        assert!(m.support(NodeId::TRUE).is_empty());
        let nf = m.not(f);
        assert_eq!(m.support(nf), vec![1, 3]);
    }

    #[test]
    fn size_counts_internal_nodes() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        // With complement edges b and ¬b share one node: root + one var-1
        // node instead of the thick three-node XOR.
        assert_eq!(m.size(f), 2);
        assert_eq!(m.size(NodeId::TRUE), 0);
        let nf = m.not(f);
        assert_eq!(m.size(nf), m.size(f));
    }

    #[test]
    fn node_accessors_fold_the_complement() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let nf = m.not(f);
        // F(nf) = ite(var, F(node_hi(nf)), F(node_lo(nf))) must hold.
        assert_eq!(m.node_var(nf), m.node_var(f));
        assert_eq!(m.node_lo(nf), m.node_lo(f).complemented());
        assert_eq!(m.node_hi(nf), m.node_hi(f).complemented());
    }

    #[test]
    fn gc_keeps_roots_and_compacts() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let keep = m.and(a, b);
        let ab = m.xor(a, b);
        let _garbage = m.xor(ab, c);
        let before = m.num_nodes();
        let remap = m.gc(&[keep]);
        let keep2 = remap.map(keep);
        assert!(m.num_nodes() < before);
        assert_eq!(m.sat_count(keep2), 2); // a·b over 3 vars = 2 minterms
        m.assert_canonical();
    }

    #[test]
    fn gc_preserves_complement_attributes() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let nab = m.not(ab);
        let count = m.sat_count(nab);
        let remap = m.gc(&[nab]);
        let nab2 = remap.map(nab);
        assert!(nab2.is_complemented() == nab.is_complemented());
        assert_eq!(m.sat_count(nab2), count);
        m.assert_canonical();
    }

    #[test]
    #[should_panic(expected = "was collected")]
    fn remap_panics_on_collected_node() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let garbage = m.and(a, b);
        let remap = m.gc(&[]);
        let _ = remap.map(garbage);
    }

    #[test]
    fn to_dot_mentions_every_variable() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let dot = m.to_dot(f, "f");
        assert!(dot.contains("x0"));
        assert!(dot.contains("x1"));
    }

    #[test]
    fn to_dot_marks_complement_arcs_dashed() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.nand(a, b); // complemented root edge
        let dot = m.to_dot(f, "nand");
        assert!(dot.contains("style=dashed"), "complement arc not dashed");
    }
}
