//! Boolean operations: `apply`, negation, `ite`, cofactors and quantifiers.
//!
//! With complement edges every binary connective is a thin wrapper over a
//! single memoised [`Manager::ite`] recursion:
//!
//! * `a ∧ b = ite(a, b, ⊥)`
//! * `a ∨ b = ite(a, ⊤, b)`
//! * `a ⊕ b = ite(a, ¬b, b)`
//!
//! Before probing the cache, the triple is rewritten into the Brace/Rudell/
//! Bryant **standard form** (operand ordering for the commutative shapes
//! plus two complement rules: the first argument and the then-branch are
//! always regular). Semantically equal calls that arrive spelled
//! differently — `a∧b` vs `b∧a` vs `¬(¬a ∨ ¬b)` — therefore normalise to
//! the *same* cache key and share one slot, which is where the cache-hit
//! improvement of this representation comes from.

use crate::manager::{Manager, NodeId, Var};
use crate::stats::OpKind;

/// A binary Boolean connective accepted by [`Manager::apply`].
///
/// Only the three ring operations needed by Difference Propagation are
/// primitive; the remaining connectives (`NAND`, `NOR`, implication, ...) are
/// compositions of these and [`Manager::not`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Exclusive or — the GF(2) ring sum the paper's Table 1 is built on.
    Xor,
}

impl BinOp {
    /// Applies the connective to two scalar bits.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            BinOp::And => a && b,
            BinOp::Or => a || b,
            BinOp::Xor => a ^ b,
        }
    }
}

/// Key for the memoisation cache. All binary connectives funnel into
/// standard-form `Ite` triples, so there is no per-connective key variant:
/// the normalisation *is* the canonicalisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OpKey {
    Ite(NodeId, NodeId, NodeId),
    Restrict(NodeId, Var, bool),
    Compose(NodeId, Var, NodeId),
    Exists(NodeId, u64),
    Forall(NodeId, u64),
}

impl Manager {
    /// `¬a`: flips the complement attribute on the edge.
    ///
    /// O(1), no recursion, no allocation, no cache traffic — the `&self`
    /// receiver is the type-level witness that negation cannot create nodes.
    pub fn not(&self, a: NodeId) -> NodeId {
        a.complemented()
    }

    /// Bryant's `apply`: combines two BDDs with a binary connective.
    ///
    /// Internally a standard-triple `ite` call; the cache probes it makes are
    /// attributed to the connective's [`OpKind`] in [`Manager::stats`].
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::{BinOp, Manager};
    /// let mut m = Manager::new(2);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let f = m.apply(BinOp::Xor, a, b);
    /// assert_eq!(m.sat_count(f), 2);
    /// ```
    pub fn apply(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        match op {
            BinOp::And => self.ite_with(a, b, NodeId::FALSE, OpKind::And),
            BinOp::Or => self.ite_with(a, NodeId::TRUE, b, OpKind::Or),
            BinOp::Xor => self.ite_with(a, b.complemented(), b, OpKind::Xor),
        }
    }

    /// `a ∧ b`. Shorthand for [`Manager::apply`] with [`BinOp::And`].
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(BinOp::And, a, b)
    }

    /// `a ∨ b`. Shorthand for [`Manager::apply`] with [`BinOp::Or`].
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(BinOp::Or, a, b)
    }

    /// `a ⊕ b`. Shorthand for [`Manager::apply`] with [`BinOp::Xor`].
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(BinOp::Xor, a, b)
    }

    /// `a ∧ ¬b` (material non-implication) — the shape of the bridging-fault
    /// difference `Δa = fa·¬fb` for an AND bridge, so it gets a helper.
    pub fn and_not(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let nb = self.not(b);
        self.and(a, nb)
    }

    /// `a ↔ b` (XNOR).
    pub fn xnor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// `¬(a ∧ b)`.
    pub fn nand(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let x = self.and(a, b);
        self.not(x)
    }

    /// `¬(a ∨ b)`.
    pub fn nor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let x = self.or(a, b);
        self.not(x)
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    /// let mut m = Manager::new(3);
    /// let s = m.var(0);
    /// let a = m.var(1);
    /// let b = m.var(2);
    /// let mux = m.ite(s, a, b);
    /// assert!(m.eval(mux, &[true, true, false]));
    /// assert!(!m.eval(mux, &[false, true, false]));
    /// ```
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        self.ite_with(f, g, h, OpKind::Ite)
    }

    /// `true` if `b` is the canonical *first* operand of a commutative
    /// triple: lower level wins, regular index breaks ties.
    fn should_swap(&self, a: NodeId, b: NodeId) -> bool {
        let la = self.node_level(a);
        let lb = self.node_level(b);
        lb < la || (la == lb && b.regular() < a.regular())
    }

    /// The shared `ite` recursion; `kind` attributes cache probes to the
    /// connective the user actually called (the cache *entries* themselves
    /// are connective-agnostic standard triples).
    fn ite_with(&mut self, f: NodeId, g: NodeId, h: NodeId, kind: OpKind) -> NodeId {
        // Budget: one op step per recursive call; a tripped manager
        // short-circuits with a dummy edge (see the `budget` module).
        if self.charge_op_step() {
            return NodeId::TRUE;
        }
        // Constant selector.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        // Branches that repeat (or negate) the selector collapse to constants:
        // under f the then-branch sees f = 1, the else-branch f = 0.
        let mut g = g;
        let mut h = h;
        if g == f {
            g = NodeId::TRUE;
        } else if g == f.complemented() {
            g = NodeId::FALSE;
        }
        if h == f {
            h = NodeId::FALSE;
        } else if h == f.complemented() {
            h = NodeId::TRUE;
        }
        // Trivial triples.
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if g.is_false() && h.is_true() {
            return f.complemented();
        }
        // Standard-triple rewrites: each commutative shape picks a canonical
        // operand order, so e.g. ite(a,1,b) (= a∨b) and ite(b,1,a) (= b∨a)
        // meet at one key. The five shapes are mutually exclusive here —
        // mixed-constant and equal-branch triples already returned above.
        let mut f = f;
        if g.is_true() {
            // f ∨ h
            if self.should_swap(f, h) {
                std::mem::swap(&mut f, &mut h);
            }
        } else if g.is_false() {
            // ¬f ∧ h  =  ¬(¬h) ∧ ¬(f)  →  ite(¬h, 0, ¬f)
            if self.should_swap(f, h) {
                let old_f = f;
                f = h.complemented();
                h = old_f.complemented();
            }
        } else if h.is_false() {
            // f ∧ g
            if self.should_swap(f, g) {
                std::mem::swap(&mut f, &mut g);
            }
        } else if h.is_true() {
            // ¬f ∨ g  →  ite(¬g, ¬f, 1)
            if self.should_swap(f, g) {
                let old_f = f;
                f = g.complemented();
                g = old_f.complemented();
            }
        } else if g == h.complemented() {
            // f ↔ g  →  ite(g, f, ¬f)
            if self.should_swap(f, g) {
                std::mem::swap(&mut f, &mut g);
                h = g.complemented();
            }
        }
        // Complement rules: a regular selector (ite(¬f,g,h) = ite(f,h,g)) and
        // a regular then-branch (ite(f,¬g,¬h) = ¬ite(f,g,h)), mirroring the
        // node-level hi-edge-regular invariant at the cache level.
        if f.is_complemented() {
            f = f.complemented();
            std::mem::swap(&mut g, &mut h);
        }
        let flip = g.is_complemented();
        if flip {
            g = g.complemented();
            h = h.complemented();
        }
        let key = OpKey::Ite(f, g, h);
        if let Some(r) = self.op_cache.get(&key) {
            self.stats[kind].hit();
            return if flip { r.complemented() } else { r };
        }
        self.stats[kind].miss();
        let level = self
            .node_level(f)
            .min(self.node_level(g))
            .min(self.node_level(h));
        let var = self.var_at_level(level);
        let split = |m: &Manager, n: NodeId| -> (NodeId, NodeId) {
            if !n.is_terminal() && m.node_level(n) == level {
                (m.node_lo(n), m.node_hi(n))
            } else {
                (n, n)
            }
        };
        let (f0, f1) = split(self, f);
        let (g0, g1) = split(self, g);
        let (h0, h1) = split(self, h);
        let lo = self.ite_with(f0, g0, h0, kind);
        let hi = self.ite_with(f1, g1, h1, kind);
        let r = self.mk(var, lo, hi);
        // A result assembled after a trip is a dummy; caching it would
        // poison future (untripped) lookups.
        if !self.budget_tripped() {
            self.op_cache.insert(key, r);
        }
        if flip {
            r.complemented()
        } else {
            r
        }
    }

    /// The cofactor `f|_{v=value}`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn restrict(&mut self, f: NodeId, v: Var, value: bool) -> NodeId {
        assert!((v as usize) < self.num_vars(), "variable out of range");
        // Cofactoring commutes with complement; caching on the regular edge
        // lets f and ¬f share every restrict entry.
        let flip = f.is_complemented();
        let f = f.regular();
        let r = self.restrict_regular(f, v, value);
        if flip {
            r.complemented()
        } else {
            r
        }
    }

    fn restrict_regular(&mut self, f: NodeId, v: Var, value: bool) -> NodeId {
        debug_assert!(!f.is_complemented());
        if self.charge_op_step() {
            return f;
        }
        if f.is_terminal() {
            return f;
        }
        let vl = self.level_of(v);
        let fl = self.node_level(f);
        if fl > vl {
            // v does not occur in f (everything at deeper levels is > vl).
            return f;
        }
        let key = OpKey::Restrict(f, v, value);
        if let Some(r) = self.op_cache.get(&key) {
            self.stats[OpKind::Restrict].hit();
            return r;
        }
        self.stats[OpKind::Restrict].miss();
        let var = self.node_var(f);
        let (lo, hi) = (self.node_lo(f), self.node_hi(f));
        let r = if fl == vl {
            if value {
                hi
            } else {
                lo
            }
        } else {
            let nlo = self.restrict(lo, v, value);
            let nhi = self.restrict(hi, v, value);
            self.mk(var, nlo, nhi)
        };
        if !self.budget_tripped() {
            self.op_cache.insert(key, r);
        }
        r
    }

    /// Functional composition `f[v := g]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn compose(&mut self, f: NodeId, v: Var, g: NodeId) -> NodeId {
        assert!((v as usize) < self.num_vars(), "variable out of range");
        // Composition also commutes with complement on f.
        let flip = f.is_complemented();
        let f = f.regular();
        let key = OpKey::Compose(f, v, g);
        let r = if let Some(r) = self.op_cache.get(&key) {
            self.stats[OpKind::Compose].hit();
            r
        } else {
            self.stats[OpKind::Compose].miss();
            let f0 = self.restrict(f, v, false);
            let f1 = self.restrict(f, v, true);
            let r = self.ite(g, f1, f0);
            if !self.budget_tripped() {
                self.op_cache.insert(key, r);
            }
            r
        };
        if flip {
            r.complemented()
        } else {
            r
        }
    }

    /// Existential quantification `∃ vars . f`.
    ///
    /// # Panics
    ///
    /// Panics if any variable is out of range or if `vars` contains more than
    /// 64 distinct variables (the cache key packs the set into a word for the
    /// circuit sizes in this workspace; quantify in chunks if you need more).
    pub fn exists(&mut self, f: NodeId, vars: &[Var]) -> NodeId {
        self.quantify(f, vars, true)
    }

    /// Universal quantification `∀ vars . f`.
    ///
    /// # Panics
    ///
    /// As for [`Manager::exists`].
    pub fn forall(&mut self, f: NodeId, vars: &[Var]) -> NodeId {
        self.quantify(f, vars, false)
    }

    fn quantify(&mut self, f: NodeId, vars: &[Var], existential: bool) -> NodeId {
        if vars.is_empty() || f.is_terminal() {
            return f;
        }
        for &v in vars {
            assert!((v as usize) < self.num_vars(), "variable out of range");
        }
        // Quantifier duality folds the complement away: ∃v.¬f = ¬∀v.f, so the
        // cache only ever sees regular edges. Stats are attributed to the
        // quantifier actually *computed* after the fold.
        if f.is_complemented() {
            let r = self.quantify(f.regular(), vars, !existential);
            return r.complemented();
        }
        // Whole-call memoisation is only sound when the variable set packs
        // losslessly into the cache key; otherwise fall through uncached
        // (the per-step restrict/apply caches still help).
        let mask = vars
            .iter()
            .all(|&v| v < 64)
            .then(|| vars.iter().fold(0u64, |m, &v| m | 1u64 << v));
        let kind = if existential {
            OpKind::Exists
        } else {
            OpKind::Forall
        };
        if let Some(mask) = mask {
            let key = if existential {
                OpKey::Exists(f, mask)
            } else {
                OpKey::Forall(f, mask)
            };
            if let Some(r) = self.op_cache.get(&key) {
                self.stats[kind].hit();
                return r;
            }
            self.stats[kind].miss();
        }
        let mut r = f;
        for &v in vars {
            let r0 = self.restrict(r, v, false);
            let r1 = self.restrict(r, v, true);
            r = if existential {
                self.or(r0, r1)
            } else {
                self.and(r0, r1)
            };
        }
        if let Some(mask) = mask {
            if !self.budget_tripped() {
                let key = if existential {
                    OpKey::Exists(f, mask)
                } else {
                    OpKey::Forall(f, mask)
                };
                self.op_cache.insert(key, r);
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_check(m: &Manager, f: NodeId, n: usize, expect: impl Fn(&[bool]) -> bool) {
        for bits in 0u32..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                m.eval(f, &assignment),
                expect(&assignment),
                "mismatch at {assignment:?}"
            );
        }
    }

    #[test]
    fn apply_and_or_xor_truth_tables() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f_and = m.and(a, b);
        let f_or = m.or(a, b);
        let f_xor = m.xor(a, b);
        exhaustive_check(&m, f_and, 2, |x| x[0] && x[1]);
        exhaustive_check(&m, f_or, 2, |x| x[0] || x[1]);
        exhaustive_check(&m, f_xor, 2, |x| x[0] ^ x[1]);
        m.assert_canonical();
    }

    #[test]
    fn derived_gates() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f_nand = m.nand(a, b);
        let f_nor = m.nor(a, b);
        let f_xnor = m.xnor(a, b);
        let f_andnot = m.and_not(a, b);
        exhaustive_check(&m, f_nand, 2, |x| !(x[0] && x[1]));
        exhaustive_check(&m, f_nor, 2, |x| !(x[0] || x[1]));
        exhaustive_check(&m, f_xnor, 2, |x| x[0] == x[1]);
        exhaustive_check(&m, f_andnot, 2, |x| x[0] && !x[1]);
        m.assert_canonical();
    }

    #[test]
    fn not_is_involutive() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.xor(ab, c);
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(f, nnf);
        assert_ne!(f, nf);
    }

    #[test]
    fn xor_with_true_is_not() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        let x = m.xor(f, NodeId::TRUE);
        let n = m.not(f);
        assert_eq!(x, n);
    }

    #[test]
    fn demorgan_shares_one_cache_slot() {
        // a∧b and ¬(¬a ∨ ¬b) are the same standard triple; the second
        // spelling must hit the cache entry the first created.
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f1 = m.and(a, b);
        let misses_after_and = m.stats()[OpKind::And].misses;
        let na = m.not(a);
        let nb = m.not(b);
        let or = m.or(na, nb);
        let f2 = m.not(or);
        assert_eq!(f1, f2);
        assert_eq!(
            m.stats()[OpKind::Or].misses,
            0,
            "¬a ∨ ¬b should hit the a∧b standard triple"
        );
        assert_eq!(m.stats()[OpKind::And].misses, misses_after_and);
    }

    #[test]
    fn commuted_xor_shares_one_cache_slot() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f1 = m.xor(a, b);
        let misses = m.stats()[OpKind::Xor].misses;
        let f2 = m.xor(b, a);
        assert_eq!(f1, f2);
        assert_eq!(m.stats()[OpKind::Xor].misses, misses, "xor(b,a) missed");
    }

    #[test]
    fn ite_is_mux() {
        let mut m = Manager::new(3);
        let s = m.var(0);
        let a = m.var(1);
        let b = m.var(2);
        let f = m.ite(s, a, b);
        exhaustive_check(&m, f, 3, |x| if x[0] { x[1] } else { x[2] });
    }

    #[test]
    fn ite_terminal_cases() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        assert_eq!(m.ite(NodeId::TRUE, a, b), a);
        assert_eq!(m.ite(NodeId::FALSE, a, b), b);
        assert_eq!(m.ite(a, NodeId::TRUE, NodeId::FALSE), a);
        let na = m.not(a);
        assert_eq!(m.ite(a, NodeId::FALSE, NodeId::TRUE), na);
        assert_eq!(m.ite(a, b, b), b);
    }

    #[test]
    fn ite_selector_substitution() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        // ite(a, a, b) = ite(a, 1, b) = a ∨ b
        let f = m.ite(a, a, b);
        let or = m.or(a, b);
        assert_eq!(f, or);
        // ite(a, b, a) = ite(a, b, 0) = a ∧ b
        let g = m.ite(a, b, a);
        let and = m.and(a, b);
        assert_eq!(g, and);
        // ite(a, ¬a, b) = ite(a, 0, b) = ¬a ∧ b
        let na = m.not(a);
        let h = m.ite(a, na, b);
        let expect = m.and_not(b, a);
        assert_eq!(h, expect);
    }

    #[test]
    fn restrict_cofactors() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(m.restrict(f, 0, true), b);
        assert_eq!(m.restrict(f, 0, false), NodeId::FALSE);
        assert_eq!(m.restrict(f, 1, true), a);
    }

    #[test]
    fn restrict_commutes_with_not() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let nf = m.not(f);
        let r = m.restrict(f, 0, true);
        let nr = m.restrict(nf, 0, true);
        assert_eq!(nr, r.complemented());
    }

    #[test]
    fn restrict_skips_absent_variable() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.or(a, c);
        assert_eq!(m.restrict(f, 1, true), f);
    }

    #[test]
    fn compose_substitutes() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        // f = a ∧ b; f[b := (a ⊕ c)] = a ∧ (a ⊕ c) = a ∧ ¬c
        let f = m.and(a, b);
        let g = m.xor(a, c);
        let h = m.compose(f, 1, g);
        exhaustive_check(&m, h, 3, |x| x[0] && (x[0] ^ x[2]));
    }

    #[test]
    fn exists_and_forall() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let e = m.exists(f, &[1]);
        assert_eq!(e, a); // ∃b. a∧b = a
        let u = m.forall(f, &[1]);
        assert_eq!(u, NodeId::FALSE); // ∀b. a∧b = 0
        let g = m.or(a, b);
        let u2 = m.forall(g, &[1]);
        assert_eq!(u2, a);
        assert_eq!(m.exists(f, &[]), f);
    }

    #[test]
    fn quantifier_duality_through_complement() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let nf = m.not(f);
        let e = m.exists(nf, &[1]);
        let u = m.forall(f, &[1]);
        assert_eq!(e, u.complemented()); // ∃b.¬f = ¬∀b.f
    }

    #[test]
    fn apply_respects_custom_order() {
        // Same function under two orders must agree on all evaluations.
        let mut m1 = Manager::new(3);
        let mut m2 = Manager::with_order(&[2, 1, 0]).unwrap();
        let build = |m: &mut Manager| {
            let a = m.var(0);
            let b = m.var(1);
            let c = m.var(2);
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        let f1 = build(&mut m1);
        let f2 = build(&mut m2);
        for bits in 0u32..8 {
            let assignment: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m1.eval(f1, &assignment), m2.eval(f2, &assignment));
        }
    }

    #[test]
    fn cache_hits_commute() {
        let mut m = Manager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let f1 = m.and(a, b);
        let f2 = m.and(b, a);
        assert_eq!(f1, f2);
    }
}
