//! Exact model counting: the syndrome / detectability primitive.
//!
//! The paper defines the *syndrome* of a line as the proportion of ones in
//! its K-map (Savir) and the *detectability* of a fault as the proportion of
//! input vectors that detect it. Both reduce to counting satisfying
//! assignments of an OBDD over all primary-input variables.

use crate::manager::{Manager, NodeId};
use crate::table::CompactMap;

/// What the counting recursion tallies beside the density: the exact count
/// in the narrowest integer that holds `2^n` (`u64`, then `u128`), or
/// nothing (`()`) when only the density is asked for or no integer fits.
/// The narrow case keeps a memo slot at 16 bytes, as the separate count's
/// was; a `u128` slot pads to 32.
trait Tally: Copy + Default {
    /// The tally of ⊤ over zero remaining variables.
    const ONE: Self;
    /// `self · 2^free`: the tally once `free` unconstrained variables join.
    fn scaled(self, free: u32) -> Self;
    /// The tally of two disjoint halves.
    fn plus(self, other: Self) -> Self;
}

impl Tally for () {
    const ONE: Self = ();
    fn scaled(self, _: u32) -> Self {}
    fn plus(self, (): Self) -> Self {}
}

macro_rules! integer_tally {
    ($($t:ty),*) => {$(
        impl Tally for $t {
            const ONE: Self = 1;
            fn scaled(self, free: u32) -> Self {
                self << free
            }
            fn plus(self, other: Self) -> Self {
                self + other
            }
        }
    )*};
}

integer_tally!(u64, u128);

impl Manager {
    /// Exact number of satisfying assignments of `f` over all
    /// [`Manager::num_vars`] variables.
    ///
    /// # Panics
    ///
    /// Panics if the manager has more than 127 variables (the count no longer
    /// fits in `u128`); use [`Manager::density`] beyond that.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    /// let mut m = Manager::new(3);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let f = m.or(a, b);
    /// assert_eq!(m.sat_count(f), 6); // (a ∨ b) has 3 minterms on 2 vars, ×2 for c
    /// ```
    pub fn sat_count(&self, f: NodeId) -> u128 {
        self.density_and_count(f)
            .1
            .expect("sat_count overflows u128 beyond 127 variables; use density")
    }

    /// The fraction of assignments satisfying `f`, in `[0, 1]`.
    ///
    /// This is the paper's *syndrome* when `f` is a net function, and the
    /// *exact detection probability* when `f` is a complete test set. Computed
    /// directly as a floating-point recursion, so it works for any number of
    /// variables.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    /// let mut m = Manager::new(2);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let f = m.and(a, b);
    /// assert_eq!(m.density(f), 0.25);
    /// ```
    pub fn density(&self, f: NodeId) -> f64 {
        self.weigh::<()>(f).0
    }

    /// [`Manager::density`] and, up to 127 variables, [`Manager::sat_count`]
    /// of `f` from one traversal: bit-identical to the two calls, at the
    /// cost of one.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    /// let mut m = Manager::new(3);
    /// let a = m.var(0);
    /// let b = m.var(1);
    /// let f = m.xor(a, b);
    /// assert_eq!(m.density_and_count(f), (0.5, Some(4)));
    /// ```
    pub fn density_and_count(&self, f: NodeId) -> (f64, Option<u128>) {
        match self.num_vars() {
            0..=63 => {
                let (d, c) = self.weigh::<u64>(f);
                (d, Some(c.into()))
            }
            64..=127 => {
                let (d, c) = self.weigh::<u128>(f);
                (d, Some(c))
            }
            _ => (self.density(f), None),
        }
    }

    /// The one counting recursion: `f`'s density and its tally over all
    /// [`Manager::num_vars`] variables.
    fn weigh<C: Tally>(&self, f: NodeId) -> (f64, C) {
        let n = self.num_vars() as u32;
        let mut memo: CompactMap<(f64, C)> = CompactMap::new();
        let (d, c) = self.weigh_rec(f, n, &mut memo);
        (d, c.scaled(self.node_level(f).min(n)))
    }

    /// `f`'s density and its tally over the levels from its own down to
    /// `n`.
    ///
    /// The memo is deliberately keyed on full edges (complement bit
    /// included), *not* on regular edges with a `1.0 - d` complement rule:
    /// the child accessors fold complements, so the density recursion
    /// performs the exact same floating-point operations on `f`'s virtual
    /// ROBDD as the pre-complement-edge implementation did — bit-identical
    /// results for any variable count, not just the dyadic-exact small
    /// circuits. (A memo hit always returns exactly the value a recompute
    /// would, so the switch to [`CompactMap`] — which never misses a
    /// present key — keeps that bit-identity too.) The tally rides along in
    /// integers, which are exact in any order.
    fn weigh_rec<C: Tally>(&self, f: NodeId, n: u32, memo: &mut CompactMap<(f64, C)>) -> (f64, C) {
        if f.is_terminal() {
            return if f.is_true() {
                (1.0, C::ONE)
            } else {
                (0.0, C::default())
            };
        }
        if let Some(w) = memo.get(f.0) {
            return w;
        }
        let (lo, hi) = (self.node_lo(f), self.node_hi(f));
        let (dlo, clo) = self.weigh_rec(lo, n, memo);
        let (dhi, chi) = self.weigh_rec(hi, n, memo);
        let below = self.node_level(f) + 1;
        let free = |g: NodeId| self.node_level(g).min(n) - below;
        let c = clo.scaled(free(lo)).plus(chi.scaled(free(hi)));
        let w = (0.5 * (dlo + dhi), c);
        memo.insert(f.0, w);
        w
    }

    /// Returns one satisfying assignment of `f`, as a full vector over all
    /// variables (unconstrained variables are set to `false`), or `None` if
    /// `f` is unsatisfiable.
    ///
    /// In test-generation terms: picks one test vector from a complete test
    /// set.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    /// let mut m = Manager::new(2);
    /// let a = m.var(0);
    /// let nb = m.nvar(1);
    /// let f = m.and(a, nb);
    /// let v = m.pick_minterm(f).expect("satisfiable");
    /// assert!(m.eval(f, &v));
    /// assert_eq!(v, vec![true, false]);
    /// ```
    pub fn pick_minterm(&self, f: NodeId) -> Option<Vec<bool>> {
        if f.is_false() {
            return None;
        }
        let mut assignment = vec![false; self.num_vars()];
        let mut cur = f;
        while !cur.is_terminal() {
            let var = self.node_var(cur) as usize;
            let lo = self.node_lo(cur);
            if lo.is_false() {
                assignment[var] = true;
                cur = self.node_hi(cur);
            } else {
                cur = lo;
            }
        }
        debug_assert!(cur.is_true());
        Some(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_terminals() {
        let m = Manager::new(3);
        assert_eq!(m.sat_count(NodeId::TRUE), 8);
        assert_eq!(m.sat_count(NodeId::FALSE), 0);
        assert_eq!(m.density(NodeId::TRUE), 1.0);
        assert_eq!(m.density(NodeId::FALSE), 0.0);
    }

    #[test]
    fn count_single_var_over_many() {
        let mut m = Manager::new(5);
        let c = m.var(2);
        assert_eq!(m.sat_count(c), 16);
        assert_eq!(m.density(c), 0.5);
    }

    #[test]
    fn count_matches_density() {
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let d = m.var(3);
        let ab = m.and(a, b);
        let cd = m.xor(c, d);
        let f = m.or(ab, cd);
        let count = m.sat_count(f) as f64;
        assert!((m.density(f) - count / 16.0).abs() < 1e-12);
    }

    #[test]
    fn count_with_custom_order() {
        let mut m = Manager::with_order(&[3, 1, 0, 2]).unwrap();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(m.sat_count(f), 4); // 1 minterm over {a,b}, ×4 for {c,d}
    }

    #[test]
    fn pick_minterm_satisfies() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let nb = m.nvar(1);
        let c = m.var(2);
        let anb = m.and(a, nb);
        let f = m.and(anb, c);
        let v = m.pick_minterm(f).unwrap();
        assert!(m.eval(f, &v));
        assert!(m.pick_minterm(NodeId::FALSE).is_none());
        assert_eq!(m.pick_minterm(NodeId::TRUE).unwrap(), vec![false; 3]);
    }

    /// The two recursions `density_and_count` replaced, kept verbatim as
    /// the reference for its bits: an edge-keyed `f64` density and a
    /// regular-edge `u128` count with the complement rule.
    fn old_density(m: &Manager, f: NodeId, memo: &mut CompactMap<f64>) -> f64 {
        if f.is_terminal() {
            return if f.is_true() { 1.0 } else { 0.0 };
        }
        if let Some(d) = memo.get(f.0) {
            return d;
        }
        let lo = old_density(m, m.node_lo(f), memo);
        let hi = old_density(m, m.node_hi(f), memo);
        let d = 0.5 * (lo + hi);
        memo.insert(f.0, d);
        d
    }

    fn old_count(m: &Manager, f: NodeId, level: u32, n: u32, memo: &mut CompactMap<u128>) -> u128 {
        let flevel = m.node_level(f).min(n);
        let base = if f.is_terminal() {
            u128::from(f.is_true())
        } else {
            let reg = f.regular();
            let c = if let Some(c) = memo.get(reg.0) {
                c
            } else {
                let next = m.node_level(reg) + 1;
                let lo = old_count(m, m.node_lo(reg), next, n, memo);
                let hi = old_count(m, m.node_hi(reg), next, n, memo);
                memo.insert(reg.0, lo + hi);
                lo + hi
            };
            if f.is_complemented() {
                (1u128 << (n - flevel)) - c
            } else {
                c
            }
        };
        base << (flevel - level)
    }

    /// A seeded random function: a chain of and/or/xor steps over random
    /// literals, so it mixes complement edges and skipped levels.
    fn random_function(m: &mut Manager, seed: u64, steps: usize) -> NodeId {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let n = m.num_vars() as u64;
        let mut f = NodeId::FALSE;
        for _ in 0..steps {
            let r = next();
            let v = m.var((r % n) as u32);
            let lit = if r >> 32 & 1 == 1 { m.not(v) } else { v };
            f = match r >> 40 & 3 {
                0 => m.and(f, lit),
                1 => m.xor(f, lit),
                _ => m.or(f, lit),
            };
        }
        f
    }

    #[test]
    fn density_and_count_match_the_separate_recursions_bit_for_bit() {
        for n in [0usize, 1, 41, 52, 100] {
            let mut m = Manager::new(n);
            let mut fs = vec![NodeId::TRUE, NodeId::FALSE];
            if n > 0 {
                let v = m.var((n / 2) as u32);
                fs.extend([v, m.not(v)]);
                let mut prev = NodeId::TRUE;
                for seed in 0..24 {
                    let f = random_function(&mut m, seed, 3 * n);
                    let (both, either) = (m.and(prev, f), m.xor(prev, f));
                    fs.extend([f, m.not(f), both, either]);
                    prev = f;
                }
            }
            for f in fs {
                let old_d = old_density(&m, f, &mut CompactMap::new());
                let old_c = old_count(&m, f, 0, n as u32, &mut CompactMap::new());
                let (d, c) = m.density_and_count(f);
                assert_eq!(d.to_bits(), old_d.to_bits(), "density of {f:?} at n = {n}");
                assert_eq!(m.density(f).to_bits(), old_d.to_bits());
                assert_eq!(c, Some(old_c), "count of {f:?} at n = {n}");
                assert_eq!(m.sat_count(f), old_c);
            }
        }
    }

    #[test]
    fn density_and_count_drops_the_count_beyond_127_variables() {
        let mut m = Manager::new(130);
        let f = m.var(129);
        assert_eq!(m.density_and_count(f), (0.5, None));
    }

    #[test]
    fn count_brute_force_agreement() {
        // Random-ish function: majority of 3 variables.
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let bc = m.and(b, c);
        let ac = m.and(a, c);
        let t = m.or(ab, bc);
        let maj = m.or(t, ac);
        let mut brute = 0;
        for bits in 0u32..8 {
            let v: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            if m.eval(maj, &v) {
                brute += 1;
            }
        }
        assert_eq!(m.sat_count(maj), brute);
    }
}
