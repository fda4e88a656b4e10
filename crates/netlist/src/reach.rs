//! Dense transitive-fanout reachability.
//!
//! Both the bridging-fault enumerator (feedback screening) and the
//! Difference Propagation engine (cone-restricted propagation) need fast
//! answers to "does net `a` structurally influence net `b`?". This module
//! computes the whole relation once as a bit matrix so every later query is
//! a single bit test.

use crate::circuit::{Circuit, NetId};

/// Bit-matrix of transitive fanout: [`Reachability::reaches`]`(a, b)` is
/// `true` when `b` lies in the fanout cone of `a` (including `a` itself).
///
/// Built in a single reverse-topological sweep costing
/// `O(nets² / 64 · fanout)` word operations and `nets² / 8` bytes — cheap at
/// the gate counts this crate targets, and far cheaper than the per-query
/// DFS of [`Circuit::fanout_cone`] once more than a handful of queries are
/// made (the NFBF enumerator asks O(nets²) of them; the engine asks one per
/// fault × output).
///
/// # Examples
///
/// ```
/// use dp_netlist::generators::c17;
/// use dp_netlist::Reachability;
///
/// let c = c17();
/// let r = Reachability::compute(&c);
/// for a in c.nets() {
///     assert!(r.reaches(a, a), "every net reaches itself");
///     for b in c.fanout_cone(a) {
///         assert!(r.reaches(a, b));
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Reachability {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Reachability {
    /// Computes the full reachability relation of a circuit.
    pub fn compute(circuit: &Circuit) -> Self {
        let n = circuit.num_nets();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        // Process nets in reverse topological order so consumer rows are
        // complete when a net is visited.
        for i in (0..n).rev() {
            let net = NetId::from_index(i);
            // Self-reachability.
            bits[i * words + i / 64] |= 1u64 << (i % 64);
            for &(sink, _) in circuit.fanout(net) {
                let s = sink.index();
                // row[i] |= row[s]
                let (lo, hi) = (i * words, s * words);
                for w in 0..words {
                    bits[lo + w] |= bits[hi + w];
                }
            }
        }
        Reachability { n, words, bits }
    }

    /// Number of nets the relation covers (the circuit's net count).
    pub fn num_nets(&self) -> usize {
        self.n
    }

    /// `true` when `b` lies in the transitive fanout cone of `a`
    /// (reflexive: `reaches(a, a)` holds for every net).
    pub fn reaches(&self, a: NetId, b: NetId) -> bool {
        let (i, j) = (a.index(), b.index());
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// `true` when `a` reaches at least one of `targets`.
    pub fn reaches_any(&self, a: NetId, targets: &[NetId]) -> bool {
        targets.iter().any(|&t| self.reaches(a, t))
    }

    /// Words per cone row — the length of the masks consumed by
    /// [`Reachability::cone_union_into`] and [`Reachability::cone_intersects`].
    pub fn num_words(&self) -> usize {
        self.words
    }

    /// ORs the fanout-cone row of `a` (self included) into `mask`, an
    /// accumulator of `num_words()` words. Batch schedulers use this to grow
    /// the footprint of a set of fault cones one site at a time.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a net of the relation or `mask` has the wrong
    /// length — out-of-range sites (e.g. a fault imported from a different
    /// circuit) must be screened by the caller, not silently packed.
    pub fn cone_union_into(&self, a: NetId, mask: &mut [u64]) {
        let i = a.index();
        assert!(i < self.n, "net index {i} out of range ({} nets)", self.n);
        assert_eq!(mask.len(), self.words, "mask length mismatch");
        for (m, &w) in mask
            .iter_mut()
            .zip(&self.bits[i * self.words..(i + 1) * self.words])
        {
            *m |= w;
        }
    }

    /// `true` when the fanout cone of `a` shares at least one net with the
    /// accumulated `mask` (same panics as [`Reachability::cone_union_into`]).
    pub fn cone_intersects(&self, a: NetId, mask: &[u64]) -> bool {
        let i = a.index();
        assert!(i < self.n, "net index {i} out of range ({} nets)", self.n);
        assert_eq!(mask.len(), self.words, "mask length mismatch");
        self.bits[i * self.words..(i + 1) * self.words]
            .iter()
            .zip(mask)
            .any(|(&w, &m)| w & m != 0)
    }

    /// `true` when the fanout cones of `a` and `b` have no net in common —
    /// the soundness condition for analysing two faults in one propagation
    /// pass (their difference fronts can never meet).
    pub fn cones_disjoint(&self, a: NetId, b: NetId) -> bool {
        let (i, j) = (a.index(), b.index());
        assert!(i < self.n && j < self.n, "net index out of range");
        self.bits[i * self.words..(i + 1) * self.words]
            .iter()
            .zip(&self.bits[j * self.words..(j + 1) * self.words])
            .all(|(&w, &v)| w & v == 0)
    }

    /// Per-net flag: does the net reach at least one primary output of
    /// `circuit`? Nets with a `false` entry are dangling logic — nothing
    /// they compute is ever observable, so fault propagation may skip them.
    pub fn feeds_output_flags(&self, circuit: &Circuit) -> Vec<bool> {
        let outputs = circuit.outputs();
        (0..self.n)
            .map(|i| self.reaches_any(NetId::from_index(i), outputs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::c17;
    use crate::CircuitBuilder;

    #[test]
    fn reachability_matches_fanout_cone() {
        let c = c17();
        let r = Reachability::compute(&c);
        for a in c.nets() {
            let cone = c.fanout_cone(a);
            for b in c.nets() {
                assert_eq!(r.reaches(a, b), cone.contains(&b), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn every_c17_net_feeds_an_output() {
        let c = c17();
        let r = Reachability::compute(&c);
        assert_eq!(r.num_nets(), c.num_nets());
        assert!(r.feeds_output_flags(&c).iter().all(|&b| b));
    }

    #[test]
    fn cone_masks_agree_with_pairwise_queries() {
        let c = c17();
        let r = Reachability::compute(&c);
        for a in c.nets() {
            let mut mask = vec![0u64; r.num_words()];
            r.cone_union_into(a, &mut mask);
            for b in c.nets() {
                // The mask is exactly a's cone, so intersecting b's cone
                // with it is the disjointness complement.
                assert_eq!(
                    r.cone_intersects(b, &mask),
                    !r.cones_disjoint(a, b),
                    "{a} vs {b}"
                );
                // Disjointness is symmetric and reflexively false.
                assert_eq!(r.cones_disjoint(a, b), r.cones_disjoint(b, a));
            }
            assert!(!r.cones_disjoint(a, a), "a cone always meets itself");
        }
    }

    #[test]
    fn disjoint_cones_share_no_net() {
        let c = c17();
        let r = Reachability::compute(&c);
        for a in c.nets() {
            for b in c.nets() {
                let overlap = c.nets().any(|x| r.reaches(a, x) && r.reaches(b, x));
                assert_eq!(r.cones_disjoint(a, b), !overlap, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn dangling_gate_is_flagged() {
        // `dead = x AND y` is never listed as an output and feeds nothing.
        let mut b = CircuitBuilder::new("dangling");
        let x = b.input("x");
        let y = b.input("y");
        let dead = b.gate("dead", crate::GateKind::And, &[x, y]).unwrap();
        let live = b.gate("live", crate::GateKind::Or, &[x, y]).unwrap();
        b.output(live);
        let c = b.finish().unwrap();
        let r = Reachability::compute(&c);
        let flags = r.feeds_output_flags(&c);
        assert!(!flags[dead.index()]);
        assert!(flags[live.index()]);
        assert!(flags[x.index()] && flags[y.index()]);
        assert!(!r.reaches_any(dead, c.outputs()));
        assert!(r.reaches_any(x, c.outputs()));
    }
}
