//! Dense transitive-fanout reachability.
//!
//! Both the bridging-fault enumerator (feedback screening) and the
//! Difference Propagation engine (cone-restricted propagation) need fast
//! answers to "does net `a` structurally influence net `b`?". This module
//! computes the whole relation once as a bit matrix so every later query is
//! a single bit test. The same sweep records each net's fanout-free region
//! root, the one net every path from it to an output passes through.

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
    /// Per net: the root of its fanout-free region.
    roots: Vec<NetId>,
}

impl Reachability {
    /// Computes the full reachability relation of a circuit.
    pub fn compute(circuit: &Circuit) -> Self {
        let n = circuit.num_nets();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        let mut is_output = vec![false; n];
        for &o in circuit.outputs() {
            is_output[o.index()] = true;
        }
        let mut roots: Vec<NetId> = circuit.nets().collect();
        // Process nets in reverse topological order so consumer rows (and
        // roots) are complete when a net is visited.
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
            if let [(sink, _)] = circuit.fanout(net) {
                if !is_output[i] {
                    roots[i] = roots[sink.index()];
                }
            }
        }
        Reachability {
            n,
            words,
            bits,
            roots,
        }
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

    /// The root of `a`'s fanout-free region: `a` itself when it is a
    /// primary output or its fanout count is not 1 (a net feeding two pins
    /// of one gate counts twice), otherwise its single sink's root. Every
    /// path from `a` to a primary output passes through this net, and every
    /// net on the way to it has fanout exactly 1.
    pub fn region_root(&self, a: NetId) -> NetId {
        self.roots[a.index()]
    }

    /// `true` when `a` reaches at least one of `targets`.
    pub fn reaches_any(&self, a: NetId, targets: &[NetId]) -> bool {
        targets.iter().any(|&t| self.reaches(a, t))
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
    use crate::generators::{alu74181, c17, c1908_surrogate, c95};
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
    fn c17_region_roots_match_the_hand_table() {
        let c = c17();
        let r = Reachability::compute(&c);
        // 16, 11 and 3 fan out twice; 22 and 23 are outputs.
        let table = [
            ("1", "22"),
            ("2", "16"),
            ("3", "3"),
            ("6", "11"),
            ("7", "23"),
            ("10", "22"),
            ("11", "11"),
            ("16", "16"),
            ("19", "23"),
            ("22", "22"),
            ("23", "23"),
        ];
        assert_eq!(table.len(), c.num_nets());
        for (net, root) in table {
            let (net, root) = (c.find_net(net).unwrap(), c.find_net(root).unwrap());
            assert_eq!(r.region_root(net), root, "{}", c.net_name(net));
        }
    }

    #[test]
    fn every_region_chain_is_single_fanout_up_to_its_root() {
        for c in [c95(), alu74181(), c1908_surrogate()] {
            let r = Reachability::compute(&c);
            for net in c.nets() {
                let root = r.region_root(net);
                assert!(
                    c.is_output(root) || c.fanout(root).len() != 1,
                    "{}: root {root} of {net} is inside a region",
                    c.name()
                );
                assert!(r.reaches(net, root), "{}: {net} misses {root}", c.name());
                let mut n = net;
                while n != root {
                    assert!(!c.is_output(n), "{}: chain passes output {n}", c.name());
                    let [(sink, _)] = c.fanout(n) else {
                        panic!("{}: chain net {n} fans out", c.name());
                    };
                    n = *sink;
                }
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
