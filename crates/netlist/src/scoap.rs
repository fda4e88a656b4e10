//! Combinational SCOAP testability measures (Goldstein 1979).
//!
//! SCOAP assigns each net integer *controllabilities* `CC0`/`CC1` (cost of
//! forcing it to 0/1 from the PIs) and an *observability* `CO` (cost of
//! propagating its value to a PO). They are the classical cheap topological
//! estimates of exactly the quantities the paper computes exactly; the
//! analysis crate correlates them against exact detectabilities to quantify
//! the paper's "detectability is more closely correlated with observability
//! than with controllability" conclusion.

use crate::circuit::{Circuit, Driver, GateKind, NetId};

/// SCOAP measures for every net of a circuit.
///
/// # Examples
///
/// ```
/// use dp_netlist::{generators::c17, Scoap};
///
/// let c = c17();
/// let scoap = Scoap::compute(&c);
/// let pi = c.inputs()[0];
/// assert_eq!(scoap.cc0(pi), 1);
/// assert_eq!(scoap.cc1(pi), 1);
/// // Deeper nets are harder to control.
/// let po = c.outputs()[0];
/// assert!(scoap.cc0(po) > 1);
/// assert_eq!(scoap.co(po), 0); // POs are free to observe
/// ```
#[derive(Debug, Clone)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

/// Saturating cost addition (SCOAP costs on redundant logic can explode).
fn sat_add(a: u32, b: u32) -> u32 {
    a.saturating_add(b)
}

/// Gate-output controllabilities from fanin controllabilities.
fn gate_cc(kind: GateKind, z: &[u32], o: &[u32]) -> (u32, u32) {
    let sum = |xs: &[u32]| xs.iter().fold(0u32, |a, &b| sat_add(a, b));
    let min = |xs: &[u32]| xs.iter().copied().min().expect("gates have fanins");
    match kind {
        GateKind::And => (sat_add(min(z), 1), sat_add(sum(o), 1)),
        GateKind::Nand => (sat_add(sum(o), 1), sat_add(min(z), 1)),
        GateKind::Or => (sat_add(sum(z), 1), sat_add(min(o), 1)),
        GateKind::Nor => (sat_add(min(o), 1), sat_add(sum(z), 1)),
        GateKind::Not => (sat_add(o[0], 1), sat_add(z[0], 1)),
        GateKind::Buf => (sat_add(z[0], 1), sat_add(o[0], 1)),
        GateKind::Xor | GateKind::Xnor => {
            // Parity: dynamic programme over (even, odd) parities of ones.
            let (mut even, mut odd) = (0u32, u32::MAX);
            for i in 0..z.len() {
                let new_even = sat_add(even, z[i]).min(sat_add(odd, o[i]));
                let new_odd = sat_add(even, o[i]).min(sat_add(odd, z[i]));
                even = new_even;
                odd = new_odd;
            }
            if kind == GateKind::Xor {
                (sat_add(even, 1), sat_add(odd, 1))
            } else {
                (sat_add(odd, 1), sat_add(even, 1))
            }
        }
    }
}

impl Scoap {
    /// Computes the measures: one forward sweep for controllability, one
    /// backward sweep for observability.
    pub fn compute(circuit: &Circuit) -> Self {
        let n = circuit.num_nets();
        let mut cc0 = vec![0u32; n];
        let mut cc1 = vec![0u32; n];
        for net in circuit.nets() {
            let i = net.index();
            match circuit.driver(net) {
                Driver::Input => {
                    cc0[i] = 1;
                    cc1[i] = 1;
                }
                Driver::Gate { kind, fanins } => {
                    let z: Vec<u32> = fanins.iter().map(|f| cc0[f.index()]).collect();
                    let o: Vec<u32> = fanins.iter().map(|f| cc1[f.index()]).collect();
                    let (c0, c1) = gate_cc(*kind, &z, &o);
                    cc0[i] = c0;
                    cc1[i] = c1;
                }
            }
        }

        // Backward: a net's observability is the cheapest of its branches
        // (or 0 if it is itself a PO).
        let mut co = vec![u32::MAX; n];
        for i in (0..n).rev() {
            let net = NetId::from_index(i);
            let mut best = if circuit.is_output(net) { 0 } else { u32::MAX };
            for &(sink, pin) in circuit.fanout(net) {
                let sink_co = co[sink.index()];
                if sink_co == u32::MAX {
                    continue;
                }
                let Driver::Gate { kind, fanins } = circuit.driver(sink) else {
                    unreachable!("sinks are gates");
                };
                // Side-input conditions to sensitise the pin.
                let mut side = 0u32;
                for (p, f) in fanins.iter().enumerate() {
                    if p == pin {
                        continue;
                    }
                    let j = f.index();
                    side = sat_add(
                        side,
                        match kind {
                            GateKind::And | GateKind::Nand => cc1[j],
                            GateKind::Or | GateKind::Nor => cc0[j],
                            GateKind::Xor | GateKind::Xnor => cc0[j].min(cc1[j]),
                            GateKind::Not | GateKind::Buf => 0,
                        },
                    );
                }
                let cost = sat_add(sat_add(sink_co, side), 1);
                best = best.min(cost);
            }
            co[i] = best;
        }
        Scoap { cc0, cc1, co }
    }

    /// `CC0`: the cost of setting the net to 0.
    pub fn cc0(&self, n: NetId) -> u32 {
        self.cc0[n.index()]
    }

    /// `CC1`: the cost of setting the net to 1.
    pub fn cc1(&self, n: NetId) -> u32 {
        self.cc1[n.index()]
    }

    /// `CO`: the cost of observing the net at a primary output
    /// (`u32::MAX` for nets that reach no PO).
    pub fn co(&self, n: NetId) -> u32 {
        self.co[n.index()]
    }

    /// Combined stuck-at testability cost for a fault on this net:
    /// excitation (controlling the line to the *opposite* of the stuck
    /// value) plus observation.
    pub fn stuck_at_cost(&self, n: NetId, stuck_value: bool) -> u32 {
        let excite = if stuck_value {
            self.cc0(n)
        } else {
            self.cc1(n)
        };
        sat_add(excite, self.co(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::generators::{c17, full_adder};

    #[test]
    fn and_gate_costs() {
        let mut b = CircuitBuilder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let s = Scoap::compute(&c);
        assert_eq!(s.cc1(g), 3); // both inputs to 1: 1 + 1 + 1
        assert_eq!(s.cc0(g), 2); // one input to 0: 1 + 1
        assert_eq!(s.co(g), 0);
        assert_eq!(s.co(x), 2); // observe through the AND: CO(g)+CC1(y)+1
    }

    #[test]
    fn xor_gate_costs() {
        let mut b = CircuitBuilder::new("xor2");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::Xor, &[x, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let s = Scoap::compute(&c);
        // Odd parity: one input 1, other 0 -> 1+1+1 = 3; even: 0,0 or 1,1 -> 3.
        assert_eq!(s.cc1(g), 3);
        assert_eq!(s.cc0(g), 3);
        assert_eq!(s.co(x), 2); // CO + min(cc0,cc1)(y) + 1
    }

    #[test]
    fn inverter_swaps_controllabilities() {
        let mut b = CircuitBuilder::new("inv");
        let x = b.input("x");
        let g = b.not("g", x).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let s = Scoap::compute(&c);
        assert_eq!(s.cc0(g), 2);
        assert_eq!(s.cc1(g), 2);
        assert_eq!(s.co(x), 1);
    }

    #[test]
    fn costs_grow_with_depth() {
        let c = c17();
        let s = Scoap::compute(&c);
        let pi = c.inputs()[0];
        let po = c.outputs()[0];
        assert!(s.cc1(po) > s.cc1(pi));
        assert!(s.co(pi) > s.co(po));
    }

    #[test]
    fn multi_fanout_takes_cheapest_branch() {
        let c = full_adder();
        let s = Scoap::compute(&c);
        // Every net of the full adder reaches a PO.
        for n in c.nets() {
            assert_ne!(s.co(n), u32::MAX, "{} unobservable", c.net_name(n));
        }
    }

    #[test]
    fn dangling_nets_are_unobservable() {
        let mut b = CircuitBuilder::new("dangle");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.gate("g", GateKind::And, &[x, y]).unwrap();
        let _dead = b.gate("dead", GateKind::Or, &[x, y]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let s = Scoap::compute(&c);
        let dead = c.find_net("dead").unwrap();
        assert_eq!(s.co(dead), u32::MAX);
    }

    #[test]
    fn stuck_at_cost_combines_excitation_and_observation() {
        let c = c17();
        let s = Scoap::compute(&c);
        let pi = c.inputs()[0];
        assert_eq!(s.stuck_at_cost(pi, false), s.cc1(pi) + s.co(pi));
        assert_eq!(s.stuck_at_cost(pi, true), s.cc0(pi) + s.co(pi));
    }
}
