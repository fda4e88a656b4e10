//! 64-way bit-parallel circuit evaluation.

use dp_faults::FaultSite;
use dp_netlist::{Circuit, Driver, GateKind, NetId};

/// Evaluates a gate over packed 64-vector words.
fn eval_packed(kind: GateKind, inputs: &[u64]) -> u64 {
    match kind {
        GateKind::Not => !inputs[0],
        GateKind::Buf => inputs[0],
        GateKind::And => inputs.iter().fold(!0u64, |acc, &x| acc & x),
        GateKind::Nand => !inputs.iter().fold(!0u64, |acc, &x| acc & x),
        GateKind::Or => inputs.iter().fold(0u64, |acc, &x| acc | x),
        GateKind::Nor => !inputs.iter().fold(0u64, |acc, &x| acc | x),
        GateKind::Xor => inputs.iter().fold(0u64, |acc, &x| acc ^ x),
        GateKind::Xnor => !inputs.iter().fold(0u64, |acc, &x| acc ^ x),
    }
}

/// A bit-parallel simulator: bit `k` of every word carries the `k`-th of 64
/// concurrently simulated input vectors.
///
/// # Examples
///
/// ```
/// use dp_netlist::generators::c17;
/// use dp_sim::PackedSim;
///
/// let c = c17();
/// let mut sim = PackedSim::new(&c);
/// // Vector 0: all inputs low; vector 1: all inputs high.
/// let inputs = vec![0b10u64; 5];
/// let values = sim.run(&inputs);
/// let out22 = values[c.outputs()[0].index()];
/// assert_eq!(out22 & 0b11, 0b10); // only the all-high vector raises output 22
/// ```
#[derive(Debug)]
pub struct PackedSim<'a> {
    circuit: &'a Circuit,
    values: Vec<u64>,
    scratch: Vec<u64>,
    /// Words held on nets (stuck stems, bridged wires) during the current
    /// run, as `(net index, word)`.
    net_force: Vec<(usize, u64)>,
    /// Words held on gate pins (stuck branches) during the current run, as
    /// `(sink index, pin, word)`.
    pin_force: Vec<(usize, usize, u64)>,
}

impl<'a> PackedSim<'a> {
    /// Creates a simulator bound to a circuit.
    pub fn new(circuit: &'a Circuit) -> Self {
        PackedSim {
            circuit,
            values: vec![0; circuit.num_nets()],
            scratch: Vec::new(),
            net_force: Vec::new(),
            pin_force: Vec::new(),
        }
    }

    /// Simulates 64 vectors at once. `inputs[i]` packs the value of primary
    /// input `i` across the 64 vectors. Returns the packed value of every
    /// net, indexed by [`NetId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the circuit's input count.
    pub fn run(&mut self, inputs: &[u64]) -> &[u64] {
        self.run_forced(inputs, [])
    }

    /// Simulates 64 vectors with every `(site, word)` of `forces` held in
    /// place: a [`FaultSite::Net`] replaces the net's driven value, a
    /// [`FaultSite::Branch`] replaces what the sink gate reads on that pin
    /// while the stem and its other branches keep the driven value. This is
    /// the one sweep every binary fault injection runs through.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the circuit's input count.
    pub(crate) fn run_forced(
        &mut self,
        inputs: &[u64],
        forces: impl IntoIterator<Item = (FaultSite, u64)>,
    ) -> &[u64] {
        let circuit = self.circuit;
        assert_eq!(
            inputs.len(),
            circuit.num_inputs(),
            "packed input count mismatch"
        );
        self.net_force.clear();
        self.pin_force.clear();
        for (site, word) in forces {
            match site {
                FaultSite::Net(n) => self.net_force.push((n.index(), word)),
                FaultSite::Branch(b) => self.pin_force.push((b.sink.index(), b.pin, word)),
            }
        }
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            self.values[pi.index()] = inputs[i];
        }
        for n in circuit.nets() {
            let idx = n.index();
            if let Driver::Gate { kind, fanins } = circuit.driver(n) {
                self.scratch.clear();
                self.scratch
                    .extend(fanins.iter().map(|f| self.values[f.index()]));
                // Overwrite after filling: one pass over the (short) pin
                // list per gate, not one search per fanin.
                for &(sink, pin, word) in &self.pin_force {
                    if sink == idx {
                        self.scratch[pin] = word;
                    }
                }
                self.values[idx] = eval_packed(*kind, &self.scratch);
            }
            for &(net, word) in &self.net_force {
                if net == idx {
                    self.values[idx] = word;
                }
            }
        }
        &self.values
    }

    /// The packed value of a net from the most recent run.
    pub fn value(&self, n: NetId) -> u64 {
        self.values[n.index()]
    }

    /// The circuit this simulator is bound to.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }
}

/// Enumerates all `2^n` input vectors of `circuit` in blocks of 64:
/// `visit(inputs, lanes)` gets each block's packed input words and the mask
/// of its in-range lanes (all 64, except below six inputs). Returns `2^n`.
///
/// # Panics
///
/// Panics if the circuit has more than 30 primary inputs (use Difference
/// Propagation instead — avoiding exactly this wall is the paper's point).
pub(crate) fn exhaustive_blocks(circuit: &Circuit, mut visit: impl FnMut(&[u64], u64)) -> u64 {
    let n = circuit.num_inputs();
    assert!(
        n <= 30,
        "exhaustive simulation beyond 30 inputs is intractable"
    );
    let total: u64 = 1 << n;
    let lanes = if total < 64 {
        (1u64 << total) - 1
    } else {
        !0u64
    };
    let mut inputs = vec![0u64; n];
    for block in 0..total.div_ceil(64) {
        for (i, word) in inputs.iter_mut().enumerate() {
            *word = exhaustive_pattern(i, block);
        }
        visit(&inputs, lanes);
    }
    total
}

/// Packs the canonical exhaustive-enumeration pattern for input `i` within
/// block `block` of 64 consecutive vectors: vector index `v = block·64 + k`
/// assigns input `i` the bit `v >> i & 1`.
fn exhaustive_pattern(input: usize, block: u64) -> u64 {
    match input {
        0 => 0xAAAA_AAAA_AAAA_AAAA,
        1 => 0xCCCC_CCCC_CCCC_CCCC,
        2 => 0xF0F0_F0F0_F0F0_F0F0,
        3 => 0xFF00_FF00_FF00_FF00,
        4 => 0xFFFF_0000_FFFF_0000,
        5 => 0xFFFF_FFFF_0000_0000,
        i => {
            if block >> (i - 6) & 1 == 1 {
                !0u64
            } else {
                0u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_netlist::generators::{c17, full_adder};

    #[test]
    fn packed_matches_scalar() {
        let c = c17();
        let mut sim = PackedSim::new(&c);
        // One block of 32 exhaustive vectors (5 inputs).
        let inputs: Vec<u64> = (0..5).map(|i| exhaustive_pattern(i, 0)).collect();
        let values = sim.run(&inputs).to_vec();
        for v in 0u64..32 {
            let scalar: Vec<bool> = (0..5).map(|i| v >> i & 1 == 1).collect();
            let expect = c.eval_all(&scalar);
            for n in c.nets() {
                assert_eq!(
                    values[n.index()] >> v & 1 == 1,
                    expect[n.index()],
                    "net {n} vector {v}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_pattern_is_consistent() {
        // Bit k of pattern(i, b) must equal bit i of the vector index.
        for i in 0..8 {
            for block in 0..4u64 {
                let p = exhaustive_pattern(i, block);
                for k in 0..64u64 {
                    let v = block * 64 + k;
                    assert_eq!(p >> k & 1 == 1, v >> i & 1 == 1, "i={i} v={v}");
                }
            }
        }
    }

    #[test]
    fn forced_net_and_pin_hold_their_words() {
        let c = full_adder();
        let target = c.find_net("axb").unwrap();
        let mut sim = PackedSim::new(&c);
        let inputs = vec![0u64; 3];
        let forced = sim
            .run_forced(&inputs, [(FaultSite::Net(target), !0u64)])
            .to_vec();
        // a=b=0 so axb would be 0, but forced to 1; sum = axb ^ cin = 1.
        let sum = c.outputs()[0];
        assert_eq!(forced[sum.index()], !0u64);
        // A forced branch changes only its sink's reading: the stem keeps
        // its driven value, and the next plain run forgets every force.
        let branch = c.fanout_branches()[0];
        let values = sim.run_forced(&inputs, [(FaultSite::Branch(branch), !0u64)]);
        assert_eq!(values[branch.stem.index()], 0);
        assert_eq!(sim.run(&inputs)[sum.index()], 0);
    }

    #[test]
    fn value_reads_last_run() {
        let c = full_adder();
        let mut sim = PackedSim::new(&c);
        sim.run(&[!0u64, !0u64, 0u64]);
        let cout = c.outputs()[1];
        assert_eq!(sim.value(cout), !0u64);
    }
}
