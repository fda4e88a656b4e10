//! The combinational circuit IR: nets, gates, and structural queries.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::error::NetlistError;

/// A handle to a net (equivalently, to the gate or primary input driving it —
/// every net has exactly one driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index into the circuit's net table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `NetId` from [`NetId::index`]. The index must have come
    /// from the same circuit for the handle to be meaningful.
    pub fn from_index(index: usize) -> NetId {
        NetId(index as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// A primitive combinational gate type.
///
/// `And`, `Nand`, `Or`, `Nor`, `Xor` and `Xnor` accept two or more inputs;
/// `Not` and `Buf` are unary. These are exactly the primitives of the
/// ISCAS-85 `.bench` format and of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Conjunction of all fanins.
    And,
    /// Negated conjunction.
    Nand,
    /// Disjunction of all fanins.
    Or,
    /// Negated disjunction.
    Nor,
    /// Parity (odd number of true fanins).
    Xor,
    /// Negated parity.
    Xnor,
    /// Logical negation (unary).
    Not,
    /// Identity (unary). In ISCAS netlists buffers mark fanout stems.
    Buf,
}

impl GateKind {
    /// All gate kinds, in a fixed order (useful for exhaustive tests).
    pub const ALL: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];

    /// Returns `true` for the unary kinds (`Not`, `Buf`).
    pub fn is_unary(self) -> bool {
        matches!(self, GateKind::Not | GateKind::Buf)
    }

    /// Returns `true` if the gate's output is the complement of the
    /// corresponding non-inverting kind.
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// Evaluates the gate over its fanin values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong arity for the kind (unary kinds take
    /// exactly one input; the others at least two).
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::Not | GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "{self} is unary");
                if self == GateKind::Not {
                    !inputs[0]
                } else {
                    inputs[0]
                }
            }
            _ => {
                assert!(inputs.len() >= 2, "{self} needs at least two inputs");
                match self {
                    GateKind::And => inputs.iter().all(|&b| b),
                    GateKind::Nand => !inputs.iter().all(|&b| b),
                    GateKind::Or => inputs.iter().any(|&b| b),
                    GateKind::Nor => !inputs.iter().any(|&b| b),
                    GateKind::Xor => inputs.iter().filter(|&&b| b).count() % 2 == 1,
                    GateKind::Xnor => inputs.iter().filter(|&&b| b).count() % 2 == 0,
                    GateKind::Not | GateKind::Buf => unreachable!(),
                }
            }
        }
    }

    /// The `.bench` keyword for this kind.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// The driver of a net: a primary input or a gate over other nets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Driver {
    /// The net is a primary input.
    Input,
    /// The net is the output of a gate.
    Gate {
        /// Gate type.
        kind: GateKind,
        /// Fanin nets, in pin order.
        fanins: Vec<NetId>,
    },
}

#[derive(Debug, Clone)]
struct Net {
    name: String,
    driver: Driver,
}

/// A fanout branch: one gate-input pin fed by a (possibly multi-fanout) net.
///
/// Checkpoint fault theory places stuck-at faults on primary inputs and on
/// fanout branches; this type names a branch as (source net, sink gate, pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FanoutBranch {
    /// The net being branched (the stem).
    pub stem: NetId,
    /// The gate (named by its output net) consuming the branch.
    pub sink: NetId,
    /// Which fanin pin of `sink` the branch feeds.
    pub pin: usize,
}

/// A validated combinational circuit.
///
/// Construction goes through [`CircuitBuilder`], which enforces single
/// drivers and acyclicity; every `Circuit` in existence is structurally
/// sound. Nets are stored in topological order (fanins precede fanouts), so
/// a plain forward sweep over `0..num_nets()` is an evaluation order.
///
/// # Examples
///
/// ```
/// use dp_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), dp_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("half_adder");
/// let a = b.input("a");
/// let c = b.input("b");
/// let sum = b.gate("sum", GateKind::Xor, &[a, c])?;
/// let carry = b.gate("carry", GateKind::And, &[a, c])?;
/// b.output(sum);
/// b.output(carry);
/// let circuit = b.finish()?;
/// assert_eq!(circuit.eval(&[true, true]), vec![false, true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    nets: Vec<Net>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
    /// fanouts[n] = list of (sink gate net, pin index) consuming net n.
    fanouts: Vec<Vec<(NetId, usize)>>,
}

impl Circuit {
    /// The circuit's name (e.g. `"c17"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit (used by transformations that derive one
    /// benchmark from another, e.g. C1355 from C499).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nets (primary inputs + gates).
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gates (nets that are not primary inputs). This is the
    /// paper's "netlist size" axis in Figures 2 and 7.
    pub fn num_gates(&self) -> usize {
        self.nets.len() - self.inputs.len()
    }

    /// Primary inputs in declared order. The declared order doubles as the
    /// default OBDD variable order (paper §2.2 argues it is meaningful).
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs in declared order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The net with the given name, if any.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn net_name(&self, n: NetId) -> &str {
        &self.nets[n.index()].name
    }

    /// The driver of a net.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn driver(&self, n: NetId) -> &Driver {
        &self.nets[n.index()].driver
    }

    /// Returns `true` if `n` is a primary input.
    pub fn is_input(&self, n: NetId) -> bool {
        matches!(self.nets[n.index()].driver, Driver::Input)
    }

    /// An FNV-1a digest of the full netlist — name, net names, drivers
    /// (gate kind and pin order), and the declared input/output lists.
    ///
    /// Two circuits share a digest iff they are the same netlist; it is the
    /// identity under which a resident service caches compiled circuits and
    /// frozen good-function snapshots, so it deliberately includes names
    /// (renamed nets report differently even when logically equivalent) and
    /// excludes nothing that affects analysis output. Deterministic across
    /// runs and platforms.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ b as u64).wrapping_mul(PRIME);
            }
        }
        fn eat_u32(h: &mut u64, v: u32) {
            eat(h, &v.to_le_bytes());
        }
        let mut h = OFFSET;
        eat(&mut h, self.name.as_bytes());
        eat(&mut h, &[0xff]);
        for net in &self.nets {
            eat(&mut h, net.name.as_bytes());
            eat(&mut h, &[0xfe]);
            match &net.driver {
                Driver::Input => eat(&mut h, &[0x00]),
                Driver::Gate { kind, fanins } => {
                    eat(&mut h, &[0x01, *kind as u8]);
                    eat_u32(&mut h, fanins.len() as u32);
                    for f in fanins {
                        eat_u32(&mut h, f.0);
                    }
                }
            }
        }
        eat(&mut h, &[0xfd]);
        for io in [&self.inputs, &self.outputs] {
            eat_u32(&mut h, io.len() as u32);
            for n in io {
                eat_u32(&mut h, n.0);
            }
        }
        h
    }

    /// Returns `true` if `n` is a primary output.
    pub fn is_output(&self, n: NetId) -> bool {
        self.outputs.contains(&n)
    }

    /// The consumers of a net, as `(sink gate net, pin index)` pairs.
    pub fn fanout(&self, n: NetId) -> &[(NetId, usize)] {
        &self.fanouts[n.index()]
    }

    /// Iterates all nets in topological order (inputs first).
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Iterates all gate output nets (non-inputs) in topological order.
    pub fn gates(&self) -> impl Iterator<Item = NetId> + '_ {
        self.nets().filter(|&n| !self.is_input(n))
    }

    /// All fanout branches of the circuit: one entry per gate-input pin whose
    /// driving net has fanout ≥ 2, plus (by convention) pins fed by
    /// single-fanout nets are *not* branches. Primary-input nets with a
    /// single consumer still induce a checkpoint at the PI itself, handled by
    /// the fault crate.
    pub fn fanout_branches(&self) -> Vec<FanoutBranch> {
        let mut branches = Vec::new();
        for n in self.nets() {
            if self.fanouts[n.index()].len() >= 2 {
                for &(sink, pin) in &self.fanouts[n.index()] {
                    branches.push(FanoutBranch { stem: n, sink, pin });
                }
            }
        }
        branches
    }

    /// Evaluates the circuit on one input vector (indexed like
    /// [`Circuit::inputs`]); returns the output values in [`Circuit::outputs`]
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len() != num_inputs()`.
    pub fn eval(&self, input_values: &[bool]) -> Vec<bool> {
        let values = self.eval_all(input_values);
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Evaluates the circuit and returns the value of *every* net, indexed by
    /// [`NetId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len() != num_inputs()`.
    pub fn eval_all(&self, input_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            input_values.len(),
            self.inputs.len(),
            "input vector length mismatch"
        );
        let mut values = vec![false; self.nets.len()];
        for (i, &pi) in self.inputs.iter().enumerate() {
            values[pi.index()] = input_values[i];
        }
        let mut scratch = Vec::new();
        for (i, net) in self.nets.iter().enumerate() {
            if let Driver::Gate { kind, fanins } = &net.driver {
                scratch.clear();
                scratch.extend(fanins.iter().map(|f| values[f.index()]));
                values[i] = kind.eval(&scratch);
            }
        }
        values
    }

    /// Level of each net, counted from the primary inputs: PIs are level 0,
    /// a gate is one more than its deepest fanin. This is the paper's X
    /// coordinate (§2.2).
    pub fn levels_from_inputs(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.nets.len()];
        for (i, net) in self.nets.iter().enumerate() {
            if let Driver::Gate { fanins, .. } = &net.driver {
                levels[i] = 1 + fanins
                    .iter()
                    .map(|f| levels[f.index()])
                    .max()
                    .expect("gates have fanins");
            }
        }
        levels
    }

    /// For each net, the *maximum* number of gate levels on any path from the
    /// net to a primary output (0 for POs with no further fanout). This is
    /// the X axis of the paper's Figures 3 and 8 ("Maximum Levels to PO").
    ///
    /// Nets that reach no PO (dangling logic) get `u32::MAX`.
    pub fn max_levels_to_output(&self) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.nets.len()];
        for &o in &self.outputs {
            dist[o.index()] = 0;
        }
        // Reverse topological sweep: consumers are later in the order. A PO
        // net with further fanout keeps the longest of its paths.
        for i in (0..self.nets.len()).rev() {
            let mut best = dist[i];
            for &(sink, _) in &self.fanouts[i] {
                let d = dist[sink.index()];
                if d != u32::MAX && (best == u32::MAX || d + 1 > best) {
                    best = d + 1;
                }
            }
            dist[i] = best;
        }
        dist
    }

    /// The transitive fanin cone of `n` (including `n` itself).
    pub fn fanin_cone(&self, n: NetId) -> std::collections::HashSet<NetId> {
        let mut cone = std::collections::HashSet::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            if !cone.insert(x) {
                continue;
            }
            if let Driver::Gate { fanins, .. } = &self.nets[x.index()].driver {
                stack.extend(fanins.iter().copied());
            }
        }
        cone
    }

    /// The transitive fanout cone of `n` (including `n` itself).
    pub fn fanout_cone(&self, n: NetId) -> std::collections::HashSet<NetId> {
        let mut cone = std::collections::HashSet::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            if !cone.insert(x) {
                continue;
            }
            stack.extend(self.fanouts[x.index()].iter().map(|&(s, _)| s));
        }
        cone
    }

    /// The primary outputs structurally reachable from `n` ("POs fed by the
    /// fault site" in the paper's §4.1 observation), in output order.
    pub fn reachable_outputs(&self, n: NetId) -> Vec<NetId> {
        let cone = self.fanout_cone(n);
        self.outputs
            .iter()
            .copied()
            .filter(|o| cone.contains(o))
            .collect()
    }
}

/// Incremental builder for [`Circuit`]; enforces naming, arity, single-driver
/// and acyclicity invariants.
#[derive(Debug)]
pub struct CircuitBuilder {
    name: String,
    nets: Vec<Net>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    /// The members of `outputs`, for an O(1) repeat check.
    output_set: HashSet<NetId>,
    by_name: HashMap<String, NetId>,
}

impl CircuitBuilder {
    /// Starts a new empty circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            nets: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_set: HashSet::new(),
            by_name: HashMap::new(),
        }
    }

    /// Declares a primary input.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used (use [`CircuitBuilder::try_input`]
    /// for a fallible variant).
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        self.try_input(name).expect("duplicate net name")
    }

    /// Declares a primary input, failing on duplicate names.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if a net of this name exists.
    pub fn try_input(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let name = name.into();
        let id = self.fresh(name.clone())?;
        self.nets.push(Net {
            name,
            driver: Driver::Input,
        });
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a gate whose output net is `name`.
    ///
    /// Because fanins must already exist, the net list is constructed in
    /// topological order and cycles are impossible by construction.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateNet`] — the output name is taken.
    /// * [`NetlistError::BadArity`] — the fanin count is wrong for `kind`.
    pub fn gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanins: &[NetId],
    ) -> Result<NetId, NetlistError> {
        let name = name.into();
        let arity_ok = if kind.is_unary() {
            fanins.len() == 1
        } else {
            fanins.len() >= 2
        };
        if !arity_ok {
            return Err(NetlistError::BadArity {
                gate: name,
                kind,
                arity: fanins.len(),
            });
        }
        for &f in fanins {
            if f.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(format!("{f}")));
            }
        }
        let id = self.fresh(name.clone())?;
        self.nets.push(Net {
            name,
            driver: Driver::Gate {
                kind,
                fanins: fanins.to_vec(),
            },
        });
        Ok(id)
    }

    /// Convenience: unary NOT of a net, output named `name`.
    ///
    /// # Errors
    ///
    /// As for [`CircuitBuilder::gate`].
    pub fn not(&mut self, name: impl Into<String>, a: NetId) -> Result<NetId, NetlistError> {
        self.gate(name, GateKind::Not, &[a])
    }

    /// Marks an existing net as a primary output. A net may be listed once.
    ///
    /// # Panics
    ///
    /// Panics if the net is out of range or already an output (use
    /// [`CircuitBuilder::try_output`] for a fallible variant).
    pub fn output(&mut self, n: NetId) {
        self.try_output(n).expect("net not eligible as an output");
    }

    /// Marks an existing net as a primary output, failing on a repeat.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownNet`] — `n` is out of range.
    /// * [`NetlistError::DuplicateOutput`] — `n` is already an output.
    pub fn try_output(&mut self, n: NetId) -> Result<(), NetlistError> {
        let Some(net) = self.nets.get(n.index()) else {
            return Err(NetlistError::UnknownNet(format!("{n}")));
        };
        if !self.output_set.insert(n) {
            return Err(NetlistError::DuplicateOutput(net.name.clone()));
        }
        self.outputs.push(n);
        Ok(())
    }

    /// Finalises and validates the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoOutputs`] for a circuit with no declared
    /// primary outputs.
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut fanouts = vec![Vec::new(); self.nets.len()];
        for (i, net) in self.nets.iter().enumerate() {
            if let Driver::Gate { fanins, .. } = &net.driver {
                for (pin, f) in fanins.iter().enumerate() {
                    fanouts[f.index()].push((NetId(i as u32), pin));
                }
            }
        }
        Ok(Circuit {
            name: self.name,
            nets: self.nets,
            inputs: self.inputs,
            outputs: self.outputs,
            by_name: self.by_name,
            fanouts,
        })
    }

    fn fresh(&mut self, name: String) -> Result<NetId, NetlistError> {
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateNet(name));
        }
        let id = NetId(self.nets.len() as u32);
        self.by_name.insert(name, id);
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Circuit {
        let mut b = CircuitBuilder::new("ha");
        let a = b.input("a");
        let c = b.input("b");
        let s = b.gate("s", GateKind::Xor, &[a, c]).unwrap();
        let cy = b.gate("c", GateKind::And, &[a, c]).unwrap();
        b.output(s);
        b.output(cy);
        b.finish().unwrap()
    }

    #[test]
    fn gate_kind_eval_truth_tables() {
        use GateKind::*;
        assert!(And.eval(&[true, true]));
        assert!(!And.eval(&[true, false]));
        assert!(Nand.eval(&[true, false]));
        assert!(Or.eval(&[false, true]));
        assert!(!Nor.eval(&[false, true]));
        assert!(Nor.eval(&[false, false]));
        assert!(Xor.eval(&[true, false, false]));
        assert!(!Xor.eval(&[true, true, false]));
        assert!(Xnor.eval(&[true, true, false]));
        assert!(Not.eval(&[false]));
        assert!(Buf.eval(&[true]));
    }

    #[test]
    #[should_panic(expected = "unary")]
    fn not_rejects_two_inputs() {
        GateKind::Not.eval(&[true, false]);
    }

    #[test]
    fn builder_produces_working_circuit() {
        let c = half_adder();
        assert_eq!(c.eval(&[false, false]), vec![false, false]);
        assert_eq!(c.eval(&[true, false]), vec![true, false]);
        assert_eq!(c.eval(&[true, true]), vec![false, true]);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.num_nets(), 4);
    }

    #[test]
    fn digest_is_stable_and_separates_netlists() {
        let c = half_adder();
        assert_eq!(c.digest(), half_adder().digest(), "deterministic");
        // A renamed circuit, a regated circuit, and a re-oriented gate all
        // hash differently — the digest is the cache identity of the full
        // netlist, not of its Boolean function.
        let mut renamed = half_adder();
        renamed.set_name("other");
        assert_ne!(c.digest(), renamed.digest());
        let mut b = CircuitBuilder::new("ha");
        let a = b.input("a");
        let x = b.input("b");
        let s = b.gate("s", GateKind::Xor, &[a, x]).unwrap();
        let cy = b.gate("c", GateKind::Or, &[a, x]).unwrap();
        b.output(s);
        b.output(cy);
        assert_ne!(c.digest(), b.finish().unwrap().digest());
        let mut b = CircuitBuilder::new("ha");
        let a = b.input("a");
        let x = b.input("b");
        let s = b.gate("s", GateKind::Xor, &[x, a]).unwrap();
        let cy = b.gate("c", GateKind::And, &[a, x]).unwrap();
        b.output(s);
        b.output(cy);
        assert_ne!(c.digest(), b.finish().unwrap().digest(), "pin order counts");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = CircuitBuilder::new("dup");
        let a = b.input("a");
        assert!(b.try_input("a").is_err());
        assert!(matches!(
            b.gate("a", GateKind::Not, &[a]),
            Err(NetlistError::DuplicateNet(_))
        ));
    }

    #[test]
    fn outputs_listed_once() {
        let mut b = CircuitBuilder::new("po");
        let a = b.input("a");
        assert!(b.try_output(a).is_ok());
        assert!(matches!(
            b.try_output(a),
            Err(NetlistError::DuplicateOutput(name)) if name == "a"
        ));
        assert!(matches!(
            b.try_output(NetId::from_index(7)),
            Err(NetlistError::UnknownNet(_))
        ));
        assert_eq!(b.finish().unwrap().outputs(), &[a]);
    }

    #[test]
    fn arity_checked() {
        let mut b = CircuitBuilder::new("arity");
        let a = b.input("a");
        assert!(matches!(
            b.gate("g", GateKind::And, &[a]),
            Err(NetlistError::BadArity { .. })
        ));
        assert!(matches!(
            b.gate("h", GateKind::Not, &[a, a]),
            Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn no_outputs_rejected() {
        let mut b = CircuitBuilder::new("empty");
        b.input("a");
        assert!(matches!(b.finish(), Err(NetlistError::NoOutputs)));
    }

    #[test]
    fn fanout_lists() {
        let c = half_adder();
        let a = c.find_net("a").unwrap();
        let fo = c.fanout(a);
        assert_eq!(fo.len(), 2);
        assert!(c.fanout(c.find_net("s").unwrap()).is_empty());
    }

    #[test]
    fn fanout_branches_only_on_stems() {
        let c = half_adder();
        let branches = c.fanout_branches();
        // Both a and b fan out to two gates => 4 branches.
        assert_eq!(branches.len(), 4);
        let mut b2 = CircuitBuilder::new("chain");
        let x = b2.input("x");
        let y = b2.not("y", x).unwrap();
        b2.output(y);
        let chain = b2.finish().unwrap();
        assert!(chain.fanout_branches().is_empty());
    }

    #[test]
    fn levels_and_distances() {
        // x -> g1 -> g2 -> out, plus x directly into g2.
        let mut b = CircuitBuilder::new("lv");
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.gate("g1", GateKind::And, &[x, y]).unwrap();
        let g2 = b.gate("g2", GateKind::Or, &[g1, x]).unwrap();
        b.output(g2);
        let c = b.finish().unwrap();
        let lv = c.levels_from_inputs();
        assert_eq!(lv[x.index()], 0);
        assert_eq!(lv[g1.index()], 1);
        assert_eq!(lv[g2.index()], 2);
        let dist = c.max_levels_to_output();
        assert_eq!(dist[g2.index()], 0);
        assert_eq!(dist[g1.index()], 1);
        assert_eq!(dist[x.index()], 2); // longest path via g1
        assert_eq!(dist[y.index()], 2);
    }

    #[test]
    fn cones_and_reachable_outputs() {
        let c = half_adder();
        let a = c.find_net("a").unwrap();
        let s = c.find_net("s").unwrap();
        assert!(c.fanout_cone(a).contains(&s));
        assert!(c.fanin_cone(s).contains(&a));
        assert_eq!(c.reachable_outputs(a).len(), 2);
        assert_eq!(c.reachable_outputs(s), vec![s]);
    }

    #[test]
    fn eval_all_exposes_internal_nets() {
        let c = half_adder();
        let values = c.eval_all(&[true, true]);
        let s = c.find_net("s").unwrap();
        let cy = c.find_net("c").unwrap();
        assert!(!values[s.index()]);
        assert!(values[cy.index()]);
    }
}
