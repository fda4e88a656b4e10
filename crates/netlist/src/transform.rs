//! Structure-preserving netlist transformations.
//!
//! Two transformations matter to the reproduction:
//!
//! * [`decompose_two_input`] — models an n-input gate as a chain of `n − 1`
//!   two-input gates. The paper uses exactly this device (§3) to keep the
//!   number of Table-1 difference operations linear in fanin count.
//! * [`expand_xor_to_nand`] — replaces every XOR with its four-NAND
//!   equivalent (and XNOR with four NANDs plus an inverter). This is the
//!   relationship between C499 and C1355, which the paper leans on to show
//!   detectability decreasing with added circuitry.
//!
//! [`find_xor_quads`] is the inverse of the expansion: it recognises the
//! four-NAND XORs of a netlist so that analyses can treat each as one XOR.

use crate::circuit::{Circuit, CircuitBuilder, Driver, GateKind, NetId};
use crate::error::NetlistError;

/// Rebuilds `circuit` with every gate of more than two inputs decomposed into
/// a chain of two-input gates of the same logic family.
///
/// `AND`/`OR`/`XOR` decompose associatively; `NAND`/`NOR`/`XNOR` decompose
/// into a chain of the non-inverting kind finished by one inverting gate, so
/// the overall function is unchanged. Primary input and pre-existing net
/// names, and PI/PO order, are preserved; introduced nets are suffixed
/// `__d<k>` (decomposition) or `__x<k>` (expansion).
///
/// # Errors
///
/// Propagates [`NetlistError`] from reconstruction (cannot occur for a valid
/// input circuit unless the fresh names collide with existing ones).
///
/// # Examples
///
/// ```
/// use dp_netlist::{decompose_two_input, CircuitBuilder, GateKind};
/// # fn main() -> Result<(), dp_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("wide");
/// let a = b.input("a");
/// let c = b.input("b");
/// let d = b.input("c");
/// let g = b.gate("g", GateKind::Nand, &[a, c, d])?;
/// b.output(g);
/// let wide = b.finish()?;
/// let narrow = decompose_two_input(&wide)?;
/// assert_eq!(narrow.num_gates(), 2); // AND + NAND
/// assert_eq!(narrow.eval(&[true, true, true]), wide.eval(&[true, true, true]));
/// # Ok(())
/// # }
/// ```
pub fn decompose_two_input(circuit: &Circuit) -> Result<Circuit, NetlistError> {
    rebuild(circuit, "__d", |b, name, kind, fanins, fresh| {
        if fanins.len() <= 2 {
            return b.gate(name, kind, fanins);
        }
        let chain_kind = match kind {
            GateKind::And | GateKind::Nand => GateKind::And,
            GateKind::Or | GateKind::Nor => GateKind::Or,
            GateKind::Xor | GateKind::Xnor => GateKind::Xor,
            GateKind::Not | GateKind::Buf => unreachable!("unary gates have one fanin"),
        };
        let mut acc = fanins[0];
        for (k, &next) in fanins[1..fanins.len() - 1].iter().enumerate() {
            acc = b.gate(fresh(name, k), chain_kind, &[acc, next])?;
        }
        let final_kind = match kind {
            GateKind::And | GateKind::Or | GateKind::Xor => chain_kind,
            GateKind::Nand => GateKind::Nand,
            GateKind::Nor => GateKind::Nor,
            GateKind::Xnor => GateKind::Xnor,
            GateKind::Not | GateKind::Buf => unreachable!(),
        };
        b.gate(name, final_kind, &[acc, fanins[fanins.len() - 1]])
    })
}

/// Rebuilds `circuit` with every `XOR` replaced by its four-NAND realisation
/// and every `XNOR` by four NANDs plus a NOT.
///
/// Multi-input XOR/XNOR gates are first decomposed into two-input chains.
/// This is the C499 → C1355 construction. Introduced nets are suffixed
/// `__d<k>` (decomposition) or `__x<k>` (expansion).
///
/// # Errors
///
/// Propagates [`NetlistError`] from reconstruction (name collisions only).
///
/// # Examples
///
/// ```
/// use dp_netlist::{expand_xor_to_nand, CircuitBuilder, GateKind};
/// # fn main() -> Result<(), dp_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("x");
/// let a = b.input("a");
/// let c = b.input("b");
/// let g = b.gate("g", GateKind::Xor, &[a, c])?;
/// b.output(g);
/// let xor = b.finish()?;
/// let nands = expand_xor_to_nand(&xor)?;
/// assert_eq!(nands.num_gates(), 4);
/// for v in [[false, false], [false, true], [true, false], [true, true]] {
///     assert_eq!(nands.eval(&v), xor.eval(&v));
/// }
/// # Ok(())
/// # }
/// ```
pub fn expand_xor_to_nand(circuit: &Circuit) -> Result<Circuit, NetlistError> {
    let two_input = decompose_two_input(circuit)?;
    rebuild(
        &two_input,
        "__x",
        |b, name, kind, fanins, fresh| match kind {
            GateKind::Xor | GateKind::Xnor => {
                let (a, c) = (fanins[0], fanins[1]);
                let t1 = b.gate(fresh(name, 0), GateKind::Nand, &[a, c])?;
                let t2 = b.gate(fresh(name, 1), GateKind::Nand, &[a, t1])?;
                let t3 = b.gate(fresh(name, 2), GateKind::Nand, &[c, t1])?;
                if kind == GateKind::Xor {
                    b.gate(name, GateKind::Nand, &[t2, t3])
                } else {
                    let x = b.gate(fresh(name, 3), GateKind::Nand, &[t2, t3])?;
                    b.gate(name, GateKind::Not, &[x])
                }
            }
            _ => b.gate(name, kind, fanins),
        },
    )
}

/// A four-NAND XOR, [`expand_xor_to_nand`]'s realisation of `a ⊕ c`:
/// `out = NAND(t2, t3)`, `t2 = NAND(a, t1)`, `t3 = NAND(c, t1)`,
/// `t1 = NAND(a, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorQuad {
    /// The XOR's operands `[a, c]` (distinct nets).
    pub inputs: [NetId; 2],
    /// `[t1, t2, t3]`: nets read only inside the quad, none of them a
    /// primary output.
    pub internal: [NetId; 3],
    /// The net that carries `a ⊕ c`.
    pub output: NetId,
}

/// The XOR quads of a circuit ([`find_xor_quads`]), indexed by net.
#[derive(Debug, Clone)]
pub struct XorQuads {
    quads: Vec<XorQuad>,
    /// Per net: the index of the quad it outputs or is internal to, or
    /// `u32::MAX` for none. A net belongs to at most one quad.
    member: Vec<u32>,
}

impl XorQuads {
    /// The quads, in topological order of their outputs.
    pub fn quads(&self) -> &[XorQuad] {
        &self.quads
    }

    /// Number of quads found.
    pub fn len(&self) -> usize {
        self.quads.len()
    }

    /// `true` when the circuit has no quad.
    pub fn is_empty(&self) -> bool {
        self.quads.is_empty()
    }

    /// The quad `n` belongs to, as output or internal net.
    pub fn member(&self, n: NetId) -> Option<usize> {
        match self.member.get(n.index()) {
            Some(&q) if q != u32::MAX => Some(q as usize),
            _ => None,
        }
    }

    /// The quad whose output is `n`.
    pub fn output_of(&self, n: NetId) -> Option<usize> {
        self.member(n).filter(|&q| self.quads[q].output == n)
    }

    /// The quad that owns `n` as one of its internal nets.
    pub fn owner_of(&self, n: NetId) -> Option<usize> {
        self.member(n).filter(|&q| self.quads[q].output != n)
    }
}

/// Finds every four-NAND XOR ([`XorQuad`]) of `circuit`: the inverse of
/// [`expand_xor_to_nand`].
///
/// Pin order does not matter. A quad is accepted only if `t1` fans out to
/// `t2` and `t3` alone, `t2` and `t3` to `out` alone, none of the three is
/// a primary output and `a ≠ c`, so `out = a ⊕ c` is the only function of
/// the quad any other gate can see. An expanded XNOR is found as a quad
/// followed by its NOT.
///
/// # Examples
///
/// ```
/// use dp_netlist::{expand_xor_to_nand, find_xor_quads, CircuitBuilder, GateKind};
/// # fn main() -> Result<(), dp_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("x");
/// let a = b.input("a");
/// let c = b.input("b");
/// let g = b.gate("g", GateKind::Xor, &[a, c])?;
/// b.output(g);
/// let nands = expand_xor_to_nand(&b.finish()?)?;
/// let quads = find_xor_quads(&nands);
/// assert_eq!(quads.len(), 1);
/// assert_eq!(quads.quads()[0].output, nands.outputs()[0]);
/// # Ok(())
/// # }
/// ```
pub fn find_xor_quads(circuit: &Circuit) -> XorQuads {
    let mut is_output = vec![false; circuit.num_nets()];
    for &o in circuit.outputs() {
        is_output[o.index()] = true;
    }
    let nand2 = |n: NetId| match circuit.driver(n) {
        Driver::Gate {
            kind: GateKind::Nand,
            fanins,
        } if fanins.len() == 2 => Some([fanins[0], fanins[1]]),
        _ => None,
    };
    let sole_sinks = |n: NetId, sinks: &[NetId]| {
        !is_output[n.index()]
            && circuit.fanout(n).len() == sinks.len()
            && circuit.fanout(n).iter().all(|(s, _)| sinks.contains(s))
    };
    let mut found = XorQuads {
        quads: Vec::new(),
        member: vec![u32::MAX; circuit.num_nets()],
    };
    for out in circuit.gates() {
        let Some([t2, t3]) = nand2(out) else { continue };
        let (Some(f2), Some(f3)) = (nand2(t2), nand2(t3)) else {
            continue;
        };
        // t1 is the pin t2 and t3 share; a and c are their other pins.
        let quad = (0..2).find_map(|i| {
            let (t1, a) = (f2[i], f2[1 - i]);
            let j = f3.iter().position(|&f| f == t1)?;
            let c = f3[1 - j];
            let f1 = nand2(t1)?;
            (a != c && (f1 == [a, c] || f1 == [c, a])).then_some(XorQuad {
                inputs: [a, c],
                internal: [t1, t2, t3],
                output: out,
            })
        });
        let Some(quad) = quad else { continue };
        // The fences also keep quads disjoint: an internal net's sinks pin
        // down its quad's output, and an output cannot be another quad's
        // internal net (each of those reads a net feeding two gates of its
        // quad, while an output reads nets that feed it alone).
        let [t1, ..] = quad.internal;
        if sole_sinks(t1, &[t2, t3]) && sole_sinks(t2, &[out]) && sole_sinks(t3, &[out]) {
            let q = found.quads.len() as u32;
            for n in quad.internal.iter().chain([&out]) {
                found.member[n.index()] = q;
            }
            found.quads.push(quad);
        }
    }
    found
}

/// Shared rebuild driver: walks `circuit` topologically and lets `emit`
/// reconstruct each gate (possibly as several gates). The final net of each
/// emission must carry the original gate's name so outputs resolve.
fn rebuild(
    circuit: &Circuit,
    suffix: &str,
    mut emit: impl FnMut(
        &mut CircuitBuilder,
        &str,
        GateKind,
        &[NetId],
        &dyn Fn(&str, usize) -> String,
    ) -> Result<NetId, NetlistError>,
) -> Result<Circuit, NetlistError> {
    let mut b = CircuitBuilder::new(circuit.name());
    let mut map: Vec<Option<NetId>> = vec![None; circuit.num_nets()];
    for &pi in circuit.inputs() {
        map[pi.index()] = Some(b.try_input(circuit.net_name(pi))?);
    }
    let fresh = |name: &str, k: usize| format!("{name}{suffix}{k}");
    for n in circuit.gates() {
        if let Driver::Gate { kind, fanins } = circuit.driver(n) {
            let mapped: Vec<NetId> = fanins
                .iter()
                .map(|f| map[f.index()].expect("topological order"))
                .collect();
            let new = emit(&mut b, circuit.net_name(n), *kind, &mapped, &fresh)?;
            map[n.index()] = Some(new);
        }
    }
    for &po in circuit.outputs() {
        b.output(map[po.index()].expect("outputs are driven"));
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;

    /// Builds one n-input gate of the given kind and checks the transform
    /// preserves the function exhaustively.
    fn check_equivalent(original: &Circuit, transformed: &Circuit) {
        assert_eq!(original.num_inputs(), transformed.num_inputs());
        assert_eq!(original.num_outputs(), transformed.num_outputs());
        let n = original.num_inputs();
        assert!(n <= 16, "test helper is exhaustive");
        for bits in 0u32..(1 << n) {
            let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(original.eval(&v), transformed.eval(&v), "at {v:?}");
        }
    }

    fn wide_gate(kind: GateKind, arity: usize) -> Circuit {
        let mut b = CircuitBuilder::new("wide");
        let inputs: Vec<NetId> = (0..arity).map(|i| b.input(format!("i{i}"))).collect();
        let g = b.gate("g", kind, &inputs).unwrap();
        b.output(g);
        b.finish().unwrap()
    }

    #[test]
    fn decompose_all_kinds_all_arities() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for arity in 2..=6 {
                let wide = wide_gate(kind, arity);
                let narrow = decompose_two_input(&wide).unwrap();
                check_equivalent(&wide, &narrow);
                assert_eq!(narrow.num_gates(), arity - 1, "{kind} arity {arity}");
                // Every gate in the result is at most 2-input.
                for g in narrow.gates() {
                    if let Driver::Gate { fanins, .. } = narrow.driver(g) {
                        assert!(fanins.len() <= 2);
                    }
                }
            }
        }
    }

    #[test]
    fn decompose_is_identity_on_two_input_circuits() {
        let wide = wide_gate(GateKind::And, 2);
        let narrow = decompose_two_input(&wide).unwrap();
        assert_eq!(narrow.num_gates(), 1);
    }

    #[test]
    fn xor_expansion_is_four_nands() {
        let c = wide_gate(GateKind::Xor, 2);
        let e = expand_xor_to_nand(&c).unwrap();
        assert_eq!(e.num_gates(), 4);
        check_equivalent(&c, &e);
        for g in e.gates() {
            if let Driver::Gate { kind, .. } = e.driver(g) {
                assert_eq!(*kind, GateKind::Nand);
            }
        }
    }

    #[test]
    fn xnor_expansion_adds_inverter() {
        let c = wide_gate(GateKind::Xnor, 2);
        let e = expand_xor_to_nand(&c).unwrap();
        assert_eq!(e.num_gates(), 5);
        check_equivalent(&c, &e);
    }

    #[test]
    fn wide_xor_expands_via_chain() {
        let c = wide_gate(GateKind::Xor, 4);
        let e = expand_xor_to_nand(&c).unwrap();
        // 3 chain XORs × 4 NANDs.
        assert_eq!(e.num_gates(), 12);
        check_equivalent(&c, &e);
    }

    #[test]
    fn expansion_leaves_other_gates_alone() {
        let mut b = CircuitBuilder::new("mix");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate("x", GateKind::Xor, &[a, c]).unwrap();
        let y = b.gate("y", GateKind::And, &[a, x]).unwrap();
        b.output(y);
        let mix = b.finish().unwrap();
        let e = expand_xor_to_nand(&mix).unwrap();
        check_equivalent(&mix, &e);
        assert_eq!(e.num_gates(), 5); // 4 NANDs + AND
    }

    #[test]
    fn transforms_preserve_pi_po_names_and_order() {
        let c = wide_gate(GateKind::Nand, 5);
        let t = decompose_two_input(&c).unwrap();
        for (a, b) in c.inputs().iter().zip(t.inputs()) {
            assert_eq!(c.net_name(*a), t.net_name(*b));
        }
        assert_eq!(t.net_name(t.outputs()[0]), "g");
    }
    /// The two-input XORs of `pre` by name, paired with their operand names.
    fn xor_gates(pre: &Circuit) -> Vec<(String, [String; 2])> {
        pre.gates()
            .filter_map(|n| match pre.driver(n) {
                Driver::Gate {
                    kind: GateKind::Xor,
                    fanins,
                } => {
                    assert_eq!(fanins.len(), 2, "decomposed first");
                    let name = |f: NetId| pre.net_name(f).to_string();
                    Some((name(n), [name(fanins[0]), name(fanins[1])]))
                }
                _ => None,
            })
            .collect()
    }

    /// `expanded` has exactly one quad per two-input XOR of `pre`, each
    /// computing that XOR of the same operands (matched by net name).
    fn assert_one_quad_per_xor(pre: &Circuit, expanded: &Circuit) {
        let xors = xor_gates(pre);
        let quads = find_xor_quads(expanded);
        assert_eq!(quads.len(), xors.len(), "{}", expanded.name());
        let mut found: Vec<(String, [String; 2])> = quads
            .quads()
            .iter()
            .map(|q| {
                let name = |n: NetId| expanded.net_name(n).to_string();
                let mut ops = [name(q.inputs[0]), name(q.inputs[1])];
                ops.sort();
                (name(q.output), ops)
            })
            .collect();
        let mut want: Vec<(String, [String; 2])> = xors
            .into_iter()
            .map(|(n, mut ops)| {
                ops.sort();
                (n, ops)
            })
            .collect();
        found.sort();
        want.sort();
        assert_eq!(found, want);
        for (k, q) in quads.quads().iter().enumerate() {
            assert_eq!(quads.output_of(q.output), Some(k));
            assert_eq!(quads.owner_of(q.output), None);
            for &t in &q.internal {
                assert_eq!(quads.owner_of(t), Some(k));
                assert_eq!(quads.output_of(t), None);
            }
        }
    }

    #[test]
    fn c1355_has_one_quad_per_c499_xor() {
        use crate::generators::{c1355_surrogate, c499_surrogate};
        let pre = decompose_two_input(&c499_surrogate()).unwrap();
        assert_one_quad_per_xor(&pre, &c1355_surrogate());
        assert!(find_xor_quads(&c499_surrogate()).is_empty());
    }

    #[test]
    fn c1908_has_one_quad_per_pre_expansion_xor() {
        use crate::generators::{c1908_pre_expansion, c1908_surrogate};
        let pre = decompose_two_input(&c1908_pre_expansion()).unwrap();
        assert_one_quad_per_xor(&pre, &c1908_surrogate());
    }

    /// One XOR of `a` and `b` as four NANDs wired with the given pin
    /// orders, plus whatever `extra` adds; `out` is a primary output.
    fn hand_quad(swap: [bool; 4], extra: impl FnOnce(&mut CircuitBuilder, [NetId; 3])) -> Circuit {
        let mut b = CircuitBuilder::new("quad");
        let a = b.input("a");
        let c = b.input("c");
        let pins = |x: NetId, y: NetId, s: bool| if s { [y, x] } else { [x, y] };
        let t1 = b.gate("t1", GateKind::Nand, &pins(a, c, swap[0])).unwrap();
        let t2 = b.gate("t2", GateKind::Nand, &pins(a, t1, swap[1])).unwrap();
        let t3 = b.gate("t3", GateKind::Nand, &pins(c, t1, swap[2])).unwrap();
        let out = b
            .gate("out", GateKind::Nand, &pins(t2, t3, swap[3]))
            .unwrap();
        b.output(out);
        extra(&mut b, [t1, t2, t3]);
        b.finish().unwrap()
    }

    #[test]
    fn quads_are_found_under_every_pin_order() {
        for bits in 0u8..16 {
            let swap = [0, 1, 2, 3].map(|i| bits >> i & 1 == 1);
            let c = hand_quad(swap, |_, _| {});
            let quads = find_xor_quads(&c);
            assert_eq!(quads.len(), 1, "pin order {swap:?}");
            let q = quads.quads()[0];
            // t2 reads inputs[0] and t3 inputs[1], whichever way round.
            let names = (
                q.inputs.map(|n| c.net_name(n)),
                q.internal.map(|n| c.net_name(n)),
            );
            assert!(
                names == (["a", "c"], ["t1", "t2", "t3"])
                    || names == (["c", "a"], ["t1", "t3", "t2"]),
                "{names:?}"
            );
            assert_eq!(c.net_name(q.output), "out");
        }
    }

    #[test]
    fn leaky_or_degenerate_quads_are_rejected() {
        for k in 0..3 {
            // An internal net with a sink outside the quad.
            let leaky = hand_quad([false; 4], |b, t| {
                let tap = b.gate("tap", GateKind::Buf, &[t[k]]).unwrap();
                b.output(tap);
            });
            assert!(find_xor_quads(&leaky).is_empty(), "t{} read outside", k + 1);
            // An internal net that is a primary output.
            let exposed = hand_quad([false; 4], |b, t| b.output(t[k]));
            assert!(find_xor_quads(&exposed).is_empty(), "t{} is a PO", k + 1);
        }
        // XOR(a, a) expanded: a = c, so the NANDs do not compute a ⊕ c.
        let mut b = CircuitBuilder::new("aa");
        let a = b.input("a");
        let g = b.gate("g", GateKind::Xor, &[a, a]).unwrap();
        b.output(g);
        let aa = expand_xor_to_nand(&b.finish().unwrap()).unwrap();
        assert_eq!(aa.num_gates(), 4);
        assert!(find_xor_quads(&aa).is_empty());
    }

    #[test]
    fn an_expanded_xnor_is_a_quad_and_a_not() {
        let e = expand_xor_to_nand(&wide_gate(GateKind::Xnor, 2)).unwrap();
        let quads = find_xor_quads(&e);
        assert_eq!(quads.len(), 1);
        let g = e.outputs()[0];
        let Driver::Gate {
            kind: GateKind::Not,
            fanins,
        } = e.driver(g)
        else {
            panic!("XNOR output is not a NOT");
        };
        assert_eq!(quads.output_of(fanins[0]), Some(0));
    }
}
