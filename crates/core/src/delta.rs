//! The paper's Table 1: gate output difference functions.
//!
//! For a gate with good input functions `f` and input differences `Δ`, the
//! output difference is expressible without ever materialising the faulty
//! functions — the ring-sum (GF(2)) identities:
//!
//! * `AND`/`NAND`: `ΔC = fA·ΔB ⊕ fB·ΔA ⊕ ΔA·ΔB`
//! * `OR`/`NOR`:   `ΔC = ¬fA·ΔB ⊕ ¬fB·ΔA ⊕ ΔA·ΔB`
//! * `XOR`/`XNOR`: `ΔC = ΔA ⊕ ΔB`
//! * `NOT`/`BUF`:  `ΔC = ΔA`
//!
//! Output inversion never changes a difference (`¬f ⊕ ¬F = f ⊕ F`), which is
//! why each row covers the inverting twin. Gates of more than two inputs are
//! handled as the paper prescribes (§3): as a chain of `n − 1` two-input
//! gates, keeping the operation count linear instead of exponential in
//! fanin.

use dp_bdd::{Manager, NodeId};
use dp_netlist::GateKind;

/// Applies Table 1 for a two-input gate of the *base* (non-inverting,
/// non-unary) kind.
fn delta_two_input(
    manager: &mut Manager,
    kind: GateKind,
    fa: NodeId,
    fb: NodeId,
    da: NodeId,
    db: NodeId,
) -> NodeId {
    // Selective-trace shortcut: a zero input difference removes its terms.
    match kind {
        GateKind::And | GateKind::Nand => {
            // ΔC = fA·ΔB ⊕ fB·ΔA ⊕ ΔA·ΔB
            let t1 = manager.and(fa, db);
            let t2 = manager.and(fb, da);
            let t3 = manager.and(da, db);
            let x = manager.xor(t1, t2);
            manager.xor(x, t3)
        }
        GateKind::Or | GateKind::Nor => {
            // ΔC = ¬fA·ΔB ⊕ ¬fB·ΔA ⊕ ΔA·ΔB
            let nfa = manager.not(fa);
            let nfb = manager.not(fb);
            let t1 = manager.and(nfa, db);
            let t2 = manager.and(nfb, da);
            let t3 = manager.and(da, db);
            let x = manager.xor(t1, t2);
            manager.xor(x, t3)
        }
        GateKind::Xor | GateKind::Xnor => manager.xor(da, db),
        GateKind::Not | GateKind::Buf => unreachable!("unary gates take one input"),
    }
}

/// Computes a gate's output difference from its input good functions and
/// input differences (the paper's Table 1), for any fanin count.
///
/// `goods[i]` and `deltas[i]` describe fanin `i`; a [`NodeId::FALSE`] delta
/// means "no difference on this input". Multi-input gates are folded as a
/// chain of two-input gates. The chain's intermediate good products are
/// built on the fly, and only up to the last differing input: a link whose
/// new input carries no difference reads the product only through
/// `f·⊥ = ⊥`. A two-input gate therefore never builds its own good
/// function: with one differing input its difference costs one
/// `and(f_other, Δ)` (`and(¬f_other, Δ)` for the OR family).
///
/// # Panics
///
/// Panics if `goods` and `deltas` differ in length or are empty, or have the
/// wrong arity for `kind`.
///
/// # Examples
///
/// ```
/// use dp_bdd::{Manager, NodeId};
/// use dp_core::delta_output;
/// use dp_netlist::GateKind;
///
/// let mut m = Manager::new(2);
/// let a = m.var(0);
/// let b = m.var(1);
/// // Input A is stuck-at-0: ΔA = fA.
/// let dc = delta_output(&mut m, GateKind::And, &[a, b], &[a, NodeId::FALSE]);
/// // The AND output differs exactly when a = b = 1.
/// let ab = m.and(a, b);
/// assert_eq!(dc, ab);
/// ```
pub fn delta_output(
    manager: &mut Manager,
    kind: GateKind,
    goods: &[NodeId],
    deltas: &[NodeId],
) -> NodeId {
    assert_eq!(goods.len(), deltas.len(), "goods/deltas length mismatch");
    assert!(!goods.is_empty(), "gates have at least one fanin");
    match kind {
        GateKind::Not | GateKind::Buf => {
            assert_eq!(goods.len(), 1, "{kind} is unary");
            deltas[0]
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = deltas[0];
            for &d in &deltas[1..] {
                acc = manager.xor(acc, d);
            }
            acc
        }
        _ => {
            assert!(goods.len() >= 2, "{kind} needs two or more fanins");
            let base = match kind {
                GateKind::And | GateKind::Nand => GateKind::And,
                GateKind::Or | GateKind::Nor => GateKind::Or,
                _ => unreachable!(),
            };
            // Link `i` reads the chain's good product `f_acc` only through
            // `f_acc·Δi` (or `¬f_acc·Δi`), so no link after the last
            // differing pin reads it: the fold stops there.
            let Some(last) = deltas.iter().rposition(|d| !d.is_false()) else {
                return NodeId::FALSE;
            };
            let mut f_acc = goods[0];
            let mut d_acc = deltas[0];
            for i in 1..goods.len() {
                d_acc = if d_acc.is_false() && deltas[i].is_false() {
                    // Selective trace within the chain: no difference yet.
                    NodeId::FALSE
                } else {
                    delta_two_input(manager, base, f_acc, goods[i], d_acc, deltas[i])
                };
                if i < last {
                    f_acc = match base {
                        GateKind::And => manager.and(f_acc, goods[i]),
                        GateKind::Or => manager.or(f_acc, goods[i]),
                        _ => unreachable!(),
                    };
                }
            }
            d_acc
        }
    }
}

/// The naive alternative to Table 1 (the ablation baseline): materialise the
/// faulty input functions `F = f ⊕ Δ`, evaluate the gate on them, and XOR
/// with the good output.
///
/// Functionally identical to [`delta_output`]; the benchmark harness
/// measures the cost difference.
///
/// # Panics
///
/// As for [`delta_output`].
pub fn naive_delta_output(
    manager: &mut Manager,
    kind: GateKind,
    goods: &[NodeId],
    deltas: &[NodeId],
) -> NodeId {
    assert_eq!(goods.len(), deltas.len(), "goods/deltas length mismatch");
    assert!(!goods.is_empty(), "gates have at least one fanin");
    let faulty_inputs: Vec<NodeId> = goods
        .iter()
        .zip(deltas)
        .map(|(&f, &d)| manager.xor(f, d))
        .collect();
    let good_out = crate::good::build_gate(manager, kind, goods);
    let faulty_out = crate::good::build_gate(manager, kind, &faulty_inputs);
    manager.xor(good_out, faulty_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive check that Table 1 equals the defining identity
    /// `ΔC = C ⊕ F_C` for arbitrary (f, Δ) pairs built from two variables.
    fn check_kind(kind: GateKind, arity: usize) {
        // Use `arity` good variables and `arity` independent delta variables.
        let nvars = 2 * arity;
        let mut m = Manager::new(nvars);
        let goods: Vec<NodeId> = (0..arity).map(|i| m.var(i as u32)).collect();
        let deltas: Vec<NodeId> = (arity..2 * arity).map(|i| m.var(i as u32)).collect();
        let table1 = delta_output(&mut m, kind, &goods, &deltas);
        let naive = naive_delta_output(&mut m, kind, &goods, &deltas);
        assert_eq!(table1, naive, "{kind} arity {arity}");
        // And against scalar semantics.
        for bits in 0u32..1 << nvars {
            let v: Vec<bool> = (0..nvars).map(|i| bits >> i & 1 == 1).collect();
            let f: Vec<bool> = (0..arity).map(|i| v[i]).collect();
            let d: Vec<bool> = (0..arity).map(|i| v[arity + i]).collect();
            let faulty: Vec<bool> = f.iter().zip(&d).map(|(&a, &b)| a ^ b).collect();
            let expect = kind.eval(&f) ^ kind.eval(&faulty);
            assert_eq!(m.eval(table1, &v), expect, "{kind}/{arity} at {v:?}");
        }
    }

    #[test]
    fn table1_and_family() {
        check_kind(GateKind::And, 2);
        check_kind(GateKind::Nand, 2);
        check_kind(GateKind::And, 3);
        check_kind(GateKind::Nand, 4);
    }

    #[test]
    fn table1_or_family() {
        check_kind(GateKind::Or, 2);
        check_kind(GateKind::Nor, 2);
        check_kind(GateKind::Or, 3);
        check_kind(GateKind::Nor, 4);
    }

    #[test]
    fn table1_xor_family() {
        check_kind(GateKind::Xor, 2);
        check_kind(GateKind::Xnor, 2);
        check_kind(GateKind::Xor, 3);
    }

    /// Op-cache lookups so far, over every operation family.
    fn lookups(m: &Manager) -> u64 {
        m.stats().op_cumulative_total().lookups
    }

    #[test]
    fn one_differing_pin_costs_one_and_with_the_other_pin() {
        // Two identically built managers: goods with shared support and a
        // difference over a fresh variable.
        let build = || {
            let mut m = Manager::new(4);
            let v: Vec<NodeId> = (0..4).map(|i| m.var(i)).collect();
            let goods = [m.or(v[0], v[1]), m.and(v[1], v[2])];
            let delta = m.xor(v[2], v[3]);
            (m, goods, delta)
        };
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor] {
            for pin in 0..2 {
                let (mut m, goods, delta) = build();
                let mut deltas = [NodeId::FALSE; 2];
                deltas[pin] = delta;
                let before = lookups(&m);
                let dc = delta_output(&mut m, kind, &goods, &deltas);
                let cost = lookups(&m) - before;

                let (mut r, goods, delta) = build();
                let other = match kind {
                    GateKind::Or | GateKind::Nor => r.not(goods[1 - pin]),
                    _ => goods[1 - pin],
                };
                let before = lookups(&r);
                let _ = r.and(other, delta);
                assert_eq!(cost, lookups(&r) - before, "{kind}, pin {pin}");
                assert_eq!(dc, naive_delta_output(&mut m, kind, &goods, &deltas));
            }
        }
    }

    #[test]
    fn unary_passthrough() {
        let mut m = Manager::new(2);
        let f = m.var(0);
        let d = m.var(1);
        assert_eq!(delta_output(&mut m, GateKind::Not, &[f], &[d]), d);
        assert_eq!(delta_output(&mut m, GateKind::Buf, &[f], &[d]), d);
    }

    #[test]
    fn zero_deltas_propagate_nothing() {
        let mut m = Manager::new(3);
        let goods: Vec<NodeId> = (0..3).map(|i| m.var(i)).collect();
        let deltas = vec![NodeId::FALSE; 3];
        for kind in [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand] {
            assert_eq!(
                delta_output(&mut m, kind, &goods, &deltas),
                NodeId::FALSE,
                "{kind}"
            );
        }
    }

    #[test]
    fn inversion_does_not_change_delta() {
        let mut m = Manager::new(4);
        let goods: Vec<NodeId> = (0..2).map(|i| m.var(i)).collect();
        let deltas: Vec<NodeId> = (2..4).map(|i| m.var(i)).collect();
        let d_and = delta_output(&mut m, GateKind::And, &goods, &deltas);
        let d_nand = delta_output(&mut m, GateKind::Nand, &goods, &deltas);
        assert_eq!(d_and, d_nand);
        let d_or = delta_output(&mut m, GateKind::Or, &goods, &deltas);
        let d_nor = delta_output(&mut m, GateKind::Nor, &goods, &deltas);
        assert_eq!(d_or, d_nor);
    }
}
