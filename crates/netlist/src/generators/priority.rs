//! C432 surrogate: a 27-channel priority interrupt controller.
//!
//! The real ISCAS-85 C432 is a 36-input, 7-output interrupt controller. The
//! surrogate keeps that interface and role: three 9-line request buses `A`,
//! `B`, `C` with per-line enables `E`, bus priority `A > B > C`, line
//! priority `0 > 1 > ... > 8`, and outputs consisting of three bus-grant
//! flags plus a 4-bit encoded granted line.

use crate::circuit::{Circuit, CircuitBuilder, GateKind, NetId};

/// Builds the C432 surrogate.
///
/// Inputs (36): `A0..A8`, `B0..B8`, `C0..C8`, `E0..E8`.
/// Outputs (7): `PA`, `PB`, `PC` (a request granted on that bus), and
/// `OUT3..OUT0`, the binary index of the highest-priority granted line.
///
/// Semantics: line `i` of bus `A` requests iff `A_i ∧ E_i`; bus `B` line `i`
/// requests iff `B_i ∧ E_i ∧ ¬A_i` (bus A shadows it), and bus `C` line `i`
/// iff `C_i ∧ E_i ∧ ¬A_i ∧ ¬B_i`. The granted line is the lowest-index line
/// with any surviving request.
///
/// # Examples
///
/// ```
/// let c = dp_netlist::generators::c432_surrogate();
/// assert_eq!(c.num_inputs(), 36);
/// assert_eq!(c.num_outputs(), 7);
/// ```
pub fn c432_surrogate() -> Circuit {
    let mut b = CircuitBuilder::new("c432s");
    let a: Vec<NetId> = (0..9).map(|i| b.input(format!("A{i}"))).collect();
    let bus_b: Vec<NetId> = (0..9).map(|i| b.input(format!("B{i}"))).collect();
    let bus_c: Vec<NetId> = (0..9).map(|i| b.input(format!("C{i}"))).collect();
    let e: Vec<NetId> = (0..9).map(|i| b.input(format!("E{i}"))).collect();

    let mut en_a = Vec::new();
    let mut en_b = Vec::new();
    let mut en_c = Vec::new();
    for i in 0..9 {
        let na = b.not(format!("nA{i}"), a[i]).expect("valid");
        let nb = b.not(format!("nB{i}"), bus_b[i]).expect("valid");
        en_a.push(
            b.gate(format!("ea{i}"), GateKind::And, &[a[i], e[i]])
                .expect("valid"),
        );
        en_b.push(
            b.gate(format!("eb{i}"), GateKind::And, &[bus_b[i], e[i], na])
                .expect("valid"),
        );
        en_c.push(
            b.gate(format!("ec{i}"), GateKind::And, &[bus_c[i], e[i], na, nb])
                .expect("valid"),
        );
    }

    // Bus grant flags: OR trees over the nine surviving requests.
    let or9 = |b: &mut CircuitBuilder, name: &str, xs: &[NetId]| -> NetId {
        // Balanced tree of 2-input ORs for realistic depth.
        let mut layer: Vec<NetId> = xs.to_vec();
        let mut k = 0;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(
                        b.gate(format!("{name}_o{k}"), GateKind::Or, &[pair[0], pair[1]])
                            .expect("valid"),
                    );
                    k += 1;
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    };
    let pa = or9(&mut b, "PAtree", &en_a);
    let pb = or9(&mut b, "PBtree", &en_b);
    let pc = or9(&mut b, "PCtree", &en_c);
    let pa_out = b.gate("PA", GateKind::Buf, &[pa]).expect("valid");
    let pb_out = b.gate("PB", GateKind::Buf, &[pb]).expect("valid");
    let pc_out = b.gate("PC", GateKind::Buf, &[pc]).expect("valid");

    // Per-line surviving request (any bus) and priority grant.
    let mut req = Vec::new();
    for i in 0..9 {
        req.push(
            b.gate(
                format!("req{i}"),
                GateKind::Or,
                &[en_a[i], en_b[i], en_c[i]],
            )
            .expect("valid"),
        );
    }
    let mut none_above = Vec::new(); // none_above[i] = no request on lines 0..i
    let mut grants = Vec::new();
    for i in 0..9 {
        let grant = if i == 0 {
            b.gate("grant0", GateKind::Buf, &[req[0]]).expect("valid")
        } else {
            let prev: NetId = if i == 1 {
                b.not("nr0", req[0]).expect("valid")
            } else {
                let nr = b.not(format!("nr{}", i - 1), req[i - 1]).expect("valid");
                b.gate(
                    format!("na{}", i - 1),
                    GateKind::And,
                    &[none_above[i - 2], nr],
                )
                .expect("valid")
            };
            none_above.push(prev);
            b.gate(format!("grant{i}"), GateKind::And, &[req[i], prev])
                .expect("valid")
        };
        if i == 0 {
            // Seed the none_above chain at index 0 lazily above.
        }
        grants.push(grant);
    }

    // Binary encode of the granted line: OUT_b = OR of grants with bit b set.
    let mut outs = Vec::new();
    for bit in 0..4 {
        let terms: Vec<NetId> = (0..9)
            .filter(|i| i >> bit & 1 == 1)
            .map(|i| grants[i])
            .collect();
        let out = match terms.len() {
            0 => unreachable!("bit 3 covers line 8"),
            1 => b
                .gate(format!("OUT{bit}"), GateKind::Buf, &[terms[0]])
                .expect("valid"),
            _ => b
                .gate(format!("OUT{bit}"), GateKind::Or, &terms)
                .expect("valid"),
        };
        outs.push(out);
    }

    b.output(pa_out);
    b.output(pb_out);
    b.output(pc_out);
    for &o in outs.iter().rev() {
        b.output(o); // OUT3 first
    }
    b.finish().expect("c432 surrogate is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Behavioural reference model.
    fn reference(av: u32, bv: u32, cv: u32, ev: u32) -> (bool, bool, bool, u32) {
        let bit = |x: u32, i: usize| x >> i & 1 == 1;
        let mut pa = false;
        let mut pb = false;
        let mut pc = false;
        let mut granted = 0u32;
        let mut found = false;
        for i in 0..9 {
            let ea = bit(av, i) && bit(ev, i);
            let eb = bit(bv, i) && bit(ev, i) && !bit(av, i);
            let ec = bit(cv, i) && bit(ev, i) && !bit(av, i) && !bit(bv, i);
            pa |= ea;
            pb |= eb;
            pc |= ec;
            if !found && (ea || eb || ec) {
                granted = i as u32;
                found = true;
            }
        }
        (pa, pb, pc, if found { granted } else { 0 })
    }

    fn drive(c: &Circuit, av: u32, bv: u32, cv: u32, ev: u32) -> (bool, bool, bool, u32) {
        let mut v = Vec::new();
        for x in [av, bv, cv, ev] {
            v.extend((0..9).map(|i| x >> i & 1 == 1));
        }
        let out = c.eval(&v);
        let idx = (0..4).map(|i| (out[6 - i] as u32) << i).sum();
        (out[0], out[1], out[2], idx)
    }

    #[test]
    fn shape() {
        let c = c432_surrogate();
        assert_eq!(c.num_inputs(), 36);
        assert_eq!(c.num_outputs(), 7);
        assert!(c.num_gates() >= 100, "got {}", c.num_gates());
    }

    #[test]
    fn matches_reference_on_random_vectors() {
        let c = c432_surrogate();
        let mut rng = StdRng::seed_from_u64(432);
        for _ in 0..2000 {
            let av = rng.random::<u32>() & 0x1FF;
            let bv = rng.random::<u32>() & 0x1FF;
            let cv = rng.random::<u32>() & 0x1FF;
            let ev = rng.random::<u32>() & 0x1FF;
            assert_eq!(
                drive(&c, av, bv, cv, ev),
                reference(av, bv, cv, ev),
                "A={av:09b} B={bv:09b} C={cv:09b} E={ev:09b}"
            );
        }
    }

    #[test]
    fn directed_cases() {
        let c = c432_surrogate();
        // No requests at all.
        assert_eq!(drive(&c, 0, 0, 0, 0x1FF), (false, false, false, 0));
        // A shadows B on the same line.
        assert_eq!(drive(&c, 0b1, 0b1, 0, 0x1FF), (true, false, false, 0));
        // Line priority: line 3 beats line 7.
        assert_eq!(drive(&c, 0b1000_1000, 0, 0, 0x1FF), (true, false, false, 3));
        // Disabled lines are ignored.
        assert_eq!(drive(&c, 0b1, 0, 0, 0), (false, false, false, 0));
        // C grants only where A and B are idle.
        assert_eq!(drive(&c, 0, 0, 0b10, 0x1FF), (false, false, true, 1));
    }
}
