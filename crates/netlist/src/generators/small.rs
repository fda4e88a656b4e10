//! The small benchmarks: C17, the full adder, and the "C95" adder slice.

use crate::circuit::{Circuit, CircuitBuilder, GateKind, NetId};

/// The ISCAS-85 **C17** circuit, exactly as published: five inputs, two
/// outputs, six NAND gates.
///
/// # Examples
///
/// ```
/// let c = dp_netlist::generators::c17();
/// assert_eq!(c.num_gates(), 6);
/// // With every input high, output 22 is high and 23 is low.
/// assert_eq!(c.eval(&[true; 5]), vec![true, false]);
/// ```
pub fn c17() -> Circuit {
    let mut b = CircuitBuilder::new("c17");
    let n1 = b.input("1");
    let n2 = b.input("2");
    let n3 = b.input("3");
    let n6 = b.input("6");
    let n7 = b.input("7");
    let g10 = b.gate("10", GateKind::Nand, &[n1, n3]).expect("valid");
    let g11 = b.gate("11", GateKind::Nand, &[n3, n6]).expect("valid");
    let g16 = b.gate("16", GateKind::Nand, &[n2, g11]).expect("valid");
    let g19 = b.gate("19", GateKind::Nand, &[g11, n7]).expect("valid");
    let g22 = b.gate("22", GateKind::Nand, &[g10, g16]).expect("valid");
    let g23 = b.gate("23", GateKind::Nand, &[g16, g19]).expect("valid");
    b.output(g22);
    b.output(g23);
    b.finish().expect("c17 is well-formed")
}

/// A one-bit **full adder**: inputs `a`, `b`, `cin`; outputs `sum`, `cout`.
///
/// `sum = a ⊕ b ⊕ cin`, `cout = a·b ∨ (a ⊕ b)·cin`, in five gates — the
/// second benchmark of the paper's set.
///
/// # Examples
///
/// ```
/// let c = dp_netlist::generators::full_adder();
/// assert_eq!(c.eval(&[true, true, false]), vec![false, true]); // 1+1 = 10
/// assert_eq!(c.eval(&[true, true, true]), vec![true, true]);   // 1+1+1 = 11
/// ```
pub fn full_adder() -> Circuit {
    let mut b = CircuitBuilder::new("full_adder");
    let a = b.input("a");
    let c = b.input("b");
    let cin = b.input("cin");
    let axb = b.gate("axb", GateKind::Xor, &[a, c]).expect("valid");
    let sum = b.gate("sum", GateKind::Xor, &[axb, cin]).expect("valid");
    let ab = b.gate("ab", GateKind::And, &[a, c]).expect("valid");
    let pc = b.gate("pc", GateKind::And, &[axb, cin]).expect("valid");
    let cout = b.gate("cout", GateKind::Or, &[ab, pc]).expect("valid");
    b.output(sum);
    b.output(cout);
    b.finish().expect("full adder is well-formed")
}

/// The "**C95**" benchmark: a 4-bit carry-lookahead adder slice with nine
/// inputs (`a0..a3`, `b0..b3`, `cin`) and five outputs (`s0..s3`, `cout`).
///
/// The paper's C95 netlist is not in the public ISCAS set; this surrogate
/// matches its role in the experiments — a small, reconvergent arithmetic
/// circuit between C17 and the 74181 in size (see `DESIGN.md` §4).
///
/// # Examples
///
/// ```
/// let c = dp_netlist::generators::c95();
/// assert_eq!(c.num_inputs(), 9);
/// assert_eq!(c.num_outputs(), 5);
/// // 5 + 10 + 1 = 16 -> sum 0000, carry out.
/// let v = [true, false, true, false, false, true, false, true, true];
/// assert_eq!(c.eval(&v), vec![false, false, false, false, true]);
/// ```
pub fn c95() -> Circuit {
    let mut b = CircuitBuilder::new("c95");
    let a: Vec<NetId> = (0..4).map(|i| b.input(format!("a{i}"))).collect();
    let bb: Vec<NetId> = (0..4).map(|i| b.input(format!("b{i}"))).collect();
    let cin = b.input("cin");

    // Propagate / generate per bit.
    let mut p = Vec::new();
    let mut g = Vec::new();
    for i in 0..4 {
        p.push(
            b.gate(format!("p{i}"), GateKind::Xor, &[a[i], bb[i]])
                .expect("valid"),
        );
        g.push(
            b.gate(format!("g{i}"), GateKind::And, &[a[i], bb[i]])
                .expect("valid"),
        );
    }

    // Lookahead carries: c[i+1] = g[i] + p[i]·g[i-1] + ... + p[i]..p[0]·cin.
    let mut carries = vec![cin];
    for i in 0..4 {
        let mut terms = vec![g[i]];
        for j in (0..i).rev() {
            // p[i]·p[i-1]·...·p[j+1]·g[j]
            let fanins: Vec<NetId> = (j + 1..=i).map(|k| p[k]).chain([g[j]]).collect();
            terms.push(
                b.gate(format!("t{i}_{j}"), GateKind::And, &fanins)
                    .expect("valid"),
            );
        }
        let all_p: Vec<NetId> = (0..=i).map(|k| p[k]).chain([cin]).collect();
        terms.push(
            b.gate(format!("t{i}_cin"), GateKind::And, &all_p)
                .expect("valid"),
        );
        let carry = if terms.len() == 1 {
            terms[0]
        } else {
            b.gate(format!("c{}", i + 1), GateKind::Or, &terms)
                .expect("valid")
        };
        carries.push(carry);
    }

    let mut sums = Vec::new();
    for i in 0..4 {
        sums.push(
            b.gate(format!("s{i}"), GateKind::Xor, &[p[i], carries[i]])
                .expect("valid"),
        );
    }
    for s in sums {
        b.output(s);
    }
    b.output(carries[4]);
    b.finish().expect("c95 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_matches_published_truth_table() {
        let c = c17();
        // Independent NAND-network reference model.
        let reference = |v: &[bool]| -> (bool, bool) {
            let (i1, i2, i3, i6, i7) = (v[0], v[1], v[2], v[3], v[4]);
            let g10 = !(i1 && i3);
            let g11 = !(i3 && i6);
            let g16 = !(i2 && g11);
            let g19 = !(g11 && i7);
            (!(g10 && g16), !(g16 && g19))
        };
        for bits in 0u32..32 {
            let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let out = c.eval(&v);
            let (o22, o23) = reference(&v);
            assert_eq!(out, vec![o22, o23], "at {v:?}");
        }
    }

    #[test]
    fn full_adder_adds() {
        let c = full_adder();
        for a in 0..2u32 {
            for b in 0..2u32 {
                for ci in 0..2u32 {
                    let out = c.eval(&[a == 1, b == 1, ci == 1]);
                    let total = a + b + ci;
                    assert_eq!(out[0], total & 1 == 1, "sum of {a}+{b}+{ci}");
                    assert_eq!(out[1], total >= 2, "carry of {a}+{b}+{ci}");
                }
            }
        }
    }

    #[test]
    fn c95_is_a_four_bit_adder() {
        let c = c95();
        for x in 0u32..16 {
            for y in 0u32..16 {
                for ci in 0..2u32 {
                    let mut v = Vec::new();
                    v.extend((0..4).map(|i| x >> i & 1 == 1));
                    v.extend((0..4).map(|i| y >> i & 1 == 1));
                    v.push(ci == 1);
                    let out = c.eval(&v);
                    let total = x + y + ci;
                    for (i, &bit) in out.iter().take(4).enumerate() {
                        assert_eq!(bit, total >> i & 1 == 1, "{x}+{y}+{ci} bit {i}");
                    }
                    assert_eq!(out[4], total >= 16, "{x}+{y}+{ci} carry");
                }
            }
        }
    }

    #[test]
    fn c95_shape() {
        let c = c95();
        assert_eq!(c.num_inputs(), 9);
        assert_eq!(c.num_outputs(), 5);
        assert!(c.num_gates() >= 25, "got {}", c.num_gates());
    }
}
