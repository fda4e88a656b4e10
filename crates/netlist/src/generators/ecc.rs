//! C499 / C1355 / C1908 surrogates: error-correcting-code networks.
//!
//! The real C499 is a 41-input, 32-output single-error-correction circuit
//! dominated by XOR trees; C1355 is C499 with each XOR expanded into its
//! four-NAND equivalent; C1908 is a 16-bit SEC/DED network. The surrogates
//! keep those roles:
//!
//! * [`c499_surrogate`] — 32 data bits, 8 check bits, 1 enable; recomputes
//!   the 8-bit syndrome and corrects the single data bit whose parity-check
//!   column matches it.
//! * [`c1355_surrogate`] — the same circuit passed through
//!   [`expand_xor_to_nand`](crate::expand_xor_to_nand), exactly the
//!   relationship the paper exploits in Figure 2.
//! * [`c1908_surrogate`] — a 16-data-bit, 7-check-bit SEC/DED variant with
//!   single/double error flags, NAND-expanded to match C1908's NAND-heavy
//!   composition.

use crate::circuit::{Circuit, CircuitBuilder, GateKind, NetId};
use crate::transform::expand_xor_to_nand;

/// Parity-check column for data bit `i` of the 32-bit code: 8-bit, distinct
/// and non-zero (multiplier 37 is coprime to 255, so all columns differ).
fn column32(i: usize) -> u32 {
    ((i as u32 * 37) % 255) + 1
}

/// Parity-check column for data bit `i` of the 16-bit code: 7-bit, distinct,
/// non-zero.
fn column16(i: usize) -> u32 {
    ((i as u32 * 11) % 127) + 1
}

/// Balanced XOR tree over `taps` (at least one net); returns the parity net.
fn xor_tree(b: &mut CircuitBuilder, name: &str, taps: &[NetId]) -> NetId {
    assert!(!taps.is_empty());
    let mut layer: Vec<NetId> = taps.to_vec();
    let mut k = 0;
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(
                    b.gate(format!("{name}_x{k}"), GateKind::Xor, &[pair[0], pair[1]])
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
}

/// Balanced AND tree over `taps`; returns the conjunction net.
fn and_tree(b: &mut CircuitBuilder, name: &str, taps: &[NetId]) -> NetId {
    assert!(taps.len() >= 2);
    let mut layer: Vec<NetId> = taps.to_vec();
    let mut k = 0;
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(
                    b.gate(format!("{name}_a{k}"), GateKind::And, &[pair[0], pair[1]])
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
}

/// Shared SEC decoder: `nd` data bits, `nc` check bits, one `en` input;
/// outputs the corrected data word.
fn sec_circuit(name: &str, nd: usize, nc: usize, column: impl Fn(usize) -> u32) -> Circuit {
    let mut b = CircuitBuilder::new(name);
    let d: Vec<NetId> = (0..nd).map(|i| b.input(format!("d{i}"))).collect();
    let p: Vec<NetId> = (0..nc).map(|j| b.input(format!("p{j}"))).collect();
    let en = b.input("en");

    // Syndrome bit j: p_j XOR parity of the data bits whose column has bit j.
    let mut syndrome = Vec::new();
    let mut nsyndrome = Vec::new();
    for (j, &pj) in p.iter().enumerate() {
        let taps: Vec<NetId> = (0..nd)
            .filter(|&i| column(i) >> j & 1 == 1)
            .map(|i| d[i])
            .chain([pj])
            .collect();
        let s = xor_tree(&mut b, &format!("s{j}"), &taps);
        let sj = b.gate(format!("S{j}"), GateKind::Buf, &[s]).expect("valid");
        let nsj = b.not(format!("nS{j}"), sj).expect("valid");
        syndrome.push(sj);
        nsyndrome.push(nsj);
    }

    // Correct data bit i when the syndrome equals its column (and en is set).
    for (i, &di) in d.iter().enumerate() {
        let lits: Vec<NetId> = (0..nc)
            .map(|j| {
                if column(i) >> j & 1 == 1 {
                    syndrome[j]
                } else {
                    nsyndrome[j]
                }
            })
            .collect();
        let m = and_tree(&mut b, &format!("m{i}"), &lits);
        let flip = b
            .gate(format!("flip{i}"), GateKind::And, &[m, en])
            .expect("valid");
        let out = b
            .gate(format!("o{i}"), GateKind::Xor, &[di, flip])
            .expect("valid");
        b.output(out);
    }
    b.finish().expect("SEC circuit is well-formed")
}

/// The C499 surrogate: 41 inputs (`d0..d31`, `p0..p7`, `en`), 32 outputs —
/// a 32-bit single-error-correcting network built from XOR trees and
/// syndrome matchers.
///
/// # Examples
///
/// ```
/// let c = dp_netlist::generators::c499_surrogate();
/// assert_eq!(c.num_inputs(), 41);
/// assert_eq!(c.num_outputs(), 32);
/// ```
pub fn c499_surrogate() -> Circuit {
    sec_circuit("c499s", 32, 8, column32)
}

/// The C1355 surrogate: [`c499_surrogate`] with every XOR expanded into its
/// four-NAND equivalent — functionally identical, structurally much larger,
/// which is precisely the comparison the paper draws between C499 and C1355.
///
/// # Examples
///
/// ```
/// use dp_netlist::generators::{c1355_surrogate, c499_surrogate};
/// let c499 = c499_surrogate();
/// let c1355 = c1355_surrogate();
/// assert_eq!(c1355.num_inputs(), c499.num_inputs());
/// assert!(c1355.num_gates() > 2 * c499.num_gates());
/// ```
pub fn c1355_surrogate() -> Circuit {
    let mut c = expand_xor_to_nand(&c499_surrogate()).expect("expansion is closed");
    c.set_name("c1355s");
    c
}

/// The C1908 surrogate: a 16-bit SEC/DED network (16 data bits, 7 check bits
/// including overall parity, correction enable and flag enable), with
/// single- and double-error flags, NAND-expanded. 25 inputs, 18 outputs.
///
/// # Examples
///
/// ```
/// let c = dp_netlist::generators::c1908_surrogate();
/// assert_eq!(c.num_inputs(), 25);
/// assert_eq!(c.num_outputs(), 18);
/// ```
pub fn c1908_surrogate() -> Circuit {
    let mut c = expand_xor_to_nand(&c1908_pre_expansion()).expect("expansion is closed");
    c.set_name("c1908s");
    c
}

/// [`c1908_surrogate`] before its XORs are expanded into NANDs.
pub(crate) fn c1908_pre_expansion() -> Circuit {
    let mut b = CircuitBuilder::new("c1908s_pre");
    let nd = 16;
    let nc = 6;
    let d: Vec<NetId> = (0..nd).map(|i| b.input(format!("d{i}"))).collect();
    let p: Vec<NetId> = (0..nc).map(|j| b.input(format!("p{j}"))).collect();
    let pall = b.input("pall"); // overall parity bit (the DED extension)
    let en_c = b.input("enc"); // correction enable
    let en_f = b.input("enf"); // flag enable

    let mut syndrome = Vec::new();
    let mut nsyndrome = Vec::new();
    for (j, &pj) in p.iter().enumerate() {
        let taps: Vec<NetId> = (0..nd)
            .filter(|&i| column16(i) >> j & 1 == 1)
            .map(|i| d[i])
            .chain([pj])
            .collect();
        let s = xor_tree(&mut b, &format!("s{j}"), &taps);
        let sj = b.gate(format!("S{j}"), GateKind::Buf, &[s]).expect("valid");
        let nsj = b.not(format!("nS{j}"), sj).expect("valid");
        syndrome.push(sj);
        nsyndrome.push(nsj);
    }

    // Overall parity of the word (data + check + pall): zero for intact
    // words and single... flips for odd-weight errors.
    let all_taps: Vec<NetId> = d.iter().chain(p.iter()).chain([&pall]).copied().collect();
    let overall = xor_tree(&mut b, "ov", &all_taps);

    // syndrome != 0
    let s_any = {
        let mut layer: Vec<NetId> = syndrome.clone();
        let mut k = 0;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(
                        b.gate(format!("sany_{k}"), GateKind::Or, &[pair[0], pair[1]])
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

    // Single error: syndrome non-zero AND overall parity flipped.
    // Double error: syndrome non-zero AND overall parity intact.
    let nov = b.not("nov", overall).expect("valid");
    let single = b
        .gate("single_i", GateKind::And, &[s_any, overall])
        .expect("valid");
    let double = b
        .gate("double_i", GateKind::And, &[s_any, nov])
        .expect("valid");
    let err_single = b
        .gate("err_single", GateKind::And, &[single, en_f])
        .expect("valid");
    let err_double = b
        .gate("err_double", GateKind::And, &[double, en_f])
        .expect("valid");

    // Corrected data: flip bit i when its column matches and it is a single
    // error with correction enabled.
    let do_correct = b
        .gate("do_correct", GateKind::And, &[single, en_c])
        .expect("valid");
    let mut outs = Vec::new();
    for (i, &di) in d.iter().enumerate() {
        let lits: Vec<NetId> = (0..nc)
            .map(|j| {
                if column16(i) >> j & 1 == 1 {
                    syndrome[j]
                } else {
                    nsyndrome[j]
                }
            })
            .collect();
        let m = and_tree(&mut b, &format!("m{i}"), &lits);
        let flip = b
            .gate(format!("flip{i}"), GateKind::And, &[m, do_correct])
            .expect("valid");
        outs.push(
            b.gate(format!("o{i}"), GateKind::Xor, &[di, flip])
                .expect("valid"),
        );
    }
    for o in outs {
        b.output(o);
    }
    b.output(err_single);
    b.output(err_double);
    b.finish().expect("SEC/DED circuit is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn encode32(data: u32) -> [bool; 8] {
        let mut checks = [false; 8];
        for (j, c) in checks.iter_mut().enumerate() {
            let mut parity = false;
            for i in 0..32 {
                if column32(i) >> j & 1 == 1 && data >> i & 1 == 1 {
                    parity ^= true;
                }
            }
            *c = parity; // p_j = parity so that syndrome = 0
        }
        checks
    }

    fn drive499(c: &Circuit, data: u32, checks: [bool; 8], en: bool) -> u32 {
        let mut v: Vec<bool> = (0..32).map(|i| data >> i & 1 == 1).collect();
        v.extend(checks);
        v.push(en);
        let out = c.eval(&v);
        (0..32).map(|i| (out[i] as u32) << i).sum()
    }

    #[test]
    fn columns_are_distinct_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..32 {
            let c = column32(i);
            assert!(c > 0 && c < 256);
            assert!(seen.insert(c), "duplicate column {c}");
        }
        let mut seen = std::collections::HashSet::new();
        for i in 0..16 {
            let c = column16(i);
            assert!(c > 0 && c < 128);
            assert!(seen.insert(c), "duplicate column {c}");
        }
    }

    #[test]
    fn c499_passes_clean_words() {
        let c = c499_surrogate();
        let mut rng = StdRng::seed_from_u64(499);
        for _ in 0..50 {
            let data: u32 = rng.random();
            let checks = encode32(data);
            assert_eq!(drive499(&c, data, checks, true), data);
            assert_eq!(drive499(&c, data, checks, false), data);
        }
    }

    #[test]
    fn c499_corrects_single_data_errors() {
        let c = c499_surrogate();
        let mut rng = StdRng::seed_from_u64(500);
        for _ in 0..20 {
            let data: u32 = rng.random();
            let checks = encode32(data);
            let bit: u32 = rng.random_range(0..32);
            let corrupted = data ^ (1u32 << bit);
            assert_eq!(drive499(&c, corrupted, checks, true), data, "bit {bit}");
            // Correction disabled: the error stays.
            assert_eq!(drive499(&c, corrupted, checks, false), corrupted);
        }
    }

    #[test]
    fn c1355_is_functionally_c499() {
        let c499 = c499_surrogate();
        let c1355 = c1355_surrogate();
        assert_eq!(c1355.num_inputs(), 41);
        assert_eq!(c1355.num_outputs(), 32);
        let mut rng = StdRng::seed_from_u64(1355);
        for _ in 0..30 {
            let v: Vec<bool> = (0..41).map(|_| rng.random()).collect();
            assert_eq!(c499.eval(&v), c1355.eval(&v));
        }
        // Only NANDs and NOTs and ANDs/BUFs remain — no XOR gates.
        for g in c1355.gates() {
            if let crate::circuit::Driver::Gate { kind, .. } = c1355.driver(g) {
                assert!(
                    !matches!(kind, GateKind::Xor | GateKind::Xnor),
                    "XOR survived expansion"
                );
            }
        }
    }

    fn encode16(data: u32) -> ([bool; 6], bool) {
        let mut checks = [false; 6];
        for (j, c) in checks.iter_mut().enumerate() {
            let mut parity = false;
            for i in 0..16 {
                if column16(i) >> j & 1 == 1 && data >> i & 1 == 1 {
                    parity ^= true;
                }
            }
            *c = parity;
        }
        // pall makes the overall parity of data+checks+pall even.
        let mut overall = false;
        for i in 0..16 {
            overall ^= data >> i & 1 == 1;
        }
        for &c in &checks {
            overall ^= c;
        }
        (checks, overall)
    }

    fn drive1908(
        c: &Circuit,
        data: u32,
        checks: [bool; 6],
        pall: bool,
        enc: bool,
        enf: bool,
    ) -> (u32, bool, bool) {
        let mut v: Vec<bool> = (0..16).map(|i| data >> i & 1 == 1).collect();
        v.extend(checks);
        v.push(pall);
        v.push(enc);
        v.push(enf);
        let out = c.eval(&v);
        let word = (0..16).map(|i| (out[i] as u32) << i).sum();
        (word, out[16], out[17])
    }

    #[test]
    fn c1908_clean_words_pass_without_flags() {
        let c = c1908_surrogate();
        let mut rng = StdRng::seed_from_u64(1908);
        for _ in 0..20 {
            let data = rng.random::<u32>() & 0xFFFF;
            let (checks, pall) = encode16(data);
            let (word, s, dbl) = drive1908(&c, data, checks, pall, true, true);
            assert_eq!(word, data);
            assert!(!s);
            assert!(!dbl);
        }
    }

    #[test]
    fn c1908_corrects_and_flags_single_errors() {
        let c = c1908_surrogate();
        let mut rng = StdRng::seed_from_u64(1909);
        for _ in 0..15 {
            let data = rng.random::<u32>() & 0xFFFF;
            let (checks, pall) = encode16(data);
            let bit: u32 = rng.random_range(0..16);
            let corrupted = data ^ (1u32 << bit);
            let (word, s, dbl) = drive1908(&c, corrupted, checks, pall, true, true);
            assert_eq!(word, data, "bit {bit}");
            assert!(s, "single-error flag");
            assert!(!dbl);
        }
    }

    #[test]
    fn c1908_flags_double_errors_without_correcting() {
        let c = c1908_surrogate();
        let mut rng = StdRng::seed_from_u64(1910);
        for _ in 0..15 {
            let data = rng.random::<u32>() & 0xFFFF;
            let (checks, pall) = encode16(data);
            let b1: u32 = rng.random_range(0..16);
            let mut b2: u32 = rng.random_range(0..16);
            while b2 == b1 {
                b2 = rng.random_range(0..16);
            }
            let corrupted = data ^ (1u32 << b1) ^ (1u32 << b2);
            let (word, s, dbl) = drive1908(&c, corrupted, checks, pall, true, true);
            assert!(dbl, "double-error flag for bits {b1},{b2}");
            assert!(!s);
            assert_eq!(word, corrupted, "double errors are not corrected");
        }
    }

    #[test]
    fn surrogate_shapes() {
        let c499 = c499_surrogate();
        assert!(c499.num_gates() >= 300, "got {}", c499.num_gates());
        let c1908 = c1908_surrogate();
        assert_eq!(c1908.num_inputs(), 25);
        assert_eq!(c1908.num_outputs(), 18);
        assert!(c1908.num_gates() >= 400, "got {}", c1908.num_gates());
    }
}
