//! ISCAS-85 `.bench` format reader and writer.
//!
//! The format (Brglez & Fujiwara, ISCAS 1985) is line oriented:
//!
//! ```text
//! # comment
//! INPUT(1)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 23 = BUFF(16)
//! ```
//!
//! Declaration order of `INPUT` lines is preserved — the paper treats that
//! order as a meaningful default OBDD variable order.

use std::collections::HashMap;

use crate::circuit::{Circuit, CircuitBuilder, Driver, GateKind, NetId};
use crate::error::NetlistError;

/// Parses an ISCAS-85 `.bench` netlist.
///
/// Gate definitions may appear in any order; the parser topologically sorts
/// them. `OUTPUT` may name a net defined later in the file. Inputs are
/// numbered first, in declaration order. Each gate `g` then gets a *round*:
/// the maximum, over its gate fanins `h`, of `round(h)`, plus one where `h`
/// is defined after `g` in the file (0 for a gate fed only by inputs).
/// Gates are numbered in (round, file position) order — the order repeated
/// passes over the file in file order would place them — so a file already
/// in topological order keeps its order. Parsing takes time linear in the
/// file's length, up to sorting the gates by round.
///
/// # Errors
///
/// Returns [`NetlistError::ParseBench`] — always with the offending line
/// number — for malformed lines, duplicate net definitions (including a
/// gate redefining a declared `INPUT`), references to undefined nets,
/// cyclic netlists and a net listed twice as an `OUTPUT`;
/// [`NetlistError::UnknownNet`] for an `OUTPUT` naming a net the file never
/// defines; [`NetlistError::BadArity`] for a gate with the wrong number of
/// fanins. The parser never panics on malformed input.
///
/// # Examples
///
/// ```
/// let src = "
/// ## half adder
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(s)
/// OUTPUT(c)
/// s = XOR(a, b)
/// c = AND(a, b)
/// ";
/// let circuit = dp_netlist::parse_bench(src, "ha")?;
/// assert_eq!(circuit.num_inputs(), 2);
/// assert_eq!(circuit.num_gates(), 2);
/// # Ok::<(), dp_netlist::NetlistError>(())
/// ```
pub fn parse_bench(src: &str, name: &str) -> Result<Circuit, NetlistError> {
    struct RawGate<'s> {
        output: &'s str,
        kind: GateKind,
        fanins: Vec<&'s str>,
        line: usize,
    }
    /// What defines a net: the `k`th `INPUT` or the `k`th gate line.
    #[derive(Clone, Copy)]
    enum Def {
        Input(usize),
        Gate(usize),
    }

    let mut inputs: Vec<&str> = Vec::new();
    let mut outputs: Vec<(&str, usize)> = Vec::new();
    let mut gates: Vec<RawGate> = Vec::new();
    // Every net definition (INPUT or gate output) with its line, so a
    // redefinition is rejected at the offending line instead of surfacing
    // later as a lineless structural error.
    let mut defined: HashMap<&str, (usize, Def)> = HashMap::new();

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let err = |message: String| NetlistError::ParseBench { line, message };
        let mut define = |name, def| match defined.insert(name, (line, def)) {
            Some((prev, _)) => Err(err(format!("net `{name}` already defined at line {prev}"))),
            None => Ok(()),
        };
        if let Some(rest) = strip_directive(text, "INPUT") {
            let name = rest.map_err(err)?;
            define(name, Def::Input(inputs.len()))?;
            inputs.push(name);
        } else if let Some(rest) = strip_directive(text, "OUTPUT") {
            outputs.push((rest.map_err(err)?, line));
        } else if let Some((lhs, rhs)) = text.split_once('=') {
            let output = lhs.trim();
            define(output, Def::Gate(gates.len()))?;
            let rhs = rhs.trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| err("expected `name = GATE(args)`".into()))?;
            if !rhs.ends_with(')') {
                return Err(err("missing closing parenthesis".into()));
            }
            let kind_str = rhs[..open].trim().to_ascii_uppercase();
            let kind = match kind_str.as_str() {
                "AND" => GateKind::And,
                "NAND" => GateKind::Nand,
                "OR" => GateKind::Or,
                "NOR" => GateKind::Nor,
                "XOR" => GateKind::Xor,
                "XNOR" => GateKind::Xnor,
                "NOT" | "INV" => GateKind::Not,
                "BUF" | "BUFF" => GateKind::Buf,
                other => return Err(err(format!("unknown gate type `{other}`"))),
            };
            let args = &rhs[open + 1..rhs.len() - 1];
            let fanins: Vec<&str> = args
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .collect();
            if fanins.is_empty() {
                return Err(err("gate with no fanins".into()));
            }
            gates.push(RawGate {
                output,
                kind,
                fanins,
                line,
            });
        } else {
            return Err(err(format!("unrecognised line `{text}`")));
        }
    }

    let mut builder = CircuitBuilder::new(name);
    let input_ids = inputs
        .iter()
        .map(|pi| builder.try_input(*pi))
        .collect::<Result<Vec<NetId>, _>>()?;
    // `ids[g]` is gate `g`'s net once it is placed.
    let mut ids: Vec<Option<NetId>> = vec![None; gates.len()];
    let resolve = |net: &str, ids: &[Option<NetId>]| match defined.get(net)?.1 {
        Def::Input(k) => Some(input_ids[k]),
        Def::Gate(h) => ids[h],
    };

    // One Kahn pass over the gate graph computes every gate's round (see
    // the doc comment). An undefined fanin, or a cycle, leaves a gate's
    // count of unplaced fanins above zero, so it never enters `order`.
    let mut unplaced = vec![0usize; gates.len()];
    let mut fanouts: Vec<Vec<usize>> = vec![Vec::new(); gates.len()];
    for (g, gate) in gates.iter().enumerate() {
        for f in &gate.fanins {
            match defined.get(f) {
                Some((_, Def::Input(_))) => {}
                Some(&(_, Def::Gate(h))) => {
                    unplaced[g] += 1;
                    fanouts[h].push(g);
                }
                None => unplaced[g] += 1,
            }
        }
    }
    let mut round = vec![0usize; gates.len()];
    let mut order: Vec<usize> = (0..gates.len()).filter(|&g| unplaced[g] == 0).collect();
    let mut next = 0;
    while let Some(&h) = order.get(next) {
        next += 1;
        for &g in &fanouts[h] {
            round[g] = round[g].max(round[h] + usize::from(h > g));
            unplaced[g] -= 1;
            if unplaced[g] == 0 {
                order.push(g);
            }
        }
    }
    order.sort_unstable_by_key(|&g| (round[g], g));
    // Every placeable gate is emitted before any unplaced one is reported,
    // so a builder error (a gate's arity) comes first, as in the pass order.
    for g in order {
        let gate = &gates[g];
        let fanin_ids: Option<Vec<NetId>> = gate.fanins.iter().map(|f| resolve(f, &ids)).collect();
        // Always `Some`: a gate's fanins are placed before it in `order`.
        if let Some(fanin_ids) = fanin_ids {
            ids[g] = Some(builder.gate(gate.output, gate.kind, &fanin_ids)?);
        }
    }
    if let Some(g) = ids.iter().position(Option::is_none) {
        // Either a cycle or a reference to an undefined net. Blame the first
        // unplaced gate in file order and its first unresolved fanin; stay
        // panic-free should a gate ever stall with none.
        let gate = &gates[g];
        let message = match gate.fanins.iter().find(|f| resolve(f, &ids).is_none()) {
            Some(missing) => format!("net `{missing}` is undefined or participates in a cycle"),
            None => format!("gate `{}` is stuck in a definition cycle", gate.output),
        };
        return Err(NetlistError::ParseBench {
            line: gate.line,
            message,
        });
    }
    for &(po, line) in &outputs {
        let id = resolve(po, &ids).ok_or_else(|| NetlistError::UnknownNet(po.to_string()))?;
        match builder.try_output(id) {
            Err(NetlistError::DuplicateOutput(_)) => {
                // Net names are unique, so the earlier listing names `po` too.
                let prev = outputs
                    .iter()
                    .find(|&&(name, _)| name == po)
                    .map_or(0, |&(_, l)| l);
                return Err(NetlistError::ParseBench {
                    line,
                    message: format!("net `{po}` already listed as an output at line {prev}"),
                });
            }
            other => other?,
        }
    }
    builder.finish()
}

fn strip_directive<'s>(text: &'s str, keyword: &str) -> Option<Result<&'s str, String>> {
    let rest = text.strip_prefix(keyword)?.trim_start();
    // Only a parenthesised form is a directive; anything else (e.g. a net
    // named `INPUTX` on the left of `=`) falls through to gate parsing.
    let body = rest.strip_prefix('(')?;
    let inner = body.strip_suffix(')').map(str::trim);
    Some(match inner {
        Some(name) if !name.is_empty() => Ok(name),
        _ => Err(format!("malformed {keyword} directive")),
    })
}

/// Serialises a circuit in `.bench` syntax.
///
/// The output parses back (see [`parse_bench`]) to a circuit with identical
/// structure, names, and input/output order.
///
/// # Examples
///
/// ```
/// use dp_netlist::{generators::c17, parse_bench, write_bench};
/// let c = c17();
/// let text = write_bench(&c);
/// let back = parse_bench(&text, c.name())?;
/// assert_eq!(back.num_gates(), c.num_gates());
/// # Ok::<(), dp_netlist::NetlistError>(())
/// ```
pub fn write_bench(circuit: &Circuit) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    for &pi in circuit.inputs() {
        let _ = writeln!(out, "INPUT({})", circuit.net_name(pi));
    }
    for &po in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({})", circuit.net_name(po));
    }
    for n in circuit.gates() {
        if let Driver::Gate { kind, fanins } = circuit.driver(n) {
            let args: Vec<&str> = fanins.iter().map(|f| circuit.net_name(*f)).collect();
            let _ = writeln!(
                out,
                "{} = {}({})",
                circuit.net_name(n),
                kind.bench_name(),
                args.join(", ")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "
# c17 (ISCAS-85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn parses_c17() {
        let c = parse_bench(C17, "c17").unwrap();
        assert_eq!(c.num_inputs(), 5);
        assert_eq!(c.num_outputs(), 2);
        assert_eq!(c.num_gates(), 6);
        // Spot-check function: all-ones input.
        assert_eq!(c.eval(&[true; 5]), vec![true, false]);
    }

    #[test]
    fn out_of_order_definitions_are_sorted() {
        let src = "
INPUT(a)
OUTPUT(y)
y = NOT(x)
x = BUFF(a)
";
        let c = parse_bench(src, "ooo").unwrap();
        assert_eq!(c.eval(&[true]), vec![false]);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let src = "
# leading comment

INPUT(a)  # trailing comment
OUTPUT(b)
b = NOT(a)
";
        assert!(parse_bench(src, "c").is_ok());
    }

    #[test]
    fn unknown_gate_type_rejected() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
        let e = parse_bench(src, "bad").unwrap_err();
        assert!(matches!(e, NetlistError::ParseBench { .. }));
        assert!(e.to_string().contains("FROB"));
    }

    #[test]
    fn undefined_net_rejected() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n";
        let e = parse_bench(src, "bad").unwrap_err();
        assert!(e.to_string().contains("ghost"));
        assert!(
            matches!(e, NetlistError::ParseBench { line: 3, .. }),
            "wrong location: {e}"
        );
    }

    #[test]
    fn cycle_rejected() {
        let src = "INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = NOT(p)\n";
        let e = parse_bench(src, "cyc").unwrap_err();
        assert!(e.to_string().contains("cycle"));
        // Both cycle members stall; the first one in file order is blamed.
        assert!(
            matches!(e, NetlistError::ParseBench { line: 3, .. }),
            "wrong location: {e}"
        );
    }

    #[test]
    fn duplicate_input_rejected_with_line() {
        let src = "INPUT(a)\nINPUT(b)\nINPUT(a)\nOUTPUT(y)\ny = AND(a, b)\n";
        let e = parse_bench(src, "dup").unwrap_err();
        match e {
            NetlistError::ParseBench { line, ref message } => {
                assert_eq!(line, 3, "{message}");
                assert!(
                    message.contains('a') && message.contains("line 1"),
                    "{message}"
                );
            }
            other => panic!("expected a located parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_gate_output_rejected_with_line() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n";
        let e = parse_bench(src, "dup").unwrap_err();
        match e {
            NetlistError::ParseBench { line, ref message } => {
                assert_eq!(line, 4, "{message}");
                assert!(message.contains("line 3"), "{message}");
            }
            other => panic!("expected a located parse error, got {other:?}"),
        }
    }

    #[test]
    fn gate_redefining_an_input_rejected_with_line() {
        // This shape used to escape the duplicate check and die later in
        // the topological fixpoint; it must be a clean, located error.
        let src = "INPUT(a)\nOUTPUT(y)\na = NOT(y)\ny = NOT(a)\n";
        let e = parse_bench(src, "dup").unwrap_err();
        match e {
            NetlistError::ParseBench { line, ref message } => {
                assert_eq!(line, 3, "{message}");
                assert!(
                    message.contains('a') && message.contains("line 1"),
                    "{message}"
                );
            }
            other => panic!("expected a located parse error, got {other:?}"),
        }
    }

    #[test]
    fn self_referential_gate_is_a_cycle_not_a_panic() {
        let src = "INPUT(a)\nOUTPUT(x)\nx = AND(a, x)\n";
        let e = parse_bench(src, "selfcyc").unwrap_err();
        assert!(
            matches!(e, NetlistError::ParseBench { line: 3, .. }),
            "wrong location: {e}"
        );
        assert!(e.to_string().contains('x'));
    }

    #[test]
    fn undefined_output_rejected() {
        let src = "INPUT(a)\nOUTPUT(nope)\nb = NOT(a)\n";
        assert!(matches!(
            parse_bench(src, "bad"),
            Err(NetlistError::UnknownNet(_))
        ));
    }

    #[test]
    fn malformed_directive_rejected() {
        assert!(parse_bench("INPUT()\n", "bad").is_err());
        assert!(parse_bench("INPUT a\n", "bad").is_err());
    }

    #[test]
    fn roundtrip_preserves_structure_and_function() {
        let c = parse_bench(C17, "c17").unwrap();
        let text = write_bench(&c);
        let back = parse_bench(&text, "c17").unwrap();
        assert_eq!(back.num_inputs(), c.num_inputs());
        assert_eq!(back.num_outputs(), c.num_outputs());
        assert_eq!(back.num_gates(), c.num_gates());
        for bits in 0u32..32 {
            let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(back.eval(&v), c.eval(&v));
        }
    }
}
