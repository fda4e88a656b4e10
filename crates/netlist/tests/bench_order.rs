//! `parse_bench` against the round-by-round topological sort it replaced.
//!
//! The oracle below is that earlier parser, kept verbatim apart from using
//! only the public builder API: it placed gates in passes over the file,
//! each pass in file order, until a pass placed nothing. The property test
//! shuffles, truncates and damages the lines of every builtin's
//! `write_bench` text and asserts both parsers give the same circuit (by
//! digest, which covers net numbering) or the same error string.

use std::collections::HashMap;

use dp_netlist::generators::benchmark_suite;
use dp_netlist::{
    parse_bench, write_bench, Circuit, CircuitBuilder, GateKind, NetId, NetlistError,
};
use proptest::prelude::*;

fn oracle_parse_bench(src: &str, name: &str) -> Result<Circuit, NetlistError> {
    struct RawGate {
        output: String,
        kind: GateKind,
        fanins: Vec<String>,
        line: usize,
    }

    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut gates: Vec<RawGate> = Vec::new();
    let mut defined: HashMap<String, usize> = HashMap::new();

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let err = |message: String| NetlistError::ParseBench { line, message };
        let define = |name: &str, defined: &mut HashMap<String, usize>| match defined
            .insert(name.to_string(), line)
        {
            Some(prev) => Err(err(format!("net `{name}` already defined at line {prev}"))),
            None => Ok(()),
        };
        if let Some(rest) = strip_directive(text, "INPUT") {
            let name = rest.map_err(err)?;
            define(&name, &mut defined)?;
            inputs.push(name);
        } else if let Some(rest) = strip_directive(text, "OUTPUT") {
            outputs.push(rest.map_err(err)?);
        } else if let Some((lhs, rhs)) = text.split_once('=') {
            let output = lhs.trim().to_string();
            define(&output, &mut defined)?;
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
            let fanins: Vec<String> = args
                .split(',')
                .map(|a| a.trim().to_string())
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
    let mut ids: HashMap<String, NetId> = HashMap::new();
    for pi in &inputs {
        let id = builder.try_input(pi.clone())?;
        ids.insert(pi.clone(), id);
    }
    let mut remaining: Vec<RawGate> = gates;
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut next_round = Vec::new();
        for g in remaining {
            if g.fanins.iter().all(|f| ids.contains_key(f)) {
                let fanin_ids: Vec<NetId> = g.fanins.iter().map(|f| ids[f]).collect();
                let id = builder.gate(g.output.clone(), g.kind, &fanin_ids)?;
                ids.insert(g.output, id);
                progressed = true;
            } else {
                next_round.push(g);
            }
        }
        if !progressed {
            let g = &next_round[0];
            let message = match g.fanins.iter().find(|f| !ids.contains_key(*f)) {
                Some(missing) => {
                    format!("net `{missing}` is undefined or participates in a cycle")
                }
                None => format!("gate `{}` is stuck in a definition cycle", g.output),
            };
            return Err(NetlistError::ParseBench {
                line: g.line,
                message,
            });
        }
        remaining = next_round;
    }
    for po in &outputs {
        let id = *ids
            .get(po)
            .ok_or_else(|| NetlistError::UnknownNet(po.clone()))?;
        builder.output(id);
    }
    builder.finish()
}

fn strip_directive(text: &str, keyword: &str) -> Option<Result<String, String>> {
    let rest = text.strip_prefix(keyword)?.trim_start();
    let body = rest.strip_prefix('(')?;
    let inner = body.strip_suffix(')').map(|r| r.trim().to_string());
    Some(match inner {
        Some(name) if !name.is_empty() => Ok(name),
        _ => Err(format!("malformed {keyword} directive")),
    })
}

/// The circuit's digest, or the error's text.
fn outcome(parsed: Result<Circuit, NetlistError>) -> Result<u64, String> {
    parsed.map(|c| c.digest()).map_err(|e| e.to_string())
}

/// Reorders, cuts and damages `text`'s lines as `rng` directs, never
/// repeating a line (the oracle panics on a repeated `OUTPUT`).
fn scramble(text: &str, rng: &mut TestRng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    // Shuffle a window: the whole file, or a stretch of it, so both nearly
    // sorted and fully scrambled files occur.
    let lo = rng.below(lines.len() as u64 / 2 + 1) as usize;
    let hi = lo + rng.below((lines.len() - lo) as u64 + 1) as usize;
    for i in (lo + 1..hi).rev() {
        let j = lo + rng.below((i - lo + 1) as u64) as usize;
        lines.swap(i, j);
    }
    for _ in 0..rng.below(3) {
        let i = rng.below(lines.len() as u64) as usize;
        match rng.below(4) {
            // Change a gate's fanin count: drop the last fanin of a
            // multi-input gate, give a single-input line a second one.
            0 => match lines[i].rfind(',') {
                Some(cut) => lines[i] = format!("{})", &lines[i][..cut]),
                None => lines[i] = lines[i].replacen(')', ", ghost)", 1),
            },
            // Point a reference at an undefined net.
            1 => lines[i] = lines[i].replacen("(", "(ghost_", 1),
            // Cut the line short.
            2 => {
                let cut = rng.below(lines[i].len() as u64 + 1) as usize;
                lines[i].truncate(cut);
            }
            // Drop the line.
            _ => lines[i].clear(),
        }
    }
    // Truncate the file.
    if rng.below(4) == 0 {
        let keep = rng.below(lines.len() as u64 + 1) as usize;
        lines.truncate(keep);
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn parse_bench_matches_the_round_by_round_sort(
        (which, seed) in (0usize..8, any::<u64>())
    ) {
        let circuit = &benchmark_suite()[which];
        let mut rng = TestRng::deterministic(&seed.to_string());
        let text = scramble(&write_bench(circuit), &mut rng);
        prop_assert_eq!(
            outcome(parse_bench(&text, circuit.name())),
            outcome(oracle_parse_bench(&text, circuit.name())),
            "{}:\n{}", circuit.name(), text
        );
    }
}

#[test]
fn every_builtin_reads_back_with_its_own_numbering() {
    for circuit in benchmark_suite() {
        let text = write_bench(&circuit);
        let back = parse_bench(&text, circuit.name()).unwrap();
        assert_eq!(back.digest(), circuit.digest(), "{}", circuit.name());
    }
}

/// The round-by-round sort took 9.2 s on this in a release build: 20,000
/// passes over a shrinking list.
#[test]
fn a_reversed_twenty_thousand_gate_chain_parses_in_linear_time() {
    const GATES: usize = 20_000;
    let mut text = format!("INPUT(a)\nOUTPUT(g{})\n", GATES - 1);
    for g in (1..GATES).rev() {
        text.push_str(&format!("g{g} = NOT(g{})\n", g - 1));
    }
    text.push_str("g0 = NOT(a)\n");
    let c = parse_bench(&text, "chain").unwrap();
    assert_eq!(c.num_gates(), GATES);
    // Gate `gk` lands in round k, so the chain is numbered in chain order.
    for (k, g) in c.gates().enumerate() {
        assert_eq!(c.net_name(g), format!("g{k}"));
    }
}

#[test]
fn a_repeated_output_is_a_located_error() {
    let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nOUTPUT(y)\n";
    match parse_bench(src, "dup") {
        Err(NetlistError::ParseBench { line, message }) => {
            assert_eq!(line, 4, "{message}");
            assert!(
                message.contains("`y`") && message.contains("line 2"),
                "{message}"
            );
        }
        other => panic!("expected a located parse error, got {other:?}"),
    }
}
