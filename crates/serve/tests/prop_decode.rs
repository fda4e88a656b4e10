//! Never-panic properties of every decoder a `dp-serve` request or
//! response line passes through: the JSON parser, `Request::from_line`,
//! `Frame::from_line`, `dp_core::summary_from_line` (the record lines a
//! client parses back against its fault list) and `parse_bench`.
//!
//! Each property feeds arbitrary bytes, and damaged copies of valid lines
//! (bytes replaced, inserted, deleted, cut, or a stretch or line repeated),
//! through `String::from_utf8_lossy`. A decoder may accept or refuse what it
//! gets; it must return either way.

use dp_core::{
    summary_from_line, summary_line, sweep_universe, BudgetConfig, OrderStrategy, SweepConfig,
};
use dp_faults::{checkpoint_faults, Fault};
use dp_netlist::{generators, parse_bench, write_bench};
use dp_serve::{CacheStatus, CircuitSpec, Frame, PointParams, Request, SweepParams};
use dp_telemetry::json::{self, JsonValue};
use proptest::prelude::*;

/// The fault list the corpus's summary lines index.
fn c17_faults() -> Vec<Fault> {
    checkpoint_faults(&generators::c17())
        .into_iter()
        .map(Fault::from)
        .collect()
}

/// Valid request lines, frame lines, wire summaries and `.bench` texts.
fn corpus() -> Vec<String> {
    let c17 = generators::c17();
    let bench = CircuitSpec::Bench {
        name: "c17.bench".into(),
        source: write_bench(&c17),
    };
    let point = PointParams {
        order: OrderStrategy::Auto,
        budget: BudgetConfig {
            max_nodes: Some(5000),
            max_op_steps: None,
        },
        net: "22".into(),
        stuck_at: true,
    };
    let faults = c17_faults();
    let sweep = sweep_universe(&c17, &faults[..4], &SweepConfig::default());
    let mut lines = vec![
        Request::Sweep {
            circuit: CircuitSpec::Builtin("c95".into()),
            params: SweepParams::default(),
        }
        .to_line(),
        Request::Detectability {
            circuit: bench.clone(),
            point: point.clone(),
        }
        .to_line(),
        Request::Adherence {
            circuit: bench,
            point,
        }
        .to_line(),
        Request::Status.to_line(),
        Frame::Record {
            index: 3,
            line: summary_line(3, &sweep.summaries[3]),
        }
        .to_line(),
        Frame::Status(CacheStatus::default()).to_line(),
        Frame::Value(JsonValue::obj(vec![
            ("detectability", JsonValue::Float(0.25)),
            ("name", JsonValue::Str("ünï\t\"q\"".into())),
        ]))
        .to_line(),
        Frame::Error {
            message: "no such net `x`".into(),
        }
        .to_line(),
        write_bench(&c17),
        write_bench(&generators::c95()),
    ];
    lines.extend(
        sweep
            .summaries
            .iter()
            .enumerate()
            .map(|(i, s)| summary_line(i, s)),
    );
    lines
}

/// A damaged copy of `text`, as `rng` directs.
fn damage(text: &str, rng: &mut TestRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let byte = match rng.below(3) {
            // A byte the decoders give meaning to, or any byte at all.
            0 => {
                let alphabet = b"{}[]\",:\\u0123456789+-.eE\t\n=()#";
                alphabet[rng.below(alphabet.len() as u64) as usize]
            }
            _ => rng.next_u64() as u8,
        };
        match rng.below(6) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            // Repeat the line `at` falls in (a `.bench` line, say).
            4 => {
                let start = bytes[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| at + i + 1);
                let line = bytes[start..end].to_vec();
                bytes.splice(end..end, line);
            }
            _ => {
                let end = (at + 1 + rng.below(16) as usize).min(bytes.len());
                let stretch = bytes[at..end].to_vec();
                bytes.splice(at..at, stretch);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn decode_everything(text: &str) {
    let _ = json::parse(text);
    let _ = Request::from_line(text);
    let _ = Frame::from_line(text);
    let _ = summary_from_line(text, &c17_faults());
    let _ = parse_bench(text, "fuzz");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..512)) {
        decode_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn damaged_valid_lines_never_panic((which, seed) in (0usize..64, any::<u64>())) {
        let corpus = corpus();
        let mut rng = TestRng::deterministic(&seed.to_string());
        decode_everything(&damage(&corpus[which % corpus.len()], &mut rng));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole lines repeated: a repeated `OUTPUT` line once panicked.
    #[test]
    fn bench_texts_with_repeated_lines_never_panic(
        (which, seed) in (0usize..3, any::<u64>())
    ) {
        let circuit = &generators::small_suite()[which];
        let mut lines: Vec<String> = write_bench(circuit).lines().map(str::to_string).collect();
        let mut rng = TestRng::deterministic(&seed.to_string());
        for _ in 0..1 + rng.below(3) {
            let line = lines[rng.below(lines.len() as u64) as usize].clone();
            lines.insert(rng.below(lines.len() as u64 + 1) as usize, line);
        }
        decode_everything(&lines.join("\n"));
    }
}

#[test]
fn the_corpus_decodes_cleanly() {
    let faults = c17_faults();
    for line in corpus() {
        let decoded = Request::from_line(&line).is_ok()
            || Frame::from_line(&line).is_ok()
            || summary_from_line(&line, &faults).is_ok()
            || parse_bench(&line, "corpus").is_ok();
        assert!(decoded, "{line}");
    }
}
