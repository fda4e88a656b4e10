//! `perfbench` — the repository's benchmark: three workloads that vary
//! fault type, circuit size and the service path, timed from outside
//! through the public API of each crate.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--threads T]
//! ```
//!
//! Prints a human-readable table (every metric with its unit and sample
//! count, plus host facts) on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! Exits non-zero when any output is wrong. See `README.md` beside this
//! package for the workloads and the metric map.

mod alloc;
mod batch;
mod host;
mod replica;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload does not exercise reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("netlist.reach_ms", "ms"),
    ("faults.enumerate_s", "s"),
    ("faults.collapse_s", "s"),
    ("faults.classes_per_fault", "ratio"),
    ("good.build_s", "s"),
    ("good.sift_s", "s"),
    ("good.base_nodes", "count"),
    ("good.thaw_ms", "ms"),
    ("parallel.plan_s", "s"),
    ("parallel.classes_per_propagation", "ratio"),
    ("engine.stuck_s", "s"),
    ("engine.nfbf_s", "s"),
    ("engine.fbridge_s", "s"),
    ("engine.multi_s", "s"),
    ("engine.bound_s", "s"),
    ("engine.gates_propagated", "count"),
    ("engine.fixpoint_iters", "count"),
    ("bdd.unique_lookups", "count"),
    ("bdd.unique_hit_rate", "ratio"),
    ("bdd.base_hit_frac", "ratio"),
    ("bdd.op_lookups", "count"),
    ("bdd.op_hit_rate", "ratio"),
    ("bdd.gc_runs", "count"),
    ("bdd.sift_runs", "count"),
    ("bdd.peak_nodes", "count"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.frames", "count"),
    ("serve.first_byte_ms", "ms"),
    ("serve.frame_decode_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.wire_gap_ms", "ms"),
    ("telemetry.report_ms", "ms"),
    ("telemetry.overhead_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("host.nproc", "count"),
    ("host.runq_wait_s", "s"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        threads: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| format!("{flag}: bad value `{value}`"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--threads" => args.threads = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    let nproc = host::nproc();
    if args.threads == 0 || args.threads > nproc {
        return Err(format!("--threads {} outside 1..={nproc} (nproc)", args.threads));
    }
    Ok(args)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for an exact count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub e2e: Vec<Metric>,
    /// Printed in the table only.
    pub extra: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Raw timing samples behind the timed metrics, printed in the table.
    pub samples: Vec<(String, Vec<f64>)>,
    pub trace_jsonl: String,
}

impl Outcome {
    pub fn error(&mut self, message: String) {
        eprintln!("perfbench: MISMATCH {message}");
        self.errors.push(message);
    }
}

/// splitmix64: the benchmark's only source of randomness, seeded by
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

pub fn peak_heap_mib() -> f64 {
    alloc::peak_bytes() as f64 / (1024.0 * 1024.0)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--threads T]");
            return ExitCode::from(2);
        }
    };
    alloc::reset_peak();
    let facts = host::HostFacts::collect();
    let mut out = if let Some(kind) = batch::Batch::parse(&args.workload) {
        batch::run(kind, &args)
    } else if args.workload == "serve-loop" {
        serve::run(&args)
    } else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let runq = host::run_queue_wait_s().unwrap_or(f64::NAN);

    // Complete the per-layer set: every listed metric, zero where the
    // workload has no such layer.
    if args.trace {
        let mut layers = Vec::with_capacity(LAYER_METRICS.len());
        for &(name, unit) in LAYER_METRICS {
            let found = out.layers.iter().find(|m| m.name == name).cloned();
            layers.push(match name {
                "host.nproc" => Metric::new(name, unit, facts.nproc as f64, 1),
                "host.runq_wait_s" => Metric::new(name, unit, runq, 1),
                _ => found.unwrap_or_else(|| Metric::new(name, unit, 0.0, 0)),
            });
        }
        out.layers = layers;
    }

    let mut table = String::new();
    let _ = writeln!(
        table,
        "perfbench {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.threads
    );
    let _ = writeln!(
        table,
        "host: nproc {} | cpu {} | {} | commit {} | run-queue wait {:.4} s",
        facts.nproc, facts.cpu_model, facts.rustc, facts.commit, runq
    );
    let error_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let mut rows: Vec<&Metric> = out.e2e.iter().chain(&out.extra).chain(&out.layers).collect();
    let error_metric = Metric::new("error_frac", "ratio", error_frac, out.attempted as usize);
    rows.push(&error_metric);
    for m in rows {
        let _ = writeln!(table, "  {:<34} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
    for (name, xs) in &out.samples {
        let xs: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        let _ = writeln!(table, "  samples {name}: {}", xs.join(" "));
    }
    eprint!("{table}");

    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    )
    .join("perfbench");
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.txt")), &table))
        .and_then(|()| {
            if args.trace {
                std::fs::write(dir.join(format!("{stem}.spans.jsonl")), &out.trace_jsonl)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write results under {}: {e}", dir.display());
    }

    let metrics = if args.trace { &out.layers } else { &out.e2e };
    let correct = out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_number(m.value), m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
