//! `iscas_scaleup` — full checkpoint stuck-at (or sampled-NFBF) sweeps of
//! the exact `alu74181` and the four ISCAS-85 surrogates (`c432s`,
//! `c499s`, `c1355s`, `c1908s`), timed end to end and merged into the
//! bench results file (`BENCH_PR9.json`, or `DP_BENCH_JSON`).
//!
//! ```text
//! iscas_scaleup [--order identity|fanin-dfs|auto] [--threads N]
//!               [--only c432s,c499s,...] [--model stuck_at|nfbf|fbridge|multi]
//!               [--sample N] [--seed S]
//! ```
//!
//! The default is `--order auto` — the point of this driver is to keep the
//! variable-ordering speedups measured release over release; run it again
//! with `--order identity` to record the baseline side by side (the records
//! are keyed by order, so both survive in the file). `--threads` falls back
//! to `DP_BENCH_THREADS`, then serial. `--only` restricts the surrogate set
//! — recording the identity baseline of `c432s` alone is affordable, while
//! identity-order `c1355s` is not. `--model nfbf` sweeps non-feedback
//! bridging faults instead of stuck-at; `--model fbridge` sweeps feedback
//! bridges through the engine's ternary fixpoint, and `--model multi`
//! sweeps double stuck-at faults from the all-pairs checkpoint universe.
//! The full bridging and pair universes of the big surrogates are quadratic
//! in net (or checkpoint) count, so `--sample N` (with `--seed S`, default
//! 1990) draws a deterministic, thread-invariant sample ranked by a
//! splitmix64 hash of the global fault index — such records are keyed
//! `nfbf_sN` / `fbridge_sN` / `multi_sN` so differently sized samples
//! coexist in the file. Set `DP_TELEMETRY_JSON=PATH` to also write a
//! schema-valid `sweep_report.json` covering every sweep.

use dp_bench::{
    parallelism_from_env, record_bench_result, sampled_feedback_universe, sampled_multi_universe,
    sampled_nfbf_universe, BenchRecord,
};
use dp_core::{EngineConfig, OrderStrategy, Parallelism, SweepConfig};
use dp_faults::{checkpoint_faults, Fault};
use dp_netlist::generators;

fn usage() -> ! {
    eprintln!(
        "usage: iscas_scaleup [--order identity|fanin-dfs|auto|random:SEED] \
         [--threads N] [--only c432s,c499s,...] [--model stuck_at|nfbf|fbridge|multi] \
         [--sample N] [--seed S]"
    );
    std::process::exit(2);
}

fn main() {
    let mut order = OrderStrategy::Auto;
    let mut parallelism = parallelism_from_env();
    let mut only: Option<Vec<String>> = None;
    let mut model = "stuck_at".to_string();
    let mut sample: usize = 0;
    let mut seed: u64 = 1990;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let mut value = || inline.clone().or_else(|| args.next()).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--order" => {
                let v = value();
                order = OrderStrategy::parse(&v).unwrap_or_else(|| {
                    eprintln!("--order: unknown strategy `{v}`");
                    usage()
                });
            }
            "--threads" => {
                let v = value();
                let n: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads: `{v}` is not a number");
                    usage()
                });
                parallelism = if n > 1 {
                    Parallelism::Threads(n)
                } else {
                    Parallelism::Serial
                };
            }
            "--only" => {
                only = Some(value().split(',').map(str::to_string).collect());
            }
            "--model" => {
                let v = value();
                if !["stuck_at", "nfbf", "fbridge", "multi"].contains(&v.as_str()) {
                    eprintln!("--model: unknown fault model `{v}`");
                    usage();
                }
                model = v;
            }
            "--sample" => {
                let v = value();
                sample = v.parse().unwrap_or_else(|_| {
                    eprintln!("--sample: `{v}` is not a number");
                    usage()
                });
            }
            "--seed" => {
                let v = value();
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("--seed: `{v}` is not a number");
                    usage()
                });
            }
            _ => usage(),
        }
    }
    if sample > 0 && model == "stuck_at" {
        eprintln!("--sample does not apply to --model stuck_at");
        usage();
    }

    let config = SweepConfig {
        engine: EngineConfig {
            order,
            ..Default::default()
        },
        parallelism,
        ..Default::default()
    };
    for circuit in [
        generators::alu74181(),
        generators::c432_surrogate(),
        generators::c499_surrogate(),
        generators::c1355_surrogate(),
        generators::c1908_surrogate(),
    ] {
        if let Some(only) = &only {
            if !only.iter().any(|n| n == circuit.name()) {
                continue;
            }
        }
        let count = if sample > 0 { sample } else { usize::MAX };
        let (faults, model_name): (Vec<Fault>, String) = match model.as_str() {
            "nfbf" => (sampled_nfbf_universe(&circuit, count, seed), model.clone()),
            "fbridge" => (
                sampled_feedback_universe(&circuit, count, seed),
                model.clone(),
            ),
            "multi" => (sampled_multi_universe(&circuit, count, seed), model.clone()),
            _ => (
                checkpoint_faults(&circuit)
                    .into_iter()
                    .map(Fault::from)
                    .collect(),
                "stuck_at".to_string(),
            ),
        };
        let model_name = if sample > 0 && model != "stuck_at" {
            format!("{model_name}_s{sample}")
        } else {
            model_name
        };
        let record = BenchRecord::measure_with(&circuit, &faults, &model_name, &config);
        println!(
            "{}: {} faults in {} classes, {:.2}s ({:.1} faults/sec), \
             peak {} nodes, order {}, {} thread(s)",
            record.circuit,
            record.faults,
            record.classes,
            record.seconds,
            record.faults_per_sec,
            record.peak_nodes,
            record.order,
            record.threads,
        );
        record_bench_result(&record);
    }
}
