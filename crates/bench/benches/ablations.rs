//! Ablations of the design choices DESIGN.md §12 calls out:
//!
//! * selective trace on vs off,
//! * Table-1 difference equations vs naive faulty-function recomputation
//!   (engine level),
//! * variable order: declared PI order vs reversed vs de-interleaved,
//! * n-input gates analysed natively vs pre-decomposed into 2-input chains.

use criterion::{criterion_group, criterion_main, Criterion};
use dp_bench::some_stuck_faults;
use dp_core::{DiffProp, EngineConfig, GoodFunctions};
use dp_netlist::decompose_two_input;
use dp_netlist::generators::{alu74181, c432_surrogate};
use std::hint::black_box;

const FAULTS: usize = 16;

fn run_batch(
    circuit: &dp_netlist::Circuit,
    config: EngineConfig,
    faults: &[dp_faults::Fault],
) -> f64 {
    let mut dp = DiffProp::with_config(circuit, config);
    faults.iter().map(|f| dp.analyze(f).detectability).sum()
}

fn bench_selective_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_selective_trace");
    group.sample_size(10);
    let circuit = c432_surrogate();
    let faults = some_stuck_faults(&circuit, FAULTS);
    for (label, on) in [("on", true), ("off", false)] {
        let config = EngineConfig {
            selective_trace: on,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| black_box(run_batch(&circuit, config, &faults)))
        });
    }
    group.finish();
}

fn bench_delta_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_delta_eqs");
    group.sample_size(10);
    let circuit = alu74181();
    let faults = some_stuck_faults(&circuit, FAULTS);
    for (label, table1) in [("table1", true), ("naive", false)] {
        let config = EngineConfig {
            table1,
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| black_box(run_batch(&circuit, config, &faults)))
        });
    }
    group.finish();
}

fn bench_ordering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_ordering");
    group.sample_size(10);
    let circuit = alu74181();
    let n = circuit.num_inputs();
    let declared: Vec<u32> = (0..n as u32).collect();
    let reversed: Vec<u32> = (0..n as u32).rev().collect();
    // Separate the interleaved A/B operand pairs (a deliberately bad order
    // for an ALU: operands end up far apart).
    let deinterleaved: Vec<u32> = (0..n as u32)
        .step_by(2)
        .chain((1..n as u32).step_by(2))
        .collect();
    for (label, order) in [
        ("declared", declared),
        ("reversed", reversed),
        ("deinterleaved", deinterleaved.clone()),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let good = GoodFunctions::build_with_order(&circuit, &order);
                black_box(good.num_nodes())
            })
        });
    }
    // Sifting recovers a bad static order dynamically.
    group.bench_function("deinterleaved_then_sift", |b| {
        b.iter(|| {
            let mut good = GoodFunctions::build_with_order(&circuit, &deinterleaved);
            black_box(good.sift())
        })
    });
    group.finish();
}

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_decomposition");
    group.sample_size(10);
    let native = alu74181();
    let decomposed = decompose_two_input(&native).expect("decompose");
    let native_faults = some_stuck_faults(&native, FAULTS);
    let decomposed_faults = some_stuck_faults(&decomposed, FAULTS);
    group.bench_function("native_nary", |b| {
        b.iter(|| black_box(run_batch(&native, EngineConfig::default(), &native_faults)))
    });
    group.bench_function("two_input_chains", |b| {
        b.iter(|| {
            black_box(run_batch(
                &decomposed,
                EngineConfig::default(),
                &decomposed_faults,
            ))
        })
    });
    group.finish();
}

fn bench_cut_points(c: &mut Criterion) {
    // The paper's [21]: cut-point functional decomposition trades exactness
    // for bounded BDD sizes on the XOR-heavy C499 class.
    let mut group = c.benchmark_group("ablate_cut_points");
    group.sample_size(10);
    let circuit = dp_netlist::generators::c499_surrogate();
    let faults = some_stuck_faults(&circuit, 8);
    group.bench_function("exact", |b| {
        b.iter(|| {
            let mut dp = DiffProp::new(&circuit);
            let mut acc = 0.0;
            for f in &faults {
                acc += dp.analyze(f).detectability;
            }
            black_box(acc)
        })
    });
    group.bench_function("decomposed_t200", |b| {
        b.iter(|| {
            let (good, _cuts) = GoodFunctions::build_auto_decomposed(&circuit, 200);
            let mut dp = DiffProp::from_snapshot(&circuit, &good.freeze(), EngineConfig::default());
            let mut acc = 0.0;
            for f in &faults {
                acc += dp.analyze(f).detectability;
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_selective_trace,
    bench_delta_mode,
    bench_ordering,
    bench_decomposition,
    bench_cut_points
);
criterion_main!(benches);
