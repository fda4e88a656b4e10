//! Difference Propagation vs exhaustive simulation — the paper's §1
//! motivation: "exhaustive simulation ... is limited to relatively small
//! classes of circuits due to exorbitant computation time requirements".
//!
//! Both sides compute the same exact detectabilities for a batch of
//! checkpoint faults; exhaustive simulation costs `O(2^n)` per fault, DP
//! costs whatever the BDDs cost. The crossover arrives by 14 inputs
//! (74181); past ~30 inputs exhaustive simulation is impossible while DP
//! keeps going (`c432s`, 36 inputs, appears DP-only).

use criterion::{criterion_group, criterion_main, Criterion};
use dp_bench::some_stuck_faults;
use dp_core::{sweep_universe, SweepConfig};
use dp_netlist::generators::{alu74181, c17, c432_surrogate, c95};
use dp_sim::exhaustive_detectability;
use std::hint::black_box;

const FAULTS: usize = 12;

fn bench_dp_vs_exhaustive(c: &mut Criterion) {
    let config = SweepConfig::default();
    let mut group = c.benchmark_group("dp_vs_exhaustive");
    group.sample_size(10);

    for circuit in [c17(), c95(), alu74181()] {
        let faults = some_stuck_faults(&circuit, FAULTS);
        group.bench_function(format!("{}/diffprop", circuit.name()), |b| {
            b.iter(|| {
                let sweep = sweep_universe(&circuit, &faults, &config);
                let acc: f64 = sweep.summaries.iter().map(|s| s.detectability).sum();
                black_box(acc)
            })
        });
        group.bench_function(format!("{}/exhaustive", circuit.name()), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for f in &faults {
                    acc += exhaustive_detectability(&circuit, f).0;
                }
                black_box(acc)
            })
        });
    }

    // 36 inputs: exhaustive simulation would need 2^36 vectors per fault;
    // only DP appears.
    let big = c432_surrogate();
    let faults = some_stuck_faults(&big, FAULTS);
    group.bench_function("c432s/diffprop_only", |b| {
        b.iter(|| {
            let sweep = sweep_universe(&big, &faults, &config);
            let acc: f64 = sweep.summaries.iter().map(|s| s.detectability).sum();
            black_box(acc)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_dp_vs_exhaustive);
criterion_main!(benches);
