//! One benchmark per paper figure: times the full regeneration pipeline
//! (fault universe construction + Difference Propagation + statistics) at a
//! reduced but representative scale.
//!
//! Paper-scale series are produced by `cargo run --release --bin diffprop --
//! figures`; the numbers recorded in `EXPERIMENTS.md` come from that
//! command, while these benches track the cost of each artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use dp_analysis::figures::{ExperimentConfig, Lab};
use dp_netlist::generators::{alu74181, c17, c432_surrogate, c95, full_adder};
use dp_netlist::Circuit;
use std::hint::black_box;

/// A fresh lab per iteration, so every timed driver call runs its sweeps.
fn lab(suite: &[Circuit]) -> Lab {
    let config = ExperimentConfig {
        bins: 20,
        bf_sample: 60,
        sa_cap: 120,
        seed: 1990,
        ..Default::default()
    };
    Lab::new(config, suite.to_vec())
}

fn small_suite() -> Vec<Circuit> {
    vec![c17(), full_adder(), c95(), alu74181()]
}

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);

    group.bench_function("fig1_sa_histograms", |b| {
        let suite = [c95(), alu74181()];
        b.iter(|| {
            let mut lab = lab(&suite);
            black_box(lab.fig1_sa_histogram("c95"));
            black_box(lab.fig1_sa_histogram("alu74181"));
        })
    });

    group.bench_function("fig2_sa_trend", |b| {
        let suite = small_suite();
        b.iter(|| black_box(lab(&suite).fig2_sa_trend()))
    });

    group.bench_function("fig3_sa_po_distance", |b| {
        let suite = [c432_surrogate()];
        b.iter(|| black_box(lab(&suite).fig3_sa_distance("c432s")))
    });

    group.bench_function("fig4_adherence", |b| {
        let suite = [alu74181()];
        b.iter(|| black_box(lab(&suite).fig4_adherence_histogram("alu74181")))
    });

    group.bench_function("fig5_bf_stuck_at", |b| {
        let suite = small_suite();
        b.iter(|| black_box(lab(&suite).fig5_stuck_behaviour()))
    });

    group.bench_function("fig6_bf_histograms", |b| {
        let suite = [c95()];
        b.iter(|| black_box(lab(&suite).fig6_bf_histograms("c95")))
    });

    group.bench_function("fig7_bf_trends", |b| {
        let suite = small_suite();
        b.iter(|| black_box(lab(&suite).fig7_bf_trend()))
    });

    group.bench_function("fig8_bf_po_distance", |b| {
        let suite = [c95()];
        b.iter(|| black_box(lab(&suite).fig8_bf_distance("c95")))
    });

    group.bench_function("obs_pos_fed_vs_observed", |b| {
        let suite = [alu74181()];
        b.iter(|| black_box(lab(&suite).obs_pos_fed_vs_observed()))
    });

    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
