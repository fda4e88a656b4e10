//! One benchmark per paper figure: times the full regeneration pipeline
//! (fault universe construction + Difference Propagation + statistics) at a
//! reduced but representative scale.
//!
//! Paper-scale series are produced by `cargo run --release -p dp-analysis
//! --bin figures`; the numbers recorded in `EXPERIMENTS.md` come from that
//! binary, while these benches track the cost of each artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use dp_analysis::figures::{
    fig1_sa_histogram, fig2_sa_trend, fig3_sa_distance, fig4_adherence_histogram,
    fig5_stuck_behaviour, fig6_bf_histograms, fig7_bf_trend, fig8_bf_distance,
    obs_pos_fed_vs_observed, ExperimentConfig,
};
use dp_netlist::generators::{alu74181, c17, c432_surrogate, c95, full_adder};
use std::hint::black_box;

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        bins: 20,
        bf_sample: 60,
        sa_cap: 120,
        seed: 1990,
        ..Default::default()
    }
}

fn small_suite() -> Vec<dp_netlist::Circuit> {
    vec![c17(), full_adder(), c95(), alu74181()]
}

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);

    group.bench_function("fig1_sa_histograms", |b| {
        let config = cfg();
        let c95 = c95();
        let alu = alu74181();
        b.iter(|| {
            black_box(fig1_sa_histogram(&c95, &config));
            black_box(fig1_sa_histogram(&alu, &config));
        })
    });

    group.bench_function("fig2_sa_trend", |b| {
        let config = cfg();
        let suite = small_suite();
        b.iter(|| black_box(fig2_sa_trend(&suite, &config)))
    });

    group.bench_function("fig3_sa_po_distance", |b| {
        let config = cfg();
        let circuit = c432_surrogate();
        b.iter(|| black_box(fig3_sa_distance(&circuit, &config)))
    });

    group.bench_function("fig4_adherence", |b| {
        let config = cfg();
        let circuit = alu74181();
        b.iter(|| black_box(fig4_adherence_histogram(&circuit, &config)))
    });

    group.bench_function("fig5_bf_stuck_at", |b| {
        let config = cfg();
        let suite = small_suite();
        b.iter(|| black_box(fig5_stuck_behaviour(&suite, &config)))
    });

    group.bench_function("fig6_bf_histograms", |b| {
        let config = cfg();
        let circuit = c95();
        b.iter(|| black_box(fig6_bf_histograms(&circuit, &config)))
    });

    group.bench_function("fig7_bf_trends", |b| {
        let config = cfg();
        let suite = small_suite();
        b.iter(|| black_box(fig7_bf_trend(&suite, &config)))
    });

    group.bench_function("fig8_bf_po_distance", |b| {
        let config = cfg();
        let circuit = c95();
        b.iter(|| black_box(fig8_bf_distance(&circuit, &config)))
    });

    group.bench_function("obs_pos_fed_vs_observed", |b| {
        let config = cfg();
        let circuit = alu74181();
        b.iter(|| black_box(obs_pos_fed_vs_observed(&circuit, &config)))
    });

    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
