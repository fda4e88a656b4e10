//! Serial vs sharded fault-universe sweeps (`dp_core::sweep_universe`).
//!
//! The workload the acceptance story cares about: the full collapsed
//! checkpoint stuck-at universe of the 74LS181 ALU, analysed end to end
//! (the one-off good-function build and freeze included, exactly as a cold
//! sweep pays it). On a multicore host `threads=4` should finish the sweep at least
//! ~2× faster than serial; on a single hardware thread the sharded runs
//! only measure the sharding overhead. Either way the summaries are
//! bit-identical — `verify_identical` asserts that before any timing runs.
//!
//! A bridging-universe group rides along because NFBF sweeps are the
//! paper's expensive case (§2.2) and shard the same way.
//!
//! The `telemetry_overhead` group times the same stuck-at sweep at each
//! [`TelemetryLevel`]. The collector's contract is observation-only and
//! cheap: `aggregate` (the default) must stay within ~5% of `off`;
//! `detailed` additionally reads the clock around every gate propagation
//! and is expected to cost more.
//!
//! Criterion keeps the statistics; repeatable end-to-end and per-layer
//! measurements with host facts come from `perfbench/`.

use criterion::{criterion_group, criterion_main, Criterion};
use dp_core::{sweep_universe, Parallelism, SweepConfig, TelemetryLevel};
use dp_faults::{enumerate_nfbfs, BridgeKind, Fault};
use dp_netlist::generators::alu74181;
use dp_netlist::Circuit;
use std::hint::black_box;

use dp_analysis::stuck_at_universe;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn with_parallelism(parallelism: Parallelism) -> SweepConfig {
    SweepConfig {
        parallelism,
        ..Default::default()
    }
}

fn verify_identical(circuit: &Circuit, faults: &[Fault]) {
    let serial = sweep_universe(circuit, faults, &with_parallelism(Parallelism::Serial));
    for n in THREAD_COUNTS {
        let sharded = sweep_universe(circuit, faults, &with_parallelism(Parallelism::Threads(n)));
        assert_eq!(
            serial.summaries, sharded.summaries,
            "threads={n} diverged from serial"
        );
    }
}

fn sweep_group(c: &mut Criterion, group_name: &str, circuit: &Circuit, faults: &[Fault]) {
    verify_identical(circuit, faults);
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            black_box(sweep_universe(
                circuit,
                faults,
                &with_parallelism(Parallelism::Serial),
            ))
        })
    });
    for n in THREAD_COUNTS {
        group.bench_function(format!("threads_{n}"), |b| {
            b.iter(|| {
                let config = with_parallelism(Parallelism::Threads(n));
                black_box(sweep_universe(circuit, faults, &config))
            })
        });
    }
    group.finish();
}

/// Times the full stuck-at sweep at every telemetry level, same workload
/// and execution plan, so the collector's wall-clock cost is a direct
/// column-to-column read in the criterion report.
fn telemetry_overhead_group(c: &mut Criterion, circuit: &Circuit, faults: &[Fault]) {
    let mut group = c.benchmark_group("telemetry_overhead/alu74181_stuck_at");
    group.sample_size(10);
    for (name, level) in [
        ("off", TelemetryLevel::Off),
        ("aggregate", TelemetryLevel::Aggregate),
        ("detailed", TelemetryLevel::Detailed),
    ] {
        let config = SweepConfig {
            telemetry: level,
            ..Default::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(sweep_universe(circuit, faults, &config)))
        });
    }
    group.finish();
}

fn bench_parallel_sweep(c: &mut Criterion) {
    let circuit = alu74181();

    // Full stuck-at sweep: the collapsed checkpoint universe, uncapped.
    let sa_faults = stuck_at_universe(&circuit, true);
    sweep_group(c, "parallel_sweep/alu74181_stuck_at", &circuit, &sa_faults);
    telemetry_overhead_group(c, &circuit, &sa_faults);

    // Bridging sweep: all AND-type NFBFs of the same ALU.
    let bf_faults: Vec<Fault> = enumerate_nfbfs(&circuit, BridgeKind::And)
        .into_iter()
        .map(Fault::from)
        .collect();
    sweep_group(c, "parallel_sweep/alu74181_nfbf_and", &circuit, &bf_faults);
}

criterion_group!(benches, bench_parallel_sweep);
criterion_main!(benches);
