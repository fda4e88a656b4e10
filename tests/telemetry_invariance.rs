//! Telemetry is observation-only: attaching a collector to a sweep must not
//! change a single output bit.
//!
//! Strategy: replay the golden universes (`tests/golden/universe_summaries.tsv`,
//! owned by `tests/differential.rs`) at every [`TelemetryLevel`] — including
//! `Detailed`, which reads the clock around every gate propagation — and at
//! both serial and four-thread execution. Every run must reproduce the
//! committed golden TSV byte for byte. A companion check confirms the
//! collectors really were live (non-zero spans and counters), so a silently
//! disabled collector can't fake the invariance.

mod common;

use common::{assert_matches_golden, current_golden_lines, stuck_at_universe};
use diffprop::core::{
    sweep_report, sweep_universe, sweep_universe_ext, DiffProp, OrderStrategy, Parallelism,
    SweepConfig, SweepResult, TelemetryLevel,
};
use diffprop::netlist::generators::{c1908_surrogate, c95};
use diffprop::telemetry::{CounterKind, SpanKind};

fn config(parallelism: Parallelism, telemetry: TelemetryLevel) -> SweepConfig {
    SweepConfig {
        parallelism,
        telemetry,
        ..Default::default()
    }
}

#[test]
fn serial_sweep_is_byte_identical_at_every_telemetry_level() {
    for level in [
        TelemetryLevel::Off,
        TelemetryLevel::Aggregate,
        TelemetryLevel::Detailed,
    ] {
        assert_matches_golden(&current_golden_lines(&config(Parallelism::Serial, level)));
    }
}

#[test]
fn four_thread_sweep_is_byte_identical_at_every_telemetry_level() {
    for level in [
        TelemetryLevel::Off,
        TelemetryLevel::Aggregate,
        TelemetryLevel::Detailed,
    ] {
        assert_matches_golden(&current_golden_lines(&config(
            Parallelism::Threads(4),
            level,
        )));
    }
}

/// Guards the guard: the invariance tests above are only meaningful if the
/// collectors actually observe the sweep. An `Off` sweep must record
/// nothing; an observing sweep must have seen every span kind and the
/// manager counters.
#[test]
fn collectors_really_observe_the_sweep() {
    let circuit = c95();
    let faults = stuck_at_universe(&circuit);

    let off = sweep_universe(
        &circuit,
        &faults,
        &config(Parallelism::Serial, TelemetryLevel::Off),
    );
    assert_eq!(off.totals.span(SpanKind::Sweep).count, 0);
    assert_eq!(off.totals.counter(CounterKind::UniqueLookups), 0);

    for level in [TelemetryLevel::Aggregate, TelemetryLevel::Detailed] {
        let on = sweep_universe(&circuit, &faults, &config(Parallelism::Serial, level));
        let t = &on.totals;
        for kind in [
            SpanKind::Sweep,
            SpanKind::Build,
            SpanKind::Chunk,
            SpanKind::Class,
            SpanKind::Fault,
            SpanKind::GateProp,
        ] {
            assert!(t.span(kind).count > 0, "{level:?}: no {kind:?} spans");
        }
        assert_eq!(t.span(SpanKind::Class).count as usize, on.classes);
        assert_eq!(t.span(SpanKind::Build).count, 1, "one build per cold sweep");
        assert_eq!(
            t.counter(CounterKind::FaultsSummarized) as usize,
            faults.len()
        );
        assert!(t.counter(CounterKind::UniqueLookups) > 0);
        assert!(t.counter(CounterKind::OpCacheLookups) > 0);
        assert!(t.counter(CounterKind::GatesPropagated) > 0);
        assert!(t.counter(CounterKind::PeakNodes) > 0);
        // Only `Detailed` times individual gate propagations.
        let timed = t.span(SpanKind::GateProp).total_nanos > 0;
        assert_eq!(timed, level == TelemetryLevel::Detailed);
    }
}

/// The build span observes the sweep's own good-function build and nothing
/// else: a cold sweep records exactly one, a warm-snapshot sweep (which
/// builds nothing) and an unobserved sweep record none, and the `result`
/// section of the report is the same for all three.
#[test]
fn build_span_times_only_a_cold_build_and_changes_no_result() {
    let circuit = c95();
    let faults = stuck_at_universe(&circuit);
    let observed = config(Parallelism::Serial, TelemetryLevel::Aggregate);
    let snapshot = DiffProp::build_snapshot(&circuit, observed.engine).expect("c95 builds");

    let cold = sweep_universe_ext(&circuit, &faults, &observed, None, None);
    let warm = sweep_universe_ext(&circuit, &faults, &observed, Some(&snapshot), None);
    let off = sweep_universe_ext(
        &circuit,
        &faults,
        &config(Parallelism::Serial, TelemetryLevel::Off),
        None,
        None,
    );
    let build = cold.totals.span(SpanKind::Build);
    assert_eq!(build.count, 1);
    assert!(build.total_nanos > 0 && build.max_nanos == build.total_nanos);
    assert!(build.total_nanos <= cold.totals.span(SpanKind::Sweep).total_nanos);
    assert_eq!(warm.totals.span(SpanKind::Build), Default::default());
    assert_eq!(off.totals.span(SpanKind::Build), Default::default());

    let result = |sweep: &SweepResult| sweep_report(circuit.name(), "stuck-at", sweep).result;
    assert_eq!(result(&cold), result(&warm));
    assert_eq!(result(&cold), result(&off));
    assert_eq!(cold.summaries, warm.summaries);
}

/// The sift counters observe the sweep's own build sift and nothing else: a
/// cold `auto` sweep of c1908s (over the sift floor) reports exactly the
/// runs, swaps and reclaimed nodes of the build a snapshot records, and a
/// warm-snapshot sweep, which builds nothing, reports none. Both print the
/// same summaries.
#[test]
fn sift_counters_report_only_a_cold_build_sift() {
    let circuit = c1908_surrogate();
    let faults: Vec<_> = stuck_at_universe(&circuit).into_iter().take(16).collect();
    let mut observed = config(Parallelism::Serial, TelemetryLevel::Aggregate);
    observed.engine.order = OrderStrategy::Auto;
    let snapshot = DiffProp::build_snapshot(&circuit, observed.engine).expect("c1908s builds");
    let build = snapshot.build_stats();
    assert_eq!(build.sift_runs, 1);
    assert!(build.sift_swaps > 0 && build.sift_nodes_reclaimed > 0);

    let cold = sweep_universe_ext(&circuit, &faults, &observed, None, None);
    let warm = sweep_universe_ext(&circuit, &faults, &observed, Some(&snapshot), None);
    for (kind, built) in [
        (CounterKind::SiftRuns, build.sift_runs),
        (CounterKind::SiftSwaps, build.sift_swaps),
        (CounterKind::SiftNodesReclaimed, build.sift_nodes_reclaimed),
    ] {
        assert_eq!(cold.totals.counter(kind), built, "cold {kind:?}");
        assert_eq!(warm.totals.counter(kind), 0, "warm {kind:?}");
    }
    assert_eq!(cold.summaries, warm.summaries);
}
