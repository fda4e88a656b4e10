//! Observability for Difference Propagation sweeps.
//!
//! The paper's experiments hinge on measuring *where* analysis effort goes —
//! which faults are hard, which gates dominate propagation, how OBDD size
//! evolves. This crate is the substrate those measurements stand on:
//!
//! * an **in-process collector** ([`Collector`]) with spans for
//!   sweep → chunk → class → fault → gate-propagation, fixed-name counters
//!   ([`CounterKind`]) for op-steps, unique-table traffic, GC runs, peak/live
//!   nodes, budget trips and simulator fallbacks, and power-of-two
//!   [`LogHistogram`]s for per-fault latency and class-size profiles;
//! * a plain-data [`TelemetrySnapshot`] that survives the collector (and the
//!   worker thread) that produced it, with component-wise [`TelemetrySnapshot::merged`];
//! * the versioned, machine-readable **`sweep_report.json`** schema
//!   ([`report::SweepReport`], [`report::ReportFile`]) with a self-contained
//!   writer, parser ([`json`]) and validator ([`report::validate_report`]) —
//!   no external serialisation crates required.
//!
//! # Observation-only contract
//!
//! Telemetry never feeds back into analysis: a collector records what the
//! sweep did, it never changes what the sweep computes. The repository's
//! golden layer enforces this byte-for-byte (a sweep with a detailed
//! collector attached reproduces the golden TSV of a sweep with none).
//!
//! # Overhead budget
//!
//! The collector is aggregate-only — per span *kind*, not per span — so a
//! finished span costs one `Instant::now()` subtraction and three integer
//! updates, and a counter bump is one add. The acceptance budget is ≤ 5%
//! wall-clock on the `parallel_sweep` bench; the default
//! [`TelemetryLevel::Aggregate`] level stays far below it by counting (not
//! timing) the per-gate spans, which are the only hot ones.
//!
//! # Schema versioning policy
//!
//! [`report::SCHEMA_VERSION`] is bumped whenever a field is removed, renamed,
//! or changes meaning; adding fields is allowed within a version. Consumers
//! must reject reports with a version they do not know (the validator does).

mod collector;
pub mod json;
pub mod report;

pub use collector::{
    Collector, CounterKind, HistKind, LogHistogram, SharedCollector, SpanKind, SpanStats,
    SpanTimer, TelemetryLevel, TelemetrySnapshot,
};
pub use report::{
    fnv1a64, key_paths, parse_and_validate, report_to_json, snapshot_to_json, validate_report,
    ReportFile, ShardExecution, StreamInfo, SweepExecution, SweepOutcome, SweepReport,
    SCHEMA_VERSION,
};
