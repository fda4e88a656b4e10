//! The in-process collector: span aggregates, counters, and histograms.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// How much a sweep records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryLevel {
    /// No collector attached; every recording call is a no-op. Exists for
    /// ablations and for the observation-only property tests — production
    /// sweeps have no reason to turn telemetry off.
    Off,
    /// The always-on default: sweep/chunk/class/fault spans are timed,
    /// gate-propagation spans are *counted* but not timed (they are the only
    /// per-gate hot path).
    #[default]
    Aggregate,
    /// Additionally times every gate-propagation span. Costs two
    /// `Instant::now()` calls per gate delta — for profiling runs, not for
    /// recorded experiments.
    Detailed,
}

impl TelemetryLevel {
    /// Stable lower-case name, as serialised in `sweep_report.json`.
    pub fn name(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Aggregate => "aggregate",
            TelemetryLevel::Detailed => "detailed",
        }
    }
}

/// The span hierarchy of a sweep, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `sweep_universe` call end to end (recorded by the merge step).
    Sweep,
    /// The sweep's own good-function build: static build, sift and freeze.
    /// Never recorded by a sweep over a warm snapshot.
    Build,
    /// One chunk claimed from the work-stealing queue.
    Chunk,
    /// One equivalence class: representative analysis plus member expansion.
    Class,
    /// One fault-level unit: the representative's exact analysis, or one
    /// member's sampled estimate on the fallback path.
    Fault,
    /// One gate delta computed inside the engine's propagation loop.
    /// Counted at [`TelemetryLevel::Aggregate`], timed at
    /// [`TelemetryLevel::Detailed`].
    GateProp,
}

impl SpanKind {
    /// Number of span kinds (array dimension).
    pub const COUNT: usize = 6;
    /// All kinds, outermost first — also the serialisation order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::Sweep,
        SpanKind::Build,
        SpanKind::Chunk,
        SpanKind::Class,
        SpanKind::Fault,
        SpanKind::GateProp,
    ];

    /// Stable snake_case name, as serialised in `sweep_report.json`.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Sweep => "sweep",
            SpanKind::Build => "good_build",
            SpanKind::Chunk => "chunk",
            SpanKind::Class => "class",
            SpanKind::Fault => "fault",
            SpanKind::GateProp => "gate_propagation",
        }
    }

    fn index(self) -> usize {
        match self {
            SpanKind::Sweep => 0,
            SpanKind::Build => 1,
            SpanKind::Chunk => 2,
            SpanKind::Class => 3,
            SpanKind::Fault => 4,
            SpanKind::GateProp => 5,
        }
    }
}

/// Aggregate over every finished span of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans finished (or counted, for untimed gate spans).
    pub count: u64,
    /// Total wall-clock nanoseconds across timed spans.
    pub total_nanos: u64,
    /// The single longest timed span.
    pub max_nanos: u64,
}

impl SpanStats {
    /// Component-wise aggregate (`max_nanos` takes the max).
    pub fn merged(self, other: SpanStats) -> SpanStats {
        SpanStats {
            count: self.count + other.count,
            total_nanos: self.total_nanos + other.total_nanos,
            max_nanos: self.max_nanos.max(other.max_nanos),
        }
    }
}

/// The fixed counter vocabulary of a sweep.
///
/// Most counters are filled from [`ManagerStats`](../dp_bdd) snapshots at
/// worker exit; the rest (`SimFallbacks`, the work-queue counters) are
/// bumped by the sweep itself. All counters sum across shards except
/// `PeakNodes`/`LiveNodes`, which take the per-shard max on merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Unique-table (hash-consing) probes, cumulative per manager.
    UniqueLookups,
    /// Unique-table probes that found an existing node.
    UniqueHits,
    /// Probes resolved against a shared frozen base table (delta managers
    /// only; zero for private managers).
    UniqueBaseHits,
    /// Probes that fell through to the private delta table (lookups =
    /// base hits + delta lookups for every manager).
    UniqueDeltaLookups,
    /// Op-cache probes, *cumulative across GC generations*.
    OpCacheLookups,
    /// Op-cache probes that hit, cumulative across GC generations.
    OpCacheHits,
    /// Memoised operation steps charged by the manager, cumulative.
    OpSteps,
    /// Completed garbage collections.
    GcRuns,
    /// Largest node table ever held (max on merge).
    PeakNodes,
    /// Node-table size at the end of the worker's run (max on merge).
    LiveNodes,
    /// Budget windows that tripped.
    BudgetTrips,
    /// Fault summaries degraded to sampled simulator estimates.
    SimFallbacks,
    /// Gate deltas computed by the propagation loop.
    GatesPropagated,
    /// Chunks claimed from the work-stealing queue.
    ChunksClaimed,
    /// Equivalence classes analysed.
    ClassesAnalyzed,
    /// Fault summaries produced.
    FaultsSummarized,
    /// Rudell sifts (`sift`) run on the good-function build (`Auto`).
    SiftRuns,
    /// Live nodes reclaimed by those sifts (size before minus size after,
    /// summed over runs).
    SiftNodesReclaimed,
    /// Adjacent level swaps those sifts made (walk steps plus the returns
    /// to the best level).
    SiftSwaps,
    /// Feedback-bridge analyses whose bridged wire never settled: the
    /// ternary fixpoint left residual X on some input vectors.
    OscillatingFaults,
}

impl CounterKind {
    /// Number of counters (array dimension).
    pub const COUNT: usize = 20;
    /// All counters, in serialisation order.
    pub const ALL: [CounterKind; CounterKind::COUNT] = [
        CounterKind::UniqueLookups,
        CounterKind::UniqueHits,
        CounterKind::UniqueBaseHits,
        CounterKind::UniqueDeltaLookups,
        CounterKind::OpCacheLookups,
        CounterKind::OpCacheHits,
        CounterKind::OpSteps,
        CounterKind::GcRuns,
        CounterKind::PeakNodes,
        CounterKind::LiveNodes,
        CounterKind::BudgetTrips,
        CounterKind::SimFallbacks,
        CounterKind::GatesPropagated,
        CounterKind::ChunksClaimed,
        CounterKind::ClassesAnalyzed,
        CounterKind::FaultsSummarized,
        CounterKind::SiftRuns,
        CounterKind::SiftNodesReclaimed,
        CounterKind::SiftSwaps,
        CounterKind::OscillatingFaults,
    ];

    /// Stable snake_case name, as serialised in `sweep_report.json`.
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::UniqueLookups => "unique_lookups",
            CounterKind::UniqueHits => "unique_hits",
            CounterKind::UniqueBaseHits => "unique_base_hits",
            CounterKind::UniqueDeltaLookups => "unique_delta_lookups",
            CounterKind::OpCacheLookups => "op_cache_lookups",
            CounterKind::OpCacheHits => "op_cache_hits",
            CounterKind::OpSteps => "op_steps",
            CounterKind::GcRuns => "gc_runs",
            CounterKind::PeakNodes => "peak_nodes",
            CounterKind::LiveNodes => "live_nodes",
            CounterKind::BudgetTrips => "budget_trips",
            CounterKind::SimFallbacks => "sim_fallbacks",
            CounterKind::GatesPropagated => "gates_propagated",
            CounterKind::ChunksClaimed => "chunks_claimed",
            CounterKind::ClassesAnalyzed => "classes_analyzed",
            CounterKind::FaultsSummarized => "faults_summarized",
            CounterKind::SiftRuns => "sift_runs",
            CounterKind::SiftNodesReclaimed => "sift_nodes_reclaimed",
            CounterKind::SiftSwaps => "sift_swaps",
            CounterKind::OscillatingFaults => "oscillating_faults",
        }
    }

    /// `true` for gauges that take the max (not the sum) on merge.
    pub fn merges_by_max(self) -> bool {
        matches!(self, CounterKind::PeakNodes | CounterKind::LiveNodes)
    }

    fn index(self) -> usize {
        CounterKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("CounterKind::ALL is exhaustive")
    }
}

/// The histograms a sweep maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Wall-clock nanoseconds per fault-level span.
    FaultNanos,
    /// Members per analysed equivalence class.
    ClassSize,
    /// Classes per work-queue batch (1 for every unpackable or unbatched
    /// class; > 1 only for fused cone-disjoint stuck-at batches).
    BatchSize,
    /// Ternary fixpoint iterations per feedback-bridge analysis (the
    /// number of loop evaluations before the wired value stabilised).
    FixpointIterations,
}

impl HistKind {
    /// Number of histograms (array dimension).
    pub const COUNT: usize = 4;
    /// All histograms, in serialisation order.
    pub const ALL: [HistKind; HistKind::COUNT] = [
        HistKind::FaultNanos,
        HistKind::ClassSize,
        HistKind::BatchSize,
        HistKind::FixpointIterations,
    ];

    /// Stable snake_case name, as serialised in `sweep_report.json`.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::FaultNanos => "fault_nanos",
            HistKind::ClassSize => "class_size",
            HistKind::BatchSize => "batch_size",
            HistKind::FixpointIterations => "fixpoint_iterations",
        }
    }

    fn index(self) -> usize {
        match self {
            HistKind::FaultNanos => 0,
            HistKind::ClassSize => 1,
            HistKind::BatchSize => 2,
            HistKind::FixpointIterations => 3,
        }
    }
}

/// A power-of-two histogram: bucket `i` counts values whose bit length is
/// `i` (bucket 0 holds zeros, bucket 1 holds ones, bucket `i` holds
/// `2^(i-1) ..= 2^i - 1`). 65 buckets cover the whole `u64` range, so
/// recording never saturates or clips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { buckets: [0; 65] }
    }
}

impl LogHistogram {
    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
    }

    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The buckets, trimmed of trailing zeros (the serialised form).
    pub fn dense_buckets(&self) -> &[u64] {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        &self.buckets[..last]
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &LogHistogram) -> LogHistogram {
        let mut out = self.clone();
        for (a, b) in out.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        out
    }
}

/// A started span: the token handed back by [`Collector::start`] and
/// consumed by [`Collector::finish`]. `None` when the collector is off (or
/// the span kind is untimed at the current level), so disabled telemetry
/// never reads the clock.
pub type SpanTimer = Option<Instant>;

/// Plain-data copy of a collector's state: everything recorded, nothing
/// borrowed. Snapshots survive the worker (and thread) that produced them
/// and merge component-wise into sweep-level views.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    level: TelemetryLevel,
    spans: [SpanStats; SpanKind::COUNT],
    counters: [u64; CounterKind::COUNT],
    hists: [LogHistogram; HistKind::COUNT],
}

impl TelemetrySnapshot {
    /// The level the producing collector ran at.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Aggregate for one span kind.
    pub fn span(&self, kind: SpanKind) -> SpanStats {
        self.spans[kind.index()]
    }

    /// One counter's value.
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.counters[kind.index()]
    }

    /// One histogram.
    pub fn hist(&self, kind: HistKind) -> &LogHistogram {
        &self.hists[kind.index()]
    }

    /// Component-wise aggregate of two snapshots: spans and histograms sum,
    /// counters sum except the [`CounterKind::merges_by_max`] gauges, the
    /// level takes the more detailed of the two.
    pub fn merged(&self, other: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut out = self.clone();
        for (a, b) in out.spans.iter_mut().zip(other.spans.iter()) {
            *a = a.merged(*b);
        }
        for kind in CounterKind::ALL {
            let i = kind.index();
            out.counters[i] = if kind.merges_by_max() {
                out.counters[i].max(other.counters[i])
            } else {
                out.counters[i] + other.counters[i]
            };
        }
        for (a, b) in out.hists.iter_mut().zip(other.hists.iter()) {
            *a = a.merged(b);
        }
        out.level = match (self.level, other.level) {
            (TelemetryLevel::Detailed, _) | (_, TelemetryLevel::Detailed) => {
                TelemetryLevel::Detailed
            }
            (TelemetryLevel::Aggregate, _) | (_, TelemetryLevel::Aggregate) => {
                TelemetryLevel::Aggregate
            }
            _ => TelemetryLevel::Off,
        };
        out
    }
}

/// The per-worker event sink. One collector per sweep worker (plus one on
/// the merging thread for the sweep span); snapshots are merged afterwards,
/// so no synchronisation is ever needed on the hot path.
#[derive(Debug, Default)]
pub struct Collector {
    state: TelemetrySnapshot,
}

/// A collector shared between a sweep worker and the engine it drives
/// (single-threaded interior mutability; workers never share collectors).
pub type SharedCollector = Rc<RefCell<Collector>>;

impl Collector {
    /// A collector recording at `level`.
    pub fn new(level: TelemetryLevel) -> Collector {
        Collector {
            state: TelemetrySnapshot {
                level,
                ..Default::default()
            },
        }
    }

    /// A shareable collector for threading through an engine.
    pub fn shared(level: TelemetryLevel) -> SharedCollector {
        Rc::new(RefCell::new(Collector::new(level)))
    }

    /// The recording level.
    pub fn level(&self) -> TelemetryLevel {
        self.state.level
    }

    /// `false` when every recording call is a no-op.
    pub fn enabled(&self) -> bool {
        self.state.level != TelemetryLevel::Off
    }

    /// `true` when gate-propagation spans are timed, not just counted.
    pub fn detailed(&self) -> bool {
        self.state.level == TelemetryLevel::Detailed
    }

    /// Starts a timed span. Reads the clock only when enabled.
    pub fn start(&self) -> SpanTimer {
        self.enabled().then(Instant::now)
    }

    /// Finishes a timed span started by [`Collector::start`].
    pub fn finish(&mut self, kind: SpanKind, timer: SpanTimer) {
        let Some(t0) = timer else { return };
        let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let s = &mut self.state.spans[kind.index()];
        s.count += 1;
        s.total_nanos += nanos;
        s.max_nanos = s.max_nanos.max(nanos);
        if kind == SpanKind::Fault {
            self.record_hist(HistKind::FaultNanos, nanos);
        }
    }

    /// Counts a span occurrence without timing it (the aggregate-level
    /// treatment of gate-propagation spans).
    pub fn count_span(&mut self, kind: SpanKind, occurrences: u64) {
        if self.enabled() {
            self.state.spans[kind.index()].count += occurrences;
        }
    }

    /// Adds to a counter.
    pub fn add(&mut self, kind: CounterKind, value: u64) {
        if self.enabled() {
            self.state.counters[kind.index()] += value;
        }
    }

    /// Raises a gauge counter to at least `value` (for `PeakNodes`-style
    /// high-water marks).
    pub fn raise(&mut self, kind: CounterKind, value: u64) {
        if self.enabled() {
            let c = &mut self.state.counters[kind.index()];
            *c = (*c).max(value);
        }
    }

    /// Records a histogram value.
    pub fn record_hist(&mut self, kind: HistKind, value: u64) {
        if self.enabled() {
            self.state.hists[kind.index()].record(value);
        }
    }

    /// Plain-data copy of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.state.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_collector_records_nothing() {
        let mut c = Collector::new(TelemetryLevel::Off);
        assert!(c.start().is_none());
        c.add(CounterKind::GcRuns, 5);
        c.count_span(SpanKind::GateProp, 9);
        c.record_hist(HistKind::ClassSize, 3);
        let s = c.snapshot();
        assert_eq!(s.counter(CounterKind::GcRuns), 0);
        assert_eq!(s.span(SpanKind::GateProp).count, 0);
        assert_eq!(s.hist(HistKind::ClassSize).total(), 0);
    }

    #[test]
    fn finished_spans_aggregate() {
        let mut c = Collector::new(TelemetryLevel::Aggregate);
        for _ in 0..3 {
            let t = c.start();
            assert!(t.is_some());
            c.finish(SpanKind::Class, t);
        }
        let s = c.snapshot();
        assert_eq!(s.span(SpanKind::Class).count, 3);
        assert!(s.span(SpanKind::Class).max_nanos <= s.span(SpanKind::Class).total_nanos);
        // A fault span also lands in the latency histogram.
        let t = c.start();
        c.finish(SpanKind::Fault, t);
        assert_eq!(c.snapshot().hist(HistKind::FaultNanos).total(), 1);
    }

    #[test]
    fn log_histogram_buckets_by_bit_length() {
        let mut h = LogHistogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(u64::MAX); // bucket 64
        assert_eq!(h.total(), 5);
        let dense = h.dense_buckets();
        assert_eq!(dense.len(), 65);
        assert_eq!(dense[0], 1);
        assert_eq!(dense[1], 1);
        assert_eq!(dense[2], 2);
        assert_eq!(dense[64], 1);
    }

    #[test]
    fn merged_sums_and_maxes() {
        let mut a = Collector::new(TelemetryLevel::Aggregate);
        let mut b = Collector::new(TelemetryLevel::Detailed);
        a.add(CounterKind::UniqueLookups, 10);
        b.add(CounterKind::UniqueLookups, 5);
        a.raise(CounterKind::PeakNodes, 100);
        b.raise(CounterKind::PeakNodes, 300);
        a.count_span(SpanKind::GateProp, 2);
        b.count_span(SpanKind::GateProp, 3);
        a.record_hist(HistKind::ClassSize, 4);
        b.record_hist(HistKind::ClassSize, 4);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.counter(CounterKind::UniqueLookups), 15);
        assert_eq!(m.counter(CounterKind::PeakNodes), 300);
        assert_eq!(m.span(SpanKind::GateProp).count, 5);
        assert_eq!(m.hist(HistKind::ClassSize).total(), 2);
        assert_eq!(m.level(), TelemetryLevel::Detailed);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = CounterKind::ALL.iter().map(|k| k.name()).collect();
        names.extend(SpanKind::ALL.iter().map(|k| k.name()));
        names.extend(HistKind::ALL.iter().map(|k| k.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate telemetry name");
    }
}
