//! Collapsed, work-stealing fault-universe analysis.
//!
//! A Difference Propagation sweep over a fault universe is embarrassingly
//! parallel at the fault level: each analysis needs only the circuit, the
//! good functions, and the fault itself. This module adds the two classic
//! structural levers on top of that parallelism, both output-invariant:
//!
//! * **Fault collapsing** ([`dp_faults::collapse_faults`]): structurally
//!   equivalent stuck-at faults share one equivalence class, the engine
//!   propagates only the class representative, and the summary is expanded
//!   back to every member (adherence recomputed per member — it depends on
//!   the member's own site syndrome). [`SweepConfig::collapse`] turns this
//!   off for ablations.
//! * **Work stealing**: instead of static contiguous shards, workers claim
//!   fixed-size chunks of the work queue from a shared atomic counter, so a
//!   worker that drew cheap faults steals the next chunk instead of idling.
//!
//! On top of those, two shared-manager levers (both also output-invariant):
//!
//! * **Frozen good-function snapshots**: the good functions are built
//!   **once**, frozen into an immutable [`GoodSnapshot`](crate::GoodSnapshot),
//!   and every worker thaws a lightweight delta manager over the shared
//!   base — there is no per-worker build, and the one-off build is
//!   accounted exactly once in the sweep totals.
//! * **Cone-disjoint fault batches** ([`SweepConfig::batch`]): stuck-at
//!   classes whose representative fanout cones are pairwise disjoint are
//!   greedily packed ([`plan_batches`]) into one fused propagation pass per
//!   batch ([`DiffProp::try_analyze_stuck_at_batch`]); the queue hands out
//!   chunks of batches. Bridging classes and faults whose sites fall outside
//!   the circuit stay singleton batches, so panic isolation is untouched.
//!
//! # Determinism
//!
//! The merged results are **bit-identical to the serial engine regardless of
//! thread count, chunk size, and collapsing**. That is not an accident of
//! scheduling but a consequence of OBDD canonicity: for a fixed variable
//! order, every difference function a worker computes is the canonical DAG
//! of the same Boolean function the serial engine computes, so the derived
//! scalars (`sat_count`-based detectability and test counts, per-output
//! observability, site-constancy) cannot depend on the manager's allocation
//! history, cache contents, or which worker claimed the fault. Collapsing
//! preserves this bit-for-bit because equivalent faults *have the same
//! difference function at every output* — the expansion copies scalars that
//! are provably equal to what a direct analysis would produce, and
//! recomputes the one scalar (adherence) that is not shared. Work stealing
//! preserves it because summaries are keyed by global fault index and
//! released in index order by one reorder buffer — the claim order can only
//! permute *where* a class is computed, never *what* its canonical result
//! is.
//!
//! The same holds for the degraded path: a fallback estimate is seeded per
//! *global* fault index (a fixed base seed `+ index`), so a
//! [`FaultOutcome::Bounded`] summary does not depend on which worker
//! produced it. (Under a *finite budget* the set of faults that trip can
//! still vary with scheduling, because a manager's budget window depends on
//! its history; with the default unlimited budget every run is exact and
//! fully deterministic.)
//!
//! # Panic isolation
//!
//! Each equivalence class is analysed under [`std::panic::catch_unwind`]: a
//! fault that panics the engine (a buggy fault model, a poisoned circuit, an
//! assertion deep in the engine) never takes the sweep down — its class's
//! partial summaries are discarded, the worker rebuilds its engine, and
//! **every other class's summaries are returned untouched**, still in input
//! order. A panic inside a fused batch pass is retried class by class on a
//! rebuilt engine, so it too costs only the class that caused it. The
//! worker's [`ShardReport::panics`] carries every panicked class id with its
//! message, so a batch caller (or the sweep service) can report exactly
//! which requests died. Callers that require full coverage check
//! [`SweepResult::is_complete`].
//!
//! Every sweep, streamed or not, releases its summaries through the same
//! reorder buffer: [`SweepResult::summaries`] is always exactly the
//! concatenation of the runs a [`RecordSink`] would receive, including
//! after a worker-level panic, when the dead worker's already reported
//! batches are kept.
//!
//! # Resource bounds and graceful degradation
//!
//! With a node/op budget in [`EngineConfig::budget`], a class whose exact
//! analysis trips the budget is *not* lost: the sweep falls back to the
//! packed-parallel fault simulator ([`dp_sim`]) for a sampled detectability
//! estimate per member, and each summary is marked
//! [`FaultOutcome::Bounded`] with the sample count. Exact results are marked
//! [`FaultOutcome::Exact`]. With the default unlimited budget every outcome
//! is `Exact` and the results are byte-for-byte those of the pre-budget
//! engine.
//!
//! # Examples
//!
//! ```
//! use dp_core::{sweep_universe, Parallelism, SweepConfig};
//! use dp_faults::{checkpoint_faults, Fault};
//! use dp_netlist::generators::c17;
//!
//! let circuit = c17();
//! let faults: Vec<Fault> = checkpoint_faults(&circuit).into_iter().map(Fault::from).collect();
//! let serial = sweep_universe(&circuit, &faults, &SweepConfig::default());
//! let sharded = sweep_universe(
//!     &circuit,
//!     &faults,
//!     &SweepConfig { parallelism: Parallelism::Threads(2), ..Default::default() },
//! );
//! assert_eq!(serial.summaries, sharded.summaries);
//! assert!(serial.is_complete());
//! // Collapsing analysed fewer classes than there are faults…
//! assert!(serial.classes < faults.len());
//! // …but every fault still has its own summary.
//! assert_eq!(serial.summaries.len(), faults.len());
//! ```

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dp_bdd::ManagerStats;
use dp_faults::{
    collapse_faults, CollapseStats, CollapsedUniverse, Fault, FaultClass, StuckAtFault,
};
use dp_netlist::{Circuit, NetId, Reachability};
use dp_sim::sampled_fault_estimate;
use dp_telemetry::{
    Collector, CounterKind, HistKind, SharedCollector, SpanKind, TelemetryLevel, TelemetrySnapshot,
};

use crate::engine::{DiffProp, EngineConfig, FaultAnalysis};
use crate::good::GoodSnapshot;

/// Index of an equivalence class in the sweep's collapsed class list — the
/// unit of panic attribution in [`ShardReport::panics`].
pub type ClassId = usize;

/// Sentinel [`ClassId`] for a worker-level panic that escaped per-class
/// isolation (the catch machinery itself unwound); carries no class.
pub const WORKER_PANIC: ClassId = ClassId::MAX;

/// How a fault-universe sweep is executed.
///
/// `Serial` is the default everywhere so existing figure pipelines are
/// unchanged unless a caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker on the calling thread — the reference execution.
    #[default]
    Serial,
    /// Up to `n` scoped worker threads, each owning a private delta manager
    /// over the shared good-function snapshot.
    /// `Threads(0)` and `Threads(1)` degrade to one worker.
    Threads(usize),
}

impl Parallelism {
    /// The number of workers this setting asks for (at least 1).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// Default cap on stuck-at classes fused into one cone-disjoint batch.
const DEFAULT_BATCH: usize = 8;

/// Base seed of the simulator fallback: fault `i` (global index) samples
/// with `FALLBACK_SEED + i`, which makes estimates independent of sharding
/// and thread count. The paper's publication year; any constant works.
const FALLBACK_SEED: u64 = 1990;

/// Full configuration of a fault-universe sweep — see [`sweep_universe`].
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Engine tuning (selective trace, Table 1, gc, budget, variable
    /// order).
    pub engine: EngineConfig,
    /// Worker threads.
    pub parallelism: Parallelism,
    /// Random vectors per simulator-fallback estimate when the budget trips
    /// (rounded up to a multiple of 64, the packed-simulation width).
    pub fallback_samples: u64,
    /// Structural fault collapsing: analyse one representative per
    /// equivalence class (default). `false` restores one propagation per
    /// fault — useful for ablation, never for results (they are identical).
    pub collapse: bool,
    /// Maximum stuck-at classes fused into one cone-disjoint propagation
    /// batch (see [`plan_batches`]); `1` disables batching. Output-invariant
    /// at every value — batches are planned before workers spawn, so the
    /// packing never depends on thread count or claim order.
    pub batch: usize,
    /// How much the sweep records about itself. Observation-only by
    /// contract — the level never changes a summary (pinned by the
    /// telemetry-invariance tests). The default, `Aggregate`, times
    /// sweep/chunk/class/fault spans and counts gate propagations; `Off`
    /// skips even that, `Detailed` also times every gate delta.
    pub telemetry: TelemetryLevel,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            engine: EngineConfig::default(),
            parallelism: Parallelism::Serial,
            fallback_samples: 4096,
            collapse: true,
            batch: DEFAULT_BATCH,
            telemetry: TelemetryLevel::default(),
        }
    }
}

/// How a fault's summary was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Difference Propagation completed: the detectability, test count and
    /// observability flags are exact.
    Exact,
    /// The BDD work budget tripped; the summary holds a sampled estimate
    /// from the packed fault simulator. `detectability` is a point estimate
    /// over `samples` random vectors, `test_count` and `adherence` are
    /// `None`, and the observability flags are lower bounds (an output seen
    /// to differ is certainly observable; one never seen may still be).
    Bounded {
        /// Random vectors simulated for the estimate.
        samples: u64,
    },
    /// Difference Propagation completed, but the fault is a feedback bridge
    /// whose wired value never settles on some input vectors: the scalars
    /// are exact under the ternary (pessimistic) semantics — oscillating
    /// vectors are excluded from the test set — and the residual is
    /// reported here.
    Oscillating {
        /// Bit pattern of the oscillation density `f64` (the fraction of
        /// vectors with residual X at the bridged wire). Stored as bits so
        /// the outcome stays `Eq` and digest-stable.
        density_bits: u64,
    },
}

impl FaultOutcome {
    /// `true` for [`FaultOutcome::Exact`].
    pub fn is_exact(self) -> bool {
        matches!(self, FaultOutcome::Exact)
    }

    /// `true` for [`FaultOutcome::Oscillating`].
    pub fn is_oscillating(self) -> bool {
        matches!(self, FaultOutcome::Oscillating { .. })
    }
}

/// Per-fault scalar record produced by a sweep.
///
/// Deliberately holds no `NodeId`s: scalars survive the worker's manager and
/// are comparable across executions (see the module docs on determinism).
/// Detectability and adherence are compared exactly — equality on `f64` here
/// means equality of `to_bits`, which the determinism property tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSummary {
    /// The fault analysed.
    pub fault: Fault,
    /// Detection probability: exact (`|test_set| / 2^n`) for
    /// [`FaultOutcome::Exact`], a sampled estimate for
    /// [`FaultOutcome::Bounded`].
    pub detectability: f64,
    /// Exact number of detecting vectors (circuits of ≤ 127 inputs);
    /// `None` for bounded summaries.
    pub test_count: Option<u128>,
    /// Per-output observability flags, in primary-output order.
    pub observable_outputs: Vec<bool>,
    /// Whether the faulty site function is constant (paper §4.2; always
    /// `true` for stuck-at faults).
    pub site_function_constant: bool,
    /// Detectability divided by its syndrome bound (`None` for undetectable
    /// faults, bridges without a defined bound, and bounded summaries).
    pub adherence: Option<f64>,
    /// Whether this summary is exact or a budget-capped estimate.
    pub outcome: FaultOutcome,
}

impl FaultSummary {
    /// `true` when at least one vector detects the fault.
    pub fn is_detectable(&self) -> bool {
        self.detectability > 0.0
    }

    /// Number of primary outputs at which the fault is observable.
    pub fn num_observable(&self) -> usize {
        self.observable_outputs.iter().filter(|&&b| b).count()
    }
}

/// What one worker did: the work it claimed from the shared queue and its
/// managers' counters.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Worker index in `0..workers`.
    pub shard: usize,
    /// Chunks this worker claimed from the shared queue. Zero means the
    /// queue was drained before the worker got a turn — its manager was
    /// never built and its counters are all default.
    pub chunks_claimed: usize,
    /// Equivalence classes this worker processed — one BDD propagation pass
    /// each (or one sampled estimate per member when the engine is
    /// budget-starved). Summed over workers this always equals
    /// [`SweepResult::classes`], panics included.
    pub classes_done: usize,
    /// Faults this worker summarised (members of its claimed classes,
    /// minus any class lost to a panic).
    pub faults_done: usize,
    /// Wall-clock time spent inside claimed chunks — the load-balance
    /// signal: with work stealing, busy times should be close across
    /// workers even when per-fault costs are wildly skewed.
    pub busy: Duration,
    /// Counters of every BDD manager the worker ran, merged: its last
    /// engine's at the end of its run plus each engine a panic dropped
    /// (default counters when the worker claimed nothing or never built an
    /// engine).
    pub stats: ManagerStats,
    /// Every panic this worker saw, as `(class id, message)` pairs in the
    /// order the classes were claimed. A panicked class's faults have no
    /// summaries; all other classes (including this worker's later claims)
    /// are unaffected. The class id indexes the collapsed class list; the
    /// sentinel [`WORKER_PANIC`] marks a worker-level failure that could not
    /// be attributed to a class (the catch machinery itself unwound).
    pub panics: Vec<(ClassId, String)>,
    /// Everything this worker's collector recorded: span aggregates
    /// (chunk/class/fault, plus gate propagation from the engine), counters
    /// (including the manager's cumulative cache statistics, harvested at
    /// worker exit), and latency histograms. Default (empty, level `Off`)
    /// when the sweep ran with telemetry off or the worker claimed nothing.
    pub telemetry: TelemetrySnapshot,
}

/// The merged outcome of a sweep: per-fault summaries in the original fault
/// order plus one [`ShardReport`] per worker.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One summary per input fault of every non-panicked class, in input
    /// order. Equal in length to the input universe iff
    /// [`SweepResult::is_complete`].
    pub summaries: Vec<FaultSummary>,
    /// One report per worker, in worker order.
    pub shards: Vec<ShardReport>,
    /// Equivalence classes actually analysed (= BDD propagations needed);
    /// equals the universe size when collapsing is off or nothing merged.
    pub classes: usize,
    /// Shape of the collapsed universe (scheduling-invariant: depends only
    /// on the circuit, the fault list, and [`SweepConfig::collapse`]).
    pub collapse: CollapseStats,
    /// Whether structural collapsing was enabled for this sweep.
    pub collapsed: bool,
    /// Workers actually spawned (≤ the configured parallelism; never more
    /// than there were classes).
    pub workers: usize,
    /// Work-queue chunk size, in batches: derived from the queue length and
    /// the worker count so each worker gets several claims without drowning
    /// the queue in contention.
    pub chunk: usize,
    /// Name of the variable-order strategy the workers built with
    /// (`SweepConfig.engine.order`); recorded in the execution section of
    /// `sweep_report.json`. Execution metadata only — summaries are
    /// bit-identical across orders.
    pub order: String,
    /// End-to-end wall-clock time of the sweep, including collapsing and
    /// the merge.
    pub wall: Duration,
    /// All shard telemetry merged, plus the sweep-level span recorded by
    /// the merging thread. Empty (level `Off`) when telemetry was off.
    pub totals: TelemetrySnapshot,
}

impl SweepResult {
    /// All worker counters merged into a sweep-level view
    /// (sums, with `peak_nodes` taking the max across workers).
    pub fn merged_stats(&self) -> ManagerStats {
        self.shards
            .iter()
            .fold(ManagerStats::default(), |acc, s| acc.merged(&s.stats))
    }

    /// `true` when no class panicked — every input fault has a summary.
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(|s| s.panics.is_empty())
    }

    /// The workers that saw a panic (empty on a healthy sweep).
    pub fn failed_shards(&self) -> Vec<&ShardReport> {
        self.shards
            .iter()
            .filter(|s| !s.panics.is_empty())
            .collect()
    }

    /// Every panicked class across all workers, as `(class id, message)`
    /// pairs — what a batch server reports back per poisoned request.
    pub fn panicked_classes(&self) -> Vec<&(ClassId, String)> {
        self.shards.iter().flat_map(|s| &s.panics).collect()
    }

    /// Number of summaries that are budget-capped estimates. Oscillating
    /// summaries are *not* counted — their scalars are exact under the
    /// ternary semantics, not simulator estimates.
    pub fn num_bounded(&self) -> usize {
        self.summaries
            .iter()
            .filter(|s| matches!(s.outcome, FaultOutcome::Bounded { .. }))
            .count()
    }

    /// Number of feedback-bridge summaries with a non-zero oscillation
    /// residual.
    pub fn num_oscillating(&self) -> usize {
        self.summaries
            .iter()
            .filter(|s| s.outcome.is_oscillating())
            .count()
    }
}

/// The sweep entry point: collapse the universe, pack the classes into
/// cone-disjoint batches, fan the batches out over a work-stealing queue,
/// and merge summaries back into input order.
///
/// The good functions are built once, on the calling thread, and frozen
/// into a [`GoodSnapshot`]; each worker thaws its own delta manager over
/// that shared base (lazily, on its first claimed chunk) and reuses it for
/// all its classes, exactly like a serial [`DiffProp`] would.
/// `Parallelism::Serial` runs the identical single-worker code path on the
/// calling thread. Results are bit-identical across all `parallelism`,
/// `batch` and `collapse` settings (see the module docs).
///
/// This function does not panic on worker failure: class panics are caught
/// and reported per worker, and budget trips degrade per fault to sampled
/// estimates (see the module docs on panic isolation and degradation).
pub fn sweep_universe(circuit: &Circuit, faults: &[Fault], config: &SweepConfig) -> SweepResult {
    sweep_universe_ext(circuit, faults, config, None, None)
}

/// An in-order sink for streamed sweeps: invoked with each run of records
/// the reorder buffer can release, as `(input fault index, summary)` pairs.
/// Indices ascend strictly within a run and across runs.
pub type RecordSink<'a> = &'a mut dyn FnMut(&[(usize, FaultSummary)]);

/// [`sweep_universe`] with two extras: an optional pre-built warm snapshot
/// and an optional in-order record sink.
///
/// Every sweep releases its summaries through one reorder buffer. Workers
/// report whole batches as they finish; the buffer releases index `i` only
/// once every index `< i` has been either emitted or lost to a class panic.
/// [`SweepResult::summaries`] is the concatenation of the released runs, in
/// every case: batch or streamed, one worker or several, and also after a
/// worker-level panic, whose already reported batches still count.
///
/// `on_record` receives those runs **incrementally, in strict input-fault
/// order**, one call per run, as the work-stealing queue completes the
/// prefix: a consumer that concatenates the runs sees exactly
/// [`SweepResult::summaries`], regardless of thread count or chunk size. The
/// sink runs on the calling thread, inside the sweep. With one worker the
/// sweep itself runs there too and feeds the sink after every batch, so a
/// slow sink slows the sweep (backpressure) instead of queueing records;
/// with several workers the calling thread drains their events from a
/// channel.
///
/// `warm_snapshot` is the resident-service path: workers thaw the provided
/// frozen good functions instead of the sweep building its own, so the sweep
/// performs **zero** good-function builds and its reported [`ManagerStats`]
/// contain thaw-only work — the build cost stays attributed to whoever built
/// the snapshot (e.g. a server cache at admission time). The caller must have
/// built the snapshot from the same circuit with the same
/// [`EngineConfig::order`](crate::EngineConfig), or detectabilities would
/// still be correct (OBDD canonicity) but the cost model and any sifted
/// order are no longer comparable.
pub fn sweep_universe_ext(
    circuit: &Circuit,
    faults: &[Fault],
    config: &SweepConfig,
    warm_snapshot: Option<&GoodSnapshot>,
    on_record: Option<RecordSink<'_>>,
) -> SweepResult {
    // The sweep span is recorded by the merging thread's own collector;
    // worker collectors are private and merged into `totals` afterwards.
    let mut sweep_col = Collector::new(config.telemetry);
    let sweep_timer = sweep_col.start();
    let wall_t0 = Instant::now();
    let collapsed = if config.collapse {
        collapse_faults(circuit, faults)
    } else {
        CollapsedUniverse {
            classes: (0..faults.len())
                .map(|i| FaultClass {
                    representative: i,
                    members: vec![i],
                })
                .collect(),
            num_faults: faults.len(),
        }
    };
    let collapse_stats = collapsed.stats();
    let classes = collapsed.classes.as_slice();
    // Plan the work queue before any worker exists: batches depend only on
    // the circuit, the fault list and `config.batch`, never on scheduling.
    let batches: Vec<Vec<usize>> = if config.batch > 1 && !classes.is_empty() {
        let reach = Reachability::compute(circuit);
        plan_batches(faults, classes, &reach, config.batch)
    } else {
        (0..classes.len()).map(|c| vec![c]).collect()
    };
    // Build and freeze the good functions once, on the sweeping thread —
    // unless the caller supplied a warm snapshot, in which case this sweep
    // builds nothing at all. A budget too small for the build leaves `None`
    // and every class degrades to a sampled estimate.
    let built: Option<GoodSnapshot> = if classes.is_empty() || warm_snapshot.is_some() {
        None
    } else {
        let build_timer = sweep_col.start();
        let built = DiffProp::build_snapshot(circuit, config.engine).ok();
        sweep_col.finish(SpanKind::Build, build_timer);
        built
    };
    // Never more workers than queue entries: an extra worker would thaw the
    // good functions only to find the queue drained.
    let workers = config.parallelism.workers().min(batches.len()).max(1);
    let work = Work {
        circuit,
        faults,
        classes,
        chunk: batches.len().div_ceil(workers * 8).clamp(1, 32),
        batches: &batches,
        snapshot: warm_snapshot.or(built.as_ref()),
        config,
        next: AtomicUsize::new(0),
    };
    let mut reorder = Reorder::new(faults.len(), on_record);

    let mut reports: Vec<ShardReport> = if workers <= 1 {
        vec![run_worker(&work, 0, &mut |event| {
            reorder.absorb(event);
            reorder.release();
        })]
    } else {
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<StreamEvent>();
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (work, tx) = (&work, tx.clone());
                    // A dropped receiver just means nobody is listening
                    // any more; the worker still finishes its queue.
                    scope.spawn(move || {
                        run_worker(work, w, &mut |event| {
                            let _ = tx.send(event);
                        })
                    })
                })
                .collect();
            // Close the channel once every worker's clone is gone, so the
            // drain loop terminates when the last worker exits.
            drop(tx);
            while let Ok(event) = rx.recv() {
                reorder.absorb(event);
                // Take everything already queued before releasing, so the
                // sink gets one run rather than one per batch.
                while let Ok(event) = rx.try_recv() {
                    reorder.absorb(event);
                }
                reorder.release();
            }
            handles
                .into_iter()
                .enumerate()
                .map(|(w, h)| {
                    // run_worker catches engine panics per class; join only
                    // fails if the catch machinery itself unwound.
                    h.join().unwrap_or_else(|payload| ShardReport {
                        panics: vec![(WORKER_PANIC, panic_message(payload.as_ref()))],
                        ..ShardReport::idle(w)
                    })
                })
                .collect()
        })
    };
    let summaries = reorder.finish();
    // The one-off snapshot build cost is real work this sweep performed —
    // but only when this sweep built it. A warm snapshot's build cost
    // belongs to whoever built it (the server cache, a previous request):
    // folding it here would double-count and hide the whole point of
    // reuse, that a cache-hit sweep's counters are thaw-only.
    if let Some(snap) = built.as_ref() {
        if let Some(first) = reports.first_mut() {
            first.stats = first.stats.merged(snap.build_stats());
        }
        harvest_manager_stats(&mut sweep_col, snap.build_stats());
    }
    sweep_col.finish(SpanKind::Sweep, sweep_timer);
    let totals = reports
        .iter()
        .fold(sweep_col.snapshot(), |acc, r| acc.merged(&r.telemetry));
    SweepResult {
        summaries,
        shards: reports,
        classes: classes.len(),
        collapse: collapse_stats,
        collapsed: config.collapse,
        workers,
        chunk: work.chunk,
        order: config.engine.order.name(),
        wall: wall_t0.elapsed(),
        totals,
    }
}

/// Plans the sweep's work queue: greedy first-fit packing of classes into
/// **cone-disjoint batches**, in collapse order.
///
/// Each batch lists indices into `classes` (ascending). A class joins the
/// first open batch whose accumulated cone mask its representative's fanout
/// cone does not intersect, subject to `max` classes per batch; otherwise it
/// opens a new batch. Batches of size > 1 are analysed in one fused
/// propagation pass ([`DiffProp::try_analyze_stuck_at_batch`]), which is
/// sound precisely because their difference fronts can never meet.
///
/// Kept singleton — never packed with anything:
///
/// * bridging classes (two sites, no single flow cone; they never collapse
///   either),
/// * stuck-at classes whose site is not wholly in the circuit — a net, or a
///   branch's stem or sink, that the circuit lacks (a foreign fault will
///   panic the engine; keeping it alone keeps a fused pass from failing on
///   its account).
///
/// Deterministic by construction: the packing depends only on the circuit's
/// reachability relation, the class list, and `max` — never on thread
/// count, chunk size, or claim order.
pub fn plan_batches(
    faults: &[Fault],
    classes: &[FaultClass],
    reach: &Reachability,
    max: usize,
) -> Vec<Vec<usize>> {
    let max = max.max(1);
    let words = reach.num_words();
    let mut batches: Vec<Vec<usize>> = Vec::new();
    // Open batches still accepting members: (batch index, accumulated mask).
    let mut open: Vec<(usize, Vec<u64>)> = Vec::new();
    for (c, class) in classes.iter().enumerate() {
        let flow = class_flow_net(faults, class, reach);
        let Some(flow) = flow else {
            batches.push(vec![c]); // closed singleton: never packed
            continue;
        };
        if max == 1 {
            batches.push(vec![c]);
            continue;
        }
        let slot = open
            .iter()
            .position(|(b, mask)| batches[*b].len() < max && !reach.cone_intersects(flow, mask));
        match slot {
            Some(s) => {
                let (b, mask) = &mut open[s];
                batches[*b].push(c);
                reach.cone_union_into(flow, mask);
                if batches[*b].len() >= max {
                    open.swap_remove(s);
                }
            }
            None => {
                let mut mask = vec![0u64; words];
                reach.cone_union_into(flow, &mut mask);
                open.push((batches.len(), mask));
                batches.push(vec![c]);
            }
        }
    }
    batches
}

/// The single net every effect of a class's representative flows through —
/// the stuck net, or a branch fault's sink gate — when the class is
/// batchable; `None` keeps it singleton: bridges, multiple faults, and sites
/// that are not wholly in the circuit (a branch's stem as well as its sink,
/// the test `collapse_faults` applies).
fn class_flow_net(faults: &[Fault], class: &FaultClass, reach: &Reachability) -> Option<NetId> {
    let in_circuit = |net: NetId| net.index() < reach.num_nets();
    match &faults[class.representative] {
        Fault::StuckAt(f) => {
            let net = f.site.flow_net();
            (in_circuit(f.site.net()) && in_circuit(net)).then_some(net)
        }
        // Bridges and multiple faults have several sites and no single flow
        // cone; they stay singleton.
        Fault::Bridging(_) | Fault::MultiStuckAt(_) => None,
    }
}

/// Everything a worker reads, planned before any worker exists, plus the
/// work queue's shared claim counter.
struct Work<'a> {
    circuit: &'a Circuit,
    faults: &'a [Fault],
    classes: &'a [FaultClass],
    batches: &'a [Vec<usize>],
    /// `None` when the budget could not even fit the good functions: every
    /// class is then estimated by simulation.
    snapshot: Option<&'a GoodSnapshot>,
    config: &'a SweepConfig,
    /// Index of the next unclaimed chunk.
    next: AtomicUsize,
    /// Batches per claim.
    chunk: usize,
}

impl<'a> Work<'a> {
    /// The worker's engine in `slot`, thawed from the shared snapshot when
    /// the slot is empty: on the worker's first class, so a worker that never
    /// gets a turn costs nothing, and after a panic emptied it, since the
    /// unwind may have left the manager mid-operation. `None` without a
    /// snapshot.
    fn thaw<'s>(
        &self,
        slot: &'s mut Option<DiffProp<'a>>,
        collector: &SharedCollector,
    ) -> Option<&'s mut DiffProp<'a>> {
        if slot.is_none() {
            let mut dp = DiffProp::from_snapshot(self.circuit, self.snapshot?, self.config.engine);
            dp.attach_collector(collector.clone());
            *slot = Some(dp);
        }
        slot.as_mut()
    }
}

/// What a worker reports after each finished batch: the batch's
/// `(global index, summary)` records plus the global indices of any members
/// lost to a class panic in the batch. Skips matter: without them a gap
/// would stall the in-order release forever.
struct StreamEvent {
    records: Vec<(usize, FaultSummary)>,
    skips: Vec<usize>,
}

/// The one merge of every sweep: buffers out-of-order batch completions,
/// releases index `i` only once every index `< i` is emitted or skipped,
/// hands each released run to the sink, and keeps the runs' concatenation
/// as [`SweepResult::summaries`].
struct Reorder<'s> {
    /// `None` marks an index lost to a panic: released silently.
    pending: BTreeMap<usize, Option<FaultSummary>>,
    next: usize,
    sink: Option<RecordSink<'s>>,
    released: Vec<FaultSummary>,
}

impl<'s> Reorder<'s> {
    fn new(faults: usize, sink: Option<RecordSink<'s>>) -> Self {
        Reorder {
            pending: BTreeMap::new(),
            next: 0,
            sink,
            released: Vec::with_capacity(faults),
        }
    }

    fn absorb(&mut self, event: StreamEvent) {
        for i in event.skips {
            self.pending.insert(i, None);
        }
        for (i, s) in event.records {
            self.pending.insert(i, Some(s));
        }
    }

    /// Releases, as one run, every record the prefix now allows.
    fn release(&mut self) {
        let mut run = Vec::new();
        while let Some(slot) = self.pending.remove(&self.next) {
            if let Some(s) = slot {
                run.push((self.next, s));
            }
            self.next += 1;
        }
        if run.is_empty() {
            return;
        }
        if let Some(sink) = self.sink.as_mut() {
            sink(&run);
        }
        self.released.extend(run.into_iter().map(|(_, s)| s));
    }

    /// Releases the tail and returns every released summary. A worker that
    /// died outside per-class isolation leaves a permanent gap; the tail
    /// still goes out in index order rather than being dropped. Its indices
    /// are all ≥ `next`, so the stream stays strictly ascending.
    fn finish(mut self) -> Vec<FaultSummary> {
        while let Some(&gap_end) = self.pending.keys().next() {
            self.next = gap_end;
            self.release();
        }
        self.released
    }
}

impl ShardReport {
    /// The report of a worker that has not claimed anything yet.
    fn idle(shard: usize) -> Self {
        ShardReport {
            shard,
            chunks_claimed: 0,
            classes_done: 0,
            faults_done: 0,
            busy: Duration::ZERO,
            stats: ManagerStats::default(),
            panics: Vec::new(),
            telemetry: TelemetrySnapshot::default(),
        }
    }

    /// Empties the engine slot, folding the engine's counters into
    /// [`ShardReport::stats`] first: an engine dropped after a panic (the
    /// unwind may have left its manager mid-operation) takes none of the
    /// worker's work out of the merged view.
    fn retire(&mut self, dp: &mut Option<DiffProp<'_>>) {
        if let Some(dp) = dp.take() {
            self.stats = self.stats.merged(dp.good().manager().stats());
        }
    }
}

/// One worker: claim chunks of batches from the shared queue until drained,
/// and `emit` every finished batch.
fn run_worker(work: &Work<'_>, worker: usize, emit: &mut dyn FnMut(StreamEvent)) -> ShardReport {
    let mut report = ShardReport::idle(worker);
    // One collector per worker, shared with the worker's engine; no other
    // thread ever sees it, so the RefCell is uncontended by construction.
    let collector = Collector::shared(work.config.telemetry);
    let mut dp: Option<DiffProp<'_>> = None;
    loop {
        let lo = work.next.fetch_add(1, Ordering::Relaxed) * work.chunk;
        if lo >= work.batches.len() {
            break;
        }
        let hi = (lo + work.chunk).min(work.batches.len());
        report.chunks_claimed += 1;
        let chunk_timer = collector.borrow().start();
        let t0 = Instant::now();
        for batch in &work.batches[lo..hi] {
            let panic_mark = report.panics.len();
            collector
                .borrow_mut()
                .record_hist(HistKind::BatchSize, batch.len() as u64);
            let fused = if batch.len() > 1 {
                fused_pass(work, &mut dp, batch, &collector, &mut report)
            } else {
                None
            };
            let mut records = Vec::new();
            for (k, &c) in batch.iter().enumerate() {
                let analysis = fused.as_ref().map(|a| &a[k]);
                process_class(
                    work,
                    &mut dp,
                    c,
                    analysis,
                    &collector,
                    &mut records,
                    &mut report,
                );
            }
            let skips = report.panics[panic_mark..]
                .iter()
                .flat_map(|&(id, _)| work.classes[id].members.iter().copied())
                .collect();
            emit(StreamEvent { records, skips });
        }
        report.busy += t0.elapsed();
        collector.borrow_mut().finish(SpanKind::Chunk, chunk_timer);
    }
    if let Some(dp) = &dp {
        collector
            .borrow_mut()
            .raise(CounterKind::LiveNodes, dp.good().num_nodes() as u64);
    }
    report.retire(&mut dp);
    {
        let mut c = collector.borrow_mut();
        harvest_manager_stats(&mut c, &report.stats);
        c.add(CounterKind::ChunksClaimed, report.chunks_claimed as u64);
    }
    report.telemetry = collector.borrow().snapshot();
    report
}

/// The fused one-pass analysis of a multi-class batch, one analysis per
/// class. `None` on a missing engine, a budget trip (the engine has already
/// recovered) or a panic (which retires the engine into `report`): the
/// batch then runs per class, which re-attributes a persistent panic to its
/// class.
fn fused_pass<'a>(
    work: &Work<'a>,
    dp: &mut Option<DiffProp<'a>>,
    batch: &[usize],
    collector: &SharedCollector,
    report: &mut ShardReport,
) -> Option<Vec<FaultAnalysis>> {
    let reps: Vec<StuckAtFault> = batch
        .iter()
        .map(|&c| match &work.faults[work.classes[c].representative] {
            Fault::StuckAt(f) => *f,
            Fault::Bridging(_) | Fault::MultiStuckAt(_) => {
                unreachable!("plan_batches never packs multi-site classes")
            }
        })
        .collect();
    let engine = work.thaw(dp, collector)?;
    // One fault span for the batch's shared propagation, mirroring the one
    // span per representative propagation of the per-class path.
    let fault_timer = collector.borrow().start();
    match catch_unwind(AssertUnwindSafe(|| {
        engine.try_analyze_stuck_at_batch(&reps)
    })) {
        Ok(Ok(analyses)) => {
            collector.borrow_mut().finish(SpanKind::Fault, fault_timer);
            Some(analyses)
        }
        Ok(Err(_)) => None,
        Err(_) => {
            report.retire(dp);
            None
        }
    }
}

/// The per-class unit of worker progress, with panic isolation: expands the
/// representative's `fused` analysis to every member or, without one, runs
/// [`summarize_class`]. A panic drops the class's partial summaries and
/// retires the engine into `report`.
fn process_class<'a>(
    work: &Work<'a>,
    dp: &mut Option<DiffProp<'a>>,
    class_id: ClassId,
    fused: Option<&FaultAnalysis>,
    collector: &SharedCollector,
    out: &mut Vec<(usize, FaultSummary)>,
    report: &mut ShardReport,
) {
    let class = &work.classes[class_id];
    report.classes_done += 1;
    let class_timer = collector.borrow().start();
    let mark = out.len();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        match (fused, work.thaw(dp, collector)) {
            (Some(analysis), Some(dp)) => expand_class(dp, work.faults, class, analysis, out),
            (_, dp) => summarize_class(work, dp, class, collector, out),
        }
    }));
    match caught {
        Ok(()) => {
            report.faults_done += class.members.len();
            collector
                .borrow_mut()
                .add(CounterKind::FaultsSummarized, class.members.len() as u64);
        }
        Err(payload) => {
            // Any RefCell borrow the collector held was released during
            // the unwind.
            out.truncate(mark);
            report
                .panics
                .push((class_id, panic_message(payload.as_ref())));
            report.retire(dp);
        }
    }
    let mut c = collector.borrow_mut();
    c.finish(SpanKind::Class, class_timer);
    c.record_hist(HistKind::ClassSize, class.members.len() as u64);
    c.add(CounterKind::ClassesAnalyzed, 1);
}

/// Folds a manager's final [`ManagerStats`] into a collector, so snapshots
/// carry the cumulative view — op-cache counters included, which survive GC
/// generations by design. Used for each worker's manager and, in shared
/// mode, once for the snapshot build (the only place an `Auto` sift runs).
fn harvest_manager_stats(c: &mut Collector, s: &ManagerStats) {
    c.add(CounterKind::UniqueLookups, s.unique.lookups);
    c.add(CounterKind::UniqueHits, s.unique.hits);
    c.add(CounterKind::UniqueBaseHits, s.base_hits);
    c.add(CounterKind::UniqueDeltaLookups, s.delta_lookups);
    let op = s.op_cumulative_total();
    c.add(CounterKind::OpCacheLookups, op.lookups);
    c.add(CounterKind::OpCacheHits, op.hits);
    c.add(CounterKind::OpSteps, s.op_steps);
    c.add(CounterKind::GcRuns, s.gc_runs);
    c.add(CounterKind::SiftRuns, s.sift_runs);
    c.add(CounterKind::SiftNodesReclaimed, s.sift_nodes_reclaimed);
    c.add(CounterKind::SiftSwaps, s.sift_swaps);
    c.raise(CounterKind::PeakNodes, s.peak_nodes as u64);
    c.add(CounterKind::BudgetTrips, s.budget_trips);
}

/// Expands a class representative's exact analysis to every member.
///
/// Shared scalars (detectability, test count, observability flags, site
/// constancy, outcome) are equal for all members by fault equivalence + OBDD
/// canonicity. Adherence is *not* shared: its syndrome bound belongs to the
/// member's own site net, so it is recomputed per member — which keeps the
/// expansion bit-identical to analysing each member directly.
fn expand_class(
    dp: &mut DiffProp<'_>,
    faults: &[Fault],
    class: &FaultClass,
    analysis: &FaultAnalysis,
    out: &mut Vec<(usize, FaultSummary)>,
) {
    // Exact unless the feedback fixpoint left oscillating vectors behind.
    let outcome = if analysis.oscillation_density > 0.0 {
        FaultOutcome::Oscillating {
            density_bits: analysis.oscillation_density.to_bits(),
        }
    } else {
        FaultOutcome::Exact
    };
    for &m in &class.members {
        let fault = faults[m].clone();
        let adherence = dp
            .detectability_bound(&fault)
            .and_then(|u| (u > 0.0).then(|| analysis.detectability / u));
        out.push((
            m,
            FaultSummary {
                fault,
                detectability: analysis.detectability,
                test_count: analysis.test_count,
                observable_outputs: analysis.observable_outputs.clone(),
                site_function_constant: analysis.site_function_constant,
                adherence,
                outcome,
            },
        ));
    }
}

/// Analyses one class's representative and expands the result to every
/// member (or samples every member when the budget trips or there is no
/// engine).
fn summarize_class(
    work: &Work<'_>,
    dp: Option<&mut DiffProp<'_>>,
    class: &FaultClass,
    collector: &SharedCollector,
    out: &mut Vec<(usize, FaultSummary)>,
) {
    // One fault span for the representative's exact propagation; if the
    // budget trips, the timer is dropped and each member's simulated
    // estimate gets its own span instead.
    let fault_timer = collector.borrow().start();
    let exact = dp.and_then(|dp| {
        dp.try_analyze(&work.faults[class.representative])
            .ok()
            .map(|a| (dp, a))
    });
    match exact {
        Some((dp, analysis)) => {
            collector.borrow_mut().finish(SpanKind::Fault, fault_timer);
            expand_class(dp, work.faults, class, &analysis, out);
        }
        None => {
            // Budget trip (or no engine at all): every member gets its own
            // estimate, seeded by its own global index — never a copy of
            // the representative's.
            let _ = fault_timer;
            for &m in &class.members {
                let member_timer = collector.borrow().start();
                let summary = sampled_summary(
                    work.circuit,
                    &work.faults[m],
                    m,
                    work.config.fallback_samples,
                );
                {
                    let mut c = collector.borrow_mut();
                    c.finish(SpanKind::Fault, member_timer);
                    c.add(CounterKind::SimFallbacks, 1);
                }
                out.push((m, summary));
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "sweep worker panicked with a non-string payload".to_string()
    }
}

/// Simulator fallback: a sampled [`FaultSummary`], deterministically seeded
/// by the fault's global index.
fn sampled_summary(
    circuit: &Circuit,
    fault: &Fault,
    global_index: usize,
    samples: u64,
) -> FaultSummary {
    let est = sampled_fault_estimate(
        circuit,
        fault,
        samples,
        FALLBACK_SEED.wrapping_add(global_index as u64),
    );
    FaultSummary {
        fault: fault.clone(),
        detectability: est.detectability(),
        test_count: None,
        observable_outputs: est.observable_outputs,
        site_function_constant: est.site_function_constant,
        adherence: None,
        outcome: FaultOutcome::Bounded {
            samples: est.samples,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bdd::BudgetConfig;
    use dp_faults::{checkpoint_faults, enumerate_nfbfs, BridgeKind, FaultSite};
    use dp_netlist::generators::{alu74181, c17, c1908_surrogate, c432_surrogate, c95, full_adder};

    fn with_parallelism(parallelism: Parallelism) -> SweepConfig {
        SweepConfig {
            parallelism,
            ..Default::default()
        }
    }

    fn stuck_at_universe(circuit: &Circuit) -> Vec<Fault> {
        checkpoint_faults(circuit)
            .into_iter()
            .map(Fault::from)
            .collect()
    }

    /// Exact equality including the f64 bit patterns the public docs promise.
    fn assert_bit_identical(a: &[FaultSummary], b: &[FaultSummary]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x, y);
            assert_eq!(x.detectability.to_bits(), y.detectability.to_bits());
            match (x.adherence, y.adherence) {
                (Some(p), Some(q)) => assert_eq!(p.to_bits(), q.to_bits()),
                (None, None) => {}
                other => panic!("adherence mismatch: {other:?}"),
            }
        }
    }

    /// The collapsed sweep must be indistinguishable per fault from direct
    /// engine analysis — the core expansion bit-identity check.
    #[test]
    fn serial_matches_engine_directly() {
        let circuit = c17();
        let faults = stuck_at_universe(&circuit);
        let sweep = sweep_universe(&circuit, &faults, &with_parallelism(Parallelism::Serial));
        assert!(sweep.classes < faults.len(), "c17 checkpoints collapse");
        let mut dp = DiffProp::new(&circuit);
        assert_eq!(sweep.summaries.len(), faults.len());
        for (summary, fault) in sweep.summaries.iter().zip(&faults) {
            let a = dp.analyze(fault);
            assert_eq!(summary.fault, *fault);
            assert_eq!(summary.detectability.to_bits(), a.detectability.to_bits());
            assert_eq!(summary.test_count, a.test_count);
            assert_eq!(summary.observable_outputs, a.observable_outputs);
            assert_eq!(summary.site_function_constant, a.site_function_constant);
            assert_eq!(summary.outcome, FaultOutcome::Exact);
            match (summary.adherence, dp.adherence(&a)) {
                (Some(p), Some(q)) => assert_eq!(p.to_bits(), q.to_bits(), "{fault}"),
                (None, None) => {}
                other => panic!("adherence mismatch on {fault}: {other:?}"),
            }
        }
    }

    #[test]
    fn collapsing_off_is_bit_identical() {
        let circuit = c95();
        let faults = stuck_at_universe(&circuit);
        let on = sweep_universe(&circuit, &faults, &SweepConfig::default());
        let off = sweep_universe(
            &circuit,
            &faults,
            &SweepConfig {
                collapse: false,
                ..Default::default()
            },
        );
        assert!(on.classes < off.classes);
        assert_eq!(off.classes, faults.len());
        assert_bit_identical(&on.summaries, &off.summaries);
    }

    #[test]
    fn sharded_matches_serial_on_stuck_at() {
        let circuit = c17();
        let faults = stuck_at_universe(&circuit);
        let serial = sweep_universe(&circuit, &faults, &with_parallelism(Parallelism::Serial));
        for n in [1, 2, 3, 4, 7] {
            let sharded = sweep_universe(
                &circuit,
                &faults,
                &with_parallelism(Parallelism::Threads(n)),
            );
            assert_bit_identical(&serial.summaries, &sharded.summaries);
        }
    }

    #[test]
    fn sharded_matches_serial_on_bridges() {
        let circuit = full_adder();
        let mut faults = Vec::new();
        for kind in [BridgeKind::And, BridgeKind::Or] {
            faults.extend(enumerate_nfbfs(&circuit, kind).into_iter().map(Fault::from));
        }
        assert!(faults.len() > 8, "expected a non-trivial bridge universe");
        let serial = sweep_universe(&circuit, &faults, &with_parallelism(Parallelism::Serial));
        let sharded = sweep_universe(
            &circuit,
            &faults,
            &with_parallelism(Parallelism::Threads(4)),
        );
        // Bridges never collapse: classes == universe size.
        assert_eq!(serial.classes, faults.len());
        assert_bit_identical(&serial.summaries, &sharded.summaries);
    }

    #[test]
    fn more_workers_than_faults_degrades_gracefully() {
        let circuit = c17();
        let faults: Vec<Fault> = stuck_at_universe(&circuit).into_iter().take(3).collect();
        let sweep = sweep_universe(
            &circuit,
            &faults,
            &with_parallelism(Parallelism::Threads(64)),
        );
        assert_eq!(sweep.summaries.len(), 3);
        assert!(
            sweep.shards.len() <= 3,
            "never more workers than classes (got {})",
            sweep.shards.len()
        );
        assert_eq!(sweep.shards.iter().map(|s| s.faults_done).sum::<usize>(), 3);
    }

    #[test]
    fn empty_universe_yields_one_idle_worker() {
        let circuit = c17();
        let sweep = sweep_universe(&circuit, &[], &with_parallelism(Parallelism::Threads(4)));
        assert!(sweep.summaries.is_empty());
        assert_eq!(sweep.classes, 0);
        assert_eq!(sweep.shards.len(), 1);
        assert_eq!(sweep.shards[0].chunks_claimed, 0);
        assert_eq!(sweep.shards[0].classes_done, 0);
        assert_eq!(sweep.shards[0].faults_done, 0);
        assert!(sweep.is_complete());
    }

    #[test]
    fn shard_reports_cover_the_universe_and_carry_stats() {
        let circuit = c17();
        let faults = stuck_at_universe(&circuit);
        let sweep = sweep_universe(
            &circuit,
            &faults,
            &with_parallelism(Parallelism::Threads(2)),
        );
        assert_eq!(sweep.shards.len(), 2);
        assert_eq!(
            sweep.shards.iter().map(|s| s.faults_done).sum::<usize>(),
            faults.len()
        );
        assert_eq!(
            sweep.shards.iter().map(|s| s.classes_done).sum::<usize>(),
            sweep.classes,
            "every class is processed by exactly one worker"
        );
        assert!(sweep.shards.iter().map(|s| s.chunks_claimed).sum::<usize>() >= 1);
        for report in &sweep.shards {
            if report.chunks_claimed == 0 {
                // Starved worker: never built an engine, default counters.
                assert_eq!(report.faults_done, 0);
                continue;
            }
            // Every working shard built good functions and propagated.
            assert!(report.stats.unique.lookups > 0, "shard {}", report.shard);
            assert!(report.stats.peak_nodes > 2, "shard {}", report.shard);
        }
        let merged = sweep.merged_stats();
        assert_eq!(
            merged.unique.lookups,
            sweep
                .shards
                .iter()
                .map(|s| s.stats.unique.lookups)
                .sum::<u64>()
        );
    }

    #[test]
    fn threads_zero_behaves_like_one_worker() {
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        let circuit = c17();
        let faults = stuck_at_universe(&circuit);
        let sweep = sweep_universe(
            &circuit,
            &faults,
            &with_parallelism(Parallelism::Threads(0)),
        );
        assert_eq!(sweep.shards.len(), 1);
    }

    /// A fault referencing a net of a *different* circuit makes the engine
    /// panic (index out of bounds) — exactly the class of failure the sweep
    /// must contain to one equivalence class.
    fn foreign_fault() -> Fault {
        let alu = alu74181();
        Fault::from(checkpoint_faults(&alu).pop().expect("alu has faults"))
    }

    #[test]
    fn panicking_class_is_isolated_and_survivors_are_returned() {
        let circuit = c17();
        let mut faults = stuck_at_universe(&circuit);
        let healthy = faults.len();
        // Append a poisoned fault; it forms a singleton class, so exactly
        // one class is lost and every healthy fault survives.
        faults.push(foreign_fault());
        let sweep = sweep_universe(
            &circuit,
            &faults,
            &with_parallelism(Parallelism::Threads(2)),
        );
        assert!(!sweep.is_complete());
        let failed = sweep.failed_shards();
        assert_eq!(failed.len(), 1, "one worker saw the poisoned class");
        assert_eq!(failed[0].panics.len(), 1);
        assert!(
            failed[0].panics[0].0 != WORKER_PANIC,
            "panic attributed to a class"
        );
        // Every healthy fault's summary survives, bit-identical to a clean
        // serial run over the healthy universe.
        assert_eq!(sweep.summaries.len(), healthy);
        let clean = sweep_universe(&circuit, &faults[..healthy], &SweepConfig::default());
        assert_bit_identical(&clean.summaries, &sweep.summaries);
        assert_eq!(
            sweep.shards.iter().map(|s| s.faults_done).sum::<usize>(),
            healthy
        );
    }

    #[test]
    fn serial_panic_is_caught_too() {
        let circuit = c17();
        let faults = vec![foreign_fault()];
        let sweep = sweep_universe(&circuit, &faults, &with_parallelism(Parallelism::Serial));
        assert!(!sweep.is_complete());
        assert!(sweep.summaries.is_empty());
        assert_eq!(sweep.shards.len(), 1);
        assert_eq!(sweep.shards[0].panics.len(), 1);
    }

    #[test]
    fn worker_survives_a_panic_and_finishes_its_queue() {
        // Poison in the middle of a serial queue: everything before *and*
        // after must still be summarised (the engine is rebuilt).
        let circuit = c17();
        let mut faults = stuck_at_universe(&circuit);
        let healthy: Vec<Fault> = faults.clone();
        faults.insert(faults.len() / 2, foreign_fault());
        let sweep = sweep_universe(&circuit, &faults, &with_parallelism(Parallelism::Serial));
        assert!(!sweep.is_complete());
        assert_eq!(sweep.summaries.len(), healthy.len());
        let clean = sweep_universe(&circuit, &healthy, &with_parallelism(Parallelism::Serial));
        // Orders agree because merge is by global index and the poisoned
        // index simply drops out.
        for (s, c) in sweep.summaries.iter().zip(&clean.summaries) {
            assert_eq!(s.fault, c.fault);
            assert_eq!(s.test_count, c.test_count);
        }
    }

    /// A branch fault at c95's last gate whose stem is no net of c95: the
    /// engine panics on it, fused or alone.
    fn foreign_stem_fault(circuit: &Circuit) -> Fault {
        Fault::StuckAt(StuckAtFault {
            site: FaultSite::Branch(dp_netlist::FanoutBranch {
                stem: NetId::from_index(100_000),
                sink: circuit.gates().last().expect("c95 has gates"),
                pin: 0,
            }),
            value: false,
        })
    }

    /// `plan_batches` keeps the foreign-stem class singleton, so this packs
    /// it into a fused batch by hand: the fused pass panics, and the batch's
    /// per-class retry must run on a rebuilt engine, exact for every healthy
    /// class, with the poisoned class alone reported and skipped.
    #[test]
    fn fused_batch_panic_retries_on_a_rebuilt_engine() {
        let circuit = c95();
        let mut faults = stuck_at_universe(&circuit);
        let clean = sweep_universe(&circuit, &faults, &SweepConfig::default());
        faults.push(foreign_stem_fault(&circuit));
        let poisoned_fault = faults.len() - 1;
        let collapsed = collapse_faults(&circuit, &faults);
        let poisoned = collapsed.classes.len() - 1;
        assert_eq!(collapsed.classes[poisoned].members, [poisoned_fault]);
        let reach = Reachability::compute(&circuit);
        let mut batches = plan_batches(&faults, &collapsed.classes, &reach, 8);
        assert_eq!(batches.pop(), Some(vec![poisoned]), "kept singleton");
        let fused = batches.iter().position(|b| b.len() > 1).expect("c95 fuses");
        batches[fused].push(poisoned);
        let config = SweepConfig::default();
        let snapshot = DiffProp::build_snapshot(&circuit, config.engine).expect("c95 builds");
        let work = Work {
            circuit: &circuit,
            faults: &faults,
            classes: &collapsed.classes,
            batches: &batches,
            snapshot: Some(&snapshot),
            config: &config,
            next: AtomicUsize::new(0),
            chunk: 1,
        };
        let mut records = Vec::new();
        let mut skips = Vec::new();
        let report = run_worker(&work, 0, &mut |event| {
            records.extend(event.records);
            skips.extend(event.skips);
        });
        assert_eq!(report.panics.len(), 1, "{:?}", report.panics);
        assert_eq!(report.panics[0].0, poisoned);
        assert_eq!(skips, [poisoned_fault]);
        records.sort_by_key(|&(i, _)| i);
        let summaries: Vec<FaultSummary> = records.into_iter().map(|(_, s)| s).collect();
        assert!(summaries.iter().all(|s| s.outcome.is_exact()));
        assert_bit_identical(&clean.summaries, &summaries);
    }

    #[test]
    fn streamed_records_arrive_in_order_and_match_batch() {
        let circuit = c95();
        let faults = stuck_at_universe(&circuit);
        let batch = sweep_universe(&circuit, &faults, &SweepConfig::default());
        for threads in [1usize, 4] {
            let config = SweepConfig {
                parallelism: Parallelism::Threads(threads),
                ..Default::default()
            };
            let mut seen: Vec<(usize, FaultSummary)> = Vec::new();
            let streamed = sweep_universe_ext(
                &circuit,
                &faults,
                &config,
                None,
                Some(&mut |run: &[(usize, FaultSummary)]| seen.extend_from_slice(run)),
            );
            assert!(streamed.is_complete());
            assert_eq!(seen.len(), faults.len(), "threads={threads}");
            for (expect, (i, _)) in seen.iter().enumerate() {
                assert_eq!(*i, expect, "stream out of order at threads={threads}");
            }
            for ((_, s), b) in seen.iter().zip(&batch.summaries) {
                assert_eq!(s.fault, b.fault);
                assert_eq!(s.detectability.to_bits(), b.detectability.to_bits());
                assert_eq!(s.test_count, b.test_count);
                assert_eq!(s.adherence.map(f64::to_bits), b.adherence.map(f64::to_bits));
            }
            assert_bit_identical(&streamed.summaries, &batch.summaries);
        }
    }

    #[test]
    fn streamed_panicked_class_is_skipped_without_stalling() {
        let circuit = c17();
        let mut faults = stuck_at_universe(&circuit);
        let healthy = faults.len();
        faults.insert(faults.len() / 2, foreign_fault());
        // Serial runs the sweep inline on the calling thread; two threads
        // drain a channel. Both must step over the lost index.
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let mut seen: Vec<usize> = Vec::new();
            let sweep = sweep_universe_ext(
                &circuit,
                &faults,
                &with_parallelism(parallelism),
                None,
                Some(&mut |run: &[(usize, FaultSummary)]| seen.extend(run.iter().map(|&(i, _)| i))),
            );
            assert!(!sweep.is_complete(), "{parallelism:?}");
            // Every healthy index streamed exactly once, ascending; the
            // poisoned index is absent instead of blocking everything after.
            assert_eq!(seen.len(), healthy, "{parallelism:?}");
            assert!(
                seen.windows(2).all(|w| w[0] < w[1]),
                "not ascending: {seen:?}"
            );
            assert!(!seen.contains(&(faults.len() / 2)), "{parallelism:?}");
        }
    }

    #[test]
    fn warm_snapshot_sweep_builds_nothing_and_matches_batch() {
        let circuit = c95();
        let faults = stuck_at_universe(&circuit);
        let config = SweepConfig::default();
        let snapshot = DiffProp::build_snapshot(&circuit, config.engine).expect("c95 builds");
        let build_lookups = snapshot.build_stats().unique.lookups;
        assert!(build_lookups > 0);
        let cold = sweep_universe(&circuit, &faults, &config);
        let warm = sweep_universe_ext(&circuit, &faults, &config, Some(&snapshot), None);
        assert_bit_identical(&warm.summaries, &cold.summaries);
        // The warm sweep performed zero good-function builds: its merged
        // counters are thaw-only, i.e. the cold sweep's minus the build.
        let warm_lookups = warm.merged_stats().unique.lookups;
        let cold_lookups = cold.merged_stats().unique.lookups;
        assert_eq!(warm_lookups + build_lookups, cold_lookups);
    }

    #[test]
    fn tiny_budget_degrades_to_bounded_summaries() {
        let circuit = c95();
        let faults = stuck_at_universe(&circuit);
        let config = SweepConfig {
            engine: EngineConfig {
                // Too small for c95's good functions: every fault is estimated.
                budget: BudgetConfig::with_max_nodes(8),
                ..Default::default()
            },
            parallelism: Parallelism::Threads(2),
            fallback_samples: 512,
            ..Default::default()
        };
        let sweep = sweep_universe(&circuit, &faults, &config);
        assert!(sweep.is_complete(), "budget trips are not panics");
        assert_eq!(sweep.summaries.len(), faults.len());
        assert_eq!(sweep.num_bounded(), faults.len());
        for s in &sweep.summaries {
            assert_eq!(s.outcome, FaultOutcome::Bounded { samples: 512 });
            assert!((0.0..=1.0).contains(&s.detectability));
            assert_eq!(s.test_count, None);
            assert_eq!(s.adherence, None);
        }
    }

    #[test]
    fn bounded_estimates_are_thread_count_invariant() {
        let circuit = c95();
        let faults = stuck_at_universe(&circuit);
        let config = |parallelism| SweepConfig {
            engine: EngineConfig {
                budget: BudgetConfig::with_max_nodes(8),
                ..Default::default()
            },
            parallelism,
            ..Default::default()
        };
        let serial = sweep_universe(&circuit, &faults, &config(Parallelism::Serial));
        for n in [2, 3, 5] {
            let sharded = sweep_universe(&circuit, &faults, &config(Parallelism::Threads(n)));
            assert_bit_identical(&serial.summaries, &sharded.summaries);
        }
    }

    #[test]
    fn generous_budget_still_yields_exact_everywhere() {
        let circuit = c17();
        let faults = stuck_at_universe(&circuit);
        let unbudgeted = sweep_universe(&circuit, &faults, &with_parallelism(Parallelism::Serial));
        let budgeted = sweep_universe(
            &circuit,
            &faults,
            &SweepConfig {
                engine: EngineConfig {
                    budget: BudgetConfig::with_max_nodes(1 << 20),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert!(budgeted.summaries.iter().all(|s| s.outcome.is_exact()));
        assert_eq!(budgeted.num_bounded(), 0);
        assert_bit_identical(&unbudgeted.summaries, &budgeted.summaries);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let circuit = c95();
        let faults = stuck_at_universe(&circuit);
        let reference = sweep_universe(
            &circuit,
            &faults,
            &SweepConfig {
                batch: 1,
                ..Default::default()
            },
        );
        for (batch, threads) in [(2, 1), (8, 3), (1000, 2)] {
            let other = sweep_universe(
                &circuit,
                &faults,
                &SweepConfig {
                    batch,
                    parallelism: Parallelism::Threads(threads),
                    ..Default::default()
                },
            );
            assert_bit_identical(&reference.summaries, &other.summaries);
        }
    }

    #[test]
    fn planned_batches_are_a_disjoint_cover_of_the_classes() {
        let circuit = alu74181();
        let faults = stuck_at_universe(&circuit);
        let collapsed = collapse_faults(&circuit, &faults);
        let reach = Reachability::compute(&circuit);
        for max in [1, 2, 8, 64] {
            let batches = plan_batches(&faults, &collapsed.classes, &reach, max);
            // Cover: every class exactly once, in a deterministic plan.
            let mut seen: Vec<usize> = batches.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..collapsed.classes.len()).collect::<Vec<_>>());
            assert!(batches.iter().all(|b| !b.is_empty() && b.len() <= max));
            assert_eq!(
                batches,
                plan_batches(&faults, &collapsed.classes, &reach, max)
            );
            // Soundness: representatives inside a batch are pairwise
            // cone-disjoint.
            for b in &batches {
                for (i, &x) in b.iter().enumerate() {
                    for &y in &b[i + 1..] {
                        let fx = class_flow_net(&faults, &collapsed.classes[x], &reach).unwrap();
                        let fy = class_flow_net(&faults, &collapsed.classes[y], &reach).unwrap();
                        assert!(
                            reach.cones_disjoint(fx, fy),
                            "batch packs overlapping cones"
                        );
                    }
                }
            }
        }
        // max > 1 actually fuses something on a circuit this wide.
        let batches = plan_batches(&faults, &collapsed.classes, &reach, 8);
        assert!(batches.iter().any(|b| b.len() > 1), "no fusion on alu74181");
    }

    #[test]
    fn bridging_classes_are_never_batched() {
        let circuit = c95();
        let faults: Vec<Fault> = enumerate_nfbfs(&circuit, BridgeKind::And)
            .into_iter()
            .take(8)
            .map(Fault::from)
            .collect();
        let collapsed = collapse_faults(&circuit, &faults);
        let reach = Reachability::compute(&circuit);
        let batches = plan_batches(&faults, &collapsed.classes, &reach, 8);
        assert!(batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn shared_snapshot_base_is_immutable_across_workers() {
        let circuit = c95();
        let snapshot = DiffProp::build_snapshot(&circuit, EngineConfig::default()).unwrap();
        let digest = snapshot.table_digest();
        let nodes = snapshot.num_nodes();
        let faults = stuck_at_universe(&circuit);
        // Two engines hammer the same frozen base concurrently-in-spirit:
        // each allocates delta nodes and garbage-collects, neither may move
        // or rewrite a base node.
        for _ in 0..2 {
            let mut dp = DiffProp::from_snapshot(&circuit, &snapshot, EngineConfig::default());
            for f in &faults {
                let _ = dp.analyze(f);
            }
        }
        assert_eq!(snapshot.table_digest(), digest, "frozen base mutated");
        assert_eq!(snapshot.num_nodes(), nodes);
    }

    #[test]
    fn sweep_reports_the_build_sift_and_nothing_else() {
        use crate::{GoodFunctions, OrderStrategy};
        let sweep = |circuit: &Circuit, order: OrderStrategy| {
            let faults: Vec<Fault> = stuck_at_universe(circuit).into_iter().take(8).collect();
            let config = SweepConfig {
                engine: EngineConfig {
                    order,
                    ..Default::default()
                },
                ..Default::default()
            };
            sweep_universe(circuit, &faults, &config).totals
        };
        // c1908s's build is over SIFT_TABLE_FLOOR: Auto sifts it once, and
        // the sweep reports exactly what that sift reclaimed and swapped.
        let c = c1908_surrogate();
        let mut good = GoodFunctions::build_with_order(&c, &OrderStrategy::Auto.resolve(&c));
        let (before, after) = good.sift();
        assert!(after < before);
        let auto = sweep(&c, OrderStrategy::Auto);
        assert_eq!(auto.counter(CounterKind::SiftRuns), 1);
        assert_eq!(
            auto.counter(CounterKind::SiftNodesReclaimed),
            (before - after) as u64
        );
        assert_eq!(
            auto.counter(CounterKind::SiftSwaps),
            good.manager().stats().sift_swaps
        );
        // Static orders never sift, and neither does Auto below the floor.
        let fanin = sweep(&c, OrderStrategy::FaninDfs);
        let small = sweep(&c432_surrogate(), OrderStrategy::Auto);
        for totals in [fanin, small] {
            assert_eq!(totals.counter(CounterKind::SiftRuns), 0);
            assert_eq!(totals.counter(CounterKind::SiftNodesReclaimed), 0);
            assert_eq!(totals.counter(CounterKind::SiftSwaps), 0);
        }
    }

    #[test]
    fn shared_mode_attributes_base_hits() {
        let circuit = c95();
        let faults = stuck_at_universe(&circuit);
        let shared = sweep_universe(
            &circuit,
            &faults,
            &SweepConfig {
                parallelism: Parallelism::Threads(2),
                ..Default::default()
            },
        );
        let merged = shared.merged_stats();
        assert!(merged.base_hits > 0, "workers never probed the frozen base");
        assert_eq!(
            merged.unique.lookups,
            merged.base_hits + merged.delta_lookups
        );
    }
}
