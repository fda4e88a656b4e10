//! The batch workloads: warm serial sweeps over prebuilt snapshots, plus
//! in-process point queries (thaw, analyze, bound) on one circuit.
//!
//! * `stuck-iscas` — checkpoint stuck-at faults: the full universes of
//!   alu74181 and c432s, every 12th 32-fault slice of c499s and c1908s.
//!   Collapse, cone-disjoint batching and the batched stuck-at propagation
//!   do the work, with small BDD tables.
//! * `models-sampled` — seeded NFBF, feedback-bridge and double stuck-at
//!   samples on alu74181, c432s and c1908s: every class is a singleton, so
//!   collapse and batching are bypassed and bridge setup, multi-site
//!   composition and the ternary fixpoint do the work.

use std::time::Instant;

use dp_analysis::fault_model_universe;
use dp_core::{
    plan_batches, summaries_digest, summary_line, sweep_report, sweep_universe_ext, DiffProp,
    EngineConfig, FaultSummary, GoodSnapshot, OrderStrategy, Parallelism, SweepConfig, SweepResult,
    TelemetryLevel,
};
use dp_faults::{checkpoint_faults, collapse_faults, Fault};
use dp_netlist::{generators, Circuit, Reachability};
use dp_telemetry::{fnv1a64, report_to_json};

use crate::replica::{self, probes, ReplicaPass};
use crate::stats::{best, mean, median, percentile};
use crate::trace::{self, Tracer};
use crate::{Args, Metric, Outcome, Rng, SETUPS};

/// Rounds every run measures at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Distinct point queries per run; each round asks every one once.
const POINTS: usize = 8;
/// Seed of the fault samples. The samples are fixed, so every run does
/// the same work and its counters repeat exactly; `--seed` drives the
/// schedule (unit order per round, point-query order) instead.
const SAMPLE_SEED: u64 = 1990;
/// Faults per sweep call and the stride over the resulting slices. Host
/// speed changes in phases, so the long passes of c499s and c1908s are cut
/// into calls short enough to repeat many times in a run, and only every
/// 12th 32-fault slice runs. Contiguous slices keep the equivalent faults
/// collapse merges and the cone-disjoint classes batching packs, but only
/// within a slice.
fn slicing(kind: Batch, circuit: usize) -> (usize, usize) {
    match kind {
        Batch::StuckIscas if circuit >= 2 => (32, 12),
        Batch::StuckIscas | Batch::ModelsSampled => (usize::MAX, 1),
    }
}

/// `models-sampled`: per model, the sample size on alu74181, c432s, c1908s.
const MODEL_SAMPLES: [(&str, [usize; 3]); 4] = [
    ("nfbf-and", [48, 48, 12]),
    ("nfbf-or", [48, 48, 12]),
    ("fbridge-and", [24, 24, 6]),
    ("multi", [48, 48, 12]),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    StuckIscas,
    ModelsSampled,
}

impl Batch {
    pub fn parse(name: &str) -> Option<Batch> {
        match name {
            "stuck-iscas" => Some(Batch::StuckIscas),
            "models-sampled" => Some(Batch::ModelsSampled),
            _ => None,
        }
    }

    fn circuits(self) -> Vec<Circuit> {
        match self {
            Batch::StuckIscas => vec![
                generators::alu74181(),
                generators::c432_surrogate(),
                generators::c499_surrogate(),
                generators::c1908_surrogate(),
            ],
            Batch::ModelsSampled => vec![
                generators::alu74181(),
                generators::c432_surrogate(),
                generators::c1908_surrogate(),
            ],
        }
    }

    /// The circuit (index) and model the point queries draw from. One
    /// model on one circuit keeps the latency population homogeneous.
    fn point_source(self) -> (usize, &'static str) {
        match self {
            Batch::StuckIscas => (3, "stuck"),
            Batch::ModelsSampled => (2, "multi"),
        }
    }

    /// The digest over every unit's summaries digest, pinned in the
    /// source. The fault lists do not depend on `--seed`, so it holds at
    /// every seed.
    fn pinned_digest(self) -> u64 {
        match self {
            Batch::StuckIscas => 0xa1a8_3c2a_2006_24d8,
            Batch::ModelsSampled => 0xd4a5_0c78_aace_69e5,
        }
    }

    /// Per-circuit fault lists, in a fixed order.
    fn units(self, tracer: &mut Tracer, circuits: &[Circuit]) -> Vec<Unit> {
        let mut units = Vec::new();
        let mut push = |tracer: &mut Tracer, circuit: usize, model: &'static str, make: &dyn Fn() -> Vec<Fault>| {
            let s = tracer.enter("faults.enumerate", circuits[circuit].name());
            let faults = make();
            tracer.exit(s, None);
            units.push(Unit {
                circuit,
                model,
                faults,
                classes: 0,
            });
        };
        match self {
            Batch::StuckIscas => {
                for (i, c) in circuits.iter().enumerate() {
                    push(tracer, i, "stuck", &|| checkpoint_faults(c).into_iter().map(Fault::from).collect());
                }
            }
            Batch::ModelsSampled => {
                for (i, c) in circuits.iter().enumerate() {
                    for (m, &(model, sizes)) in MODEL_SAMPLES.iter().enumerate() {
                        let sub_seed = Rng::new(SAMPLE_SEED ^ ((i * 16 + m) as u64) << 32).next();
                        push(tracer, i, model, &|| {
                            fault_model_universe(c, model, Some(sizes[i]), sub_seed)
                                .expect("known fault model")
                        });
                    }
                }
            }
        }
        units
    }
}

/// One index drawn uniformly from each of `count` equal strata of
/// `0..len`, ascending: a seeded sample that keeps the universe's spread
/// of fault sites, so per-seed work varies little.
pub fn stratified(rng: &mut Rng, len: usize, count: usize) -> Vec<usize> {
    let count = count.min(len);
    (0..count)
        .map(|k| {
            let (lo, hi) = (k * len / count, (k + 1) * len / count);
            lo + rng.below(hi - lo)
        })
        .collect()
}

/// One sweep call's input: a fault list on one circuit.
struct Unit {
    circuit: usize,
    model: &'static str,
    faults: Vec<Fault>,
    classes: usize,
}

struct Setup {
    circuits: Vec<Circuit>,
    units: Vec<Unit>,
    snapshots: Vec<GoodSnapshot>,
    sift_runs: u64,
}

/// The sweep configuration every batch workload uses: the CLI default
/// order (`auto`), serial unless `--threads` asks otherwise.
pub fn sweep_config(threads: usize, telemetry: TelemetryLevel) -> SweepConfig {
    SweepConfig {
        engine: EngineConfig {
            order: OrderStrategy::Auto,
            ..Default::default()
        },
        parallelism: if threads > 1 {
            Parallelism::Threads(threads)
        } else {
            Parallelism::Serial
        },
        telemetry,
        ..Default::default()
    }
}

fn setup(kind: Batch, config: &SweepConfig, tracer: &mut Tracer) -> Setup {
    let s = tracer.enter("netlist.compile", "*");
    let circuits = kind.circuits();
    tracer.exit(s, None);
    let mut units: Vec<Unit> = kind
        .units(tracer, &circuits)
        .into_iter()
        .flat_map(|u| {
            let (len, stride) = slicing(kind, u.circuit);
            u.faults
                .chunks(len)
                .step_by(stride)
                .map(|f| Unit {
                    faults: f.to_vec(),
                    ..u
                })
                .collect::<Vec<_>>()
        })
        .collect();
    for unit in &mut units {
        let circuit = &circuits[unit.circuit];
        let s = tracer.enter("faults.collapse", circuit.name());
        let collapsed = collapse_faults(circuit, &unit.faults);
        tracer.exit(s, None);
        let s = tracer.enter("netlist.reach", circuit.name());
        let reach = Reachability::compute(circuit);
        tracer.exit(s, None);
        let s = tracer.enter("parallel.plan", circuit.name());
        plan_batches(&unit.faults, &collapsed.classes, &reach, config.batch);
        tracer.exit(s, None);
        unit.classes = collapsed.classes.len();
    }
    let mut sift_runs = 0;
    let snapshots = circuits
        .iter()
        .map(|c| {
            if tracer.enabled() {
                let (snapshot, sifted) = replica::traced_build(tracer, c, config);
                sift_runs += u64::from(sifted);
                snapshot
            } else {
                DiffProp::build_snapshot(c, config.engine).expect("an unlimited budget never trips")
            }
        })
        .collect();
    Setup {
        circuits,
        units,
        snapshots,
        sift_runs,
    }
}

/// What a unit's first warm pass produced; later passes must repeat it.
struct Reference {
    digest: u64,
    probes: u64,
    result: SweepResult,
}

impl Reference {
    fn new(result: SweepResult) -> Reference {
        Reference {
            digest: summaries_digest(&result.summaries),
            probes: probes(&result.merged_stats()),
            result,
        }
    }
}

fn warm(setup: &Setup, u: usize, config: &SweepConfig) -> SweepResult {
    let unit = &setup.units[u];
    sweep_universe_ext(
        &setup.circuits[unit.circuit],
        &unit.faults,
        config,
        Some(&setup.snapshots[unit.circuit]),
        None,
    )
}

/// Problems with a sweep result against its reference, if any.
fn check(result: &SweepResult, faults: usize, reference: Option<&Reference>) -> Option<String> {
    if !result.is_complete() || result.summaries.len() != faults {
        return Some(format!("{} of {faults} summaries", result.summaries.len()));
    }
    if result.num_bounded() > 0 {
        return Some(format!("{} budget-bounded summaries", result.num_bounded()));
    }
    let reference = reference?;
    let digest = summaries_digest(&result.summaries);
    let p = probes(&result.merged_stats());
    (digest != reference.digest || p != reference.probes).then(|| {
        format!(
            "digest {digest:016x} / probes {p} against {:016x} / {}",
            reference.digest, reference.probes
        )
    })
}

/// An in-process point query: thaw, analyze, bound.
fn point_query(
    tracer: &mut Tracer,
    circuit: &Circuit,
    snapshot: &GoodSnapshot,
    config: &SweepConfig,
    fault: &Fault,
) -> FaultSummary {
    let name = circuit.name();
    let root = tracer.enter("point", name);
    let s = tracer.enter("good.thaw", name);
    let mut dp = DiffProp::from_snapshot(circuit, snapshot, config.engine);
    tracer.exit(s, None);
    let span = if tracer.enabled() {
        replica::engine_span(fault, &Reachability::compute(circuit))
    } else {
        "engine"
    };
    let s = tracer.enter(span, name);
    let analysis = dp.try_analyze(fault).expect("an unlimited budget never trips");
    tracer.exit(s, Some(probes(dp.good().manager().stats())));
    let s = tracer.enter("engine.bound", name);
    let bound = dp.detectability_bound(fault);
    tracer.exit(s, None);
    tracer.exit(root, None);
    replica::summary(fault.clone(), &analysis, bound)
}

pub fn run(kind: Batch, args: &Args) -> Outcome {
    let config = sweep_config(args.threads, TelemetryLevel::default());
    let mut out = Outcome::default();
    let mut tracer = if args.trace { Tracer::default() } else { Tracer::off() };

    // Set up several times and keep the last: `setup_s` is their median.
    // A traced run traces the first set-up and checks that its replicated
    // snapshot builds match the plain ones.
    let mut setup_s = Vec::new();
    let mut table_digests: Vec<Vec<u64>> = Vec::new();
    let mut sift_runs = 0;
    let mut kept: Option<Setup> = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let mut off = Tracer::off();
        let t0 = Instant::now();
        let s = setup(kind, &config, if i == 0 { &mut tracer } else { &mut off });
        setup_s.push(t0.elapsed().as_secs_f64());
        table_digests.push(s.snapshots.iter().map(GoodSnapshot::table_digest).collect());
        sift_runs = sift_runs.max(s.sift_runs);
        kept = Some(s);
    }
    let setup = kept.expect("at least one set-up");
    if table_digests.iter().any(|d| *d != table_digests[0]) {
        out.error("snapshot builds differ between set-ups".to_string());
    }
    let faults_per_pass: usize = setup.units.iter().map(|u| u.faults.len()).sum();

    // The first (timed) pass of each unit is the reference every later
    // pass must repeat.
    let mut refs: Vec<Option<Reference>> = (0..setup.units.len()).map(|_| None).collect();

    let (point_circuit, point_model) = kind.point_source();
    let candidates: Vec<(usize, usize)> = setup
        .units
        .iter()
        .enumerate()
        .filter(|(_, unit)| unit.circuit == point_circuit && unit.model == point_model)
        .flat_map(|(u, unit)| (0..unit.faults.len()).map(move |f| (u, f)))
        .collect();
    let points: Vec<(usize, usize)> = stratified(&mut Rng::new(SAMPLE_SEED), candidates.len(), POINTS)
        .into_iter()
        .map(|i| candidates[i])
        .collect();
    let mut point_ms: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut rng = Rng::new(args.seed);

    let n_units = setup.units.len();
    let mut pass_s: Vec<Vec<f64>> = vec![Vec::new(); n_units];
    let mut off_s: Vec<Vec<f64>> = vec![Vec::new(); n_units];
    let mut replica_s: Vec<Vec<f64>> = vec![Vec::new(); n_units];
    let mut replicas: Vec<ReplicaPass> = Vec::new();
    let mut report_ms = Vec::new();
    let off_config = sweep_config(args.threads, TelemetryLevel::Off);
    let t_start = Instant::now();
    let mut round = 0;
    loop {
        round += 1;
        let mut order: Vec<usize> = (0..n_units).collect();
        rng.shuffle(&mut order);
        for &u in &order {
            let t0 = Instant::now();
            let result = warm(&setup, u, &config);
            pass_s[u].push(t0.elapsed().as_secs_f64());
            out.attempted += setup.units[u].faults.len() as u64;
            if let Some(e) = check(&result, setup.units[u].faults.len(), refs[u].as_ref()) {
                out.failed += setup.units[u].faults.len() as u64;
                out.error(format!("{}: {e}", unit_label(&setup, u)));
            }
            if args.trace {
                let t0 = Instant::now();
                let report = sweep_report(
                    setup.circuits[setup.units[u].circuit].name(),
                    setup.units[u].model,
                    &result,
                );
                std::hint::black_box(report_to_json(&report).to_compact_string());
                report_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            let reference = &*refs[u].get_or_insert_with(|| Reference::new(result));
            if args.trace {
                let t0 = Instant::now();
                let off = warm(&setup, u, &off_config);
                off_s[u].push(t0.elapsed().as_secs_f64());
                if let Some(e) = check(&off, setup.units[u].faults.len(), Some(reference)) {
                    out.error(format!("{} with telemetry off: {e}", unit_label(&setup, u)));
                }
                tracer.set_round(round as u32);
                let unit = &setup.units[u];
                let t0 = Instant::now();
                let rep = replica::traced_sweep(
                    &mut tracer,
                    &setup.circuits[unit.circuit],
                    &unit.faults,
                    &config,
                    &setup.snapshots[unit.circuit],
                );
                replica_s[u].push(t0.elapsed().as_secs_f64());
                if rep.digest != reference.digest || probes(&rep.stats) != reference.probes {
                    out.error(format!(
                        "{}: traced replica digest {:016x} / probes {} against {:016x} / {}",
                        unit_label(&setup, u),
                        rep.digest,
                        probes(&rep.stats),
                        reference.digest,
                        reference.probes
                    ));
                }
                if round == 1 {
                    replicas.push(rep);
                }
            }
        }
        let mut order: Vec<usize> = (0..points.len()).collect();
        rng.shuffle(&mut order);
        let circuit = &setup.circuits[point_circuit];
        let snapshot = &setup.snapshots[point_circuit];
        for &p in &order {
            let (u, f) = points[p];
            let fault = &setup.units[u].faults[f];
            let t0 = Instant::now();
            let got = point_query(&mut Tracer::off(), circuit, snapshot, &config, fault);
            point_ms[p].push(t0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            let expected = &refs[u].as_ref().expect("units run before points").result.summaries[f];
            if summary_line(f, &got) != summary_line(f, expected) {
                out.failed += 1;
                out.error(format!("point query on {} differs from the sweep: {fault}", circuit.name()));
            }
            if args.trace {
                point_query(&mut tracer, circuit, snapshot, &config, fault);
            }
        }
        if round >= MIN_ROUNDS && t_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let refs: Vec<Reference> = refs.into_iter().map(|r| r.expect("every unit ran")).collect();
    let digest_lines: String = (0..refs.len())
        .map(|u| format!("{}\t{:016x}\n", unit_label(&setup, u), refs[u].digest))
        .collect();
    let workload_digest = fnv1a64(digest_lines.as_bytes());
    eprintln!("workload digest {workload_digest:016x}");

    let pinned = kind.pinned_digest();
    if workload_digest != pinned {
        out.failed += faults_per_pass as u64;
        out.error(format!("workload digest {workload_digest:016x}, pinned {pinned:016x}"));
    }

    let pass: f64 = pass_s.iter().map(|v| best(v)).sum();
    let point_best: Vec<f64> = point_ms.iter().map(|v| best(v)).collect();
    let all_point_ms: Vec<f64> = point_ms.concat();
    for (u, times) in pass_s.iter().enumerate() {
        let unit = &setup.units[u];
        let label = format!("pass_ms {}#{u} ({} faults, {} classes)", unit_label(&setup, u), unit.faults.len(), unit.classes);
        out.samples.push((label, times.iter().map(|t| t * 1e3).collect()));
    }
    for (p, times) in point_ms.iter().enumerate() {
        out.samples.push((format!("point_ms #{p}"), times.clone()));
    }
    out.samples.push(("setup_s".to_string(), setup_s.clone()));
    let total_probes: u64 = refs.iter().map(|r| r.probes).sum();
    let samples = pass_s[0].len();
    let all_pass_s: Vec<f64> = (0..samples).map(|r| pass_s.iter().map(|v| v[r]).sum()).collect();
    out.e2e = vec![
        Metric::new("setup_s", "s", median(&setup_s), setup_s.len()),
        Metric::new("faults_per_s", "1/s", faults_per_pass as f64 / pass, samples),
        Metric::new("bdd_probes", "count", total_probes as f64, 1),
        Metric::new("peak_heap_mib", "MiB", crate::peak_heap_mib(), 1),
        Metric::new("point_best_ms", "ms", mean(&point_best), all_point_ms.len()),
    ];
    out.extra = vec![
        Metric::new("faults_per_pass", "count", faults_per_pass as f64, 1),
        Metric::new("pass_p50_s", "s", median(&all_pass_s), samples),
    ];
    out.extra.extend(percentiles("point", &all_point_ms));
    if args.trace {
        out.layers = layers(&setup, sift_runs, &refs, &replicas, &tracer, &pass_s, &off_s, &replica_s, &report_ms);
        out.trace_jsonl = tracer.to_jsonl(&args.workload);
    }
    out
}

fn unit_label(setup: &Setup, u: usize) -> String {
    let unit = &setup.units[u];
    format!("{}/{}", setup.circuits[unit.circuit].name(), unit.model)
}

#[allow(clippy::too_many_arguments)]
fn layers(
    setup: &Setup,
    sift_runs: u64,
    refs: &[Reference],
    replicas: &[ReplicaPass],
    tracer: &Tracer,
    pass_s: &[Vec<f64>],
    off_s: &[Vec<f64>],
    replica_s: &[Vec<f64>],
    report_ms: &[f64],
) -> Vec<Metric> {
    let spans = tracer.spans();
    let by_round = trace::self_seconds_by_round(spans);
    let rounds: Vec<u32> = {
        let mut r: Vec<u32> = spans.iter().map(|s| s.round).filter(|&r| r > 0).collect();
        r.dedup();
        r
    };
    // Median over rounds of a layer's per-round self time.
    let per_pass = |name: &str| {
        let xs: Vec<f64> = rounds
            .iter()
            .map(|&r| by_round.get(&(r, name)).copied().unwrap_or(0.0))
            .collect();
        median(&xs)
    };
    let in_setup = |name: &str| by_round.get(&(0, name)).copied().unwrap_or(0.0);
    let self_ns = trace::self_times(spans);
    let call_ms = |name: &str| {
        let xs: Vec<f64> = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name && s.round > 0)
            .map(|(_, &t)| t as f64 * 1e-6)
            .collect();
        median(&xs)
    };
    let stats = refs
        .iter()
        .map(|r| r.result.merged_stats())
        .fold(dp_bdd::ManagerStats::default(), |acc, s| acc.merged(&s));
    let op = stats.op_cumulative_total();
    let faults: usize = setup.units.iter().map(|u| u.faults.len()).sum();
    let classes: usize = replicas.iter().map(|r| r.classes).sum();
    let propagations: usize = replicas.iter().map(|r| r.propagations).sum();
    let sum_best = |xs: &[Vec<f64>]| xs.iter().map(|v| best(v)).sum::<f64>();
    let (pass, off, traced) = (sum_best(pass_s), sum_best(off_s), sum_best(replica_s));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        Metric::new("netlist.reach_ms", "ms", call_ms("netlist.reach"), 0),
        Metric::new("faults.enumerate_s", "s", in_setup("faults.enumerate"), 1),
        Metric::new("faults.collapse_s", "s", per_pass("faults.collapse"), rounds.len()),
        Metric::new("faults.classes_per_fault", "ratio", ratio(classes as u64, faults as u64), 1),
        Metric::new("good.build_s", "s", in_setup("good.build") + in_setup("good.sift") + in_setup("good.gc"), 1),
        Metric::new("good.sift_s", "s", in_setup("good.sift"), 1),
        Metric::new(
            "good.base_nodes",
            "count",
            setup.snapshots.iter().map(|s| s.num_nodes()).sum::<usize>() as f64,
            1,
        ),
        Metric::new("good.thaw_ms", "ms", call_ms("good.thaw"), 0),
        Metric::new("parallel.plan_s", "s", per_pass("parallel.plan"), rounds.len()),
        Metric::new(
            "parallel.classes_per_propagation",
            "ratio",
            ratio(classes as u64, propagations as u64),
            1,
        ),
        Metric::new("engine.stuck_s", "s", per_pass("engine.stuck"), rounds.len()),
        Metric::new("engine.nfbf_s", "s", per_pass("engine.nfbf"), rounds.len()),
        Metric::new("engine.fbridge_s", "s", per_pass("engine.fbridge"), rounds.len()),
        Metric::new("engine.multi_s", "s", per_pass("engine.multi"), rounds.len()),
        Metric::new("engine.bound_s", "s", per_pass("engine.bound"), rounds.len()),
        Metric::new(
            "engine.gates_propagated",
            "count",
            replicas.iter().map(|r| r.gates_propagated).sum::<u64>() as f64,
            1,
        ),
        Metric::new(
            "engine.fixpoint_iters",
            "count",
            replicas.iter().map(|r| r.fixpoint_iterations).sum::<u64>() as f64,
            1,
        ),
        Metric::new("bdd.unique_lookups", "count", stats.unique.lookups as f64, 1),
        Metric::new("bdd.unique_hit_rate", "ratio", ratio(stats.unique.hits, stats.unique.lookups), 1),
        Metric::new("bdd.base_hit_frac", "ratio", ratio(stats.base_hits, stats.unique.lookups), 1),
        Metric::new("bdd.op_lookups", "count", op.lookups as f64, 1),
        Metric::new("bdd.op_hit_rate", "ratio", ratio(op.hits, op.lookups), 1),
        Metric::new("bdd.gc_runs", "count", stats.gc_runs as f64, 1),
        Metric::new("bdd.sift_runs", "count", sift_runs as f64, 1),
        Metric::new("bdd.peak_nodes", "count", stats.peak_nodes as f64, 1),
        Metric::new("telemetry.report_ms", "ms", median(report_ms), report_ms.len()),
        Metric::new("telemetry.overhead_frac", "ratio", (pass - off) / off, pass_s[0].len()),
        Metric::new("trace.overhead_frac", "ratio", (traced - pass) / pass, pass_s[0].len()),
    ]
}

/// `NAME_p50_ms` and `NAME_p90_ms` over raw latencies, each only where at
/// least ten samples lie beyond it.
pub fn percentiles(name: &str, ms: &[f64]) -> Vec<Metric> {
    [(50.0, "p50"), (90.0, "p90")]
        .iter()
        .filter_map(|&(p, tag)| {
            let v = percentile(ms, p)?;
            Some(Metric::new(format!("{name}_{tag}_ms"), "ms", v, ms.len()))
        })
        .collect()
}
