//! The traced replica of a warm `sweep_universe_ext` call: the same public
//! calls a serial sweep worker makes, in the same order, each wrapped in a
//! span. It must reproduce the sweep's summaries digest and BDD probe
//! count exactly; the benchmark checks both on every traced pass.

use dp_bdd::ManagerStats;
use dp_core::{
    plan_batches, summaries_digest, DiffProp, FaultAnalysis, FaultOutcome, FaultSummary,
    GoodFunctions, GoodSnapshot, SweepConfig,
};
use dp_faults::{collapse_faults, Fault, StuckAtFault};
use dp_netlist::{Circuit, Reachability};
use dp_telemetry::Collector;

use crate::trace::Tracer;

/// Unique-table plus cumulative op-cache lookups: the exact work counter
/// behind `bdd_probes`.
pub fn probes(stats: &ManagerStats) -> u64 {
    stats.unique.lookups + stats.op_cumulative_total().lookups
}

/// What one replicated sweep did.
#[derive(Debug, Clone)]
pub struct ReplicaPass {
    pub digest: u64,
    pub stats: ManagerStats,
    pub classes: usize,
    /// Propagation passes run: one per fused batch or singleton class.
    pub propagations: usize,
    pub gates_propagated: u64,
    pub fixpoint_iterations: u64,
}

/// The span an analysis of `fault` is recorded under.
pub fn engine_span(fault: &Fault, reach: &Reachability) -> &'static str {
    match fault {
        Fault::StuckAt(_) => "engine.stuck",
        Fault::Bridging(b) if reach.reaches(b.a, b.b) || reach.reaches(b.b, b.a) => "engine.fbridge",
        Fault::Bridging(_) => "engine.nfbf",
        Fault::MultiStuckAt(_) => "engine.multi",
    }
}

/// Replays a serial warm sweep of `faults` over `snapshot` (collapse on,
/// shared-snapshot manager, fault-free budget) under `tracer`.
pub fn traced_sweep(
    tracer: &mut Tracer,
    circuit: &Circuit,
    faults: &[Fault],
    config: &SweepConfig,
    snapshot: &GoodSnapshot,
) -> ReplicaPass {
    let name = circuit.name();
    let unit = tracer.enter("sweep", name);
    let s = tracer.enter("faults.collapse", name);
    let collapsed = collapse_faults(circuit, faults);
    tracer.exit(s, None);
    let classes = &collapsed.classes;
    let s = tracer.enter("netlist.reach", name);
    let reach = Reachability::compute(circuit);
    tracer.exit(s, None);
    let batches: Vec<Vec<usize>> = if config.batch > 1 && !classes.is_empty() {
        let s = tracer.enter("parallel.plan", name);
        let planned = plan_batches(faults, classes, &reach, config.batch);
        tracer.exit(s, None);
        planned
    } else {
        (0..classes.len()).map(|c| vec![c]).collect()
    };
    let s = tracer.enter("good.thaw", name);
    let mut dp = DiffProp::from_snapshot(circuit, snapshot, config.engine);
    dp.attach_collector(Collector::shared(config.telemetry));
    tracer.exit(s, Some(probes(dp.good().manager().stats())));

    let mut out: Vec<(usize, FaultSummary)> = Vec::with_capacity(faults.len());
    let (mut propagations, mut gates, mut iterations) = (0usize, 0u64, 0u64);
    for batch in &batches {
        propagations += 1;
        if batch.len() > 1 {
            let reps: Vec<StuckAtFault> = batch
                .iter()
                .map(|&c| match &faults[classes[c].representative] {
                    Fault::StuckAt(f) => *f,
                    _ => unreachable!("plan_batches packs stuck-at classes only"),
                })
                .collect();
            let s = tracer.enter("engine.stuck", name);
            let analyses = dp
                .try_analyze_stuck_at_batch(&reps)
                .expect("an unlimited budget never trips");
            tracer.exit(s, Some(probes(dp.good().manager().stats())));
            // A fused batch reports its shared sweep's count on every member.
            gates += u64::from(analyses[0].gates_propagated);
            for (&c, analysis) in batch.iter().zip(&analyses) {
                expand(tracer, &mut dp, faults, &classes[c].members, analysis, &mut out);
            }
        } else {
            let class = &classes[batch[0]];
            let rep = &faults[class.representative];
            let s = tracer.enter(engine_span(rep, &reach), name);
            let analysis = dp.try_analyze(rep).expect("an unlimited budget never trips");
            tracer.exit(s, Some(probes(dp.good().manager().stats())));
            gates += u64::from(analysis.gates_propagated);
            iterations += u64::from(analysis.fixpoint_iterations);
            expand(tracer, &mut dp, faults, &class.members, &analysis, &mut out);
        }
    }
    out.sort_by_key(|&(i, _)| i);
    let summaries: Vec<FaultSummary> = out.into_iter().map(|(_, s)| s).collect();
    let stats = dp.good().manager().stats().clone();
    tracer.exit(unit, Some(probes(&stats)));
    ReplicaPass {
        digest: summaries_digest(&summaries),
        stats,
        classes: classes.len(),
        propagations,
        gates_propagated: gates,
        fixpoint_iterations: iterations,
    }
}

/// One summary per class member; adherence uses each member's own bound.
fn expand(
    tracer: &mut Tracer,
    dp: &mut DiffProp<'_>,
    faults: &[Fault],
    members: &[usize],
    analysis: &FaultAnalysis,
    out: &mut Vec<(usize, FaultSummary)>,
) {
    for &m in members {
        let fault = faults[m].clone();
        let s = tracer.enter("engine.bound", dp.circuit().name());
        let bound = dp.detectability_bound(&fault);
        tracer.exit(s, None);
        out.push((m, summary(fault, analysis, bound)));
    }
}

/// The sweep's per-fault record for an exact analysis.
pub fn summary(fault: Fault, analysis: &FaultAnalysis, bound: Option<f64>) -> FaultSummary {
    FaultSummary {
        fault,
        detectability: analysis.detectability,
        test_count: analysis.test_count,
        observable_outputs: analysis.observable_outputs.clone(),
        site_function_constant: analysis.site_function_constant,
        adherence: bound.and_then(|u| (u > 0.0).then(|| analysis.detectability / u)),
        outcome: if analysis.oscillation_density > 0.0 {
            FaultOutcome::Oscillating {
                density_bits: analysis.oscillation_density.to_bits(),
            }
        } else {
            FaultOutcome::Exact
        },
    }
}

/// Tables smaller than this are collected, not sifted, before the freeze
/// (the engine's own floor; a drift shows as a snapshot digest mismatch).
const SIFT_TABLE_FLOOR: usize = 1 << 12;

/// Replays `DiffProp::build_snapshot` with the build, the static sift (or
/// collection) and the freeze in separate spans. Returns the snapshot and
/// whether it was sifted.
pub fn traced_build(
    tracer: &mut Tracer,
    circuit: &Circuit,
    config: &SweepConfig,
) -> (GoodSnapshot, bool) {
    let name = circuit.name();
    let engine = config.engine;
    let s = tracer.enter("good.build", name);
    let mut good = GoodFunctions::try_build_with_order(
        circuit,
        &engine.order.resolve(circuit),
        engine.budget,
    )
    .expect("an unlimited budget never trips");
    tracer.exit(s, Some(probes(good.manager().stats())));
    let sifted = engine.order.autosifts() && good.num_nodes() > SIFT_TABLE_FLOOR;
    let s = tracer.enter(if sifted { "good.sift" } else { "good.gc" }, name);
    if sifted {
        good.sift();
    } else {
        good.gc();
    }
    tracer.exit(s, Some(probes(good.manager().stats())));
    let s = tracer.enter("good.freeze", name);
    let snapshot = good.freeze();
    tracer.exit(s, None);
    (snapshot, sifted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{sweep_universe_ext, DiffProp};
    use dp_faults::{checkpoint_faults, enumerate_bridges, BridgeKind, BridgeTopology, MultiStuckAt};
    use dp_netlist::generators::{c17, c95};
    use std::time::Instant;

    /// Stuck-at (batched and singleton), both bridge topologies and a
    /// double fault: every path the replica takes.
    fn universe(circuit: &Circuit) -> Vec<Fault> {
        let stuck = checkpoint_faults(circuit);
        let mut faults: Vec<Fault> = stuck.iter().copied().map(Fault::from).collect();
        for topology in [BridgeTopology::NonFeedback, BridgeTopology::Feedback] {
            faults.extend(
                enumerate_bridges(circuit, BridgeKind::And, topology)
                    .into_iter()
                    .take(6)
                    .map(Fault::from),
            );
        }
        faults.push(Fault::from(MultiStuckAt::new(vec![stuck[0], stuck[stuck.len() - 1]])));
        faults
    }

    #[test]
    fn traced_replica_reproduces_the_sweep_on_c17_and_c95() {
        let t0 = Instant::now();
        let mut tracer = Tracer::default();
        for circuit in [c17(), c95()] {
            let faults = universe(&circuit);
            let config = crate::batch::sweep_config(1, Default::default());
            let (snapshot, _) = traced_build(&mut tracer, &circuit, &config);
            let plain = DiffProp::build_snapshot(&circuit, config.engine).unwrap();
            assert_eq!(snapshot.table_digest(), plain.table_digest());
            let sweep = sweep_universe_ext(&circuit, &faults, &config, Some(&snapshot), None);
            let replica = traced_sweep(&mut tracer, &circuit, &faults, &config, &snapshot);
            assert_eq!(replica.digest, summaries_digest(&sweep.summaries), "{}", circuit.name());
            assert_eq!(replica.stats, sweep.merged_stats(), "{}", circuit.name());
            assert_eq!(replica.classes, sweep.classes);
            assert!(replica.propagations < replica.classes, "stuck-at faults batch");
        }
        for layer in ["engine.stuck", "engine.nfbf", "engine.fbridge", "engine.multi", "engine.bound"] {
            assert!(tracer.spans().iter().any(|s| s.name == layer), "no {layer} span");
        }
        assert!(t0.elapsed().as_secs_f64() < 1.0, "took {:?}", t0.elapsed());
    }
}
