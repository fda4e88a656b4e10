//! The `ablations` section of `diffprop figures`: exact cost counters for
//! the design choices the method rests on (Table 1's difference equations,
//! selective trace, the variable order, native n-input gates, cut-point
//! decomposition) and for Difference Propagation against its baselines
//! (exhaustive simulation, PODEM and the CATAPULT-style observability
//! computation).
//!
//! Every row pins its own [`EngineConfig`] (its order is printed in the
//! row) and runs its own serial engines, so the section's bytes never
//! depend on `--threads`, `--order` or `--smoke`. Every group checks that
//! its sides computed the same answers and prints the verdict. The rows are
//! cost counters that an engine change may move, unlike every other
//! section's results, so the section prints only when `--only` names it.
//!
//! `op steps` counts memoised BDD operation steps and `lookups` unique-table
//! lookups, of the faults' analyses only or of the good-function build plus
//! the analyses, as each group's title says. `gates` sums the gates each
//! analysis propagated.

use diffprop::bdd::{ManagerStats, Var};
use diffprop::core::{DiffProp, EngineConfig, GoodFunctions, GoodSnapshot, Observability};
use diffprop::core::{FaultAnalysis, OrderStrategy};
use diffprop::faults::{checkpoint_faults, Fault, FaultSite, StuckAtFault};
use diffprop::netlist::generators::{alu74181, c17, c432_surrogate, c499_surrogate, c95};
use diffprop::netlist::{decompose_two_input, Circuit, NetId};
use diffprop::podem::{generate_test_with_stats, PodemResult};
use diffprop::sim::exhaustive_detectability;

/// PODEM's backtrack limit, high enough that no fault here aborts.
const BACKTRACK_LIMIT: usize = 100_000;

/// Each fault's exact answer: detectability and test-vector count.
type Answers = Vec<(f64, Option<u128>)>;

/// Prints the whole section.
pub fn print() {
    let order = OrderStrategy::FaninDfs;
    let c432s = c432_surrogate();
    let faults = checkpoint(&c432s);
    let off = EngineConfig {
        selective_trace: false,
        ..config(order)
    };
    engine_group(
        "selective trace — c432s checkpoint faults; analyses only",
        &[
            ("on", &c432s, config(order), &faults),
            ("off", &c432s, off, &faults),
        ],
    );

    let order = OrderStrategy::Identity;
    let alu = alu74181();
    let faults = checkpoint(&alu);
    let naive = EngineConfig {
        table1: false,
        ..config(order)
    };
    engine_group(
        "Table 1 vs naive recomputation — alu74181 checkpoint faults; analyses only",
        &[
            ("Table 1", &alu, config(order), &faults),
            ("naive", &alu, naive, &faults),
        ],
    );

    let two_input = decompose_two_input(&alu).expect("alu74181 decomposes");
    let gates: Vec<NetId> = alu.nets().skip(alu.num_inputs()).collect();
    let renamed: Vec<NetId> = gates
        .iter()
        .map(|&n| two_input.find_net(alu.net_name(n)).expect("kept net"))
        .collect();
    engine_group(
        "native n-input gates vs 2-input chains — alu74181 gate-output stuck-ats; analyses only",
        &[
            ("native", &alu, config(order), &net_faults(&gates)),
            (
                "2-input chains",
                &two_input,
                config(order),
                &net_faults(&renamed),
            ),
        ],
    );

    orders(&alu);
    cut_points();
    dp_vs_baselines();
    dp_vs_catapult(&alu, &gates);
}

fn config(order: OrderStrategy) -> EngineConfig {
    EngineConfig {
        order,
        ..Default::default()
    }
}

fn snapshot(circuit: &Circuit, config: EngineConfig) -> GoodSnapshot {
    DiffProp::build_snapshot(circuit, config).expect("unlimited budget cannot trip")
}

/// The circuit's checkpoint faults, in their deterministic order.
fn checkpoint(circuit: &Circuit) -> Vec<Fault> {
    checkpoint_faults(circuit)
        .into_iter()
        .map(Fault::from)
        .collect()
}

/// Both stuck-at faults on each net.
fn net_faults(nets: &[NetId]) -> Vec<Fault> {
    nets.iter()
        .flat_map(|&n| {
            [false, true].map(|value| {
                Fault::from(StuckAtFault {
                    site: FaultSite::Net(n),
                    value,
                })
            })
        })
        .collect()
}

/// Analyses `faults` on one engine thawed from `snapshot`. Returns the
/// engine's counters (the build's are the snapshot's), the gates it
/// propagated and the answers; `visit` sees each analysis while its nodes
/// are live.
fn run_engine(
    circuit: &Circuit,
    snapshot: &GoodSnapshot,
    config: EngineConfig,
    faults: &[Fault],
    mut visit: impl FnMut(&DiffProp, usize, &FaultAnalysis),
) -> (ManagerStats, u64, Answers) {
    let mut dp = DiffProp::from_snapshot(circuit, snapshot, config);
    let mut gates = 0;
    let mut answers = Answers::new();
    for (i, fault) in faults.iter().enumerate() {
        let analysis = dp.analyze(fault);
        visit(&dp, i, &analysis);
        gates += u64::from(analysis.gates_propagated);
        answers.push((analysis.detectability, analysis.test_count));
    }
    (dp.good().manager().stats().clone(), gates, answers)
}

fn summary(answers: &Answers) -> String {
    let detectable = answers.iter().filter(|a| a.0 > 0.0).count();
    let sum: f64 = answers.iter().map(|a| a.0).sum();
    format!(
        "{detectable}/{} detectable, sum det {sum:.6}",
        answers.len()
    )
}

fn header(title: &str) {
    println!("[{title}]");
    println!(
        "  {:<22} {:<14} {:>10} {:>10}  {:<30} result",
        "side", "order", "op steps", "lookups", "cost"
    );
}

/// One side of a group: its order, its exact counters (none for a side
/// that runs no BDDs), its cost in its own unit and what it computed.
fn row(side: &str, order: &str, work: Option<&ManagerStats>, cost: &str, result: &str) {
    let (steps, lookups) = work.map_or(("-".into(), "-".into()), |w| {
        (w.op_steps.to_string(), w.unique.lookups.to_string())
    });
    println!("  {side:<22} {order:<14} {steps:>10} {lookups:>10}  {cost:<30} {result}");
}

fn verdict(line: &str) {
    println!("  {line}\n");
}

fn agree(yes: bool) {
    verdict(&format!(
        "results agree: {}",
        if yes { "yes" } else { "NO" }
    ));
}

/// Engine-level sides, each over its own circuit, config and faults: each
/// gets a snapshot at its pinned order and one serial engine, and only the
/// analyses are counted.
fn engine_group(title: &str, sides: &[(&str, &Circuit, EngineConfig, &[Fault])]) {
    header(title);
    let mut answers = Vec::new();
    for &(side, circuit, config, faults) in sides {
        let snap = snapshot(circuit, config);
        let (work, gates, side_answers) = run_engine(circuit, &snap, config, faults, |_, _, _| {});
        let (order, cost) = (config.order.name(), format!("{gates} gates"));
        row(side, &order, Some(&work), &cost, &summary(&side_answers));
        answers.push(side_answers);
    }
    agree(answers.windows(2).all(|w| w[0] == w[1]));
}

/// Declared, reversed and de-interleaved (the ALU's A/B operand pairs
/// pulled apart) builds, and the de-interleaved build sifted.
fn orders(alu: &Circuit) {
    let n = alu.num_inputs() as Var;
    let declared: Vec<Var> = (0..n).collect();
    let reversed: Vec<Var> = (0..n).rev().collect();
    let deinterleaved: Vec<Var> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
    header("variable order — alu74181 good-function build");
    let mut counts = Vec::new();
    for (side, name, order, sift) in [
        ("build", "declared", &declared, false),
        ("build", "reversed", &reversed, false),
        ("build", "de-interleaved", &deinterleaved, false),
        ("build + sift", "de-interleaved", &deinterleaved, true),
    ] {
        let mut good = GoodFunctions::build_with_order(alu, order);
        if sift {
            good.sift();
        }
        let m = good.manager();
        let net_counts: Vec<u128> = good.nodes().iter().map(|&f| m.sat_count(f)).collect();
        let sum: f64 = good.nodes().iter().map(|&f| m.density(f)).sum();
        let live = m.live_size(good.nodes());
        let cost = format!("{live} nodes live, {} swaps", m.stats().sift_swaps);
        let result = format!("{} nets, sum syndrome {sum:.6}", net_counts.len());
        row(side, name, Some(m.stats()), &cost, &result);
        counts.push(net_counts);
    }
    agree(counts.windows(2).all(|w| w[0] == w[1]));
}

/// The exact engine against one thawed from a cut-point decomposed build:
/// peak nodes, and how far the decomposition's detectabilities stray.
fn cut_points() {
    let c499s = c499_surrogate();
    let mut faults = checkpoint(&c499s);
    faults.truncate(8);
    let config = config(OrderStrategy::Identity);
    let (decomposed, cuts) = GoodFunctions::build_auto_decomposed(&c499s, 200);
    header("exact vs cut-point decomposition — c499s, first 8 checkpoint faults; build + analyses (not the cut sizing pass)");
    let mut answers = Vec::new();
    for (side, snap) in [
        ("exact".to_string(), snapshot(&c499s, config)),
        (
            format!("{} cuts at 200 nodes", cuts.len()),
            decomposed.freeze(),
        ),
    ] {
        let (work, _, side_answers) = run_engine(&c499s, &snap, config, &faults, |_, _, _| {});
        let build_peak = snap.build_stats().peak_nodes;
        let work = snap.build_stats().merged(&work);
        let cost = format!("peak {build_peak} build, {} all", work.peak_nodes);
        row(
            &side,
            &config.order.name(),
            Some(&work),
            &cost,
            &summary(&side_answers),
        );
        answers.push(side_answers);
    }
    let errors: Vec<f64> = answers[0]
        .iter()
        .zip(&answers[1])
        .map(|(exact, cut)| (exact.0 - cut.0).abs())
        .collect();
    verdict(&format!(
        "cut-point error: max |det difference| {:.6}, {} of {} faults exact",
        errors.iter().fold(0.0, |a: f64, &e| a.max(e)),
        errors.iter().filter(|&&e| e == 0.0).count(),
        errors.len()
    ));
}

/// DP's complete test sets against its two baselines: exhaustive
/// simulation, `2^n` vectors per fault (the paper's §1 motivation; past 30
/// inputs it is not run), and PODEM, one test per fault. The counts must
/// match the simulated ones, the verdicts PODEM's, and every PODEM vector
/// must lie in DP's test set.
fn dp_vs_baselines() {
    header("DP complete test sets vs exhaustive simulation and PODEM single tests — checkpoint faults; build + analyses");
    let mut same = true;
    for (circuit, order) in [
        (c17(), OrderStrategy::Identity),
        (c95(), OrderStrategy::Identity),
        (alu74181(), OrderStrategy::Identity),
        (c432_surrogate(), OrderStrategy::FaninDfs),
    ] {
        let stuck = checkpoint_faults(&circuit);
        let faults: Vec<Fault> = stuck.iter().copied().map(Fault::from).collect();
        let (mut backtracks, mut decisions) = (0, 0);
        let (mut tests, mut untestable, mut aborted) = (0, 0, 0);
        let config = config(order);
        let snap = snapshot(&circuit, config);
        let (work, gates, answers) = run_engine(&circuit, &snap, config, &faults, |dp, i, a| {
            let (result, stats) = generate_test_with_stats(&circuit, &stuck[i], BACKTRACK_LIMIT);
            backtracks += stats.backtracks;
            decisions += stats.decisions;
            same &= match result {
                PodemResult::Test(vector) => {
                    tests += 1;
                    a.is_detectable() && dp.good().manager().eval(a.test_set, &vector)
                }
                PodemResult::Untestable => {
                    untestable += 1;
                    !a.is_detectable()
                }
                PodemResult::Aborted => {
                    aborted += 1;
                    false
                }
            };
        });
        let name = circuit.name();
        let work = snap.build_stats().merged(&work);
        let cost = format!("{gates} gates");
        row(
            &format!("{name} DP"),
            &order.name(),
            Some(&work),
            &cost,
            &summary(&answers),
        );
        let inputs = circuit.num_inputs();
        let mut simulated = "not run".to_string();
        if inputs <= 30 {
            let counts: Vec<(u64, u64)> = faults
                .iter()
                .map(|f| exhaustive_detectability(&circuit, f))
                .collect();
            same &= counts
                .iter()
                .zip(&answers)
                .all(|(&(detected, _), &(_, count))| count == Some(u128::from(detected)));
            let densities = counts
                .iter()
                .map(|&(detected, total)| (detected as f64 / total as f64, None))
                .collect();
            simulated = summary(&densities);
        }
        let cost = format!("2^{inputs} x {} vectors", faults.len());
        row(&format!("{name} exhaustive"), "-", None, &cost, &simulated);
        let cost = format!("{backtracks} backtracks, {decisions} decisions");
        let result = format!("{tests} tests, {untestable} untestable, {aborted} aborted");
        row(&format!("{name} PODEM"), "-", None, &cost, &result);
    }
    agree(same);
}

/// DP against the CATAPULT-style disjoint observability computation, both
/// exact, on net stuck-at faults (the faults both can express).
fn dp_vs_catapult(alu: &Circuit, nets: &[NetId]) {
    let faults = net_faults(nets);
    let config = config(OrderStrategy::Identity);
    let snap = snapshot(alu, config);
    let (work, gates, dp_answers) = run_engine(alu, &snap, config, &faults, |_, _, _| {});
    let mut obs = Observability::new(alu);
    let obs_answers: Answers = nets
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .map(|(net, value)| {
            let set = obs.stuck_at_test_set(net, value);
            let m = obs.good().manager();
            (m.density(set), Some(m.sat_count(set)))
        })
        .collect();
    header("DP vs CATAPULT-style observability — alu74181 gate-output stuck-ats; build + analyses");
    let work = snap.build_stats().merged(&work);
    let cost = format!("{gates} gates");
    row(
        "DP",
        &config.order.name(),
        Some(&work),
        &cost,
        &summary(&dp_answers),
    );
    let cost = format!("{} cut builds", nets.len());
    row(
        "CATAPULT-style",
        "identity",
        Some(&obs.stats()),
        &cost,
        &summary(&obs_answers),
    );
    agree(dp_answers == obs_answers);
}
