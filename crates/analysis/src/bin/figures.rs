//! Regenerates every table/figure of Butler & Mercer (DAC 1990) and prints
//! the series the paper plots.
//!
//! Usage:
//!
//! ```text
//! figures [--smoke] [--bf-sample N] [--sa-cap N] [--threads N] [--node-budget N]
//!         [--fallback-samples N] [--no-collapse] [--only figN,figM,...]
//!         [--telemetry PATH] [--order identity|fanin-dfs|auto]
//! ```
//!
//! `--smoke` runs a reduced workload (fast CI check) and leaves every sweep
//! flag alone, wherever it stands on the line; the default
//! configuration is paper scale (≈1000 sampled bridging faults per circuit
//! and kind, full collapsed checkpoint sets). Each circuit's fault records
//! are computed once and shared across figures. `--threads N` shards each
//! fault sweep over N workers — the printed figure series are bit-identical
//! to a serial run (see `dp_core::parallel`); per-shard BDD-manager counters
//! go to stderr alongside the timings. `--node-budget N` caps the BDD node
//! table per fault analysis; over-budget faults degrade to sampled-simulation
//! estimates (`--fallback-samples N` vectors each) and the degraded count is
//! reported on stderr — figure series printed on stdout then mix exact and
//! estimated detectabilities, so budgets are for exploratory runs, not the
//! recorded tables. Output of a full (unbudgeted) run is recorded in
//! `EXPERIMENTS.md`. `--telemetry PATH` writes every sweep's telemetry as
//! one schema-versioned `sweep_report.json` — the machine-readable
//! counterpart of the stderr summaries, validated by
//! `validate_sweep_report`. `--order S` picks the OBDD variable-order
//! strategy; the printed series are byte-identical under every strategy
//! (only wall clock and node counts move).
//!
//! Beyond the paper's figures, the `models` section (selectable as
//! `--only models`) prints a scenario matrix over the extended fault
//! models — feedback bridges swept through the ternary fixpoint and
//! double stuck-at faults — with per-model detectable / redundant /
//! oscillating counts. Like every other section it is sweep-derived and
//! byte-identical across thread counts and order strategies.

use std::collections::HashMap;
use std::time::Instant;

use dp_analysis::figures::ExperimentConfig;
use dp_analysis::topology::{
    detectability_vs_pi_distance, detectability_vs_po_distance, pos_fed_vs_observed,
    render_curve,
};
use dp_analysis::trends::{render_trend, trend_point, TrendPoint};
use dp_analysis::{
    bridging_universe, fault_model_universe, records_from_sweep, stuck_at_universe, FaultRecord,
    Histogram,
};
use dp_core::{sweep_universe, BudgetConfig, OrderStrategy, Parallelism, SweepResult};
use dp_faults::BridgeKind;
use dp_netlist::generators::benchmark_suite;
use dp_netlist::Circuit;

struct Lab {
    config: ExperimentConfig,
    suite: Vec<Circuit>,
    sa: HashMap<String, Vec<FaultRecord>>,
    bf_and: HashMap<String, Vec<FaultRecord>>,
    bf_or: HashMap<String, Vec<FaultRecord>>,
    /// One schema-versioned report per sweep, in sweep order; written out
    /// at the end when `--telemetry` was given.
    reports: Vec<dp_telemetry::SweepReport>,
}

impl Lab {
    fn new(config: ExperimentConfig) -> Self {
        Lab {
            config,
            suite: benchmark_suite(),
            sa: HashMap::new(),
            bf_and: HashMap::new(),
            bf_or: HashMap::new(),
            reports: Vec::new(),
        }
    }

    fn circuit(&self, name: &str) -> &Circuit {
        self.suite
            .iter()
            .find(|c| c.name() == name)
            .unwrap_or_else(|| panic!("unknown circuit {name}"))
    }

    fn sa_records(&mut self, name: &str) -> &[FaultRecord] {
        if !self.sa.contains_key(name) {
            let c = self.circuit(name);
            let mut faults = stuck_at_universe(c, true);
            faults.truncate(self.config.sa_cap);
            let t = Instant::now();
            let sweep = sweep_universe(c, &faults, &self.config.sweep);
            let records = records_from_sweep(c, &faults, &sweep);
            eprintln!(
                "  [sa] {name}: {} faults ({} classes) in {:?}",
                records.len(),
                sweep.classes,
                t.elapsed()
            );
            report_shards(&sweep);
            self.reports.push(dp_core::sweep_report(name, "stuck-at", &sweep));
            self.sa.insert(name.to_string(), records);
        }
        &self.sa[name]
    }

    fn bf_records(&mut self, name: &str, kind: BridgeKind) -> &[FaultRecord] {
        let map = match kind {
            BridgeKind::And => &self.bf_and,
            BridgeKind::Or => &self.bf_or,
        };
        if !map.contains_key(name) {
            let c = self.circuit(name);
            let faults = bridging_universe(c, kind, Some(self.config.bf_sample), self.config.seed);
            let t = Instant::now();
            let sweep = sweep_universe(c, &faults, &self.config.sweep);
            let records = records_from_sweep(c, &faults, &sweep);
            eprintln!(
                "  [bf {kind}] {name}: {} faults in {:?}",
                records.len(),
                t.elapsed()
            );
            report_shards(&sweep);
            let model = match kind {
                BridgeKind::And => "bridging-and",
                BridgeKind::Or => "bridging-or",
            };
            self.reports.push(dp_core::sweep_report(name, model, &sweep));
            match kind {
                BridgeKind::And => self.bf_and.insert(name.to_string(), records),
                BridgeKind::Or => self.bf_or.insert(name.to_string(), records),
            };
        }
        match kind {
            BridgeKind::And => &self.bf_and[name],
            BridgeKind::Or => &self.bf_or[name],
        }
    }

    fn bf_merged(&mut self, name: &str) -> Vec<FaultRecord> {
        let mut records = self.bf_records(name, BridgeKind::And).to_vec();
        records.extend_from_slice(self.bf_records(name, BridgeKind::Or));
        records
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: figures [--smoke] [--bf-sample N] [--sa-cap N] [--threads N] \
         [--node-budget N] [--fallback-samples N] [--no-collapse] [--only fig1,...] \
         [--telemetry PATH] [--order identity|fanin-dfs|auto]"
    );
    std::process::exit(2);
}

/// The value following flag `name`; a missing value prints the usage line.
fn value(args: &mut impl Iterator<Item = String>, name: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{name} needs a value");
        usage()
    })
}

/// The numeric value following flag `name`; a missing or non-numeric value
/// prints the usage line.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, name: &str) -> T {
    let v = value(args, name);
    v.parse().unwrap_or_else(|_| {
        eprintln!("{name}: `{v}` is not a number");
        usage()
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut config = ExperimentConfig::default();
    let mut only: Option<Vec<String>> = None;
    let mut telemetry_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // The smoke workload keeps whatever sweep settings came before.
            "--smoke" => {
                config = ExperimentConfig {
                    sweep: config.sweep,
                    ..ExperimentConfig::smoke()
                }
            }
            "--bf-sample" => config.bf_sample = number(&mut args, "--bf-sample"),
            "--sa-cap" => config.sa_cap = number(&mut args, "--sa-cap"),
            "--threads" => {
                let n: usize = number(&mut args, "--threads");
                config.sweep.parallelism = if n <= 1 {
                    Parallelism::Serial
                } else {
                    Parallelism::Threads(n)
                };
            }
            "--node-budget" => {
                config.sweep.engine.budget =
                    BudgetConfig::with_max_nodes(number(&mut args, "--node-budget"));
            }
            "--fallback-samples" => {
                config.sweep.fallback_samples = number(&mut args, "--fallback-samples");
            }
            "--no-collapse" => config.sweep.collapse = false,
            "--only" => {
                only = Some(value(&mut args, "--only").split(',').map(str::to_string).collect());
            }
            "--telemetry" => telemetry_path = Some(value(&mut args, "--telemetry")),
            "--order" => {
                let v = value(&mut args, "--order");
                config.sweep.engine.order = OrderStrategy::parse(&v).unwrap_or_else(|| {
                    eprintln!("--order: unknown strategy `{v}`");
                    usage()
                });
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    let wants = |name: &str| only.as_ref().is_none_or(|o| o.iter().any(|x| x == name));
    let mut lab = Lab::new(config);
    let names: Vec<String> = lab.suite.iter().map(|c| c.name().to_string()).collect();
    let total = Instant::now();

    if wants("fig1") {
        section("Figure 1 — stuck-at detection probability histograms");
        for name in ["c95", "alu74181"] {
            let records = lab.sa_records(name);
            let h = Histogram::from_values(config.bins, records.iter().map(|r| r.detectability));
            println!("[{name}] ({} faults)", h.total());
            println!("{h}");
        }
    }

    if wants("fig2") {
        section("Figure 2 — stuck-at mean detectability vs netlist size");
        let mut points: Vec<TrendPoint> = Vec::new();
        for name in &names {
            let records = lab.sa_records(name).to_vec();
            points.push(trend_point(lab.circuit(name), &records));
        }
        println!("{}", render_trend(&points));
    }

    if wants("fig3") {
        section("Figure 3 — stuck-at detectability vs max levels to PO (c1355s)");
        let records = lab.sa_records("c1355s");
        let po = detectability_vs_po_distance(records);
        let pi = detectability_vs_pi_distance(records);
        println!("{}", render_curve(&po, "levels to PO"));
        println!("companion: detectability vs levels from PI (expected noisier)");
        println!("{}", render_curve(&pi, "levels from PI"));
    }

    if wants("fig4") {
        section("Figure 4 — stuck-at adherence histogram (74181)");
        let records = lab.sa_records("alu74181");
        let h = Histogram::from_values(config.bins, records.iter().filter_map(|r| r.adherence));
        println!("({} faults with defined adherence)", h.total());
        println!("{h}");
    }

    if wants("fig5") {
        section("Figure 5 — proportion of NFBFs with stuck-at behaviour");
        println!(
            "{:<12} {:>10} {:>10} {:>12} {:>12}",
            "circuit", "AND prop", "OR prop", "AND faults", "OR faults"
        );
        for name in &names {
            let prop = |rs: &[FaultRecord]| {
                rs.iter().filter(|r| r.site_function_constant).count() as f64
                    / rs.len().max(1) as f64
            };
            let and_records = lab.bf_records(name, BridgeKind::And).to_vec();
            let or_records = lab.bf_records(name, BridgeKind::Or).to_vec();
            println!(
                "{:<12} {:>10.4} {:>10.4} {:>12} {:>12}",
                name,
                prop(&and_records),
                prop(&or_records),
                and_records.len(),
                or_records.len()
            );
        }
    }

    if wants("fig6") {
        section("Figure 6 — bridging-fault detection probability histograms (c95)");
        for (label, kind) in [("AND", BridgeKind::And), ("OR", BridgeKind::Or)] {
            let records = lab.bf_records("c95", kind);
            let h = Histogram::from_values(config.bins, records.iter().map(|r| r.detectability));
            println!("{label} NFBFs ({} faults):", h.total());
            println!("{h}");
        }
    }

    if wants("fig7") {
        section("Figure 7 — bridging-fault mean detectability vs netlist size");
        let mut points: Vec<TrendPoint> = Vec::new();
        for name in &names {
            let records = lab.bf_merged(name);
            points.push(trend_point(lab.circuit(name), &records));
        }
        println!("{}", render_trend(&points));
    }

    if wants("fig8") {
        section("Figure 8 — bridging-fault detectability vs max levels to PO (c1355s)");
        let records = lab.bf_merged("c1355s");
        let curve = detectability_vs_po_distance(&records);
        println!("{}", render_curve(&curve, "levels to PO"));
    }

    if wants("ext") {
        section("Extensions — SCOAP correlation, random-test planning, double faults");
        for name in ["c95", "alu74181", "c432s"] {
            let records = lab.sa_records(name).to_vec();
            let rho = dp_analysis::correlation::scoap_correlation(lab.circuit(name), &records);
            println!(
                "{:<12} spearman(det, CO) = {:>7}  (det, CC) = {:>7}  (det, cost) = {:>7}  n = {}",
                name,
                fmt_rho(rho.det_vs_observability),
                fmt_rho(rho.det_vs_controllability),
                fmt_rho(rho.det_vs_combined),
                rho.samples
            );
        }
        println!();
        for name in ["c95", "alu74181"] {
            let records = lab.sa_records(name).to_vec();
            let curve = dp_analysis::coverage::expected_random_coverage(
                &records,
                &[16, 64, 256, 1024],
            );
            let rendered: Vec<String> = curve
                .iter()
                .map(|(k, c)| format!("{k}→{:.1}%", c * 100.0))
                .collect();
            println!("{name:<12} expected random coverage: {}", rendered.join("  "));
        }
        println!();
        for name in ["c95", "alu74181"] {
            let r = dp_analysis::coverage::double_fault_coverage(lab.circuit(name), 200, 1990);
            println!(
                "{:<12} double-fault coverage of complete single-fault set: {}/{} detectable doubles ({:.1}%), {} vectors",
                name,
                r.detected,
                r.detectable,
                100.0 * r.coverage(),
                r.test_vectors
            );
        }
    }

    if wants("obs") {
        section("§4.1 observation — POs fed vs POs observable");
        for name in &names {
            let (equal, detectable) = pos_fed_vs_observed(lab.sa_records(name));
            println!(
                "{:<12} {:>6}/{:<6} equal ({:.1}%)",
                name,
                equal,
                detectable,
                100.0 * equal as f64 / detectable.max(1) as f64,
            );
        }
    }

    if wants("models") {
        section("Scenario matrix — feedback bridges and double stuck-at faults");
        println!(
            "{:<12} {:<12} {:>8} {:>11} {:>10} {:>12} {:>10}",
            "circuit", "model", "faults", "detectable", "redundant", "oscillating", "mean det"
        );
        for name in ["c17", "c95", "alu74181"] {
            for model in ["fbridge-and", "fbridge-or", "multi"] {
                let c = lab.circuit(name);
                let faults =
                    fault_model_universe(c, model, Some(lab.config.bf_sample), lab.config.seed)
                        .expect("builtin model name");
                let t = Instant::now();
                let sweep = sweep_universe(c, &faults, &lab.config.sweep);
                eprintln!(
                    "  [{model}] {name}: {} faults in {:?}",
                    faults.len(),
                    t.elapsed()
                );
                report_shards(&sweep);
                let n = sweep.summaries.len();
                let detectable = sweep.summaries.iter().filter(|s| s.is_detectable()).count();
                let oscillating = sweep
                    .summaries
                    .iter()
                    .filter(|s| s.outcome.is_oscillating())
                    .count();
                let mean = sweep.summaries.iter().map(|s| s.detectability).sum::<f64>()
                    / n.max(1) as f64;
                lab.reports.push(dp_core::sweep_report(name, model, &sweep));
                println!(
                    "{:<12} {:<12} {:>8} {:>11} {:>10} {:>12} {:>10.4}",
                    name,
                    model,
                    n,
                    detectable,
                    n - detectable,
                    oscillating,
                    mean
                );
            }
        }
    }

    if let Some(path) = &telemetry_path {
        let mut file = dp_telemetry::ReportFile::new("figures");
        file.reports = std::mem::take(&mut lab.reports);
        match std::fs::write(path, file.to_pretty_string()) {
            Ok(()) => eprintln!("telemetry: {} sweep reports written to {path}", file.reports.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!("\ntotal: {:?}", total.elapsed());
}

fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Per-shard BDD-manager counters, on stderr with the timing lines so the
/// figure series on stdout stay byte-stable across parallelism settings.
fn report_shards(sweep: &SweepResult) {
    let bounded = sweep.num_bounded();
    if bounded > 0 {
        eprintln!(
            "    {} of {} faults over budget — sampled estimates in the series",
            bounded,
            sweep.summaries.len()
        );
    }
    let oscillating = sweep.num_oscillating();
    if oscillating > 0 {
        eprintln!(
            "    {} of {} faults carry an oscillation residual (exact under ternary semantics)",
            oscillating,
            sweep.summaries.len()
        );
    }
    for shard in &sweep.shards {
        let unique = &shard.stats.unique;
        // The cumulative view: op-cache traffic across every GC generation,
        // not just the last one.
        let op = shard.stats.op_cumulative_total();
        eprintln!(
            "    worker {}: {} chunks, {} classes, {} faults, {:.1?} busy | unique {} lookups {:.1}% hit | op cache {} lookups {:.1}% hit | peak {} nodes | {} gc",
            shard.shard,
            shard.chunks_claimed,
            shard.classes_done,
            shard.faults_done,
            shard.busy,
            unique.lookups,
            100.0 * unique.hit_rate(),
            op.lookups,
            100.0 * op.hit_rate(),
            shard.stats.peak_nodes,
            shard.stats.gc_runs
        );
    }
}

fn fmt_rho(rho: Option<f64>) -> String {
    rho.map_or_else(|| "n/a".into(), |r| format!("{r:+.3}"))
}
