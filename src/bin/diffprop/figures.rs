//! `diffprop figures`: regenerates every table/figure of Butler & Mercer
//! (DAC 1990) and prints the series the paper plots.
//!
//! The sections are `fig1`–`fig8`, `ext`, `obs` and `models`; `--only`
//! selects some of them. Every section is computed by a driver of
//! `dp_analysis::figures::Lab`, which sweeps each circuit's fault sets once
//! and shares the records across sections; this module only renders text.
//! The `ablations` section (exact cost counters, see `ablations.rs`) prints
//! only when `--only` names it.
//! The default configuration is paper scale (≈1000 sampled bridging faults
//! per circuit and kind, full collapsed checkpoint sets); `--smoke` picks a
//! reduced workload, and `--bf-sample` / `--sa-cap` and the sweep flags
//! apply on top of either, wherever they stand on the line.
//!
//! The printed series are bit-identical across `--threads` and `--order`
//! (see `dp_core::parallel`); per-shard BDD-manager counters go to stderr
//! alongside the timings. Under `--node-budget` over-budget faults degrade
//! to sampled-simulation estimates and the degraded count is reported on
//! stderr — the series then mix exact and estimated detectabilities, so
//! budgets are for exploratory runs, not the recorded tables. Output of a
//! full (unbudgeted) run is recorded in `EXPERIMENTS.md`. `--telemetry PATH`
//! writes every sweep's telemetry as one schema-versioned
//! `sweep_report.json`, which `diffprop validate-report` checks.
//!
//! Beyond the paper's figures, the `models` section prints a scenario
//! matrix over the extended fault models — feedback bridges swept through
//! the ternary fixpoint and double stuck-at faults — with per-model
//! detectable / redundant / oscillating counts. Like every other section it
//! is sweep-derived and byte-identical across thread counts and order
//! strategies.

use std::time::{Duration, Instant};

use diffprop::analysis::figures::{ExperimentConfig, Lab};
use diffprop::analysis::topology::render_curve;
use diffprop::analysis::trends::render_trend;
use diffprop::core::SweepResult;
use diffprop::netlist::generators::benchmark_suite;
use diffprop::telemetry::ReportFile;

use crate::Opts;

/// The sections `--only` selects, in print order.
pub const SECTIONS: [&str; 12] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ext",
    "obs",
    "models",
    "ablations",
];

/// Runs `diffprop figures`: the base configuration `--smoke` picks, with
/// every explicit flag applied on top of it.
pub fn run(opts: &Opts) {
    let base = if opts.smoke {
        ExperimentConfig::smoke()
    } else {
        ExperimentConfig::default()
    };
    let config = ExperimentConfig {
        bf_sample: opts.bf_sample.unwrap_or(base.bf_sample),
        sa_cap: opts.sa_cap.unwrap_or(base.sa_cap),
        sweep: opts.sweep(),
        ..base
    };
    let only = opts.only.as_deref();
    let named = |name: &str| only.is_some_and(|o| o.iter().any(|x| x == name));
    let wants = |name: &str| only.is_none() || named(name);
    let mut lab = Lab::new(config, benchmark_suite()).with_sweep_hook(report_sweep);
    let total = Instant::now();

    if wants("fig1") {
        section("Figure 1 — stuck-at detection probability histograms");
        for name in ["c95", "alu74181"] {
            let h = lab.fig1_sa_histogram(name);
            println!("[{name}] ({} faults)", h.total());
            println!("{h}");
        }
    }

    if wants("fig2") {
        section("Figure 2 — stuck-at mean detectability vs netlist size");
        println!("{}", render_trend(&lab.fig2_sa_trend()));
    }

    if wants("fig3") {
        section("Figure 3 — stuck-at detectability vs max levels to PO (c1355s)");
        let (po, pi) = lab.fig3_sa_distance("c1355s");
        println!("{}", render_curve(&po, "levels to PO"));
        println!("companion: detectability vs levels from PI (expected noisier)");
        println!("{}", render_curve(&pi, "levels from PI"));
    }

    if wants("fig4") {
        section("Figure 4 — stuck-at adherence histogram (74181)");
        let h = lab.fig4_adherence_histogram("alu74181");
        println!("({} faults with defined adherence)", h.total());
        println!("{h}");
    }

    if wants("fig5") {
        section("Figure 5 — proportion of NFBFs with stuck-at behaviour");
        println!(
            "{:<12} {:>10} {:>10} {:>12} {:>12}",
            "circuit", "AND prop", "OR prop", "AND faults", "OR faults"
        );
        for row in lab.fig5_stuck_behaviour() {
            println!(
                "{:<12} {:>10.4} {:>10.4} {:>12} {:>12}",
                row.name, row.and_proportion, row.or_proportion, row.and_faults, row.or_faults
            );
        }
    }

    if wants("fig6") {
        section("Figure 6 — bridging-fault detection probability histograms (c95)");
        let (and, or) = lab.fig6_bf_histograms("c95");
        for (label, h) in [("AND", and), ("OR", or)] {
            println!("{label} NFBFs ({} faults):", h.total());
            println!("{h}");
        }
    }

    if wants("fig7") {
        section("Figure 7 — bridging-fault mean detectability vs netlist size");
        println!("{}", render_trend(&lab.fig7_bf_trend()));
    }

    if wants("fig8") {
        section("Figure 8 — bridging-fault detectability vs max levels to PO (c1355s)");
        println!(
            "{}",
            render_curve(&lab.fig8_bf_distance("c1355s"), "levels to PO")
        );
    }

    if wants("ext") {
        section("Extensions — SCOAP correlation, random-test planning, double faults");
        for name in ["c95", "alu74181", "c432s"] {
            let rho = lab.ext_scoap_correlation(name);
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
            let rendered: Vec<String> = lab
                .ext_random_coverage(name, &[16, 64, 256, 1024])
                .iter()
                .map(|(k, c)| format!("{k}→{:.1}%", c * 100.0))
                .collect();
            println!(
                "{name:<12} expected random coverage: {}",
                rendered.join("  ")
            );
        }
        println!();
        for name in ["c95", "alu74181"] {
            let r = lab.ext_double_fault_coverage(name, 200);
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
        for (name, equal, detectable) in lab.obs_pos_fed_vs_observed() {
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
                let row = lab.model_row(name, model).expect("builtin model name");
                println!(
                    "{:<12} {:<12} {:>8} {:>11} {:>10} {:>12} {:>10.4}",
                    name,
                    model,
                    row.faults,
                    row.detectable,
                    row.faults - row.detectable,
                    row.oscillating,
                    row.mean_detectability
                );
            }
        }
    }

    if named("ablations") {
        section("Ablations — exact cost counters of serial engines at pinned orders");
        crate::ablations::print();
    }

    opts.write_telemetry(|| {
        let mut file = ReportFile::new("figures");
        file.reports = lab.into_reports();
        file.to_pretty_string()
    });
    eprintln!("\ntotal: {:?}", total.elapsed());
}

fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

/// One sweep's timing line and per-shard BDD-manager counters, on stderr so
/// the figure series on stdout stay byte-stable across parallelism settings.
fn report_sweep(name: &str, model: &str, sweep: &SweepResult, elapsed: Duration) {
    eprintln!(
        "  [{model}] {name}: {} faults ({} classes) in {elapsed:?}",
        sweep.summaries.len(),
        sweep.classes
    );
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
