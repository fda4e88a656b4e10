//! Shared helpers for the benchmark harness.
//!
//! One Criterion bench target exists per paper artifact (see `benches/`):
//!
//! * `table1` — the Table-1 difference equations vs the naive recomputation,
//! * `figures` — every figure driver (Figures 1–8 and the §4.1 observation),
//! * `dp_vs_exhaustive` — Difference Propagation vs exhaustive bit-parallel
//!   fault simulation (the paper's §1 motivation),
//! * `ablations` — selective trace, Table 1 at the engine level, variable
//!   order, and n-input gate decomposition.

use dp_core::{sweep_report, sweep_universe, Parallelism, SweepConfig, SweepResult};
use dp_faults::{
    checkpoint_faults, enumerate_bridges, enumerate_nfbfs, pair_multis, BridgeKind,
    BridgeTopology, Fault,
};
use dp_netlist::Circuit;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// A deterministic slice of a circuit's checkpoint faults, as engine inputs.
pub fn some_stuck_faults(circuit: &Circuit, count: usize) -> Vec<Fault> {
    checkpoint_faults(circuit)
        .into_iter()
        .take(count)
        .map(Fault::from)
        .collect()
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, deterministic sample of `count` non-feedback bridging faults.
///
/// The global NFBF universe is the AND pairs followed by the OR pairs, each
/// in [`enumerate_nfbfs`] order. Every global index is ranked by a
/// splitmix64 hash of `seed ^ index` and the `count` lowest-ranked faults
/// are returned *in global order* — the same convention the bounded-sweep
/// fallback uses (seed derived from the global fault index), so the chosen
/// set, and with it every downstream number, is invariant to thread count,
/// chunk size and scheduling. `count >= universe` returns the whole
/// universe.
pub fn sampled_nfbf_universe(circuit: &Circuit, count: usize, seed: u64) -> Vec<Fault> {
    let mut faults: Vec<Fault> = Vec::new();
    for kind in [BridgeKind::And, BridgeKind::Or] {
        faults.extend(enumerate_nfbfs(circuit, kind).into_iter().map(Fault::from));
    }
    rank_sample(faults, count, seed)
}

/// Ranks every index of `faults` by a splitmix64 hash of `seed ^ index` and
/// keeps the `count` lowest-ranked, in the universe's original order — the
/// thread-invariant sampling convention of [`sampled_nfbf_universe`].
fn rank_sample(faults: Vec<Fault>, count: usize, seed: u64) -> Vec<Fault> {
    if count >= faults.len() {
        return faults;
    }
    let mut ranked: Vec<(u64, usize)> = (0..faults.len())
        .map(|i| (splitmix64(seed ^ i as u64), i))
        .collect();
    ranked.sort_unstable();
    let mut keep: Vec<usize> = ranked[..count].iter().map(|&(_, i)| i).collect();
    keep.sort_unstable();
    keep.into_iter().map(|i| faults[i].clone()).collect()
}

/// A seeded, deterministic sample of `count` feedback bridging faults (the
/// AND pairs followed by the OR pairs, each in [`enumerate_bridges`] order),
/// analysed via the engine's ternary fixpoint propagation. Same invariance
/// guarantees as [`sampled_nfbf_universe`].
pub fn sampled_feedback_universe(circuit: &Circuit, count: usize, seed: u64) -> Vec<Fault> {
    let mut faults: Vec<Fault> = Vec::new();
    for kind in [BridgeKind::And, BridgeKind::Or] {
        faults.extend(
            enumerate_bridges(circuit, kind, BridgeTopology::Feedback)
                .into_iter()
                .map(Fault::from),
        );
    }
    rank_sample(faults, count, seed)
}

/// A seeded, deterministic sample of `count` double stuck-at faults from
/// the all-pairs checkpoint universe ([`pair_multis`] order). Same
/// invariance guarantees as [`sampled_nfbf_universe`].
pub fn sampled_multi_universe(circuit: &Circuit, count: usize, seed: u64) -> Vec<Fault> {
    let faults: Vec<Fault> = pair_multis(circuit).into_iter().map(Fault::from).collect();
    rank_sample(faults, count, seed)
}

/// The sweep-execution knob shared by the bench targets: set
/// `DP_BENCH_THREADS=N` to shard fault sweeps over `N` workers; unset (or
/// `N <= 1`) keeps the serial default, so recorded baseline numbers are
/// unchanged unless a run opts in. Results are bit-identical either way
/// (see `dp_core::parallel`).
pub fn parallelism_from_env() -> Parallelism {
    match std::env::var("DP_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 1 => Parallelism::Threads(n),
        _ => Parallelism::Serial,
    }
}

/// One measured sweep, as recorded in `BENCH_PR9.json`.
///
/// Bench targets run as separate processes, so the file is merged by key
/// (`circuit/fault_model/threads=N/order=S`) instead of rewritten:
/// re-running one target updates its own entries and leaves the others in
/// place — and identity-vs-auto order runs of the same sweep coexist, which
/// is how the ordering speedups stay visible release over release.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Fault model swept (`stuck_at`, `nfbf_and`, ...).
    pub fault_model: String,
    /// Universe size (faults summarised, before collapsing).
    pub faults: usize,
    /// Equivalence classes actually propagated.
    pub classes: usize,
    /// Worker threads of the sweep.
    pub threads: usize,
    /// Variable-order strategy the sweep's engines were built with
    /// (`"identity"`, `"fanin-dfs"`, `"auto"`, `"random:<seed>"`).
    pub order: String,
    /// Wall-clock seconds for the end-to-end sweep (engine build included).
    pub seconds: f64,
    /// `faults / seconds`.
    pub faults_per_sec: f64,
    /// Op-cache probes summed over workers, cumulative across every gc
    /// generation (the per-generation counters reset when a gc clears the
    /// cache; this view survives those resets).
    pub op_steps: u64,
    /// Unique-table probes summed over workers (cumulative for the life of
    /// each manager).
    pub unique_lookups: u64,
    /// Largest node table any worker ever held.
    pub peak_nodes: usize,
}

impl BenchRecord {
    /// Runs one timed end-to-end sweep with the default engine (identity
    /// order) and captures its counters.
    pub fn measure(
        circuit: &Circuit,
        faults: &[Fault],
        fault_model: &str,
        parallelism: Parallelism,
    ) -> BenchRecord {
        let config = SweepConfig {
            parallelism,
            ..Default::default()
        };
        Self::measure_with(circuit, faults, fault_model, &config)
    }

    /// Runs one timed end-to-end sweep under an explicit [`SweepConfig`]
    /// (ordering strategy, budget, collapse, ...) and captures its counters.
    pub fn measure_with(
        circuit: &Circuit,
        faults: &[Fault],
        fault_model: &str,
        config: &SweepConfig,
    ) -> BenchRecord {
        let t0 = Instant::now();
        let sweep = sweep_universe(circuit, faults, config);
        let seconds = t0.elapsed().as_secs_f64();
        let stats = sweep.merged_stats();
        record_telemetry_report(circuit, fault_model, &sweep);
        BenchRecord {
            circuit: circuit.name().to_string(),
            fault_model: fault_model.to_string(),
            faults: faults.len(),
            classes: sweep.classes,
            threads: config.parallelism.workers().max(1),
            order: sweep.order.clone(),
            seconds,
            faults_per_sec: faults.len() as f64 / seconds.max(f64::MIN_POSITIVE),
            op_steps: stats.op_cumulative_total().lookups,
            unique_lookups: stats.unique.lookups,
            peak_nodes: stats.peak_nodes,
        }
    }

    fn key(&self) -> String {
        format!(
            "{}/{}/threads={}/order={}",
            self.circuit, self.fault_model, self.threads, self.order
        )
    }

    fn value_json(&self) -> String {
        format!(
            concat!(
                "{{\"circuit\":\"{}\",\"fault_model\":\"{}\",\"faults\":{},",
                "\"classes\":{},\"threads\":{},\"order\":\"{}\",\"seconds\":{:.6},",
                "\"faults_per_sec\":{:.1},\"op_steps\":{},",
                "\"unique_lookups\":{},\"peak_nodes\":{}}}"
            ),
            self.circuit,
            self.fault_model,
            self.faults,
            self.classes,
            self.threads,
            self.order,
            self.seconds,
            self.faults_per_sec,
            self.op_steps,
            self.unique_lookups,
            self.peak_nodes
        )
    }
}

/// Appends a schema-versioned `SweepReport` for a measured sweep to the file
/// named by `DP_TELEMETRY_JSON`. No-op when the variable is unset, so plain
/// bench runs stay file-free. Reports accumulate per process (one entry per
/// measured sweep, last measurement of a `circuit/fault_model` pair wins) and
/// the file is rewritten on every measurement, so it always parses as a
/// complete `ReportFile` even mid-run.
fn record_telemetry_report(circuit: &Circuit, fault_model: &str, sweep: &SweepResult) {
    let Some(path) = std::env::var_os("DP_TELEMETRY_JSON") else {
        return;
    };
    static REPORTS: Mutex<Vec<dp_telemetry::SweepReport>> = Mutex::new(Vec::new());
    let mut reports = REPORTS.lock().expect("telemetry report lock poisoned");
    reports
        .retain(|r| (r.circuit.as_str(), r.fault_model.as_str()) != (circuit.name(), fault_model));
    reports.push(sweep_report(circuit.name(), fault_model, sweep));
    let mut file = dp_telemetry::ReportFile::new("bench");
    file.reports = reports.clone();
    if let Err(e) = std::fs::write(&path, file.to_pretty_string()) {
        eprintln!("warning: cannot write {}: {e}", PathBuf::from(&path).display());
    }
}

/// Where the bench results land: `DP_BENCH_JSON` when set, else
/// `BENCH_PR9.json` at the workspace root (`BENCH_PR7.json` is the frozen
/// pre-kernel-rewrite baseline the new numbers are compared against).
fn bench_json_path() -> PathBuf {
    match std::env::var_os("DP_BENCH_JSON") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR9.json"),
    }
}

/// Merges `record` into the bench results file (keyed by
/// `circuit/fault_model/threads=N/order=S`), creating the file on first
/// use. The
/// format is one JSON object with one entry per line, so the file both
/// parses as JSON and diffs line-by-line.
pub fn record_bench_result(record: &BenchRecord) {
    let path = bench_json_path();
    let mut entries: BTreeMap<String, String> = BTreeMap::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            // Entry lines look like `"key": {...}`; the braces lines don't.
            let Some(rest) = line.strip_prefix('"') else {
                continue;
            };
            if let Some((key, value)) = rest.split_once("\": ") {
                entries.insert(key.to_string(), value.to_string());
            }
        }
    }
    entries.insert(record.key(), record.value_json());
    let mut out = String::from("{\n");
    let mut first = true;
    for (key, value) in &entries {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{key}\": {value}"));
    }
    out.push_str("\n}\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_netlist::generators::c17;

    /// `DP_TELEMETRY_JSON` makes `measure` leave a schema-valid report file
    /// behind; re-measuring the same workload replaces its entry instead of
    /// appending a duplicate.
    #[test]
    fn measure_writes_a_valid_telemetry_report() {
        let circuit = c17();
        let faults = some_stuck_faults(&circuit, 4);
        let path = std::env::temp_dir().join("dp_bench_telemetry_test.json");
        // Env vars are process-global; this is the only test in the crate
        // that touches this one.
        std::env::set_var("DP_TELEMETRY_JSON", &path);
        BenchRecord::measure(&circuit, &faults, "stuck_at", Parallelism::Serial);
        BenchRecord::measure(&circuit, &faults, "stuck_at", Parallelism::Threads(2));
        std::env::remove_var("DP_TELEMETRY_JSON");
        let text = std::fs::read_to_string(&path).expect("report file written");
        let _ = std::fs::remove_file(&path);
        dp_telemetry::parse_and_validate(&text).expect("report is schema-valid");
        assert_eq!(text.matches("\"circuit\"").count(), 1, "same key replaced");
    }
}
