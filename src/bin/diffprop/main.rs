//! `diffprop` — the workspace's one binary: command-line front end for the
//! library, the paper's figures, and the telemetry-report checker.
//!
//! ```text
//! diffprop stats      <circuit>            structural + testability summary
//! diffprop analyze    <circuit> [N]        exact analysis of the first N universe faults
//! diffprop atpg       <circuit>            compact test set + redundancy report
//! diffprop redundancy <circuit>            prove every net fault detectable or not
//! diffprop bridges    <circuit> [N]        NFBF study with N sampled faults per kind
//! diffprop figures                         the paper's Figures 1–8 and extensions
//!                     [--smoke] [--bf-sample N] [--sa-cap N] [--only SECTION,...]
//! diffprop validate-report FILE...         check sweep_report.json files against
//!                                          the schema (exit 0 valid, 1 invalid)
//! diffprop validate-report --max-unique-ratio R BASELINE OTHER
//!                                          ... require equal results and bound
//!                                          OTHER's unique lookups
//! diffprop serve      [HOST:PORT]          resident sweep server (the dp-serve crate;
//!                     [--cache-bytes N]    default 127.0.0.1:4590)
//! diffprop detectability <circuit> <net> 0|1   one net stuck-at fault, asked of a
//! diffprop adherence     <circuit> <net> 0|1   running server
//! diffprop status                          the server's snapshot-cache counters
//! diffprop shutdown                        stop the server
//! ```
//!
//! `<circuit>` is a built-in benchmark name (`c17`, `full_adder`, `c95`,
//! `alu74181`, `c432s`, `c499s`, `c1355s`, `c1908s`) or a path to an
//! ISCAS-85 `.bench` file.
//!
//! Every flag takes `--flag value` or `--flag=value`, anywhere on the line,
//! and a subcommand ignores the flags it has no use for. A missing or
//! malformed value is a usage error (exit 2). `analyze` reads the flags
//! below; `figures` reads them too, all but `--model` and `--connect`:
//!
//! * `--model M` selects the fault model `analyze` sweeps: `stuck`
//!   (default, collapsed checkpoint stuck-at), `nfbf-and` / `nfbf-or`
//!   (non-feedback bridges), `fbridge-and` / `fbridge-or` (feedback
//!   bridges via the ternary fixpoint — rows whose bridge wire oscillates
//!   on some vectors are marked `oscill`), and `multi` (all distinct-site
//!   checkpoint pairs).
//! * `--node-budget N` caps the BDD node table at `N` nodes per fault
//!   analysis. A fault that trips the cap falls back to packed random
//!   fault simulation and its row is marked `bounded` instead of `exact`.
//! * `--fallback-samples N` sets the number of random vectors for those
//!   estimates (default 4096; rounded up to a multiple of 64, at least 64).
//! * `--threads N` shards the sweep over N work-stealing workers; the
//!   printed rows are bit-identical to the serial run.
//! * `--no-collapse` turns off structural fault collapsing (one BDD
//!   propagation per fault instead of per equivalence class) — an ablation
//!   knob; the rows are identical either way.
//! * `--telemetry PATH` writes a schema-versioned `sweep_report.json` with
//!   the sweep's spans, cumulative manager counters, and per-shard
//!   execution detail. Observation-only: the printed rows are byte-identical
//!   with and without the flag.
//! * `--order S` picks the OBDD variable-order strategy (`identity`,
//!   `fanin-dfs`, `auto`); `auto` sifts the fanin-dfs good functions once,
//!   right after they are built. Execution-only:
//!   the printed rows are byte-identical across strategies, but on the deep
//!   surrogates (`c432s`...) a good order is orders of magnitude faster.
//! * `--batch N` caps the cone-disjoint fault batches fused into single
//!   propagation passes (default 8; `1` disables fusion). Execution-only:
//!   rows are identical at every batch size.
//!
//! * `--connect ADDR` routes `analyze` through a running `diffprop serve`
//!   instead of sweeping locally: the server streams the
//!   per-fault records back over TCP and this client re-renders them.
//!   Stdout is byte-identical to the batch run; the win is that the server
//!   keeps the good-function snapshot cached, so repeat analyses skip the
//!   build entirely. The service commands (`detectability`, `adherence`,
//!   `status`, `shutdown`) talk to the server at `--connect ADDR` too, or
//!   at `diffprop serve`'s default address without it; the point queries
//!   honour `--order` and `--node-budget` and print the server's JSON value.
//!
//! `--max-unique-ratio R` makes `validate-report` compare two reports of
//! the same workload. Their results must be equal: the same number of
//! reports, the same `circuit` per report, and equal values for every
//! `result` field both reports carry (fault, class and outcome counts and
//! the summary digest `summaries_fnv`). And the unique-table lookups of
//! `OTHER` (summed over every report's `execution.totals` section) must be
//! at most `R` times those of `BASELINE`. CI uses it to check that a
//! threaded shared-snapshot sweep does not rebuild the good functions per
//! worker, and to bound lookup work against committed baselines.
//!
//! Without `--node-budget` every analysis is exact and the output is
//! identical to the unbudgeted engine's.

use diffprop::analysis::{
    analyze_faults, bridging_universe, fault_model_universe, records_from_summaries,
    stuck_at_universe, Histogram,
};
use diffprop::core::{
    find_redundancies, generate_tests, summary_from_line, sweep_report, sweep_universe,
    BudgetConfig, EngineConfig, FaultOutcome, OrderStrategy, Parallelism, SweepConfig,
};
use diffprop::faults::BridgeKind;
use diffprop::netlist::{find_xor_quads, generators, parse_bench, Circuit, Scoap};
use diffprop::serve::{CircuitSpec, Client, PointParams, DEFAULT_ADDR};
use diffprop::telemetry::json::JsonValue;

mod ablations;
mod figures;

fn load(arg: &str) -> Circuit {
    generators::by_name(arg).unwrap_or_else(|| {
        let src = std::fs::read_to_string(arg).unwrap_or_else(|e| {
            eprintln!("cannot read {arg}: {e}");
            std::process::exit(1);
        });
        parse_bench(&src, arg).unwrap_or_else(|e| {
            eprintln!("cannot parse {arg}: {e}");
            std::process::exit(1);
        })
    })
}

fn usage() -> ! {
    // One literal with real line breaks: a `\` continuation would strip the
    // indentation of every wrapped line.
    eprintln!(
        "\
usage: diffprop <stats|analyze|atpg|redundancy|bridges> <circuit> [n] [--model M]
       [--node-budget N] [--fallback-samples N] [--threads N] [--no-collapse]
       [--telemetry PATH] [--order identity|fanin-dfs|auto] [--batch N] [--connect ADDR]
or:    diffprop figures [--smoke] [--bf-sample N] [--sa-cap N] [--only SECTION,...]
       [--node-budget N] [--fallback-samples N] [--threads N] [--no-collapse]
       [--telemetry PATH] [--order S] [--batch N]
or:    diffprop validate-report FILE... | --max-unique-ratio R BASELINE OTHER
or:    diffprop serve [HOST:PORT] [--cache-bytes N]
or:    diffprop <detectability|adherence> <circuit> <net> 0|1 [--order S] [--node-budget N] [--connect ADDR]
or:    diffprop <status|shutdown> [--connect ADDR]
circuit: c17 | full_adder | c95 | alu74181 | c432s | c499s | c1355s | c1908s | path.bench
sections: {sections}
--model M             fault model for `analyze`: stuck (default), nfbf-and,
                      nfbf-or, fbridge-and, fbridge-or, multi
--node-budget N       cap BDD nodes per analysis; over-budget faults degrade to
                      sampled simulation estimates
--fallback-samples N  random vectors per degraded estimate (default 4096)
--threads N           work-stealing sweep workers (output unchanged)
--no-collapse         one propagation per fault instead of per equivalence class
--telemetry PATH      write a machine-readable sweep_report.json to PATH
                      (analyze and figures; printed output is unchanged)
--order S             OBDD variable-order strategy (default identity);
                      auto = fanin-dfs + one sift at build. Rows are identical
                      across strategies, wall clock is not
--batch N             max cone-disjoint faults fused per propagation pass
                      (default 8, 1 disables fusion; rows are identical)
--connect ADDR        run `analyze` through a resident sweep server instead of
                      sweeping locally (stdout is byte-identical to the batch run);
                      detectability, adherence, status and shutdown ask the server
                      there (default {DEFAULT_ADDR})
--cache-bytes N       snapshot-cache byte budget for `serve` (default 256 MiB)
--smoke               reduced `figures` workload (fast CI check); every other
                      flag applies on top of it, wherever it stands
--bf-sample N         max sampled bridging faults per circuit and kind (figures)
--sa-cap N            max stuck-at faults per circuit (figures)
--only SECTION,...    print only these figure sections (ablations, the exact
                      cost counters, prints only when named)
--max-unique-ratio R  validate-report: OTHER's results must equal BASELINE's and
                      its summed unique-table lookups be at most R times
                      BASELINE's",
        sections = figures::SECTIONS.join(",")
    );
    std::process::exit(2);
}

/// Every option of every subcommand; each subcommand reads the ones it
/// uses.
struct Opts {
    model: String,
    node_budget: Option<usize>,
    fallback_samples: u64,
    threads: usize,
    collapse: bool,
    telemetry_path: Option<String>,
    order: OrderStrategy,
    batch: usize,
    connect: Option<String>,
    cache_bytes: Option<usize>,
    smoke: bool,
    bf_sample: Option<usize>,
    sa_cap: Option<usize>,
    only: Option<Vec<String>>,
    max_unique_ratio: Option<f64>,
}

impl Opts {
    fn budget(&self) -> BudgetConfig {
        match self.node_budget {
            Some(n) => BudgetConfig::with_max_nodes(n),
            None => BudgetConfig::UNLIMITED,
        }
    }

    /// The sweep configuration of `analyze` and `figures`.
    fn sweep(&self) -> SweepConfig {
        SweepConfig {
            engine: EngineConfig {
                budget: self.budget(),
                order: self.order,
                ..Default::default()
            },
            parallelism: Parallelism::Threads(self.threads),
            fallback_samples: self.fallback_samples,
            collapse: self.collapse,
            batch: self.batch,
            ..Default::default()
        }
    }

    /// Writes the report `text` renders to `--telemetry PATH`, if given, or
    /// exits 1.
    fn write_telemetry(&self, text: impl FnOnce() -> String) {
        let Some(path) = &self.telemetry_path else {
            return;
        };
        if let Err(e) = std::fs::write(path, text()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("telemetry report written to {path}");
    }
}

/// `v` as a number, or a usage error naming `flag`.
fn number<T: std::str::FromStr>(flag: &str, v: String) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: `{v}` is not a number");
        usage()
    })
}

/// Splits `--flag value` / `--flag=value` options out of the raw argument
/// list, leaving the positionals.
fn parse_args(raw: Vec<String>) -> (Vec<String>, Opts) {
    let mut positional = Vec::new();
    let defaults = SweepConfig::default();
    let mut opts = Opts {
        model: "stuck".into(),
        node_budget: None,
        fallback_samples: defaults.fallback_samples,
        threads: 1,
        collapse: defaults.collapse,
        telemetry_path: None,
        order: defaults.engine.order,
        batch: defaults.batch,
        connect: None,
        cache_bytes: None,
        smoke: false,
        bf_sample: None,
        sa_cap: None,
        only: None,
        max_unique_ratio: None,
    };
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let mut value = || -> String {
            inline.clone().or_else(|| it.next()).unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--model" => opts.model = value(),
            "--node-budget" => opts.node_budget = Some(number(&flag, value())),
            "--fallback-samples" => opts.fallback_samples = number(&flag, value()),
            "--threads" => opts.threads = number(&flag, value()),
            "--no-collapse" => opts.collapse = false,
            "--telemetry" => opts.telemetry_path = Some(value()),
            "--order" => {
                let v = value();
                opts.order = OrderStrategy::parse(&v).unwrap_or_else(|| {
                    eprintln!("--order: unknown strategy `{v}`");
                    usage()
                });
            }
            "--batch" => {
                opts.batch = number(&flag, value());
                if opts.batch == 0 {
                    eprintln!("--batch: must be at least 1");
                    usage()
                }
            }
            "--connect" => opts.connect = Some(value()),
            "--cache-bytes" => opts.cache_bytes = Some(number(&flag, value())),
            "--smoke" => opts.smoke = true,
            "--bf-sample" => opts.bf_sample = Some(number(&flag, value())),
            "--sa-cap" => opts.sa_cap = Some(number(&flag, value())),
            "--only" => {
                let names: Vec<String> = value().split(',').map(str::to_string).collect();
                if let Some(bad) = names
                    .iter()
                    .find(|n| !figures::SECTIONS.contains(&n.as_str()))
                {
                    eprintln!("--only: unknown section `{bad}`");
                    usage()
                }
                opts.only = Some(names);
            }
            "--max-unique-ratio" => {
                let v = value();
                match v.parse::<f64>() {
                    Ok(r) if r > 0.0 => opts.max_unique_ratio = Some(r),
                    _ => {
                        eprintln!("--max-unique-ratio: `{v}` is not a positive number");
                        usage()
                    }
                }
            }
            f if f.starts_with("--") => {
                eprintln!("unknown option {f}");
                usage()
            }
            _ => positional.push(arg),
        }
    }
    (positional, opts)
}

fn main() {
    let (args, opts) = parse_args(std::env::args().skip(1).collect());
    let Some(cmd) = args.first().map(String::as_str) else {
        usage()
    };
    match cmd {
        "serve" => return serve(args.get(1).map_or(DEFAULT_ADDR, String::as_str), &opts),
        "detectability" | "adherence" | "status" | "shutdown" => {
            return service(cmd, &args[1..], &opts)
        }
        "figures" if args.len() == 1 => return figures::run(&opts),
        "figures" => usage(),
        "validate-report" => return validate_report(&args[1..], opts.max_unique_ratio),
        _ => {}
    }
    let Some(target) = args.get(1).map(String::as_str) else {
        usage()
    };
    let n: usize = args
        .get(2)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);
    let analyzed = if n == 0 { 20 } else { n };
    if let ("analyze", Some(addr)) = (cmd, &opts.connect) {
        return analyze_connect(target, analyzed, &opts, addr);
    }
    let circuit = load(target);

    match cmd {
        "stats" => stats(&circuit),
        "analyze" => analyze(&circuit, analyzed, &opts),
        "atpg" => atpg(&circuit),
        "redundancy" => redundancy(&circuit),
        "bridges" => bridges(&circuit, if n == 0 { 200 } else { n }),
        _ => usage(),
    }
}

fn serve(addr: &str, opts: &Opts) {
    let mut config = diffprop::serve::ServerConfig::default();
    if let Some(bytes) = opts.cache_bytes {
        config.cache_bytes = bytes;
    }
    let server = diffprop::serve::Server::bind(addr, config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!("diffprop: serving on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("diffprop serve: {e}");
        std::process::exit(1);
    }
}

/// Connects to the server at `addr`, or exits 1.
fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    })
}

/// Parses a circuit argument for the wire (a builtin by name, a `.bench`
/// file inline), or exits 1.
fn circuit_spec(target: &str) -> CircuitSpec {
    CircuitSpec::from_arg(target).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// The service commands: one request to the server at `--connect`
/// (default [`DEFAULT_ADDR`]), its answer printed to stdout.
fn service(cmd: &str, args: &[String], opts: &Opts) {
    let point = match args {
        [] if matches!(cmd, "status" | "shutdown") => None,
        [target, net, value] if matches!(cmd, "detectability" | "adherence") => {
            let stuck_at = match value.as_str() {
                "0" => false,
                "1" => true,
                _ => usage(),
            };
            let point = PointParams {
                order: opts.order,
                budget: opts.budget(),
                net: net.clone(),
                stuck_at,
            };
            Some((circuit_spec(target), point))
        }
        _ => usage(),
    };
    let addr = opts.connect.as_deref().unwrap_or(DEFAULT_ADDR);
    let mut client = connect(addr);
    let answered = match point {
        Some((spec, point)) => client
            .point(cmd == "adherence", spec, point)
            .map(|value| print!("{}", value.to_pretty_string())),
        None if cmd == "status" => client.status().map(|s| {
            println!(
                "entries {}  bytes {}/{}  hits {}  misses {}  evictions {}",
                s.entries, s.bytes, s.budget_bytes, s.hits, s.misses, s.evictions
            )
        }),
        None => client
            .shutdown()
            .map(|()| eprintln!("server at {addr} acknowledged shutdown")),
    };
    if let Err(e) = answered {
        eprintln!("{cmd} via {addr} failed: {e}");
        std::process::exit(1);
    }
}

/// `diffprop validate-report`: checks each file against the current
/// `sweep_report.json` schema and, under `--max-unique-ratio R`, requires
/// the two files' results to be equal and bounds the second file's
/// unique-table lookups by `R` times the first's. Exits 1 when a file is
/// unreadable or invalid, the results differ, or the bound fails.
fn validate_report(files: &[String], max_ratio: Option<f64>) {
    if files.is_empty() {
        usage()
    }
    if max_ratio.is_some() && files.len() != 2 {
        eprintln!("--max-unique-ratio compares exactly two files (BASELINE OTHER)");
        usage()
    }
    let mut failed = false;
    let mut docs = Vec::new();
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        match diffprop::telemetry::parse_and_validate(&text) {
            Ok(doc) => {
                let reports = doc
                    .get("reports")
                    .and_then(|r| r.as_arr())
                    .map_or(0, |r| r.len());
                println!(
                    "{path}: valid (schema_version {}, {} report{})",
                    diffprop::telemetry::SCHEMA_VERSION,
                    reports,
                    if reports == 1 { "" } else { "s" }
                );
                docs.push(doc);
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if let (Some(ratio), false) = (max_ratio, failed) {
        match result_mismatch(&docs[0], &docs[1]) {
            None => println!("results: equal in every report"),
            Some(mismatch) => {
                eprintln!("results differ: {mismatch}");
                failed = true;
            }
        }
        match (
            total_unique_lookups(&docs[0]),
            total_unique_lookups(&docs[1]),
        ) {
            (Some(baseline), Some(other)) => {
                let bound = baseline as f64 * ratio;
                if other as f64 <= bound {
                    println!("unique lookups: {other} <= {ratio} x {baseline} (baseline) — ok");
                } else {
                    eprintln!(
                        "unique lookups: {other} exceeds {ratio} x {baseline} (baseline); \
                         the sweep is rebuilding shared state per worker"
                    );
                    failed = true;
                }
            }
            _ => {
                eprintln!("cannot read execution.totals.counters.unique_lookups from both files");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// What two reports of one workload must agree on wherever both carry it:
/// the report's `circuit` and its `result` fields (older reports have no
/// `oscillating`).
const COMPARED_FIELDS: [&str; 9] = [
    "circuit",
    "faults",
    "classes",
    "singleton_classes",
    "largest_class",
    "exact",
    "bounded",
    "oscillating",
    "summaries_fnv",
];

/// The first difference between two files' results: the number of reports,
/// or one of the [`COMPARED_FIELDS`] of a report.
fn result_mismatch(baseline: &JsonValue, other: &JsonValue) -> Option<String> {
    fn reports(doc: &JsonValue) -> &[JsonValue] {
        doc.get("reports")
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
    }
    fn field<'a>(report: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
        match name {
            "circuit" => report.get(name),
            _ => report.get("result")?.get(name),
        }
    }
    let (a, b) = (reports(baseline), reports(other));
    if a.len() != b.len() {
        return Some(format!("{} reports vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for name in COMPARED_FIELDS {
            if let (Some(p), Some(q)) = (field(x, name), field(y, name)) {
                if p != q {
                    let (p, q) = (p.to_compact_string(), q.to_compact_string());
                    return Some(format!("report {i}: {name} {p} vs {q}"));
                }
            }
        }
    }
    None
}

/// Cumulative unique-table lookups summed over every report in the file.
fn total_unique_lookups(doc: &JsonValue) -> Option<u64> {
    let reports = doc.get("reports")?.as_arr()?;
    let mut total = 0u64;
    for report in reports {
        total += report
            .get("execution")?
            .get("totals")?
            .get("counters")?
            .get("unique_lookups")?
            .as_u64()?;
    }
    Some(total)
}

fn stats(circuit: &Circuit) {
    println!("circuit: {}", circuit.name());
    println!("  inputs:  {}", circuit.num_inputs());
    println!("  outputs: {}", circuit.num_outputs());
    println!("  gates:   {}", circuit.num_gates());
    let levels = circuit.levels_from_inputs();
    println!("  depth:   {}", levels.iter().max().unwrap_or(&0));
    println!("  fanout branches: {}", circuit.fanout_branches().len());
    println!("  xor quads: {}", find_xor_quads(circuit).len());
    let scoap = Scoap::compute(circuit);
    let worst = circuit
        .nets()
        .filter(|&n| scoap.co(n) != u32::MAX)
        .max_by_key(|&n| {
            scoap
                .stuck_at_cost(n, false)
                .min(scoap.stuck_at_cost(n, true))
        });
    if let Some(w) = worst {
        println!(
            "  hardest net by SCOAP: {} (CC0 {}, CC1 {}, CO {})",
            circuit.net_name(w),
            scoap.cc0(w),
            scoap.cc1(w),
            scoap.co(w)
        );
    }
}

fn analyze(circuit: &Circuit, n: usize, opts: &Opts) {
    let mut faults = fault_model_universe(circuit, &opts.model, None, 0).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    faults.truncate(n);
    let sweep = sweep_universe(circuit, &faults, &opts.sweep());
    eprintln!(
        "{} faults in {} equivalence classes over {} worker(s)",
        faults.len(),
        sweep.classes,
        sweep.shards.len()
    );
    opts.write_telemetry(|| {
        let mut file = diffprop::telemetry::ReportFile::new("diffprop");
        file.reports
            .push(sweep_report(circuit.name(), &opts.model, &sweep));
        file.to_pretty_string()
    });
    print_analysis(circuit, &sweep.summaries);
}

/// Runs `analyze` through a resident sweep server. The server streams one
/// TSV record per fault; this function parses each back into a summary of
/// its own fault list and feeds the same print path as the batch run, so
/// stdout is byte-identical.
fn analyze_connect(target: &str, n: usize, opts: &Opts, addr: &str) {
    use diffprop::serve::SweepParams;

    let spec = circuit_spec(target);
    // The fault list is derived from the very bytes the request carries, so
    // the server derives the identical one: records name faults by index.
    let circuit = spec.compile().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let mut faults = fault_model_universe(&circuit, &opts.model, None, 0).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    faults.truncate(n);
    let mut client = connect(addr);
    let params = SweepParams {
        order: opts.order,
        model: opts.model.clone(),
        count: n,
        collapse: opts.collapse,
        threads: opts.threads,
        fallback_samples: opts.fallback_samples,
        budget: opts.budget(),
    };
    let mut summaries = Vec::with_capacity(faults.len());
    let outcome = client
        .sweep(spec, params, |_, line| {
            match summary_from_line(line, &faults) {
                Ok((_, summary)) => summaries.push(summary),
                Err(e) => {
                    eprintln!("malformed record from {addr}: {e}");
                    std::process::exit(1);
                }
            }
        })
        .unwrap_or_else(|e| {
            eprintln!("sweep via {addr} failed: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "{} faults in {} equivalence classes over {} worker(s)",
        faults.len(),
        outcome.classes(),
        outcome.workers()
    );
    eprintln!(
        "server cache {}: {} unique lookups, {} resolved by the frozen base",
        outcome.cache, outcome.unique_lookups, outcome.base_hits
    );
    opts.write_telemetry(|| outcome.report_document().to_pretty_string());
    print_analysis(&circuit, &summaries);
}

/// The `analyze` output: per-fault rows, the outcome tally, and the
/// detectability histogram. Shared by the local sweep and the `--connect`
/// client so the two paths cannot drift apart.
fn print_analysis(circuit: &Circuit, summaries: &[diffprop::core::FaultSummary]) {
    println!(
        "{:<28} {:>10} {:>12} {:>10} {:>6} {:>8}",
        "fault", "det prob", "exact tests", "adherence", "POs", "outcome"
    );
    for s in summaries {
        let adh = s
            .adherence
            .map_or_else(|| "-".into(), |x| format!("{x:.4}"));
        println!(
            "{:<28} {:>10.4} {:>12} {:>10} {:>3}/{:<2} {:>8}",
            s.fault.to_string(),
            s.detectability,
            s.test_count.map_or_else(|| "-".into(), |c| c.to_string()),
            adh,
            s.num_observable(),
            circuit.num_outputs(),
            if s.outcome.is_exact() {
                "exact"
            } else if s.outcome.is_oscillating() {
                "oscill"
            } else {
                "bounded"
            }
        );
    }
    let oscillating = summaries
        .iter()
        .filter(|s| s.outcome.is_oscillating())
        .count();
    let exact = summaries.iter().filter(|s| s.outcome.is_exact()).count();
    let bounded = summaries.len() - exact - oscillating;
    print!("\noutcomes: {exact} exact, {bounded} bounded");
    if oscillating > 0 {
        print!(", {oscillating} oscillating");
    }
    println!();
    // Every bounded row of one sweep was sampled over the same vector count.
    let samples = summaries.iter().find_map(|s| match s.outcome {
        FaultOutcome::Bounded { samples } => Some(samples),
        _ => None,
    });
    if let Some(samples) = samples {
        println!(
            "(bounded rows are estimates over {samples} random vectors; raise --node-budget for exact results)"
        );
    }
    let faults: Vec<_> = summaries.iter().map(|s| s.fault.clone()).collect();
    let records = records_from_summaries(circuit, &faults, summaries);
    println!("\ndetectability profile:");
    print!(
        "{}",
        Histogram::from_values(15, records.iter().map(|r| r.detectability))
    );
}

fn atpg(circuit: &Circuit) {
    let faults: Vec<_> = stuck_at_universe(circuit, false);
    let t = std::time::Instant::now();
    let tests = generate_tests(circuit, &faults);
    eprintln!("atpg took {:?}", t.elapsed());
    println!(
        "{} vectors cover {}/{} checkpoint faults ({} undetectable)",
        tests.vectors.len(),
        tests.covered,
        faults.len(),
        tests.undetectable.len(),
    );
    for v in &tests.vectors {
        let s: String = v.iter().map(|&b| if b { '1' } else { '0' }).collect();
        println!("{s}");
    }
}

fn redundancy(circuit: &Circuit) {
    let t = std::time::Instant::now();
    let report = find_redundancies(circuit);
    eprintln!("redundancy took {:?}", t.elapsed());
    println!(
        "{} of {} net faults redundant",
        report.redundant.len(),
        report.examined,
    );
    for f in &report.redundant {
        println!("redundant: {} ({})", f, circuit.net_name(f.site.net()));
    }
    if report.is_irredundant() {
        println!("circuit is fully irredundant");
    }
}

fn bridges(circuit: &Circuit, n: usize) {
    for kind in [BridgeKind::And, BridgeKind::Or] {
        let faults = bridging_universe(circuit, kind, Some(n), 1990);
        let records = analyze_faults(circuit, &faults);
        let detectable = records.iter().filter(|r| r.is_detectable()).count();
        let stuck_like = records.iter().filter(|r| r.site_function_constant).count();
        let mean = records
            .iter()
            .filter(|r| r.is_detectable())
            .map(|r| r.detectability)
            .sum::<f64>()
            / detectable.max(1) as f64;
        println!(
            "{kind} NFBFs: {} analysed, {} detectable, {} stuck-at-like, mean det {:.4}",
            records.len(),
            detectable,
            stuck_like,
            mean
        );
    }
}
