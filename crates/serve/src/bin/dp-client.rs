//! `dp-client` — command-line client for a running `diffprop serve`.
//!
//! ```text
//! dp-client sweep --circuit c432s --order auto [--model M] [--threads N]
//!                 [--count N] [--no-collapse] [--node-budget N]
//!                 [--fallback-samples N] [--report PATH]
//! dp-client detectability --circuit c17 --net <name> --stuck-at 0|1 [--order S]
//! dp-client adherence     --circuit c17 --net <name> --stuck-at 0|1 [--order S]
//! dp-client status
//! dp-client shutdown
//! ```
//!
//! All commands accept `--addr HOST:PORT` (default `127.0.0.1:4590`).
//! `sweep` prints one TSV record per fault to stdout — byte-identical to
//! the batch [`dp_core::summary_line`] rendering — and a one-line summary
//! to stderr; `--report PATH` writes the schema-v2 `sweep_report.json`
//! the server returned (stream section included).

use dp_core::OrderStrategy;
use dp_serve::{CircuitSpec, Client, PointParams, SweepParams};
use dp_bdd::BudgetConfig;

fn usage() -> ! {
    eprintln!(
        "usage: dp-client [--addr HOST:PORT] <sweep|detectability|adherence|status|shutdown> ...\n\
         sweep         --circuit C [--order S] [--model M] [--count N] [--threads N]\n\
                       [--no-collapse] [--node-budget N] [--fallback-samples N] [--report PATH]\n\
         M is a fault model: stuck (default), nfbf-and, nfbf-or, fbridge-and,\n\
         fbridge-or, or multi\n\
         detectability --circuit C --net NAME --stuck-at 0|1 [--order S] [--node-budget N]\n\
         adherence     --circuit C --net NAME --stuck-at 0|1 [--order S] [--node-budget N]\n\
         status        snapshot-cache counters\n\
         shutdown      stop the server\n\
         C is a builtin benchmark name (c17, full_adder, c95, alu74181, c432s, c499s,\n\
         c1355s, c1908s) or a path to an ISCAS-85 .bench file (sent inline)"
    );
    std::process::exit(2);
}

struct Opts {
    addr: String,
    circuit: Option<String>,
    model: String,
    order: OrderStrategy,
    count: usize,
    threads: usize,
    collapse: bool,
    node_budget: Option<usize>,
    fallback_samples: u64,
    report: Option<String>,
    net: Option<String>,
    stuck_at: Option<bool>,
}

fn parse_args(raw: Vec<String>) -> (Vec<String>, Opts) {
    let mut positional = Vec::new();
    let mut opts = Opts {
        addr: "127.0.0.1:4590".into(),
        circuit: None,
        model: "stuck".into(),
        order: OrderStrategy::Identity,
        count: 0,
        threads: 1,
        collapse: true,
        node_budget: None,
        fallback_samples: 4096,
        report: None,
        net: None,
        stuck_at: None,
    };
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let mut value = |name: &str| -> String {
            inline.clone().or_else(|| it.next()).unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        let number = |name: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name}: `{v}` is not a number");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr"),
            "--circuit" => opts.circuit = Some(value("--circuit")),
            "--model" => opts.model = value("--model"),
            "--order" => {
                let v = value("--order");
                opts.order = OrderStrategy::parse(&v).unwrap_or_else(|| {
                    eprintln!("--order: unknown strategy `{v}`");
                    usage()
                });
            }
            "--count" => opts.count = number("--count", value("--count")) as usize,
            "--threads" => opts.threads = number("--threads", value("--threads")) as usize,
            "--no-collapse" => opts.collapse = false,
            "--node-budget" => {
                opts.node_budget = Some(number("--node-budget", value("--node-budget")) as usize)
            }
            "--fallback-samples" => {
                opts.fallback_samples =
                    number("--fallback-samples", value("--fallback-samples"))
            }
            "--report" => opts.report = Some(value("--report")),
            "--net" => opts.net = Some(value("--net")),
            "--stuck-at" => {
                opts.stuck_at = match value("--stuck-at").as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => {
                        eprintln!("--stuck-at: expected 0 or 1, got `{v}`");
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

fn budget(opts: &Opts) -> BudgetConfig {
    match opts.node_budget {
        Some(n) => BudgetConfig::with_max_nodes(n),
        None => BudgetConfig::UNLIMITED,
    }
}

fn circuit_spec(opts: &Opts) -> CircuitSpec {
    let arg = opts.circuit.as_deref().unwrap_or_else(|| {
        eprintln!("--circuit is required");
        usage()
    });
    CircuitSpec::from_arg(arg).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn connect(opts: &Opts) -> Client {
    Client::connect(opts.addr.as_str()).unwrap_or_else(|e| {
        eprintln!("dp-client: cannot connect to {}: {e}", opts.addr);
        std::process::exit(1);
    })
}

fn main() {
    let (args, opts) = parse_args(std::env::args().skip(1).collect());
    let Some(cmd) = args.first() else { usage() };
    let mut client = connect(&opts);
    let outcome = match cmd.as_str() {
        "sweep" => {
            let params = SweepParams {
                order: opts.order,
                model: opts.model.clone(),
                count: opts.count,
                collapse: opts.collapse,
                threads: opts.threads,
                fallback_samples: opts.fallback_samples,
                budget: budget(&opts),
            };
            client.sweep(circuit_spec(&opts), params, |_, line| println!("{line}"))
        }
        "detectability" | "adherence" => {
            let point = PointParams {
                order: opts.order,
                budget: budget(&opts),
                net: opts.net.clone().unwrap_or_else(|| {
                    eprintln!("--net is required");
                    usage()
                }),
                stuck_at: opts.stuck_at.unwrap_or_else(|| {
                    eprintln!("--stuck-at is required");
                    usage()
                }),
            };
            match client.point(cmd == "adherence", circuit_spec(&opts), point) {
                Ok(fields) => {
                    println!("{}", fields.to_pretty_string());
                    return;
                }
                Err(e) => {
                    eprintln!("dp-client: {e}");
                    std::process::exit(1);
                }
            }
        }
        "status" => match client.status() {
            Ok(s) => {
                println!(
                    "entries {}  bytes {}/{}  hits {}  misses {}  evictions {}",
                    s.entries, s.bytes, s.budget_bytes, s.hits, s.misses, s.evictions
                );
                return;
            }
            Err(e) => {
                eprintln!("dp-client: {e}");
                std::process::exit(1);
            }
        },
        "shutdown" => match client.shutdown() {
            Ok(()) => {
                eprintln!("dp-client: server acknowledged shutdown");
                return;
            }
            Err(e) => {
                eprintln!("dp-client: {e}");
                std::process::exit(1);
            }
        },
        _ => usage(),
    };
    match outcome {
        Ok(done) => {
            eprintln!(
                "{} records ({} skipped), cache {}, {} unique lookups ({} from the frozen base)",
                done.records, done.skipped, done.cache, done.unique_lookups, done.base_hits
            );
            if let Some(path) = &opts.report {
                let text = done.report_document().to_pretty_string();
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("dp-client: cannot write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("dp-client: report written to {path}");
            }
        }
        Err(e) => {
            eprintln!("dp-client: {e}");
            std::process::exit(1);
        }
    }
}
