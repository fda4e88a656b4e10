//! End-to-end tests of `diffprop` as the one client of `diffprop serve`:
//! each test starts the binary's server on an ephemeral port and drives it
//! through `analyze --connect`, `detectability`, `adherence`, `status` and
//! `shutdown`, checking every answer against the local path.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use diffprop::analysis::fault_model_universe;
use diffprop::core::{summary_line, sweep_universe, DiffProp, SweepConfig};
use diffprop::faults::{Fault, FaultSite, StuckAtFault};
use diffprop::netlist::generators;
use diffprop::serve::Frame;
use diffprop::telemetry::json::JsonValue;

const BIN: &str = env!("CARGO_BIN_EXE_diffprop");

/// A running `diffprop serve`. Dropping it kills the process, so a failed
/// assertion can neither leave the server behind nor hang the test.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start() -> Server {
        let mut child = Command::new(BIN)
            .args(["serve", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn diffprop serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        // The reader keeps draining stderr after the banner, so the server
        // never blocks on a full pipe.
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("diffprop: serving on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the server printed no `serving on` line");
        server
    }

    /// Runs `diffprop ARGS --connect <this server>`.
    fn run(&self, args: &[&str]) -> Output {
        diffprop(&[args, &["--connect", &self.addr]].concat())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn diffprop(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run diffprop")
}

/// Stdout of a run that must succeed; stderr is shown if it did not.
fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "diffprop failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn connected_analyze_prints_the_local_rows_and_reuses_the_snapshot() {
    let server = Server::start();
    let local = stdout(&diffprop(&["analyze", "c95", "100000"]));
    let report = format!(
        "{}/serve_cli_stream_report.json",
        env!("CARGO_TARGET_TMPDIR")
    );

    let cold = server.run(&["analyze", "c95", "100000", "--telemetry", &report]);
    assert_eq!(stdout(&cold), local, "connected stdout at 1 thread");
    assert!(stderr(&cold).contains("cache miss"), "{}", stderr(&cold));

    let warm = server.run(&["analyze", "c95", "100000", "--threads", "2"]);
    assert_eq!(stdout(&warm), local, "connected stdout at 2 threads");
    assert!(stderr(&warm).contains("cache hit"), "{}", stderr(&warm));

    let text = std::fs::read_to_string(&report).expect("telemetry file written");
    let doc = diffprop::telemetry::parse_and_validate(&text).expect("schema-valid report");
    let reports = doc
        .get("reports")
        .and_then(JsonValue::as_arr)
        .expect("reports");
    assert!(reports[0].get("stream").is_some(), "stream section present");

    // Bounded rows come back over the wire with their sample count.
    let bounded = [
        "analyze",
        "c95",
        "24",
        "--node-budget",
        "96",
        "--fallback-samples",
        "0",
    ];
    assert_eq!(stdout(&server.run(&bounded)), stdout(&diffprop(&bounded)));
}

#[test]
fn a_budget_smaller_than_the_build_prints_the_local_rows_cold_and_warm() {
    for (order, budget) in [("identity", "48"), ("fanin-dfs", "96")] {
        let bounded = [
            "analyze",
            "c95",
            "24",
            "--order",
            order,
            "--node-budget",
            budget,
            "--fallback-samples",
            "0",
        ];
        let local = stdout(&diffprop(&bounded));
        assert!(local.contains("outcomes: 0 exact, 24 bounded"), "{local}");
        let server = Server::start();
        let cold = server.run(&bounded);
        assert_eq!(stdout(&cold), local, "cold server, --order {order}");
        // An unbudgeted sweep of the same order leaves a resident snapshot
        // that the budgeted request must not answer from.
        let warmup = server.run(&["analyze", "c95", "24", "--order", order]);
        assert!(
            stderr(&warmup).contains("cache miss"),
            "{}",
            stderr(&warmup)
        );
        let warm = server.run(&bounded);
        assert_eq!(stdout(&warm), local, "warm server, --order {order}");
    }
}

/// A one-connection stand-in for a server: it reads one request and
/// answers with `frames`, whatever the request was.
fn fake_server(frames: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let mut request = String::new();
        if let Ok(reader) = stream.try_clone() {
            let _ = BufReader::new(reader).read_line(&mut request);
        }
        // The client may hang up after the first bad record.
        for frame in frames {
            let _ = writeln!(stream, "{frame}");
        }
    });
    (addr, handle)
}

#[test]
fn a_bad_record_ends_a_connected_analyze_with_an_error_not_a_panic() {
    let circuit = generators::c17();
    let faults = fault_model_universe(&circuit, "stuck", None, 0).expect("stuck universe");
    let sweep = sweep_universe(&circuit, &faults[..2], &SweepConfig::default());
    let good = summary_line(0, &sweep.summaries[0]);
    let fault = faults[0].to_string();
    let done = Frame::Done {
        cache: "miss".into(),
        unique_lookups: 0,
        base_hits: 0,
        report: JsonValue::obj(vec![]),
    }
    .to_line();
    // Each record frame carries the index its line states.
    for (index, line, why) in [
        (999, good.replacen("0\t", "999\t", 1), "outside the"),
        (0, good.replace(&fault, &faults[1].to_string()), "names"),
        (0, good.replace("\texact", "\tmaybe"), "bad outcome"),
        (0, "not a record".to_string(), "tab-separated"),
    ] {
        let record = Frame::Record { index, line }.to_line();
        let (addr, server) = fake_server(vec![record, done.clone()]);
        let out = diffprop(&["analyze", "c17", "2", "--connect", &addr]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{why}: {err}");
        assert!(
            err.contains("malformed record") && err.contains(why),
            "{why}: {err}"
        );
        assert!(out.stdout.is_empty(), "no rows printed: {why}");
        server.join().expect("the stand-in server finishes");
    }
}

#[test]
fn point_queries_status_and_shutdown_go_through_the_server() {
    let mut server = Server::start();
    let circuit = generators::c17();
    let net = circuit.find_net("11").expect("c17 has net 11");
    let fault = Fault::StuckAt(StuckAtFault {
        site: FaultSite::Net(net),
        value: true,
    });
    let mut dp = DiffProp::new(&circuit);
    let local = dp.analyze(&fault);
    let bound = dp.detectability_bound(&fault).expect("a syndrome bound");
    let bits = |x: f64| format!("{:016x}", x.to_bits());

    for (cmd, key, want) in [
        (
            "detectability",
            "detectability_bits",
            bits(local.detectability),
        ),
        (
            "adherence",
            "adherence_bits",
            bits(local.detectability / bound),
        ),
    ] {
        let text = stdout(&server.run(&[cmd, "c17", "11", "1"]));
        assert!(
            text.ends_with("}\n"),
            "{cmd}: the JSON value ends the output with one newline: {text:?}"
        );
        let value = diffprop::telemetry::json::parse(&text).expect("one JSON value");
        assert_eq!(
            value.get(key).and_then(JsonValue::as_str),
            Some(want.as_str()),
            "{cmd}"
        );
        assert_eq!(
            value.get("detectability_bits").and_then(JsonValue::as_str),
            Some(bits(local.detectability).as_str()),
            "{cmd}"
        );
    }

    let status = stdout(&server.run(&["status"]));
    assert!(
        status.starts_with("entries 1  bytes ") && status.contains("hits 1  misses 1"),
        "{status}"
    );

    assert!(server.run(&["shutdown"]).status.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        if let Some(exit) = server.child.try_wait().expect("poll the server") {
            break exit;
        }
        assert!(
            Instant::now() < deadline,
            "the server did not exit after shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(exit.success(), "server exit status {exit}");
}

#[test]
fn service_commands_without_their_arguments_print_usage() {
    for args in [
        &["status", "extra"][..],
        &["detectability", "c17", "11"],
        &["adherence", "c17", "11", "2"],
    ] {
        assert_eq!(diffprop(args).status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn usage_keeps_the_indent_of_wrapped_lines() {
    let out = diffprop(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8(out.stderr).expect("utf-8 stderr");
    // A wrapped flag description continues under the description column,
    // and a wrapped usage line under the command name.
    let desc = " ".repeat("--model M             ".len());
    for wrapped in [
        format!("\n{desc}nfbf-or, fbridge-and, fbridge-or, multi\n"),
        format!("\n{desc}there (default "),
        "\n       [--node-budget N]".to_string(),
    ] {
        assert!(usage.contains(&wrapped), "missing {wrapped:?} in:\n{usage}");
    }
}

#[test]
fn bounded_footnote_names_the_vectors_actually_sampled() {
    // Zero samples round up to one 64-vector block, not down to nothing.
    for (samples, footnote) in [
        ("0", "over 64 random vectors"),
        ("256", "over 256 random vectors"),
    ] {
        let out = stdout(&diffprop(&[
            "analyze",
            "c95",
            "24",
            "--node-budget",
            "96",
            "--fallback-samples",
            samples,
        ]));
        assert!(out.contains("outcomes: 0 exact, 24 bounded"), "{out}");
        assert!(
            out.contains(footnote),
            "--fallback-samples {samples}: {out}"
        );
    }
}
