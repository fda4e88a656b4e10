//! End-to-end tests against a real in-process server on a loopback port:
//! golden stream/batch identity, snapshot-cache reuse (the zero-rebuild
//! acceptance criterion), concurrency, and protocol error handling.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::thread;

use dp_analysis::stuck_at_universe;
use dp_core::{
    summary_from_line, summary_line, sweep_universe, sweep_universe_ext, BudgetConfig, DiffProp,
    EngineConfig, OrderStrategy, Parallelism, SweepConfig,
};
use dp_netlist::generators;
use dp_serve::{
    CircuitSpec, Client, Frame, PointParams, Server, ServerConfig, SweepParams,
    MAX_FALLBACK_SAMPLES, MAX_REQUEST_BYTES,
};
use dp_telemetry::json::JsonValue;

/// Starts a server on an OS-assigned loopback port; the returned guard
/// shuts it down (and joins the accept loop) on drop.
struct TestServer {
    addr: std::net::SocketAddr,
    handle: Option<thread::JoinHandle<()>>,
}

impl TestServer {
    fn start() -> TestServer {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr();
        let handle = thread::spawn(move || server.run().expect("serve"));
        TestServer {
            addr,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The batch TSV for the full collapsed stuck-at universe of a builtin.
fn batch_tsv(name: &str, threads: usize) -> (Vec<String>, dp_core::SweepResult) {
    let circuit = match name {
        "c17" => generators::c17(),
        "c95" => generators::c95(),
        other => panic!("unexpected circuit {other}"),
    };
    let faults = stuck_at_universe(&circuit, true);
    let sweep = sweep_universe(
        &circuit,
        &faults,
        &SweepConfig {
            parallelism: if threads <= 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(threads)
            },
            ..Default::default()
        },
    );
    let lines = sweep
        .summaries
        .iter()
        .enumerate()
        .map(|(i, s)| summary_line(i, s))
        .collect();
    (lines, sweep)
}

fn sweep_lines(
    client: &mut Client,
    name: &str,
    threads: usize,
) -> (Vec<String>, dp_serve::SweepOutcome) {
    let mut lines = Vec::new();
    let outcome = client
        .sweep(
            CircuitSpec::Builtin(name.into()),
            SweepParams {
                threads,
                ..Default::default()
            },
            |_, line| lines.push(line.to_string()),
        )
        .expect("sweep");
    (lines, outcome)
}

#[test]
fn streamed_sweep_is_byte_identical_to_batch_at_1_and_4_threads() {
    let server = TestServer::start();
    let (golden, _) = batch_tsv("c95", 1);
    for threads in [1usize, 4] {
        let mut client = server.client();
        let (lines, outcome) = sweep_lines(&mut client, "c95", threads);
        assert_eq!(
            lines.join("\n"),
            golden.join("\n"),
            "streamed concatenation must reproduce the batch TSV at {threads} thread(s)"
        );
        assert_eq!(outcome.records as usize, golden.len());
        assert_eq!(outcome.skipped, 0);
    }
}

#[test]
fn repeat_sweep_hits_the_cache_and_performs_zero_good_function_builds() {
    let server = TestServer::start();
    let mut client = server.client();
    let (_, first) = sweep_lines(&mut client, "c95", 1);
    assert_eq!(first.cache, "miss", "first request admits the snapshot");
    let (_, second) = sweep_lines(&mut client, "c95", 1);
    assert_eq!(second.cache, "hit", "repeat request reuses it");

    // Thaw-only baseline: a local warm sweep over an identical snapshot.
    // At one worker the claim order is deterministic, so the server's
    // second request must match this exactly — the 1.05× acceptance bound
    // is slack it does not need.
    let circuit = generators::c95();
    let faults = stuck_at_universe(&circuit, true);
    let snapshot =
        DiffProp::build_snapshot(&circuit, EngineConfig::default()).expect("unbudgeted build");
    let warm = sweep_universe_ext(
        &circuit,
        &faults,
        &SweepConfig::default(),
        Some(&snapshot),
        None,
    );
    let baseline = warm.merged_stats().unique.lookups;
    assert!(baseline > 0);
    assert!(
        second.unique_lookups as f64 <= 1.05 * baseline as f64,
        "cache-hit sweep must be thaw-only: {} lookups vs {} baseline",
        second.unique_lookups,
        baseline
    );
    // Both server requests ran warm (the miss built its snapshot at cache
    // admission, outside the sweep), so their counters agree too.
    assert_eq!(first.unique_lookups, second.unique_lookups);
    assert_eq!(second.unique_lookups, baseline);

    let status = client.status().expect("status");
    assert_eq!(status.entries, 1);
    assert_eq!(status.misses, 1, "one admission");
    assert!(status.hits >= 1);
    assert_eq!(status.evictions, 0);
}

#[test]
fn budgeted_requests_run_the_local_code_and_leave_the_cache_alone() {
    let server = TestServer::start();
    let mut client = server.client();
    // A resident unbudgeted snapshot that a budgeted request must not use.
    let (_, warmup) = sweep_lines(&mut client, "c95", 1);
    assert_eq!(warmup.cache, "miss");

    // 48 nodes is less than c95's good-function build: the local sweep
    // degrades every class to a sampled estimate, and so must the server.
    let budget = BudgetConfig::with_max_nodes(48);
    let circuit = generators::c95();
    let faults = stuck_at_universe(&circuit, true);
    let local = sweep_universe(
        &circuit,
        &faults[..24],
        &SweepConfig {
            engine: EngineConfig {
                budget,
                ..Default::default()
            },
            fallback_samples: 0,
            ..Default::default()
        },
    );
    assert!(local.summaries.iter().all(|s| !s.outcome.is_exact()));
    let mut lines = Vec::new();
    let outcome = client
        .sweep(
            CircuitSpec::Builtin("c95".into()),
            SweepParams {
                count: 24,
                fallback_samples: 0,
                budget,
                ..Default::default()
            },
            |_, line| lines.push(line.to_string()),
        )
        .expect("a budgeted sweep degrades, it does not fail");
    let expected: Vec<String> = local
        .summaries
        .iter()
        .enumerate()
        .map(|(i, s)| summary_line(i, s))
        .collect();
    assert_eq!(lines, expected);
    assert_eq!(outcome.cache, "miss");

    // A point query builds under its budget: too small is an error, enough
    // answers from its own build.
    let net = circuit.net_name(circuit.inputs()[0]).to_string();
    let point = |budget| PointParams {
        order: OrderStrategy::Identity,
        budget,
        net: net.clone(),
        stuck_at: false,
    };
    let c95 = || CircuitSpec::Builtin("c95".into());
    let tripped = client
        .point(false, c95(), point(budget))
        .expect_err("trips");
    assert!(
        tripped.to_string().contains("snapshot build failed"),
        "{tripped}"
    );
    let roomy = BudgetConfig::with_max_nodes(1 << 20);
    let value = client.point(false, c95(), point(roomy)).expect("answers");
    assert_eq!(value.get("cache").and_then(JsonValue::as_str), Some("miss"));

    let status = client.status().expect("status");
    assert_eq!(
        (status.entries, status.misses, status.hits),
        (1, 1, 0),
        "budgeted requests neither use nor fill the cache"
    );
}

#[test]
fn concurrent_sweeps_against_one_cached_snapshot_stay_golden() {
    let server = TestServer::start();
    // Warm the cache once so both concurrent requests hit the same entry.
    let (_, warmup) = sweep_lines(&mut server.client(), "c95", 1);
    assert_eq!(warmup.cache, "miss");
    let (golden, _) = batch_tsv("c95", 1);
    let golden = Arc::new(golden);
    let results: Vec<_> = (0..3)
        .map(|_| {
            let addr = server.addr;
            let golden = Arc::clone(&golden);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut lines = Vec::new();
                let outcome = client
                    .sweep(
                        CircuitSpec::Builtin("c95".into()),
                        SweepParams {
                            threads: 2,
                            ..Default::default()
                        },
                        |_, line| lines.push(line.to_string()),
                    )
                    .expect("sweep");
                assert_eq!(
                    outcome.cache, "hit",
                    "all concurrent requests reuse the entry"
                );
                assert_eq!(lines.join("\n"), golden.join("\n"));
            })
        })
        .collect();
    for r in results {
        r.join().expect("concurrent sweep");
    }
}

#[test]
fn record_order_is_strictly_ascending_and_indices_match() {
    let server = TestServer::start();
    let mut client = server.client();
    let faults = stuck_at_universe(&generators::c17(), true);
    let mut indices = Vec::new();
    client
        .sweep(
            CircuitSpec::Builtin("c17".into()),
            SweepParams {
                threads: 3,
                ..Default::default()
            },
            |i, line| {
                indices.push(i);
                let (index, _) = summary_from_line(line, &faults).expect("wire line");
                assert_eq!(index, i, "frame index matches the line's own index");
            },
        )
        .expect("sweep");
    assert!(!indices.is_empty());
    assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "streamed records arrive in strict input order"
    );
}

#[test]
fn done_report_is_schema_valid_and_carries_the_stream_section() {
    let server = TestServer::start();
    let mut client = server.client();
    let (lines, outcome) = sweep_lines(&mut client, "c17", 2);
    let doc = outcome.report_document().to_pretty_string();
    let parsed = dp_telemetry::parse_and_validate(&doc).expect("schema-valid streamed report");
    let stream = parsed.get("reports").and_then(JsonValue::as_arr).unwrap()[0]
        .get("stream")
        .expect("stream section present");
    assert_eq!(
        stream.get("records").and_then(JsonValue::as_u64),
        Some(lines.len() as u64)
    );
    assert_eq!(
        stream.get("frames").and_then(JsonValue::as_u64),
        Some(lines.len() as u64 + 1),
        "frames = records + the done frame"
    );
    assert_eq!(
        stream.get("cache").and_then(JsonValue::as_str),
        Some("miss")
    );
    assert!(outcome.classes() > 0);
    assert_eq!(outcome.workers(), 2);
}

#[test]
fn point_queries_agree_with_a_local_engine() {
    let server = TestServer::start();
    let mut client = server.client();
    let circuit = generators::c17();
    let faults = stuck_at_universe(&circuit, true);
    // Pick a net-site fault so the query can address it by net name.
    let (net, value) = faults
        .iter()
        .find_map(|f| match f {
            dp_faults::Fault::StuckAt(s) => match s.site {
                dp_faults::FaultSite::Net(n) => Some((n, s.value)),
                _ => None,
            },
            _ => None,
        })
        .expect("a net-site fault");
    let fault = dp_faults::Fault::StuckAt(dp_faults::StuckAtFault {
        site: dp_faults::FaultSite::Net(net),
        value,
    });
    let mut dp = DiffProp::new(&circuit);
    let local = dp.analyze(&fault);
    let bound = dp.detectability_bound(&fault);
    let adherence = bound.and_then(|u| (u > 0.0).then(|| local.detectability / u));

    let point = PointParams {
        order: OrderStrategy::Identity,
        budget: dp_core::BudgetConfig::UNLIMITED,
        net: circuit.net_name(net).to_string(),
        stuck_at: value,
    };
    for cmd_adherence in [false, true] {
        let v = client
            .point(
                cmd_adherence,
                CircuitSpec::Builtin("c17".into()),
                point.clone(),
            )
            .expect("point query");
        let bits = v
            .get("detectability_bits")
            .and_then(JsonValue::as_str)
            .expect("bits field");
        assert_eq!(
            u64::from_str_radix(bits, 16).unwrap(),
            local.detectability.to_bits(),
            "exact detectability over the wire"
        );
        assert_eq!(
            v.get("test_count").and_then(JsonValue::as_str),
            local.test_count.map(|c| c.to_string()).as_deref()
        );
        let wire_adh = v.get("adherence_bits").and_then(JsonValue::as_str);
        assert_eq!(
            wire_adh.map(|s| u64::from_str_radix(s, 16).unwrap()),
            adherence.map(f64::to_bits),
            "exact adherence over the wire"
        );
    }
    // The two point queries shared one snapshot admission.
    let status = client.status().expect("status");
    assert_eq!(status.misses, 1);
    assert_eq!(status.hits, 1);
}

#[test]
fn request_errors_keep_the_connection_usable() {
    let server = TestServer::start();
    let mut client = server.client();
    let bad = client.sweep(
        CircuitSpec::Builtin("c9999".into()),
        SweepParams::default(),
        |_, _| {},
    );
    assert!(bad.is_err(), "unknown builtin is a request error");
    let bad_net = client.point(
        false,
        CircuitSpec::Builtin("c17".into()),
        PointParams {
            order: OrderStrategy::Identity,
            budget: dp_core::BudgetConfig::UNLIMITED,
            net: "no_such_net".into(),
            stuck_at: false,
        },
    );
    assert!(bad_net.is_err(), "unknown net is a request error");
    // Same connection still answers real requests afterwards.
    let (lines, outcome) = sweep_lines(&mut client, "c17", 1);
    assert!(!lines.is_empty());
    assert_eq!(outcome.skipped, 0);
}

#[test]
fn thread_requests_are_clamped_to_the_core_count() {
    let server = TestServer::start();
    let mut client = server.client();
    let (serial, _) = sweep_lines(&mut client, "c95", 1);
    let (lines, outcome) = sweep_lines(&mut client, "c95", 1_000_000);
    assert_eq!(lines, serial, "a clamped sweep streams the same records");
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        outcome.workers() as usize <= nproc,
        "{} workers on a {nproc}-core host",
        outcome.workers()
    );
}

#[test]
fn fallback_samples_above_the_cap_get_an_error_frame() {
    let server = TestServer::start();
    let mut client = server.client();
    let sweep = |client: &mut Client, fallback_samples| {
        client.sweep(
            CircuitSpec::Builtin("c17".into()),
            SweepParams {
                fallback_samples,
                ..Default::default()
            },
            |_, _| {},
        )
    };
    let err = sweep(&mut client, MAX_FALLBACK_SAMPLES + 1).expect_err("over the cap");
    assert!(err.to_string().contains("fallback_samples"), "{err}");
    // The cap itself is a legal request, on the same connection.
    let outcome = sweep(&mut client, MAX_FALLBACK_SAMPLES).expect("at the cap");
    assert_eq!(outcome.skipped, 0);
}

#[test]
fn an_over_long_request_line_gets_an_error_frame_and_the_connection_closes() {
    let server = TestServer::start();
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    // One byte over the limit, all of it before any newline. Closing the
    // write half lets a server that buffers the whole line see its end.
    let mut line = br#"{"op":"sweep","circuit":{"name":"big.bench","bench":""#.to_vec();
    line.resize(MAX_REQUEST_BYTES + 1, b'#');
    stream.write_all(&line).expect("send the long line");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let frames: Vec<String> = BufReader::new(stream)
        .lines()
        .collect::<Result<_, _>>()
        .expect("read until the server closes");
    assert_eq!(
        frames.len(),
        1,
        "one frame, then the connection closes: {frames:?}"
    );
    match Frame::from_line(&frames[0]).expect("a frame") {
        Frame::Error { message } => {
            assert!(message.contains("MAX_REQUEST_BYTES"), "{message}");
            assert!(
                message.contains(&MAX_REQUEST_BYTES.to_string()),
                "{message}"
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The server itself is unharmed: a fresh connection answers a golden
    // sweep byte-identically.
    let (golden, _) = batch_tsv("c95", 1);
    let (lines, outcome) = sweep_lines(&mut server.client(), "c95", 1);
    assert_eq!(lines.join("\n"), golden.join("\n"));
    assert_eq!(outcome.skipped, 0);
}

#[test]
fn a_request_line_over_the_limit_is_refused_before_it_is_sent() {
    let server = TestServer::start();
    let mut client = server.client();
    // Under the limit as a file, over it on the wire: every newline of the
    // source is escaped to two bytes.
    let source = "# twenty-byte line.\n".repeat(52_378);
    assert_eq!(source.len(), 1_047_560);
    assert!(source.len() < MAX_REQUEST_BYTES);
    let spec = CircuitSpec::Bench {
        name: "x.bench".into(),
        source,
    };
    let err = client
        .sweep(spec, SweepParams::default(), |_, _| {})
        .expect_err("an over-long request line");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    let message = err.to_string();
    assert!(message.contains("1100074 bytes"), "{message}");
    assert!(message.contains("MAX_REQUEST_BYTES"), "{message}");
    assert!(
        message.contains(&MAX_REQUEST_BYTES.to_string()),
        "{message}"
    );
    // Nothing reached the server, so the same connection still answers a
    // golden sweep byte-identically.
    let (golden, _) = batch_tsv("c95", 1);
    let (lines, _) = sweep_lines(&mut client, "c95", 1);
    assert_eq!(lines.join("\n"), golden.join("\n"));
}

#[test]
fn a_bench_file_over_the_request_limit_is_refused_before_it_is_read() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("over_the_request_limit.bench");
    std::fs::write(&path, vec![b'#'; MAX_REQUEST_BYTES + 1]).expect("write the temp file");
    let err = match CircuitSpec::from_arg(path.to_str().expect("utf-8 temp path")) {
        Err(e) => e,
        Ok(_) => panic!("a file over MAX_REQUEST_BYTES was read"),
    };
    assert!(err.contains("MAX_REQUEST_BYTES"), "{err}");
    // At the limit the file is read and sent inline.
    std::fs::write(&path, vec![b'#'; MAX_REQUEST_BYTES]).expect("write the temp file");
    let spec = CircuitSpec::from_arg(path.to_str().unwrap()).expect("a file at the limit");
    assert!(matches!(spec, CircuitSpec::Bench { .. }));
    std::fs::remove_file(&path).ok();
}

/// Lines built to be slow or deep for a naive decoder. Each must come back
/// as one frame on the same connection, and the server must keep
/// answering. A decoder that re-validated the rest of the line per
/// character, and scanned every earlier key for a duplicate, took tens of
/// seconds on each of the string and the key-heavy object in a release
/// build; without a depth cap the line of brackets overflowed the handler
/// thread's stack and aborted the process.
#[test]
fn hostile_request_lines_are_decoded_in_linear_time() {
    let server = TestServer::start();
    let stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    let mut send = |line: &str| -> Frame {
        (&stream).write_all(line.as_bytes()).expect("send");
        (&stream).write_all(b"\n").expect("send");
        let mut frame = String::new();
        reader.read_line(&mut frame).expect("read a frame");
        Frame::from_line(frame.trim_end()).expect("a frame")
    };
    let expect_error = |frame: Frame, needle: &str| match frame {
        Frame::Error { message } => assert!(message.contains(needle), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    };

    expect_error(send(&"[".repeat(100_000)), "nesting deeper than");

    let mut object = String::from("{");
    for k in 0..80_000 {
        object.push_str(&format!("\"k{k}\":0,"));
    }
    object.push_str("\"k0\":1}");
    expect_error(send(&object), "duplicate object key \"k0\"");

    let padded = format!(r#"{{"cmd":"status","pad":"{}"}}"#, "é".repeat(500_000));
    assert!(padded.len() > 1_000_000 && padded.len() < MAX_REQUEST_BYTES);
    assert!(matches!(send(&padded), Frame::Status(_)));

    // A 20,000-gate chain, each gate defined before its fanin.
    let gates = 20_000;
    let mut source = format!("INPUT(a)\nOUTPUT(g{})\n", gates - 1);
    for g in (1..gates).rev() {
        source.push_str(&format!("g{g} = NOT(g{})\n", g - 1));
    }
    source.push_str("g0 = NOT(a)\n");
    let query = dp_serve::Request::Detectability {
        circuit: CircuitSpec::Bench {
            name: "chain.bench".into(),
            source,
        },
        point: PointParams {
            order: OrderStrategy::Identity,
            budget: dp_core::BudgetConfig::UNLIMITED,
            net: "g0".into(),
            stuck_at: false,
        },
    };
    assert!(matches!(send(&query.to_line()), Frame::Value(_)));

    assert_eq!(server.client().status().expect("status").misses, 1);
}
