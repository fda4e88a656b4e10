//! `serve-loop`: an in-process `dp_serve::Server` on loopback with one
//! closed-loop client (the next request goes out when the previous answer
//! is in). Each round asks point queries (`detectability`, `adherence`) on
//! c1908s sent as inline `.bench` source, then a streamed stuck-at `sweep`
//! of alu74181 and of c432s by builtin name. The cold snapshot admissions
//! happen during set-up, so every measured request hits the cache: wire,
//! framing, cache lookup and thaw dominate, not BDD work.
//!
//! Correctness: each stream's record lines must hash to the in-process
//! batch digest of the same universe, each point answer must carry the
//! in-process detectability and adherence bits, and the cache must report
//! no miss after set-up.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dp_analysis::fault_model_universe;
use dp_core::{
    summaries_digest, sweep_report, sweep_universe, DiffProp, EngineConfig, FaultSummary,
    GoodSnapshot, OrderStrategy, SweepConfig,
};
use dp_faults::{Fault, FaultSite, StuckAtFault};
use dp_netlist::{generators, parse_bench, write_bench, Circuit, Reachability};
use dp_serve::{CircuitSpec, Frame, PointParams, Request, Server, ServerConfig, SweepParams};
use dp_telemetry::json::JsonValue;
use dp_telemetry::{fnv1a64, report_to_json};

use crate::batch::{percentiles, stratified, sweep_config};
use crate::replica::{self, traced_build};
use crate::stats::{best, mean, median};
use crate::trace::{self, Tracer};
use crate::{Args, Metric, Outcome, Rng, SETUPS};

/// Rounds every run measures at least.
const MIN_ROUNDS: usize = 12;
/// Distinct point queries; each round asks every one, in a seeded order.
const QUERIES: usize = 8;
/// Circuits swept by builtin name each round.
const SWEEPS: [&str; 2] = ["alu74181", "c432s"];
/// Name the inline c1908s source travels under.
const INLINE_NAME: &str = "c1908s.bench";
/// Seed of the fixed query set (the run's `--seed` orders it).
const QUERY_SEED: u64 = 1990;

/// One point query of the fixed set.
#[derive(Debug, Clone)]
struct Query {
    net: String,
    stuck_at: bool,
    adherence: bool,
    /// In-process answers, as the `*_bits` strings the server sends.
    detectability_bits: String,
    adherence_bits: Option<String>,
}

/// A line-level client that counts bytes and frames and times the first
/// frame of each answer.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    sent: u64,
    received: u64,
    frames: u64,
    decode: Duration,
}

/// Timings of one request, from the request written.
struct Timed {
    write: Duration,
    first: Duration,
    total: Duration,
}

/// What a streamed sweep returned.
struct Swept {
    digest: u64,
    records: u64,
    probes: u64,
    counters: JsonValue,
    cache: String,
    timed: Timed,
}

fn proto(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Wire {
    fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            sent: 0,
            received: 0,
            frames: 0,
            decode: Duration::ZERO,
        })
    }

    fn send(&mut self, request: &Request) -> io::Result<Instant> {
        let t0 = Instant::now();
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.sent += line.len() as u64;
        Ok(t0)
    }

    fn frame(&mut self) -> io::Result<Frame> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(proto("server closed the connection"));
        }
        self.received += n as u64;
        self.frames += 1;
        let t0 = Instant::now();
        let frame = Frame::from_line(line.trim_end_matches(['\r', '\n'])).map_err(|e| proto(e.to_string()));
        self.decode += t0.elapsed();
        frame
    }

    fn point(&mut self, circuit: &CircuitSpec, q: &Query) -> io::Result<(JsonValue, Timed)> {
        let point = PointParams {
            order: OrderStrategy::Auto,
            budget: Default::default(),
            net: q.net.clone(),
            stuck_at: q.stuck_at,
        };
        let circuit = circuit.clone();
        let request = if q.adherence {
            Request::Adherence { circuit, point }
        } else {
            Request::Detectability { circuit, point }
        };
        let t0 = self.send(&request)?;
        let write = t0.elapsed();
        let frame = self.frame()?;
        let first = t0.elapsed();
        match frame {
            Frame::Value(v) => Ok((v, Timed { write, first, total: first })),
            Frame::Error { message } => Err(proto(message)),
            other => Err(proto(format!("unexpected frame {other:?}"))),
        }
    }

    fn sweep(&mut self, builtin: &str, threads: usize) -> io::Result<Swept> {
        let request = Request::Sweep {
            circuit: CircuitSpec::Builtin(builtin.to_string()),
            params: SweepParams {
                order: OrderStrategy::Auto,
                threads,
                ..Default::default()
            },
        };
        let t0 = self.send(&request)?;
        let write = t0.elapsed();
        let mut text = String::new();
        let mut first = None;
        let mut records = 0;
        loop {
            let frame = self.frame()?;
            first.get_or_insert_with(|| t0.elapsed());
            match frame {
                Frame::Record { line, .. } => {
                    text.push_str(&line);
                    text.push('\n');
                    records += 1;
                }
                Frame::Done {
                    cache,
                    unique_lookups,
                    report,
                    ..
                } => {
                    let counters = report
                        .get("execution")
                        .and_then(|e| e.get("totals"))
                        .and_then(|t| t.get("counters"))
                        .cloned()
                        .ok_or_else(|| proto("done report without counters"))?;
                    let op = counters.get("op_cache_lookups").and_then(JsonValue::as_u64).unwrap_or(0);
                    return Ok(Swept {
                        digest: fnv1a64(text.as_bytes()),
                        records,
                        probes: unique_lookups + op,
                        counters,
                        cache,
                        timed: Timed {
                            write,
                            first: first.expect("a frame arrived"),
                            total: t0.elapsed(),
                        },
                    });
                }
                Frame::Error { message } => return Err(proto(message)),
                other => return Err(proto(format!("unexpected frame {other:?}"))),
            }
        }
    }
}

/// A running server and its client connection.
struct Live {
    handle: JoinHandle<io::Result<()>>,
    wire: Wire,
}

impl Live {
    /// Binds, connects and admits every circuit the loop uses (the cold
    /// misses). Returns the admission sweeps for checking.
    fn start(inline: &CircuitSpec, first: &Query, threads: usize) -> io::Result<(Live, Vec<Swept>)> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut wire = Wire::connect(addr)?;
        wire.point(inline, first)?;
        let swept = SWEEPS
            .iter()
            .map(|c| wire.sweep(c, threads))
            .collect::<io::Result<Vec<_>>>()?;
        Ok((Live { handle, wire }, swept))
    }

    /// Sends `shutdown` and waits for the server thread to end.
    fn stop(mut self) -> io::Result<()> {
        self.wire.send(&Request::Shutdown)?;
        let bye = self.wire.frame()?;
        drop(self.wire);
        let joined = self
            .handle
            .join()
            .map_err(|_| proto("server thread panicked"))?;
        joined?;
        match bye {
            Frame::Bye => Ok(()),
            other => Err(proto(format!("expected bye, got {other:?}"))),
        }
    }
}

/// The in-process twin of a point query: parse, thaw, analyze, bound.
fn point_in_process(
    tracer: &mut Tracer,
    source: &str,
    snapshot: &GoodSnapshot,
    net: &str,
    stuck_at: bool,
) -> FaultSummary {
    let root = tracer.enter("point", INLINE_NAME);
    let s = tracer.enter("netlist.parse", INLINE_NAME);
    let circuit = parse_bench(source, INLINE_NAME).expect("own output parses");
    tracer.exit(s, None);
    let fault = Fault::StuckAt(StuckAtFault {
        site: FaultSite::Net(circuit.find_net(net).expect("query nets exist")),
        value: stuck_at,
    });
    let engine = EngineConfig {
        order: OrderStrategy::Auto,
        ..Default::default()
    };
    let s = tracer.enter("good.thaw", INLINE_NAME);
    let mut dp = DiffProp::from_snapshot(&circuit, snapshot, engine);
    tracer.exit(s, None);
    let s = tracer.enter("engine.stuck", INLINE_NAME);
    let analysis = dp.try_analyze(&fault).expect("an unlimited budget never trips");
    tracer.exit(s, Some(replica::probes(dp.good().manager().stats())));
    let s = tracer.enter("engine.bound", INLINE_NAME);
    let bound = dp.detectability_bound(&fault);
    tracer.exit(s, None);
    if tracer.enabled() {
        let s = tracer.enter("netlist.reach", INLINE_NAME);
        std::hint::black_box(Reachability::compute(&circuit));
        tracer.exit(s, None);
    }
    tracer.exit(root, None);
    replica::summary(fault, &analysis, bound)
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = if args.trace { Tracer::default() } else { Tracer::off() };
    let config: SweepConfig = sweep_config(1, Default::default());

    // In-process references (untimed): the query answers and the batch
    // digests the streams must reproduce.
    let source = write_bench(&generators::c1908_surrogate());
    let parsed: Circuit = parse_bench(&source, INLINE_NAME).expect("own output parses");
    let mut sift_runs = 0;
    let snapshot = if args.trace {
        let (snapshot, sifted) = traced_build(&mut tracer, &parsed, &config);
        sift_runs += u64::from(sifted);
        snapshot
    } else {
        DiffProp::build_snapshot(&parsed, config.engine).expect("an unlimited budget never trips")
    };
    let nets: Vec<usize> = stratified(&mut Rng::new(QUERY_SEED), parsed.num_nets(), QUERIES);
    let queries: Vec<Query> = nets
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let net = parsed.net_name(dp_netlist::NetId::from_index(n)).to_string();
            let stuck_at = i % 4 >= 2;
            let s = point_in_process(&mut Tracer::off(), &source, &snapshot, &net, stuck_at);
            Query {
                net,
                stuck_at,
                adherence: i % 2 == 1,
                detectability_bits: bits(s.detectability),
                adherence_bits: s.adherence.map(bits),
            }
        })
        .collect();
    let mut expected = Vec::new();
    let mut report_ms = Vec::new();
    let mut base_nodes = snapshot.num_nodes();
    for name in SWEEPS {
        let spec = CircuitSpec::Builtin(name.to_string());
        let circuit = spec.compile().expect("builtin");
        let faults = fault_model_universe(&circuit, "stuck", None, 0).expect("stuck universe");
        let result = sweep_universe(&circuit, &faults, &config);
        let t0 = Instant::now();
        std::hint::black_box(report_to_json(&sweep_report(name, "stuck", &result)).to_compact_string());
        report_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if args.trace {
            let (snapshot, sifted) = traced_build(&mut tracer, &circuit, &config);
            base_nodes += snapshot.num_nodes();
            sift_runs += u64::from(sifted);
        }
        expected.push((summaries_digest(&result.summaries), faults.len() as u64));
    }
    let inline = CircuitSpec::Bench {
        name: INLINE_NAME.to_string(),
        source: source.clone(),
    };

    // Set up several times (bind, connect, cold admissions) and keep the
    // last server; `setup_s` is the median of the set-up times.
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            if let Err(e) = old.stop() {
                out.error(format!("stopping a set-up server: {e}"));
            }
        }
        let t0 = Instant::now();
        match Live::start(&inline, &queries[0], args.threads) {
            Ok((l, swept)) => {
                setup_s.push(t0.elapsed().as_secs_f64());
                for (s, &(digest, faults)) in swept.iter().zip(&expected) {
                    out.attempted += faults;
                    if s.digest != digest || s.records != faults || s.cache != "miss" {
                        out.failed += faults;
                        out.error(format!("cold sweep: digest {:016x} records {} cache {}", s.digest, s.records, s.cache));
                    }
                }
                live = Some(l);
            }
            Err(e) => {
                out.error(format!("set-up failed: {e}"));
                return out;
            }
        }
    }
    let mut live = live.expect("a server is up");

    let mut rng = Rng::new(args.seed);
    let mut point_ms: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    let mut local_ms: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    let mut sweep_ms: Vec<Vec<f64>> = vec![Vec::new(); SWEEPS.len()];
    let mut first_record_ms = Vec::new();
    let mut first_frame_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut probes: Option<u64> = None;
    let mut counters: Vec<JsonValue> = Vec::new();
    let mut requests: u64 = 0;
    let (sent0, received0, frames0) = (live.wire.sent, live.wire.received, live.wire.frames);
    let decode0 = live.wire.decode;
    let t_start = Instant::now();
    let mut round = 0usize;
    'rounds: loop {
        round += 1;
        tracer.set_round(round as u32);
        let mut order: Vec<usize> = (0..queries.len()).collect();
        rng.shuffle(&mut order);
        for q in order {
            let span = tracer.enter("serve.request", INLINE_NAME);
            let answer = live.wire.point(&inline, &queries[q]);
            tracer.exit(span, None);
            out.attempted += 1;
            requests += 1;
            match answer {
                Ok((v, timed)) => {
                    point_ms[q].push(timed.total.as_secs_f64() * 1e3);
                    first_frame_ms.push(timed.first.as_secs_f64() * 1e3);
                    write_ms.push(timed.write.as_secs_f64() * 1e3);
                    let det = v.get("detectability_bits").and_then(JsonValue::as_str);
                    let adh = v.get("adherence_bits").and_then(JsonValue::as_str);
                    let cache = v.get("cache").and_then(JsonValue::as_str);
                    if det != Some(queries[q].detectability_bits.as_str())
                        || adh != queries[q].adherence_bits.as_deref()
                        || cache != Some("hit")
                    {
                        out.failed += 1;
                        out.error(format!("point query on {}: got {det:?}/{adh:?}/{cache:?}", queries[q].net));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.error(format!("point query failed: {e}"));
                    break 'rounds;
                }
            }
            if args.trace {
                let t0 = Instant::now();
                point_in_process(&mut tracer, &source, &snapshot, &queries[q].net, queries[q].stuck_at);
                local_ms[q].push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        let mut round_probes = 0;
        for (i, name) in SWEEPS.iter().enumerate() {
            let span = tracer.enter("serve.request", name);
            let swept = live.wire.sweep(name, args.threads);
            tracer.exit(span, None);
            let (digest, faults) = expected[i];
            out.attempted += faults;
            requests += 1;
            match swept {
                Ok(s) => {
                    sweep_ms[i].push(s.timed.total.as_secs_f64() * 1e3);
                    first_frame_ms.push(s.timed.first.as_secs_f64() * 1e3);
                    write_ms.push(s.timed.write.as_secs_f64() * 1e3);
                    if i == SWEEPS.len() - 1 {
                        first_record_ms.push(s.timed.first.as_secs_f64() * 1e3);
                    }
                    round_probes += s.probes;
                    if round == 1 {
                        counters.push(s.counters.clone());
                    }
                    if s.digest != digest || s.records != faults || s.cache != "hit" {
                        out.failed += faults;
                        out.error(format!("{name} stream: digest {:016x} records {} cache {}", s.digest, s.records, s.cache));
                    }
                }
                Err(e) => {
                    out.failed += faults;
                    out.error(format!("{name} sweep failed: {e}"));
                    break 'rounds;
                }
            }
        }
        if *probes.get_or_insert(round_probes) != round_probes {
            out.error(format!("sweep probes {round_probes} differ from round 1"));
        }
        if round >= MIN_ROUNDS && t_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let rounds_done = round;
    let sent = live.wire.sent - sent0;
    let received = live.wire.received - received0;
    let frames = live.wire.frames - frames0;
    let decode = live.wire.decode - decode0;

    let mut hit_rate = f64::NAN;
    match live.wire.send(&Request::Status).and_then(|_| live.wire.frame()) {
        Ok(Frame::Status(st)) => {
            hit_rate = st.hits as f64 / (st.hits + st.misses).max(1) as f64;
            // One miss per admitted circuit; everything after set-up hits.
            if st.misses != 1 + SWEEPS.len() as u64 || st.hits != requests {
                out.error(format!("cache status {st:?} after {requests} measured requests"));
            }
        }
        other => out.error(format!("status request: {other:?}")),
    }
    if let Err(e) = live.stop() {
        out.error(format!("shutdown: {e}"));
    }

    for (q, times) in point_ms.iter().enumerate() {
        out.samples.push((format!("point_ms #{q}"), times.clone()));
    }
    for (i, times) in sweep_ms.iter().enumerate() {
        out.samples.push((format!("sweep_ms {}", SWEEPS[i]), times.clone()));
    }
    out.samples.push(("setup_s".to_string(), setup_s.clone()));
    let point_best: Vec<f64> = point_ms.iter().filter(|v| !v.is_empty()).map(|v| best(v)).collect();
    let all_points: Vec<f64> = point_ms.concat();
    let sweep_best: f64 = sweep_ms.iter().map(|v| best(v)).sum::<f64>() / 1e3;
    let sweep_faults: u64 = expected.iter().map(|&(_, f)| f).sum();
    out.e2e = vec![
        Metric::new("setup_s", "s", median(&setup_s), setup_s.len()),
        Metric::new("faults_per_s", "1/s", sweep_faults as f64 / sweep_best, rounds_done),
        Metric::new("bdd_probes", "count", probes.unwrap_or(0) as f64, 1),
        Metric::new("peak_heap_mib", "MiB", crate::peak_heap_mib(), 1),
        Metric::new("point_best_ms", "ms", mean(&point_best), all_points.len()),
    ];
    out.extra = percentiles("point", &all_points);
    out.extra.extend(percentiles("sweep_req", &sweep_ms[SWEEPS.len() - 1]));
    out.extra.extend(percentiles("first_record", &first_record_ms));
    if args.trace {
        let spans = tracer.spans();
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
        let by_round = trace::self_seconds_by_round(spans);
        let per_round = |name: &str| {
            let xs: Vec<f64> = (1..=rounds_done as u32)
                .map(|r| by_round.get(&(r, name)).copied().unwrap_or(0.0))
                .collect();
            median(&xs)
        };
        let local_best: Vec<f64> = local_ms.iter().filter(|v| !v.is_empty()).map(|v| best(v)).collect();
        let sum = |key: &str| {
            counters
                .iter()
                .map(|c| c.get(key).and_then(JsonValue::as_u64).unwrap_or(0))
                .sum::<u64>() as f64
        };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let rounds = rounds_done as f64;
        out.layers = vec![
            Metric::new("netlist.parse_ms", "ms", call_ms("netlist.parse"), 0),
            Metric::new("netlist.reach_ms", "ms", call_ms("netlist.reach"), 0),
            Metric::new("good.build_s", "s", by_round.iter().filter(|((r, n), _)| *r == 0 && n.starts_with("good.")).map(|(_, t)| t).sum(), 1),
            Metric::new("good.sift_s", "s", by_round.get(&(0, "good.sift")).copied().unwrap_or(0.0), 1),
            Metric::new("good.base_nodes", "count", base_nodes as f64, 1),
            Metric::new("good.thaw_ms", "ms", call_ms("good.thaw"), 0),
            Metric::new("engine.stuck_s", "s", per_round("engine.stuck"), rounds_done),
            Metric::new("engine.bound_s", "s", per_round("engine.bound"), rounds_done),
            Metric::new("bdd.unique_lookups", "count", sum("unique_lookups"), 1),
            Metric::new("bdd.unique_hit_rate", "ratio", ratio(sum("unique_hits"), sum("unique_lookups")), 1),
            Metric::new("bdd.base_hit_frac", "ratio", ratio(sum("unique_base_hits"), sum("unique_lookups")), 1),
            Metric::new("bdd.op_lookups", "count", sum("op_cache_lookups"), 1),
            Metric::new("bdd.op_hit_rate", "ratio", ratio(sum("op_cache_hits"), sum("op_cache_lookups")), 1),
            Metric::new("bdd.gc_runs", "count", sum("gc_runs"), 1),
            Metric::new("bdd.sift_runs", "count", sift_runs as f64, 1),
            Metric::new(
                "bdd.peak_nodes",
                "count",
                counters
                    .iter()
                    .map(|c| c.get("peak_nodes").and_then(JsonValue::as_u64).unwrap_or(0))
                    .max()
                    .unwrap_or(0) as f64,
                1,
            ),
            Metric::new("serve.request_bytes", "bytes", sent as f64 / rounds, rounds_done),
            Metric::new("serve.response_bytes", "bytes", received as f64 / rounds, rounds_done),
            Metric::new("serve.frames", "count", frames as f64 / rounds, rounds_done),
            Metric::new("serve.first_byte_ms", "ms", median(&first_frame_ms), first_frame_ms.len()),
            Metric::new(
                "serve.frame_decode_us",
                "us",
                decode.as_secs_f64() * 1e6 / frames.max(1) as f64,
                frames as usize,
            ),
            Metric::new("serve.cache_hit_rate", "ratio", hit_rate, 1),
            Metric::new("serve.wire_gap_ms", "ms", mean(&point_best) - mean(&local_best), local_best.len()),
            Metric::new("telemetry.report_ms", "ms", median(&report_ms), report_ms.len()),
        ];
        out.trace_jsonl = tracer.to_jsonl(&args.workload);
    }
    out
}
