//! The resident sweep server: a TCP accept loop, one handler thread per
//! connection, one shared [`SnapshotCache`] behind a mutex.
//!
//! Requests stream their answers incrementally (see [`crate::protocol`]);
//! the BDD work itself runs through [`dp_core::sweep_universe_ext`]'s warm
//! path, so every unbudgeted request after the first for a
//! `(circuit, order)` pair performs zero good-function builds — the
//! acceptance criterion the `serve` integration tests pin with exact
//! counter arithmetic. A budgeted request skips the cache and runs the
//! local code (see [`crate::cache`]).
//!
//! Snapshot builds happen *outside* the cache lock: a slow admission (tens
//! of seconds on the deep surrogates) must not stall a concurrent request
//! that would hit a resident entry.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use dp_analysis::fault_model_universe;
use dp_bdd::BudgetConfig;
use dp_core::{
    summary_line, sweep_report, sweep_universe_ext, DiffProp, EngineConfig, FaultSummary,
    GoodSnapshot, OrderStrategy, Parallelism, SweepConfig,
};
use dp_faults::{Fault, FaultSite, StuckAtFault};
use dp_netlist::Circuit;
use dp_telemetry::json::JsonValue;
use dp_telemetry::{report_to_json, StreamInfo};

use crate::cache::{CacheEntry, CacheKey, SnapshotCache};
use crate::protocol::{CircuitSpec, Frame, PointParams, Request, SweepParams, MAX_REQUEST_BYTES};

/// Where `diffprop serve` listens when no address is given, and where the
/// `diffprop` service commands connect when `--connect` is absent.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4590";

/// Server construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Snapshot-cache byte budget (default 256 MiB — roomy for every
    /// builtin at several order strategies).
    pub cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            cache_bytes: 256 << 20,
        }
    }
}

struct ServerState {
    cache: Mutex<SnapshotCache>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// The host's core count, read once at bind: no request's sweep runs
    /// more workers than this, whatever `threads` it asks for.
    max_threads: usize,
}

impl ServerState {
    /// The cache, even after a handler panicked while holding its lock:
    /// every cache operation leaves the LRU consistent between calls, so
    /// one failed request must not fail every later one.
    fn cache(&self) -> MutexGuard<'_, SnapshotCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bound-but-not-yet-running server. [`Server::run`] blocks until a
/// loopback client sends `shutdown`.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener. Use port `0` to let the OS pick (tests do).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                cache: Mutex::new(SnapshotCache::new(config.cache_bytes)),
                shutdown: AtomicBool::new(false),
                addr,
                max_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            }),
        })
    }

    /// The bound address (resolved port included).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until a loopback client sends `shutdown`, then joins every
    /// connection handler before returning (in-flight sweeps finish their
    /// streams). Handlers that have finished are joined at each accept, so
    /// a closed connection's thread does not stay mapped until shutdown.
    pub fn run(self) -> io::Result<()> {
        let mut handlers = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.state.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection a shutdown handler makes to
                // unblock this accept — nothing to serve.
                drop(stream);
                break;
            }
            reap_finished(&mut handlers);
            let state = Arc::clone(&self.state);
            handlers.push(std::thread::spawn(move || handle_connection(stream, state)));
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Joins and removes every handler whose thread has finished, leaving the
/// running ones in `handlers`.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    for finished in handlers.extract_if(.., |h| h.is_finished()) {
        let _ = finished.join();
    }
}

fn handle_connection(stream: TcpStream, state: Arc<ServerState>) {
    if let Err(e) = serve_connection(stream, &state) {
        // A dropped client mid-stream is routine, not a server fault.
        if e.kind() != io::ErrorKind::BrokenPipe && e.kind() != io::ErrorKind::ConnectionReset {
            eprintln!("diffprop serve: connection error: {e}");
        }
    }
}

fn serve_connection(stream: TcpStream, state: &ServerState) -> io::Result<()> {
    // Frames are flushed as soon as they are ready; Nagle's algorithm would
    // hold each small write back until the client's delayed ACK arrives.
    stream.set_nodelay(true)?;
    let loopback = stream.peer_addr().is_ok_and(|peer| may_shut_down(&peer));
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = BufWriter::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read at most one byte past the limit: enough to tell an over-long
        // line from one that fits, never the whole line.
        let limit = MAX_REQUEST_BYTES as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        if buf.len() > MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
            return send(
                &mut out,
                &Frame::Error {
                    message: format!(
                        "request line exceeds MAX_REQUEST_BYTES ({MAX_REQUEST_BYTES} bytes)"
                    ),
                },
            );
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .trim_end_matches(['\r', '\n']);
        if line.trim().is_empty() {
            continue;
        }
        let quit = match Request::from_line(line) {
            Err(e) => {
                send(
                    &mut out,
                    &Frame::Error {
                        message: e.to_string(),
                    },
                )?;
                false
            }
            Ok(request) => handle_request(request, state, loopback, &mut out)?,
        };
        if quit {
            return Ok(());
        }
    }
}

/// Whether a peer may stop the server: only one on this host's loopback
/// interface (an IPv4-mapped IPv6 loopback address included).
fn may_shut_down(peer: &SocketAddr) -> bool {
    match peer.ip() {
        IpAddr::V4(ip) => ip.is_loopback(),
        IpAddr::V6(ip) => ip
            .to_ipv4_mapped()
            .map_or(ip.is_loopback(), |v4| v4.is_loopback()),
    }
}

fn send(out: &mut impl Write, frame: &Frame) -> io::Result<()> {
    writeln!(out, "{}", frame.to_line())?;
    out.flush()
}

/// Handles one request; `Ok(true)` means the connection (and server) is
/// done. Request-level failures become `error` frames; only transport
/// failures surface as `Err`. `loopback` is [`may_shut_down`] of the peer:
/// any other peer's `shutdown` gets an `error` frame and the server keeps
/// serving.
fn handle_request(
    request: Request,
    state: &ServerState,
    loopback: bool,
    out: &mut impl Write,
) -> io::Result<bool> {
    match request {
        Request::Status => {
            let status = state.cache().status();
            send(out, &Frame::Status(status))?;
        }
        Request::Shutdown if !loopback => send(
            out,
            &Frame::Error {
                message: "shutdown is accepted only from a loopback peer".into(),
            },
        )?,
        Request::Shutdown => {
            send(out, &Frame::Bye)?;
            state.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.addr);
            return Ok(true);
        }
        // A budgeted request skips the cache and runs the local code, which
        // builds under its budget, so it answers as the local run does.
        Request::Sweep { circuit, params } if params.budget != BudgetConfig::UNLIMITED => {
            match circuit.compile() {
                Err(message) => send(out, &Frame::Error { message })?,
                Ok(c) => stream_sweep(&c, None, "miss", &params, state.max_threads, out)?,
            }
        }
        Request::Sweep { circuit, params } => match resolve_entry(state, &circuit, params.order) {
            Err(message) => send(out, &Frame::Error { message })?,
            Ok((entry, cache)) => stream_sweep(
                &entry.circuit,
                Some(&entry.snapshot),
                cache,
                &params,
                state.max_threads,
                out,
            )?,
        },
        Request::Detectability { circuit, point } | Request::Adherence { circuit, point } => {
            let answer = if point.budget == BudgetConfig::UNLIMITED {
                resolve_entry(state, &circuit, point.order).and_then(|(entry, cache)| {
                    point_value(&entry.circuit, Some(&entry.snapshot), cache, &point)
                })
            } else {
                circuit
                    .compile()
                    .and_then(|c| point_value(&c, None, "miss", &point))
            };
            match answer {
                Err(message) => send(out, &Frame::Error { message })?,
                Ok(fields) => send(out, &Frame::Value(fields))?,
            }
        }
    }
    Ok(false)
}

/// Compiles the circuit and resolves its unbudgeted snapshot through the
/// cache: lookup under the lock, build *outside* it on a miss, admit the
/// result. Returns the entry and the cache disposition (`"hit"` /
/// `"miss"`). The cache holds only unbudgeted builds, which cannot trip;
/// a request with a budget never reaches it.
fn resolve_entry(
    state: &ServerState,
    spec: &CircuitSpec,
    order: OrderStrategy,
) -> Result<(Arc<CacheEntry>, &'static str), String> {
    let circuit = spec.compile()?;
    let key = CacheKey {
        digest: circuit.digest(),
        order: order.name(),
    };
    if let Some(entry) = state.cache().lookup(&key) {
        return Ok((entry, "hit"));
    }
    let snapshot = DiffProp::build_snapshot(
        &circuit,
        EngineConfig {
            order,
            ..Default::default()
        },
    )
    .expect("unlimited budget cannot trip");
    let entry = Arc::new(CacheEntry { circuit, snapshot });
    let entry = state.cache().admit(key, entry);
    Ok((entry, "miss"))
}

/// Runs a sweep on at most `max_threads` workers, framing each run of
/// summaries the in-order reorder buffer releases and flushing once per
/// run, then the `done` frame with the schema-v2 report (stream section
/// filled in). With `snapshot` the workers thaw it; without, the sweep
/// builds its own, exactly as a local `diffprop analyze` does.
fn stream_sweep(
    circuit: &Circuit,
    snapshot: Option<&GoodSnapshot>,
    cache: &'static str,
    params: &SweepParams,
    max_threads: usize,
    out: &mut impl Write,
) -> io::Result<()> {
    let mut faults = match fault_model_universe(circuit, &params.model, None, 0) {
        Ok(faults) => faults,
        Err(message) => return send(out, &Frame::Error { message }),
    };
    if params.count > 0 {
        faults.truncate(params.count);
    }
    let threads = params.threads.min(max_threads);
    let config = SweepConfig {
        engine: EngineConfig {
            order: params.order,
            budget: params.budget,
            ..Default::default()
        },
        parallelism: Parallelism::Threads(threads),
        fallback_samples: params.fallback_samples,
        collapse: params.collapse,
        ..Default::default()
    };
    let mut records: u64 = 0;
    let mut io_failure: Option<io::Error> = None;
    let mut on_run = |run: &[(usize, FaultSummary)]| {
        if io_failure.is_some() {
            return;
        }
        let written = run.iter().try_for_each(|(index, summary)| {
            let frame = Frame::Record {
                index: *index,
                line: summary_line(*index, summary),
            };
            writeln!(out, "{}", frame.to_line())
        });
        match written.and_then(|()| out.flush()) {
            Ok(()) => records += run.len() as u64,
            Err(e) => io_failure = Some(e),
        }
    };
    let result = sweep_universe_ext(circuit, &faults, &config, snapshot, Some(&mut on_run));
    if let Some(e) = io_failure {
        return Err(e);
    }
    let mut report = sweep_report(circuit.name(), &params.model, &result);
    report.stream = Some(StreamInfo {
        frames: records + 1,
        records,
        skipped: faults.len() as u64 - records,
        cache: cache.to_string(),
    });
    let stats = result.merged_stats();
    send(
        out,
        &Frame::Done {
            cache: cache.to_string(),
            unique_lookups: stats.unique.lookups,
            base_hits: stats.base_hits,
            report: report_to_json(&report),
        },
    )
}

/// Answers a point query from a thawed delta manager over `snapshot`, or,
/// for a budgeted query, over one built under its budget (a build the
/// budget trips is this query's error): exact detectability, and adherence
/// against the syndrome bound — the same arithmetic the sweep applies per
/// fault.
fn point_value(
    circuit: &Circuit,
    snapshot: Option<&GoodSnapshot>,
    cache: &'static str,
    point: &PointParams,
) -> Result<JsonValue, String> {
    let net = circuit.find_net(&point.net).ok_or_else(|| {
        format!(
            "no net named `{}` in circuit `{}`",
            point.net,
            circuit.name()
        )
    })?;
    let fault = Fault::StuckAt(StuckAtFault {
        site: FaultSite::Net(net),
        value: point.stuck_at,
    });
    let engine = EngineConfig {
        order: point.order,
        budget: point.budget,
        ..Default::default()
    };
    let built;
    let snapshot = match snapshot {
        Some(snapshot) => snapshot,
        None => {
            built = DiffProp::build_snapshot(circuit, engine)
                .map_err(|e| format!("good-function snapshot build failed: {e}"))?;
            &built
        }
    };
    let mut dp = DiffProp::from_snapshot(circuit, snapshot, engine);
    let analysis = dp.try_analyze(&fault).map_err(|e| e.to_string())?;
    let bound = dp.detectability_bound(&fault);
    let adherence = bound.and_then(|u| (u > 0.0).then(|| analysis.detectability / u));
    let opt_f64 = |v: Option<f64>| v.map(JsonValue::Float).unwrap_or(JsonValue::Null);
    let opt_bits = |v: Option<f64>| {
        v.map(|x| JsonValue::Str(format!("{:016x}", x.to_bits())))
            .unwrap_or(JsonValue::Null)
    };
    Ok(JsonValue::obj(vec![
        ("cache", JsonValue::Str(cache.to_string())),
        ("circuit", JsonValue::Str(circuit.name().to_string())),
        ("fault", JsonValue::Str(fault.to_string())),
        ("net", JsonValue::Str(point.net.clone())),
        ("stuck_at", JsonValue::Int(i128::from(point.stuck_at))),
        ("detectability", JsonValue::Float(analysis.detectability)),
        (
            "detectability_bits",
            JsonValue::Str(format!("{:016x}", analysis.detectability.to_bits())),
        ),
        (
            "test_count",
            analysis
                .test_count
                .map(|c| JsonValue::Str(c.to_string()))
                .unwrap_or(JsonValue::Null),
        ),
        (
            "observable_outputs",
            JsonValue::Int(analysis.num_observable() as i128),
        ),
        (
            "site_function_constant",
            JsonValue::Bool(analysis.site_function_constant),
        ),
        ("syndrome_bound", opt_f64(bound)),
        ("adherence", opt_f64(adherence)),
        ("adherence_bits", opt_bits(adherence)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::sweep_universe;

    fn test_state() -> ServerState {
        ServerState {
            cache: Mutex::new(SnapshotCache::new(ServerConfig::default().cache_bytes)),
            shutdown: AtomicBool::new(false),
            addr: "127.0.0.1:0".parse().expect("loopback address"),
            max_threads: 1,
        }
    }

    #[test]
    fn reaping_joins_finished_handlers_and_keeps_running_ones() {
        let (release, wait) = std::sync::mpsc::channel::<()>();
        let running = std::thread::spawn(move || {
            let _ = wait.recv();
        });
        let finished: Vec<_> = (0..3).map(|_| std::thread::spawn(|| {})).collect();
        let mut handlers = vec![running];
        handlers.extend(finished);
        while handlers[1..].iter().any(|h| !h.is_finished()) {
            std::thread::yield_now();
        }
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "only the running handler is left");
        release.send(()).expect("the running handler waits");
        while !handlers[0].is_finished() {
            std::thread::yield_now();
        }
        reap_finished(&mut handlers);
        assert!(handlers.is_empty());
    }

    /// Keeps every byte written and counts `flush` calls.
    #[derive(Default)]
    struct FlushCounter {
        bytes: Vec<u8>,
        flushes: usize,
    }

    impl Write for FlushCounter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn a_poisoned_cache_lock_still_answers() {
        let state = test_state();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = state.cache.lock().unwrap();
                panic!("a handler dies holding the cache lock");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(state.cache.is_poisoned());
        let spec = CircuitSpec::Builtin("c17".into());
        for expect in ["miss", "hit"] {
            let (_, cache) = resolve_entry(&state, &spec, OrderStrategy::Identity)
                .expect("resolves through the poisoned lock");
            assert_eq!(cache, expect);
        }
        let mut out = Vec::new();
        assert!(!handle_request(Request::Status, &state, true, &mut out).expect("status"));
        let line = std::str::from_utf8(&out).expect("utf-8");
        match Frame::from_line(line.trim_end()).expect("one frame") {
            Frame::Status(status) => {
                assert_eq!((status.entries, status.misses, status.hits), (1, 1, 1));
            }
            other => panic!("expected a status frame, got {other:?}"),
        }
    }

    #[test]
    fn only_a_loopback_peer_may_shut_down() {
        for peer in [
            "127.0.0.1:9",
            "127.8.0.1:9",
            "[::1]:9",
            "[::ffff:127.0.0.1]:9",
        ] {
            assert!(may_shut_down(&peer.parse().unwrap()), "{peer}");
        }
        for peer in [
            "10.0.0.1:9",
            "192.168.1.2:9",
            "[2001:db8::1]:9",
            "[::ffff:10.0.0.1]:9",
        ] {
            assert!(!may_shut_down(&peer.parse().unwrap()), "{peer}");
        }
        // A remote peer's shutdown is a typed error, and the server stays up.
        let state = test_state();
        let mut out = Vec::new();
        assert!(!handle_request(Request::Shutdown, &state, false, &mut out).expect("frame"));
        assert!(!state.shutdown.load(Ordering::SeqCst));
        let line = std::str::from_utf8(&out).expect("utf-8");
        match Frame::from_line(line.trim_end()).expect("one frame") {
            Frame::Error { message } => assert!(message.contains("loopback"), "{message}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn serial_stream_flushes_once_per_released_run() {
        let spec = CircuitSpec::Builtin("alu74181".into());
        let circuit = spec.compile().expect("builtin");
        let params = SweepParams::default();
        let engine = EngineConfig {
            order: params.order,
            ..Default::default()
        };
        let snapshot = DiffProp::build_snapshot(&circuit, engine).expect("snapshot");
        let faults = fault_model_universe(&circuit, &params.model, None, 0).expect("universe");
        let batch = sweep_universe(
            &circuit,
            &faults,
            &SweepConfig {
                engine,
                ..Default::default()
            },
        );
        let mut out = FlushCounter::default();
        stream_sweep(&circuit, Some(&snapshot), "hit", &params, 1, &mut out)
            .expect("in-memory stream");

        // Byte-identical to one record frame per summary, in index order…
        let expected: String = batch
            .summaries
            .iter()
            .enumerate()
            .map(|(index, s)| {
                let frame = Frame::Record {
                    index,
                    line: summary_line(index, s),
                };
                format!("{}\n", frame.to_line())
            })
            .collect();
        let text = std::str::from_utf8(&out.bytes).expect("utf-8");
        let (records, done) = text.split_at(expected.len());
        assert_eq!(records, expected);
        // …then the `done` frame, last.
        assert_eq!(done.matches('\n').count(), 1);
        assert!(matches!(
            Frame::from_line(done.trim_end()),
            Ok(Frame::Done { .. })
        ));
        let frames = batch.summaries.len();
        assert!(frames > 1);
        assert!(
            out.flushes < frames,
            "{} flushes for {frames} record frames",
            out.flushes
        );
    }
}
