//! The `dp-serve` wire protocol: newline-delimited JSON frames over TCP.
//!
//! One request is one line; the server answers with one or more
//! single-line frames and then either keeps the connection open for the
//! next request (`done`, `value`, `status`) or closes it (`bye`, after a
//! `shutdown`). Streaming is the point of the framing: a `sweep` request
//! yields one `record` frame per fault **in input-fault order, as the
//! work-stealing queue completes the prefix**, so a client can consume
//! results long before the sweep finishes. Each record carries the exact
//! batch TSV rendering ([`dp_core::summary_line`]) — concatenating the
//! `line` fields of a streamed sweep reproduces the batch output
//! byte-for-byte, which the golden tests assert. A client parses a line
//! back against its own fault list with [`dp_core::summary_from_line`].
//!
//! All scalars that matter for bit-identity (`detectability`, `adherence`)
//! travel as `f64` bit patterns inside the TSV line, never as decimal
//! floats, so nothing is lost to formatting on the way through.

use std::fmt;

use dp_core::{BudgetConfig, EngineConfig, OrderStrategy, SweepConfig};
use dp_netlist::{generators, parse_bench, Circuit};
use dp_telemetry::json::JsonValue;

/// Bumped when a frame or request shape changes incompatibly. Exchanged in
/// no handshake yet — clients and servers from one build tree agree by
/// construction — but recorded in every `error` frame a server emits for
/// an unparseable request, which is where a mismatch would surface.
pub const PROTOCOL_VERSION: u64 = 1;

/// Largest `fallback_samples` a sweep request may ask for. Each degraded
/// fault simulates this many vectors, so an unbounded value would let one
/// request pin a worker indefinitely; larger requests get an `error` frame.
pub const MAX_FALLBACK_SAMPLES: u64 = 1 << 20;

/// Longest request line the server reads, newline excluded. Inline
/// `.bench` sources of the builtin surrogates stay far below it (c1908s is
/// about 15 KB); a longer line gets an `error` frame and the connection is
/// closed without the rest of the line being read.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A protocol-level failure: a line that is not valid JSON, or valid JSON
/// that is not a valid request/frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// The circuit a request operates on. Builtins travel by name so the
/// server compiles the *same generator output* the client would (identical
/// net ids, identical fault universe); anything else travels as inline
/// ISCAS-85 `.bench` source, which both sides parse identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSpec {
    /// One of the built-in benchmark names (`c17`, `c95`, ...).
    Builtin(String),
    /// Inline `.bench` source, with the client-side path kept as the name.
    Bench { name: String, source: String },
}

impl CircuitSpec {
    /// Builds a spec from a CLI circuit argument: a builtin name stays a
    /// name, anything else is read from disk as `.bench` source. A file
    /// larger than [`MAX_REQUEST_BYTES`] is an error before it is read: no
    /// request carrying it would fit on one line.
    pub fn from_arg(arg: &str) -> Result<CircuitSpec, String> {
        if is_builtin(arg) {
            Ok(CircuitSpec::Builtin(arg.to_string()))
        } else {
            let len = std::fs::metadata(arg)
                .map_err(|e| format!("cannot read {arg}: {e}"))?
                .len();
            if len > MAX_REQUEST_BYTES as u64 {
                return Err(format!(
                    "{arg} is {len} bytes, over MAX_REQUEST_BYTES ({MAX_REQUEST_BYTES} bytes)"
                ));
            }
            let source =
                std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
            Ok(CircuitSpec::Bench {
                name: arg.to_string(),
                source,
            })
        }
    }

    /// Compiles the spec into a [`Circuit`].
    pub fn compile(&self) -> Result<Circuit, String> {
        match self {
            CircuitSpec::Builtin(name) => {
                generators::by_name(name).ok_or_else(|| format!("unknown builtin circuit `{name}`"))
            }
            CircuitSpec::Bench { name, source } => {
                parse_bench(source, name).map_err(|e| format!("cannot parse {name}: {e}"))
            }
        }
    }

    fn to_json(&self) -> JsonValue {
        match self {
            CircuitSpec::Builtin(name) => {
                JsonValue::obj(vec![("builtin", JsonValue::Str(name.clone()))])
            }
            CircuitSpec::Bench { name, source } => JsonValue::obj(vec![
                ("name", JsonValue::Str(name.clone())),
                ("bench", JsonValue::Str(source.clone())),
            ]),
        }
    }

    fn from_json(v: &JsonValue) -> Result<CircuitSpec, ProtocolError> {
        if let Some(name) = v.get("builtin").and_then(JsonValue::as_str) {
            return Ok(CircuitSpec::Builtin(name.to_string()));
        }
        let source = v
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("circuit needs `builtin` or `bench`"))?;
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("<inline>");
        Ok(CircuitSpec::Bench {
            name: name.to_string(),
            source: source.to_string(),
        })
    }
}

/// The built-in benchmark names shared with the `diffprop` CLI.
pub fn is_builtin(name: &str) -> bool {
    generators::by_name(name).is_some()
}

/// Per-request sweep parameters. Everything that changes *which rows* come
/// back (`model`, `count`, `budget`, `fallback_samples`) or the cache key
/// (`order`) is explicit. So is execution detail the rows are invariant
/// to: `collapse`, and `threads`, which is advisory to the server.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// Variable-order strategy — part of the snapshot-cache key.
    pub order: OrderStrategy,
    /// Fault model of the swept universe: `stuck` (checkpoint stuck-at,
    /// the default), `nfbf-and` / `nfbf-or` (non-feedback bridges),
    /// `fbridge-and` / `fbridge-or` (feedback bridges via the ternary
    /// fixpoint), or `multi` (all distinct-site checkpoint pairs). Omitted
    /// from the wire when it is the default, so old clients keep working.
    pub model: String,
    /// First `count` faults of the universe; `0` sweeps all of them.
    pub count: usize,
    /// Structural fault collapsing (rows identical either way).
    pub collapse: bool,
    /// Worker threads the server should use for this sweep; the server
    /// clamps it to its core count.
    pub threads: usize,
    /// Random vectors per budget-degraded estimate, at most
    /// [`MAX_FALLBACK_SAMPLES`].
    pub fallback_samples: u64,
    /// Per-request BDD work budget, or [`BudgetConfig::UNLIMITED`]. A
    /// budgeted sweep skips the snapshot cache and runs the local sweep,
    /// which builds under the budget and, should the build trip, degrades
    /// every class to a sampled estimate, so the rows equal the local run's.
    pub budget: BudgetConfig,
}

impl Default for SweepParams {
    /// The local sweep's defaults ([`SweepConfig::default`]) over the whole
    /// stuck-at universe, on one thread, with no budget.
    fn default() -> SweepParams {
        let local = SweepConfig::default();
        SweepParams {
            order: local.engine.order,
            model: "stuck".to_string(),
            count: 0,
            collapse: local.collapse,
            threads: 1,
            fallback_samples: local.fallback_samples,
            budget: BudgetConfig::UNLIMITED,
        }
    }
}

/// Parameters of a single-fault point query (`detectability`, `adherence`).
#[derive(Debug, Clone, PartialEq)]
pub struct PointParams {
    /// Variable-order strategy — part of the snapshot-cache key.
    pub order: OrderStrategy,
    /// Per-request BDD work budget, or [`BudgetConfig::UNLIMITED`]. A
    /// budgeted query skips the snapshot cache and builds under the budget:
    /// a build it trips answers with an `error` frame.
    pub budget: BudgetConfig,
    /// Net name of the stuck-at site.
    pub net: String,
    /// `true` for stuck-at-1.
    pub stuck_at: bool,
}

/// A client request (one JSON line).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Stream the stuck-at universe sweep of a circuit.
    Sweep {
        circuit: CircuitSpec,
        params: SweepParams,
    },
    /// Exact detectability of one net stuck-at fault.
    Detectability {
        circuit: CircuitSpec,
        point: PointParams,
    },
    /// Exact adherence (detectability / syndrome bound) of one net fault.
    Adherence {
        circuit: CircuitSpec,
        point: PointParams,
    },
    /// Snapshot-cache counters.
    Status,
    /// Stop the server after answering. Honoured only from a loopback
    /// peer; any other peer gets an `error` frame.
    Shutdown,
}

fn budget_to_json(b: &BudgetConfig) -> Option<JsonValue> {
    if *b == BudgetConfig::UNLIMITED {
        return None;
    }
    let opt = |v: Option<i128>| v.map(JsonValue::Int).unwrap_or(JsonValue::Null);
    Some(JsonValue::obj(vec![
        ("max_nodes", opt(b.max_nodes.map(|n| n as i128))),
        ("max_op_steps", opt(b.max_op_steps.map(|n| n as i128))),
    ]))
}

fn budget_from_json(v: Option<&JsonValue>) -> Result<BudgetConfig, ProtocolError> {
    let Some(v) = v else {
        return Ok(BudgetConfig::UNLIMITED);
    };
    let field = |key: &str| -> Result<Option<u64>, ProtocolError> {
        match v.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(n) => n
                .as_u64()
                .map(Some)
                .ok_or_else(|| err(format!("budget.{key} must be a non-negative integer"))),
        }
    };
    Ok(BudgetConfig {
        max_nodes: field("max_nodes")?.map(|n| n as usize),
        max_op_steps: field("max_op_steps")?,
    })
}

fn order_from_json(v: Option<&JsonValue>) -> Result<OrderStrategy, ProtocolError> {
    match v {
        None => Ok(EngineConfig::default().order),
        Some(v) => {
            let s = v.as_str().ok_or_else(|| err("order must be a string"))?;
            OrderStrategy::parse(s).ok_or_else(|| err(format!("unknown order strategy `{s}`")))
        }
    }
}

fn point_from_json(v: &JsonValue) -> Result<PointParams, ProtocolError> {
    let net = v
        .get("net")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("point query needs a `net` name"))?;
    let stuck_at = match v.get("stuck_at").and_then(JsonValue::as_u64) {
        Some(0) => false,
        Some(1) => true,
        _ => return Err(err("`stuck_at` must be 0 or 1")),
    };
    Ok(PointParams {
        order: order_from_json(v.get("order"))?,
        budget: budget_from_json(v.get("budget"))?,
        net: net.to_string(),
        stuck_at,
    })
}

fn point_to_pairs(circuit: &CircuitSpec, p: &PointParams) -> Vec<(&'static str, JsonValue)> {
    let mut pairs = vec![
        ("circuit", circuit.to_json()),
        ("order", JsonValue::Str(p.order.name())),
        ("net", JsonValue::Str(p.net.clone())),
        ("stuck_at", JsonValue::Int(i128::from(p.stuck_at))),
    ];
    if let Some(b) = budget_to_json(&p.budget) {
        pairs.push(("budget", b));
    }
    pairs
}

impl Request {
    /// Serialises the request as one newline-free JSON line.
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Sweep { circuit, params } => {
                let mut pairs = vec![
                    ("cmd", JsonValue::Str("sweep".into())),
                    ("circuit", circuit.to_json()),
                    ("order", JsonValue::Str(params.order.name())),
                    ("count", JsonValue::Int(params.count as i128)),
                    ("collapse", JsonValue::Bool(params.collapse)),
                    ("threads", JsonValue::Int(params.threads as i128)),
                    (
                        "fallback_samples",
                        JsonValue::Int(params.fallback_samples as i128),
                    ),
                ];
                if params.model != "stuck" {
                    pairs.push(("model", JsonValue::Str(params.model.clone())));
                }
                if let Some(b) = budget_to_json(&params.budget) {
                    pairs.push(("budget", b));
                }
                JsonValue::obj(pairs)
            }
            Request::Detectability { circuit, point } => {
                let mut pairs = vec![("cmd", JsonValue::Str("detectability".into()))];
                pairs.extend(point_to_pairs(circuit, point));
                JsonValue::obj(pairs)
            }
            Request::Adherence { circuit, point } => {
                let mut pairs = vec![("cmd", JsonValue::Str("adherence".into()))];
                pairs.extend(point_to_pairs(circuit, point));
                JsonValue::obj(pairs)
            }
            Request::Status => JsonValue::obj(vec![("cmd", JsonValue::Str("status".into()))]),
            Request::Shutdown => JsonValue::obj(vec![("cmd", JsonValue::Str("shutdown".into()))]),
        };
        v.to_compact_string()
    }

    /// Parses one request line.
    pub fn from_line(line: &str) -> Result<Request, ProtocolError> {
        let v = dp_telemetry::json::parse(line).map_err(|e| err(e.to_string()))?;
        let cmd = v
            .get("cmd")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("request needs a `cmd` string"))?;
        match cmd {
            "sweep" => {
                let circuit = CircuitSpec::from_json(
                    v.get("circuit")
                        .ok_or_else(|| err("sweep needs a circuit"))?,
                )?;
                let defaults = SweepParams::default();
                let params = SweepParams {
                    order: order_from_json(v.get("order"))?,
                    model: match v.get("model") {
                        None => defaults.model.clone(),
                        Some(m) => m
                            .as_str()
                            .ok_or_else(|| err("model must be a string"))?
                            .to_string(),
                    },
                    count: v
                        .get("count")
                        .map(|c| c.as_u64().ok_or_else(|| err("count must be an integer")))
                        .transpose()?
                        .map(|c| c as usize)
                        .unwrap_or(defaults.count),
                    collapse: match v.get("collapse") {
                        None => defaults.collapse,
                        Some(JsonValue::Bool(b)) => *b,
                        Some(_) => return Err(err("collapse must be a boolean")),
                    },
                    threads: v
                        .get("threads")
                        .map(|t| t.as_u64().ok_or_else(|| err("threads must be an integer")))
                        .transpose()?
                        .map(|t| (t as usize).max(1))
                        .unwrap_or(defaults.threads),
                    fallback_samples: match v.get("fallback_samples") {
                        None => defaults.fallback_samples,
                        Some(s) => match s.as_u64() {
                            Some(n) if n <= MAX_FALLBACK_SAMPLES => n,
                            Some(_) => {
                                return Err(err(format!(
                                    "fallback_samples exceeds the maximum of {MAX_FALLBACK_SAMPLES}"
                                )))
                            }
                            None => return Err(err("fallback_samples must be an integer")),
                        },
                    },
                    budget: budget_from_json(v.get("budget"))?,
                };
                Ok(Request::Sweep { circuit, params })
            }
            "detectability" | "adherence" => {
                let circuit = CircuitSpec::from_json(
                    v.get("circuit")
                        .ok_or_else(|| err("point query needs a circuit"))?,
                )?;
                let point = point_from_json(&v)?;
                Ok(if cmd == "detectability" {
                    Request::Detectability { circuit, point }
                } else {
                    Request::Adherence { circuit, point }
                })
            }
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(err(format!("unknown cmd `{other}`"))),
        }
    }
}

/// Snapshot-cache counters, as reported by a `status` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatus {
    /// Entries resident right now.
    pub entries: u64,
    /// Approximate resident bytes ([`dp_core::GoodSnapshot::approx_bytes`]).
    pub bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
    /// Requests answered from a resident snapshot.
    pub hits: u64,
    /// Requests that had to build (and then cached the result). A budgeted
    /// request never uses the cache and counts as neither hit nor miss.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// A server response frame (one JSON line each).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// One per-fault record of a streamed sweep, in input-fault order.
    /// `line` is the exact batch TSV rendering of the summary.
    Record { index: usize, line: String },
    /// Terminates a sweep: cache disposition, the sweep's merged
    /// unique-table counters (the zero-rebuild acceptance metric), and the
    /// full schema-v2 report object (with its `stream` section filled in).
    Done {
        cache: String,
        unique_lookups: u64,
        base_hits: u64,
        report: JsonValue,
    },
    /// Answer to a point query; the object carries the scalar fields.
    Value(JsonValue),
    /// Answer to a `status` request.
    Status(CacheStatus),
    /// Acknowledges a `shutdown`; the connection closes after this.
    Bye,
    /// The request failed; the connection stays usable.
    Error { message: String },
}

impl Frame {
    /// Serialises the frame as one newline-free JSON line.
    pub fn to_line(&self) -> String {
        let v = match self {
            Frame::Record { index, line } => JsonValue::obj(vec![
                ("frame", JsonValue::Str("record".into())),
                ("index", JsonValue::Int(*index as i128)),
                ("line", JsonValue::Str(line.clone())),
            ]),
            Frame::Done {
                cache,
                unique_lookups,
                base_hits,
                report,
            } => JsonValue::obj(vec![
                ("frame", JsonValue::Str("done".into())),
                ("cache", JsonValue::Str(cache.clone())),
                ("unique_lookups", JsonValue::Int(*unique_lookups as i128)),
                ("base_hits", JsonValue::Int(*base_hits as i128)),
                ("report", report.clone()),
            ]),
            Frame::Value(fields) => {
                let mut pairs = vec![("frame".to_string(), JsonValue::Str("value".into()))];
                if let Some(obj) = fields.as_obj() {
                    // A re-serialised parsed frame already carries the tag.
                    pairs.extend(obj.iter().filter(|(k, _)| k != "frame").cloned());
                }
                JsonValue::Obj(pairs)
            }
            Frame::Status(s) => JsonValue::obj(vec![
                ("frame", JsonValue::Str("status".into())),
                ("entries", JsonValue::Int(s.entries as i128)),
                ("bytes", JsonValue::Int(s.bytes as i128)),
                ("budget_bytes", JsonValue::Int(s.budget_bytes as i128)),
                ("hits", JsonValue::Int(s.hits as i128)),
                ("misses", JsonValue::Int(s.misses as i128)),
                ("evictions", JsonValue::Int(s.evictions as i128)),
            ]),
            Frame::Bye => JsonValue::obj(vec![("frame", JsonValue::Str("bye".into()))]),
            Frame::Error { message } => JsonValue::obj(vec![
                ("frame", JsonValue::Str("error".into())),
                ("message", JsonValue::Str(message.clone())),
                ("protocol", JsonValue::Int(PROTOCOL_VERSION as i128)),
            ]),
        };
        v.to_compact_string()
    }

    /// Parses one frame line.
    pub fn from_line(line: &str) -> Result<Frame, ProtocolError> {
        let v = dp_telemetry::json::parse(line).map_err(|e| err(e.to_string()))?;
        let kind = v
            .get("frame")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("frame needs a `frame` tag"))?;
        let int = |key: &str| -> Result<u64, ProtocolError> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| err(format!("frame missing integer `{key}`")))
        };
        match kind {
            "record" => Ok(Frame::Record {
                index: int("index")? as usize,
                line: v
                    .get("line")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| err("record frame missing `line`"))?
                    .to_string(),
            }),
            "done" => Ok(Frame::Done {
                cache: v
                    .get("cache")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| err("done frame missing `cache`"))?
                    .to_string(),
                unique_lookups: int("unique_lookups")?,
                base_hits: int("base_hits")?,
                report: v
                    .get("report")
                    .cloned()
                    .ok_or_else(|| err("done frame missing `report`"))?,
            }),
            "value" => Ok(Frame::Value(v)),
            "status" => Ok(Frame::Status(CacheStatus {
                entries: int("entries")?,
                bytes: int("bytes")?,
                budget_bytes: int("budget_bytes")?,
                hits: int("hits")?,
                misses: int("misses")?,
                evictions: int("evictions")?,
            })),
            "bye" => Ok(Frame::Bye),
            "error" => Ok(Frame::Error {
                message: v
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
            }),
            other => Err(err(format!("unknown frame `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_their_lines() {
        let reqs = vec![
            Request::Sweep {
                circuit: CircuitSpec::Builtin("c95".into()),
                params: SweepParams {
                    order: OrderStrategy::Auto,
                    model: "fbridge-and".into(),
                    count: 12,
                    collapse: false,
                    threads: 4,
                    fallback_samples: 512,
                    budget: BudgetConfig {
                        max_nodes: Some(5000),
                        max_op_steps: None,
                    },
                },
            },
            Request::Detectability {
                circuit: CircuitSpec::Bench {
                    name: "t.bench".into(),
                    source: "INPUT(a)\nOUTPUT(a)\n".into(),
                },
                point: PointParams {
                    order: OrderStrategy::FaninDfs,
                    budget: BudgetConfig::UNLIMITED,
                    net: "a".into(),
                    stuck_at: true,
                },
            },
            Request::Adherence {
                circuit: CircuitSpec::Builtin("c17".into()),
                point: PointParams {
                    order: OrderStrategy::Identity,
                    budget: BudgetConfig::UNLIMITED,
                    net: "n2".into(),
                    stuck_at: false,
                },
            },
            Request::Status,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one request, one line: {line:?}");
            assert_eq!(Request::from_line(&line).expect("parse back"), req);
        }
    }

    #[test]
    fn frames_round_trip_through_their_lines() {
        let frames = vec![
            Frame::Record {
                index: 3,
                line: "3\tn7 s-a-1\t3fe0000000000000\t16\t101\t1\t-\texact".into(),
            },
            Frame::Done {
                cache: "hit".into(),
                unique_lookups: 12345,
                base_hits: 999,
                report: JsonValue::obj(vec![("circuit", JsonValue::Str("c95".into()))]),
            },
            Frame::Status(CacheStatus {
                entries: 2,
                bytes: 4096,
                budget_bytes: 1 << 20,
                hits: 7,
                misses: 2,
                evictions: 1,
            }),
            Frame::Bye,
            Frame::Error {
                message: "unknown builtin circuit `c9999`".into(),
            },
        ];
        for frame in frames {
            let line = frame.to_line();
            assert!(!line.contains('\n'), "one frame, one line: {line:?}");
            assert_eq!(Frame::from_line(&line).expect("parse back"), frame);
        }
    }

    #[test]
    fn retired_interleave_spelling_is_an_unknown_strategy() {
        let ok = Request::Sweep {
            circuit: CircuitSpec::Builtin("c17".into()),
            params: SweepParams {
                order: OrderStrategy::FaninDfs,
                ..Default::default()
            },
        }
        .to_line();
        for line in [
            ok.replace("\"order\":\"fanin-dfs\"", "\"order\":\"interleave\""),
            concat!(
                r#"{"cmd":"detectability","circuit":{"builtin":"c17"},"#,
                r#""order":"interleave","net":"n2","stuck_at":0}"#,
            )
            .to_string(),
        ] {
            assert!(line.contains("\"order\":\"interleave\""), "{line}");
            let e = Request::from_line(&line).expect_err("interleave is retired");
            assert!(
                e.to_string()
                    .contains("unknown order strategy `interleave`"),
                "{e}"
            );
        }
    }

    #[test]
    fn builtin_specs_compile_to_the_generator_circuits() {
        let spec = CircuitSpec::from_arg("c95").expect("builtin");
        assert_eq!(spec, CircuitSpec::Builtin("c95".into()));
        let compiled = spec.compile().expect("compile");
        assert_eq!(compiled.digest(), generators::c95().digest());
        assert!(CircuitSpec::Builtin("c9999".into()).compile().is_err());
    }
}
