//! The versioned `sweep_report.json` schema: builders, writer, validator.
//!
//! A report file separates what a sweep **computed** from how it was
//! **executed**:
//!
//! * `result` ([`SweepOutcome`]) holds only scheduling-invariant facts —
//!   fault/class tallies and an FNV-1a digest of the merged summaries. Two
//!   runs of the same sweep at different thread or chunk counts must produce
//!   byte-identical `result` subtrees (a differential test enforces this).
//! * `execution` ([`SweepExecution`]) holds everything timing- and
//!   scheduling-dependent: wall clock, merged telemetry, and per-shard
//!   snapshots.
//!
//! Versioning: [`SCHEMA_VERSION`] is bumped when a field is removed, renamed
//! or changes meaning. Adding fields is allowed within a version, so
//! [`validate_report`] checks required fields and types but tolerates unknown
//! members; it rejects any `schema_version` it does not know.

use crate::collector::{CounterKind, HistKind, SpanKind, TelemetrySnapshot};
use crate::json::{self, JsonValue};

/// Current `sweep_report.json` schema version.
///
/// Version history:
/// * **1** — initial schema: `result` + `execution` per report.
/// * **2** — additive: a report may carry a `stream` section
///   ([`StreamInfo`]) describing how its records were delivered
///   incrementally (frame/record tallies, snapshot-cache disposition).
///   Batch reports omit it, so every valid v1 document is also valid v2.
pub const SCHEMA_VERSION: u64 = 2;

/// 64-bit FNV-1a. Used for the `summaries_fnv` digest so reports can assert
/// cross-configuration result identity without embedding every summary.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Scheduling-invariant facts about what a sweep computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Faults in the (possibly capped) universe.
    pub faults: u64,
    /// Equivalence classes after collapsing (== `faults` with collapsing off).
    pub classes: u64,
    /// Classes with exactly one member.
    pub singleton_classes: u64,
    /// Members in the largest class.
    pub largest_class: u64,
    /// Summaries computed exactly.
    pub exact: u64,
    /// Summaries degraded to sampled simulator estimates.
    pub bounded: u64,
    /// Summaries whose feedback-bridge fixpoint left an oscillating wire
    /// (exactly computed, but with residual X at the bridge).
    pub oscillating: u64,
    /// FNV-1a digest over the canonical per-fault summary lines.
    pub summaries_fnv: u64,
}

/// One worker's execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardExecution {
    /// Worker index.
    pub shard: u32,
    /// Whether the worker died in a panic (its claimed work is reported by
    /// the surviving shards' merge).
    pub panicked: bool,
    /// Nanoseconds the worker spent inside class analysis.
    pub busy_nanos: u64,
    /// Everything the worker's collector recorded.
    pub telemetry: TelemetrySnapshot,
}

/// Timing- and scheduling-dependent facts about how a sweep ran.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepExecution {
    /// Worker threads used (1 for a serial sweep).
    pub threads: u32,
    /// Work-stealing chunk size in batches (see `SweepConfig::batch`).
    pub chunk: u32,
    /// Whether structural fault collapsing was on.
    pub collapse: bool,
    /// Variable-order strategy the workers built their managers with
    /// (`"identity"`, `"fanin-dfs"`, `"auto"`, `"random:<seed>"`). An
    /// execution fact: results never depend on it, cost always does.
    pub order: String,
    /// Sweep wall-clock nanoseconds, end to end.
    pub wall_nanos: u64,
    /// Merge of every shard's telemetry (plus the sweep-level span).
    pub totals: TelemetrySnapshot,
    /// Per-shard records, in shard order.
    pub shards: Vec<ShardExecution>,
}

/// How a streamed sweep delivered its records (schema v2, additive).
///
/// Batch sweeps omit the section entirely; a server answering a `sweep`
/// request fills it in so clients and CI can assert both the framing (all
/// records delivered, none double-framed) and the cache behaviour (a repeat
/// request must be a `hit`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInfo {
    /// Frames sent for the request, the terminating `done` frame included
    /// (so `frames == records + 1` when every record travels alone).
    pub frames: u64,
    /// Per-fault records streamed, summed over frames.
    pub records: u64,
    /// Faults whose records were skipped (lost to a class panic).
    pub skipped: u64,
    /// Snapshot-cache disposition for the request: `"hit"` (thawed a cached
    /// snapshot; zero good-function builds) or `"miss"` (built and cached).
    pub cache: String,
}

/// One sweep's report: identity, invariant result, execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Circuit name (e.g. `"c95"`).
    pub circuit: String,
    /// Fault model swept (e.g. `"stuck_at"`, `"bridging"`).
    pub fault_model: String,
    /// What was computed — scheduling-invariant.
    pub result: SweepOutcome,
    /// How it ran — timing-dependent.
    pub execution: SweepExecution,
    /// How records were delivered, when streamed (`None` for batch runs;
    /// the section is then absent from the JSON document).
    pub stream: Option<StreamInfo>,
}

/// A `sweep_report.json` document: versioned envelope around one or more
/// sweep reports (one per circuit × fault model the tool ran).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportFile {
    /// Emitting tool, e.g. `"diffprop"`, `"figures"`, `"bench/parallel_sweep"`.
    pub tool: String,
    /// The sweeps, in execution order.
    pub reports: Vec<SweepReport>,
}

impl ReportFile {
    /// A report file for `tool` with no sweeps yet.
    pub fn new(tool: &str) -> ReportFile {
        ReportFile {
            tool: tool.to_string(),
            reports: Vec::new(),
        }
    }

    /// The document as a JSON value (already schema-valid by construction).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("schema_version", JsonValue::Int(SCHEMA_VERSION as i128)),
            ("tool", JsonValue::Str(self.tool.clone())),
            (
                "reports",
                JsonValue::Arr(self.reports.iter().map(report_to_json).collect()),
            ),
        ])
    }

    /// The serialised document (pretty-printed, trailing newline).
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty_string()
    }
}

/// One report as a JSON object — the payload a `dp-serve` `done` frame
/// carries, so a client can re-wrap it in a [`ReportFile`] envelope and
/// validate it with the same machinery as an on-disk document.
pub fn report_to_json(r: &SweepReport) -> JsonValue {
    let mut pairs = vec![
        ("circuit", JsonValue::Str(r.circuit.clone())),
        ("fault_model", JsonValue::Str(r.fault_model.clone())),
        ("result", outcome_to_json(&r.result)),
        ("execution", execution_to_json(&r.execution)),
    ];
    if let Some(stream) = &r.stream {
        pairs.push(("stream", stream_to_json(stream)));
    }
    JsonValue::obj(pairs)
}

fn stream_to_json(s: &StreamInfo) -> JsonValue {
    JsonValue::obj(vec![
        ("frames", JsonValue::Int(s.frames as i128)),
        ("records", JsonValue::Int(s.records as i128)),
        ("skipped", JsonValue::Int(s.skipped as i128)),
        ("cache", JsonValue::Str(s.cache.clone())),
    ])
}

fn outcome_to_json(o: &SweepOutcome) -> JsonValue {
    JsonValue::obj(vec![
        ("faults", JsonValue::Int(o.faults as i128)),
        ("classes", JsonValue::Int(o.classes as i128)),
        (
            "singleton_classes",
            JsonValue::Int(o.singleton_classes as i128),
        ),
        ("largest_class", JsonValue::Int(o.largest_class as i128)),
        ("exact", JsonValue::Int(o.exact as i128)),
        ("bounded", JsonValue::Int(o.bounded as i128)),
        ("oscillating", JsonValue::Int(o.oscillating as i128)),
        (
            "summaries_fnv",
            JsonValue::Str(format!("{:016x}", o.summaries_fnv)),
        ),
    ])
}

fn execution_to_json(e: &SweepExecution) -> JsonValue {
    JsonValue::obj(vec![
        ("threads", JsonValue::Int(e.threads as i128)),
        ("chunk", JsonValue::Int(e.chunk as i128)),
        ("collapse", JsonValue::Bool(e.collapse)),
        ("order", JsonValue::Str(e.order.clone())),
        (
            "telemetry_level",
            JsonValue::Str(e.totals.level().name().to_string()),
        ),
        ("wall_nanos", JsonValue::Int(e.wall_nanos as i128)),
        ("totals", snapshot_to_json(&e.totals)),
        (
            "shards",
            JsonValue::Arr(e.shards.iter().map(shard_to_json).collect()),
        ),
    ])
}

fn shard_to_json(s: &ShardExecution) -> JsonValue {
    JsonValue::obj(vec![
        ("shard", JsonValue::Int(s.shard as i128)),
        ("panicked", JsonValue::Bool(s.panicked)),
        ("busy_nanos", JsonValue::Int(s.busy_nanos as i128)),
        ("telemetry", snapshot_to_json(&s.telemetry)),
    ])
}

/// A telemetry snapshot as a JSON object: fixed-order counter map, span
/// aggregates, dense histogram buckets.
pub fn snapshot_to_json(snap: &TelemetrySnapshot) -> JsonValue {
    let counters = CounterKind::ALL
        .iter()
        .map(|&k| {
            (
                k.name().to_string(),
                JsonValue::Int(snap.counter(k) as i128),
            )
        })
        .collect();
    let spans = SpanKind::ALL
        .iter()
        .map(|&k| {
            let s = snap.span(k);
            (
                k.name().to_string(),
                JsonValue::obj(vec![
                    ("count", JsonValue::Int(s.count as i128)),
                    ("total_nanos", JsonValue::Int(s.total_nanos as i128)),
                    ("max_nanos", JsonValue::Int(s.max_nanos as i128)),
                ]),
            )
        })
        .collect();
    let hists = HistKind::ALL
        .iter()
        .map(|&k| {
            (
                k.name().to_string(),
                JsonValue::Arr(
                    snap.hist(k)
                        .dense_buckets()
                        .iter()
                        .map(|&c| JsonValue::Int(c as i128))
                        .collect(),
                ),
            )
        })
        .collect();
    JsonValue::obj(vec![
        ("level", JsonValue::Str(snap.level().name().to_string())),
        ("counters", JsonValue::Obj(counters)),
        ("spans", JsonValue::Obj(spans)),
        ("histograms", JsonValue::Obj(hists)),
    ])
}

/// Validates a parsed document against the current schema. Checks the
/// version and every required field's presence and type; tolerates unknown
/// members (additive evolution is allowed within a version).
pub fn validate_report(doc: &JsonValue) -> Result<(), String> {
    let version = require_u64(doc, "schema_version", "$")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unknown schema_version {version} (this validator knows version {SCHEMA_VERSION})"
        ));
    }
    require_str(doc, "tool", "$")?;
    let reports = require_arr(doc, "reports", "$")?;
    for (i, report) in reports.iter().enumerate() {
        let at = format!("$.reports[{i}]");
        require_str(report, "circuit", &at)?;
        require_str(report, "fault_model", &at)?;

        let result = require_obj(report, "result", &at)?;
        let rat = format!("{at}.result");
        for field in [
            "faults",
            "classes",
            "singleton_classes",
            "largest_class",
            "exact",
            "bounded",
        ] {
            require_u64(result, field, &rat)?;
        }
        // `oscillating` arrived with the feedback-bridge model (additive
        // within v2): older documents omit it, newer ones must type it.
        if result.get("oscillating").is_some() {
            require_u64(result, "oscillating", &rat)?;
        }
        let fnv = require_str(result, "summaries_fnv", &rat)?;
        if fnv.len() != 16 || !fnv.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("{rat}.summaries_fnv: expected 16 hex digits"));
        }

        let exec = require_obj(report, "execution", &at)?;
        let eat = format!("{at}.execution");
        require_u64(exec, "threads", &eat)?;
        require_u64(exec, "chunk", &eat)?;
        require_bool(exec, "collapse", &eat)?;
        require_str(exec, "order", &eat)?;
        require_level(exec, "telemetry_level", &eat)?;
        require_u64(exec, "wall_nanos", &eat)?;
        let totals = require_obj(exec, "totals", &eat)?;
        validate_snapshot(totals, &format!("{eat}.totals"))?;
        let shards = require_arr(exec, "shards", &eat)?;
        for (j, shard) in shards.iter().enumerate() {
            let sat = format!("{eat}.shards[{j}]");
            require_u64(shard, "shard", &sat)?;
            require_bool(shard, "panicked", &sat)?;
            require_u64(shard, "busy_nanos", &sat)?;
            let tele = require_obj(shard, "telemetry", &sat)?;
            validate_snapshot(tele, &format!("{sat}.telemetry"))?;
        }

        // `stream` is optional (batch reports omit it) but strict when
        // present.
        if report.get("stream").is_some() {
            let stream = require_obj(report, "stream", &at)?;
            let tat = format!("{at}.stream");
            require_u64(stream, "frames", &tat)?;
            require_u64(stream, "records", &tat)?;
            require_u64(stream, "skipped", &tat)?;
            match require_str(stream, "cache", &tat)? {
                "hit" | "miss" => {}
                other => {
                    return Err(format!(
                        "{tat}.cache: expected \"hit\" or \"miss\", got {other:?}"
                    ))
                }
            }
        }
    }
    Ok(())
}

/// Counters, spans and histograms added within schema v2 (the
/// feedback-bridge model, the sift's swap count, the build span): documents
/// captured before them — e.g. the committed kernel-perf baseline — simply
/// omit the keys, so the validator treats them as optional-but-typed
/// instead of required.
const ADDITIVE_COUNTERS: [CounterKind; 2] =
    [CounterKind::OscillatingFaults, CounterKind::SiftSwaps];
const ADDITIVE_SPANS: [SpanKind; 1] = [SpanKind::Build];
const ADDITIVE_HISTS: [HistKind; 1] = [HistKind::FixpointIterations];

fn validate_snapshot(snap: &JsonValue, at: &str) -> Result<(), String> {
    require_level(snap, "level", at)?;
    let counters = require_obj(snap, "counters", at)?;
    for kind in CounterKind::ALL {
        if ADDITIVE_COUNTERS.contains(&kind) && counters.get(kind.name()).is_none() {
            continue;
        }
        require_u64(counters, kind.name(), &format!("{at}.counters"))?;
    }
    let spans = require_obj(snap, "spans", at)?;
    for kind in SpanKind::ALL {
        if ADDITIVE_SPANS.contains(&kind) && spans.get(kind.name()).is_none() {
            continue;
        }
        let span = require_obj(spans, kind.name(), &format!("{at}.spans"))?;
        let pat = format!("{at}.spans.{}", kind.name());
        require_u64(span, "count", &pat)?;
        require_u64(span, "total_nanos", &pat)?;
        require_u64(span, "max_nanos", &pat)?;
    }
    let hists = require_obj(snap, "histograms", at)?;
    for kind in HistKind::ALL {
        if ADDITIVE_HISTS.contains(&kind) && hists.get(kind.name()).is_none() {
            continue;
        }
        let buckets = require_arr(hists, kind.name(), &format!("{at}.histograms"))?;
        for (i, b) in buckets.iter().enumerate() {
            if b.as_u64().is_none() {
                return Err(format!(
                    "{at}.histograms.{}[{i}]: expected a non-negative integer",
                    kind.name()
                ));
            }
        }
    }
    Ok(())
}

fn require<'a>(obj: &'a JsonValue, key: &str, at: &str) -> Result<&'a JsonValue, String> {
    obj.get(key)
        .ok_or_else(|| format!("{at}.{key}: missing required field"))
}

fn require_u64(obj: &JsonValue, key: &str, at: &str) -> Result<u64, String> {
    require(obj, key, at)?
        .as_u64()
        .ok_or_else(|| format!("{at}.{key}: expected a non-negative integer"))
}

fn require_str<'a>(obj: &'a JsonValue, key: &str, at: &str) -> Result<&'a str, String> {
    require(obj, key, at)?
        .as_str()
        .ok_or_else(|| format!("{at}.{key}: expected a string"))
}

fn require_bool(obj: &JsonValue, key: &str, at: &str) -> Result<bool, String> {
    match require(obj, key, at)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("{at}.{key}: expected a boolean")),
    }
}

fn require_level(obj: &JsonValue, key: &str, at: &str) -> Result<(), String> {
    let level = require_str(obj, key, at)?;
    match level {
        "off" | "aggregate" | "detailed" => Ok(()),
        other => Err(format!("{at}.{key}: unknown telemetry level {other:?}")),
    }
}

fn require_arr<'a>(obj: &'a JsonValue, key: &str, at: &str) -> Result<&'a [JsonValue], String> {
    require(obj, key, at)?
        .as_arr()
        .ok_or_else(|| format!("{at}.{key}: expected an array"))
}

fn require_obj<'a>(obj: &'a JsonValue, key: &str, at: &str) -> Result<&'a JsonValue, String> {
    let v = require(obj, key, at)?;
    match v {
        JsonValue::Obj(_) => Ok(v),
        _ => Err(format!("{at}.{key}: expected an object")),
    }
}

/// Every distinct key path in a document, sorted — the shape of the schema
/// with values and array multiplicity erased. The schema-stability golden
/// test snapshots this for a representative report.
pub fn key_paths(doc: &JsonValue) -> Vec<String> {
    let mut paths = Vec::new();
    collect_paths(doc, "$", &mut paths);
    paths.sort();
    paths.dedup();
    paths
}

fn collect_paths(value: &JsonValue, prefix: &str, out: &mut Vec<String>) {
    match value {
        JsonValue::Obj(pairs) => {
            for (k, v) in pairs {
                let path = format!("{prefix}.{k}");
                out.push(path.clone());
                collect_paths(v, &path, out);
            }
        }
        JsonValue::Arr(items) => {
            let path = format!("{prefix}[]");
            for v in items {
                collect_paths(v, &path, out);
            }
        }
        _ => {}
    }
}

/// Parses and validates a serialised report document in one step.
pub fn parse_and_validate(text: &str) -> Result<JsonValue, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    validate_report(&doc)?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, CounterKind, HistKind, SpanKind, TelemetryLevel};

    fn sample_file() -> ReportFile {
        let mut c = Collector::new(TelemetryLevel::Aggregate);
        c.add(CounterKind::UniqueLookups, 123);
        c.count_span(SpanKind::GateProp, 7);
        let t = c.start();
        c.finish(SpanKind::Fault, t);
        c.record_hist(HistKind::ClassSize, 3);
        let snap = c.snapshot();
        ReportFile {
            tool: "test".into(),
            reports: vec![SweepReport {
                circuit: "c95".into(),
                fault_model: "stuck_at".into(),
                result: SweepOutcome {
                    faults: 10,
                    classes: 8,
                    singleton_classes: 6,
                    largest_class: 2,
                    exact: 10,
                    bounded: 0,
                    oscillating: 0,
                    summaries_fnv: fnv1a64(b"example"),
                },
                execution: SweepExecution {
                    threads: 2,
                    chunk: 4,
                    collapse: true,
                    order: "identity".into(),
                    wall_nanos: 1_000,
                    totals: snap.clone(),
                    shards: vec![ShardExecution {
                        shard: 0,
                        panicked: false,
                        busy_nanos: 900,
                        telemetry: snap,
                    }],
                },
                stream: None,
            }],
        }
    }

    #[test]
    fn emitted_reports_validate_and_round_trip() {
        let text = sample_file().to_pretty_string();
        let doc = parse_and_validate(&text).expect("emitted report must be schema-valid");
        assert_eq!(doc.get("tool").and_then(|v| v.as_str()), Some("test"));
    }

    #[test]
    fn validator_rejects_unknown_version() {
        let mut file = sample_file().to_json();
        if let JsonValue::Obj(pairs) = &mut file {
            pairs[0].1 = JsonValue::Int((SCHEMA_VERSION + 1) as i128);
        }
        let err = validate_report(&file).unwrap_err();
        assert!(err.contains("unknown schema_version"), "{err}");
    }

    #[test]
    fn validator_accepts_only_the_current_version() {
        // Only the current version is read; v1 documents are retired.
        let with_version = |version: u64| {
            let mut file = sample_file().to_json();
            if let JsonValue::Obj(pairs) = &mut file {
                pairs[0].1 = JsonValue::Int(version as i128);
            }
            validate_report(&file)
        };
        with_version(2).expect("v2 is the current schema");
        let err = with_version(1).unwrap_err();
        assert!(err.contains("knows version 2"), "{err}");
    }

    #[test]
    fn stream_section_round_trips_and_is_strict() {
        let mut file = sample_file();
        file.reports[0].stream = Some(StreamInfo {
            frames: 5,
            records: 10,
            skipped: 0,
            cache: "hit".into(),
        });
        let text = file.to_pretty_string();
        assert!(text.contains("\"stream\""));
        parse_and_validate(&text).expect("streamed report must validate");
        // A cache disposition outside {hit, miss} is a framing bug.
        let bad = text.replace("\"hit\"", "\"warm\"");
        let err = parse_and_validate(&bad).unwrap_err();
        assert!(err.contains("stream.cache"), "{err}");
        // Batch reports omit the section and still validate (see
        // emitted_reports_validate_and_round_trip), and omission keeps the
        // key-path shape of v1 documents unchanged.
        let batch_paths = key_paths(&sample_file().to_json());
        assert!(!batch_paths.iter().any(|p| p.contains("stream")));
    }

    #[test]
    fn validator_rejects_missing_counter() {
        let text = sample_file()
            .to_pretty_string()
            .replace("\"unique_lookups\"", "\"unique_lookupz\"");
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("unique_lookups"), "{err}");
    }

    #[test]
    fn validator_tolerates_additive_fields() {
        let mut file = sample_file().to_json();
        if let JsonValue::Obj(pairs) = &mut file {
            pairs.push(("future_field".into(), JsonValue::Int(1)));
        }
        validate_report(&file).expect("additive fields are allowed within a version");
    }

    #[test]
    fn validator_accepts_reports_older_than_the_additive_fields() {
        // The frozen alu74181 baseline predates `oscillating_faults`,
        // `fixpoint_iterations` and the `good_build` span.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../baselines/pr7_alu74181_serial.json"
        );
        let text = std::fs::read_to_string(path).expect("frozen baseline is committed");
        assert!(!text.contains("good_build"));
        parse_and_validate(&text).expect("additive fields may be absent");
    }

    #[test]
    fn fnv_digest_is_the_reference_function() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn key_paths_cover_nested_structure() {
        let paths = key_paths(&sample_file().to_json());
        assert!(paths.contains(&"$.reports[].result.summaries_fnv".to_string()));
        assert!(paths
            .contains(&"$.reports[].execution.shards[].telemetry.counters.gc_runs".to_string()));
    }
}
