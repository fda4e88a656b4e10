//! In-memory spans recorded around calls into each layer.
//!
//! A span is one public call made by the benchmark: its name is the layer
//! metric it feeds (`engine.stuck`, `good.thaw`, ...), its parent is the
//! span that was open when it started, and `probes` is the calling
//! engine's BDD probe count read when the span closed. Spans stay in
//! memory and are written once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Measurement round the span belongs to.
    pub round: u32,
    pub circuit: String,
    /// BDD probes (unique plus op-cache lookups) of the engine the call
    /// used, read at the span's end; `None` where no engine is involved.
    pub probes: Option<u64>,
}

/// Span recorder for one run. A tracer made with [`Tracer::off`] records
/// nothing, so untraced code paths can share the traced ones' structure.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            enabled: true,
        }
    }
}

impl Tracer {
    /// A tracer whose `enter`/`exit` do nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, circuit: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            round: self.round,
            circuit: circuit.to_string(),
            probes: None,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn exit(&mut self, id: usize, probes: Option<u64>) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.probes = probes;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let probes = s.probes.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"round\":{},\"workload\":\"{workload}\",\"circuit\":\"{}\",\"probes\":{probes}}}",
                s.name, s.start, s.end, s.round, s.circuit
            );
        }
        out
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// that interval its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self time in seconds summed per `(round, span name)`.
pub fn self_seconds_by_round(spans: &[Span]) -> BTreeMap<(u32, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry((s.round, s.name)).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: 0,
            circuit: String::new(),
            probes: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("collapse", 10, 20, Some(0)),
            span("engine", 30, 80, Some(0)),
            span("bound", 40, 50, Some(2)),
            span("bound", 60, 65, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 35, 10, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("a", 100, 200, None),
            span("b", 90, 150, Some(0)),
            span("c", 140, 160, Some(0)),
            span("d", 190, 250, Some(0)),
        ];
        // Covered: [100,160) and [190,200) — 70 of 100 ns.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_aggregates_by_round() {
        let mut t = Tracer::default();
        let outer = t.enter("unit", "c17");
        let inner = t.enter("engine.stuck", "c17");
        t.exit(inner, Some(7));
        t.exit(outer, None);
        t.set_round(1);
        let again = t.enter("unit", "c17");
        t.exit(again, None);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].probes, Some(7));
        assert_eq!(s[2].parent, None);
        let by = self_seconds_by_round(s);
        assert!(by.contains_key(&(0, "engine.stuck")));
        assert!(by.contains_key(&(1, "unit")));
        assert_eq!(t.to_jsonl("w").lines().count(), 3);
    }
}
