//! In-memory spans recorded by the benchmark around calls into each layer,
//! written out as JSON lines when the traced run ends.
//!
//! A span is `{name, start, end, parent, txn}`: the layer call it covers, its
//! interval in nanoseconds since the trace began, the span that caused it,
//! and the transaction it served (0 when none). A layer's *self time* is its
//! spans' duration minus the part their child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names (also the layer keys of the budget).
pub const PUMP: &str = "pump";
pub const SIM: &str = "sim.run";
pub const TXN: &str = "txn";
pub const STEP: &str = "machine.step";
pub const ENCODE: &str = "wire.encode";
pub const DECODE: &str = "wire.decode";
pub const WAL_APPEND: &str = "wal.append";
pub const WAL_SYNC: &str = "wal.sync";

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub txn: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The clock every span of one trace is read from.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Storage-call intervals recorded by a [`crate::timed::TimedStorage`]. The
/// storage lives inside a `SiteStore` the pump does not own, so it reports
/// through this shared log, which the pump drains after every step and turns
/// into child spans of that step.
pub type StorageLog = Arc<Mutex<Vec<(&'static str, u64, u64)>>>;

#[derive(Debug)]
pub struct Tracer {
    pub clock: Clock,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(clock: Clock) -> Self {
        Tracer {
            clock,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        txn: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose end is set later by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, txn: u64) -> SpanId {
        let now = self.clock.now_ns();
        self.record(name, now, now, parent, txn)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.clock.now_ns();
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start", Json::Num(s.start_ns as f64)),
                ("end", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("txn", Json::Num(s.txn as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Total self time per span name, in nanoseconds.
///
/// A span's self time is its duration minus the union of the intervals its
/// children cover (clipped to the span). Spans named in `transparent` are
/// skipped: their children count as children of the nearest opaque ancestor
/// and they contribute no time of their own. The pump passes [`TXN`] here —
/// transaction spans overlap one another when several are in flight, so they
/// group spans in the trace file but cannot take part in a time budget.
pub fn self_times(spans: &[Span], transparent: &[&str]) -> BTreeMap<&'static str, u64> {
    let opaque_parent = |mut parent: Option<SpanId>| {
        while let Some(p) = parent {
            let span = &spans[p as usize];
            if !transparent.contains(&span.name) {
                return Some(p);
            }
            parent = span.parent;
        }
        None
    };
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter().filter(|s| !transparent.contains(&s.name)) {
        if let Some(p) = opaque_parent(s.parent) {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut totals = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        if transparent.contains(&s.name) {
            continue;
        }
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(cursor), end.min(s.end_ns));
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        *totals.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            txn: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span(PUMP, 0, 1000, None),           // 0
            span(STEP, 100, 400, Some(0)),       // 1: 300 long
            span(WAL_APPEND, 150, 200, Some(1)), // 50
            span(WAL_SYNC, 180, 300, Some(1)),   // overlaps the append: union 150..300
            span(ENCODE, 500, 560, Some(0)),
            span(STEP, 900, 1100, Some(0)), // runs past its parent: clipped there
        ];
        let t = self_times(&spans, &[]);
        assert_eq!(t[STEP], (300 - 150) + 200);
        assert_eq!(t[WAL_APPEND], 50);
        assert_eq!(t[WAL_SYNC], 120);
        assert_eq!(t[ENCODE], 60);
        // Children cover 100..400, 500..560 and 900..1000 of the pump.
        assert_eq!(t[PUMP], 1000 - 300 - 60 - 100);
    }

    #[test]
    fn transparent_spans_hand_their_children_to_the_ancestor() {
        let spans = vec![
            span(PUMP, 0, 100, None),
            span(TXN, 0, 80, Some(0)),  // overlapping transaction spans…
            span(TXN, 10, 90, Some(0)), // …take no part in the budget
            span(STEP, 10, 30, Some(1)),
            span(STEP, 40, 70, Some(2)),
        ];
        let t = self_times(&spans, &[TXN]);
        assert_eq!(t.get(TXN), None);
        assert_eq!(t[STEP], 50);
        assert_eq!(t[PUMP], 50);
        // Self times of a properly nested trace sum to the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_writes_one_json_object_per_span() {
        let mut tracer = Tracer::new(Clock::start());
        let root = tracer.open(PUMP, None, 0);
        let step = tracer.record(STEP, 5, 9, Some(root), 42);
        tracer.close(root);
        assert_eq!(tracer.spans[step as usize].duration_ns(), 4);
        let dir = crate::scratch::TempDir::new("trace-unit").unwrap();
        let path = dir.path().join("nested/trace.jsonl");
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("name").and_then(Json::as_str), Some(STEP));
        assert_eq!(lines[1].get("txn").and_then(Json::as_f64), Some(42.0));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
    }
}
