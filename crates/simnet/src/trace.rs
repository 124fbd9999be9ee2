//! Structured protocol trace: typed events, recorded through [`crate::Ctx`].
//!
//! Every protocol transition the engine makes — submit, prepare, wait-phase
//! timeout, polyvalue install, outcome propagation, collapse — is emitted as
//! a [`TraceEvent`] and recorded into the run's [`Trace`]. Because events
//! flow through the same `Ctx` used for messages and timers, the simulated
//! `World` and the engine's wall-clock host share one instrumentation code
//! path, and a simulation run's trace is a pure function of `(configuration,
//! seed)` — two same-seed runs serialize to byte-identical streams.
//!
//! Identifiers are primitive (`u64` transaction ids, `u32` sites) so the
//! substrate stays independent of the engine's id newtypes.

use crate::actor::NodeId;
use crate::time::SimTime;
use std::fmt;
use std::str::FromStr;

/// One protocol transition, in the vocabulary of the paper's §2–§3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A client handed a transaction to a coordinator site.
    TxnSubmitted {
        /// Client-local request id.
        req_id: u64,
        /// The coordinator site chosen for the request.
        coordinator: u32,
    },
    /// A client re-submitted a request after a retryable abort.
    TxnRetried {
        /// Client-local request id.
        req_id: u64,
        /// Retry ordinal (1 = first retry).
        attempt: u32,
    },
    /// The evaluator split a transaction into a polytransaction with
    /// multiple alternatives (§3.2).
    AltSplit {
        /// Global transaction id.
        txn: u64,
        /// Number of alternative transactions produced.
        alternatives: u32,
    },
    /// A participant staged the transaction's writes and voted ready.
    Prepared {
        /// Global transaction id.
        txn: u64,
        /// The participant site.
        site: u32,
    },
    /// The coordinator decided the transaction's outcome and propagated it
    /// to the write sites.
    Decided {
        /// Global transaction id.
        txn: u64,
        /// `true` = complete, `false` = abort.
        completed: bool,
    },
    /// A participant's wait phase timed out with the outcome unknown (§2.4).
    WaitTimedOut {
        /// Global transaction id.
        txn: u64,
        /// The participant site.
        site: u32,
    },
    /// A participant installed in-doubt polyvalues and released its locks
    /// (the paper's mechanism, §3.1).
    PolyvalueInstalled {
        /// The in-doubt transaction.
        txn: u64,
        /// The installing site.
        site: u32,
        /// How many items became polyvalued.
        items: u32,
    },
    /// A site learned the outcome of a transaction it tracked as in-doubt.
    OutcomeLearned {
        /// The formerly in-doubt transaction.
        txn: u64,
        /// The learning site.
        site: u32,
        /// The learned outcome.
        completed: bool,
    },
    /// A site forwarded a learned outcome along its §3.3 sent-to table.
    OutcomeForwarded {
        /// The transaction whose outcome is being forwarded.
        txn: u64,
        /// The site that had shipped dependent polyvalues.
        site: u32,
        /// The destination site.
        to: u32,
    },
    /// Every local polyvalue depending on a transaction reduced to a simple
    /// value; the uncertainty window closed at this site.
    PolyvalueCollapsed {
        /// The resolved transaction.
        txn: u64,
        /// The site where its polyvalues collapsed.
        site: u32,
        /// Microseconds from install to collapse (the polyvalue lifetime).
        lifetime_us: u64,
    },
    /// A coordination-free read-only transaction served from an MVCC
    /// snapshot: no locks taken, no protocol messages between sites.
    SnapshotRead {
        /// The serving site.
        site: u32,
        /// The pinned snapshot sequence number the read observed.
        snapshot: u64,
        /// Number of entries returned.
        items: u32,
    },
    /// Paxos Commit: a site timed out on a stalled transaction and became a
    /// takeover leader at the given ballot.
    PcTakeover {
        /// The stalled transaction.
        txn: u64,
        /// The site leading the takeover.
        site: u32,
        /// The takeover ballot.
        ballot: u64,
    },
}

/// Declares the text form of every [`TraceEvent`] once: the event's label,
/// then each field with the text written before its value (`key=`, plus an
/// `s` for a site id). The table generates [`TraceEvent::label`], the
/// `Display` that [`Trace::to_text`] writes and the parser behind
/// [`parse_trace_text`], so a writer and a reader cannot disagree. A variant
/// or field missing from the table fails the generated exhaustive `match`,
/// and a label used twice fails `#[deny(unreachable_patterns)]`.
macro_rules! trace_text {
    ($( $var:ident => $label:literal { $( $field:ident: $spec:literal ),* } ),* $(,)?) => {
        impl TraceEvent {
            /// A short stable label naming the event kind (used in summaries).
            pub fn label(&self) -> &'static str {
                match self { $( TraceEvent::$var { .. } => $label, )* }
            }

            /// Reads the event `label` names from its `key=value` fields.
            #[deny(unreachable_patterns)]
            fn parse(label: &str, fields: &[(&str, &str)]) -> Result<Self, String> {
                Ok(match label {
                    $( $label => TraceEvent::$var { $( $field: field(fields, $spec)? ),* }, )*
                    other => return Err(format!("unknown event label {other}")),
                })
            }
        }

        impl fmt::Display for TraceEvent {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self { $(
                    TraceEvent::$var { $($field),* } => {
                        f.write_str($label)?;
                        $( write!(f, concat!(" ", $spec, "{}"), $field)?; )*
                        Ok(())
                    }
                )* }
            }
        }
    };
}

trace_text! {
    TxnSubmitted => "txn_submitted" { req_id: "req=", coordinator: "coord=s" },
    TxnRetried => "txn_retried" { req_id: "req=", attempt: "attempt=" },
    AltSplit => "alt_split" { txn: "txn=", alternatives: "alts=" },
    Prepared => "prepared" { txn: "txn=", site: "site=s" },
    Decided => "decided" { txn: "txn=", completed: "completed=" },
    WaitTimedOut => "wait_timed_out" { txn: "txn=", site: "site=s" },
    PolyvalueInstalled => "polyvalue_installed" { txn: "txn=", site: "site=s", items: "items=" },
    OutcomeLearned => "outcome_learned" { txn: "txn=", site: "site=s", completed: "completed=" },
    OutcomeForwarded => "outcome_forwarded" { txn: "txn=", site: "site=s", to: "to=s" },
    PolyvalueCollapsed => "polyvalue_collapsed" { txn: "txn=", site: "site=s", lifetime_us: "lifetime_us=" },
    SnapshotRead => "snapshot_read" { site: "site=s", snapshot: "snapshot=", items: "items=" },
    PcTakeover => "pc_takeover" { txn: "txn=", site: "site=s", ballot: "ballot=" },
}

/// Reads the field a table `spec` (`key=` plus an optional prefix) names
/// from a line's `key=value` pairs. The prefix may be left out on read.
fn field<T: FromStr>(fields: &[(&str, &str)], spec: &str) -> Result<T, String> {
    let (key, prefix) = spec.split_once('=').expect("a table spec holds `=`");
    let found = fields.iter().find(|(k, _)| *k == key);
    let (_, raw) = found.ok_or_else(|| format!("missing field {key}"))?;
    let value = raw.strip_prefix(prefix).unwrap_or(raw);
    value.parse().map_err(|_| format!("field {key} has a bad value: {raw}"))
}

/// One recorded event with its position in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual (or wall, under a wall-clock host) time of the event.
    pub at: SimTime,
    /// The node whose callback emitted the event.
    pub node: NodeId,
    /// Global sequence number, dense from zero, in emission order.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Stable line format: sequence, microsecond timestamp, node, event.
        write!(f, "{:06} {:>10} {} {}", self.seq, self.at.0, self.node, self.event)
    }
}

/// The per-run event recorder.
///
/// Defaults to disabled (zero cost beyond constructing the event); enable
/// buffering with [`Trace::collecting`].
#[derive(Default)]
pub struct Trace {
    enabled: bool,
    seq: u64,
    records: Vec<TraceRecord>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.enabled)
            .field("seq", &self.seq)
            .field("records", &self.records.len())
            .finish()
    }
}

impl Trace {
    /// A disabled trace: events are dropped at the door.
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// A trace that buffers every record in memory.
    pub fn collecting() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// Whether records are currently being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op while disabled).
    pub fn record(&mut self, at: SimTime, node: NodeId, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.records.push(TraceRecord {
            at,
            node,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// All buffered records, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Counts buffered records matching `pred`.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.event)).count()
    }

    /// Serializes the buffered records to the stable line format — one
    /// record per line, `{seq} {time_us} {node} {event}`. Two same-seed
    /// simulation runs produce byte-identical output.
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for r in &self.records {
            writeln!(out, "{r}").expect("writing to String cannot fail");
        }
        out
    }
}

/// A failure reading the textual trace format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Reads back the stable line format [`Trace::to_text`] writes:
/// `{seq:06} {time_us} {node} {label} {key=value}...`. Blank lines and
/// lines starting with `#` are skipped.
pub fn parse_trace_text(text: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    text.lines()
        .map(str::trim)
        .enumerate()
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .map(|(idx, l)| parse_line(l).map_err(|message| TraceParseError { line: idx + 1, message }))
        .collect()
}

/// Reads one record line.
fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let mut parts = line.split_whitespace();
    let mut next = |what: &str| parts.next().ok_or_else(|| format!("missing {what}"));
    let seq = next("sequence number")?.parse().map_err(|_| "bad sequence number")?;
    let at = next("timestamp")?.parse().map_err(|_| "bad timestamp")?;
    let node = next("node")?.strip_prefix('n').and_then(|n| n.parse().ok());
    let node = node.ok_or("bad node (expected nN)")?;
    let label = next("event label")?;
    let fields: Vec<(&str, &str)> = parts.filter_map(|kv| kv.split_once('=')).collect();
    Ok(TraceRecord {
        at: SimTime(at),
        node: NodeId(node),
        seq,
        event: TraceEvent::parse(label, &fields)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev() -> TraceEvent {
        TraceEvent::PolyvalueInstalled {
            txn: 7,
            site: 2,
            items: 3,
        }
    }

    #[test]
    fn disabled_trace_drops_events() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, NodeId(0), ev());
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn collecting_trace_buffers_in_order() {
        let mut t = Trace::collecting();
        t.record(SimTime::from_millis(1), NodeId(0), ev());
        t.record(SimTime::from_millis(2), NodeId(1), ev());
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].seq, 0);
        assert_eq!(t.records()[1].seq, 1);
        assert_eq!(t.records()[1].node, NodeId(1));
    }

    #[test]
    fn text_format_is_stable() {
        let mut t = Trace::collecting();
        t.record(SimTime::from_millis(5), NodeId(3), ev());
        assert_eq!(
            t.to_text(),
            "000000       5000 n3 polyvalue_installed txn=7 site=s2 items=3\n"
        );
    }

    /// One line per event kind, spelled as `Trace::to_text` writes it.
    const GOLDEN: [(&str, TraceEvent); 12] = [
        ("txn_submitted req=4 coord=s1", TraceEvent::TxnSubmitted { req_id: 4, coordinator: 1 }),
        ("txn_retried req=4 attempt=2", TraceEvent::TxnRetried { req_id: 4, attempt: 2 }),
        ("alt_split txn=9 alts=3", TraceEvent::AltSplit { txn: 9, alternatives: 3 }),
        ("prepared txn=9 site=s2", TraceEvent::Prepared { txn: 9, site: 2 }),
        ("decided txn=9 completed=false", TraceEvent::Decided { txn: 9, completed: false }),
        ("wait_timed_out txn=9 site=s2", TraceEvent::WaitTimedOut { txn: 9, site: 2 }),
        (
            "polyvalue_installed txn=9 site=s2 items=5",
            TraceEvent::PolyvalueInstalled { txn: 9, site: 2, items: 5 },
        ),
        (
            "outcome_learned txn=9 site=s2 completed=true",
            TraceEvent::OutcomeLearned { txn: 9, site: 2, completed: true },
        ),
        (
            "outcome_forwarded txn=9 site=s2 to=s0",
            TraceEvent::OutcomeForwarded { txn: 9, site: 2, to: 0 },
        ),
        (
            "polyvalue_collapsed txn=9 site=s2 lifetime_us=1500",
            TraceEvent::PolyvalueCollapsed { txn: 9, site: 2, lifetime_us: 1500 },
        ),
        (
            "snapshot_read site=s1 snapshot=41 items=3",
            TraceEvent::SnapshotRead { site: 1, snapshot: 41, items: 3 },
        ),
        (
            "pc_takeover txn=9 site=s1 ballot=65537",
            TraceEvent::PcTakeover { txn: 9, site: 1, ballot: 65537 },
        ),
    ];

    #[test]
    fn every_event_text_is_pinned() {
        for (line, event) in GOLDEN {
            assert_eq!(event.to_string(), line);
            let parsed = parse_trace_text(&format!("000007 42 n1 {line}")).unwrap();
            assert_eq!(parsed[0].event, event, "{line}");
            assert_eq!((parsed[0].seq, parsed[0].at, parsed[0].node), (7, SimTime(42), NodeId(1)));
        }
    }

    #[test]
    fn site_prefix_is_optional_on_read() {
        let parsed = parse_trace_text("000000 0 n0 outcome_forwarded txn=9 site=2 to=0").unwrap();
        assert_eq!(parsed[0].event, TraceEvent::OutcomeForwarded { txn: 9, site: 2, to: 0 });
    }

    #[test]
    fn parser_reports_bad_lines() {
        assert!(parse_trace_text("garbage").is_err());
        assert!(parse_trace_text("000000 10 n0 unknown_event txn=1").is_err());
        assert!(parse_trace_text("000000 10 n0 decided txn=1").is_err()); // missing completed
        assert!(parse_trace_text("000000 10 n0 decided txn=1 completed=maybe").is_err());
        // Comments and blank lines are fine.
        let ok = "# a comment\n\n000000 10 n0 decided txn=1 completed=true\n";
        assert_eq!(parse_trace_text(ok).unwrap().len(), 1);
    }

    #[test]
    fn parse_error_display() {
        let e = parse_trace_text("oops").unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }

    #[test]
    fn count_filters_by_event() {
        let mut t = Trace::collecting();
        t.record(SimTime::ZERO, NodeId(0), ev());
        t.record(
            SimTime::ZERO,
            NodeId(0),
            TraceEvent::Decided {
                txn: 1,
                completed: true,
            },
        );
        assert_eq!(
            t.count(|e| matches!(e, TraceEvent::PolyvalueInstalled { .. })),
            1
        );
    }

    #[test]
    fn labels_are_snake_case() {
        assert_eq!(ev().label(), "polyvalue_installed");
        assert_eq!(
            TraceEvent::Decided {
                txn: 0,
                completed: false
            }
            .label(),
            "decided"
        );
    }
}
