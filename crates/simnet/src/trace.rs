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

impl TraceEvent {
    /// A short stable label naming the event kind (used in summaries).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::TxnSubmitted { .. } => "txn_submitted",
            TraceEvent::TxnRetried { .. } => "txn_retried",
            TraceEvent::AltSplit { .. } => "alt_split",
            TraceEvent::Prepared { .. } => "prepared",
            TraceEvent::Decided { .. } => "decided",
            TraceEvent::WaitTimedOut { .. } => "wait_timed_out",
            TraceEvent::PolyvalueInstalled { .. } => "polyvalue_installed",
            TraceEvent::OutcomeLearned { .. } => "outcome_learned",
            TraceEvent::OutcomeForwarded { .. } => "outcome_forwarded",
            TraceEvent::PolyvalueCollapsed { .. } => "polyvalue_collapsed",
            TraceEvent::SnapshotRead { .. } => "snapshot_read",
            TraceEvent::PcTakeover { .. } => "pc_takeover",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::TxnSubmitted { req_id, coordinator } => {
                write!(f, "txn_submitted req={req_id} coord=s{coordinator}")
            }
            TraceEvent::TxnRetried { req_id, attempt } => {
                write!(f, "txn_retried req={req_id} attempt={attempt}")
            }
            TraceEvent::AltSplit { txn, alternatives } => {
                write!(f, "alt_split txn={txn} alts={alternatives}")
            }
            TraceEvent::Prepared { txn, site } => {
                write!(f, "prepared txn={txn} site=s{site}")
            }
            TraceEvent::Decided { txn, completed } => {
                write!(f, "decided txn={txn} completed={completed}")
            }
            TraceEvent::WaitTimedOut { txn, site } => {
                write!(f, "wait_timed_out txn={txn} site=s{site}")
            }
            TraceEvent::PolyvalueInstalled { txn, site, items } => {
                write!(f, "polyvalue_installed txn={txn} site=s{site} items={items}")
            }
            TraceEvent::OutcomeLearned { txn, site, completed } => {
                write!(f, "outcome_learned txn={txn} site=s{site} completed={completed}")
            }
            TraceEvent::OutcomeForwarded { txn, site, to } => {
                write!(f, "outcome_forwarded txn={txn} site=s{site} to=s{to}")
            }
            TraceEvent::PolyvalueCollapsed { txn, site, lifetime_us } => {
                write!(
                    f,
                    "polyvalue_collapsed txn={txn} site=s{site} lifetime_us={lifetime_us}"
                )
            }
            TraceEvent::SnapshotRead { site, snapshot, items } => {
                write!(f, "snapshot_read site=s{site} snapshot={snapshot} items={items}")
            }
            TraceEvent::PcTakeover { txn, site, ballot } => {
                write!(f, "pc_takeover txn={txn} site=s{site} ballot={ballot}")
            }
        }
    }
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

/// A consumer of trace records, attached with [`Trace::with_sink`].
///
/// Sinks observe records as they are emitted (streaming); the `Trace` also
/// buffers records for post-run inspection unless buffering is disabled.
/// Any `FnMut(&TraceRecord)` is a sink.
pub trait TraceSink {
    /// Called once per emitted record, in emission order.
    fn record(&mut self, record: &TraceRecord);
}

impl<F: FnMut(&TraceRecord)> TraceSink for F {
    fn record(&mut self, record: &TraceRecord) {
        self(record)
    }
}

/// The per-run event recorder.
///
/// Defaults to disabled (zero cost beyond constructing the event); enable
/// buffering with [`Trace::collecting`] or attach a streaming sink with
/// [`Trace::with_sink`].
#[derive(Default)]
pub struct Trace {
    enabled: bool,
    seq: u64,
    records: Vec<TraceRecord>,
    sink: Option<Box<dyn TraceSink + Send>>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.enabled)
            .field("seq", &self.seq)
            .field("records", &self.records.len())
            .field("sink", &self.sink.is_some())
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

    /// A collecting trace that additionally streams records to `sink`.
    pub fn with_sink(sink: impl TraceSink + Send + 'static) -> Self {
        Trace {
            enabled: true,
            sink: Some(Box::new(sink)),
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
        let record = TraceRecord {
            at,
            node,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if let Some(sink) = &mut self.sink {
            sink.record(&record);
        }
        self.records.push(record);
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
    fn sink_sees_every_record() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
        let seen2 = Arc::clone(&seen);
        let mut t = Trace::with_sink(move |r: &TraceRecord| {
            seen2.lock().expect("not poisoned").push(r.seq);
        });
        t.record(SimTime::ZERO, NodeId(0), ev());
        t.record(SimTime::ZERO, NodeId(0), ev());
        assert_eq!(*seen.lock().expect("not poisoned"), vec![0, 1]);
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
