//! Pass 3: protocol-trace conformance checking.
//!
//! Replays a recorded [`TraceEvent`] stream (from the observability layer)
//! and reports transitions the protocol can never legally make:
//!
//! * a site voting *prepared* after the coordinator already decided the
//!   transaction **complete** — the decision cannot have gathered that vote
//!   (`PV020`); a late prepare after an *abort* decision is a legal race
//!   (the participant had not yet heard the coordinator gave up on it);
//! * polyvalues installed without the wait-phase timeout that justifies
//!   them (`PV021`);
//! * polyvalues collapsing at a site that never learned the outcome they
//!   depend on (`PV022`);
//! * contradictory outcomes for one transaction across `decided` and
//!   `outcome_learned` events (`PV023`).
//!
//! The `PV021` legality is not hand-coded: the checker replays a shadow
//! [`PartPhase`] per (transaction, site) through the *same*
//! [`pv_protocol::transition`] table the engine's participant runs
//! (Figure 1 of the paper), and an install is legal exactly when that
//! machine took the wait-phase `Timeout` edge whose action is
//! `install polyvalues`. A coordinator decision deliberately does **not**
//! advance the shadow phase — a participant may legally time out after the
//! coordinator decided but before the decision reached it, and the table
//! consult must see the wait phase in that race.
//!
//! Traces are accepted either as in-memory [`TraceRecord`]s or as the
//! stable text format `Trace::to_text` emits, which
//! [`pv_simnet::parse_trace_text`] reads back.

use crate::diag::{Code, Report, Span};
use pv_protocol::{transition, PartAction, PartEvent, PartPhase};
use pv_simnet::{parse_trace_text, TraceEvent, TraceParseError, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};

/// Replays `records` and reports every protocol-invariant violation.
pub fn check_trace(records: &[TraceRecord]) -> Report {
    let mut report = Report::new();
    // Per-transaction protocol state accumulated over the replay.
    let mut committed: BTreeMap<u64, u64> = BTreeMap::new(); // txn -> seq of complete decision
    let mut outcomes: BTreeMap<u64, (bool, u64)> = BTreeMap::new(); // txn -> (outcome, seq)
    // Shadow Figure-1 machine per (txn, site); absent means idle.
    let mut phases: BTreeMap<(u64, u32), PartPhase> = BTreeMap::new();
    // (txn, site) pairs whose shadow machine took the timeout edge with the
    // install-polyvalues action — the table-derived licence for `PV021`.
    let mut may_install: BTreeSet<(u64, u32)> = BTreeSet::new();
    let mut learned: BTreeSet<(u64, u32)> = BTreeSet::new(); // (txn, site)
    let mut last_seq: Option<u64> = None;

    for r in records {
        if let Some(prev) = last_seq {
            if r.seq <= prev {
                report.push(
                    Code::NonMonotonicSeq,
                    Span::Trace(r.seq),
                    format!("sequence number {} follows {prev}", r.seq),
                );
            }
        }
        last_seq = Some(r.seq);

        match r.event {
            TraceEvent::Prepared { txn, site } => {
                if let Some(&decided_seq) = committed.get(&txn) {
                    report.push(
                        Code::DecideBeforePrepare,
                        Span::Trace(r.seq),
                        format!(
                            "site s{site} prepared txn {txn} after it was decided complete \
                             at seq {decided_seq}"
                        ),
                    );
                }
                // Drive the shadow machine the way the engine's participant
                // does on a Prepare: staging is instantaneous, so begin and
                // compute-done fire back-to-back and the part lands in the
                // wait phase. (A trace replaying a crash may show Prepared
                // again for a re-staged transaction; re-basing from idle is
                // exactly what the recovered participant does too.)
                let phase = transition(PartPhase::Idle, PartEvent::Begin)
                    .map(|(p, _)| p)
                    .and_then(|p| transition(p, PartEvent::ComputeDone))
                    .map(|(p, _)| p)
                    .expect("Figure 1 defines begin/compute-done from idle");
                phases.insert((txn, site), phase);
            }
            TraceEvent::Decided { txn, completed } => {
                if completed {
                    committed.entry(txn).or_insert(r.seq);
                }
                record_outcome(&mut report, &mut outcomes, txn, completed, r.seq, "decided");
            }
            TraceEvent::WaitTimedOut { txn, site } => {
                // Consult the Figure-1 table: from the shadow phase, does a
                // timeout produce the install-polyvalues action? Only then is
                // a later install at this (txn, site) licensed.
                let phase = phases.get(&(txn, site)).copied().unwrap_or(PartPhase::Idle);
                if let Some((next, action)) = transition(phase, PartEvent::Timeout) {
                    if action == PartAction::InstallPolyvalues {
                        may_install.insert((txn, site));
                    }
                    phases.insert((txn, site), next);
                }
            }
            TraceEvent::PolyvalueInstalled { txn, site, .. } => {
                if !may_install.contains(&(txn, site)) {
                    report.push(
                        Code::InstallWithoutTimeout,
                        Span::Trace(r.seq),
                        format!(
                            "site s{site} installed polyvalues for txn {txn} without a \
                             wait-phase timeout"
                        ),
                    );
                }
            }
            TraceEvent::OutcomeLearned {
                txn,
                site,
                completed,
            } => {
                learned.insert((txn, site));
                record_outcome(
                    &mut report,
                    &mut outcomes,
                    txn,
                    completed,
                    r.seq,
                    "outcome_learned",
                );
            }
            TraceEvent::PolyvalueCollapsed { txn, site, .. } => {
                if !learned.contains(&(txn, site)) {
                    report.push(
                        Code::CollapseBeforeOutcome,
                        Span::Trace(r.seq),
                        format!(
                            "polyvalues for txn {txn} collapsed at site s{site} before the \
                             site learned the outcome"
                        ),
                    );
                }
            }
            // A Paxos Commit takeover is replay-neutral on its own: any
            // number of sites may contend for the verdict at any time. What
            // must hold — every Decided/OutcomeLearned the contest produces
            // agrees — is already enforced by the PV023 outcome rules, and
            // PV020 still applies to the votes (`prepared` events) a commit
            // verdict rests on.
            // A snapshot read never takes locks or messages other sites, so
            // it cannot create protocol obligations: replay-neutral.
            TraceEvent::TxnSubmitted { .. }
            | TraceEvent::TxnRetried { .. }
            | TraceEvent::AltSplit { .. }
            | TraceEvent::OutcomeForwarded { .. }
            | TraceEvent::SnapshotRead { .. }
            | TraceEvent::PcTakeover { .. } => {}
        }
    }
    report
}

/// Records one observed outcome for `txn`, reporting `PV023` when it
/// contradicts an earlier observation.
fn record_outcome(
    report: &mut Report,
    outcomes: &mut BTreeMap<u64, (bool, u64)>,
    txn: u64,
    completed: bool,
    seq: u64,
    what: &str,
) {
    match outcomes.get(&txn) {
        Some(&(prev, prev_seq)) if prev != completed => {
            report.push(
                Code::OutcomeMismatch,
                Span::Trace(seq),
                format!(
                    "{what} reports txn {txn} {} but seq {prev_seq} recorded {}",
                    outcome_name(completed),
                    outcome_name(prev)
                ),
            );
        }
        Some(_) => {}
        None => {
            outcomes.insert(txn, (completed, seq));
        }
    }
}

fn outcome_name(completed: bool) -> &'static str {
    if completed {
        "complete"
    } else {
        "abort"
    }
}

/// Parses the textual trace format and checks it in one step.
pub fn check_trace_text(text: &str) -> Result<Report, TraceParseError> {
    Ok(check_trace(&parse_trace_text(text)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_simnet::{NodeId, SimTime};

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime(seq * 100),
            node: NodeId(0),
            seq,
            event,
        }
    }

    fn healthy_records() -> Vec<TraceRecord> {
        vec![
            rec(0, TraceEvent::TxnSubmitted { req_id: 1, coordinator: 0 }),
            rec(1, TraceEvent::Prepared { txn: 7, site: 1 }),
            rec(2, TraceEvent::WaitTimedOut { txn: 7, site: 1 }),
            rec(3, TraceEvent::PolyvalueInstalled { txn: 7, site: 1, items: 2 }),
            rec(4, TraceEvent::Decided { txn: 7, completed: true }),
            rec(5, TraceEvent::OutcomeLearned { txn: 7, site: 1, completed: true }),
            rec(
                6,
                TraceEvent::PolyvalueCollapsed { txn: 7, site: 1, lifetime_us: 400 },
            ),
            rec(7, TraceEvent::OutcomeForwarded { txn: 7, site: 1, to: 2 }),
        ]
    }

    #[test]
    fn healthy_trace_is_clean() {
        let report = check_trace(&healthy_records());
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn decide_before_prepare_flagged() {
        let records = vec![
            rec(0, TraceEvent::Decided { txn: 7, completed: true }),
            rec(1, TraceEvent::Prepared { txn: 7, site: 1 }),
        ];
        let report = check_trace(&records);
        assert!(report.has_code(Code::DecideBeforePrepare));
    }

    #[test]
    fn late_prepare_after_abort_is_legal() {
        // The coordinator gave up (abort) while the prepare was in flight:
        // a legal race, not a violation.
        let records = vec![
            rec(0, TraceEvent::Decided { txn: 7, completed: false }),
            rec(1, TraceEvent::Prepared { txn: 7, site: 1 }),
        ];
        assert!(check_trace(&records).is_clean());
    }

    #[test]
    fn install_without_timeout_flagged() {
        let records = vec![rec(
            0,
            TraceEvent::PolyvalueInstalled { txn: 7, site: 1, items: 2 },
        )];
        let report = check_trace(&records);
        assert!(report.has_code(Code::InstallWithoutTimeout));
        // A timeout at a *different* site does not justify the install.
        let records = vec![
            rec(0, TraceEvent::WaitTimedOut { txn: 7, site: 2 }),
            rec(1, TraceEvent::PolyvalueInstalled { txn: 7, site: 1, items: 2 }),
        ];
        assert!(check_trace(&records).has_code(Code::InstallWithoutTimeout));
    }

    #[test]
    fn timeout_without_prepare_does_not_license_install() {
        // The legality comes from the Figure-1 table: with no Prepared the
        // shadow machine is idle, idle has no timeout edge, so the timeout
        // licenses nothing and the install is still a violation.
        let records = vec![
            rec(0, TraceEvent::WaitTimedOut { txn: 7, site: 1 }),
            rec(1, TraceEvent::PolyvalueInstalled { txn: 7, site: 1, items: 2 }),
        ];
        assert!(check_trace(&records).has_code(Code::InstallWithoutTimeout));
    }

    #[test]
    fn decided_then_timeout_install_is_legal() {
        // The decision was in flight when the wait phase timed out: the
        // shadow machine must still be in `wait` (a Decided event does not
        // advance it), so the table licenses the install.
        let records = vec![
            rec(0, TraceEvent::Prepared { txn: 7, site: 1 }),
            rec(1, TraceEvent::Decided { txn: 7, completed: true }),
            rec(2, TraceEvent::WaitTimedOut { txn: 7, site: 1 }),
            rec(3, TraceEvent::PolyvalueInstalled { txn: 7, site: 1, items: 2 }),
        ];
        assert!(check_trace(&records).is_clean());
    }

    #[test]
    fn collapse_before_outcome_flagged() {
        let records = vec![rec(
            0,
            TraceEvent::PolyvalueCollapsed { txn: 7, site: 1, lifetime_us: 10 },
        )];
        let report = check_trace(&records);
        assert!(report.has_code(Code::CollapseBeforeOutcome));
    }

    #[test]
    fn paxos_takeover_trace_is_clean() {
        // Paxos Commit run: both sites prepare (vote), site 1 times out and
        // takes over, the takeover decides complete, everyone learns it. No
        // polyvalues are ever involved.
        let records = vec![
            rec(0, TraceEvent::TxnSubmitted { req_id: 1, coordinator: 0 }),
            rec(1, TraceEvent::Prepared { txn: 7, site: 0 }),
            rec(2, TraceEvent::Prepared { txn: 7, site: 1 }),
            rec(3, TraceEvent::WaitTimedOut { txn: 7, site: 1 }),
            rec(4, TraceEvent::PcTakeover { txn: 7, site: 1, ballot: (1 << 16) | 1 }),
            rec(5, TraceEvent::Decided { txn: 7, completed: true }),
            rec(6, TraceEvent::OutcomeLearned { txn: 7, site: 0, completed: true }),
            rec(7, TraceEvent::OutcomeLearned { txn: 7, site: 1, completed: true }),
        ];
        let report = check_trace(&records);
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn paxos_takeover_conflicting_verdicts_flagged() {
        // Two contenders claiming different outcomes is exactly the split
        // brain PV023 exists for; a takeover event does not excuse it.
        let records = vec![
            rec(0, TraceEvent::PcTakeover { txn: 7, site: 1, ballot: (1 << 16) | 1 }),
            rec(1, TraceEvent::Decided { txn: 7, completed: true }),
            rec(2, TraceEvent::PcTakeover { txn: 7, site: 2, ballot: (1 << 16) | 2 }),
            rec(3, TraceEvent::Decided { txn: 7, completed: false }),
        ];
        assert!(check_trace(&records).has_code(Code::OutcomeMismatch));
    }

    #[test]
    fn pc_takeover_text_round_trip() {
        let text = "000000 10 n1 pc_takeover txn=7 site=s1 ballot=65537\n";
        assert!(check_trace_text(text).unwrap().is_clean());
    }

    #[test]
    fn snapshot_read_text_round_trip() {
        let text = "000000 10 n2 snapshot_read site=s2 snapshot=41 items=3\n";
        // Reads are replay-neutral: a bare snapshot read is a clean trace.
        assert!(check_trace_text(text).unwrap().is_clean());
    }

    #[test]
    fn outcome_mismatch_flagged() {
        let records = vec![
            rec(0, TraceEvent::Decided { txn: 7, completed: true }),
            rec(1, TraceEvent::OutcomeLearned { txn: 7, site: 1, completed: false }),
        ];
        let report = check_trace(&records);
        assert!(report.has_code(Code::OutcomeMismatch));
    }

    #[test]
    fn non_monotonic_seq_noted() {
        let records = vec![
            rec(5, TraceEvent::TxnSubmitted { req_id: 1, coordinator: 0 }),
            rec(5, TraceEvent::TxnSubmitted { req_id: 2, coordinator: 0 }),
        ];
        let report = check_trace(&records);
        assert!(report.has_code(Code::NonMonotonicSeq));
        assert!(!report.has_errors());
    }

    #[test]
    fn text_round_trip() {
        use pv_simnet::Trace;
        let mut t = Trace::collecting();
        for r in healthy_records() {
            t.record(r.at, r.node, r.event);
        }
        assert!(check_trace_text(&t.to_text()).unwrap().is_clean());
    }
}
