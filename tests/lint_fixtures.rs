//! Conformance checks over the committed trace fixtures in `results/`
//! (regenerate with `cargo run --bin gen-trace-fixture`).

use polyvalues::analysis::{check_trace_text, Code};
use polyvalues::simnet::parse_trace_text;

fn fixture(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn healthy_fixture_parses_and_is_clean() {
    let text = fixture("trace_in_doubt.txt");
    let records = parse_trace_text(&text).expect("fixture parses");
    assert!(!records.is_empty());
    // The fixture exercises the full polyvalue path: install and collapse
    // are both present, so the checker's site-pairing logic actually runs.
    assert!(text.contains("polyvalue_installed"));
    assert!(text.contains("polyvalue_collapsed"));
    let report = check_trace_text(&text).unwrap();
    assert!(report.is_clean(), "unexpected findings:\n{report}");
}

#[test]
fn paxos_commit_fixture_parses_and_is_clean() {
    let text = fixture("trace_paxos_commit.txt");
    let records = parse_trace_text(&text).expect("fixture parses");
    assert!(!records.is_empty());
    // The fixture exercises the non-blocking path: the stranded participant
    // takes over the verdict instance instead of installing polyvalues, and
    // learns the outcome from the acceptors after the heal.
    assert!(text.contains("pc_takeover"));
    assert!(text.contains("outcome_learned"));
    assert!(!text.contains("polyvalue_installed"));
    let report = check_trace_text(&text).unwrap();
    assert!(report.is_clean(), "unexpected findings:\n{report}");
}

#[test]
fn corrupted_fixture_is_flagged_as_decide_before_prepare() {
    let report = check_trace_text(&fixture("trace_decide_before_prepare.txt")).unwrap();
    assert!(report.has_code(Code::DecideBeforePrepare));
    assert!(report.has_errors());
}
