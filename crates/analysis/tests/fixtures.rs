//! Fixture corpus: one clean and one doctored file per rule.
//!
//! Each doctored fixture marks its violating line with a trailing `//~`
//! comment; the test asserts the auditor reports exactly that rule on
//! exactly that line, and that the clean twin produces no findings at all.
//! Fixtures live under `tests/fixtures/` — a directory the workspace
//! sweep deliberately skips — so they document each rule without ever
//! tripping the real audit gate.

use memsim_analysis::check::check_ws;
use memsim_analysis::check_source;
use memsim_analysis::graph::Workspace;
use std::collections::BTreeSet;

/// The repo-relative path a fixture is audited *as*, per rule:
/// obs-counter-reconcile scans only crates/obs, every other rule is happy
/// with a plain simulation-crate path.
fn rel_for(rule: &str) -> &'static str {
    match rule {
        "obs-counter-reconcile" => "crates/obs/src/fixture.rs",
        _ => "crates/sim/src/fixture.rs",
    }
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Line number (1-based) of the `//~` marker, if the fixture has one.
fn marker_line(src: &str) -> Option<u32> {
    src.lines()
        .position(|l| l.contains("//~"))
        .map(|i| (i + 1) as u32)
}

const RULES: &[&str] = &[
    "det-unordered-iter",
    "hot-panic",
    "hot-alloc",
    "hot-callee",
    "hot-transitive",
    "unit-mismatch",
    "obs-counter-reconcile",
    "audit-syntax",
];

#[test]
fn clean_fixtures_produce_no_findings() {
    for rule in RULES {
        let src = fixture(&format!("{rule}.clean.rs"));
        let (findings, _) = check_source(rel_for(rule), &src);
        assert!(
            findings.is_empty(),
            "{rule}.clean.rs should be clean, got: {findings:?}"
        );
    }
}

#[test]
fn doctored_fixtures_trip_their_rule_at_the_marked_line() {
    for rule in RULES {
        let src = fixture(&format!("{rule}.doctored.rs"));
        let (findings, _) = check_source(rel_for(rule), &src);
        assert!(!findings.is_empty(), "{rule}.doctored.rs produced no findings");
        assert!(
            findings.iter().all(|f| f.rule == *rule),
            "{rule}.doctored.rs tripped other rules too: {findings:?}"
        );
        let expected = marker_line(&src).unwrap_or_else(|| {
            panic!("{rule}.doctored.rs must mark its violating line with `//~`")
        });
        assert!(
            findings.iter().any(|f| f.line == expected),
            "{rule}.doctored.rs: expected a finding on line {expected}, got {findings:?}"
        );
    }
}

/// Loads the multi-file call-graph corpus (`clean` or `doctored`) as a
/// workspace of sim-crate files, returning it with each file's `//~`
/// marker line (if any) keyed by repo-relative path.
fn graph_corpus(kind: &str) -> (Workspace, Vec<(String, u32)>) {
    let names = ["iface.rs", "ctrl.rs", "tuner.rs"];
    let mut sources = Vec::new();
    let mut markers = Vec::new();
    for name in names {
        let src = fixture(&format!("graph/{kind}/{name}"));
        let rel = format!("crates/sim/src/{name}");
        if let Some(line) = marker_line(&src) {
            markers.push((rel.clone(), line));
        }
        sources.push((rel, src));
    }
    (Workspace::from_sources(sources), markers)
}

#[test]
fn graph_corpus_clean_resolves_cross_file_and_cycles_quietly() {
    let (ws, markers) = graph_corpus("clean");
    assert!(markers.is_empty(), "clean corpus must not carry markers");
    let report = check_ws(&ws, &BTreeSet::new());
    assert!(report.clean(), "clean graph corpus flagged: {:?}", report.findings);
    // The corpus resolves cross-file free calls, a trait fan-out, and a
    // cross-file cycle — the walk must see real edges, not an empty graph.
    assert!(report.call_edges >= 5, "suspiciously few edges: {}", report.call_edges);
    assert_eq!(report.hot_fns, 5);
}

#[test]
fn graph_corpus_doctored_flags_exactly_the_cross_file_escapes() {
    let (ws, markers) = graph_corpus("doctored");
    let report = check_ws(&ws, &BTreeSet::new());
    assert!(
        report.findings.iter().all(|f| f.rule == "hot-transitive"),
        "doctored graph corpus tripped other rules: {:?}",
        report.findings
    );
    let got: BTreeSet<(String, u32)> =
        report.findings.iter().map(|f| (f.path.clone(), f.line)).collect();
    let want: BTreeSet<(String, u32)> = markers.into_iter().collect();
    assert_eq!(want.len(), 2, "corpus should mark one escape per file");
    assert_eq!(got, want, "findings must match the `//~` markers exactly");
    // `drift` is pulled onto the hot path only by the tuner file; the
    // report must name that cross-file route.
    let drift = report.findings.iter().find(|f| f.msg.contains("`drift`")).expect("drift finding");
    assert!(
        drift.msg.contains("crates/sim/src/tuner.rs"),
        "expected the via-file in: {}",
        drift.msg
    );
}

#[test]
fn audited_exception_grammar_round_trips() {
    // The audit-syntax clean fixture uses a real allow directive: the
    // suppressed rule must surface as an audited exception, not a finding.
    let src = fixture("audit-syntax.clean.rs");
    let (findings, st) = check_source(rel_for("audit-syntax"), &src);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(st.allows.len(), 1);
    assert_eq!(st.allows[0].rule, "det-unordered-iter");
    assert!(st.allows[0].reason.contains("iteration order"));
}
