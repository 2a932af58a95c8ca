//! End-to-end tests of the `audit_tool` binary: the shared exit-code
//! contract (0 clean / 1 findings / 2 usage — see
//! [`memsim_analysis::exitcode`]), the stability of `list-rules`, the
//! JSON report format, and the baseline ratchet.

use memsim_analysis::rules;
use memsim_types::json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn audit_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_audit_tool"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawning audit_tool")
}

fn fixture(name: &str) -> String {
    format!("tests/fixtures/{name}")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn exit_codes_follow_the_shared_convention() {
    // 0: the check ran and found nothing.
    let clean = audit_tool(&["check", &fixture("hot-panic.clean.rs")]);
    assert_eq!(clean.status.code(), Some(0), "clean fixture: {clean:?}");

    // 1: the check ran and found real problems.
    let dirty = audit_tool(&["check", &fixture("hot-panic.doctored.rs")]);
    assert_eq!(dirty.status.code(), Some(1), "doctored fixture: {dirty:?}");
    assert!(
        String::from_utf8_lossy(&dirty.stdout).contains("hot-panic"),
        "findings go to stdout"
    );

    // 2: the check never ran — bad flag, unknown rule, unreadable input.
    assert_eq!(audit_tool(&["check", "--bogus"]).status.code(), Some(2));
    assert_eq!(audit_tool(&["explain", "no-such-rule"]).status.code(), Some(2));
    assert_eq!(audit_tool(&["check", "no/such/file.rs"]).status.code(), Some(2));
    assert_eq!(audit_tool(&[]).status.code(), Some(2));
}

#[test]
fn list_rules_is_sorted_stable_and_complete() {
    let out = audit_tool(&["list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    let ids: Vec<&str> =
        text.lines().map(|l| l.split_whitespace().next().unwrap()).collect();
    assert_eq!(ids.len(), rules::RULES.len(), "one line per catalog rule");
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "list-rules must be sorted by id");
    for r in rules::RULES {
        assert!(ids.contains(&r.id), "missing rule `{}`", r.id);
    }
    // Stable: byte-identical across runs.
    assert_eq!(audit_tool(&["list-rules"]).stdout, text.as_bytes());
}

#[test]
fn every_listed_rule_explains_successfully() {
    for r in rules::RULES {
        let out = audit_tool(&["explain", r.id]);
        assert_eq!(out.status.code(), Some(0), "explain {}", r.id);
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.starts_with(r.id), "explain {} header", r.id);
        assert!(text.len() > 100, "explain {} should tell the long story", r.id);
    }
}

#[test]
fn json_report_is_parseable_and_versioned() {
    let out = audit_tool(&["check", "--format", "json", &fixture("hot-panic.doctored.rs")]);
    assert_eq!(out.status.code(), Some(1));
    let doc = json::parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(doc.get("files").and_then(|v| v.as_u64()), Some(1));
    let findings = doc.get("findings").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("rule").and_then(|v| v.as_str()),
        Some("hot-panic")
    );
    assert!(findings[0].get("line").and_then(|v| v.as_u64()).is_some());
}

#[test]
fn baseline_ratchet_tolerates_known_debt_and_rejects_drift() {
    // hot-panic applies under any path (unlike the crate-scoped unit
    // rules, which ignore a `tests/fixtures/...` rel).
    let doctored = fixture("hot-panic.doctored.rs");
    let clean = fixture("hot-panic.clean.rs");

    // Capture today's debt as the baseline.
    let snap = audit_tool(&["check", "--format", "json", &doctored]);
    assert_eq!(snap.status.code(), Some(1));
    let baseline = tmp("cli_baseline.json");
    std::fs::write(&baseline, &snap.stdout).unwrap();
    let bl = baseline.to_str().unwrap();

    // Same findings + baseline → tolerated, exit 0.
    let ok = audit_tool(&["check", "--baseline", bl, &doctored]);
    assert_eq!(ok.status.code(), Some(0), "baselined debt must pass: {ok:?}");

    // A clean tree against that baseline → stale entries, exit 1: fixed
    // debt must be deleted so the ratchet only moves down.
    let stale = audit_tool(&["check", "--baseline", bl, &clean]);
    assert_eq!(stale.status.code(), Some(1), "stale baseline must fail: {stale:?}");
    assert!(String::from_utf8_lossy(&stale.stderr).contains("stale"));

    // New findings not in an empty baseline → exit 1.
    let empty = tmp("cli_baseline_empty.json");
    std::fs::write(&empty, "{\"findings\": []}\n").unwrap();
    let new = audit_tool(&["check", "--baseline", empty.to_str().unwrap(), &doctored]);
    assert_eq!(new.status.code(), Some(1), "new findings must fail: {new:?}");

    // Unreadable or malformed baseline → usage error, exit 2.
    let missing = audit_tool(&["check", "--baseline", "no/such/baseline.json", &doctored]);
    assert_eq!(missing.status.code(), Some(2));
    let garbled = tmp("cli_baseline_garbled.json");
    std::fs::write(&garbled, "not json").unwrap();
    let bad = audit_tool(&["check", "--baseline", garbled.to_str().unwrap(), &doctored]);
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn committed_baseline_matches_the_workspace() {
    // The committed ratchet file must stay in sync with the tree: running
    // the audit against it from the repo root must pass. (This is the same
    // gate scripts/verify.sh enforces.)
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_audit_tool"))
        .args(["check", "--baseline", "results/audit_baseline.json"])
        .current_dir(&root)
        .output()
        .expect("spawning audit_tool");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace audit vs committed baseline failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
