//! End-to-end tests of the `audit_tool` binary: the shared exit-code
//! contract (0 clean / 1 findings / 2 usage — see
//! [`memsim_analysis::exitcode`]), the stability of `list-rules`, and the
//! zero-findings gate on the workspace itself.

use memsim_analysis::rules;
use std::path::Path;
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
fn workspace_audit_has_zero_findings() {
    // The same gate scripts/verify.sh enforces: `audit_tool check` at the
    // repo root exits 0 only when no rule fires anywhere in the workspace.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_audit_tool"))
        .arg("check")
        .current_dir(&root)
        .output()
        .expect("spawning audit_tool");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace audit found problems:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
