//! Workspace determinism & hot-path auditor.
//!
//! ```text
//! audit_tool check [--root DIR] [--format text|json] [--baseline FILE] [FILE…]
//! audit_tool list-rules                   # one line per rule, sorted by id
//! audit_tool explain <rule>               # the long story behind one rule
//! ```
//!
//! `--format json` prints the versioned machine-readable report (see
//! [`AuditReport::to_json`]) to stdout instead of the text findings.
//!
//! `--baseline FILE` turns the audit into a **ratchet** against a committed
//! JSON report (normally `results/audit_baseline.json`): findings already in
//! the baseline are tolerated, findings not in the baseline fail, and
//! baseline entries that no longer reproduce fail too — fixed debt must be
//! deleted from the baseline so the bar only moves down. Baseline entries
//! are matched on (rule, path, msg) so line drift from unrelated edits does
//! not churn the file.
//!
//! Exit codes follow the shared convention in
//! [`memsim_analysis::exitcode`]: 0 clean, 1 findings, 2 usage/IO error.

use memsim_analysis::check::{check_files, check_workspace, AuditReport};
use memsim_analysis::{exitcode, rules};
use memsim_types::json;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: audit_tool check [--root DIR] [--format text|json] [--baseline FILE] [FILE...]\n       audit_tool list-rules\n       audit_tool explain <rule>"
    );
    std::process::exit(exitcode::USAGE);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("list-rules") => {
            let mut catalog: Vec<_> = rules::RULES.iter().collect();
            catalog.sort_by_key(|r| r.id);
            for r in catalog {
                println!("{:<22} {}", r.id, r.summary);
            }
            exitcode::OK
        }
        Some("explain") => match args.get(1).and_then(|id| rules::rule(id)) {
            Some(r) => {
                println!("{} — {}\n\n{}", r.id, r.summary, r.explain);
                exitcode::OK
            }
            None => {
                eprintln!(
                    "error: unknown rule `{}` (see `audit_tool list-rules`)",
                    args.get(1).map(String::as_str).unwrap_or("")
                );
                exitcode::USAGE
            }
        },
        _ => usage(),
    };
    std::process::exit(code);
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn cmd_check(args: &[String]) -> i32 {
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut format = Format::Text;
    let mut baseline: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                let Some(dir) = args.get(i + 1) else { usage() };
                root = PathBuf::from(dir);
                i += 2;
            }
            "--format" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("text") => format = Format::Text,
                    Some("json") => format = Format::Json,
                    _ => usage(),
                }
                i += 2;
            }
            "--baseline" => {
                let Some(path) = args.get(i + 1) else { usage() };
                baseline = Some(PathBuf::from(path));
                i += 2;
            }
            flag if flag.starts_with('-') => usage(),
            file => {
                files.push(PathBuf::from(file));
                i += 1;
            }
        }
    }
    let report = if files.is_empty() { check_workspace(&root) } else { check_files(&root, &files) };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return exitcode::USAGE;
        }
    };
    let ratchet = match baseline {
        Some(path) => match apply_baseline(&report, &path) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("error: baseline {}: {e}", path.display());
                return exitcode::USAGE;
            }
        },
        None => None,
    };
    render(&report, format, ratchet)
}

/// Outcome of comparing the report against a committed baseline.
struct Ratchet {
    /// Findings not present in the baseline — regressions.
    new: Vec<usize>,
    /// Baseline keys that no longer reproduce — must be deleted.
    stale: Vec<String>,
    /// Findings tolerated because the baseline lists them.
    tolerated: usize,
}

/// Stable identity of a finding for baseline matching. Line numbers are
/// excluded on purpose: unrelated edits move lines, and a baseline that
/// churns on every edit stops being reviewed.
fn finding_key(rule: &str, path: &str, msg: &str) -> String {
    format!("{rule}\x1f{path}\x1f{msg}")
}

fn apply_baseline(report: &AuditReport, path: &std::path::Path) -> Result<Ratchet, String> {
    let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&src)?;
    let entries = doc
        .get("findings")
        .and_then(|f| f.as_arr())
        .ok_or("missing `findings` array")?;
    let mut allowed = BTreeSet::new();
    for e in entries {
        let key = finding_key(
            e.get("rule").and_then(|v| v.as_str()).ok_or("finding missing `rule`")?,
            e.get("path").and_then(|v| v.as_str()).ok_or("finding missing `path`")?,
            e.get("msg").and_then(|v| v.as_str()).ok_or("finding missing `msg`")?,
        );
        allowed.insert(key);
    }
    let mut seen = BTreeSet::new();
    let mut new = Vec::new();
    let mut tolerated = 0;
    for (i, f) in report.findings.iter().enumerate() {
        let key = finding_key(f.rule, &f.path, &f.msg);
        if allowed.contains(&key) {
            tolerated += 1;
            seen.insert(key);
        } else {
            new.push(i);
        }
    }
    let stale = allowed
        .into_iter()
        .filter(|k| !seen.contains(k))
        .map(|k| k.replace('\x1f', " / "))
        .collect();
    Ok(Ratchet { new, stale, tolerated })
}

fn render(report: &AuditReport, format: Format, ratchet: Option<Ratchet>) -> i32 {
    if format == Format::Json {
        print!("{}", report.to_json());
    } else {
        match &ratchet {
            // Under a ratchet, only regressions are actionable output.
            Some(r) => {
                for &i in &r.new {
                    println!("{}", report.findings[i]);
                }
            }
            None => {
                for f in &report.findings {
                    println!("{f}");
                }
            }
        }
    }
    let failed = match &ratchet {
        Some(r) => !r.new.is_empty() || !r.stale.is_empty(),
        None => !report.clean(),
    };
    let verdict = if failed { "FAIL" } else { "clean" };
    eprintln!(
        "audit: {} — {} file(s), {} finding(s), {} hot-path fn(s) audited, {} unit annotation(s), {} call edge(s), {} audited exception(s)",
        verdict,
        report.files,
        report.findings.len(),
        report.hot_fns,
        report.unit_annotations,
        report.call_edges,
        report.exceptions.len(),
    );
    if let Some(r) = &ratchet {
        eprintln!(
            "baseline: {} new finding(s), {} stale entr(ies), {} tolerated",
            r.new.len(),
            r.stale.len(),
            r.tolerated
        );
        for s in &r.stale {
            eprintln!("  stale (fixed — delete from baseline): {s}");
        }
    }
    if !report.exceptions.is_empty() && format == Format::Text {
        eprintln!("audited exceptions (allow directives with reasons):");
        for (rule, path, line, reason) in &report.exceptions {
            eprintln!("  {rule:<22} {path}:{line}: {reason}");
        }
    }
    if failed {
        exitcode::FINDINGS
    } else {
        exitcode::OK
    }
}
