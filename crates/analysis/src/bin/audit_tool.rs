//! Workspace determinism & hot-path auditor.
//!
//! ```text
//! audit_tool check [--root DIR] [FILE…]     # exits 1 on any finding
//! audit_tool list-rules                   # one line per rule, sorted by id
//! audit_tool explain <rule>               # the long story behind one rule
//! ```
//!
//! Exit codes follow the shared convention in
//! [`memsim_analysis::exitcode`]: 0 clean, 1 findings, 2 usage/IO error.

use memsim_analysis::check::{check_files, check_workspace, AuditReport};
use memsim_analysis::{exitcode, rules};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: audit_tool check [--root DIR] [FILE...]\n       audit_tool list-rules\n       audit_tool explain <rule>"
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

fn cmd_check(args: &[String]) -> i32 {
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                let Some(dir) = args.get(i + 1) else { usage() };
                root = PathBuf::from(dir);
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
    match report {
        Ok(r) => render(&r),
        Err(e) => {
            eprintln!("error: {e}");
            exitcode::USAGE
        }
    }
}

fn render(report: &AuditReport) -> i32 {
    for f in &report.findings {
        println!("{f}");
    }
    eprintln!(
        "audit: {} — {} file(s), {} finding(s), {} hot-path fn(s) audited, {} unit annotation(s), {} call edge(s), {} audited exception(s)",
        if report.clean() { "clean" } else { "FAIL" },
        report.files,
        report.findings.len(),
        report.hot_fns,
        report.unit_annotations,
        report.call_edges,
        report.exceptions.len(),
    );
    if !report.exceptions.is_empty() {
        eprintln!("audited exceptions (allow directives with reasons):");
        for (rule, path, line, reason) in &report.exceptions {
            eprintln!("  {rule:<22} {path}:{line}: {reason}");
        }
    }
    if report.clean() {
        exitcode::OK
    } else {
        exitcode::FINDINGS
    }
}
