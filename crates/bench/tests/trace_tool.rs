//! End-to-end tests of `trace_tool`'s flag handling: a malformed flag
//! value is a usage error (exit 2) that names the flag, never a silent
//! fallback to the default. So is a flag the subcommand does not take.

use std::path::PathBuf;
use std::process::Output;

fn trace_tool(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(args)
        .output()
        .expect("spawning trace_tool")
}

/// A two-cell epochs file, so a filter that silently fell back to "all
/// cells" would still have something to print.
fn epochs_file(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(
        &path,
        "{\"kind\":\"epoch\",\"cell\":0,\"epoch\":0,\"fills\":3}\n\
         {\"kind\":\"epoch\",\"cell\":1,\"epoch\":0,\"fills\":5}\n",
    )
    .unwrap();
    path.to_str().unwrap().to_string()
}

fn assert_usage_error(out: &Output, flag: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(flag), "error must name {flag}: {stderr}");
}

#[test]
fn timeline_rejects_a_malformed_cell() {
    let f = epochs_file("timeline_cell.epochs.jsonl");
    assert_eq!(trace_tool(&["timeline", &f, "--cell", "1"]).status.code(), Some(0));
    assert_usage_error(&trace_tool(&["timeline", &f, "--cell", "x"]), "--cell");
    assert_usage_error(&trace_tool(&["timeline", &f, "--cell"]), "--cell");
}

#[test]
fn diff_rejects_a_malformed_threshold() {
    let f = epochs_file("diff_threshold.epochs.jsonl");
    assert_eq!(trace_tool(&["diff", &f, &f, "--threshold", "0.5"]).status.code(), Some(0));
    assert_usage_error(&trace_tool(&["diff", &f, &f, "--threshold", "abc"]), "--threshold");
}

#[test]
fn flags_and_files_a_subcommand_does_not_take_are_rejected() {
    let f = epochs_file("unused_args.epochs.jsonl");
    assert_usage_error(&trace_tool(&["summarize", &f, "--cell", "1"]), "--cell");
    assert_usage_error(&trace_tool(&["timeline", &f, "--scale", "16"]), "--scale");
    assert_usage_error(&trace_tool(&["summarize", &f, &f]), "usage");
    assert_usage_error(&trace_tool(&["record", &f]), "usage");
}
