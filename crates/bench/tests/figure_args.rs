//! End-to-end test of the figure binaries' argument check: an unknown
//! sweep fails before the binary runs a cell or writes a file.

use std::path::PathBuf;

/// Runs `sensitivity <sweep>` at a small config into a fresh `--out`
/// directory; returns whether it exited 0 and whether it wrote its JSONL.
fn sensitivity(sweep: &str) -> (bool, bool) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(sweep);
    let _ = std::fs::remove_dir_all(&out);
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_sensitivity"))
        .args([sweep, "--scale", "256", "--accesses", "2000", "--workloads", "mcf", "--jobs", "1"])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawning sensitivity")
        .status;
    (status.success(), out.join("sensitivity.jsonl").exists())
}

#[test]
fn unknown_sweep_fails_without_writing() {
    assert_eq!(sensitivity("zombie"), (true, true), "a known sweep runs and writes");
    assert_eq!(sensitivity("hotqueue"), (false, false), "an unknown sweep fails first");
}
