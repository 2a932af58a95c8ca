//! End-to-end tests of the figure binaries' command line: an unknown
//! sweep fails before the binary runs a cell or writes a file, and
//! `--jobs` changes no byte of the stdout table.

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

/// Runs `fig8` on mcf at `--jobs jobs` into a fresh `--out` directory and
/// returns its stdout.
fn fig8_stdout(jobs: &str) -> Vec<u8> {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fig8-jobs-{jobs}"));
    let _ = std::fs::remove_dir_all(&out);
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_fig8"))
        .args(["--scale", "256", "--accesses", "2000", "--workloads", "mcf", "--jobs", jobs])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawning fig8");
    assert!(
        output.status.success(),
        "fig8 --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

#[test]
fn fig8_table_is_identical_at_every_width() {
    let serial = fig8_stdout("1");
    assert!(!serial.is_empty(), "fig8 printed no table");
    assert_eq!(
        String::from_utf8_lossy(&serial),
        String::from_utf8_lossy(&fig8_stdout("2"))
    );
}
