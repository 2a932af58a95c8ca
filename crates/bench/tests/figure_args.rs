//! End-to-end tests of the figure binaries' command line: an unknown
//! sweep or a repeated workload fails before the binary runs a cell or
//! writes a file, `--jobs` changes no byte of the stdout table, and the
//! peak resident set is reported on stderr.

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

/// Runs `fig8` at a small config on `workloads` and `--jobs jobs` into a
/// fresh `--out` directory named after `test`; returns its output and
/// whether it wrote its JSONL.
fn fig8(test: &str, workloads: &str, jobs: &str) -> (std::process::Output, bool) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fig8-{test}"));
    let _ = std::fs::remove_dir_all(&out);
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_fig8"))
        .args(["--scale", "256", "--accesses", "2000", "--workloads", workloads, "--jobs", jobs])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawning fig8");
    (output, out.join("fig8.jsonl").exists())
}

/// Runs `fig8` on mcf at `--jobs jobs` and returns its stdout.
fn fig8_stdout(jobs: &str) -> Vec<u8> {
    let (output, _) = fig8(&format!("jobs-{jobs}"), "mcf", jobs);
    assert!(
        output.status.success(),
        "fig8 --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

#[test]
fn repeated_workload_fails_without_writing() {
    let (output, wrote) = fig8("repeated", "mcf,xz,mcf", "1");
    assert!(!output.status.success(), "a repeated workload must fail");
    assert!(!wrote, "nothing is written");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--workloads names mcf twice"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn peak_rss_is_the_last_stderr_line() {
    let (output, _) = fig8("peak-rss", "mcf", "1");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    let last = stderr.lines().last().unwrap_or_default();
    let mb: f64 = last
        .strip_prefix("peak_rss_mb ")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("last stderr line {last:?}"));
    assert!(mb > 0.0, "{last}");
    assert!(!String::from_utf8_lossy(&output.stdout).contains("peak_rss_mb"));
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
