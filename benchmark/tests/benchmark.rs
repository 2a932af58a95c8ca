//! Checks the benchmark against its own declaration in `BENCHMARK.json`,
//! and its build settings against the repository's.

use bumblebee_benchmark::json::Json;
use std::process::Command;

fn read(relative: &str) -> String {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_emits_every_declared_metric_and_passes_every_check() {
    let spec = Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let out = Command::new(env!("CARGO_BIN_EXE_bumblebee-benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "exit {}:\n{stdout}", out.status);

    let workloads = names(&spec, "workloads");
    let mut metrics = names(&spec, "end_to_end");
    metrics.extend(names(&spec, "per_layer"));
    for (workload, _) in &workloads {
        for (metric, unit) in &metrics {
            let prefix = format!("{workload} {metric} ");
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"));
            let fields: Vec<&str> = line.split(' ').collect();
            let value: f64 = fields[2]
                .parse()
                .unwrap_or_else(|_| panic!("value in `{line}`"));
            assert!(value.is_finite(), "{line}");
            assert_eq!(fields[3], unit, "{line}");
        }
        assert!(
            stdout
                .lines()
                .any(|l| l == format!("{workload} failed_frac 0 fraction")),
            "{workload} has failing cells:\n{stdout}"
        );
    }

    // One result object per workload closes the output, the last line last.
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(results.len(), workloads.len());
    assert!(stdout.trim_end().ends_with('}'));
    for r in &results {
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{r}");
        let emitted = r
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("a metrics object");
        assert_eq!(emitted.len(), metrics.len(), "{r}");
    }
}

/// The `[profile.release]` lines of a manifest, comments and blanks dropped.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn release_profile_matches_the_repository() {
    let (repo, own) = (read("../Cargo.toml"), read("Cargo.toml"));
    let expected = release_profile(&repo);
    assert!(
        !expected.is_empty(),
        "the repository manifest has a [profile.release]"
    );
    assert_eq!(release_profile(&own), expected);
}
