//! Workspace-shape guards the lint layer depends on.
//!
//! rustc and clippy enforce the crate-attribute and determinism bans only in
//! crates that inherit the root `[workspace.lints]` table, and the
//! `disallowed-*` lists cannot name what no crate can import. So every member
//! manifest must opt in to the table, and `Cargo.lock` must list nothing but
//! workspace members: no registry crate, hence no `rand`, `getrandom`,
//! `rayon` or `crossbeam` (DESIGN.md §6).

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The root manifest and every `crates/*/Cargo.toml` (the workspace's
/// `members = ["crates/*"]` glob), sorted.
fn member_manifests() -> Vec<PathBuf> {
    let mut manifests: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("reading crates/")
        .map(|e| e.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|m| m.is_file())
        .collect();
    manifests.sort();
    manifests.insert(0, root().join("Cargo.toml"));
    manifests
}

/// The `key = value` lines of TOML table `[header]`, comments and blank
/// lines dropped; `None` when the manifest has no such table.
fn table<'a>(src: &'a str, header: &str) -> Option<Vec<&'a str>> {
    let mut lines = src.lines().map(str::trim);
    lines.by_ref().find(|l| *l == header)?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect(),
    )
}

/// The unquoted string value of `key = "value"`, if `line` assigns `key`.
fn string_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let (k, v) = line.split_once('=')?;
    (k.trim() == key).then(|| v.trim().trim_matches('"'))
}

#[test]
fn every_member_inherits_the_workspace_lint_table() {
    let manifests = member_manifests();
    assert!(
        manifests.len() > 5,
        "suspiciously few members: {manifests:?}"
    );
    for m in manifests {
        let src = read(&m);
        let lints = table(&src, "[lints]")
            .unwrap_or_else(|| panic!("{} has no [lints] table", m.display()));
        assert!(
            lints.iter().any(|l| l.replace(' ', "") == "workspace=true"),
            "{}: [lints] must say `workspace = true`, got {lints:?}",
            m.display()
        );
    }
}

#[test]
fn lockfile_lists_only_workspace_members() {
    let members: Vec<String> = member_manifests()
        .iter()
        .map(|m| {
            let src = read(m);
            let package = table(&src, "[package]")
                .unwrap_or_else(|| panic!("{} has no [package] table", m.display()));
            package
                .iter()
                .find_map(|l| string_value(l, "name"))
                .unwrap_or_else(|| panic!("{} has no package name", m.display()))
                .to_string()
        })
        .collect();
    let lock = read(&root().join("Cargo.lock"));
    let packages: Vec<&str> = lock.split("[[package]]").skip(1).collect();
    assert!(!packages.is_empty(), "Cargo.lock lists no packages");
    for p in packages {
        let name = p
            .lines()
            .find_map(|l| string_value(l.trim(), "name"))
            .expect("package name");
        assert!(
            members.iter().any(|m| m == name),
            "Cargo.lock lists `{name}`, not a workspace member"
        );
        assert!(
            !p.lines()
                .any(|l| string_value(l.trim(), "source").is_some()),
            "Cargo.lock package `{name}` comes from a registry or git source"
        );
    }
}
