//! Registry-free determinism & hot-path static analysis for the
//! Bumblebee workspace. It has no dependencies, and no crate depends on it.
//!
//! The evaluation substrate rests on two properties: **bit-identical
//! simulation output** at any `--jobs` width, and an **allocation/panic-free
//! controller hot path**. rustc and clippy enforce the bans they can
//! express — the `[workspace.lints]` table in the root `Cargo.toml` and the
//! `disallowed-types`/`disallowed-methods` lists in `clippy.toml`. This crate
//! checks the rest offline, with no syntax-tree dependency — a hand-rolled
//! lexer ([`lexer`]), a thin item-structure recovery pass ([`items`]), and
//! a rule engine ([`check`]) driven by the catalog in [`rules`]:
//!
//! * `det-unordered-iter` — bans iteration over hash-based collections,
//!   through any method and not only `for` loops;
//! * `hot-*` — bans panics and heap allocation in functions annotated
//!   `// audit: hot-path` (the controller access flow), and keeps the
//!   annotation closure honest within a file and across the workspace;
//! * `unit-mismatch` and `obs-counter-reconcile` — workspace passes over
//!   unit-annotated names and the obs counters.
//!
//! Audited exceptions use `// audit: allow(<rule>) -- <reason>`; the tool
//! counts and reports them (see [`items`] for the grammar). The CLI lives
//! in `bin/audit_tool` (`check` / `list-rules` / `explain <rule>`) and is
//! a hard gate in `scripts/verify.sh`: any finding fails it.
//!
//! The dynamic complement — cross-structure invariant sweeps behind
//! `--features checked` in `bumblebee-core` — is documented in DESIGN.md
//! ("Static analysis & checked builds").

pub mod check;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod units;

pub use check::{check_source, check_workspace, AuditReport, Finding};

/// Process exit codes of `audit_tool` (`trace_tool` follows the same
/// convention).
///
/// * [`OK`](exitcode::OK) — clean run, nothing to report;
/// * [`FINDINGS`](exitcode::FINDINGS) — the tool ran correctly and found
///   real problems (lint findings, reconciliation failures, diffs);
/// * [`USAGE`](exitcode::USAGE) — bad arguments or unreadable/invalid
///   input; the check itself never ran.
pub mod exitcode {
    /// Clean run.
    pub const OK: i32 = 0;
    /// The tool ran and found problems (findings, failed checks, diffs).
    pub const FINDINGS: i32 = 1;
    /// Usage or I/O error — the check never ran.
    pub const USAGE: i32 = 2;
}
