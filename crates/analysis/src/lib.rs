#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Registry-free determinism & hot-path static analysis for the
//! Bumblebee workspace. Its one dependency is `memsim-types`, whose
//! [`json`](memsim_types::json) module writes the report and reads the
//! baseline back.
//!
//! The evaluation substrate rests on two properties `cargo clippy` cannot
//! check: **bit-identical simulation output** at any `--jobs` width, and an
//! **allocation/panic-free controller hot path**. This crate enforces both
//! offline, with no syntax-tree dependency — a hand-rolled lexer
//! ([`lexer`]), a thin item-structure recovery pass ([`items`]), and a
//! rule engine ([`check`]) driven by the catalog in [`rules`]:
//!
//! * `det-*` — bans `HashMap`/`HashSet` with the default `RandomState`,
//!   unannotated wall-clock reads, ambient entropy, and iteration over
//!   unordered maps;
//! * `hot-*` — bans panics and heap allocation in functions annotated
//!   `// audit: hot-path` (the controller access flow), and keeps the
//!   annotation closure honest within a file;
//! * `struct-*` — crate roots must `#![forbid(unsafe_code)]` and
//!   `#![deny(missing_docs)]`; every pub item in `crates/core` and
//!   `crates/types` must be documented.
//!
//! Audited exceptions use `// audit: allow(<rule>) -- <reason>`; the tool
//! counts and reports them (see [`items`] for the grammar). The CLI lives
//! in `bin/audit_tool` (`check` / `list-rules` / `explain <rule>`) and is
//! a hard gate in `scripts/verify.sh`.
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

/// Process exit-code conventions shared by the workspace CLI tools
/// (`audit_tool`, `trace_tool`).
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
