#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! The system simulator: cores, caches, hybrid-memory controllers and DRAM
//! devices tied together, plus one experiment runner per paper figure.
//!
//! * [`system::System`] — executes controller [`AccessPlan`]s against the
//!   HBM2/DDR4 timing models and accounts cycles, traffic and energy.
//! * [`designs::Design`] — the registry of every evaluated design
//!   (Bumblebee, the five baselines, the no-HBM reference and the Fig. 7
//!   ablations).
//! * [`run`] — [`RunConfig`] (geometry scale, SRAM budget, access volume)
//!   and [`run_design`], the single-run entry point.
//! * [`matrix`] — [`ExperimentMatrix`], the declarative list of
//!   `(Design, SpecProfile, RunConfig)` cells a figure evaluates, with
//!   deterministic per-cell seeds.
//! * [`engine`] — [`Engine`], the parallel matrix executor
//!   (`--jobs`/`BUMBLEBEE_JOBS`), and [`ResultSet`], its indexed output.
//! * [`report`] — [`SimReport`] and text-table rendering.
//! * [`jsonl`] — the machine-readable `results/<figure>.jsonl` writer.
//! * [`figures`] — generators for Fig. 1, Fig. 6, Fig. 7, Fig. 8(a–d) and
//!   the §IV-B tables.
//!
//! [`AccessPlan`]: memsim_types::AccessPlan
//!
//! # Example
//!
//! ```
//! use memsim_sim::{Design, RunConfig, run_design};
//! use memsim_trace::SpecProfile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = RunConfig::tiny();
//! let report = run_design(Design::Bumblebee, &cfg, &SpecProfile::mcf())?;
//! assert!(report.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod designs;
pub mod engine;
pub mod figures;
pub mod jsonl;
pub mod matrix;
pub mod report;
pub mod run;
pub mod system;

pub use designs::Design;
pub use engine::{Engine, EngineTelemetry, ResultSet, DEFAULT_BATCH};
pub use jsonl::{parse_flat, results_dir, write_jsonl, JsonObj, JsonValue};
pub use matrix::{cell_seed, Cell, ExperimentMatrix};
pub use memsim_obs::{MetricsConfig, SpanTree};
pub use report::SimReport;
pub use run::{
    geomean, geomean_diag, run_design, run_design_batched, run_reference, Geomean, RunConfig,
    RunObservations,
};
pub use system::{SimParams, System};
