//! # Bumblebee — a MemCache design for die-stacked and off-chip heterogeneous memory systems
//!
//! A from-scratch Rust reproduction of *Bumblebee* (Hua et al., DAC 2023):
//! a hybrid memory architecture in which every die-stacked HBM page can
//! serve either as an off-chip DRAM **cache** (cHBM) or as OS-visible
//! **part-of-memory** (mHBM), with the cHBM:mHBM ratio adjusted in real time
//! from measured spatial/temporal locality and memory footprint.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — addresses, geometry, the controller trait, plans, stats.
//! * [`dram`] — HBM2/DDR4 channel/bank timing and IDD-based energy models.
//! * [`trace`] — synthetic workloads with calibrated locality and
//!   SPEC CPU2017-like profiles.
//! * [`core`] — the Bumblebee HMMC itself (PRT, BLE array, hotness tracker,
//!   data-movement engine).
//! * [`baselines`] — Alloy Cache, Unison Cache, Banshee, Chameleon, Hybrid2
//!   and the paper's ablation variants.
//! * [`sim`] — the system simulator and the per-figure experiment runners.
//!
//! # Quickstart
//!
//! ```
//! use bumblebee::sim::{run_design, run_reference, Design, RunConfig};
//! use bumblebee::trace::SpecProfile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = RunConfig::tiny(); // scaled-down geometry for fast runs
//! let mcf = SpecProfile::mcf();
//! let baseline = run_reference(&cfg, &mcf)?;
//! let report = run_design(Design::Bumblebee, &cfg, &mcf)?;
//! println!("IPC vs no-HBM baseline: {:.2}x", report.normalized_ipc(&baseline));
//! # Ok(())
//! # }
//! ```

pub use bumblebee_core as core;
pub use memsim_baselines as baselines;
pub use memsim_dram as dram;
pub use memsim_sim as sim;
pub use memsim_trace as trace;
pub use memsim_types as types;
