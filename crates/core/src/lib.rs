#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! The Bumblebee Hybrid Memory Management Controller (HMMC).
//!
//! This crate implements the paper's contribution: a hybrid memory
//! architecture in which every die-stacked HBM page frame can serve either
//! as an off-chip-DRAM cache page (**cHBM**) or as OS-visible
//! part-of-memory (**mHBM**), with the ratio adjusted continuously per
//! remapping set from measured locality:
//!
//! * [`bitmap::BlockBitmap`] — valid/dirty/accessed block vectors;
//! * [`hot_table::HotTable`] — the two LRU counter queues of Fig. 4;
//! * [`prt::Prt`] — the PLE remapping table (new-PLE + Occup bits, Fig. 3);
//! * [`ble::Ble`] — block location entries for HBM frames;
//! * [`set::RemapSet`] — one remapping set: the access flow of Fig. 5 and
//!   the data-movement rules of §III-E;
//! * [`controller::BumblebeeController`] — the full HMMC implementing
//!   [`memsim_types::HybridMemoryController`];
//! * [`config::BumblebeeConfig`] — tuning knobs and the ablation switches
//!   used by the paper's Fig. 7 (fixed ratios, No-Multi, Meta-H,
//!   Alloc-D/H, No-HMF);
//! * [`metadata`] — the metadata storage budget (paper §IV-B).
//!
//! # Example
//!
//! ```
//! use bumblebee_core::{BumblebeeConfig, BumblebeeController};
//! use memsim_types::{Access, AccessPlan, Addr, Geometry, HybridMemoryController};
//!
//! # fn main() -> Result<(), memsim_types::GeometryError> {
//! let geometry = Geometry::paper(256); // small scale for the example
//! let mut hmmc = BumblebeeController::new(geometry, BumblebeeConfig::default());
//! let mut plan = AccessPlan::new();
//! hmmc.access(&Access::read(Addr(0x4000)), &mut plan);
//! assert!(!plan.critical.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod bitmap;
pub mod ble;
#[cfg(feature = "checked")]
pub mod checked;
pub mod config;
pub mod controller;
pub mod hot_table;
pub mod metadata;
pub mod prt;
pub mod set;

pub use bitmap::BlockBitmap;
pub use ble::{Ble, FrameMode};
pub use config::{AllocPolicy, BumblebeeConfig};
pub use controller::BumblebeeController;
pub use hot_table::{HotEntry, HotTable};
pub use metadata::MetadataBreakdown;
pub use prt::Prt;
pub use set::RemapSet;
