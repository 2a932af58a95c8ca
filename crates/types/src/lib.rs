//! Common types for the Bumblebee heterogeneous-memory simulator.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Addr`], [`PageIndex`], [`BlockIndex`] — strongly-typed addresses
//!   ([`addr`]).
//! * [`Geometry`] — the hybrid-memory geometry (block/page sizes, HBM and
//!   off-chip DRAM capacities, remapping-set associativity) together with all
//!   derived index math ([`geometry`]).
//! * [`Access`], [`AccessPlan`], [`DeviceOp`] — the request/response contract
//!   between a hybrid-memory *policy* and the timing simulator ([`plan`]).
//! * [`HybridMemoryController`] — the policy trait implemented by Bumblebee
//!   and every baseline ([`controller`]).
//! * [`CtrlStats`], [`OverfetchTracker`] — policy-side statistics
//!   ([`stats`]).
//! * [`MetadataModel`] — the shared SRAM-budget model that decides whether a
//!   design's metadata fits on chip or spills into HBM ([`metadata`]).
//! * [`json`] — the workspace's one JSON writer, escaper and parser, for
//!   the results streams.
//!
//! # Example
//!
//! ```
//! use memsim_types::{Geometry, Addr};
//!
//! # fn main() -> Result<(), memsim_types::GeometryError> {
//! let g = Geometry::builder()
//!     .block_bytes(2 << 10)
//!     .page_bytes(64 << 10)
//!     .hbm_bytes(64 << 20)
//!     .dram_bytes(640 << 20)
//!     .hbm_ways(8)
//!     .build()?;
//! let page = g.page_of(Addr(123 << 16));
//! assert_eq!(g.set_of_page(page), g.set_of_addr(Addr(123 << 16)));
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod batch;
pub mod controller;
pub mod error;
pub mod fastdiv;
pub mod geometry;
pub mod json;
pub mod metadata;
pub mod plan;
pub mod stats;

pub use addr::{Addr, BlockIndex, PageIndex};
pub use batch::{AccessBatch, PlanBuffer, PlanView};
pub use controller::HybridMemoryController;
pub use error::GeometryError;
pub use fastdiv::QuickDiv;
pub use geometry::{Geometry, GeometryBuilder, PageSlot};
pub use metadata::MetadataModel;
pub use plan::{
    Access, AccessKind, AccessPath, AccessPlan, DeviceOp, Mem, OpKind, TrafficCause, TrafficDevice,
    FAULT_STALL_CYCLES,
};
pub use stats::{CtrlStats, OverfetchTracker};
