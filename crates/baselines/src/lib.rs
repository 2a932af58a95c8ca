//! State-of-the-art hybrid-memory baselines.
//!
//! Mechanism-faithful reimplementations of every design the paper compares
//! against (§IV-A), all speaking the same
//! [`HybridMemoryController`](memsim_types::HybridMemoryController) policy
//! interface as Bumblebee so they run on the identical simulated substrate:
//!
//! * [`AlloyCache`] — direct-mapped 64 B block cache with tags-and-data
//!   combined in HBM (Qureshi & Loh, MICRO 2012).
//! * [`UnisonCache`] — way-associative 4 KB page cache with in-HBM embedded
//!   tags and footprint prediction (Jevdjic et al., MICRO 2014).
//! * [`Banshee`] — page-table-tracked page cache with frequency-based
//!   bandwidth-efficient replacement and lazy writeback (Yu et al.,
//!   MICRO 2017).
//! * [`Chameleon`] — part-of-memory design with one HBM sector per
//!   remapping group and swap-based migration (Kotra et al., MICRO 2018).
//! * [`Hybrid2`] — statically split 64 MB cHBM (256 B blocks) + mHBM
//!   (2 KB migration granularity) with separate spaces (Vasilakis et al.,
//!   HPCA 2020).
//! * [`OffChipOnly`] — the no-HBM reference every result is normalized to.
//!
//! The module [`ablations`] builds the Bumblebee configuration variants of
//! the paper's Fig. 7 performance-factor breakdown.

pub mod ablations;
pub mod alloy;
pub mod banshee;
pub mod chameleon;
pub mod common;
pub mod hybrid2;
pub mod reference;
pub mod unison;

pub use alloy::AlloyCache;
pub use banshee::Banshee;
pub use chameleon::Chameleon;
pub use common::FaultModel;
pub use hybrid2::Hybrid2;
pub use reference::OffChipOnly;
pub use unison::UnisonCache;
