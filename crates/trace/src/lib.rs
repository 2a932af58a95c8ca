//! Synthetic memory-trace generation with calibrated locality.
//!
//! Replaces the paper's SPEC CPU2017 + SimPoint substrate. A
//! [`WorkloadSpec`] describes a workload by the properties the paper's
//! evaluation actually depends on:
//!
//! * **footprint** — bytes of distinct data touched (Table II);
//! * **MPKI** — LLC misses per kilo-instruction (Table II), realized as the
//!   instruction gap attached to each generated access;
//! * **spatial locality** — the sequential run length of the access stream
//!   (long runs touch most 64-byte lines of a page before leaving it, short
//!   runs touch one or two);
//! * **temporal locality** — how concentrated accesses are on a hot subset
//!   of pages (hot-set fraction + skew);
//! * **write fraction**.
//!
//! [`SpecProfile`] provides one spec per benchmark of the paper's Table II,
//! with locality classes taken from Fig. 1 (mcf: strong spatial/strong
//! temporal, wrf: weak spatial/strong temporal, xz: strong spatial/weak
//! temporal) and from the SPEC CPU2017 memory-characterization literature
//! the paper cites (Singh & Awasthi, ICPE 2019) for the rest.
//!
//! # Example
//!
//! ```
//! use memsim_trace::{SpecProfile, Workload};
//!
//! let spec = SpecProfile::mcf().spec(1); // paper-scale footprint
//! let mut w = Workload::new(spec, u64::MAX, 42);
//! let a = w.next_access();
//! assert!(a.insts > 0);
//! ```

pub mod rng;
pub mod spec;
pub mod workload;

pub use rng::SplitMix64;
pub use spec::{LocalityClass, SpecProfile, WorkloadSpec};
pub use workload::Workload;
