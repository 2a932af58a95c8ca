//! Event-based DRAM/HBM device timing and energy model.
//!
//! Replaces the paper's DRAMSim2 substrate. Each [`DramDevice`] models a
//! die-stacked HBM2 stack or an off-chip DDR4 module as a set of independent
//! channels, each with banks and an open-row (row-buffer) state machine. The
//! model is *event-based*: instead of stepping a DRAM clock, each access
//! computes its completion time from the bank/bus availability it observes,
//! which preserves latency/bandwidth/row-locality behaviour at a tiny
//! fraction of cycle-accurate cost.
//!
//! All externally visible times are in **CPU cycles** (3.6 GHz per the
//! paper's Table I); device timing parameters are specified in device clocks
//! and converted once at construction.
//!
//! Energy follows the standard IDD-based (Micron power-calc / DRAMPower)
//! formulation with the Table I currents; see [`power`].
//!
//! # Example
//!
//! ```
//! use memsim_dram::{presets, DramDevice};
//! use memsim_types::{Addr, OpKind};
//!
//! let mut hbm = DramDevice::new(presets::hbm2(64 << 20));
//! let done = hbm.access(Addr(0), 64, OpKind::Read, 0);
//! assert!(done > 0);
//! // A second access to the same open row is a row-buffer hit and faster.
//! let t1 = hbm.access(Addr(64), 64, OpKind::Read, done);
//! assert!(t1 - done <= done);
//! ```

pub mod channel;
pub mod config;
pub mod device;
pub mod power;
pub mod presets;

pub use config::{DeviceConfig, Timing};
pub use device::{DeviceCounters, DramDevice};
pub use power::PowerParams;
