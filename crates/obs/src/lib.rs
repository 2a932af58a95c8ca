//! Observability for the simulator: epoch time-series, structured event
//! tracing and power-of-two histograms.
//!
//! The crate is deliberately tiny and dependency-free (it sees only
//! `memsim-types`), because the Bumblebee controller's hot path owns an
//! optional event [`Ring`]:
//!
//! * [`hist::Pow2Histogram`] — 64 power-of-two buckets for latency and
//!   queue-wait distributions, cheap enough to stay always-on in the DRAM
//!   device model;
//! * [`ring::Ring`] — the one bounded ring buffer: keeps the newest
//!   `capacity` items and counts the ones it drops;
//! * [`event::TraceEvent`] — typed controller events (PRT misses, BLE
//!   hits, migrations, mode switches, zombie evictions, pressure
//!   flushes…), kept in a `Ring`;
//! * [`snapshot::EpochSnapshot`] — one sampled point of the per-epoch
//!   time-series (hit rate, mHBM fraction, Rh, T, movement deltas,
//!   occupancy heatmap buckets), built by `memsim-sim`'s run loop at each
//!   epoch boundary from `CtrlStats` deltas and the controller's gauges;
//! * [`config::MetricsConfig`] — an instrumented run's sampling
//!   parameters (epoch interval, ring capacities, latency sampling rate);
//! * [`lat`] — sampled per-access request tracing: a deterministic
//!   SplitMix64 sampler over the global access sequence, cycle-domain
//!   [`lat::AccessRecord`]s (path + lookup/queue/service/stall), kept in a
//!   `Ring`, and the [`lat::LatCollector`] report aggregator;
//! * [`bw`] — cause-attributed traffic accounting: the per-device-class
//!   per-cause [`bw::TrafficMatrix`], the [`bw::TrafficAccum`] op-size /
//!   MLP histograms, cumulative [`bw::BwPoint`] epoch snapshots, and the
//!   hard [`bw::reconcile`] check against the devices' undifferentiated
//!   byte totals.
//!
//! Everything recorded here is a pure function of the access stream, so
//! epoch/trace output is byte-identical at any `--jobs` width. Wall-clock
//! time is measured outside this crate: the engine's per-cell telemetry
//! and the separate `benchmark/` cargo workspace.
//!
//! # Example
//!
//! ```
//! use memsim_obs::{EpochGauges, EpochSnapshot, Ring, TimedEvent, TraceEvent};
//! use memsim_types::CtrlStats;
//!
//! // The trace ring keeps the newest events, each stamped with the number
//! // of accesses before it, and counts the ones it drops.
//! let mut ring = Ring::new(1);
//! for seq in 0..3 {
//!     ring.push(TimedEvent { seq, event: TraceEvent::PrtMiss { set: 0, page: 7 } });
//! }
//! assert_eq!(ring.dropped(), 2);
//! assert_eq!(ring.into_vec()[0].seq, 2);
//!
//! // An epoch point is the delta between two boundaries' counters.
//! let mut stats = CtrlStats::new();
//! let last = stats.clone();
//! stats.hbm_hits += 3;
//! stats.offchip_serves += 1;
//! let snap = EpochSnapshot::from_delta(0, 4, &stats, &last, EpochGauges::default());
//! assert_eq!(snap.hit_rate, 0.75);
//! ```

pub mod bw;
pub mod config;
pub mod event;
pub mod hist;
pub mod lat;
pub mod ring;
pub mod snapshot;

pub use bw::{reconcile, BwPoint, TrafficAccum, TrafficMatrix};
pub use config::MetricsConfig;
pub use event::{TimedEvent, TraceEvent};
pub use hist::{DeviceHistograms, Pow2Histogram};
pub use lat::{sampled, AccessRecord, LatCollector, PathLatency, QueueGauge};
pub use ring::Ring;
pub use snapshot::{EpochGauges, EpochSnapshot, OCC_BUCKETS};
