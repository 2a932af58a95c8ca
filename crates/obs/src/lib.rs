#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Observability for the simulator: epoch time-series, structured event
//! tracing and power-of-two histograms.
//!
//! The crate is deliberately tiny and dependency-free (it sees only
//! `memsim-types`), because every controller on the hot path owns a
//! [`Telemetry`] handle:
//!
//! * [`hist::Pow2Histogram`] — 64 power-of-two buckets for latency and
//!   queue-wait distributions, cheap enough to stay always-on in the DRAM
//!   device model;
//! * [`event::TraceEvent`] / [`event::EventRing`] — typed controller
//!   events (PRT misses, BLE hits, migrations, mode switches, zombie
//!   evictions, pressure flushes…) in a bounded ring buffer;
//! * [`snapshot::EpochSnapshot`] — one sampled point of the per-epoch
//!   time-series (hit rate, mHBM fraction, Rh, T, movement deltas,
//!   occupancy heatmap buckets);
//! * [`recorder::MetricsRecorder`] — the sink trait, with
//!   [`recorder::NoopRecorder`] (one virtual call per access) and
//!   [`recorder::RunRecorder`] (collects everything for JSONL export);
//! * [`recorder::Telemetry`] — the controller-side handle. With no
//!   recorder installed (the default) the fast path costs a single
//!   `Option` discriminant check and **zero** virtual calls;
//! * [`lat`] — sampled per-access request tracing: a deterministic
//!   SplitMix64 sampler over the global access sequence, cycle-domain
//!   [`lat::AccessRecord`]s (path + lookup/queue/service/stall), a bounded
//!   [`lat::LatRing`], and the [`lat::LatCollector`] report aggregator;
//! * [`bw`] — cause-attributed traffic accounting: the per-device-class
//!   per-cause [`bw::TrafficMatrix`], the [`bw::TrafficAccum`] op-size /
//!   MLP histograms, cumulative [`bw::BwPoint`] epoch snapshots, and the
//!   hard [`bw::reconcile`] check against the devices' undifferentiated
//!   byte totals;
//! * [`span`] — a scoped wall-clock span profiler (thread-local RAII
//!   guards aggregated into a per-phase tree), answering *where simulator
//!   wall time goes*; disabled it costs one thread-local flag check.
//!
//! Everything recorded by the recorder/event/snapshot machinery is a pure
//! function of the access stream, so epoch/trace output is byte-identical
//! at any `--jobs` width. The [`span`] profiler is the deliberate
//! exception: it measures wall time and its output belongs only in the
//! nondeterministic `.metrics.jsonl` / `BENCH_*.json` artifacts.
//!
//! # Example
//!
//! ```
//! use memsim_obs::{MetricsConfig, RunRecorder, Telemetry};
//! use memsim_types::CtrlStats;
//!
//! let mut t = Telemetry::default();          // disabled: near-zero cost
//! assert!(!t.enabled());
//! t.install(Box::new(RunRecorder::new(&MetricsConfig {
//!     epoch_interval: 2,
//!     event_capacity: 16,
//!     ..MetricsConfig::default()
//! })));
//! let mut stats = CtrlStats::new();
//! for _ in 0..4 {
//!     stats.hbm_hits += 1;
//!     if t.tick() {
//!         t.sample(&stats, Default::default());
//!     }
//! }
//! let run = t.take().unwrap().into_run().unwrap();
//! assert_eq!(run.epochs().len(), 2);
//! ```

pub mod bw;
pub mod event;
pub mod hist;
pub mod lat;
pub mod recorder;
pub mod snapshot;
pub mod span;

pub use bw::{reconcile, BwPoint, TrafficAccum, TrafficMatrix};
pub use event::{EventRing, TimedEvent, TraceEvent};
pub use hist::{DeviceHistograms, Pow2Histogram};
pub use lat::{sampled, AccessRecord, LatCollector, LatRing, PathLatency, QueueGauge};
pub use recorder::{MetricsConfig, MetricsRecorder, NoopRecorder, RunRecorder, Telemetry};
pub use snapshot::{EpochGauges, EpochSnapshot, OCC_BUCKETS};
pub use span::{Phase, SpanNode, SpanTree};
