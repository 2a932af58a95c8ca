//! The run recorder and the controller-side [`Telemetry`] handle.

use crate::event::{TimedEvent, TraceEvent};
use crate::ring::Ring;
use crate::snapshot::{EpochGauges, EpochSnapshot};
use memsim_types::CtrlStats;

/// Sampling parameters for an instrumented run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Accesses per epoch sample (0 disables the time-series).
    pub epoch_interval: u64,
    /// Newest events kept in the trace ring.
    pub event_capacity: usize,
    /// Latency-trace sampling rate: roughly one access in `sample_rate`
    /// gets a full [`AccessRecord`](crate::lat::AccessRecord) (0 disables
    /// request tracing entirely — the hot path reduces to one integer
    /// compare).
    pub sample_rate: u64,
    /// Newest sampled records kept in the latency ring.
    pub record_capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> MetricsConfig {
        MetricsConfig {
            epoch_interval: 8192,
            event_capacity: 4096,
            sample_rate: 0,
            record_capacity: 65536,
        }
    }
}

/// Collects the full epoch time-series and event ring of one run for
/// JSONL export. Everything it records is a deterministic function of the
/// access stream — engine output built from it is byte-compared across
/// `--jobs` widths.
#[derive(Debug)]
pub struct RunRecorder {
    interval: u64,
    epochs: Vec<EpochSnapshot>,
    ring: Ring<TimedEvent>,
}

impl RunRecorder {
    /// An empty recorder sampling per `cfg`.
    pub fn new(cfg: &MetricsConfig) -> RunRecorder {
        RunRecorder {
            interval: cfg.epoch_interval,
            epochs: Vec::new(),
            ring: Ring::new(cfg.event_capacity),
        }
    }

    /// The collected epoch time-series.
    pub fn epochs(&self) -> &[EpochSnapshot] {
        &self.epochs
    }

    /// The event ring.
    pub fn ring(&self) -> &Ring<TimedEvent> {
        &self.ring
    }

    /// Decomposes into `(epochs, events, dropped)`.
    pub fn into_parts(self) -> (Vec<EpochSnapshot>, Vec<TimedEvent>, u64) {
        let dropped = self.ring.dropped();
        (self.epochs, self.ring.into_vec(), dropped)
    }
}

/// The controller-side telemetry handle.
///
/// Every controller owns one. With no recorder installed (the default)
/// [`tick`](Self::tick) is a branch on an `Option` discriminant and
/// [`active`](Self::active) returns `None`, so event payloads are never
/// even constructed. The recorder is boxed, so it costs every controller
/// one pointer while disabled.
#[derive(Debug, Default)]
pub struct Telemetry {
    rec: Option<Box<RunRecorder>>,
    accesses: u64,
    epoch: u64,
    last: CtrlStats,
}

impl Telemetry {
    /// Installs `rec`, resetting the epoch clock.
    pub fn install(&mut self, rec: RunRecorder) {
        self.rec = Some(Box::new(rec));
        self.accesses = 0;
        self.epoch = 0;
        self.last = CtrlStats::new();
    }

    /// Removes and returns the recorder, disabling telemetry.
    pub fn take(&mut self) -> Option<RunRecorder> {
        self.rec.take().map(|r| *r)
    }

    /// Whether a recorder is installed.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// `Some(self)` when recording, else `None` — lets callers thread an
    /// `Option<&mut Telemetry>` so disabled paths skip event construction.
    pub fn active(&mut self) -> Option<&mut Telemetry> {
        if self.rec.is_some() {
            Some(self)
        } else {
            None
        }
    }

    /// Accesses counted since the recorder was installed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Counts one access; `true` when an epoch boundary was reached and
    /// the caller should gather gauges and [`sample`](Self::sample).
    #[inline]
    pub fn tick(&mut self) -> bool {
        let Some(r) = self.rec.as_deref() else { return false };
        self.accesses += 1;
        r.interval > 0 && self.accesses.is_multiple_of(r.interval)
    }

    /// Emits one event stamped with the current access count.
    pub fn event(&mut self, ev: TraceEvent) {
        if let Some(r) = self.rec.as_deref_mut() {
            r.ring.push(TimedEvent { seq: self.accesses, event: ev });
        }
    }

    /// Emits an epoch snapshot from the cumulative `stats` and the
    /// caller's instantaneous `gauges`, keeping the boundary state for the
    /// next delta.
    pub fn sample(&mut self, stats: &CtrlStats, gauges: EpochGauges) {
        let Some(r) = self.rec.as_deref_mut() else { return };
        let snap = EpochSnapshot::from_delta(self.epoch, self.accesses, stats, &self.last, gauges);
        r.epochs.push(snap);
        self.last = stats.clone();
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_is_inert() {
        let mut t = Telemetry::default();
        assert!(!t.enabled());
        assert!(t.active().is_none());
        assert!(!t.tick());
        assert_eq!(t.accesses(), 0, "disabled ticks do not even count");
        t.event(TraceEvent::PrtMiss { set: 0, page: 0 });
        t.sample(&CtrlStats::new(), EpochGauges::default());
        assert!(t.take().is_none());
    }

    #[test]
    fn run_recorder_collects_epochs_and_events() {
        let mut t = Telemetry::default();
        t.install(RunRecorder::new(&MetricsConfig {
            epoch_interval: 3,
            event_capacity: 2,
            ..MetricsConfig::default()
        }));
        let mut stats = CtrlStats::new();
        for i in 0..7u64 {
            stats.hbm_hits += 1;
            if t.tick() {
                t.sample(&stats, EpochGauges::default());
            }
            t.event(TraceEvent::BleHit { set: 0, page: 0, block: i as u32 });
        }
        let run = t.take().unwrap();
        assert_eq!(run.epochs().len(), 2, "boundaries at access 3 and 6");
        assert_eq!(run.epochs()[0].accesses, 3);
        assert_eq!(run.epochs()[1].epoch, 1);
        let (epochs, events, dropped) = run.into_parts();
        assert_eq!(epochs.len(), 2);
        assert_eq!(events.len(), 2, "ring capacity");
        assert_eq!(dropped, 5);
        assert_eq!(events[1].event.block(), Some(6));
    }

    #[test]
    fn sample_resets_the_delta_baseline() {
        let mut t = Telemetry::default();
        t.install(RunRecorder::new(&MetricsConfig {
            epoch_interval: 1,
            event_capacity: 1,
            ..MetricsConfig::default()
        }));
        let mut stats = CtrlStats::new();
        stats.hbm_hits = 4;
        assert!(t.tick());
        t.sample(&stats, EpochGauges::default());
        stats.offchip_serves = 4; // second epoch: 0 hits of 4
        assert!(t.tick());
        t.sample(&stats, EpochGauges::default());
        let run = t.take().unwrap();
        assert_eq!(run.epochs()[0].hit_rate, 1.0);
        assert_eq!(run.epochs()[1].hit_rate, 0.0);
        assert!((run.epochs()[1].cum_hit_rate - 0.5).abs() < 1e-12);
    }
}
