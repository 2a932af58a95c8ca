//! Run sampling parameters and the controller-side [`Telemetry`] handle.

use crate::event::{TimedEvent, TraceEvent};
use crate::ring::Ring;

/// Sampling parameters for an instrumented run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Accesses per epoch sample, taken by the simulator's run loop (0
    /// disables the time-series).
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

/// The controller-side trace-event handle: the Bumblebee controller owns
/// one, the one design that emits [`TraceEvent`]s. Epochs are sampled by
/// the simulator's run loop, not here.
///
/// With no ring installed (the default) [`tick`](Self::tick) is a branch
/// on an `Option` discriminant and [`active`](Self::active) returns
/// `None`, so event payloads are never even constructed. The ring is
/// boxed, so it costs one pointer while disabled.
#[derive(Debug, Default)]
pub struct Telemetry {
    ring: Option<Box<Ring<TimedEvent>>>,
    accesses: u64,
}

impl Telemetry {
    /// Installs `ring`, restarting the access count events are stamped
    /// with.
    pub fn install(&mut self, ring: Ring<TimedEvent>) {
        self.ring = Some(Box::new(ring));
        self.accesses = 0;
    }

    /// Removes and returns the ring, disabling telemetry.
    pub fn take(&mut self) -> Option<Ring<TimedEvent>> {
        self.ring.take().map(|r| *r)
    }

    /// `Some(self)` when recording, else `None` — lets callers thread an
    /// `Option<&mut Telemetry>` so disabled paths skip event construction.
    pub fn active(&mut self) -> Option<&mut Telemetry> {
        if self.ring.is_some() {
            Some(self)
        } else {
            None
        }
    }

    /// Counts one access; later events are stamped with the new count.
    #[inline]
    pub fn tick(&mut self) {
        if self.ring.is_some() {
            self.accesses += 1;
        }
    }

    /// Emits one event stamped with the current access count.
    pub fn event(&mut self, ev: TraceEvent) {
        if let Some(r) = self.ring.as_deref_mut() {
            r.push(TimedEvent { seq: self.accesses, event: ev });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_is_inert() {
        let mut t = Telemetry::default();
        assert!(t.active().is_none());
        t.tick();
        t.event(TraceEvent::PrtMiss { set: 0, page: 0 });
        assert!(t.take().is_none());
    }

    #[test]
    fn events_are_stamped_with_the_access_count() {
        let mut t = Telemetry::default();
        t.install(Ring::new(2));
        for i in 0..7u32 {
            t.event(TraceEvent::BleHit { set: 0, page: 0, block: i });
            t.tick();
        }
        let ring = t.take().unwrap();
        assert_eq!(ring.dropped(), 5);
        let events = ring.into_vec();
        assert_eq!(events.len(), 2, "ring capacity");
        assert_eq!((events[1].seq, events[1].event.block()), (6, Some(6)));
        assert!(t.take().is_none(), "taking the ring disables telemetry");
    }
}
