//! Sampling parameters of an instrumented run.

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
