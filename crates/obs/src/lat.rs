//! Sampled per-access request tracing with cycle-domain latency
//! attribution.
//!
//! A deterministic hash-based sampler ([`sampled`]) selects a subset of
//! the access stream by its *global* sequence number; for each selected
//! access the simulator captures one [`AccessRecord`] — the serve path
//! classification ([`AccessPath`]) plus the cycle-domain breakdown of the
//! critical path (metadata lookup, channel queue wait, bank service, and
//! non-device stall). Records live in a bounded [`LatRing`] (newest-kept,
//! drop-counted, exactly like the event ring), so `.lat.jsonl` output is
//! byte-identical at any `--jobs`/`--batch` width. [`LatCollector`]
//! aggregates records into path-tagged power-of-two latency histograms and
//! per-epoch queue-wait gauges for reports.

use crate::hist::Pow2Histogram;
use memsim_types::AccessPath;

/// The SplitMix64 finalizer: a full-avalanche bijection on `u64`. The
/// same mixer the trace PRNG and the over-fetch hasher use — hashing the
/// access sequence number gives an unbiased, deterministic sample of the
/// stream that is independent of job or chunk partitioning.
// audit: hot-path
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether global access `seq` is selected at sampling rate `rate`
/// (roughly one access in `rate`; 0 disables sampling entirely).
///
/// Purely a function of `(seq, rate)` — every job and batch width selects
/// the same accesses.
// audit: hot-path
#[inline]
pub fn sampled(seq: u64, rate: u64) -> bool {
    rate != 0 && mix64(seq).is_multiple_of(rate)
}

/// The recorded lifecycle of one sampled access, all times in simulated
/// cycles.
///
/// The components decompose the demand-critical path exactly:
/// `lookup + queue + service` equals the raw critical-path latency, and
/// `total = lookup + queue + service + stall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Global access index (the deterministic trace timeline).
    pub seq: u64,
    /// Serve-path classification from the controller.
    pub path: AccessPath,
    /// Metadata lookup cycles: on-chip SRAM cycles plus the device time of
    /// in-memory metadata reads on the critical path.
    pub lookup: u64, // audit: unit(cycles)
    /// Cycles the critical ops' data bursts waited for a busy channel bus.
    pub queue: u64, // audit: unit(cycles)
    /// Bank/bus service cycles of the critical ops (raw latency minus
    /// lookup and queue wait).
    pub service: u64, // audit: unit(cycles)
    /// Non-device stall cycles (e.g. OS page-fault penalties, migration
    /// stalls charged to the request).
    pub stall: u64, // audit: unit(cycles)
    /// End-to-end charged latency: `lookup + queue + service + stall`.
    pub total: u64,
}

/// A bounded ring of [`AccessRecord`]s: the newest `capacity` records are
/// kept, older ones dropped (and counted) — fixed memory however long the
/// run.
#[derive(Debug, Clone)]
pub struct LatRing {
    buf: Vec<AccessRecord>,
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl LatRing {
    /// A ring keeping the newest `capacity` records (at least 1).
    pub fn new(capacity: usize) -> LatRing {
        let capacity = capacity.max(1);
        LatRing { buf: Vec::with_capacity(capacity), head: 0, dropped: 0, capacity }
    }

    /// Appends a record, evicting (and counting) the oldest when full.
    // audit: hot-path
    pub fn push(&mut self, rec: AccessRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records held.
    // audit: hot-path
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the ring into a `Vec`, oldest first.
    pub fn into_vec(self) -> Vec<AccessRecord> {
        let mut v = self.buf;
        v.rotate_left(self.head);
        v
    }
}

/// Per-path aggregate of the sampled records: component sums for the
/// critical-path breakdown plus a power-of-two histogram of total latency
/// (the percentile source when the raw records were ring-dropped).
#[derive(Debug, Clone, Default)]
pub struct PathLatency {
    /// Sampled records on this path.
    pub count: u64,
    /// Summed lookup cycles.
    pub lookup: u64, // audit: unit(cycles)
    /// Summed channel-queue-wait cycles.
    pub queue: u64, // audit: unit(cycles)
    /// Summed bank-service cycles.
    pub service: u64, // audit: unit(cycles)
    /// Summed non-device stall cycles.
    pub stall: u64, // audit: unit(cycles)
    /// Power-of-two histogram of total charged latency.
    pub hist: Pow2Histogram,
}

/// One epoch's queue-pressure gauge, derived from the sampled records
/// (`epoch = seq / epoch_interval` — the same clock as the epoch
/// time-series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueGauge {
    /// Epoch index.
    pub epoch: u64,
    /// Sampled records inside the epoch.
    pub samples: u64,
    /// Summed queue-wait cycles of those records.
    pub queue_sum: u64, // audit: unit(cycles)
    /// Largest single queue wait observed in the epoch.
    pub queue_max: u64, // audit: unit(cycles)
}

/// Aggregates [`AccessRecord`]s into path-tagged latency histograms and
/// the per-epoch queue-depth gauge series. Feed it records in seq order
/// (the order every `.lat.jsonl` stream has).
#[derive(Debug, Clone)]
pub struct LatCollector {
    interval: u64,
    paths: [PathLatency; 5],
    epochs: Vec<QueueGauge>,
}

impl LatCollector {
    /// An empty collector bucketing epochs every `epoch_interval`
    /// accesses (0 disables the epoch series).
    pub fn new(epoch_interval: u64) -> LatCollector {
        LatCollector { interval: epoch_interval, paths: Default::default(), epochs: Vec::new() }
    }

    /// Folds one record in. Records must arrive in nondecreasing `seq`
    /// order.
    pub fn push(&mut self, rec: &AccessRecord) {
        let p = &mut self.paths[rec.path.index()];
        p.count += 1;
        p.lookup += rec.lookup;
        p.queue += rec.queue;
        p.service += rec.service;
        p.stall += rec.stall;
        p.hist.record(rec.total);
        if let Some(epoch) = rec.seq.checked_div(self.interval) {
            match self.epochs.last_mut() {
                Some(g) if g.epoch == epoch => {
                    g.samples += 1;
                    g.queue_sum += rec.queue;
                    g.queue_max = g.queue_max.max(rec.queue);
                }
                _ => self.epochs.push(QueueGauge {
                    epoch,
                    samples: 1,
                    queue_sum: rec.queue,
                    queue_max: rec.queue,
                }),
            }
        }
    }

    /// The aggregate for `path`.
    pub fn path(&self, path: AccessPath) -> &PathLatency {
        &self.paths[path.index()]
    }

    /// The per-epoch queue gauges, epoch order.
    pub fn epochs(&self) -> &[QueueGauge] {
        &self.epochs
    }

    /// Total records folded in.
    pub fn total(&self) -> u64 {
        self.paths.iter().map(|p| p.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, path: AccessPath, queue: u64) -> AccessRecord {
        AccessRecord { seq, path, lookup: 2, queue, service: 10, stall: 1, total: 13 + queue }
    }

    #[test]
    fn sampling_is_deterministic_and_rate_zero_disables() {
        for seq in 0..1000 {
            assert!(!sampled(seq, 0));
            assert_eq!(sampled(seq, 7), sampled(seq, 7));
        }
        // Rate 1 selects everything; larger rates select roughly 1/rate.
        assert!((0..100).all(|s| sampled(s, 1)));
        let hits = (0..100_000).filter(|&s| sampled(s, 64)).count();
        assert!((1000..2200).contains(&hits), "~1/64 of 100k, got {hits}");
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = LatRing::new(3);
        for s in 0..5 {
            r.push(rec(s, AccessPath::MissFill, 0));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.into_vec().iter().map(|x| x.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        let mut tiny = LatRing::new(0);
        tiny.push(rec(9, AccessPath::MhbmHit, 0));
        assert_eq!(tiny.len(), 1, "capacity clamps to 1");
        assert!(!tiny.is_empty());
    }

    #[test]
    fn collector_groups_by_path_and_epoch() {
        let mut c = LatCollector::new(10);
        c.push(&rec(0, AccessPath::MhbmHit, 4));
        c.push(&rec(3, AccessPath::MissFill, 8));
        c.push(&rec(12, AccessPath::MissFill, 2));
        assert_eq!(c.total(), 3);
        assert_eq!(c.path(AccessPath::MhbmHit).count, 1);
        let miss = c.path(AccessPath::MissFill);
        assert_eq!(miss.count, 2);
        assert_eq!(miss.queue, 10);
        assert_eq!(miss.hist.total(), 2);
        assert_eq!(c.epochs().len(), 2);
        assert_eq!(c.epochs()[0], QueueGauge { epoch: 0, samples: 2, queue_sum: 12, queue_max: 8 });
        assert_eq!(c.epochs()[1].epoch, 1);
        // Interval 0: no epoch series, paths still aggregate.
        let mut flat = LatCollector::new(0);
        flat.push(&rec(5, AccessPath::SlBypass, 1));
        assert!(flat.epochs().is_empty());
        assert_eq!(flat.path(AccessPath::SlBypass).count, 1);
    }
}
