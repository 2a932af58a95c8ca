//! Property-based tests for plan accounting, the metadata model and the
//! over-fetch tracker.

use memsim_types::{
    AccessPlan, Addr, DeviceOp, Mem, MetadataModel, OpKind, OverfetchTracker, TrafficCause,
    TrafficDevice,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn ops() -> impl Strategy<Value = Vec<DeviceOp>> {
    proptest::collection::vec(
        (
            0usize..TrafficDevice::ALL.len(),
            0u64..(1 << 30),
            1u32..65536,
            prop::bool::ANY,
            0usize..TrafficCause::ALL.len(),
        )
            .prop_map(|(at, addr, bytes, write, cause)| DeviceOp {
                at: TrafficDevice::ALL[at],
                addr: Addr(addr),
                bytes,
                kind: if write { OpKind::Write } else { OpKind::Read },
                cause: TrafficCause::ALL[cause],
            }),
        0..64,
    )
}

/// HBM lines the tracker property test's ledger covers.
const TABLE_LINES: u64 = 1 << 20;

/// First line of the tracker property test's four adjacent 64-line
/// leaves: the last four of the table, so every op also exercises the
/// range's top end.
const LEAF_BASE: u64 = TABLE_LINES - 4 * 64;

/// One step of a call sequence against the over-fetch tracker.
#[derive(Debug, Clone, Copy)]
enum TrackerOp {
    Fetched(u64, u32),
    Used(u64),
    Evicted(u64),
    /// `fetched` on all 64 keys of a leaf, as a page fill does.
    FetchLeaf(u64, u32),
    /// `evicted` on all 64 keys of a leaf, as a page eviction does.
    EvictLeaf(u64),
    EvictAll,
    /// `fetched_lines(first, count)`: a block or page fill of 64 B lines,
    /// possibly straddling leaves.
    FetchLines(u64, u64),
    /// `evicted_lines(first, count)`.
    EvictLines(u64, u64),
    /// `fetched_mask` on a leaf, as a footprint-predicted fill does.
    FetchMask(u64, u64),
}

fn tracker_ops() -> impl Strategy<Value = Vec<TrackerOp>> {
    // Three in four single-key ops hit one of three lanes per leaf, so
    // leaves also empty one line at a time and refill.
    let lane = prop_oneof![0u64..64, Just(0u64), Just(1u64), Just(63u64)];
    let bytes = prop_oneof![Just(0u32), Just(64u32), 1u32..4096];
    // Range ops run from the chosen key for up to two leaves and a bit,
    // clipped to the four leaves.
    let count = prop_oneof![1u64..140, Just(64u64), Just(32u64)];
    let mask = prop_oneof![0u64..=u64::MAX, Just(u64::MAX), 0u64..256];
    proptest::collection::vec(
        (0u8..120, 0u64..4, lane, bytes, count, mask).prop_map(
            |(op, leaf, lane, bytes, count, mask)| {
                let key = LEAF_BASE + leaf * 64 + lane;
                let count = count.min(LEAF_BASE + 4 * 64 - key);
                match op {
                    0..=34 => TrackerOp::Fetched(key, bytes),
                    35..=59 => TrackerOp::Used(key),
                    60..=89 => TrackerOp::Evicted(key),
                    90..=94 => TrackerOp::FetchLeaf(leaf, bytes),
                    95..=97 => TrackerOp::EvictLeaf(leaf),
                    98..=99 => TrackerOp::EvictAll,
                    100..=107 => TrackerOp::FetchLines(key, count),
                    108..=113 => TrackerOp::EvictLines(key, count),
                    _ => TrackerOp::FetchMask(leaf, mask),
                }
            },
        ),
        1..400,
    )
}

/// Reference model of the tracker: one `(bytes, used)` entry per resident
/// key.
#[derive(Default)]
struct TrackerModel {
    resident: BTreeMap<u64, (u32, bool)>,
    fetched: u64,
    wasted: u64,
}

impl TrackerModel {
    fn fetched(&mut self, key: u64, bytes: u32) {
        self.fetched += u64::from(bytes);
        self.resident
            .entry(key)
            .and_modify(|(b, _)| *b += bytes)
            .or_insert((bytes, false));
    }

    fn used(&mut self, key: u64) {
        if let Some((_, used)) = self.resident.get_mut(&key) {
            *used = true;
        }
    }

    fn evicted(&mut self, key: u64) {
        if let Some((bytes, used)) = self.resident.remove(&key) {
            if !used {
                self.wasted += u64::from(bytes);
            }
        }
    }

    fn evict_all(&mut self) {
        for (_, (bytes, used)) in std::mem::take(&mut self.resident) {
            if !used {
                self.wasted += u64::from(bytes);
            }
        }
    }

    fn ratio(&self) -> f64 {
        if self.fetched == 0 {
            0.0
        } else {
            self.wasted as f64 / self.fetched as f64
        }
    }
}

/// Applies `op` to both the tracker and the model and checks every
/// reported figure after each tracker call.
fn tracker_step(
    t: &mut OverfetchTracker,
    m: &mut TrackerModel,
    op: TrackerOp,
) -> Result<(), TestCaseError> {
    match op {
        TrackerOp::Fetched(key, bytes) => {
            t.fetched(key, bytes);
            m.fetched(key, bytes);
        }
        TrackerOp::Used(key) => {
            t.used(key);
            m.used(key);
        }
        TrackerOp::Evicted(key) => {
            t.evicted(key);
            m.evicted(key);
        }
        TrackerOp::EvictAll => {
            t.evict_all();
            m.evict_all();
        }
        TrackerOp::FetchLeaf(leaf, bytes) => {
            for lane in 0..64 {
                tracker_step(
                    t,
                    m,
                    TrackerOp::Fetched(LEAF_BASE + leaf * 64 + lane, bytes),
                )?;
            }
        }
        TrackerOp::EvictLeaf(leaf) => {
            for lane in 0..64 {
                tracker_step(t, m, TrackerOp::Evicted(LEAF_BASE + leaf * 64 + lane))?;
            }
        }
        // A mask op is its per-line calls to the model.
        TrackerOp::FetchLines(first, count) => {
            t.fetched_lines(first, count);
            for key in first..first + count {
                m.fetched(key, 64);
            }
        }
        TrackerOp::EvictLines(first, count) => {
            t.evicted_lines(first, count);
            for key in first..first + count {
                m.evicted(key);
            }
        }
        TrackerOp::FetchMask(leaf, mask) => {
            t.fetched_mask(LEAF_BASE + leaf * 64, mask);
            for lane in (0..64).filter(|l| mask & (1 << l) != 0) {
                m.fetched(LEAF_BASE + leaf * 64 + lane, 64);
            }
        }
    }
    prop_assert_eq!(t.fetched_bytes(), m.fetched, "after {:?}", op);
    prop_assert_eq!(t.wasted_bytes(), m.wasted, "after {:?}", op);
    prop_assert_eq!(t.overfetch_ratio(), m.ratio(), "after {:?}", op);
    Ok(())
}

proptest! {
    #[test]
    fn bytes_on_partitions_by_device(critical in ops(), background in ops()) {
        let plan = AccessPlan { critical, background, metadata_cycles: 0, stall_cycles: 0, ..AccessPlan::default() };
        let total: u64 = plan
            .critical
            .iter()
            .chain(&plan.background)
            .map(|o| u64::from(o.bytes))
            .sum();
        prop_assert_eq!(plan.bytes_on(Mem::Hbm) + plan.bytes_on(Mem::OffChip), total);
    }

    #[test]
    fn bytes_for_partitions_by_cause(critical in ops(), background in ops()) {
        let plan = AccessPlan { critical, background, metadata_cycles: 0, stall_cycles: 0, ..AccessPlan::default() };
        let total: u64 = plan
            .critical
            .iter()
            .chain(&plan.background)
            .map(|o| u64::from(o.bytes))
            .sum();
        let by_cause: u64 = TrafficCause::ALL.into_iter().map(|c| plan.bytes_for(c)).sum();
        prop_assert_eq!(by_cause, total);
        // The three traffic-device classes partition the same total.
        let by_device: u64 = TrafficDevice::ALL
            .into_iter()
            .map(|d| {
                plan.critical
                    .iter()
                    .chain(&plan.background)
                    .filter(|o| o.at == d)
                    .map(|o| u64::from(o.bytes))
                    .sum::<u64>()
            })
            .sum();
        prop_assert_eq!(by_device, total);
    }

    #[test]
    fn metadata_spill_rate_matches_model(
        metadata_kb in 1u64..4096,
        budget_kb in 0u64..1024,
        lookups in 100usize..2000,
    ) {
        let mut m = MetadataModel::new(metadata_kb << 10, budget_kb << 10);
        let mut plan = AccessPlan::new();
        for i in 0..lookups {
            m.lookup(&mut plan, Addr(i as u64 * 64));
        }
        let expected_miss = 1.0 - m.sram_hit_fraction();
        let observed = plan.background.len() as f64 / lookups as f64;
        prop_assert!(
            (observed - expected_miss).abs() < 0.02,
            "observed {observed} expected {expected_miss}"
        );
        prop_assert_eq!(m.lookups(), lookups as u64);
        prop_assert_eq!(m.spill_lookups(), plan.background.len() as u64);
    }

    #[test]
    fn overfetch_tracker_accounting_is_exact(
        events in proptest::collection::vec((0u64..64, 0u8..3), 1..500)
    ) {
        let mut t = OverfetchTracker::new(64);
        // Shadow model.
        let mut resident: std::collections::BTreeMap<u64, (u64, bool)> = Default::default();
        let mut fetched = 0u64;
        let mut wasted = 0u64;
        for (key, ev) in events {
            match ev {
                0 => {
                    t.fetched(key, 64);
                    fetched += 64;
                    resident.entry(key).and_modify(|(b, _)| *b += 64).or_insert((64, false));
                }
                1 => {
                    t.used(key);
                    if let Some((_, u)) = resident.get_mut(&key) {
                        *u = true;
                    }
                }
                _ => {
                    t.evicted(key);
                    if let Some((b, u)) = resident.remove(&key) {
                        if !u {
                            wasted += b;
                        }
                    }
                }
            }
        }
        // Drain.
        t.evict_all();
        for (_, (b, u)) in resident {
            if !u {
                wasted += b;
            }
        }
        prop_assert_eq!(t.fetched_bytes(), fetched);
        prop_assert_eq!(t.wasted_bytes(), wasted);
    }

    #[test]
    fn overfetch_tracker_matches_reference_model(ops in tracker_ops()) {
        let mut t = OverfetchTracker::new(TABLE_LINES);
        let mut m = TrackerModel::default();
        for op in ops {
            tracker_step(&mut t, &mut m, op)?;
        }
        // Drain what is left; every byte ever fetched is now accounted for.
        tracker_step(&mut t, &mut m, TrackerOp::EvictAll)?;
        prop_assert!(m.resident.is_empty());
    }
}
