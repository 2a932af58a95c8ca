//! Cause-attributed traffic accounting and bandwidth-utilization gauges.
//!
//! Every DRAM transaction a controller issues carries a
//! [`TrafficCause`] tag and an mHBM-residency flag; this module turns
//! that stream into:
//!
//! * [`TrafficMatrix`] — per-device-class
//!   ([`TrafficDevice`]: mHBM / cHBM / off-chip) per-cause byte and op
//!   counters, pure integers;
//! * [`TrafficAccum`] — the matrix plus per-class op-size
//!   [`Pow2Histogram`]s and a per-access DRAM-op fan-out (MLP proxy)
//!   histogram;
//! * [`BwPoint`] — one epoch boundary's cumulative snapshot of class
//!   bytes, sim cycles and per-channel data-bus busy cycles;
//! * [`reconcile`] — the hard exact check that the cause-attributed byte
//!   sums equal the devices' undifferentiated
//!   `DeviceCounters::total_bytes` totals (an unclassified or
//!   double-counted transaction fails it).
//!
//! Everything here lives in the simulated cycle domain and is a pure
//! function of the access stream — `.bw.jsonl` output derived from it is
//! byte-identical at any `--jobs`/`--batch` width.

use crate::hist::Pow2Histogram;
use memsim_types::{AccessPlan, DeviceOp, TrafficCause, TrafficDevice};

/// Number of traffic causes (rows of Table-style breakdowns).
pub const NUM_CAUSES: usize = TrafficCause::ALL.len();
/// Number of traffic device classes (mHBM / cHBM / off-chip).
pub const NUM_DEVICE_CLASSES: usize = TrafficDevice::ALL.len();

/// Per-device-class, per-cause byte and op counters (integers only).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficMatrix {
    bytes: [[u64; NUM_CAUSES]; NUM_DEVICE_CLASSES],
    ops: [[u64; NUM_CAUSES]; NUM_DEVICE_CLASSES],
}

impl TrafficMatrix {
    /// An all-zero matrix.
    pub fn new() -> TrafficMatrix {
        TrafficMatrix::default()
    }

    /// Records one transaction of `bytes` on `device` attributed to
    /// `cause`.
    // audit: hot-path
    #[inline]
    pub fn record(&mut self, device: TrafficDevice, cause: TrafficCause, bytes: u64) {
        self.bytes[device.index()][cause.index()] += bytes;
        self.ops[device.index()][cause.index()] += 1;
    }

    /// Bytes recorded for `(device, cause)`.
    pub fn bytes(&self, device: TrafficDevice, cause: TrafficCause) -> u64 {
        self.bytes[device.index()][cause.index()]
    }

    /// Transactions recorded for `(device, cause)`.
    pub fn ops(&self, device: TrafficDevice, cause: TrafficCause) -> u64 {
        self.ops[device.index()][cause.index()]
    }

    /// Total bytes on `device`, summed over every cause.
    pub fn device_bytes(&self, device: TrafficDevice) -> u64 {
        self.bytes[device.index()].iter().sum()
    }

    /// Total bytes attributed to `cause`, summed over every device class.
    pub fn cause_bytes(&self, cause: TrafficCause) -> u64 {
        self.bytes.iter().map(|row| row[cause.index()]).sum()
    }

    /// Total transactions on `device`, summed over every cause.
    pub fn device_ops(&self, device: TrafficDevice) -> u64 {
        self.ops[device.index()].iter().sum()
    }

    /// Grand total of attributed bytes.
    // audit: unit(bytes)
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }
}

/// Hard exact reconciliation of the cause-attributed byte sums against
/// the devices' undifferentiated byte totals.
///
/// `hbm_total_bytes` / `offchip_total_bytes` come from
/// `DeviceCounters::total_bytes()`; the mHBM and cHBM classes both live
/// on the physical HBM stack, so their sum must equal the HBM total
/// exactly — any unclassified, dropped or double-counted transaction
/// shows up as a mismatch.
///
/// # Errors
///
/// Returns a human-readable description of the first mismatching device.
pub fn reconcile(
    matrix: &TrafficMatrix,
    hbm_total_bytes: u64,
    offchip_total_bytes: u64,
) -> Result<(), String> {
    let hbm = matrix.device_bytes(TrafficDevice::MHbm) + matrix.device_bytes(TrafficDevice::CHbm);
    if hbm != hbm_total_bytes {
        return Err(format!(
            "hbm cause-sum {hbm} != device total {hbm_total_bytes} \
             (mhbm {} + chbm {})",
            matrix.device_bytes(TrafficDevice::MHbm),
            matrix.device_bytes(TrafficDevice::CHbm),
        ));
    }
    let offchip = matrix.device_bytes(TrafficDevice::OffChip);
    if offchip != offchip_total_bytes {
        return Err(format!(
            "offchip cause-sum {offchip} != device total {offchip_total_bytes}"
        ));
    }
    Ok(())
}

/// The full traffic-accounting state of one run:
/// the cause matrix, per-class op-size distributions, and the per-access
/// DRAM-op fan-out histogram (a memory-level-parallelism proxy — how many
/// transactions one LLC miss expands into).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficAccum {
    /// Per-class per-cause byte/op counters.
    pub matrix: TrafficMatrix,
    /// Op-size distribution per device class, indexed by
    /// [`TrafficDevice::index`].
    pub size: [Pow2Histogram; NUM_DEVICE_CLASSES],
    /// Transactions issued per access (critical + background, metadata
    /// included): the plan fan-out / MLP proxy.
    pub mlp: Pow2Histogram,
}

impl TrafficAccum {
    /// An empty accumulator.
    pub fn new() -> TrafficAccum {
        TrafficAccum::default()
    }

    /// Records one device transaction.
    // audit: hot-path
    #[inline]
    pub fn record_op(&mut self, op: &DeviceOp) {
        let device = op.device();
        self.matrix.record(device, op.cause, u64::from(op.bytes));
        self.size[device.index()].record(u64::from(op.bytes));
    }

    /// Records every transaction of one access's plan (its critical and
    /// background op slices) plus its fan-out sample. Call exactly once
    /// per access, after the controller sealed the plan.
    // audit: hot-path
    pub fn record_view(&mut self, critical: &[DeviceOp], background: &[DeviceOp]) {
        for op in critical.iter().chain(background) {
            self.record_op(op);
        }
        self.mlp.record((critical.len() + background.len()) as u64);
    }

    /// Records a drain plan (end-of-run controller flush): transactions
    /// only, no fan-out sample — drains are not accesses.
    // audit: hot-path
    pub fn record_drain(&mut self, plan: &AccessPlan) {
        for op in plan.critical.iter().chain(&plan.background) {
            self.record_op(op);
        }
    }
}

/// One epoch boundary's cumulative bandwidth snapshot: class bytes, sim
/// cycles, and per-channel data-bus busy cycles.
///
/// Everything is cumulative-from-zero and integer. Utilization is derived
/// at emit time from consecutive snapshots' deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BwPoint {
    /// Cumulative bytes per device class, indexed by
    /// [`TrafficDevice::index`].
    pub class_bytes: [u64; NUM_DEVICE_CLASSES], // audit: unit(bytes)
    /// Cumulative simulated cycles.
    pub cycles: u64, // audit: unit(cycles)
    /// Cumulative per-channel busy cycles of the HBM stack's data buses.
    pub hbm_busy: Vec<u64>, // audit: unit(cycles)
    /// Cumulative per-channel busy cycles of the off-chip DRAM buses.
    pub dram_busy: Vec<u64>, // audit: unit(cycles)
}

impl BwPoint {
    /// An all-zero snapshot for a device pair with the given channel
    /// counts.
    pub fn zeroed(hbm_channels: usize, dram_channels: usize) -> BwPoint {
        BwPoint {
            class_bytes: [0; NUM_DEVICE_CLASSES],
            cycles: 0,
            hbm_busy: vec![0; hbm_channels],
            dram_busy: vec![0; dram_channels],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_types::{Addr, DeviceOp, Mem, OpKind};

    fn op(mem: Mem, bytes: u32, cause: TrafficCause, mhbm: bool) -> DeviceOp {
        DeviceOp { mem, addr: Addr(0), bytes, kind: OpKind::Read, cause, mhbm }
    }

    #[test]
    fn matrix_partitions_by_device_and_cause() {
        let mut m = TrafficMatrix::new();
        m.record(TrafficDevice::MHbm, TrafficCause::DemandRead, 64);
        m.record(TrafficDevice::CHbm, TrafficCause::MissFill, 2048);
        m.record(TrafficDevice::OffChip, TrafficCause::Writeback, 2048);
        m.record(TrafficDevice::OffChip, TrafficCause::DemandRead, 64);
        assert_eq!(m.total_bytes(), 64 + 2048 + 2048 + 64);
        assert_eq!(m.device_bytes(TrafficDevice::OffChip), 2112);
        assert_eq!(m.cause_bytes(TrafficCause::DemandRead), 128);
        assert_eq!(m.ops(TrafficDevice::OffChip, TrafficCause::Writeback), 1);
        assert_eq!(m.device_ops(TrafficDevice::OffChip), 2);
        let device_sum: u64 =
            TrafficDevice::ALL.into_iter().map(|d| m.device_bytes(d)).sum();
        let cause_sum: u64 = TrafficCause::ALL.into_iter().map(|c| m.cause_bytes(c)).sum();
        assert_eq!(device_sum, m.total_bytes());
        assert_eq!(cause_sum, m.total_bytes());
    }

    #[test]
    fn accum_records_plans_and_reconciles() {
        let mut acc = TrafficAccum::new();
        let mut plan = AccessPlan::new();
        plan.critical.push(op(Mem::Hbm, 64, TrafficCause::DemandRead, true));
        plan.background.push(op(Mem::OffChip, 2048, TrafficCause::MissFill, false));
        plan.background.push(op(Mem::Hbm, 2048, TrafficCause::MissFill, false));
        acc.record_view(&plan.critical, &plan.background);
        assert_eq!(acc.matrix.device_bytes(TrafficDevice::MHbm), 64);
        assert_eq!(acc.matrix.device_bytes(TrafficDevice::CHbm), 2048);
        assert_eq!(acc.matrix.device_bytes(TrafficDevice::OffChip), 2048);
        assert_eq!(acc.mlp.total(), 1);
        assert_eq!(acc.mlp.max(), 3);
        assert_eq!(acc.size[TrafficDevice::MHbm.index()].total(), 1);
        // The attributed sums reconcile against the device totals.
        reconcile(&acc.matrix, 64 + 2048, 2048).unwrap();
        // A drain records ops but no fan-out sample.
        acc.record_drain(&plan);
        assert_eq!(acc.mlp.total(), 1);
        assert_eq!(acc.matrix.device_bytes(TrafficDevice::OffChip), 4096);
    }

    #[test]
    fn doctored_unclassified_transaction_fails_reconciliation() {
        let mut acc = TrafficAccum::new();
        let mut plan = AccessPlan::new();
        plan.critical.push(op(Mem::Hbm, 64, TrafficCause::DemandRead, false));
        plan.background.push(op(Mem::OffChip, 4096, TrafficCause::Writeback, false));
        acc.record_view(&plan.critical, &plan.background);
        reconcile(&acc.matrix, 64, 4096).unwrap();
        // Doctor the device side: pretend a 64-byte transaction reached the
        // off-chip device without being attributed to any cause.
        let err = reconcile(&acc.matrix, 64, 4096 + 64).unwrap_err();
        assert!(err.contains("offchip cause-sum 4096 != device total 4160"), "{err}");
        // And the HBM side reports its class split in the message.
        let err = reconcile(&acc.matrix, 128, 4096).unwrap_err();
        assert!(err.contains("hbm cause-sum 64 != device total 128"), "{err}");
    }
}
