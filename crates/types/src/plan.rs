//! The request/response contract between memory *policies* and the timing
//! simulator.
//!
//! A hybrid-memory controller in this workspace is a pure policy: for each
//! LLC-miss [`Access`] it fills an [`AccessPlan`] describing which device
//! operations happen on the critical path, which data movement proceeds in
//! the background (the paper's asynchronous data-movement module), and how
//! many cycles of metadata lookup precede the data access. The simulator in
//! `memsim-sim` executes plans against the DRAM timing models; this split
//! keeps every policy independently unit-testable.

use crate::addr::Addr;

/// Read or write, as seen below the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read (LLC load/ifetch miss).
    Read,
    /// A write (LLC writeback of a dirty line).
    Write,
}

/// One LLC-miss memory request presented to a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Flat physical byte address.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// Instructions retired since the previous LLC miss (used for IPC
    /// accounting; 0 when unknown).
    pub insts: u32,
}

impl Access {
    /// Convenience constructor for a read with no instruction gap.
    pub fn read(addr: Addr) -> Access {
        Access { addr, kind: AccessKind::Read, insts: 0 }
    }

    /// Convenience constructor for a write with no instruction gap.
    pub fn write(addr: Addr) -> Access {
        Access { addr, kind: AccessKind::Write, insts: 0 }
    }
}

/// Which memory device an operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mem {
    /// Die-stacked high-bandwidth memory.
    Hbm,
    /// Off-chip DRAM.
    OffChip,
}

/// Device-level operation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read `bytes` from the device.
    Read,
    /// Write `bytes` to the device.
    Write,
}

/// Why an operation was issued — the traffic taxonomy behind Fig. 8(b/c)
/// and the §IV-D mode-switch/metadata analyses. Every DRAM transaction in
/// the workspace is tagged with exactly one cause at its issue site, so
/// per-device cause sums reconcile exactly against the raw
/// `DeviceCounters` byte totals (checked by `trace_tool bandwidth`).
///
/// Mapping to the paper's §III-E mechanisms:
/// [`Writeback`](TrafficCause::Writeback) covers rule-1/2 buffered
/// evictions and plain dirty-data writebacks,
/// [`ZombieEvict`](TrafficCause::ZombieEvict) rule 3,
/// [`MigrationPromote`](TrafficCause::MigrationPromote) /
/// [`MigrationDemote`](TrafficCause::MigrationDemote) the rule-4 swaps
/// and cHBM→mHBM mode switches, and
/// [`PressureFlush`](TrafficCause::PressureFlush) the rule-5 batched
/// flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficCause {
    /// Serving a demand read (LLC load/ifetch miss) itself.
    DemandRead,
    /// Serving a demand write (dirty LLC writeback) itself.
    DemandWrite,
    /// Filling a cache block/page into HBM on a miss (including the
    /// off-chip read side of the fill and OS swap-ins).
    MissFill,
    /// Writing back dirty data (rule-1/2 buffered evictions, victim and
    /// capacity writebacks, lazy dirty-block flushes).
    Writeback,
    /// Data moving *toward* HBM residency: rule-4 swap-ins, frequency-won
    /// promotions, cHBM→mHBM upgrades fetching missing blocks.
    MigrationPromote,
    /// Data moving *away* from HBM residency: rule-4 swap-outs, mHBM→cHBM
    /// downgrade copies, POM demotion legs.
    MigrationDemote,
    /// Rule-3 zombie-page eviction traffic.
    ZombieEvict,
    /// Rule-5 batched cHBM pressure-flush traffic.
    PressureFlush,
    /// Metadata structures stored in memory (tags, remap tables, SRAM
    /// spill reads).
    Metadata,
}

impl TrafficCause {
    /// Every cause, in the canonical report order.
    pub const ALL: [TrafficCause; 9] = [
        TrafficCause::DemandRead,
        TrafficCause::DemandWrite,
        TrafficCause::MissFill,
        TrafficCause::Writeback,
        TrafficCause::MigrationPromote,
        TrafficCause::MigrationDemote,
        TrafficCause::ZombieEvict,
        TrafficCause::PressureFlush,
        TrafficCause::Metadata,
    ];

    /// Stable snake_case label used in JSONL artifacts and reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficCause::DemandRead => "demand_read",
            TrafficCause::DemandWrite => "demand_write",
            TrafficCause::MissFill => "miss_fill",
            TrafficCause::Writeback => "writeback",
            TrafficCause::MigrationPromote => "migration_promote",
            TrafficCause::MigrationDemote => "migration_demote",
            TrafficCause::ZombieEvict => "zombie_evict",
            TrafficCause::PressureFlush => "pressure_flush",
            TrafficCause::Metadata => "metadata",
        }
    }

    /// The dense index of this cause within [`TrafficCause::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TrafficCause::DemandRead => 0,
            TrafficCause::DemandWrite => 1,
            TrafficCause::MissFill => 2,
            TrafficCause::Writeback => 3,
            TrafficCause::MigrationPromote => 4,
            TrafficCause::MigrationDemote => 5,
            TrafficCause::ZombieEvict => 6,
            TrafficCause::PressureFlush => 7,
            TrafficCause::Metadata => 8,
        }
    }
}

/// The traffic-accounting device class an operation lands on. HBM splits
/// by residency mode — mHBM (memory-mode / part-of-memory) frames versus
/// cHBM (cache-mode) frames — because the paper's bandwidth argument is
/// exactly about shifting traffic between the two; off-chip DRAM is one
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficDevice {
    /// Memory-mode (part-of-memory) HBM frames.
    MHbm,
    /// Cache-mode HBM frames.
    CHbm,
    /// Off-chip DRAM.
    OffChip,
}

impl TrafficDevice {
    /// Every device class, in the canonical report order.
    pub const ALL: [TrafficDevice; 3] =
        [TrafficDevice::MHbm, TrafficDevice::CHbm, TrafficDevice::OffChip];

    /// Stable snake_case label used in JSONL artifacts and reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficDevice::MHbm => "mhbm",
            TrafficDevice::CHbm => "chbm",
            TrafficDevice::OffChip => "offchip",
        }
    }

    /// The dense index of this class within [`TrafficDevice::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TrafficDevice::MHbm => 0,
            TrafficDevice::CHbm => 1,
            TrafficDevice::OffChip => 2,
        }
    }
}

/// A single device operation.
///
/// Controllers build their demand and copy traffic through
/// [`AccessPlan::demand`] and [`AccessPlan::copy`]; a literal is for an op
/// that is neither (a probe, a one-sided fill or writeback, a metadata
/// read) or for a swap whose four legs interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceOp {
    /// The device class the operation lands on: an mHBM or cHBM frame, or
    /// off-chip DRAM. The timing model reads only its [`mem`](Self::mem).
    pub at: TrafficDevice,
    /// Device-local byte address (within the device's own address range).
    pub addr: Addr,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Direction.
    pub kind: OpKind,
    /// Reason this traffic exists.
    pub cause: TrafficCause,
}

impl DeviceOp {
    /// The memory device the operation targets: both HBM classes are the
    /// one HBM stack.
    #[inline]
    pub fn mem(&self) -> Mem {
        match self.at {
            TrafficDevice::MHbm | TrafficDevice::CHbm => Mem::Hbm,
            TrafficDevice::OffChip => Mem::OffChip,
        }
    }
}

/// Which serve path an access took through the hybrid-memory hierarchy —
/// the request-tracing taxonomy of the paper's §III access rules.
///
/// The five variants partition every access exactly: HBM-served requests
/// are [`MhbmHit`](AccessPath::MhbmHit) or [`ChbmHit`](AccessPath::ChbmHit)
/// (they sum to `CtrlStats::hbm_hits`); off-chip-served requests are
/// [`MissFill`](AccessPath::MissFill), [`SlBypass`](AccessPath::SlBypass)
/// or [`Migration`](AccessPath::Migration) (they sum to
/// `CtrlStats::offchip_serves`). `trace_tool latency` checks that
/// reconciliation on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AccessPath {
    /// Served from an mHBM (memory-mode / part-of-memory) HBM frame.
    MhbmHit,
    /// Served from a cHBM (cache-mode) HBM frame.
    ChbmHit,
    /// Served off-chip; the plain miss path (any fill traffic rides in the
    /// background). The default classification until a controller refines
    /// it.
    #[default]
    MissFill,
    /// Served off-chip and *not* cached: the service-level / hotness
    /// threshold rejected the fill (Bumblebee's T-gate, Banshee's
    /// frequency margin).
    SlBypass,
    /// Served off-chip and the access triggered a page migration or swap
    /// into HBM (rule 3/4 movement, frequency-won promotions).
    Migration,
}

impl AccessPath {
    /// Every path, in the canonical report order.
    pub const ALL: [AccessPath; 5] = [
        AccessPath::MhbmHit,
        AccessPath::ChbmHit,
        AccessPath::MissFill,
        AccessPath::SlBypass,
        AccessPath::Migration,
    ];

    /// Stable snake_case label used in JSONL artifacts and reports.
    pub fn label(self) -> &'static str {
        match self {
            AccessPath::MhbmHit => "mhbm_hit",
            AccessPath::ChbmHit => "chbm_hit",
            AccessPath::MissFill => "miss_fill",
            AccessPath::SlBypass => "sl_bypass",
            AccessPath::Migration => "migration",
        }
    }

    /// The dense index of this path within [`AccessPath::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AccessPath::MhbmHit => 0,
            AccessPath::ChbmHit => 1,
            AccessPath::MissFill => 2,
            AccessPath::SlBypass => 3,
            AccessPath::Migration => 4,
        }
    }
}

/// Stall cycles charged per OS page fault, the swap-in penalty of ~10 µs
/// at 3.6 GHz. Every design that faults adds it to
/// [`AccessPlan::stall_cycles`].
pub const FAULT_STALL_CYCLES: u64 = 36_000;

/// The controller's answer to one [`Access`]: what the memory system must do.
///
/// Plans are designed for reuse — the simulator calls [`AccessPlan::clear`]
/// and hands the same plan to the controller for every request, so the
/// per-request hot path performs no allocation once the vectors have grown.
#[derive(Debug, Clone, Default)]
pub struct AccessPlan {
    /// Operations on the demand critical path, executed in order.
    pub critical: Vec<DeviceOp>,
    /// Asynchronous operations (fills, migrations, writebacks); they consume
    /// bandwidth and energy but do not stall the demand request.
    pub background: Vec<DeviceOp>,
    /// On-chip SRAM metadata lookup cycles preceding the data access.
    pub metadata_cycles: u32,
    /// Extra stall cycles outside the memory devices (e.g. the OS
    /// page-fault/swap penalty when a footprint exceeds OS-visible memory).
    pub stall_cycles: u64,
    /// How the demand was served (set by the controller alongside the
    /// device ops; [`AccessPath::MissFill`] until classified).
    pub path: AccessPath,
}

impl AccessPlan {
    /// Creates an empty plan.
    pub fn new() -> AccessPlan {
        AccessPlan::default()
    }

    /// Clears the plan for reuse without releasing capacity.
    pub fn clear(&mut self) {
        self.critical.clear();
        self.background.clear();
        self.metadata_cycles = 0;
        self.stall_cycles = 0;
        self.path = AccessPath::default();
    }

    /// Pushes a request's own transfer of `bytes` at `addr` on `at`. A
    /// read waits on the critical path; a write is posted to the
    /// background, since the core does not wait for it.
    #[inline]
    pub fn demand(&mut self, kind: AccessKind, at: TrafficDevice, addr: Addr, bytes: u32) {
        let (ops, kind, cause) = match kind {
            AccessKind::Read => (&mut self.critical, OpKind::Read, TrafficCause::DemandRead),
            AccessKind::Write => (&mut self.background, OpKind::Write, TrafficCause::DemandWrite),
        };
        ops.push(DeviceOp { at, addr, bytes, kind, cause });
    }

    /// Pushes a background copy of `bytes`: a read at `from` followed by a
    /// write at `to`, both attributed to `cause`. Each side names its
    /// device class and device-local address.
    #[inline]
    pub fn copy(
        &mut self,
        from: (TrafficDevice, Addr),
        to: (TrafficDevice, Addr),
        bytes: u32,
        cause: TrafficCause,
    ) {
        let (at, addr) = from;
        self.background.push(DeviceOp { at, addr, bytes, kind: OpKind::Read, cause });
        let (at, addr) = to;
        self.background.push(DeviceOp { at, addr, bytes, kind: OpKind::Write, cause });
    }

    /// Total bytes moved on `mem` (critical + background).
    pub fn bytes_on(&self, mem: Mem) -> u64 {
        self.critical
            .iter()
            .chain(&self.background)
            .filter(|op| op.mem() == mem)
            .map(|op| u64::from(op.bytes))
            .sum()
    }

    /// Total bytes attributed to `cause` (critical + background).
    pub fn bytes_for(&self, cause: TrafficCause) -> u64 {
        self.critical
            .iter()
            .chain(&self.background)
            .filter(|op| op.cause == cause)
            .map(|op| u64::from(op.bytes))
            .sum()
    }

    /// Whether the plan moves no data at all.
    pub fn is_empty(&self) -> bool {
        self.critical.is_empty() && self.background.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_constructors() {
        let r = Access::read(Addr(64));
        assert_eq!(r.kind, AccessKind::Read);
        let w = Access::write(Addr(64));
        assert_eq!(w.kind, AccessKind::Write);
    }

    #[test]
    fn plan_accounting() {
        let mut plan = AccessPlan::new();
        assert!(plan.is_empty());
        plan.demand(AccessKind::Read, TrafficDevice::CHbm, Addr(0), 64);
        plan.copy(
            (TrafficDevice::OffChip, Addr(128)),
            (TrafficDevice::CHbm, Addr(0)),
            2048,
            TrafficCause::MissFill,
        );
        assert_eq!(plan.bytes_on(Mem::Hbm), 64 + 2048);
        assert_eq!(plan.bytes_on(Mem::OffChip), 2048);
        assert_eq!(plan.bytes_for(TrafficCause::DemandRead), 64);
        assert_eq!(plan.bytes_for(TrafficCause::MissFill), 4096);
        assert!(!plan.is_empty());
    }

    #[test]
    fn demand_and_copy_place_each_op_by_class_kind_and_cause() {
        let mut plan = AccessPlan::new();
        plan.demand(AccessKind::Read, TrafficDevice::MHbm, Addr(64), 64);
        plan.demand(AccessKind::Write, TrafficDevice::OffChip, Addr(128), 72);
        let read = DeviceOp {
            at: TrafficDevice::MHbm,
            addr: Addr(64),
            bytes: 64,
            kind: OpKind::Read,
            cause: TrafficCause::DemandRead,
        };
        let write = DeviceOp {
            at: TrafficDevice::OffChip,
            addr: Addr(128),
            bytes: 72,
            kind: OpKind::Write,
            cause: TrafficCause::DemandWrite,
        };
        assert_eq!(plan.critical, [read], "demand reads wait on the critical path");
        assert_eq!(plan.background, [write], "demand writes are posted");
        plan.copy(
            (TrafficDevice::CHbm, Addr(4096)),
            (TrafficDevice::OffChip, Addr(8192)),
            2048,
            TrafficCause::Writeback,
        );
        assert_eq!(plan.critical.len(), 1, "copies never touch the critical path");
        assert_eq!(
            plan.background[1..],
            [
                DeviceOp {
                    at: TrafficDevice::CHbm,
                    addr: Addr(4096),
                    bytes: 2048,
                    kind: OpKind::Read,
                    cause: TrafficCause::Writeback,
                },
                DeviceOp {
                    at: TrafficDevice::OffChip,
                    addr: Addr(8192),
                    bytes: 2048,
                    kind: OpKind::Write,
                    cause: TrafficCause::Writeback,
                },
            ]
        );
        assert_eq!(plan.critical[0].mem(), Mem::Hbm);
        assert_eq!(plan.background[1].mem(), Mem::Hbm);
        assert_eq!(plan.background[2].mem(), Mem::OffChip);
    }

    #[test]
    fn traffic_causes_and_devices_round_trip_labels() {
        for (i, c) in TrafficCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, d) in TrafficDevice::ALL.into_iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn clear_retains_capacity() {
        let mut plan = AccessPlan::new();
        plan.critical.reserve(16);
        plan.demand(AccessKind::Read, TrafficDevice::CHbm, Addr(0), 64);
        plan.metadata_cycles = 3;
        plan.stall_cycles = 99;
        plan.path = AccessPath::ChbmHit;
        let cap = plan.critical.capacity();
        plan.clear();
        assert!(plan.is_empty());
        assert_eq!(plan.metadata_cycles, 0);
        assert_eq!(plan.stall_cycles, 0);
        assert_eq!(plan.path, AccessPath::MissFill);
        assert_eq!(plan.critical.capacity(), cap);
    }

    #[test]
    fn access_paths_round_trip_labels_and_partition() {
        for (i, p) in AccessPath::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(AccessPath::default(), AccessPath::MissFill);
    }
}
