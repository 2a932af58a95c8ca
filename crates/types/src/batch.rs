//! Chunked (batched) request buffers for the staged access pipeline.
//!
//! The batched driver processes accesses in chunks: the trace layer fills
//! an [`AccessBatch`] (a flat structure-of-arrays buffer — no per-access
//! [`Access`] construction on the hot path), the controller plans the
//! whole chunk into a [`PlanBuffer`] arena, and the simulator services the
//! planned operations strictly in original access order. The arena is
//! recycled once per chunk instead of clearing an [`AccessPlan`] per
//! access, so the steady-state hot path performs no allocation and no
//! per-access vector resets.
//!
//! Ordering contract: a [`PlanBuffer`] preserves the exact per-access plan
//! sequence — entry `i` holds precisely the operations the controller
//! emitted for access `i` of the chunk, in emission order. Consumers that
//! replay entries `0..len` in order observe byte-identical behavior to the
//! one-at-a-time path.

use crate::addr::Addr;
use crate::plan::{Access, AccessKind, AccessPath, AccessPlan, DeviceOp};

/// A chunk of LLC-miss requests in structure-of-arrays layout.
///
/// The three columns always have identical lengths; index `i` across them
/// is the `i`-th request of the chunk in stream order.
#[derive(Debug, Clone, Default)]
pub struct AccessBatch {
    /// Flat physical byte addresses.
    pub addrs: Vec<u64>,
    /// Read/write markers.
    pub kinds: Vec<AccessKind>,
    /// Instructions retired since each request's predecessor.
    pub insts: Vec<u32>,
}

impl AccessBatch {
    /// Creates an empty batch.
    pub fn new() -> AccessBatch {
        AccessBatch::default()
    }

    /// Creates an empty batch with room for `n` requests per column.
    pub fn with_capacity(n: usize) -> AccessBatch {
        AccessBatch {
            addrs: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            insts: Vec::with_capacity(n),
        }
    }

    /// Number of requests in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the chunk holds no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Empties the chunk, retaining column capacity for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.kinds.clear();
        self.insts.clear();
    }

    /// Appends one request.
    #[inline]
    pub fn push(&mut self, addr: u64, kind: AccessKind, insts: u32) {
        self.addrs.push(addr);
        self.kinds.push(kind);
        self.insts.push(insts);
    }

    /// Materializes request `i` as an [`Access`] (for per-access fallback
    /// paths; the grouped paths read the columns directly).
    #[inline]
    pub fn get(&self, i: usize) -> Access {
        Access { addr: Addr(self.addrs[i]), kind: self.kinds[i], insts: self.insts[i] }
    }
}

/// Per-access slice bounds and scalar results inside a [`PlanBuffer`].
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    /// Exclusive end of this access's critical ops in the shared arena.
    crit_end: u32,
    /// Exclusive end of this access's background ops in the shared arena.
    bg_end: u32,
    /// SRAM metadata lookup cycles for this access.
    metadata_cycles: u32,
    /// Extra non-device stall cycles for this access.
    stall_cycles: u64,
    /// Serve-path classification for this access.
    path: AccessPath,
}

/// A read-only view of one access's plan inside a [`PlanBuffer`] — the
/// batched equivalent of a filled [`AccessPlan`].
#[derive(Debug, Clone, Copy)]
pub struct PlanView<'a> {
    /// Critical-path device operations, in emission order.
    pub critical: &'a [DeviceOp],
    /// Background device operations, in emission order.
    pub background: &'a [DeviceOp],
    /// SRAM metadata lookup cycles preceding the data access.
    pub metadata_cycles: u32,
    /// Extra stall cycles outside the memory devices.
    pub stall_cycles: u64,
    /// How the demand was served.
    pub path: AccessPath,
}

/// A reusable arena of per-access plans for one chunk.
///
/// The controller appends every access's device operations into one shared
/// [`AccessPlan`] whose vectors are cleared once per *chunk* (not per
/// access); [`seal`](PlanBuffer::seal) records the per-access slice bounds
/// so [`views`](PlanBuffer::views) can replay each access's exact plan
/// later. Scalar plan fields (`metadata_cycles`, `stall_cycles`, `path`)
/// are reset per access by [`plan_mut`](PlanBuffer::plan_mut) — resetting
/// three scalars is the entire per-access bookkeeping cost.
#[derive(Debug, Clone, Default)]
pub struct PlanBuffer {
    /// The shared op arena the controller fills. Controllers only ever
    /// append to `critical`/`background`; the slice bounds in `entries`
    /// partition both vectors exactly.
    ops: AccessPlan,
    entries: Vec<PlanEntry>,
}

impl PlanBuffer {
    /// Creates an empty buffer.
    pub fn new() -> PlanBuffer {
        PlanBuffer::default()
    }

    /// Recycles the arena for a new chunk, retaining all capacity.
    #[inline]
    pub fn begin_chunk(&mut self) {
        self.ops.clear();
        self.entries.clear();
    }

    /// Prepares the shared plan for the next access and hands it to the
    /// controller: scalar fields are reset, the op vectors keep the
    /// already-sealed entries' operations in place.
    #[inline]
    pub fn plan_mut(&mut self) -> &mut AccessPlan {
        self.ops.metadata_cycles = 0;
        self.ops.stall_cycles = 0;
        self.ops.path = AccessPath::default();
        &mut self.ops
    }

    /// Seals the current access: snapshots the arena high-water marks and
    /// scalar results as one `PlanEntry`.
    #[inline]
    pub fn seal(&mut self) {
        debug_assert!(
            self.ops.critical.len() <= u32::MAX as usize
                && self.ops.background.len() <= u32::MAX as usize,
            "plan arena exceeded u32 slice bounds"
        );
        self.entries.push(PlanEntry {
            crit_end: self.ops.critical.len() as u32,
            bg_end: self.ops.background.len() as u32,
            metadata_cycles: self.ops.metadata_cycles,
            stall_cycles: self.ops.stall_cycles,
            path: self.ops.path,
        });
    }

    /// Number of sealed per-access plans in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no plans have been sealed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every sealed plan of the chunk in access order, as slices into the
    /// shared arena. The iterator carries running arena cursors: each
    /// entry's slices start where its predecessor's ended.
    #[inline]
    pub fn views(&self) -> impl ExactSizeIterator<Item = PlanView<'_>> + '_ {
        let (mut crit_end, mut bg_end) = (0, 0);
        self.entries.iter().map(move |e| {
            let (crit_start, bg_start) = (crit_end, bg_end);
            (crit_end, bg_end) = (e.crit_end as usize, e.bg_end as usize);
            PlanView {
                critical: &self.ops.critical[crit_start..crit_end],
                background: &self.ops.background[bg_start..bg_end],
                metadata_cycles: e.metadata_cycles,
                stall_cycles: e.stall_cycles,
                path: e.path,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OpKind, TrafficCause, TrafficDevice};

    #[test]
    fn batch_columns_stay_aligned_and_recycle() {
        let mut b = AccessBatch::with_capacity(4);
        assert!(b.is_empty());
        b.push(64, AccessKind::Read, 10);
        b.push(128, AccessKind::Write, 0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), Access { addr: Addr(64), kind: AccessKind::Read, insts: 10 });
        assert_eq!(b.get(1), Access { addr: Addr(128), kind: AccessKind::Write, insts: 0 });
        let cap = b.addrs.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.addrs.capacity(), cap, "clear retains capacity");
    }

    #[test]
    fn plan_buffer_partitions_the_arena_per_access() {
        let mut pb = PlanBuffer::new();
        // Access 0: one critical read, two background ops, some scalars.
        let p = pb.plan_mut();
        p.demand(AccessKind::Read, TrafficDevice::CHbm, Addr(0), 64);
        p.copy(
            (TrafficDevice::OffChip, Addr(128)),
            (TrafficDevice::CHbm, Addr(0)),
            2048,
            TrafficCause::MissFill,
        );
        p.metadata_cycles = 3;
        p.path = AccessPath::ChbmHit;
        pb.seal();
        // Access 1: nothing but a stall.
        let p = pb.plan_mut();
        assert_eq!(p.metadata_cycles, 0, "scalars reset per access");
        assert_eq!(p.path, AccessPath::MissFill);
        assert_eq!(p.critical.len(), 1, "arena keeps sealed ops in place");
        p.stall_cycles = 99;
        pb.seal();
        // Access 2: one critical write.
        let p = pb.plan_mut();
        p.critical.push(DeviceOp {
            at: TrafficDevice::OffChip,
            addr: Addr(64),
            bytes: 64,
            kind: OpKind::Write,
            cause: TrafficCause::DemandWrite,
        });
        pb.seal();

        assert_eq!(pb.len(), 3);
        let mut views = pb.views();
        assert_eq!(views.len(), 3);
        let v0 = views.next().unwrap();
        assert_eq!(v0.critical.len(), 1);
        assert_eq!(v0.background.len(), 2);
        assert_eq!(v0.metadata_cycles, 3);
        assert_eq!(v0.path, AccessPath::ChbmHit);
        let v1 = views.next().unwrap();
        assert!(v1.critical.is_empty() && v1.background.is_empty());
        assert_eq!(v1.stall_cycles, 99);
        let v2 = views.next().unwrap();
        assert_eq!(v2.critical.len(), 1);
        assert_eq!(v2.critical[0].kind, OpKind::Write);
        assert!(v2.background.is_empty());
        assert!(views.next().is_none());
        // The views tile both arena vectors exactly, in order.
        let ops: Vec<DeviceOp> = pb.views().flat_map(|v| v.critical.iter().copied()).collect();
        assert_eq!(ops, pb.ops.critical);
        let ops: Vec<DeviceOp> = pb.views().flat_map(|v| v.background.iter().copied()).collect();
        assert_eq!(ops, pb.ops.background);
    }

    #[test]
    fn begin_chunk_recycles_without_releasing_capacity() {
        let mut pb = PlanBuffer::new();
        for _ in 0..8 {
            pb.plan_mut().demand(AccessKind::Read, TrafficDevice::CHbm, Addr(0), 64);
            pb.seal();
        }
        let cap = pb.ops.critical.capacity();
        pb.begin_chunk();
        assert!(pb.is_empty());
        assert!(pb.ops.critical.is_empty());
        assert_eq!(pb.ops.critical.capacity(), cap, "arena recycle keeps capacity");
    }
}
