//! Helpers shared by every baseline.

use memsim_obs::{EpochGauges, Telemetry};
use memsim_types::{AccessPlan, Addr, CtrlStats, DeviceOp, Mem, OpKind, TrafficCause};

/// OS page size used for fault accounting.
pub const OS_PAGE_BYTES: u64 = 4096;

/// Stall charged per OS page fault (~10 µs at 3.6 GHz).
pub const FAULT_STALL_CYCLES: u64 = 36_000;

/// Models OS paging pressure for designs whose OS-visible memory is smaller
/// than the workload footprint (every cache-only design, and the no-HBM
/// reference).
///
/// Addresses at or beyond `os_visible_bytes` belong to pages the OS cannot
/// keep resident alongside everything else. A bounded direct-mapped recency
/// table stands in for the OS page cache over that overflow region: a tag
/// miss is a major fault — the incoming page is charged a swap-in stall and
/// an off-chip DRAM page write (disk→memory), and conflicting pages re-fault
/// on cyclic sweeps just as a thrashing system would.
#[derive(Debug, Clone)]
pub struct FaultModel {
    os_visible_bytes: u64,
    /// `page + 1` of the page each entry holds; zero is an empty entry, so
    /// a zeroed allocation is the empty table.
    table: Vec<u32>,
    faults: u64,
}

impl FaultModel {
    /// Creates a fault model for a design exposing `os_visible_bytes` to
    /// the OS, with an overflow recency table of `table_pages` entries.
    pub fn new(os_visible_bytes: u64, table_pages: usize) -> FaultModel {
        FaultModel {
            os_visible_bytes,
            table: vec![0; table_pages.max(1)],
            faults: 0,
        }
    }

    /// Fault model sized for typical experiments (16 K overflow pages).
    pub fn with_default_table(os_visible_bytes: u64) -> FaultModel {
        FaultModel::new(os_visible_bytes, 16 << 10)
    }

    /// Major faults observed so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Checks `addr` before the access proper; on a fault, pushes the
    /// swap-in traffic into `plan` and charges the stall. Returns the
    /// address wrapped into the OS-visible range (where the page actually
    /// resides once faulted in).
    ///
    /// # Panics
    ///
    /// If `addr`'s page number is `u32::MAX` or more (an address of
    /// 16 TiB or more), which the table's `u32` entries cannot hold.
    pub fn translate(&mut self, addr: Addr, plan: &mut AccessPlan) -> Addr {
        if addr.0 < self.os_visible_bytes {
            return addr;
        }
        let page = addr.0 / OS_PAGE_BYTES;
        let entry = u32::try_from(page + 1)
            .unwrap_or_else(|_| panic!("page {page} does not fit the fault table's u32 entries"));
        let idx = (page % self.table.len() as u64) as usize;
        if self.table[idx] != entry {
            self.table[idx] = entry;
            self.faults += 1;
            plan.stall_cycles += FAULT_STALL_CYCLES;
            let resident = Addr((addr.0 % self.os_visible_bytes) & !(OS_PAGE_BYTES - 1));
            plan.background.push(DeviceOp {
                mem: Mem::OffChip,
                addr: resident,
                bytes: OS_PAGE_BYTES as u32,
                kind: OpKind::Write,
                cause: TrafficCause::MissFill,
                mhbm: false,
            });
        }
        Addr(addr.0 % self.os_visible_bytes)
    }
}

/// Epoch tick shared by every baseline: counts one access on `telemetry`
/// and samples a snapshot at epoch boundaries. `gauges` is only invoked
/// when a sample is actually due, so the disabled path never computes them.
pub fn tick_epoch(
    telemetry: &mut Telemetry,
    stats: &CtrlStats,
    gauges: impl FnOnce() -> EpochGauges,
) {
    if telemetry.tick() {
        let g = gauges();
        telemetry.sample(stats, g);
    }
}

/// Simple per-set LRU state for small associativities, stored as one `u8`
/// rank per way (0 = MRU).
#[derive(Debug, Clone)]
pub struct LruRanks {
    ranks: Vec<u8>,
    ways: u32,
}

impl LruRanks {
    /// Creates ranks for `sets × ways` lines, each set initialized oldest
    /// last.
    pub fn new(sets: usize, ways: u32) -> LruRanks {
        let mut ranks = Vec::with_capacity(sets * ways as usize);
        for _ in 0..sets {
            for w in 0..ways {
                ranks.push(w as u8);
            }
        }
        LruRanks { ranks, ways }
    }

    /// Marks `way` of `set` most recently used.
    pub fn touch(&mut self, set: usize, way: u32) {
        let base = set * self.ways as usize;
        let old = self.ranks[base + way as usize];
        for w in 0..self.ways as usize {
            if self.ranks[base + w] < old {
                self.ranks[base + w] += 1;
            }
        }
        self.ranks[base + way as usize] = 0;
    }

    /// The least recently used way of `set`.
    pub fn lru(&self, set: usize) -> u32 {
        let base = set * self.ways as usize;
        (0..self.ways)
            .max_by_key(|&w| self.ranks[base + w as usize])
            .expect("ways > 0") // ways >= 1 is a constructor invariant; max over a non-empty range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_addresses_pass_through() {
        let mut f = FaultModel::new(1 << 20, 64);
        let mut plan = AccessPlan::new();
        assert_eq!(f.translate(Addr(4096), &mut plan), Addr(4096));
        assert_eq!(f.faults(), 0);
        assert!(plan.is_empty());
    }

    #[test]
    fn first_touch_beyond_capacity_faults_once() {
        let mut f = FaultModel::new(1 << 20, 64);
        let mut plan = AccessPlan::new();
        let a = Addr((1 << 20) + 8192);
        let t1 = f.translate(a, &mut plan);
        assert_eq!(t1, Addr(8192));
        assert_eq!(f.faults(), 1);
        assert_eq!(plan.stall_cycles, FAULT_STALL_CYCLES);
        // Second touch of the same page: warm.
        let stall_before = plan.stall_cycles;
        f.translate(Addr(a.0 + 64), &mut plan);
        assert_eq!(f.faults(), 1);
        assert_eq!(plan.stall_cycles, stall_before);
    }

    #[test]
    fn top_page_faults_once_then_stays_warm() {
        let mut f = FaultModel::new(1 << 20, 64);
        let mut plan = AccessPlan::new();
        let top = Addr(u64::from(u32::MAX - 1) * OS_PAGE_BYTES);
        f.translate(top, &mut plan);
        assert_eq!(f.faults(), 1);
        f.translate(Addr(top.0 + OS_PAGE_BYTES - 64), &mut plan);
        assert_eq!(f.faults(), 1, "the top page's entry must stay warm");
    }

    #[test]
    #[should_panic(expected = "page 4294967295 does not fit the fault table's u32 entries")]
    fn page_past_u32_panics() {
        let mut f = FaultModel::new(1 << 20, 64);
        let past = Addr(u64::from(u32::MAX) * OS_PAGE_BYTES);
        f.translate(past, &mut AccessPlan::new());
    }

    #[test]
    fn conflicting_pages_refault() {
        let mut f = FaultModel::new(1 << 20, 4);
        let mut plan = AccessPlan::new();
        // Pages 256 and 260 conflict in a 4-entry table (256 % 4 == 260 % 4).
        f.translate(Addr(256 * 4096 + (1 << 20) - (1 << 20)), &mut plan); // in range, no fault
        let p1 = Addr(1 << 20); // page 256
        let p2 = Addr((1 << 20) + 4 * 4096); // page 260
        f.translate(p1, &mut plan);
        f.translate(p2, &mut plan);
        f.translate(p1, &mut plan);
        assert_eq!(f.faults(), 3, "cyclic conflict must re-fault");
    }

    #[test]
    fn lru_ranks_evict_oldest() {
        let mut l = LruRanks::new(2, 4);
        assert_eq!(l.lru(0), 3);
        l.touch(0, 3);
        assert_eq!(l.lru(0), 2);
        l.touch(0, 2);
        l.touch(0, 1);
        l.touch(0, 0);
        assert_eq!(l.lru(0), 3, "way 3 oldest again");
        // Set 1 untouched by set 0 activity.
        assert_eq!(l.lru(1), 3);
    }
}
