//! Channel and bank state machines.
//!
//! A channel owns a data bus (`bus_free_at`) and a set of banks, each with an
//! open-row register. Accesses are scheduled greedily in arrival order
//! (FR-FCFS row hits are naturally captured because consecutive requests to
//! an open row skip the activate).

use crate::config::{CpuTimings, DeviceConfig};

/// The open-row value of a precharged bank. No decoded row reaches it:
/// a row index is a device-local address divided by the row span, so it
/// is below `u64::MAX`.
const CLOSED: u64 = u64::MAX;

/// One bank: open row and earliest next command time.
#[derive(Debug, Clone, Copy)]
struct Bank {
    /// The open row, or [`CLOSED`].
    open_row: u64,
    ready_at: u64,
    /// Earliest time the row may be precharged (tRAS constraint).
    precharge_ok_at: u64,
}

impl Default for Bank {
    fn default() -> Bank {
        Bank { open_row: CLOSED, ready_at: 0, precharge_ok_at: 0 }
    }
}

/// Outcome of scheduling one chunk on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkResult {
    /// Cycle the data transfer completes.
    pub done_at: u64,
    /// Whether the access hit the open row. Every miss performs exactly
    /// one activate (with an implicit precharge of any old row).
    pub row_hit: bool,
    /// Cycles the data burst waited for the shared channel bus after the
    /// column access was ready (queueing delay behind earlier bursts).
    pub bus_wait: u64,
}

/// One memory channel.
#[derive(Debug, Clone)]
pub struct Channel {
    banks: Box<[Bank]>,
    /// Row timings pre-converted to CPU cycles at construction — the
    /// per-chunk scheduling path performs no clock-domain divisions.
    timings: CpuTimings,
    bus_free_at: u64,
    busy_cycles: u64,
}

impl Channel {
    /// Creates a channel of `cfg.banks_per_channel` idle banks with
    /// `cfg`'s timings pre-converted to CPU cycles.
    pub fn new(cfg: &DeviceConfig) -> Channel {
        Channel {
            banks: vec![Bank::default(); cfg.banks_per_channel as usize].into_boxed_slice(),
            timings: cfg.cpu_timings(),
            bus_free_at: 0,
            busy_cycles: 0,
        }
    }

    /// Cycles this channel's data bus has been busy so far.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Schedules a chunk touching `(bank, row)` at time `now` whose data
    /// burst occupies the bus for `burst` CPU cycles (the device looks it
    /// up in its precomputed burst table), returning when the data is
    /// transferred and whether the row was open.
    ///
    /// Timing (CPU cycles, converted once at construction):
    /// * row hit: `tCAS` then the burst;
    /// * row miss (different open row): wait `tRAS` expiry, `tRP + tRCD +
    ///   tCAS` then the burst;
    /// * row closed: `tRCD + tCAS` then the burst.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range. `row` must be below `u64::MAX`,
    /// the closed-row sentinel (checked in debug builds).
    #[inline]
    pub fn schedule(&mut self, bank: u32, row: u64, burst: u64, now: u64) -> ChunkResult {
        debug_assert!(row != CLOSED, "row {row} collides with the closed-row sentinel");
        let CpuTimings { t_cas, t_rcd, t_rp, t_ras } = self.timings;

        let b = &mut self.banks[bank as usize];
        let start = now.max(b.ready_at);
        let row_hit = b.open_row == row;
        // A miss activates `row`: a conflict precharges the old row first,
        // no earlier than its tRAS expiry; a closed bank activates at once.
        let act_start =
            if b.open_row == CLOSED { start } else { start.max(b.precharge_ok_at) + t_rp };
        // Both outcomes are computed and the all-ones-on-hit mask selects
        // one, so the data-dependent hit/miss pattern costs no branch.
        let hit = u64::from(row_hit).wrapping_neg();
        let col_ready = t_cas + ((start & hit) | ((act_start + t_rcd) & !hit));
        b.precharge_ok_at = (b.precharge_ok_at & hit) | ((act_start + t_ras) & !hit);
        b.open_row = row;

        // The data burst needs the shared channel bus.
        let data_start = col_ready.max(self.bus_free_at);
        let done_at = data_start + burst;
        self.bus_free_at = done_at;
        self.busy_cycles += burst;
        b.ready_at = done_at;
        ChunkResult { done_at, row_hit, bus_wait: data_start - col_ready }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn cfg() -> DeviceConfig {
        presets::hbm2(1 << 30)
    }

    #[test]
    fn first_access_activates() {
        let cfg = cfg();
        let mut ch = Channel::new(&cfg);
        let burst = cfg.burst_cpu_cycles(64);
        let r = ch.schedule(0, 5, burst, 0);
        assert!(!r.row_hit);
        // tRCD + tCAS + burst, all > 0.
        assert!(r.done_at >= cfg.to_cpu_cycles(14));
    }

    #[test]
    fn same_row_hits_and_is_faster() {
        let cfg = cfg();
        let mut ch = Channel::new(&cfg);
        let burst = cfg.burst_cpu_cycles(64);
        let r1 = ch.schedule(0, 5, burst, 0);
        let r2 = ch.schedule(0, 5, burst, r1.done_at);
        assert!(r2.row_hit);
        assert!(r2.done_at - r1.done_at < r1.done_at, "hit should be faster than cold access");
    }

    #[test]
    fn row_conflict_precharges() {
        let cfg = cfg();
        let mut ch = Channel::new(&cfg);
        let burst = cfg.burst_cpu_cycles(64);
        let r1 = ch.schedule(0, 5, burst, 0);
        let r2 = ch.schedule(0, 9, burst, r1.done_at);
        assert!(!r2.row_hit);
        // Conflict pays at least tRP more than a hit would.
        let hit_lat = cfg.to_cpu_cycles(u64::from(cfg.timing.t_cas)) + burst;
        assert!(r2.done_at - r1.done_at > hit_lat);
    }

    #[test]
    fn different_banks_overlap_but_share_bus() {
        let cfg = cfg();
        let mut ch = Channel::new(&cfg);
        let burst = cfg.burst_cpu_cycles(64);
        let r1 = ch.schedule(0, 5, burst, 0);
        let r2 = ch.schedule(1, 5, burst, 0);
        // Bank 1 proceeds in parallel; only the bus serializes the bursts.
        assert!(r2.done_at >= r1.done_at);
        assert!(r2.done_at <= r1.done_at + burst + 1);
    }

    #[test]
    fn busy_cycles_accumulate() {
        let cfg = cfg();
        let mut ch = Channel::new(&cfg);
        let burst = cfg.burst_cpu_cycles(64);
        ch.schedule(0, 0, burst, 0);
        ch.schedule(0, 0, burst, 100);
        assert_eq!(ch.busy_cycles(), 2 * burst);
    }

    #[test]
    fn bus_wait_accounts_queueing_delay() {
        let cfg = cfg();
        let mut ch = Channel::new(&cfg);
        let burst = cfg.burst_cpu_cycles(64);
        // Two same-cycle requests to different banks: identical bank timing,
        // so the second burst queues behind the first for exactly one burst.
        let r1 = ch.schedule(0, 0, burst, 0);
        let r2 = ch.schedule(1, 0, burst, 0);
        assert_eq!(r1.bus_wait, 0, "uncontended burst must not wait");
        assert_eq!(r2.bus_wait, burst);
        assert_eq!(r2.done_at, r1.done_at + burst);
        // A third request issued after the bus drains waits for nothing.
        let r3 = ch.schedule(2, 0, burst, r2.done_at);
        assert_eq!(r3.bus_wait, 0);
    }

    #[test]
    fn same_bank_requests_serialize_on_ready_at() {
        let cfg = cfg();
        let mut ch = Channel::new(&cfg);
        let burst = cfg.burst_cpu_cycles(64);
        // Both issued at cycle 0 to one bank: the second cannot start its
        // column access before the first's data transfer completes.
        let r1 = ch.schedule(0, 7, burst, 0);
        let r2 = ch.schedule(0, 7, burst, 0);
        assert!(r2.row_hit);
        let t_cas = cfg.to_cpu_cycles(u64::from(cfg.timing.t_cas));
        assert_eq!(r2.done_at, r1.done_at + t_cas + burst);
    }

    #[test]
    fn row_conflict_respects_tras_before_precharge() {
        let cfg = cfg();
        let mut ch = Channel::new(&cfg);
        let burst = cfg.burst_cpu_cycles(64);
        let t_ras = cfg.to_cpu_cycles(u64::from(cfg.timing.t_ras));
        let t_rp = cfg.to_cpu_cycles(u64::from(cfg.timing.t_rp));
        let t_rcd = cfg.to_cpu_cycles(u64::from(cfg.timing.t_rcd));
        let t_cas = cfg.to_cpu_cycles(u64::from(cfg.timing.t_cas));
        let r1 = ch.schedule(0, 1, burst, 0);
        // Conflict arriving while tRAS still holds the row open: the
        // precharge is deferred to the tRAS expiry at `t_ras`, so the row
        // cycle completes no earlier than tRAS + tRP + tRCD + tCAS + burst.
        let r2 = ch.schedule(0, 2, burst, r1.done_at);
        assert!(!r2.row_hit);
        let earliest = t_ras + t_rp + t_rcd + t_cas + burst;
        assert!(r2.done_at >= earliest, "done {} < tRAS-bound {}", r2.done_at, earliest);
    }

    #[test]
    fn precomputed_timings_match_per_access_conversion() {
        let cfg = cfg();
        let t = cfg.cpu_timings();
        assert_eq!(t.t_cas, cfg.to_cpu_cycles(u64::from(cfg.timing.t_cas)));
        assert_eq!(t.t_rcd, cfg.to_cpu_cycles(u64::from(cfg.timing.t_rcd)));
        assert_eq!(t.t_rp, cfg.to_cpu_cycles(u64::from(cfg.timing.t_rp)));
        assert_eq!(t.t_ras, cfg.to_cpu_cycles(u64::from(cfg.timing.t_ras)));
    }

    #[test]
    fn bus_contention_serializes_time() {
        let cfg = cfg();
        let mut ch = Channel::new(&cfg);
        let burst = cfg.burst_cpu_cycles(2048);
        let mut done = 0;
        for i in 0..16 {
            let r = ch.schedule(i % 8, 0, burst, 0);
            done = done.max(r.done_at);
        }
        // 16 × 2 KB on one channel takes at least 16 bursts of bus time.
        assert!(done >= 16 * burst);
    }
}
