//! The full memory device: address mapping, chunking, counters, energy.

use crate::channel::Channel;
use crate::config::{BurstTable, DeviceConfig};
use memsim_obs::DeviceHistograms;
use memsim_types::{Addr, OpKind};

/// Traffic and row-buffer counters for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Bytes read from the device.
    pub read_bytes: u64,
    /// Bytes written to the device.
    pub write_bytes: u64,
    /// Chunk accesses that hit an open row.
    pub row_hits: u64,
    /// Chunk accesses that required an activate: every row miss opens the
    /// new row with exactly one, so this is also the activate count.
    pub row_misses: u64,
    /// Total accesses (after chunking).
    pub chunk_accesses: u64,
}

impl DeviceCounters {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Row-buffer hit rate over chunk accesses.
    pub fn row_hit_rate(&self) -> f64 {
        if self.chunk_accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.chunk_accesses as f64
        }
    }
}

/// Shift/mask decode of a device-local address into `(channel, bank,
/// row)`. Exact because [`DramDevice::new`] checks that the interleave
/// unit, channel count, bank count and row size are powers of two.
#[derive(Debug, Clone, Copy)]
struct AddrMap {
    /// `interleave_bytes - 1`: an address's offset in its interleave unit.
    interleave_mask: u64,
    /// `log2(interleave_bytes)`.
    interleave_shift: u32,
    /// `channels - 1`.
    channel_mask: u64,
    /// `log2(interleave_bytes × channels)`: dropping these bits leaves an
    /// address's interleave unit within its channel.
    local_shift: u32,
    /// `log2(row_bytes)`.
    row_shift: u32,
    /// `banks_per_channel - 1`.
    bank_mask: u64,
    /// `log2(row_bytes × banks_per_channel)`.
    row_span_shift: u32,
}

impl AddrMap {
    /// Checks the geometry and captures its shifts.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if the interleave unit, channel count,
    /// bank count or row size is not a power of two.
    fn new(cfg: &DeviceConfig) -> AddrMap {
        let log2 = |field: &str, v: u64| {
            assert!(
                v.is_power_of_two(),
                "{}: DeviceConfig::{field} must be a power of two, got {v}",
                cfg.name
            );
            v.trailing_zeros()
        };
        let interleave_shift = log2("interleave_bytes", cfg.interleave_bytes);
        let channel_shift = log2("channels", u64::from(cfg.channels));
        let bank_shift = log2("banks_per_channel", u64::from(cfg.banks_per_channel));
        let row_shift = log2("row_bytes", cfg.row_bytes);
        AddrMap {
            interleave_mask: cfg.interleave_bytes - 1,
            interleave_shift,
            channel_mask: u64::from(cfg.channels) - 1,
            local_shift: interleave_shift + channel_shift,
            row_shift,
            bank_mask: u64::from(cfg.banks_per_channel) - 1,
            row_span_shift: row_shift + bank_shift,
        }
    }

    /// The channel, bank and row of device-local address `addr`: the
    /// interleave unit `addr / interleave_bytes` picks the channel modulo
    /// the channel count, and the address within that channel
    /// (`local_unit × interleave_bytes + offset`) picks the bank modulo
    /// the bank count by row, and the row by row span.
    #[inline]
    fn decode(&self, addr: u64) -> (usize, u32, u64) {
        let channel = (addr >> self.interleave_shift) & self.channel_mask;
        let local =
            ((addr >> self.local_shift) << self.interleave_shift) | (addr & self.interleave_mask);
        let bank = (local >> self.row_shift) & self.bank_mask;
        (channel as usize, bank as u32, local >> self.row_span_shift)
    }
}

/// An HBM stack or off-chip DRAM module; see the
/// [crate documentation](crate).
#[derive(Debug, Clone)]
pub struct DramDevice {
    cfg: DeviceConfig,
    channels: Vec<Channel>,
    counters: DeviceCounters,
    histograms: DeviceHistograms,
    /// CPU-cycle burst length of every chunk size (no division per chunk).
    bursts: BurstTable,
    map: AddrMap,
}

impl DramDevice {
    /// Creates an idle device from its configuration.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if `cfg`'s interleave unit, channel
    /// count, bank count or row size is not a power of two (see
    /// [`DeviceConfig`]).
    pub fn new(cfg: DeviceConfig) -> DramDevice {
        let map = AddrMap::new(&cfg);
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        DramDevice {
            bursts: cfg.burst_table(),
            map,
            cfg,
            channels,
            counters: DeviceCounters::default(),
            histograms: DeviceHistograms::new(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Traffic/row counters accumulated so far.
    pub fn counters(&self) -> &DeviceCounters {
        &self.counters
    }

    /// Always-on per-chunk latency and bus-queue-wait distributions.
    /// Cycle-domain data: deterministic for a given access stream.
    pub fn histograms(&self) -> &DeviceHistograms {
        &self.histograms
    }

    /// Performs an access of `bytes` at device-local address `addr`,
    /// starting no earlier than CPU cycle `now`; returns the completion
    /// cycle.
    ///
    /// The access is split at channel-interleave boundaries; chunks on
    /// different channels proceed in parallel, chunks on the same channel
    /// serialize on its data bus. Addresses wrap modulo the device capacity
    /// so synthetic traces larger than the device remain valid. An access
    /// that ends inside its first interleave unit, as nearly every one
    /// does, is scheduled as one chunk without entering the split loop.
    /// `bytes` must be nonzero (checked in debug builds).
    #[inline]
    pub fn access(&mut self, addr: Addr, bytes: u32, kind: OpKind, now: u64) -> u64 {
        debug_assert!(bytes > 0, "zero-byte access");
        let cap = self.cfg.capacity_bytes;
        let cursor = if addr.0 < cap { addr.0 } else { addr.0 % cap };
        let done = if (cursor & self.map.interleave_mask) + u64::from(bytes)
            <= self.cfg.interleave_bytes
        {
            self.access_chunk(cursor, bytes, now)
        } else {
            self.access_split(cursor, bytes, now)
        };
        match kind {
            OpKind::Read => self.counters.read_bytes += u64::from(bytes),
            OpKind::Write => self.counters.write_bytes += u64::from(bytes),
        }
        done
    }

    /// Schedules an access that crosses an interleave boundary chunk by
    /// chunk, starting at the already-wrapped address `cursor`; returns
    /// the last chunk's completion. Kept out of line, so the inlined
    /// single-chunk path of [`access`](Self::access) stays small.
    #[inline(never)]
    fn access_split(&mut self, mut cursor: u64, bytes: u32, now: u64) -> u64 {
        let cap = self.cfg.capacity_bytes;
        let mut remaining = u64::from(bytes);
        let mut done = now;
        while remaining > 0 {
            let in_unit = self.cfg.interleave_bytes - (cursor & self.map.interleave_mask);
            let take = in_unit.min(remaining) as u32;
            done = done.max(self.access_chunk(cursor, take, now));
            // A chunk never exceeds the interleave unit (≤ capacity), so
            // one conditional subtraction wraps exactly like `% cap`.
            cursor += u64::from(take);
            if cursor >= cap {
                cursor -= cap;
            }
            remaining -= u64::from(take);
        }
        done
    }

    /// Schedules one chunk that lies inside a single interleave unit.
    #[inline]
    fn access_chunk(&mut self, addr: u64, bytes: u32, now: u64) -> u64 {
        let (channel, bank, row) = self.map.decode(addr);
        let burst = self.bursts.burst(bytes);
        let r = self.channels[channel].schedule(bank, row, burst, now);
        let c = &mut self.counters;
        c.chunk_accesses += 1;
        c.row_hits += u64::from(r.row_hit);
        c.row_misses += u64::from(!r.row_hit);
        self.histograms.latency.record(r.done_at - now);
        self.histograms.queue_wait.record(r.bus_wait);
        r.done_at
    }

    /// Dynamic energy in pJ from the traffic so far (activates, one per
    /// row miss, plus bursts).
    pub fn dynamic_energy_pj(&self) -> f64 {
        let (cfg, c) = (&self.cfg, &self.counters);
        let t = &cfg.timing;
        let t_rc_ns = cfg.device_cycles_ns(u64::from(t.t_rc()));
        let t_ras_ns = cfg.device_cycles_ns(u64::from(t.t_ras));
        let t_rp_ns = cfg.device_cycles_ns(u64::from(t.t_rp));
        let act = c.row_misses as f64 * cfg.power.activate_energy_pj(t_rc_ns, t_ras_ns, t_rp_ns);
        let ns_per_byte = 1000.0 / (cfg.device_mhz as f64 * f64::from(cfg.bus_bytes_per_cycle));
        let rd = cfg.power.read_energy_pj(c.read_bytes as f64 * ns_per_byte, c.read_bytes as f64);
        let wr =
            cfg.power.write_energy_pj(c.write_bytes as f64 * ns_per_byte, c.write_bytes as f64);
        act + rd + wr
    }

    /// Background + refresh energy in pJ over a run of `cpu_cycles`.
    pub fn background_energy_pj(&self, cpu_cycles: u64) -> f64 {
        let ns = cpu_cycles as f64 * 1000.0 / self.cfg.cpu_mhz as f64;
        self.cfg.power.background_energy_pj(ns, self.cfg.channels)
    }

    /// Aggregate data-bus busy cycles across channels (bandwidth
    /// utilization: `busy / (channels × elapsed)`).
    pub fn busy_cycles(&self) -> u64 {
        self.channels.iter().map(Channel::busy_cycles).sum()
    }

    /// Data-bus busy cycles per channel, in channel order — the
    /// per-channel bandwidth-utilization gauge source. Deterministic for
    /// a given access stream (channel assignment is pure address math).
    pub fn channel_busy_cycles(&self) -> Vec<u64> {
        self.channels.iter().map(Channel::busy_cycles).collect()
    }

    /// Resets timing state and counters (row buffers, bus availability).
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            *ch = Channel::new(&self.cfg);
        }
        self.counters = DeviceCounters::default();
        self.histograms = DeviceHistograms::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn small_read_completes_quickly() {
        let mut d = DramDevice::new(presets::hbm2(64 << 20));
        let done = d.access(Addr(0), 64, OpKind::Read, 0);
        assert!(done > 0 && done < 200, "cold 64B HBM read took {done} CPU cycles");
        assert_eq!(d.counters().read_bytes, 64);
    }

    #[test]
    fn page_access_spreads_across_channels() {
        let mut d = DramDevice::new(presets::hbm2(64 << 20));
        // 64 KB page = 128 × 512 B chunks over 8 channels.
        let done = d.access(Addr(0), 64 << 10, OpKind::Read, 0);
        let single_channel_burst = d.config().burst_cpu_cycles(64 << 10);
        // Parallel channels must beat one channel's serialized burst.
        assert!(done < single_channel_burst);
        assert_eq!(d.counters().chunk_accesses, 128);
    }

    #[test]
    fn hbm_faster_than_ddr4_for_bulk() {
        let mut h = DramDevice::new(presets::hbm2(64 << 20));
        let mut d = DramDevice::new(presets::ddr4_3200(640 << 20));
        let th = h.access(Addr(0), 64 << 10, OpKind::Read, 0);
        let td = d.access(Addr(0), 64 << 10, OpKind::Read, 0);
        assert!(th < td, "HBM {th} should beat DDR4 {td} on a 64 KB transfer");
    }

    #[test]
    fn sequential_reads_mostly_row_hit() {
        let mut d = DramDevice::new(presets::ddr4_3200(640 << 20));
        let mut now = 0;
        for i in 0..64u64 {
            now = d.access(Addr(i * 64), 64, OpKind::Read, now);
        }
        assert!(d.counters().row_hit_rate() > 0.9, "rate {}", d.counters().row_hit_rate());
    }

    #[test]
    fn random_reads_mostly_row_miss() {
        let mut d = DramDevice::new(presets::ddr4_3200(640 << 20));
        let mut now = 0;
        let mut x = 0x12345678u64;
        for _ in 0..256 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now = d.access(Addr(x % (640 << 20)), 64, OpKind::Read, now);
        }
        assert!(d.counters().row_hit_rate() < 0.4, "rate {}", d.counters().row_hit_rate());
    }

    #[test]
    fn energy_grows_with_traffic() {
        let mut d = DramDevice::new(presets::hbm2(64 << 20));
        d.access(Addr(0), 2048, OpKind::Read, 0);
        let e1 = d.dynamic_energy_pj();
        d.access(Addr(1 << 20), 2048, OpKind::Write, 1000);
        let e2 = d.dynamic_energy_pj();
        assert!(e1 > 0.0 && e2 > e1);
        assert!(d.background_energy_pj(3600) > 0.0);
    }

    #[test]
    fn completion_monotonic_with_now() {
        let mut d1 = DramDevice::new(presets::hbm2(64 << 20));
        let mut d2 = DramDevice::new(presets::hbm2(64 << 20));
        let a = d1.access(Addr(0), 64, OpKind::Read, 0);
        let b = d2.access(Addr(0), 64, OpKind::Read, 500);
        assert!(b >= a);
        assert!(b >= 500);
    }

    #[test]
    fn addresses_wrap_capacity() {
        let mut d = DramDevice::new(presets::hbm2(1 << 20));
        // Address beyond capacity must not panic.
        let done = d.access(Addr(5 << 20), 64, OpKind::Read, 0);
        assert!(done > 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = DramDevice::new(presets::hbm2(1 << 20));
        d.access(Addr(0), 64, OpKind::Read, 0);
        d.reset();
        assert_eq!(*d.counters(), DeviceCounters::default());
        assert_eq!(d.busy_cycles(), 0);
        assert_eq!(d.histograms().latency.total(), 0);
    }

    #[test]
    fn histograms_record_every_chunk() {
        let mut d = DramDevice::new(presets::hbm2(64 << 20));
        d.access(Addr(0), 64 << 10, OpKind::Read, 0);
        let h = d.histograms();
        assert_eq!(h.latency.total(), d.counters().chunk_accesses);
        assert_eq!(h.queue_wait.total(), d.counters().chunk_accesses);
        assert!(h.latency.max() > 0);
        // Back-to-back bursts on the same channel queue behind the bus.
        assert!(h.queue_wait.max() > 0, "a 128-chunk page must contend for the bus");
    }

    #[test]
    #[should_panic(expected = "DeviceConfig::interleave_bytes must be a power of two, got 768")]
    fn non_power_of_two_interleave_is_rejected() {
        DramDevice::new(DeviceConfig { interleave_bytes: 768, ..presets::hbm2(64 << 20) });
    }

    #[test]
    #[should_panic(expected = "DeviceConfig::channels must be a power of two, got 6")]
    fn non_power_of_two_channel_count_is_rejected() {
        DramDevice::new(DeviceConfig { channels: 6, ..presets::hbm2(64 << 20) });
    }

    #[test]
    #[should_panic(expected = "DeviceConfig::banks_per_channel must be a power of two, got 12")]
    fn non_power_of_two_bank_count_is_rejected() {
        DramDevice::new(DeviceConfig { banks_per_channel: 12, ..presets::ddr4_3200(640 << 20) });
    }

    #[test]
    #[should_panic(expected = "DeviceConfig::row_bytes must be a power of two, got 3072")]
    fn non_power_of_two_row_size_is_rejected() {
        DramDevice::new(DeviceConfig { row_bytes: 3 << 10, ..presets::ddr4_3200(640 << 20) });
    }

    #[test]
    fn histograms_are_deterministic() {
        let run = || {
            let mut d = DramDevice::new(presets::ddr4_3200(64 << 20));
            let mut now = 0;
            for i in 0..64u64 {
                now = d.access(Addr(i * 4096), 2048, OpKind::Read, now);
            }
            d.histograms().clone()
        };
        assert_eq!(run(), run());
    }
}
