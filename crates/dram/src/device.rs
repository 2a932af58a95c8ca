//! The full memory device: address mapping, chunking, counters, energy.

use crate::channel::Channel;
use crate::config::{BurstTable, DeviceConfig};
use memsim_obs::DeviceHistograms;
use memsim_types::{Addr, OpKind, QuickDiv};

/// Traffic and row-buffer counters for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Bytes read from the device.
    pub read_bytes: u64, // audit: unit(bytes)
    /// Bytes written to the device.
    pub write_bytes: u64, // audit: unit(bytes)
    /// Row activations performed: one per row miss.
    pub activates: u64, // audit: unit(accesses)
    /// Chunk accesses that hit an open row.
    pub row_hits: u64, // audit: unit(accesses)
    /// Chunk accesses that required an activate.
    pub row_misses: u64, // audit: unit(accesses)
    /// Total accesses (after chunking).
    pub chunk_accesses: u64, // audit: unit(accesses)
}

impl DeviceCounters {
    /// Total bytes moved in either direction.
    // audit: unit(bytes)
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
    /// Captured divisors for the per-chunk address decomposition
    /// (interleave / channel / row / bank counts are powers of two for
    /// every real part, so these run as shift/mask).
    q_interleave: QuickDiv,
    q_channels: QuickDiv,
    q_row: QuickDiv,
    q_banks: QuickDiv,
    q_row_span: QuickDiv,
}

impl DramDevice {
    /// Creates an idle device from its configuration.
    pub fn new(cfg: DeviceConfig) -> DramDevice {
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        let row_span = cfg.row_bytes * u64::from(cfg.banks_per_channel);
        DramDevice {
            q_interleave: QuickDiv::new(cfg.interleave_bytes),
            q_channels: QuickDiv::new(u64::from(cfg.channels)),
            q_row: QuickDiv::new(cfg.row_bytes),
            q_banks: QuickDiv::new(u64::from(cfg.banks_per_channel)),
            q_row_span: QuickDiv::new(row_span),
            bursts: cfg.burst_table(),
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
    /// so synthetic traces larger than the device remain valid.
    // audit: hot-path
    pub fn access(&mut self, addr: Addr, bytes: u32, kind: OpKind, now: u64) -> u64 {
        debug_assert!(bytes > 0, "zero-byte access");
        let cap = self.cfg.capacity_bytes;
        let mut cursor = if addr.0 < cap { addr.0 } else { addr.0 % cap };
        let mut remaining = u64::from(bytes);
        let mut done = now;
        while remaining > 0 {
            let in_chunk = self.cfg.interleave_bytes - self.q_interleave.rem(cursor);
            let take = in_chunk.min(remaining) as u32;
            let r = self.access_chunk(Addr(cursor), take, now);
            done = done.max(r);
            // A chunk never exceeds the interleave unit (≤ capacity), so
            // one conditional subtraction wraps exactly like `% cap`.
            cursor += u64::from(take);
            if cursor >= cap {
                cursor -= cap;
            }
            remaining -= u64::from(take);
        }
        match kind {
            OpKind::Read => self.counters.read_bytes += u64::from(bytes),
            OpKind::Write => self.counters.write_bytes += u64::from(bytes),
        }
        done
    }

    // audit: hot-path
    fn access_chunk(&mut self, addr: Addr, bytes: u32, now: u64) -> u64 {
        let (chunk, in_chunk) = self.q_interleave.div_rem(addr.0);
        let (local_chunk, channel) = self.q_channels.div_rem(chunk);
        let channel = channel as usize;
        let local_addr = local_chunk * self.cfg.interleave_bytes + in_chunk;
        let bank = self.q_banks.rem(self.q_row.div(local_addr)) as u32;
        let row = self.q_row_span.div(local_addr);
        let burst = self.bursts.burst(bytes);
        let r = self.channels[channel].schedule(bank, row, burst, now);
        self.counters.chunk_accesses += 1;
        if r.row_hit {
            self.counters.row_hits += 1;
        } else {
            // Every row miss opens the new row with one activate.
            self.counters.row_misses += 1;
            self.counters.activates += 1;
        }
        self.histograms.latency.record(r.done_at - now);
        self.histograms.queue_wait.record(r.bus_wait);
        r.done_at
    }

    /// Dynamic energy in pJ from the traffic so far (activates + bursts).
    pub fn dynamic_energy_pj(&self) -> f64 {
        let (cfg, c) = (&self.cfg, &self.counters);
        let t = &cfg.timing;
        let t_rc_ns = cfg.device_cycles_ns(u64::from(t.t_rc()));
        let t_ras_ns = cfg.device_cycles_ns(u64::from(t.t_ras));
        let t_rp_ns = cfg.device_cycles_ns(u64::from(t.t_rp));
        let act = c.activates as f64 * cfg.power.activate_energy_pj(t_rc_ns, t_ras_ns, t_rp_ns);
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
