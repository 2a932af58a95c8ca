//! Device configuration: organization and timing.

use crate::power::PowerParams;
use memsim_types::QuickDiv;

/// Core DRAM timing parameters, in device clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Column access strobe latency (read latency after the column command).
    pub t_cas: u32,
    /// Row-to-column delay (activate → column command).
    pub t_rcd: u32,
    /// Row precharge time (close a row).
    pub t_rp: u32,
    /// Row active time lower bound (activate → precharge). When building
    /// presets this is derived as `t_rcd + t_cas + 8` if not specified, a
    /// common ratio for both DDR4 and HBM2 parts.
    pub t_ras: u32,
}

impl Timing {
    /// Row cycle time `tRC = tRAS + tRP`.
    pub fn t_rc(&self) -> u32 {
        self.t_ras + self.t_rp
    }
}

/// Full configuration of one memory device (an HBM stack or a DDR channel
/// group).
///
/// [`DramDevice::new`](crate::DramDevice::new) decodes addresses with
/// shifts and masks, which is exact only for power-of-two geometry: it
/// panics, naming the field, unless `interleave_bytes`, `channels`,
/// `banks_per_channel` and `row_bytes` are powers of two, as they are for
/// every real part. `capacity_bytes` may be any size (Fig. 8's DDR4 device
/// is 640 MB); addresses past it wrap with an exact modulo.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable name (e.g. `"HBM2"`).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer size per bank in bytes.
    pub row_bytes: u64,
    /// Channel interleave granularity in bytes (Table I: 512 B for HBM2).
    pub interleave_bytes: u64,
    /// Data-bus bytes transferred per device clock (both edges counted).
    pub bus_bytes_per_cycle: u32,
    /// Device clock in MHz.
    pub device_mhz: u64,
    /// CPU clock in MHz (times reported to callers are CPU cycles).
    pub cpu_mhz: u64,
    /// Timing parameters in device clocks.
    pub timing: Timing,
    /// IDD/VDD power parameters.
    pub power: PowerParams,
}

/// The core timing parameters pre-converted to CPU cycles, computed once
/// per channel via [`DeviceConfig::cpu_timings`] so the per-chunk
/// scheduling path does not repeat four widening divisions per access.
/// Each field equals `to_cpu_cycles` of the corresponding [`Timing`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimings {
    /// `tCAS` in CPU cycles.
    pub t_cas: u64,
    /// `tRCD` in CPU cycles.
    pub t_rcd: u64,
    /// `tRP` in CPU cycles.
    pub t_rp: u64,
    /// `tRAS` in CPU cycles.
    pub t_ras: u64,
}

/// CPU-cycle burst lengths precomputed per bus-cycle count, so scheduling
/// a chunk costs a table load instead of the two divisions of
/// [`DeviceConfig::burst_cpu_cycles`].
///
/// Entry `n` holds `burst_cpu_cycles(n × bus_bytes_per_cycle)`; a
/// `bytes`-sized chunk takes `ceil(bytes / bus_bytes_per_cycle)` bus
/// cycles, which is a shift for every power-of-two bus width. Built by
/// [`DeviceConfig::burst_table`]: 17 entries for HBM2 (512 B interleave,
/// 32 B/cycle), 257 for DDR4 (4 KB, 16 B/cycle).
#[derive(Debug, Clone)]
pub(crate) struct BurstTable {
    bus: QuickDiv,
    cycles: Box<[u64]>,
}

impl BurstTable {
    /// CPU cycles of the data burst of a `bytes`-sized chunk; equals
    /// [`DeviceConfig::burst_cpu_cycles`] for every `bytes` up to the
    /// interleave unit.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the interleave unit (chunks never do).
    #[inline]
    pub(crate) fn burst(&self, bytes: u32) -> u64 {
        self.cycles[self.bus.div_ceil(u64::from(bytes)) as usize]
    }
}

impl DeviceConfig {
    /// Converts device clocks to CPU cycles (rounding up).
    #[inline]
    pub fn to_cpu_cycles(&self, device_cycles: u64) -> u64 {
        (device_cycles * self.cpu_mhz).div_ceil(self.device_mhz)
    }

    /// The [`Timing`] parameters converted to CPU cycles (same
    /// `to_cpu_cycles` rounding as converting on every access).
    pub fn cpu_timings(&self) -> CpuTimings {
        CpuTimings {
            t_cas: self.to_cpu_cycles(u64::from(self.timing.t_cas)),
            t_rcd: self.to_cpu_cycles(u64::from(self.timing.t_rcd)),
            t_rp: self.to_cpu_cycles(u64::from(self.timing.t_rp)),
            t_ras: self.to_cpu_cycles(u64::from(self.timing.t_ras)),
        }
    }

    /// Duration of `device_cycles` in nanoseconds.
    #[inline]
    pub fn device_cycles_ns(&self, device_cycles: u64) -> f64 {
        device_cycles as f64 * 1000.0 / self.device_mhz as f64
    }

    /// CPU cycles for the data burst of `bytes` on one channel.
    ///
    /// Two runtime divisions; the per-chunk path looks the same value up
    /// in a burst table built from this function instead.
    pub fn burst_cpu_cycles(&self, bytes: u32) -> u64 {
        let dev = u64::from(bytes).div_ceil(u64::from(self.bus_bytes_per_cycle));
        self.to_cpu_cycles(dev)
    }

    /// The [`BurstTable`] of this device: one entry per bus-cycle count a
    /// chunk of at most `interleave_bytes` can take.
    pub(crate) fn burst_table(&self) -> BurstTable {
        let bus = u64::from(self.bus_bytes_per_cycle);
        let max_cycles = self.interleave_bytes.div_ceil(bus);
        let cycles = (0..=max_cycles)
            .map(|n| {
                let bytes = u32::try_from(n * bus).expect("interleave unit fits in u32 bytes");
                self.burst_cpu_cycles(bytes)
            })
            .collect();
        BurstTable { bus: QuickDiv::new(bus), cycles }
    }

    /// Peak bandwidth in bytes per CPU cycle, across all channels.
    pub fn peak_bytes_per_cpu_cycle(&self) -> f64 {
        let per_channel =
            f64::from(self.bus_bytes_per_cycle) * self.device_mhz as f64 / self.cpu_mhz as f64;
        per_channel * f64::from(self.channels)
    }

    /// Peak bandwidth in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        f64::from(self.bus_bytes_per_cycle)
            * self.device_mhz as f64
            * f64::from(self.channels)
            / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn clock_conversion_rounds_up() {
        let cfg = presets::hbm2(1 << 30);
        // 1000 MHz device, 3600 MHz CPU → 1 device cycle = 3.6 CPU cycles.
        assert_eq!(cfg.to_cpu_cycles(1), 4);
        assert_eq!(cfg.to_cpu_cycles(10), 36);
    }

    #[test]
    fn hbm2_peak_bandwidth_matches_spec() {
        let cfg = presets::hbm2(1 << 30);
        // 8 channels × 128-bit DDR @ 1000 MHz = 256 GB/s.
        assert!((cfg.peak_gbps() - 256.0).abs() < 1.0, "{}", cfg.peak_gbps());
    }

    #[test]
    fn ddr4_peak_bandwidth_matches_spec() {
        let cfg = presets::ddr4_3200(10 << 30);
        // 2 channels × 64-bit @ 3200 MT/s = 51.2 GB/s.
        assert!((cfg.peak_gbps() - 51.2).abs() < 0.5, "{}", cfg.peak_gbps());
    }

    #[test]
    fn trc_is_tras_plus_trp() {
        let t = Timing { t_cas: 7, t_rcd: 7, t_rp: 7, t_ras: 22 };
        assert_eq!(t.t_rc(), 29);
    }

    #[test]
    fn burst_cycles_scale_with_bytes() {
        let cfg = presets::hbm2(1 << 30);
        assert!(cfg.burst_cpu_cycles(2048) > cfg.burst_cpu_cycles(64));
    }

    #[test]
    fn burst_table_matches_the_division_oracle_for_every_chunk_size() {
        // A bus width and clock that are not powers of two exercise the
        // exact-division fallback of the table index and uneven rounding.
        let odd =
            DeviceConfig { bus_bytes_per_cycle: 24, device_mhz: 1333, ..presets::hbm2(1 << 30) };
        for (cfg, entries) in
            [(presets::hbm2(1 << 30), 17), (presets::ddr4_3200(1 << 30), 257), (odd, 23)]
        {
            let table = cfg.burst_table();
            assert_eq!(table.cycles.len(), entries, "{}", cfg.name);
            let max = u32::try_from(cfg.interleave_bytes).unwrap();
            for bytes in 1..=max {
                assert_eq!(
                    table.burst(bytes),
                    cfg.burst_cpu_cycles(bytes),
                    "{} B on {} at {} B/cycle",
                    bytes,
                    cfg.name,
                    cfg.bus_bytes_per_cycle
                );
            }
        }
    }
}
