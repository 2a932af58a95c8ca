//! Property-based tests for the DRAM device model, and an exactness
//! oracle: a straightforward reference device that every scheduled
//! completion, counter and histogram of [`DramDevice`] must match.

use memsim_dram::config::CpuTimings;
use memsim_dram::{presets, DeviceConfig, DeviceCounters, DramDevice};
use memsim_obs::DeviceHistograms;
use memsim_types::{Addr, OpKind};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, Default)]
struct RefBank {
    open_row: Option<u64>,
    ready_at: u64,
    precharge_ok_at: u64,
}

#[derive(Debug, Clone)]
struct RefChannel {
    banks: Vec<RefBank>,
    bus_free_at: u64,
    busy_cycles: u64,
}

/// The device chunk path written as plainly as possible: every op is cut
/// at interleave boundaries by one splitter loop, each chunk is decoded
/// with true division and remainder, an idle bank's row is `None`, and
/// bursts come from [`DeviceConfig::burst_cpu_cycles`].
#[derive(Debug)]
struct RefDevice {
    cfg: DeviceConfig,
    timings: CpuTimings,
    channels: Vec<RefChannel>,
    counters: DeviceCounters,
    histograms: DeviceHistograms,
}

impl RefDevice {
    fn new(cfg: DeviceConfig) -> RefDevice {
        let channel = RefChannel {
            banks: vec![RefBank::default(); cfg.banks_per_channel as usize],
            bus_free_at: 0,
            busy_cycles: 0,
        };
        RefDevice {
            timings: cfg.cpu_timings(),
            channels: vec![channel; cfg.channels as usize],
            cfg,
            counters: DeviceCounters::default(),
            histograms: DeviceHistograms::new(),
        }
    }

    fn access(&mut self, addr: u64, bytes: u32, kind: OpKind, now: u64) -> u64 {
        let (cap, il) = (self.cfg.capacity_bytes, self.cfg.interleave_bytes);
        let mut cursor = addr % cap;
        let mut remaining = u64::from(bytes);
        let mut done = now;
        while remaining > 0 {
            let take = (il - cursor % il).min(remaining);
            done = done.max(self.access_chunk(cursor, take as u32, now));
            cursor = (cursor + take) % cap;
            remaining -= take;
        }
        match kind {
            OpKind::Read => self.counters.read_bytes += u64::from(bytes),
            OpKind::Write => self.counters.write_bytes += u64::from(bytes),
        }
        done
    }

    fn access_chunk(&mut self, addr: u64, bytes: u32, now: u64) -> u64 {
        let cfg = &self.cfg;
        let (il, banks) = (cfg.interleave_bytes, u64::from(cfg.banks_per_channel));
        let unit = addr / il;
        let channel = (unit % u64::from(cfg.channels)) as usize;
        let local = unit / u64::from(cfg.channels) * il + addr % il;
        let bank = (local / cfg.row_bytes % banks) as usize;
        let row = local / (cfg.row_bytes * banks);
        let burst = cfg.burst_cpu_cycles(bytes);
        let CpuTimings { t_cas, t_rcd, t_rp, t_ras } = self.timings;
        let ch = &mut self.channels[channel];
        let b = &mut ch.banks[bank];
        let start = now.max(b.ready_at);
        let (col_ready, row_hit) = match b.open_row {
            Some(open) if open == row => (start + t_cas, true),
            Some(_) => {
                let pre_start = start.max(b.precharge_ok_at);
                b.precharge_ok_at = pre_start + t_rp + t_ras;
                (pre_start + t_rp + t_rcd + t_cas, false)
            }
            None => {
                b.precharge_ok_at = start + t_ras;
                (start + t_rcd + t_cas, false)
            }
        };
        b.open_row = Some(row);
        let data_start = col_ready.max(ch.bus_free_at);
        let done_at = data_start + burst;
        b.ready_at = done_at;
        ch.bus_free_at = done_at;
        ch.busy_cycles += burst;
        self.counters.chunk_accesses += 1;
        if row_hit {
            self.counters.row_hits += 1;
        } else {
            self.counters.row_misses += 1;
        }
        self.histograms.latency.record(done_at - now);
        self.histograms.queue_wait.record(data_start - col_ready);
        done_at
    }

    fn channel_busy_cycles(&self) -> Vec<u64> {
        self.channels.iter().map(|c| c.busy_cycles).collect()
    }
}

/// `(addr, bytes, is_write, issue-gap)` ops for the oracle: addresses up
/// to twice the largest device capacity below (so the wrap path runs),
/// unaligned or a few bytes short of an interleave edge; sizes from 1 B
/// to 64 KB, AC's 72 B tag-and-data reads and exact interleave fits
/// among them; gaps of zero included, so issue times never decrease.
fn oracle_ops() -> impl Strategy<Value = Vec<(u64, u32, bool, u64)>> {
    let addr = prop_oneof![
        0u64..(1280 << 20),
        (0u64..(320 << 10), 0u64..80).prop_map(|(unit, back)| (unit + 1) * 4096 - back),
        (0u64..(2560 << 10), 0u64..80).prop_map(|(unit, back)| (unit + 1) * 512 - back),
    ];
    let bytes = prop_oneof![
        Just(72u32),
        Just(64),
        Just(512),
        Just(4096),
        1u32..=600,
        1u32..=8192,
        1u32..=65536,
    ];
    proptest::collection::vec(
        (addr, bytes, prop::bool::ANY, prop_oneof![Just(0u64), 0u64..1000]),
        1..200,
    )
}

fn ops() -> impl Strategy<Value = Vec<(u64, u32, bool, u64)>> {
    // (addr, bytes, is_write, issue-gap)
    proptest::collection::vec(
        (
            0u64..(1 << 30),
            prop_oneof![Just(64u32), Just(256), Just(2048), Just(4096), Just(65536)],
            prop::bool::ANY,
            0u64..1000,
        ),
        1..200,
    )
}

proptest! {
    #[test]
    fn completion_never_precedes_issue(ops in ops()) {
        let mut d = DramDevice::new(presets::hbm2(64 << 20));
        let mut now = 0u64;
        for (addr, bytes, write, gap) in ops {
            now += gap;
            let kind = if write { OpKind::Write } else { OpKind::Read };
            let done = d.access(Addr(addr), bytes, kind, now);
            prop_assert!(done > now, "completion {done} ≤ issue {now}");
            // Latency is bounded: even a fully serialized 64 KB burst with
            // conflicts completes within a generous envelope.
            prop_assert!(done - now < 1_000_000);
        }
    }

    #[test]
    fn byte_counters_are_exact(ops in ops()) {
        let mut d = DramDevice::new(presets::ddr4_3200(640 << 20));
        let mut reads = 0u64;
        let mut writes = 0u64;
        for (addr, bytes, write, _) in ops {
            let kind = if write { OpKind::Write } else { OpKind::Read };
            d.access(Addr(addr), bytes, kind, 0);
            if write {
                writes += u64::from(bytes);
            } else {
                reads += u64::from(bytes);
            }
        }
        prop_assert_eq!(d.counters().read_bytes, reads);
        prop_assert_eq!(d.counters().write_bytes, writes);
        prop_assert_eq!(d.counters().total_bytes(), reads + writes);
    }

    #[test]
    fn row_events_partition_chunk_accesses(ops in ops()) {
        let mut d = DramDevice::new(presets::hbm2(64 << 20));
        for (addr, bytes, write, _) in ops {
            let kind = if write { OpKind::Write } else { OpKind::Read };
            d.access(Addr(addr), bytes, kind, 0);
        }
        let c = d.counters();
        prop_assert_eq!(c.row_hits + c.row_misses, c.chunk_accesses);
        prop_assert!((0.0..=1.0).contains(&c.row_hit_rate()));
    }

    #[test]
    fn energy_is_monotone_in_traffic(ops in ops()) {
        let mut d = DramDevice::new(presets::hbm2(64 << 20));
        let mut prev = 0.0f64;
        for (addr, bytes, write, _) in ops {
            let kind = if write { OpKind::Write } else { OpKind::Read };
            d.access(Addr(addr), bytes, kind, 0);
            let e = d.dynamic_energy_pj();
            prop_assert!(e >= prev, "energy decreased: {e} < {prev}");
            prev = e;
        }
    }

    #[test]
    fn reset_restores_initial_state(ops in ops()) {
        let mut d = DramDevice::new(presets::ddr4_3200(640 << 20));
        for (addr, bytes, write, _) in &ops {
            let kind = if *write { OpKind::Write } else { OpKind::Read };
            d.access(Addr(*addr), *bytes, kind, 0);
        }
        d.reset();
        prop_assert_eq!(d.counters().total_bytes(), 0);
        prop_assert_eq!(d.busy_cycles(), 0);
        prop_assert_eq!(d.dynamic_energy_pj(), 0.0);
        // Replays produce identical results after reset.
        let a = d.access(Addr(0), 64, OpKind::Read, 0);
        d.reset();
        let b = d.access(Addr(0), 64, OpKind::Read, 0);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn device_matches_the_reference_chunk_path(ops in oracle_ops()) {
        // Fig. 8's devices at scale 16: a power-of-two HBM2 stack and a
        // 640 MB DDR4 module, whose capacity is not a power of two.
        for cfg in [presets::hbm2(64 << 20), presets::ddr4_3200(640 << 20)] {
            let mut d = DramDevice::new(cfg.clone());
            let mut r = RefDevice::new(cfg);
            let mut now = 0u64;
            for &(addr, bytes, write, gap) in &ops {
                now += gap;
                let kind = if write { OpKind::Write } else { OpKind::Read };
                let got = d.access(Addr(addr), bytes, kind, now);
                let want = r.access(addr, bytes, kind, now);
                prop_assert_eq!(got, want, "{} B at {:#x}, issued at {}", bytes, addr, now);
            }
            prop_assert_eq!(d.counters(), &r.counters);
            prop_assert_eq!(d.histograms(), &r.histograms);
            prop_assert_eq!(d.channel_busy_cycles(), r.channel_busy_cycles());
        }
    }
}
