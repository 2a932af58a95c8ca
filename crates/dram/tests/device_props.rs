//! Property-based tests for the DRAM device model.

use memsim_dram::{presets, DramDevice};
use memsim_types::{Addr, OpKind};
use proptest::prelude::*;

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
        prop_assert_eq!(c.activates, c.row_misses);
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
}
