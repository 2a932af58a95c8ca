//! Property-based tests shared by every baseline controller.

use memsim_baselines::{AlloyCache, Banshee, Chameleon, Hybrid2, OffChipOnly, UnisonCache};
use memsim_types::{
    Access, AccessKind, AccessPlan, Addr, Geometry, HybridMemoryController, Mem, OpKind,
    TrafficCause,
};
use proptest::prelude::*;

fn geometry() -> Geometry {
    Geometry::paper(128)
}

fn controllers() -> Vec<(&'static str, Box<dyn HybridMemoryController>)> {
    let g = geometry();
    vec![
        ("no-hbm", Box::new(OffChipOnly::new(g))),
        ("alloy", Box::new(AlloyCache::new(g))),
        ("unison", Box::new(UnisonCache::new(g))),
        ("banshee", Box::new(Banshee::new(g))),
        ("chameleon", Box::new(Chameleon::new(g, 512 << 10))),
        ("hybrid2", Box::new(Hybrid2::new(g, 512 << 10))),
    ]
}

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    let flat = geometry().flat_bytes();
    proptest::collection::vec(
        (0u64..flat + (flat / 4), prop::bool::ANY).prop_map(|(a, w)| Access {
            addr: Addr(a),
            kind: if w { AccessKind::Write } else { AccessKind::Read },
            insts: 1,
        }),
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn plans_stay_within_device_bounds(accs in accesses()) {
        let g = geometry();
        for (name, mut c) in controllers() {
            let mut plan = AccessPlan::new();
            for a in &accs {
                plan.clear();
                c.access(a, &mut plan);
                for op in plan.critical.iter().chain(&plan.background) {
                    let cap = match op.mem() {
                        Mem::Hbm => g.hbm_bytes(),
                        Mem::OffChip => g.dram_bytes(),
                    };
                    prop_assert!(
                        op.addr.0 + u64::from(op.bytes) <= cap,
                        "{name}: op beyond device: {op:?}"
                    );
                    prop_assert!(op.bytes > 0, "{name}: zero-byte op");
                }
            }
        }
    }

    #[test]
    fn every_access_is_served_exactly_once(accs in accesses()) {
        for (name, mut c) in controllers() {
            let mut plan = AccessPlan::new();
            for a in &accs {
                plan.clear();
                c.access(a, &mut plan);
                // Exactly one demand op per access.
                let demands = plan
                    .critical
                    .iter()
                    .chain(&plan.background)
                    .filter(|o| matches!(
                        o.cause,
                        TrafficCause::DemandRead | TrafficCause::DemandWrite
                    ))
                    .count();
                prop_assert_eq!(demands, 1, "{} demand count", name);
            }
            prop_assert_eq!(
                c.stats().total_accesses(),
                accs.len() as u64,
                "{} hit+miss accounting",
                name
            );
        }
    }

    #[test]
    fn demand_reads_are_critical_demand_writes_posted(accs in accesses()) {
        for (name, mut c) in controllers() {
            let mut plan = AccessPlan::new();
            for a in &accs {
                plan.clear();
                c.access(a, &mut plan);
                let crit_demands =
                    plan.critical
                        .iter()
                        .filter(|o| matches!(
                            o.cause,
                            TrafficCause::DemandRead | TrafficCause::DemandWrite
                        ))
                        .count();
                match a.kind {
                    AccessKind::Read => prop_assert_eq!(
                        crit_demands, 1, "{} read must be critical", name
                    ),
                    AccessKind::Write => prop_assert_eq!(
                        crit_demands, 0, "{} write must be posted", name
                    ),
                }
            }
        }
    }

    #[test]
    fn fills_are_read_write_pairs(accs in accesses()) {
        // Every byte written into a device as a Fill must have been read
        // from somewhere in the same plan (fills copy existing data).
        for (name, mut c) in controllers() {
            let mut plan = AccessPlan::new();
            for a in &accs {
                plan.clear();
                c.access(a, &mut plan);
                let fill_writes: u64 = plan
                    .critical
                    .iter()
                    .chain(&plan.background)
                    .filter(|o| o.cause == TrafficCause::MissFill && o.kind == OpKind::Write)
                    .map(|o| u64::from(o.bytes))
                    .sum();
                let reads: u64 = plan
                    .critical
                    .iter()
                    .chain(&plan.background)
                    .filter(|o| o.kind == OpKind::Read)
                    .map(|o| u64::from(o.bytes))
                    .sum();
                // The demand read may double as the fill source (Alloy), and
                // page-fault swap-ins come from disk, so allow equality with
                // reads + demand granularity + fault pages.
                prop_assert!(
                    fill_writes <= reads + 64 + 4096,
                    "{name}: fill writes {fill_writes} exceed plan reads {reads}"
                );
            }
        }
    }

    #[test]
    fn overfetch_ratio_is_a_fraction(accs in accesses()) {
        for (name, mut c) in controllers() {
            let mut plan = AccessPlan::new();
            for a in &accs {
                plan.clear();
                c.access(a, &mut plan);
            }
            plan.clear();
            c.finish(&mut plan);
            if let Some(r) = c.overfetch_ratio() {
                prop_assert!((0.0..=1.0).contains(&r), "{name}: ratio {r}");
            }
        }
    }

    #[test]
    fn os_visible_capacity_is_stable_for_static_designs(accs in accesses()) {
        let g = geometry();
        for (name, mut c) in controllers() {
            let before = c.os_visible_bytes();
            let mut plan = AccessPlan::new();
            for a in &accs {
                plan.clear();
                c.access(a, &mut plan);
            }
            // None of the baselines reconfigure at runtime (that is
            // Bumblebee's contribution).
            prop_assert_eq!(c.os_visible_bytes(), before, "{} capacity drift", name);
            prop_assert!(before >= g.dram_bytes(), "{} below DRAM", name);
        }
    }
}
