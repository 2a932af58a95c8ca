//! Property-based invariant tests for the Bumblebee HMMC.
//!
//! Random access sequences under every ablation configuration must preserve
//! the structural invariants of the PRT, BLE array and hot table.

use bumblebee_core::{BumblebeeConfig, BumblebeeController, FrameMode};
use memsim_types::{Access, AccessKind, AccessPlan, Addr, Geometry, HybridMemoryController};
use proptest::prelude::*;

fn tiny_geometry() -> Geometry {
    Geometry::builder()
        .block_bytes(2 << 10)
        .page_bytes(64 << 10)
        .hbm_bytes(2 << 20) // 32 frames → 4 sets
        .dram_bytes(12 << 20) // 192 DRAM pages → 48 per set
        .hbm_ways(8)
        .build()
        .expect("valid geometry")
}

fn configs() -> impl Strategy<Value = BumblebeeConfig> {
    prop_oneof![
        Just(BumblebeeConfig::paper()),
        Just(BumblebeeConfig::c_only()),
        Just(BumblebeeConfig::m_only()),
        Just(BumblebeeConfig::fixed_25c()),
        Just(BumblebeeConfig::fixed_50c()),
        Just(BumblebeeConfig::no_multi()),
        Just(BumblebeeConfig::alloc_d()),
        Just(BumblebeeConfig::alloc_h()),
        Just(BumblebeeConfig::no_hmf()),
        Just(BumblebeeConfig { zombie_window: 16, ..BumblebeeConfig::paper() }),
    ]
}

/// Accesses skewed toward a few pages so caching, migration, eviction, mode
/// switches and swap mode all fire.
fn accesses(geometry: Geometry) -> impl Strategy<Value = Vec<Access>> {
    let flat = geometry.flat_bytes();
    proptest::collection::vec(
        (0u64..flat, prop::bool::ANY, 0u8..4).prop_map(move |(raw, write, zoom)| {
            // zoom concentrates addresses: 0 = anywhere, 3 = tiny hot region.
            let addr = match zoom {
                0 => raw,
                1 => raw % (flat / 4).max(1),
                2 => raw % (1 << 21),
                _ => raw % (1 << 18),
            };
            Access {
                addr: Addr(addr),
                kind: if write { AccessKind::Write } else { AccessKind::Read },
                insts: 1,
            }
        }),
        1..400,
    )
}

fn check_invariants(c: &BumblebeeController, geometry: &Geometry) -> Result<(), TestCaseError> {
    for s in 0..geometry.num_sets() {
        let set = c.set(s);
        let prt = set.prt();
        let slots = prt.slots();
        let m = prt.m();
        // 1. new_ple restricted to allocated pages is injective, and occup
        //    bits match exactly.
        let mut seen = vec![false; usize::from(slots)];
        for o in 0..slots {
            if let Some(p) = prt.location(o) {
                prop_assert!(p < slots, "set {s}: location out of range");
                prop_assert!(!seen[usize::from(p)], "set {s}: two pages at slot {p}");
                seen[usize::from(p)] = true;
                prop_assert!(prt.occupied(p), "set {s}: mapped slot {p} not occupied");
            }
        }
        for p in 0..slots {
            if prt.occupied(p) {
                prop_assert!(seen[usize::from(p)], "set {s}: occupied slot {p} unmapped");
            }
        }
        // 2. BLE consistency per frame.
        for (f, ble) in set.bles().iter().enumerate() {
            match ble.mode {
                FrameMode::Free => {
                    prop_assert!(
                        !prt.occupied(m + f as u16),
                        "set {s}: free frame {f} occupied in PRT"
                    );
                }
                FrameMode::Mhbm => {
                    // The resident page's PRT entry points at this frame.
                    prop_assert_eq!(
                        prt.location(ble.ple),
                        Some(m + f as u16),
                        "set {}: mHBM frame {} PLE mismatch",
                        s,
                        f
                    );
                    prop_assert!(prt.occupied(m + f as u16));
                }
                FrameMode::Chbm => {
                    // The cached page lives off-chip and cached_in points back.
                    let home = prt.location(ble.ple);
                    prop_assert!(
                        home.is_some_and(|p| p < m),
                        "set {s}: cHBM frame {f} caches non-off-chip page"
                    );
                    prop_assert_eq!(
                        set.cached_frame(ble.ple),
                        Some(f as u8),
                        "set {}: cached_in inconsistent for frame {}",
                        s,
                        f
                    );
                    // Dirty blocks are a subset of valid blocks.
                    prop_assert!(
                        ble.valid.contains_all(&ble.dirty),
                        "set {s}: dirty ⊄ valid in frame {f}"
                    );
                    // HBM slot of a cache frame is not OS-occupied.
                    prop_assert!(!prt.occupied(m + f as u16));
                }
            }
        }
        // 3. cached_in entries point at Chbm frames caching that page.
        for o in 0..slots {
            if let Some(f) = set.cached_frame(o) {
                let ble = &set.bles()[usize::from(f)];
                prop_assert_eq!(ble.mode, FrameMode::Chbm);
                prop_assert_eq!(ble.ple, o);
            }
        }
        // 4. Hot-table HBM queue is bounded by the frame count.
        prop_assert!(set.hot().hbm_len() <= usize::from(slots - m));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_traffic_preserves_invariants(cfg in configs(), accs in accesses(tiny_geometry())) {
        let geometry = tiny_geometry();
        let mut c = BumblebeeController::new(geometry, cfg);
        let mut plan = AccessPlan::new();
        for a in &accs {
            plan.clear();
            c.access(a, &mut plan);
            // Every emitted op stays within its device.
            for op in plan.critical.iter().chain(&plan.background) {
                let cap = match op.mem() {
                    memsim_types::Mem::Hbm => geometry.hbm_bytes(),
                    memsim_types::Mem::OffChip => geometry.dram_bytes(),
                };
                prop_assert!(
                    op.addr.0 + u64::from(op.bytes) <= cap,
                    "op beyond device: {:?}",
                    op
                );
            }
        }
        check_invariants(&c, &geometry)?;
        // Served counts add up.
        prop_assert_eq!(
            c.stats().total_accesses(),
            accs.len() as u64,
            "every access is served exactly once"
        );
    }

    #[test]
    fn fixed_ratio_respects_partition(accs in accesses(tiny_geometry())) {
        let geometry = tiny_geometry();
        let cfg = BumblebeeConfig::fixed_25c();
        let quota = cfg.chbm_quota(geometry.hbm_ways()).unwrap();
        let mut c = BumblebeeController::new(geometry, cfg);
        let mut plan = AccessPlan::new();
        for a in &accs {
            plan.clear();
            c.access(a, &mut plan);
        }
        for s in 0..geometry.num_sets() {
            for (f, ble) in c.set(s).bles().iter().enumerate() {
                if ble.mode == FrameMode::Chbm {
                    prop_assert!((f as u32) < quota, "cHBM frame outside quota");
                }
            }
        }
        check_invariants(&c, &geometry)?;
    }

    #[test]
    fn c_only_exposes_no_hbm_to_os(accs in accesses(tiny_geometry())) {
        let geometry = tiny_geometry();
        let mut c = BumblebeeController::new(geometry, BumblebeeConfig::c_only());
        let mut plan = AccessPlan::new();
        for a in &accs {
            plan.clear();
            c.access(a, &mut plan);
        }
        // All-cache HBM: no page may live in an HBM frame...
        // ...unless the OS address space itself overflowed into HBM pages
        // (flat addressing); restrict traffic below dram_bytes to check.
        let only_dram = accs.iter().all(|a| a.addr.0 < geometry.dram_bytes());
        if only_dram {
            prop_assert_eq!(c.os_visible_bytes(), geometry.dram_bytes());
            prop_assert_eq!(c.mhbm_fraction(), 0.0);
        }
        check_invariants(&c, &geometry)?;
    }
}
