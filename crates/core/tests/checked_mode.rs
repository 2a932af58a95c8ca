//! End-to-end exercise of the invariant sweeps: heavy mixed traffic
//! through the full controller must keep every cross-structure invariant
//! intact, both under the periodic in-access sweep of debug builds and
//! under an explicit final validation.

use bumblebee_core::{BumblebeeConfig, BumblebeeController};
use memsim_types::{Access, AccessKind, AccessPlan, Addr, Geometry, HybridMemoryController};

fn tiny_geometry() -> Geometry {
    Geometry::builder()
        .block_bytes(2 << 10)
        .page_bytes(64 << 10)
        .hbm_bytes(2 << 20) // 32 frames → 4 sets
        .dram_bytes(12 << 20)
        .hbm_ways(8)
        .build()
        .expect("valid geometry")
}

/// Deterministic skewed address stream (splitmix64 over a fixed seed).
fn addresses(n: u64) -> impl Iterator<Item = u64> {
    let flat = tiny_geometry().flat_bytes();
    (0..n).map(move |i| {
        let mut z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let raw = z ^ (z >> 31);
        match i % 4 {
            0 => raw % flat,
            1 => raw % (flat / 4).max(1),
            2 => raw % (1 << 21),
            _ => raw % (1 << 18),
        }
    })
}

#[test]
fn mixed_traffic_survives_sweeps_and_final_validation() {
    for cfg in [
        BumblebeeConfig::paper(),
        BumblebeeConfig::c_only(),
        BumblebeeConfig::m_only(),
        BumblebeeConfig::fixed_25c(),
        BumblebeeConfig::no_multi(),
    ] {
        let mut c = BumblebeeController::new(tiny_geometry(), cfg);
        let mut plan = AccessPlan::new();
        for (i, addr) in addresses(6000).enumerate() {
            plan.clear();
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            // In a debug build the in-access sweep fires at access 4096
            // of each config; a violation would panic here.
            c.access(&Access { addr: Addr(addr), kind, insts: 1 }, &mut plan);
        }
        c.validate().expect("final validation");
        plan.clear();
        c.finish(&mut plan);
        c.validate().expect("validation after finish");
    }
}
