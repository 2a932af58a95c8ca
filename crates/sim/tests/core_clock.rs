//! Property: the integer core clock charges exactly what the former
//! floating-point formula did.
//!
//! `SimParams` used to hold `cpi_base: 0.5` and `mlp: 2.0` and charged
//! `ceil(insts × 0.5)` and `ceil(raw / 2.0)` through `f64`. Both are exact
//! for `u32` instruction gaps and latencies below 2^53, so the integer
//! `div_ceil` form must agree bit for bit; this pins that for random gaps
//! and latencies below 2^40 under the default parameters.

use memsim_sim::SimParams;
use memsim_types::AccessKind;
use proptest::prelude::*;

/// The pre-integer charge: base CPI 0.5 and MLP 2.0 in `f64`.
fn float_charge(insts: u32, raw_latency: u64, kind: AccessKind) -> (u64, u64) {
    let compute = (f64::from(insts) * 0.5).ceil() as u64;
    let exposed =
        if kind == AccessKind::Read { (raw_latency as f64 / 2.0).ceil() as u64 } else { 0 };
    (compute, exposed)
}

proptest! {
    #[test]
    fn integer_charge_equals_the_float_formula(
        insts in 0u32..=u32::MAX,
        raw in 0u64..(1u64 << 40),
        write in prop::bool::ANY,
    ) {
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        prop_assert_eq!(
            SimParams::default().core_cycles(insts, raw, kind),
            float_charge(insts, raw, kind)
        );
    }
}

#[test]
fn integer_charge_matches_at_the_edges() {
    let p = SimParams::default();
    for insts in [0u32, 1, 2, 3, u32::MAX - 1, u32::MAX] {
        for raw in [0u64, 1, 2, 3, (1 << 40) - 1, (1 << 53) - 1] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                assert_eq!(p.core_cycles(insts, raw, kind), float_charge(insts, raw, kind));
            }
        }
    }
}
