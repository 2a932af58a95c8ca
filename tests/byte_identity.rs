//! Pins the cycle-domain output of a small Fig. 8 matrix to a constant.
//!
//! Speed-only changes must keep every simulated number byte-identical.
//! This test runs all seven Fig. 8 designs (No-HBM plus the six compared
//! designs) on two profiles at test scale, serially, and compares an
//! FNV-1a digest of the results JSONL against the value the simulator
//! produced before the integer core clock and the DRAM burst table. A
//! change that moves any cycle, byte or energy figure fails here; one
//! that means to move them must update the constant on purpose.

use bumblebee::sim::figures::fig8;
use bumblebee::sim::{Engine, RunConfig};
use bumblebee::trace::SpecProfile;

/// FNV-1a over the results JSONL bytes (each line plus its `\n`).
const FIG8_SMALL_DIGEST: u64 = 0x8e98_b781_50e1_73d8;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn fig8_small_matrix_results_are_byte_identical() {
    let cfg = RunConfig::tiny();
    let profiles = [SpecProfile::mcf(), SpecProfile::wrf()];
    let data = fig8::run_with(&Engine::new(1), &cfg, &profiles).expect("fig8 runs");
    let lines = data.results.jsonl_lines();
    assert_eq!(lines.len(), 7 * profiles.len(), "7 designs x 2 profiles");
    let digest = lines
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"));
    assert_eq!(
        digest, FIG8_SMALL_DIGEST,
        "results digest {digest:016x} differs from the pinned {FIG8_SMALL_DIGEST:016x}"
    );
}
