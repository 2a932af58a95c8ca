//! Pins the cycle-domain output of a small Fig. 8 matrix to constants.
//!
//! Speed-only and simplifying changes must keep every simulated number
//! byte-identical. These tests run all seven Fig. 8 designs (No-HBM plus
//! the six compared designs) on two profiles at test scale, serially, and
//! compare FNV-1a digests of three outputs against the values the
//! simulator produced before the integer core clock, the DRAM burst table
//! and the single-driver pipeline:
//!
//! - the results JSONL, with and without metrics recording;
//! - the observability streams (epochs, trace, sampled latency and
//!   bandwidth JSONL) of the instrumented run;
//! - the sensitivity sweeps' JSONL.
//!
//! A change that moves any cycle, byte, energy or attribution figure fails
//! here; one that means to move them must update the constants on purpose.

use bumblebee::sim::figures::{fig8, sensitivity};
use bumblebee::sim::{Engine, MetricsConfig, RunConfig};
use bumblebee::trace::SpecProfile;

/// FNV-1a over the results JSONL bytes (each line plus its `\n`).
const FIG8_SMALL_DIGEST: u64 = 0x8e98_b781_50e1_73d8;

/// FNV-1a over `epochs ++ trace ++ lat ++ bw` JSONL lines of the same
/// matrix run under [`observed_metrics`].
const FIG8_SMALL_OBS_DIGEST: u64 = 0x66e6_21f6_1a5f_f511;

/// FNV-1a over the four sensitivity sweeps' JSONL lines, in sweep order.
const SENSITIVITY_SMALL_DIGEST: u64 = 0x5b86_766a_8f4d_386a;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest(lines: &[String]) -> u64 {
    lines
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"))
}

fn profiles() -> [SpecProfile; 2] {
    [SpecProfile::mcf(), SpecProfile::wrf()]
}

/// Every observability stream on: epochs every 1000 accesses, a 256-event
/// trace ring and one access in 16 latency-sampled.
fn observed_metrics() -> MetricsConfig {
    MetricsConfig {
        epoch_interval: 1000,
        event_capacity: 256,
        sample_rate: 16,
        ..MetricsConfig::default()
    }
}

#[test]
fn fig8_small_matrix_results_are_byte_identical() {
    let cfg = RunConfig::tiny();
    let data = fig8::run_with(&Engine::new(1), &cfg, &profiles()).expect("fig8 runs");
    let lines = data.results.jsonl_lines();
    assert_eq!(lines.len(), 7 * profiles().len(), "7 designs x 2 profiles");
    let d = digest(&lines);
    assert_eq!(
        d, FIG8_SMALL_DIGEST,
        "results digest {d:016x} differs from the pinned {FIG8_SMALL_DIGEST:016x}"
    );
}

#[test]
fn fig8_small_matrix_observability_streams_are_byte_identical() {
    let cfg = RunConfig::tiny();
    let engine = Engine::new(1).with_metrics(observed_metrics());
    let rs = fig8::run_with(&engine, &cfg, &profiles()).expect("fig8 runs").results;
    let results = digest(&rs.jsonl_lines());
    assert_eq!(
        results, FIG8_SMALL_DIGEST,
        "metrics recording moved the results digest to {results:016x}"
    );
    let mut lines = rs.epochs_jsonl_lines();
    lines.extend(rs.trace_jsonl_lines());
    lines.extend(rs.lat_jsonl_lines());
    lines.extend(rs.bw_jsonl_lines());
    let d = digest(&lines);
    assert_eq!(
        d, FIG8_SMALL_OBS_DIGEST,
        "observability digest {d:016x} over {} lines differs from the pinned \
         {FIG8_SMALL_OBS_DIGEST:016x}",
        lines.len()
    );
}

#[test]
fn sensitivity_sweeps_are_byte_identical() {
    let cfg = RunConfig::tiny();
    let engine = Engine::new(1);
    let ps = profiles();
    let mut points = sensitivity::sweep_hot_queue_with(&engine, &cfg, &ps).expect("sweep");
    points.extend(sensitivity::sweep_switch_fraction_with(&engine, &cfg, &ps).expect("sweep"));
    points.extend(sensitivity::sweep_ways_with(&engine, &cfg, &ps).expect("sweep"));
    points.extend(sensitivity::sweep_zombie_window_with(&engine, &cfg, &ps).expect("sweep"));
    let lines = sensitivity::jsonl_lines(&points);
    let d = digest(&lines);
    assert_eq!(
        d, SENSITIVITY_SMALL_DIGEST,
        "sensitivity digest {d:016x} over {} lines differs from the pinned \
         {SENSITIVITY_SMALL_DIGEST:016x}",
        lines.len()
    );
}
