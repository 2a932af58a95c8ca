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
//! - the results JSONL of the four sensitivity sweeps' matrix;
//! - the results, sampled latency and bandwidth JSONL of the seven designs
//!   on mcf and xz with one access in 64 latency-sampled, at chunk width 1
//!   and at the default width;
//! - the JSONL of Table I, Table II and the §IV-B metadata table, pinned
//!   before the unused L1/L2/L3 cache model was deleted;
//! - the results JSONL of the seven designs on wrf and cam4 at paper
//!   geometry (scale 1), where Alloy and Chameleon hold their full-size line
//!   and group arrays, pinned before those arrays were repacked;
//! - the results JSONL of Fig. 7's No-HBM baseline and ten Bumblebee
//!   ablations on mcf and wrf, whose fixed-ratio quotas, allocation
//!   policies, No-HMF and No-Multi paths drive hot-table operations that
//!   Fig. 8 never takes, pinned before the hot table became two scanned
//!   queues;
//! - the observability streams of the same Fig. 7 matrix, whose traffic
//!   matrices split each ablation's round trips, fixed-ratio writebacks and
//!   metadata spills by device class (mHBM, cHBM, off-chip), which the
//!   results JSONL sums into one HBM byte count.
//!
//! A change that moves any cycle, byte, energy or attribution figure fails
//! here; one that means to move them must update the constants on purpose.

use bumblebee::sim::figures::sensitivity::{self, Sweep};
use bumblebee::sim::figures::{fig7, fig8, tables};
use bumblebee::sim::{Engine, MetricsConfig, ResultSet, RunConfig};
use bumblebee::trace::SpecProfile;

/// FNV-1a over the results JSONL bytes (each line plus its `\n`).
const FIG8_SMALL_DIGEST: u64 = 0x8e98_b781_50e1_73d8;

/// FNV-1a over `epochs ++ trace ++ lat ++ bw` JSONL lines of the same
/// matrix run under [`observed_metrics`].
const FIG8_SMALL_OBS_DIGEST: u64 = 0x66e6_21f6_1a5f_f511;

/// FNV-1a over the results JSONL of the four sensitivity sweeps' matrix.
const SENSITIVITY_SMALL_DIGEST: u64 = 0x9e3e_a5a7_40cd_7d2b;

/// FNV-1a over `results ++ lat ++ bw` JSONL lines of the seven designs on
/// mcf and xz at test scale, sampled as in [`sampled_metrics`].
const FIG8_MCF_XZ_DIGEST: u64 = 0x5a38_9865_f4b7_95a6;

/// FNV-1a over `table1 ++ table2 ++ metadata` JSONL lines at test scale.
const TABLES_DIGEST: u64 = 0x67de_6eff_45e5_eaee;

/// FNV-1a over the results JSONL of the seven designs on wrf and cam4 at
/// scale 1 and 10,000 accesses.
const FIG8_PAPER_GEOMETRY_DIGEST: u64 = 0x1472_cf81_2b80_2394;

/// FNV-1a over the results JSONL of Fig. 7's 22 cells on mcf and wrf at
/// test scale.
const FIG7_SMALL_DIGEST: u64 = 0x9918_bc24_9eb1_e2ee;

/// FNV-1a over `epochs ++ trace ++ lat ++ bw` JSONL lines of the same
/// Fig. 7 matrix run under [`observed_metrics`].
const FIG7_SMALL_OBS_DIGEST: u64 = 0x0cda_0fe5_9ed1_fb02;

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

/// `epochs ++ trace ++ lat ++ bw` JSONL lines of an instrumented run.
fn observability_lines(rs: &ResultSet) -> Vec<String> {
    let mut lines = rs.epochs_jsonl_lines();
    lines.extend(rs.trace_jsonl_lines());
    lines.extend(rs.lat_jsonl_lines());
    lines.extend(rs.bw_jsonl_lines());
    lines
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
    let lines = observability_lines(&rs);
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
    let (_, results) = sensitivity::run_with(&Engine::new(1), &cfg, &profiles(), &Sweep::ALL)
        .expect("sweeps run");
    let lines = results.jsonl_lines();
    assert_eq!(lines.len(), (2 + 15) * profiles().len(), "2 shared + 15 swept cells per profile");
    let d = digest(&lines);
    assert_eq!(
        d, SENSITIVITY_SMALL_DIGEST,
        "sensitivity digest {d:016x} over {} lines differs from the pinned \
         {SENSITIVITY_SMALL_DIGEST:016x}",
        lines.len()
    );
}

/// Latency sampling at one access in 64, every other stream at its default.
fn sampled_metrics() -> MetricsConfig {
    MetricsConfig { sample_rate: 64, ..MetricsConfig::default() }
}

/// Pins every design's cycles, IPC, hit rate, migrations, over-fetch,
/// per-path latency tails and cause-attributed traffic on mcf and xz, and
/// checks that the chunked pipeline is a pure speed transform: width 1
/// (one access per chunk) and the default width give the same bytes.
#[test]
fn fig8_mcf_xz_matrix_is_byte_identical_at_any_batch_width() {
    let cfg = RunConfig::tiny();
    let profiles = [SpecProfile::mcf(), SpecProfile::xz()];
    for engine in [Engine::new(1).with_batch(1), Engine::new(1)] {
        let width = engine.batch();
        let engine = engine.with_metrics(sampled_metrics());
        let rs = fig8::run_with(&engine, &cfg, &profiles).expect("fig8 runs").results;
        let mut lines = rs.jsonl_lines();
        lines.extend(rs.lat_jsonl_lines());
        lines.extend(rs.bw_jsonl_lines());
        let d = digest(&lines);
        assert_eq!(
            d, FIG8_MCF_XZ_DIGEST,
            "mcf/xz digest {d:016x} over {} lines at batch width {width} differs from the \
             pinned {FIG8_MCF_XZ_DIGEST:016x}",
            lines.len()
        );
    }
}

#[test]
fn tables_are_byte_identical() {
    let cfg = RunConfig::tiny();
    let mut lines = tables::table1_jsonl(&cfg);
    lines.extend(tables::table2_jsonl(&tables::table2_with(&Engine::new(1), &cfg)));
    lines.extend(tables::metadata_jsonl(&tables::metadata_rows(&cfg), cfg.sram_budget));
    assert_eq!(lines.len(), 1 + 14 + 6, "one Table I line, 14 Table II rows, 6 designs");
    let d = digest(&lines);
    assert_eq!(
        d, TABLES_DIGEST,
        "tables digest {d:016x} over {} lines differs from the pinned {TABLES_DIGEST:016x}",
        lines.len()
    );
}

/// The test-scale digests above run Alloy with 16 K lines and Chameleon
/// with 1 K groups; this one runs them at Table I size (16 M lines, 256 K
/// groups) on a short horizon.
#[test]
fn fig8_paper_geometry_results_are_byte_identical() {
    let cfg = RunConfig::at_scale(1, 10_000);
    let profiles = [SpecProfile::wrf(), SpecProfile::named("cam4")];
    let data = fig8::run_with(&Engine::new(1), &cfg, &profiles).expect("fig8 runs");
    let lines = data.results.jsonl_lines();
    assert_eq!(lines.len(), 7 * profiles.len(), "7 designs x 2 profiles");
    let d = digest(&lines);
    assert_eq!(
        d, FIG8_PAPER_GEOMETRY_DIGEST,
        "paper-geometry digest {d:016x} differs from the pinned {FIG8_PAPER_GEOMETRY_DIGEST:016x}"
    );
}

#[test]
fn fig7_small_matrix_results_are_byte_identical() {
    let cfg = RunConfig::tiny();
    let (_, results) = fig7::run_with(&Engine::new(1), &cfg, &profiles()).expect("fig7 runs");
    let lines = results.jsonl_lines();
    assert_eq!(lines.len(), 11 * profiles().len(), "No-HBM + 10 ablations x 2 profiles");
    let d = digest(&lines);
    assert_eq!(
        d, FIG7_SMALL_DIGEST,
        "fig7 digest {d:016x} differs from the pinned {FIG7_SMALL_DIGEST:016x}"
    );
}

#[test]
fn fig7_small_matrix_observability_streams_are_byte_identical() {
    let cfg = RunConfig::tiny();
    let engine = Engine::new(1).with_metrics(observed_metrics());
    let (_, rs) = fig7::run_with(&engine, &cfg, &profiles()).expect("fig7 runs");
    let results = digest(&rs.jsonl_lines());
    assert_eq!(
        results, FIG7_SMALL_DIGEST,
        "metrics recording moved the fig7 results digest to {results:016x}"
    );
    let lines = observability_lines(&rs);
    let d = digest(&lines);
    assert_eq!(
        d, FIG7_SMALL_OBS_DIGEST,
        "fig7 observability digest {d:016x} over {} lines differs from the pinned \
         {FIG7_SMALL_OBS_DIGEST:016x}",
        lines.len()
    );
}
