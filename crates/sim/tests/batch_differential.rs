//! Differential property suite for the batched access pipeline: for
//! randomly drawn run configurations on two workload profiles (mcf, xz),
//! the engine must produce byte-identical output at batch widths
//! {1, 7, 64, 4096} — the `SimReport` JSONL line (which carries
//! `CtrlStats` and every cycle-domain invariant: cycles, IPC, hit rate,
//! migrations, over-fetch), the epoch time-series JSONL, the event-trace
//! JSONL, the sampled latency-attribution stream, and the
//! cause-attributed traffic/bandwidth stream. Batching is a pure
//! performance transform: chunks are cut at epoch boundaries and the
//! warm-up point, and planned device operations are serviced strictly in
//! access order, so width 1 (one access per chunk) is the unstaged
//! reference every wider chunk must reproduce exactly, at any `--jobs`
//! width.

use memsim_sim::{Design, Engine, ExperimentMatrix, MetricsConfig, RunConfig};
use memsim_trace::SpecProfile;
use proptest::prelude::*;

/// Runs the matrix at one (jobs, batch) point with metrics on.
fn run(
    m: &ExperimentMatrix,
    metrics: MetricsConfig,
    jobs: usize,
    batch: usize,
) -> memsim_sim::ResultSet {
    Engine::new(jobs).with_metrics(metrics).with_batch(batch).run(m).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn batched_runs_are_byte_identical_across_widths(
        xz in proptest::bool::ANY,
        accesses in 4_000u64..16_000,
        interval in 500u64..2_000,
    ) {
        let profile = if xz { SpecProfile::named("xz") } else { SpecProfile::mcf() };
        // Bumblebee and one baseline: the baseline exercises
        // the default (per-access) trait batch implementation, Bumblebee
        // the grouped override.
        let m = ExperimentMatrix::cross(
            "batch_diff",
            &[Design::Bumblebee, Design::Alloy],
            &[profile],
            &RunConfig::at_scale(256, accesses),
        );
        let metrics = MetricsConfig {
            epoch_interval: interval,
            event_capacity: 256,
            sample_rate: 16,
            ..MetricsConfig::default()
        };

        // Ground truth: one access per chunk.
        let reference = run(&m, metrics, 1, 1);
        prop_assert!(!reference.jsonl_lines().is_empty());
        prop_assert!(!reference.epochs_jsonl_lines().is_empty());
        prop_assert!(!reference.trace_jsonl_lines().is_empty());
        prop_assert!(!reference.lat_jsonl_lines().is_empty());
        prop_assert!(!reference.bw_jsonl_lines().is_empty());
        for (report, obs) in reference.reports().iter().zip(reference.observations().unwrap()) {
            prop_assert!(report.cycles > 0);
            prop_assert_eq!(obs.path_counts.iter().sum::<u64>(), report.stats.total_accesses());
            prop_assert_eq!(obs.path_counts[0] + obs.path_counts[1], report.stats.hbm_hits);
            memsim_obs::reconcile(&obs.traffic.matrix, report.hbm_bytes, report.dram_bytes)
                .map_err(TestCaseError::fail)?;
        }

        for batch in [7usize, 64, 4096] {
            let b = run(&m, metrics, 1, batch);
            prop_assert_eq!(reference.jsonl_lines(), b.jsonl_lines());
            prop_assert_eq!(reference.epochs_jsonl_lines(), b.epochs_jsonl_lines());
            prop_assert_eq!(reference.trace_jsonl_lines(), b.trace_jsonl_lines());
            prop_assert_eq!(reference.lat_jsonl_lines(), b.lat_jsonl_lines());
            prop_assert_eq!(reference.bw_jsonl_lines(), b.bw_jsonl_lines());
            // The underlying structures, not just their rendering.
            for ((br, bo), (rr, ro)) in b
                .reports()
                .iter()
                .zip(b.observations().unwrap())
                .zip(reference.reports().iter().zip(reference.observations().unwrap()))
            {
                prop_assert_eq!(&br.stats, &rr.stats);
                prop_assert_eq!(&bo.records, &ro.records);
                prop_assert_eq!(&bo.traffic, &ro.traffic);
            }
        }

        // And across --jobs widths at a fixed batch.
        let wide = run(&m, metrics, 4, 64);
        prop_assert_eq!(reference.jsonl_lines(), wide.jsonl_lines());
        prop_assert_eq!(reference.lat_jsonl_lines(), wide.lat_jsonl_lines());
        prop_assert_eq!(reference.bw_jsonl_lines(), wide.bw_jsonl_lines());
    }
}

/// Chunk cuts must handle totals that don't divide the batch width: the
/// tail chunk is short, and a warm-up point or epoch boundary landing
/// mid-chunk forces an early cut rather than a mid-chunk observation.
#[test]
fn non_divisible_tail_and_boundary_cuts_stay_identical() {
    let m = ExperimentMatrix::cross(
        "batch_tail",
        &[Design::Bumblebee, Design::Banshee],
        &[SpecProfile::mcf()],
        // 13_337 accesses + tiny()'s warm-up: prime-ish, far from any
        // power-of-two batch multiple.
        &RunConfig::at_scale(256, 13_337),
    );
    let metrics = MetricsConfig {
        epoch_interval: 777, // never aligned with the batch width
        event_capacity: 128,
        sample_rate: 32,
        ..MetricsConfig::default()
    };
    let reference = run(&m, metrics, 1, 1);
    for batch in [2usize, 100, 1000, 1 << 20] {
        let b = run(&m, metrics, 1, batch);
        assert_eq!(reference.jsonl_lines(), b.jsonl_lines(), "batch={batch}");
        assert_eq!(reference.epochs_jsonl_lines(), b.epochs_jsonl_lines(), "batch={batch}");
        assert_eq!(reference.lat_jsonl_lines(), b.lat_jsonl_lines(), "batch={batch}");
        assert_eq!(reference.bw_jsonl_lines(), b.bw_jsonl_lines(), "batch={batch}");
    }
}
