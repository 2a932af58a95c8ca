//! Integration tests for the experiment engine: a matrix must produce
//! byte-identical results at any `--jobs` width, no figure matrix may run
//! the same cell twice, and figures that share a cell must agree on it.

use memsim_sim::figures::fig8::{self, Panel};
use memsim_sim::figures::sensitivity::{self, Sweep};
use memsim_sim::figures::{fig6, fig7};
use memsim_sim::{
    Cell, Design, Engine, ExperimentMatrix, MetricsConfig, RunConfig, DEFAULT_BATCH,
};
use memsim_trace::SpecProfile;

fn small_matrix() -> ExperimentMatrix {
    let mut cfg = RunConfig::tiny();
    cfg.accesses = 6_000;
    ExperimentMatrix::cross(
        "determinism",
        &[Design::NoHbm, Design::Bumblebee, Design::Banshee],
        &[SpecProfile::mcf(), SpecProfile::wrf(), SpecProfile::named("bwaves")],
        &cfg,
    )
}

#[test]
fn parallel_execution_is_byte_identical_to_serial() {
    let serial = Engine::new(1).run(&small_matrix()).expect("serial run");
    let parallel = Engine::new(8).run(&small_matrix()).expect("parallel run");
    assert_eq!(serial.len(), parallel.len());
    // JSONL lines capture every report field plus cell metadata; equality
    // here means the executor's scheduling left no trace in the results.
    assert_eq!(serial.jsonl_lines(), parallel.jsonl_lines());
}

#[test]
fn result_set_lookup_matches_cell_order() {
    let results = Engine::new(4).run(&small_matrix()).expect("run");
    for (i, cell) in results.cells().iter().enumerate() {
        let r = results
            .get(&cell.tag, cell.design.label(), cell.profile.name)
            .expect("every cell indexed");
        assert_eq!(r.design, results.reports()[i].design);
        assert_eq!(r.workload, results.reports()[i].workload);
    }
}

#[test]
fn fig8_parallel_matches_serial_wrapper() {
    let mut cfg = RunConfig::tiny();
    cfg.accesses = 6_000;
    let profiles = [SpecProfile::mcf(), SpecProfile::wrf()];
    let serial = fig8::run_with(&Engine::new(1), &cfg, &profiles).expect("serial");
    let parallel = fig8::run_with(&Engine::new(8), &cfg, &profiles).expect("parallel");
    for (a, b) in serial.reports.iter().flatten().zip(parallel.reports.iter().flatten()) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.hbm_bytes, b.hbm_bytes);
        assert_eq!(a.dram_bytes, b.dram_bytes);
    }
}

#[test]
fn workload_types_are_send_and_sync_enough_for_the_engine() {
    // The engine shares cells across worker threads by reference and moves
    // reports back; pin the auto-trait requirements so a future field
    // (e.g. an Rc) fails here instead of deep inside thread::scope.
    fn assert_sync<T: Sync>() {}
    fn assert_send<T: Send>() {}
    assert_sync::<memsim_sim::Cell>();
    assert_send::<memsim_sim::SimReport>();
}

#[test]
fn fig6_sweep_is_byte_identical_at_any_batch_width() {
    // One sweep over all nine block/page geometries, every stream on: the
    // chunked pipeline must reproduce width 1 (one access per chunk)
    // byte for byte in the results, epochs, trace, lat and bw JSONL.
    let cfg = RunConfig::at_scale(256, 20_000);
    let metrics = MetricsConfig { sample_rate: 64, ..MetricsConfig::default() };
    let run = |batch: usize| {
        let engine = Engine::new(2).with_metrics(metrics).with_batch(batch);
        let (_, rs) = fig6::run_with(&engine, &cfg, &[SpecProfile::mcf()]).expect("fig6 runs");
        [
            rs.jsonl_lines(),
            rs.epochs_jsonl_lines(),
            rs.trace_jsonl_lines(),
            rs.lat_jsonl_lines(),
            rs.bw_jsonl_lines(),
        ]
    };
    let streams = ["results", "epochs", "trace", "lat", "bw"];
    let reference = run(1);
    for (name, lines) in streams.iter().zip(&reference) {
        assert!(!lines.is_empty(), "no {name} lines");
    }
    for batch in [64, DEFAULT_BATCH] {
        for (name, (a, b)) in streams.iter().zip(reference.iter().zip(run(batch))) {
            assert!(*a == b, "fig6 {name} lines differ between batch 1 and {batch}");
        }
    }
}

#[test]
fn no_figure_matrix_repeats_a_cell() {
    // A cell's report depends on its design, the geometry that design reads
    // (No-HBM reads only the off-chip capacity) and its stream's seed.
    let key = |c: &Cell| {
        let g = c.cfg.geometry;
        (c.design, c.design.uses_hbm().then_some(g), g.dram_bytes(), c.cfg.seed)
    };
    let cfg = RunConfig::scaled();
    let profiles = SpecProfile::table2();
    for (m, cells) in [
        (fig6::matrix(&cfg, &profiles).expect("fig6 geometries"), 140),
        (fig7::matrix(&cfg, &profiles), 154),
        (fig8::matrix(&cfg, &profiles), 98),
        (sensitivity::matrix(&cfg, &profiles, &Sweep::ALL).expect("sweep geometries"), 238),
    ] {
        assert_eq!(m.len(), cells, "{}", m.name());
        for (i, a) in m.cells().iter().enumerate() {
            for b in &m.cells()[..i] {
                assert!(key(a) != key(b), "{}: {} repeats {}", m.name(), a.label(), b.label());
            }
        }
    }
}

#[test]
fn every_sweeps_paper_default_row_is_fig8_bumblebee_all() {
    let cfg = RunConfig::tiny();
    let profiles = [SpecProfile::mcf(), SpecProfile::wrf()];
    let engine = Engine::new(2);
    let data = fig8::run_with(&engine, &cfg, &profiles).expect("fig8 runs");
    let bee = Design::fig8().iter().position(|&d| d == Design::Bumblebee).expect("in fig8");
    let all = data.cell(bee, "All", Panel::Ipc);
    let (points, _) =
        sensitivity::run_with(&engine, &cfg, &profiles, &Sweep::ALL).expect("sweeps run");
    let defaults = [
        ("hot_queue_len", "8"),
        ("mode_switch_fraction", "0.5"),
        ("hbm_ways", "8"),
        ("zombie_window", "1024"),
    ];
    for (parameter, value) in defaults {
        let row = points
            .iter()
            .find(|p| p.parameter == parameter && p.value == value)
            .unwrap_or_else(|| panic!("no {parameter}={value} row"));
        assert_eq!(row.speedup, all, "{parameter}={value} against Fig. 8 Bumblebee All");
    }
}
