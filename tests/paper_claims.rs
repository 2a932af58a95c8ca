//! Directional reproduction of the paper's headline claims at test scale.
//!
//! These assert the *shape* of the results — who wins, roughly where —
//! not absolute magnitudes (see EXPERIMENTS.md for the calibrated runs).

use bumblebee::sim::figures::{fig1, fig8};
use bumblebee::sim::{geomean, run_design, run_reference, Design, Engine, RunConfig};
use bumblebee::trace::SpecProfile;

fn mix() -> Vec<SpecProfile> {
    // One workload per locality archetype plus a big-footprint streamer.
    vec![
        SpecProfile::mcf(),
        SpecProfile::wrf(),
        SpecProfile::named("bwaves"),
        SpecProfile::named("roms"),
    ]
}

fn geomean_speedup(design: Design, cfg: &RunConfig, profiles: &[SpecProfile]) -> f64 {
    let mut v = Vec::new();
    for p in profiles {
        let base = run_reference(cfg, p).expect("baseline");
        let r = run_design(design, cfg, p).expect("run");
        v.push(r.normalized_ipc(&base));
    }
    geomean(&v)
}

#[test]
fn bumblebee_beats_every_baseline_on_the_mix() {
    // 60k accesses: enough for the streaming workloads' geomean to settle —
    // at 20k the Banshee-vs-Bumblebee ordering is still seed noise.
    let mut cfg = RunConfig::tiny();
    cfg.accesses = 60_000;
    let profiles = mix();
    let bee = geomean_speedup(Design::Bumblebee, &cfg, &profiles);
    assert!(bee > 1.0, "Bumblebee speedup {bee:.2}");
    for d in [Design::Banshee, Design::Alloy, Design::Unison, Design::Chameleon, Design::Hybrid2] {
        let other = geomean_speedup(d, &cfg, &profiles);
        assert!(
            bee >= other,
            "Bumblebee {bee:.2} must beat {} {other:.2}",
            d.label()
        );
    }
}

#[test]
fn adjustable_ratio_beats_single_modes() {
    // Fig. 7's core claim: the adaptive design beats C-Only and M-Only.
    let cfg = RunConfig::tiny();
    let profiles = mix();
    let bee = geomean_speedup(Design::Bumblebee, &cfg, &profiles);
    let c_only = geomean_speedup(Design::Ablation("C-Only"), &cfg, &profiles);
    let m_only = geomean_speedup(Design::Ablation("M-Only"), &cfg, &profiles);
    assert!(bee >= c_only * 0.98, "adaptive {bee:.2} vs C-Only {c_only:.2}");
    assert!(bee >= m_only * 0.98, "adaptive {bee:.2} vs M-Only {m_only:.2}");
}

#[test]
fn metadata_is_orders_of_magnitude_smaller_than_block_tag_designs() {
    // §IV-B: Bumblebee's metadata is 1–2 orders below tag-based designs
    // at the same geometry, and fits the SRAM budget.
    let cfg = RunConfig::tiny();
    let bee = Design::Bumblebee.build(cfg.geometry, cfg.sram_budget);
    let alloy = Design::Alloy.build(cfg.geometry, cfg.sram_budget);
    use bumblebee::types::HybridMemoryController;
    assert!(
        bee.metadata_bytes() * 10 <= alloy.metadata_bytes(),
        "bumblebee {} vs alloy {}",
        bee.metadata_bytes(),
        alloy.metadata_bytes()
    );
    assert!(bee.metadata_bytes() <= cfg.sram_budget);
}

#[test]
fn overfetch_stays_moderate_for_bumblebee() {
    // §IV-B: 13.3% at paper scale. At test scale (1/256 capacity)
    // evictions come orders of magnitude sooner, so fetched lines get far
    // less time to accumulate reuse; we bound the ratio loosely and record
    // the calibrated value in EXPERIMENTS.md.
    let cfg = RunConfig::tiny();
    let mut total = 0.0;
    let mut n = 0;
    for p in mix() {
        let r = run_design(Design::Bumblebee, &cfg, &p).expect("run");
        if let Some(of) = r.overfetch {
            total += of;
            n += 1;
        }
    }
    let avg = total / f64::from(n);
    assert!(avg < 0.55, "average over-fetch {avg:.2}");
}

#[test]
fn fig1_motivation_shape_holds() {
    // wrf (weak spatial): hot share collapses with line size.
    // mcf (strong/strong): stays hot even at 64 KB lines.
    let mut cfg = RunConfig::tiny();
    cfg.accesses = 120_000;
    let wrf = fig1::run_workload(&cfg, &SpecProfile::wrf());
    let mcf = fig1::run_workload(&cfg, &SpecProfile::mcf());
    let hot = |s: &fig1::BucketShares| 1.0 - s.0[0];
    assert!(hot(&wrf[0].1) > hot(&wrf[5].1), "wrf degrades with line size");
    assert!(hot(&mcf[5].1) > hot(&wrf[5].1), "mcf stays hotter at 64KB");
}

#[test]
fn fig8_data_is_internally_consistent() {
    let cfg = RunConfig::tiny();
    let profiles = [SpecProfile::mcf(), SpecProfile::named("bwaves")];
    let data = fig8::run_with(&Engine::new(1), &cfg, &profiles).expect("comparison");
    // All-group IPC cell equals the geomean over per-workload ratios.
    let bee = Design::fig8().iter().position(|d| *d == Design::Bumblebee).unwrap();
    let cell = data.cell(bee, "All", fig8::Panel::Ipc);
    let manual: Vec<f64> = (0..profiles.len())
        .map(|w| data.reports[bee][w].normalized_ipc(&data.baselines[w]))
        .collect();
    assert!((cell - geomean(&manual)).abs() < 1e-9);
    // Traffic cells are non-negative and finite everywhere.
    for (i, _) in Design::fig8().iter().enumerate() {
        for g in fig8::GROUPS {
            for p in fig8::Panel::all() {
                let v = data.cell(i, g, p);
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }
}

#[test]
fn high_footprint_workloads_fault_on_cache_designs_not_pom() {
    // The OS-capacity story behind the High-MPKI group: roms exceeds
    // off-chip DRAM, so cache-only designs page-fault while POM/hybrid
    // designs serve from the enlarged flat space.
    // 60k accesses so the streamer keeps touching fresh pages well past the
    // warmup window — at 20k every fault can land pre-measurement.
    let mut cfg = RunConfig::tiny();
    cfg.accesses = 60_000;
    let roms = SpecProfile::named("roms");
    let base = run_design(Design::NoHbm, &cfg, &roms).expect("run");
    let bee = run_design(Design::Bumblebee, &cfg, &roms).expect("run");
    assert!(base.stall_cycles > 0, "no-HBM must fault on roms");
    assert!(
        base.page_faults.unwrap_or(0) > 0 && bee.page_faults == Some(0),
        "faults: no-HBM {:?} vs Bumblebee {:?}",
        base.page_faults,
        bee.page_faults
    );
    assert!(
        bee.stall_cycles < base.stall_cycles / 10,
        "Bumblebee absorbs roms in the flat space: {} vs {}",
        bee.stall_cycles,
        base.stall_cycles
    );
}
