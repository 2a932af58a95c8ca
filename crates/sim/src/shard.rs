//! Set-sharded execution of one simulation run.
//!
//! [`run_design_sharded`] executes a single cell as N deterministic
//! per-shard sub-runs plus a commutative merge, producing **byte-identical
//! output at any shard count**. The unit of independence is the remapping
//! SET, not the shard: every set carries its own clock, its own pair of
//! DRAM device models, its own movement-credit pool and its own
//! pressure-flush cooldown, so regrouping sets into different shards
//! cannot change any per-set sequence. A [`ShardPlan`] is merely a
//! scheduling grouping of sets onto worker threads.
//!
//! The pipeline composes the shard layers of the lower crates:
//!
//! * [`memsim_trace::ShardStream`] — each worker regenerates the full
//!   SplitMix64 stream and keeps only its owned sets, paired with global
//!   indices;
//! * [`bumblebee_core::ControllerShard`] — per-set controller state with
//!   shard-local stats/overfetch/telemetry and the global-index metadata
//!   spill schedule;
//! * per-set [`DramDevice`] pairs — all device work of one access
//!   (demand, fills, migrations, metadata spills, set-local flushes)
//!   executes in the accessed set's time domain;
//! * merge — integer counters sum commutatively; epoch snapshots chain
//!   from summed [`EpochPartial`]s; event rings merge by global sequence
//!   number; energy is priced once from the merged device counters.
//!
//! Sharded execution intentionally differs from the serial path in the
//! two documented per-set reformulations (movement credit, pressure
//! flush), so `--shards 1` output matches `--shards N` output but not the
//! legacy serial run; see DESIGN.md §10.

use crate::designs::Design;
use crate::report::SimReport;
use crate::run::{RunConfig, RunObservations};
use crate::system::SystemCounters;
use bumblebee_core::{BumblebeeConfig, ControllerShard, EpochPartial};
use memsim_dram::{
    background_energy_pj_for, dynamic_energy_pj_for, presets, DeviceCounters, DramDevice,
};
use memsim_obs::span::{self, Phase};
use memsim_obs::{
    merge_shard_events, merge_shard_records, sampled, AccessRecord, BwPoint, DeviceHistograms,
    EpochSnapshot, LatRing, MetricsConfig, RunRecorder, SpanTree, TimedEvent, TrafficAccum,
};
use memsim_trace::{ShardStream, SpecProfile};
use memsim_types::{
    AccessBatch, AccessPlan, Addr, CtrlStats, GeometryError, Mem, PlanBuffer, TrafficCause,
    TrafficDevice,
};

/// A partition of the remapping sets into contiguous, balanced,
/// gap-free worker ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<(u64, u64)>,
}

impl ShardPlan {
    /// Partitions `num_sets` sets into `shards` contiguous ranges
    /// (clamped to `[1, num_sets]`); the first `num_sets % shards` ranges
    /// are one set longer, so sizes differ by at most one.
    pub fn new(num_sets: u64, shards: usize) -> ShardPlan {
        let n = (shards.max(1) as u64).min(num_sets.max(1));
        let base = num_sets / n;
        let rem = num_sets % n;
        let mut ranges = Vec::with_capacity(n as usize);
        let mut lo = 0;
        for i in 0..n {
            let len = base + u64::from(i < rem);
            ranges.push((lo, lo + len));
            lo += len;
        }
        ShardPlan { ranges }
    }

    /// The `[lo, hi)` set ranges, ascending and adjacent.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the plan is empty (never: at least one shard).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// One set's private execution domain: devices and clock.
#[derive(Debug)]
struct SetDomain {
    hbm: DramDevice,
    dram: DramDevice,
    now: u64,
}

impl SetDomain {
    fn device(&mut self, mem: Mem) -> &mut DramDevice {
        match mem {
            Mem::Hbm => &mut self.hbm,
            Mem::OffChip => &mut self.dram,
        }
    }
}

/// Everything one shard worker hands back for the merge.
#[derive(Debug)]
struct WorkerOut {
    stats: CtrlStats,
    partials: Vec<EpochPartial>,
    counters_end: SystemCounters,
    counters_warm: SystemCounters,
    cycles_end: u64,
    cycles_warm: u64,
    hbm_counters: DeviceCounters,
    dram_counters: DeviceCounters,
    hbm_hist: DeviceHistograms,
    dram_hist: DeviceHistograms,
    events: Option<(Vec<TimedEvent>, u64)>,
    records: Option<(Vec<AccessRecord>, u64)>,
    path_counts: [u64; 5],
    mhbm_frames: u64,
    page_faults: u64,
    mode_switch_bytes: u64,
    overfetch: Option<(u64, u64)>,
    metadata_bytes: u64,
    spans: Option<SpanTree>,
    traffic: Option<TrafficAccum>,
    bw_points: Vec<BwPoint>,
}

/// This shard's cumulative contribution to the bandwidth snapshot at an
/// epoch boundary: its attributed class bytes plus the per-channel busy
/// cycles and clocks of every set domain it owns. Same-boundary partials
/// from different shards [`absorb`](BwPoint::absorb) into the exact
/// global snapshot.
fn bw_partial(acc: &TrafficAccum, domains: &[SetDomain]) -> BwPoint {
    let mut class_bytes = [0u64; 3];
    for d in TrafficDevice::ALL {
        class_bytes[d.index()] = acc.matrix.device_bytes(d);
    }
    let first = domains.first().expect("every shard owns at least one set");
    let mut hbm_busy = vec![0u64; first.hbm.config().channels as usize];
    let mut dram_busy = vec![0u64; first.dram.config().channels as usize];
    let mut cycles = 0u64;
    for d in domains {
        for (sum, c) in hbm_busy.iter_mut().zip(d.hbm.channel_busy_cycles()) {
            *sum += c;
        }
        for (sum, c) in dram_busy.iter_mut().zip(d.dram.channel_busy_cycles()) {
            *sum += c;
        }
        cycles += d.now;
    }
    BwPoint { class_bytes, cycles, hbm_busy, dram_busy }
}

// audit: allow(det-thread) -- shard workers are the deterministic-by-merge parallel engine
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn shard_worker(
    cfg: &RunConfig,
    profile: &SpecProfile,
    bee_cfg: &BumblebeeConfig,
    lo: u64,
    hi: u64,
    metrics: Option<&MetricsConfig>,
    profile_spans: bool,
    batch: usize,
) -> WorkerOut {
    if profile_spans {
        span::enable();
    }
    let geometry = cfg.geometry;
    let mut shard = ControllerShard::new(geometry, bee_cfg.clone(), lo, hi);
    if let Some(m) = metrics {
        shard.telemetry_mut().install(Box::new(RunRecorder::new(m)));
    }
    let mut domains: Vec<SetDomain> = (lo..hi)
        .map(|_| SetDomain {
            hbm: DramDevice::new(presets::hbm2(geometry.hbm_bytes())),
            dram: DramDevice::new(presets::ddr4_3200(geometry.dram_bytes())),
            now: 0,
        })
        .collect();
    let total = cfg.warmup + cfg.accesses;
    let interval = metrics.map_or(0, |m| m.epoch_interval);
    let mut next_boundary = if interval > 0 { interval } else { u64::MAX };
    let mut partials: Vec<EpochPartial> = Vec::new();
    let mut counters = SystemCounters::default();
    let mut warm: Option<(SystemCounters, u64)> = None;
    let mut plan = AccessPlan::new();
    let sample_rate = metrics.map_or(0, |m| m.sample_rate);
    let mut lat_ring = metrics
        .filter(|m| m.sample_rate > 0)
        .map(|m| LatRing::new(m.record_capacity));
    let mut path_counts = [0u64; 5];
    let mut traffic = metrics.map(|_| TrafficAccum::new());
    let mut bw_points: Vec<BwPoint> = Vec::new();
    let mut stream = ShardStream::new(cfg.workload(profile), geometry, lo, hi, total);
    let mut soa = AccessBatch::with_capacity(batch.max(1));
    let mut gis: Vec<u64> = Vec::with_capacity(batch.max(1));
    let mut plans = PlanBuffer::new();
    while stream.position() < total {
        let pos = stream.position();
        // Eager boundary catch-up: shard state only changes on owned
        // accesses, so pushing a partial when the global cursor crosses
        // boundary B captures exactly the same state as the serial
        // worker's lazy push at the next owned access ≥ B.
        while next_boundary <= pos {
            partials.push(shard.epoch_partial());
            if let Some(acc) = traffic.as_ref() {
                bw_points.push(bw_partial(acc, &domains));
            }
            next_boundary += interval;
        }
        if warm.is_none() && pos >= cfg.warmup {
            warm = Some((counters, domains.iter().map(|d| d.now).sum()));
        }
        // Chunk cut: never consume the stream past the next epoch
        // boundary or the warm-up snapshot point, so both observations
        // stay between-chunk events.
        let mut stop = total.min(next_boundary);
        if pos < cfg.warmup {
            stop = stop.min(cfg.warmup);
        }
        {
            let _gen = span::span(Phase::TraceGen);
            stream.fill_batch(&mut soa, &mut gis, batch.max(1), stop);
        }
        if soa.is_empty() {
            continue;
        }
        {
            let _lookup = span::span(Phase::CtrlLookup);
            shard.access_batch_at(&gis, &soa, &mut plans);
        }
        let service = span::span(Phase::DramService);
        for k in 0..soa.len() {
            let view = plans.entry(k);
            let gi = gis[k];
            if let Some(acc) = traffic.as_mut() {
                acc.record_view(view.critical, view.background);
            }
            counters.accesses += 1;
            counters.instructions += u64::from(soa.insts[k]);
            path_counts[view.path.index()] += 1;
            let d =
                &mut domains[(ShardStream::set_of(&geometry, Addr(soa.addrs[k])) - lo) as usize];
            // Same sampler, same global index, same probe discipline as
            // the serial path (`step_probed`): the record stream merges
            // byte-identically at any shard and batch width.
            let sample_this = lat_ring.is_some() && sampled(gi, sample_rate);
            let mut t = d.now + u64::from(view.metadata_cycles);
            let mut mal = u64::from(view.metadata_cycles);
            let mut queue = 0u64;
            for i in 0..view.critical.len() {
                let op = view.critical[i];
                let start = t;
                let q0 = if sample_this && op.cause != TrafficCause::Metadata {
                    d.device(op.mem).histograms().queue_wait.sum()
                } else {
                    0
                };
                t = d.device(op.mem).access(op.addr, op.bytes, op.kind, t);
                if op.cause == TrafficCause::Metadata {
                    mal += t - start;
                } else if sample_this {
                    queue += d.device(op.mem).histograms().queue_wait.sum() - q0;
                }
            }
            let raw_latency = t - d.now;
            if sample_this {
                if let Some(ring) = lat_ring.as_mut() {
                    ring.push(AccessRecord {
                        seq: gi,
                        path: view.path,
                        lookup: mal,
                        queue,
                        service: raw_latency - mal - queue,
                        stall: view.stall_cycles,
                        total: raw_latency + view.stall_cycles,
                    });
                }
            }
            let background_at = d.now;
            for i in 0..view.background.len() {
                let op = view.background[i];
                d.device(op.mem).access(op.addr, op.bytes, op.kind, background_at);
            }
            let (compute, exposed) =
                cfg.params.core_cycles(soa.insts[k], raw_latency, soa.kinds[k]);
            counters.demand_cycles += exposed;
            counters.mal_cycles += mal;
            counters.stall_cycles += view.stall_cycles;
            d.now += compute + exposed + view.stall_cycles;
        }
        drop(service);
    }
    // Drain: boundaries past the last owned access, and the warm snapshot
    // when every owned access fell inside warm-up (state is final either
    // way, so the snapshot still equals this shard's share at the warm
    // point... which is its share at all later points too).
    while next_boundary <= total {
        partials.push(shard.epoch_partial());
        if let Some(acc) = traffic.as_ref() {
            bw_points.push(bw_partial(acc, &domains));
        }
        next_boundary += interval;
    }
    let (counters_warm, cycles_warm) =
        warm.unwrap_or_else(|| (counters, domains.iter().map(|d| d.now).sum()));
    let cycles_end: u64 = domains.iter().map(|d| d.now).sum();

    // End-of-run drain, per set in its own time domain; events emitted
    // here carry the total access count, like the serial path's.
    shard.telemetry_mut().sync_accesses(total);
    for set in lo..hi {
        plan.clear();
        shard.finish_set(set, &mut plan);
        if let Some(acc) = traffic.as_mut() {
            acc.record_drain(&plan);
        }
        let d = &mut domains[(set - lo) as usize];
        let at = d.now;
        for i in 0..plan.background.len() {
            let op = plan.background[i];
            d.device(op.mem).access(op.addr, op.bytes, op.kind, at);
        }
    }
    shard.finish_overfetch();

    let mut hbm_counters = DeviceCounters::default();
    let mut dram_counters = DeviceCounters::default();
    let mut hbm_hist = DeviceHistograms::new();
    let mut dram_hist = DeviceHistograms::new();
    for d in &domains {
        hbm_counters.merge(d.hbm.counters());
        dram_counters.merge(d.dram.counters());
        hbm_hist.latency.merge(&d.hbm.histograms().latency);
        hbm_hist.queue_wait.merge(&d.hbm.histograms().queue_wait);
        dram_hist.latency.merge(&d.dram.histograms().latency);
        dram_hist.queue_wait.merge(&d.dram.histograms().queue_wait);
    }
    let events = shard.telemetry_mut().take().and_then(|rec| {
        let (epochs, events, dropped) = rec.into_run()?.into_parts();
        debug_assert!(epochs.is_empty(), "shards never sample epochs themselves");
        Some((events, dropped))
    });
    let records = lat_ring.map(|r| {
        let dropped = r.dropped();
        (r.into_vec(), dropped)
    });
    WorkerOut {
        stats: shard.stats().clone(),
        partials,
        counters_end: counters,
        counters_warm,
        cycles_end,
        cycles_warm,
        hbm_counters,
        dram_counters,
        hbm_hist,
        dram_hist,
        events,
        records,
        path_counts,
        mhbm_frames: shard.mhbm_frames(),
        page_faults: shard.page_faults(),
        mode_switch_bytes: shard.mode_switch_bytes(),
        overfetch: shard.overfetch_bytes(),
        metadata_bytes: shard.metadata_bytes(),
        spans: profile_spans.then(span::collect),
        traffic,
        bw_points,
    }
}

/// Runs `design` on `profile` as `shards` deterministic sub-runs and
/// merges, mirroring [`run_design_with`](crate::run::run_design_with)'s
/// contract. Each worker drives its stream in chunks of up to `batch`
/// accesses, cutting chunks at epoch boundaries and the warm-up point.
/// Output is byte-identical for any `shards` and any `batch` value.
///
/// # Errors
///
/// Currently infallible in practice, like `run_design_with`.
///
/// # Panics
///
/// If `design` does not support sharding
/// ([`Design::supports_sharding`]); callers dispatch on that first.
pub fn run_design_sharded(
    design: Design,
    cfg: &RunConfig,
    profile: &SpecProfile,
    metrics: Option<&MetricsConfig>,
    shards: usize,
    batch: usize,
) -> Result<(SimReport, Option<RunObservations>), GeometryError> {
    assert!(
        design.supports_sharding(),
        "{} has global coupling and cannot be set-sharded",
        design.label()
    );
    let _cell = span::span(Phase::Cell);
    let bee_cfg = {
        let probe = design.build(cfg.geometry, cfg.sram_budget);
        probe
            .as_bumblebee()
            .expect("shardable designs build a Bumblebee controller")
            .config()
            .clone()
    };
    let plan = ShardPlan::new(cfg.geometry.num_sets(), shards);
    let profile_spans = span::profiling();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .ranges()
            .iter()
            .map(|&(lo, hi)| {
                let bee_cfg = &bee_cfg;
                scope.spawn(move || {
                    shard_worker(cfg, profile, bee_cfg, lo, hi, metrics, profile_spans, batch)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    });
    // Worker span trees graft under this thread's open Cell span, in
    // shard order (wall-clock telemetry only — never byte-compared).
    for o in &outs {
        if let Some(tree) = &o.spans {
            span::absorb(tree);
        }
    }

    let mut stats = CtrlStats::new();
    let mut hbm_counters = DeviceCounters::default();
    let mut dram_counters = DeviceCounters::default();
    let mut hbm_hist = DeviceHistograms::new();
    let mut dram_hist = DeviceHistograms::new();
    for o in &outs {
        stats.merge(&o.stats);
        hbm_counters.merge(&o.hbm_counters);
        dram_counters.merge(&o.dram_counters);
        hbm_hist.latency.merge(&o.hbm_hist.latency);
        hbm_hist.queue_wait.merge(&o.hbm_hist.queue_wait);
        dram_hist.latency.merge(&o.dram_hist.latency);
        dram_hist.queue_wait.merge(&o.dram_hist.queue_wait);
    }
    let sum = |f: fn(&WorkerOut) -> u64| outs.iter().map(f).sum::<u64>();
    let instructions = sum(|o| o.counters_end.instructions - o.counters_warm.instructions);
    let mal_cycles = sum(|o| o.counters_end.mal_cycles - o.counters_warm.mal_cycles);
    let stall_cycles = sum(|o| o.counters_end.stall_cycles - o.counters_warm.stall_cycles);
    let cycles_end = sum(|o| o.cycles_end);
    let cycles = (cycles_end - sum(|o| o.cycles_warm)).max(1);
    let hbm_cfg = presets::hbm2(cfg.geometry.hbm_bytes());
    let dram_cfg = presets::ddr4_3200(cfg.geometry.dram_bytes());
    let hbm_dynamic =
        if design.uses_hbm() { dynamic_energy_pj_for(&hbm_cfg, &hbm_counters) } else { 0.0 };
    let hbm_background =
        if design.uses_hbm() { background_energy_pj_for(&hbm_cfg, cycles_end) } else { 0.0 };
    let overfetch = bee_cfg.track_overfetch.then(|| {
        let fetched = sum(|o| o.overfetch.map_or(0, |(f, _)| f));
        let wasted = sum(|o| o.overfetch.map_or(0, |(_, w)| w));
        if fetched == 0 {
            0.0
        } else {
            wasted as f64 / fetched as f64
        }
    });
    let report = SimReport {
        design: design.label().to_string(),
        workload: profile.name.to_string(),
        instructions,
        cycles,
        ipc: instructions as f64 / cycles as f64,
        accesses: cfg.accesses,
        hbm_bytes: hbm_counters.total_bytes(),
        dram_bytes: dram_counters.total_bytes(),
        dynamic_energy_pj: hbm_dynamic + dynamic_energy_pj_for(&dram_cfg, &dram_counters),
        background_energy_pj: hbm_background + background_energy_pj_for(&dram_cfg, cycles_end),
        mal_cycles,
        stall_cycles,
        overfetch,
        metadata_bytes: outs[0].metadata_bytes,
        os_visible_bytes: cfg.geometry.dram_bytes()
            + sum(|o| o.mhbm_frames) * cfg.geometry.page_bytes(),
        mode_switch_bytes: Some(sum(|o| o.mode_switch_bytes)),
        page_faults: Some(sum(|o| o.page_faults)),
        stats,
    };

    let observations = metrics.map(|m| {
        let boundaries = outs[0].partials.len();
        let mut epochs = Vec::with_capacity(boundaries);
        let mut prev = CtrlStats::new();
        for b in 0..boundaries {
            let mut at_boundary = EpochPartial::default();
            for o in &outs {
                at_boundary.absorb(&o.partials[b]);
            }
            let gauges = at_boundary.gauges(&cfg.geometry);
            let accesses = (b as u64 + 1) * m.epoch_interval;
            epochs.push(EpochSnapshot::from_delta(
                b as u64,
                accesses,
                &at_boundary.ctrl,
                &prev,
                gauges,
            ));
            prev = at_boundary.ctrl;
        }
        let parts: Vec<(Vec<TimedEvent>, u64)> = outs
            .iter()
            .map(|o| o.events.clone().expect("metrics requested, so every shard records"))
            .collect();
        let (events, dropped_events) = merge_shard_events(parts, m.event_capacity);
        let (records, dropped_records) = if m.sample_rate > 0 {
            let parts: Vec<(Vec<AccessRecord>, u64)> = outs
                .iter()
                .map(|o| o.records.clone().expect("sampling on, so every shard records"))
                .collect();
            merge_shard_records(parts, m.record_capacity)
        } else {
            (Vec::new(), 0)
        };
        let mut path_counts = [0u64; 5];
        for o in &outs {
            for (sum, c) in path_counts.iter_mut().zip(&o.path_counts) {
                *sum += c;
            }
        }
        let mut traffic = TrafficAccum::new();
        for o in &outs {
            traffic
                .merge(o.traffic.as_ref().expect("metrics requested, so every shard accounts"));
        }
        // Same-boundary partials sum into the global snapshot; every
        // shard produced the same boundary count (it derives from
        // `total / interval` alone).
        let mut bw_points: Vec<BwPoint> = Vec::new();
        for b in 0..outs[0].bw_points.len() {
            let mut point = outs[0].bw_points[b].clone();
            for o in &outs[1..] {
                point.absorb(&o.bw_points[b]);
            }
            bw_points.push(point);
        }
        RunObservations {
            epochs,
            events,
            dropped_events,
            records,
            dropped_records,
            sample_rate: m.sample_rate,
            path_counts,
            hbm: hbm_hist,
            dram: dram_hist,
            traffic,
            bw_points,
        }
    });
    Ok((report, observations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_partitions_without_gaps_or_overlap() {
        // Non-divisible counts: sizes differ by at most one, union is exact.
        for (sets, shards) in [(7u64, 3usize), (5, 8), (1, 4), (16, 5), (512, 7)] {
            let plan = ShardPlan::new(sets, shards);
            assert!(plan.len() <= shards.max(1));
            assert!(plan.len() as u64 <= sets);
            let mut expected_lo = 0;
            let mut sizes = Vec::new();
            for &(lo, hi) in plan.ranges() {
                assert_eq!(lo, expected_lo, "ranges adjacent, {sets} sets / {shards} shards");
                assert!(hi > lo, "no empty shard");
                sizes.push(hi - lo);
                expected_lo = hi;
            }
            assert_eq!(expected_lo, sets, "ranges cover every set");
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    fn shard_plan_clamps_width() {
        assert_eq!(ShardPlan::new(4, 0).len(), 1);
        assert_eq!(ShardPlan::new(4, 100).len(), 4);
    }

    #[test]
    fn sharded_run_is_byte_identical_at_widths_one_two_eight() {
        let cfg = RunConfig::tiny();
        let metrics = MetricsConfig {
            epoch_interval: 1000,
            event_capacity: 128,
            sample_rate: 16,
            ..MetricsConfig::default()
        };
        let profile = SpecProfile::mcf();
        let run = |shards| {
            run_design_sharded(Design::Bumblebee, &cfg, &profile, Some(&metrics), shards, 4096)
                .unwrap()
        };
        let (r1, o1) = run(1);
        let o1 = o1.unwrap();
        assert_eq!(o1.epochs.len() as u64, (cfg.warmup + cfg.accesses) / 1000);
        assert!(r1.cycles > 1 && r1.instructions > 0 && r1.hbm_bytes > 0);
        assert!(!o1.records.is_empty(), "sample_rate 16 must select some accesses");
        assert!(o1.records.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(o1.path_counts.iter().sum::<u64>(), cfg.warmup + cfg.accesses);
        assert_eq!(o1.path_counts[0] + o1.path_counts[1], r1.stats.hbm_hits);
        assert_eq!(
            o1.path_counts[2] + o1.path_counts[3] + o1.path_counts[4],
            r1.stats.offchip_serves
        );
        for shards in [2usize, 8] {
            let (r, o) = run(shards);
            let o = o.unwrap();
            assert_eq!(r1.to_jsonl(), r.to_jsonl(), "report at {shards} shards");
            assert_eq!(o1.epochs, o.epochs, "epochs at {shards} shards");
            assert_eq!(o1.events, o.events, "events at {shards} shards");
            assert_eq!(o1.dropped_events, o.dropped_events);
            assert_eq!(o1.records, o.records, "lat records at {shards} shards");
            assert_eq!(o1.dropped_records, o.dropped_records);
            assert_eq!(o1.path_counts, o.path_counts, "path counts at {shards} shards");
            assert_eq!(o1.hbm, o.hbm, "hbm histograms at {shards} shards");
            assert_eq!(o1.dram, o.dram, "dram histograms at {shards} shards");
        }
    }

    #[test]
    fn ablations_shard_too() {
        let cfg = RunConfig::tiny();
        let profile = SpecProfile::xz();
        let d = Design::Ablation("M-Only");
        assert!(d.supports_sharding());
        let (a, _) = run_design_sharded(d, &cfg, &profile, None, 1, 4096).unwrap();
        let (b, _) = run_design_sharded(d, &cfg, &profile, None, 3, 7).unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn baselines_report_unshardable() {
        assert!(!Design::NoHbm.supports_sharding());
        assert!(!Design::Alloy.supports_sharding());
        assert!(!Design::Hybrid2.supports_sharding());
        assert!(Design::Bumblebee.supports_sharding());
    }
}
