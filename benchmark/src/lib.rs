#![forbid(unsafe_code)]
//! The repository benchmark: times regeneration of the paper's figure
//! matrices from outside the simulator, calling only its public entry
//! points. See `README.md` for the workload and metric catalogue.

pub mod json;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;

/// The `RunConfig` default seed, used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 0xB0B1_BEE5;

/// End-to-end metrics, measured with tracing off: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("accesses_per_s", "acc/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit. Layers are named
/// after the crates they time (`trace`, `core`, `baselines`, `dram`, `sim`,
/// `obs`) plus the controller lookup of every design (`ctrl`) and the JSONL
/// writer; `ns` are host time, `cycles` simulated.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("trace.ns_per_access", "ns"),
    ("ctrl.ns_per_access", "ns"),
    ("core.ctrl_share", "fraction"),
    ("dram.ns_per_access", "ns"),
    ("dram.ns_per_chunk", "ns"),
    ("dram.chunks_per_access", "chunks/acc"),
    ("sim.step_ns_per_access", "ns"),
    ("sim.setup_ms_per_cell", "ms"),
    ("sim.finish_ms_per_cell", "ms"),
    ("sim.traced_coverage", "fraction"),
    ("sim.engine_utilization", "fraction"),
    ("jsonl.emit_s", "s"),
    ("jsonl.write_s", "s"),
    ("jsonl.mb", "MB"),
    ("obs.lat_records", "count"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("core.hbm_hit_rate", "fraction"),
    ("core.overfetch", "fraction"),
    ("core.mal_cycles_per_access", "cycles/acc"),
    ("core.migrations_per_kacc", "1/kacc"),
    ("baselines.hbm_hit_rate", "fraction"),
    ("dram.bytes_per_access", "B/acc"),
    ("dram.row_hit_rate", "fraction"),
    ("dram.queue_wait_cycles_per_chunk", "cycles/chunk"),
    ("paper_gap_pp", "pp"),
];
