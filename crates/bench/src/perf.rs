//! The continuous-performance layer: the pinned canonical benchmark
//! suite, the schema-versioned `BENCH_<sha>.json` report it produces, and
//! the cross-run regression comparison behind `bench_tool compare`.
//!
//! A BENCH file is flat JSON-lines (the same hand-rolled dialect as every
//! other artifact in the repo, so [`parse_flat`] reads it back): one
//! `kind=bench_meta` header carrying the schema version and suite pin, one
//! `kind=bench_case` line per design × workload with the wall-time median
//! and the cycle-domain invariants (cycles, hit rate, migrations,
//! over-fetch), and one `kind=bench_phase` line per node of the suite-wide
//! span-profiler tree. Perf drift and behavior drift are therefore caught
//! by the same diff.
//!
//! Comparison semantics: wall time is nondeterministic, so it gates on a
//! generous relative threshold (`time_pct`); the cycle-domain invariants
//! are deterministic for a pinned suite, so they gate on an (effectively
//! exact) tolerance of `invariant_pct`. A report compared against itself
//! is always clean.

use memsim_sim::report::render_table;
use memsim_sim::{parse_flat, Design, JsonValue, RunConfig, SpanTree};
use memsim_trace::SpecProfile;
use memsim_types::AccessPath;

/// Version stamp written into every BENCH file; bump whenever the line
/// schema changes so `compare` refuses mismatched files instead of
/// silently mis-reading them.
pub const BENCH_SCHEMA: u64 = 1;

/// The pinned benchmark suite: what `bench_harness` runs.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Suite name recorded in the BENCH header (`canonical` / `quick`).
    pub name: &'static str,
    /// The fixed run configuration every cell uses.
    pub cfg: RunConfig,
    /// The fixed workload set.
    pub profiles: Vec<SpecProfile>,
    /// The fixed design set: Bumblebee plus all six baselines.
    pub designs: Vec<Design>,
    /// Timed repeats; the per-case wall time is their median.
    pub repeats: usize,
    /// Untimed warm-up runs of the whole suite before timing starts.
    pub warmup_runs: usize,
}

impl Suite {
    /// Bumblebee + the six baselines (No-HBM reference first).
    fn designs() -> Vec<Design> {
        let mut designs = vec![Design::NoHbm];
        designs.extend(Design::fig8());
        designs
    }

    /// The canonical suite: 1/64 scale, 120 k accesses, one workload per
    /// Table II MPKI band, median of 3 after one warm-up run.
    pub fn canonical() -> Suite {
        Suite {
            name: "canonical",
            cfg: RunConfig::at_scale(64, 120_000),
            profiles: vec![
                SpecProfile::named("roms"),
                SpecProfile::named("mcf"),
                SpecProfile::named("xz"),
            ],
            designs: Suite::designs(),
            repeats: 3,
            warmup_runs: 1,
        }
    }

    /// The `--quick` suite for CI smoke: tiny scale, two workloads, a
    /// single timed repeat and no warm-up run.
    pub fn quick() -> Suite {
        Suite {
            name: "quick",
            cfg: RunConfig::at_scale(256, 20_000),
            profiles: vec![SpecProfile::named("mcf"), SpecProfile::named("xz")],
            designs: Suite::designs(),
            repeats: 1,
            warmup_runs: 0,
        }
    }

    /// Looks a suite up by its recorded name.
    pub fn named(name: &str) -> Option<Suite> {
        match name {
            "canonical" => Some(Suite::canonical()),
            "quick" => Some(Suite::quick()),
            _ => None,
        }
    }
}

/// One design × workload entry of a BENCH report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Design label (e.g. `"Bumblebee"`).
    pub design: String,
    /// Workload name (e.g. `"mcf"`).
    pub workload: String,
    /// Median wall time across the timed repeats, in milliseconds.
    pub wall_ms: f64,
    /// Simulated accesses (warm-up included) per wall second, from the
    /// median wall time.
    pub accesses_per_sec: f64,
    /// Measured simulated cycles (cycle-domain invariant).
    pub cycles: u64,
    /// Instructions per cycle (cycle-domain invariant).
    pub ipc: f64,
    /// End-of-run HBM hit rate (cycle-domain invariant).
    pub hit_rate: f64,
    /// Page migrations (cycle-domain invariant).
    pub migrations: u64,
    /// Over-fetch ratio, where the design tracks one.
    pub overfetch: Option<f64>,
    /// Per-path p95 of sampled total latency in cycles (indexed like
    /// [`AccessPath::ALL`]), harvested by the harness's untimed
    /// instrumented pass. `None` where a path saw no samples — and for
    /// every path of a BENCH file written before latency folding, which
    /// parses null-safely without a schema bump.
    pub lat_p95: [Option<u64>; 5],
    /// Per-path p99 of sampled total latency, same provenance.
    pub lat_p99: [Option<u64>; 5],
    /// Cause-attributed DRAM traffic per simulated access, in bytes
    /// (cycle-domain invariant), harvested from the instrumented pass's
    /// traffic matrix. `None` for BENCH files written before traffic
    /// folding — parses null-safely without a schema bump.
    pub traffic_pa: Option<f64>,
    /// Worst per-epoch bandwidth utilization across both physical
    /// devices, in percent of the Table I theoretical peak (cycle-domain
    /// invariant, same provenance and null-safety).
    pub peak_util_pct: Option<f64>,
}

impl BenchCase {
    /// The `design/workload` key cases are matched by across runs.
    pub fn key(&self) -> String {
        format!("{}/{}", self.design, self.workload)
    }
}

/// One node of the suite-wide phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPhase {
    /// `/`-separated phase path (e.g. `cell/ctrl_lookup/epoch_sample`).
    pub path: String,
    /// Guard activations merged into the node.
    pub calls: u64,
    /// Wall time inside the phase, children included, in milliseconds.
    pub total_ms: f64,
    /// Wall time attributed to the phase itself, in milliseconds.
    pub self_ms: f64,
}

/// A parsed (or freshly measured) BENCH report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version (see [`BENCH_SCHEMA`]).
    pub schema: u64,
    /// Git short SHA (or an explicit `--sha` override) of the measured tree.
    pub sha: String,
    /// Suite name the run pinned.
    pub suite: String,
    /// Timed repeats behind the medians.
    pub repeats: u64,
    /// Engine width the run used.
    pub jobs: u64,
    /// Access-pipeline chunk width (`--batch`), or `None` when the run
    /// predates batching or used the default width. Purely a performance
    /// knob (outputs are byte-identical at any width), recorded so a
    /// compare footer can attribute throughput shifts to it.
    pub batch: Option<u64>,
    /// Capacity divisor of the suite geometry.
    pub scale: u64,
    /// Measured accesses per cell.
    pub accesses: u64,
    /// Comma-joined workload list of the suite.
    pub workloads: String,
    /// Total measured cell wall time across all timed repeats, in ms.
    pub busy_ms: f64,
    /// Phase self-time sum over `busy_ms` — the breakdown's completeness.
    pub self_coverage: f64,
    /// Per design × workload results.
    pub cases: Vec<BenchCase>,
    /// Suite-wide phase tree, in preorder.
    pub phases: Vec<BenchPhase>,
}

impl BenchReport {
    /// Serializes the report as flat JSON-lines (the `BENCH_<sha>.json`
    /// body, one object per line).
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = vec![memsim_sim::JsonObj::new()
            .str("kind", "bench_meta")
            .u64("schema", self.schema)
            .str("sha", &self.sha)
            .str("suite", &self.suite)
            .u64("repeats", self.repeats)
            .u64("jobs", self.jobs)
            .opt_u64("batch", self.batch)
            .u64("scale", self.scale)
            .u64("accesses", self.accesses)
            .str("workloads", &self.workloads)
            .f64("busy_ms", self.busy_ms)
            .f64("self_coverage", self.self_coverage)
            .finish()];
        for c in &self.cases {
            let mut obj = memsim_sim::JsonObj::new()
                .str("kind", "bench_case")
                .str("design", &c.design)
                .str("workload", &c.workload)
                .f64("wall_ms", c.wall_ms)
                .f64("accesses_per_sec", c.accesses_per_sec)
                .u64("cycles", c.cycles)
                .f64("ipc", c.ipc)
                .f64("hit_rate", c.hit_rate)
                .u64("migrations", c.migrations)
                .opt_f64("overfetch", c.overfetch);
            for (path, (p95, p99)) in AccessPath::ALL.iter().zip(c.lat_p95.iter().zip(&c.lat_p99)) {
                obj = obj
                    .opt_u64(&format!("p95_{}", path.label()), *p95)
                    .opt_u64(&format!("p99_{}", path.label()), *p99);
            }
            obj = obj
                .opt_f64("traffic_pa", c.traffic_pa)
                .opt_f64("peak_util_pct", c.peak_util_pct);
            lines.push(obj.finish());
        }
        for p in &self.phases {
            lines.push(
                memsim_sim::JsonObj::new()
                    .str("kind", "bench_phase")
                    .str("path", &p.path)
                    .u64("calls", p.calls)
                    .f64("total_ms", p.total_ms)
                    .f64("self_ms", p.self_ms)
                    .finish(),
            );
        }
        lines
    }

    /// Parses a BENCH file body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the header is missing, the
    /// schema version is unknown, or a line is malformed. Lines of unknown
    /// `kind` are ignored for forward compatibility.
    pub fn parse(body: &str) -> Result<BenchReport, String> {
        let mut meta: Option<BenchReport> = None;
        let mut cases = Vec::new();
        let mut phases = Vec::new();
        for (i, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let row = parse_flat(line).ok_or_else(|| format!("line {}: not flat JSON", i + 1))?;
            let get = |key: &str| row.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let num = |key: &str| get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let int = |key: &str| get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            let text =
                |key: &str| get(key).and_then(JsonValue::as_str).unwrap_or_default().to_string();
            match text("kind").as_str() {
                "bench_meta" => {
                    let schema = int("schema");
                    if schema != BENCH_SCHEMA {
                        return Err(format!(
                            "unsupported BENCH schema {schema} (this tool reads {BENCH_SCHEMA})"
                        ));
                    }
                    meta = Some(BenchReport {
                        schema,
                        sha: text("sha"),
                        suite: text("suite"),
                        repeats: int("repeats"),
                        jobs: int("jobs"),
                        batch: get("batch").and_then(JsonValue::as_u64),
                        scale: int("scale"),
                        accesses: int("accesses"),
                        workloads: text("workloads"),
                        busy_ms: num("busy_ms"),
                        self_coverage: num("self_coverage"),
                        cases: Vec::new(),
                        phases: Vec::new(),
                    });
                }
                "bench_case" => cases.push(BenchCase {
                    design: text("design"),
                    workload: text("workload"),
                    wall_ms: num("wall_ms"),
                    accesses_per_sec: num("accesses_per_sec"),
                    cycles: int("cycles"),
                    ipc: num("ipc"),
                    hit_rate: num("hit_rate"),
                    migrations: int("migrations"),
                    overfetch: get("overfetch").and_then(JsonValue::as_f64),
                    lat_p95: AccessPath::ALL.map(|p| {
                        get(&format!("p95_{}", p.label())).and_then(JsonValue::as_u64)
                    }),
                    lat_p99: AccessPath::ALL.map(|p| {
                        get(&format!("p99_{}", p.label())).and_then(JsonValue::as_u64)
                    }),
                    traffic_pa: get("traffic_pa").and_then(JsonValue::as_f64),
                    peak_util_pct: get("peak_util_pct").and_then(JsonValue::as_f64),
                }),
                "bench_phase" => phases.push(BenchPhase {
                    path: text("path"),
                    calls: int("calls"),
                    total_ms: num("total_ms"),
                    self_ms: num("self_ms"),
                }),
                _ => {}
            }
        }
        let mut report = meta.ok_or("no bench_meta header line")?;
        if cases.is_empty() {
            return Err("no bench_case lines".to_string());
        }
        report.cases = cases;
        report.phases = phases;
        Ok(report)
    }

    /// Converts the per-cell span trees and timings of a measured suite
    /// into the suite-wide phase list and coverage figure.
    pub fn fold_phases(trees: &[SpanTree], busy_nanos: u64) -> (Vec<BenchPhase>, f64) {
        let mut merged = SpanTree::default();
        for t in trees {
            merged.merge(t);
        }
        let phases = merged
            .flatten()
            .into_iter()
            .map(|(path, node)| BenchPhase {
                path,
                calls: node.calls,
                total_ms: node.total_nanos as f64 / 1e6,
                self_ms: node.self_nanos() as f64 / 1e6,
            })
            .collect();
        let coverage = if busy_nanos == 0 {
            0.0
        } else {
            merged.self_nanos_sum() as f64 / busy_nanos as f64
        };
        (phases, coverage)
    }

    /// Total suite wall time — the sum of the per-case medians, in ms.
    pub fn suite_wall_ms(&self) -> f64 {
        self.cases.iter().map(|c| c.wall_ms).sum()
    }

    /// Suite-aggregate throughput: total simulated accesses over the
    /// summed case wall time (each case weighted by its own wall share).
    pub fn suite_accesses_per_sec(&self) -> f64 {
        let wall_s = self.suite_wall_ms() / 1e3;
        if wall_s <= 0.0 {
            return 0.0;
        }
        let accesses: f64 =
            self.cases.iter().map(|c| c.accesses_per_sec * c.wall_ms / 1e3).sum();
        accesses / wall_s
    }

    /// Renders the per-case table (wall time, throughput, invariants).
    /// When any case carries folded tail latencies, a per-path p95 column
    /// block is appended, and when any case carries the traffic
    /// invariants, `B/acc` and `peak util%` columns follow; for older
    /// BENCH files without the fields the columns are silently omitted.
    /// Cases missing an optional value in a mixed suite render `-` so
    /// every row stays aligned with the header.
    pub fn case_table(&self) -> String {
        let with_tails = self.cases.iter().any(|c| c.lat_p95.iter().any(Option::is_some));
        let with_traffic =
            self.cases.iter().any(|c| c.traffic_pa.is_some() || c.peak_util_pct.is_some());
        let mut header = ["case", "wall ms", "acc/s", "cycles", "ipc", "hit%", "migr", "overfetch"]
            .map(str::to_string)
            .to_vec();
        if with_tails {
            header.extend(AccessPath::ALL.map(|p| format!("p95 {}", p.label())));
        }
        if with_traffic {
            header.extend(["B/acc".to_string(), "peak util%".to_string()]);
        }
        let width = header.len();
        let mut rows = vec![header];
        for c in &self.cases {
            let mut row = vec![
                c.key(),
                format!("{:.1}", c.wall_ms),
                format!("{:.0}", c.accesses_per_sec),
                c.cycles.to_string(),
                format!("{:.3}", c.ipc),
                format!("{:.1}", c.hit_rate * 100.0),
                c.migrations.to_string(),
                c.overfetch.map_or("-".to_string(), |o| format!("{o:.3}")),
            ];
            if with_tails {
                row.extend(
                    c.lat_p95.iter().map(|p| p.map_or("-".to_string(), |v| v.to_string())),
                );
            }
            if with_traffic {
                row.push(c.traffic_pa.map_or("-".to_string(), |t| format!("{t:.1}")));
                row.push(c.peak_util_pct.map_or("-".to_string(), |u| format!("{u:.1}")));
            }
            // Every row must line up under the header even if an optional
            // block above ever grows unevenly.
            row.resize(width, "-".to_string());
            rows.push(row);
        }
        render_table(&rows)
    }

    /// Renders the phase tree (indentation from path depth, self and total
    /// times, and each phase's share of the measured wall time — both the
    /// inclusive share of `total_ms` and the exclusive share of `self_ms`).
    pub fn phase_table(&self) -> String {
        let mut rows = vec![["phase", "calls", "total ms", "wall %", "self ms", "self %"]
            .map(str::to_string)
            .to_vec()];
        for p in &self.phases {
            let depth = p.path.matches('/').count();
            let name = p.path.rsplit('/').next().unwrap_or(&p.path);
            let share = |ms: f64| if self.busy_ms > 0.0 { ms / self.busy_ms * 100.0 } else { 0.0 };
            rows.push(vec![
                format!("{}{}", "  ".repeat(depth), name),
                p.calls.to_string(),
                format!("{:.1}", p.total_ms),
                format!("{:.1}", share(p.total_ms)),
                format!("{:.1}", p.self_ms),
                format!("{:.1}", share(p.self_ms)),
            ]);
        }
        render_table(&rows)
    }
}

/// Regression gates for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Maximum tolerated wall-time increase, in percent.
    pub time_pct: f64,
    /// Maximum tolerated relative drift of a cycle-domain invariant, in
    /// percent (the defaults demand an exact match up to float noise).
    pub invariant_pct: f64,
    /// Maximum tolerated increase of a per-path sampled tail latency
    /// (p95/p99), in percent. Tails are cycle-domain but quantized to
    /// power-of-two histogram buckets, so the default tolerates one
    /// bucket-edge wobble rather than demanding exactness; only gates
    /// when both reports carry the latency fields.
    pub tail_pct: f64,
    /// Maximum tolerated relative drift of the cause-attributed traffic
    /// invariants (`traffic_pa`, `peak_util_pct`), in percent, either
    /// direction. Traffic is a deterministic function of the access
    /// stream, so the default demands an exact match up to float noise;
    /// only gates when both reports carry the fields.
    pub traffic_pct: f64,
    /// Maximum tolerated drop of the suite-aggregate throughput
    /// ([`BenchReport::suite_accesses_per_sec`]), in percent. `None` (the
    /// default) reports the delta without gating — throughput is the
    /// inverse of nondeterministic wall time, so it only becomes a gate
    /// when the caller opts in (`--throughput-threshold-pct`). A rise
    /// past the same bound is flagged as an improvement.
    pub throughput_pct: Option<f64>,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            time_pct: 30.0,
            invariant_pct: 1e-6,
            tail_pct: 110.0,
            traffic_pct: 1e-6,
            throughput_pct: None,
        }
    }
}

/// One metric delta between two BENCH reports.
#[derive(Debug, Clone)]
pub struct Delta {
    /// `design/workload` the delta belongs to.
    pub case: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub before: f64,
    /// Candidate value.
    pub after: f64,
    /// Signed relative change in percent (0 when the baseline is 0 and
    /// the candidate matches it).
    pub pct: f64,
    /// Whether the delta crosses its regression gate.
    pub regression: bool,
    /// Whether the delta crosses the same gate in the *good* direction
    /// (e.g. wall time down by more than the time threshold). Never set
    /// together with `regression`.
    pub improvement: bool,
}

/// The outcome of comparing a candidate BENCH report against a baseline.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Every computed metric delta, case order preserved.
    pub deltas: Vec<Delta>,
    /// Per-phase self-time deltas of the suite-wide profile, preorder.
    /// Informational only — phase times are a breakdown of the gated wall
    /// times, so they never trip the exit code themselves.
    pub phase_deltas: Vec<Delta>,
    /// Case keys present in the baseline but missing from the candidate.
    pub missing: Vec<String>,
    /// Case keys new in the candidate (informational).
    pub added: Vec<String>,
}

impl Comparison {
    /// Number of regressions (threshold-crossing deltas plus missing
    /// cases).
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regression).count() + self.missing.len()
    }

    /// Number of threshold-crossing wall-time improvements (informational
    /// counterpart of [`regressions`](Self::regressions)).
    pub fn improvements(&self) -> usize {
        self.deltas.iter().filter(|d| d.improvement).count()
    }

    /// Renders the comparison: changed metrics (and every wall-time row),
    /// phase self-time deltas, then missing/added cases.
    pub fn render(&self) -> String {
        let mut rows =
            vec![["case", "metric", "before", "after", "Δ%", "flag"].map(str::to_string).to_vec()];
        for d in &self.deltas {
            if d.metric != "wall_ms" && d.pct == 0.0 && !d.regression {
                continue;
            }
            let flag = if d.regression {
                "REGRESSION"
            } else if d.improvement {
                "IMPROVED"
            } else if d.metric == "wall_ms" && d.pct < 0.0 {
                "faster"
            } else {
                "ok"
            };
            rows.push(vec![
                d.case.clone(),
                d.metric.to_string(),
                format!("{:.4}", d.before),
                format!("{:.4}", d.after),
                format!("{:+.2}", d.pct),
                flag.to_string(),
            ]);
        }
        let mut out = render_table(&rows);
        if !self.phase_deltas.is_empty() {
            out.push_str("phase self-time deltas (informational):\n");
            let mut rows = vec![["phase", "before ms", "after ms", "Δ%", "flag"]
                .map(str::to_string)
                .to_vec()];
            for d in &self.phase_deltas {
                let flag = if d.improvement {
                    "faster"
                } else if d.pct > 0.0 {
                    "slower"
                } else {
                    "ok"
                };
                rows.push(vec![
                    d.case.clone(),
                    format!("{:.1}", d.before),
                    format!("{:.1}", d.after),
                    format!("{:+.2}", d.pct),
                    flag.to_string(),
                ]);
            }
            out.push_str(&render_table(&rows));
        }
        for m in &self.missing {
            out.push_str(&format!("REGRESSION: case {m} missing from candidate\n"));
        }
        for a in &self.added {
            out.push_str(&format!("note: case {a} new in candidate\n"));
        }
        out
    }
}

/// Delta metric names for the per-path tail gates, indexed like
/// [`AccessPath::ALL`] (the names mirror the BENCH field names).
const TAIL_P95_METRICS: [&str; 5] =
    ["p95_mhbm_hit", "p95_chbm_hit", "p95_miss_fill", "p95_sl_bypass", "p95_migration"];
const TAIL_P99_METRICS: [&str; 5] =
    ["p99_mhbm_hit", "p99_chbm_hit", "p99_miss_fill", "p99_sl_bypass", "p99_migration"];

fn rel_pct(before: f64, after: f64) -> f64 {
    if before == after {
        return 0.0;
    }
    if before == 0.0 {
        return f64::INFINITY.copysign(after);
    }
    (after - before) / before.abs() * 100.0
}

/// Compares candidate `new` against baseline `base`.
///
/// Wall time gates on [`Thresholds::time_pct`] (increases only); the
/// cycle-domain invariants (cycles, IPC, hit rate, migrations, over-fetch)
/// gate on [`Thresholds::invariant_pct`] in either direction, because any
/// drift there means the simulation *behaves* differently, not just
/// slower. Per-case throughput (`accesses_per_sec`) is reported but never
/// gates — it is the inverse of wall time; the suite-aggregate throughput
/// additionally gates on [`Thresholds::throughput_pct`] when the caller
/// sets one.
///
/// # Errors
///
/// Returns a message when the two reports pinned different suites (name,
/// scale, or access volume) — their numbers are not comparable.
pub fn compare(base: &BenchReport, new: &BenchReport, th: Thresholds) -> Result<Comparison, String> {
    if base.suite != new.suite
        || base.scale != new.scale
        || base.accesses != new.accesses
        || base.workloads != new.workloads
    {
        return Err(format!(
            "suites differ: baseline {}/scale{}/{}acc/[{}] vs candidate {}/scale{}/{}acc/[{}]",
            base.suite,
            base.scale,
            base.accesses,
            base.workloads,
            new.suite,
            new.scale,
            new.accesses,
            new.workloads
        ));
    }
    let mut cmp = Comparison::default();
    for b in &base.cases {
        let key = b.key();
        let Some(n) = new.cases.iter().find(|c| c.key() == key) else {
            cmp.missing.push(key);
            continue;
        };
        let wall_pct = rel_pct(b.wall_ms, n.wall_ms);
        cmp.deltas.push(Delta {
            case: key.clone(),
            metric: "wall_ms",
            before: b.wall_ms,
            after: n.wall_ms,
            pct: wall_pct,
            regression: wall_pct > th.time_pct,
            improvement: wall_pct < -th.time_pct,
        });
        cmp.deltas.push(Delta {
            case: key.clone(),
            metric: "accesses_per_sec",
            before: b.accesses_per_sec,
            after: n.accesses_per_sec,
            pct: rel_pct(b.accesses_per_sec, n.accesses_per_sec),
            regression: false,
            improvement: false,
        });
        let invariants: [(&'static str, f64, f64); 4] = [
            ("cycles", b.cycles as f64, n.cycles as f64),
            ("ipc", b.ipc, n.ipc),
            ("hit_rate", b.hit_rate, n.hit_rate),
            ("migrations", b.migrations as f64, n.migrations as f64),
        ];
        for (metric, before, after) in invariants {
            let pct = rel_pct(before, after);
            cmp.deltas.push(Delta {
                case: key.clone(),
                metric,
                before,
                after,
                pct,
                regression: pct.abs() > th.invariant_pct,
                improvement: false,
            });
        }
        // Sampled tail latencies gate only when both runs folded them in —
        // a baseline from before latency folding parses them as None and
        // is skipped silently, so old BENCH files keep working.
        for (names, before, after) in
            [(TAIL_P95_METRICS, &b.lat_p95, &n.lat_p95), (TAIL_P99_METRICS, &b.lat_p99, &n.lat_p99)]
        {
            for (metric, (before, after)) in names.into_iter().zip(before.iter().zip(after)) {
                let (Some(before), Some(after)) = (*before, *after) else { continue };
                let pct = rel_pct(before as f64, after as f64);
                cmp.deltas.push(Delta {
                    case: key.clone(),
                    metric,
                    before: before as f64,
                    after: after as f64,
                    pct,
                    regression: pct > th.tail_pct,
                    improvement: false,
                });
            }
        }
        // Traffic invariants gate only when both runs folded them in —
        // older baselines parse them as None and skip silently.
        let traffic: [(&'static str, Option<f64>, Option<f64>); 2] = [
            ("traffic_pa", b.traffic_pa, n.traffic_pa),
            ("peak_util_pct", b.peak_util_pct, n.peak_util_pct),
        ];
        for (metric, before, after) in traffic {
            let (Some(before), Some(after)) = (before, after) else { continue };
            let pct = rel_pct(before, after);
            cmp.deltas.push(Delta {
                case: key.clone(),
                metric,
                before,
                after,
                pct,
                regression: pct.abs() > th.traffic_pct,
                improvement: false,
            });
        }
        // Over-fetch only exists for tracking designs; appearing or
        // disappearing is itself behavior drift.
        match (b.overfetch, n.overfetch) {
            (None, None) => {}
            (before, after) => {
                let (before, after) =
                    (before.unwrap_or(f64::NAN), after.unwrap_or(f64::NAN));
                let pct = rel_pct(before, after);
                let drifted =
                    before.is_nan() != after.is_nan() || pct.abs() > th.invariant_pct;
                cmp.deltas.push(Delta {
                    case: key.clone(),
                    metric: "overfetch",
                    before,
                    after,
                    pct,
                    regression: drifted,
                    improvement: false,
                });
            }
        }
    }
    for n in &new.cases {
        if !base.cases.iter().any(|b| b.key() == n.key()) {
            cmp.added.push(n.key());
        }
    }
    // Suite-aggregate throughput: always reported, gated only when the
    // caller set an explicit threshold (wall time is nondeterministic, so
    // a default gate would flap on loaded machines).
    let (before, after) = (base.suite_accesses_per_sec(), new.suite_accesses_per_sec());
    let pct = rel_pct(before, after);
    cmp.deltas.push(Delta {
        case: "suite".to_string(),
        metric: "suite_accesses_per_sec",
        before,
        after,
        pct,
        regression: th.throughput_pct.is_some_and(|t| pct < -t),
        improvement: th.throughput_pct.is_some_and(|t| pct > t),
    });
    // Phase-level self-time deltas (informational): where did the wall
    // time move? Matched by path; phases only one side knows are skipped.
    for bp in &base.phases {
        let Some(np) = new.phases.iter().find(|p| p.path == bp.path) else {
            continue;
        };
        let pct = rel_pct(bp.self_ms, np.self_ms);
        cmp.phase_deltas.push(Delta {
            case: bp.path.clone(),
            metric: "phase_self_ms",
            before: bp.self_ms,
            after: np.self_ms,
            pct,
            regression: false,
            improvement: pct < -th.time_pct,
        });
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(design: &str, workload: &str, wall_ms: f64, cycles: u64) -> BenchCase {
        BenchCase {
            design: design.to_string(),
            workload: workload.to_string(),
            wall_ms,
            accesses_per_sec: 1e6 / wall_ms,
            cycles,
            ipc: 1.5,
            hit_rate: 0.75,
            migrations: 42,
            overfetch: (design == "Bumblebee").then_some(0.25),
            lat_p95: [None; 5],
            lat_p99: [None; 5],
            traffic_pa: None,
            peak_util_pct: None,
        }
    }

    fn with_traffic(mut c: BenchCase) -> BenchCase {
        c.traffic_pa = Some(96.5);
        c.peak_util_pct = Some(12.25);
        c
    }

    fn with_tails(mut c: BenchCase) -> BenchCase {
        c.lat_p95 = [Some(30), Some(120), Some(900), Some(700), Some(2000)];
        c.lat_p99 = [Some(40), Some(160), Some(1500), Some(1100), Some(4000)];
        c
    }

    fn report() -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA,
            sha: "abc1234".to_string(),
            suite: "quick".to_string(),
            repeats: 1,
            jobs: 1,
            batch: None,
            scale: 256,
            accesses: 20_000,
            workloads: "mcf,xz".to_string(),
            busy_ms: 120.0,
            self_coverage: 0.98,
            cases: vec![case("Bumblebee", "mcf", 50.0, 1_000_000), case("AC", "mcf", 70.0, 2_000_000)],
            phases: vec![
                BenchPhase { path: "cell".to_string(), calls: 2, total_ms: 119.0, self_ms: 10.0 },
                BenchPhase {
                    path: "cell/ctrl_lookup".to_string(),
                    calls: 40_000,
                    total_ms: 80.0,
                    self_ms: 80.0,
                },
            ],
        }
    }

    #[test]
    fn bench_report_round_trips_through_jsonl() {
        let r = report();
        let body = r.to_lines().join("\n");
        let parsed = BenchReport::parse(&body).unwrap();
        assert_eq!(parsed, r);
        // An explicit batch width round-trips too (None for older files).
        let mut batched = report();
        batched.batch = Some(4096);
        let body = batched.to_lines().join("\n");
        assert!(body.contains("\"batch\":4096"));
        assert_eq!(BenchReport::parse(&body).unwrap(), batched);
        assert_eq!(BenchReport::parse(&report().to_lines().join("\n")).unwrap().batch, None);
    }

    #[test]
    fn suite_throughput_warns_by_default_and_gates_on_request() {
        let base = report();
        let mut slow = base.clone();
        // Halve every case's throughput (double the wall time).
        for c in &mut slow.cases {
            c.wall_ms *= 2.0;
            c.accesses_per_sec /= 2.0;
        }
        // Default thresholds: the aggregate delta is reported, not gated
        // (the doubled wall times trip their own per-case time gate).
        let cmp = compare(&base, &slow, Thresholds { time_pct: 1e9, ..Thresholds::default() })
            .unwrap();
        assert_eq!(cmp.regressions(), 0, "throughput is warn-only by default");
        let agg = cmp
            .deltas
            .iter()
            .find(|d| d.metric == "suite_accesses_per_sec")
            .expect("aggregate throughput always reported");
        assert!((agg.pct - -50.0).abs() < 1e-6, "{}", agg.pct);
        // An explicit threshold turns the same drop into a regression …
        let gated = Thresholds {
            time_pct: 1e9,
            throughput_pct: Some(25.0),
            ..Thresholds::default()
        };
        let cmp = compare(&base, &slow, gated).unwrap();
        assert_eq!(cmp.regressions(), 1);
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.regression && d.metric == "suite_accesses_per_sec"));
        // … a matching rise is an improvement, and self-compare is clean.
        let cmp = compare(&slow, &base, gated).unwrap();
        assert_eq!(cmp.regressions(), 0);
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.improvement && d.metric == "suite_accesses_per_sec"));
        assert_eq!(compare(&base, &base, gated).unwrap().regressions(), 0);
    }

    #[test]
    fn committed_bench_files_still_parse() {
        // Older reports carry header keys this version no longer writes;
        // parsing ignores them.
        for body in [
            include_str!("../../../results/bench_baseline.json"),
            include_str!("../../../results/BENCH_da11b8d.json"),
            include_str!("../../../results/BENCH_e5bcdcd.json"),
        ] {
            let r = BenchReport::parse(body).unwrap();
            assert_eq!(r.schema, BENCH_SCHEMA);
            assert!(!r.cases.is_empty());
        }
    }

    #[test]
    fn suite_aggregates() {
        let r = report();
        // 50 ms + 70 ms of case medians.
        assert!((r.suite_wall_ms() - 120.0).abs() < 1e-9);
        // Both cases pin 1e6 accesses (aps = 1e6 / wall_ms with wall in
        // ms-as-seconds units cancels out): 2e3 accesses over 0.12 s.
        let aps = r.suite_accesses_per_sec();
        assert!((aps - 2e3 / 0.12).abs() < 1e-6, "{aps}");
        let empty = BenchReport { cases: Vec::new(), ..r };
        assert_eq!(empty.suite_accesses_per_sec(), 0.0);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(BenchReport::parse("").unwrap_err().contains("no bench_meta"));
        assert!(BenchReport::parse("not json").unwrap_err().contains("not flat JSON"));
        let wrong_schema = r#"{"kind":"bench_meta","schema":999}"#;
        assert!(BenchReport::parse(wrong_schema).unwrap_err().contains("schema 999"));
        // A header without cases is not a usable report.
        let header_only = report().to_lines()[0].clone();
        assert!(BenchReport::parse(&header_only).unwrap_err().contains("no bench_case"));
    }

    #[test]
    fn self_compare_is_clean() {
        let r = report();
        let cmp = compare(&r, &r, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 0);
        assert!(cmp.missing.is_empty() && cmp.added.is_empty());
        // Every wall row is rendered, no regression flags.
        assert!(!cmp.render().contains("REGRESSION"));
    }

    #[test]
    fn doctored_wall_time_regresses_only_past_threshold() {
        let base = report();
        let mut slow = base.clone();
        slow.cases[0].wall_ms *= 1.2; // +20% < default 30% gate
        let cmp = compare(&base, &slow, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 0);
        slow.cases[0].wall_ms = base.cases[0].wall_ms * 1.5; // +50%
        let cmp = compare(&base, &slow, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 1);
        assert!(cmp.render().contains("REGRESSION"));
        // A tighter gate catches the 20% case too.
        slow.cases[0].wall_ms = base.cases[0].wall_ms * 1.2;
        let tight = Thresholds { time_pct: 10.0, ..Thresholds::default() };
        assert_eq!(compare(&base, &slow, tight).unwrap().regressions(), 1);
        // Getting faster is never a regression.
        slow.cases[0].wall_ms = base.cases[0].wall_ms * 0.5;
        assert_eq!(compare(&base, &slow, Thresholds::default()).unwrap().regressions(), 0);
    }

    #[test]
    fn improvements_are_reported_not_gated() {
        let base = report();
        let mut fast = base.clone();
        fast.cases[0].wall_ms *= 0.5; // −50% < −30% gate → improvement
        fast.phases[1].self_ms *= 0.4;
        let cmp = compare(&base, &fast, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 0);
        assert_eq!(cmp.improvements(), 1);
        let rendered = cmp.render();
        assert!(rendered.contains("IMPROVED"));
        // Phase deltas are informational: listed, never counted as gates.
        assert_eq!(cmp.phase_deltas.len(), base.phases.len());
        assert!(cmp.phase_deltas.iter().any(|d| d.improvement));
        assert!(rendered.contains("phase self-time deltas"));
        // A small speedup is "faster" but not a threshold-crossing
        // improvement.
        let mut slight = base.clone();
        slight.cases[0].wall_ms *= 0.9;
        assert_eq!(compare(&base, &slight, Thresholds::default()).unwrap().improvements(), 0);
    }

    #[test]
    fn phase_table_reports_wall_share() {
        let table = report().phase_table();
        assert!(table.contains("wall %"));
        // cell/ctrl_lookup: 80 ms of 120 ms busy → 66.7% both ways.
        assert!(table.contains("66.7"));
    }

    #[test]
    fn tail_latencies_round_trip_and_gate_only_when_present() {
        let mut base = report();
        base.cases[0] = with_tails(base.cases[0].clone());
        // Round trip keeps every per-path field, including the None gaps.
        let body = base.to_lines().join("\n");
        assert!(body.contains("\"p95_mhbm_hit\":30"));
        assert!(body.contains("\"p99_migration\":4000"));
        let parsed = BenchReport::parse(&body).unwrap();
        assert_eq!(parsed, base);
        // An old-schema body without the fields parses as all-None …
        let old = report();
        assert!(old.cases.iter().all(|c| c.lat_p95 == [None; 5] && c.lat_p99 == [None; 5]));
        // … and never gates against a tail-carrying candidate.
        let cmp = compare(&old, &base, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 0, "missing baseline tails skip silently");
        assert!(!cmp.deltas.iter().any(|d| d.metric.starts_with("p9")));
        // Matching tails below threshold stay clean; a blow-up past the
        // tail gate is a regression with its own metric name.
        let mut slow = base.clone();
        slow.cases[0].lat_p95[2] = Some(1800); // doubled, < default 110%
        assert_eq!(compare(&base, &slow, Thresholds::default()).unwrap().regressions(), 0);
        slow.cases[0].lat_p95[2] = Some(2000); // +122%
        let cmp = compare(&base, &slow, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 1);
        assert!(cmp.deltas.iter().any(|d| d.regression && d.metric == "p95_miss_fill"));
        // A tighter explicit gate catches smaller drift.
        slow.cases[0].lat_p95[2] = Some(1000);
        let tight = Thresholds { tail_pct: 5.0, ..Thresholds::default() };
        assert_eq!(compare(&base, &slow, tight).unwrap().regressions(), 1);
    }


    #[test]
    fn traffic_invariants_round_trip_and_gate_only_when_present() {
        let mut base = report();
        base.cases[0] = with_traffic(base.cases[0].clone());
        let body = base.to_lines().join("\n");
        assert!(body.contains("\"traffic_pa\":96.5"));
        assert!(body.contains("\"peak_util_pct\":12.25"));
        let parsed = BenchReport::parse(&body).unwrap();
        assert_eq!(parsed, base);
        // An old-schema body without the fields parses as None …
        let old = report();
        assert!(old.cases.iter().all(|c| c.traffic_pa.is_none() && c.peak_util_pct.is_none()));
        // … and never gates against a traffic-carrying candidate.
        let cmp = compare(&old, &base, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 0, "missing baseline traffic skips silently");
        assert!(!cmp.deltas.iter().any(|d| d.metric == "traffic_pa"));
        // Traffic is deterministic: any drift regresses, either direction.
        assert_eq!(compare(&base, &base, Thresholds::default()).unwrap().regressions(), 0);
        let mut drift = base.clone();
        drift.cases[0].traffic_pa = Some(97.0);
        let cmp = compare(&base, &drift, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 1);
        assert!(cmp.deltas.iter().any(|d| d.regression && d.metric == "traffic_pa"));
        let mut less = base.clone();
        less.cases[0].peak_util_pct = Some(10.0);
        let cmp = compare(&base, &less, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 1, "lower utilization is still behavior drift");
        assert!(cmp.deltas.iter().any(|d| d.regression && d.metric == "peak_util_pct"));
        // An explicit loose gate tolerates the drift.
        let loose = Thresholds { traffic_pct: 50.0, ..Thresholds::default() };
        assert_eq!(compare(&base, &less, loose).unwrap().regressions(), 0);
    }

    #[test]
    fn mixed_suite_case_table_stays_aligned() {
        // One case with every optional column, one with none: every data
        // row must still line up under the header.
        let mut r = report();
        r.cases[0] = with_traffic(with_tails(r.cases[0].clone()));
        let table = r.case_table();
        assert!(table.contains("p95 mhbm_hit"));
        assert!(table.contains("B/acc"));
        assert!(table.contains("peak util%"));
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines.len() >= 4, "header, separator, two cases");
        let width = lines[0].len();
        for line in &lines {
            assert_eq!(line.len(), width, "mis-aligned row: {line:?}");
        }
        // The traffic-less case renders dashes in the optional columns.
        let bare = lines.iter().find(|l| l.starts_with("AC/mcf")).unwrap();
        assert!(bare.trim_end().ends_with('-'), "{bare:?}");
    }

    #[test]
    fn case_table_adds_p95_columns_only_with_tails() {
        let plain = report();
        assert!(!plain.case_table().contains("p95"));
        let mut tailed = report();
        tailed.cases[0] = with_tails(tailed.cases[0].clone());
        let table = tailed.case_table();
        assert!(table.contains("p95 mhbm_hit"));
        assert!(table.contains("2000"), "migration p95 rendered");
        assert!(table.contains('-'), "tail-less case renders dashes");
    }

    #[test]
    fn invariant_drift_regresses_in_both_directions() {
        let base = report();
        for (bump_up, metric) in [(true, "cycles"), (false, "hit_rate")] {
            let mut drift = base.clone();
            if bump_up {
                drift.cases[0].cycles += 1;
            } else {
                drift.cases[0].hit_rate -= 0.01;
            }
            let cmp = compare(&base, &drift, Thresholds::default()).unwrap();
            assert_eq!(cmp.regressions(), 1, "{metric}");
            let bad = cmp.deltas.iter().find(|d| d.regression).unwrap();
            assert_eq!(bad.metric, metric);
        }
        // Over-fetch appearing out of nowhere is drift too.
        let mut drift = base.clone();
        drift.cases[1].overfetch = Some(0.1);
        assert_eq!(compare(&base, &drift, Thresholds::default()).unwrap().regressions(), 1);
    }

    #[test]
    fn missing_case_is_a_regression_and_suite_mismatch_is_an_error() {
        let base = report();
        let mut shrunk = base.clone();
        shrunk.cases.remove(1);
        let cmp = compare(&base, &shrunk, Thresholds::default()).unwrap();
        assert_eq!(cmp.regressions(), 1);
        assert_eq!(cmp.missing, vec!["AC/mcf".to_string()]);
        assert!(cmp.render().contains("missing from candidate"));
        let mut other = base.clone();
        other.accesses = 40_000;
        assert!(compare(&base, &other, Thresholds::default()).unwrap_err().contains("suites differ"));
    }

    #[test]
    fn suites_pin_all_seven_designs() {
        for suite in [Suite::canonical(), Suite::quick()] {
            assert_eq!(suite.designs.len(), 7, "{}", suite.name);
            assert!(suite.designs.contains(&Design::Bumblebee));
            assert!(suite.designs.contains(&Design::NoHbm));
            assert!(suite.repeats >= 1);
            assert_eq!(Suite::named(suite.name).unwrap().cfg.scale, suite.cfg.scale);
        }
        assert!(Suite::named("nope").is_none());
    }

    #[test]
    fn fold_phases_merges_trees_and_reports_coverage() {
        use memsim_obs::span::{self, Phase};
        let mut trees = Vec::new();
        for _ in 0..2 {
            span::enable();
            {
                let _c = span::span(Phase::Cell);
                let _l = span::span(Phase::CtrlLookup);
            }
            trees.push(span::collect());
        }
        let busy: u64 = trees.iter().map(SpanTree::total_nanos).sum();
        let (phases, coverage) = BenchReport::fold_phases(&trees, busy);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].path, "cell");
        assert_eq!(phases[1].path, "cell/ctrl_lookup");
        assert_eq!(phases[1].calls, 2);
        assert!((coverage - 1.0).abs() < 1e-9, "tree is its own wall time: {coverage}");
        let (none, zero) = BenchReport::fold_phases(&[], 0);
        assert!(none.is_empty());
        assert_eq!(zero, 0.0);
    }
}
