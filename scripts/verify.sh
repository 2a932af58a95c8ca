#!/usr/bin/env bash
# Tier-1 verification gate: offline release build, full test suite, and a
# parallel-vs-serial smoke run of one figure binary. Run from the repo root.
#
#   scripts/verify.sh
#
# Everything here must pass with NO network access — the workspace has no
# registry dependencies (property tests use the in-repo proptest shim).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== benchmark: declaration and smoke test (cargo test --manifest-path benchmark/Cargo.toml) =="
# benchmark/ is its own cargo workspace that calls the simulator only
# through its public API, so a public-API change in crates/* that breaks
# it fails here rather than at the next benchmark run.
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== lint: cargo clippy --workspace --all-targets -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== audit: workspace pass vs committed baseline (audit_tool check) =="
# Hard gate: the two-pass auditor (crates/analysis) runs every rule —
# per-file det-*/hot-*/struct-* plus the workspace call-graph, merge-
# commutativity, unit-domain and counter-reconciliation passes — and
# ratchets the findings against results/audit_baseline.json. New findings
# fail; entries that no longer reproduce fail too (delete them from the
# baseline so the bar only moves down). Regenerate after intentional
# changes with:
#   cargo run --release -p memsim-analysis --bin audit_tool -- \
#     check --format json > results/audit_baseline.json
cargo run --release -q -p memsim-analysis --bin audit_tool -- \
  check --format json --baseline results/audit_baseline.json >/dev/null

echo "== audit: self-test — doctored inputs must be caught =="
audit_smoke="$(mktemp -d)"
mkdir -p "$audit_smoke/crates/sim/src" "$audit_smoke/crates/obs/src"
cat > "$audit_smoke/crates/sim/src/det.rs" <<'RS'
//! Doctored self-test input: the injected `HashMap::new` below must trip
//! det-hashmap, proving the verify gate actually runs the auditor.
fn doctored() -> usize {
    std::collections::HashMap::<u64, u64>::new().len()
}
RS
cat > "$audit_smoke/crates/sim/src/transitive.rs" <<'RS'
//! Doctored self-test input: an unannotated controller entry point must
//! trip the workspace hot-transitive pass.
pub struct SmokeController(u64);
impl SmokeController {
    pub fn access(&mut self, a: u64) -> u64 { self.0 += a; self.0 }
}
RS
cat > "$audit_smoke/crates/sim/src/merge.rs" <<'RS'
//! Doctored self-test input: a last-writer-wins `=` inside a merge fn
//! must trip merge-commutative.
pub struct Partial { pub count: u64, pub last: u64 }
impl Partial {
    // audit: merge
    pub fn absorb(&mut self, o: &Partial) {
        self.count += o.count;
        self.last = o.last;
    }
}
RS
cat > "$audit_smoke/crates/sim/src/units.rs" <<'RS'
//! Doctored self-test input: adding an annotated cycle count to an
//! annotated byte count must trip unit-mismatch.
pub struct Probe {
    pub busy: u64, // audit: unit(cycles)
    pub moved: u64, // audit: unit(bytes)
}
impl Probe {
    pub fn skew(&self) -> u64 { self.busy + self.moved }
}
RS
cat > "$audit_smoke/crates/obs/src/counters.rs" <<'RS'
//! Doctored self-test input: a pub obs counter named by no test or
//! reconciliation invariant must trip obs-counter-reconcile.
pub struct SmokeCounters {
    pub orphaned: u64,
}
RS
for doctored in crates/sim/src/det.rs crates/sim/src/transitive.rs \
                crates/sim/src/merge.rs crates/sim/src/units.rs \
                crates/obs/src/counters.rs; do
  if cargo run --release -q -p memsim-analysis --bin audit_tool -- \
    check --root "$audit_smoke" "$audit_smoke/$doctored" \
    >/dev/null 2>&1; then
    echo "FAIL: audit_tool did not flag doctored $doctored" >&2
    rm -rf "$audit_smoke"
    exit 1
  fi
done
rm -rf "$audit_smoke"
echo "ok: workspace audit matches baseline, all 5 doctored inputs exit nonzero"

echo "== property tests (in-repo proptest shim) =="
cargo test -q --workspace \
  --features memsim-types/proptest,memsim-cache/proptest,memsim-baselines/proptest,memsim-dram/proptest,bumblebee-core/proptest,memsim-sim/proptest

echo "== smoke: fig8 serial vs parallel must be byte-identical =="
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
common=(--scale 256 --accesses 20000 --workloads mcf,wrf)
cargo run --release -q -p bumblebee-bench --bin fig8 -- \
  "${common[@]}" --jobs 1 --out "$smoke/serial" >/dev/null
cargo run --release -q -p bumblebee-bench --bin fig8 -- \
  "${common[@]}" --jobs 4 --out "$smoke/parallel" >/dev/null
if ! cmp -s "$smoke/serial/fig8.jsonl" "$smoke/parallel/fig8.jsonl"; then
  echo "FAIL: fig8.jsonl differs between --jobs 1 and --jobs 4" >&2
  diff "$smoke/serial/fig8.jsonl" "$smoke/parallel/fig8.jsonl" | head >&2
  exit 1
fi
echo "ok: $(wc -l < "$smoke/serial/fig8.jsonl") JSONL lines identical at both widths"

echo "== smoke: fig6 batched pipeline must be byte-identical at any chunk width =="
# The --batch invariant: batching is a pure performance transform, so
# one fig6 sweep at chunk widths 1, 64 and 4096 must produce identical
# results, epoch, trace, latency and bandwidth JSONL. Width 1 (one access
# per chunk) is the unstaged reference.
for n in 1 64 4096; do
  cargo run --release -q -p bumblebee-bench --bin fig6 -- \
    --scale 256 --accesses 20000 --workloads mcf --jobs 2 --metrics \
    --trace-sample 64 --batch "$n" --out "$smoke/batch$n" >/dev/null
done
for f in fig6.jsonl fig6.epochs.jsonl fig6.trace.jsonl fig6.lat.jsonl fig6.bw.jsonl; do
  if [ ! -s "$smoke/batch1/$f" ]; then
    echo "FAIL: batched smoke did not produce a non-empty $f" >&2
    exit 1
  fi
  for n in 64 4096; do
    if ! cmp -s "$smoke/batch1/$f" "$smoke/batch$n/$f"; then
      echo "FAIL: $f differs between --batch 1 and --batch $n" >&2
      diff "$smoke/batch1/$f" "$smoke/batch$n/$f" | head >&2
      exit 1
    fi
  done
done
echo "ok: fig6 results/epochs/trace/lat/bw identical at --batch 1, 64 and 4096"

echo "== smoke: trace_tool latency — per-path tails reconcile exactly =="
# Hard gate on the latency-attribution acceptance criterion: the per-path
# sample counts in fig6.lat.jsonl must reconcile EXACTLY against the
# controller hit/miss/bypass counters (trace_tool latency exits nonzero
# on any mismatch), for Bumblebee and every baseline in the sweep.
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  latency "$smoke/batch1/fig6.lat.jsonl" >/dev/null
echo "ok: path counts reconcile against CtrlStats for every design"

echo "== smoke: trace_tool bandwidth — cause bytes reconcile exactly =="
# Hard gate on the traffic-accounting acceptance criterion: per device,
# the cause-attributed byte sums in fig6.bw.jsonl must reconcile EXACTLY
# against the DRAM devices' own total_bytes counters (trace_tool
# bandwidth exits nonzero on any unclassified, dropped or double-counted
# transaction), for Bumblebee and every baseline in the sweep.
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  bandwidth "$smoke/batch1/fig6.bw.jsonl" >/dev/null
echo "ok: cause-attributed bytes reconcile with device counters"

echo "== smoke: fig6 --metrics writes observability artifacts =="
cargo run --release -q -p bumblebee-bench --bin fig6 -- \
  --scale 256 --accesses 20000 --workloads mcf --jobs 2 --metrics \
  --out "$smoke/metrics" >/dev/null
for f in fig6.jsonl fig6.epochs.jsonl fig6.trace.jsonl fig6.metrics.jsonl; do
  if [ ! -s "$smoke/metrics/$f" ]; then
    echo "FAIL: --metrics did not produce a non-empty $f" >&2
    exit 1
  fi
done
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  summarize "$smoke/metrics/fig6.trace.jsonl" >/dev/null
echo "ok: epochs/trace/metrics JSONL written and summarizable"

echo "== smoke: checked-invariant build must be byte-identical =="
# Same fig6 run compiled with --features checked: cross-structure invariant
# sweeps fire every 4096 accesses (BUMBLEBEE_CHECKED_INTERVAL default) and
# panic on the first violation. The sweeps are read-only, so the JSONL
# output must match the unchecked run byte for byte.
cargo run --release -q -p bumblebee-bench --features checked --bin fig6 -- \
  --scale 256 --accesses 20000 --workloads mcf --jobs 2 --metrics \
  --out "$smoke/checked" >/dev/null
if ! cmp -s "$smoke/metrics/fig6.jsonl" "$smoke/checked/fig6.jsonl"; then
  echo "FAIL: fig6.jsonl differs between unchecked and --features checked" >&2
  diff "$smoke/metrics/fig6.jsonl" "$smoke/checked/fig6.jsonl" | head >&2
  exit 1
fi
echo "ok: invariant sweeps passed and output is byte-identical"

echo "== smoke: trace_tool diff — self clean, doctored caught =="
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  diff "$smoke/metrics/fig6.epochs.jsonl" "$smoke/metrics/fig6.epochs.jsonl" >/dev/null
sed 's/"fills":[0-9]*/"fills":0/' "$smoke/metrics/fig6.epochs.jsonl" \
  > "$smoke/metrics/doctored.epochs.jsonl"
if cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  diff "$smoke/metrics/fig6.epochs.jsonl" "$smoke/metrics/doctored.epochs.jsonl" \
  >/dev/null 2>&1; then
  echo "FAIL: trace_tool diff did not flag a doctored epochs file" >&2
  exit 1
fi
echo "ok: epochs self-diff clean, doctored diff exits nonzero"

echo "== bench: bench_harness --quick + phase coverage + compare gates =="
cargo run --release -q -p bumblebee-bench --bin bench_harness -- \
  --quick --out "$smoke/bench" --sha smoke >/dev/null
bench="$smoke/bench/BENCH_smoke.json"
if [ ! -s "$bench" ]; then
  echo "FAIL: bench_harness did not write $bench" >&2
  exit 1
fi
coverage="$(grep -o '"self_coverage":[0-9.eE+-]*' "$bench" | head -1 | cut -d: -f2)"
if ! awk -v c="$coverage" 'BEGIN { exit !(c >= 0.90) }'; then
  echo "FAIL: phase self-time coverage $coverage < 0.90 of measured wall time" >&2
  exit 1
fi
cargo run --release -q -p bumblebee-bench --bin bench_tool -- \
  compare "$bench" "$bench" >/dev/null
echo "ok: self-compare reports zero regressions (phase coverage $coverage)"
sed -E 's/"cycles":[0-9]+/"cycles":1/' "$bench" > "$smoke/bench/doctored.json"
if cargo run --release -q -p bumblebee-bench --bin bench_tool -- \
  compare "$bench" "$smoke/bench/doctored.json" >/dev/null 2>&1; then
  echo "FAIL: bench_tool compare did not flag a doctored regression" >&2
  exit 1
fi
echo "ok: doctored regression detected (nonzero exit)"

echo "== bench: cycle-domain invariants vs committed baseline =="
# Wall times are machine-specific, so the time gate is disabled here; the
# cycle-domain invariants (cycles, IPC, hit rate, migrations, over-fetch)
# must match results/bench_baseline.json exactly. A PR that intentionally
# changes simulated behavior must regenerate the baseline:
#   cargo run --release -p bumblebee-bench --bin bench_harness -- \
#     --quick --name bench_baseline
cargo run --release -q -p bumblebee-bench --bin bench_tool -- \
  compare results/bench_baseline.json "$bench" \
  --time-threshold-pct 1000000 >/dev/null
echo "ok: invariants match the committed baseline"

echo "== bench: wall-time check vs committed baseline (warn-only) =="
# Same comparison at the default 30% time threshold. Wall times on shared
# CI machines are noisy, so a time regression here WARNS instead of
# failing — the exact invariant gate above is the hard gate. A warning
# that persists across runs on a quiet machine is a real regression.
if cargo run --release -q -p bumblebee-bench --bin bench_tool -- \
  compare results/bench_baseline.json "$bench"; then
  echo "ok: wall time within 30% of the committed baseline"
else
  echo "WARN: wall time regressed >30% vs the committed baseline" \
       "(invariants are clean; treat as noise unless it persists)" >&2
fi

echo "== bench: default-batch throughput >= 1.5x the --batch 1 width (warn-only) =="
# The batching perf claim as a CI artifact: the same quick suite run
# with --batch 1 (one access per chunk, so no staging is amortized) must
# be at least 1.5x slower than the default-batch run above — measured
# back-to-back on this machine, so the ratio is honest even on slow
# hosts. The cycle-domain invariants between the two BENCH files are a
# hard gate (batching must not change a single simulated number); the
# throughput ratio itself WARNS because a loaded machine can squeeze
# either run.
cargo run --release -q -p bumblebee-bench --bin bench_harness -- \
  --quick --batch 1 --out "$smoke/bench" --sha batch1 >/dev/null
cargo run --release -q -p bumblebee-bench --bin bench_tool -- \
  compare "$smoke/bench/BENCH_batch1.json" "$bench" \
  --time-threshold-pct 1000000 >/dev/null
echo "ok: cycle-domain invariants identical at --batch 1 and the default batch"
aggregate() {
  cargo run --release -q -p bumblebee-bench --bin bench_tool -- show "$1" \
    | grep -oE '[0-9]+ accesses/sec aggregate' | cut -d' ' -f1
}
rate1="$(aggregate "$smoke/bench/BENCH_batch1.json")"
rateN="$(aggregate "$bench")"
if awk -v a="$rate1" -v b="$rateN" 'BEGIN { exit !(a > 0 && b / a >= 1.5) }'; then
  echo "ok: ${rateN} accesses/sec batched vs ${rate1} at --batch 1 (>= 1.5x)"
else
  echo "WARN: batched suite throughput ${rateN} accesses/sec is < 1.5x the" \
       "--batch 1 width (${rate1}); expected only on loaded hosts" >&2
fi

echo "== bench: disabled-instrumentation wall within 2% of baseline (warn-only) =="
# The timed bench repeats always run with latency sampling AND traffic
# accounting disabled (the attribution pass is a separate untimed run), so
# `sampled()` must compile down to a branch that never fires and the
# traffic accumulator must stay a never-taken `Option` check: even a 2%
# wall drift vs the committed baseline would mean the instrumentation
# leaks into the uninstrumented hot path. Shared CI machines are too
# noisy for a hard gate at 2%, so this WARNS.
if cargo run --release -q -p bumblebee-bench --bin bench_tool -- \
  compare results/bench_baseline.json "$bench" \
  --time-threshold-pct 2 >/dev/null 2>&1; then
  echo "ok: disabled-instrumentation wall within 2% of the committed baseline"
else
  echo "WARN: wall time drifted >2% vs the committed baseline with sampling" \
       "and traffic accounting disabled (treat as noise unless it persists" \
       "on a quiet machine)" >&2
fi

echo "== verify.sh: all gates passed =="
