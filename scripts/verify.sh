#!/usr/bin/env bash
# Tier-1 verification gate: offline release build, full test suite, the
# byte-identity digests once more in the release build, and
# parallel-vs-serial smoke runs of the fig8 (small and paper geometry),
# fig7 and sensitivity binaries. Run from the repo root.
#
#   scripts/verify.sh
#
# Everything here must pass with NO network access — the workspace has no
# registry dependencies (property tests use the in-repo proptest shim).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q --no-fail-fast =="
# default-members covers every crate, property suites included. Without
# --no-fail-fast the first failing test target stops cargo and hides every
# later target's result; cargo still exits nonzero on any failure.
cargo test -q --no-fail-fast

echo "== release: cargo test --release -q --test byte_identity =="
# The tier-1 suite runs in a debug build, with overflow checks and
# debug_asserts on. The figures and the benchmark run the release build, so
# its cycle-domain output is pinned to the same digests here: arithmetic
# that diverges only without those checks fails this step.
cargo test --release -q --test byte_identity

echo "== benchmark: declaration and smoke test (cargo test --manifest-path benchmark/Cargo.toml) =="
# benchmark/ is its own cargo workspace that calls the simulator only
# through its public API, so a public-API change in crates/* that breaks
# it fails here rather than at the next benchmark run.
# Cargo rewrites benchmark/Cargo.lock here: the committed lock still lists
# a crate the workspace has since deleted. Files under benchmark/ change
# only with the benchmark itself, so the lock is copied aside and put back
# afterwards, on failure too, and the gate leaves the tree as it found it.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo test -q --manifest-path benchmark/Cargo.toml
cp "$bench_lock" benchmark/Cargo.lock
rm -f "$bench_lock"
trap - EXIT

echo "== lint: cargo clippy --workspace --all-targets -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs: cargo doc --workspace --no-deps, rustdoc warnings denied =="
# A broken, private or ambiguous intra-doc link fails here instead of
# rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== lint: self-test — doctored inputs must fail clippy with the named lint =="
# A throwaway crate carrying the repo's own [workspace.lints.rust] table
# (extracted from Cargo.toml, not retyped) and a copy of clippy.toml. Each
# doctored lib.rs below is one shape a determinism or structure ban must
# reject with the named lint; the clean lib.rs at the end must pass.
lint_smoke="$(mktemp -d)"
trap 'rm -rf "$lint_smoke"' EXIT
{
  printf '[package]\nname = "lint-smoke"\nversion = "0.0.0"\nedition = "2021"\npublish = false\n\n'
  printf '[lib]\npath = "lib.rs"\n\n[workspace]\n\n[lints.rust]\n'
  sed -n '/^\[workspace\.lints\.rust\]$/,/^\[/{/^\[/d;p}' Cargo.toml
} > "$lint_smoke/Cargo.toml"
cp clippy.toml "$lint_smoke/"
lint_clippy() { # lint_clippy <items>: clippy a crate made of <items>
  printf '//! Lint self-test input.\n%s\n' "$1" > "$lint_smoke/lib.rs"
  cargo clippy --offline -q --manifest-path "$lint_smoke/Cargo.toml" -- -D warnings \
    2> "$lint_smoke/stderr"
}
lint_rejects() { # lint_rejects <lint> <items>
  if lint_clippy "$2"; then
    echo "FAIL: clippy accepted a doctored input meant to trip $1:" >&2
    cat "$lint_smoke/lib.rs" >&2
    exit 1
  fi
  # rustc spells a lint `unsafe-code` on its command line, `unsafe_code` in source.
  if ! grep -qE "${1//_/[-_]}" "$lint_smoke/stderr"; then
    echo "FAIL: clippy rejected a doctored input, but not with $1:" >&2
    cat "$lint_smoke/stderr" >&2
    exit 1
  fi
}
# det-hashmap: HashMap/HashSet in every position a use can take, plus HashMap::from.
lint_rejects disallowed_types '/// D.
pub fn f() -> usize { let m: std::collections::HashMap<u64, u64> = Default::default(); m.len() }'
lint_rejects disallowed_types '/// D.
pub fn f(xs: &[u64]) -> usize { xs.iter().collect::<std::collections::HashSet<_>>().len() }'
lint_rejects disallowed_types '/// D.
pub fn f() -> usize { std::collections::HashMap::<u64, u64>::default().len() }'
lint_rejects disallowed_types '/// D.
pub fn f(x: u64) -> usize { let mut h = std::collections::HashMap::new(); h.insert(x, ()); h.len() }'
lint_rejects disallowed_types '/// D.
pub fn f() -> usize { std::collections::HashMap::from([(1u64, 2u64)]).len() }'
lint_rejects disallowed_types 'use std::collections::HashSet;
/// D.
pub struct S { /// D.
    pub seen: HashSet<(String, u8)> }
/// D.
pub fn f() -> S { S { seen: HashSet::with_capacity(4) } }'
# det-entropy: the one ambient entropy source std offers.
lint_rejects disallowed_types '/// D.
pub fn f() -> std::collections::hash_map::RandomState { std::collections::hash_map::RandomState::new() }'
# det-clock.
lint_rejects disallowed_methods 'use std::time::Instant;
/// D.
pub fn f() -> u128 { Instant::now().elapsed().as_nanos() }'
lint_rejects disallowed_methods '/// D.
pub fn f() -> bool { std::time::SystemTime::now() > std::time::UNIX_EPOCH }'
# det-thread.
lint_rejects disallowed_methods '/// D.
pub fn f(w: Vec<u64>) -> u64 { std::thread::spawn(move || w.iter().sum()).join().unwrap_or(0) }'
lint_rejects disallowed_methods 'use std::thread;
/// D.
pub fn f() { thread::scope(|s| { s.spawn(|| ()); }); }'
lint_rejects disallowed_methods '/// D.
pub fn f() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }'
lint_rejects disallowed_methods '/// D.
pub fn f() -> bool { std::thread::Builder::new().spawn(|| ()).is_ok() }'
lint_rejects disallowed_methods '/// D.
pub fn f() { std::thread::scope(|s| { let _ = std::thread::Builder::new().spawn_scoped(s, || ()); }); }'
# struct-attrs and struct-pub-docs.
lint_rejects unsafe_code '/// D.
pub fn f(x: &u64) -> u64 { unsafe { *(x as *const u64) } }'
lint_rejects unsafe_code '#![allow(unsafe_code)]
/// D.
pub fn f() {}'
lint_rejects missing_docs 'pub fn f() {}'
lint_rejects missing_docs '/// D.
pub struct S { pub x: u64 }'
lint_rejects missing_docs '#![allow(missing_docs)]
/// D.
pub fn f() {}'
lint_rejects unreachable_pub 'mod inner { pub fn f() {} }
/// D.
pub fn g() { inner::f() }'
if ! lint_clippy 'use std::collections::BTreeMap;
/// D.
pub fn f(xs: &[u64]) -> BTreeMap<u64, usize> { xs.iter().map(|&x| (x, 1)).collect() }'; then
  echo "FAIL: clippy rejected the clean self-test input:" >&2
  cat "$lint_smoke/stderr" >&2
  exit 1
fi
rm -rf "$lint_smoke"
trap - EXIT
echo "ok: every doctored input failed with its lint, the clean one passed"

echo "== smoke: fig8 serial vs parallel must be byte-identical =="
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
common=(--scale 256 --accesses 20000 --workloads mcf,wrf)
# The paper-geometry run fills a 16 M-line over-fetch ledger per tracking
# cell and drives roms past off-chip capacity into the page-fault path.
paper=(--full --accesses 20000 --workloads wrf,roms)
for run in small paper; do
  if [ "$run" = small ]; then args=("${common[@]}"); else args=("${paper[@]}"); fi
  mkdir -p "$smoke/$run-serial" "$smoke/$run-parallel"
  cargo run --release -q -p bumblebee-bench --bin fig8 -- \
    "${args[@]}" --jobs 1 --out "$smoke/$run-serial" > "$smoke/$run-serial/fig8.txt"
  cargo run --release -q -p bumblebee-bench --bin fig8 -- \
    "${args[@]}" --jobs 4 --out "$smoke/$run-parallel" > "$smoke/$run-parallel/fig8.txt"
  for f in fig8.txt fig8.jsonl; do
    if ! cmp -s "$smoke/$run-serial/$f" "$smoke/$run-parallel/$f"; then
      echo "FAIL: $run $f differs between --jobs 1 and --jobs 4" >&2
      diff "$smoke/$run-serial/$f" "$smoke/$run-parallel/$f" | head >&2
      exit 1
    fi
  done
  echo "ok: $run table and $(wc -l < "$smoke/$run-serial/fig8.jsonl") JSONL lines identical at both widths"
done

echo "== smoke: fig7 serial vs parallel must be byte-identical =="
# Fig. 7 is the one binary that runs every Bumblebee ablation: fixed
# partitions, the Alloc-D/Alloc-H policies, No-HMF and No-Multi.
mkdir -p "$smoke/fig7-1" "$smoke/fig7-4"
for jobs in 1 4; do
  cargo run --release -q -p bumblebee-bench --bin fig7 -- \
    "${common[@]}" --jobs "$jobs" --out "$smoke/fig7-$jobs" > "$smoke/fig7-$jobs/fig7.txt"
done
for f in fig7.txt fig7.jsonl; do
  if ! cmp -s "$smoke/fig7-1/$f" "$smoke/fig7-4/$f"; then
    echo "FAIL: $f differs between --jobs 1 and --jobs 4" >&2
    diff "$smoke/fig7-1/$f" "$smoke/fig7-4/$f" | head >&2
    exit 1
  fi
done
echo "ok: table and $(wc -l < "$smoke/fig7-1/fig7.jsonl") JSONL lines identical at both widths"

echo "== smoke: sensitivity --metrics serial vs parallel must be byte-identical =="
mkdir -p "$smoke/sens1" "$smoke/sens4"
for jobs in 1 4; do
  cargo run --release -q -p bumblebee-bench --bin sensitivity -- \
    "${common[@]}" --metrics --jobs "$jobs" --out "$smoke/sens$jobs" \
    > "$smoke/sens$jobs/sensitivity.txt"
done
for f in sensitivity.txt sensitivity.jsonl; do
  if ! cmp -s "$smoke/sens1/$f" "$smoke/sens4/$f"; then
    echo "FAIL: $f differs between --jobs 1 and --jobs 4" >&2
    diff "$smoke/sens1/$f" "$smoke/sens4/$f" | head >&2
    exit 1
  fi
done
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  bandwidth "$smoke/sens1/sensitivity.bw.jsonl" >/dev/null
echo "ok: table and $(wc -l < "$smoke/sens1/sensitivity.jsonl") JSONL lines identical at both widths; bw reconciles"

echo "== smoke: fig6 --metrics writes observability artifacts =="
cargo run --release -q -p bumblebee-bench --bin fig6 -- \
  --scale 256 --accesses 20000 --workloads mcf --jobs 2 --metrics \
  --trace-sample 64 --out "$smoke/metrics" >/dev/null
for f in fig6.jsonl fig6.epochs.jsonl fig6.trace.jsonl fig6.lat.jsonl fig6.bw.jsonl \
         fig6.metrics.jsonl; do
  if [ ! -s "$smoke/metrics/$f" ]; then
    echo "FAIL: --metrics did not produce a non-empty $f" >&2
    exit 1
  fi
done
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  summarize "$smoke/metrics/fig6.trace.jsonl" >/dev/null
echo "ok: epochs/trace/lat/bw/metrics JSONL written and summarizable"

echo "== smoke: trace_tool latency — per-path tails reconcile exactly =="
# Hard gate on the latency-attribution acceptance criterion: the per-path
# sample counts in fig6.lat.jsonl must reconcile EXACTLY against the
# controller hit/miss/bypass counters (trace_tool latency exits nonzero
# on any mismatch), for Bumblebee and every baseline in the sweep.
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  latency "$smoke/metrics/fig6.lat.jsonl" >/dev/null
echo "ok: path counts reconcile against CtrlStats for every design"

echo "== smoke: trace_tool bandwidth — cause bytes reconcile exactly =="
# Hard gate on the traffic-accounting acceptance criterion: per device,
# the cause-attributed byte sums in fig6.bw.jsonl must reconcile EXACTLY
# against the DRAM devices' own total_bytes counters (trace_tool
# bandwidth exits nonzero on any unclassified, dropped or double-counted
# transaction), for Bumblebee and every baseline in the sweep.
cargo run --release -q -p bumblebee-bench --bin trace_tool -- \
  bandwidth "$smoke/metrics/fig6.bw.jsonl" >/dev/null
echo "ok: cause-attributed bytes reconcile with device counters"

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

echo "== verify.sh: all gates passed =="
