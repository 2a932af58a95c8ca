//! The audit rule catalog: stable ids, one-line summaries and the long
//! explanations behind `audit_tool explain <rule>`.
//!
//! The catalog holds only what rustc and clippy cannot express (see
//! DESIGN.md "Static analysis & checked builds"); the type, method and
//! crate-attribute bans run as the workspace lint table and `clippy.toml`:
//!
//! * `det-unordered-iter` — determinism: iteration over a hash-based
//!   collection, through any method and not only `for` loops;
//! * `hot-*` — hot-path hygiene: panics and heap allocation in functions
//!   annotated `// audit: hot-path` (the controller access flow), and the
//!   closure of that annotation within a file and across the workspace;
//! * `unit-mismatch` and `obs-counter-reconcile` — workspace-wide unit
//!   domains and counter reconciliation;
//! * `audit-syntax` — the `// audit:` directives themselves.

/// Common std method names never treated as resolvable callees when the
/// receiver is unknown (`recv.name(…)` / chained calls): the receiver is
/// usually a std type, and the false-positive cost of matching them
/// outweighs the closure coverage. Free-fn calls, `self.`-receiver calls
/// and explicit `Type::name(…)` paths are never skip-listed — they
/// resolve unambiguously to workspace items.
pub const CALLEE_SKIP: &[&str] = &[
    "new", "len", "is_empty", "push", "pop", "insert", "remove", "get", "get_mut", "clear",
    "iter", "iter_mut", "next", "clone", "min", "max", "clamp", "map", "and_then", "unwrap_or",
    "unwrap_or_else", "take", "replace", "swap", "from", "into", "fmt", "eq", "cmp", "hash",
    "drop", "default", "as_ref", "as_mut", "as_deref_mut", "contains", "count", "sum", "extend",
];

/// One rule in the catalog.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id used in findings, `allow(...)` directives and the CLI.
    pub id: &'static str,
    /// One-line summary for `list-rules`.
    pub summary: &'static str,
    /// Long-form explanation for `explain <rule>`.
    pub explain: &'static str,
}

/// The full catalog, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "det-unordered-iter",
        summary: "iteration over a hash-based collection",
        explain: "\
Even with a deterministic hasher, hash-map iteration order is an\n\
implementation detail of capacity and insertion history — it is not a\n\
stable contract, and it changes across std versions. Any loop over a\n\
HashMap/HashSet that feeds JSONL output, stats, or control flow is a\n\
reproducibility hazard.\n\
\n\
Flagged: `.iter()`, `.keys()`, `.values()`, `.drain()`, `.retain()`,\n\
`.into_iter()` and `for … in <binding>` where <binding> was lexically\n\
bound to a HashMap/HashSet in the same file.\n\
\n\
Fix: iterate a BTreeMap, sort the keys first, or — for order-insensitive\n\
reductions like sums — justify with\n\
`// audit: allow(det-unordered-iter) -- <reason>`.",
    },
    Rule {
        id: "hot-panic",
        summary: "panic/unwrap/expect/assert in an audited hot-path fn",
        explain: "\
Functions annotated `// audit: hot-path` form the per-access controller\n\
flow (Controller::access, Channel::service, the baseline controllers and\n\
everything they call). A panic there takes down the whole experiment\n\
engine mid-matrix, and `unwrap`/`expect` hide invariant assumptions the\n\
checked build mode should be verifying instead.\n\
\n\
Flagged inside hot fns: `panic!`, `unreachable!`, `todo!`,\n\
`unimplemented!`, `assert!`/`assert_eq!`/`assert_ne!`, `.unwrap()`,\n\
`.expect()`. Not flagged: `debug_assert*` (compiled out in release) and\n\
anything under `#[cfg(test)]`.\n\
\n\
Fix: restructure so the invariant is a typed impossibility, move the\n\
check into the `checked` feature's invariant sweep, or justify with\n\
`// audit: allow(hot-panic) -- <reason>`.",
    },
    Rule {
        id: "hot-alloc",
        summary: "heap allocation in an audited hot-path fn",
        explain: "\
The PR-4 O(1) overhaul made the steady-state access path allocation\n\
free: all per-set metadata lives in fixed boxed slices sized at\n\
construction, and scratch vectors retain capacity across calls. A stray\n\
`format!` or `Box::new` in the access flow quietly costs more than most\n\
algorithmic regressions.\n\
\n\
Flagged inside hot fns: `Box::new`, `vec![…]`, `format!`,\n\
`String::new`/`String::from`, `.to_string()`, `.to_owned()`,\n\
`.to_vec()`, `.collect()`, and `.push(…)`/`.extend(…)` on a local that\n\
was bound to `Vec::new()` in the same fn (pushes to preallocated,\n\
capacity-retaining buffers are fine and are not flagged).\n\
\n\
Fix: preallocate at construction, reuse scratch buffers, or justify\n\
with `// audit: allow(hot-alloc) -- <reason>`.",
    },
    Rule {
        id: "hot-callee",
        summary: "hot-path fn calls a same-file fn not marked hot-path",
        explain: "\
`// audit: hot-path` coverage is only as good as its transitive\n\
closure. This rule keeps the closure honest within a file: a call from\n\
an audited fn to a fn defined in the same file that is not itself\n\
annotated is flagged, so helpers on the access flow cannot silently\n\
escape the hot-* rules.\n\
\n\
Matched call shapes: `name(…)`, `self.name(…)`, `recv.name(…)` and\n\
`Self::name(…)` where `name` is a fn defined in the same file. A small\n\
list of ubiquitous std method names (len, push, get, iter, …) is\n\
skipped to avoid false positives on std receivers — except on a `self.`\n\
receiver, which always resolves to this file's impl, so hot-path ring\n\
buffers and samplers whose methods shadow std names (`push`, `clear`)\n\
stay inside the closure. Cross-file calls are out of scope (annotate\n\
the callee in its own file).\n\
\n\
Fix: annotate the callee `// audit: hot-path`, or justify the edge with\n\
`// audit: allow(hot-callee) -- <reason>` (e.g. a cold error branch).",
    },
    Rule {
        id: "hot-transitive",
        summary: "fn reachable from a controller/channel root lacks hot-path",
        explain: "\
The workspace pass builds a cross-crate call graph (free calls, `self.`\n\
and `Self::` methods, `Type::name` paths, and receiver-typed method\n\
calls resolved against every impl whose type or trait is named in the\n\
caller's file) and walks it from the audited hot roots: every\n\
`access`/`access_batch` on a controller — any `impl` whose type name\n\
contains `Controller` or that implements `HybridMemoryController` — and\n\
`Channel::schedule`. Unlike `hot-callee`, which keeps the closure honest\n\
one file at a time, this rule checks the *true* transitive closure: any\n\
fn reachable from a root that is not annotated `// audit: hot-path` is\n\
flagged at its definition site, with the edge it was reached through.\n\
\n\
The walk is cycle-tolerant (recursive controller helpers terminate) and\n\
respects declared cold boundaries: a fn carrying\n\
`// audit: allow(hot-transitive) -- <reason>` is excused and the walk\n\
does not descend into its callees — use it for genuinely cold exits\n\
from the access flow (epoch rollover, trace finalization, error paths).\n\
\n\
Fix: annotate the fn `// audit: hot-path` (subjecting it to hot-panic /\n\
hot-alloc / hot-callee), or declare the cold boundary with an allow.",
    },
    Rule {
        id: "unit-mismatch",
        summary: "arithmetic mixes annotated cycle/byte/access/ns domains",
        explain: "\
The simulator keeps four integer domains in bare u64 fields: `cycles`\n\
(simulated DRAM time), `bytes` (traffic), `accesses` (event counts) and\n\
`ns` (wall-clock telemetry). `// audit: unit(<domain>)` annotations\n\
on fields and fns put their *names* in a workspace-wide unit table;\n\
this rule then flags `+`, `-`, compound adds and comparisons whose two\n\
operands resolve to different annotated domains — adding bytes to\n\
cycles, or comparing wall-clock ns against sim cycles — in crates/core,\n\
crates/dram, crates/obs and crates/sim.\n\
\n\
The model is name-keyed and lexical: operands resolve through field\n\
chains (`self.bw.cycles` → `cycles`), calls (`total_bytes()` →\n\
`total_bytes`) and indexing; numeric literals and unannotated names\n\
never flag. A name annotated with *conflicting* units in different\n\
files is dropped from the table entirely. Multiplication, division and\n\
shifts are never checked — they legitimately change units\n\
(bytes/cycle, cycles×width).\n\
\n\
Fix: convert explicitly in a named helper so the result carries the\n\
right annotation, or justify with\n\
`// audit: allow(unit-mismatch) -- <reason>`.",
    },
    Rule {
        id: "obs-counter-reconcile",
        summary: "pub counter in crates/obs outside every reconciliation check",
        explain: "\
The paper's traffic taxonomy (§III-E) is only trustworthy because the\n\
cause-attributed counters are *reconciled*: class-byte sums must equal\n\
device byte totals exactly, latency-component sums must equal total\n\
latency, epoch partials must sum to the sequential run. This rule makes\n\
that a closed system: every pub integer field declared in crates/obs\n\
must be named by at least one reconciliation context — a #[cfg(test)]\n\
region anywhere in the workspace, an integration-test file, or the body\n\
of a fn whose name contains reconcile/invariant/validate/verify/check.\n\
A counter no check ever reads is a counter whose drift nobody notices.\n\
\n\
Fix: extend a reconciliation invariant or test to cover the counter, or\n\
justify with `// audit: allow(obs-counter-reconcile) -- <reason>` on\n\
the field's line.",
    },
    Rule {
        id: "audit-syntax",
        summary: "malformed // audit: directive",
        explain: "\
An `// audit:` comment that does not parse as `hot-path` or\n\
`allow(<rule>) -- <reason>` is reported rather than ignored: a typo'd\n\
annotation that silently does nothing is worse than none at all. This\n\
rule cannot be allow()ed away — fix the directive.",
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// True when `id` names a catalog rule (used to validate `allow(...)`).
pub fn is_known(id: &str) -> bool {
    rule(id).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_lookup_works() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(RULES[i + 1..].iter().all(|o| o.id != r.id), "dup {}", r.id);
            assert_eq!(rule(r.id).unwrap().id, r.id);
            assert!(!r.summary.is_empty() && !r.explain.is_empty());
        }
        assert!(!is_known("no-such-rule"));
    }
}
