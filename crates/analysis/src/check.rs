//! The audit engine: applies the rule catalog to token streams and walks
//! the workspace.
//!
//! Since PR 10 the engine runs in **two passes**. Pass one lexes and
//! structures every file into a [`Workspace`] (symbol table inputs: fns
//! with their impl/trait owners, `// audit:` annotations, unit fields).
//! Pass two runs the rules:
//!
//! * per-file rules (`det-unordered-iter`, `hot-panic`/`hot-alloc`/
//!   `hot-callee`, `audit-syntax`) see one file at a time;
//! * workspace rules see the whole corpus: `unit-mismatch` resolves names
//!   against the global [`units::UnitTable`], `hot-transitive` walks the
//!   cross-crate [`CallGraph`] from the controller/channel roots, and
//!   `obs-counter-reconcile` matches crates/obs counters against every
//!   test region and reconciliation fn in the workspace.
//!
//! The layering keeps fixture tests filesystem-free:
//!
//! * [`check_source`] — audit one file's source text (a one-file
//!   workspace: every rule still runs, cross-file resolution simply has
//!   nothing else to see);
//! * [`check_ws`] — audit a pre-built [`Workspace`];
//! * [`check_workspace`] — collect the workspace's non-test sources (plus
//!   integration-test sources as reconciliation evidence) and audit them.

use crate::graph::{CallGraph, FnId, Workspace};
use crate::items::{FileStructure, FnItem};
use crate::lexer::{TokKind, Token};
use crate::rules::{self, CALLEE_SKIP};
use crate::units;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Catalog rule id.
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:<22} {}:{}: {}", self.rule, self.path, self.line, self.msg)
    }
}

/// Aggregated result of an audit run.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Findings that survived `allow` filtering, in path/line order.
    pub findings: Vec<Finding>,
    /// Audited exceptions: (rule, path, line, reason) of every allow that
    /// suppressed at least one finding.
    pub exceptions: Vec<(String, String, u32, String)>,
    /// Number of `// audit: hot-path` fns audited.
    pub hot_fns: usize,
    /// Number of `// audit: unit(...)` annotations (fields + fns).
    pub unit_annotations: usize,
    /// Resolved call-graph edges in the workspace pass.
    pub call_edges: usize,
    /// Files examined.
    pub files: usize,
}

impl AuditReport {
    /// True when the audit found nothing.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Methods whose call on a hash binding means unordered iteration.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "retain", "into_keys", "into_values"];

/// Audits one file as a one-file workspace. `rel` is the repo-relative
/// path used in findings and for the path-scoped workspace rules. Every
/// rule runs — workspace rules simply see a corpus of one file.
pub fn check_source(rel: &str, src: &str) -> (Vec<Finding>, FileStructure) {
    let ws = Workspace::from_sources(vec![(rel.to_string(), src.to_string())]);
    let report = check_ws(&ws, &BTreeSet::new());
    let st = ws.files.into_iter().next().expect("one-file workspace").st;
    (report.findings, st)
}

/// The per-file rules: everything that needs only one file's tokens.
fn file_rules(rel: &str, toks: &[Token], st: &FileStructure, raw: &mut Vec<(usize, Finding)>) {
    det_unordered_iter(rel, toks, st, raw);
    hot_rules(rel, toks, st, raw);

    // Malformed directives and unknown rule ids in allows.
    for e in &st.errors {
        raw.push((usize::MAX, finding("audit-syntax", rel, e.line, e.msg.clone())));
    }
    for a in &st.allows {
        if !rules::is_known(&a.rule) {
            raw.push((
                usize::MAX,
                finding("audit-syntax", rel, a.line, format!("allow of unknown rule `{}`", a.rule)),
            ));
        }
    }
}

/// Audits a pre-built workspace: per-file rules, then the workspace rules
/// (`unit-mismatch`, `hot-transitive`, `obs-counter-reconcile`).
/// `aux_idents` is extra reconciliation evidence — idents from sources
/// outside the audited corpus (integration-test files).
pub fn check_ws(ws: &Workspace, aux_idents: &BTreeSet<String>) -> AuditReport {
    let mut report = AuditReport::default();
    let mut raw: Vec<Vec<(usize, Finding)>> = ws.files.iter().map(|_| Vec::new()).collect();

    let table = units::UnitTable::build(ws.files.iter().map(|f| &f.st));
    for (fi, file) in ws.files.iter().enumerate() {
        file_rules(&file.rel, &file.toks, &file.st, &mut raw[fi]);
        if units::in_scope(&file.rel) {
            units::scan(&file.rel, &file.toks, &file.st, &table, &mut raw[fi]);
        }
    }
    report.call_edges = hot_transitive(ws, &mut raw);
    obs_counter_reconcile(ws, aux_idents, &mut raw);

    for (fi, file) in ws.files.iter().enumerate() {
        let st = &file.st;
        report.files += 1;
        report.hot_fns += st.fns.iter().filter(|f| f.hot && !f.in_test).count();
        report.unit_annotations +=
            st.unit_fields.len() + st.fns.iter().filter(|f| f.unit.is_some()).count();
        // An allow counts as an audited exception when declared with a
        // reason — the exception report is the list of declared, justified
        // deviations, which is what reviewers audit.
        for a in &st.allows {
            if rules::is_known(&a.rule) {
                report.exceptions.push((a.rule.clone(), file.rel.clone(), a.line, a.reason.clone()));
            }
        }
        // Apply allows (audit-syntax is not allowable by design).
        report.findings.extend(
            std::mem::take(&mut raw[fi])
                .into_iter()
                .filter(|(i, f)| f.rule == "audit-syntax" || !st.allowed(f.rule, f.line, *i))
                .map(|(_, f)| f),
        );
    }
    report.findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

fn finding(rule: &'static str, rel: &str, line: u32, msg: String) -> Finding {
    Finding { rule, path: rel.to_string(), line, msg }
}

/// Next non-comment token at or after `i`.
fn next_code(toks: &[Token], i: usize) -> Option<(usize, &Token)> {
    toks.iter().enumerate().skip(i).find(|(_, t)| !t.is_comment())
}

/// Previous non-comment token strictly before `i`.
fn prev_code(toks: &[Token], i: usize) -> Option<(usize, &Token)> {
    toks[..i].iter().enumerate().rev().find(|(_, t)| !t.is_comment())
}

fn det_unordered_iter(
    rel: &str,
    toks: &[Token],
    st: &FileStructure,
    out: &mut Vec<(usize, Finding)>,
) {
    if st.hash_bindings.is_empty() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !st.hash_bindings.contains(&t.text) || st.in_test(i) {
            continue;
        }
        // `<binding>.iter()` and friends.
        let method = toks.get(i + 1).filter(|n| n.is_punct('.')).and_then(|_| toks.get(i + 2));
        let is_iter_call = method.is_some_and(|m| {
            ITER_METHODS.contains(&m.text.as_str())
                && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        });
        // `for x in <binding>` / `for x in &<binding>`.
        let in_loop = match prev_code(toks, i) {
            Some((_, p)) if p.is_ident("in") => true,
            Some((k, p)) if p.is_punct('&') => {
                matches!(prev_code(toks, k), Some((_, pp)) if pp.is_ident("in"))
            }
            _ => false,
        };
        if is_iter_call || in_loop {
            out.push((
                i,
                finding(
                    "det-unordered-iter",
                    rel,
                    t.line,
                    format!("iteration over hash-based collection `{}`", t.text),
                ),
            ));
        }
    }
}

/// Runs `hot-panic`, `hot-alloc` and `hot-callee` over every annotated fn.
fn hot_rules(rel: &str, toks: &[Token], st: &FileStructure, out: &mut Vec<(usize, Finding)>) {
    for f in st.fns.iter().filter(|f| f.hot && !f.in_test) {
        let Some((start, end)) = f.body else { continue };
        hot_panic(rel, toks, start, end, out);
        hot_alloc(rel, toks, start, end, out);
        hot_callee(rel, toks, st, f, start, end, out);
    }
}

fn hot_panic(rel: &str, toks: &[Token], start: usize, end: usize, out: &mut Vec<(usize, Finding)>) {
    for i in start..=end.min(toks.len() - 1) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_macro = matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq" | "assert_ne"
        ) && toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let is_method = matches!(t.text.as_str(), "unwrap" | "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if is_macro || is_method {
            out.push((
                i,
                finding("hot-panic", rel, t.line, format!("`{}` in a hot-path fn", t.text)),
            ));
        }
    }
}

fn hot_alloc(rel: &str, toks: &[Token], start: usize, end: usize, out: &mut Vec<(usize, Finding)>) {
    // Locals bound to a growable empty Vec inside this fn.
    let mut growable: Vec<&str> = Vec::new();
    let mut i = start;
    while i <= end.min(toks.len() - 1) {
        let t = &toks[i];
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let (Some(name), Some(eq)) = (toks.get(j), toks.get(j + 1)) {
                if name.kind == TokKind::Ident
                    && eq.is_punct('=')
                    && (toks.get(j + 2).is_some_and(|t| t.is_ident("Vec"))
                        && toks.get(j + 5).is_some_and(|t| t.is_ident("new"))
                        || toks.get(j + 2).is_some_and(|t| t.is_ident("vec")))
                {
                    growable.push(&name.text);
                }
            }
        }
        i += 1;
    }
    for i in start..=end.min(toks.len() - 1) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |off: usize, c: char| toks.get(i + off).is_some_and(|t| t.is_punct(c));
        let mut hit: Option<String> = None;
        if (t.is_ident("vec") || t.is_ident("format")) && next_is(1, '!') {
            hit = Some(format!("`{}!` allocates", t.text));
        } else if (t.is_ident("Box") || t.is_ident("String"))
            && next_is(1, ':')
            && next_is(2, ':')
            && toks
                .get(i + 3)
                .is_some_and(|n| matches!(n.text.as_str(), "new" | "from" | "with_capacity"))
        {
            hit = Some(format!("`{}::{}` allocates", t.text, toks[i + 3].text));
        } else if i > 0
            && toks[i - 1].is_punct('.')
            && matches!(t.text.as_str(), "to_string" | "to_owned" | "to_vec" | "collect")
            && (next_is(1, '(') || next_is(1, ':'))
        {
            hit = Some(format!("`.{}()` allocates", t.text));
        } else if matches!(t.text.as_str(), "push" | "extend")
            && i > 1
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && growable.contains(&toks[i - 2].text.as_str())
            && next_is(1, '(')
        {
            hit = Some(format!(
                "`.{}` on `{}`, a Vec::new()-bound local (preallocate or reuse scratch)",
                t.text,
                toks[i - 2].text
            ));
        }
        if let Some(msg) = hit {
            out.push((i, finding("hot-alloc", rel, t.line, format!("{msg} in a hot-path fn"))));
        }
    }
}

fn hot_callee(
    rel: &str,
    toks: &[Token],
    st: &FileStructure,
    f: &FnItem,
    start: usize,
    end: usize,
    out: &mut Vec<(usize, Finding)>,
) {
    for i in start..=end.min(toks.len() - 1) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Any same-file fn with this name; treat the call as audited when
        // at least one same-name fn is annotated (lexical ambiguity).
        let mut defined = false;
        let mut audited = false;
        for g in st.fns.iter().filter(|g| !g.in_test && g.name == t.text) {
            defined = true;
            audited |= g.hot;
        }
        if !defined || audited || t.text == f.name {
            continue;
        }
        let prev = prev_code(toks, i);
        let call = match prev {
            Some((_, p)) if p.is_ident("fn") => None, // a nested fn's own signature
            Some((k, p)) if p.is_punct('.') => {
                let receiver = prev_code(toks, k);
                // A `self.` receiver always resolves to this file's impl, so
                // even skip-listed ubiquitous names (push, clear, …) stay in
                // the closure — that is how ring-buffer samplers named like
                // std collections (`Ring::push`) keep hot-* coverage.
                let own_method = matches!(&receiver, Some((_, r)) if r.is_ident("self"));
                // Likewise, when a same-file type defines a *method* with
                // this name, an unknown receiver is far more likely that
                // type than a std collection — skipping it was the PR 5
                // false negative that let `ring.push(…)` escape the
                // closure whenever the method shadowed a std name.
                let local_method =
                    st.fns.iter().any(|g| !g.in_test && g.name == t.text && g.owner.is_some());
                if CALLEE_SKIP.contains(&t.text.as_str()) && !own_method && !local_method {
                    None
                } else {
                    Some(match receiver {
                        Some((_, r)) if r.kind == TokKind::Ident => format!("{}.{}", r.text, t.text),
                        _ => format!(".{}", t.text),
                    })
                }
            }
            Some((k, p)) if p.is_punct(':') => {
                // `Self::name(` is a same-file path call; so is a
                // lowercase-qualified free-fn path (`crate::name(`,
                // `self::name(`, `module::name(`) — PR 5 dropped those
                // entirely, so shadow-named free fns reached through a
                // path (`crate::push(…)`) were never audited.
                match prev_code(toks, k).and_then(|(k2, _)| prev_code(toks, k2)) {
                    Some((_, r)) if r.is_ident("Self") => Some(format!("Self::{}", t.text)),
                    Some((_, r))
                        if r.kind == TokKind::Ident
                            && r.text.chars().next().is_some_and(|c| c.is_ascii_lowercase()) =>
                    {
                        Some(format!("{}::{}", r.text, t.text))
                    }
                    _ => None,
                }
            }
            _ => Some(t.text.clone()),
        };
        if let Some(callee) = call {
            out.push((
                i,
                finding(
                    "hot-callee",
                    rel,
                    t.line,
                    format!(
                        "hot-path fn `{}` calls `{}` which is defined in this file but not marked `// audit: hot-path`",
                        f.name, callee
                    ),
                ),
            ));
        }
    }
}

/// `hot-transitive`: BFS the call graph from the controller/channel roots
/// and flag every reachable fn that is neither annotated hot-path nor
/// covered by an `allow(hot-transitive)` cold boundary. Returns the
/// resolved edge count for the report summary.
fn hot_transitive(ws: &Workspace, raw: &mut [Vec<(usize, Finding)>]) -> usize {
    let g = CallGraph::build(ws);
    let roots = g.roots(ws);
    let allowed = |id: FnId| {
        let file = &ws.files[id.file];
        let f = &file.st.fns[id.idx];
        let tok = f.body.map_or(usize::MAX, |(s, _)| s);
        file.st.allowed("hot-transitive", f.line, tok)
    };
    let qual = |id: FnId| {
        let f = &ws.files[id.file].st.fns[id.idx];
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    };
    // An allow(hot-transitive) is a declared cold boundary: the fn itself
    // is excused *and* the walk does not descend into its callees.
    let reach = g.reachable(&roots, |id| !allowed(id));
    for (&id, &from) in &reach {
        if allowed(id) {
            continue;
        }
        let f = &ws.files[id.file].st.fns[id.idx];
        // Bodiless fns (trait method signatures) have no code to audit —
        // the impls they fan out to are the auditable surface.
        if f.hot || f.body.is_none() {
            continue;
        }
        let msg = if id == from {
            format!("hot root `{}` is not marked `// audit: hot-path`", qual(id))
        } else {
            format!(
                "`{}` is reachable from a hot root via `{}` ({}) but not marked \
                 `// audit: hot-path`",
                qual(id),
                qual(from),
                ws.files[from.file].rel
            )
        };
        let rel = ws.files[id.file].rel.clone();
        raw[id.file].push((f.tok, Finding { rule: "hot-transitive", path: rel, line: f.line, msg }));
    }
    g.edge_count
}

/// `obs-counter-reconcile`: every pub integer counter declared in
/// crates/obs must be named by at least one reconciliation context — a
/// `#[cfg(test)]` region anywhere, the body of a fn whose name signals an
/// invariant (`reconcile`/`invariant`/`validate`/`verify`/`check`), or an
/// integration-test file (`aux_idents`).
fn obs_counter_reconcile(ws: &Workspace, aux_idents: &BTreeSet<String>, raw: &mut [Vec<(usize, Finding)>]) {
    let mut evidence: BTreeSet<&str> = aux_idents.iter().map(String::as_str).collect();
    for file in &ws.files {
        for &(a, b) in &file.st.test_regions {
            for t in &file.toks[a..=b.min(file.toks.len() - 1)] {
                if t.kind == TokKind::Ident {
                    evidence.insert(&t.text);
                }
            }
        }
        for f in &file.st.fns {
            let reconciles = ["reconcile", "invariant", "validate", "verify", "check"]
                .iter()
                .any(|k| f.name.contains(k));
            if !reconciles || f.in_test {
                continue;
            }
            let Some((s, e)) = f.body else { continue };
            for t in &file.toks[s..=e.min(file.toks.len() - 1)] {
                if t.kind == TokKind::Ident {
                    evidence.insert(&t.text);
                }
            }
        }
    }
    for (fi, file) in ws.files.iter().enumerate() {
        if !file.rel.starts_with("crates/obs/") {
            continue;
        }
        for (i, name, line) in pub_int_fields(&file.toks, &file.st) {
            if !evidence.contains(name.as_str()) {
                raw[fi].push((
                    i,
                    finding(
                        "obs-counter-reconcile",
                        &file.rel,
                        line,
                        format!(
                            "pub counter `{name}` appears in no reconciliation invariant or test \
                             (add it to a reconcile/invariant fn or a test, or allow with a reason)"
                        ),
                    ),
                ));
            }
        }
    }
}

/// Pub integer (or integer-array) fields outside test regions:
/// `(token index, field name, line)`.
fn pub_int_fields(toks: &[Token], st: &FileStructure) -> Vec<(usize, String, u32)> {
    const INT: &[&str] =
        &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || st.in_test(i) {
            continue;
        }
        let Some((j, name)) = next_code(toks, i + 1) else { continue };
        if name.kind != TokKind::Ident {
            continue; // pub(crate) and friends
        }
        let Some((k, colon)) = next_code(toks, j + 1) else { continue };
        if !colon.is_punct(':') || toks.get(k + 1).is_some_and(|t| t.is_punct(':')) {
            continue; // not a field, or a `::` path
        }
        let Some((m, ty)) = next_code(toks, k + 1) else { continue };
        let is_int = INT.contains(&ty.text.as_str())
            || (ty.is_punct('[')
                && next_code(toks, m + 1).is_some_and(|(_, t)| INT.contains(&t.text.as_str())));
        if is_int {
            out.push((i, name.text.clone(), name.line));
        }
    }
    out
}

/// Collects the workspace source files under `root` that the audit covers:
/// the facade `src/lib.rs` plus everything under `crates/*/src`, skipping
/// `tests/`, `benches/`, `examples/`, `fixtures/` and `target/`.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let facade = root.join("src/lib.rs");
    if facade.is_file() {
        files.push(facade);
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> =
            std::fs::read_dir(&crates)?.filter_map(Result::ok).map(|e| e.path()).collect();
        members.sort();
        for m in members {
            let src = m.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if !matches!(name, "tests" | "benches" | "examples" | "fixtures" | "target") {
                collect_rs(&p, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Collects the workspace's integration-test sources (`crates/*/tests`,
/// root `tests/`) — not audited themselves, but their idents count as
/// reconciliation evidence for `obs-counter-reconcile`.
pub fn aux_test_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join("tests")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> =
            std::fs::read_dir(&crates)?.filter_map(Result::ok).map(|e| e.path()).collect();
        members.sort();
        dirs.extend(members.into_iter().map(|m| m.join("tests")));
    }
    for d in dirs {
        if d.is_dir() {
            collect_rs(&d, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Audits every workspace file under `root` and aggregates the report.
/// Integration-test files are read as reconciliation evidence only.
pub fn check_workspace(root: &Path) -> std::io::Result<AuditReport> {
    let mut aux = BTreeSet::new();
    for path in aux_test_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        aux.extend(
            crate::lexer::lex(&src)
                .into_iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text),
        );
    }
    let report = check_files_with_aux(root, &workspace_files(root)?, &aux)?;
    Ok(report)
}

/// Audits an explicit file list (paths are made repo-relative to `root`
/// for classification and reporting when possible). The list is audited
/// as one workspace, so cross-file rules resolve within it.
pub fn check_files(root: &Path, files: &[PathBuf]) -> std::io::Result<AuditReport> {
    check_files_with_aux(root, files, &BTreeSet::new())
}

fn check_files_with_aux(
    root: &Path,
    files: &[PathBuf],
    aux_idents: &BTreeSet<String>,
) -> std::io::Result<AuditReport> {
    let mut sources = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(path)?));
    }
    Ok(check_ws(&Workspace::from_sources(sources), aux_idents))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
        check_source(rel, src).0.into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn allow_suppresses_and_is_reported() {
        let src = "// audit: hot-path\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap() } // audit: allow(hot-panic) -- caller guarantees Some\n";
        let (findings, st) = check_source("crates/sim/src/e.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(st.allows.len(), 1);
    }

    #[test]
    fn hot_rules_only_fire_in_annotated_fns() {
        let cold = "fn f() { x.unwrap(); }";
        assert!(rules_hit("crates/core/src/x.rs", cold).is_empty());
        let hot = "// audit: hot-path\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(rules_hit("crates/core/src/x.rs", hot), vec![("hot-panic", 2)]);
    }

    #[test]
    fn hot_callee_closure() {
        let src = "\
// audit: hot-path
fn fast(&self) { self.helper(); }
fn helper(&self) {}
";
        let hits = rules_hit("crates/core/src/x.rs", src);
        assert_eq!(hits, vec![("hot-callee", 2)]);
        let fixed = src.replace("fn helper", "// audit: hot-path\nfn helper");
        assert!(rules_hit("crates/core/src/x.rs", &fixed).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let body = "fn f(m: &HashMap<u64, u64, H>) -> u64 { m.keys().sum() }";
        assert_eq!(rules_hit("crates/sim/src/x.rs", body), vec![("det-unordered-iter", 1)]);
        let src = format!("#[cfg(test)]\nmod tests {{\n  {body}\n}}");
        assert!(rules_hit("crates/sim/src/x.rs", &src).is_empty());
    }

    #[test]
    fn malformed_directive_is_a_finding() {
        let hits = rules_hit("crates/sim/src/x.rs", "// audit: allow(hot-panic)\nfn f() {}");
        assert_eq!(hits, vec![("audit-syntax", 1)]);
    }
}
