//! Item-structure recovery over the flat token stream.
//!
//! The audit rules need a little more than raw tokens: which `fn` items
//! exist (name + body token range), which of them carry `// audit:`
//! directives, which regions are `#[cfg(test)]` code, and which local
//! names are bound to hash-based collections. This module recovers exactly
//! that by linear scans — no AST, no type information.
//!
//! # The `// audit:` annotation grammar
//!
//! ```text
//! // audit: hot-path
//! // audit: merge
//! // audit: unit(cycles|bytes|accesses|ns)
//! // audit: allow(<rule-id>) -- <reason>
//! ```
//!
//! * `hot-path` marks the next `fn` item (only comments, attributes and
//!   visibility/qualifier keywords may stand between the comment and the
//!   `fn`). The fn's body is then checked by the `hot-*` rules.
//! * `merge` marks the next `fn` item as a merge function (one that folds
//!   a partial result into an aggregate): its body is checked by the
//!   `merge-commutative` rule (only order-independent accumulation is
//!   allowed — see the rule catalog).
//! * `unit(<u>)` attaches a measurement unit to the next field or `fn`
//!   item (or, when trailing a field declaration, to that field). The
//!   `unit-mismatch` rule flags additive arithmetic and comparisons
//!   between names carrying different units.
//! * `allow(<rule-id>) -- <reason>` suppresses findings of one rule. Its
//!   scope depends on placement: trailing a code line → that line; on its
//!   own line directly above a `fn` item → the whole fn; on its own line
//!   elsewhere → the next code line. The reason after `--` is mandatory;
//!   the tool counts every audited exception and reports the total.
//! * A malformed directive is itself a finding (`audit-syntax`) — silently
//!   ignored annotations would be worse than none.

use crate::lexer::{TokKind, Token};

/// A parsed `// audit:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `// audit: hot-path` — the next fn is a controller hot path.
    HotPath,
    /// `// audit: merge` — the next fn is a merge function.
    Merge,
    /// `// audit: unit(u)` — the next field/fn carries measurement unit
    /// `u` (one of [`UNITS`]).
    Unit(String),
    /// `// audit: allow(rule) -- reason` — an audited exception.
    Allow {
        /// Rule id being allowed.
        rule: String,
        /// Mandatory justification (after `--`).
        reason: String,
    },
}

/// The closed set of measurement units `unit(...)` accepts. `cycles` are
/// simulated CPU cycles, `ns` wall-clock nanoseconds (telemetry only) —
/// the two time domains the `unit-mismatch` rule must keep apart.
pub const UNITS: &[&str] = &["cycles", "bytes", "accesses", "ns"];

/// Where an `allow` directive applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllowScope {
    /// Findings on this exact source line.
    Line(u32),
    /// Findings anywhere in the fn whose body spans these token indices.
    Fn(usize, usize),
    /// Findings anywhere in the file (directive at crate-attribute level).
    File,
}

/// One accepted `allow` with its resolved scope.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule id being suppressed.
    pub rule: String,
    /// Scope the suppression applies to.
    pub scope: AllowScope,
    /// Line of the directive comment (for the exception report).
    pub line: u32,
    /// The justification text.
    pub reason: String,
}

/// A recovered `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The fn's name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub tok: usize,
    /// Token-index range of the body `{ … }`, inclusive; `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// The type this fn is a method of: the `Self` type of the enclosing
    /// `impl` block, or the trait name for methods declared inside a
    /// `trait` block. `None` for free fns.
    pub owner: Option<String>,
    /// The trait being implemented when the enclosing block is
    /// `impl Trait for Type` (or declared, for `trait Trait` blocks).
    pub trait_name: Option<String>,
    /// Marked `// audit: hot-path`.
    pub hot: bool,
    /// Marked `// audit: merge`.
    pub merge: bool,
    /// Unit of the fn's return value, from `// audit: unit(...)`.
    pub unit: Option<String>,
    /// Inside a `#[cfg(test)]` region (rules skip it).
    pub in_test: bool,
}

/// A struct field carrying a `// audit: unit(...)` annotation.
#[derive(Debug, Clone)]
pub struct UnitField {
    /// Field name.
    pub name: String,
    /// One of [`UNITS`].
    pub unit: String,
    /// 1-indexed line of the field declaration.
    pub line: u32,
}

/// A malformed `// audit:` comment (reported as `audit-syntax`).
#[derive(Debug, Clone)]
pub struct SyntaxError {
    /// Line of the offending comment.
    pub line: u32,
    /// What was wrong.
    pub msg: String,
}

/// Everything the rules need to know about one file's structure.
#[derive(Debug, Default)]
pub struct FileStructure {
    /// All `fn` items in source order.
    pub fns: Vec<FnItem>,
    /// Accepted `allow` directives.
    pub allows: Vec<Allow>,
    /// Malformed directives.
    pub errors: Vec<SyntaxError>,
    /// Token-index ranges of `#[cfg(test)]` regions.
    pub test_regions: Vec<(usize, usize)>,
    /// Names lexically bound to `HashMap`/`HashSet` values or fields.
    pub hash_bindings: Vec<String>,
    /// Fields annotated `// audit: unit(...)`.
    pub unit_fields: Vec<UnitField>,
}

impl FileStructure {
    /// True when token index `i` falls inside a `#[cfg(test)]` region.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| i >= a && i <= b)
    }

    /// True when `rule` is allowed at `line` / token index `i`.
    pub fn allowed(&self, rule: &str, line: u32, i: usize) -> bool {
        self.allows.iter().any(|a| {
            a.rule == rule
                && match a.scope {
                    AllowScope::Line(l) => l == line,
                    AllowScope::Fn(s, e) => i >= s && i <= e,
                    AllowScope::File => true,
                }
        })
    }
}

/// Parses the text of a line comment into a directive, if it is one.
///
/// Returns `None` for ordinary comments, `Some(Ok(..))` for well-formed
/// directives and `Some(Err(msg))` for malformed ones.
pub fn parse_directive(text: &str) -> Option<Result<Directive, String>> {
    let body = text.trim_start_matches('/').trim();
    let rest = body.strip_prefix("audit:")?.trim();
    if rest == "hot-path" {
        return Some(Ok(Directive::HotPath));
    }
    if rest == "merge" {
        return Some(Ok(Directive::Merge));
    }
    if let Some(args) = rest.strip_prefix("unit") {
        let args = args.trim();
        let unit = args
            .strip_prefix('(')
            .and_then(|a| a.strip_suffix(')'))
            .map(str::trim)
            .unwrap_or("");
        if UNITS.contains(&unit) {
            return Some(Ok(Directive::Unit(unit.into())));
        }
        return Some(Err(format!(
            "unit: expected `unit(<u>)` with <u> one of {} (got `{args}`)",
            UNITS.join("|")
        )));
    }
    if let Some(args) = rest.strip_prefix("allow") {
        let args = args.trim();
        let Some(close) = args.find(')') else {
            return Some(Err("allow: missing closing parenthesis".into()));
        };
        let Some(rule) = args.strip_prefix('(').map(|a| a[..close - 1].trim()) else {
            return Some(Err("allow: expected `allow(<rule>)`".into()));
        };
        if rule.is_empty() {
            return Some(Err("allow: empty rule id".into()));
        }
        let tail = args[close + 1..].trim();
        let Some(reason) = tail.strip_prefix("--").map(str::trim) else {
            return Some(Err(format!("allow({rule}): missing `-- <reason>`")));
        };
        if reason.is_empty() {
            return Some(Err(format!("allow({rule}): empty reason")));
        }
        return Some(Ok(Directive::Allow { rule: rule.into(), reason: reason.into() }));
    }
    Some(Err(format!("unknown audit directive `{rest}`")))
}

/// Keywords that may legally stand between an audit comment and its `fn`.
fn is_prelude_ident(s: &str) -> bool {
    matches!(
        s,
        "pub" | "crate" | "super" | "self" | "in" | "const" | "async" | "unsafe" | "extern"
            | "default"
    )
}

/// Recovers the item structure of one token stream.
pub fn analyze(toks: &[Token]) -> FileStructure {
    let mut st = FileStructure::default();
    collect_test_regions(toks, &mut st);
    let owners = collect_owner_regions(toks);
    collect_fns(toks, &owners, &mut st);
    collect_directives(toks, &mut st);
    collect_hash_bindings(toks, &mut st);
    st
}

/// One `impl`/`trait` block: its brace range and the names the methods
/// inside it belong to.
#[derive(Debug, Clone)]
struct OwnerRegion {
    start: usize,
    end: usize,
    owner: String,
    trait_name: Option<String>,
}

/// The base ident of a type path: the last depth-0 ident before `stop`
/// keywords, so `fmt::Display` → `Display`, `Vec<T>` → `Vec`.
fn type_base_ident(toks: &[Token], mut j: usize, stops: &[&str]) -> (Option<String>, usize) {
    let mut angle = 0i64;
    let mut base = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && (t.is_punct('{') || t.is_punct(';')) {
            break;
        } else if angle <= 0 && t.kind == TokKind::Ident {
            if stops.contains(&t.text.as_str()) {
                break;
            }
            if !matches!(t.text.as_str(), "dyn" | "mut" | "const" | "crate" | "super" | "self") {
                base = Some(t.text.clone());
            }
        }
        j += 1;
    }
    (base, j)
}

/// Recovers `impl [Trait for] Type { … }` and `trait Name { … }` regions
/// so methods can be attributed to their `Self` type (or declaring
/// trait). Linear scan; impl blocks never nest in this workspace.
fn collect_owner_regions(toks: &[Token]) -> Vec<OwnerRegion> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("impl") {
            // Item position only: `impl Trait` in type position (return
            // types, bounds) follows `->`, `(`, `<`, `&`, `,`, `:` or `=`.
            let item_pos = match toks[..i].iter().rev().find(|p| !p.is_comment()) {
                None => true,
                Some(p) => {
                    p.is_punct('}') || p.is_punct('{') || p.is_punct(';') || p.is_punct(']')
                        || p.is_ident("unsafe")
                }
            };
            if !item_pos {
                i += 1;
                continue;
            }
            // Skip the generic parameter list, if any.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('<')) {
                let mut angle = 0i64;
                while j < toks.len() {
                    if toks[j].is_punct('<') {
                        angle += 1;
                    } else if toks[j].is_punct('>') {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            let (first, after) = type_base_ident(toks, j, &["for", "where"]);
            let (owner, trait_name, mut b) =
                if toks.get(after).is_some_and(|t| t.is_ident("for")) {
                    let (second, after2) = type_base_ident(toks, after + 1, &["where"]);
                    (second, first, after2)
                } else {
                    (first, None, after)
                };
            while b < toks.len() && !toks[b].is_punct('{') && !toks[b].is_punct(';') {
                b += 1; // skip a where clause
            }
            if let (Some(owner), true) = (owner, toks.get(b).is_some_and(|t| t.is_punct('{'))) {
                regions.push(OwnerRegion {
                    start: b,
                    end: match_brace(toks, b),
                    owner,
                    trait_name,
                });
                i = b;
            }
        } else if t.is_ident("trait") {
            if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let mut b = i + 2;
                while b < toks.len() && !toks[b].is_punct('{') && !toks[b].is_punct(';') {
                    b += 1;
                }
                if toks.get(b).is_some_and(|t| t.is_punct('{')) {
                    regions.push(OwnerRegion {
                        start: b,
                        end: match_brace(toks, b),
                        owner: name.text.clone(),
                        trait_name: Some(name.text.clone()),
                    });
                    i = b;
                }
            }
        }
        i += 1;
    }
    regions
}

/// Finds the token index of the matching `}` for the `{` at `open`.
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

fn collect_test_regions(toks: &[Token], st: &mut FileStructure) {
    // Pattern: `#` `[` cfg `(` test … `]` (comments allowed) `mod` ident `{`.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        {
            // Scan the attribute for the ident `test` before `]`.
            let mut j = i + 3;
            let mut saw_test = false;
            while j < toks.len() && !toks[j].is_punct(']') {
                saw_test |= toks[j].is_ident("test");
                j += 1;
            }
            if saw_test {
                // Skip comments/attributes to the next code token.
                let mut k = j + 1;
                while k < toks.len() && toks[k].is_comment() {
                    k += 1;
                }
                if toks.get(k).is_some_and(|t| t.is_ident("mod")) {
                    // Body opens at the first `{` after the mod name.
                    let mut b = k + 1;
                    while b < toks.len() && !toks[b].is_punct('{') && !toks[b].is_punct(';') {
                        b += 1;
                    }
                    if b < toks.len() && toks[b].is_punct('{') {
                        let end = match_brace(toks, b);
                        st.test_regions.push((i, end));
                        i = j + 1;
                        continue;
                    }
                } else {
                    // `#[cfg(test)]` on a non-mod item (fn, use, impl):
                    // conservatively mark up to the end of that item's
                    // body or its terminating `;`.
                    let mut b = k;
                    while b < toks.len() && !toks[b].is_punct('{') && !toks[b].is_punct(';') {
                        b += 1;
                    }
                    let end =
                        if b < toks.len() && toks[b].is_punct('{') { match_brace(toks, b) } else { b };
                    st.test_regions.push((i, end));
                }
            }
        }
        i += 1;
    }
}

fn collect_fns(toks: &[Token], owners: &[OwnerRegion], st: &mut FileStructure) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                // Body opens at the first `{` before any `;` at this level.
                let mut b = i + 2;
                let mut body = None;
                while b < toks.len() {
                    if toks[b].is_punct('{') {
                        body = Some((b, match_brace(toks, b)));
                        break;
                    }
                    if toks[b].is_punct(';') {
                        break;
                    }
                    b += 1;
                }
                // Innermost (last-starting) owner region containing the fn.
                let region = owners
                    .iter()
                    .filter(|r| i >= r.start && i <= r.end)
                    .max_by_key(|r| r.start);
                st.fns.push(FnItem {
                    name: name_tok.text.clone(),
                    line: toks[i].line,
                    tok: i,
                    body,
                    owner: region.map(|r| r.owner.clone()),
                    trait_name: region.and_then(|r| r.trait_name.clone()),
                    hot: false,
                    merge: false,
                    unit: None,
                    in_test: st.in_test(i),
                });
            }
        }
        i += 1;
    }
}

fn collect_directives(toks: &[Token], st: &mut FileStructure) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let parsed = match parse_directive(&t.text) {
            None => continue,
            Some(Err(msg)) => {
                st.errors.push(SyntaxError { line: t.line, msg });
                continue;
            }
            Some(Ok(d)) => d,
        };
        // Crate-attribute-level directives (before any code) are file-scoped.
        let first_code = toks.iter().position(|t| !t.is_comment()).unwrap_or(usize::MAX);
        let trailing = toks[..i].iter().any(|p| !p.is_comment() && p.line == t.line);
        let binds_fn = next_fn_item(toks, i);
        match parsed {
            Directive::HotPath => match binds_fn {
                Some(fi) if !trailing => st.fns[fi].hot = true,
                _ => st.errors.push(SyntaxError {
                    line: t.line,
                    msg: "hot-path must be on its own line directly above a fn item".into(),
                }),
            },
            Directive::Merge => match binds_fn {
                Some(fi) if !trailing => st.fns[fi].merge = true,
                _ => st.errors.push(SyntaxError {
                    line: t.line,
                    msg: "merge must be on its own line directly above a fn item".into(),
                }),
            },
            Directive::Unit(unit) => {
                if trailing {
                    // `pub cycles: u64, // audit: unit(cycles)` — bind to
                    // the field declared on this line.
                    match field_on_line(toks, t.line) {
                        Some(name) => st.unit_fields.push(UnitField { name, unit, line: t.line }),
                        None => st.errors.push(SyntaxError {
                            line: t.line,
                            msg: "trailing unit(...) must follow a field declaration".into(),
                        }),
                    }
                } else if let Some(fi) = binds_fn {
                    st.fns[fi].unit = Some(unit);
                } else {
                    match next_field(toks, i) {
                        Some((name, line)) => st.unit_fields.push(UnitField { name, unit, line }),
                        None => st.errors.push(SyntaxError {
                            line: t.line,
                            msg: "unit(...) must annotate a field or fn item".into(),
                        }),
                    }
                }
            }
            Directive::Allow { rule, reason } => {
                let scope = if trailing {
                    AllowScope::Line(t.line)
                } else if i < first_code {
                    AllowScope::File
                } else if let Some(fi) = binds_fn {
                    match st.fns[fi].body {
                        Some((s, e)) => AllowScope::Fn(s, e),
                        None => AllowScope::Line(st.fns[fi].line),
                    }
                } else {
                    AllowScope::Line(next_code_line(toks, i))
                };
                st.allows.push(Allow { rule, scope, line: t.line, reason });
            }
        }
    }
}

/// If only comments/attributes/visibility separate token `i` from a `fn`
/// keyword, returns the index (into `st.fns` order) of that fn.
fn next_fn_item(toks: &[Token], i: usize) -> Option<usize> {
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_comment() {
            j += 1;
        } else if t.is_punct('#') {
            // Skip `#[…]` / `#![…]`.
            let mut k = j + 1;
            if toks.get(k).is_some_and(|t| t.is_punct('!')) {
                k += 1;
            }
            if !toks.get(k).is_some_and(|t| t.is_punct('[')) {
                return None;
            }
            let mut depth = 0i64;
            while k < toks.len() {
                if toks[k].is_punct('[') {
                    depth += 1;
                } else if toks[k].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
        } else if t.kind == TokKind::Ident && is_prelude_ident(&t.text) {
            j += 1;
        } else if t.is_punct('(') || t.is_punct(')') {
            j += 1; // pub(crate)
        } else if t.is_ident("fn") {
            let line = t.line;
            return find_fn_at(toks, j, line);
        } else {
            return None;
        }
    }
    None
}

/// Index into the source-order fn list of the `fn` keyword at token `j`.
fn find_fn_at(toks: &[Token], j: usize, line: u32) -> Option<usize> {
    // Count how many `fn` keyword tokens precede index j.
    let mut n = 0usize;
    for (k, t) in toks.iter().enumerate() {
        if t.is_ident("fn") && toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            if k == j {
                return Some(n);
            }
            n += 1;
        }
        let _ = line;
    }
    None
}

/// The field declared on source line `line`: the last `ident :` pattern
/// (excluding `::` paths) among that line's tokens.
fn field_on_line(toks: &[Token], line: u32) -> Option<String> {
    let mut found = None;
    for (i, t) in toks.iter().enumerate() {
        if t.line != line || t.kind != TokKind::Ident {
            continue;
        }
        if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && (i == 0 || !toks[i - 1].is_punct(':'))
        {
            found = Some(t.text.clone());
        }
    }
    found
}

/// The next field declaration after token `i`: skips comments, attributes
/// and `pub`/`pub(crate)` prefixes, expects `ident :`.
fn next_field(toks: &[Token], i: usize) -> Option<(String, u32)> {
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_comment() || t.is_ident("pub") || t.is_punct('(') || t.is_punct(')')
            || t.is_ident("crate") || t.is_ident("super")
        {
            j += 1;
        } else if t.is_punct('#') {
            let mut depth = 0i64;
            let mut k = j + 1;
            while k < toks.len() {
                if toks[k].is_punct('[') {
                    depth += 1;
                } else if toks[k].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
        } else if t.kind == TokKind::Ident
            && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
        {
            return Some((t.text.clone(), t.line));
        } else {
            return None;
        }
    }
    None
}

fn next_code_line(toks: &[Token], i: usize) -> u32 {
    toks[i + 1..]
        .iter()
        .find(|t| !t.is_comment())
        .map(|t| t.line)
        .unwrap_or(toks[i].line + 1)
}

fn collect_hash_bindings(toks: &[Token], st: &mut FileStructure) {
    // `let [mut] NAME … = … Hash{Map,Set} … ;` and field/param patterns
    // `NAME : … Hash{Map,Set}` — purely lexical, good enough to catch
    // iteration over a map someone sneaked in.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                let name = name.text.clone();
                let mut k = j + 1;
                let mut uses_hash = false;
                while k < toks.len() && !toks[k].is_punct(';') {
                    uses_hash |= toks[k].is_ident("HashMap") || toks[k].is_ident("HashSet");
                    k += 1;
                }
                if uses_hash {
                    st.hash_bindings.push(name);
                }
                i = k;
                continue;
            }
        }
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && (i == 0 || !toks[i - 1].is_punct(':'))
        {
            // Look at the type tokens up to `,`, `)`, `}`, `;` or `=`.
            let mut k = i + 2;
            let mut depth = 0i64;
            while k < toks.len() {
                let t = &toks[k];
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                } else if depth <= 0
                    && (t.is_punct(',') || t.is_punct(')') || t.is_punct('}') || t.is_punct(';')
                        || t.is_punct('='))
                {
                    break;
                }
                if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    st.hash_bindings.push(toks[i].text.clone());
                    break;
                }
                k += 1;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn directive_parsing() {
        assert_eq!(parse_directive("// audit: hot-path"), Some(Ok(Directive::HotPath)));
        assert_eq!(
            parse_directive("// audit: allow(det-clock) -- wall time only"),
            Some(Ok(Directive::Allow {
                rule: "det-clock".into(),
                reason: "wall time only".into()
            }))
        );
        assert!(parse_directive("// plain comment").is_none());
        assert!(matches!(parse_directive("// audit: allow(x)"), Some(Err(_))));
        assert!(matches!(parse_directive("// audit: frobnicate"), Some(Err(_))));
    }

    #[test]
    fn hot_path_binds_through_attributes() {
        let toks = lex("// audit: hot-path\n#[inline]\npub fn fast(&self) -> u32 { 1 }\nfn slow() {}");
        let st = analyze(&toks);
        assert_eq!(st.fns.len(), 2);
        assert!(st.fns[0].hot && st.fns[0].name == "fast");
        assert!(!st.fns[1].hot);
    }

    #[test]
    fn allow_scopes() {
        let src = "\
fn a() {
    x(); // audit: allow(hot-panic) -- trailing
}
// audit: allow(hot-alloc) -- whole fn
fn b() {
    y();
}
";
        let st = analyze(&lex(src));
        assert_eq!(st.allows.len(), 2);
        assert_eq!(st.allows[0].scope, AllowScope::Line(2));
        assert!(matches!(st.allows[1].scope, AllowScope::Fn(..)));
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}";
        let st = analyze(&lex(src));
        assert!(!st.fns[0].in_test);
        assert!(st.fns[1].in_test, "helper is inside #[cfg(test)]");
    }

    #[test]
    fn owners_recovered_for_impl_trait_and_free_fns() {
        let src = "\
fn free() {}
impl Ring { fn push(&mut self) {} }
impl fmt::Display for Ring { fn fmt(&self) {} }
trait Tick { fn tick(&self); fn twice(&self) { self.tick(); self.tick(); } }
impl<T: Copy> Wrap<T> { fn get(&self) {} }
fn tail() -> impl Iterator<Item = u32> { 0..1 }
";
        let st = analyze(&lex(src));
        let by_name = |n: &str| st.fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("free").owner, None);
        assert_eq!(by_name("push").owner.as_deref(), Some("Ring"));
        assert_eq!(by_name("push").trait_name, None);
        assert_eq!(by_name("fmt").owner.as_deref(), Some("Ring"));
        assert_eq!(by_name("fmt").trait_name.as_deref(), Some("Display"));
        assert_eq!(by_name("tick").owner.as_deref(), Some("Tick"));
        assert_eq!(by_name("twice").trait_name.as_deref(), Some("Tick"));
        assert_eq!(by_name("get").owner.as_deref(), Some("Wrap"));
        // `-> impl Iterator` is type position, not an impl block.
        assert_eq!(by_name("tail").owner, None);
    }

    #[test]
    fn merge_directive_binds_next_fn() {
        let src = "// audit: merge\npub fn merge(&mut self, o: &S) {}\nfn other() {}";
        let st = analyze(&lex(src));
        assert!(st.fns[0].merge && !st.fns[1].merge);
        // Trailing placement is malformed, like hot-path.
        let st = analyze(&lex("fn f() {} // audit: merge"));
        assert_eq!(st.errors.len(), 1);
    }

    #[test]
    fn unit_directive_binds_fields_and_fns() {
        let src = "\
struct S {
    // audit: unit(cycles)
    pub busy: u64,
    pub bytes_moved: u64, // audit: unit(bytes)
}
// audit: unit(accesses)
fn total(&self) -> u64 { 0 }
";
        let st = analyze(&lex(src));
        assert_eq!(st.unit_fields.len(), 2);
        assert_eq!((st.unit_fields[0].name.as_str(), st.unit_fields[0].unit.as_str()), ("busy", "cycles"));
        assert_eq!((st.unit_fields[1].name.as_str(), st.unit_fields[1].unit.as_str()), ("bytes_moved", "bytes"));
        assert_eq!(st.fns[0].unit.as_deref(), Some("accesses"));
        assert!(st.errors.is_empty(), "{:?}", st.errors);
        // Unknown units and unbound placements are syntax errors.
        assert!(matches!(parse_directive("// audit: unit(furlongs)"), Some(Err(_))));
        let st = analyze(&lex("// audit: unit(bytes)\nlet x = 1;"));
        assert_eq!(st.errors.len(), 1);
    }

    #[test]
    fn hash_bindings_found() {
        let src = "struct S { resident: HashMap<u64, u32, H> }\nfn f() { let mut seen = HashSet::new(); }";
        let st = analyze(&lex(src));
        assert!(st.hash_bindings.contains(&"resident".to_string()));
        assert!(st.hash_bindings.contains(&"seen".to_string()));
    }
}
