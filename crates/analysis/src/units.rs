//! The cycle-domain unit lint: a lightweight unit system over
//! `// audit: unit(<u>)` annotations.
//!
//! The simulator mixes four integer domains — `cycles` (simulated DRAM
//! time), `bytes` (traffic), `accesses` (event counts) and `ns`
//! (wall-clock telemetry) — all stored as bare `u64`s. Nothing in the
//! type system stops `total_cycles + total_bytes`, and the one historical
//! near-miss (comparing wall-clock ns against sim cycles in a bandwidth
//! figure) motivated annotating the domains explicitly.
//!
//! The model is deliberately name-keyed and lexical: an annotation
//! `// audit: unit(cycles)` on a field or fn puts that *name* in the
//! workspace-wide [`UnitTable`]; [`scan`] then walks every `+`/`-`/
//! comparison/compound-assign site in the unit-checked crates and flags
//! operands whose names resolve to different units. Names annotated with
//! conflicting units in different files are dropped from the table (a
//! name that means two things can't be checked by name). Multiplication
//! and division are never checked — they legitimately change units
//! (bytes/cycle, cycles×width).

use crate::check::Finding;
use crate::items::FileStructure;
use crate::lexer::{TokKind, Token};
use std::collections::BTreeMap;

/// The workspace-wide name → unit table.
#[derive(Debug, Default)]
pub struct UnitTable {
    /// `None` marks a name annotated with conflicting units (ignored).
    map: BTreeMap<String, Option<String>>,
}

impl UnitTable {
    /// Folds every file's `unit(...)` annotations into one table,
    /// dropping names with conflicting annotations.
    pub fn build<'a>(structures: impl Iterator<Item = &'a FileStructure>) -> UnitTable {
        let mut t = UnitTable::default();
        for st in structures {
            for f in &st.unit_fields {
                t.add(&f.name, &f.unit);
            }
            for f in &st.fns {
                if let Some(u) = &f.unit {
                    t.add(&f.name, u);
                }
            }
        }
        t
    }

    fn add(&mut self, name: &str, unit: &str) {
        match self.map.get_mut(name) {
            None => {
                self.map.insert(name.to_string(), Some(unit.to_string()));
            }
            Some(slot) => {
                if slot.as_deref() != Some(unit) {
                    *slot = None; // conflicting annotations: unusable by name
                }
            }
        }
    }

    /// The unit annotated for `name`, if unambiguous.
    pub fn unit_of(&self, name: &str) -> Option<&str> {
        self.map.get(name)?.as_deref()
    }

    /// Number of usable (non-conflicting) annotated names.
    pub fn len(&self) -> usize {
        self.map.values().filter(|v| v.is_some()).count()
    }

    /// True when no usable annotation exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// True for paths the unit lint applies to: the four crates whose
/// arithmetic crosses time/traffic domains.
pub fn in_scope(rel: &str) -> bool {
    ["crates/core/", "crates/dram/", "crates/obs/", "crates/sim/"]
        .iter()
        .any(|p| rel.starts_with(p))
}

/// Binary operators the lint checks: additive arithmetic, comparisons and
/// the additive compound assigns. Returns `(op text, token width)`.
fn op_at(toks: &[Token], i: usize) -> Option<(&'static str, usize)> {
    let t = &toks[i];
    if t.kind != TokKind::Punct {
        return None;
    }
    let c = t.text.chars().next()?;
    let nxt = |k: usize, c: char| toks.get(i + k).is_some_and(|t| t.is_punct(c));
    match c {
        '+' if nxt(1, '=') => Some(("+=", 2)),
        '+' => Some(("+", 1)),
        '-' if nxt(1, '>') => None, // `->`
        '-' if nxt(1, '=') => Some(("-=", 2)),
        '-' => Some(("-", 1)),
        '<' if nxt(1, '<') => None, // shifts change magnitude semantics
        '<' if nxt(1, '=') => Some(("<=", 2)),
        '<' => Some(("<", 1)),
        '>' if nxt(1, '>') => None,
        '>' if nxt(1, '=') => Some((">=", 2)),
        '>' => Some((">", 1)),
        '=' if nxt(1, '=') => Some(("==", 2)),
        '!' if nxt(1, '=') => Some(("!=", 2)),
        _ => None,
    }
}

/// Resolves the operand that *ends* at token `i` (the token just before an
/// operator) to an annotated name: the tail ident of a field/method chain
/// (`self.bw.cycles` → `cycles`), the callee of a call (`total_bytes(…)`
/// → `total_bytes`), or the indexed name for `name[i]`.
fn lhs_name(toks: &[Token], mut i: usize) -> Option<String> {
    loop {
        let t = toks.get(i)?;
        if t.is_comment() {
            i = i.checked_sub(1)?;
            continue;
        }
        return match t.kind {
            TokKind::Ident => Some(t.text.clone()),
            TokKind::Punct if t.is_punct(')') || t.is_punct(']') => {
                let open = if t.is_punct(')') { '(' } else { '[' };
                let close = t.text.chars().next().unwrap();
                let mut depth = 0i64;
                while i > 0 {
                    if toks[i].is_punct(close) {
                        depth += 1;
                    } else if toks[i].is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i -= 1;
                }
                // The name before `(`/`[` is the callee / indexed binding.
                let j = i.checked_sub(1)?;
                if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) {
                    Some(toks[j].text.clone())
                } else {
                    None
                }
            }
            _ => None,
        };
    }
}

/// Resolves the operand that *starts* at token `i` (just after an
/// operator): walks a `a.b.c` / `A::b` chain and returns its last ident —
/// `other.total_nanos` → `total_nanos`, `self.accum.cycles` → `cycles`.
/// Numeric literals and anything else resolve to `None`.
fn rhs_name(toks: &[Token], mut i: usize) -> Option<String> {
    let mut last: Option<String> = None;
    while let Some(t) = toks.get(i) {
        if t.is_comment() {
            i += 1;
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                last = Some(t.text.clone());
                i += 1;
            }
            TokKind::Punct if t.is_punct('.') => {
                // Stop at a range `..`; keep walking a field chain.
                if toks.get(i + 1).is_some_and(|n| n.is_punct('.')) {
                    break;
                }
                i += 1;
            }
            TokKind::Punct if t.is_punct(':') && toks.get(i + 1).is_some_and(|n| n.is_punct(':')) => {
                i += 2;
            }
            TokKind::Punct if t.is_punct('&') || t.is_punct('*') => {
                if last.is_some() {
                    break; // `a * b`: the chain ended before the operator
                }
                i += 1; // leading borrow/deref
            }
            TokKind::Punct if t.is_punct('(') || t.is_punct('[') => {
                // A bare parenthesized expression is unresolvable;
                // `name(…)` or `name[…]` means the chain tail so far
                // names the value.
                last.as_ref()?;
                break;
            }
            _ => break,
        }
    }
    last
}

/// Scans one file's tokens for cross-unit arithmetic, appending
/// `(token index, finding)` pairs for the engine's allow filtering.
pub fn scan(
    rel: &str,
    toks: &[Token],
    st: &FileStructure,
    table: &UnitTable,
    out: &mut Vec<(usize, Finding)>,
) {
    if table.is_empty() {
        return;
    }
    let mut i = 0;
    while i < toks.len() {
        let Some((op, width)) = op_at(toks, i) else {
            i += 1;
            continue;
        };
        if st.in_test(i) {
            i += width;
            continue;
        }
        let lhs = i.checked_sub(1).and_then(|j| lhs_name(toks, j));
        let rhs = rhs_name(toks, i + width);
        if let (Some(l), Some(r)) = (lhs, rhs) {
            if let (Some(lu), Some(ru)) = (table.unit_of(&l), table.unit_of(&r)) {
                if lu != ru {
                    out.push((
                        i,
                        Finding {
                            rule: "unit-mismatch",
                            path: rel.to_string(),
                            line: toks[i].line,
                            msg: format!(
                                "`{l}` ({lu}) {op} `{r}` ({ru}): cross-unit arithmetic \
                                 between annotated domains"
                            ),
                        },
                    ));
                }
            }
        }
        i += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::lexer::lex;

    fn check(src: &str) -> Vec<String> {
        let toks = lex(src);
        let st = items::analyze(&toks);
        let table = UnitTable::build(std::iter::once(&st));
        let mut out = Vec::new();
        scan("crates/sim/src/x.rs", &toks, &st, &table, &mut out);
        out.into_iter().map(|(_, f)| f.msg).collect()
    }

    #[test]
    fn cross_unit_add_and_compare_flagged() {
        let hits = check(
            "struct S {\n\
             total_cycles: u64, // audit: unit(cycles)\n\
             total_bytes: u64, // audit: unit(bytes)\n\
             }\n\
             fn f(s: &S) -> u64 { s.total_cycles + s.total_bytes }\n\
             fn g(s: &S) -> bool { s.total_bytes < s.total_cycles }\n",
        );
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].contains("(cycles) + `total_bytes` (bytes)"));
    }

    #[test]
    fn same_unit_and_unannotated_ok() {
        let hits = check(
            "struct S {\n\
             a_cycles: u64, // audit: unit(cycles)\n\
             b_cycles: u64, // audit: unit(cycles)\n\
             }\n\
             fn f(s: &S) -> u64 { s.a_cycles + s.b_cycles + 17 + s.other }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn fn_annotations_and_call_chains_resolve() {
        let hits = check(
            "struct S { wall_ns: u64 } // audit: unit(ns)\n\
             // audit: unit(cycles)\n\
             fn sim_cycles() -> u64 { 0 }\n\
             fn f(s: &S) -> bool { sim_cycles() > s.wall_ns }\n",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].contains("`sim_cycles` (cycles) > `wall_ns` (ns)"));
    }

    #[test]
    fn mul_div_and_tests_exempt() {
        let hits = check(
            "struct S {\n\
             cyc: u64, // audit: unit(cycles)\n\
             byt: u64, // audit: unit(bytes)\n\
             }\n\
             fn rate(s: &S) -> u64 { s.byt / s.cyc }\n\
             #[cfg(test)]\n\
             mod tests { fn t(s: &super::S) -> u64 { s.byt + s.cyc } }\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn conflicting_annotations_drop_the_name() {
        let hits = check(
            "struct A { v: u64 } // audit: unit(cycles)\n\
             struct B {\n\
             v2: u64, // audit: unit(bytes)\n\
             }\n\
             fn f(a: &A, b: &B) -> u64 { a.v + b.v2 }\n",
        );
        assert_eq!(hits.len(), 1);
        let none = check(
            "struct A { v: u64 } // audit: unit(cycles)\n\
             struct B {\n\
             v: u64, // audit: unit(bytes)\n\
             }\n\
             fn f(a: &A, b: &B) -> u64 { a.v + b.v }\n",
        );
        assert!(none.is_empty(), "{none:?}");
    }
}
