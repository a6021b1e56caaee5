//! Forward binding-level dataflow over one function body.
//!
//! The `entropy-taint` pass tracks one boolean fact ("derived from the
//! clock") through `let` chains; the `unit-flow` pass needs the same walk
//! with a richer fact (which physical unit a binding carries). This module
//! is the shared machinery: statement grouping by line, `let`-binding
//! extraction, and a generic fact environment. Passes drive the walk
//! themselves — facts change only at bindings, so a pass can interleave its
//! own sink checks between binding updates and stay flow-sensitive.
//!
//! Like everything in this crate it is an approximation with a fixed
//! direction of error: a binding the extractor does not model binds *no*
//! fact, so unmodeled code can hide a finding but never invent one.

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};

/// Groups token indices of `toks[start..=end]` by 1-based source line,
/// preserving token order within a line. Indices are absolute into `toks`.
pub fn group_lines(toks: &[Tok], start: usize, end: usize) -> BTreeMap<usize, Vec<usize>> {
    let mut lines: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let stop = end.min(toks.len().saturating_sub(1));
    for (i, t) in toks.iter().enumerate().take(stop + 1).skip(start) {
        lines.entry(t.line).or_default().push(i);
    }
    lines
}

/// One `let` statement: the names it binds and the token range of its
/// initializer expression.
#[derive(Debug)]
pub struct LetBinding {
    /// Identifiers bound by the pattern (`let (a, mut b) = …` binds both).
    /// Type-annotation idents are excluded; pattern idents are kept even
    /// when they are really enum paths (`let Some(x) = …` "binds" `Some`) —
    /// over-binding only widens fact propagation, the safe direction.
    pub names: Vec<String>,
    /// Inclusive token range of the initializer, from after `=` to before
    /// the terminating `;` (crossing lines when the statement does).
    pub rhs: (usize, usize),
}

/// Extracts every `let` binding with an initializer in `toks[start..=end]`,
/// in source order. `let … ;` without `=` (declarations) and `if let`/`while
/// let` scrutinees (whose `=` never appears at pattern depth) are skipped.
pub fn let_bindings(toks: &[Tok], start: usize, end: usize) -> Vec<LetBinding> {
    let end = end.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    let mut i = start;
    while i <= end {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        // `if let` / `while let` are pattern matches, not bindings whose
        // initializer we can treat as a value expression.
        if i > start && i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while")) {
            i += 1;
            continue;
        }
        // Pattern + optional type annotation, up to `=` at nesting depth 0.
        let mut names = Vec::new();
        let mut depth = 0i64;
        let mut in_ty = false;
        let mut j = i + 1;
        let mut eq = None;
        while j <= end {
            let t = &toks[j];
            if t.is_op("(") || t.is_op("[") || t.is_op("<") {
                depth += 1;
            } else if t.is_op(")") || t.is_op("]") || t.is_op(">") {
                depth -= 1;
            } else if depth <= 0 && t.is_op("=") {
                eq = Some(j);
                break;
            } else if depth <= 0 && (t.is_op(";") || t.is_op("{")) {
                break; // bodiless `let x;` or something we do not model
            } else if t.is_op(":") && depth <= 0 {
                in_ty = true;
            } else if t.is_op(",") && depth <= 0 {
                in_ty = false;
            } else if t.kind == TokKind::Ident && !in_ty && t.text != "mut" {
                names.push(t.text.clone());
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i = j + 1;
            continue;
        };
        // Initializer: to the `;` at nesting depth 0. A `{` at depth 0
        // (struct literal, `match`/block initializer, let-else tail) ends
        // the modeled range early — truncating the rhs loses facts, which
        // is the safe direction.
        let mut depth = 0i64;
        let mut k = eq + 1;
        while k <= end {
            let t = &toks[k];
            if depth <= 0 && (t.is_op(";") || t.is_op("{")) {
                break;
            }
            if t.is_op("(") || t.is_op("[") {
                depth += 1;
            } else if t.is_op(")") || t.is_op("]") {
                depth -= 1;
            }
            k += 1;
        }
        let rhs_end = k.saturating_sub(1).max(eq + 1).min(end);
        if eq < rhs_end {
            out.push(LetBinding { names, rhs: (eq + 1, rhs_end) });
        }
        i = k + 1;
    }
    out
}

/// A fact environment: the forward state of one walk, mapping binding names
/// to pass-specific facts. `BTreeMap` so iteration (and therefore reporting)
/// is deterministic.
#[derive(Debug, Default)]
pub struct Flow<F> {
    facts: BTreeMap<String, F>,
}

impl<F> Flow<F> {
    pub fn new() -> Flow<F> {
        Flow { facts: BTreeMap::new() }
    }

    pub fn get(&self, name: &str) -> Option<&F> {
        self.facts.get(name)
    }

    /// Binds `name` to `fact`, or clears it on `None` — rebinding a name
    /// without a derivable fact must kill the stale one, otherwise a later
    /// sink would report through a binding that no longer holds.
    pub fn bind(&mut self, name: &str, fact: Option<F>) {
        match fact {
            Some(f) => {
                self.facts.insert(name.to_string(), f);
            }
            None => {
                self.facts.remove(name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::FileModel;

    fn bindings_of(src: &str) -> (FileModel, Vec<LetBinding>) {
        let m = FileModel::build("crates/cluster/src/x.rs", src);
        let (s, e) = m.fns[0].body.expect("fixture fn has a body");
        let b = let_bindings(&m.toks, s, e);
        (m, b)
    }

    #[test]
    fn simple_and_tuple_patterns_bind() {
        let (m, b) = bindings_of(
            "fn f() {\n    let a = one();\n    let (b, mut c) = pair();\n    let d: u64 = a + b;\n}\n",
        );
        let names: Vec<Vec<String>> = b.iter().map(|l| l.names.clone()).collect();
        assert_eq!(names, [vec!["a"], vec!["b", "c"], vec!["d"]]);
        // The annotated binding's rhs starts after `=`, not after the type.
        let (rs, _) = b[2].rhs;
        assert!(m.toks[rs].is_ident("a"), "{:?}", m.toks[rs]);
    }

    #[test]
    fn type_annotations_do_not_bind() {
        let (_, b) = bindings_of("fn f() {\n    let x: Vec<u64> = make();\n}\n");
        assert_eq!(b[0].names, ["x"]);
    }

    #[test]
    fn multiline_initializers_span_lines() {
        let (m, b) = bindings_of("fn f() {\n    let x = long(\n        call(),\n    );\n}\n");
        assert_eq!(b.len(), 1);
        let (_, re) = b[0].rhs;
        assert!(m.toks[re].is_op(")"), "{:?}", m.toks[re]);
    }

    #[test]
    fn bodiless_let_is_skipped() {
        let (_, b) = bindings_of("fn f() {\n    let x;\n    x = 1;\n}\n");
        assert!(b.is_empty());
    }

    #[test]
    fn flow_binds_and_clears() {
        let mut flow: Flow<u8> = Flow::new();
        flow.bind("a", Some(1));
        assert_eq!(flow.get("a"), Some(&1));
        flow.bind("a", None);
        assert!(flow.get("a").is_none());
    }
}
