//! Loop and closure extents over the token stream.
//!
//! The hot-path passes care about *where* code runs, not just that it
//! runs: "allocation inside a loop" and "call hoistable out of a loop" both
//! need the **loop** bodies (`for`/`while`/`loop`) of a function, and the
//! hot set needs the **closure** bodies handed to `sjc_par`. Like the item
//! model this is deliberately not a parser: every extent is a token range
//! found by a forward scan with paren/bracket/brace counters, and anything
//! the scan does not model degrades to "no region", never to a wrong
//! extent — a checker built on it can miss a loop, but it cannot invent one.

use crate::lexer::Tok;

/// One loop: the header keyword and the token range of its braced body.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Token index of the `for`/`while`/`loop` keyword.
    pub header: usize,
    /// The body's `{`.
    pub open: usize,
    /// The matching `}`.
    pub close: usize,
    /// 1-based source line of the header token.
    pub line: usize,
}

/// The loops of the body `toks[start..=end]` (the braces of a
/// `FnItem::body` extent, or a closure body), in source order.
pub fn loops(toks: &[Tok], start: usize, end: usize) -> Vec<Loop> {
    let end = end.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    for i in start..=end {
        let t = &toks[i];
        if !(t.is_ident("for") || t.is_ident("while") || t.is_ident("loop")) {
            continue;
        }
        let Some((open, close)) = braced_body(toks, i + 1, end) else { continue };
        // Guard against non-loop `for` (trait bounds like `for<'a>`): a loop
        // header carries an `in` before its body brace.
        if t.is_ident("for") && !(i + 1..open).any(|k| toks[k].is_ident("in")) {
            continue;
        }
        out.push(Loop { header: i, open, close, line: t.line });
    }
    out
}

/// The innermost of `loops` whose body strictly contains token `k`.
pub(crate) fn innermost(loops: &[Loop], k: usize) -> Option<&Loop> {
    loops.iter().filter(|l| l.open < k && k < l.close).max_by_key(|l| l.open)
}

/// From `from`, finds the body `{ … }` of a header: the first `{` at
/// paren/bracket depth 0, plus its matching `}`. Struct literals inside a
/// parenthesized condition never match — their `{` sits at paren depth ≥ 1.
fn braced_body(toks: &[Tok], from: usize, end: usize) -> Option<(usize, usize)> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    for (j, t) in toks.iter().enumerate().take(end + 1).skip(from) {
        if t.is_op("(") {
            paren += 1;
        } else if t.is_op(")") {
            paren -= 1;
        } else if t.is_op("[") {
            bracket += 1;
        } else if t.is_op("]") {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_op(";") {
                return None; // statement ended before any body opened
            }
            if t.is_op("{") {
                return Some((j, matching(toks, j, "{", "}")?));
            }
        }
    }
    None
}

/// Finds the matching close token for the opener at `open`.
pub(crate) fn matching(toks: &[Tok], open: usize, op: &str, cl: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_op(op) {
            depth += 1;
        } else if t.is_op(cl) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// From the `|`/`||` at `j`, returns `(body_start, body_end)`. A braced
/// body runs to its matching `}`; an expression body runs to the next
/// `,`/`;`/`)`/`}` at nesting depth 0 within `[j, end]`.
pub(crate) fn closure_body(toks: &[Tok], j: usize, end: usize) -> (usize, usize) {
    let mut k = j + 1;
    if toks[j].is_op("|") {
        while k <= end && !toks[k].is_op("|") {
            k += 1;
        }
        k += 1; // past the closing `|`
    }
    // `|x| -> T { … }` return annotations: skip to the body brace.
    if toks.get(k).is_some_and(|t| t.is_op("->")) {
        while k <= end && !toks[k].is_op("{") && !toks[k].is_op(",") {
            k += 1;
        }
    }
    if toks.get(k).is_some_and(|t| t.is_op("{")) {
        let close = matching(toks, k, "{", "}").unwrap_or(end);
        return (k, close.min(end));
    }
    // Expression body: scan to a `,`/`;` at depth 0 or an unmatched closer.
    let start = k;
    let mut depth = 0i64;
    while k <= end {
        let t = &toks[k];
        if t.is_op("(") || t.is_op("[") || t.is_op("{") {
            depth += 1;
        } else if t.is_op(")") || t.is_op("]") || t.is_op("}") {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_op(",") || t.is_op(";")) {
            break;
        }
        k += 1;
    }
    (start, k.saturating_sub(1).max(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::FileModel;

    fn loops_of(src: &str) -> (FileModel, Vec<Loop>) {
        let m = FileModel::build("crates/cluster/src/x.rs", src);
        let (s, e) = m.fns[0].body.expect("fixture fn has a body");
        let loops = loops(&m.toks, s, e);
        (m, loops)
    }

    #[test]
    fn nested_and_sibling_loops_are_found() {
        let src = "fn f(n: usize) {\n    for i in 0..n {\n        while i > 0 {\n            step();\n        }\n    }\n    loop {\n        break;\n    }\n}\n";
        let (m, loops) = loops_of(src);
        let lines: Vec<usize> = loops.iter().map(|l| l.line).collect();
        assert_eq!(lines, [2, 3, 7], "{loops:?}");
        // The inner loop nests inside the outer one.
        assert!(loops[0].open < loops[1].open && loops[1].close < loops[0].close);
        let step = m.toks.iter().position(|t| t.is_ident("step")).unwrap();
        assert_eq!(innermost(&loops, step).map(|l| l.line), Some(3));
        let brk = m.toks.iter().position(|t| t.is_ident("break")).unwrap();
        assert_eq!(innermost(&loops, brk).map(|l| l.line), Some(7));
    }

    #[test]
    fn trait_bound_for_is_not_a_loop() {
        let src = "fn f(n: usize) {\n    let g: Box<dyn for<'a> Fn(&'a u64) -> u64> = make();\n    if n > 0 {\n        g(&0);\n    }\n}\n";
        let (_, loops) = loops_of(src);
        assert!(loops.is_empty(), "{loops:?}");
    }

    #[test]
    fn struct_literal_in_parenthesized_condition_is_not_a_body() {
        let src = "fn f(p: P) {\n    while check(P { a: 1 }, &p) {\n        step();\n    }\n}\n";
        let (m, loops) = loops_of(src);
        let step = m.toks.iter().position(|t| t.is_ident("step")).unwrap();
        assert!(loops[0].open <= step && step <= loops[0].close, "{loops:?}");
    }

    #[test]
    fn expression_and_braced_closures_have_extents() {
        let src = "fn f(v: &mut Vec<u64>) {\n    v.sort_by_key(|x| x.wrapping_mul(3));\n    v.retain(|x| { *x > 0 });\n}\n";
        let m = FileModel::build("crates/cluster/src/x.rs", src);
        let (_, end) = m.fns[0].body.unwrap();
        let bars: Vec<usize> = (0..m.toks.len()).filter(|&i| m.toks[i].is_op("|")).collect();
        // Expression body: `x.wrapping_mul(3)`, stopping before the `)`.
        let (s, e) = closure_body(&m.toks, bars[0], end);
        assert!(m.toks[s].is_ident("x") && m.toks[e].is_op(")") && m.toks[e + 1].is_op(")"));
        // Braced body: `{ … }` inclusive.
        let (s, e) = closure_body(&m.toks, bars[2], end);
        assert!(m.toks[s].is_op("{") && m.toks[e].is_op("}"));
    }
}
