//! Error-flow audit.
//!
//! Two halves:
//!
//! 1. **Variant liveness**: every variant of each audited vocabulary enum
//!    (`SimError`, the workspace's failure vocabulary, and `RecoveryKind`,
//!    the recovery-ledger vocabulary) must be *constructed* by non-test
//!    library code and *handled* (matched or rendered) somewhere. A variant
//!    nobody constructs is a hole in the failure model — the paper's "-"
//!    table cells claim specific failure modes, and a vocabulary entry that
//!    can never occur misrepresents what the simulation can express.
//! 2. **No silent discards**: library code must not throw a `Result` away
//!    with `let _ = …` or a trailing `.ok();`. The one systematic carve-out
//!    is `let _ = write!/writeln!(…)` — `fmt::Write` into an in-memory
//!    `String` is infallible, and the workspace renders every report that
//!    way. Anything else needs a reasoned suppression.

use crate::items::FileModel;
use crate::lexer::TokKind;
use crate::{cfg, Rule, Violation, PANIC_FREE_CRATES};

/// The audited vocabulary enums: (declaring file relative to the scanned
/// root, enum name). Every variant of each must be constructed by non-test
/// library code and handled (matched or rendered) somewhere.
const AUDITED_ENUMS: &[(&str, &str)] = &[
    ("crates/cluster/src/error.rs", "SimError"),
    ("crates/cluster/src/metrics.rs", "RecoveryKind"),
];

#[derive(Debug)]
struct Variant {
    name: String,
    line: usize,
    constructed: bool,
    constructed_in_test: bool,
    handled: bool,
}

pub fn run(models: &[FileModel]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (file, name) in AUDITED_ENUMS {
        out.extend(variant_liveness(models, file, name));
    }
    out.extend(discards(models));
    out
}

/// Parses the variant list out of `enum <name> { … }`.
fn parse_variants(m: &FileModel, enum_name: &str) -> Vec<Variant> {
    let toks = &m.toks;
    let mut variants = Vec::new();
    let Some(enum_at) = (0..toks.len()).find(|&i| {
        toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(enum_name))
    }) else {
        return variants;
    };
    // Find the enum body's `{`.
    let mut k = enum_at + 2;
    while k < toks.len() && !toks[k].is_op("{") {
        k += 1;
    }
    k += 1;
    // At depth 1: `Name`, optional payload `{…}`/`(…)`, then `,` or `}`.
    while k < toks.len() && !toks[k].is_op("}") {
        if toks[k].kind == TokKind::Ident {
            let name = toks[k].text.clone();
            let line = toks[k].line;
            k += 1;
            if toks.get(k).is_some_and(|t| t.is_op("{") || t.is_op("(")) {
                k = skip_balanced(m, k);
            }
            variants.push(Variant {
                name,
                line,
                constructed: false,
                constructed_in_test: false,
                handled: false,
            });
        }
        if toks.get(k).is_some_and(|t| t.is_op(",")) {
            k += 1;
        } else if toks.get(k).is_some_and(|t| t.is_op("#")) {
            // Variant attribute — skip to its `]`.
            while k < toks.len() && !toks[k].is_op("]") {
                k += 1;
            }
            k += 1;
        } else if toks.get(k).is_some_and(|t| !t.is_op("}") && t.kind != TokKind::Ident) {
            k += 1;
        }
    }
    variants
}

/// Skips a balanced `{…}`/`(…)` starting at `open`; returns the index past
/// the close.
fn skip_balanced(m: &FileModel, open: usize) -> usize {
    let (o, c) = if m.toks[open].is_op("{") { ("{", "}") } else { ("(", ")") };
    cfg::matching(&m.toks, open, o, c).map_or(m.toks.len(), |close| close + 1)
}

fn variant_liveness(models: &[FileModel], enum_file: &str, enum_name: &str) -> Vec<Violation> {
    let Some(enum_model) = models.iter().find(|m| m.rel_path == enum_file) else {
        return Vec::new(); // no such vocabulary in this tree
    };
    let mut variants = parse_variants(enum_model, enum_name);
    if variants.is_empty() {
        return Vec::new();
    }

    for m in models {
        // Pre-compute `matches!(…)` ranges: a variant mentioned inside one
        // is being handled, even though it is followed by `)`.
        let toks = &m.toks;
        let matches_ranges: Vec<(usize, usize)> = (0..toks.len())
            .filter(|&i| {
                toks[i].is_ident("matches")
                    && toks.get(i + 1).is_some_and(|t| t.is_op("!"))
                    && toks.get(i + 2).is_some_and(|t| t.is_op("("))
            })
            .map(|i| (i, skip_balanced(m, i + 2)))
            .collect();

        for i in 0..toks.len() {
            if !toks[i].is_ident(enum_name) || !toks.get(i + 1).is_some_and(|t| t.is_op("::")) {
                continue;
            }
            let Some(name_tok) = toks.get(i + 2) else { continue };
            let Some(variant) = variants.iter_mut().find(|v| v.name == name_tok.text) else {
                continue;
            };
            // Classify: skip the payload, then look at what follows.
            let mut after = i + 3;
            if toks.get(after).is_some_and(|t| t.is_op("{") || t.is_op("(")) {
                after = skip_balanced(m, after);
            }
            let in_matches = matches_ranges.iter().any(|&(s, e)| s <= i && i < e);
            let arm = toks.get(after).is_some_and(|t| t.is_op("=>") || t.is_op("|"))
                || toks.get(after).is_some_and(|t| t.is_ident("if")) && nearby_arrow(m, after)
                || in_matches
                || preceded_by_let(m, i);
            if arm {
                variant.handled = true;
            } else if m.in_test_at(i) {
                variant.constructed_in_test = true;
            } else {
                variant.constructed = true;
            }
        }
    }

    let mut out = Vec::new();
    for v in variants {
        if !v.handled {
            out.push(Violation::new(
                Rule::ErrorFlow,
                enum_file,
                v.line,
                format!(
                    "`{enum_name}::{}` is never matched or rendered — every failure mode \
                     must be handled somewhere (a match arm, kind(), or Display)",
                    v.name
                ),
            ));
        }
        if !v.constructed {
            let extra = if v.constructed_in_test { " (only test code constructs it)" } else { "" };
            out.push(Violation::new(
                Rule::ErrorFlow,
                enum_file,
                v.line,
                format!(
                    "dead variant: no library code constructs \
                     `{enum_name}::{}`{extra} — a failure mode that cannot occur \
                     misstates the failure model; construct it or delete it",
                    v.name
                ),
            ));
        }
    }
    out
}

/// True when a `matches!`-style `if` guard follows — `SimError::X { .. } if
/// cond => …` is still a match arm.
fn nearby_arrow(m: &FileModel, from: usize) -> bool {
    m.toks.iter().skip(from).take(24).any(|t| t.is_op("=>"))
}

/// True when the occurrence sits in an `if let` / `while let` / `let … else`
/// *pattern* a few tokens back — handling, not construction. A `let` with an
/// `=` between it and the occurrence puts us on the right-hand side
/// (`let x = SimError::V(…)`), which is construction.
fn preceded_by_let(m: &FileModel, i: usize) -> bool {
    let lo = i.saturating_sub(8);
    let Some(let_at) = (lo..i).rev().find(|&k| m.toks[k].is_ident("let")) else {
        return false;
    };
    !m.toks[let_at..i].iter().any(|t| t.is_op("="))
}

fn discards(models: &[FileModel]) -> Vec<Violation> {
    let mut out = Vec::new();
    for m in models {
        if m.harness || !PANIC_FREE_CRATES.contains(&m.krate.as_str()) {
            continue;
        }
        let toks = &m.toks;
        for i in 0..toks.len() {
            if m.in_test_at(i) {
                continue;
            }
            // `let _ = <rhs>;` — unless rhs is a write!/writeln! into an
            // in-memory formatter (infallible by construction here).
            if toks[i].is_ident("let")
                && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
                && toks.get(i + 2).is_some_and(|t| t.is_op("="))
            {
                let rhs_is_fmt_write =
                    toks.get(i + 3).is_some_and(|t| t.is_ident("write") || t.is_ident("writeln"))
                        && toks.get(i + 4).is_some_and(|t| t.is_op("!"));
                if !rhs_is_fmt_write {
                    out.push(Violation::new(
                        Rule::ErrorFlow,
                        &m.rel_path,
                        toks[i].line,
                        "`let _ = …` discards a value in library code — handle the Err arm, \
                         propagate with `?`, or suppress with the reason the result is \
                         genuinely irrelevant"
                            .to_string(),
                    ));
                }
            }
            // Trailing `.ok();` — Result thrown away.
            if toks[i].is_op(".")
                && toks.get(i + 1).is_some_and(|t| t.is_ident("ok"))
                && toks.get(i + 2).is_some_and(|t| t.is_op("("))
                && toks.get(i + 3).is_some_and(|t| t.is_op(")"))
                && toks.get(i + 4).is_some_and(|t| t.is_op(";"))
            {
                out.push(Violation::new(
                    Rule::ErrorFlow,
                    &m.rel_path,
                    toks[i].line,
                    "trailing `.ok();` silently discards a Result in library code — handle \
                     the Err arm or suppress with the reason best-effort is correct here"
                        .to_string(),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Vec<Violation> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        run(&models)
    }

    const ENUM_SRC: &str = "pub enum SimError {\n    Alive(String),\n    Dead { code: u64 },\n}\nimpl SimError {\n    pub fn kind(&self) -> &'static str {\n        match self {\n            SimError::Alive(_) => \"alive\",\n            SimError::Dead { .. } => \"dead\",\n        }\n    }\n}\n";

    #[test]
    fn dead_variant_is_flagged_at_its_declaration() {
        let vs = analyze(&[
            ("crates/cluster/src/error.rs", ENUM_SRC),
            (
                "crates/cluster/src/lib.rs",
                "pub fn f() -> Result<(), SimError> { Err(SimError::Alive(\"x\".into())) }\n",
            ),
        ]);
        let dead: Vec<_> = vs.iter().filter(|v| v.message.contains("dead variant")).collect();
        assert_eq!(dead.len(), 1, "{vs:?}");
        assert!(dead[0].message.contains("Dead"));
        assert_eq!(dead[0].path, "crates/cluster/src/error.rs");
        assert!(!dead[0].message.contains("only test code"), "{vs:?}");
    }

    #[test]
    fn test_only_construction_is_still_dead_and_says_so() {
        let vs = analyze(&[
            ("crates/cluster/src/error.rs", ENUM_SRC),
            (
                "crates/cluster/src/lib.rs",
                "pub fn f() -> Result<(), SimError> { Err(SimError::Alive(\"x\".into())) }\n#[cfg(test)]\nmod tests {\n    fn t() { let _d = SimError::Dead { code: 1 }; }\n}\n",
            ),
        ]);
        let dead: Vec<_> = vs.iter().filter(|v| v.message.contains("dead variant")).collect();
        assert_eq!(dead.len(), 1, "{vs:?}");
        assert!(dead[0].message.contains("only test code constructs it"), "{vs:?}");
    }

    #[test]
    fn matches_and_if_let_count_as_handling_not_construction() {
        let vs = analyze(&[
            ("crates/cluster/src/error.rs", ENUM_SRC),
            (
                "crates/cluster/src/lib.rs",
                "pub fn f(e: &SimError) -> bool {\n    if let SimError::Dead { .. } = e { return true; }\n    matches!(e, SimError::Alive(_))\n}\npub fn g() -> SimError { SimError::Alive(\"x\".into()) }\npub fn h() -> SimError { SimError::Dead { code: 2 } }\n",
            ),
        ]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn unhandled_variant_is_flagged() {
        let vs = analyze(&[
            ("crates/cluster/src/error.rs", "pub enum SimError {\n    Orphan(u64),\n}\n"),
            ("crates/cluster/src/lib.rs", "pub fn f() -> SimError { SimError::Orphan(1) }\n"),
        ]);
        assert!(vs.iter().any(|v| v.message.contains("never matched or rendered")), "{vs:?}");
    }

    #[test]
    fn recovery_kind_vocabulary_is_audited_too() {
        let metrics_src = "pub enum RecoveryKind {\n    Retry { attempt: u32 },\n    Ghost { node: u32 },\n}\npub fn retry(attempt: u32) -> RecoveryKind {\n    RecoveryKind::Retry { attempt }\n}\npub fn label(k: &RecoveryKind) -> &'static str {\n    match k {\n        RecoveryKind::Retry { .. } => \"retry\",\n        RecoveryKind::Ghost { .. } => \"ghost\",\n    }\n}\n";
        let vs = analyze(&[("crates/cluster/src/metrics.rs", metrics_src)]);
        let dead: Vec<_> = vs.iter().filter(|v| v.message.contains("dead variant")).collect();
        assert_eq!(dead.len(), 1, "{vs:?}");
        assert!(dead[0].message.contains("RecoveryKind::Ghost"), "{vs:?}");
        assert_eq!(dead[0].path, "crates/cluster/src/metrics.rs");
    }

    #[test]
    fn discards_fire_with_fmt_write_exempt() {
        let src = "use std::fmt::Write as _;\npub fn render(xs: &[u64]) -> String {\n    let mut out = String::new();\n    let _ = writeln!(out, \"\");\n    let _ = fallible();\n    cleanup().ok();\n    out\n}\n";
        let vs = analyze(&[("crates/core/src/report2.rs", src)]);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs.iter().any(|v| v.line == 5 && v.message.contains("let _")), "{vs:?}");
        assert!(vs.iter().any(|v| v.line == 6 && v.message.contains(".ok()")), "{vs:?}");
    }

    #[test]
    fn discards_in_tests_and_non_library_crates_are_fine() {
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = fallible(); cleanup().ok(); }\n}\n";
        assert!(analyze(&[("crates/data/src/x.rs", test_src)]).is_empty());
        let bench_src = "pub fn b() { let _ = fallible(); }\n";
        assert!(analyze(&[("crates/bench/src/x.rs", bench_src)]).is_empty());
    }

    #[test]
    fn ok_in_expression_position_is_not_a_discard() {
        let src = "pub fn f(x: R) -> Option<u64> { x.parse().ok().map(|v| v + 1) }\n";
        assert!(analyze(&[("crates/data/src/x.rs", src)]).is_empty());
    }
}
