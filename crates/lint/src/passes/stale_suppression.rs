//! Stale-suppression pass: every audited allow comment still earns its keep.
//!
//! An audited `allow(rule) — reason` comment is a standing waiver; once
//! the code it audited is rewritten, the waiver silently covers *future*
//! regressions on that line instead. This pass compares every well-formed
//! allow against the **pre-suppression** findings (line rules via
//! `check_file_raw` plus every `sjc-analyze` pass) and reports each allow
//! that covers none of them.
//!
//! Coverage mirrors `crate::is_suppressed` exactly: an inline allow covers
//! its own line; a comment-only allow also covers every line whose statement
//! starts directly below it. Two deliberate carve-outs keep the rule honest:
//!
//! * `allow(no-panic-in-lib)` / `allow(panic-path)` comments that the
//!   summary layer *consumed* as audited panic sites are live — the panic
//!   site is real, the audit is doing interprocedural work even though no
//!   finding survives to the report;
//! * `allow(stale-suppression)` is exempt from its own check (it is the
//!   escape hatch for allows kept intentionally, e.g. documentation).
//!
//! Malformed allows are `bad-suppression` findings and are skipped here.

use std::collections::BTreeSet;

use crate::items::FileModel;
use crate::{Allow, Rule, Violation};

/// `allows`/`starts` are per-file (same order as `models`); `raw` is the
/// union of pre-suppression findings from both layers; `consumed` holds the
/// `(file index, 1-based line)` panic sites the summary layer trusted.
pub(crate) fn run(
    models: &[FileModel],
    allows: &[Vec<Option<Allow>>],
    starts: &[Vec<usize>],
    raw: &[Violation],
    consumed: &BTreeSet<(usize, usize)>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (fi, m) in models.iter().enumerate() {
        for (i, slot) in allows[fi].iter().enumerate() {
            let Some(a) = slot else { continue };
            let Some(rule) = a.rule else { continue };
            if !a.has_reason || rule == Rule::StaleSuppression {
                continue;
            }
            // Mirrors is_suppressed: the allow at 0-based line `i` covers a
            // 1-based `line` inline (li == i) or, when comment-only, any
            // line whose statement starts on the line below the comment.
            let covers = |line: usize| {
                line > 0 && {
                    let li = line - 1;
                    li == i
                        || (a.comment_only && starts[fi].get(li).copied().unwrap_or(li) == i + 1)
                }
            };
            let live = raw.iter().any(|v| v.rule == rule && v.path == m.rel_path && covers(v.line))
                || (matches!(rule, Rule::NoPanicInLib | Rule::PanicPath)
                    && consumed.iter().any(|&(cfi, line)| cfi == fi && covers(line)));
            if !live {
                out.push(Violation::new(
                    Rule::StaleSuppression,
                    &m.rel_path,
                    i + 1,
                    format!(
                        "allow({}) suppresses nothing — the finding it audited is gone; \
                         delete the comment (or keep it with an \
                         allow(stale-suppression) if it documents a real hazard)",
                        a.rule_text
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(files: &[(&str, &str)], consumed: &BTreeSet<(usize, usize)>) -> Vec<Violation> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let allows: Vec<_> = files.iter().map(|(_, s)| crate::allows_for(s)).collect();
        let starts: Vec<_> = files.iter().map(|(_, s)| crate::stmt_starts(s)).collect();
        let mut raw = Vec::new();
        for (p, s) in files {
            raw.extend(crate::check_file_raw(p, s));
        }
        run(&models, &allows, &starts, &raw, consumed)
    }

    #[test]
    fn allow_covering_a_live_finding_is_kept() {
        // The unwrap fires no-panic-in-lib pre-suppression, so the allow is
        // doing real work.
        let vs = check(
            &[(
                "crates/geom/src/mbr.rs",
                "fn f(x: Option<u64>) -> u64 { x.unwrap() } // sjc-lint: allow(no-panic-in-lib) — caller checked is_some\n",
            )],
            &BTreeSet::new(),
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn allow_covering_nothing_is_stale() {
        let vs = check(
            &[(
                "crates/geom/src/mbr.rs",
                "fn f(x: u64) -> u64 { x + 1 } // sjc-lint: allow(no-panic-in-lib) — caller checked is_some\n",
            )],
            &BTreeSet::new(),
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, Rule::StaleSuppression);
        assert_eq!(vs[0].line, 1);
        assert!(vs[0].message.contains("no-panic-in-lib"), "{vs:?}");
    }

    #[test]
    fn comment_only_allow_covers_the_statement_below() {
        let src = "// sjc-lint: allow(no-panic-in-lib) — index bounded by the loop above\nfn f(xs: &[u64]) -> u64 {\n    xs[0]\n}\n";
        // Line 3's statement starts on line 3, not below the comment — but
        // the fn header on line 2 does. Use a one-line body instead:
        let src2 = "fn f(xs: &[u64]) -> u64 {\n    // sjc-lint: allow(no-panic-in-lib) — index bounded by caller\n    xs[0]\n}\n";
        let vs = check(&[("crates/geom/src/mbr.rs", src2)], &BTreeSet::new());
        assert!(vs.is_empty(), "{vs:?}");
        // The first shape: the allow sits above the fn header, the finding
        // is two lines further down — stale.
        let vs = check(&[("crates/geom/src/mbr.rs", src)], &BTreeSet::new());
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn consumed_panic_audits_count_as_live() {
        let src = "pub fn f(x: Option<u64>) -> u64 { x.unwrap() } // sjc-lint: allow(panic-path) — caller checked is_some\n";
        // allow(panic-path) matches no raw finding (the raw finding is
        // no-panic-in-lib), but the summary layer consumed it as an audited
        // panic site, so it is live.
        let consumed: BTreeSet<(usize, usize)> = [(0, 1)].into_iter().collect();
        let vs = check(&[("crates/geom/src/mbr.rs", src)], &consumed);
        assert!(vs.is_empty(), "{vs:?}");
        // Without the consumption it would be stale.
        let vs = check(&[("crates/geom/src/mbr.rs", src)], &BTreeSet::new());
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn malformed_allows_are_left_to_bad_suppression() {
        let vs = check(
            &[(
                "crates/geom/src/mbr.rs",
                "fn f(x: u64) -> u64 { x } // sjc-lint: allow(no-panic-in-lib)\nfn g(x: u64) -> u64 { x } // sjc-lint: allow(nonsense-rule) — reason here\n",
            )],
            &BTreeSet::new(),
        );
        assert!(vs.is_empty(), "{vs:?}");
    }
}
