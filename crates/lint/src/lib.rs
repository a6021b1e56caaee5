//! # sjc-lint — workspace invariant checker
//!
//! A self-contained, std-only static checker for the invariants this
//! reproduction depends on. It has **two layers**:
//!
//! * the **line rules** below — single-line scans over comment- and
//!   string-stripped source text, millisecond-fast, zero dependencies, so
//!   they can gate `cargo test` (see the workspace's `tests/lint_gate.rs`)
//!   without slowing anything down;
//! * **`sjc-analyze`** (the [`passes`] module) — a whole-workspace analyzer
//!   built on a real token stream ([`lexer`]), an item model with function
//!   extents and test regions ([`items`]), and a crate-topology-gated call
//!   graph ([`callgraph`]). It closes the gaps a line scanner cannot see:
//!   transitive reachability, units across calls, and construction/handling
//!   coverage of the failure vocabulary.
//!
//! [`check_workspace`] runs the line rules, [`analyze_workspace`] the
//! passes, and [`check_all`] both. There is one gate: any unsuppressed
//! finding fails it, in the CLI and in the workspace's tier-1 test alike.
//!
//! ## Rules
//!
//! | rule | scope | what it forbids |
//! |------|-------|-----------------|
//! | `no-nondeterminism` | non-test src of `geom`, `index`, `cluster`, `mapreduce`, `rdd`, `core` | `Instant::now`, `SystemTime::now`, `thread_rng`, `from_entropy`, `HashMap`/`HashSet` (iteration order is unspecified — simulated results must be bit-identical across runs; use `BTreeMap`/`BTreeSet`/sorted `Vec`) |
//! | `no-panic-in-lib` | non-test src of the seven library crates (`geom`, `index`, `cluster`, `mapreduce`, `rdd`, `data`, `core`) | `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`, and slice indexing `x[i]` — library code returns `Result`/`Option`, it does not abort the caller |
//! | `float-hygiene` | non-test src of `geom` | bare `==`/`!=` against a float literal — geometric predicates use the epsilon helpers in `sjc_geom::predicates` |
//! | `bench-isolation` | everything except `crates/bench` (and code already covered by `no-nondeterminism`) | wall-clock and entropy APIs (`Instant::now`, `SystemTime::now`, `thread_rng`, `from_entropy`) — only the bench harness may observe the host |
//! | `serial-hot-loop` | non-test src of the designated hot-path files (see `HOT_PATH_FILES`) | `for … in tasks`-shaped loops over a hot collection (`tasks`, `groups`, `parts`, …) — host-side hot loops go through `sjc_par`; an intentionally serial merge states its reason in a suppression |
//! | `bounded-retry` | non-test src of the recovery engine crates (`cluster`, `mapreduce`, `rdd`) | a loop that drives a retry/attempt/resubmit counter (`attempt += 1`, `for attempt in …`) without referencing a `MAX_*` constant inside the loop — retry budgets must be named bounds (`MAX_TASK_ATTEMPTS`, `MAX_STAGE_RESUBMITS`), not implicit or infinite |
//! | `entropy-taint` | whole workspace (`sjc-analyze`) | simulation-crate functions that *transitively* reach a wall-clock/entropy API through the call graph, and clock-derived values flowing into `sim_ns`/trace output in any crate (bench may observe the clock, but simulated numbers must never be derived from it) |
//! | `error-flow` | library crates (`sjc-analyze`) | `SimError` variants never constructed or never handled, and `Result`s silently discarded via `let _ =` / trailing `.ok();` (the infallible `write!` into a `String` is exempt) |
//! | `hot-alloc` | hot-path functions (`sjc-analyze`) | per-iteration allocation (`clone()`, `to_string()`, `collect()`, `format!`, `vec!`, `Box::new`, …) inside a loop of any function reachable — through the crate-topology-gated call graph — from an `sjc_par` entry-point closure or a `crates/bench` kernel; pre-size with `with_capacity` outside the loop or reuse a buffer (`clear()` + refill) |
//! | `loop-invariant-call` | hot-path functions (`sjc-analyze`) | a call inside a hot loop whose arguments are all loop-invariant — every iteration recomputes the same value; hoist the call above the loop |
//! | `unit-flow` | whole workspace (`sjc-analyze`) | `+`/`-` arithmetic mixing differently-united operands (`*_ns` vs `*_bytes` vs `*_count`; bindings tracked through `let` chains, calls by their name or summarized return), non-nanosecond values assigned into `*_ns` sinks, and arguments whose unit differs from the parameter's — `*`/`/` are exempt as unit conversions |
//! | `panic-path` | `pub` fns of the simulation crates (`sjc-analyze`) | a public API function that *transitively* reaches a panic site (`.unwrap()`, `panic!`, slice indexing, literal-zero divisor) through the call graph — the diagnostic carries the full call chain; audited `allow(no-panic-in-lib)`/`allow(panic-path)` sites are trusted |
//! | `cache-purity` | fns reachable from memoized seams (`sjc-analyze`) | a function reachable from `generate_cached`/other memoized entry points whose body reads the clock/entropy or mutates a static — the cache key must fully determine the cached value; the seam's own bookkeeping file is exempt |
//! | `scoped-spawn-in-hot-path` | non-test code everywhere except `crates/par` | direct `thread::scope(`/`thread::spawn(` calls — per-call thread spawning is exactly the negative-scaling overhead the persistent pool removed; dispatch through the `sjc_par` entry points instead |
//! | `stale-suppression` | whole workspace (`sjc-analyze`) | an audited `allow(<rule>)` comment whose rule no longer fires on the covered span (audits consumed by the panic-path summaries stay live) — suppressions are part of the audit trail and must not rot |
//! | `dead-pub` | non-test `pub fn`s, `struct`s, `enum`s, `trait`s, `const`s, `static`s and `type`s of `geom`, `index`, `cluster`, `mapreduce`, `rdd`, `data`, `core`, `par` (`sjc-analyze`) | a public item whose name appears nowhere but its definition and test code — a reference counts from non-test code of a file that can see the crate (same crate or one naming `sjc_<crate>`), from `src/` or `examples/`, or from anything under `benchmark/src`; delete it, make it private, or keep it with an allow naming the test it serves |
//!
//! ## Suppression
//!
//! A violation is suppressed by an inline comment **with a reason**:
//!
//! ```text
//! let x = items[i]; // sjc-lint: allow(no-panic-in-lib) — i comes from enumerate() over items
//! ```
//!
//! or, for a whole line, by a comment-only line directly above it. An
//! `allow(...)` with an unknown rule name or without a reason is itself a
//! violation (`bad-suppression`): suppressions are part of the audit trail,
//! not an escape hatch.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod summaries;

pub use passes::analyze_workspace;

/// Crates whose non-test sources must be deterministic: they produce the
/// simulated numbers, which the paper reproduction requires to be
/// bit-identical across runs and platforms.
pub(crate) const SIM_CRATES: &[&str] = &["geom", "index", "cluster", "mapreduce", "rdd", "core"];

/// Library crates whose non-test sources must not panic.
pub(crate) const PANIC_FREE_CRATES: &[&str] =
    &["geom", "index", "cluster", "mapreduce", "rdd", "data", "core"];

/// Crates whose non-test sources must compare floats through epsilon helpers.
const FLOAT_CRATES: &[&str] = &["geom"];

/// Crates holding the fault-recovery engines: any loop here that drives a
/// retry/attempt counter must name its bound (a `MAX_*` constant) inside the
/// loop, so every retry budget is auditable and finite.
const RETRY_CRATES: &[&str] = &["cluster", "mapreduce", "rdd"];

/// The one `bounded-retry` message, shared by the three places a retry
/// region can close (multi-line body, wrapped header, one-line loop).
const BOUNDED_RETRY_MSG: &str = "retry loop without a named bound — reference a MAX_* constant (MAX_TASK_ATTEMPTS / MAX_STAGE_RESUBMITS) inside the loop so the retry budget is finite and auditable";

/// Wall-clock / entropy tokens: allowed only in `crates/bench`.
const CLOCK_TOKENS: &[&str] = &["Instant::now", "SystemTime::now", "thread_rng", "from_entropy"];

/// Thread-spawning calls: allowed only in `crates/par`, whose persistent
/// pool exists because a fresh set of scoped threads per parallel call made
/// every workload scale negatively (DESIGN.md §16).
const SPAWN_TOKENS: &[&str] = &["thread::scope(", "thread::spawn("];

/// Files whose per-task / per-partition loops dominate host wall-clock.
/// Non-test `for` loops over a hot collection here must either go through
/// `sjc_par` or carry a suppression explaining why they stay serial (e.g. an
/// order-sensitive merge whose heavy work already ran in parallel).
const HOT_PATH_FILES: &[&str] = &[
    "crates/mapreduce/src/job.rs",
    "crates/rdd/src/rdd.rs",
    "crates/rdd/src/shuffle.rs",
    "crates/index/src/rtree/str_bulk.rs",
    "crates/index/src/join/plane_sweep.rs",
];

/// Collection names whose iteration marks a hot loop: the task/partition/
/// strip granularity that `sjc_par` parallelizes over. Matched with an
/// identifier boundary, so `task.records` (per-task inner loop, already
/// inside a parallel closure) and `sjc_par::par_map(&parts, …)` do not fire.
const HOT_COLLECTIONS: &[&str] =
    &["tasks", "groups", "group_list", "parts", "cells", "strips", "anchors"];

/// The named rules. `BadSuppression` is the meta-rule for malformed
/// `allow(...)` comments and cannot itself be suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    NoNondeterminism,
    NoPanicInLib,
    FloatHygiene,
    BenchIsolation,
    SerialHotLoop,
    BoundedRetry,
    EntropyTaint,
    ErrorFlow,
    HotAlloc,
    LoopInvariantCall,
    UnitFlow,
    PanicPath,
    CachePurity,
    ScopedSpawnInHotPath,
    StaleSuppression,
    DeadPub,
    BadSuppression,
}

impl Rule {
    pub const ALL: [Rule; 16] = [
        Rule::NoNondeterminism,
        Rule::NoPanicInLib,
        Rule::FloatHygiene,
        Rule::BenchIsolation,
        Rule::SerialHotLoop,
        Rule::BoundedRetry,
        Rule::EntropyTaint,
        Rule::ErrorFlow,
        Rule::HotAlloc,
        Rule::LoopInvariantCall,
        Rule::UnitFlow,
        Rule::PanicPath,
        Rule::CachePurity,
        Rule::ScopedSpawnInHotPath,
        Rule::StaleSuppression,
        Rule::DeadPub,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::NoNondeterminism => "no-nondeterminism",
            Rule::NoPanicInLib => "no-panic-in-lib",
            Rule::FloatHygiene => "float-hygiene",
            Rule::BenchIsolation => "bench-isolation",
            Rule::SerialHotLoop => "serial-hot-loop",
            Rule::BoundedRetry => "bounded-retry",
            Rule::EntropyTaint => "entropy-taint",
            Rule::ErrorFlow => "error-flow",
            Rule::HotAlloc => "hot-alloc",
            Rule::LoopInvariantCall => "loop-invariant-call",
            Rule::UnitFlow => "unit-flow",
            Rule::PanicPath => "panic-path",
            Rule::CachePurity => "cache-purity",
            Rule::ScopedSpawnInHotPath => "scoped-spawn-in-hot-path",
            Rule::StaleSuppression => "stale-suppression",
            Rule::DeadPub => "dead-pub",
            Rule::BadSuppression => "bad-suppression",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A secondary location attached to a finding — one hop of a call chain, in
/// source order from the reported function down to the offending site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Related {
    pub path: String,
    pub line: usize,
    pub note: String,
}

/// One finding: rule, location (workspace-relative path, 1-based line) and
/// a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    pub path: String,
    pub line: usize,
    pub message: String,
    /// Chain-of-calls context for interprocedural findings; empty for the
    /// single-site rules.
    pub related: Vec<Related>,
}

impl Violation {
    pub fn new(
        rule: Rule,
        path: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Violation {
        Violation { rule, path: path.into(), line, message: message.into(), related: Vec::new() }
    }

    pub fn with_related(mut self, related: Vec<Related>) -> Violation {
        self.related = related;
        self
    }
}

/// The finding on one line, then each [`Related`] hop indented below it.
impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)?;
        for r in &self.related {
            write!(f, "\n    {}:{}: {}", r.path, r.line, r.note)?;
        }
        Ok(())
    }
}

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileClass<'a> {
    /// Crate directory name under `crates/`, or `""` for the root package.
    pub(crate) krate: &'a str,
    /// True for `tests/` and `benches/` directories: test harness code.
    pub(crate) harness: bool,
}

pub(crate) fn classify(rel_path: &str) -> FileClass<'_> {
    let mut parts = rel_path.split('/');
    let first = parts.next().unwrap_or("");
    if first == "crates" {
        let krate = parts.next().unwrap_or("");
        let section = parts.next().unwrap_or("");
        FileClass { krate, harness: section == "tests" || section == "benches" }
    } else {
        FileClass { krate: "", harness: first == "tests" || first == "benches" }
    }
}

/// Replaces comments, string contents and char literals with
/// layout-preserving filler so token scans cannot match inside them. The
/// returned text has exactly the same line structure as the input.
pub(crate) fn strip_noncode(src: &str) -> String {
    strip(src, false)
}

/// Like [`strip_noncode`] but keeps comment text: the input for suppression
/// parsing, where allow markers must be real comments, not string contents.
fn strip_strings_only(src: &str) -> String {
    strip(src, true)
}

fn strip(src: &str, keep_comments: bool) -> String {
    enum St {
        Code,
        Str,
        RawStr(usize),
        Chr,
        LineComment,
        BlockComment(usize),
    }
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match st {
            St::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    st = St::LineComment;
                    if keep_comments {
                        out.push_str("//");
                    }
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(1);
                    if keep_comments {
                        out.push_str("/*");
                    }
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                } else if c == 'r' && matches!(chars.get(i + 1), Some('"') | Some('#')) {
                    // Possible raw string: r"..." or r#"..."# (any # count).
                    let mut j = i + 1;
                    let mut hashes = 0usize;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        out.push('"');
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal is 'x' or an escape.
                    let is_char = match chars.get(i + 1) {
                        Some('\\') => true,
                        Some(&n) if n != '\'' => chars.get(i + 2) == Some(&'\''),
                        _ => false,
                    };
                    if is_char {
                        st = St::Chr;
                    } else {
                        out.push(c);
                    }
                    i += 1;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    if chars.get(i + 1) == Some(&'\n') {
                        out.push('\n');
                    }
                    i += 2;
                } else {
                    if c == '"' {
                        st = St::Code;
                        out.push('"');
                    } else if c == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
            St::RawStr(h) => {
                if c == '"' && (0..h).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    st = St::Code;
                    out.push('"');
                    i += 1 + h;
                } else {
                    if c == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
            St::Chr => {
                if c == '\\' {
                    i += 2;
                } else {
                    if c == '\'' {
                        st = St::Code;
                    }
                    i += 1;
                }
            }
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else if keep_comments {
                    out.push(c);
                }
                i += 1;
            }
            St::BlockComment(d) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(d + 1);
                    if keep_comments {
                        out.push_str("/*");
                    }
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    st = if d == 1 { St::Code } else { St::BlockComment(d - 1) };
                    if keep_comments {
                        out.push_str("*/");
                    }
                    i += 2;
                } else {
                    if c == '\n' {
                        out.push('\n');
                    } else if keep_comments {
                        out.push(c);
                    }
                    i += 1;
                }
            }
        }
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when `word` occurs in `line` with non-identifier characters (or line
/// edges) on both sides.
fn has_word(line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap_or(' '));
        let after_ok = !line[at + word.len()..].chars().next().is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// True when the line contains slice/array indexing: a `[` whose previous
/// non-space character ends an expression (identifier, `)`, or `]`). Macro
/// brackets (`vec![`), attributes (`#[`), and type positions (`: [u8; 4]`)
/// are naturally excluded because their preceding character is `!`, `#`, or
/// punctuation.
fn has_slice_indexing(line: &str) -> bool {
    // After these keywords a `[` opens an array literal or type, never an
    // index expression.
    const KEYWORDS: &[&str] = &[
        "in", "mut", "ref", "return", "for", "if", "else", "match", "while", "loop", "break",
        "move", "dyn", "impl", "where", "as", "const", "static", "let",
    ];
    let chars: Vec<char> = line.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let mut j = i;
        while j > 0 && chars[j - 1].is_whitespace() {
            j -= 1;
        }
        let Some(&p) = chars[..j].last() else { continue };
        if p == ')' || p == ']' {
            return true;
        }
        if is_ident_char(p) {
            let mut start = j;
            while start > 0 && is_ident_char(chars[start - 1]) {
                start -= 1;
            }
            let ident: String = chars[start..j].iter().collect();
            // `'a [u8]` is a lifetime in a slice type, not an index base.
            let lifetime = start > 0 && chars[start - 1] == '\'';
            if !lifetime && !KEYWORDS.contains(&ident.as_str()) {
                return true;
            }
        }
    }
    false
}

/// True when the line compares against a float literal with `==` or `!=`.
/// This is a deliberate under-approximation (a typed checker would catch
/// `a == b` on two `f64` variables), but it is precise: it never flags
/// boolean or integer comparisons.
fn has_float_literal_comparison(line: &str) -> bool {
    for op in ["==", "!="] {
        let mut start = 0;
        while let Some(pos) = line[start..].find(op) {
            let at = start + pos;
            // Skip `<=`, `>=`, pattern `=>`: require a standalone operator.
            let before = line[..at].trim_end();
            let after = line[at + 2..].trim_start();
            let left: String = {
                let t: String = before
                    .chars()
                    .rev()
                    .take_while(|&c| is_ident_char(c) || c == '.' || c == '-' || c == '+')
                    .collect();
                t.chars().rev().collect()
            };
            let right: String = after
                .chars()
                .take_while(|&c| is_ident_char(c) || c == '.' || c == '-' || c == '+')
                .collect();
            if is_float_literal(&left) || is_float_literal(&right) {
                return true;
            }
            start = at + 2;
        }
    }
    false
}

/// Whether `token` is a float literal like `0.0`, `1e-9`, or `2.5_f64`.
fn is_float_literal(token: &str) -> bool {
    let t = token.trim_start_matches(['-', '+']);
    let mut has_digit = false;
    let mut has_point_or_exp = false;
    let mut after_exp = false;
    for c in t.chars() {
        if c.is_ascii_digit() {
            has_digit = true;
            after_exp = false;
        } else if c == '.' {
            has_point_or_exp = true;
        } else if (c == 'e' || c == 'E') && has_digit {
            has_point_or_exp = true;
            after_exp = true;
        } else if (c == '-' || c == '+') && after_exp {
            after_exp = false;
        } else if c == '_' || c == 'f' {
            // digit separators and the f32/f64 suffix marker
            after_exp = false;
        } else {
            return false;
        }
    }
    has_digit && has_point_or_exp
}

/// If `line` is a `for … in <hot collection>…` loop header, returns the hot
/// collection's name. The iterated expression is taken after the first
/// ` in `, stripped of leading `&`/`mut `/`self.` — so `&mut self.parts`
/// matches `parts` — and must start with the hot name at an identifier
/// boundary: `task.records` does not match `tasks`, and call expressions
/// like `sjc_par::par_map(&parts, …)` start with `sjc_par`, not a hot name.
fn serial_hot_loop_target(line: &str) -> Option<&'static str> {
    let t = line.trim_start();
    if !t.starts_with("for ") {
        return None;
    }
    let expr = t.split(" in ").nth(1)?.trim_start();
    let mut expr = expr;
    loop {
        let next = expr
            .strip_prefix('&')
            .or_else(|| expr.strip_prefix("mut "))
            .or_else(|| expr.strip_prefix("self."));
        match next {
            Some(rest) => expr = rest.trim_start(),
            None => break,
        }
    }
    HOT_COLLECTIONS.iter().copied().find(|name| {
        expr.strip_prefix(name).is_some_and(|rest| !rest.chars().next().is_some_and(is_ident_char))
    })
}

/// True when `line` *begins* a loop header: a `for`/`while`/`loop` keyword
/// (optionally labelled, `'outer: loop {`) at the start of the line. The
/// body's `{` may sit on this line or — when rustfmt wraps a long header —
/// on a later one; the caller tracks the open brace separately, so wrapped
/// headers are no longer invisible to `bounded-retry`.
fn loop_header_start(line: &str) -> bool {
    let mut t = line.trim_start();
    if let Some(rest) = t.strip_prefix('\'') {
        if let Some(colon) = rest.find(':') {
            if !rest[..colon].is_empty() && rest[..colon].chars().all(is_ident_char) {
                t = rest[colon + 1..].trim_start();
            }
        }
    }
    t.starts_with("for ")
        || t.starts_with("while ")
        || t.starts_with("while(")
        || t == "loop"
        || t.starts_with("loop {")
        || t.starts_with("loop{")
}

/// True when `text` mentions a retry-shaped identifier (`retry`, `attempt`,
/// `resubmit` — any case, as a substring of an identifier, so
/// `out.attempts` and `StageResubmit` both count).
fn is_retry_ident(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    ["retry", "attempt", "resubmit"].iter().any(|t| lower.contains(t))
}

/// True when the line *drives* a retry counter: a retry-shaped identifier
/// incremented by one. Matched on the token stream, so `attempt += 1`,
/// `attempt +=1` and `attempt+=1` are all the same increment — whitespace
/// is not load-bearing. Aggregations over already-recorded attempts
/// (`trace.attempts += s.attempts`) deliberately do not match: the
/// right-hand side is not the literal `1`.
fn drives_retry_counter(line: &str) -> bool {
    let toks = lexer::lex(line);
    toks.windows(3).any(|w| {
        w[0].kind == lexer::TokKind::Ident
            && is_retry_ident(&w[0].text)
            && w[1].is_op("+=")
            && w[2].kind == lexer::TokKind::Num
            && w[2].text == "1"
    })
}

/// A parsed allow comment (see the module docs for the syntax).
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    rule: Option<Rule>,
    rule_text: String,
    has_reason: bool,
    /// True when the line holds nothing but the comment — such a line
    /// suppresses the *next* line instead of itself.
    comment_only: bool,
}

const ALLOW_MARKER: &str = "sjc-lint: allow(";

/// Parses an allow marker from a string-stripped (but comment-preserving)
/// line. The marker must appear inside a plain `//` comment — doc comments
/// (`///`, `//!`) are documentation, so a syntax example in one neither
/// suppresses anything nor counts as a stale waiver.
fn parse_allow(commented_line: &str, code_line: &str) -> Option<Allow> {
    let comment_at = commented_line.find("//")?;
    let comment = &commented_line[comment_at..];
    if comment.starts_with("///") || comment.starts_with("//!") {
        return None;
    }
    let at = comment.find(ALLOW_MARKER)?;
    let rest = &comment[at + ALLOW_MARKER.len()..];
    let close = rest.find(')')?;
    let rule_text = rest[..close].trim().to_string();
    let reason = rest[close + 1..].trim().trim_start_matches(['—', '-', ':', ' ']).trim();
    Some(Allow {
        rule: Rule::from_name(&rule_text),
        rule_text,
        has_reason: reason.chars().filter(|c| c.is_alphanumeric()).count() >= 3,
        comment_only: code_line.trim().is_empty(),
    })
}

/// Parses every line's allow marker for `source`. Shared between the line
/// rules and the `sjc-analyze` passes so both honor the exact same audited
/// suppression syntax.
pub(crate) fn allows_for(source: &str) -> Vec<Option<Allow>> {
    let stripped = strip_noncode(source);
    let code_lines: Vec<&str> = stripped.lines().collect();
    strip_strings_only(source)
        .lines()
        .enumerate()
        .map(|(i, line)| parse_allow(line, code_lines.get(i).copied().unwrap_or("")))
        .collect()
}

/// 0-based statement-start line for every line. rustfmt wraps long
/// statements, so the expression a comment-only allow was written for can
/// land on a continuation line; resolving each line to the line that opened
/// its statement lets the allow cover the whole statement. A line continues
/// the previous one when that line's code neither terminated (`;`, `{`, `}`)
/// nor was blank; the chain is capped so a malformed file cannot pull an
/// allow across half the module.
pub(crate) fn stmt_starts(source: &str) -> Vec<usize> {
    let stripped = strip_noncode(source);
    let lines: Vec<&str> = stripped.lines().collect();
    let mut starts = vec![0usize; lines.len()];
    for i in 1..lines.len() {
        let prev = lines[i - 1].trim_end();
        let terminated =
            prev.is_empty() || prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}');
        starts[i] = if !terminated && i - starts[i - 1] < 12 { starts[i - 1] } else { i };
    }
    starts
}

/// True when a well-formed allow for `rule` covers the 1-based `line`:
/// inline on the line itself, or comment-only directly above the statement
/// the line belongs to (`starts` from [`stmt_starts`]).
pub(crate) fn is_suppressed(
    allows: &[Option<Allow>],
    starts: &[usize],
    rule: Rule,
    line: usize,
) -> bool {
    if line == 0 {
        return false;
    }
    let i = line - 1;
    let matches = |a: &Option<Allow>, need_comment_only: bool| {
        a.as_ref().is_some_and(|a| {
            a.rule == Some(rule) && a.has_reason && (!need_comment_only || a.comment_only)
        })
    };
    if allows.get(i).is_some_and(|a| matches(a, false)) {
        return true;
    }
    let s = starts.get(i).copied().unwrap_or(i);
    s > 0 && allows.get(s - 1).is_some_and(|a| matches(a, true))
}

/// Checks one file's source text. `rel_path` is the workspace-relative path
/// with `/` separators (e.g. `crates/geom/src/mbr.rs`); it determines which
/// rules apply.
pub fn check_file(rel_path: &str, source: &str) -> Vec<Violation> {
    let allows = allows_for(source);
    let starts = stmt_starts(source);
    let mut out = check_file_raw(rel_path, source);
    out.retain(|v| {
        v.rule == Rule::BadSuppression || !is_suppressed(&allows, &starts, v.rule, v.line)
    });
    out
}

/// [`check_file`] *before* suppression filtering. The `stale-suppression`
/// pass needs the raw findings: an allow comment is live exactly when a raw
/// finding it covers exists, which the filtered view cannot tell.
pub(crate) fn check_file_raw(rel_path: &str, source: &str) -> Vec<Violation> {
    let mut class = classify(rel_path);
    let stripped = strip_noncode(source);
    let code_lines: Vec<&str> = stripped.lines().collect();
    // A file compiled only for tests (inner attribute) is harness code even
    // when it lives under `src/`.
    if code_lines.iter().any(|l| l.contains("#![cfg(test)]")) {
        class.harness = true;
    }
    let allows = allows_for(source);

    let mut out = Vec::new();

    // Malformed suppressions are violations regardless of any rule firing.
    for (i, allow) in allows.iter().enumerate() {
        if let Some(a) = allow {
            if a.rule.is_none() {
                out.push(Violation::new(
                    Rule::BadSuppression,
                    rel_path,
                    i + 1,
                    format!("allow({}) names no known rule", a.rule_text),
                ));
            } else if !a.has_reason {
                out.push(Violation::new(
                    Rule::BadSuppression,
                    rel_path,
                    i + 1,
                    format!(
                        "allow({}) needs a reason: `// sjc-lint: allow({}) — <why this is safe>`",
                        a.rule_text, a.rule_text
                    ),
                ));
            }
        }
    }

    // Which rules apply to this file's non-test code?
    let sim = SIM_CRATES.contains(&class.krate);
    let panic_free = PANIC_FREE_CRATES.contains(&class.krate);
    let float = FLOAT_CRATES.contains(&class.krate);
    let bench = class.krate == "bench";
    let pool = class.krate == "par";
    let hot_path = HOT_PATH_FILES.contains(&rel_path);
    let retry_scope = RETRY_CRATES.contains(&class.krate);

    // `#[cfg(test)] mod` region tracking via brace depth.
    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    let mut test_region_floor: Option<i64> = None;

    // Open loop regions for bounded-retry: (header line, brace floor,
    // drives a retry counter, references a MAX_* bound). Flags propagate to
    // every enclosing loop, so a bound named in an inner loop also satisfies
    // the outer one.
    let mut retry_loops: Vec<(usize, i64, bool, bool)> = Vec::new();
    // A loop header whose body `{` has not arrived yet (rustfmt wraps long
    // headers): (header line, retry flag, bound flag). Resolved when the
    // opening brace shows up, dropped on a statement terminator.
    let mut pending_loop: Option<(usize, bool, bool)> = None;

    for (i, code) in code_lines.iter().enumerate() {
        let depth_at_start = depth;
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }

        if test_region_floor.is_none() && code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && has_word(code, "mod") && code.contains('{') {
            test_region_floor = Some(depth_at_start);
            pending_cfg_test = false;
        }

        let in_test = class.harness || test_region_floor.is_some();

        // Close the region *after* computing `in_test`: the closing-brace
        // line still belongs to the test module.
        if let Some(floor) = test_region_floor {
            if depth <= floor {
                test_region_floor = None;
            }
        }

        if retry_scope {
            let drives = drives_retry_counter(code);
            let bound = code.contains("MAX_");
            for r in &mut retry_loops {
                r.2 |= drives;
                r.3 |= bound;
            }
            // Close finished loop regions; a retry loop without a named
            // bound is reported at its header line.
            while let Some(&(hdr, floor, is_retry, has_bound)) = retry_loops.last() {
                if depth > floor {
                    break;
                }
                retry_loops.pop();
                if is_retry && !has_bound {
                    out.push(Violation::new(
                        Rule::BoundedRetry,
                        rel_path,
                        hdr + 1,
                        BOUNDED_RETRY_MSG.to_string(),
                    ));
                }
            }
            let retryish = drives || is_retry_ident(code);
            if let Some((hdr, was_retry, was_bound)) = pending_loop {
                // Continuation of a wrapped header: accumulate flags until
                // the body's `{` arrives.
                let is_retry = was_retry || retryish;
                let has_bound = was_bound || bound;
                if code.contains('{') {
                    pending_loop = None;
                    if depth > depth_at_start {
                        retry_loops.push((hdr, depth_at_start, is_retry, has_bound));
                    } else if is_retry && !has_bound {
                        // The body opened *and* closed on this line.
                        out.push(Violation::new(
                            Rule::BoundedRetry,
                            rel_path,
                            hdr + 1,
                            BOUNDED_RETRY_MSG.to_string(),
                        ));
                    }
                } else if code.contains(';') {
                    // A statement terminator cannot appear inside a loop
                    // header — the `for`/`while` match was something else.
                    pending_loop = None;
                } else {
                    pending_loop = Some((hdr, is_retry, has_bound));
                }
            } else if !in_test && loop_header_start(code) {
                if depth > depth_at_start {
                    retry_loops.push((i, depth_at_start, retryish, bound));
                } else if code.contains('{') {
                    // One-line loop: `for attempt in 0..n { g(attempt) }` —
                    // the region opens and closes within this line.
                    if retryish && !bound {
                        out.push(Violation::new(
                            Rule::BoundedRetry,
                            rel_path,
                            i + 1,
                            BOUNDED_RETRY_MSG.to_string(),
                        ));
                    }
                } else if !code.contains(';') {
                    pending_loop = Some((i, retryish, bound));
                }
            }
        }

        let mut emit =
            |rule: Rule, message: String| out.push(Violation::new(rule, rel_path, i + 1, message));

        if sim && !in_test {
            for tok in CLOCK_TOKENS {
                if code.contains(tok) {
                    emit(
                        Rule::NoNondeterminism,
                        format!("`{tok}` in simulation code — results must be reproducible; derive everything from the experiment seed"),
                    );
                }
            }
            for tok in ["HashMap", "HashSet"] {
                if has_word(code, tok) {
                    emit(
                        Rule::NoNondeterminism,
                        format!("`{tok}` iterates in unspecified order — use BTreeMap/BTreeSet or a sorted Vec so simulated output is bit-stable"),
                    );
                }
            }
        }

        // Everywhere except crates/bench and lines no-nondeterminism already
        // covers (non-test code of the sim crates).
        if !bench && (!sim || in_test) {
            for tok in CLOCK_TOKENS {
                if code.contains(tok) {
                    emit(
                        Rule::BenchIsolation,
                        format!("`{tok}` outside crates/bench — only the bench harness may observe the host clock or entropy"),
                    );
                }
            }
        }

        if !pool && !in_test {
            for tok in SPAWN_TOKENS {
                if code.contains(tok) {
                    emit(
                        Rule::ScopedSpawnInHotPath,
                        format!("direct `{}(…)` outside crates/par — per-call thread spawning is the spawn-per-dispatch overhead the persistent pool removed; route the work through an sjc_par entry point (par_map/par_sort_by/join) so it reuses the pool's parked workers", tok.trim_end_matches('(')),
                    );
                }
            }
        }

        if panic_free && !in_test {
            for tok in [".unwrap()", ".expect("] {
                if code.contains(tok) {
                    emit(
                        Rule::NoPanicInLib,
                        format!("`{tok}` in library code — return a Result/Option or handle the None/Err arm"),
                    );
                }
            }
            for tok in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
                if code.contains(tok) {
                    emit(
                        Rule::NoPanicInLib,
                        format!("`{tok}` in library code — library code must not abort the caller"),
                    );
                }
            }
            if has_slice_indexing(code) {
                emit(
                    Rule::NoPanicInLib,
                    "slice indexing can panic — use .get()/.get_mut() or iterate, or suppress with the bounds argument".to_string(),
                );
            }
        }

        if hot_path && !in_test {
            if let Some(name) = serial_hot_loop_target(code) {
                emit(
                    Rule::SerialHotLoop,
                    format!("serial `for … in {name}` in a hot-path file — route through sjc_par (par_map/par_sort_by/par_chunks_mut), or suppress with the reason this loop must stay serial"),
                );
            }
        }

        if float && !in_test && has_float_literal_comparison(code) {
            emit(
                Rule::FloatHygiene,
                "bare float comparison — use the epsilon helpers in sjc_geom::predicates"
                    .to_string(),
            );
        }
    }

    out
}

/// Recursively collects `.rs` files under `dir` (if it exists). Directories
/// named `fixtures` are skipped: they hold deliberately-bad inputs for the
/// analyzer's own tests, not workspace code. Directories named `target` are
/// skipped too: cargo build artifacts (expanded sources, vendored build
/// scripts) are not workspace code, and walking a warm multi-gigabyte
/// `target/` would alone blow the gate's wall budget.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures" || n == "target") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Collects every Rust source file of the workspace rooted at `root` —
/// `src/`, `tests/`, and each `crates/*/{src,tests,benches}` — as
/// `(workspace-relative path with '/' separators, source text)` pairs.
/// Shared by the line rules and the `sjc-analyze` passes so both layers see
/// the exact same file set.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    // A missing or file-less root must be an error, not a clean scan — a
    // mistyped path in CI would otherwise report green without looking at
    // a single line.
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("workspace root {} is not a directory", root.display()),
        ));
    }
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    collect_rs(&root.join("tests"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
        crates.sort();
        for krate in crates {
            for section in ["src", "tests", "benches"] {
                collect_rs(&krate.join(section), &mut files)?;
            }
        }
    }

    if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no .rs files under {} — wrong workspace root?", root.display()),
        ));
    }

    files
        .into_iter()
        .map(|file| {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            fs::read_to_string(&file).map(|source| (rel, source))
        })
        .collect()
}

/// The source text of the reference-only files under `root`: `examples/`
/// and `benchmark/src` (a package outside the workspace that compiles
/// against its API). Only the `dead-pub` pass reads them, as callers; no
/// rule checks them.
pub(crate) fn reference_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect_rs(&root.join("examples"), &mut files)?;
    collect_rs(&root.join("benchmark/src"), &mut files)?;
    files.iter().map(fs::read_to_string).collect()
}

/// Checks every Rust source file of the workspace rooted at `root` with the
/// **line rules**. Returns all violations sorted by path and line.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for (rel, source) in workspace_files(root)? {
        out.extend(check_file(&rel, &source));
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(out)
}

/// Both layers over one workspace: the line rules ([`check_workspace`]) plus
/// the cross-file `sjc-analyze` passes ([`analyze_workspace`]), merged and
/// sorted. This is what the CLI and the tier-1 gate run.
pub fn check_all(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(check_all_timed(root)?.0)
}

/// [`check_all`] plus per-stage wall times — the `--timings` flag.
pub fn check_all_timed(root: &Path) -> io::Result<(Vec<Violation>, Vec<passes::PassTiming>)> {
    let t = passes::stamp();
    let mut out = check_workspace(root)?;
    let mut timings = vec![passes::PassTiming { name: "line-rules", wall: t.elapsed() }];
    let (vs, ts) = passes::analyze_workspace_timed(root)?;
    out.extend(vs);
    timings.extend(ts);
    out.sort_by(|a, b| (&a.path, a.line, a.rule.name()).cmp(&(&b.path, b.line, b.rule.name())));
    Ok((out, timings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_comments_and_string_contents() {
        let src =
            "let a = \"Instant::now\"; // Instant::now\nlet b = 1; /* thread_rng */ let c = 2;\n";
        let s = strip_noncode(src);
        assert!(!s.contains("Instant::now"));
        assert!(!s.contains("thread_rng"));
        assert!(s.contains("let b = 1;"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn strip_preserves_line_structure_of_multiline_strings() {
        let src = "let s = \"a\nb\nc\";\nlet t = 1;";
        let s = strip_noncode(src);
        assert_eq!(s.lines().count(), 4);
        assert!(s.lines().nth(3).unwrap().contains("let t = 1;"));
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(has_word("use std::collections::HashMap;", "HashMap"));
        assert!(!has_word("struct MyHashMapLike;", "HashMap"));
    }

    #[test]
    fn slice_indexing_detector_is_precise() {
        assert!(has_slice_indexing("let x = items[i];"));
        assert!(has_slice_indexing("let y = f(a)[0];"));
        assert!(has_slice_indexing("let z = m[i][j];"));
        assert!(!has_slice_indexing("#[derive(Debug)]"));
        assert!(!has_slice_indexing("let v = vec![1, 2];"));
        assert!(!has_slice_indexing("fn f(x: [u8; 4]) {}"));
        assert!(!has_slice_indexing("let a: &[u64] = &v;"));
    }

    #[test]
    fn float_comparison_detector_is_precise() {
        assert!(has_float_literal_comparison("if p == 0.0 {"));
        assert!(has_float_literal_comparison("if 1e-9 != x {"));
        assert!(has_float_literal_comparison("x == 2.5_f64"));
        // The classic bool-expression false positive must not fire.
        assert!(!has_float_literal_comparison("(a.y > p.y) != (b.y > p.y)"));
        assert!(!has_float_literal_comparison("if n == 0 {"));
        assert!(!has_float_literal_comparison("let c = a >= 0.5;"));
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        let vs = check_file("crates/geom/src/lib.rs", src);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn serial_hot_loop_detector_is_precise() {
        // Hot names fire through `&`, `mut`, and `self.` prefixes…
        assert_eq!(serial_hot_loop_target("for t in &tasks {"), Some("tasks"));
        assert_eq!(serial_hot_loop_target("for p in self.parts.iter() {"), Some("parts"));
        assert_eq!(
            serial_hot_loop_target("for (i, rec) in self.parts.into_iter().flatten() {"),
            Some("parts")
        );
        assert_eq!(serial_hot_loop_target("for (k, vs) in groups {"), Some("groups"));
        // …but identifier boundaries hold: per-record inner loops and
        // parallel call expressions are not hot loops.
        assert_eq!(serial_hot_loop_target("for rec in &task.records {"), None);
        assert_eq!(serial_hot_loop_target("for x in sjc_par::par_map(&parts, f) {"), None);
        assert_eq!(serial_hot_loop_target("for g in group_set {"), None);
        assert_eq!(serial_hot_loop_target("let tasks = build(parts);"), None);
    }

    #[test]
    fn serial_hot_loop_fires_only_in_hot_path_files() {
        let src = "pub fn f(tasks: &[u8]) {\n    for t in tasks {\n        g(t);\n    }\n}\n";
        let vs = check_file("crates/mapreduce/src/job.rs", src);
        assert!(vs.iter().any(|v| v.rule == Rule::SerialHotLoop), "{vs:?}");
        // The same loop elsewhere — or suppressed with a reason — is clean.
        assert!(check_file("crates/mapreduce/src/lib.rs", src).is_empty());
        let suppressed = "pub fn f(tasks: &[u8]) {\n    // sjc-lint: allow(serial-hot-loop) — merge must preserve task order\n    for t in tasks { g(t); }\n}\n";
        assert!(check_file("crates/mapreduce/src/job.rs", suppressed).is_empty());
    }

    #[test]
    fn hot_path_files_exist() {
        // A deleted or renamed file would otherwise leave a silently dead entry.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in HOT_PATH_FILES {
            assert!(root.join(rel).is_file(), "HOT_PATH_FILES names a missing file: {rel}");
        }
    }

    #[test]
    fn loop_header_start_detector_is_precise() {
        assert!(loop_header_start("loop {"));
        assert!(loop_header_start("    'outer: loop {"));
        assert!(loop_header_start("while attempt < max {"));
        assert!(loop_header_start("while let Some(x) = it.next() {"));
        assert!(loop_header_start("for t in &tasks {"));
        // Wrapped headers (brace on a later line) now count as starts…
        assert!(loop_header_start("for t in"));
        assert!(loop_header_start("    loop"));
        assert!(loop_header_start("'retry: loop"));
        // …but non-loops still do not.
        assert!(!loop_header_start("looping(x) {"));
        assert!(!loop_header_start("let x = compute();"));
        assert!(!loop_header_start("while_elapsed(x) {"));
    }

    #[test]
    fn retry_counter_detector_is_precise() {
        assert!(drives_retry_counter("attempt += 1;"));
        assert!(drives_retry_counter("out.attempts += 1;"));
        assert!(drives_retry_counter("resubmit += 1;"));
        // Token-matched: whitespace around `+=` is not load-bearing.
        assert!(drives_retry_counter("attempt +=1;"));
        assert!(drives_retry_counter("attempt+=1;"));
        assert!(drives_retry_counter("attempt  +=  1;"));
        // Aggregating already-recorded attempts is not a retry loop…
        assert!(!drives_retry_counter("trace.attempts += s.attempts;"));
        // …and neither is a plain index counter, nor a step of 10.
        assert!(!drives_retry_counter("i += 1;"));
        assert!(!drives_retry_counter("attempt += 10;"));
    }

    #[test]
    fn bounded_retry_fires_on_unbounded_loops_in_engine_crates() {
        let src = "pub fn f() {\n    let mut attempt = 0u32;\n    loop {\n        attempt += 1;\n        if done(attempt) {\n            break;\n        }\n    }\n}\n";
        let vs = check_file("crates/cluster/src/scheduler.rs", src);
        assert!(vs.iter().any(|v| v.rule == Rule::BoundedRetry && v.line == 3), "{vs:?}");
        // Naming the MAX_* bound inside the loop satisfies the rule…
        let bounded = src.replace("if done(attempt) {", "if attempt >= MAX_TASK_ATTEMPTS {");
        assert!(check_file("crates/cluster/src/scheduler.rs", &bounded).is_empty());
        // …and the same loop outside the engine crates is out of scope.
        assert!(check_file("crates/core/src/report.rs", src).is_empty());
    }

    #[test]
    fn bound_in_inner_loop_satisfies_enclosing_retry_loop() {
        let src = "pub fn f(n: u32) {\n    for task in 0..n {\n        let mut attempt = 0u32;\n        loop {\n            attempt += 1;\n            if attempt >= MAX_TASK_ATTEMPTS {\n                break;\n            }\n        }\n    }\n}\n";
        assert!(check_file("crates/cluster/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn bounded_retry_header_tokens_and_suppression() {
        // A `for attempt in …` header is a retry loop even without `+= 1`:
        // the bound must be a named constant, not a bare literal range.
        let src = "pub fn f() {\n    for attempt in 0..4 {\n        g(attempt);\n    }\n}\n";
        let vs = check_file("crates/rdd/src/context.rs", src);
        assert!(vs.iter().any(|v| v.rule == Rule::BoundedRetry && v.line == 2), "{vs:?}");
        let ok = "pub fn f() {\n    // sjc-lint: allow(bounded-retry) — probe loop, four draws is the sampling design\n    for attempt in 0..4 {\n        g(attempt);\n    }\n}\n";
        assert!(check_file("crates/rdd/src/context.rs", ok).is_empty());
        // Test code is out of scope.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() {\n        for attempt in 0..4 {\n            g(attempt);\n        }\n    }\n}\n";
        assert!(check_file("crates/rdd/src/context.rs", test_src).is_empty());
    }

    #[test]
    fn bounded_retry_sees_rustfmt_wrapped_headers() {
        // rustfmt may wrap a long header so the `{` lands on its own line;
        // the pending-header tracking must still open the region at the
        // `for` line.
        let src = "pub fn f(limit: u32) {\n    for attempt in\n        compute_schedule(limit)\n    {\n        g(attempt);\n    }\n}\n";
        let vs = check_file("crates/cluster/src/scheduler.rs", src);
        assert!(vs.iter().any(|v| v.rule == Rule::BoundedRetry && v.line == 2), "{vs:?}");
        // A MAX_* bound anywhere in the (wrapped) region satisfies it.
        let bounded = src.replace("g(attempt);", "if attempt >= MAX_TASK_ATTEMPTS { break; }");
        assert!(check_file("crates/cluster/src/scheduler.rs", &bounded).is_empty());
        // Suppression at the header line works for wrapped headers too.
        let ok = src.replace(
            "    for attempt in\n",
            "    // sjc-lint: allow(bounded-retry) — schedule length is validated upstream\n    for attempt in\n",
        );
        assert!(check_file("crates/cluster/src/scheduler.rs", &ok).is_empty());
    }

    #[test]
    fn bounded_retry_sees_one_line_loops() {
        let src = "pub fn f(n: u32) {\n    for attempt in 0..n { g(attempt) }\n}\n";
        let vs = check_file("crates/cluster/src/scheduler.rs", src);
        assert!(vs.iter().any(|v| v.rule == Rule::BoundedRetry && v.line == 2), "{vs:?}");
        let ok = src.replace("0..n", "0..MAX_TASK_ATTEMPTS");
        assert!(check_file("crates/cluster/src/scheduler.rs", &ok).is_empty());
    }

    #[test]
    fn suppression_requires_reason_and_known_rule() {
        let src = "let x = v[0]; // sjc-lint: allow(no-panic-in-lib)\n";
        let vs = check_file("crates/geom/src/lib.rs", src);
        assert!(vs.iter().any(|v| v.rule == Rule::BadSuppression));
        // The reasonless allow does not suppress.
        assert!(vs.iter().any(|v| v.rule == Rule::NoPanicInLib));

        let src = "let x = v[0]; // sjc-lint: allow(no-such-rule) — whatever\n";
        let vs = check_file("crates/geom/src/lib.rs", src);
        assert!(vs.iter().any(|v| v.rule == Rule::BadSuppression));
    }

    #[test]
    fn doc_comments_are_not_suppressions() {
        // A syntax example in a doc comment is documentation: it neither
        // suppresses the line below nor parses as an (inevitably stale)
        // waiver.
        for doc in [
            "/// sjc-lint: allow(no-panic-in-lib) — example from the rule table\nlet x = v[0];\n",
            "//! sjc-lint: allow(no-panic-in-lib) — example from the rule table\nlet x = v[0];\n",
        ] {
            assert!(allows_for(doc).iter().all(Option::is_none), "{doc:?}");
            let vs = check_file("crates/geom/src/lib.rs", doc);
            assert!(vs.iter().any(|v| v.rule == Rule::NoPanicInLib), "{doc:?} -> {vs:?}");
        }
    }

    #[test]
    fn comment_only_allow_covers_next_line() {
        let src = "// sjc-lint: allow(no-panic-in-lib) — index bounded by caller\nlet x = v[0];\n";
        assert!(check_file("crates/geom/src/lib.rs", src).is_empty());
        // ...but not the line after next.
        let src = "// sjc-lint: allow(no-panic-in-lib) — index bounded by caller\nlet x = v[0];\nlet y = v[1];\n";
        let vs = check_file("crates/geom/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn comment_only_allow_covers_a_wrapped_statement() {
        // rustfmt breaks long `let`s after the `=`, pushing the flagged
        // expression onto a continuation line; the allow above the statement
        // must still cover it.
        let src = "// sjc-lint: allow(no-panic-in-lib) — ids are enumerate indices\n\
                   let recs: Vec<&Rec> =\n    \
                       assign[cell].iter().map(|&i| &left.records[i as usize]).collect();\n";
        assert!(check_file("crates/geom/src/lib.rs", src).is_empty());
        // A terminated statement ends the allow's reach: the next statement
        // is not covered even when it starts on the very next line.
        let src = "// sjc-lint: allow(no-panic-in-lib) — ids are enumerate indices\n\
                   let a =\n    v[0];\nlet b = v[1];\n";
        let vs = check_file("crates/geom/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 4);
    }
}
