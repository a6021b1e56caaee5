//! `sjc-lint` binary: runs both checker layers (the line rules and the
//! `sjc-analyze` passes) over the workspace rooted at the given directory
//! (default: the current directory) and fails on any finding.
//!
//! ```text
//! cargo run -p sjc-lint -- .             # check the workspace
//! cargo run -p sjc-lint -- . --timings   # plus per-stage wall times
//! cargo run -p sjc-lint -- --rules       # list the rules
//! ```
//!
//! Exit codes: `0` clean, `1` any unsuppressed finding, `2` usage or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use sjc_lint::Rule;

fn usage() {
    println!(
        "sjc-lint — workspace invariant checker (line rules + sjc-analyze)\n\n\
         USAGE: sjc-lint [ROOT] [OPTIONS]\n\n\
         OPTIONS:\n\
         \x20 --timings  print per-stage wall times to stderr\n\
         \x20 --rules    list the rule names and exit\n\n\
         Scans ROOT (default `.`) with every rule:"
    );
    for rule in Rule::ALL {
        println!("  {}", rule.name());
    }
    println!(
        "Any unsuppressed finding fails the run (exit 1). Suppress a finding\n\
         inline with `// sjc-lint: allow(<rule>) — <reason>`."
    );
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut timings = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--rules" => {
                for rule in Rule::ALL {
                    println!("{}", rule.name());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "--timings" => timings = true,
            other if !other.starts_with('-') => root = PathBuf::from(other),
            other => {
                eprintln!("sjc-lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let (violations, pass_timings) = match sjc_lint::check_all_timed(&root) {
        Ok(vs) => vs,
        Err(e) => {
            eprintln!("sjc-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if timings {
        for t in &pass_timings {
            eprintln!("sjc-lint: timing {:>20}  {:>9.3} ms", t.name, t.wall.as_secs_f64() * 1e3);
        }
        let total: f64 = pass_timings.iter().map(|t| t.wall.as_secs_f64()).sum();
        eprintln!("sjc-lint: timing {:>20}  {:>9.3} ms", "total", total * 1e3);
    }
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("sjc-lint: workspace clean");
        ExitCode::SUCCESS
    } else {
        println!("sjc-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
