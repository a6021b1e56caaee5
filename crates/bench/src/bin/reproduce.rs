//! `reproduce` — prints [`sjc_bench::reproduce`]: the paper's tables and figure.
//!
//! ```text
//! reproduce [all|table1|table2|table3|fig1|speedups|scalability|extension|ablations] [--scale S] [--seed N] [--json PATH]
//! ```
//!
//! Everything is deterministic for a fixed `--scale`/`--seed`. A bad
//! argument prints one usage line on stderr and exits 2.

use std::process::ExitCode;

use sjc_bench::{reproduce, REPORTS};

struct Args {
    what: String,
    scale: f64,
    seed: u64,
    json: Option<String>,
}

/// The arguments, `Ok(None)` for `--help`, or what is wrong with them.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args { what: "all".to_string(), scale: 1e-3, seed: 20150701, json: None };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let scale = it.next().and_then(|v| v.parse::<f64>().ok());
                args.scale = scale
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .ok_or("--scale needs a number in (0, 1]")?;
            }
            "--seed" => {
                args.seed =
                    it.next().and_then(|v| v.parse().ok()).ok_or("--seed needs an integer")?;
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--help" | "-h" => {
                println!(
                    "reproduce — regenerate the tables and figure of 'Spatial Join Query \
                     Processing in Cloud' (ICPP 2015)\n\n\
                     USAGE: reproduce [WHAT] [--scale S] [--seed N] [--json PATH]\n\n\
                     WHAT: all (default) | table1 | table2 | table3 | fig1 | speedups |\n      \
                     scalability | extension | ablations\n\
                     --scale S   generation scale (domain-area fraction in (0, 1]; default 1e-3)\n\
                     --seed N    RNG seed (default 20150701)\n\
                     --json P    also dump machine-readable results to P"
                );
                return Ok(None);
            }
            w if REPORTS.split('|').any(|r| r == w) => args.what = w.to_string(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reproduce: {e}; usage: reproduce [{REPORTS}] [--scale S in (0, 1]] [--seed N] [--json PATH]");
            return ExitCode::from(2);
        }
    };
    let (text, json) = reproduce(&args.what, args.scale, args.seed);
    print!("{text}");
    if let Some(path) = args.json {
        if let Err(e) = std::fs::write(&path, json.to_string_pretty()) {
            eprintln!("reproduce: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
