//! The repo benchmark: host time of the simulator on four join workloads,
//! end to end and layer by layer. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! sjc-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, as the driver runs it
//! sjc-benchmark run        every workload, tracing off  -> out/result.json
//! sjc-benchmark trace      every workload, traced       -> out/result.json, out/trace-NAME.json
//! sjc-benchmark selfcheck  the untraced set twice; non-zero exit if the sets disagree
//! ```
//!
//! Simulated time is checked for determinism and printed as a fingerprint,
//! never timed; the benchmark claims no gain.

mod decl;
mod host;
mod layers;
mod measure;
mod spans;
mod stats;
mod suite;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sjc_core::json::Json;

/// The end-to-end metrics, with their units, in the order `measure`
/// computes them. `BENCHMARK.json` declares the same list.
pub const E2E: [(&str, &str); 4] =
    [("setup_s", "s"), ("pass_ms_floor", "ms"), ("krec_per_s", "krec/s"), ("peak_rss_mb", "MiB")];

const DEFAULT_SEED: u64 = 20150701;

const USAGE: &str = "usage: sjc-benchmark [run|trace|selfcheck] [--workload NAME] [--seed N] \
[--seconds S] [--trace 0|1] [--smoke] [--out DIR] [--runs K]
  no command:  measure --workload NAME once and print the result as the last line (JSON)
  run:         every workload (or --workload), tracing off; writes DIR/result.json
  trace:       every workload, traced; writes DIR/result.json and DIR/trace-NAME.json
  selfcheck:   the untraced set twice, --runs K runs each (default 1); exit 1 on disagreement
  --smoke:     3 passes at a tenth of the scales, no paper-pattern check";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    /// How long to measure; `None` takes `run_seconds` of `BENCHMARK.json`.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
    pub runs: usize,
    pub setup_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        runs: 1,
        setup_probe: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" | "trace" | "selfcheck" if args.command.is_none() => {
                args.command = Some(arg.clone())
            }
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}`; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--runs" => {
                args.runs = value("a count")?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&args.runs) {
                    return Err(format!("--runs {} is outside 1..=100", args.runs));
                }
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One-line rendering of a `Json` value. The pretty printer breaks lines
/// only between tokens (strings escape their newlines), so dropping each
/// line's indentation and the breaks leaves the same document.
pub fn compact(json: &Json) -> String {
    json.to_string_pretty().lines().map(str::trim_start).collect()
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sjc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_deref() {
        Some("run") => suite::run(&args, false),
        Some("trace") => suite::run(&args, true),
        Some("selfcheck") => suite::selfcheck(&args),
        _ if args.setup_probe => measure::setup_probe(&args, started).map(|()| true),
        // As the driver runs it: the result line goes out whatever it
        // says, so the exit code reports only whether there is one.
        _ if args.trace => measure::traced(&args).map(|()| true),
        _ => measure::end_to_end(&args).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sjc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv("--workload pip_1t --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("pip_1t"), 7, Some(20.0), true)
        );
        assert_eq!(a.command, None);
        let b = parse_args(&argv("selfcheck --runs 10 --smoke --out /tmp/x")).unwrap();
        assert_eq!(
            (b.command.as_deref(), b.runs, b.smoke, b.seed),
            (Some("selfcheck"), 10, true, DEFAULT_SEED)
        );
        assert_eq!(b.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--trace 2",
            "--runs 0",
            "--frobnicate",
            "--seed",
            "run trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn compact_json_is_one_line_and_parses_back() {
        let j = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("text", Json::Str("two\nlines  and \"quotes\"".to_string())),
            (
                "metrics",
                Json::obj(vec![("setup_s", Json::obj(vec![("value", Json::Float(0.8127))]))]),
            ),
            ("empty", Json::Arr(Vec::new())),
            ("list", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let line = compact(&j);
        assert!(!line.contains('\n'));
        let back = sjc_bench::baseline::parse(&line).unwrap();
        assert_eq!(
            back.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.8127)
        );
        assert_eq!(
            back.get("text"),
            Some(&sjc_bench::baseline::Value::Str("two\nlines  and \"quotes\"".to_string()))
        );
    }
}
