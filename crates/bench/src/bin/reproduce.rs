//! `reproduce` — regenerates the paper's tables and figure.
//!
//! ```text
//! reproduce [all|table1|table2|table3|fig1|speedups|scalability|extension|ablations] [--scale S] [--seed N] [--json PATH]
//! ```
//!
//! Everything is deterministic for a fixed `--scale`/`--seed`.

use std::io::Write as _;

use sjc_bench::{fig1_traces, run_tables};
use sjc_core::report;

struct Args {
    what: String,
    scale: f64,
    seed: u64,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { what: "all".to_string(), scale: 1e-3, seed: 20150701, json: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it.next().and_then(|v| v.parse().ok()).expect("--scale needs a float");
            }
            "--seed" => {
                args.seed =
                    it.next().and_then(|v| v.parse().ok()).expect("--seed needs an integer");
            }
            "--json" => {
                args.json = Some(it.next().expect("--json needs a path"));
            }
            "--help" | "-h" => {
                println!(
                    "reproduce — regenerate the tables and figure of 'Spatial Join Query \
                     Processing in Cloud' (ICPP 2015)\n\n\
                     USAGE: reproduce [WHAT] [--scale S] [--seed N] [--json PATH]\n\n\
                     WHAT: all (default) | table1 | table2 | table3 | fig1 | speedups |\n      \
                     scalability | extension | ablations\n\
                     --scale S   generation scale (domain-area fraction; default 1e-3)\n\
                     --seed N    RNG seed (default 20150701)\n\
                     --json P    also dump machine-readable results to P"
                );
                std::process::exit(0);
            }
            w if !w.starts_with('-') => args.what = w.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "# Reproduction of 'Spatial Join Query Processing in Cloud' (ICPP 2015)\n\
         # generation scale {:.0e}, seed {}\n",
        args.scale, args.seed
    );

    let want = |w: &str| args.what == "all" || args.what == w;

    if want("table1") {
        println!("{}", report::table1_string(args.scale, args.seed));
    }

    let need_tables = want("table2") || want("table3") || want("speedups");
    let (t2, t3) =
        if need_tables { run_tables(args.scale, args.seed) } else { (Vec::new(), Vec::new()) };

    if want("table2") {
        println!("{}", report::table2_string(&t2));
    }
    if want("table3") {
        println!("{}", report::table3_string(&t3));
    }
    if want("speedups") {
        println!("{}", report::speedups_string(&t2, &t3));
    }
    if want("fig1") {
        let traces = fig1_traces(args.scale, args.seed);
        println!("{}", report::fig1_string(&traces));
    }
    if want("scalability") {
        println!("{}", report::scalability_string(args.scale, args.seed));
    }
    if want("extension") {
        println!("{}", report::extension_string(args.scale, args.seed));
    }
    if want("ablations") {
        println!("Ablations (design choices isolated on shared substrates; simulated seconds)\n");
        println!("{}", sjc_core::ablation::report((args.scale / 2.0).max(1e-4), args.seed));
    }

    if let Some(path) = args.json {
        use sjc_core::json::{Json, ToJson};
        let payload = Json::obj(vec![
            ("scale", Json::Float(args.scale)),
            ("seed", Json::Int(args.seed)),
            ("table2", t2.as_slice().to_json()),
            ("table3", t3.as_slice().to_json()),
        ]);
        let mut f = std::fs::File::create(&path).expect("create json output");
        f.write_all(payload.to_string_pretty().as_bytes()).expect("write json output");
        println!("wrote {path}");
    }
}
