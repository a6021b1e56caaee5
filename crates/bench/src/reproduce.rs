//! `reproduce`'s body: every table and figure of the paper as text, and the
//! `--json` payload. The binary parses its arguments and prints this; the
//! snapshot set renders it at two scales.

use std::fmt::Write as _;

use sjc_core::experiment::CellResult;
use sjc_core::json::{Json, ToJson};
use sjc_core::report;

use crate::{fig1_traces, run_tables};

/// The reports `reproduce` can print, by the `WHAT` that selects one; `all`
/// prints every one.
pub const REPORTS: &str = "all|table1|table2|table3|fig1|speedups|scalability|extension|ablations";

/// One piece of `reproduce`'s work, independent of the others: its text,
/// and the `--json` payload when it ran the tables.
pub type ReportWork = Box<dyn FnOnce() -> (String, Option<Json>) + Send>;

/// The `--json` payload: the scale, the seed and both tables.
fn payload(scale: f64, seed: u64, t2: &[CellResult], t3: &[CellResult]) -> Json {
    Json::obj(vec![
        ("scale", Json::Float(scale)),
        ("seed", Json::Int(seed)),
        ("table2", t2.to_json()),
        ("table3", t3.to_json()),
    ])
}

/// `reproduce WHAT --scale S --seed N` as independent pieces of work in
/// print order: the header, then one per report `what` selects (table 2,
/// table 3 and the speedups share one run of the tables). Their texts,
/// concatenated, are what `reproduce` prints; a `what` outside [`REPORTS`]
/// selects no report.
pub fn report_works(what: &str, scale: f64, seed: u64) -> Vec<ReportWork> {
    let want = |w: &str| what == "all" || what == w;
    let header = format!(
        "# Reproduction of 'Spatial Join Query Processing in Cloud' (ICPP 2015)\n\
         # generation scale {scale:.0e}, seed {seed}\n\n"
    );
    let mut works: Vec<ReportWork> = vec![Box::new(move || (header, None))];
    if want("table1") {
        works.push(Box::new(move || (report::table1_string(scale, seed) + "\n", None)));
    }
    let (table2, table3, speedups) = (want("table2"), want("table3"), want("speedups"));
    if table2 || table3 || speedups {
        works.push(Box::new(move || {
            let (t2, t3) = run_tables(scale, seed);
            let mut text = String::new();
            if table2 {
                let _ = writeln!(text, "{}", report::table2_string(&t2));
            }
            if table3 {
                let _ = writeln!(text, "{}", report::table3_string(&t3));
            }
            if speedups {
                let _ = writeln!(text, "{}", report::speedups_string(&t2, &t3));
            }
            (text, Some(payload(scale, seed, &t2, &t3)))
        }));
    }
    if want("fig1") {
        works.push(Box::new(move || (report::fig1_string(&fig1_traces(scale, seed)) + "\n", None)));
    }
    if want("scalability") {
        works.push(Box::new(move || (report::scalability_string(scale, seed) + "\n", None)));
    }
    if want("extension") {
        works.push(Box::new(move || (report::extension_string(scale, seed) + "\n", None)));
    }
    if want("ablations") {
        works.push(Box::new(move || {
            let report = sjc_core::ablation::report((scale / 2.0).max(1e-4), seed);
            let title =
                "Ablations (design choices isolated on shared substrates; simulated seconds)";
            (format!("{title}\n\n{report}\n"), None)
        }));
    }
    works
}

/// `reproduce WHAT --scale S --seed N`: what it prints and the payload
/// `--json` writes (its tables empty unless `what` runs them), from
/// [`report_works`] run in order.
pub fn reproduce(what: &str, scale: f64, seed: u64) -> (String, Json) {
    let mut text = String::new();
    let mut json = None;
    for work in report_works(what, scale, seed) {
        let (part, payload) = work();
        text.push_str(&part);
        json = json.or(payload);
    }
    (text, json.unwrap_or_else(|| payload(scale, seed, &[], &[])))
}
