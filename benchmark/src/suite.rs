//! `run`, `trace` and `selfcheck`: every workload, each measured in a
//! child process of its own (so each starts on a cold dataset cache and
//! pool, and its peak memory is its own), gathered into `result.json`.

use std::path::Path;
use std::process::{Command, Stdio};

use sjc_bench::baseline::{parse, Value};
use sjc_core::json::Json;

use crate::decl::{decl, Decl, MetricDecl};
use crate::stats::{median, quartiles};
use crate::workloads::NAMES;
use crate::Args;

/// What one measuring child printed: its details line and its result line.
struct Measured {
    details: Value,
    result: Value,
}

impl Measured {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(Value::as_u64).unwrap_or(0)
    }

    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Value::Bool(true))
    }

    fn detail_u64(&self, key: &str) -> u64 {
        self.details.get(key).and_then(Value::as_u64).unwrap_or(0)
    }
}

fn selected(args: &Args) -> Vec<&'static str> {
    NAMES.iter().copied().filter(|n| args.workload.as_deref().is_none_or(|w| w == *n)).collect()
}

fn measure_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    cmd.arg("--out").arg(&args.out);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the run of {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("the run of {workload} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let (result, details) = (lines.next(), lines.next());
    let json = |line: Option<&str>, what: &str| {
        parse(line.ok_or(format!("the run of {workload} printed no {what} line"))?)
            .map_err(|e| format!("the {what} line of {workload}: {e}"))
    };
    Ok(Measured { result: json(result, "result")?, details: json(details, "details")? })
}

fn to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Num(n) => v.as_u64().map_or(Json::Float(*n), Json::Int),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Arr(items) => Json::Arr(items.iter().map(to_json).collect()),
        Value::Obj(fields) => {
            Json::Obj(fields.iter().map(|(k, v)| (k.clone(), to_json(v))).collect())
        }
    }
}

/// Rewrites `section` (and the host) of `result.json`, keeping what the
/// other command wrote there.
fn write_result(out: &Path, section: &str, measured: &[Measured]) -> Result<(), String> {
    let path = out.join("result.json");
    let mut fields: Vec<(String, Json)> = match std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| parse(&t).ok())
    {
        Some(Value::Obj(fields)) => fields.iter().map(|(k, v)| (k.clone(), to_json(v))).collect(),
        _ => Vec::new(),
    };
    fields.retain(|(k, _)| k != section && k != "host");
    if let Some(host) = measured.first().and_then(|m| m.details.get("host")) {
        fields.insert(0, ("host".to_string(), to_json(host)));
    }
    let rows = measured
        .iter()
        .map(|m| {
            let name = match m.details.get("workload") {
                Some(Value::Str(s)) => s.clone(),
                _ => "?".to_string(),
            };
            let failed = m.count("failed") as f64 / m.count("attempted").max(1) as f64;
            let row = Json::obj(vec![
                ("details", to_json(&m.details)),
                ("cell_fail_share", Json::Float(failed)),
                ("result", to_json(&m.result)),
            ]);
            (name, row)
        })
        .collect();
    fields.push((section.to_string(), Json::Obj(rows)));
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    std::fs::write(&path, Json::Obj(fields).to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// `run` (tracing off) and `trace`: every selected workload once.
pub fn run(args: &Args, trace: bool) -> Result<bool, String> {
    let d = decl();
    let mut measured = Vec::new();
    for workload in selected(args) {
        measured.push(measure_child(args, workload, args.seed, trace)?);
    }
    write_result(&args.out, if trace { "per_layer" } else { "end_to_end" }, &measured)?;

    let metrics = if trace { &d.per_layer } else { &d.end_to_end };
    println!(
        "{:<36} {}",
        "metric [unit]",
        selected(args).iter().map(|w| format!("{w:>16}")).collect::<String>()
    );
    let row = |label: String, cell: &dyn Fn(&Measured) -> String| {
        println!(
            "{label:<36} {}",
            measured.iter().map(|m| format!("{:>16}", cell(m))).collect::<String>()
        );
    };
    for m in metrics {
        row(format!("{} [{}]", m.name, m.unit), &|r| {
            r.metric(&m.name).map_or("-".to_string(), |v| format!("{v:.4}"))
        });
    }
    if !trace {
        // Printed, not gated: what the host made of the whole passes.
        for (label, key) in [
            ("pass_ms_floor / calib_ms [x]", "pass_ms_floor_per_calib"),
            ("pass_ms_min [ms]", "pass_ms_min"),
            ("pass_ms_p50 [ms]", "pass_ms_p50"),
            ("pass_ms_p67 [ms]", "pass_ms_p67"),
        ] {
            row(label.to_string(), &|r| {
                r.details
                    .get(key)
                    .and_then(Value::as_f64)
                    .map_or("-".to_string(), |v| format!("{v:.4}"))
            });
        }
        row("passes [count]".to_string(), &|r| r.detail_u64("passes").to_string());
    }
    row("threads [count]".to_string(), &|r| {
        let over = r.details.get("oversubscribed") == Some(&Value::Bool(true));
        format!("{}{}", r.detail_u64("threads"), if over { " oversubscribed" } else { "" })
    });
    row("cell_fail_share [fraction]".to_string(), &|r| {
        format!("{}/{}", r.count("failed"), r.count("attempted"))
    });
    row("sim_ns_sum [ns]".to_string(), &|r| r.detail_u64("sim_ns_sum").to_string());
    Ok(measured.iter().all(Measured::correct))
}

/// One metric of one workload over one set of runs.
struct Column {
    median: f64,
    quartiles: Option<(f64, f64)>,
}

impl Column {
    fn of(values: &[f64]) -> Column {
        Column { median: median(values), quartiles: (values.len() >= 2).then(|| quartiles(values)) }
    }

    fn spread(&self) -> Option<f64> {
        self.quartiles.map(|(q1, q3)| (q3 - q1) / self.median)
    }

    fn show(&self) -> String {
        match self.quartiles {
            Some((q1, q3)) => format!("{:>11.4} [{:>10.4} .. {:>10.4}]", self.median, q1, q3),
            None => format!("{:>11.4} {:>26}", self.median, ""),
        }
    }
}

/// Whether set B agrees with set A on metric `m` as the driver judges it:
/// B's median no worse than A's by more than the bound, and (set-up time
/// aside) either set's quartile spread within the bound.
fn verdict(m: &MetricDecl, a: &Column, b: &Column) -> (f64, bool) {
    let bound = m.bound.unwrap_or(f64::INFINITY);
    let worse = m.worsening(a.median, b.median);
    let steady =
        m.name == "setup_s" || [a, b].iter().all(|c| c.spread().is_none_or(|s| s <= bound));
    (worse, worse <= bound && steady)
}

/// `selfcheck`: the untraced set twice, back to back, `--runs` runs per
/// set with seeds `seed`, `seed + 1`, ...; both sets' medians and
/// quartiles side by side.
pub fn selfcheck(args: &Args) -> Result<bool, String> {
    let d: Decl = decl();
    let workloads = selected(args);
    let mut sets: Vec<Vec<Vec<Measured>>> = Vec::new();
    for set in ["A", "B"] {
        let mut per_workload: Vec<Vec<Measured>> = workloads.iter().map(|_| Vec::new()).collect();
        for run in 0..args.runs {
            for (w, workload) in workloads.iter().enumerate() {
                eprintln!("selfcheck: set {set}, run {} of {}, {workload}", run + 1, args.runs);
                per_workload[w].push(measure_child(args, workload, args.seed + run as u64, false)?);
            }
        }
        sets.push(per_workload);
    }

    let mut agree = true;
    println!(
        "{:<16} {:<12} {:>50} {:>50} {:>8} {:>6}",
        "workload",
        "metric",
        "set A: median [q1 .. q3]",
        "set B: median [q1 .. q3]",
        "worse",
        "bound"
    );
    for (w, workload) in workloads.iter().enumerate() {
        for m in &d.end_to_end {
            let column = |set: &[Vec<Measured>]| -> Result<Column, String> {
                let values: Option<Vec<f64>> = set[w].iter().map(|r| r.metric(&m.name)).collect();
                Ok(Column::of(&values.ok_or(format!("{workload} printed no {}", m.name))?))
            };
            let (a, b) = (column(&sets[0])?, column(&sets[1])?);
            let (worse, ok) = verdict(m, &a, &b);
            agree &= ok;
            println!(
                "{workload:<16} {:<12} {:>50} {:>50} {:>7.2}% {:>5.0}%{}",
                m.name,
                a.show(),
                b.show(),
                worse * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                if ok { "" } else { "  DISAGREE" },
            );
        }
        let runs = sets.iter().flat_map(|s| &s[w]);
        let (failed, attempted) =
            runs.fold((0, 0), |(f, a), r| (f + r.count("failed"), a + r.count("attempted")));
        println!("{workload:<16} cell_fail_share {failed}/{attempted}");
        agree &= failed == 0 && sets.iter().flat_map(|s| &s[w]).all(Measured::correct);
    }
    println!(
        "{}",
        if agree {
            "selfcheck: the two sets agree within every bound"
        } else {
            "selfcheck: FAILED"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher_is_better: bool) -> MetricDecl {
        MetricDecl { name: name.into(), unit: "ms".into(), higher_is_better, bound: Some(0.10) }
    }

    #[test]
    fn verdict_applies_bound_direction_and_spread() {
        let steady =
            |median: f64| Column { median, quartiles: Some((median * 0.99, median * 1.01)) };
        let lower = metric("pass_ms_floor", false);
        assert!(verdict(&lower, &steady(100.0), &steady(109.0)).1);
        assert!(!verdict(&lower, &steady(100.0), &steady(111.0)).1);
        assert!(verdict(&lower, &steady(100.0), &steady(50.0)).1, "better is never a disagreement");
        let higher = metric("krec_per_s", true);
        assert!(!verdict(&higher, &steady(100.0), &steady(89.0)).1);
        assert!(verdict(&higher, &steady(100.0), &steady(120.0)).1);
        // A set whose quartiles are wider than the bound disagrees with itself...
        let noisy = Column { median: 100.0, quartiles: Some((90.0, 105.0)) };
        assert!(!verdict(&lower, &steady(100.0), &noisy).1);
        // ...except for set-up time, which only its median is held to.
        assert!(verdict(&metric("setup_s", false), &steady(100.0), &noisy).1);
        // One run per set: no quartiles, the medians alone decide.
        let single = Column::of(&[100.0]);
        assert!(single.quartiles.is_none() && verdict(&lower, &single, &Column::of(&[105.0])).1);
    }

    #[test]
    fn json_values_convert_without_loss() {
        let v = parse(r#"{"a": [1, 2.5, "x", true, null], "b": {"c": 18446744073709}}"#).unwrap();
        let j = to_json(&v);
        assert_eq!(j.get("a").as_array().map(<[Json]>::len), Some(5));
        assert_eq!(j.get("b").get("c"), &Json::Int(18446744073709));
        assert_eq!(j.get("a").as_array().unwrap()[1], Json::Float(2.5));
    }
}
