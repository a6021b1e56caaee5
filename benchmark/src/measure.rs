//! One workload, measured in this process: the end-to-end run (tracing
//! off) or the traced run. Prints a report for people on stderr and two
//! JSON lines on stdout: the details (pass count, fingerprint, simulated
//! time) and, last, the result line the driver reads.

use std::process::Command;
use std::time::{Duration, Instant};

use sjc_core::json::Json;

use crate::decl::decl;
use crate::host::{budget_label, fingerprint, peak_rss_mb, Fingerprint};
use crate::layers::{self, Metrics};
use crate::spans::Recorder;
use crate::stats::{median, nth_smallest, p50_rank, p67_rank, quartiles};
use crate::verify::{Checker, PairSig};
use crate::workloads::{bench, prepare, run_pass, Bench, Pass, Prepared};
use crate::{compact, Args, E2E};

/// Cold processes whose set-up time is sampled per run; the median goes
/// out as `setup_s`.
const SETUP_SAMPLES: usize = 5;
/// Timed passes of a `--smoke` run, whatever `--seconds` says.
const SMOKE_PASSES: usize = 3;

/// `--setup-probe`: what a cold process pays before its first warm pass —
/// inputs generated on a cold dataset cache (`Workload::prepare`), then
/// the first pass on a cold pool. Prints the seconds since `started`.
pub fn setup_probe(args: &Args, started: Instant) -> Result<(), String> {
    let bench = named(args)?;
    sjc_par::set_global_threads(bench.threads());
    let prep = prepare(&bench, args.seed);
    std::hint::black_box(run_pass(&bench, &prep, &mut Recorder::off()).wall_ms);
    println!("{}", started.elapsed().as_secs_f64());
    Ok(())
}

fn named(args: &Args) -> Result<Bench, String> {
    let name = args.workload.as_deref().ok_or("--workload NAME is required")?;
    bench(name, args.smoke).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn setup_samples(args: &Args, name: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let n = if args.smoke { 1 } else { SETUP_SAMPLES };
    (0..n)
        .map(|_| {
            let mut cmd = Command::new(&exe);
            cmd.args(["--setup-probe", "--workload", name, "--seed", &args.seed.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| format!("cannot start the set-up probe: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "the set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("the set-up probe printed no time: {e}"))
        })
        .collect()
}

fn record(checker: &mut Checker, pass_name: &str, pass: &Pass) {
    for (i, outcome) in pass.outcomes.iter().enumerate() {
        checker.run(pass_name, i, pass.cell_wall_ms(i), outcome);
    }
}

/// Runs `body` until `seconds` have passed (three times under `--smoke`).
fn for_seconds(args: &Args, seconds: f64, mut body: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = 0;
    loop {
        body();
        done += 1;
        if if args.smoke { done >= SMOKE_PASSES } else { Instant::now() >= deadline } {
            break;
        }
    }
}

fn metrics_json(values: &[(&str, &str, f64)]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|&(name, unit, value)| {
                let v = Json::obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (name.to_string(), v)
            })
            .collect(),
    )
}

/// The checks that need every pass done: oracle, paper pattern, faulted
/// twin, and the 1-thread replay of a multi-threaded workload. Returns the
/// simulated-time fingerprint at the workload's budget and at one thread.
fn final_checks(
    bench: &Bench,
    prep: &Prepared,
    oracles: &[PairSig],
    first: &Pass,
    checker: &mut Checker,
) -> (u64, u64) {
    for (i, cell) in prep.cells.iter().enumerate() {
        checker.cell(i, cell.expect, oracles[cell.oracle_input], cell.twin);
    }
    let sim_ns_sum = first.sim_ns_sum();
    if bench.threads() == 1 {
        return (sim_ns_sum, sim_ns_sum);
    }
    sjc_par::set_global_threads(1);
    let replay = run_pass(bench, prep, &mut Recorder::off());
    sjc_par::set_global_threads(bench.threads());
    record(checker, "1-thread replay", &replay);
    (sim_ns_sum, replay.sim_ns_sum())
}

fn details(
    args: &Args,
    bench: &Bench,
    host: &Fingerprint,
    sims: (u64, u64),
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut fields = vec![
        ("workload", Json::Str(bench.name.to_string())),
        ("seed", Json::Int(args.seed)),
        ("smoke", Json::Bool(args.smoke)),
        ("threads", Json::Int(bench.threads() as u64)),
        ("oversubscribed", Json::Bool(bench.threads() > host.nproc)),
        ("sim_ns_sum", Json::Int(sims.0)),
        ("sim_ns_sum_1t", Json::Int(sims.1)),
        ("host", host.to_json()),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

fn print_lines(details: &Json, checker: &Checker, correct: bool, metrics: Json) {
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(checker.attempted())),
        ("failed", Json::Int(checker.failed())),
        ("metrics", metrics),
    ]);
    println!("{}", compact(details));
    println!("{}", compact(&result));
}

fn report_header(
    bench: &Bench,
    args: &Args,
    host: &Fingerprint,
    checker: &Checker,
    sims: (u64, u64),
) {
    eprintln!(
        "{}  seed={}  threads={}  nproc={}  calib_ms={:.2}  {}  commit={}",
        bench.name,
        args.seed,
        budget_label(bench.threads(), host.nproc),
        host.nproc,
        host.calib_ms,
        host.rustc,
        host.git_commit,
    );
    let (attempted, failed) = (checker.attempted(), checker.failed());
    eprintln!(
        "  cells attempted={attempted} failed={failed} cell_fail_share={}  sim_ns_sum={} (at 1 thread: {}{})",
        failed as f64 / attempted.max(1) as f64,
        sims.0,
        sims.1,
        if sims.0 == sims.1 { ", identical" } else { ", DIFFERENT" },
    );
    if checker.printed > 20 {
        eprintln!("  ({} failure lines in all; the first 20 are printed)", checker.printed);
    }
}

/// What both kinds of run start with: the workload at its thread budget,
/// its inputs, and the cold first pass every later pass is held to.
fn begin(args: &Args) -> Result<(Bench, Prepared, Checker, Pass), String> {
    let bench = named(args)?;
    sjc_par::set_global_threads(bench.threads());
    let prep = prepare(&bench, args.seed);
    let mut checker = Checker::new(prep.cells.iter().map(|c| c.label.clone()).collect());
    let first = run_pass(&bench, &prep, &mut Recorder::off());
    record(&mut checker, "cold", &first);
    Ok((bench, prep, checker, first))
}

fn run_seconds(args: &Args) -> f64 {
    args.seconds.unwrap_or(decl().run_seconds as f64)
}

/// The end-to-end run: tracing off.
pub fn end_to_end(args: &Args) -> Result<(), String> {
    let setups = setup_samples(args, named(args)?.name)?;
    let (bench, prep, mut checker, first) = begin(args)?;
    let mut off = Recorder::off();
    record(&mut checker, "warm", &run_pass(&bench, &prep, &mut off));

    // Per timed pass, the wall of each of its clocked units.
    let mut timed: Vec<Vec<f64>> = Vec::new();
    for_seconds(args, run_seconds(args), || {
        let pass = run_pass(&bench, &prep, &mut off);
        record(&mut checker, "timed", &pass);
        timed.push(pass.unit_ms);
    });
    let peak_rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let host = fingerprint();
    let sims = final_checks(&bench, &prep, &prep.oracles(), &first, &mut checker);

    // The gated pass time is the floor: every separately clocked unit of
    // the pass (a cell run) at the fastest it ran in this run. Host
    // interference only ever adds time, and on a shared host it adds
    // 10-50 % for seconds to minutes at a stretch, so of all statistics of
    // ~30 passes the floor is the one that repeats from run to run (see
    // README, "Why the floor").
    let n = timed.len();
    let walls: Vec<f64> = timed.iter().map(|units| units.iter().sum()).collect();
    // (A pass that panicked has one unit, the whole pass; it is counted as
    // failed and has no part in the floor.)
    let units = first.unit_ms.len();
    let floor: f64 = (0..units)
        .map(|u| {
            let runs = timed.iter().filter(|p| p.len() == units).map(|p| p[u]);
            runs.fold(f64::INFINITY, f64::min)
        })
        .sum();
    let krec_per_s = prep.records_per_pass() as f64 / floor;
    let values = [median(&setups), floor, krec_per_s, peak_rss];
    let named_values: Vec<(&str, &str, f64)> =
        E2E.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect();

    report_header(&bench, args, &host, &checker, sims);
    let notes = [
        format!("median of {} cold processes: {:?}", setups.len(), setups),
        format!(
            "sum over the pass's {units} clocked units of each unit's fastest of n={n} runs; {:.3} x calib_ms",
            floor / host.calib_ms
        ),
        format!("{} records per pass / pass_ms_floor", prep.records_per_pass()),
        "VmHWM right after the last timed pass".to_string(),
    ];
    for (&(name, unit, value), note) in named_values.iter().zip(notes) {
        eprintln!("  {name:<14} {value:>12.4} {unit:<7} ({note})");
    }
    // What the host made of the passes: printed, not gated.
    let best = nth_smallest(&walls, 1);
    let p50 = nth_smallest(&walls, p50_rank(n));
    let p67 = nth_smallest(&walls, p67_rank(n));
    let (q1, q3) = if n >= 2 { quartiles(&walls) } else { (p50, p50) };
    let observed = [
        ("pass_ms_min", best, format!("the fastest of n={n} passes")),
        (
            "pass_ms_p50",
            p50,
            format!("n={n} passes, the {}th smallest; quartiles {q1:.2}..{q3:.2}", p50_rank(n)),
        ),
        (
            "pass_ms_p67",
            p67,
            format!("n={n} passes, the {}th smallest, {} beyond it", p67_rank(n), n - p67_rank(n)),
        ),
    ];
    for (name, value, note) in &observed {
        eprintln!("  {name:<14} {value:>12.4} {:<7} ({note}; not gated)", "ms");
    }

    let mut extra = vec![
        ("passes", Json::Int(n as u64)),
        ("pass_ms_q1", Json::Float(q1)),
        ("pass_ms_q3", Json::Float(q3)),
        ("pass_ms_floor_per_calib", Json::Float(floor / host.calib_ms)),
        ("records_per_pass", Json::Int(prep.records_per_pass())),
        ("setup_samples", Json::Arr(setups.iter().map(|&s| Json::Float(s)).collect())),
    ];
    extra.extend(observed.iter().map(|(name, value, _)| (*name, Json::Float(*value))));
    let correct = checker.failed() == 0 && sims.0 == sims.1;
    print_lines(
        &details(args, &bench, &host, sims, extra),
        &checker,
        correct,
        metrics_json(&named_values),
    );
    Ok(())
}

/// The traced run: per iteration one untraced pass, one traced pass and
/// every layer section; each metric goes out as its median over the
/// iterations, and the last iteration's spans as a trace-event file.
pub fn traced(args: &Args) -> Result<(), String> {
    let (bench, prep, mut checker, first) = begin(args)?;
    let oracles = prep.oracles();

    let mut layers_correct = true;
    let mut iterations: Vec<Metrics> = Vec::new();
    let mut last = Recorder::new();
    for_seconds(args, run_seconds(args), || {
        let untraced = run_pass(&bench, &prep, &mut Recorder::off());
        record(&mut checker, "untraced", &untraced);
        let mut rec = Recorder::new();
        let traced = run_pass(&bench, &prep, &mut rec);
        record(&mut checker, "traced", &traced);
        let (mut m, ok) = layers::measure(&mut rec, &bench, &prep, &traced, &oracles);
        layers_correct &= ok;
        m.insert("trace_overhead_pct", (traced.wall_ms / untraced.wall_ms - 1.0) * 100.0);
        m.insert("trace.spans", rec.spans.len() as f64);
        iterations.push(m);
        last = rec;
    });

    let host = fingerprint();
    let sims = final_checks(&bench, &prep, &oracles, &first, &mut checker);

    let named_values: Vec<(&str, &str, f64)> = layers::METRICS
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = iterations
                .iter()
                .map(|m| {
                    *m.get(name).unwrap_or_else(|| panic!("the traced run measured no `{name}`"))
                })
                .collect();
            (name, unit, median(&values))
        })
        .collect();

    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let path = args.out.join(format!("trace-{}.json", bench.name));
    std::fs::write(&path, last.chrome_trace(bench.name).to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    report_header(&bench, args, &host, &checker, sims);
    eprintln!(
        "  per-layer medians over {} traced iterations; spans of the last in {}",
        iterations.len(),
        path.display()
    );
    for &(name, unit, value) in &named_values {
        eprintln!("  {:<10} {name:<36} {value:>14.4} {unit}", crate::spans::layer_of(name));
    }

    let extra = vec![
        ("iterations", Json::Int(iterations.len() as u64)),
        ("trace_file", Json::Str(path.display().to_string())),
    ];
    let correct = checker.failed() == 0 && layers_correct && sims.0 == sims.1;
    print_lines(
        &details(args, &bench, &host, sims, extra),
        &checker,
        correct,
        metrics_json(&named_values),
    );
    Ok(())
}
