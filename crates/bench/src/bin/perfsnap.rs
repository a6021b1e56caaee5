//! `perfsnap` — regenerates the two simulated-time pins at the repo root.
//!
//! Writes [`sjc_bench::fingerprint::systems_e2e`] to `BENCH_baseline.json`
//! and [`sjc_bench::fingerprint::fault_sweep`] to `BENCH_faults.json`.
//! Everything in them is simulated time, so on any host and thread budget a
//! rerun is a no-op diff unless the cost model changed; tier-1
//! (`tests/perf_baseline.rs`) re-derives both and compares. Host time is
//! not measured here — that is `benchmark/`'s job.
//!
//! ```text
//! cargo run --release -p sjc-bench --bin perfsnap
//! ```

use std::process::ExitCode;

use sjc_bench::fingerprint;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("perfsnap: takes no arguments; writes BENCH_baseline.json and BENCH_faults.json");
        return ExitCode::from(2);
    }
    let files = [
        ("BENCH_baseline.json", fingerprint::systems_e2e()),
        ("BENCH_faults.json", fingerprint::fault_sweep()),
    ];
    for (path, json) in files {
        if let Err(e) = std::fs::write(path, fingerprint::file_text(&json)) {
            eprintln!("perfsnap: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("perfsnap: wrote {path}");
    }
    ExitCode::SUCCESS
}
