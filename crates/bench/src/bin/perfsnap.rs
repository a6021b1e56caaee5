//! `perfsnap` — the one bless command: rewrites every file of
//! [`sjc_bench::snapshots::SNAPSHOTS`], run from the repo root.
//!
//! Every file holds simulated output only, so on any host and thread budget
//! a rerun is a no-op diff unless the cost model or a report changed; then
//! `git diff` shows exactly what moved. Tier-1 (`tests/snapshots.rs` and
//! the files it names) re-derives the in-process members; the examples and the benchmark run
//! here as CI runs them (`cargo run --release`). Host time is not measured
//! here — that is `benchmark/`'s job.
//!
//! ```text
//! cargo run --release -p sjc-bench --bin perfsnap
//! ```

use std::process::ExitCode;

use sjc_bench::snapshots::SNAPSHOTS;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("perfsnap: takes no arguments; rewrites every snapshot from the repo root");
        return ExitCode::from(2);
    }
    let mut status = ExitCode::SUCCESS;
    for snapshot in SNAPSHOTS {
        let files = match snapshot.render() {
            Ok(files) => files,
            Err(e) => {
                eprintln!("perfsnap: cannot render {}: {e}", snapshot.paths.join(", "));
                status = ExitCode::FAILURE;
                continue;
            }
        };
        for (path, text) in snapshot.paths.iter().zip(files) {
            match std::fs::write(path, text) {
                Ok(()) => println!("perfsnap: wrote {path}"),
                Err(e) => {
                    eprintln!("perfsnap: cannot write {path}: {e}");
                    status = ExitCode::FAILURE;
                }
            }
        }
    }
    status
}
