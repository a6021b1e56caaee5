//! Every simulated output the repo checks in, re-derived and compared.
//!
//! `sjc_bench::snapshots::SNAPSHOTS` lists each checked-in file with its
//! renderer. Simulated output never depends on the host or its thread
//! budget, so every member rendered in this process is re-derived at each
//! of its budgets and must match its file byte for byte. The two engine
//! ledgers and the two `BENCH_*.json` fingerprints are checked by their own
//! files (`CHECKED_ELSEWHERE`); this one checks every other member, and a
//! failure names every file that moved. If a change moves simulated output
//! on purpose, rewrite the whole set with
//! `cargo run --release -p sjc-bench --bin perfsnap` and commit the diff.
//! Host time is not asserted anywhere in tier-1; `benchmark/` measures it.

mod common;

use std::path::Path;

use sjc_bench::snapshots::{self, SNAPSHOTS};

/// Members another test file re-derives at their budgets:
/// `tests/engine_ledger.rs`, `tests/hadoopgis_ledger.rs` and
/// `tests/perf_baseline.rs`.
const CHECKED_ELSEWHERE: [&str; 4] = [
    "tests/fixtures/engine_ledger.txt",
    "tests/fixtures/hadoopgis_ledger.txt",
    "BENCH_baseline.json",
    "BENCH_faults.json",
];

#[test]
fn every_other_snapshot_matches_its_derivation_at_every_budget() {
    common::assert_rederived(|s| !s.paths.iter().any(|p| CHECKED_ELSEWHERE.contains(p)));
}

#[test]
fn every_snapshot_is_listed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let listed: Vec<&str> = SNAPSHOTS.iter().flat_map(|s| s.paths.iter().copied()).collect();
    for path in &listed {
        assert!(root.join(path).is_file(), "{path} is listed but not checked in");
    }
    for path in CHECKED_ELSEWHERE {
        assert!(listed.contains(&path), "{path} is checked elsewhere but in no SNAPSHOTS entry");
    }
    let dir = std::fs::read_dir(root.join(snapshots::DIR)).expect("the snapshot directory exists");
    for entry in dir {
        let name = entry.expect("readable").file_name();
        let path = format!("{}/{}", snapshots::DIR, name.to_string_lossy());
        assert!(listed.contains(&path.as_str()), "{path} is in no SNAPSHOTS entry");
    }
}
