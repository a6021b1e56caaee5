//! HadoopGIS's simulated ledger, pinned stage by stage.
//!
//! `BENCH_baseline.json` pins one summed `sim_ns` and `BENCH_faults.json`
//! one total per fault plan; neither would notice a byte moving between two
//! HadoopGIS stages. `tests/fixtures/hadoopgis_ledger.txt`, a member of the
//! snapshot set (`sjc_bench::snapshots::ledgers::hadoopgis` renders it),
//! holds the text path to its parent: it is re-derived at 1 and 4 host
//! threads, each time over fresh record sets, cold then warm on the same
//! inputs, and compared byte for byte.
//! A deliberate cost-model change rewrites the whole set with
//! `cargo run --release -p sjc-bench --bin perfsnap`.

mod common;

#[test]
fn hadoopgis_ledger_matches_the_fixture_at_1_and_4_threads() {
    common::assert_rederived(|s| s.paths == ["tests/fixtures/hadoopgis_ledger.txt"]);
}
