//! SpatialHadoop's, SpatialSpark's and LDE's simulated ledgers, pinned
//! stage by stage, for every configuration the ablations flip.
//!
//! `tests/fixtures/engine_ledger.txt` is a member of the snapshot set
//! (`sjc_bench::snapshots::ledgers::engines` renders it): every stage's
//! full `StageTrace`, the sorted result pairs' hash, every error payload and
//! every recovery event, re-derived at 1 and 4 host threads and compared
//! byte for byte. A deliberate cost-model change rewrites the whole set with
//! `cargo run --release -p sjc-bench --bin perfsnap`.

mod common;

#[test]
fn engine_ledger_matches_the_fixture_at_1_and_4_threads() {
    common::assert_rederived(|s| s.paths == ["tests/fixtures/engine_ledger.txt"]);
}
