//! Tier-1 pin of simulated time against the two checked-in fingerprints.
//!
//! `BENCH_baseline.json` (the Table-2 grid's summed `sim_ns`) and
//! `BENCH_faults.json` (the per-system fault sweep) hold only simulated
//! numbers, so they must not vary by host, thread budget or commit. Every
//! test here re-derives them through `sjc_bench::fingerprint` — the same
//! functions `perfsnap` writes the files from — and compares with the
//! checked-in text, which pins the cost model's output and the zero-fault
//! path being the identity (the grid runs under `FaultPlan::none()`). If a
//! PR moves a number on purpose, regenerate both files:
//! `cargo run --release -p sjc-bench --bin perfsnap`. Host time is not
//! asserted anywhere in tier-1; `benchmark/` measures it.

use std::path::Path;

use sjc_bench::baseline::{self, Value};
use sjc_bench::fingerprint::{self, file_text};
use sjc_cluster::{RecoveryKind, RunTrace};
use sjc_core::json::Json;

const BASELINE: &str = "BENCH_baseline.json";
const FAULTS: &str = "BENCH_faults.json";

fn checked_in(name: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(name))
        .unwrap_or_else(|e| panic!("{name} is checked in at the repo root: {e}"))
}

#[test]
fn zero_fault_systems_e2e_matches_checked_in_baseline() {
    let doc = baseline::parse(&checked_in(BASELINE)).expect("parses (no duplicate keys)");
    let expected = doc
        .get("systems_e2e")
        .and_then(|row| row.get("sim_ns"))
        .and_then(Value::as_u64)
        .expect("snapshot has an integer systems_e2e.sim_ns");
    assert_eq!(
        *fingerprint::systems_e2e().get("systems_e2e").get("sim_ns"),
        Json::Int(expected),
        "simulated systems_e2e time drifted from {BASELINE} — either the zero-fault path is \
         no longer the identity, or a deliberate cost-model change needs a regeneration \
         (cargo run --release -p sjc-bench --bin perfsnap)"
    );
}

#[test]
fn fault_sweep_matches_checked_in_snapshot() {
    assert_eq!(file_text(&fingerprint::fault_sweep()), checked_in(FAULTS));
}

#[test]
fn snapshots_hold_only_host_independent_numbers() {
    fn assert_no_host_keys(file: &str, value: &Value) {
        let Value::Obj(fields) = value else { return };
        for (key, child) in fields {
            for retired in ["wall_ms", "phase_ms", "_ms", "threads"] {
                assert!(!key.ends_with(retired), "{file}: key `{key}` is a host measurement");
            }
            assert_no_host_keys(file, child);
        }
    }
    for file in [BASELINE, FAULTS] {
        let doc = baseline::parse(&checked_in(file)).expect("parses (no duplicate keys)");
        assert!(matches!(&doc, Value::Obj(rows) if !rows.is_empty()), "{file} holds no rows");
        assert_no_host_keys(file, &doc);
    }
}

#[test]
fn regenerated_snapshots_are_byte_identical_across_thread_budgets() {
    for threads in [1, 8] {
        sjc_par::set_global_threads(threads);
        assert_eq!(file_text(&fingerprint::systems_e2e()), checked_in(BASELINE), "@{threads}");
        assert_eq!(file_text(&fingerprint::fault_sweep()), checked_in(FAULTS), "@{threads}");
    }
    sjc_par::set_global_threads(0);
}

/// ROADMAP 5(b): why `heavy_ckpt1_sim_ns == heavy_ckpt2_sim_ns` for both
/// Hadoop systems. The checkpoint *interval* is live only where stages
/// accumulate between checkpoints — the RDD context counts completed stages
/// against it, so every-wave checkpointing writes more often and pays
/// exactly that premium. A MapReduce job has one map wave, whose spill is
/// persisted whenever checkpointing is on at all (`job.rs` reads only
/// `checkpoint.enabled()`), so intervals 1 and 2 are the same plan there.
#[test]
fn checkpoint_interval_is_a_live_knob() {
    // (checkpoint writes, their summed critical-path cost)
    let writes = |t: &RunTrace| {
        let is_write = |k: &RecoveryKind| matches!(k, RecoveryKind::CheckpointWrite { .. });
        let premiums = t.recovery.iter().filter(|e| is_write(&e.kind)).map(|e| e.wasted_ns);
        (premiums.clone().count(), premiums.sum::<u64>())
    };
    for (system, runs) in fingerprint::fault_sweep_runs() {
        let trace = |axis: &str| {
            let run = runs.iter().find(|(label, _)| *label == axis).map(|(_, run)| run.as_ref());
            run.and_then(Result::ok).unwrap_or_else(|| panic!("{system} survives {axis}"))
        };
        let (every2, every1) = (trace("heavy_ckpt2"), trace("heavy_ckpt1"));
        let ((n2, premium2), (n1, premium1)) = (writes(every2), writes(every1));
        assert!(n2 > 0, "{system}: checkpointing is on");
        if system == "SpatialSpark" {
            assert!(n1 > n2, "{system}: every wave writes more often ({n1} vs {n2})");
            assert_eq!(every1.total_ns() - every2.total_ns(), premium1 - premium2, "{system}");
        } else {
            assert_eq!(every1.recovery, every2.recovery, "{system}: one ledger at 1 and 2");
            assert_eq!(every1.total_ns(), every2.total_ns(), "{system}");
        }
    }
}
