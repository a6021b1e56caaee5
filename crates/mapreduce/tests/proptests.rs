//! Property-based tests for the MapReduce engine: semantic equivalence with
//! plain in-memory folds and a reference grouping model, and cost
//! monotonicity (seeded `sjc-testkit` cases).

use sjc_cluster::metrics::Phase;
use sjc_cluster::{Cluster, ClusterConfig, SimHdfs};
use sjc_mapreduce::{block_splits, JobConfig, MapReduceJob, MapTask};
use sjc_rdd::SparkContext;
use sjc_testkit::{cases, TestRng};
use std::collections::BTreeMap;

const N: usize = 64;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::workstation())
}

fn words(rng: &mut TestRng, elems: std::ops::Range<u64>, len: std::ops::Range<usize>) -> Vec<u32> {
    rng.vec_u64(elems, len).into_iter().map(|w| w as u32).collect()
}

#[test]
fn map_reduce_equals_hashmap_fold() {
    cases(0x3A01, N, |rng| {
        let words = words(rng, 0..50, 0..500);
        let cluster = cluster();
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let cfg = JobConfig::new("wc", Phase::DistributedJoin, 1.0).write_output(false);
        let outcome = engine
            .map_reduce(
                &cfg,
                block_splits(&words, 4.0, 64),
                |w, em| em.emit(*w, 1u64, 8),
                |k, vs, em| em.emit((*k, vs.len() as u64), 16),
            )
            .unwrap();
        let mut expected: BTreeMap<u32, u64> = BTreeMap::new();
        for w in &words {
            *expected.entry(*w).or_default() += 1;
        }
        let got: BTreeMap<u32, u64> = outcome.output.into_iter().collect();
        assert_eq!(got, expected);
    });
}

/// The shuffle's grouping contract, against a plain reference model: keys
/// reach the reducer in ascending order; within a key, values arrive in task
/// order, then emission order; and `group_bytes[g]` is the sum over tasks of
/// (that key's pairs in the task) × `task_bytes / max(task_pairs, 1)`, in
/// integer division. `Rdd::group_by_key` must keep the same value order over
/// the same pairs read as one dataset.
#[test]
fn grouping_matches_the_reference_model() {
    cases(0x3A02, N, |rng| {
        // 0: one key; 1: every pair its own key; 2: a few repeated keys.
        let shape = rng.usize_in(0..3);
        let mut fresh = 0u32;
        let mut key = |rng: &mut TestRng| match shape {
            0 => 7,
            1 => {
                fresh += 1;
                // Odd multiplier: distinct keys, emitted out of order.
                fresh.wrapping_mul(0x9E37_79B1)
            }
            _ => rng.u32_in(0..6),
        };
        // A record is its emission list: (key, serialized bytes, payload).
        // About a quarter of the tasks are empty, and some records emit
        // nothing, so `task_pairs` can be zero.
        let mut tasks: Vec<MapTask<Vec<(u32, u64, u32)>>> = Vec::new();
        for _ in 0..rng.usize_in(1..8) {
            let n_recs = if rng.bool_with(0.25) { 0 } else { rng.usize_in(1..12) };
            let mut recs = Vec::with_capacity(n_recs);
            for _ in 0..n_recs {
                let n_emit = rng.usize_in(0..4);
                let emits: Vec<(u32, u64, u32)> = (0..n_emit)
                    .map(|_| (key(rng), rng.u64_in(0..200), rng.u32_in(0..1_000_000)))
                    .collect();
                recs.push(emits);
            }
            tasks.push(MapTask::new(recs, rng.u64_in(0..10_000)));
        }

        // Reference model: every pair with its task, in task then emission
        // order, and each task's byte split.
        let mut pairs: Vec<(usize, u32, u32)> = Vec::new();
        let mut task_share: Vec<u64> = Vec::new();
        for (t, task) in tasks.iter().enumerate() {
            let emits: Vec<&(u32, u64, u32)> = task.records.iter().flatten().collect();
            let task_bytes: u64 = emits.iter().map(|e| e.1).sum();
            task_share.push(task_bytes / (emits.len() as u64).max(1));
            pairs.extend(emits.iter().map(|&&(k, _, v)| (t, k, v)));
        }
        let mut keys: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        keys.sort_unstable();
        keys.dedup();
        let values_of =
            |k: u32| -> Vec<u32> { pairs.iter().filter(|p| p.1 == k).map(|p| p.2).collect() };
        let expected: Vec<(u32, Vec<u32>)> = keys.iter().map(|&k| (k, values_of(k))).collect();
        let expected_bytes: Vec<u64> = keys
            .iter()
            .map(|&k| pairs.iter().filter(|p| p.1 == k).map(|p| task_share[p.0]).sum())
            .collect();

        let cluster = cluster();
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let cfg = JobConfig::new("group", Phase::DistributedJoin, 1.0).write_output(false);
        let outcome = engine
            .map_reduce(
                &cfg,
                tasks,
                |rec, em| {
                    for &(k, bytes, v) in rec {
                        em.emit(k, v, bytes);
                    }
                },
                |k, vs, em| em.emit((*k, vs.to_vec()), 8),
            )
            .unwrap();
        assert_eq!(outcome.output, expected, "key order, then task and emission order");
        assert_eq!(outcome.group_bytes, expected_bytes, "per-task integer byte split");
        assert_eq!(outcome.stats.reduce_tasks, keys.len() as u64);

        // The RDD shuffle over the same pairs, read in the same order.
        let records: Vec<(u64, u64)> = pairs.iter().map(|p| (p.1 as u64, p.2 as u64)).collect();
        let input_bytes = records.len() as u64 * 16;
        let shuffle_parts = rng.usize_in(1..6);
        let mut ctx = SparkContext::new(&cluster);
        let grouped = ctx
            .read_text(records, input_bytes, 1.0)
            .group_by_key(&mut ctx, "g", Phase::DistributedJoin, shuffle_parts)
            .unwrap()
            .collect(&mut ctx, "c", Phase::DistributedJoin)
            .unwrap();
        // Hash partitioning is the identity on integer keys, and each shuffle
        // partition holds its keys in ascending order.
        for residue in 0..shuffle_parts as u64 {
            let ks: Vec<u64> = grouped
                .iter()
                .map(|g| g.0)
                .filter(|k| k % shuffle_parts as u64 == residue)
                .collect();
            assert!(ks.windows(2).all(|w| w[0] < w[1]), "partition {residue}: {ks:?}");
        }
        let mut got = grouped;
        got.sort_unstable_by_key(|g| g.0);
        let expected: Vec<(u64, Vec<u64>)> = expected
            .into_iter()
            .map(|(k, vs)| (k as u64, vs.into_iter().map(u64::from).collect()))
            .collect();
        assert_eq!(got, expected, "group_by_key keeps input order within a key");
    });
}

#[test]
fn simulated_time_is_monotone_in_multiplier() {
    cases(0x3A03, N, |rng| {
        let words = words(rng, 0..10, 50..200);
        let mult = rng.f64_in(1.0..1000.0);
        let cluster = cluster();
        let run = |m: f64| {
            let mut hdfs = SimHdfs::new(1);
            let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
            let cfg = JobConfig::new("wc", Phase::DistributedJoin, m);
            engine
                .map_reduce(
                    &cfg,
                    block_splits(&words, 4.0, 64),
                    |w, em| em.emit(*w, 1u64, 8),
                    |k, vs, em| em.emit((*k, vs.len()), 16),
                )
                .unwrap()
                .trace
                .sim_ns
        };
        assert!(run(mult) >= run(1.0), "more data never runs faster");
    });
}

#[test]
fn map_only_preserves_record_order() {
    cases(0x3A04, N, |rng| {
        let records = rng.vec_u64(0..1000, 0..300);
        let cluster = cluster();
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let cfg = JobConfig::new("scan", Phase::IndexA, 1.0);
        let outcome =
            engine.map_only(&cfg, block_splits(&records, 8.0, 64), |r, em| em.emit(*r, 8)).unwrap();
        assert_eq!(outcome.output, records);
    });
}
