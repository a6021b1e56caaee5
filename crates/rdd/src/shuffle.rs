//! Wide operations: `group_by_key` and `join` — the in-memory shuffle.
//!
//! These close a stage (turning pipelined pending cost into a makespan),
//! move bytes through memory/network rather than HDFS, and are where the
//! engine enforces executor memory: Spark 1.1's `groupByKey` materializes
//! every group on its target executor with no spill path.
//!
//! Both group with `sjc_par::par_group` (a stable sort on the key over the
//! records in partition order), place each key in hash partition
//! `partition_hash(k) % p` in ascending key order, and charge one shuffle
//! write and one shuffle read.

use std::hash::Hash;

use sjc_cluster::metrics::Phase;
use sjc_cluster::SimError;
use sjc_par::GroupKey;

use crate::context::SparkContext;
use crate::ledger::{Column, Layout, Pending, Source, SparkStep};
use crate::rdd::Rdd;
use crate::record::{SparkKey, SparkRecord};

/// The shuffle's output: `parts`, each materialized as one partition whose
/// resident bytes and `records(part)` record count a later stage fetches
/// and deserializes. A shuffle materializes its output, so the recompute
/// scope restarts here. Returns the RDD and its partitions' resident bytes.
fn shuffled<R: SparkRecord>(
    parts: Vec<Vec<R>>,
    ctx: &SparkContext<'_>,
    multiplier: f64,
    records: impl Fn(&[R]) -> u64 + Sync,
) -> (Rdd<R>, Column) {
    let cost = ctx.cost;
    let (mem, counts): (Vec<u64>, Vec<u64>) = sjc_par::par_map(&parts, |part| {
        (part.iter().map(|r| r.mem_bytes(cost)).sum::<u64>(), records(part))
    })
    .into_iter()
    .unzip();
    let lens: Vec<u64> = parts.iter().map(|p| p.len() as u64).collect();
    let mem = Column::of(&mem);
    let pending = Pending {
        layout: Layout::Partitioned,
        source: Source::Shuffle { mem: mem.clone(), records: Column::of(&counts) },
        narrow: Vec::new(),
        records: Column::of(&lens),
        mem: mem.clone(),
        hdfs_read: 0,
        multiplier,
        lineage_depth: 1,
    };
    (Rdd { blocks: parts, pending }, mem)
}

/// Result of [`Rdd::join`]: per key, one output record per matching
/// value pair.
pub type JoinResult<K, A, B> = Result<Rdd<(K, (A, B))>, SimError>;

impl<K, V> Rdd<(K, V)>
where
    K: SparkRecord + SparkKey + GroupKey + Hash + Clone,
    V: SparkRecord + Clone,
{
    /// Groups values by key into `num_partitions` hash partitions, closing
    /// the current stage.
    pub fn group_by_key(
        self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        num_partitions: usize,
    ) -> Result<Rdd<(K, Vec<V>)>, SimError> {
        let p = num_partitions.max(1);
        // Real shuffle: the records group in partition order, so every key's
        // values keep partition-major, then record order.
        let (records, pending) = self.into_parts();
        let groups = sjc_par::par_group(records);
        let mut parts: Vec<Vec<(K, Vec<V>)>> = (0..p).map(|_| Vec::new()).collect();
        // sjc-lint: allow(serial-hot-loop) — hash-partition scatter must run in key order; the grouping work already ran in parallel above
        for (k, vs) in groups.into_runs() {
            let idx = (k.partition_hash() % p as u64) as usize;
            // sjc-lint: allow(no-panic-in-lib) — idx = hash % p < p = parts.len()
            parts[idx].push((k, vs));
        }
        let (grouped, out) = shuffled(parts, ctx, pending.multiplier, |part| {
            part.iter().map(|(_, vs)| vs.len() as u64).sum()
        });
        // The map-side stage (pending narrow work + shuffle write) closes
        // with shuffle input and materialized groups live simultaneously.
        let step = SparkStep::Shuffle { name: name.to_string(), phase, inputs: vec![pending], out };
        ctx.close(step)?;
        Ok(grouped)
    }
}

impl<K, A> Rdd<(K, A)>
where
    K: SparkRecord + SparkKey + GroupKey + Hash + Clone,
    A: SparkRecord + Clone,
{
    /// Inner hash join on the key, closing both sides' stages. Matches
    /// Spark's `join`: one output record per pair of matching values.
    pub fn join<B>(
        self,
        other: Rdd<(K, B)>,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        num_partitions: usize,
    ) -> JoinResult<K, A, B>
    where
        B: SparkRecord + Clone,
    {
        let p = num_partitions.max(1);
        // Both sides group by key in partition order; one merge over the two
        // ascending key lists then pairs up the keys present on both.
        let ((l, left_work), (r, right_work)) = (self.into_parts(), other.into_parts());
        let mult = left_work.multiplier;
        let inputs = vec![left_work, right_work];
        let (left, right) = sjc_par::join(|| sjc_par::par_group(l), || sjc_par::par_group(r));
        let mut rights = right.iter().peekable();
        let mut matched: Vec<(&K, &[A], &[B])> = Vec::new();
        for (k, avs) in left.iter() {
            while rights.next_if(|&(rk, _)| rk < k).is_some() {}
            if let Some((_, bvs)) = rights.next_if(|&(rk, _)| rk == k) {
                matched.push((k, avs, bvs));
            }
        }

        // Cartesian products per matching key run in parallel; the scatter
        // into hash partitions replays them in key order, so output record
        // order is identical to the serial nested loop.
        // Cross products are quadratic in the per-key value counts — the
        // canonical skew hazard. LPT by the output cardinality keeps one hot
        // key off the tail; key-order scatter below is unchanged.
        let produced = sjc_par::par_map_weighted(
            &matched,
            |(_, avs, bvs)| (avs.len() as u64).saturating_mul(bvs.len() as u64),
            |&(k, avs, bvs)| {
                let idx = (k.partition_hash() % p as u64) as usize;
                let mut out = Vec::with_capacity(avs.len() * bvs.len());
                for a in avs {
                    for b in bvs {
                        // sjc-lint: allow(hot-alloc) — join output pairs own their records: the clones materialize the cross product itself
                        out.push((k.clone(), (a.clone(), b.clone())));
                    }
                }
                (idx, out)
            },
        );
        let mut parts: Vec<Vec<(K, (A, B))>> = (0..p).map(|_| Vec::new()).collect();
        for (idx, recs) in produced {
            // sjc-lint: allow(no-panic-in-lib) — idx = hash % p < p = parts.len()
            parts[idx].extend(recs);
        }
        let (joined, out) = shuffled(parts, ctx, mult, |part| part.len() as u64);
        ctx.close(SparkStep::Shuffle { name: name.to_string(), phase, inputs, out })?;
        Ok(joined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::{Cluster, ClusterConfig};

    #[test]
    fn group_by_key_collects_all_values() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = SparkContext::new(&cluster);
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 5, i)).collect();
        let grouped = ctx
            .read_text(pairs, 4000, 1.0)
            .group_by_key(&mut ctx, "g", Phase::DistributedJoin, 4)
            .unwrap();
        let out = grouped.collect(&mut ctx, "c", Phase::DistributedJoin).unwrap();
        assert_eq!(out.len(), 5);
        for (k, vs) in &out {
            assert_eq!(vs.len(), 20);
            assert!(vs.iter().all(|v| v % 5 == *k));
        }
    }

    #[test]
    fn join_matches_keys() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = SparkContext::new(&cluster);
        let left: Vec<(u64, u64)> = vec![(1, 10), (2, 20), (3, 30)];
        let right: Vec<(u64, u64)> = vec![(2, 200), (3, 300), (3, 301), (4, 400)];
        let l = ctx.read_text(left, 100, 1.0);
        let r = ctx.read_text(right, 100, 1.0);
        let joined = l.join(r, &mut ctx, "j", Phase::DistributedJoin, 2).unwrap();
        let mut out = joined.collect(&mut ctx, "c", Phase::DistributedJoin).unwrap();
        out.sort();
        assert_eq!(out, vec![(2, (20, 200)), (3, (30, 300)), (3, (30, 301))]);
    }

    #[test]
    fn shuffle_emits_stage_with_shuffle_bytes_and_no_hdfs_writes() {
        let cluster = Cluster::new(ClusterConfig::ec2(4));
        let mut ctx = SparkContext::new(&cluster);
        let pairs: Vec<(u64, u64)> = (0..1000).map(|i| (i % 10, i)).collect();
        ctx.read_text(pairs, 40_000, 1.0)
            .group_by_key(&mut ctx, "g", Phase::DistributedJoin, 8)
            .unwrap();
        let stage = &ctx.trace().unwrap().stages[0];
        assert!(stage.shuffle_bytes > 0);
        assert_eq!(stage.hdfs_bytes_written, 0, "Spark never writes intermediates to HDFS");
        assert!(stage.hdfs_bytes_read > 0, "the initial load is attributed here");
    }

    #[test]
    fn oversized_shuffle_oom_on_small_nodes_only() {
        let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i % 100, i)).collect();
        // Each (u64,u64) models 24+32=56 B; 10k records ≈ 560 KB, the
        // grouped lists add ~170 KB. ×3e4 the live set during the shuffle
        // is ~22 GB (~11 GB per EC2-2 executor, over its 9 GB usable),
        // while the 76.8 GB workstation holds it comfortably.
        let mult = 3e4;
        let run = |cfg: ClusterConfig| {
            let cluster = Cluster::new(cfg);
            let mut ctx = SparkContext::new(&cluster);
            ctx.read_text(pairs.clone(), 400_000, mult)
                .group_by_key(&mut ctx, "g", Phase::DistributedJoin, 64)
                .map(|_| ())
        };
        assert!(run(ClusterConfig::ec2(2)).is_err(), "small cluster OOMs");
        assert!(run(ClusterConfig::workstation()).is_ok(), "128 GB WS survives");
    }

    #[test]
    fn oom_error_reports_sizes() {
        let cluster = Cluster::new(ClusterConfig::ec2(2));
        let mut ctx = SparkContext::new(&cluster);
        let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i % 100, i)).collect();
        let err = ctx
            .read_text(pairs, 400_000, 1e9)
            .group_by_key(&mut ctx, "g", Phase::DistributedJoin, 64)
            .err()
            .expect("must OOM");
        match err {
            SimError::OutOfMemory { needed_bytes, usable_bytes, .. } => {
                assert!(needed_bytes > usable_bytes);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }
}
