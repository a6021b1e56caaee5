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
use sjc_cluster::{SimError, SimNs};

use crate::context::SparkContext;
use crate::memory::check_fits;
use crate::rdd::Rdd;
use crate::record::{SparkKey, SparkRecord};

/// Moves every record out of `rdd`, in partition order: the shuffle's input.
fn drain_records<T>(rdd: &mut Rdd<T>) -> Vec<T> {
    let mut records = Vec::with_capacity(rdd.parts.iter().map(Vec::len).sum());
    records.extend(rdd.parts.drain(..).flatten());
    records
}

/// Each partition's pending cost plus its shuffle write: serialize and spill
/// to the *local disk* (Spark 1.x materializes shuffle blocks on disk even
/// for in-memory jobs), plus the cross-node network share.
fn shuffle_write<T>(rdd: &Rdd<T>, ctx: &SparkContext<'_>) -> Vec<SimNs> {
    let (cost, node, nodes) =
        (&ctx.cluster.cost, ctx.cluster.config.node, ctx.cluster.config.nodes);
    let remote_fraction = if nodes > 1 { (nodes - 1) as f64 / nodes as f64 } else { 0.0 };
    let spill = sjc_par::par_map(&rdd.mem_full, |&m| {
        let ser = (m as f64 * cost.spark_shuffle_ser_fraction) as u64;
        (cost.serialize_ns(ser) as f64 * node.cpu_scale) as u64
            + cost.io_ns(ser, node.slot_disk_write_bw())
            + cost.io_ns((ser as f64 * remote_fraction) as u64, node.slot_net_bw())
    });
    rdd.pending_ns.iter().zip(spill).map(|(pending, ns)| pending + ns).collect()
}

/// The shuffle's output: `parts` with their shuffle read — fetch the
/// serialized blocks from disk and deserialize them back into JVM objects,
/// `records(part)` of them. A shuffle materializes its output, so the
/// recompute scope restarts here.
fn shuffled<R: SparkRecord>(
    parts: Vec<Vec<R>>,
    ctx: &SparkContext<'_>,
    multiplier: f64,
    records: impl Fn(&[R]) -> u64 + Sync,
) -> Rdd<R> {
    let (cost, node) = (&ctx.cluster.cost, ctx.cluster.config.node);
    let (mem_full, pending_ns) = sjc_par::par_map(&parts, |part| {
        let mem: u64 = part.iter().map(|r| r.mem_bytes(cost)).sum();
        let mem_f = (mem as f64 * multiplier) as u64;
        let ser = (mem_f as f64 * cost.spark_shuffle_ser_fraction) as u64;
        let n = (records(part) as f64 * multiplier) as u64;
        let cpu = cost.serialize_ns(ser) + cost.spark_records_ns(n);
        (mem_f, cost.io_ns(ser, node.slot_disk_read_bw()) + (cpu as f64 * node.cpu_scale) as u64)
    })
    .into_iter()
    .unzip();
    Rdd { parts, pending_ns, pending_hdfs_read: 0, mem_full, multiplier, lineage_depth: 1 }
}

/// Result of [`Rdd::join`]: per key, one output record per matching
/// value pair.
pub type JoinResult<K, A, B> = Result<Rdd<(K, (A, B))>, SimError>;

impl<K, V> Rdd<(K, V)>
where
    K: SparkRecord + SparkKey + Ord + Hash + Clone,
    V: SparkRecord + Clone,
{
    /// Groups values by key into `num_partitions` hash partitions, closing
    /// the current stage.
    pub fn group_by_key(
        mut self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        num_partitions: usize,
    ) -> Result<Rdd<(K, Vec<V>)>, SimError> {
        let p = num_partitions.max(1);
        let write_pending = shuffle_write(&self, ctx);

        // Real shuffle: the records group in partition order, so every key's
        // values keep partition-major, then record order.
        let groups = sjc_par::par_group(drain_records(&mut self));
        let mut parts: Vec<Vec<(K, Vec<V>)>> = (0..p).map(|_| Vec::new()).collect();
        // sjc-lint: allow(serial-hot-loop) — hash-partition scatter must run in key order; the grouping work already ran in parallel above
        for (k, vs) in groups.into_runs() {
            let idx = (k.partition_hash() % p as u64) as usize;
            // sjc-lint: allow(no-panic-in-lib) — idx = hash % p < p = parts.len()
            parts[idx].push((k, vs));
        }
        let grouped = shuffled(parts, ctx, self.multiplier, |part| {
            part.iter().map(|(_, vs)| vs.len() as u64).sum()
        });

        // Memory check: shuffle input and materialized groups are live
        // simultaneously.
        check_fits(ctx.cluster, name, &[&self.mem_full, &grouped.mem_full])?;

        // Close the map-side stage (pending narrow work + shuffle write).
        let shuffle_bytes: u64 = self.mem_full.iter().sum();
        ctx.close_stage(
            name,
            phase,
            &write_pending,
            self.pending_hdfs_read,
            shuffle_bytes,
            self.lineage_depth,
            grouped.mem_full.iter().sum(),
        )?;
        Ok(grouped)
    }
}

impl<K, A> Rdd<(K, A)>
where
    K: SparkRecord + SparkKey + Ord + Hash + Clone,
    A: SparkRecord + Clone,
{
    /// Inner hash join on the key, closing both sides' stages. Matches
    /// Spark's `join`: one output record per pair of matching values.
    pub fn join<B>(
        mut self,
        mut other: Rdd<(K, B)>,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        num_partitions: usize,
    ) -> JoinResult<K, A, B>
    where
        B: SparkRecord + Clone,
    {
        let p = num_partitions.max(1);
        // Close both input stages with their shuffle-write costs.
        let mut all_pending = shuffle_write(&self, ctx);
        all_pending.extend(shuffle_write(&other, ctx));

        // Both sides group by key in partition order; one merge over the two
        // ascending key lists then pairs up the keys present on both.
        let (l, r) = (drain_records(&mut self), drain_records(&mut other));
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
        let joined = shuffled(parts, ctx, self.multiplier, |part| part.len() as u64);

        check_fits(ctx.cluster, name, &[&self.mem_full, &other.mem_full, &joined.mem_full])?;

        let shuffle_bytes: u64 =
            self.mem_full.iter().sum::<u64>() + other.mem_full.iter().sum::<u64>();
        let hdfs = self.pending_hdfs_read + other.pending_hdfs_read;
        ctx.close_stage(
            name,
            phase,
            &all_pending,
            hdfs,
            shuffle_bytes,
            self.lineage_depth.max(other.lineage_depth),
            joined.mem_full.iter().sum(),
        )?;
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
        let stage = &ctx.trace.stages[0];
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
