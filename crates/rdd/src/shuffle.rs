//! Wide operations: `group_by_key` and `join` — the in-memory shuffle.
//!
//! These close a stage (turning pipelined pending cost into a makespan),
//! move bytes through memory/network rather than HDFS, and are where the
//! engine enforces executor memory: Spark 1.1's `groupByKey` materializes
//! every group on its target executor with no spill path.

use std::collections::BTreeMap;
use std::hash::Hash;

use sjc_cluster::metrics::Phase;
use sjc_cluster::SimError;

use crate::context::SparkContext;
use crate::memory::check_fits;
use crate::rdd::Rdd;
use crate::record::{SparkKey, SparkRecord};

fn hash_of<K: SparkKey>(k: &K) -> u64 {
    k.partition_hash()
}

/// Groups one join side's `(key, value)` partitions into a single map:
/// partition-local maps build in parallel and merge in partition order, so
/// each key's value order is identical to a serial flattened scan.
fn build_side<P, K, V>(parts: &[Vec<P>], kv: impl Fn(&P) -> (&K, &V) + Sync) -> BTreeMap<K, Vec<V>>
where
    P: Send + Sync,
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    // LPT by partition size: skewed build sides schedule their fat
    // partitions first; partition-order merging below is unchanged.
    let locals: Vec<BTreeMap<K, Vec<V>>> = sjc_par::par_map_weighted(
        parts,
        |part| part.len() as u64,
        |part| {
            let mut local: BTreeMap<K, Vec<V>> = BTreeMap::new();
            for rec in part {
                let (k, v) = kv(rec);
                // sjc-lint: allow(hot-alloc) — the shuffle map owns its keys/values: the clone materializes the build side itself
                local.entry(k.clone()).or_default().push(v.clone());
            }
            local
        },
    );
    let mut merged: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for local in locals {
        for (k, vs) in local {
            merged.entry(k).or_default().extend(vs);
        }
    }
    merged
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
        self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        num_partitions: usize,
    ) -> Result<Rdd<(K, Vec<V>)>, SimError> {
        let p = num_partitions.max(1);
        let cost = ctx.cluster.cost.clone();
        let node = ctx.cluster.config.node;
        let nodes = ctx.cluster.config.nodes;
        let mult = self.multiplier;

        // Real shuffle: group deterministically. Each map task groups its
        // own partition in parallel; the locals merge in partition order, so
        // every key's value order (partition-major, then record order) is
        // identical to the old single-threaded scan.
        let remote_fraction = if nodes > 1 { (nodes - 1) as f64 / nodes as f64 } else { 0.0 };
        let inputs: Vec<(&Vec<(K, V)>, u64)> =
            self.parts.iter().zip(self.mem_full.iter().copied()).collect();
        let locals: Vec<(u64, BTreeMap<K, Vec<V>>)> =
            sjc_par::par_map(&inputs, |&(part, part_mem)| {
                // Shuffle-write side: serialize and spill to the *local disk*
                // (Spark 1.x materializes shuffle blocks on disk even for
                // in-memory jobs), plus the cross-node network share.
                let ser = (part_mem as f64 * cost.spark_shuffle_ser_fraction) as u64;
                let cpu = (cost.serialize_ns(ser) as f64 * node.cpu_scale) as u64;
                let mut ns = cpu + cost.io_ns(ser, node.slot_disk_write_bw());
                ns += cost.io_ns((ser as f64 * remote_fraction) as u64, node.slot_net_bw());
                let mut local: BTreeMap<K, Vec<V>> = BTreeMap::new();
                for (k, v) in part {
                    // sjc-lint: allow(hot-alloc) — the grouped output owns its keys/values: the clone materializes the result
                    local.entry(k.clone()).or_default().push(v.clone());
                }
                (ns, local)
            });
        let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
        let mut write_pending = self.pending_ns.clone();
        for (wp, (ns, local)) in write_pending.iter_mut().zip(locals) {
            *wp += ns;
            for (k, vs) in local {
                groups.entry(k).or_default().extend(vs);
            }
        }

        // Build output partitions.
        let mut parts: Vec<Vec<(K, Vec<V>)>> = (0..p).map(|_| Vec::new()).collect();
        // sjc-lint: allow(serial-hot-loop) — hash-partition scatter must run in key order; the grouping work already ran in parallel above
        for (k, vs) in groups {
            let idx = (hash_of(&k) % p as u64) as usize;
            // sjc-lint: allow(no-panic-in-lib) — idx = hash % p < p = parts.len()
            parts[idx].push((k, vs));
        }

        let costs: Vec<(u64, u64)> = sjc_par::par_map(&parts, |part| {
            let mem: u64 = part.iter().map(|r| r.mem_bytes(&cost)).sum();
            let mem_f = (mem as f64 * mult) as u64;
            let records: u64 = part.iter().map(|(_, vs)| vs.len() as u64).sum();
            // Shuffle-read side: fetch the serialized blocks from disk and
            // deserialize them back into JVM objects.
            let ser = (mem_f as f64 * cost.spark_shuffle_ser_fraction) as u64;
            let mut ns = cost.io_ns(ser, node.slot_disk_read_bw());
            let cpu =
                cost.serialize_ns(ser) + cost.spark_records_ns((records as f64 * mult) as u64);
            ns += (cpu as f64 * node.cpu_scale) as u64;
            (mem_f, ns)
        });
        let mut mem_full = Vec::with_capacity(p);
        let mut read_pending = Vec::with_capacity(p);
        for (mem_f, ns) in costs {
            mem_full.push(mem_f);
            read_pending.push(ns);
        }

        // Memory check: shuffle input and materialized groups are live
        // simultaneously.
        check_fits(ctx.cluster, name, &[&self.mem_full, &mem_full])?;

        // Close the map-side stage (pending narrow work + shuffle write).
        let shuffle_bytes: u64 = self.mem_full.iter().sum();
        ctx.close_stage(
            name,
            phase,
            &write_pending,
            self.pending_hdfs_read,
            shuffle_bytes,
            self.lineage_depth,
            mem_full.iter().sum(),
        )?;

        // A shuffle materializes its output; recompute scope restarts here.
        Ok(Rdd {
            parts,
            pending_ns: read_pending,
            pending_hdfs_read: 0,
            mem_full,
            multiplier: mult,
            lineage_depth: 1,
        })
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
        let cost = ctx.cluster.cost.clone();
        let node = ctx.cluster.config.node;
        let nodes = ctx.cluster.config.nodes;
        let mult = self.multiplier;
        let remote_fraction = if nodes > 1 { (nodes - 1) as f64 / nodes as f64 } else { 0.0 };

        // Close both input stages with their shuffle-write costs.
        let spill = |m: u64| {
            let ser = (m as f64 * cost.spark_shuffle_ser_fraction) as u64;
            (cost.serialize_ns(ser) as f64 * node.cpu_scale) as u64
                + cost.io_ns(ser, node.slot_disk_write_bw())
                + cost.io_ns((ser as f64 * remote_fraction) as u64, node.slot_net_bw())
        };
        let mut left_pending = self.pending_ns.clone();
        for (i, &m) in self.mem_full.iter().enumerate() {
            // sjc-lint: allow(no-panic-in-lib) — pending_ns and mem_full are kept parallel to parts
            left_pending[i] += spill(m);
        }
        let mut right_pending = other.pending_ns.clone();
        for (i, &m) in other.mem_full.iter().enumerate() {
            // sjc-lint: allow(no-panic-in-lib) — pending_ns and mem_full are kept parallel to parts
            right_pending[i] += spill(m);
        }

        // Hash-table builds: both sides group per partition in parallel and
        // merge in partition order (value order matches the serial flatten).
        let (left, right) = sjc_par::join(
            || build_side(&self.parts, |(k, a)| (k, a)),
            || build_side(&other.parts, |(k, b)| (k, b)),
        );

        // Cartesian products per matching key run in parallel; the scatter
        // into hash partitions replays them in key order, so output record
        // order is identical to the serial nested loop.
        type KeyBatch<K, A, B> = Option<(usize, Vec<(K, (A, B))>)>;
        let left_list: Vec<(&K, &Vec<A>)> = left.iter().collect();
        // Cross products are quadratic in the per-key value counts — the
        // canonical skew hazard. LPT by the output cardinality keeps one hot
        // key off the tail; key-order scatter below is unchanged.
        let produced: Vec<KeyBatch<K, A, B>> = sjc_par::par_map_weighted(
            &left_list,
            |(k, avs)| {
                (avs.len() as u64).saturating_mul(right.get(k).map_or(0, |bvs| bvs.len() as u64))
            },
            |&(k, avs)| {
                right.get(k).map(|bvs| {
                    let idx = (hash_of(k) % p as u64) as usize;
                    let mut out = Vec::with_capacity(avs.len() * bvs.len());
                    for a in avs {
                        for b in bvs {
                            // sjc-lint: allow(hot-alloc) — join output pairs own their records: the clones materialize the cross product itself
                            out.push((k.clone(), (a.clone(), b.clone())));
                        }
                    }
                    (idx, out)
                })
            },
        );
        let mut parts: Vec<Vec<(K, (A, B))>> = (0..p).map(|_| Vec::new()).collect();
        for (idx, recs) in produced.into_iter().flatten() {
            // sjc-lint: allow(no-panic-in-lib) — idx = hash % p < p = parts.len()
            parts[idx].extend(recs);
        }

        let mut mem_full = Vec::with_capacity(p);
        let mut read_pending = Vec::with_capacity(p);
        for (mem_f, ns) in sjc_par::par_map(&parts, |part| {
            let mem: u64 = part.iter().map(|r| r.mem_bytes(&cost)).sum();
            let mem_f = (mem as f64 * mult) as u64;
            let ser = (mem_f as f64 * cost.spark_shuffle_ser_fraction) as u64;
            let cpu =
                cost.serialize_ns(ser) + cost.spark_records_ns((part.len() as f64 * mult) as u64);
            let ns =
                cost.io_ns(ser, node.slot_disk_read_bw()) + (cpu as f64 * node.cpu_scale) as u64;
            (mem_f, ns)
        }) {
            mem_full.push(mem_f);
            read_pending.push(ns);
        }

        check_fits(ctx.cluster, name, &[&self.mem_full, &other.mem_full, &mem_full])?;

        let shuffle_bytes: u64 =
            self.mem_full.iter().sum::<u64>() + other.mem_full.iter().sum::<u64>();
        let hdfs = self.pending_hdfs_read + other.pending_hdfs_read;
        let mut all_pending = left_pending;
        all_pending.extend(right_pending);
        ctx.close_stage(
            name,
            phase,
            &all_pending,
            hdfs,
            shuffle_bytes,
            self.lineage_depth.max(other.lineage_depth),
            mem_full.iter().sum(),
        )?;

        Ok(Rdd {
            parts,
            pending_ns: read_pending,
            pending_hdfs_read: 0,
            mem_full,
            multiplier: mult,
            lineage_depth: 1,
        })
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
