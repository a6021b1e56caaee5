//! The [`Rdd`] type, its narrow transformation and its actions.

use sjc_cluster::metrics::Phase;
use sjc_cluster::{SimError, SimNs};

use crate::context::SparkContext;
use crate::record::SparkRecord;

/// A partitioned, in-memory dataset.
///
/// The narrow transformation (`flat_map`) runs eagerly on the host but
/// *pipelines* in the simulation: its cost accumulates in `pending_ns` per
/// partition and only becomes a stage makespan when a wide operation or
/// action closes the stage — exactly how Spark fuses narrow ops into one
/// stage.
pub struct Rdd<T> {
    pub(crate) parts: Vec<Vec<T>>,
    /// Full-scale pending CPU per partition since the last stage boundary.
    pub(crate) pending_ns: Vec<SimNs>,
    /// Full-scale HDFS bytes read but not yet attributed to a stage.
    pub(crate) pending_hdfs_read: u64,
    /// Full-scale modeled resident bytes per partition.
    pub(crate) mem_full: Vec<u64>,
    pub(crate) multiplier: f64,
    /// Narrow-op chain length since the last materialization boundary
    /// (load or shuffle). Losing a cached partition to a node crash costs a
    /// recompute proportional to this depth — Spark's lineage recovery.
    pub(crate) lineage_depth: u32,
}

impl<T: SparkRecord + Clone> Rdd<T> {
    /// Total records (generation scale).
    pub fn count(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Full-scale modeled resident footprint.
    pub fn mem_full_total(&self) -> u64 {
        self.mem_full.iter().sum()
    }

    /// Narrow flat-map. `f` receives each record and a per-record extra-cost
    /// accumulator (generation-scale ns) for spatial work such as index
    /// probes; each partition is charged the Spark per-record overhead plus
    /// its accumulated extra cost, and its memory is recomputed.
    ///
    /// Partitions are independent, so `f` runs on them concurrently
    /// (`sjc-par`, order-preserving) and the per-partition pending-cost and
    /// memory vectors are reassembled in partition order, bit-identical at
    /// every thread count.
    pub fn flat_map<U: SparkRecord>(
        self,
        ctx: &SparkContext<'_>,
        f: impl Fn(&T, &mut SimNs) -> Vec<U> + Sync,
    ) -> Rdd<U> {
        let cost = &ctx.cluster.cost;
        let cpu_scale = ctx.cluster.config.node.cpu_scale;
        let mult = self.multiplier;
        let depth = self.lineage_depth.saturating_add(1);
        let inputs: Vec<(Vec<T>, SimNs)> = self.parts.into_iter().zip(self.pending_ns).collect();
        // LPT dispatch: fat partitions first, so skewed spatial partitioning
        // cannot serialize the tail; partition-order results are unchanged.
        let results: Vec<(Vec<U>, SimNs, u64)> = sjc_par::par_map_weighted(
            &inputs,
            |(src, _)| src.len() as u64,
            |(src, old)| {
                let mut extra: SimNs = 0;
                let mut out: Vec<U> = Vec::with_capacity(src.len());
                for rec in src {
                    out.extend(f(rec, &mut extra));
                }
                let ns = cost.spark_records_ns(src.len() as u64) + extra;
                let ns = (ns as f64 * cpu_scale) as u64;
                let pending = old + (ns as f64 * mult) as SimNs;
                let mem: u64 = out.iter().map(|r| r.mem_bytes(cost)).sum();
                (out, pending, (mem as f64 * mult) as u64)
            },
        );
        let mut parts = Vec::with_capacity(results.len());
        let mut pending = Vec::with_capacity(results.len());
        let mut mem_full = Vec::with_capacity(results.len());
        for (out, p, m) in results {
            parts.push(out);
            pending.push(p);
            mem_full.push(m);
        }
        Rdd {
            parts,
            pending_ns: pending,
            pending_hdfs_read: self.pending_hdfs_read,
            mem_full,
            multiplier: mult,
            lineage_depth: depth,
        }
    }

    /// Action: draw a deterministic systematic sample and collect it to the
    /// driver, treating the RDD as *cached* afterwards — the action pays
    /// the pending load/compute cost (plus a memory scan), and subsequent
    /// uses of this RDD read from the cache for free. This mirrors
    /// SpatialSpark's `input.cache(); input.sample(...)` pattern where the
    /// sampling action is what first materializes the dataset.
    pub fn sample_collect(
        &mut self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        fraction: f64,
        seed: u64,
    ) -> Result<Vec<T>, SimError> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        let cost = &ctx.cluster.cost;
        // Consume pending: the cache is warm after this action.
        let cpu_scale = ctx.cluster.config.node.cpu_scale;
        let mut pending = std::mem::replace(&mut self.pending_ns, vec![0; self.parts.len()]);
        for (p, part) in pending.iter_mut().zip(&self.parts) {
            *p += (cost.spark_records_ns(part.len() as u64) as f64 * cpu_scale * self.multiplier)
                as SimNs;
        }
        let hdfs = std::mem::take(&mut self.pending_hdfs_read);
        ctx.close_stage(name, phase, &pending, hdfs, 0, self.lineage_depth, self.mem_full_total())?;

        let threshold = (fraction * u64::MAX as f64) as u64;
        let offsets = record_offsets(&self.parts);
        let indexed: Vec<(usize, &Vec<T>)> = self.parts.iter().enumerate().collect();
        let sampled: Vec<Vec<T>> = sjc_par::par_map(&indexed, |&(i, part)| {
            // Same stream as the old serial scan: partition `i` resumes the
            // LCG where the previous partition left it (exact jump-ahead).
            let mut state = lcg_jump(seed | 1, offsets.get(i).copied().unwrap_or(0));
            let mut kept = Vec::new();
            for rec in part {
                state = lcg_step(state);
                if (state >> 1) < (threshold >> 1) {
                    // sjc-lint: allow(hot-alloc) — the clone IS the sample output: kept records must be owned by the result
                    kept.push(rec.clone());
                }
            }
            kept
        });
        Ok(sampled.into_iter().flatten().collect())
    }

    /// Action: collect all records to the driver, closing the stage.
    pub fn collect(
        self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
    ) -> Result<Vec<T>, SimError> {
        let pending = self.pending_ns.clone();
        let resident = self.mem_full_total();
        ctx.close_stage(
            name,
            phase,
            &pending,
            self.pending_hdfs_read,
            0,
            self.lineage_depth,
            resident,
        )?;
        Ok(self.parts.into_iter().flatten().collect())
    }
}

/// One step of the sampling LCG (Knuth's MMIX multiplier/increment).
#[inline]
fn lcg_step(state: u64) -> u64 {
    state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD)
}

const LCG_MUL: u64 = 6364136223846793005;
const LCG_ADD: u64 = 1442695040888963407;

/// Advances the sampling LCG by `n` steps in O(log n) — the affine map
/// `s → m·s + a` composed with itself squares to `s → m²·s + (m·a + a)`, so
/// binary decomposition of `n` yields the exact same state the serial
/// per-record loop would reach. This is what lets `sample_collect` evaluate
/// partitions concurrently with a bit-identical keep set.
fn lcg_jump(state: u64, n: u64) -> u64 {
    let (mut mul, mut add) = (LCG_MUL, LCG_ADD);
    let (mut acc_mul, mut acc_add) = (1u64, 0u64);
    let mut n = n;
    while n > 0 {
        if n & 1 == 1 {
            acc_mul = acc_mul.wrapping_mul(mul);
            acc_add = acc_add.wrapping_mul(mul).wrapping_add(add);
        }
        add = add.wrapping_mul(mul).wrapping_add(add);
        mul = mul.wrapping_mul(mul);
        n >>= 1;
    }
    state.wrapping_mul(acc_mul).wrapping_add(acc_add)
}

/// Number of records in all partitions before each partition — the LCG jump
/// distance for partition `i`.
fn record_offsets<T>(parts: &[Vec<T>]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(parts.len());
    let mut acc = 0u64;
    // sjc-lint: allow(serial-hot-loop) — prefix sum over partition lengths is O(parts) and inherently sequential
    for part in parts {
        offsets.push(acc);
        acc += part.len() as u64;
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::{Cluster, ClusterConfig};

    #[test]
    fn lcg_jump_matches_serial_stepping() {
        for &seed in &[0u64, 1, 42, u64::MAX, 0xDEADBEEF] {
            let mut serial = seed;
            for n in 0..=257u64 {
                assert_eq!(lcg_jump(seed, n), serial, "seed {seed} jump {n}");
                serial = lcg_step(serial);
            }
            // A big jump checked against composing two smaller exact jumps.
            assert_eq!(lcg_jump(seed, 1_000_000), lcg_jump(lcg_jump(seed, 999_743), 257));
        }
    }

    fn ctx_cluster() -> Cluster {
        Cluster::new(ClusterConfig::workstation())
    }

    #[test]
    fn flat_map_semantics_fuse_into_one_stage() {
        let cluster = ctx_cluster();
        let mut ctx = SparkContext::new(&cluster);
        let rdd = ctx.read_text((0u64..100).collect(), 4000, 1.0);
        let out = rdd
            .flat_map(&ctx, |x, _| vec![x * 2])
            .flat_map(&ctx, |x, _| if x % 4 == 0 { vec![*x, *x + 1] } else { Vec::new() })
            .collect(&mut ctx, "t", Phase::DistributedJoin)
            .unwrap();
        // 0..100 doubled → 0,2,..198; keep multiples of 4 → 50 values; ×2.
        assert_eq!(out.len(), 100);
        assert!(out.contains(&0) && out.contains(&1) && out.contains(&196) && out.contains(&197));
        assert_eq!(ctx.trace.stages.len(), 1, "narrow ops fused into one stage");
    }

    #[test]
    fn sample_collect_is_deterministic_and_proportional() {
        let cluster = ctx_cluster();
        let draw = |seed: u64| {
            let mut ctx = SparkContext::new(&cluster);
            let mut rdd = ctx.read_text((0u64..10_000).collect(), 40_000, 1.0);
            let sample = rdd.sample_collect(&mut ctx, "s", Phase::IndexA, 0.1, seed).unwrap();
            assert_eq!(ctx.trace.stages.len(), 1, "the sampling action closes the load stage");
            assert!(rdd.pending_ns.iter().all(|&p| p == 0), "the cache is warm afterwards");
            sample
        };
        let a = draw(42);
        assert_eq!(a, draw(42), "same seed, same sample");
        assert_ne!(a, draw(44), "another seed, another sample");
        assert!((800..1200).contains(&a.len()), "~10% kept, got {}", a.len());
    }

    #[test]
    fn pending_cost_accumulates_across_narrow_ops() {
        let cluster = ctx_cluster();
        let mut ctx = SparkContext::new(&cluster);
        let rdd = ctx.read_text((0u64..1000).collect(), 40_000, 1.0);
        let after_load: SimNs = rdd.pending_ns.iter().sum();
        let mapped = rdd.flat_map(&ctx, |x, extra| {
            *extra += 100;
            vec![x + 1]
        });
        let after_map: SimNs = mapped.pending_ns.iter().sum();
        assert!(after_map > after_load);
    }

    #[test]
    fn multiplier_scales_memory_not_results() {
        let cluster = ctx_cluster();
        let mut ctx = SparkContext::new(&cluster);
        let small = ctx.read_text((0u64..1000).collect(), 40_000, 1.0);
        let mut ctx2 = SparkContext::new(&cluster);
        let big = ctx2.read_text((0u64..1000).collect(), 40_000, 1000.0);
        assert_eq!(small.count(), big.count());
        assert!(big.mem_full_total() > 500 * small.mem_full_total());
    }
}
