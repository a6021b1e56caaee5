//! The [`Rdd`] type, its narrow transformation and its actions.

use std::ops::Range;

use sjc_cluster::metrics::Phase;
use sjc_cluster::{SimError, SimNs};

use crate::context::SparkContext;

use crate::ledger::{Column, Layout, Narrow, Pending, Source, SparkStep};
use crate::record::SparkRecord;

/// A partitioned, in-memory dataset.
///
/// The records sit in *units* (see [`crate::ledger`]): each loaded record,
/// or each partition of a shuffle's output. The narrow transformation
/// (`flat_map_into`) runs eagerly on the host but *pipelines* in the
/// simulation: its cost is recorded per unit in the RDD's pending work and
/// only becomes a stage when a wide operation or action closes the stage —
/// exactly how Spark fuses narrow ops into one stage.
pub struct Rdd<T> {
    /// The records in blocks of whole units: [`LOAD_BLOCK`] loaded records,
    /// or one partition, per block.
    pub(crate) blocks: Vec<Vec<T>>,
    /// The work the next stage over this RDD runs; `pending.records`
    /// counts each unit's records.
    pub(crate) pending: Pending,
}

/// Loaded records per block: the host's unit of parallel work over a load.
pub(crate) const LOAD_BLOCK: usize = 512;

impl<T> Rdd<T> {
    /// The units of each block, in order.
    fn block_units(&self) -> Vec<Range<usize>> {
        let per_block = match self.pending.layout {
            Layout::Loaded => LOAD_BLOCK,
            Layout::Partitioned => 1,
        };
        let units = self.pending.records.len();
        (0..self.blocks.len()).map(|b| b * per_block..((b + 1) * per_block).min(units)).collect()
    }

    /// Every record, in unit order, and the pending work.
    pub(crate) fn into_parts(self) -> (Vec<T>, Pending) {
        let mut records = Vec::with_capacity(self.blocks.iter().map(Vec::len).sum());
        records.extend(self.blocks.into_iter().flatten());
        (records, self.pending)
    }
}

impl<T: SparkRecord + Clone> Rdd<T> {
    /// Total records (generation scale).
    pub fn count(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Full-scale modeled resident footprint, summed before scaling.
    pub fn mem_full_total(&self) -> u64 {
        self.pending.mem_full_total()
    }

    /// Narrow flat-map. `f` receives each record and a per-record extra-cost
    /// accumulator (generation-scale ns) for spatial work such as index
    /// probes; its records join the output in order. The adapter over
    /// [`flat_map_into`](Self::flat_map_into).
    pub fn flat_map<U: SparkRecord>(
        self,
        ctx: &SparkContext<'_>,
        f: impl Fn(&T, &mut SimNs) -> Vec<U> + Sync,
    ) -> Rdd<U> {
        self.flat_map_into(ctx, |rec, extra, out| out.extend(f(rec, extra)))
    }

    /// Narrow flat-map whose `f` pushes each record's output onto the
    /// unit's output buffer (it must only append), so no record allocates
    /// a buffer of its own. Each unit records its input records, its
    /// accumulated extra cost and its output's resident bytes, which a
    /// stage prices per partition as the Spark per-record overhead plus
    /// the extra cost.
    ///
    /// Runs of units are independent, so `f` runs on them concurrently
    /// (`sjc-par`, order-preserving) and the output and columns are
    /// reassembled in unit order, identical at every thread count.
    pub fn flat_map_into<U: SparkRecord>(
        self,
        ctx: &SparkContext<'_>,
        f: impl Fn(&T, &mut SimNs, &mut Vec<U>) + Sync,
    ) -> Rdd<U> {
        let cost = ctx.cost;
        let units = self.block_units();
        let blocks: Vec<(&Vec<T>, &Range<usize>)> = self.blocks.iter().zip(&units).collect();
        // LPT dispatch: fat blocks first, so skewed spatial partitioning
        // cannot serialize the tail; block-order results are unchanged.
        let results: Vec<(Vec<U>, [Column; 3])> = sjc_par::par_map_weighted(
            &blocks,
            |(src, _)| src.len() as u64,
            |&(src, units)| {
                let mut out: Vec<U> = Vec::with_capacity(src.len());
                let n = units.len();
                let (mut counts, mut extras, mut mems) =
                    (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
                let mut at = 0;
                for len in self.pending.records.range(units.clone()) {
                    let (start, mut extra) = (out.len(), 0);
                    let end = at + len as usize;
                    for rec in src.get(at..end).unwrap_or(&[]) {
                        f(rec, &mut extra, &mut out);
                    }
                    at = end;
                    let made = out.get(start..).unwrap_or(&[]);
                    counts.push(made.len() as u64);
                    extras.push(extra);
                    mems.push(made.iter().map(|r| r.mem_bytes(cost)).sum());
                }
                // The block lives until the next stage: hand back its growth slack.
                out.shrink_to_fit();
                (out, [Column::of(&counts), Column::of(&extras), Column::of(&mems)])
            },
        );
        drop(blocks);
        let mut out_blocks = Vec::with_capacity(results.len());
        let [mut counts, mut extra_ns, mut mem] = <[Column; 3]>::default();
        for (out, [c, e, m]) in results {
            out_blocks.push(out);
            counts.append(c);
            extra_ns.append(e);
            mem.append(m);
        }
        let mut pending = self.pending;
        let inputs = std::mem::replace(&mut pending.records, counts);
        pending.narrow.push(Narrow { records: inputs, extra_ns });
        pending.mem = mem;
        pending.lineage_depth = pending.lineage_depth.saturating_add(1);
        Rdd { blocks: out_blocks, pending }
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
        // Consume pending: the cache is warm after this action.
        let cached = Pending {
            source: Source::Cached,
            narrow: Vec::new(),
            hdfs_read: 0,
            ..self.pending.clone()
        };
        let rdd = std::mem::replace(&mut self.pending, cached);
        ctx.close(SparkStep::Sample { name: name.to_string(), phase, rdd })?;

        let threshold = (fraction * u64::MAX as f64) as u64;
        let offsets = record_offsets(&self.blocks);
        let indexed: Vec<(u64, &Vec<T>)> = offsets.into_iter().zip(&self.blocks).collect();
        let sampled: Vec<Vec<T>> = sjc_par::par_map(&indexed, |&(offset, block)| {
            // Same stream as a serial scan: each block resumes the LCG where
            // the previous one left it (exact jump-ahead).
            let mut state = lcg_jump(seed | 1, offset);
            let mut kept = Vec::new();
            for rec in block {
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
        let (records, rdd) = self.into_parts();
        ctx.close(SparkStep::Collect { name: name.to_string(), phase, rdd })?;
        Ok(records)
    }
}

/// Number of records in all blocks before each block — the LCG jump
/// distance for block `i`.
fn record_offsets<T>(blocks: &[Vec<T>]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(blocks.len());
    let mut acc = 0u64;
    for block in blocks {
        offsets.push(acc);
        acc += block.len() as u64;
    }
    offsets
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
        assert_eq!(ctx.trace().unwrap().stages.len(), 1, "narrow ops fused into one stage");
    }

    #[test]
    fn sample_collect_is_deterministic_and_proportional() {
        let cluster = ctx_cluster();
        let draw = |seed: u64| {
            let mut ctx = SparkContext::new(&cluster);
            let mut rdd = ctx.read_text((0u64..10_000).collect(), 40_000, 1.0);
            let sample = rdd.sample_collect(&mut ctx, "s", Phase::IndexA, 0.1, seed).unwrap();
            assert_eq!(
                ctx.trace().unwrap().stages.len(),
                1,
                "the sampling action closes the load stage"
            );
            assert!(
                rdd.pending.price(&cluster).pending_ns.iter().all(|&p| p == 0),
                "the cache is warm afterwards"
            );
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
        let after_load: SimNs = rdd.pending.price(&cluster).pending_ns.iter().sum();
        let mapped = rdd.flat_map(&ctx, |x, extra| {
            *extra += 100;
            vec![x + 1]
        });
        let after_map: SimNs = mapped.pending.price(&cluster).pending_ns.iter().sum();
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
