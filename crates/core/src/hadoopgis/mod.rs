//! HadoopGIS reproduction: Hadoop Streaming + GEOS (Fig. 1(a) of the paper).
//!
//! Everything is lines of text through external processes. The paper's
//! §II.A enumerates the six preprocessing steps verbatim; we run all six,
//! per dataset:
//!
//! 1. map-only job: convert the input to tab-separated text while loading;
//! 2. map-only job: sample data items, extract sample MBRs;
//! 3. MR job with a single reducer: compute the dataset extent;
//! 4. map-only job: normalize the sample MBRs;
//! 5. *local serial program*: copy samples out of HDFS, generate partitions,
//!    copy them back (two `FsCopy` stages around a `LocalSerial` stage);
//! 6. MR job: every record queries an R-tree **rebuilt in each map task**
//!    from the partition file, gets its partition id appended, is shuffled,
//!    and the reducer removes duplicates with the pipelined
//!    `cat-sort-unique` combination.
//!
//! The global join then *re-partitions from scratch*: partition ids from
//! step 6 cannot be reused (the paper calls this out as wasteful — a
//! limitation imposed by Hadoop Streaming), so the samples of **both**
//! datasets are concatenated on a local machine, new partitions are built,
//! and a final streaming MR job assigns both datasets to the new partitions
//! and runs the local join (GEOS refinement) inside its reducers.
//!
//! Failure mode: any streaming reducer whose stdin+stdout payload exceeds
//! the node's pipe capacity dies with a broken pipe — which is how every
//! full-dataset run in Table 2 ends for HadoopGIS.
//!
//! The text is real and `run` writes none of it: each dataset's TSV is its
//! input file ([`JoinInput::tsv_text`]), built once per input and shared by
//! every run and clone, as the file would sit on HDFS. Every streaming line
//! is a `&str` slice of it, passed from mapper to shuffle to reducer; the
//! join job's `A\t…`/`B\t…` lines are `Tagged` views of the same slices,
//! two bytes longer. So each charged length is the `len()` of bytes that
//! exist, or those plus the tag, while the host copies none of them.

use sjc_cluster::hdfs::DEFAULT_BLOCK_SIZE;
use sjc_cluster::metrics::Phase;
use sjc_cluster::{Cluster, CostModel, StageKind, StageTrace};
use sjc_geom::{EngineKind, GeometryEngine, Mbr, Point};
use sjc_index::partition::{bsp_cells, CellLocator};
use sjc_mapreduce::{block_splits, JobConfig, JobWork, TextLen};

use crate::common::{local_join, LocalJoinAlgo};
use crate::framework::{reported_by, DistributedSpatialJoin, GeoRecord, JoinInput, JoinPredicate};
use crate::ledger::{work_cost, Step, WorkLedger};

/// Target partition count of the sample-derived partitionings.
///
/// Fixed by configuration (sample rate and desired partition size), *not*
/// by dataset volume — which is exactly why per-partition payloads grow
/// with the data and eventually break HadoopGIS's pipes (§III.B).
const PARTITIONS: usize = 64;

/// The HadoopGIS system.
#[derive(Debug, Clone)]
pub struct HadoopGis {
    /// Local join algorithm inside the reducers. Stays on the paper's
    /// indexed nested loop (§II.C): its charged cost depends on real
    /// R-tree traversal counts, which the analytic stripe-sweep accounting
    /// cannot reproduce. `StripeSweep` is selectable via the ablation grid.
    pub local_algo: LocalJoinAlgo,
    /// Geometry library cost profile (GEOS for the real system; the
    /// `ablation_geometry_engine` bench swaps in JTS).
    pub engine: EngineKind,
}

impl Default for HadoopGis {
    fn default() -> Self {
        HadoopGis { local_algo: LocalJoinAlgo::IndexedNestedLoop, engine: EngineKind::Geos }
    }
}

/// A partition id as a streaming key: the text `format!("{cell:06}")`,
/// without the `String`. Its [`TextLen`] is that text's length and its `Ord`
/// that text's byte order — for every `u32`, the seven-to-ten-digit ids
/// that sort *before* `"999999"` included — because shuffle group order
/// decides which group's payload a `BrokenPipe` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CellKey {
    /// The digits left-aligned in ten places: compares like the text, up to
    /// one text being the other followed by zeros.
    aligned: u64,
    /// Then the shorter text (the prefix) sorts first.
    digits: u32,
    cell: u32,
}

impl CellKey {
    fn new(cell: u32) -> Self {
        let digits = cell.checked_ilog10().map_or(1, |l| l + 1).max(6);
        CellKey { aligned: u64::from(cell) * 10u64.pow(10 - digits), digits, cell }
    }
}

impl TextLen for CellKey {
    fn text_len(&self) -> usize {
        self.digits as usize
    }
}

/// The record a streaming line names by its leading `id` field.
fn line_record<'a>(input: &'a JoinInput, line: &str) -> Option<&'a GeoRecord> {
    let id = line.split('\t').next()?.parse().ok()?;
    input.pick([id]).next()
}

/// A join-job line, `A\t<TSV line>` for the left side or `B\t…` for the
/// right, as a view of the dataset's TSV line: the tag is two bytes of the
/// line's length, not a copy of it.
#[derive(Debug, Clone, Copy)]
struct Tagged<'t> {
    left: bool,
    line: &'t str,
}

impl TextLen for Tagged<'_> {
    fn text_len(&self) -> usize {
        self.line.len() + 2
    }
}

impl Tagged<'_> {
    /// The record the line names, on its side of the join.
    fn record<'a>(&self, left: &'a JoinInput, right: &'a JoinInput) -> Option<&'a GeoRecord> {
        line_record(if self.left { left } else { right }, self.line)
    }
}

/// An `FsCopy` stage: HDFS <-> local filesystem transfer of `bytes`.
fn fs_copy(cost: &CostModel, name: impl Into<String>, phase: Phase, bytes: u64) -> Step {
    let mut st = StageTrace::new(name, StageKind::FsCopy, phase);
    st.sim_ns = cost.io_ns(bytes, cost.local_copy_bw);
    st.hdfs_bytes_read = bytes;
    Step::Fixed(st)
}

/// A `LocalSerial` stage generating partitions from `samples` points at
/// script speed (an n log n sort and split).
fn serial_partitioning(name: impl Into<String>, phase: Phase, samples: usize) -> Step {
    let mut st = StageTrace::new(name, StageKind::LocalSerial, phase);
    let n = samples.max(2) as f64;
    st.sim_ns = (n * n.log2() * 500.0) as u64;
    Step::Fixed(st)
}

/// Records a streaming map-reduce job's work; `true` when its reducers'
/// pipes break on every cluster of `stop`, which ends the run's work.
fn pipes_break(steps: &mut Vec<Step>, job: JobWork, stop: &[Cluster]) -> bool {
    let broken = !stop.is_empty() && stop.iter().all(|c| job.pipe_error(c).is_some());
    steps.push(Step::Job(job));
    broken
}

/// The streaming mapper's output for one record: its `line` keyed by every
/// partition `mbr` is assigned to.
fn keyed_by_cell<L: Copy>(
    partitioner: &CellLocator,
    mbr: &Mbr,
    line: L,
    out: &mut dyn FnMut(CellKey, L),
) {
    sjc_par::scratch::with_vec(|cells| {
        partitioner.assign_into(mbr, cells);
        for &c in cells.iter() {
            out(CellKey::new(c), line);
        }
    })
}

impl HadoopGis {
    /// Steps 1–6 for one dataset, reading its TSV file
    /// ([`JoinInput::tsv_text`]), appended to `steps`. Returns the sample
    /// MBR centers (reused by the global join) and the converted TSV lines,
    /// or `None` when a step's pipes break on every cluster of `stop`.
    fn preprocess<'t>(
        &self,
        cost: &CostModel,
        steps: &mut Vec<Step>,
        input: &'t JoinInput,
        phase: Phase,
        stop: &[Cluster],
    ) -> Option<(Vec<Point>, Vec<&'t str>)> {
        let bpr = input.bytes_per_record();
        let block = DEFAULT_BLOCK_SIZE;
        let raw: Vec<&str> = input.tsv_text().split_terminator('\n').collect();

        // Step 1: convert to TSV while loading (identity mapper here — the
        // cost is reading + piping + rewriting every byte).
        let cfg1 =
            JobConfig::new(format!("{}: 1 convert to TSV", input.name), phase, input.multiplier);
        let (job, tsv) =
            JobWork::map_only_lines(cost, &cfg1, block_splits(&raw, bpr, block), |&l, out| out(l));
        steps.push(Step::Job(job));

        // Step 2: sample MBRs (systematic 1-in-k, k sized for ~10 samples
        // per partition).
        let stride = (input.records.len() / (10 * PARTITIONS)).max(1);
        // The sampled lines are every `stride`-th line in job order; taking
        // them from `tsv` up front keeps the mapper a pure (`Fn + Sync`)
        // membership test so the host can run map tasks in parallel. Lines
        // are unique (they start with the record id), so the set selects
        // exactly the lines the old 1-in-k invocation counter did.
        let keep: std::collections::BTreeSet<&str> = tsv.iter().step_by(stride).copied().collect();
        let cfg2 =
            JobConfig::new(format!("{}: 2 sample MBRs", input.name), phase, input.multiplier);
        let (job, sample_lines) =
            JobWork::map_only_lines(cost, &cfg2, block_splits(&tsv, bpr, block), |l, out| {
                if keep.contains(l) {
                    out(l.split('\t').next().unwrap_or("0"));
                }
            });
        steps.push(Step::Job(job));
        let sample_bytes = sample_lines.len() as u64 * 72;

        // Step 3: compute the extent of the samples (MR job, single reducer).
        let cfg3 =
            JobConfig::new(format!("{}: 3 compute extent", input.name), phase, input.multiplier)
                .write_output(false);
        let (job, _extent) = JobWork::map_reduce_lines(
            cost,
            &cfg3,
            block_splits(&sample_lines, 72.0, block),
            |&l, out| out("extent", l),
            |_, vs, out| out(format!("count={}", vs.len())),
        );
        if pipes_break(steps, job, stop) {
            return None;
        }

        // Step 4: normalize sample MBRs (map-only over the samples).
        let cfg4 =
            JobConfig::new(format!("{}: 4 normalize samples", input.name), phase, input.multiplier);
        let (job, _normalized) = JobWork::map_only_lines(
            cost,
            &cfg4,
            block_splits(&sample_lines, 72.0, block),
            |&l, out| out(l),
        );
        steps.push(Step::Job(job));

        // Step 5: local serial partition generation with HDFS round-trips.
        steps.push(fs_copy(
            cost,
            format!("{}: 5a copy samples to local", input.name),
            phase,
            sample_bytes,
        ));
        let centers: Vec<Point> = sample_lines
            .iter()
            .filter_map(|l| line_record(input, l))
            .map(|r| r.mbr.center())
            .collect();
        let name = format!("{}: 5b generate partitions (serial)", input.name);
        steps.push(serial_partitioning(name, phase, centers.len()));
        steps.push(fs_copy(
            cost,
            format!("{}: 5c copy partitions to HDFS", input.name),
            phase,
            PARTITIONS as u64 * 72,
        ));
        let partitioner = CellLocator::new(bsp_cells(input.domain, centers.clone(), PARTITIONS));

        // Step 6: assign partition ids — the expensive step: every record is
        // parsed, probed against the sample partitions and rewritten, and
        // the reducer is the cat-sort-unique pipeline. (Each map task also
        // rebuilds the sample R-tree; at 64 cells that build is microseconds
        // against the task's pipe+parse bill, so it rides inside the
        // calibrated per-byte constants.)
        let cfg6 =
            JobConfig::new(format!("{}: 6 assign partitions", input.name), phase, input.multiplier);
        let (job, _assigned) = JobWork::map_reduce_lines(
            cost,
            &cfg6,
            block_splits(&tsv, bpr, block),
            |&l, out| {
                if let Some(rec) = line_record(input, l) {
                    keyed_by_cell(&partitioner, &rec.mbr, l, out)
                }
            },
            |_pid, lines, out| {
                // cat | sort | unique — sorting is charged by the engine;
                // the dedup emits the unique lines.
                let mut sorted: Vec<&str> = lines.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.into_iter().for_each(out)
            },
        );
        if pipes_break(steps, job, stop) {
            return None;
        }
        Some((centers, tsv))
    }

    fn work_steps(
        &self,
        cost: &CostModel,
        steps: &mut Vec<Step>,
        left: &JoinInput,
        right: &JoinInput,
        predicate: JoinPredicate,
        stop: &[Cluster],
    ) -> Option<Vec<(u64, u64)>> {
        let geos = GeometryEngine::new(self.engine);

        // Preprocessing: the six steps, per dataset.
        let (centers_a, tsv_a) = self.preprocess(cost, steps, left, Phase::IndexA, stop)?;
        let (centers_b, tsv_b) = self.preprocess(cost, steps, right, Phase::IndexB, stop)?;

        // Global join: concatenate the samples locally and build *new*
        // partitions (the step-6 partition ids are discarded — wasteful, as
        // the paper notes, but Streaming leaves no alternative).
        let sample_bytes = (centers_a.len() + centers_b.len()) as u64 * 72;
        let dj = Phase::DistributedJoin;
        steps.push(fs_copy(cost, "GJ: copy both samples to local", dj, sample_bytes));
        let mut combined = centers_a;
        combined.extend(centers_b);
        steps.push(serial_partitioning(
            "GJ: build combined partitions (serial)",
            dj,
            combined.len(),
        ));
        steps.push(fs_copy(cost, "GJ: copy partitions to HDFS", dj, PARTITIONS as u64 * 72));
        let domain = left.domain.union(&right.domain);
        let partitioner = CellLocator::new(bsp_cells(domain, combined, PARTITIONS));

        // The distributed join MR job: both datasets are re-read, re-parsed,
        // re-assigned and shuffled; reducers run the local join with GEOS.
        let tagged: Vec<Tagged> = (tsv_a.iter().map(|&line| Tagged { left: true, line }))
            .chain(tsv_b.iter().map(|&line| Tagged { left: false, line }))
            .collect();
        let bpr = (left.bytes_per_record() * tsv_a.len() as f64
            + right.bytes_per_record() * tsv_b.len() as f64)
            / tagged.len().max(1) as f64;

        let mult = left.multiplier.max(right.multiplier);
        // The join reducer is the Python-driven geometry script — the
        // per-record interpreter cost behind the paper's 14x / 5.7x DJ gap.
        // ~40% of the per-record cost is Python string handling, ~60% the
        // geometry-library call, so the script cost scales with the engine's
        // refinement factor (GEOS = 4x is the calibrated baseline).
        let script_factor = 0.4 + 0.6 * (geos.kind().refinement_factor() / 4.0);
        let cfg = JobConfig::new("distributed join (streaming MR)", Phase::DistributedJoin, mult)
            .script_reducer(script_factor);
        let local_algo = self.local_algo;
        let (job, lines) = JobWork::map_reduce_lines(
            cost,
            &cfg,
            block_splits(&tagged, bpr, DEFAULT_BLOCK_SIZE),
            |&l, out| {
                if let Some(rec) = l.record(left, right) {
                    keyed_by_cell(&partitioner, &rec.mbr, l, out)
                }
            },
            |key, lines, out| {
                let mut lrecs: Vec<&GeoRecord> = Vec::new();
                let mut rrecs: Vec<&GeoRecord> = Vec::new();
                for l in lines {
                    match l.record(left, right) {
                        Some(rec) if l.left => lrecs.push(rec),
                        Some(rec) => rrecs.push(rec),
                        None => {}
                    }
                }
                let keep = reported_by(&partitioner, key.cell);
                let (pairs, _cost) = local_join(&geos, predicate, local_algo, &lrecs, &rrecs, keep);
                pairs.into_iter().for_each(|(a, b)| out(format!("{a}\t{b}")))
            },
        );
        if pipes_break(steps, job, stop) {
            return None;
        }

        // The reducer above wrote every line as `left id\tright id`.
        let pairs = lines
            .iter()
            .filter_map(|l| {
                let (a, b) = l.split_once('\t')?;
                Some((a.parse().ok()?, b.parse().ok()?))
            })
            .collect();
        Some(pairs)
    }
}

impl DistributedSpatialJoin for HadoopGis {
    fn name(&self) -> &'static str {
        "HadoopGIS"
    }

    /// Runs the join's real work once — the six preprocessing steps per
    /// dataset, the global re-partitioning and the streaming join job — and
    /// records it for pricing. It stops after the first streaming job whose
    /// reducer pipes break on every cluster of `stop`.
    fn work(
        &self,
        left: &JoinInput,
        right: &JoinInput,
        predicate: JoinPredicate,
        stop: &[Cluster],
    ) -> WorkLedger {
        let cost = work_cost();
        let mut steps = Vec::new();
        let pairs = self.work_steps(&cost, &mut steps, left, right, predicate, stop);
        WorkLedger { system: self.name(), steps, pairs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::direct_join;
    use sjc_cluster::ClusterConfig;
    use sjc_cluster::SimError;
    use sjc_data::{DatasetId, ScaledDataset};

    fn tiny_inputs() -> (JoinInput, JoinInput) {
        let taxi = ScaledDataset::generate(DatasetId::Taxi, 2e-5, 7);
        let nycb = ScaledDataset::generate(DatasetId::Nycb, 2e-5, 7);
        let mut l = JoinInput::from_dataset(&taxi);
        let mut r = JoinInput::from_dataset(&nycb);
        l.multiplier = 1.0;
        r.multiplier = 1.0;
        (l, r)
    }

    #[test]
    fn cell_key_is_the_zero_padded_text_without_the_string() {
        // Both sides of 1 000 000: below it the padding makes numeric order
        // the text's order; above it "1000000" sorts before "999999".
        let mut cells = vec![0, 1, 63, 99_999, 100_000, 999_999, 1_000_000, 1_000_001, u32::MAX];
        cells.extend((6..10).flat_map(|e| [10u32.pow(e) - 1, 10u32.pow(e), 2 * 10u32.pow(e)]));
        sjc_testkit::cases(0x4601, 256, |rng| {
            cells.push(rng.next_u64() as u32);
            cells.push(rng.u32_in(0..2_000_000));
        });
        for &a in &cells {
            let text_a = format!("{a:06}");
            assert_eq!(CellKey::new(a).text_len(), text_a.len(), "{a}");
            assert_eq!(CellKey::new(a).cell, a);
            for &b in &cells {
                let text_b = format!("{b:06}");
                assert_eq!(CellKey::new(a).cmp(&CellKey::new(b)), text_a.cmp(&text_b), "{a} {b}");
            }
        }
    }

    #[test]
    fn matches_direct_join() {
        let (left, right) = tiny_inputs();
        let cluster = Cluster::new(ClusterConfig::workstation());
        let out =
            HadoopGis::default().run(&cluster, &left, &right, JoinPredicate::Intersects).unwrap();
        let mut expected = direct_join(
            &GeometryEngine::jts(),
            JoinPredicate::Intersects,
            &left.records,
            &right.records,
        );
        expected.sort_unstable();
        assert!(!expected.is_empty());
        assert_eq!(out.sorted_pairs(), expected);
    }

    #[test]
    fn runs_the_six_preprocessing_steps_per_dataset() {
        let (left, right) = tiny_inputs();
        let cluster = Cluster::new(ClusterConfig::workstation());
        let out =
            HadoopGis::default().run(&cluster, &left, &right, JoinPredicate::Intersects).unwrap();
        // Steps 1,2,3,4,5a,5b,5c,6 = 8 stages per dataset, + 3 global-join
        // serial/copy stages + 1 distributed join job = 20.
        assert_eq!(out.trace.stages.len(), 20);
        let ia: Vec<&str> = out
            .trace
            .stages
            .iter()
            .filter(|s| s.phase == Phase::IndexA)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(ia.len(), 8);
        assert!(ia[0].contains("convert"));
        assert!(ia[7].contains("assign"));
        // Local serial + copies exist (the paper's step-5 critique).
        assert!(out.trace.stages.iter().any(|s| s.kind == StageKind::LocalSerial));
        assert!(out.trace.stages.iter().any(|s| s.kind == StageKind::FsCopy));
    }

    #[test]
    fn every_streaming_job_pays_pipes() {
        let (left, right) = tiny_inputs();
        let cluster = Cluster::new(ClusterConfig::workstation());
        let out =
            HadoopGis::default().run(&cluster, &left, &right, JoinPredicate::Intersects).unwrap();
        for s in &out.trace.stages {
            if matches!(s.kind, StageKind::MapReduceJob | StageKind::MapOnlyJob) {
                assert!(s.pipe_bytes > 0, "stage {} pays no pipe bytes", s.name);
            }
        }
    }

    #[test]
    fn full_scale_multiplier_breaks_the_pipe() {
        // With the real full-dataset multiplier a streaming reducer exceeds
        // the pipe limit on every paper configuration — HadoopGIS's Table-2
        // row of dashes.
        let taxi = ScaledDataset::generate(DatasetId::Taxi, 2e-5, 7);
        let nycb = ScaledDataset::generate(DatasetId::Nycb, 2e-5, 7);
        let left = JoinInput::from_dataset(&taxi);
        let right = JoinInput::from_dataset(&nycb);
        for cfg in ClusterConfig::paper_configs() {
            let cluster = Cluster::new(cfg.clone());
            let res = HadoopGis::default().run(&cluster, &left, &right, JoinPredicate::Intersects);
            match res {
                Err(SimError::BrokenPipe { .. }) => {}
                other => panic!(
                    "{}: expected broken pipe, got {:?}",
                    cfg.name,
                    other.map(|o| o.pairs.len())
                ),
            }
        }
    }
}
