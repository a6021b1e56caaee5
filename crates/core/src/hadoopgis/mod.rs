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
//! The text is real, and `run` keeps none of it. Each dataset's TSV is its
//! input file; what the jobs charge of it is each line's byte length
//! (`JoinInput::tsv_line_lens`, formatted by the one TSV writer once per
//! input and shared by every run and clone, as the file would sit on HDFS).
//! Every streaming line is a `Line` handle, its record's index and its
//! text's length in 8 bytes, passed from mapper to shuffle to reducer; the
//! join job's `A\t…`/`B\t…` lines are `Tagged` handles, two bytes longer.
//! The sampled ids (`IdText`) and the join's result lines (`PairLine`) are
//! numbers whose length is their decimal text's. So each charged length is
//! the `len()` of the text the file holds or a script would print, while
//! the host formats no line and parses none back.

use sjc_cluster::hdfs::DEFAULT_BLOCK_SIZE;
use sjc_cluster::metrics::Phase;
use sjc_cluster::{Cluster, CostModel, StageKind, StageTrace};
use sjc_geom::{EngineKind, GeometryEngine, Mbr, Point};
use sjc_index::partition::{bsp_cells, CellLocator};
use sjc_mapreduce::{block_splits, JobConfig, JobWork, TextLen};
use sjc_par::GroupKey;

use crate::common::{local_join_reported, LocalJoinAlgo};
use crate::framework::{DistributedSpatialJoin, GeoRecord, JoinInput, JoinPredicate};
use crate::ledger::{run_cost, Step, WorkLedger};

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
        let digits = decimal_digits(cell.into()).max(6);
        CellKey { aligned: u64::from(cell) * 10u64.pow(10 - digits), digits, cell }
    }
}

/// While its text is six digits (every cell below a million), a key's text
/// order is its cell's numeric order, so the cell is its rank; a longer
/// text has none, and a shuffle holding one sorts its keys instead.
impl GroupKey for CellKey {
    fn rank(&self) -> Option<u32> {
        (self.digits == 6).then_some(self.cell)
    }
}

impl TextLen for CellKey {
    fn text_len(&self) -> usize {
        self.digits as usize
    }
}

/// The length of `n`'s decimal text, `n.to_string().len()`.
fn decimal_digits(n: u64) -> u32 {
    n.checked_ilog10().map_or(1, |l| l + 1)
}

/// A dataset's TSV line, `id\t<WKT>`, as the index of its record and the
/// byte length of its text: the two things a streaming job reads of a line
/// (a mapper or reducer its record, the cost model its length).
#[derive(Debug, Clone, Copy)]
struct Line {
    rec: u32,
    len: u32,
}

impl TextLen for Line {
    fn text_len(&self) -> usize {
        self.len as usize
    }
}

impl Line {
    /// `input`'s lines, in file order: line `i` holds record `i`.
    fn all(input: &JoinInput) -> Vec<Line> {
        (0u32..).zip(input.tsv_line_lens()).map(|(rec, &len)| Line { rec, len }).collect()
    }

    /// The record the line holds, in its dataset `input`.
    fn record(self, input: &JoinInput) -> &GeoRecord {
        input.record(self.rec.into())
    }
}

/// A record id as a streaming field, the text `format!("{id}")` without the
/// `String`.
#[derive(Debug, Clone, Copy)]
struct IdText(u32);

impl TextLen for IdText {
    fn text_len(&self) -> usize {
        decimal_digits(self.0.into()) as usize
    }
}

/// A join result line, the text `format!("{left}\t{right}")` without the
/// `String`.
#[derive(Debug, Clone, Copy)]
struct PairLine(u64, u64);

impl TextLen for PairLine {
    fn text_len(&self) -> usize {
        (decimal_digits(self.0) + 1 + decimal_digits(self.1)) as usize
    }
}

/// A join-job line, `A\t<TSV line>` for the left side or `B\t…` for the
/// right: the tag is two bytes of the line's length.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    left: bool,
    line: Line,
}

impl TextLen for Tagged {
    fn text_len(&self) -> usize {
        self.line.text_len() + 2
    }
}

impl Tagged {
    /// The record the line holds, on its side of the join.
    fn record<'a>(self, left: &'a JoinInput, right: &'a JoinInput) -> &'a GeoRecord {
        self.line.record(if self.left { left } else { right })
    }
}

/// An `FsCopy` stage: HDFS <-> local filesystem transfer of `bytes`.
fn fs_copy(cost: &CostModel, name: impl Into<String>, phase: Phase, bytes: u64) -> Step {
    let mut st = StageTrace::new(name, StageKind::FsCopy, phase);
    st.sim_ns = cost.io_ns(bytes, cost.local_copy_bw);
    st.hdfs_bytes_read = bytes;
    Step::Fixed(st)
}

/// One step of the local serial partition generation, a script sorting and
/// splitting the samples (`n log2 n` steps for `n` samples), ns.
const SERIAL_PARTITION_STEP_NS: f64 = 500.0;

/// A `LocalSerial` stage generating partitions from `samples` points at
/// script speed (an n log n sort and split).
fn serial_partitioning(name: impl Into<String>, phase: Phase, samples: usize) -> Step {
    let mut st = StageTrace::new(name, StageKind::LocalSerial, phase);
    let n = samples.max(2) as f64;
    st.sim_ns = (n * n.log2() * SERIAL_PARTITION_STEP_NS) as u64;
    Step::Fixed(st)
}

/// Records a streaming map-reduce job's work; `true` when its reducers'
/// pipes break on every cluster of `stop`, which ends the run's work.
fn pipes_break(steps: &mut Vec<Step>, job: JobWork, stop: &[Cluster]) -> bool {
    let broken = stop.iter().all(|c| job.pipe_error(c).is_some());
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
    partitioner.assign_each(mbr, |c| out(CellKey::new(c), line))
}

impl HadoopGis {
    /// Steps 1–6 for one dataset, reading its TSV file
    /// (`JoinInput::tsv_line_lens`), appended to `steps`. Returns the sample
    /// MBR centers (reused by the global join) and the converted TSV lines,
    /// or `None` when a step's pipes break on every cluster of `stop`.
    fn preprocess(
        &self,
        cost: &CostModel,
        steps: &mut Vec<Step>,
        input: &JoinInput,
        phase: Phase,
        stop: &[Cluster],
    ) -> Option<(Vec<Point>, Vec<Line>)> {
        let bpr = input.bytes_per_record();
        let block = DEFAULT_BLOCK_SIZE;
        let raw = Line::all(input);

        // Step 1: convert to TSV while loading (identity mapper here — the
        // cost is reading + piping + rewriting every byte).
        let cfg1 =
            JobConfig::new(format!("{}: 1 convert to TSV", input.name), phase, input.multiplier);
        let (job, tsv) =
            JobWork::map_only_lines(cost, &cfg1, block_splits(&raw, bpr, block), |&l, out| out(l));
        steps.push(Step::Job(job));

        // Step 2: sample MBRs (systematic 1-in-k, k sized for ~10 samples
        // per partition), emitting each sampled line's id field. Step 1 keeps
        // the file's order, so line `i` of `tsv` holds record `i`, and the
        // lines whose record is a multiple of `stride` are every
        // `stride`-th line in job order, as a 1-in-k invocation counter
        // would pick them; testing the record keeps the mapper a pure
        // (`Fn + Sync`) function, so the host can run map tasks in parallel.
        let stride = (input.records.len() / (10 * PARTITIONS)).max(1);
        let cfg2 =
            JobConfig::new(format!("{}: 2 sample MBRs", input.name), phase, input.multiplier);
        let (job, sample_lines) = JobWork::map_only_lines(
            cost,
            &cfg2,
            block_splits(&tsv, bpr, block),
            |l: &Line, out| {
                if (l.rec as usize).is_multiple_of(stride) {
                    out(IdText(l.rec));
                }
            },
        );
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
        let centers: Vec<Point> = input
            .pick(sample_lines.iter().map(|&IdText(id)| id.into()))
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
            |&l: &Line, out| keyed_by_cell(&partitioner, &l.record(input).mbr, l, out),
            |_pid, lines: &[Line], out| {
                // cat | sort | unique — the engine charges the sort. A
                // mapper keys a line by distinct cells, so a group holds each
                // record's line once, in map-task order: `unique` has nothing
                // to remove, and the group goes out as it came in.
                #[cfg(feature = "sanitize")]
                {
                    let ascending = lines.is_sorted_by(|a, b| a.rec < b.rec);
                    debug_assert!(ascending, "sanitize: a step-6 group repeats or reorders lines");
                }
                lines.iter().copied().for_each(out)
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
            |&l: &Tagged, out| keyed_by_cell(&partitioner, &l.record(left, right).mbr, l, out),
            |key, lines: &[Tagged], out| {
                let mut lrecs: Vec<&GeoRecord> = Vec::new();
                let mut rrecs: Vec<&GeoRecord> = Vec::new();
                for &l in lines {
                    let side = if l.left { &mut lrecs } else { &mut rrecs };
                    side.push(l.record(left, right));
                }
                let owner = [partitioner.owner_test(key.cell)];
                let (pairs, _cost) =
                    local_join_reported(&geos, predicate, local_algo, &lrecs, &rrecs, &owner);
                pairs.into_iter().for_each(|(a, b)| out(PairLine(a, b)))
            },
        );
        if pipes_break(steps, job, stop) {
            return None;
        }
        Some(lines.into_iter().map(|PairLine(a, b)| (a, b)).collect())
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
        let mut steps = Vec::new();
        let pairs = self.work_steps(run_cost(stop), &mut steps, left, right, predicate, stop);
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
        // A six-digit text ranks as its cell, which keeps the text's order:
        // ranks strictly increase over the sorted distinct keys. A longer
        // text has no rank.
        let mut keys: Vec<CellKey> = cells.iter().map(|&c| CellKey::new(c)).collect();
        keys.sort_unstable();
        keys.dedup();
        let ranked: Vec<u32> = keys.iter().filter_map(|k| k.rank()).collect();
        assert!(ranked.windows(2).all(|w| w[0] < w[1]), "ranks out of key order");
        for k in &keys {
            assert_eq!(k.rank().is_some(), format!("{:06}", k.cell).len() == 6, "{}", k.cell);
        }
    }

    #[test]
    fn typed_lines_are_as_long_as_their_text() {
        // Every digit boundary of a u64, and the largest u32.
        let mut ns = vec![0, u64::from(u32::MAX), u64::MAX];
        ns.extend((1..20).flat_map(|e| [10u64.pow(e) - 1, 10u64.pow(e)]));
        for &a in &ns {
            if let Ok(id) = u32::try_from(a) {
                assert_eq!(IdText(id).text_len(), format!("{id}").len(), "{id}");
            }
            for &b in &ns {
                assert_eq!(PairLine(a, b).text_len(), format!("{a}\t{b}").len(), "{a} {b}");
            }
        }
        // Tagged lines over a file whose ids cross 9 -> 10 and 99 -> 100.
        let (left, _) = tiny_inputs();
        assert!(left.records.len() > 100);
        let text = sjc_data::tsv::to_tsv_text(left.records.iter().map(|r| (r.id, &r.geom)));
        let lines = Line::all(&left);
        assert_eq!(lines.len(), text.split_terminator('\n').count());
        for (&line, text_line) in lines.iter().zip(text.split_terminator('\n')) {
            assert_eq!(line.text_len(), text_line.len());
            assert_eq!(line.record(&left).id.to_string(), text_line.split('\t').next().unwrap());
            for (left, tag) in [(true, "A"), (false, "B")] {
                let tagged = Tagged { left, line };
                assert_eq!(tagged.text_len(), format!("{tag}\t{text_line}").len());
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
