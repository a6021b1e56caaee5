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
//! The text is real and written once: `run` holds each dataset's TSV in one
//! buffer (the file HDFS would hold) and one more for the join job's tagged
//! lines; every streaming line is a `&str` slice of those, passed from
//! mapper to shuffle to reducer, so each charged length is the `len()` of
//! bytes that exist while the host copies none of them.

use sjc_cluster::metrics::Phase;
use sjc_cluster::{
    Cluster, RecoveryEvent, RunTrace, SimError, SimHdfs, SimNs, StageKind, StageTrace,
};
use sjc_data::tsv::to_tsv_text;
use sjc_geom::{EngineKind, GeometryEngine, Mbr, Point};
use sjc_index::partition::{dedup_owner_cell, BspPartitioner, SpatialPartitioner};
use sjc_mapreduce::job::ScaleMode;
use sjc_mapreduce::{block_splits, JobConfig, MapReduceJob, StreamingJob, TextLen};

use crate::common::{default_partition_count, local_join, LocalJoinAlgo};
use crate::framework::{DistributedSpatialJoin, GeoRecord, JoinInput, JoinOutput, JoinPredicate};

/// The HadoopGIS system.
#[derive(Debug, Clone)]
pub struct HadoopGis {
    /// Target partition count of the sample-derived partitioning.
    pub partitions: usize,
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
        HadoopGis {
            partitions: default_partition_count(),
            local_algo: LocalJoinAlgo::IndexedNestedLoop,
            engine: EngineKind::Geos,
        }
    }
}

/// A dataset's TSV text, one `\n`-terminated line per record. The WKT text
/// sizes of the synthetic geometry track the paper's Table-1 bytes/record
/// closely, so pipe and parse charges computed from real line lengths are
/// faithful.
fn dataset_text(input: &JoinInput) -> String {
    to_tsv_text(input.records.iter().map(|r| (r.id, &r.geom)))
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

/// An `FsCopy` stage: HDFS <-> local filesystem transfer of `bytes`.
fn fs_copy(cluster: &Cluster, name: String, phase: Phase, bytes: u64) -> StageTrace {
    let mut st = StageTrace::new(name, StageKind::FsCopy, phase);
    st.sim_ns = cluster.cost.io_ns(bytes, cluster.cost.local_copy_bw);
    st.hdfs_bytes_read = bytes;
    st
}

/// The streaming mapper's output for one record: its `line` keyed by every
/// partition `mbr` is assigned to.
fn keyed_by_cell<'t>(
    partitioner: &BspPartitioner,
    mbr: &Mbr,
    line: &'t str,
    out: &mut dyn FnMut(CellKey, &'t str),
) {
    sjc_par::scratch::with_vec(|cells| {
        partitioner.assign_into(mbr, cells);
        for &c in cells.iter() {
            out(CellKey::new(c), line);
        }
    })
}

/// Default HDFS block size (the streaming jobs split inputs by it).
fn hdfs_block() -> u64 {
    sjc_cluster::hdfs::DEFAULT_BLOCK_SIZE
}

impl HadoopGis {
    /// Steps 1–6 for one dataset, whose TSV is `text`. Returns the sample MBR
    /// centers (reused by the global join) and the converted TSV lines.
    #[allow(clippy::type_complexity)]
    fn preprocess<'t>(
        &self,
        cluster: &Cluster,
        hdfs: &mut SimHdfs,
        input: &JoinInput,
        text: &'t str,
        phase: Phase,
        start_ns: SimNs,
    ) -> Result<(Vec<Point>, Vec<&'t str>, Vec<StageTrace>, Vec<RecoveryEvent>), SimError> {
        let mut traces: Vec<StageTrace> = Vec::new();
        let mut recovery: Vec<RecoveryEvent> = Vec::new();
        // Each job starts where the previous stage (job, copy, or serial
        // step) of this run left off on the global simulated clock.
        let elapsed =
            |traces: &[StageTrace]| start_ns + traces.iter().map(|t| t.sim_ns).sum::<SimNs>();
        let bpr = input.bytes_per_record();
        let block = hdfs_block();
        let raw: Vec<&str> = text.split_terminator('\n').collect();

        let mut engine = MapReduceJob::new(cluster, hdfs);
        let mut streaming = StreamingJob::new(&mut engine);

        // Step 1: convert to TSV while loading (identity mapper here — the
        // cost is reading + piping + rewriting every byte).
        let cfg1 =
            JobConfig::new(format!("{}: 1 convert to TSV", input.name), phase, input.multiplier)
                .starting_at(elapsed(&traces));
        let converted =
            streaming.map_only_lines(&cfg1, block_splits(&raw, bpr, block), |&l, out| out(l))?;
        recovery.extend(converted.recovery.iter().cloned());
        traces.push(converted.trace);
        let tsv = converted.lines;

        // Step 2: sample MBRs (systematic 1-in-k, k sized for ~10 samples
        // per partition).
        let stride = (input.records.len() / (10 * self.partitions)).max(1);
        // The sampled lines are every `stride`-th line in job order; taking
        // them from `tsv` up front keeps the mapper a pure (`Fn + Sync`)
        // membership test so the host can run map tasks in parallel. Lines
        // are unique (they start with the record id), so the set selects
        // exactly the lines the old 1-in-k invocation counter did.
        let keep: std::collections::BTreeSet<&str> = tsv.iter().step_by(stride).copied().collect();
        let cfg2 =
            JobConfig::new(format!("{}: 2 sample MBRs", input.name), phase, input.multiplier)
                .starting_at(elapsed(&traces));
        let sampled =
            streaming.map_only_lines(&cfg2, block_splits(&tsv, bpr, block), |l, out| {
                if keep.contains(l) {
                    out(l.split('\t').next().unwrap_or("0"));
                }
            })?;
        recovery.extend(sampled.recovery.iter().cloned());
        traces.push(sampled.trace);
        let sample_lines = sampled.lines;
        let sample_ids: Vec<u64> = sample_lines
            .iter()
            // sjc-lint: allow(no-panic-in-lib) — step 2's mapper emitted these lines from the TSV's numeric id column
            .map(|l| l.parse::<u64>().expect("sample lines carry record ids"))
            .collect();
        let sample_bytes = sample_ids.len() as u64 * 72;

        // Step 3: compute the extent of the samples (MR job, single reducer).
        let cfg3 =
            JobConfig::new(format!("{}: 3 compute extent", input.name), phase, input.multiplier)
                .write_output(false)
                .starting_at(elapsed(&traces));
        let extent_out = streaming.map_reduce_lines(
            &cfg3,
            block_splits(&sample_lines, 72.0, block),
            |&l, out| out("extent", l),
            |_, vs, out| out(format!("count={}", vs.len())),
        )?;
        recovery.extend(extent_out.recovery.iter().cloned());
        traces.push(extent_out.trace);

        // Step 4: normalize sample MBRs (map-only over the samples).
        let cfg4 =
            JobConfig::new(format!("{}: 4 normalize samples", input.name), phase, input.multiplier)
                .starting_at(elapsed(&traces));
        let normalized = streaming.map_only_lines(
            &cfg4,
            block_splits(&sample_lines, 72.0, block),
            |&l, out| out(l),
        )?;
        recovery.extend(normalized.recovery.iter().cloned());
        traces.push(normalized.trace);

        // Step 5: local serial partition generation with HDFS round-trips.
        traces.push(fs_copy(
            cluster,
            format!("{}: 5a copy samples to local", input.name),
            phase,
            sample_bytes,
        ));
        let centers: Vec<Point> = sample_ids
            .iter()
            // sjc-lint: allow(no-panic-in-lib) — record ids are the enumerate indices minted by JoinInput::from_dataset
            .map(|&i| input.records[i as usize].mbr.center())
            .collect();
        let mut gen_stage = StageTrace::new(
            format!("{}: 5b generate partitions (serial)", input.name),
            StageKind::LocalSerial,
            phase,
        );
        let n = centers.len().max(2) as f64;
        gen_stage.sim_ns = (n * n.log2() * 500.0) as u64; // serial script-speed sort/split
        traces.push(gen_stage);
        traces.push(fs_copy(
            cluster,
            format!("{}: 5c copy partitions to HDFS", input.name),
            phase,
            self.partitions as u64 * 72,
        ));
        let partitioner =
            BspPartitioner::from_sample(input.domain, centers.clone(), self.partitions);

        // Step 6: assign partition ids — the expensive step: every record is
        // parsed, probed against the sample partitions and rewritten, and
        // the reducer is the cat-sort-unique pipeline. (Each map task also
        // rebuilds the sample R-tree; at 64 cells that build is microseconds
        // against the task's pipe+parse bill, so it rides inside the
        // calibrated per-byte constants.)
        let cfg6 =
            JobConfig::new(format!("{}: 6 assign partitions", input.name), phase, input.multiplier)
                .starting_at(elapsed(&traces));
        let records = &input.records;
        let assigned = streaming.map_reduce_lines(
            &cfg6,
            block_splits(&tsv, bpr, block),
            |l, out| {
                let id: u64 = l.split('\t').next().unwrap_or("0").parse().unwrap_or(0);
                // sjc-lint: allow(no-panic-in-lib) — ids in the TSV are enumerate indices into input.records
                let mbr = &records[id as usize].mbr;
                keyed_by_cell(&partitioner, mbr, l, out)
            },
            |_pid, lines, out| {
                // cat | sort | unique — sorting is charged by the engine;
                // the dedup emits the unique lines.
                let mut sorted: Vec<&str> = lines.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.into_iter().for_each(out)
            },
        )?;
        recovery.extend(assigned.recovery.iter().cloned());
        traces.push(assigned.trace);

        Ok((centers, tsv, traces, recovery))
    }
}

impl DistributedSpatialJoin for HadoopGis {
    fn name(&self) -> &'static str {
        "HadoopGIS"
    }

    fn engine(&self) -> EngineKind {
        self.engine
    }

    fn run(
        &self,
        cluster: &Cluster,
        left: &JoinInput,
        right: &JoinInput,
        predicate: JoinPredicate,
    ) -> Result<JoinOutput, SimError> {
        let mut hdfs = SimHdfs::new(cluster.config.nodes);
        let mut trace = RunTrace::new(self.name());
        let geos = GeometryEngine::new(self.engine());

        // Preprocessing: the six steps, per dataset.
        let text_a = dataset_text(left);
        let (centers_a, tsv_a, t, r) =
            self.preprocess(cluster, &mut hdfs, left, &text_a, Phase::IndexA, trace.total_ns())?;
        trace.stages.extend(t);
        trace.push_recovery(r);
        let text_b = dataset_text(right);
        let (centers_b, tsv_b, t, r) =
            self.preprocess(cluster, &mut hdfs, right, &text_b, Phase::IndexB, trace.total_ns())?;
        trace.stages.extend(t);
        trace.push_recovery(r);

        // Global join: concatenate the samples locally and build *new*
        // partitions (the step-6 partition ids are discarded — wasteful, as
        // the paper notes, but Streaming leaves no alternative).
        let sample_bytes = (centers_a.len() + centers_b.len()) as u64 * 72;
        trace.push(fs_copy(
            cluster,
            "GJ: copy both samples to local".into(),
            Phase::DistributedJoin,
            sample_bytes,
        ));
        let mut combined = centers_a;
        combined.extend(centers_b);
        let mut gen = StageTrace::new(
            "GJ: build combined partitions (serial)",
            StageKind::LocalSerial,
            Phase::DistributedJoin,
        );
        let n = combined.len().max(2) as f64;
        gen.sim_ns = (n * n.log2() * 500.0) as u64;
        trace.push(gen);
        trace.push(fs_copy(
            cluster,
            "GJ: copy partitions to HDFS".into(),
            Phase::DistributedJoin,
            self.partitions as u64 * 72,
        ));
        let domain = left.domain.union(&right.domain);
        let partitioner = BspPartitioner::from_sample(domain, combined, self.partitions);

        // The distributed join MR job: both datasets are re-read, re-parsed,
        // re-assigned and shuffled; reducers run the local join with GEOS.
        let mut tagged_text =
            String::with_capacity(text_a.len() + text_b.len() + 2 * (tsv_a.len() + tsv_b.len()));
        for (tag, tsv) in [("A\t", &tsv_a), ("B\t", &tsv_b)] {
            for l in tsv {
                tagged_text.push_str(tag);
                tagged_text.push_str(l);
                tagged_text.push('\n');
            }
        }
        let tagged: Vec<&str> = tagged_text.split_terminator('\n').collect();
        let bpr = (left.bytes_per_record() * tsv_a.len() as f64
            + right.bytes_per_record() * tsv_b.len() as f64)
            / tagged.len().max(1) as f64;

        let mult = left.multiplier.max(right.multiplier);
        let mut engine = MapReduceJob::new(cluster, &mut hdfs);
        let mut streaming = StreamingJob::new(&mut engine);
        // The join reducer is the Python-driven geometry script — the
        // per-record interpreter cost behind the paper's 14x / 5.7x DJ gap.
        // ~40% of the per-record cost is Python string handling, ~60% the
        // geometry-library call, so the script cost scales with the engine's
        // refinement factor (GEOS = 4x is the calibrated baseline).
        let script_factor = 0.4 + 0.6 * (geos.kind().refinement_factor() / 4.0);
        let cfg = JobConfig::new("distributed join (streaming MR)", Phase::DistributedJoin, mult)
            .map_scale(ScaleMode::MoreTasks)
            .script_reducer(true)
            .script_cost_factor(script_factor)
            .starting_at(trace.total_ns());
        let local_algo = self.local_algo;
        let outcome = streaming.map_reduce_lines(
            &cfg,
            block_splits(&tagged, bpr, hdfs_block()),
            |l, out| {
                let mut it = l.splitn(3, '\t');
                let tag = it.next().unwrap_or("A");
                let id: u64 = it.next().unwrap_or("0").parse().unwrap_or(0);
                let rec = if tag == "A" {
                    // sjc-lint: allow(no-panic-in-lib) — tagged ids are enumerate indices into left.records
                    &left.records[id as usize]
                } else {
                    // sjc-lint: allow(no-panic-in-lib) — tagged ids are enumerate indices into right.records
                    &right.records[id as usize]
                };
                let mbr = if tag == "A" { predicate.filter_mbr(&rec.mbr) } else { rec.mbr };
                keyed_by_cell(&partitioner, &mbr, l, out)
            },
            |key, lines, out| {
                let cell = key.cell;
                let mut lrecs: Vec<&GeoRecord> = Vec::new();
                let mut rrecs: Vec<&GeoRecord> = Vec::new();
                for l in lines {
                    let mut it = l.splitn(3, '\t');
                    let tag = it.next().unwrap_or("A");
                    let id: u64 = it.next().unwrap_or("0").parse().unwrap_or(0);
                    if tag == "A" {
                        // sjc-lint: allow(no-panic-in-lib) — tagged ids are enumerate indices into left.records
                        lrecs.push(&left.records[id as usize]);
                    } else {
                        // sjc-lint: allow(no-panic-in-lib) — tagged ids are enumerate indices into right.records
                        rrecs.push(&right.records[id as usize]);
                    }
                }
                let (pairs, _cost) =
                    local_join(&geos, predicate, local_algo, &lrecs, &rrecs, |am, bm| {
                        dedup_owner_cell(&partitioner, cell, &predicate.filter_mbr(am), bm)
                    });
                pairs.into_iter().for_each(|(a, b)| out(format!("{a}\t{b}")))
            },
        )?;
        trace.push_recovery(outcome.recovery.iter().cloned());
        trace.push(outcome.trace);

        let pairs = outcome
            .lines
            .iter()
            .map(|l| {
                let mut it = l.split('\t');
                // sjc-lint: allow(no-panic-in-lib) — the join reducer above emits exactly "leftid\trightid" lines
                let a = it.next().unwrap_or("0").parse::<u64>().expect("left id");
                // sjc-lint: allow(no-panic-in-lib) — right id of a self-emitted pair line
                let b = it.next().unwrap_or("0").parse::<u64>().expect("right id");
                (a, b)
            })
            .collect();
        Ok(JoinOutput { pairs, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::direct_join;
    use sjc_cluster::ClusterConfig;
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
