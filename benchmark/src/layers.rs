//! The per-layer numbers of the traced run.
//!
//! A layer is a crate. Each is timed from outside, by calling its public
//! functions on the workload's own inputs: a substrate-free *framework
//! replay* (sample → partition build → assign → global join → local join
//! with filter, refine and de-duplication), the kernels of that replay on
//! their own, one micro-job per substrate (streaming, native MapReduce,
//! RDD), and the scheduler, HDFS and pool primitives. Where a workload has
//! several input pairs the numbers are summed over them.

use std::collections::BTreeMap;
use std::hint::black_box;

use sjc_cluster::hdfs::DEFAULT_BLOCK_SIZE;
use sjc_cluster::metrics::Phase;
use sjc_cluster::scheduler::faulty_makespan;
use sjc_cluster::{Cluster, ClusterConfig, FaultPlan, SimError, SimHdfs};
use sjc_core::common::{local_join, LocalJoinAlgo};
use sjc_core::framework::{GeoRecord, JoinInput, JoinPredicate};
use sjc_core::SystemKind;
use sjc_data::ScaledDataset;
use sjc_geom::wkt::{parse_wkt, to_wkt};
use sjc_geom::{GeometryEngine, Point};
use sjc_index::join::{indexed_nested_loop, plane_sweep, stripe_sweep};
use sjc_index::partition::{
    BspPartitioner, FixedGridPartitioner, SpatialPartitioner, StrTilePartitioner,
};
use sjc_index::{IndexEntry, RTree};
use sjc_mapreduce::{block_splits, JobConfig, MapReduceJob, StreamingJob};
use sjc_par::Budget;
use sjc_rdd::SparkContext;

use crate::spans::Recorder;
use crate::verify::{pair_sig, splitmix64, PairSig};
use crate::workloads::{run_cells, Bench, Pass, Prepared};

/// Every per-layer metric the traced run emits, with its unit. The layer
/// is the name up to the first dot. `BENCHMARK.json` declares the same
/// list (a unit test holds the two together).
pub const METRICS: [(&str, &str); 56] = [
    ("data.generate_ms", "ms"),
    ("data.records", "count"),
    ("data.cache_hit_ns", "ns"),
    ("core.input_build_ms", "ms"),
    ("index.partition_build_ms", "ms"),
    ("index.partition_assign_ms", "ms"),
    ("index.assignments", "count"),
    ("index.replication_x", "x"),
    ("index.global_join_ms", "ms"),
    ("index.cell_pairs", "count"),
    ("index.filter_ms", "ms"),
    ("index.filter_inl_ms", "ms"),
    ("index.rtree_bulk_ms", "ms"),
    ("index.rtree_query_ns", "ns"),
    ("index.filter_tests", "count"),
    ("index.candidates", "count"),
    ("index.filter_precision", "ratio"),
    ("geom.refine_ms", "ms"),
    ("geom.refine_calls", "count"),
    ("geom.refine_hits", "count"),
    ("geom.refine_ns_per_call", "ns"),
    ("geom.wkt_write_ms", "ms"),
    ("geom.wkt_parse_ms", "ms"),
    ("geom.wkt_bytes", "bytes"),
    ("mapreduce.streaming_ms", "ms"),
    ("mapreduce.map_only_ms", "ms"),
    ("mapreduce.map_reduce_ms", "ms"),
    ("mapreduce.records_emitted", "count"),
    ("rdd.flat_map_ms", "ms"),
    ("rdd.group_by_key_ms", "ms"),
    ("rdd.join_ms", "ms"),
    ("rdd.collect_ms", "ms"),
    ("rdd.shuffle_records", "count"),
    ("cluster.makespan_ms", "ms"),
    ("cluster.faulty_makespan_ms", "ms"),
    ("cluster.recovery_events", "count"),
    ("cluster.hdfs_rw_ms", "ms"),
    ("cluster.hdfs_blocks", "count"),
    ("par.dispatch_us", "us"),
    ("par.map_1t_ms", "ms"),
    ("par.map_speedup_x", "x"),
    ("par.sort_ms", "ms"),
    ("par.scratch_cycle_ns", "ns"),
    ("core.run_ms.hadoopgis", "ms"),
    ("core.run_ms.spatialhadoop", "ms"),
    ("core.run_ms.spatialspark", "ms"),
    ("core.local_join_ms", "ms"),
    ("core.local_join_self_ms", "ms"),
    ("core.replay_ms", "ms"),
    ("core.sim_overhead_x.hadoopgis", "x"),
    ("core.sim_overhead_x.spatialhadoop", "x"),
    ("core.sim_overhead_x.spatialspark", "x"),
    ("core.report_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.replay_pairs", "count"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// Calls of a microsecond-scale primitive per span, so the span's two
/// clock reads are noise beside what it times.
const REPS: usize = 64;

const PREDICATE: JoinPredicate = JoinPredicate::Intersects;

/// 1 % systematic sample of record centers, as SpatialHadoop's sample job
/// draws it.
fn sample_centers(input: &JoinInput) -> Vec<Point> {
    input.records.iter().step_by(100).map(|r| r.mbr.center()).collect()
}

fn cell_entries(p: &dyn SpatialPartitioner) -> Vec<IndexEntry> {
    p.cells().iter().enumerate().map(|(i, c)| IndexEntry::new(i as u64, *c)).collect()
}

/// `SpatialPartitioner::assign` for every record: per cell, the indices of
/// the records assigned to it.
fn assign_all(p: &dyn SpatialPartitioner, input: &JoinInput) -> Vec<Vec<u32>> {
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); p.cells().len()];
    for (i, r) in input.records.iter().enumerate() {
        for c in p.assign(&r.mbr) {
            cells[c as usize].push(i as u32);
        }
    }
    cells
}

fn pick<'a>(input: &'a JoinInput, ids: &[u32]) -> Vec<&'a GeoRecord> {
    ids.iter().map(|&i| &input.records[i as usize]).collect()
}

/// What the replay of one input pair leaves for the kernel and substrate
/// sections.
struct Replayed {
    bsp: BspPartitioner,
    /// Per cell of either side's partitioning, the records assigned to it.
    cells_a: Vec<Vec<u32>>,
    cells_b: Vec<Vec<u32>>,
    /// The cell pairs the global join found, both cells non-empty.
    joined: Vec<(usize, usize)>,
    sig: PairSig,
}

/// The framework without a substrate, in SpatialHadoop's shape: either
/// side gets its own sample-derived partitioning, the global join pairs
/// the cells, and every cell pair runs `common::local_join` under the
/// reference-point rule.
fn replay(rec: &mut Recorder, left: &JoinInput, right: &JoinInput) -> Replayed {
    rec.span("core.replay", |rec| {
        let (pa, pb, bsp) = rec.span("index.partition_build", |_| {
            let pa = StrTilePartitioner::from_sample(left.domain, sample_centers(left), 128);
            let pb = StrTilePartitioner::from_sample(right.domain, sample_centers(right), 128);
            let domain = left.domain.union(&right.domain);
            let mut both = sample_centers(left);
            both.extend(sample_centers(right));
            let bsp = BspPartitioner::from_sample(domain, both, 64);
            black_box(FixedGridPartitioner::with_target_cells(domain, 128).cells().len());
            (pa, pb, bsp)
        });
        let (cells_a, cells_b) = rec.span("index.partition_assign", |rec| {
            let a = assign_all(&pa, left);
            let b = assign_all(&pb, right);
            let n: usize = a.iter().chain(&b).map(Vec::len).sum();
            rec.count("index.assignments", n as f64);
            rec.count("records", (left.records.len() + right.records.len()) as f64);
            (a, b)
        });
        let joined: Vec<(usize, usize)> = rec.span("index.global_join", |rec| {
            let pairs = plane_sweep(&cell_entries(&pa), &cell_entries(&pb)).pairs;
            rec.count("index.cell_pairs", pairs.len() as f64);
            pairs
                .into_iter()
                .map(|(ca, cb)| (ca as usize, cb as usize))
                .filter(|&(ca, cb)| !cells_a[ca].is_empty() && !cells_b[cb].is_empty())
                .collect()
        });
        let engine = GeometryEngine::jts();
        let pairs = rec.span("core.local_join", |_| {
            let mut out = Vec::new();
            for &(ca, cb) in &joined {
                let (found, _) = local_join(
                    &engine,
                    PREDICATE,
                    LocalJoinAlgo::default(),
                    &pick(left, &cells_a[ca]),
                    &pick(right, &cells_b[cb]),
                    |am, bm| match am.reference_point(bm) {
                        Some(rp) => pa.owner(&rp) == ca as u32 && pb.owner(&rp) == cb as u32,
                        None => false,
                    },
                );
                out.extend(found);
            }
            out
        });
        Replayed { bsp, cells_a, cells_b, joined, sig: pair_sig(&pairs) }
    })
}

/// The replay's kernels on their own, over the same cell pairs: both MBR
/// filters, the R-tree they use, and the exact-geometry refinement of the
/// default filter's candidates. Returns those candidates as record pairs.
fn kernels<'a>(
    rec: &mut Recorder,
    left: &'a JoinInput,
    right: &'a JoinInput,
    replayed: &Replayed,
) -> Vec<(&'a GeoRecord, &'a GeoRecord)> {
    let cell_pairs: Vec<(&[u32], &[u32])> = replayed
        .joined
        .iter()
        .map(|&(ca, cb)| (replayed.cells_a[ca].as_slice(), replayed.cells_b[cb].as_slice()))
        .collect();
    let entries = |input: &JoinInput, ids: &[u32]| -> Vec<IndexEntry> {
        ids.iter()
            .enumerate()
            .map(|(i, &r)| IndexEntry::new(i as u64, input.records[r as usize].mbr))
            .collect()
    };
    let staged: Vec<(Vec<IndexEntry>, Vec<IndexEntry>)> =
        cell_pairs.iter().map(|(a, b)| (entries(left, a), entries(right, b))).collect();

    let found = rec.span("index.filter", |rec| {
        let mut found = Vec::with_capacity(staged.len());
        for (a, b) in &staged {
            let c = stripe_sweep(a, b);
            rec.count("index.filter_tests", c.stats.filter_tests as f64);
            rec.count("index.candidates", c.pairs.len() as f64);
            found.push(c.pairs);
        }
        found
    });
    rec.span("index.filter_inl", |_| {
        for (a, b) in &staged {
            black_box(indexed_nested_loop(a, b).pairs.len());
        }
    });

    let all_right: Vec<IndexEntry> =
        right.records.iter().map(|r| IndexEntry::new(r.id, r.mbr)).collect();
    let tree = rec.span("index.rtree_bulk", |_| RTree::bulk_load_str(all_right));
    rec.span("index.rtree_query", |rec| {
        let mut hits = Vec::new();
        for l in &left.records {
            hits.clear();
            tree.query_into(&l.mbr, &mut hits);
            black_box(hits.len());
        }
        rec.count("index.rtree_queries", left.records.len() as f64);
    });

    let candidates: Vec<(&GeoRecord, &GeoRecord)> = cell_pairs
        .iter()
        .zip(&found)
        .flat_map(|((a, b), pairs)| {
            pairs.iter().map(move |&(li, ri)| {
                (&left.records[a[li as usize] as usize], &right.records[b[ri as usize] as usize])
            })
        })
        .collect();
    let engine = GeometryEngine::jts();
    rec.span("geom.refine", |rec| {
        let hits = candidates
            .iter()
            .filter(|(l, r)| PREDICATE.evaluate(&engine, &l.geom, &r.geom).0)
            .count();
        rec.count("geom.refine_calls", candidates.len() as f64);
        rec.count("geom.refine_hits", hits as f64);
    });
    candidates
}

/// The cell ids a record's MBR falls in, through an R-tree over the cells —
/// how SpatialHadoop's partition job and SpatialSpark's tagging step probe.
fn probe(tree: &RTree, p: &dyn SpatialPartitioner, rec: &GeoRecord) -> Vec<u32> {
    let mut hits = Vec::new();
    tree.query_counting(&rec.mbr, &mut hits);
    if hits.is_empty() {
        vec![p.nearest_cell(&rec.mbr.center())]
    } else {
        hits.into_iter().map(|c| c as u32).collect()
    }
}

/// One micro-job per substrate over one input: the text path (WKT out and
/// back in, then a streaming partition job), native MapReduce (record →
/// cell key → per-cell reduce) and the RDD chain SpatialSpark builds (tag →
/// group → join → collect). All at multiplier 1 on the workstation, where
/// none of them can fail; `Err` is reported as a wrong output.
fn substrates(
    rec: &mut Recorder,
    left: &JoinInput,
    right: &JoinInput,
    bsp: &BspPartitioner,
) -> Result<(), String> {
    let ws = Cluster::new(ClusterConfig::workstation());
    let sim = |e: SimError| e.to_string();
    let block = DEFAULT_BLOCK_SIZE;

    // geom: text out, text in.
    let wkt: Vec<String> =
        rec.span("geom.wkt_write", |_| left.records.iter().map(|r| to_wkt(&r.geom)).collect());
    rec.count("geom.wkt_bytes", wkt.iter().map(String::len).sum::<usize>() as f64);
    let parsed =
        rec.span("geom.wkt_parse", |_| wkt.iter().filter(|s| parse_wkt(s).is_ok()).count());
    if parsed != wkt.len() {
        return Err(format!("{} of {} WKT lines parse back", parsed, wkt.len()));
    }

    // mapreduce, streaming: HadoopGIS's step 6 — parse the id, assign the
    // partitions, shuffle, sort-unique in the reducer.
    let tsv: Vec<String> = wkt.iter().enumerate().map(|(i, w)| format!("{i}\t{w}")).collect();
    drop(wkt);
    let bpr = left.bytes_per_record();
    rec.span("mapreduce.streaming", |_| {
        let mut hdfs = SimHdfs::new(ws.config.nodes);
        let mut engine = MapReduceJob::new(&ws, &mut hdfs);
        let cfg = JobConfig::new("bench: assign partitions", Phase::IndexA, 1.0);
        StreamingJob::new(&mut engine)
            .map_reduce(
                &cfg,
                block_splits(&tsv, bpr, block),
                |l| {
                    let id: usize = l.split('\t').next().unwrap_or("0").parse().unwrap_or(0);
                    bsp.assign(&left.records[id].mbr)
                        .into_iter()
                        .map(|c| (format!("{c:06}"), l.to_string()))
                        .collect()
                },
                |_, lines| {
                    let mut sorted: Vec<&String> = lines.iter().collect();
                    sorted.sort_unstable();
                    sorted.dedup();
                    sorted.iter().map(|l| l.to_string()).collect()
                },
            )
            .map(|out| black_box(out.lines.len()))
    })
    .map_err(sim)?;
    drop(tsv);

    // mapreduce, native: SpatialHadoop's partition job.
    let cells = RTree::bulk_load_str(cell_entries(bsp));
    let ids: Vec<u32> = (0..left.records.len() as u32).collect();
    let emitted = rec
        .span("mapreduce.map_only", |_| {
            let mut hdfs = SimHdfs::new(ws.config.nodes);
            let cfg =
                JobConfig::new("bench: tag", Phase::IndexA, left.multiplier).write_output(false);
            MapReduceJob::new(&ws, &mut hdfs)
                .map_only(&cfg, block_splits(&ids, bpr, block), |&i, em| {
                    for c in probe(&cells, bsp, &left.records[i as usize]) {
                        em.emit((c, i), 16);
                    }
                })
                .map(|out| out.output.len())
        })
        .map_err(sim)?;
    rec.count("mapreduce.records_emitted", emitted as f64);
    rec.span("mapreduce.map_reduce", |_| {
        let mut hdfs = SimHdfs::new(ws.config.nodes);
        let cfg = JobConfig::new("bench: partition+index", Phase::IndexA, left.multiplier);
        MapReduceJob::new(&ws, &mut hdfs)
            .map_reduce(
                &cfg,
                block_splits(&ids, bpr, block),
                |&i, em| {
                    for c in probe(&cells, bsp, &left.records[i as usize]) {
                        em.emit(c, i, bpr as u64);
                    }
                },
                |cell, ids, em| em.emit((*cell, ids.len() as u64), (ids.len() as f64 * bpr) as u64),
            )
            .map(|out| black_box(out.output.len()))
    })
    .map_err(sim)?;

    // rdd: the chain SpatialSpark's partition-based join builds.
    let mut ctx = SparkContext::new(&ws);
    let ncells = bsp.cells().len();
    let (tagged_l, tagged_r) = rec.span("rdd.flat_map", |_| {
        let tag = |ctx: &mut SparkContext<'_>, input: &JoinInput| {
            let ids: Vec<u32> = (0..input.records.len() as u32).collect();
            ctx.read_text(ids, input.sim_bytes, 1.0).flat_map(ctx, |&i, _| {
                probe(&cells, bsp, &input.records[i as usize]).into_iter().map(|c| (c, i)).collect()
            })
        };
        (tag(&mut ctx, left), tag(&mut ctx, right))
    });
    rec.count("rdd.shuffle_records", (tagged_l.count() + tagged_r.count()) as f64);
    let (grouped_l, grouped_r) = rec
        .span("rdd.group_by_key", |_| {
            let l = tagged_l.group_by_key(
                &mut ctx,
                "bench: group left",
                Phase::DistributedJoin,
                ncells,
            )?;
            let r = tagged_r.group_by_key(
                &mut ctx,
                "bench: group right",
                Phase::DistributedJoin,
                ncells,
            )?;
            Ok::<_, SimError>((l, r))
        })
        .map_err(sim)?;
    let joined = rec
        .span("rdd.join", |_| {
            grouped_l.join(grouped_r, &mut ctx, "bench: join", Phase::DistributedJoin, ncells)
        })
        .map_err(sim)?;
    rec.span("rdd.collect", |_| {
        joined
            .collect(&mut ctx, "bench: collect", Phase::DistributedJoin)
            .map(|v| black_box(v.len()))
    })
    .map_err(sim)?;
    Ok(())
}

/// The scheduler and HDFS on the input's *full-scale* shape: one task per
/// 64 MiB block of both datasets, on EC2-10.
fn cluster_primitives(rec: &mut Recorder, left: &JoinInput, right: &JoinInput, seed: u64) {
    let config = ClusterConfig::ec2(10);
    let ec2 = Cluster::new(config.clone());
    let full = |i: &JoinInput| {
        ((i.sim_bytes as f64 * i.multiplier) as u64, (i.records.len() as f64 * i.multiplier) as u64)
    };
    let (lb, lr) = full(left);
    let (rb, rr) = full(right);
    let block_ns = ec2.cost.io_ns(DEFAULT_BLOCK_SIZE, config.node.slot_disk_read_bw());
    let tasks: Vec<u64> = (0..(lb + rb).div_ceil(DEFAULT_BLOCK_SIZE).max(1))
        .map(|i| block_ns + splitmix64(seed ^ i) % block_ns.max(1))
        .collect();
    let makespan = rec.span("cluster.makespan", |_| {
        (0..REPS).map(|_| ec2.makespan(black_box(&tasks))).max().unwrap_or(0)
    });
    let plan = FaultPlan::heavy(7, &config)
        .crash_at(2, makespan * 2 / 5)
        .with_checkpoints(2, 3)
        .with_elastic_provisioning(4_000_000_000);
    rec.span("cluster.faulty_makespan", |rec| {
        for _ in 0..REPS {
            let events = faulty_makespan(
                &tasks,
                config.node.cores,
                config.nodes,
                &plan,
                "bench wave",
                0,
                true,
            )
            .map(|s| s.events.len())
            .unwrap_or(0);
            rec.count("cluster.recovery_events", events as f64 / REPS as f64);
        }
    });
    rec.span("cluster.hdfs_rw", |rec| {
        for _ in 0..REPS {
            let mut hdfs = SimHdfs::new(config.nodes);
            let mut blocks = hdfs.write_file("left", lb, lr).blocks.len();
            blocks += hdfs.write_file("right", rb, rr).blocks.len();
            for name in ["left", "right"] {
                blocks += hdfs.read_file(name).map(|f| f.blocks.len()).unwrap_or(0);
            }
            rec.count("cluster.hdfs_blocks", blocks as f64 / REPS as f64);
        }
    });
}

/// The pool and its helpers at the workload's thread budget.
fn par_primitives(
    rec: &mut Recorder,
    threads: usize,
    left: &JoinInput,
    candidates: &[(&GeoRecord, &GeoRecord)],
) {
    let items: Vec<u64> = (0..64).collect();
    rec.span("par.dispatch", |_| {
        for _ in 0..REPS {
            black_box(sjc_par::par_map(black_box(&items), |x| x + 1));
        }
    });
    let engine = GeometryEngine::jts();
    let refine =
        |&(l, r): &(&GeoRecord, &GeoRecord)| PREDICATE.evaluate(&engine, &l.geom, &r.geom).0;
    rec.span("par.map_1t", |_| {
        black_box(sjc_par::par_map_budget(Budget::explicit(1), candidates, refine))
    });
    if threads > 1 {
        rec.span("par.map_mt", |_| {
            black_box(sjc_par::par_map_budget(Budget::explicit(threads), candidates, refine))
        });
    }
    // The STR sort keys: record centers by x.
    let mut keys: Vec<f64> = left.records.iter().map(|r| r.mbr.center().x).collect();
    rec.span("par.sort", |_| sjc_par::par_sort_by(&mut keys, f64::total_cmp));
    rec.span("par.scratch_cycle", |_| {
        for _ in 0..REPS * REPS {
            let mut v: Vec<u64> = sjc_par::scratch::take_vec();
            v.push(1);
            sjc_par::scratch::put_vec(black_box(v));
        }
    });
}

/// Runs every layer section on the workload's inputs and turns the spans
/// and counts into the declared metrics. `traced` is the traced pass the
/// caller just ran; the second value is whether every output was right
/// (the replay's pairs equal `oracles`, no substrate job failed).
pub fn measure(
    rec: &mut Recorder,
    bench: &Bench,
    prep: &Prepared,
    traced: &Pass,
    oracles: &[PairSig],
) -> (Metrics, bool) {
    let mut correct = true;
    let threads = bench.threads();

    // The grid runs its cells interleaved on the pool; for per-system
    // walls run them once more one by one.
    let serial = bench.grid_scale.map(|_| run_cells(prep, rec));
    let cell_ms = &serial.as_ref().unwrap_or(traced).unit_ms;

    let mut replay_ms = vec![0.0; prep.generated];
    let mut replay_pairs = 0u64;
    for (i, spec) in bench.inputs.iter().enumerate() {
        let (left_ds, right_ds) = rec.span("data.generate", |_| {
            (
                ScaledDataset::generate(spec.workload.left, spec.scale, prep.seed),
                ScaledDataset::generate(spec.workload.right, spec.scale, prep.seed),
            )
        });
        rec.count("data.records", (left_ds.len() + right_ds.len()) as f64);
        rec.span("data.cache_hit", |_| {
            for _ in 0..REPS {
                black_box(sjc_data::generate_cached(spec.workload.left, spec.scale, prep.seed));
            }
        });
        rec.span("core.input_build", |_| {
            black_box((JoinInput::from_dataset(&left_ds), JoinInput::from_dataset(&right_ds)));
        });
        drop((left_ds, right_ds));

        let (left, right) = &prep.inputs[i];
        let before = rec.total_ms("core.replay");
        let replayed = replay(rec, left, right);
        replay_ms[i] = rec.total_ms("core.replay") - before;
        replay_pairs += replayed.sig.count;
        if replayed.sig != oracles[i] {
            eprintln!(
                "FAIL {}: framework replay vs brute-force oracle: expected {:?}, got {:?}",
                spec.workload.name, oracles[i], replayed.sig
            );
            correct = false;
        }
        let candidates = kernels(rec, left, right, &replayed);
        if let Err(e) = substrates(rec, left, right, &replayed.bsp) {
            eprintln!("FAIL {}: substrate micro-job: {e}", spec.workload.name);
            correct = false;
        }
        cluster_primitives(rec, left, right, prep.seed);
        par_primitives(rec, threads, left, &candidates);
    }

    let mut m = Metrics::new();
    for (metric, span) in [
        ("data.generate_ms", "data.generate"),
        ("core.input_build_ms", "core.input_build"),
        ("index.partition_build_ms", "index.partition_build"),
        ("index.partition_assign_ms", "index.partition_assign"),
        ("index.global_join_ms", "index.global_join"),
        ("index.filter_ms", "index.filter"),
        ("index.filter_inl_ms", "index.filter_inl"),
        ("index.rtree_bulk_ms", "index.rtree_bulk"),
        ("geom.refine_ms", "geom.refine"),
        ("geom.wkt_write_ms", "geom.wkt_write"),
        ("geom.wkt_parse_ms", "geom.wkt_parse"),
        ("mapreduce.streaming_ms", "mapreduce.streaming"),
        ("mapreduce.map_only_ms", "mapreduce.map_only"),
        ("mapreduce.map_reduce_ms", "mapreduce.map_reduce"),
        ("rdd.flat_map_ms", "rdd.flat_map"),
        ("rdd.group_by_key_ms", "rdd.group_by_key"),
        ("rdd.join_ms", "rdd.join"),
        ("rdd.collect_ms", "rdd.collect"),
        ("par.map_1t_ms", "par.map_1t"),
        ("par.sort_ms", "par.sort"),
        ("core.local_join_ms", "core.local_join"),
        ("core.replay_ms", "core.replay"),
        ("core.report_ms", "core.report"),
        ("core.run_ms.hadoopgis", "core.run.hadoopgis"),
        ("core.run_ms.spatialhadoop", "core.run.spatialhadoop"),
        ("core.run_ms.spatialspark", "core.run.spatialspark"),
    ] {
        m.insert(metric, rec.total_ms(span));
    }
    for count in [
        "data.records",
        "index.assignments",
        "index.cell_pairs",
        "index.filter_tests",
        "index.candidates",
        "geom.refine_calls",
        "geom.refine_hits",
        "geom.wkt_bytes",
        "mapreduce.records_emitted",
        "rdd.shuffle_records",
        "cluster.recovery_events",
        "cluster.hdfs_blocks",
    ] {
        m.insert(count, rec.counted(count));
    }
    // Per-call means of the primitives that ran `REPS` times per span.
    let inputs = bench.inputs.len() as f64;
    let per_call = |span: &str, calls: f64| rec.total_ms(span) / calls.max(1.0);
    m.insert("data.cache_hit_ns", per_call("data.cache_hit", inputs * REPS as f64) * 1e6);
    m.insert("cluster.makespan_ms", per_call("cluster.makespan", inputs * REPS as f64));
    m.insert(
        "cluster.faulty_makespan_ms",
        per_call("cluster.faulty_makespan", inputs * REPS as f64),
    );
    m.insert("cluster.hdfs_rw_ms", per_call("cluster.hdfs_rw", inputs * REPS as f64));
    m.insert("par.dispatch_us", per_call("par.dispatch", inputs * REPS as f64) * 1e3);
    m.insert(
        "par.scratch_cycle_ns",
        per_call("par.scratch_cycle", inputs * (REPS * REPS) as f64) * 1e6,
    );
    m.insert(
        "index.rtree_query_ns",
        per_call("index.rtree_query", rec.counted("index.rtree_queries")) * 1e6,
    );
    m.insert("geom.refine_ns_per_call", per_call("geom.refine", m["geom.refine_calls"]) * 1e6);
    // Ratios, each beside its base.
    m.insert("index.replication_x", m["index.assignments"] / rec.counted("records").max(1.0));
    m.insert("index.filter_precision", m["geom.refine_hits"] / m["index.candidates"].max(1.0));
    let map_mt = if threads > 1 { rec.total_ms("par.map_mt") } else { m["par.map_1t_ms"] };
    m.insert("par.map_speedup_x", if map_mt > 0.0 { m["par.map_1t_ms"] / map_mt } else { 1.0 });
    // Entry building, de-duplication and result collection: what
    // `common::local_join` spends beside its two kernels.
    m.insert(
        "core.local_join_self_ms",
        (m["core.local_join_ms"] - m["index.filter_ms"] - m["geom.refine_ms"]).max(0.0),
    );
    // Simulator bookkeeping: a system's unfaulted WS cells over the replay
    // of the inputs those cells ran on.
    for system in SystemKind::all() {
        let (mut cells, mut replays) = (0.0, 0.0);
        for (cell, ms) in prep.cells.iter().zip(cell_ms) {
            if cell.system == system && cell.on_ws {
                cells += ms;
                replays += replay_ms[cell.oracle_input];
            }
        }
        let name = match system {
            SystemKind::HadoopGis => "core.sim_overhead_x.hadoopgis",
            SystemKind::SpatialHadoop => "core.sim_overhead_x.spatialhadoop",
            SystemKind::SpatialSpark => "core.sim_overhead_x.spatialspark",
        };
        m.insert(name, if replays > 0.0 { cells / replays } else { 0.0 });
    }
    m.insert("trace.replay_pairs", replay_pairs as f64);
    (m, correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{bench, prepare, run_pass};

    /// The names the traced run computes are the declared ones (the two
    /// the caller adds aside), on a workload with two input pairs, a
    /// faulted cell and all three systems.
    #[test]
    fn the_traced_run_measures_exactly_the_declared_metrics() {
        let b = bench("sampled_ws_1t", true).unwrap();
        let prep = prepare(&b, 5);
        let mut rec = Recorder::new();
        let traced = run_pass(&b, &prep, &mut rec);
        let (m, correct) = measure(&mut rec, &b, &prep, &traced, &prep.oracles());
        assert!(correct, "replay pairs equal the oracle and no micro-job fails");

        let by_caller = ["trace_overhead_pct", "trace.spans"];
        let declared: Vec<&str> =
            METRICS.iter().map(|(n, _)| *n).filter(|n| !by_caller.contains(n)).collect();
        let mut measured: Vec<&str> = m.keys().copied().collect();
        measured.sort_by_key(|n| declared.iter().position(|d| d == n));
        assert_eq!(measured, declared);
        assert!(m.values().all(|v| v.is_finite() && *v >= 0.0), "{m:?}");

        assert_eq!(m["geom.refine_calls"], m["index.candidates"]);
        assert!(m["geom.refine_hits"] <= m["geom.refine_calls"]);
        assert!(m["index.replication_x"] >= 1.0);
        assert!(m["trace.replay_pairs"] > 0.0);
        assert!(m["core.replay_ms"] >= m["core.local_join_ms"]);
        for system in ["hadoopgis", "spatialhadoop", "spatialspark"] {
            assert!(m[format!("core.run_ms.{system}").as_str()] > 0.0);
            assert!(m[format!("core.sim_overhead_x.{system}").as_str()] > 0.0);
        }
    }
}
