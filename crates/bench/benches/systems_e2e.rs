//! End-to-end system benchmarks: each table/figure cell's *harness*
//! wall-clock (how long regenerating a cell takes on the host). The
//! simulated numbers themselves come from `reproduce`; these benches keep
//! the regeneration cheap and guard against performance regressions in the
//! substrates.

use sjc_bench::cold_copy;
use sjc_bench::microbench::{black_box, Bench};
use sjc_cluster::{Cluster, ClusterConfig};
use sjc_core::experiment::Workload;
use sjc_core::framework::{DistributedSpatialJoin, JoinInput, JoinPredicate};
use sjc_core::hadoopgis::HadoopGis;
use sjc_core::spatialhadoop::SpatialHadoop;
use sjc_core::spatialspark::SpatialSpark;
use sjc_data::tsv::tsv_line_lens;
use sjc_data::Records;

const SCALE: f64 = 1e-4;
const SEED: u64 = 20150701;

fn bench_table2_cells(b: &mut Bench) {
    // One bench per (system, workload) of Table 2 on the workstation
    // configuration; failures (HadoopGIS at full multipliers) count the
    // time-to-detect, which is part of the harness cost too.
    for w in [Workload::taxi_nycb(), Workload::edge_linearwater()] {
        let (l, r) = w.prepare(SCALE, SEED);
        let cluster = Cluster::new(ClusterConfig::workstation());
        let systems: Vec<Box<dyn DistributedSpatialJoin>> = vec![
            Box::new(HadoopGis::default()),
            Box::new(SpatialHadoop::default()),
            Box::new(SpatialSpark::default()),
        ];
        for sys in systems {
            b.bench_in("table2_full_joins", &format!("{}/{}", sys.name(), w.name), || {
                sys.run(
                    black_box(&cluster),
                    black_box(&l),
                    black_box(&r),
                    JoinPredicate::Intersects,
                )
                .map(|o| o.pairs.len())
                .unwrap_or(0)
            });
        }
    }
}

fn bench_table3_cells(b: &mut Bench) {
    for w in [Workload::taxi1m_nycb(), Workload::edge01_linearwater01()] {
        let (l, r) = w.prepare(SCALE, SEED);
        for cfg in [ClusterConfig::workstation(), ClusterConfig::ec2(10)] {
            let cluster = Cluster::new(cfg);
            let sys = SpatialHadoop::default();
            b.bench_in("table3_breakdown", &format!("{}/{}", w.name, cluster.config.name), || {
                sys.run(black_box(&cluster), &l, &r, JoinPredicate::Intersects)
                    .map(|o| o.trace.total_ns())
                    .unwrap_or(0)
            });
        }
    }
}

fn bench_fig1_dataflow(b: &mut Bench) {
    // The Fig.-1 regeneration: all three traces on one small workload.
    b.bench_in("fig1_dataflow", "three_system_traces", || {
        let traces = sjc_bench::fig1_traces(SCALE, SEED);
        traces.iter().map(|t| t.stages.len()).sum::<usize>()
    });
}

fn bench_text_path(b: &mut Bench) {
    // HadoopGIS's text path at the benchmark's own sizes (`pip_1t`,
    // `sampled_ws_1t`): the five-second check for an edit of `tsv`, `wkt`,
    // `streaming` or `hadoopgis`. Single-threaded like those workloads.
    // `hadoopgis_cell` reuses one prepared input pair, so from the second
    // iteration on its TSV line lengths are built (warm, as in the
    // benchmark's later passes, and as for every input a process makes
    // from a dataset it has already formatted). `hadoopgis_cell_cold`
    // copies the pair's records into fresh record sets inside the timed
    // closure, so every iteration also formats the lines to measure them,
    // as a process's first run on a dataset does; the copy is part of the
    // time. A prepared input would not do: it shares the cached dataset's
    // records and their line lengths, which the first iteration builds.
    sjc_par::set_global_threads(1);
    let cluster = Cluster::new(ClusterConfig::workstation());
    let sys = HadoopGis::default();
    let run = |l: &JoinInput, r: &JoinInput| {
        sys.run(black_box(&cluster), l, r, JoinPredicate::Intersects)
            .map(|o| o.pairs.len())
            .unwrap_or(0)
    };
    for (w, scale) in [
        (Workload::taxi_nycb(), 4e-4),
        (Workload::taxi1m_nycb(), 2e-3),
        (Workload::edge01_linearwater01(), 6e-4),
    ] {
        let (l, r) = w.prepare(scale, SEED);
        let cell = format!("{}@{scale:e}", w.name);
        b.bench_in("hadoopgis_cell", &cell, || run(&l, &r));
        b.bench_in("hadoopgis_cell_cold", &cell, || run(&cold_copy(&l), &cold_copy(&r)));
    }
    // The lengths of 68k points' lines, formatted from scratch: each call
    // reads a fresh copy of the records, made and dropped outside the timer.
    let (taxi, _) = Workload::taxi_nycb().prepare(4e-4, SEED);
    b.bench_with_setup(
        "tsv_line_lens_68k_points",
        || Records::from(taxi.records.to_vec()),
        |fresh| tsv_line_lens(fresh).len(),
    );
    sjc_par::set_global_threads(0);
}

fn main() {
    let mut b = Bench::from_args();
    bench_table2_cells(&mut b);
    bench_table3_cells(&mut b);
    bench_fig1_dataflow(&mut b);
    bench_text_path(&mut b);
}
