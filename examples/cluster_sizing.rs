//! Capacity planning: how many EC2 nodes does a full-scale join need?
//!
//! ```text
//! cargo run --release --example cluster_sizing
//! ```
//!
//! Sweeps the cluster size for the paper's two full-scale workloads and
//! reports, per size, whether SpatialSpark fits in memory (and how fast it
//! is when it does) next to SpatialHadoop's always-works baseline — the
//! operational question Table 2's failures pose: "the cheapest cluster that
//! still runs my join in memory".

use sjc_cluster::{Cluster, ClusterConfig};
use sjc_core::experiment::{SystemKind, Workload};
use sjc_core::framework::JoinPredicate;

fn main() {
    let scale = 1e-3;
    let sizes = [4u32, 6, 8, 9, 10, 12, 16];
    let clusters = sizes.map(|n| Cluster::new(ClusterConfig::ec2(n)));
    for w in [Workload::taxi_nycb(), Workload::edge_linearwater()] {
        let (l, r) = w.prepare(scale, 20150701);
        println!("\n=== {} (full-scale equivalent) ===", w.name);
        println!(
            "{:>6} {:>12} {:>22} {:>22}",
            "nodes", "agg. memory", "SpatialSpark", "SpatialHadoop"
        );
        // Each system's join runs once, the two concurrently; every cluster
        // size prices it.
        let systems = [SystemKind::SpatialSpark, SystemKind::SpatialHadoop];
        let works = sjc_par::par_map_weighted(
            &systems,
            |_| 1,
            |sys| sys.instance().work(&l, &r, JoinPredicate::Intersects, &clusters),
        );
        let (spark, hadoop) = (&works[0], &works[1]);
        for (n, cluster) in sizes.into_iter().zip(&clusters) {
            let cfg = &cluster.config;
            let agg_gb = (cfg.nodes as u64 * cfg.node.memory_bytes) >> 30;
            let hadoop = hadoop.price(cluster).expect("SpatialHadoop always completes");
            let spark_cell = match spark.price(cluster) {
                Ok(trace) => format!("{:.0} s", trace.total_seconds()),
                Err(e) => format!("({})", e.kind()),
            };
            println!(
                "{:>6} {:>9} GB {:>22} {:>19.0} s",
                n,
                agg_gb,
                spark_cell,
                hadoop.total_seconds()
            );
        }
    }
    println!(
        "\nReading: below the memory threshold SpatialSpark dies (\"Spark is not able to \
         spill\"); above it, it beats SpatialHadoop — the paper's robustness-vs-efficiency \
         trade-off as a sizing chart."
    );
}
