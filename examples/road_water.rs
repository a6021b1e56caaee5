//! Road–water scenario: the paper's second experiment (polyline ⋈ polyline).
//!
//! ```text
//! cargo run --release --example road_water [scale]
//! ```
//!
//! Finds road segments crossing water features (bridge/culvert candidates)
//! with the SpatialHadoop reproduction, comparing its two local-join
//! algorithms and showing the MBR-filter vs exact-refinement funnel.

use sjc_cluster::{Cluster, ClusterConfig};
use sjc_core::common::{local_join, LocalJoinAlgo};
use sjc_core::experiment::Workload;
use sjc_core::framework::{DistributedSpatialJoin, GeoRecord, JoinPredicate};
use sjc_core::spatialhadoop::SpatialHadoop;
use sjc_geom::GeometryEngine;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2e-4);
    let (mut roads, mut waters) = Workload::edge01_linearwater01().prepare(scale, 7);
    roads.multiplier = 1.0;
    waters.multiplier = 1.0;
    println!("road edges: {}   water features: {}\n", roads.records.len(), waters.records.len());

    // The filter/refinement funnel on the whole dataset (what each local
    // join does inside a partition).
    let jts = GeometryEngine::jts();
    let l: Vec<&GeoRecord> = roads.records.iter().collect();
    let r: Vec<&GeoRecord> = waters.records.iter().collect();
    println!("local join funnel ({} x {} records):", l.len(), r.len());
    println!("{:<20} {:>12} {:>12} {:>14}", "algorithm", "candidates", "crossings", "false pos.");
    for algo in
        [LocalJoinAlgo::PlaneSweep, LocalJoinAlgo::SyncRTree, LocalJoinAlgo::IndexedNestedLoop]
    {
        let (pairs, cost) = local_join(&jts, JoinPredicate::Intersects, algo, &l, &r, |_, _| true);
        println!(
            "{:<20} {:>12} {:>12} {:>14}",
            format!("{algo:?}"),
            cost.candidates,
            pairs.len(),
            cost.candidates - pairs.len() as u64,
        );
    }

    // The same join end-to-end through the distributed system, on two
    // hardware configurations.
    println!("\nend-to-end through SpatialHadoop:");
    for cfg in [ClusterConfig::workstation(), ClusterConfig::ec2(10)] {
        let cluster = Cluster::new(cfg);
        let out = SpatialHadoop::default()
            .run(&cluster, &roads, &waters, JoinPredicate::Intersects)
            .expect("SpatialHadoop is the robust one");
        println!(
            "  {:<8} {:>8} crossings in {:>8.1} simulated s  ({} stages)",
            cluster.config.name,
            out.pairs.len(),
            out.trace.total_seconds(),
            out.trace.stages.len()
        );
    }
}
