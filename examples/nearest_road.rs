//! The paper's motivating example: "matching taxi pickup/drop-off locations
//! with road segments through point-to-nearest-polyline distance
//! computation".
//!
//! ```text
//! cargo run --release --example nearest_road
//! ```
//!
//! Two ways to solve it with this library:
//!
//! 1. a **within-distance join** through a full distributed system
//!    (`JoinPredicate::WithinDistance`), then picking the closest candidate
//!    per point;
//! 2. a direct **k-nearest-neighbour probe** against an R-tree of road
//!    MBRs, refined with exact point-to-polyline distance.
//!
//! Both must agree on the nearest road for every matched point.

use sjc_cluster::{Cluster, ClusterConfig};
use sjc_core::framework::{DistributedSpatialJoin, GeoRecord, JoinInput, JoinPredicate};
use sjc_core::spatialspark::SpatialSpark;
use sjc_data::{DatasetId, ScaledDataset};
use sjc_geom::{Geometry, Point};
use sjc_index::entry::IndexEntry;
use sjc_index::RTree;
use std::collections::HashMap;

fn main() {
    // Roads (TIGER edges) and pickup points over the same domain.
    let roads_ds = ScaledDataset::generate(DatasetId::Edges01, 2e-4, 99);
    let mut roads = JoinInput::from_dataset(&roads_ds);
    roads.multiplier = 1.0;

    // Generate pickups inside the road domain.
    let n_points = 2_000usize;
    let d = roads.domain;
    let pickups: Vec<GeoRecord> = (0..n_points)
        .map(|i| {
            let fx = (i as f64 * 0.754_877_666_2) % 1.0; // low-discrepancy
            let fy = (i as f64 * 0.569_840_290_9) % 1.0;
            GeoRecord::new(
                i as u64,
                Geometry::Point(Point::new(d.min_x + fx * d.width(), d.min_y + fy * d.height())),
            )
        })
        .collect();
    let points_input = JoinInput::new("pickups", pickups.clone(), n_points as u64 * 41, 1.0, d);

    // Method 1: within-distance join (radius = 1% of the domain side),
    // then nearest per point.
    let radius = d.width() * 0.01;
    let cluster = Cluster::new(ClusterConfig::workstation());
    let out = SpatialSpark::default()
        .run(&cluster, &points_input, &roads, JoinPredicate::WithinDistance(radius))
        .expect("join runs");
    let mut nearest_via_join: HashMap<u64, (u64, f64)> = HashMap::new();
    for &(pid, rid) in &out.pairs {
        let p = match &pickups[pid as usize].geom {
            Geometry::Point(p) => *p,
            _ => unreachable!(),
        };
        let dist =
            roads.records[rid as usize].geom.distance_to_point(&p).expect("polyline distance");
        nearest_via_join
            .entry(pid)
            .and_modify(|best| {
                if dist < best.1 {
                    *best = (rid, dist);
                }
            })
            .or_insert((rid, dist));
    }

    // Method 2: kNN probe against an R-tree of road MBRs + exact refine.
    let tree =
        RTree::bulk_load_str(roads.records.iter().map(|r| IndexEntry::new(r.id, r.mbr)).collect());
    let mut agree = 0usize;
    let mut checked = 0usize;
    for (pid, &(join_rid, join_d)) in &nearest_via_join {
        let p = match &pickups[*pid as usize].geom {
            Geometry::Point(p) => p,
            _ => unreachable!(),
        };
        // MBR distance lower-bounds exact distance: fetch a generous k and
        // refine exactly.
        let candidates = tree.nearest_neighbors(p, 24);
        let best = candidates
            .iter()
            .map(|&(rid, _)| {
                let d = roads.records[rid as usize].geom.distance_to_point(p).unwrap();
                (rid, d)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        checked += 1;
        if best.0 == join_rid || (best.1 - join_d).abs() < 1e-9 {
            agree += 1;
        }
    }

    println!("pickups: {n_points}   roads: {}   radius: {:.0} m", roads.records.len(), radius);
    println!(
        "within-distance join matched {} pickups to a road ({:.1}%)",
        nearest_via_join.len(),
        100.0 * nearest_via_join.len() as f64 / n_points as f64
    );
    println!("kNN probe agreement on the nearest road: {agree}/{checked}");
    assert_eq!(agree, checked, "the two methods must agree");

    // A small distance histogram for flavour.
    let mut hist = [0usize; 5];
    for &(_, dist) in nearest_via_join.values() {
        let bucket = ((dist / radius) * 5.0).min(4.0) as usize;
        hist[bucket] += 1;
    }
    println!("\ndistance-to-road distribution (of matched pickups):");
    for (i, c) in hist.iter().enumerate() {
        let lo = i as f64 * radius / 5.0;
        let hi = (i + 1) as f64 * radius / 5.0;
        println!("  {lo:>6.0}–{hi:<6.0} m {c:>6}  {}", "#".repeat(c * 40 / n_points.max(1)));
    }
}
