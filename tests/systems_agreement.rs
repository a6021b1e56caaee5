//! Cross-system correctness: the three reproduced systems are *different
//! designs computing the same join* — on identical inputs they must produce
//! identical result pair sets, for every workload and predicate.

use sjc_cluster::{Cluster, ClusterConfig};
use sjc_core::common::{direct_join, PartitionerKind};
use sjc_core::experiment::Workload;
use sjc_core::framework::GeoRecord;
use sjc_core::framework::{DistributedSpatialJoin, JoinInput, JoinPredicate};
use sjc_core::hadoopgis::HadoopGis;
use sjc_core::spatialhadoop::SpatialHadoop;
use sjc_core::spatialspark::SpatialSpark;
use sjc_geom::predicates::segments_intersect;
use sjc_geom::{Geometry, GeometryEngine, Mbr, Point, Polygon};

/// Prepares a workload slice small enough for exhaustive comparison, with
/// multiplier pinned to 1 so no failure mechanism triggers.
fn prepare(w: Workload, scale: f64, seed: u64) -> (JoinInput, JoinInput) {
    let (mut l, mut r) = w.prepare(scale, seed);
    l.multiplier = 1.0;
    r.multiplier = 1.0;
    (l, r)
}

fn systems() -> Vec<Box<dyn DistributedSpatialJoin>> {
    vec![
        Box::new(HadoopGis::default()),
        Box::new(SpatialHadoop::default()),
        Box::new(SpatialHadoop { reuse_partitions: true, ..SpatialHadoop::default() }),
        Box::new(SpatialSpark::default()),
        Box::new(SpatialSpark { broadcast_join: true, ..SpatialSpark::default() }),
        Box::new(sjc_core::lde::LdeEngine::default()),
    ]
}

/// Polyline join oracle that shares no code with the join under test: every
/// record pair, a closed MBR test, then every segment pair through
/// `segments_intersect` behind the same closed segment-box test the exact
/// test uses. It goes nowhere near `linestrings_intersect*`, `local_join` or
/// the filter kernels, so a fault in any of them cannot hide in it.
fn segment_level_oracle(left: &[GeoRecord], right: &[GeoRecord]) -> Vec<(u64, u64)> {
    /// `[min_x, min_y, max_x, max_y]`
    type Bounds = [f64; 4];
    fn segments(rec: &GeoRecord) -> Vec<(Point, Point, Bounds)> {
        match &rec.geom {
            Geometry::LineString(l) => l
                .points()
                .windows(2)
                .map(|w| {
                    let (p, q) = (w[0], w[1]);
                    (p, q, [p.x.min(q.x), p.y.min(q.y), p.x.max(q.x), p.y.max(q.y)])
                })
                .collect(),
            other => panic!("polyline oracle given a {}", other.kind()),
        }
    }
    fn meet(a: &Bounds, b: &Bounds) -> bool {
        a[0] <= b[2] && b[0] <= a[2] && a[1] <= b[3] && b[1] <= a[3]
    }
    let bounds = |rec: &GeoRecord| [rec.mbr.min_x, rec.mbr.min_y, rec.mbr.max_x, rec.mbr.max_y];
    let right_segments: Vec<_> = right.iter().map(segments).collect();
    let mut pairs = Vec::new();
    for l in left {
        let l_segments = segments(l);
        for (r, r_segments) in right.iter().zip(&right_segments) {
            let hit = meet(&bounds(l), &bounds(r))
                && l_segments.iter().any(|(p1, p2, s)| {
                    r_segments
                        .iter()
                        .any(|(q1, q2, t)| meet(s, t) && segments_intersect(p1, p2, q1, q2))
                });
            if hit {
                pairs.push((l.id, r.id));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

fn assert_all_agree(w: Workload, predicate: JoinPredicate, scale: f64, seed: u64) {
    let (l, r) = prepare(w, scale, seed);
    let cluster = Cluster::new(ClusterConfig::workstation());
    let mut expected = direct_join(&GeometryEngine::jts(), predicate, &l.records, &r.records);
    expected.sort_unstable();
    assert!(
        !expected.is_empty(),
        "{}: workload must produce results for the test to be meaningful",
        w.name
    );
    for sys in systems() {
        let out = sys
            .run(&cluster, &l, &r, predicate)
            .unwrap_or_else(|e| panic!("{} failed on {}: {e}", sys.name(), w.name));
        assert_eq!(
            out.sorted_pairs(),
            expected,
            "{} disagrees with the direct join on {}",
            sys.name(),
            w.name
        );
    }
}

#[test]
fn point_in_polygon_workload() {
    assert_all_agree(Workload::taxi1m_nycb(), JoinPredicate::Intersects, 3e-4, 11);
}

#[test]
fn polyline_intersection_workload() {
    let (w, scale, seed) = (Workload::edge01_linearwater01(), 3e-4, 11);
    assert_all_agree(w, JoinPredicate::Intersects, scale, seed);
    // `assert_all_agree` holds the systems to `direct_join`, which runs the
    // same exact test they do; hold that to an oracle that does not.
    let (l, r) = prepare(w, scale, seed);
    let mut direct =
        direct_join(&GeometryEngine::jts(), JoinPredicate::Intersects, &l.records, &r.records);
    direct.sort_unstable();
    assert_eq!(direct, segment_level_oracle(&l.records, &r.records));
}

#[test]
fn agreement_across_seeds() {
    for seed in [1, 99, 12345] {
        assert_all_agree(Workload::taxi1m_nycb(), JoinPredicate::Intersects, 1e-4, seed);
    }
}

#[test]
fn agreement_across_cluster_configs() {
    // The hardware configuration affects time and failure, never results.
    let (l, r) = prepare(Workload::edge01_linearwater01(), 2e-4, 5);
    let reference = SpatialSpark::default()
        .run(&Cluster::new(ClusterConfig::workstation()), &l, &r, JoinPredicate::Intersects)
        .unwrap()
        .sorted_pairs();
    for cfg in [ClusterConfig::ec2(10), ClusterConfig::ec2(6), ClusterConfig::ec2(2)] {
        let out = SpatialSpark::default()
            .run(&Cluster::new(cfg), &l, &r, JoinPredicate::Intersects)
            .unwrap()
            .sorted_pairs();
        assert_eq!(out, reference);
    }
}

/// SpatialHadoop's fixed grid over this extent is 11 × 11, and one of its
/// cells stores the x-edge `min_x + c * w` = -4.575363636363633. The point
/// lies one ulp left of it, where `floor((x - min_x) / w)` still names the
/// cell to the right: a grid that located points by that arithmetic gave the
/// reference point to a cell neither record was tagged to, and lost the
/// pair.
#[test]
fn fixed_grid_reports_a_pair_on_a_rounded_cell_edge() {
    let domain = Mbr::new(-27.173, 0.0, 55.685, 11.0);
    let p = Point::new(-4.575363636363634, 5.5);
    let square = Polygon::new(vec![
        Point::new(p.x - 0.01, p.y - 0.01),
        Point::new(p.x + 0.01, p.y - 0.01),
        Point::new(p.x + 0.01, p.y + 0.01),
        Point::new(p.x - 0.01, p.y + 0.01),
    ]);
    let input = |name: &str, geom: Geometry| {
        JoinInput::new(name, vec![GeoRecord::new(0, geom)], 64, 1.0, domain)
    };
    let (l, r) = (input("point", Geometry::Point(p)), input("square", Geometry::Polygon(square)));
    let predicate = JoinPredicate::Intersects;
    let expected = direct_join(&GeometryEngine::jts(), predicate, &l.records, &r.records);
    assert_eq!(expected, [(0, 0)]);
    let grid =
        SpatialHadoop { partitioner: PartitionerKind::FixedGrid, ..SpatialHadoop::default() };
    let out = grid.run(&Cluster::new(ClusterConfig::workstation()), &l, &r, predicate).unwrap();
    assert_eq!(out.sorted_pairs(), expected);
}
