//! Index and partitioner micro-benchmarks: STR bulk loading, window
//! queries, partitioner builds, the engines' cell tagging
//! (`CellIndex::tag`), and `pip_1t`'s point assignment.

use sjc_bench::microbench::{black_box, Bench};
use sjc_core::experiment::Workload;
use sjc_core::framework::{CellIndex, JoinInput};
use sjc_data::rng::StdRng;
use sjc_geom::{Mbr, Point};
use sjc_index::entry::IndexEntry;
use sjc_index::partition::{bsp_cells, grid_cells, str_tile_cells, CellLocator};
use sjc_index::RTree;

fn entries(n: usize, seed: u64) -> Vec<IndexEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen::<f64>() * 1000.0;
            let y = rng.gen::<f64>() * 1000.0;
            IndexEntry::new(
                i as u64,
                Mbr::new(x, y, x + rng.gen::<f64>() * 5.0, y + rng.gen::<f64>() * 5.0),
            )
        })
        .collect()
}

fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Point::new(rng.gen::<f64>() * 1000.0, rng.gen::<f64>() * 1000.0)).collect()
}

fn bench_rtree_build(b: &mut Bench) {
    for &n in &[1_000usize, 10_000, 100_000] {
        let es = entries(n, 7);
        b.bench_in("rtree_build", &format!("str_bulk/{n}"), || {
            RTree::bulk_load_str(black_box(es.clone())).num_nodes()
        });
    }
}

fn bench_rtree_query(b: &mut Bench) {
    let tree = RTree::bulk_load_str(entries(100_000, 9));
    let windows: Vec<Mbr> =
        points(100, 11).into_iter().map(|p| Mbr::new(p.x, p.y, p.x + 10.0, p.y + 10.0)).collect();
    let mut buf = Vec::new();
    b.bench("rtree_query_100k_x100", || {
        let mut total = 0usize;
        for w in &windows {
            tree.query_into(black_box(w), &mut buf);
            total += buf.len();
        }
        total
    });
}

/// The probe charge over the R-tree of a 512-cell and of a 10 000-cell STR
/// tiling: the full walk, and the count summed over the flat inner nodes
/// (the cost grows with them: one inner node per 16 leaves).
fn bench_rtree_visits(b: &mut Bench) {
    let extent = Mbr::new(0.0, 0.0, 1000.0, 1000.0);
    let probes = entries(10_000, 17);
    let mut buf = Vec::new();
    for (cells, suffix) in [(512, ""), (10_000, "_10k_cells")] {
        let tiles = str_tile_cells(extent, points(10_000, 13), cells);
        let tiles = tiles.iter().enumerate().map(|(i, c)| IndexEntry::new(i as u64, *c));
        let tree = RTree::bulk_load_str(tiles.collect());
        let inner = tree.inner_nodes();
        b.bench(&format!("rtree_query_counting_10k{suffix}"), || {
            probes.iter().map(|e| tree.query_counting(black_box(&e.mbr), &mut buf)).sum::<usize>()
        });
        b.bench(&format!("rtree_visits_10k{suffix}"), || {
            probes.iter().map(|e| inner.visits(black_box(&e.mbr))).sum::<usize>()
        });
    }
}

fn bench_partitioners(b: &mut Bench) {
    let extent = Mbr::new(0.0, 0.0, 1000.0, 1000.0);
    let sample = points(10_000, 13);
    // Choosing the cells and locating them, as every system does.
    b.bench_in("partitioner_build_10k_sample", "fixed_grid", || {
        CellLocator::new(grid_cells(extent, 128)).cells().len()
    });
    b.bench_in("partitioner_build_10k_sample", "str_tiles", || {
        CellLocator::new(str_tile_cells(extent, sample.clone(), 128)).cells().len()
    });
    b.bench_in("partitioner_build_10k_sample", "bsp", || {
        CellLocator::new(bsp_cells(extent, sample.clone(), 128)).cells().len()
    });

    let partitioner = CellLocator::new(str_tile_cells(extent, sample.clone(), 128));
    let bsp = CellLocator::new(bsp_cells(extent, sample, 128));
    let probes = entries(10_000, 17);
    b.bench("partition_assign_10k", || {
        probes.iter().map(|e| partitioner.assign(black_box(&e.mbr)).len()).sum::<usize>()
    });
    b.bench("partition_assign_each_10k", || {
        let mut total = 0usize;
        for e in &probes {
            partitioner.assign_each(black_box(&e.mbr), |_| total += 1);
        }
        total
    });
    // What SpatialHadoop, SpatialSpark and LDE run per record: the cells
    // plus the R-tree nodes the probe is charged.
    let grid = CellLocator::new(grid_cells(extent, 128));
    for (name, index) in [
        ("str_tiles", CellIndex::new(partitioner.clone())),
        ("bsp", CellIndex::new(bsp.clone())),
        ("fixed_grid", CellIndex::new(grid)),
    ] {
        b.bench_in("cell_index_tag_10k", name, || {
            let (mut visits, mut tagged) = (0usize, 0usize);
            for e in &probes {
                visits += index.tag(black_box(&e.mbr), |_| tagged += 1);
            }
            visits + tagged
        });
    }
    // `owner` locates a reference point; `owns` decides whether one cell
    // reports it — once or twice per candidate pair (reference-point de-dup).
    let corners: Vec<Point> = probes.iter().map(|e| Point::new(e.mbr.min_x, e.mbr.min_y)).collect();
    b.bench_in("partition_owner_10k", "str_tiles", || {
        corners.iter().map(|p| partitioner.owner(black_box(p)) as usize).sum::<usize>()
    });
    b.bench_in("partition_owner_10k", "bsp", || {
        corners.iter().map(|p| bsp.owner(black_box(p)) as usize).sum::<usize>()
    });
    // Each corner against its owner and against a neighbouring id, so both
    // verdicts are timed: 20 000 calls.
    let bench_owns = |b: &mut Bench, name: &str, p: &CellLocator| {
        let n = p.cells().len() as u32;
        let probes: Vec<(Point, u32, u32)> = corners
            .iter()
            .map(|c| {
                let owner = p.owner(c);
                (*c, owner, (owner + 1) % n)
            })
            .collect();
        b.bench_in("partition_owns_10k", name, || {
            let owns = |(c, owner, other): &(Point, u32, u32)| {
                usize::from(p.owns(black_box(*owner), black_box(c)))
                    + usize::from(p.owns(black_box(*other), black_box(c)))
            };
            probes.iter().map(owns).sum::<usize>()
        });
    };
    bench_owns(b, "str_tiles", &partitioner);
    bench_owns(b, "bsp", &bsp);
}

/// The centers of every `stride`-th record for `cells` cells at about ten
/// samples a cell, as the systems sample before choosing their cells.
fn sample_centers(input: &JoinInput, cells: usize) -> Vec<Point> {
    let stride = (input.records.len() / (10 * cells)).max(1);
    input.records.iter().step_by(stride).map(|r| r.mbr.center()).collect()
}

/// Point assignment as `pip_1t` runs it: each taxi point at 4e-4 (67 888
/// records) assigned against SpatialSpark's 512 STR tiles over the nycb
/// domain and against HadoopGIS's BSP cells (partition target 64) over
/// the taxi domain, reported per record; the cells are handed to a
/// counting callback.
fn bench_point_assignment(b: &mut Bench) {
    let (taxi, nycb) = Workload::taxi_nycb().prepare(4e-4, 20150701);
    let points: Vec<Mbr> = taxi.records.iter().map(|r| r.mbr).collect();
    let str_tiles = CellLocator::new(str_tile_cells(nycb.domain, sample_centers(&nycb, 512), 512));
    let bsp = CellLocator::new(bsp_cells(taxi.domain, sample_centers(&taxi, 64), 64));
    for (name, located) in [("str_512", &str_tiles), ("bsp_hadoopgis", &bsp)] {
        b.bench_records_in("partition_assign_points_taxi", name, points.len(), || {
            let mut cells = 0usize;
            for p in &points {
                located.assign_each(black_box(p), |_| cells += 1);
            }
            cells
        });
    }
}

fn main() {
    let mut b = Bench::from_args();
    bench_rtree_build(&mut b);
    bench_rtree_query(&mut b);
    bench_rtree_visits(&mut b);
    bench_partitioners(&mut b);
    bench_point_assignment(&mut b);
}
