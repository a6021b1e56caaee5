//! Index and partitioner micro-benchmarks: STR bulk loading, window
//! queries, partitioner builds, and the engines' cell tagging
//! (`CellIndex::tag`).

use sjc_bench::microbench::{black_box, Bench};
use sjc_core::framework::CellIndex;
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

/// The probe charge over a 512-cell STR tiling's R-tree: the full walk,
/// and the count read from the inner levels alone.
fn bench_rtree_visits(b: &mut Bench) {
    let extent = Mbr::new(0.0, 0.0, 1000.0, 1000.0);
    let tiles = str_tile_cells(extent, points(10_000, 13), 512);
    let cells = tiles.iter().enumerate().map(|(i, c)| IndexEntry::new(i as u64, *c));
    let tree = RTree::bulk_load_str(cells.collect());
    let probes = entries(10_000, 17);
    let mut buf = Vec::new();
    b.bench("rtree_query_counting_10k", || {
        probes.iter().map(|e| tree.query_counting(black_box(&e.mbr), &mut buf)).sum::<usize>()
    });
    b.bench("rtree_visits_10k", || {
        probes.iter().map(|e| tree.visits(black_box(&e.mbr))).sum::<usize>()
    });
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
    let mut cells = Vec::new();
    b.bench("partition_assign_into_10k", || {
        let mut total = 0usize;
        for e in &probes {
            partitioner.assign_into(black_box(&e.mbr), &mut cells);
            total += cells.len();
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
            let mut total = 0usize;
            for e in &probes {
                total += index.tag(black_box(&e.mbr), &mut cells) + cells.len();
            }
            total
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

fn main() {
    let mut b = Bench::from_args();
    bench_rtree_build(&mut b);
    bench_rtree_query(&mut b);
    bench_rtree_visits(&mut b);
    bench_partitioners(&mut b);
}
