//! Local-join algorithm benchmarks: the three §II.C filter algorithms plus
//! the cache-conscious striped sweep at realistic partition sizes
//! (wall-clock of the real computation — the simulated-cost comparison is
//! in `reproduce ablations`).

use sjc_bench::microbench::{black_box, Bench};
use sjc_data::rng::StdRng;
use sjc_geom::Mbr;
use sjc_index::entry::IndexEntry;
use sjc_index::join::{indexed_nested_loop, plane_sweep, stripe_sweep, sync_rtree, CandidatePairs};

fn entries(n: usize, seed: u64, extent: f64, side: f64) -> Vec<IndexEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen::<f64>() * extent;
            let y = rng.gen::<f64>() * extent;
            IndexEntry::new(
                i as u64,
                Mbr::new(x, y, x + rng.gen::<f64>() * side, y + rng.gen::<f64>() * side),
            )
        })
        .collect()
}

fn bench_algorithms(b: &mut Bench) {
    // Partition-sized inputs: what one task of the distributed join sees.
    for &n in &[1_000usize, 5_000, 20_000] {
        let left = entries(n, 21, 1000.0, 3.0);
        let right = entries(n / 2, 22, 1000.0, 3.0);
        b.bench_in("local_join", &format!("indexed_nested_loop/{n}"), || {
            indexed_nested_loop(black_box(&left), black_box(&right)).pairs.len()
        });
        b.bench_in("local_join", &format!("plane_sweep/{n}"), || {
            plane_sweep(black_box(&left), black_box(&right)).pairs.len()
        });
        b.bench_in("local_join", &format!("sync_rtree/{n}"), || {
            sync_rtree(black_box(&left), black_box(&right)).pairs.len()
        });
        b.bench_in("local_join", &format!("stripe_sweep/{n}"), || {
            stripe_sweep(black_box(&left), black_box(&right)).pairs.len()
        });
    }
}

fn bench_tiny_cells(b: &mut Bench) {
    // Per-call cost beside the per-record cost above: at small scales a
    // system issues thousands of kernel calls on a handful of entries each,
    // so whatever a call costs before it touches a record is the whole bill.
    let left = entries(8, 41, 10.0, 3.0);
    let right = entries(8, 42, 10.0, 3.0);
    let mut tiny = |name: &str, kernel: fn(&[IndexEntry], &[IndexEntry]) -> CandidatePairs| {
        b.bench_in("local_join_tiny_cell_x1000", name, || {
            (0..1000)
                .map(|_| kernel(black_box(&left), black_box(&right)).pairs.len())
                .sum::<usize>()
        });
    };
    tiny("indexed_nested_loop/8x8", indexed_nested_loop);
    tiny("plane_sweep/8x8", plane_sweep);
    tiny("sync_rtree/8x8", sync_rtree);
    tiny("stripe_sweep/8x8", stripe_sweep);

    // A SpatialHadoop-sized cell pair (≈ 300 pickups against 16 census
    // blocks), fed in generation order and as the partition job now writes
    // its blocks: already in the sweep's (min_x, id) order, so the kernel's
    // sort finds one run and stops.
    let points = entries(300, 43, 10.0, 0.0);
    let blocks = entries(16, 44, 10.0, 3.0);
    let sorted = |v: &[IndexEntry]| {
        let mut v = v.to_vec();
        v.sort_by(|a, b| a.mbr.min_x.total_cmp(&b.mbr.min_x).then(a.id.cmp(&b.id)));
        v
    };
    let (sorted_points, sorted_blocks) = (sorted(&points), sorted(&blocks));
    for (name, left, right) in [
        ("stripe_sweep/300x16", &points, &blocks),
        ("stripe_sweep/300x16_presorted", &sorted_points, &sorted_blocks),
    ] {
        b.bench_in("local_join_tiny_cell_x1000", name, || {
            (0..1000)
                .map(|_| stripe_sweep(black_box(left), black_box(right)).pairs.len())
                .sum::<usize>()
        });
    }
}

fn bench_old_vs_new_kernel(b: &mut Bench) {
    // The EXPERIMENTS.md §local-join-kernel table: classic AoS plane sweep
    // vs the striped SoA kernel at partition scale (60k × 30k rectangles).
    let left = entries(60_000, 21, 1000.0, 3.0);
    let right = entries(30_000, 22, 1000.0, 3.0);
    b.bench_in("local_join_kernel", "plane_sweep/60k_x_30k", || {
        plane_sweep(black_box(&left), black_box(&right)).pairs.len()
    });
    b.bench_in("local_join_kernel", "stripe_sweep/60k_x_30k", || {
        stripe_sweep(black_box(&left), black_box(&right)).pairs.len()
    });
}

fn bench_selectivity_extremes(b: &mut Bench) {
    // Dense: everything overlaps (big rectangles) — output-dominated.
    let dense_l = entries(2_000, 31, 100.0, 30.0);
    let dense_r = entries(1_000, 32, 100.0, 30.0);
    b.bench_in("local_join_selectivity", "dense_overlap", || {
        plane_sweep(black_box(&dense_l), black_box(&dense_r)).pairs.len()
    });
    // Sparse: tiny rectangles spread wide — filter-dominated.
    let sparse_l = entries(2_000, 33, 100_000.0, 1.0);
    let sparse_r = entries(1_000, 34, 100_000.0, 1.0);
    b.bench_in("local_join_selectivity", "sparse_disjoint", || {
        plane_sweep(black_box(&sparse_l), black_box(&sparse_r)).pairs.len()
    });
}

fn main() {
    let mut b = Bench::from_args();
    bench_algorithms(&mut b);
    bench_tiny_cells(&mut b);
    bench_old_vs_new_kernel(&mut b);
    bench_selectivity_extremes(&mut b);
}
