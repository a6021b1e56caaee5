//! Runtime invariant sanitizer coverage (`sanitize` feature).
//!
//! The workspace test suite enables `sanitize` on `sjc-geom`, `sjc-index`,
//! `sjc-cluster` and `sjc-core` (see the root `Cargo.toml`
//! dev-dependencies), turning the static lint's structural assumptions into
//! executable `debug_assert!`s.
//! These tests prove both directions: corruption actually trips the checks,
//! and the seed data pipeline runs clean under them.

use sjc_cluster::scheduler::{lpt_makespan, replicated_makespan};
use sjc_cluster::SimHdfs;
use sjc_core::common::PartitionerKind;
use sjc_core::framework::CellIndex;
use sjc_data::{DatasetId, ScaledDataset};
#[cfg(debug_assertions)]
use sjc_geom::algorithms::{chunk_envelopes, linestrings_intersect_hinted};
#[cfg(debug_assertions)]
use sjc_geom::LineString;
use sjc_geom::{Mbr, Point};
use sjc_index::{IndexEntry, RTree};

/// An inverted MBR built by bypassing the normalizing constructor — the
/// corruption an index must refuse to swallow.
fn inverted_mbr() -> Mbr {
    Mbr { min_x: 1.0, min_y: 1.0, max_x: 0.0, max_y: 0.0 }
}

// `debug_assert!` only exists in builds with debug-assertions (the tier-1
// `cargo test -q` dev profile); under `--release` the corruption tests
// would not panic, so they are compiled out there.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "sanitize: MBR with NaN bounds")]
fn nan_coordinate_trips_mbr_sanitizer() {
    let _ = Point::new(f64::NAN, 1.0).mbr();
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "inverted/empty MBR")]
fn inverted_entry_trips_rtree_bulk_load_sanitizer() {
    let _ = RTree::bulk_load_str(vec![
        IndexEntry::new(0, Mbr::new(0.0, 0.0, 1.0, 1.0)),
        IndexEntry::new(1, inverted_mbr()),
    ]);
}

/// A chunk envelope shrunk off its last vertex could hide a crossing there;
/// the polyline kernel checks every chunk it is handed.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "sanitize: chunk envelope does not contain its segments")]
fn shrunken_chunk_envelope_trips_polyline_sanitizer() {
    let long = LineString::new((0..20).map(|i| Point::new(i as f64, (i % 2) as f64)).collect());
    let probe = LineString::new(vec![Point::new(9.5, -1.0), Point::new(9.5, 2.0)]);
    let mut chunks = Vec::new();
    chunk_envelopes(&long, &mut chunks);
    chunks[1].max_x -= 0.5;
    let _ = linestrings_intersect_hinted(&probe, &probe.mbr(), &long, &chunks);
}

/// Seed datasets build, index and query without tripping a single
/// assertion: the invariants hold on the real pipeline, not just on toys.
#[test]
fn seed_datasets_run_clean_under_sanitizer() {
    for id in [DatasetId::Taxi, DatasetId::Nycb, DatasetId::Edges] {
        let ds = ScaledDataset::generate(id, 2e-5, 42);
        assert!(!ds.records.is_empty(), "{id:?} generated no geometry");

        let entries: Vec<IndexEntry> = ds
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| IndexEntry::new(i as u64, r.geom.mbr()))
            .collect();

        let tree = RTree::bulk_load_str(entries);
        assert_eq!(tree.len(), ds.records.len());
        let mut hits = Vec::new();
        tree.query_into(&ds.domain, &mut hits);
        assert_eq!(hits.len(), ds.records.len());
    }
}

/// Every `CellIndex::tag` checks its cells and its visit count against a
/// walk of the R-tree over the cells. Seed records tagged against grid,
/// STR and BSP cells — a leaf root at 1 and 16 cells, three levels at 512
/// — run clean, and so do their buffered and inverted MBRs; a `visits` off
/// by one trips the check, and the summed count is held to the walk too.
#[test]
fn cell_tags_run_clean_under_sanitizer() {
    for id in [DatasetId::Taxi, DatasetId::Nycb] {
        let ds = ScaledDataset::generate(id, 2e-5, 42);
        let mut probes: Vec<Mbr> = ds.records.iter().map(|r| r.geom.mbr()).collect();
        let sample: Vec<Point> = probes.iter().map(Mbr::center).collect();
        probes.extend(sample.iter().map(|p| p.mbr().buffered(0.01)));
        probes.push(inverted_mbr());
        for kind in [PartitionerKind::FixedGrid, PartitionerKind::StrTiles, PartitionerKind::Bsp] {
            for target in [1usize, 16, 512] {
                let index = CellIndex::new(kind.build(ds.domain, sample.clone(), target));
                let cells = index.locator().cells().iter().enumerate();
                let tree = RTree::bulk_load_str(
                    cells.map(|(i, c)| IndexEntry::new(i as u64, *c)).collect(),
                );
                let mut walked = Vec::new();
                let tagged: usize = probes.iter().map(|m| index.tag(m, |_| {})).sum();
                let walks: usize = probes.iter().map(|m| tree.query_counting(m, &mut walked)).sum();
                assert_eq!(tagged, walks, "{} at {target} cells over {id:?}", kind.name());
            }
        }
    }
}

#[test]
fn scheduler_and_hdfs_run_clean_under_sanitizer() {
    let tasks: Vec<u64> = (1..200).map(|i| (i * 7919) % 1000 + 1).collect();
    let lpt = lpt_makespan(&tasks, 16);
    assert!(lpt > 0);
    // Monotone-in-multiplier extrapolation exercises the start-time check.
    let mut prev = 0;
    for step in 0..50 {
        let m = replicated_makespan(&tasks, 16, 1.0 + step as f64 * 0.5);
        assert!(m >= prev, "extrapolation must stay monotone");
        prev = m;
    }

    let mut hdfs = SimHdfs::new(8);
    // Multi-block, single-block and empty files all satisfy block accounting.
    for (name, bytes) in [("big", 200 << 20), ("small", 4 << 10), ("empty", 0u64)] {
        let f = hdfs.write_file(name, bytes, bytes / 100);
        assert_eq!(f.bytes, bytes);
    }
}
