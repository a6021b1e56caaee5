//! The generalized framework: the vocabulary of every system, and the steps
//! their pipelines share, each written once — gathering records by id
//! (`JoinInput::pick`) and tagging records with partition cells
//! ([`CellIndex`]). The reference-point rule is
//! [`local_join_reported`](crate::common::local_join_reported).

use std::fmt;
use std::sync::{Arc, OnceLock};

use sjc_cluster::{Cluster, RunTrace, SimError};
use sjc_data::tsv::tsv_line_lens;
use sjc_data::ScaledDataset;
use sjc_geom::{Geometry, GeometryEngine, Mbr};
use sjc_index::entry::IndexEntry;
use sjc_index::partition::{CellId, CellLocator};
use sjc_index::rtree::InnerNodes;
use sjc_index::RTree;

use crate::ledger::WorkLedger;

/// The spatial predicate refined in the local join stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinPredicate {
    /// Exact geometric intersection — covers both of the paper's
    /// experiments (point-in-polygon is point∩polygon; polyline-with-
    /// polyline is polyline∩polyline).
    Intersects,
}

impl JoinPredicate {
    /// Evaluates the predicate with `engine`, returning the boolean result
    /// and the charged simulated cost.
    pub fn evaluate(
        &self,
        engine: &GeometryEngine,
        left: &Geometry,
        right: &Geometry,
    ) -> (bool, u64) {
        engine.intersects(left, right)
    }

    /// [`evaluate`](JoinPredicate::evaluate) on two join records, handing the
    /// exact test the envelopes the filter has just compared. `right_chunks`
    /// is `right`'s entry of a [`ChunkEnvelopes`](sjc_geom::algorithms::ChunkEnvelopes),
    /// or empty to hand over `right.mbr` alone. Same verdict and same
    /// charged cost as `evaluate` on the records' geometries.
    pub fn evaluate_records(
        &self,
        engine: &GeometryEngine,
        left: &GeoRecord,
        right: &GeoRecord,
        right_chunks: &[Mbr],
    ) -> (bool, u64) {
        let chunks = match right_chunks {
            [] => std::slice::from_ref(&right.mbr),
            chunks => chunks,
        };
        engine.intersects_hinted(&left.geom, &left.mbr, &right.geom, chunks)
    }

    /// The simulated cost [`evaluate_records`](JoinPredicate::evaluate_records)
    /// charges for `left` and `right`, without running the exact test.
    pub fn refine_cost_ns(
        &self,
        engine: &GeometryEngine,
        left: &GeoRecord,
        right: &GeoRecord,
    ) -> u64 {
        engine.refine_cost_ns(left.geom.num_vertices() + right.geom.num_vertices())
    }
}

/// One spatial record flowing through a system: a dataset-local id, the
/// geometry, and its precomputed MBR. `mbr` must contain the geometry's tight
/// envelope — the filter and the hinted exact test both rely on it.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoRecord {
    pub id: u64,
    pub geom: Geometry,
    pub mbr: Mbr,
}

impl GeoRecord {
    pub fn new(id: u64, geom: Geometry) -> Self {
        let mbr = geom.mbr();
        GeoRecord { id, geom, mbr }
    }
}

/// One side of a distributed spatial join.
///
/// Record `i` has id `i` (`new` checks it in debug builds): `pick` indexes
/// `records` by id, and HadoopGIS's streaming lines name their record by
/// that index. The lengths of the records' TSV lines (`tsv_line_lens`) are
/// built on first use and shared by every clone, so `records` must not
/// change once a run has read them.
#[derive(Clone)]
pub struct JoinInput {
    pub name: String,
    pub records: Vec<GeoRecord>,
    /// Serialized size of the generated slice (Table-1 bytes/record).
    pub sim_bytes: u64,
    /// Full-scale records ÷ generated records.
    pub multiplier: f64,
    /// The spatial domain both join sides share.
    pub domain: Mbr,
    tsv_lens: Arc<OnceLock<Vec<u32>>>,
}

impl JoinInput {
    /// A join input over `records`, whose ids must be `0..records.len()` in
    /// order.
    pub fn new(
        name: impl Into<String>,
        records: Vec<GeoRecord>,
        sim_bytes: u64,
        multiplier: f64,
        domain: Mbr,
    ) -> JoinInput {
        debug_assert!(
            records.iter().enumerate().all(|(i, r)| r.id == i as u64),
            "JoinInput: record ids must be dense, record i with id i"
        );
        let name = name.into();
        JoinInput { name, records, sim_bytes, multiplier, domain, tsv_lens: Arc::default() }
    }

    /// Wraps a generated dataset as a join input.
    pub fn from_dataset(ds: &ScaledDataset) -> JoinInput {
        let records =
            ds.geoms.iter().enumerate().map(|(i, g)| GeoRecord::new(i as u64, g.clone())).collect();
        JoinInput::new(ds.spec.name, records, ds.sim_bytes(), ds.multiplier(), ds.domain)
    }

    /// The byte length of record `i`'s `id \t WKT` line, without its
    /// newline, at index `i`: the lines of the input file HadoopGIS reads
    /// off HDFS ([`to_tsv_text`](sjc_data::tsv::to_tsv_text)), of which its
    /// streaming jobs charge only the lengths. The WKT sizes of the
    /// synthetic geometry track the paper's Table-1 bytes/record closely,
    /// so pipe and parse charges computed from these real line lengths are
    /// faithful. Built on the first call, then shared by every later call
    /// and every clone.
    pub(crate) fn tsv_line_lens(&self) -> &[u32] {
        self.tsv_lens.get_or_init(|| memo_tsv_line_lens(&self.records))
    }

    /// Average serialized bytes per record.
    pub fn bytes_per_record(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.sim_bytes as f64 / self.records.len() as f64
        }
    }

    /// The record with dataset id `id`: the one place a dataset id indexes
    /// `records`.
    pub(crate) fn record(&self, id: u64) -> &GeoRecord {
        // sjc-lint: allow(no-panic-in-lib) — dataset ids are the enumerate indices minted by from_dataset
        &self.records[id as usize]
    }

    /// The records with dataset ids `ids`, in that order.
    pub(crate) fn pick<'a>(
        &'a self,
        ids: impl IntoIterator<Item = u64> + 'a,
    ) -> impl Iterator<Item = &'a GeoRecord> + 'a {
        ids.into_iter().map(|i| self.record(i))
    }
}

/// The value behind [`JoinInput::tsv_line_lens`]'s memo: a pure function of
/// the records (its name puts it under the `cache-purity` pass).
fn memo_tsv_line_lens(records: &[GeoRecord]) -> Vec<u32> {
    tsv_line_lens(records.iter().map(|r| (r.id, &r.geom)))
}

/// Prints how many line lengths the memo holds, not the lengths or the
/// records.
impl fmt::Debug for JoinInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinInput")
            .field("name", &self.name)
            .field("records", &self.records.len())
            .field("sim_bytes", &self.sim_bytes)
            .field("multiplier", &self.multiplier)
            .field("domain", &self.domain)
            .field("tsv_lines", &self.tsv_lens.get().map(Vec::len))
            .finish()
    }
}

/// A located cell list plus the STR R-tree over its cells: how
/// SpatialHadoop, SpatialSpark and LDE tag a record with the cells it
/// meets. Each charges the nodes a probe of the tree visits at its own
/// rate, counted from the tree's inner nodes; the cells themselves are the
/// locator's `assign_each`.
pub struct CellIndex {
    locator: CellLocator,
    tree: RTree,
    inner: InnerNodes,
}

impl CellIndex {
    pub fn new(locator: CellLocator) -> Self {
        let tree = RTree::bulk_load_str(cell_entries(locator.cells()));
        let inner = tree.inner_nodes();
        CellIndex { locator, tree, inner }
    }

    pub fn locator(&self) -> &CellLocator {
        &self.locator
    }

    /// The cells as index entries, id = cell id (the list SpatialHadoop's
    /// getSplits sweeps).
    pub(crate) fn entries(&self) -> Vec<IndexEntry> {
        cell_entries(self.locator.cells())
    }

    /// R-tree nodes (the broadcast size of the index).
    pub(crate) fn nodes(&self) -> usize {
        self.tree.num_nodes()
    }

    /// Hands `each` the cells `mbr` meets, in ascending id order, or the
    /// cell nearest its center when it meets none. Returns the R-tree nodes
    /// a probe for `mbr` visits: the set and the count the tree's walk
    /// produces, read from the locator and the flat inner nodes.
    pub fn tag(&self, mbr: &Mbr, mut each: impl FnMut(CellId)) -> usize {
        #[cfg(feature = "sanitize")]
        let mut tagged = Vec::new();
        self.locator.assign_each(mbr, |id| {
            #[cfg(feature = "sanitize")]
            tagged.push(u64::from(id));
            each(id)
        });
        let visits = self.inner.visits(mbr);
        #[cfg(feature = "sanitize")]
        {
            let mut walked = Vec::new();
            let walk = self.tree.query_counting(mbr, &mut walked);
            if walked.is_empty() {
                walked.push(u64::from(self.locator.nearest_cell(&mbr.center())));
            }
            walked.sort_unstable();
            debug_assert_eq!((visits, tagged), (walk, walked), "sanitize: tag({mbr:?})");
        }
        visits
    }
}

fn cell_entries(cells: &[Mbr]) -> Vec<IndexEntry> {
    cells.iter().enumerate().map(|(i, c)| IndexEntry::new(i as u64, *c)).collect()
}

/// The result of a distributed spatial join run.
#[derive(Debug, Clone)]
pub struct JoinOutput {
    /// Refined result pairs `(left id, right id)`, exactly once each.
    pub pairs: Vec<(u64, u64)>,
    /// The per-stage simulated execution ledger.
    pub trace: RunTrace,
}

impl JoinOutput {
    /// Pairs sorted for set comparison.
    pub fn sorted_pairs(mut self) -> Vec<(u64, u64)> {
        self.pairs.sort_unstable();
        self.pairs
    }
}

/// A complete distributed spatial join system, the trait every system
/// implements (the three reproduced ones and LDE-MC+): its real
/// [`work`](DistributedSpatialJoin::work), which
/// [`run`](DistributedSpatialJoin::run) prices on one cluster.
///
/// ```
/// use sjc_cluster::{Cluster, ClusterConfig};
/// use sjc_core::framework::{DistributedSpatialJoin, JoinInput, JoinPredicate};
/// use sjc_core::spatialspark::SpatialSpark;
/// use sjc_data::{DatasetId, ScaledDataset};
///
/// // A small taxi ⋈ census-blocks workload on a simulated 10-node cluster.
/// let taxi = ScaledDataset::generate(DatasetId::Taxi1m, 1e-4, 42);
/// let nycb = ScaledDataset::generate(DatasetId::Nycb, 1e-4, 42);
/// let cluster = Cluster::new(ClusterConfig::ec2(10));
///
/// let out = SpatialSpark::default()
///     .run(
///         &cluster,
///         &JoinInput::from_dataset(&taxi),
///         &JoinInput::from_dataset(&nycb),
///         JoinPredicate::Intersects,
///     )
///     .expect("fits in memory at this scale");
/// assert!(!out.pairs.is_empty());
/// assert!(out.trace.total_seconds() > 0.0);
/// ```
pub trait DistributedSpatialJoin {
    /// System name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Runs the join's real work once on `left ⋈ right` under `predicate`,
    /// stopping early only where every cluster of `stop` fails;
    /// [`WorkLedger::price`] prices it on any of them.
    fn work(
        &self,
        left: &JoinInput,
        right: &JoinInput,
        predicate: JoinPredicate,
        stop: &[Cluster],
    ) -> WorkLedger;

    /// Runs the end-to-end join (preprocessing + global join + local join)
    /// of `left ⋈ right` under `predicate` on `cluster`.
    fn run(
        &self,
        cluster: &Cluster,
        left: &JoinInput,
        right: &JoinInput,
        predicate: JoinPredicate,
    ) -> Result<JoinOutput, SimError> {
        self.work(left, right, predicate, std::slice::from_ref(cluster)).into_output(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_geom::{LineString, Point, Polygon};

    fn poly() -> Geometry {
        Geometry::Polygon(Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ]))
    }

    #[test]
    fn predicate_evaluation() {
        let jts = GeometryEngine::jts();
        let p_in = Geometry::Point(Point::new(1.0, 1.0));
        let p_out = Geometry::Point(Point::new(5.0, 5.0));
        assert!(JoinPredicate::Intersects.evaluate(&jts, &p_in, &poly()).0);
        assert!(!JoinPredicate::Intersects.evaluate(&jts, &p_out, &poly()).0);
    }

    /// Every engine x pair of these records.
    fn each_case(mut check: impl FnMut(JoinPredicate, &GeometryEngine, &GeoRecord, &GeoRecord)) {
        let line = |pts: &[(f64, f64)]| {
            Geometry::LineString(LineString::new(
                pts.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            ))
        };
        let recs = [
            GeoRecord::new(0, line(&[(0.0, 0.0), (1.0, 0.0), (2.0, 2.0)])),
            GeoRecord::new(1, line(&[(0.0, 2.0), (2.0, 0.0)])),
            GeoRecord::new(2, line(&[(0.0, 1.9), (0.1, 2.0)])),
            GeoRecord::new(3, Geometry::Point(Point::new(1.0, 1.0))),
            GeoRecord::new(4, poly()),
        ];
        for engine in [GeometryEngine::jts(), GeometryEngine::geos()] {
            for l in &recs {
                for r in &recs {
                    check(JoinPredicate::Intersects, &engine, l, r);
                }
            }
        }
    }

    #[test]
    fn evaluate_records_matches_evaluate_in_verdict_and_cost() {
        each_case(|p, engine, l, r| {
            assert_eq!(
                p.evaluate_records(engine, l, r, &[]),
                p.evaluate(engine, &l.geom, &r.geom),
                "{p:?} on records {} x {}",
                l.id,
                r.id
            );
        });
    }

    #[test]
    fn refine_cost_ns_is_what_evaluate_records_charges() {
        each_case(|p, engine, l, r| {
            assert_eq!(
                p.refine_cost_ns(engine, l, r),
                p.evaluate_records(engine, l, r, &[]).1,
                "{p:?} on records {} x {}",
                l.id,
                r.id
            );
        });
    }

    #[test]
    fn join_input_from_dataset() {
        let ds = sjc_data::ScaledDataset::generate(sjc_data::DatasetId::Nycb, 0.01, 1);
        let input = JoinInput::from_dataset(&ds);
        assert_eq!(input.records.len(), ds.len());
        assert!(input.multiplier > 50.0);
        assert!(input.bytes_per_record() > 100.0);
        // Ids are dense 0..n.
        assert_eq!(input.records.last().unwrap().id as usize, input.records.len() - 1);
    }

    fn tiny_inputs() -> (JoinInput, JoinInput) {
        let taxi = sjc_data::ScaledDataset::generate(sjc_data::DatasetId::Taxi, 2e-5, 7);
        let nycb = sjc_data::ScaledDataset::generate(sjc_data::DatasetId::Nycb, 2e-5, 7);
        (JoinInput::from_dataset(&taxi), JoinInput::from_dataset(&nycb))
    }

    #[test]
    fn tsv_line_lens_are_the_records_text_line_lengths() {
        let (input, _) = tiny_inputs();
        let text = sjc_data::tsv::to_tsv_text(input.records.iter().map(|r| (r.id, &r.geom)));
        let want: Vec<u32> = text.split_terminator('\n').map(|l| l.len() as u32).collect();
        assert_eq!(want.len(), input.records.len());
        assert_eq!(input.tsv_line_lens(), want);
    }

    #[test]
    fn tsv_line_lens_are_built_once_and_shared_by_clones() {
        let (input, _) = tiny_inputs();
        let first = input.tsv_line_lens().as_ptr();
        assert_eq!(input.tsv_line_lens().as_ptr(), first);
        let clone = input.clone();
        assert_eq!(clone.tsv_line_lens().as_ptr(), first);
        // A clone taken before the first call shares the lengths too.
        let (cold, _) = tiny_inputs();
        let early = cold.clone();
        assert_eq!(early.tsv_line_lens().as_ptr(), cold.tsv_line_lens().as_ptr());
    }

    #[test]
    fn concurrent_first_callers_share_one_tsv_line_lens() {
        let (input, _) = tiny_inputs();
        let callers: Vec<JoinInput> = (0..64).map(|_| input.clone()).collect();
        // Weighted dispatch: 64 plain `par_map` items fall under the serial
        // cut-over and would never race.
        let ptrs = sjc_par::par_map_weighted_budget(
            sjc_par::Budget::explicit(4),
            &callers,
            |_| 1,
            |c| c.tsv_line_lens().as_ptr() as usize,
        );
        let first = input.tsv_line_lens().as_ptr() as usize;
        assert!(ptrs.iter().all(|&p| p == first), "{ptrs:?}");
    }

    #[test]
    fn only_hadoopgis_builds_the_tsv_line_lens() {
        use crate::hadoopgis::HadoopGis;
        use crate::spatialhadoop::SpatialHadoop;
        use crate::spatialspark::SpatialSpark;
        use sjc_cluster::ClusterConfig;

        let (mut left, mut right) = tiny_inputs();
        left.multiplier = 1.0;
        right.multiplier = 1.0;
        let cluster = Cluster::new(ClusterConfig::workstation());
        let p = JoinPredicate::Intersects;
        SpatialSpark::default().run(&cluster, &left, &right, p).unwrap();
        SpatialHadoop::default().run(&cluster, &left, &right, p).unwrap();
        assert!(left.tsv_lens.get().is_none() && right.tsv_lens.get().is_none());
        assert!(format!("{left:?}").contains("tsv_lines: None"), "{left:?}");

        HadoopGis::default().run(&cluster, &left, &right, p).unwrap();
        let lines = left.tsv_lens.get().map(Vec::len);
        assert_eq!(lines, Some(left.records.len()));
        assert!(right.tsv_lens.get().is_some());
        assert!(format!("{left:?}").contains(&format!("tsv_lines: {lines:?}")), "{left:?}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "record ids must be dense")]
    fn new_rejects_sparse_ids() {
        let (input, _) = tiny_inputs();
        let mut records = input.records;
        records.swap(0, 1);
        JoinInput::new("swapped", records, 0, 1.0, input.domain);
    }
}
