//! Geometry-engine cost profiles: the JTS vs GEOS factor.
//!
//! The paper attributes a large share of HadoopGIS's slowness to its GEOS
//! (C++) geometry library being "several times" slower than the JTS (Java)
//! library used by SpatialHadoop and SpatialSpark (citing the authors' own
//! measurements in their CloudDM'15 paper). We reproduce this as a *cost
//! profile*: every refinement call computes the true geometric answer with
//! the same code, but reports a simulated duration that differs by the
//! engine's factor. This keeps results identical across systems (a
//! correctness invariant the integration tests check) while letting the
//! benchmark harness show the engine's contribution to end-to-end runtime.

use crate::geometry::Geometry;
use crate::mbr::Mbr;

/// Which library profile a system links against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Java Topology Suite — used by SpatialHadoop and SpatialSpark.
    Jts,
    /// Geometry Engine Open Source (C++ port of JTS) — used by HadoopGIS.
    Geos,
}

impl EngineKind {
    /// Simulated slowdown factor relative to JTS.
    ///
    /// Calibration: the paper (§II.C) reports JTS "can be several times
    /// faster than GEOS"; the authors' CloudDM'15 reference measured roughly 4×.
    pub fn refinement_factor(self) -> f64 {
        match self {
            EngineKind::Jts => 1.0,
            EngineKind::Geos => 4.0,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Jts => "JTS",
            EngineKind::Geos => "GEOS",
        }
    }
}

/// Baseline per-refinement fixed cost in simulated nanoseconds (JTS scale).
const REFINE_BASE_NS: f64 = 150.0;
/// Additional cost per vertex examined during refinement (JTS scale).
const REFINE_PER_VERTEX_NS: f64 = 12.0;
/// Per-MBR filter test cost (engine independent — pure arithmetic).
const FILTER_NS: u64 = 8;

/// A geometry engine: computes exact predicates and accounts their
/// simulated cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryEngine {
    kind: EngineKind,
}

impl GeometryEngine {
    pub const fn new(kind: EngineKind) -> Self {
        GeometryEngine { kind }
    }

    pub const fn jts() -> Self {
        GeometryEngine::new(EngineKind::Jts)
    }

    pub const fn geos() -> Self {
        GeometryEngine::new(EngineKind::Geos)
    }

    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Simulated cost of one refinement over geometries with the given
    /// total vertex count.
    pub fn refine_cost_ns(&self, total_vertices: usize) -> u64 {
        let base = REFINE_BASE_NS + REFINE_PER_VERTEX_NS * total_vertices as f64;
        (base * self.kind.refinement_factor()) as u64
    }

    /// Cost of one MBR filter test.
    pub fn filter_cost_ns(&self) -> u64 {
        FILTER_NS
    }

    /// Exact `intersects` refinement plus its simulated cost.
    pub fn intersects(&self, a: &Geometry, b: &Geometry) -> (bool, u64) {
        let cost = self.refine_cost_ns(a.num_vertices() + b.num_vertices());
        (a.intersects(b), cost)
    }

    /// [`intersects`](GeometryEngine::intersects) with envelope hints (see
    /// [`Geometry::intersects_hinted`]). The charged cost is a function of
    /// the vertex counts alone, so it equals the unhinted one.
    pub fn intersects_hinted(
        &self,
        a: &Geometry,
        a_mbr: &Mbr,
        b: &Geometry,
        b_chunks: &[Mbr],
    ) -> (bool, u64) {
        let cost = self.refine_cost_ns(a.num_vertices() + b.num_vertices());
        (a.intersects_hinted(a_mbr, b, b_chunks), cost)
    }

    /// Exact `contains` refinement plus its simulated cost.
    pub fn contains(&self, a: &Geometry, b: &Geometry) -> (bool, u64) {
        let cost = self.refine_cost_ns(a.num_vertices() + b.num_vertices());
        (a.contains(b), cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineString, Point};

    fn cross_pair() -> (Geometry, Geometry) {
        let a =
            Geometry::LineString(LineString::new(vec![Point::new(0.0, 0.0), Point::new(2.0, 2.0)]));
        let b =
            Geometry::LineString(LineString::new(vec![Point::new(0.0, 2.0), Point::new(2.0, 0.0)]));
        (a, b)
    }

    #[test]
    fn engines_agree_on_results() {
        let (a, b) = cross_pair();
        let (jts_hit, _) = GeometryEngine::jts().intersects(&a, &b);
        let (geos_hit, _) = GeometryEngine::geos().intersects(&a, &b);
        assert_eq!(jts_hit, geos_hit, "cost profiles must never change answers");
        assert!(jts_hit);
    }

    #[test]
    fn geos_charges_more_than_jts() {
        let (a, b) = cross_pair();
        let (_, jts_cost) = GeometryEngine::jts().intersects(&a, &b);
        let (_, geos_cost) = GeometryEngine::geos().intersects(&a, &b);
        assert!(geos_cost > jts_cost);
        let ratio = geos_cost as f64 / jts_cost as f64;
        assert!((3.5..=4.5).contains(&ratio), "ratio ~4x, got {ratio}");
    }

    #[test]
    fn cost_scales_with_vertex_count() {
        let e = GeometryEngine::jts();
        assert!(e.refine_cost_ns(100) > e.refine_cost_ns(4));
    }

    #[test]
    fn filter_is_much_cheaper_than_refinement() {
        let e = GeometryEngine::jts();
        assert!(e.filter_cost_ns() * 10 < e.refine_cost_ns(4));
    }
}
