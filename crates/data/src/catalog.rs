//! Dataset catalog: the paper's Table 1, plus the scaling machinery.

use crate::rng::StdRng;
use sjc_geom::{Geometry, Mbr};

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// The seven datasets of the paper's experiments (Table 1 plus `taxi1m`,
/// which Table 1 omits but §III.A defines as one month of the taxi data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// NYC taxi pickup locations, 2013 (points).
    Taxi,
    /// NYC 2010 census blocks (polygons).
    Nycb,
    /// TIGER linear water features (polylines).
    Linearwater,
    /// TIGER road edges (polylines).
    Edges,
    /// 10% sample of `linearwater`.
    Linearwater01,
    /// 10% sample of `edges`.
    Edges01,
    /// One month of `taxi` (~1/12 of the records).
    Taxi1m,
}

impl DatasetId {
    pub fn all() -> [DatasetId; 7] {
        [
            DatasetId::Taxi,
            DatasetId::Nycb,
            DatasetId::Linearwater,
            DatasetId::Edges,
            DatasetId::Linearwater01,
            DatasetId::Edges01,
            DatasetId::Taxi1m,
        ]
    }

    /// Table 1 rows, in the paper's order.
    pub fn table1() -> [DatasetId; 6] {
        [
            DatasetId::Taxi,
            DatasetId::Nycb,
            DatasetId::Linearwater,
            DatasetId::Edges,
            DatasetId::Linearwater01,
            DatasetId::Edges01,
        ]
    }

    pub fn spec(self) -> DatasetSpec {
        match self {
            DatasetId::Taxi => DatasetSpec {
                id: self,
                name: "taxi",
                full_records: 169_720_892,
                full_bytes: (6.9 * GIB as f64) as u64,
            },
            DatasetId::Nycb => {
                DatasetSpec { id: self, name: "nycb", full_records: 38_839, full_bytes: 19 * MIB }
            }
            DatasetId::Linearwater => DatasetSpec {
                id: self,
                name: "linearwater",
                full_records: 5_857_442,
                full_bytes: (8.4 * GIB as f64) as u64,
            },
            DatasetId::Edges => DatasetSpec {
                id: self,
                name: "edges",
                full_records: 72_729_686,
                full_bytes: (23.8 * GIB as f64) as u64,
            },
            DatasetId::Linearwater01 => DatasetSpec {
                id: self,
                name: "linearwater0.1",
                full_records: 585_809,
                full_bytes: 852 * MIB,
            },
            DatasetId::Edges01 => DatasetSpec {
                id: self,
                name: "edges0.1",
                full_records: 7_271_983,
                full_bytes: (2.3 * GIB as f64) as u64,
            },
            DatasetId::Taxi1m => DatasetSpec {
                id: self,
                name: "taxi1m",
                // One month of 2013: full counts divided by 12.
                full_records: 169_720_892 / 12,
                full_bytes: (6.9 * GIB as f64 / 12.0) as u64,
            },
        }
    }
}

/// Full-scale metadata of one dataset (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    pub id: DatasetId,
    pub name: &'static str,
    pub full_records: u64,
    pub full_bytes: u64,
}

impl DatasetSpec {
    /// Average serialized bytes per record (from Table 1).
    pub fn bytes_per_record(&self) -> f64 {
        self.full_bytes as f64 / self.full_records as f64
    }
}

/// The NYC datasets (taxi/nycb) share one urban domain; the TIGER datasets
/// share another. The absolute units are arbitrary (think meters); what
/// matters is that joined datasets share the *same* domain so densities and
/// selectivities are meaningful.
fn full_domain(id: DatasetId) -> Mbr {
    match id {
        DatasetId::Taxi | DatasetId::Taxi1m | DatasetId::Nycb => {
            // ~800 km^2 urban area (NYC's five boroughs): 28.3 km square.
            Mbr::new(0.0, 0.0, 28_300.0, 28_300.0)
        }
        _ => {
            // A TIGER census-state-sized region. The exact size only sets
            // absolute feature density; intersections-per-record is what the
            // generators calibrate.
            Mbr::new(0.0, 0.0, 400_000.0, 400_000.0)
        }
    }
}

/// A generated dataset: geometry at generation scale plus the extrapolation
/// factor to full scale.
#[derive(Debug, Clone)]
pub struct ScaledDataset {
    pub spec: DatasetSpec,
    /// Generation scale `s` (domain area factor; record count factor).
    pub scale: f64,
    /// The (shrunken) domain the geometry lives in.
    pub domain: Mbr,
    pub geoms: Vec<Geometry>,
}

impl ScaledDataset {
    /// Generates dataset `id` at scale `s` with a deterministic seed.
    ///
    /// The domain side shrinks by `sqrt(s)` while record count shrinks by
    /// `s`, preserving density. Joined datasets must be generated at the
    /// same scale (the experiment layer enforces this).
    pub fn generate(id: DatasetId, scale: f64, seed: u64) -> ScaledDataset {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let spec = id.spec();
        let full = full_domain(id);
        let side_factor = scale.sqrt();
        let domain = Mbr::new(
            full.min_x,
            full.min_y,
            full.min_x + full.width() * side_factor,
            full.min_y + full.height() * side_factor,
        );
        let records = ((spec.full_records as f64 * scale).round() as usize).max(1);
        // Seed mixes the dataset id so joined datasets are independent.
        let mut rng = StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let geoms = match id {
            DatasetId::Taxi | DatasetId::Taxi1m => crate::taxi::generate(&mut rng, domain, records),
            DatasetId::Nycb => crate::census::generate(&mut rng, domain, records),
            DatasetId::Edges | DatasetId::Edges01 => {
                crate::tiger::generate_edges(&mut rng, domain, records)
            }
            DatasetId::Linearwater | DatasetId::Linearwater01 => {
                crate::tiger::generate_linearwater(&mut rng, domain, records)
            }
        };
        ScaledDataset { spec, scale, domain, geoms }
    }

    /// Number of generated records.
    pub fn len(&self) -> usize {
        self.geoms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.geoms.is_empty()
    }

    /// Extrapolation multiplier from generated to full scale.
    pub fn multiplier(&self) -> f64 {
        self.spec.full_records as f64 / self.len() as f64
    }

    /// Serialized size of the *generated* slice, using the real dataset's
    /// bytes-per-record (Table 1) so I/O costs reflect the paper's data,
    /// which carries non-geometry attributes alongside WKT.
    pub fn sim_bytes(&self) -> u64 {
        (self.len() as f64 * self.spec.bytes_per_record()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let taxi = DatasetId::Taxi.spec();
        assert_eq!(taxi.full_records, 169_720_892);
        let edges = DatasetId::Edges.spec();
        assert_eq!(edges.full_records, 72_729_686);
        // Bytes-per-record sanity: taxi is tiny per record, linearwater large.
        assert!(taxi.bytes_per_record() < 60.0);
        assert!(DatasetId::Linearwater.spec().bytes_per_record() > 1000.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ScaledDataset::generate(DatasetId::Nycb, 0.02, 42);
        let b = ScaledDataset::generate(DatasetId::Nycb, 0.02, 42);
        assert_eq!(a.geoms, b.geoms);
        let c = ScaledDataset::generate(DatasetId::Nycb, 0.02, 43);
        assert_ne!(a.geoms, c.geoms, "different seed, different data");
    }

    #[test]
    fn scaling_preserves_density() {
        let small = ScaledDataset::generate(DatasetId::Taxi, 1e-5, 1);
        let large = ScaledDataset::generate(DatasetId::Taxi, 4e-5, 1);
        let d_small = small.len() as f64 / small.domain.area();
        let d_large = large.len() as f64 / large.domain.area();
        let ratio = d_small / d_large;
        assert!((0.8..1.25).contains(&ratio), "density ratio {ratio}");
    }

    #[test]
    fn geometry_stays_in_padded_domain() {
        for id in [DatasetId::Taxi, DatasetId::Nycb, DatasetId::Edges, DatasetId::Linearwater] {
            let ds = ScaledDataset::generate(id, 1e-4, 7);
            let padded = ds.domain.buffered(ds.domain.width() * 0.05);
            for g in &ds.geoms {
                assert!(padded.contains(&g.mbr()), "{id:?} geometry escapes domain");
            }
        }
    }

    #[test]
    fn multiplier_extrapolates_to_full_records() {
        let ds = ScaledDataset::generate(DatasetId::Edges01, 1e-3, 3);
        let full = ds.len() as f64 * ds.multiplier();
        let err = (full - ds.spec.full_records as f64).abs() / ds.spec.full_records as f64;
        assert!(err < 0.01, "extrapolation error {err}");
    }

    #[test]
    fn joined_datasets_share_domains() {
        let taxi = ScaledDataset::generate(DatasetId::Taxi, 1e-4, 9);
        let nycb = ScaledDataset::generate(DatasetId::Nycb, 1e-4, 9);
        assert_eq!(taxi.domain, nycb.domain);
        let edges = ScaledDataset::generate(DatasetId::Edges, 1e-4, 9);
        let water = ScaledDataset::generate(DatasetId::Linearwater, 1e-4, 9);
        assert_eq!(edges.domain, water.domain);
        assert_ne!(taxi.domain, edges.domain);
    }

    #[test]
    fn serialized_sizes_track_table1() {
        // The synthetic WKT must weigh roughly what the paper's Table 1
        // reports per record, or every byte-driven cost would be off.
        for (id, tolerance) in [
            (DatasetId::Taxi, 0.35),
            (DatasetId::Nycb, 0.25),
            (DatasetId::Edges, 0.25),
            (DatasetId::Linearwater, 0.25),
        ] {
            let ds = ScaledDataset::generate(id, 1e-3, 1);
            let wkt_bytes: u64 =
                ds.geoms.iter().take(500).map(|g| sjc_geom::wkt::to_wkt(g).len() as u64 + 8).sum();
            let measured = wkt_bytes as f64 / ds.geoms.len().min(500) as f64;
            let table1 = ds.spec.bytes_per_record();
            let err = (measured - table1).abs() / table1;
            assert!(
                err < tolerance,
                "{:?}: measured {measured:.0} B/rec vs Table 1 {table1:.0} (err {err:.2})",
                id
            );
        }
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn invalid_scale_rejected() {
        let _ = ScaledDataset::generate(DatasetId::Taxi, 0.0, 1);
    }
}
