//! Ablation studies: isolating the design choices the paper analyses.
//!
//! The paper compares three complete systems, so each observed difference
//! mixes several design choices (platform, access model, geometry library,
//! local join algorithm). Because our implementations run on shared
//! substrates, we can flip one choice at a time — the experiments the paper
//! could not run. Every study is a table of `(label, system config)` rows
//! run on one workload and cluster by `AblationRow::run`; [`report`]
//! renders them all for `reproduce ablations` and the `design_ablation`
//! example.

use std::fmt::Write as _;

use sjc_cluster::{Cluster, ClusterConfig};
use sjc_geom::EngineKind;

use crate::common::{LocalJoinAlgo, PartitionerKind};
use crate::experiment::Workload;
use crate::framework::{DistributedSpatialJoin, JoinInput, JoinPredicate};
use crate::hadoopgis::HadoopGis;
use crate::lde::LdeEngine;
use crate::spatialhadoop::SpatialHadoop;
use crate::spatialspark::SpatialSpark;

/// One ablation measurement.
#[derive(Debug, Clone)]
struct AblationRow {
    label: String,
    /// End-to-end simulated seconds, or the failure kind.
    outcome: Result<f64, String>,
}

impl AblationRow {
    /// Runs one system configuration: the runner of every study.
    fn run(
        label: impl Into<String>,
        sys: &dyn DistributedSpatialJoin,
        cluster: &Cluster,
        left: &JoinInput,
        right: &JoinInput,
    ) -> AblationRow {
        let outcome = sys
            .run(cluster, left, right, JoinPredicate::Intersects)
            .map(|o| o.trace.total_seconds())
            .map_err(|e| e.kind().to_string());
        AblationRow { label: label.into(), outcome }
    }
}

/// A study row: its label and the system configuration it runs.
type Config = (String, Box<dyn DistributedSpatialJoin>);

fn row(label: impl Into<String>, sys: impl DistributedSpatialJoin + 'static) -> Config {
    (label.into(), Box::new(sys))
}

/// Runs every row of a study on workload `w` at `scale`/`seed` on `config`.
fn study(
    w: Workload,
    config: ClusterConfig,
    scale: f64,
    seed: u64,
    rows: Vec<Config>,
) -> Vec<AblationRow> {
    let (l, r) = w.prepare(scale, seed);
    let cluster = Cluster::new(config);
    rows.into_iter().map(|(label, sys)| AblationRow::run(label, &*sys, &cluster, &l, &r)).collect()
}

/// The paper's three local-join algorithms (§II.C).
const KERNELS: [LocalJoinAlgo; 3] =
    [LocalJoinAlgo::StripeSweep, LocalJoinAlgo::SyncRTree, LocalJoinAlgo::IndexedNestedLoop];

/// GEOS vs JTS on the *same* system: the geometry-library factor of §II.C
/// in isolation. On HadoopGIS (whose join reducer is dominated by
/// per-record geometry calls) the engine matters enormously; on
/// SpatialHadoop (where refinement is a sliver of the pipeline) it barely
/// registers — which is exactly why the paper's HadoopGIS numbers implicate
/// GEOS while SpatialHadoop's do not.
fn geometry_engine(scale: f64, seed: u64) -> Vec<AblationRow> {
    let engines = [EngineKind::Jts, EngineKind::Geos];
    let hg = engines.map(|engine| {
        row(format!("HadoopGIS + {}", engine.name()), HadoopGis { engine, ..HadoopGis::default() })
    });
    let sh = engines.map(|engine| {
        let sys = SpatialHadoop { engine, ..SpatialHadoop::default() };
        row(format!("SpatialHadoop + {}", engine.name()), sys)
    });
    let rows = hg.into_iter().chain(sh).collect();
    study(Workload::edge01_linearwater01(), ClusterConfig::workstation(), scale, seed, rows)
}

/// Streaming vs native data access with the geometry engine held equal:
/// HadoopGIS-with-JTS vs SpatialHadoop-with-JTS. What remains of the gap is
/// the access model (pipes, re-parsing, extra jobs, script reducers).
fn access_model(scale: f64, seed: u64) -> Vec<AblationRow> {
    let rows = vec![
        row(
            "streaming access (HadoopGIS pipeline, JTS)",
            HadoopGis { engine: EngineKind::Jts, ..HadoopGis::default() },
        ),
        row("native access (SpatialHadoop pipeline, JTS)", SpatialHadoop::default()),
    ];
    study(Workload::taxi1m_nycb(), ClusterConfig::workstation(), scale, seed, rows)
}

/// The paper's local-join algorithms inside SpatialHadoop.
fn local_join_algo(scale: f64, seed: u64) -> Vec<AblationRow> {
    let rows = KERNELS.map(|algo| {
        row(format!("{algo:?}"), SpatialHadoop { local_algo: algo, ..SpatialHadoop::default() })
    });
    study(Workload::edge01_linearwater01(), ClusterConfig::workstation(), scale, seed, rows.into())
}

/// Every system × every local-join kernel, labelled `system / kernel`: the
/// kernel-selection seam exercised end-to-end. The R-tree kernels change
/// simulated time because their traversal counts are charged.
fn kernel_grid(scale: f64, seed: u64) -> Vec<AblationRow> {
    let systems: [fn(LocalJoinAlgo) -> Box<dyn DistributedSpatialJoin>; 4] = [
        |local_algo| Box::new(SpatialHadoop { local_algo, ..SpatialHadoop::default() }),
        |local_algo| Box::new(HadoopGis { local_algo, ..HadoopGis::default() }),
        |local_algo| Box::new(SpatialSpark { local_algo, ..SpatialSpark::default() }),
        |local_algo| Box::new(LdeEngine { local_algo }),
    ];
    let rows = systems
        .iter()
        .flat_map(|with| KERNELS.map(|k| (with(k), k)))
        .map(|(sys, k)| (format!("{} / {k:?}", sys.name()), sys))
        .collect();
    study(Workload::taxi1m_nycb(), ClusterConfig::workstation(), scale, seed, rows)
}

/// Partition-based vs broadcast-based SpatialSpark (§II.B — the comparison
/// the paper defers to future work), on both a small and a big right side.
fn broadcast_join(scale: f64, seed: u64) -> Vec<AblationRow> {
    let (taxi, edge) = (Workload::taxi1m_nycb(), Workload::edge01_linearwater01());
    let (ws, ec2) = (ClusterConfig::workstation(), ClusterConfig::ec2(10));
    [(taxi, ws.clone()), (taxi, ec2.clone()), (edge, ws), (edge, ec2)]
        .into_iter()
        .flat_map(|(w, config)| {
            let rows = [("partition", false), ("broadcast", true)].map(|(kind, broadcast_join)| {
                let sys = SpatialSpark { broadcast_join, ..SpatialSpark::default() };
                row(format!("{} on {} ({kind}-based)", w.name, config.name), sys)
            });
            study(w, config, scale, seed, rows.into())
        })
        .collect()
}

/// Partition-count sweep for SpatialSpark — the sample-rate / granularity
/// knob of §II.A-B (too few partitions starve task slots and blow up
/// per-executor memory; too many pay per-task overhead).
fn partition_sweep(scale: f64, seed: u64) -> Vec<AblationRow> {
    let rows = [32usize, 128, 512, 2048].map(|partitions| {
        row(
            format!("{partitions} partitions"),
            SpatialSpark { partitions, ..SpatialSpark::default() },
        )
    });
    study(Workload::taxi1m_nycb(), ClusterConfig::ec2(10), scale, seed, rows.into())
}

/// Partitioner family sweep for SpatialHadoop (fixed grid vs STR tiles vs
/// BSP — the SATO design space of §II.A).
fn partitioner_kind(scale: f64, seed: u64) -> Vec<AblationRow> {
    let rows = [PartitionerKind::FixedGrid, PartitionerKind::StrTiles, PartitionerKind::Bsp]
        .map(|k| row(k.name(), SpatialHadoop { partitioner: k, ..SpatialHadoop::default() }));
    study(Workload::taxi1m_nycb(), ClusterConfig::workstation(), scale, seed, rows.into())
}

/// Re-partitioning vs compatible grids in SpatialHadoop (§II.B: "SpatialHadoop
/// can run faster when re-partitioning can be skipped").
fn repartitioning(scale: f64, seed: u64) -> Vec<AblationRow> {
    let rows = [
        ("independent grids (re-partitioning required)", false),
        ("compatible grids (re-partitioning skipped)", true),
    ]
    .map(|(label, reuse_partitions)| {
        row(label, SpatialHadoop { reuse_partitions, ..SpatialHadoop::default() })
    });
    study(Workload::edge01_linearwater01(), ClusterConfig::workstation(), scale, seed, rows.into())
}

type Study = (&'static str, fn(f64, u64) -> Vec<AblationRow>);

/// Every study with its title, in report order.
const STUDIES: [Study; 8] = [
    ("geometry engine (same system, JTS vs GEOS)", geometry_engine),
    ("data access model (same engine, streaming vs native)", access_model),
    ("local join algorithm (SpatialHadoop)", local_join_algo),
    ("local-join kernel grid (every system x every kernel)", kernel_grid),
    ("broadcast vs partition join (SpatialSpark)", broadcast_join),
    ("partition-count sweep (SpatialSpark, EC2-10)", partition_sweep),
    ("partitioner family (SpatialHadoop)", partitioner_kind),
    ("re-partitioning vs compatible grids (SpatialHadoop)", repartitioning),
];

/// Renders every study at `scale`/`seed` as aligned text blocks, one blank
/// line apart.
pub fn report(scale: f64, seed: u64) -> String {
    let mut out = String::new();
    for (i, (title, rows)) in STUDIES.iter().enumerate() {
        let _ = writeln!(out, "{}--- {title} ---", if i == 0 { "" } else { "\n" });
        for row in rows(scale, seed) {
            let outcome = match &row.outcome {
                Ok(s) => format!("{s:>9.1} s"),
                Err(e) => format!("{:>11}", format!("({e})")),
            };
            let _ = writeln!(out, "  {:<48} {outcome}", row.label);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AblationRow {
        fn seconds(&self) -> Option<f64> {
            self.outcome.as_ref().ok().copied()
        }
    }

    const SCALE: f64 = 1e-4;
    const SEED: u64 = 7;
    /// HadoopGIS pipe margins on `edge0.1` are slim (they were in the paper
    /// too — it barely succeeded on the workstation), so runs involving it
    /// use the calibration scale where partition skew estimates are stable.
    const HG_SCALE: f64 = 1e-3;

    #[test]
    fn geos_slower_than_jts_on_identical_system() {
        let rows = geometry_engine(HG_SCALE, SEED);
        let hg_jts = rows[0].seconds().expect("HadoopGIS+JTS succeeds");
        let hg_geos = rows[1].seconds().expect("HadoopGIS+GEOS succeeds");
        assert!(
            hg_geos > 1.2 * hg_jts,
            "on HadoopGIS the engine dominates: GEOS {hg_geos} vs JTS {hg_jts}"
        );
        let sh_jts = rows[2].seconds().expect("SpatialHadoop+JTS succeeds");
        let sh_geos = rows[3].seconds().expect("SpatialHadoop+GEOS succeeds");
        assert!(sh_geos >= sh_jts, "GEOS never beats JTS");
        assert!(
            (sh_geos - sh_jts) / sh_jts < 0.2,
            "on SpatialHadoop refinement is a sliver: {sh_jts} vs {sh_geos}"
        );
    }

    #[test]
    fn streaming_slower_than_native_with_equal_engine() {
        let rows = access_model(HG_SCALE, SEED);
        let streaming = rows[0].seconds().expect("streaming run succeeds");
        let native = rows[1].seconds().expect("native run succeeds");
        assert!(
            streaming > 2.0 * native,
            "streaming {streaming} should far exceed native {native}"
        );
    }

    #[test]
    fn local_join_algorithms_all_complete() {
        let rows = local_join_algo(SCALE, SEED);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.seconds().is_some(), "{} failed", r.label);
        }
    }

    #[test]
    fn kernel_grid_covers_every_system_and_kernel() {
        let rows = kernel_grid(SCALE, SEED);
        assert_eq!(rows.len(), 12, "4 systems x 3 kernels");
        for r in &rows {
            assert!(r.seconds().is_some(), "{} failed", r.label);
        }
        assert_eq!(rows[6].label, "SpatialSpark / StripeSweep");
        assert!(rows.iter().any(|r| r.label == "LDE-MC+ / SyncRTree"));
    }

    #[test]
    fn partitioner_families_all_complete() {
        for r in partitioner_kind(SCALE, SEED) {
            assert!(r.seconds().is_some(), "{} failed", r.label);
        }
    }

    #[test]
    fn skipping_repartitioning_is_faster() {
        let rows = repartitioning(SCALE, SEED);
        let independent = rows[0].seconds().expect("independent grids run");
        let compatible = rows[1].seconds().expect("compatible grids run");
        assert!(compatible < independent, "{compatible} !< {independent}");
    }

    #[test]
    fn broadcast_join_wins_on_small_right_side() {
        // taxi1m ⋈ nycb: the right side is tiny, so broadcasting the full
        // index avoids the shuffle entirely and should win.
        let rows = broadcast_join(SCALE, SEED);
        let part = rows[0].seconds().expect("partition-based succeeds");
        let bcast = rows[1].seconds().expect("broadcast-based succeeds");
        assert!(bcast < part, "broadcast {bcast} should beat partition {part} on tiny right side");
    }
}
