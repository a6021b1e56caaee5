//! Property-based tests for the cluster simulator (seeded `sjc-testkit`
//! cases).

use sjc_cluster::scheduler::{lpt_makespan, replicated_makespan};
use sjc_cluster::{ClusterConfig, CostModel, SimHdfs};
use sjc_testkit::cases;

const N: usize = 256;

#[test]
fn lpt_within_classic_bounds() {
    cases(0xC701, N, |rng| {
        let tasks = rng.vec_u64(1..1_000_000, 1..200);
        let slots = rng.usize_in(1..64);
        let total: u64 = tasks.iter().sum();
        let longest = *tasks.iter().max().unwrap();
        let makespan = lpt_makespan(&tasks, slots);
        // Lower bounds: area bound and longest task.
        assert!(makespan >= total / slots as u64);
        assert!(makespan >= longest);
        // Upper bound: Graham's list-scheduling bound, which holds against
        // these directly computable quantities (unlike the 4/3 factor,
        // which is relative to the unknown OPT): makespan <= total/m + max.
        assert!((makespan as f64) <= total as f64 / slots as f64 + longest as f64 + 1.0);
    });
}

#[test]
fn more_slots_never_hurt() {
    cases(0xC702, N, |rng| {
        let tasks = rng.vec_u64(1..100_000, 1..100);
        let slots = rng.usize_in(1..32);
        assert!(lpt_makespan(&tasks, slots + 1) <= lpt_makespan(&tasks, slots));
    });
}

#[test]
fn replication_extrapolation_is_monotone() {
    cases(0xC703, N, |rng| {
        let tasks = rng.vec_u64(1..100_000, 1..50);
        let m1 = rng.f64_in(1.0..100.0);
        let extra = rng.f64_in(0.0..100.0);
        let a = replicated_makespan(&tasks, 8, m1);
        let b = replicated_makespan(&tasks, 8, m1 + extra);
        assert!(b >= a);
    });
}

/// Pinned regression (formerly `proptests.proptest-regressions`): this task
/// mix once violated the replication-monotonicity property before the
/// scheduler rounded multiplied task sizes consistently.
#[test]
fn replication_monotone_pinned_regression() {
    let tasks: [u64; 11] =
        [558831, 671421, 671421, 671421, 390078, 557204, 557204, 550314, 550314, 529012, 505152];
    let slots = 8;
    let total: u64 = tasks.iter().sum();
    let longest = *tasks.iter().max().unwrap();
    let makespan = lpt_makespan(&tasks, slots);
    assert!(makespan >= total / slots as u64);
    assert!(makespan >= longest);
    assert!((makespan as f64) <= total as f64 / slots as f64 + longest as f64 + 1.0);
    // Dense multiplier sweep around 1.0, where the original failure lived.
    let mut prev = 0u64;
    for step in 0..400 {
        let m = 1.0 + step as f64 * 0.25;
        let v = replicated_makespan(&tasks, slots, m);
        assert!(v >= prev, "multiplier {m}: {v} < {prev}");
        prev = v;
    }
}

#[test]
fn io_cost_additivity() {
    cases(0xC704, N, |rng| {
        let bytes_a = rng.u64_in(0..1u64 << 32);
        let bytes_b = rng.u64_in(0..1u64 << 32);
        let m = CostModel::default();
        let bw = 100.0 * (1 << 20) as f64;
        let together = m.io_ns(bytes_a + bytes_b, bw);
        let split = m.io_ns(bytes_a, bw) + m.io_ns(bytes_b, bw);
        // Integer truncation may lose at most 1 ns per call.
        assert!(together.abs_diff(split) <= 2);
    });
}

#[test]
fn hdfs_blocks_cover_file_exactly() {
    cases(0xC705, N, |rng| {
        let bytes = rng.u64_in(0..10u64 << 30);
        let nodes = rng.u32_in(1..20);
        let mut fs = SimHdfs::new(nodes);
        let f = fs.write_file("f", bytes, 1).clone();
        let total: u64 = f.blocks.iter().map(|b| b.bytes).sum();
        assert_eq!(total, bytes);
        for b in &f.blocks {
            assert!(b.bytes <= fs.block_size());
            assert!(b.primary_node < nodes);
        }
    });
}

#[test]
fn ec2_presets_scale_linearly() {
    cases(0xC706, N, |rng| {
        let n = rng.u32_in(1..32);
        let cfg = ClusterConfig::ec2(n);
        assert_eq!(cfg.nodes, n);
        assert_eq!(cfg.node, ClusterConfig::ec2(1).node);
    });
}

#[test]
fn footprint_monotone_in_inputs() {
    cases(0xC707, N, |rng| {
        let r1 = rng.u64_in(0..1_000_000);
        let v1 = rng.u64_in(0..1_000_000);
        let dr = rng.u64_in(0..1_000_000);
        let m = CostModel::default();
        assert!(m.spark_footprint_bytes(r1 + dr, v1) >= m.spark_footprint_bytes(r1, v1));
        assert!(m.spark_footprint_bytes(r1, v1 + dr) >= m.spark_footprint_bytes(r1, v1));
    });
}
