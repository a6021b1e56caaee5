//! Property-based tests for the RDD engine: transformation semantics match
//! plain iterator chains, shuffles match hash-map folds, memory accounting
//! is monotone (seeded `sjc-testkit` cases).

use sjc_cluster::metrics::Phase;
use sjc_cluster::{Cluster, ClusterConfig};
use sjc_rdd::SparkContext;
use sjc_testkit::{cases, TestRng};
use std::collections::BTreeMap;

const N: usize = 64;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::workstation())
}

fn pairs(
    rng: &mut TestRng,
    keys: std::ops::Range<u64>,
    vals: std::ops::Range<u64>,
    len: std::ops::Range<usize>,
) -> Vec<(u64, u64)> {
    let n = rng.usize_in(len);
    (0..n).map(|_| (rng.u64_in(keys.clone()), rng.u64_in(vals.clone()))).collect()
}

#[test]
fn flat_map_matches_iterators() {
    cases(0x4D01, N, |rng| {
        let xs = rng.vec_u64(0..10_000, 0..500);
        let cluster = cluster();
        let mut ctx = SparkContext::new(&cluster);
        let mut got = ctx
            .read_text(xs.clone(), xs.len() as u64 * 8, 1.0)
            .flat_map(&ctx, |x, _| vec![x * 3])
            .flat_map(&ctx, |x, _| if x % 2 == 0 { vec![*x] } else { Vec::new() })
            .collect(&mut ctx, "t", Phase::DistributedJoin)
            .unwrap();
        got.sort_unstable();
        let mut expected: Vec<u64> = xs.iter().map(|x| x * 3).filter(|x| x % 2 == 0).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

/// Both wide operators place key `k` in shuffle partition `k % p` (the
/// identity hash on integer keys) and hold each partition's keys in
/// ascending order; `collect` concatenates the partitions. A stable sort on
/// `(k % p, k)` turns a key-grouped model into that output order.
fn shuffle_order<T>(records: &mut [(u64, T)], p: usize) {
    records.sort_by_key(|r| (r.0 % p as u64, r.0));
}

#[test]
fn group_by_key_matches_btreemap() {
    cases(0x4D02, N, |rng| {
        let pairs = pairs(rng, 0..30, 0..1000, 0..400);
        let p = rng.usize_in(1..9);
        let cluster = cluster();
        let mut ctx = SparkContext::new(&cluster);
        let grouped = ctx
            .read_text(pairs.clone(), pairs.len() as u64 * 16, 1.0)
            .group_by_key(&mut ctx, "g", Phase::DistributedJoin, p)
            .unwrap()
            .collect(&mut ctx, "c", Phase::DistributedJoin)
            .unwrap();
        // Values stay in input order within a key.
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (k, v) in pairs {
            model.entry(k).or_default().push(v);
        }
        let mut expected: Vec<(u64, Vec<u64>)> = model.into_iter().collect();
        shuffle_order(&mut expected, p);
        assert_eq!(grouped, expected);
    });
}

#[test]
fn join_matches_nested_loops() {
    cases(0x4D04, N, |rng| {
        // Up to 60 pairs over 12 keys repeat keys on both sides; the key
        // ranges overlap by half, so some keys exist on one side only; one
        // case in five leaves a side empty.
        let shape = rng.usize_in(0..10);
        let left_len = if shape == 0 { 0..1 } else { 0..60 };
        let right_len = if shape == 1 { 0..1 } else { 0..60 };
        let left = pairs(rng, 0..12, 0..50, left_len);
        let right = pairs(rng, 6..18, 100..150, right_len);
        let p = rng.usize_in(1..6);
        let cluster = cluster();
        let mut ctx = SparkContext::new(&cluster);
        let l = ctx.read_text(left.clone(), left.len() as u64 * 16, 1.0);
        let r = ctx.read_text(right.clone(), right.len() as u64 * 16, 1.0);
        let got = l
            .join(r, &mut ctx, "j", Phase::DistributedJoin, p)
            .unwrap()
            .collect(&mut ctx, "c", Phase::DistributedJoin)
            .unwrap();
        // Left values in input order, then right values in input order.
        let mut expected: Vec<(u64, (u64, u64))> = Vec::new();
        for (k, a) in &left {
            for (k2, b) in &right {
                if k == k2 {
                    expected.push((*k, (*a, *b)));
                }
            }
        }
        shuffle_order(&mut expected, p);
        assert_eq!(got, expected);
    });
}

#[test]
fn memory_footprint_scales_with_multiplier() {
    cases(0x4D05, N, |rng| {
        let xs = rng.vec_u64(0..100, 1..200);
        let mult = rng.f64_in(1.0..10_000.0);
        let cluster = cluster();
        let mut ctx = SparkContext::new(&cluster);
        let small = ctx.read_text(xs.clone(), xs.len() as u64 * 8, 1.0).mem_full_total();
        let mut ctx2 = SparkContext::new(&cluster);
        let big = ctx2.read_text(xs, 0, mult).mem_full_total();
        // Allow integer rounding slack on tiny inputs.
        assert!(big as f64 >= small as f64 * (mult - 1.0).max(1.0) * 0.5);
    });
}

#[test]
fn sample_collect_fraction_bounds_hold() {
    cases(0x4D06, N, |rng| {
        let xs = rng.vec_u64(0..1000, 200..800);
        let fraction = rng.f64_in(0.0..1.0);
        let cluster = cluster();
        let mut ctx = SparkContext::new(&cluster);
        let mut rdd = ctx.read_text(xs.clone(), xs.len() as u64 * 8, 1.0);
        let n = rdd.sample_collect(&mut ctx, "s", Phase::IndexA, fraction, 99).unwrap().len();
        assert!(n <= xs.len());
        // Loose concentration bound: within ±40% + 20 of the expectation.
        let exp = fraction * xs.len() as f64;
        assert!((n as f64) <= exp * 1.4 + 20.0, "n={n} exp={exp}");
        assert!((n as f64) >= exp * 0.6 - 20.0, "n={n} exp={exp}");
    });
}
