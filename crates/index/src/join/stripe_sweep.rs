//! Cache-conscious striped forward plane-sweep — the default local-join
//! kernel.
//!
//! The classic forward sweep ([`super::plane_sweep`]) scans, for every
//! anchor rectangle, *all* rectangles of the other input whose x-interval
//! overlaps the anchor's — and rejects most of them on the y-test. On
//! realistic partitions (many small rectangles spread over a wide domain)
//! the failing y-tests dominate the filter. Tsitsigkos et al., *Parallel
//! In-Memory Evaluation of Spatial Joins* (arXiv:1908.11740), fix this with
//! 1D **mini-partitioning**: split the domain into horizontal y-stripes,
//! replicate every rectangle into each stripe it crosses, and sweep each
//! stripe pair independently — a candidate now overlaps the anchor's
//! y-stripe by construction, so almost every test it runs is a hit.
//!
//! This implementation adds three things on top of the textbook algorithm:
//!
//! * **SoA layout** ([`SoaBatch`]): each stripe is five contiguous column
//!   arrays instead of 40-byte records, so the sweep streams exactly the
//!   columns it touches and the prefetcher sees sequential reads;
//! * **skew-aware stripe sizing**: stripe cuts are equi-depth quantiles of
//!   a SplitMix64-sampled `ylo` histogram (Aji et al., arXiv:1509.00910
//!   motivate sampling-based partition sizing), so skewed inputs still get
//!   balanced stripes — deterministically, from a fixed seed;
//! * **reference-point de-duplication**: a pair overlapping several stripes
//!   is reported only by the stripe containing `max(ylo_a, ylo_b)` (the
//!   y-coordinate of the pair's reference point), so every pair appears
//!   exactly once without a sort/dedup pass.
//!
//! Stripe pairs run through [`sjc_par::par_map_flat`], whose stable
//! chunk-ordered merge makes pair order — and therefore the whole
//! [`CandidatePairs`] — bit-identical at every thread budget.
//!
//! A small call pays for none of this: under 2 × `STRIPE_TARGET` rectangles
//! there is one stripe, so no sample is drawn, nothing is replicated or
//! dispatched, and the two x-sorted batches are swept as they are. Its cost
//! is the SoA staging and the canonical count, both linear in its input.
//!
//! # Cost accounting
//!
//! The reported [`JoinStats::filter_tests`] is **not** the number of
//! comparisons this kernel happens to execute: it is the exact comparison
//! count of the canonical serial forward sweep over the same inputs,
//! computed in `O((n+m) log(n+m))` by binary searches over the sorted
//! `xlo` columns (see [`canonical_sweep_tests`]). The simulation models the
//! paper's systems, whose local joins run the classic sweep on 2015
//! hardware; which host kernel computes the (identical) pair set must never
//! move simulated time. `tests` pin
//! `stripe_sweep(..).stats == plane_sweep(..).stats` on random inputs.

use super::soa::SoaBatch;
use super::{CandidatePairs, JoinStats};
use crate::entry::IndexEntry;

/// Target rectangles per stripe (both inputs combined, before replication):
/// small enough that a stripe pair's working set lives in L1/L2, large
/// enough that stripe bookkeeping stays negligible.
const STRIPE_TARGET: usize = 512;

/// Upper bound on the stripe count — beyond this, replication overhead and
/// per-stripe fixed costs outgrow the filtering win.
const MAX_STRIPES: usize = 512;

/// Histogram sample size for the equi-depth stripe cuts.
const HIST_SAMPLE: usize = 2048;

/// Fixed SplitMix64 seed for the cut histogram: the kernel is a pure
/// function of its inputs, so the sample must be too.
const STRIPE_SEED: u64 = 0x5354_5249_5045;

/// SplitMix64 step (same algorithm as `sjc_data::rng::StdRng`): the state
/// advances by the golden-ratio increment, the output is the mixed state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Sorts both inputs into x-sorted SoA batches, mini-partitions them into
/// skew-aware y-stripes, and forward-sweeps each stripe pair. Returns the
/// exact pair set of [`super::plane_sweep`] with the exact same
/// [`JoinStats`] (canonical-sweep accounting) in a kernel-specific but
/// thread-count-independent pair order.
pub fn stripe_sweep(left: &[IndexEntry], right: &[IndexEntry]) -> CandidatePairs {
    if left.is_empty() || right.is_empty() {
        return CandidatePairs::default();
    }
    let l = SoaBatch::from_entries(left);
    let r = SoaBatch::from_entries(right);
    let stats = JoinStats { filter_tests: canonical_sweep_tests(&l, &r), index_nodes_visited: 0 };

    let total = l.len() + r.len();
    let stripes = (total / STRIPE_TARGET).clamp(1, MAX_STRIPES);
    let pairs = striped_pairs(&l, &r, stripes);
    CandidatePairs { pairs, stats }
}

/// One stripe pair plus its y-extent, ready to sweep independently.
struct StripeTask<'a> {
    l: &'a SoaBatch,
    r: &'a SoaBatch,
    /// The stripe owns reference points with `lo <= ref_y < hi`; the last
    /// stripe also owns `ref_y == +inf` (see `sweep_stripe`).
    lo: f64,
    hi: f64,
    last: bool,
}

/// The striping + sweeping core with an explicit stripe-count target, so
/// tests can force heavy replication on tiny inputs.
// The closure below is "redundant", but the hot-path analyzer roots its
// hot set at callees *named inside* `sjc_par` closures — a bare fn-item
// argument would drop `sweep_stripe` out of hot-alloc coverage.
#[allow(clippy::redundant_closure)]
pub(crate) fn striped_pairs(l: &SoaBatch, r: &SoaBatch, stripes: usize) -> Vec<(u64, u64)> {
    let cuts = stripe_cuts(l, r, stripes);
    if cuts.is_empty() {
        // One stripe (every small input): nothing to replicate, so the
        // batches are swept where they are.
        let (lo, hi) = (f64::NEG_INFINITY, f64::INFINITY);
        let mut out = Vec::new();
        sweep_stripe(&StripeTask { l, r, lo, hi, last: true }, &mut out);
        return out;
    }
    let count = cuts.len() + 1;
    let lows = std::iter::once(f64::NEG_INFINITY).chain(cuts.iter().copied());
    let highs = cuts.iter().copied().chain(std::iter::once(f64::INFINITY));
    let (lsegs, rsegs) = (build_stripes(l, &cuts), build_stripes(r, &cuts));
    let tasks: Vec<StripeTask> = lsegs
        .iter()
        .zip(&rsegs)
        .zip(lows)
        .zip(highs)
        .enumerate()
        .map(|(idx, (((l, r), lo), hi))| StripeTask { l, r, lo, hi, last: idx + 1 == count })
        .collect();
    // Skew-aware dispatch: equi-depth cuts balance stripe *populations*, but
    // tall replicated rectangles can still concentrate work in a few stripes.
    // LPT ordering by population keeps one fat stripe off the critical tail;
    // the pair output is bit-identical to unweighted dispatch by contract.
    sjc_par::par_map_flat_weighted(
        &tasks,
        |t| (t.l.len() + t.r.len()) as u64,
        |t, out| sweep_stripe(t, out),
    )
}

/// Exact comparison count of the canonical serial forward sweep.
///
/// The serial sweep (`plane_sweep`'s ground truth) merges both x-sorted
/// lists, anchoring the smaller `xlo` (left wins ties), and scans the other
/// list forward while `xlo <= anchor.xhi`, counting one test per scanned
/// candidate. Replaying that merge is `O(n·scan)`; counting it needs only
/// order statistics on the sorted `xlo` columns:
///
/// * a left anchor `a` is processed iff some right `xlo >= a.xlo` remains
///   (the sweep stops when either list is exhausted), and its scan starts
///   at the first right entry with `xlo >= a.xlo` (ties unconsumed — left
///   wins) and covers every right `xlo <= a.xhi`;
/// * a right anchor `b` is processed iff some left `xlo > b.xlo` remains,
///   and its scan covers every left entry with `b.xlo < xlo <= b.xhi`
///   (left entries tying `b.xlo` were consumed before `b` anchored).
///
/// `saturating_sub` guards the inverted-bounds empty-MBR encoding
/// (`xlo > xhi`), for which the sweep's scan breaks immediately.
fn canonical_sweep_tests(l: &SoaBatch, r: &SoaBatch) -> u64 {
    let (Some(&l_last), Some(&r_last)) = (l.xlo.last(), r.xlo.last()) else {
        return 0;
    };
    let mut tests = 0u64;
    // The scan-start bound is monotone in the anchor's ascending `xlo`, so a
    // forward pointer replaces one of the two binary searches per anchor;
    // only the `xhi` upper bound (unsorted) still needs `partition_point`.
    let mut start = 0usize;
    for (&xlo, &xhi) in l.xlo.iter().zip(&l.xhi) {
        if xlo <= r_last {
            while r.xlo.get(start).is_some_and(|&x| x < xlo) {
                start += 1;
            }
            tests += cnt_le(&r.xlo, xhi).saturating_sub(start) as u64;
        }
    }
    let mut start = 0usize;
    for (&xlo, &xhi) in r.xlo.iter().zip(&r.xhi) {
        if xlo < l_last {
            while l.xlo.get(start).is_some_and(|&x| x <= xlo) {
                start += 1;
            }
            tests += cnt_le(&l.xlo, xhi).saturating_sub(start) as u64;
        }
    }
    tests
}

/// Entries of an ascending column numerically `<= v`.
fn cnt_le(xs: &[f64], v: f64) -> usize {
    xs.partition_point(|&x| x <= v)
}

/// Interior stripe cuts: strictly increasing finite y values splitting the
/// domain into `cuts.len() + 1` stripes. Equi-depth quantiles of a seeded
/// `ylo` sample over both inputs, so stripe populations stay balanced under
/// skew; duplicate quantiles (heavy value repetition) collapse, yielding
/// fewer, still-correct stripes.
fn stripe_cuts(l: &SoaBatch, r: &SoaBatch, stripes: usize) -> Vec<f64> {
    let mut cuts = Vec::new();
    let total = l.len() + r.len();
    if stripes <= 1 || total == 0 {
        return cuts;
    }
    let mut sample: Vec<f64> = Vec::with_capacity(HIST_SAMPLE);
    let mut state = STRIPE_SEED;
    for _ in 0..HIST_SAMPLE {
        let idx = (splitmix64(&mut state) % total as u64) as usize;
        // `idx - l.len()` only evaluates when the left lookup missed, i.e.
        // `idx >= l.len()`; the +inf fallback (empty-MBR ylo) is dropped by
        // the finite filter below, like any empty-MBR draw.
        let y =
            l.ylo.get(idx).or_else(|| r.ylo.get(idx - l.len())).copied().unwrap_or(f64::INFINITY);
        if y.is_finite() {
            sample.push(y);
        }
    }
    sample.sort_by(|a, b| a.total_cmp(b));
    let mut prev = f64::NEG_INFINITY;
    for s in 1..stripes {
        if let Some(&cut) = sample.get(s * sample.len() / stripes) {
            if cut > prev {
                cuts.push(cut);
                prev = cut;
            }
        }
    }
    cuts
}

/// Mini-partitions one x-sorted batch into per-stripe SoA segments. A
/// rectangle is replicated into every stripe its y-interval crosses
/// (stripe `s` spans `[cut[s-1], cut[s])` with ±inf sentinels at the ends);
/// the scatter walks the batch in x order, so each segment stays x-sorted.
/// Inverted empty-MBR bounds give an empty stripe span — replicated
/// nowhere, which is correct: empty intersects nothing.
fn build_stripes(b: &SoaBatch, cuts: &[f64]) -> Vec<SoaBatch> {
    let stripes = cuts.len() + 1;
    // Pass 1: each rectangle's stripe span (first..=last crossed) and the
    // per-stripe populations, so segment columns allocate exactly once. The
    // staging vectors come from the scratch arena: a local join runs this
    // once per cell per side, and the spans/counts of the previous cell have
    // exactly the capacity the next one needs.
    let mut span: Vec<(u32, u32)> = sjc_par::scratch::take_vec();
    let mut counts: Vec<usize> = sjc_par::scratch::take_vec();
    counts.resize(stripes, 0);
    for (&ylo, &yhi) in b.ylo.iter().zip(&b.yhi) {
        let s0 = cuts.partition_point(|&c| c <= ylo);
        let s1 = cuts.partition_point(|&c| c <= yhi);
        span.push((s0 as u32, s1 as u32));
        for c in counts.iter_mut().take(s1 + 1).skip(s0) {
            *c += 1;
        }
    }
    let mut out: Vec<SoaBatch> = counts.iter().map(|&n| SoaBatch::with_capacity(n)).collect();
    // Pass 2: scatter each row into its stripes' column vectors.
    for (((((&(s0, s1), &xlo), &xhi), &ylo), &yhi), &id) in
        span.iter().zip(&b.xlo).zip(&b.xhi).zip(&b.ylo).zip(&b.yhi).zip(&b.id)
    {
        for seg in out.iter_mut().take(s1 as usize + 1).skip(s0 as usize) {
            seg.xlo.push(xlo);
            seg.xhi.push(xhi);
            seg.ylo.push(ylo);
            seg.yhi.push(yhi);
            seg.id.push(id);
        }
    }
    sjc_par::scratch::put_vec(span);
    sjc_par::scratch::put_vec(counts);
    out
}

/// Forward sweep of one stripe pair. Reports `(left_id, right_id)` for
/// every intersecting pair whose reference y (`max(ylo_a, ylo_b)`) lies in
/// this stripe — the de-duplication rule that makes replication exact.
fn sweep_stripe(t: &StripeTask, out: &mut Vec<(u64, u64)>) {
    let (l, r) = (t.l, t.r);
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&alo), Some(&blo)) = (l.xlo.get(i), r.xlo.get(j)) {
        if alo <= blo {
            // Left anchor: scan right candidates with xlo in [a.xlo, a.xhi].
            if let (Some(&axhi), Some(&aylo), Some(&ayhi), Some(&aid)) =
                (l.xhi.get(i), l.ylo.get(i), l.yhi.get(i), l.id.get(i))
            {
                let mut k = j;
                while let Some(&bxlo) = r.xlo.get(k) {
                    if bxlo > axhi {
                        break;
                    }
                    if let (Some(&bylo), Some(&byhi), Some(&bid)) =
                        (r.ylo.get(k), r.yhi.get(k), r.id.get(k))
                    {
                        if bylo <= ayhi && aylo <= byhi {
                            let ref_y = if aylo >= bylo { aylo } else { bylo };
                            if ref_y >= t.lo && (ref_y < t.hi || t.last) {
                                out.push((aid, bid));
                            }
                        }
                    }
                    k += 1;
                }
            }
            i += 1;
        } else {
            // Right anchor: scan left candidates with xlo in (b.xlo, b.xhi].
            if let (Some(&bxhi), Some(&bylo), Some(&byhi), Some(&bid)) =
                (r.xhi.get(j), r.ylo.get(j), r.yhi.get(j), r.id.get(j))
            {
                let mut k = i;
                while let Some(&axlo) = l.xlo.get(k) {
                    if axlo > bxhi {
                        break;
                    }
                    if let (Some(&aylo), Some(&ayhi), Some(&aid)) =
                        (l.ylo.get(k), l.yhi.get(k), l.id.get(k))
                    {
                        if aylo <= byhi && bylo <= ayhi {
                            let ref_y = if aylo >= bylo { aylo } else { bylo };
                            if ref_y >= t.lo && (ref_y < t.hi || t.last) {
                                out.push((aid, bid));
                            }
                        }
                    }
                    k += 1;
                }
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testgen::random_entries;
    use super::super::{brute_force, plane_sweep};
    use super::*;
    use sjc_geom::Mbr;
    use sjc_testkit::{cases, TestRng};

    /// Mixed-shape generator: mostly small rectangles, some zero-width /
    /// zero-height, some tall enough to span many stripes.
    fn mixed_entries(rng: &mut TestRng, n: usize, extent: f64) -> Vec<IndexEntry> {
        (0..n)
            .map(|id| {
                let x = rng.f64_in(0.0..extent);
                let y = rng.f64_in(0.0..extent);
                let w = match rng.u64_in(0..10) {
                    0 | 1 => 0.0,                        // degenerate width
                    2 => rng.f64_in(0.0..extent),        // wide
                    _ => rng.f64_in(0.0..extent / 20.0), // typical
                };
                let h = match rng.u64_in(0..10) {
                    0 | 1 => 0.0,                        // degenerate height
                    2 | 3 => rng.f64_in(0.0..extent),    // spans many stripes
                    _ => rng.f64_in(0.0..extent / 20.0), // typical
                };
                IndexEntry::new(id as u64, Mbr::new(x, y, x + w, y + h))
            })
            .collect()
    }

    #[test]
    fn equivalence_with_brute_force_under_forced_striping() {
        // The randomized equivalence pin of the kernel: arbitrary mixed
        // shapes (tall replication-heavy MBRs, zero-width/zero-height,
        // empty sides) across a swept stripe count, so replication and
        // reference-point dedup are exercised even on small inputs.
        cases(0x57121, 40, |rng| {
            let nl = rng.usize_in(0..260);
            let nr = rng.usize_in(0..260);
            let left = mixed_entries(rng, nl, 100.0);
            let right = mixed_entries(rng, nr, 100.0);
            let expected = brute_force(&left, &right).sorted_pairs();
            for stripes in [1usize, 2, 3, 7, 16, 61] {
                if left.is_empty() || right.is_empty() {
                    continue;
                }
                let l = SoaBatch::from_entries(&left);
                let r = SoaBatch::from_entries(&right);
                let mut got = striped_pairs(&l, &r, stripes);
                let n_raw = got.len();
                got.sort_unstable();
                got.dedup();
                assert_eq!(n_raw, got.len(), "replicated pairs must be reported exactly once");
                assert_eq!(got, expected, "stripes={stripes}");
            }
        });
    }

    #[test]
    fn default_kernel_agrees_with_brute_force() {
        cases(0x57122, 25, |rng| {
            let nl = rng.usize_in(0..400);
            let nr = rng.usize_in(0..400);
            let left = mixed_entries(rng, nl, 1000.0);
            let right = mixed_entries(rng, nr, 1000.0);
            let expected = brute_force(&left, &right).sorted_pairs();
            assert_eq!(stripe_sweep(&left, &right).sorted_pairs(), expected);
        });
    }

    #[test]
    fn stats_equal_plane_sweep_canonical_accounting() {
        // The cost-model invariant the sim_ns pin rests on: the reported
        // JoinStats are bit-identical to plane_sweep's, including min_x
        // tie storms and inverted-bounds empty MBRs.
        cases(0x57123, 30, |rng| {
            let nl = rng.usize_in(1..300);
            let nr = rng.usize_in(1..300);
            let mut left = mixed_entries(rng, nl, 50.0);
            let mut right = mixed_entries(rng, nr, 50.0);
            // Force min_x collisions across the two lists.
            for e in left.iter_mut().chain(right.iter_mut()) {
                if rng.bool_with(0.3) {
                    let snapped = e.mbr.min_x.round();
                    e.mbr = Mbr::new(snapped, e.mbr.min_y, snapped + 1.0, e.mbr.max_y);
                }
            }
            if rng.bool_with(0.1) {
                left.push(IndexEntry::new(9999, Mbr::empty()));
            }
            if rng.bool_with(0.1) {
                right.push(IndexEntry::new(9998, Mbr::empty()));
            }
            let sweep = plane_sweep(&left, &right);
            let striped = stripe_sweep(&left, &right);
            assert_eq!(striped.stats, sweep.stats, "canonical accounting must match the sweep");
            assert_eq!(striped.sorted_pairs(), sweep.sorted_pairs());
        });
    }

    #[test]
    fn empty_inputs_and_empty_mbrs() {
        let some = random_entries(3, 40, 10.0, 2.0);
        assert!(stripe_sweep(&some, &[]).pairs.is_empty());
        assert!(stripe_sweep(&[], &some).pairs.is_empty());
        assert!(stripe_sweep(&[], &[]).pairs.is_empty());
        // Empty-MBR entries (inverted bounds) join nothing.
        let empties: Vec<IndexEntry> = (0..5).map(|i| IndexEntry::new(i, Mbr::empty())).collect();
        let out = stripe_sweep(&empties, &some);
        assert!(out.pairs.is_empty());
        assert_eq!(out.stats, plane_sweep(&empties, &some).stats);
    }

    #[test]
    fn identical_rectangles_tie_storm() {
        // All rectangles identical: maximal x-ties, maximal y-overlap, and
        // with forced striping every pair is replicated into every stripe —
        // dedup must still report each exactly once.
        let rect = Mbr::new(2.0, 1.0, 3.0, 9.0);
        let left: Vec<IndexEntry> = (0..20).map(|i| IndexEntry::new(i, rect)).collect();
        let right: Vec<IndexEntry> = (100..115).map(|i| IndexEntry::new(i, rect)).collect();
        let l = SoaBatch::from_entries(&left);
        let r = SoaBatch::from_entries(&right);
        for stripes in [1usize, 4, 32] {
            let mut pairs = striped_pairs(&l, &r, stripes);
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), 20 * 15, "stripes={stripes}");
        }
        let full = stripe_sweep(&left, &right);
        assert_eq!(full.pairs.len(), 20 * 15);
        assert_eq!(full.stats, plane_sweep(&left, &right).stats);
    }

    #[test]
    fn skewed_y_distribution_still_partitions() {
        // 95% of the mass in a thin y-band: equi-depth cuts concentrate
        // there; the result must still be exact.
        cases(0x57124, 10, |rng| {
            let mk = |rng: &mut TestRng, n: usize, base: u64| -> Vec<IndexEntry> {
                (0..n)
                    .map(|i| {
                        let x = rng.f64_in(0.0..100.0);
                        let y = if rng.bool_with(0.95) {
                            rng.f64_in(40.0..41.0)
                        } else {
                            rng.f64_in(0.0..100.0)
                        };
                        IndexEntry::new(
                            base + i as u64,
                            Mbr::new(x, y, x + rng.f64_in(0.0..3.0), y + rng.f64_in(0.0..3.0)),
                        )
                    })
                    .collect()
            };
            let left = mk(rng, 300, 0);
            let right = mk(rng, 200, 1000);
            let expected = brute_force(&left, &right).sorted_pairs();
            let l = SoaBatch::from_entries(&left);
            let r = SoaBatch::from_entries(&right);
            let mut got = striped_pairs(&l, &r, 16);
            got.sort_unstable();
            assert_eq!(got, expected);
        });
    }

    #[test]
    fn pair_order_is_thread_count_independent() {
        let left = random_entries(41, 3000, 300.0, 4.0);
        let right = random_entries(42, 2000, 300.0, 4.0);
        sjc_par::set_global_threads(1);
        let serial = stripe_sweep(&left, &right);
        sjc_par::set_global_threads(8);
        let parallel = stripe_sweep(&left, &right);
        sjc_par::set_global_threads(0);
        assert_eq!(serial.pairs, parallel.pairs, "exact pair order, not just the set");
        assert_eq!(serial.stats, parallel.stats);
    }

    #[test]
    fn cuts_are_strictly_increasing_and_bounded() {
        let left = random_entries(7, 2000, 100.0, 2.0);
        let right = random_entries(8, 1000, 100.0, 2.0);
        let l = SoaBatch::from_entries(&left);
        let r = SoaBatch::from_entries(&right);
        let cuts = stripe_cuts(&l, &r, 8);
        assert!(!cuts.is_empty() && cuts.len() <= 7);
        for w in cuts.windows(2) {
            assert!(w[0] < w[1], "strictly increasing cuts: {cuts:?}");
        }
        assert!(cuts.iter().all(|c| c.is_finite()));
        // Deterministic: the sample is seeded, so cuts replay exactly.
        assert_eq!(cuts, stripe_cuts(&l, &r, 8));
    }
}
