//! Minimal wall-clock micro-benchmark harness (std-only Criterion stand-in).
//!
//! The bench crate is the **only** place in the workspace allowed to read
//! the host clock (`sjc-lint`'s `bench-isolation` rule): simulated results
//! must never depend on wall time, but measuring the harness itself is
//! exactly what benches are for. Each benchmark warms up briefly, then runs
//! batches until a time budget is spent and reports the per-iteration
//! median, min and max.
//!
//! Usage from a `harness = false` bench target:
//!
//! ```no_run
//! use sjc_bench::microbench::{black_box, Bench};
//!
//! let mut b = Bench::from_args();
//! b.bench("sum_1k", || (0..1000u64).map(black_box).sum::<u64>());
//! ```
//!
//! A bench binary accepts an optional substring filter argument, matching
//! `cargo bench -p sjc-bench --bench geom_micro -- point_in`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target measuring time per benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(400);
/// Warm-up time per benchmark.
const WARMUP_BUDGET: Duration = Duration::from_millis(100);
/// Number of timed batches the budget is split into.
const BATCHES: usize = 10;

/// The bench runner: owns the CLI filter and prints one line per benchmark.
pub struct Bench {
    filter: Option<String>,
}

impl Bench {
    /// Reads an optional substring filter from the command line (criterion
    /// compatibility: `--bench` flags are ignored).
    pub fn from_args() -> Bench {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Bench { filter }
    }

    /// Runs `f` repeatedly and reports per-iteration timing. The closure's
    /// result is black-boxed so the computation cannot be optimized away.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        self.run(name, 1, "iter", f)
    }

    /// [`bench_in`](Self::bench_in) for an `f` that handles `records`
    /// records a call: reports the time per record.
    pub fn bench_records_in<R>(
        &mut self,
        group: &str,
        name: &str,
        records: usize,
        f: impl FnMut() -> R,
    ) {
        self.run(&format!("{group}/{name}"), records.max(1) as u64, "record", f)
    }

    /// Times `f`, reporting the time per call divided by `per`, per `unit`.
    fn run<R>(&mut self, name: &str, per: u64, unit: &str, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }

        // Warm-up: also discovers how many iterations fit a batch.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP_BUDGET || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = WARMUP_BUDGET.as_nanos() as u64 / warm_iters.max(1);
        let batch_ns = (MEASURE_BUDGET.as_nanos() as u64 / BATCHES as u64).max(1);
        let iters_per_batch = (batch_ns / per_iter.max(1)).clamp(1, 1_000_000);

        let mut batch_per_iter_ns: Vec<u64> = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(f());
            }
            batch_per_iter_ns.push(start.elapsed().as_nanos() as u64 / (iters_per_batch * per));
        }
        batch_per_iter_ns.sort_unstable();
        let median = batch_per_iter_ns[batch_per_iter_ns.len() / 2];
        let min = batch_per_iter_ns.first().copied().unwrap_or(0);
        let max = batch_per_iter_ns.last().copied().unwrap_or(0);
        println!(
            "{name:<44} {:>12}/{unit}  (min {}, max {}, {} iters × {} batches)",
            fmt_ns(median),
            fmt_ns(min),
            fmt_ns(max),
            iters_per_batch,
            BATCHES
        );
    }

    /// Namespaced variant: `group/name` labels, criterion-style.
    pub fn bench_in<R>(&mut self, group: &str, name: &str, f: impl FnMut() -> R) {
        self.bench(&format!("{group}/{name}"), f);
    }
}

/// Runs `f` once and returns its result with the wall time it took. The
/// bench-isolation lint keeps `Instant::now` inside this crate, so this is
/// how anything outside it (a root test bounding a host cost) reads the
/// clock.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_respects_filter() {
        let mut b = Bench { filter: Some("match".to_string()) };
        let mut matched = 0u32;
        let mut skipped = 0u32;
        b.bench("matching_name", || matched += 1);
        b.bench("other", || skipped += 1);
        assert!(matched > 0, "filtered-in bench must run");
        assert_eq!(skipped, 0, "filtered-out bench must not run");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
