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

    /// [`bench`](Self::bench) for an `f` that needs a fresh input on every
    /// call: `setup` builds it, and drops it after, outside the timer. Each
    /// call is timed on its own, so `f` should take microseconds or more.
    pub fn bench_with_setup<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(&S) -> R,
    ) {
        if self.skips(name) {
            return;
        }
        let mut timed = || {
            let input = setup();
            let start = Instant::now();
            black_box(f(&input));
            let spent = start.elapsed();
            drop(input);
            spent
        };
        let mut warm_spent = Duration::ZERO;
        let mut warm_iters: u64 = 0;
        while warm_spent < WARMUP_BUDGET || warm_iters == 0 {
            warm_spent += timed();
            warm_iters += 1;
        }
        let per_iter = warm_spent.as_nanos() as u64 / warm_iters;
        let iters_per_batch = batch_iters(per_iter);
        let batch_per_iter_ns: Vec<u64> = (0..BATCHES)
            .map(|_| {
                let spent: Duration = (0..iters_per_batch).map(|_| timed()).sum();
                spent.as_nanos() as u64 / iters_per_batch
            })
            .collect();
        report(name, "iter", iters_per_batch, batch_per_iter_ns);
    }

    /// Whether the command-line filter leaves `name` out.
    fn skips(&self, name: &str) -> bool {
        self.filter.as_deref().is_some_and(|filter| !name.contains(filter))
    }

    /// Times `f`, reporting the time per call divided by `per`, per `unit`.
    fn run<R>(&mut self, name: &str, per: u64, unit: &str, mut f: impl FnMut() -> R) {
        if self.skips(name) {
            return;
        }

        // Warm-up: also discovers how many iterations fit a batch.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP_BUDGET || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = WARMUP_BUDGET.as_nanos() as u64 / warm_iters.max(1);
        let iters_per_batch = batch_iters(per_iter);

        let mut batch_per_iter_ns: Vec<u64> = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(f());
            }
            batch_per_iter_ns.push(start.elapsed().as_nanos() as u64 / (iters_per_batch * per));
        }
        report(name, unit, iters_per_batch, batch_per_iter_ns);
    }

    /// Namespaced variant: `group/name` labels, criterion-style.
    pub fn bench_in<R>(&mut self, group: &str, name: &str, f: impl FnMut() -> R) {
        self.bench(&format!("{group}/{name}"), f);
    }
}

/// How many calls of `per_iter_ns` each fill one batch of the budget.
fn batch_iters(per_iter_ns: u64) -> u64 {
    let batch_ns = (MEASURE_BUDGET.as_nanos() as u64 / BATCHES as u64).max(1);
    (batch_ns / per_iter_ns.max(1)).clamp(1, 1_000_000)
}

/// Prints one benchmark's line: the median, min and max of the batches'
/// per-call times.
fn report(name: &str, unit: &str, iters_per_batch: u64, mut batch_per_iter_ns: Vec<u64>) {
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
    fn setup_runs_once_per_timed_call_and_respects_filter() {
        let mut b = Bench { filter: Some("match".to_string()) };
        let (mut setups, mut calls) = (0u64, 0u64);
        b.bench_with_setup(
            "matching_setup",
            || {
                setups += 1;
                setups
            },
            |&fresh| {
                calls += 1;
                assert_eq!(fresh, calls, "each call gets its own fresh input");
            },
        );
        assert!(calls > 0 && setups == calls, "{setups} setups for {calls} calls");
        b.bench_with_setup("other", || setups += 1, |_| calls += 1);
        assert_eq!(setups, calls, "filtered-out bench must not set up or run");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
