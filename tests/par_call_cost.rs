//! The fixed cost of one `sjc-par` call.
//!
//! Every `par_*` entry point resolves the ambient thread budget, and the
//! kernels call them once per cell pair — thousands of times per
//! experiment. Resolution must therefore stay a few cached reads: when it
//! re-read `available_parallelism()` (cgroup files on Linux) and re-parsed
//! `SJC_PAR_THREADS` per call, the loop below took 150–300 ms; with both
//! memoized it takes under 2 ms.

use std::time::Duration;

use sjc_bench::microbench::time;
use sjc_par::{hardware_threads, par_map, set_global_threads, Budget};

/// One test owns the process-global override: tests of one binary share it.
#[test]
fn budget_resolution_is_cheap_and_the_override_still_switches_mid_process() {
    set_global_threads(2);
    let items = [1u64, 2, 3, 4];
    // Best of three: the bound has ~25x headroom over the memoized cost and
    // sits ~3x under the un-memoized one, but a shared host can stall any
    // single repetition for tens of milliseconds.
    let best = (0..3)
        .map(|_| {
            let (sum, wall) = time(|| {
                let mut sum = 0u64;
                for _ in 0..10_000 {
                    sum += par_map(&items, |&x| x + 1).iter().sum::<u64>();
                    sum += Budget::resolve().effective_threads() as u64;
                }
                sum
            });
            assert_eq!(sum, 10_000 * (14 + 2.min(hardware_threads()) as u64));
            wall
        })
        .min()
        .unwrap_or(Duration::MAX);
    assert!(
        best < Duration::from_millis(50),
        "20 000 budget resolutions took {best:?}: is something re-read per call?"
    );

    // Memoizing the environment and the hardware must not freeze the budget.
    for n in [1usize, 3, 2, 7] {
        set_global_threads(n);
        assert_eq!(Budget::resolve().threads(), n);
        assert_eq!(Budget::resolve().effective_threads(), n.min(hardware_threads()));
    }
    set_global_threads(0);
    assert_eq!(Budget::resolve(), Budget::resolve(), "the ambient budget is a process constant");
}
