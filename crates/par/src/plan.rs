//! Adaptive granularity for the fine-grained [`crate::par_map`]: how a call
//! is split into chunks, and when it should not be split at all.
//!
//! The old runtime used one fixed heuristic (`SPAWN_MIN` items) tuned for
//! per-call thread spawning. The persistent pool changes the cost model —
//! engaging a helper now costs a condvar wake plus a queue transaction, not
//! a thread spawn — so the decision is made by a pure, unit-testable
//! planner instead:
//!
//! * **serial fast path** — when the *estimated total work* (items × a
//!   static per-item cost weight) is below `SERIAL_CUTOVER_WORK`, every
//!   helper woken would cost more than it contributes; the call runs on the
//!   caller. This is what keeps `data_gen`-sized workloads from paying any
//!   coordination tax at 8 threads.
//! * **chunk sizing** — chunks are big enough to amortize the atomic claim
//!   (`CLAIM_AMORTIZE_WORK / ITEM_COST` items) and small enough to leave
//!   ~`CHUNKS_PER_WORKER` chunks per participant for the tail.
//! * **oversubscription guard** — an *ambient* budget (resolved from
//!   `SJC_PAR_THREADS` or the global override) is capped at
//!   [`crate::hardware_threads`]: more CPU-bound threads than cores only
//!   adds context-switch overhead, which is exactly the negative scaling
//!   the old baseline measured. An *explicit* budget
//!   ([`crate::Budget::explicit`]) is honored verbatim so tests can drive
//!   the pool oversubscribed on any box.
//!
//! The weighted maps ([`crate::par_map_weighted`],
//! [`crate::par_map_flat_weighted`]) do not plan: their items are coarse
//! (a work, a cell, a reduce group), claimed one at a time, so they engage
//! one helper per item beyond the caller's, up to the budget.
//!
//! Everything here is a pure function of its arguments, so the planner
//! itself is deterministic and directly testable.

use crate::Budget;

/// Minimum estimated work (items × `ITEM_COST`) before any helper is
/// woken. A pool hand-off costs a few microseconds end to end; this engages
/// helpers from ~1k items upward.
const SERIAL_CUTOVER_WORK: u64 = 4096;

/// Target work units per chunk so the atomic range-claim stays negligible.
const CLAIM_AMORTIZE_WORK: u64 = 256;

/// Target chunks per participating thread: enough stealable slack for the
/// tail without re-introducing per-item claim traffic.
const CHUNKS_PER_WORKER: usize = 8;

/// Chunks are capped at this multiple of the claim-amortize floor, so
/// large calls keep enough chunks for tail balance.
const CHUNK_SPREAD: usize = 16;

/// Per-item cost weight of a mapped item (a record transform, a key
/// extraction): a few times the cost of a trivial integer op (weight 1).
const ITEM_COST: u64 = 4;

/// How one parallel call executes: `helpers == 0` is the serial fast path;
/// otherwise the caller plus up to `helpers` pool workers claim ranges of
/// `chunk` items each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkPlan {
    pub chunk: usize,
    pub helpers: usize,
}

impl ChunkPlan {
    pub fn is_serial(&self) -> bool {
        self.helpers == 0
    }
}

/// Plans a [`crate::par_map`] call over `n` items.
pub(crate) fn plan_chunks(n: usize, budget: Budget) -> ChunkPlan {
    let threads = budget.effective_threads();
    let work = (n as u64).saturating_mul(ITEM_COST);
    if threads <= 1 || work < SERIAL_CUTOVER_WORK {
        return ChunkPlan { chunk: n.max(1), helpers: 0 };
    }

    // Floor: enough work per chunk to amortize the claim; cap: a bounded
    // multiple of that floor. Between the two, target ~CHUNKS_PER_WORKER
    // chunks per participant.
    let amortize_floor = (CLAIM_AMORTIZE_WORK / ITEM_COST) as usize;
    let balance_target = n.div_ceil(threads * CHUNKS_PER_WORKER).max(1);
    let chunk = balance_target.min(amortize_floor * CHUNK_SPREAD).max(amortize_floor).min(n);

    let n_chunks = n.div_ceil(chunk);
    let helpers = threads.min(n_chunks).saturating_sub(1);
    ChunkPlan { chunk, helpers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_inputs_take_the_serial_fast_path_even_at_eight_threads() {
        // The data_gen regression: sub-threshold workloads must not wake a
        // single helper no matter the requested budget.
        for n in [0, 1, 16, 100, 1000] {
            let p = plan_chunks(n, Budget::explicit(8));
            assert!(p.is_serial(), "n={n} plan={p:?}");
        }
        // Just past the cutover the same budget engages helpers.
        let p = plan_chunks((SERIAL_CUTOVER_WORK / ITEM_COST) as usize, Budget::explicit(8));
        assert!(!p.is_serial(), "{p:?}");
    }

    #[test]
    fn chunks_amortize_claims() {
        let p = plan_chunks(100_000, Budget::explicit(4));
        assert!(p.chunk >= (CLAIM_AMORTIZE_WORK / ITEM_COST) as usize, "{p:?}");
        assert_eq!(p.helpers, 3);
    }

    #[test]
    fn helpers_never_exceed_the_chunk_count() {
        let p = plan_chunks(5000, Budget::explicit(64));
        assert!(p.helpers < 5000usize.div_ceil(p.chunk), "{p:?}");
    }

    #[test]
    fn explicit_budgets_are_never_capped_to_hardware() {
        // The ambient-cap half lives next to the resolution test in lib.rs
        // (both mutate the process-global override and must not race).
        let hw = crate::hardware_threads();
        assert_eq!(Budget::explicit(hw + 7).effective_threads(), hw + 7);
    }
}
