//! The lazily-initialized persistent worker pool.
//!
//! Thread creation costs tens of microseconds, so spawning (and joining) a
//! fresh set of `std::thread::scope` threads per call would dwarf the work
//! of the many fine-grained parallel calls the three-stage join pipeline
//! makes. Every parallel primitive in this crate therefore shares one
//! process-lifetime pool: workers are spawned once (lazily, on the first
//! parallel call that wants help), park on a condvar between jobs, and
//! claim work from an injector queue of submitted jobs.
//!
//! ## Determinism
//!
//! The pool never decides *what* a result is — only *who* computes it.
//! A job is one lifetime-erased claim-loop closure; every participant
//! (helpers and the submitting caller alike) runs the same loop, which
//! claims chunk ranges from an atomic cursor and writes results into
//! caller-owned, index-addressed slots. Which thread claims which chunk
//! varies run to run; the slot a result lands in never does. All
//! 1-vs-8-thread bit-identity guarantees therefore hold exactly as they did
//! under scoped spawning.
//!
//! ## Job lifecycle and memory safety
//!
//! The claim loop borrows the caller's stack (items, closure, output
//! slots), so its lifetime is erased before it enters the shared queue. The
//! invariant that makes this sound: **[`run`] does not return until every
//! helper pass that claimed the job has been counted back in** under the
//! pool mutex. Per job the queue tracks `slots_left` (helper passes still
//! claimable) and `running` (passes currently executing). The caller
//! participates first, then revokes the remaining `slots_left` and waits
//! until `running == 0`, at which point the entry is removed and no worker
//! can reach the erased pointers again — a worker's last touch of a job is
//! the queue-mutex unlock that publishes its decrement.
//!
//! ## Panics and nesting
//!
//! A panic in any pass is caught, parked in the job's caller-owned slot,
//! and re-raised on the caller after every pass has finished (matching the
//! propagation the scoped version got from `Scope::join`). Workers mark
//! themselves with a thread-local flag; a parallel call issued *from* a
//! worker runs serially on that worker ([`on_worker`]), so nested
//! parallelism cannot deadlock the fixed-size pool.

use std::cell::Cell;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Hard cap on pool size — a backstop against absurd `SJC_PAR_THREADS`
/// values, far above any real hardware budget this workspace targets.
const MAX_WORKERS: usize = 256;

/// A caught panic payload, parked until the job's caller can re-raise it.
type Payload = Box<dyn std::any::Any + Send + 'static>;

/// One submitted job in the injector queue. `work` and `panic_slot` point
/// into the stack frame of the [`run`] call that owns the job; see the
/// module docs for the invariant that keeps them valid.
struct JobEntry {
    id: u64,
    work: *const (dyn Fn() + Sync + 'static),
    panic_slot: *const Mutex<Option<Payload>>,
    /// Helper passes still claimable. The caller's own pass is not counted.
    slots_left: usize,
    /// Helper passes currently executing.
    running: usize,
}

// SAFETY: the raw pointers are only dereferenced by workers between
// claiming the job and reporting the pass done, and `run` keeps the
// pointees alive until no pass is claimable or running.
unsafe impl Send for JobEntry {}

struct State {
    jobs: Vec<JobEntry>,
    next_id: u64,
    /// Workers spawned so far (process lifetime; they never exit).
    workers: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Wakes parked workers when a job with open helper slots arrives.
    work_ready: Condvar,
    /// Wakes waiting callers when a helper pass finishes.
    pass_done: Condvar,
}

// sjc-lint: allow(cache-purity) — lazily builds the process-global worker pool; scheduling state only decides which thread computes what, never the results (pinned by the 1-vs-8-thread bit-identity tests)
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State { jobs: Vec::new(), next_id: 0, workers: 0 }),
        work_ready: Condvar::new(),
        pass_done: Condvar::new(),
    })
}

thread_local! {
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on a pool worker thread. The primitives consult this to run nested
/// parallel calls serially instead of blocking a worker on other workers.
pub(crate) fn on_worker() -> bool {
    IS_WORKER.with(|w| w.get())
}

/// Locks the pool state, recovering from poisoning: the state (claim
/// counters, queue membership) is updated atomically under the lock, so a
/// panic elsewhere never leaves it torn.
fn lock_state(p: &'static Pool) -> MutexGuard<'static, State> {
    p.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// The body every pool thread runs forever: claim a helper pass, execute
/// the job's claim loop, report the pass done, park when idle.
fn worker_loop(p: &'static Pool) {
    IS_WORKER.with(|w| w.set(true));
    let mut st = lock_state(p);
    loop {
        let claimed = st.jobs.iter_mut().find(|j| j.slots_left > 0).map(|j| {
            j.slots_left -= 1;
            j.running += 1;
            (j.id, j.work, j.panic_slot)
        });
        let Some((id, work, panic_slot)) = claimed else {
            st = p.work_ready.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        drop(st);
        // SAFETY: the pass was claimed above (`running` incremented under
        // the lock), so the submitting `run` call is still blocked in its
        // wait loop and the pointees are alive.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (*work)();
        }));
        if let Err(payload) = result {
            // SAFETY: as above — the job cannot be retired while this pass
            // is counted as running.
            let slot = unsafe { &*panic_slot };
            let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
            guard.get_or_insert(payload);
            drop(guard);
        }
        st = lock_state(p);
        if let Some(pos) = st.jobs.iter().position(|j| j.id == id) {
            // sjc-lint: allow(panic-path) — `pos` was just returned by position() on the same locked vec
            let job = &mut st.jobs[pos];
            job.running -= 1;
            if job.slots_left == 0 && job.running == 0 {
                st.jobs.swap_remove(pos);
            }
        }
        // The submitting caller may be waiting for this pass; its final
        // observation of `running == 0` happens-after this unlock, which is
        // the worker's last touch of the job.
        p.pass_done.notify_all();
    }
}

/// Spawns workers until the pool holds `want` (capped at [`MAX_WORKERS`]).
/// Spawn failure degrades to fewer helpers — never to an error: the caller
/// always participates, so progress is guaranteed with zero workers.
fn ensure_workers(st: &mut State, p: &'static Pool, want: usize) {
    let want = want.min(MAX_WORKERS);
    while st.workers < want {
        let spawned = std::thread::Builder::new()
            .name("sjc-par-worker".to_string())
            .spawn(move || worker_loop(p));
        if spawned.is_err() {
            break;
        }
        st.workers += 1;
    }
}

/// Runs `work` on up to `helpers` pool workers concurrently with the
/// caller's own invocation, returning once every started pass has
/// finished. `work` must be a claim-loop: safe to invoke from several
/// threads at once, partitioning the underlying items among invocations
/// (the primitives do this with an atomic cursor). Panics from any pass are
/// re-raised on the caller.
pub(crate) fn run(helpers: usize, work: &(dyn Fn() + Sync)) {
    if helpers == 0 || on_worker() {
        // Serial fast path, and the nested-parallelism rule: a worker never
        // blocks on other workers, it just does the work itself.
        work();
        return;
    }
    let p = pool();
    let panic_slot: Mutex<Option<Payload>> = Mutex::new(None);

    // SAFETY: lifetime erasure only — the pointee outlives the job because
    // this function does not return (nor unwind: see the catch below) until
    // the queue entry is gone and `running == 0`.
    let work_ptr: *const (dyn Fn() + Sync + 'static) =
        unsafe { std::mem::transmute(work as *const (dyn Fn() + Sync)) };

    let id = {
        let mut st = lock_state(p);
        let id = st.next_id;
        st.next_id += 1;
        ensure_workers(&mut st, p, helpers);
        st.jobs.push(JobEntry {
            id,
            work: work_ptr,
            panic_slot: &panic_slot,
            slots_left: helpers,
            running: 0,
        });
        id
    };
    p.work_ready.notify_all();

    // The caller is a full participant — with zero free workers it simply
    // runs the whole claim loop itself.
    let caller_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));

    // Revoke the unclaimed helper passes and wait out the running ones.
    let mut st = lock_state(p);
    // When the entry is already gone the last helper pass retired it.
    while let Some(pos) = st.jobs.iter().position(|j| j.id == id) {
        // sjc-lint: allow(panic-path) — `pos` was just returned by position() on the same locked vec
        let job = &mut st.jobs[pos];
        job.slots_left = 0;
        if job.running == 0 {
            st.jobs.swap_remove(pos);
            break;
        }
        st = p.pass_done.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    drop(st);

    // From here no thread can reach `work` or `panic_slot`; re-raise the
    // caller's own panic first (it is the primary failure), then a helper's.
    if let Err(payload) = caller_result {
        std::panic::resume_unwind(payload);
    }
    let helper_panic = panic_slot.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(payload) = helper_panic {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn caller_alone_completes_all_work_with_zero_helpers() {
        let cursor = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let work = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= 100 {
                break;
            }
            hits.fetch_add(1, Ordering::Relaxed);
        };
        run(0, &work);
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn helpers_and_caller_cover_every_claim_exactly_once() {
        for helpers in [1, 3, 7] {
            let n = 10_000;
            let cursor = AtomicUsize::new(0);
            let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let work = || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                seen[i].fetch_add(1, Ordering::Relaxed);
            };
            run(helpers, &work);
            assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1), "helpers={helpers}");
        }
    }

    #[test]
    fn panic_in_a_pass_propagates_to_the_caller_after_the_job_retires() {
        let hit = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cursor = AtomicUsize::new(0);
            let work = || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= 8 {
                    break;
                }
                if i == 3 {
                    panic!("boom");
                }
                hit.store(true, Ordering::Relaxed);
            };
            run(2, &work);
        }));
        assert!(result.is_err(), "the pass panic must re-raise on the caller");
    }

    #[test]
    fn concurrent_jobs_from_many_threads_all_complete() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let cursor = AtomicUsize::new(0);
                        let sum = AtomicUsize::new(0);
                        let work = || loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= 64 {
                                break;
                            }
                            sum.fetch_add(i, Ordering::Relaxed);
                        };
                        run(3, &work);
                        assert_eq!(sum.load(Ordering::Relaxed), 64 * 63 / 2);
                    }
                });
            }
        });
    }
}
